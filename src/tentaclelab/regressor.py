"""Bidirectional LSTM regressor from pressure series to bending state.

Everything is plain numpy: forward pass, backpropagation through time,
and SGD-with-momentum training. The network is one bidirectional LSTM
layer followed by a tanh fully connected layer and a linear output
layer; inputs and targets are z-scored with statistics frozen at
training time.

The time loop holds only the sequential work. The input projection is
one GEMM per direction before it, and the weight gradients are GEMMs
over the per-step pre-activation gradients after it. The forward and
the time-reversed backward direction are stepped together on one (2H,)
state, through a block-diagonal recurrent matrix with gate-interleaved
rows, so each step makes one recurrent product for both directions.

One driver, `_lstm_run`, steps the loop for `forward` and `train`, in
blocks as long as the rows it is lent. `forward` lends rows for blocks
of _BLOCK steps and keeps only the (T, 2H) hidden states it returns.
`train` lends rows for its longest chunk, so a chunk is one block and
every step's rows stay for BPTT. It allocates them once and reuses them
for every chunk: allocated per chunk, arrays of this size are mapped
afresh by the allocator each time, and every chunk pays page faults.

With 2H-wide vectors a step's cost is the count of numpy calls, so the
rows are laid out to need few. Gate row s holds i, f, g, o and, in a
fifth slot, the c carried into step s: f*c + i*g is one product of the
[i, f] and [g, c] views and one add. BPTT carries [dc, dh] as one
(2, 2H) row and multiplies it by a row [f[s+1], o*(1 - tanh(c)^2)]
filled before its loop. The rows build every per-step view once, and
hold U, Us and the recurrent products' output buffers. BPTT keeps its
working set by reusing rows the forward steps are done with: the pair
factors go in the projection rows, the head's gradient dh_ext in the
tanh(c) rows, and dZf / dZb in m once its loop ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .checks import integer, number, number_array
from .fitting import SHAPES

__all__ = [
    "LabeledSequence",
    "TrainConfig",
    "RegressorWeights",
    "TrainingError",
    "forward",
    "gradients",
    "train",
    "save_weights",
    "load_weights",
]

WEIGHTS_SCHEMA = 2

# Steps per block of `forward`: the input projection and the gate, h, c
# and tanh(c) rows it lends _lstm_run cover one block, not the series.
_BLOCK = 256


def _param_shapes(n_in: int, n_out: int, H: int) -> dict:
    """Name and shape of every parameter array, in storage order;
    per-direction LSTM blocks use the f/b suffix."""
    return {"Wf": (4 * H, n_in), "Uf": (4 * H, H), "bf": (4 * H,),
            "Wb": (4 * H, n_in), "Ub": (4 * H, H), "bb": (4 * H,),
            "W1": (H, 2 * H), "b1": (H,), "W2": (n_out, H), "b2": (n_out,)}


_PARAM_NAMES = tuple(_param_shapes(1, 1, 1))


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class LabeledSequence:
    """Aligned input/target series: (T, n_in) pressures, (T, 2) states."""

    inputs: np.ndarray
    targets: np.ndarray
    dt: float

    def __post_init__(self):
        x = number_array("inputs", self.inputs)
        y = number_array("targets", self.targets)
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] < 1:
            raise ValueError("inputs and targets must be 2-D arrays, with "
                             "at least one input channel")
        if len(x) != len(y):
            raise ValueError("inputs and targets must have equal length")
        if len(x) < 2:
            raise ValueError("sequences need at least 2 steps")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.01
    lr_decay: float = 0.85
    momentum: float = 0.8
    epochs: int = 35
    sequence_chunk: int = 200
    hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, least in (("epochs", 1), ("sequence_chunk", 2),
                            ("hidden", 1), ("seed", 0)):
            integer(name, getattr(self, name), least)
        for name in ("lr0", "lr_decay", "momentum"):
            number(name, getattr(self, name))
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")


@dataclass
class RegressorWeights:
    """All network parameters plus frozen normalization statistics.

    LSTM gate blocks are stacked row-wise in i, f, g, o order, and
    `_param_shapes` gives every array's shape. Head: W1 with tanh, then
    W2 linear. `target`, a key of fitting.SHAPES, names the states it
    predicts.
    """

    hidden: int
    params: dict = field(repr=False)
    in_mean: np.ndarray
    in_std: np.ndarray
    out_mean: np.ndarray
    out_std: np.ndarray
    target: str = "affine"

    def __post_init__(self):
        """The one check of a weights document: a known target, and every
        field present, finite and of the shape `hidden`, n_in =
        len(in_mean) and n_out = len(out_mean) give it. Arrays are stored
        as float."""
        if not isinstance(self.target, str) or self.target not in SHAPES:
            raise ValueError(f"target must be {' or '.join(map(repr, SHAPES))}"
                             f", got {self.target!r}")
        H = integer("hidden", self.hidden, 1)
        if not isinstance(self.params, dict):
            raise ValueError("params must map parameter names to arrays")
        stats = {k: number_array(k, getattr(self, k))
                 for k in ("in_mean", "in_std", "out_mean", "out_std")}
        params = {k: number_array(f"parameter array {k}", self.params.get(k))
                  for k in _PARAM_NAMES}
        n_in, n_out = stats["in_mean"].size, stats["out_mean"].size
        shapes = {**_param_shapes(n_in, n_out, H), "in_mean": (n_in,),
                  "in_std": (n_in,), "out_mean": (n_out,),
                  "out_std": (n_out,)}
        for k, arr in {**params, **stats}.items():
            if arr.shape != shapes[k]:
                raise ValueError(f"{k} has shape {arr.shape}; hidden {H}, "
                                 f"{n_in} inputs and {n_out} outputs need "
                                 f"{shapes[k]}")
        if np.any(stats["in_std"] <= 0) or np.any(stats["out_std"] <= 0):
            raise ValueError("normalization std components must be > 0")
        self.params = params
        for k, arr in stats.items():
            setattr(self, k, arr)

    @property
    def n_in(self) -> int:
        return self.params["Wf"].shape[1]

    @property
    def n_out(self) -> int:
        return self.params["W2"].shape[0]


def init_weights(n_in: int, n_out: int, hidden: int, seed: int,
                 in_mean=None, in_std=None, out_mean=None,
                 out_std=None) -> RegressorWeights:
    """Seeded uniform init in +-1/sqrt(H) for every parameter."""
    rng = np.random.default_rng(seed)
    lim = 1.0 / np.sqrt(hidden)
    params = {k: rng.uniform(-lim, lim, size=s)
              for k, s in _param_shapes(n_in, n_out, hidden).items()}
    return RegressorWeights(
        hidden=hidden, params=params,
        in_mean=np.zeros(n_in) if in_mean is None else in_mean,
        in_std=np.ones(n_in) if in_std is None else in_std,
        out_mean=np.zeros(n_out) if out_mean is None else out_mean,
        out_std=np.ones(n_out) if out_std is None else out_std)


def _recurrence(p, H, rows):
    """Fill rows' U and Us, the recurrent matrices of the lockstep loop.

    U is the block-diagonal (8H, 2H) recurrent matrix with gate-interleaved
    rows (i_f i_b f_f f_b g_f g_b o_f o_b, H each), so one product serves
    both directions and each gate slice lines up with the (2H,) state; its
    off-diagonal blocks stay as _step_rows zeroed them.
    sigmoid(z) = 0.5 + 0.5*tanh(z/2): `scale` halves the sigmoid rows of the
    projection and of U (exact in binary floating point), so one tanh covers
    all 8H gates, and `offset` = 1 - scale.
    """
    U = rows["U"].reshape(4, 2, H, 2 * H)
    U[:, 0, :, :H] = p["Uf"].reshape(4, H, H)
    U[:, 1, :, H:] = p["Ub"].reshape(4, H, H)
    np.multiply(rows["U"], rows["scale"][:, None], out=rows["Us"])


def _lstm_steps(xn, p, rows, start, n):
    """Steps start .. start+n-1 of both directions.

    Step s advances the forward direction at time s and the backward
    direction at time T-1-s together. Step start+k reads h[k] and the c
    slot gates[k, 4], and writes h[k+1], gates[k+1, 4], tc[k] = tanh(c)
    and its gate activations in gates[k, :4]. proj[:n] holds the input
    projection, one GEMM per direction before the loop.
    """
    H = rows["proj"].shape[1] // 4
    gates, proj = rows["gates"], rows["proj"][:n]
    g4 = gates[:n, :4].reshape(n, 4, 2, H)          # i, f, g, o per step
    for d, x, W, b in ((0, xn, p["Wf"], p["bf"]),
                       (1, xn[::-1], p["Wb"], p["bb"])):
        np.matmul(x[start:start + n], W.T, out=proj)
        proj += b
        g4[:, :, d] = proj.reshape(n, 4, H)
    scale, offset = rows["scale"], rows["offset"]
    gates[:n, :4] *= scale.reshape(4, 2 * H)
    Us, r, pair = rows["Us"], rows["r"], rows["pair"]
    p0, p1 = pair
    for h, a, i_f, g_c, c, tc, o, h_next in rows["steps"][:n]:
        np.dot(Us, h, out=r)
        a += r
        np.tanh(a, out=a)
        a *= scale
        a += offset
        np.multiply(i_f, g_c, out=pair)             # i*g, f*c
        np.add(p0, p1, out=c)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h_next)


def _step_rows(n, H) -> dict:
    """The rows _lstm_run steps through: blocks of n - 1 steps, or one
    block for a series of at most n steps.

    gates[s] holds i, f, g, o and the c carried into step s. steps[s]
    holds step s's views, built once: h[s], the (8H,) gates, [i, f],
    [g, c], the c slot of row s+1, tc[s], o and h[s+1].
    """
    H2 = 2 * H
    gates = np.empty((n + 1, 5, H2))
    h, tc = np.empty((n + 1, H2)), np.empty((n, H2))
    hs, g = list(h), gates[:n]
    scale = np.full(8 * H, 0.5)
    scale[2 * H2:3 * H2] = 1.0                      # g keeps a plain tanh
    return {
        "proj": np.empty((n, 4 * H)), "gates": gates, "h": h, "tc": tc,
        "U": np.zeros((8 * H, H2)), "Us": np.zeros((8 * H, H2)),
        "scale": scale, "offset": 1.0 - scale, "r": np.empty(8 * H),
        "pair": np.empty((2, H2)),
        "steps": list(zip(hs, g[:, :4].reshape(n, 8 * H), g[:, :2],
                          g[:, 2::2], gates[1:, 4], tc, g[:, 3], hs[1:])),
    }


def _bptt_rows(n, H) -> dict:
    """_step_rows plus BPTT's arrays, for series of at most n steps: one
    block covers the series, so every step's rows stay for _lstm_grads.
    One set serves every chunk of a `train` call.

    back[s] holds step s's views for the backward loop: tc[s], which holds
    dh_ext once m is formed; proj row s as (2, 2H), which holds the pair
    factors [f[s+1], o*(1 - tanh(c)^2)] once the projection is done;
    m[s, :3], m[s, 3], dZ[s, :3], dZ[s, 3] and dZ[s] as (8H,).
    """
    H2 = 2 * H
    rows = _step_rows(n, H)
    m, dZ = np.empty((n, 4, H2)), np.empty((n, 4, H2))
    rows.update(m=m, dZ=dZ, carry=np.empty((2, H2)), dh_rec=np.empty(H2),
                back=list(zip(rows["tc"], rows["proj"].reshape(n, 2, H2),
                              m[:, :3], m[:, 3], dZ[:, :3], dZ[:, 3],
                              dZ.reshape(n, 8 * H))))
    return rows


def _lstm_run(xn, p, H, rows):
    """Run both LSTM directions over (T, n_in) normalized inputs; returns
    u (T, 2H) and the recurrent matrix U.

    The steps run in blocks of len(rows["steps"]) - 1 that reuse the
    rows; only u spans the series. Between blocks the last h and c move
    to row 0; the first block starts from zeros there. A tail of one
    step joins the block before it: a 1-row projection would go through
    gemv, whose last bits can differ from the GEMM's.
    """
    T = len(xn)
    block = len(rows["steps"]) - 1
    _recurrence(p, H, rows)
    h, c = rows["h"], rows["gates"][:, 4]
    h[0] = 0.0
    c[0] = 0.0
    u = np.empty((T, 2 * H))
    start = 0
    while start < T:
        if start:
            h[0] = h[k]
            c[0] = c[k]
        end = T if T - start <= block + 1 else start + block
        k = end - start
        _lstm_steps(xn, p, rows, start, k)
        u[start:end, :H] = h[1:k + 1, :H]
        u[T - end:T - start, H:] = h[k:0:-1, H:]
        start = end
    return u, rows["U"]


def _lstm_grads(du, xn, rows, H):
    """BPTT through both directions in lockstep; du (T, 2H) is the loss
    gradient at u from _lstm_run, whose rows are in `rows`. The loop
    carries [dc, dh] as one row and only fills dZ, the gradient at the
    pre-activations; the weight gradients are GEMMs after it."""
    T = len(xn)
    H2 = 2 * H
    i, f, g, o, c = rows["gates"][:T].transpose(1, 0, 2)
    tc, h = rows["tc"][:T], rows["h"][:T + 1]
    m, dZ = rows["m"][:T], rows["dZ"][:T]
    # dZ[s] = [dc, dc, dc, dh] * m[s], gate by gate. m's rows, g*i*(1 - i),
    # c*f*(1 - f), i*(1 - g^2) and tc*o*(1 - o), are formed in place: a
    # (T, 2H) temporary per product had every chunk fault in heap pages.
    mi, mf, mg, mo = m.transpose(1, 0, 2)
    for mk, x, y in ((mi, i, g), (mf, f, c), (mo, o, tc)):
        np.subtract(1.0, x, out=mk)
        mk *= x
        mk *= y
    np.multiply(g, g, out=mg)
    np.subtract(1.0, mg, out=mg)
    mg *= i
    pf = rows["proj"][:T].reshape(T, 2, H2)
    pf[:-1, 0] = f[1:]
    pf[-1, 0] = 0.0
    q = pf[:, 1]                                    # o*(1 - tc^2)
    np.multiply(tc, tc, out=q)
    np.subtract(1.0, q, out=q)
    q *= o
    tc[:, :H] = du[:, :H]                           # now dh_ext
    tc[:, H:] = du[::-1, H:]
    carry, dh_rec, pair = rows["carry"], rows["dh_rec"], rows["pair"]
    dc, dh = carry
    p0, p1 = pair
    UT = rows["U"].T
    carry[:] = 0.0
    dh_rec[:] = 0.0
    for dh_ext, pf_s, m3, m4, dZ3, dZ4, z in reversed(rows["back"][:T]):
        np.add(dh_ext, dh_rec, out=dh)
        np.multiply(carry, pf_s, out=pair)          # dc*f[s+1], dh*o*(1-tc^2)
        np.add(p0, p1, out=dc)
        np.multiply(m3, dc, out=dZ3)
        np.multiply(m4, dh, out=dZ4)
        np.dot(UT, z, out=dh_rec)
    # m is free after the loop: dZf and dZb go in its first 8TH entries.
    dZ = dZ.reshape(T, 4, 2, H)
    dZf, dZb = rows["m"].reshape(-1)[:8 * T * H].reshape(2, T, 4 * H)
    dZf.reshape(T, 4, H)[:] = dZ[:, :, 0]
    dZb.reshape(T, 4, H)[:] = dZ[:, :, 1]
    return {
        "Wf": dZf.T @ xn, "Uf": dZf.T @ h[:-1, :H], "bf": dZf.sum(axis=0),
        "Wb": dZb.T @ xn[::-1], "Ub": dZb.T @ h[:-1, H:],
        "bb": dZb.sum(axis=0),
    }


def _head(p, u):
    """The tanh layer's output a (T, H) and the normalized predictions."""
    a = np.tanh(u @ p["W1"].T + p["b1"])            # (T, H)
    return a, a @ p["W2"].T + p["b2"]               # (T, n_out)


def forward(w: RegressorWeights, seq: np.ndarray) -> np.ndarray:
    """Predict a (T, n_out) state series from a (T, n_in) input series."""
    x = np.asarray(seq, dtype=float)
    if x.ndim != 2 or x.shape[1] != w.n_in:
        raise ValueError(f"expected (T, {w.n_in}) inputs, got {x.shape}")
    xn = (x - w.in_mean) / w.in_std
    u, _ = _lstm_run(xn, w.params, w.hidden,
                     _step_rows(min(len(x), _BLOCK + 1), w.hidden))
    _, yn = _head(w.params, u)
    return yn * w.out_std + w.out_mean


def gradients(w: RegressorWeights, batch, *, _rows=None) -> tuple:
    """Loss and its exact gradient over a batch of LabeledSequence.

    The loss is the mean squared error over every step, channel, and
    sequence of the batch, computed in normalized space. `_rows`, from
    _bptt_rows, lends the call its per-step arrays; by default it
    allocates them for its longest sequence.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    p = w.params
    if _rows is None:
        _rows = _bptt_rows(max(len(seq.inputs) for seq in batch), w.hidden)
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    total_loss = 0.0
    n_elem = sum(len(seq.inputs) for seq in batch) * w.n_out
    for seq in batch:
        xn = (seq.inputs - w.in_mean) / w.in_std
        tn = (seq.targets - w.out_mean) / w.out_std
        u, _ = _lstm_run(xn, p, w.hidden, _rows)
        a, yn = _head(p, u)
        err = yn - tn
        total_loss += float(np.sum(err ** 2))
        dy = 2.0 * err / n_elem                       # (T, n_out)
        grads["W2"] += dy.T @ a
        grads["b2"] += dy.sum(axis=0)
        da = dy @ p["W2"]
        dz1 = da * (1.0 - a * a)
        grads["W1"] += dz1.T @ u
        grads["b1"] += dz1.sum(axis=0)
        du = dz1 @ p["W1"]                            # (T, 2H)
        for k, g in _lstm_grads(du, xn, _rows, w.hidden).items():
            grads[k] += g
    return total_loss / n_elem, grads


def _chunks(data, size):
    out = []
    for seq in data:
        T = len(seq.inputs)
        for k in range(0, T, size):
            end = min(k + size, T)
            if end - k >= 2:
                out.append(LabeledSequence(seq.inputs[k:end],
                                           seq.targets[k:end], seq.dt))
    return out


def train(data, cfg: TrainConfig) -> tuple:
    """SGD-with-momentum training; returns (weights, per-epoch losses).

    Sequences are cut into chunks of cfg.sequence_chunk steps; each
    epoch is one seeded-shuffled pass over all chunks with the update
    v <- m*v - lr*g, w <- w + v, and lr decays by cfg.lr_decay per
    epoch. Raises TrainingError if the loss stops being finite. Every
    chunk's BPTT reuses one set of per-step arrays, sized to the longest
    chunk and freed on return.
    """
    data = list(data)
    if not data:
        raise ValueError("training data must be nonempty")
    n_in = data[0].inputs.shape[1]
    n_out = data[0].targets.shape[1]
    allx = np.concatenate([s.inputs for s in data])
    ally = np.concatenate([s.targets for s in data])
    in_std = allx.std(axis=0)
    out_std = ally.std(axis=0)
    if np.any(in_std == 0) or np.any(out_std == 0):
        raise ValueError("training data has a constant channel; "
                         "cannot normalize")
    w = init_weights(n_in, n_out, cfg.hidden, cfg.seed,
                     in_mean=allx.mean(axis=0), in_std=in_std,
                     out_mean=ally.mean(axis=0), out_std=out_std)
    chunks = _chunks(data, cfg.sequence_chunk)
    rows = _bptt_rows(max(len(ch.inputs) for ch in chunks), cfg.hidden)
    rng = np.random.default_rng(cfg.seed + 1)
    lr = cfg.lr0
    vel = {k: np.zeros_like(v) for k, v in w.params.items()}
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(chunks))
        epoch_loss = 0.0
        for j in order:
            l, g = gradients(w, [chunks[j]], _rows=rows)
            if not np.isfinite(l):
                raise TrainingError(f"training diverged at epoch {epoch}")
            epoch_loss += l
            for k, v in vel.items():
                v *= cfg.momentum
                g[k] *= lr
                v -= g[k]
                w.params[k] += v
        history.append(epoch_loss / len(chunks))
        lr *= cfg.lr_decay
    return w, np.array(history)


def _pack(params: dict) -> np.ndarray:
    return np.concatenate([params[k].ravel() for k in _PARAM_NAMES])


def _unpack(vec: np.ndarray, like: dict) -> dict:
    out = {}
    pos = 0
    for k in _PARAM_NAMES:
        n = like[k].size
        out[k] = vec[pos:pos + n].reshape(like[k].shape)
        pos += n
    return out


def save_weights(w: RegressorWeights, path) -> None:
    doc = {
        "schema": WEIGHTS_SCHEMA,
        "target": w.target,
        "hidden": w.hidden,
        "in_mean": np.asarray(w.in_mean, dtype=float).tolist(),
        "in_std": np.asarray(w.in_std, dtype=float).tolist(),
        "out_mean": np.asarray(w.out_mean, dtype=float).tolist(),
        "out_std": np.asarray(w.out_std, dtype=float).tolist(),
        "params": {k: w.params[k].tolist() for k in _PARAM_NAMES},
    }
    text = json.dumps(doc)      # one write, not json.dump's many chunks
    with open(path, "w") as f:
        f.write(text)


def load_weights(path) -> RegressorWeights:
    """Read a `save_weights` file; a malformed one raises ValueError
    naming `path`."""
    try:
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise ValueError("must be a JSON object")
        if doc.get("schema") != WEIGHTS_SCHEMA:
            raise ValueError("unsupported weights schema "
                             f"{doc.get('schema')!r}")
        return RegressorWeights(**{f.name: doc.get(f.name)
                                   for f in fields(RegressorWeights)})
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
