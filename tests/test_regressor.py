import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tentaclelab.regressor import (_BLOCK, LabeledSequence, RegressorWeights,
                                   TrainConfig, TrainingError, _bptt_rows,
                                   _head, _lstm_run, _pack, _unpack, forward,
                                   gradients, init_weights, load_weights,
                                   save_weights, train)

rng0 = np.random.default_rng


# Reference recurrence: the original per-step, per-direction loop, kept
# verbatim so the hoisted lockstep implementation can be checked against it.

def _ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_lstm_pass(x, W, U, b, H):
    """Run one direction over (T, n_in); returns h (T, H) and caches."""
    T = len(x)
    h = np.zeros((T, H))
    cache = []
    h_prev = np.zeros(H)
    c_prev = np.zeros(H)
    for t in range(T):
        z = W @ x[t] + U @ h_prev + b
        i = _ref_sigmoid(z[:H])
        f = _ref_sigmoid(z[H:2 * H])
        g = np.tanh(z[2 * H:3 * H])
        o = _ref_sigmoid(z[3 * H:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h[t] = o * tc
        cache.append((i, f, g, o, c_prev, tc, h_prev))
        h_prev = h[t]
        c_prev = c
    return h, cache


def _ref_lstm_grads(x, dh_ext, cache, W, U, H):
    """BPTT through one direction; dh_ext is (T, H) from the head."""
    T = len(x)
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * H)
    dh_rec = np.zeros(H)
    dc = np.zeros(H)
    for t in range(T - 1, -1, -1):
        i, f, g, o, c_prev, tc, h_prev = cache[t]
        dh = dh_ext[t] + dh_rec
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ])
        dW += np.outer(dz, x[t])
        dU += np.outer(dz, h_prev)
        db += dz
        dh_rec = U.T @ dz
        dc = dc * f
    return dW, dU, db


def _ref_forward_and_gradients(w, seq):
    """Normalized predictions, loss and gradients of one sequence through
    the reference loops, with the same head as regressor.gradients."""
    H = w.hidden
    p = w.params
    xn = (seq.inputs - w.in_mean) / w.in_std
    tn = (seq.targets - w.out_mean) / w.out_std
    hf, cf = _ref_lstm_pass(xn, p["Wf"], p["Uf"], p["bf"], H)
    hb_r, cb = _ref_lstm_pass(xn[::-1], p["Wb"], p["Ub"], p["bb"], H)
    u = np.concatenate([hf, hb_r[::-1]], axis=1)
    a = np.tanh(u @ p["W1"].T + p["b1"])
    yn = a @ p["W2"].T + p["b2"]
    err = yn - tn
    n_elem = err.size
    dy = 2.0 * err / n_elem
    da = dy @ p["W2"]
    dz1 = da * (1.0 - a * a)
    du = dz1 @ p["W1"]
    grads = {"W2": dy.T @ a, "b2": dy.sum(axis=0), "W1": dz1.T @ u,
             "b1": dz1.sum(axis=0)}
    grads["Wf"], grads["Uf"], grads["bf"] = _ref_lstm_grads(
        xn, du[:, :H], cf, p["Wf"], p["Uf"], H)
    grads["Wb"], grads["Ub"], grads["bb"] = _ref_lstm_grads(
        xn[::-1], du[::-1, H:], cb, p["Wb"], p["Ub"], H)
    return yn * w.out_std + w.out_mean, float(np.sum(err ** 2)) / n_elem, grads


def random_sequence(T=20, n_in=3, n_out=2, seed=0, dt=0.01):
    rng = rng0(seed)
    return LabeledSequence(rng.normal(size=(T, n_in)),
                           rng.normal(size=(T, n_out)), dt)


def linear_dataset(n_seq=3, T=300, seed=0):
    """Targets are a fixed linear map of the inputs; learnable exactly."""
    rng = rng0(seed)
    M = np.array([[0.8, -0.3, 0.2], [0.1, 0.5, -0.6]])
    seqs = []
    for _ in range(n_seq):
        t = np.arange(T) * 0.01
        x = np.column_stack([np.sin(2 * np.pi * (0.5 + i) * t
                                    + rng.uniform(0, 6)) for i in range(3)])
        seqs.append(LabeledSequence(x, x @ M.T, 0.01))
    return seqs


class TestLabeledSequence:
    def test_valid(self):
        random_sequence()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledSequence(np.zeros((5, 3)), np.zeros((4, 2)), 0.01)

    def test_no_input_channel(self):
        with pytest.raises(ValueError, match="at least one input channel"):
            LabeledSequence(np.zeros((5, 0)), np.zeros((5, 2)), 0.01)

    def test_too_short(self):
        with pytest.raises(ValueError):
            LabeledSequence(np.zeros((1, 3)), np.zeros((1, 2)), 0.01)

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            LabeledSequence(np.full((5, 3), np.nan), np.zeros((5, 2)), 0.01)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.hidden == 32 and cfg.epochs == 35

    @pytest.mark.parametrize("kw", [dict(lr0=0.0), dict(momentum=1.0),
                                    dict(epochs=0), dict(sequence_chunk=1),
                                    dict(lr_decay=0.0)])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


def constant_model(out_mean, out_std=None):
    """Weights whose every prediction is out_mean: all parameters zero."""
    w = init_weights(3, 2, 8, 0, out_mean=out_mean, out_std=out_std)
    for k in w.params:
        w.params[k] = np.zeros_like(w.params[k])
    return w


def training_loss(w, targets):
    seq = LabeledSequence(np.zeros((len(targets), 3)), targets, 0.01)
    return gradients(w, [seq])[0]


class TestForwardLoss:
    """The training loss is the mean squared error over all steps and
    channels in normalized space."""

    def test_loss_identical(self):
        w = constant_model([1.5, -2.0], [0.5, 3.0])
        assert training_loss(w, np.tile([1.5, -2.0], (10, 1))) == 0.0

    def test_loss_offset_one(self):
        w = constant_model([1.5, -2.0], [0.5, 3.0])
        assert training_loss(w, np.tile([2.0, 1.0], (7, 1))) == \
            pytest.approx(1.0)

    def test_loss_brute_force(self):
        w = constant_model([1.5, -2.0], [0.5, 3.0])
        y = rng0(1).normal(size=(6, 2))
        ref = (((y - [1.5, -2.0]) / [0.5, 3.0]) ** 2).sum() / 12
        assert training_loss(w, y) == pytest.approx(ref)

    def test_loss_shape_mismatch(self):
        with pytest.raises(ValueError):
            LabeledSequence(np.zeros((3, 3)), np.zeros((4, 2)), 0.01)

    def test_zero_weights_predict_output_mean(self):
        w = constant_model([1.5, -2.0])
        y = forward(w, np.zeros((10, 3)))
        assert np.allclose(y, [1.5, -2.0])

    def test_forward_shape_and_determinism(self):
        w = init_weights(3, 2, 8, 0)
        x = rng0(2).normal(size=(15, 3))
        y1 = forward(w, x)
        y2 = forward(w, x)
        assert y1.shape == (15, 2)
        assert np.array_equal(y1, y2)

    def test_forward_wrong_width(self):
        w = init_weights(3, 2, 8, 0)
        with pytest.raises(ValueError):
            forward(w, np.zeros((10, 4)))

    def test_init_seeded(self):
        a = init_weights(3, 2, 8, 7)
        b = init_weights(3, 2, 8, 7)
        c = init_weights(3, 2, 8, 8)
        assert np.array_equal(_pack(a.params), _pack(b.params))
        assert not np.array_equal(_pack(a.params), _pack(c.params))
        lim = 1.0 / np.sqrt(8)
        assert np.abs(_pack(a.params)).max() <= lim


class TestReferenceLoop:
    @pytest.mark.parametrize("n_in", [1, 3])
    @pytest.mark.parametrize("T", [2, 3, 200])
    @pytest.mark.parametrize("H", [1, 5, 32])
    def test_matches_reference(self, H, T, n_in):
        seq = random_sequence(T=T, n_in=n_in, seed=H * 1000 + T * 10 + n_in)
        w = init_weights(n_in, 2, H, seed=H + T + n_in,
                         in_mean=np.full(n_in, 0.1),
                         in_std=np.full(n_in, 0.9),
                         out_mean=[0.2, -0.3], out_std=[1.5, 0.7])
        y_ref, l_ref, g_ref = _ref_forward_and_gradients(w, seq)
        np.testing.assert_allclose(forward(w, seq.inputs), y_ref,
                                   rtol=1e-12, atol=0)
        l, g = gradients(w, [seq])
        assert l == pytest.approx(l_ref, rel=1e-12, abs=0)
        assert set(g) == set(g_ref)
        # Sums reordered by the GEMMs and the tanh-form sigmoid differ in
        # the last bits, so an entry that is a near-cancelling sum can miss
        # a pure per-entry rtol; measure it against its array's scale too.
        for k in g_ref:
            np.testing.assert_allclose(
                g[k], g_ref[k], rtol=1e-12,
                atol=1e-12 * np.abs(g_ref[k]).max(), err_msg=k)


class TestInference:
    """forward runs the steps in blocks of _BLOCK and keeps no BPTT rows."""

    @pytest.mark.parametrize("n_in", [1, 3])
    @pytest.mark.parametrize("H", [1, 8, 32])
    @pytest.mark.parametrize("T", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   2 * _BLOCK + 1, 2 * _BLOCK + 2, 7500])
    def test_matches_training_path(self, T, H, n_in):
        w = init_weights(n_in, 2, H, seed=T + H + n_in,
                         in_mean=np.full(n_in, 0.1),
                         in_std=np.full(n_in, 0.9),
                         out_mean=[0.2, -0.3], out_std=[1.5, 0.7])
        x = rng0(T * 10 + n_in).normal(size=(T, n_in))
        # The training path's rows cover the series: one block.
        u, _ = _lstm_run((x - w.in_mean) / w.in_std, w.params, H,
                         _bptt_rows(T, H))
        yn = _head(w.params, u)[1]
        assert np.array_equal(forward(w, x), yn * w.out_std + w.out_mean)

    def test_long_series_memory(self):
        # The (T, 8H) gates, c and tanh(c) of a 7500-step series took a
        # 33 MiB peak; forward now holds u (T, 2H) and one block.
        w = init_weights(3, 2, 32, 0)
        x = rng0(3).normal(size=(7500, 3))
        tracemalloc.start()
        try:
            forward(w, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestBPTTMemory:
    def test_bptt_working_set(self):
        # The bound is this call's traced peak, 886,672 B (numpy 2.4), when
        # U and Us were rebuilt per call and dh_ext, the dc/dh factors, dZf
        # and dZb had arrays of their own. Held and reused rows must keep
        # the BPTT working set at or below it.
        rng = rng0(11)
        seq = LabeledSequence(rng.normal(size=(200, 3)),
                              rng.normal(size=(200, 2)), 0.01)
        w = init_weights(3, 2, 32, 0)
        rows = _bptt_rows(200, 32)
        gradients(w, [seq], _rows=rows)
        tracemalloc.start()
        try:
            gradients(w, [seq], _rows=rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 886_672


class TestGradients:
    def test_finite_difference(self):
        # Exact BPTT gradient vs central differences, small network.
        w = init_weights(2, 2, 4, 3)
        seq = random_sequence(T=7, n_in=2, seed=5)
        _, grads = gradients(w, [seq])
        theta = _pack(w.params)
        gvec = _pack(grads)
        rng = rng0(9)
        idx = rng.choice(len(theta), size=60, replace=False)
        eps = 1e-6
        for i in idx:
            for sgn, store in ((1, "hi"), (-1, "lo")):
                pert = theta.copy()
                pert[i] += sgn * eps
                w.params = _unpack(pert, w.params)
                l, _ = gradients(w, [seq])
                if store == "hi":
                    hi = l
                else:
                    lo = l
            fd = (hi - lo) / (2 * eps)
            assert fd == pytest.approx(gvec[i], rel=1e-4, abs=1e-9)
        w.params = _unpack(theta, w.params)

    def test_duplicated_batch_matches_single(self):
        w = init_weights(3, 2, 6, 1)
        seq = random_sequence(T=12, seed=2)
        l1, g1 = gradients(w, [seq])
        l2, g2 = gradients(w, [seq, seq])
        assert l2 == pytest.approx(l1)
        assert np.allclose(_pack(g1), _pack(g2))

    def test_empty_batch(self):
        w = init_weights(3, 2, 6, 1)
        with pytest.raises(ValueError):
            gradients(w, [])


class TestTrain:
    def test_single_step_equals_hand_update(self):
        # momentum 0, one chunk, one epoch: w1 = w0 - lr * grad(w0).
        data = [random_sequence(T=10, seed=4)]
        cfg = TrainConfig(lr0=0.01, momentum=0.0, epochs=1,
                          sequence_chunk=200, hidden=4, seed=6)
        w0 = init_weights(3, 2, 4, 6,
                          in_mean=data[0].inputs.mean(axis=0),
                          in_std=data[0].inputs.std(axis=0),
                          out_mean=data[0].targets.mean(axis=0),
                          out_std=data[0].targets.std(axis=0))
        norm = LabeledSequence(data[0].inputs, data[0].targets, 0.01)
        _, g = gradients(w0, [norm])
        expect = _pack(w0.params) - 0.01 * _pack(g)
        w1, _ = train(data, cfg)
        assert np.allclose(_pack(w1.params), expect, atol=1e-12)

    def test_determinism(self, tmp_path):
        data = linear_dataset(n_seq=1, T=100)
        cfg = TrainConfig(epochs=2, hidden=4, sequence_chunk=50, seed=0)
        wa, ha = train(data, cfg)
        wb, hb = train(data, cfg)
        assert np.array_equal(_pack(wa.params), _pack(wb.params))
        assert np.array_equal(ha, hb)
        save_weights(wa, tmp_path / "a.json")
        save_weights(wb, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_equals_loop_over_public_gradients(self):
        # train lends every chunk one set of BPTT rows; a loop over the
        # public gradients, which allocates its own each call, must give
        # the same weights and losses. Chunks of 100 leave tails of 30 and
        # 1 step (dropped), so the rows serve two lengths.
        data = linear_dataset(n_seq=2, T=230) + linear_dataset(
            n_seq=1, T=101, seed=1)
        cfg = TrainConfig(epochs=2, hidden=6, sequence_chunk=100, seed=3)
        w, hist = train(data, cfg)

        allx = np.concatenate([s.inputs for s in data])
        ally = np.concatenate([s.targets for s in data])
        ref = init_weights(3, 2, cfg.hidden, cfg.seed,
                           in_mean=allx.mean(axis=0), in_std=allx.std(axis=0),
                           out_mean=ally.mean(axis=0),
                           out_std=ally.std(axis=0))
        n = cfg.sequence_chunk
        chunks = [LabeledSequence(s.inputs[k:k + n], s.targets[k:k + n],
                                  s.dt)
                  for s in data for k in range(0, len(s.inputs), n)
                  if len(s.inputs) - k >= 2]
        assert sorted({len(c.inputs) for c in chunks}) == [30, 100]
        rng = rng0(cfg.seed + 1)
        lr = cfg.lr0
        vel = {k: np.zeros_like(v) for k, v in ref.params.items()}
        losses = []
        for _ in range(cfg.epochs):
            total = 0.0
            for j in rng.permutation(len(chunks)):
                loss, g = gradients(ref, [chunks[j]])
                total += loss
                for k in ref.params:
                    vel[k] = cfg.momentum * vel[k] - lr * g[k]
                    ref.params[k] = ref.params[k] + vel[k]
            losses.append(total / len(chunks))
            lr *= cfg.lr_decay
        assert np.array_equal(_pack(w.params), _pack(ref.params))
        assert np.array_equal(hist, losses)

    def test_loss_decreases(self):
        data = linear_dataset(n_seq=2, T=200)
        cfg = TrainConfig(epochs=5, hidden=8, sequence_chunk=100, seed=0)
        _, hist = train(data, cfg)
        assert hist[-1] < hist[0]

    def test_divergence_raises(self):
        data = linear_dataset(n_seq=1, T=200)
        cfg = TrainConfig(lr0=1e30, epochs=10, hidden=8,
                          sequence_chunk=100, seed=0)
        with pytest.raises(TrainingError):
            train(data, cfg)

    def test_constant_channel_rejected(self):
        x = rng0(0).normal(size=(50, 3))
        y = np.column_stack([np.ones(50), np.zeros(50)])
        with pytest.raises(ValueError):
            train([LabeledSequence(x, y, 0.01)], TrainConfig(epochs=1))

    def test_learns_linear_map(self):
        # A noiseless linear target should be fit to a few percent NRMSE.
        data = linear_dataset(n_seq=3, T=400)
        cfg = TrainConfig(epochs=25, hidden=16, sequence_chunk=100, seed=0)
        w, _ = train(data, cfg)
        preds = np.concatenate([forward(w, s.inputs) for s in data])
        truth = np.concatenate([s.targets for s in data])
        nr = np.sqrt(np.mean((preds - truth) ** 2)) / np.ptp(truth)
        assert nr < 0.06


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        w = init_weights(3, 2, 6, 11, in_mean=[1, 2, 3], in_std=[1, 1, 2],
                         out_mean=[0.5, -0.5], out_std=[2.0, 0.4])
        p = tmp_path / "weights.json"
        save_weights(w, p)
        back = load_weights(p)
        assert back.hidden == 6
        assert np.allclose(_pack(back.params), _pack(w.params))
        assert np.allclose(back.in_mean, [1, 2, 3])
        assert np.allclose(back.out_std, [2.0, 0.4])
        x = rng0(0).normal(size=(12, 3))
        assert np.allclose(forward(back, x), forward(w, x))

    @pytest.mark.parametrize("target", ["affine", "poly"])
    def test_target_round_trips(self, tmp_path, target):
        p = tmp_path / "weights.json"
        save_weights(replace(init_weights(3, 2, 4, 0), target=target), p)
        assert load_weights(p).target == target

    def test_schema_1_refused_naming_the_file(self, tmp_path):
        # A schema-1 file records no target, so it is not read at all.
        p = tmp_path / "w.json"
        save_weights(init_weights(3, 2, 4, 0), p)
        doc = json.loads(p.read_text())
        del doc["target"]
        p.write_text(json.dumps({**doc, "schema": 1}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: "
                           "unsupported weights schema 1$"):
            load_weights(p)

    def test_bad_schema(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_text('{"schema": 99}')
        with pytest.raises(ValueError):
            load_weights(p)

    @pytest.mark.parametrize("edit,message", [
        (lambda d: [d], "must be a JSON object"),
        (lambda d: {k: v for k, v in d.items() if k != "in_std"},
         "missing in_std"),
        (lambda d: {**d, "params": {k: v for k, v in d["params"].items()
                                    if k != "Ub"}},
         "missing parameter array Ub"),
        (lambda d: {**d, "params": [1]}, "params must map"),
        (lambda d: {**d, "params": {**d["params"], "b1": [[1.0], 2.0]}},
         "parameter array b1 must be an array of numbers"),
        (lambda d: {**d, "hidden": "4"}, "hidden must be an integer >= 1"),
        (lambda d: {**d, "hidden": 5},
         r"Wf has shape \(16, 3\); hidden 5, 3 inputs and 2 outputs"),
        (lambda d: {**d, "out_mean": [0.0]},
         r"W2 has shape \(2, 4\); hidden 4, 3 inputs and 1 outputs"),
        (lambda d: {**d, "in_std": [1.0, 1.0]}, r"in_std has shape \(2,\)"),
        (lambda d: {k: v for k, v in d.items() if k != "target"},
         "target must be 'affine' or 'poly', got None"),
        (lambda d: {**d, "target": "cubic"},
         "target must be 'affine' or 'poly', got 'cubic'"),
        (lambda d: {**d, "target": ["poly"]},
         r"target must be 'affine' or 'poly', got \['poly'\]"),
    ], ids=["not_an_object", "missing_key", "missing_array", "params_a_list",
            "ragged_array", "string_hidden", "hidden_disagrees",
            "n_out_disagrees", "n_in_disagrees", "missing_target",
            "unknown_target", "list_target"])
    def test_malformed_file_raises_naming_it(self, tmp_path, edit, message):
        p = tmp_path / "w.json"
        save_weights(init_weights(3, 2, 4, 0), p)
        p.write_text(json.dumps(edit(json.loads(p.read_text()))))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: "
                           f"{message}"):
            load_weights(p)

    def test_invalid_weights_rejected(self):
        w = init_weights(3, 2, 4, 0)
        bad = dict(w.params)
        bad["W1"] = np.full_like(bad["W1"], np.nan)
        with pytest.raises(ValueError):
            RegressorWeights(hidden=4, params=bad, in_mean=w.in_mean,
                             in_std=w.in_std, out_mean=w.out_mean,
                             out_std=w.out_std)
