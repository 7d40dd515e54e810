"""Gaussian-process Bayesian optimization over actuation parameters.

A squared-exponential GP with fixed hyperparameters is fit to the
objective at the evaluated cells of a fixed (frequency, amplitude)
candidate grid, in the grid's unit-box coordinates; the next cell is the
argmax of an exploration-weighted blend of min-max normalized posterior
mean and standard deviation over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "OptimizationError",
    "SearchSpace",
    "EvalRecord",
    "GPosterior",
    "gp_fit",
    "gp_predict",
    "acquisition",
    "optimize",
]

_LENGTH_SCALE = 0.2     # per dimension, in unit-box coordinates
_NOISE_VAR = 1e-4
_N_INIT = 3
_GRID_F = 64


class OptimizationError(RuntimeError):
    """Every objective evaluation of an `optimize` run failed."""


@dataclass(frozen=True)
class SearchSpace:
    """Actuation search domain: a frequency interval and amplitude set."""

    f_range: tuple = (0.32, 3.2)          # Hz
    A_set: tuple = (10.0, 20.0, 30.0)     # degrees

    def __post_init__(self):
        lo, hi = self.f_range
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0 or hi <= lo:
            raise ValueError("f_range must be a bounded positive interval")
        A = tuple(float(a) for a in self.A_set)
        # to_unit looks amplitudes up by value.
        if not A or not np.all(np.isfinite(A)) or len(set(A)) < len(A):
            raise ValueError("A_set must be nonempty, finite and distinct")
        object.__setattr__(self, "A_set", A)

    def to_unit(self, f, A) -> np.ndarray:
        lo, hi = self.f_range
        uf = (np.asarray(f, dtype=float) - lo) / (hi - lo)
        if len(self.A_set) > 1:
            idx = np.array([self.A_set.index(float(a))
                            for a in np.atleast_1d(A)], dtype=float)
            ua = idx / (len(self.A_set) - 1)
        else:
            ua = np.zeros(np.atleast_1d(A).shape)
        return np.column_stack([np.atleast_1d(uf), ua])

    def grid(self) -> np.ndarray:
        """Candidate grid: 64 frequencies crossed with every amplitude."""
        fs = np.linspace(self.f_range[0], self.f_range[1], _GRID_F)
        return np.array([(f, a) for a in self.A_set for f in fs])


@dataclass(frozen=True)
class EvalRecord:
    """One objective evaluation at actuation parameters (f, A)."""

    f: float
    A: float
    objective: float

    def __post_init__(self):
        if not np.isfinite(self.objective):
            raise ValueError("objective must be finite")


@dataclass(frozen=True)
class GPosterior:
    """Exact GP posterior with fixed SE kernel on unit-box inputs."""

    X: np.ndarray                 # (n, 2) unit coordinates
    y_mean: float
    y_std: float
    chol: tuple = field(repr=False, default=None)
    alpha: np.ndarray = field(repr=False, default=None)


def _kernel(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-0.5 * d2 / _LENGTH_SCALE ** 2)


def gp_fit(X: np.ndarray, y: np.ndarray) -> GPosterior:
    """Fit the fixed-hyperparameter GP to observations y at (n, 2) unit-box
    points X, n >= 1.

    Observations are standardized; the kernel matrix gets 1e-8 jitter,
    escalating tenfold until the Cholesky factorization succeeds.
    """
    if len(X) == 0:
        raise ValueError("gp_fit needs at least one observation")
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std == 0.0:
        y_std = 1.0
    K = _kernel(X, X) + _NOISE_VAR * np.eye(len(X))
    jitter = 1e-8
    while True:
        try:
            c = cho_factor(K + jitter * np.eye(len(X)), lower=True)
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > 1.0:
                raise
    alpha = cho_solve(c, (y - y_mean) / y_std)
    return GPosterior(X=X, y_mean=y_mean, y_std=y_std, chol=c, alpha=alpha)


def gp_predict(post: GPosterior, Xc: np.ndarray) -> tuple:
    """Posterior mean and standard deviation at (m, 2) unit-box points."""
    Ks = _kernel(Xc, post.X)
    mu = Ks @ post.alpha
    v = cho_solve(post.chol, Ks.T)
    var = 1.0 - np.sum(Ks * v.T, axis=1)
    var = np.maximum(var, 0.0)
    return (mu * post.y_std + post.y_mean,
            np.sqrt(var) * post.y_std)


def acquisition(mu: np.ndarray, sigma: np.ndarray, rho: float = 0.8) -> int:
    """Index of the next candidate: (1-rho)*mu_hat + rho*sigma_hat.

    mu_hat and sigma_hat are min-max normalized over the grid; ties are
    broken by the lowest index.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu.shape != sigma.shape or mu.ndim != 1 or len(mu) == 0:
        raise ValueError("mu and sigma must be equal-length 1-D arrays")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ValueError("mu and sigma must be finite")

    def norm(v):
        rng = v.max() - v.min()
        return np.zeros_like(v) if rng == 0 else (v - v.min()) / rng

    score = (1.0 - rho) * norm(mu) + rho * norm(sigma)
    return int(np.argmax(score))


def optimize(objective_fn, space: SearchSpace, budget: int,
             seed: int = 0, rho: float = 0.8) -> tuple:
    """Maximize objective_fn(f, A) -> float over the candidate grid;
    returns (best EvalRecord, history list).

    The first three evaluations take three distinct grid cells drawn at
    random from `seed`; every later one fits the GP to all successful
    evaluations and takes the acquisition argmax. An objective_fn call
    that fails (ValueError, ArithmeticError or RuntimeError, which
    includes SimulationError) is masked: the cell is excluded from the
    grid and from the history, and the loop continues; any other
    exception is a bug and propagates. If every evaluation fails,
    OptimizationError names the count and the last error.
    """
    if budget < _N_INIT:
        raise ValueError(f"budget must be at least {_N_INIT}")
    grid = space.grid()
    init = np.random.default_rng(seed).choice(len(grid), _N_INIT,
                                              replace=False)
    unit = space.to_unit(grid[:, 0], grid[:, 1])
    masked = np.zeros(len(grid), dtype=bool)
    history, done, last_error = [], [], None
    for n in range(budget):
        if n < _N_INIT:
            k = init[n]
        else:
            if history:
                post = gp_fit(unit[done],
                              np.array([r.objective for r in history]))
                mu, sig = gp_predict(post, unit)
            else:
                mu, sig = np.zeros(len(grid)), np.ones(len(grid))
            live = np.flatnonzero(~masked)
            k = live[acquisition(mu[live], sig[live], rho)]
        f, A = float(grid[k, 0]), float(grid[k, 1])
        try:
            y = objective_fn(f, A)
        except (ValueError, ArithmeticError, RuntimeError) as e:
            last_error = e
            masked[k] = True
            continue
        history.append(EvalRecord(f=f, A=A, objective=float(y)))
        done.append(k)
    if not history:
        raise OptimizationError(
            f"all {budget} objective evaluations failed; last error: "
            f"{type(last_error).__name__}: {last_error}")
    best = max(history, key=lambda r: r.objective)
    return best, history
