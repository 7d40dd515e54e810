import numpy as np
import pytest

from tentaclelab.bayesopt import (EvalRecord, SearchSpace, acquisition,
                                  gp_fit, gp_predict, optimize)

SPACE = SearchSpace()


class TestSearchSpace:
    def test_grid_shape(self):
        g = SPACE.grid()
        assert g.shape == (64 * 3, 2)
        assert set(np.unique(g[:, 1])) == {10.0, 20.0, 30.0}

    def test_unit_mapping(self):
        u = SPACE.to_unit([0.32, 3.2], [10.0, 30.0])
        assert np.allclose(u, [[0.0, 0.0], [1.0, 1.0]])

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            SearchSpace(f_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            SearchSpace(A_set=())

    @pytest.mark.parametrize("A_set", [(10.0, np.nan), (10.0, np.inf),
                                       (10.0, 20.0, 10.0)])
    def test_amplitudes_finite_and_distinct(self, A_set):
        with pytest.raises(ValueError, match="A_set"):
            SearchSpace(A_set=A_set)


class TestEvalRecord:
    def test_nonfinite_objective(self):
        with pytest.raises(ValueError):
            EvalRecord(f=1.0, A=20.0, objective=np.nan)


def unit_points(pts):
    return SPACE.to_unit([f for f, _ in pts], [A for _, A in pts])


def objectives(fn, pts):
    return np.array([fn(f, A) for f, A in pts])


class TestGP:
    def test_mean_interpolates_data(self):
        pts = [(0.5, 10.0), (1.5, 20.0), (2.5, 30.0), (3.0, 10.0)]
        X = unit_points(pts)
        y = objectives(lambda f, A: np.sin(f) + A / 30.0, pts)
        post = gp_fit(X, y)
        mu, sigma = gp_predict(post, X)
        assert np.allclose(mu, y, atol=1e-2 * np.ptp(y) + 1e-8)
        assert np.all(sigma < 0.05 * post.y_std + 1e-8)

    def test_far_point_reverts_to_prior(self):
        pts = [(0.4, 10.0), (0.5, 10.0)]
        post = gp_fit(unit_points(pts), objectives(lambda f, A: f, pts))
        mu, sigma = gp_predict(post, unit_points([(3.2, 30.0)]))
        # Far from the data the posterior reverts to the observation mean
        # with full prior spread.
        assert mu[0] == pytest.approx(post.y_mean, abs=0.01 * post.y_std)
        assert sigma[0] == pytest.approx(post.y_std, rel=0.01)

    def test_brute_force_solve(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.uniform(0.0, 1.0, 6),
                             rng.choice([0.0, 0.5, 1.0], 6)])
        y = np.cos(2 * X[:, 0]) * X[:, 1]
        post = gp_fit(X, y)
        d2 = ((X[:, None] - X[None]) ** 2).sum(axis=2)
        K = np.exp(-0.5 * d2 / 0.04) + 1e-4 * np.eye(6) + 1e-8 * np.eye(6)
        yn = (y - y.mean()) / y.std()
        alpha = np.linalg.solve(K, yn)
        Xc = np.array([[0.2, 0.5], [0.8, 1.0]])
        d2c = ((Xc[:, None] - X[None]) ** 2).sum(axis=2)
        mu_ref = np.exp(-0.5 * d2c / 0.04) @ alpha * y.std() + y.mean()
        mu, _ = gp_predict(post, Xc)
        assert np.allclose(mu, mu_ref, atol=1e-9)

    def test_constant_observations(self):
        pts = [(0.5, 10.0), (1.5, 20.0)]
        post = gp_fit(unit_points(pts), objectives(lambda f, A: 2.0, pts))
        mu, _ = gp_predict(post, unit_points([(1.0, 10.0)]))
        assert mu[0] == pytest.approx(2.0, abs=1e-6)

    def test_empty_records(self):
        with pytest.raises(ValueError):
            gp_fit(np.empty((0, 2)), np.empty(0))


class TestAcquisition:
    def test_pure_exploitation(self):
        mu = np.array([0.1, 0.9, 0.5])
        sigma = np.array([0.9, 0.1, 0.5])
        assert acquisition(mu, sigma, rho=0.0) == 1

    def test_pure_exploration(self):
        mu = np.array([0.1, 0.9, 0.5])
        sigma = np.array([0.9, 0.1, 0.5])
        assert acquisition(mu, sigma, rho=1.0) == 0

    def test_constant_sigma_greedy(self):
        mu = np.array([0.2, 0.7, 0.4])
        sigma = np.full(3, 0.3)
        assert acquisition(mu, sigma, rho=0.8) == 1

    def test_tie_lowest_index(self):
        mu = np.array([0.5, 0.5, 0.5])
        sigma = np.array([0.5, 0.5, 0.5])
        assert acquisition(mu, sigma) == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            acquisition(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            acquisition(np.array([np.nan]), np.array([1.0]))


class TestOptimize:
    @staticmethod
    def parabola(f, A):
        return -(f - 1.28) ** 2

    def test_finds_parabola_peak(self):
        best, hist = optimize(self.parabola, SPACE, budget=15, seed=0)
        assert abs(best.f - 1.28) < 0.05 * 3.2
        assert len(hist) == 15

    def test_budget_three_is_init_only(self):
        best, hist = optimize(self.parabola, SPACE, budget=3, seed=0)
        assert len(hist) == 3
        assert best.objective == max(r.objective for r in hist)

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            optimize(self.parabola, SPACE, budget=2)

    def test_determinism(self):
        a = optimize(self.parabola, SPACE, budget=8, seed=3)[1]
        b = optimize(self.parabola, SPACE, budget=8, seed=3)[1]
        assert [(r.f, r.A, r.objective) for r in a] == \
            [(r.f, r.A, r.objective) for r in b]

    def test_failed_evaluations_masked(self):
        calls = []

        def flaky(f, A):
            calls.append((f, A))
            if f < 1.0:
                raise RuntimeError("rig fault")
            return -(f - 2.0) ** 2

        best, hist = optimize(flaky, SPACE, budget=12, seed=1)
        assert all(r.f >= 1.0 for r in hist)
        assert len(calls) == 12
        assert len(hist) < 12
        # Failed points are never retried.
        assert len(set(calls)) == len(calls)

    def test_programming_error_propagates(self):
        calls = []

        def buggy(f, A):
            calls.append((f, A))
            return None + f

        with pytest.raises(TypeError):
            optimize(buggy, SPACE, budget=6, seed=0)
        assert len(calls) == 1

    def test_all_failures_raise(self):
        def broken(f, A):
            raise RuntimeError("dead rig")

        with pytest.raises(RuntimeError):
            optimize(broken, SPACE, budget=4, seed=0)

    def first_three(self, seed):
        _, hist = optimize(self.parabola, SPACE, budget=3, seed=seed)
        return [(r.f, r.A) for r in hist]

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_design_points(self, seed):
        cells = self.first_three(seed)
        grid = {tuple(c) for c in SPACE.grid()}
        assert len(set(cells)) == 3
        assert set(cells) <= grid
        assert self.first_three(seed) == cells

    def test_seeds_draw_different_cells(self):
        assert len({tuple(self.first_three(s)) for s in range(10)}) > 1
