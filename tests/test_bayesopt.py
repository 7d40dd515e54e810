import numpy as np
import pytest

from tentaclelab.bayesopt import (EvalRecord, SearchSpace, acquisition,
                                  gp_fit, gp_predict, optimize)

SPACE = SearchSpace()


def records_from(fn, pts):
    return [EvalRecord(f=f, A=A, objective=fn(f, A)) for f, A in pts]


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


class TestGP:
    def test_mean_interpolates_data(self):
        recs = records_from(lambda f, A: np.sin(f) + A / 30.0,
                            [(0.5, 10.0), (1.5, 20.0), (2.5, 30.0),
                             (3.0, 10.0)])
        post = gp_fit(recs, SPACE)
        cand = np.array([[r.f, r.A] for r in recs])
        mu, sigma = gp_predict(post, cand)
        y = np.array([r.objective for r in recs])
        assert np.allclose(mu, y, atol=1e-2 * np.ptp(y) + 1e-8)
        assert np.all(sigma < 0.05 * post.y_std + 1e-8)

    def test_far_point_reverts_to_prior(self):
        recs = records_from(lambda f, A: f, [(0.4, 10.0), (0.5, 10.0)])
        post = gp_fit(recs, SPACE)
        mu, sigma = gp_predict(post, np.array([[3.2, 30.0]]))
        # Far from the data the posterior reverts to the observation mean
        # with full prior spread.
        assert mu[0] == pytest.approx(post.y_mean, abs=0.01 * post.y_std)
        assert sigma[0] == pytest.approx(post.y_std, rel=0.01)

    def test_brute_force_solve(self):
        rng = np.random.default_rng(0)
        pts = [(float(f), float(A)) for f, A in
               zip(rng.uniform(0.32, 3.2, 6),
                   rng.choice([10.0, 20.0, 30.0], 6))]
        recs = records_from(lambda f, A: np.cos(2 * f) * A, pts)
        post = gp_fit(recs, SPACE)
        X = SPACE.to_unit([p[0] for p in pts], [p[1] for p in pts])
        d2 = ((X[:, None] - X[None]) ** 2).sum(axis=2)
        K = np.exp(-0.5 * d2 / 0.04) + 1e-4 * np.eye(6) + 1e-8 * np.eye(6)
        y = np.array([r.objective for r in recs])
        yn = (y - y.mean()) / y.std()
        alpha = np.linalg.solve(K, yn)
        cand = np.array([[1.0, 20.0], [2.7, 30.0]])
        Xc = SPACE.to_unit(cand[:, 0], cand[:, 1])
        d2c = ((Xc[:, None] - X[None]) ** 2).sum(axis=2)
        mu_ref = np.exp(-0.5 * d2c / 0.04) @ alpha * y.std() + y.mean()
        mu, _ = gp_predict(post, cand)
        assert np.allclose(mu, mu_ref, atol=1e-9)

    def test_constant_observations(self):
        recs = records_from(lambda f, A: 2.0, [(0.5, 10.0), (1.5, 20.0)])
        post = gp_fit(recs, SPACE)
        mu, _ = gp_predict(post, np.array([[1.0, 10.0]]))
        assert mu[0] == pytest.approx(2.0, abs=1e-6)

    def test_empty_records(self):
        with pytest.raises(ValueError):
            gp_fit([], SPACE)


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

    # Frequency index on the 64-point grid and amplitude of the first three
    # evaluations on SearchSpace(), per seed.
    FIRST_THREE = {
        0: [(6, 10.0), (38, 30.0), (22, 20.0)],
        1: [(10, 30.0), (41, 20.0), (25, 10.0)],
        2: [(26, 30.0), (57, 10.0), (10, 20.0)],
        3: [(34, 10.0), (3, 20.0), (50, 30.0)],
        4: [(37, 10.0), (6, 20.0), (53, 30.0)],
        5: [(50, 10.0), (19, 30.0), (34, 20.0)],
        6: [(33, 10.0), (1, 20.0), (48, 30.0)],
        7: [(6, 30.0), (38, 10.0), (22, 20.0)],
        8: [(53, 30.0), (22, 10.0), (37, 20.0)],
        9: [(30, 20.0), (62, 10.0), (14, 30.0)],
    }

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_design_points(self, seed):
        fs = np.linspace(0.32, 3.2, 64)
        _, hist = optimize(self.parabola, SPACE, budget=3, seed=seed)
        assert [(r.f, r.A) for r in hist] == \
            [(fs[j], A) for j, A in self.FIRST_THREE[seed]]
