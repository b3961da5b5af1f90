"""Multiplicative-update NMF, fixed-basis regression, objectives, perturbation."""

import numpy as np
import pytest
from scipy import sparse

from oracles import frobenius_relative_error, mu_oracle, nnls_projected_gradient
from senmfk_split.errors import (
    DegenerateBasis,
    DimensionMismatch,
    InvalidRank,
    NonNegativityViolation,
)
from senmfk_split.nmf_core import (
    NmfConfig,
    joint_objective,
    nmf,
    perturb,
    relative_error,
    solve_h,
)


def random_nonneg(rng, m, n, density=1.0):
    X = rng.uniform(0.0, 1.0, size=(m, n))
    if density < 1.0:
        X[rng.uniform(size=(m, n)) > density] = 0.0
    return sparse.csr_matrix(X)


class TestNmf:
    def test_exact_rank_one_recovery(self, rng):
        w = rng.uniform(0.5, 1.5, (12, 1))
        h = rng.uniform(0.5, 1.5, (1, 9))
        X = sparse.csr_matrix(w @ h)
        pair = nmf(X, 1, NmfConfig(seed=1))
        assert relative_error(X, pair.W, pair.H) < 1e-6

    def test_diagonal_recovery(self):
        X = sparse.csr_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        pair = nmf(X, 4, NmfConfig(seed=2, max_iter=20000, tol=1e-12))
        assert relative_error(X, pair.W, pair.H) < 1e-6

    def test_zero_entries_stay_zero(self, rng):
        X = random_nonneg(rng, 10, 8)
        cfg = NmfConfig(seed=3, max_iter=50)
        pair = nmf(X, 3, cfg)
        W = pair.W.copy()
        W[2, 1] = 0.0
        H = pair.H.copy()
        eps = cfg.epsilon
        # one multiplicative W update by hand: the zero is a fixed point
        W_next = W * ((X @ H.T) / (W @ (H @ H.T) + eps))
        assert W_next[2, 1] == 0.0

    def test_invalid_rank(self, rng):
        X = random_nonneg(rng, 5, 4)
        for k in (0, 5, -1):
            with pytest.raises(InvalidRank):
                nmf(X, k)

    def test_negative_input_rejected(self):
        X = sparse.csr_matrix(np.array([[1.0, -0.5], [0.0, 2.0]]))
        with pytest.raises(NonNegativityViolation):
            nmf(X, 1)

    def test_seed_determinism(self, rng):
        X = random_nonneg(rng, 15, 12, density=0.5)
        cfg = NmfConfig(seed=11, max_iter=80)
        a = nmf(X, 4, cfg)
        b = nmf(X, 4, cfg)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.H, b.H)
        assert a.objective_trace == b.objective_trace

    def test_nonnegativity_of_iterates(self, rng):
        X = random_nonneg(rng, 20, 16, density=0.4)
        pair = nmf(X, 5, NmfConfig(seed=4, max_iter=200))
        assert (pair.W >= 0).all() and (pair.H >= 0).all()
        assert np.isfinite(pair.W).all() and np.isfinite(pair.H).all()

    def test_trace_non_increasing(self, rng):
        for trial in range(5):
            X = random_nonneg(rng, 30, 25, density=0.6)
            pair = nmf(X, 4, NmfConfig(seed=trial, max_iter=150, tol=1e-12))
            trace = pair.objective_trace
            assert len(trace) >= 2
            for prev, cur in zip(trace, trace[1:]):
                assert cur <= prev + 1e-9

    def test_scale_consistency(self, rng):
        X = random_nonneg(rng, 12, 10)
        cfg = NmfConfig(seed=6, max_iter=100, tol=1e-12)
        base = nmf(X, 3, cfg)
        scaled = nmf(X * 7.5, 3, cfg)
        err_base = relative_error(X, base.W, base.H)
        err_scaled = relative_error(X * 7.5, scaled.W, scaled.H)
        np.testing.assert_allclose(err_scaled, err_base, rtol=1e-6)

    def test_trace_iterations_aligned(self, rng):
        X = random_nonneg(rng, 10, 10)
        pair = nmf(X, 2, NmfConfig(seed=7, max_iter=35, tol=1e-15))
        assert pair.trace_iterations == [10, 20, 30, 35]
        assert len(pair.objective_trace) == 4


class TestSolveH:
    def test_recovers_known_h(self, rng):
        W = rng.uniform(0.1, 1.0, (12, 3))
        H_true = rng.uniform(0.0, 1.0, (3, 7))
        X = sparse.csr_matrix(W @ H_true)
        H = solve_h(X, W, NmfConfig(seed=1, max_iter=5000, tol=1e-12))
        assert relative_error(X, W, H) < 1e-6

    def test_zero_target_gives_zero(self):
        X = sparse.csr_matrix((6, 4))
        W = np.ones((6, 2))
        H = solve_h(X, W, NmfConfig(seed=2))
        np.testing.assert_allclose(H, 0.0, atol=1e-12)

    def test_orthogonal_basis_unit_vector(self):
        W = np.zeros((6, 3))
        W[0:2, 0] = 1.0
        W[2:4, 1] = 1.0
        W[4:6, 2] = 2.0
        X = sparse.csr_matrix(W[:, [0]])
        H = solve_h(X, W, NmfConfig(seed=3))
        np.testing.assert_allclose(H.ravel(), [1.0, 0.0, 0.0], atol=1e-6)

    def test_degenerate_basis_rejected(self):
        W = np.ones((5, 2))
        W[:, 1] = 0.0
        with pytest.raises(DegenerateBasis):
            solve_h(sparse.csr_matrix(np.ones((5, 3))), W)

    def test_matches_projected_gradient_oracle(self, rng):
        for trial in range(10):
            W = rng.uniform(0.0, 1.0, (10, 4))
            X_dense = rng.uniform(0.0, 1.0, (10, 8))
            X = sparse.csr_matrix(X_dense)
            H = solve_h(X, W, NmfConfig(seed=trial, max_iter=5000, tol=1e-11))
            H_oracle = nnls_projected_gradient(W, X_dense)
            err = frobenius_relative_error(X_dense, W, H)
            err_oracle = frobenius_relative_error(X_dense, W, H_oracle)
            assert abs(err - err_oracle) < 1e-4


class TestMatchesMuOracle:
    """40 updates of the library kernel against the plain dense reference.
    Density 1.0 runs the dense operand, 0.3 the sparse one."""

    ITERS = 40

    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_nmf(self, rng, density):
        X = random_nonneg(rng, 30, 24, density=density)
        k, seed = 4, 5
        m, n = X.shape
        draws = np.random.default_rng(seed)
        scale = X.sum() / (m * n) / k
        W0 = draws.uniform(0.0, 1.0, size=(m, k)) * scale
        H0 = draws.uniform(0.0, 1.0, size=(k, n)) * scale
        pair = nmf(X, k, NmfConfig(seed=seed, max_iter=self.ITERS, tol=1e-15))
        W, H = mu_oracle(X.toarray(), W0, H0, self.ITERS, update_w=True)
        np.testing.assert_allclose(pair.W, W, rtol=1e-9)
        np.testing.assert_allclose(pair.H, H, rtol=1e-9)

    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_solve_h(self, rng, density):
        X = random_nonneg(rng, 30, 24, density=density)
        W = rng.uniform(0.1, 1.0, size=(30, 4))
        k, seed = 4, 6
        m, n = X.shape
        scale = X.sum() / (m * n) / k
        H0 = np.random.default_rng(seed).uniform(0.0, 1.0, size=(k, n)) * scale
        H = solve_h(X, W, NmfConfig(seed=seed, max_iter=self.ITERS, tol=1e-15))
        _, H_ref = mu_oracle(X.toarray(), W, H0, self.ITERS, update_w=False)
        np.testing.assert_allclose(H, H_ref, rtol=1e-9)


class TestRelativeError:
    def test_zero_factors_give_one(self, rng):
        X = random_nonneg(rng, 6, 5)
        np.testing.assert_allclose(
            relative_error(X, np.zeros((6, 2)), np.zeros((2, 5))), 1.0, rtol=1e-15
        )

    def test_exact_factors_give_zero(self, rng):
        W = rng.uniform(0.0, 1.0, (8, 3))
        H = rng.uniform(0.0, 1.0, (3, 6))
        X = sparse.csr_matrix(W @ H)
        assert relative_error(X, W, H) <= 1e-12

    def test_scalar_case(self):
        X = sparse.csr_matrix(np.array([[2.0]]))
        assert relative_error(X, np.array([[1.0]]), np.array([[1.0]])) == 0.5

    def test_matches_dense_computation(self, rng):
        X = random_nonneg(rng, 14, 9, density=0.5)
        W = rng.uniform(0.0, 1.0, (14, 4))
        H = rng.uniform(0.0, 1.0, (4, 9))
        np.testing.assert_allclose(
            relative_error(X, W, H),
            frobenius_relative_error(X.toarray(), W, H),
            rtol=1e-12,
        )

    def test_dimension_mismatch(self, rng):
        X = random_nonneg(rng, 5, 5)
        with pytest.raises(DimensionMismatch):
            relative_error(X, np.zeros((5, 2)), np.zeros((3, 5)))


class TestJointObjective:
    def test_alpha_zero_single_term(self, rng):
        X = random_nonneg(rng, 6, 5)
        M = random_nonneg(rng, 6, 6)
        W = rng.uniform(0.0, 1.0, (6, 2))
        H = rng.uniform(0.0, 1.0, (2, 5))
        G = rng.uniform(0.0, 1.0, (2, 6))
        val = joint_objective(X, M, W, H, G, 0.0)
        expected = 0.5 * np.linalg.norm(X.toarray() - W @ H) ** 2
        np.testing.assert_allclose(val, expected, rtol=1e-12)

    def test_exact_factors_zero(self, rng):
        W = rng.uniform(0.1, 1.0, (6, 2))
        H = rng.uniform(0.1, 1.0, (2, 5))
        G = rng.uniform(0.1, 1.0, (2, 6))
        X = sparse.csr_matrix(W @ H)
        M = sparse.csr_matrix(W @ G)
        assert joint_objective(X, M, W, H, G, 1.0) < 1e-18

    def test_scalar_arithmetic(self):
        one = lambda v: np.array([[float(v)]])
        val = joint_objective(one(2), one(2), one(1), one(0), one(0), 1.0)
        assert val == 6.0


class TestPerturb:
    def test_delta_zero_identity(self, rng):
        X = random_nonneg(rng, 9, 9, density=0.4)
        P = perturb(X, 0.0, seed=5)
        np.testing.assert_array_equal(P.toarray(), X.toarray())

    def test_range_and_pattern(self, rng):
        X = random_nonneg(rng, 12, 10, density=0.3)
        delta = 0.25
        P = perturb(X, delta, seed=6)
        np.testing.assert_array_equal(P.indices, X.indices)
        np.testing.assert_array_equal(P.indptr, X.indptr)
        ratios = P.data / X.data
        assert (ratios >= 1 - delta).all() and (ratios <= 1 + delta).all()

    def test_seed_determinism(self, rng):
        X = random_nonneg(rng, 7, 7)
        a = perturb(X, 0.1, seed=42)
        b = perturb(X, 0.1, seed=42)
        np.testing.assert_array_equal(a.toarray(), b.toarray())

    def test_symmetric_mode_preserves_symmetry(self, rng):
        raw = rng.uniform(0.0, 1.0, (8, 8))
        raw[rng.uniform(size=(8, 8)) > 0.4] = 0.0
        S = sparse.csr_matrix(raw + raw.T)
        P = perturb(S, 0.3, seed=9, symmetric=True)
        arr = P.toarray()
        np.testing.assert_array_equal(arr, arr.T)
        assert P.nnz == S.nnz

    def test_invalid_delta(self, rng):
        X = random_nonneg(rng, 3, 3)
        for delta in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                perturb(X, delta, seed=1)


class TestNmfConfigValidation:
    def test_defaults(self):
        cfg = NmfConfig()
        assert cfg.max_iter == 1000 and cfg.tol == 1e-6 and cfg.epsilon == 1e-12

    @pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"tol": 0.0}, {"epsilon": 0.0}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NmfConfig(**kwargs)
