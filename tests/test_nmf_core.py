"""Multiplicative-update NMF, fixed-basis regression, residuals, perturbation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from conftest import traced_peak
from oracles import (
    frobenius_relative_error,
    independent_perturb_oracle,
    mu_oracle,
    nnls_projected_gradient,
    symmetric_perturb_oracle,
)
from senmfk_split.errors import (
    DegenerateBasis,
    DimensionMismatch,
    InvalidRank,
    NonNegativityViolation,
)
from senmfk_split import nmf_core
from senmfk_split.matrix_builder import canonicalize
from senmfk_split.nmf_core import (
    NmfConfig,
    nmf,
    nmf_stack,
    perturb,
    relative_error,
    solve_h,
)


def random_nonneg(rng, m, n, density=1.0):
    X = rng.uniform(0.0, 1.0, size=(m, n))
    if density < 1.0:
        X[rng.uniform(size=(m, n)) > density] = 0.0
    return sparse.csr_matrix(X)


def reference_updates(X, W, H, config, update_w):
    """The one-member update loop that the stacked solve replaced, kept as
    the reference it must equal bit for bit."""
    norm_sq = float((X.data**2).sum())
    m, n = X.shape
    A = X.toarray() if 4 * X.nnz >= m * n else X
    trace, iters, prev = [], [], None
    gram_w = W.T @ W
    for it in range(1, config.max_iter + 1):
        wtx = W.T @ A
        H *= wtx / (gram_w @ H + nmf_core._EPSILON)
        if update_w:
            hht = H @ H.T
            xht = A @ H.T
            W *= xht / (W @ hht + nmf_core._EPSILON)
            gram_w = W.T @ W
        if it % 10 == 0 or it == config.max_iter:
            if not update_w:
                hht = H @ H.T
            cross = np.einsum("ij,ij->", W, xht) if update_w else np.einsum("ij,ij->", H, wtx)
            err = nmf_core._folded_error(A, W, H, norm_sq, float(cross), gram_w, hht)
            trace.append(err)
            iters.append(it)
            if prev is not None and abs(prev - err) < max(config.tol * prev, nmf_core._CHANGE_FLOOR):
                break
            prev = err
    return nmf_core.FactorPair(W=W, H=H, objective_trace=trace, trace_iterations=iters)


def reference_nmf(X, k, config):
    X = canonicalize(X)
    m, n = X.shape
    rng = np.random.default_rng(config.seed)
    scale = float(X.sum()) / (m * n) / k
    W = rng.uniform(0.0, 1.0, size=(m, k)) * scale
    H = rng.uniform(0.0, 1.0, size=(k, n)) * scale
    return reference_updates(X, W, H, config, update_w=True)


def assert_same_pair(a, b):
    for name in ("W", "H", "objective_trace", "trace_iterations"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
        eps = nmf_core._EPSILON
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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"W \(6, 2\) does not conform with X \(5, 3\)"):
            solve_h(sparse.csr_matrix(np.ones((5, 3))), np.ones((6, 2)))

    @pytest.mark.parametrize("bad", [-5.0, np.nan, np.inf])
    def test_negative_or_non_finite_basis_rejected(self, rng, bad):
        W = rng.uniform(0.1, 1.0, (6, 2))
        W[3, 1] = bad
        with pytest.raises(NonNegativityViolation, match="W"):
            solve_h(sparse.csr_matrix(rng.uniform(0.0, 1.0, (6, 4))), W)

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
    Densities 1.0 and 0.3 run the dense operand, 0.1 the sparse one."""

    ITERS = 40

    @pytest.mark.parametrize("density", [1.0, 0.3, 0.1])
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

    @pytest.mark.parametrize("density", [1.0, 0.3, 0.1])
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

    def test_near_exact_fit_of_large_input(self, rng):
        # 2100 x 2000 with every third row and column stored (466,900
        # entries): the folded value cancels to rounding noise, so the exact
        # residual must decide
        w = np.zeros((2100, 1))
        h = np.zeros((1, 2000))
        w[::3] = rng.uniform(0.5, 1.5, w[::3].shape)
        h[:, ::3] = rng.uniform(0.5, 1.5, h[:, ::3].shape)
        X = sparse.csr_matrix(w @ h)
        assert X.nnz == 466_900
        np.testing.assert_allclose(relative_error(X, w, h * (1 + 1e-9)), 1e-9, rtol=1e-6)


class TestUpdateLoop:
    """The operand rule and the residual check folded from the update's own
    products."""

    @pytest.mark.parametrize("nnz, dense", [(20, True), (19, False)])
    def test_dense_operand_from_quarter_density(self, monkeypatch, nnz, dense):
        X = np.zeros((8, 10))
        X.flat[:nnz] = np.arange(1.0, nnz + 1.0)
        shapes = []
        toarray = sparse.csr_matrix.toarray

        def spy(self, *args, **kwargs):
            shapes.append(self.shape)
            return toarray(self, *args, **kwargs)

        monkeypatch.setattr(sparse.csr_matrix, "toarray", spy)
        nmf(X, 2, NmfConfig(seed=1, max_iter=1))
        assert ((8, 10) in shapes) == dense

    @pytest.mark.parametrize("density", [1.0, 0.1])
    def test_nmf_trace_ends_at_exact_error(self, rng, density):
        X = random_nonneg(rng, 40, 30, density)
        pair = nmf(X, 4, NmfConfig(seed=8, max_iter=120, tol=1e-12))
        np.testing.assert_allclose(
            pair.objective_trace[-1], relative_error(X, pair.W, pair.H), rtol=1e-10
        )

    @pytest.mark.parametrize("density", [1.0, 0.1])
    def test_fixed_w_trace_ends_at_exact_error(self, rng, density):
        X = random_nonneg(rng, 40, 30, density)
        W = rng.uniform(0.1, 1.0, (40, 4))
        H0 = rng.uniform(0.0, 1.0, (4, 30))
        cfg = NmfConfig(max_iter=120, tol=1e-12)
        (pair,) = nmf_core._solve_stack([canonicalize(X)], W[None], H0[None], cfg, update_w=False)
        np.testing.assert_allclose(
            pair.objective_trace[-1], relative_error(X, W, pair.H), rtol=1e-10
        )

    # every row and column (dense operand) or every third (density 1/9, CSR)
    @pytest.mark.parametrize("stride", [1, 3])
    def test_exact_fit_takes_exact_residual(self, rng, monkeypatch, stride):
        w = np.zeros((30, 1))
        h = np.zeros((1, 24))
        w[::stride] = rng.uniform(0.5, 1.5, w[::stride].shape)
        h[:, ::stride] = rng.uniform(0.5, 1.5, h[:, ::stride].shape)
        X = sparse.csr_matrix(w @ h)
        calls = []
        exact = nmf_core._residual_sq
        monkeypatch.setattr(
            nmf_core, "_residual_sq", lambda *args: calls.append(1) or exact(*args)
        )
        pair = nmf(X, 1, NmfConfig(seed=9, max_iter=100, tol=1e-12))
        assert calls
        trace = pair.objective_trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-9
        assert trace[-1] < 1e-9

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_exact_fit_stops_at_rounding_floor(self, rng, tol):
        # the error reaches ~4e-15 at once and then only jitters
        w = rng.uniform(0.5, 1.5, (200, 1))
        h = rng.uniform(0.5, 1.5, (1, 150))
        pair = nmf(w @ h, 1, NmfConfig(seed=4, max_iter=300, tol=tol))
        assert pair.trace_iterations[-1] < 300
        assert max(pair.objective_trace) < 1e-12


@pytest.fixture
def stack_sizes(monkeypatch):
    """The number of members of every stacked solve, in order."""
    sizes = []
    solve = nmf_core._solve_stack

    def spy(Xs, *args, **kwargs):
        sizes.append(len(Xs))
        return solve(Xs, *args, **kwargs)

    monkeypatch.setattr(nmf_core, "_solve_stack", spy)
    return sizes


@pytest.fixture
def drawn(monkeypatch):
    """Every copy that ``nmf_core._draw`` returns, in order."""
    copies = []
    draw = nmf_core._draw
    monkeypatch.setattr(nmf_core, "_draw", lambda *args: copies.append(draw(*args)) or copies[-1])
    return copies


def expected_members(X, delta, k, config, seeds):
    """Each member of ``nmf_stack`` by the one-member reference loop."""
    return [
        reference_nmf(perturb(X, delta, draw), k, replace(config, seed=start))
        for draw, start in seeds
    ]


class TestStack:
    """The stacked solve against the one-member reference loop, exactly."""

    # the second case is the benchmark's dense scan (60 x 150, p = 6, k = 6);
    # in the third each member's W and X H^T hold 2764 x 3 > 8192 cells, more
    # than a stacked einsum sums in one pass
    @pytest.mark.parametrize(
        "m, n, p, k, max_iter, tol",
        [(30, 24, 5, 3, 120, 1e-9), (60, 150, 6, 6, 300, 1e-8), (2764, 5, 2, 3, 20, 1e-9)],
    )
    def test_members_of_a_stack_equal_each_solved_alone(
        self, rng, stack_sizes, m, n, p, k, max_iter, tol
    ):
        X = random_nonneg(rng, m, n)
        config = NmfConfig(max_iter=max_iter, tol=tol)
        seeds = [(j, 10 + j) for j in range(p)]
        pairs = list(nmf_stack(nmf_core._draw_index(X), 0.05, k, config, seeds))
        assert stack_sizes == [p]
        for (draw, start), pair, ref in zip(
            seeds, pairs, expected_members(X, 0.05, k, config, seeds), strict=True
        ):
            assert_same_pair(pair, ref)
            assert_same_pair(pair, nmf(perturb(X, 0.05, draw), k, replace(config, seed=start)))

    def test_member_at_rounding_floor_leaves_the_stack(self, rng):
        # the exact rank-1 input stops at _CHANGE_FLOOR; the noise around it
        # runs to max_iter, so the stack is compacted mid-run
        w = rng.uniform(0.5, 1.5, (30, 1))
        h = rng.uniform(0.5, 1.5, (1, 24))
        Xs = [random_nonneg(rng, 30, 24), canonicalize(w @ h), random_nonneg(rng, 30, 24)]
        configs = [NmfConfig(seed=s, max_iter=150, tol=1e-15) for s in (1, 2, 3)]
        W, H = nmf_core._start(Xs, 2, [c.seed for c in configs])
        pairs = nmf_core._solve_stack(Xs, W, H, configs[0], update_w=True)
        assert pairs[1].trace_iterations[-1] < 150
        assert pairs[0].trace_iterations[-1] == pairs[2].trace_iterations[-1] == 150
        for Xj, config, pair in zip(Xs, configs, pairs):
            assert_same_pair(pair, reference_nmf(Xj, 2, config))

    def test_csr_member(self, rng, stack_sizes, drawn):
        # CSR members run one at a time, each drawn when it starts
        X = random_nonneg(rng, 40, 30, density=0.1)
        config = NmfConfig(max_iter=80, tol=1e-12)
        seeds = [(1, 4), (2, 5)]
        stream = nmf_stack(nmf_core._draw_index(X), 0.1, 4, config, seeds)
        pairs = [next(stream)]
        assert len(drawn) == 1
        pairs += stream
        assert stack_sizes == [1, 1]
        for (draw, start), pair, ref in zip(
            seeds, pairs, expected_members(X, 0.1, 4, config, seeds), strict=True
        ):
            assert_same_pair(pair, ref)
            assert_same_pair(pair, nmf(perturb(X, 0.1, draw), 4, replace(config, seed=start)))

    @pytest.mark.parametrize("density", [1.0, 0.1])
    def test_solve_h_equals_reference(self, rng, density):
        X = random_nonneg(rng, 40, 30, density)
        W = rng.uniform(0.1, 1.0, (40, 4))
        config = NmfConfig(seed=6, max_iter=90, tol=1e-12)
        H0 = np.random.default_rng(6).uniform(0.0, 1.0, (4, 30)) * (X.sum() / (40 * 30) / 4)
        ref = reference_updates(canonicalize(X), W.copy(), H0, config, update_w=False)
        assert np.array_equal(solve_h(X, W, config), ref.H)

    def test_stack_size_from_stack_cells(self, rng, monkeypatch, stack_sizes):
        # two 20 x 24 members fit in 1000 cells, so three run as 2 + 1
        monkeypatch.setattr(nmf_core, "_STACK_CELLS", 1000)
        X = random_nonneg(rng, 20, 24)
        config = NmfConfig(max_iter=60, tol=1e-9)
        seeds = [(j, 5 + j) for j in range(3)]
        pairs = list(nmf_stack(nmf_core._draw_index(X), 0.2, 2, config, seeds))
        assert stack_sizes == [2, 1]
        for pair, ref in zip(pairs, expected_members(X, 0.2, 2, config, seeds), strict=True):
            assert_same_pair(pair, ref)

    def test_overflowing_copy_rejected(self):
        # a copy of a finite X can overflow, so every copy is checked
        X = sparse.csr_matrix(np.full((3, 3), np.finfo(np.float64).max))
        with np.errstate(over="ignore"), pytest.raises(NonNegativityViolation):
            list(nmf_stack(nmf_core._draw_index(X), 0.5, 2, NmfConfig(), [(1, 2)]))


class TestSymmetricProducts:
    """The copies of a mirrored draw index, exactly symmetric, take X H^T
    through the CSC view of X^T, like X^T W: the same sums in the same order
    as the CSR product."""

    @staticmethod
    def square(rng, m, density, symmetric_values=True):
        """A square matrix on a symmetric pattern, with symmetric values or
        not."""
        raw = rng.uniform(0.0, 1.0, (m, m))
        raw[rng.uniform(size=(m, m)) > density] = 0.0
        pattern = np.triu(raw) + np.triu(raw, 1).T
        if symmetric_values:
            return canonicalize(pattern)
        return canonicalize(np.where(pattern > 0, rng.uniform(0.1, 1.0, (m, m)), 0.0))

    # the last case is a dense operand, which the CSC view leaves alone
    @pytest.mark.parametrize("m, density, k", [(40, 0.1, 3), (60, 0.05, 5), (30, 0.5, 2)])
    def test_equals_general_path(self, rng, m, density, k):
        S = self.square(rng, m, density)
        index = nmf_core._draw_index(S)
        assert index.of_entry is not None
        config = NmfConfig(max_iter=90, tol=1e-12)
        seeds = [(j, 7 + j) for j in range(3)]
        fast = nmf_stack(index, 0.05, k, config, seeds)
        for (draw, start), a in zip(seeds, fast, strict=True):
            X = perturb(S, 0.05, draw)
            assert (X != X.T).nnz == 0
            general = replace(config, seed=start)
            assert_same_pair(a, nmf(X, k, general))  # symmetric=False
            assert_same_pair(a, reference_nmf(X, k, general))

    # a mirrored index alone takes both products through the CSC view; a
    # symmetric pattern with asymmetric values takes the CSR W step
    @pytest.mark.parametrize("symmetric_values", [False, True])
    def test_products_through_the_csc_view(self, rng, monkeypatch, symmetric_values):
        X = self.square(rng, 40, 0.1, symmetric_values)
        index = nmf_core._draw_index(X)
        assert (index.of_entry is not None) == symmetric_values
        formats = []
        wtx, times = nmf_core._wtx, nmf_core._times

        def wtx_spy(A, AT, W):  # the H step's W^T X, taken as X^T W
            formats.append(AT.format)
            return wtx(A, AT, W)

        def times_spy(A, B):  # the W step's X H^T
            formats.append(A.format)
            return times(A, B)

        monkeypatch.setattr(nmf_core, "_wtx", wtx_spy)
        monkeypatch.setattr(nmf_core, "_times", times_spy)
        list(nmf_stack(index, 0.05, 3, NmfConfig(max_iter=20), [(1, 1)]))
        assert formats == (["csc", "csc"] if symmetric_values else ["csc", "csr"]) * 20


class TestGramResidual:
    """The Gram-expansion residual, on a CSR operand (density 0.3) and a
    dense one (density 1.0)."""

    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_relative_error_matches_oracle(self, rng, density):
        X = random_nonneg(rng, 30, 20, density)
        W = rng.uniform(0.0, 1.0, (30, 4))
        H = rng.uniform(0.0, 1.0, (4, 20))
        for A in (X, X.toarray()):
            np.testing.assert_allclose(
                relative_error(A, W, H), frobenius_relative_error(X.toarray(), W, H), rtol=1e-9
            )

    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_trace_non_increasing(self, rng, density):
        X = random_nonneg(rng, 30, 25, density)
        pair = nmf(X, 4, NmfConfig(seed=2, max_iter=150, tol=1e-12))
        trace = pair.objective_trace
        assert len(trace) >= 2
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-9
        np.testing.assert_allclose(
            trace[-1], frobenius_relative_error(X.toarray(), pair.W, pair.H), rtol=1e-9
        )


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
        # an exactly symmetric input is perturbed symmetrically, with no flag
        raw = rng.uniform(0.0, 1.0, (8, 8))
        raw[rng.uniform(size=(8, 8)) > 0.4] = 0.0
        S = sparse.csr_matrix(raw + raw.T)
        P = perturb(S, 0.3, seed=9)
        arr = P.toarray()
        np.testing.assert_array_equal(arr, arr.T)
        assert P.nnz == S.nnz

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.data())
    def test_symmetric_matches_oracle_property(self, data):
        # a symmetric pattern, diagonal and empty rows included, with
        # symmetric values
        m = data.draw(st.integers(1, 7))
        upper = np.triu(data.draw(arrays(np.bool_, (m, m))))
        values = data.draw(arrays(np.float64, (m, m), elements=st.floats(0.01, 100.0)))
        values = np.triu(values) + np.triu(values, 1).T
        X = np.where(upper | upper.T, values, 0.0)
        delta = data.draw(st.sampled_from([0.0, 0.03, 0.5, 0.99]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        P = perturb(sparse.csr_matrix(X), delta, seed=seed)
        np.testing.assert_array_equal(P.toarray(), symmetric_perturb_oracle(X, delta, seed))
        assert P.nnz == np.count_nonzero(X)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.data())
    def test_draw_index_matches_perturb_and_oracle_property(self, data):
        # one index, several seeds; a symmetric pattern, diagonal and empty
        # rows included, with symmetric or independent values: the index
        # mirrors exactly when X equals its transpose, and otherwise every
        # stored entry takes its own draw
        m = data.draw(st.integers(1, 7))
        upper = np.triu(data.draw(arrays(np.bool_, (m, m))))
        values = data.draw(arrays(np.float64, (m, m), elements=st.floats(0.01, 100.0)))
        if data.draw(st.booleans()):
            values = np.triu(values) + np.triu(values, 1).T
        X = np.where(upper | upper.T, values, 0.0)
        delta = data.draw(st.sampled_from([0.0, 0.03, 0.5, 0.99]))
        index = nmf_core._draw_index(sparse.csr_matrix(X))
        symmetric = np.array_equal(X, X.T)
        assert (index.of_entry is not None) == symmetric
        oracle = symmetric_perturb_oracle if symmetric else independent_perturb_oracle
        for seed in data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4)):
            P = nmf_core._draw(index, delta, seed)
            Q = perturb(sparse.csr_matrix(X), delta, seed=seed)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(P, name), getattr(Q, name)), name
            np.testing.assert_array_equal(P.toarray(), oracle(X, delta, seed))

    @staticmethod
    def random_square(rng, symmetric=True):
        """A random matrix of 2,000 terms and 724,609 entries on a symmetric
        pattern, with symmetric values or not."""
        m, half = 2000, 400_000
        rows, cols = rng.integers(0, m, (2, half))
        A = sparse.csr_matrix((rng.uniform(1.0, 2.0, half), (rows, cols)), shape=(m, m))
        return canonicalize(A + A.T if symmetric else A + 2.0 * A.T)

    def test_draw_index_peak_bounded(self, rng):
        # int32 positions, with each entry's side of the diagonal read from
        # its mirror and the values compared before the masks exist, peak at
        # 1.09 times the CSR bytes; compared after the masks they took 1.50,
        # and int64 positions beside a whole-row array 3.16
        M = self.random_square(rng)
        index, peak, _ = traced_peak(lambda: nmf_core._draw_index(M))
        assert index.of_entry.dtype == np.int32
        assert peak <= 1.75 * (M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_draw_holds_only_its_values(self, rng, symmetric):
        # a copy shares X's pattern arrays, so it holds 8 bytes per stored
        # entry (12 when it copied them); beside its values it allocates only
        # the uniform draws and, for a symmetric draw, one block of gathered
        # draws (measured 2.00 and 2.51 times the values' bytes; a pattern
        # copy and a whole gathered array took 2.50 and 3.01); the plain
        # case's values are not symmetric, so it takes independent draws
        M = self.random_square(rng, symmetric)
        index = nmf_core._draw_index(M)
        assert (index.of_entry is not None) == symmetric
        P, peak, held = traced_peak(lambda: nmf_core._draw(index, 0.3, seed=5))
        assert np.shares_memory(P.indices, M.indices) and np.shares_memory(P.indptr, M.indptr)
        assert held <= M.data.nbytes + 4096
        gathered = min(M.nnz, nmf_core._BLOCK_CELLS) if symmetric else 0
        # numpy's fancy-index buffers come to about 80 KiB
        assert peak <= M.data.nbytes + 8 * (index.draws + gathered) + (1 << 18)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_canonical_input_left_unchanged(self, rng, symmetric):
        # a canonical input is read without a copy, so the output must not
        # share its values, mirrored or not
        raw = rng.uniform(0.0, 1.0, (8, 8))
        X = canonicalize(raw + raw.T if symmetric else raw)
        before = X.data.copy()
        P = perturb(X, 0.3, seed=2)
        np.testing.assert_array_equal(X.data, before)
        assert not np.shares_memory(P.data, X.data)

    def test_asymmetric_pattern_draws_independently(self):
        # (1, 0) has no stored mirror
        X = np.array([[1.0, 0.0, 0.0], [2.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
        assert nmf_core._draw_index(sparse.csr_matrix(X)).of_entry is None
        P = perturb(sparse.csr_matrix(X), 0.1, seed=1)
        np.testing.assert_array_equal(P.toarray(), independent_perturb_oracle(X, 0.1, 1))

    def test_non_square_draws_independently(self, rng, monkeypatch):
        # a non-square X takes one draw per entry before any CSC work
        X = random_nonneg(rng, 3, 4)
        converted = []
        tocsc = sparse.csr_matrix.tocsc
        monkeypatch.setattr(
            sparse.csr_matrix, "tocsc", lambda A, **kw: converted.append(A) or tocsc(A, **kw)
        )
        assert nmf_core._draw_index(X).of_entry is None
        P = perturb(X, 0.1, seed=1)
        assert converted == []
        np.testing.assert_array_equal(P.toarray(), independent_perturb_oracle(X.toarray(), 0.1, 1))

    def test_invalid_delta(self, rng):
        X = random_nonneg(rng, 3, 3)
        for delta in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                perturb(X, delta, seed=1)


class TestNmfConfigValidation:
    def test_defaults(self):
        cfg = NmfConfig()
        assert cfg.max_iter == 1000 and cfg.tol == 1e-6

    # a NaN tol made every stopping test false, so fits ran to max_iter;
    # an infinite one would stop every fit at iteration 20
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0},
            {"tol": 0.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NmfConfig(**kwargs)

    # a fractional cap is never reached (the loop stops at it == max_iter):
    # on a 30 x 20 X, max_iter=15.5 ran 11,850 iterations
    @pytest.mark.parametrize("max_iter", [15.5, 15.0, "15", None])
    def test_non_integer_max_iter_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            NmfConfig(max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self, rng):
        pair = nmf(random_nonneg(rng, 30, 20), 3, NmfConfig(max_iter=np.int64(15), tol=1e-15))
        assert pair.trace_iterations[-1] == 15
