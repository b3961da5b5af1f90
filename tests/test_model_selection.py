"""Constrained column clustering, silhouettes, and the rank scan."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from oracles import block_topic_matrix, separated_topics_problem, silhouette_oracle
from senmfk_split import model_selection, nmf_core
from senmfk_split.errors import DegenerateMatrix, InvalidRank, ShapeMismatch
from senmfk_split.model_selection import (
    SelectionConfig,
    child_seed,
    cluster_columns,
    nmfk,
    normalize_columns,
    silhouette,
)
from senmfk_split.nmf_core import NmfConfig, nmf, perturb


def unit_columns(rng, m, k):
    W = rng.uniform(0.1, 1.0, (m, k))
    return W / np.linalg.norm(W, axis=0)


class TestClusterColumns:
    def test_identical_sets(self, rng):
        B = unit_columns(rng, 10, 4)
        labels, centroids = cluster_columns([B.copy() for _ in range(6)])
        for s in range(6):
            np.testing.assert_array_equal(labels[s], labels[0])
        # each centroid equals the corresponding column
        np.testing.assert_allclose(centroids[:, labels[0]], B, atol=1e-12)

    def test_recovers_permutation(self, rng):
        B = unit_columns(rng, 8, 2)
        labels, _ = cluster_columns([B, B[:, [1, 0]]])
        np.testing.assert_array_equal(labels[0], [0, 1])
        np.testing.assert_array_equal(labels[1], [1, 0])

    def test_perturbed_orthogonal_grouping(self, rng):
        # orthogonal basis, members rotated by < 5 degrees
        k, p = 4, 5
        B = np.eye(6)[:, :k]
        sets = []
        perms = []
        for s in range(p):
            noise = rng.uniform(0.0, 0.05, (6, k))
            member = B + noise
            member /= np.linalg.norm(member, axis=0)
            perm = rng.permutation(k)
            sets.append(member[:, perm])
            perms.append(perm)
        labels, _ = cluster_columns(sets)
        # ground truth: column c of set s came from basis vector perms[s][c]
        # clustering must group columns by origin
        anchor = {perms[0][c]: labels[0][c] for c in range(k)}
        for s in range(p):
            for c in range(k):
                assert labels[s][c] == anchor[perms[s][c]]

    def test_one_column_per_set_constraint(self, rng):
        sets = [unit_columns(rng, 12, 5) for _ in range(7)]
        labels, _ = cluster_columns(sets)
        for s in range(7):
            assert sorted(labels[s]) == list(range(5))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch, match="shapes differ"):
            cluster_columns([unit_columns(rng, 5, 2), unit_columns(rng, 5, 3)])
        with pytest.raises(ShapeMismatch, match="at least one column set"):
            cluster_columns([])
        with pytest.raises(ShapeMismatch, match="must be 2-D"):
            cluster_columns([np.ones(5), np.ones(5)])

    def test_exact_assignment_above_twelve(self, rng):
        # a larger k: exact assignment still resolves a permuted identity
        k = 14
        B = np.eye(k)
        perm = rng.permutation(k)
        labels, _ = cluster_columns([B, B[:, perm]])
        for c in range(k):
            assert labels[1][c] == labels[0][perm[c]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_invalid_similarity_raises(self, rng, bad):
        # a NaN column gives NaN similarities, an inf entry +inf ones (-inf
        # once negated): neither has an assignment, as in scipy
        sets = [unit_columns(rng, 6, 3) for _ in range(3)]
        sets[1][2, 1] = bad
        with pytest.raises(ValueError, match="invalid numeric entries"):
            cluster_columns(sets)

    def test_column_permutation_leaves_clusters_unchanged_as_sets(self, rng):
        k, p = 4, 5
        sets = []
        base = unit_columns(rng, 9, k)
        for s in range(p):
            member = base + rng.uniform(0, 0.02, (9, k))
            member /= np.linalg.norm(member, axis=0)
            sets.append(member)
        labels_a, _ = cluster_columns(sets)
        perms = [rng.permutation(k) for _ in range(p)]
        labels_b, _ = cluster_columns([s[:, perm] for s, perm in zip(sets, perms)])
        # cluster ids may be relabeled, but the partition into sets of
        # (member, original column) pairs must be identical
        def partition(labels, column_of):
            clusters = {}
            for s in range(p):
                for c in range(k):
                    clusters.setdefault(labels[s][c], set()).add((s, column_of(s, c)))
            return {frozenset(v) for v in clusters.values()}

        part_a = partition(labels_a, lambda s, c: c)
        part_b = partition(labels_b, lambda s, c: int(perms[s][c]))
        assert part_a == part_b


def scipy_assignment(sim: np.ndarray) -> list[int]:
    """The reference: scipy's column for each row of a maximizing assignment."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(sim, maximize=True)
    assert list(rows) == list(range(sim.shape[0]))
    return [int(c) for c in cols]


def similarity_case(kind: str, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, (k, k))
    if kind == "integer":  # many ties
        return rng.integers(0, 3, (k, k)).astype(np.float64)
    if kind == "constant":  # every assignment ties
        return np.full((k, k), float(rng.integers(-2, 3)))
    # cosines of unit columns, one of them dead: its row is all zero
    columns = unit_columns(rng, 7, k)
    columns[:, rng.integers(k)] = 0.0
    return columns.T @ unit_columns(rng, 7, k)


class TestExactAssignment:
    """The in-repo solver returns exactly scipy's permutation, ties included."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.sampled_from(["uniform", "integer", "constant", "dead column"]),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_property(self, kind, k, seed):
        sim = similarity_case(kind, k, seed)
        expected = scipy_assignment(sim)
        assert model_selection._assignment((-sim).tolist()) == expected
        # through _match_columns: identity centroids reproduce sim exactly
        perm = model_selection._match_columns(sim.T.copy(), np.eye(k))
        assert perm.tolist() == expected

    @pytest.mark.parametrize("kind", ["uniform", "integer", "dead column"])
    def test_matches_scipy_at_forty(self, kind):
        sim = similarity_case(kind, 40, 4040)
        assert model_selection._assignment((-sim).tolist()) == scipy_assignment(sim)

    def test_infeasible_raises(self):
        # a row that no finite cost reaches has no assignment
        cost = [[np.inf, np.inf], [0.0, 1.0]]
        with pytest.raises(ValueError, match="infeasible"):
            model_selection._assignment(cost)

    def test_empty(self):
        assert model_selection._assignment([]) == []


class TestSilhouette:
    def test_orthogonal_clusters_of_identical_columns(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        cols = np.column_stack([a, a, b, b])
        stats = silhouette(cols, np.array([0, 0, 1, 1]))
        assert stats.overall_min == 1.0
        assert stats.overall_mean == 1.0
        assert stats.per_cluster_min == (1.0, 1.0)

    def test_singleton_scores_zero(self):
        cols = np.column_stack([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        stats = silhouette(cols, np.array([0, 0, 1]))
        assert stats.per_cluster_min[1] == 0.0

    def test_single_cluster_convention(self, rng):
        cols = unit_columns(rng, 5, 3)
        stats = silhouette(cols, np.array([0, 0, 0]))
        assert stats.single_cluster
        assert stats.overall_min == 1.0

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 30))
            k = int(rng.integers(2, min(5, n) + 1))
            cols = rng.uniform(0.0, 1.0, (6, n))
            labels = np.array([i % k for i in range(n)])
            rng.shuffle(labels)
            if len(set(labels.tolist())) < k:
                continue
            stats = silhouette(cols, labels)
            scores = silhouette_oracle(cols, labels)
            np.testing.assert_allclose(stats.overall_min, scores.min(), atol=1e-12)
            np.testing.assert_allclose(stats.overall_mean, scores.mean(), atol=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.floats(0.1, 10.0), st.integers(0, 5)),
            min_size=2,
            max_size=14,
        )
    )
    def test_matches_oracle_property(self, points):
        # columns are scaled copies of five fixed directions, so distances
        # are either 0 (same direction) or well clear of the dust threshold;
        # labels are renumbered to 0..k-1 and may leave singletons
        directions = unit_columns(np.random.default_rng(5), 6, 5)
        cols = np.column_stack([scale * directions[:, d] for d, scale, _ in points])
        _, labels = np.unique([c for _, _, c in points], return_inverse=True)
        k = int(labels.max()) + 1
        assume(k >= 2)
        stats = silhouette(cols, labels)
        scores = silhouette_oracle(cols, labels)
        expected = [scores[labels == c].min() for c in range(k)]
        np.testing.assert_allclose(stats.per_cluster_min, expected, atol=1e-12)
        np.testing.assert_allclose(stats.overall_min, scores.min(), atol=1e-12)
        np.testing.assert_allclose(stats.overall_mean, scores.mean(), atol=1e-12)

    def test_values_in_range_and_min_below_mean(self, rng):
        for _ in range(10):
            cols = rng.uniform(0.0, 1.0, (7, 12))
            labels = np.array([i % 3 for i in range(12)])
            stats = silhouette(cols, labels)
            assert -1.0 <= stats.overall_min <= stats.overall_mean <= 1.0

    def test_label_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch, match="3 columns but 2 labels"):
            silhouette(unit_columns(rng, 4, 3), np.array([0, 1]))
        # cluster 1 is empty
        with pytest.raises(ShapeMismatch, match="contiguous non-empty"):
            silhouette(unit_columns(rng, 4, 2), np.array([0, 2]))


class TestChildSeed:
    def test_deterministic_and_distinct(self):
        assert child_seed(42, 1, 2) == child_seed(42, 1, 2)
        assert child_seed(42, 1, 2) != child_seed(42, 2, 1)
        assert child_seed(42, 1) != child_seed(43, 1)


class TestNormalizeColumns:
    def test_zero_column_untouched(self):
        W = np.array([[3.0, 0.0], [4.0, 0.0]])
        unit = normalize_columns(W)
        np.testing.assert_allclose(unit[:, 0], [0.6, 0.8])
        np.testing.assert_array_equal(unit[:, 1], [0.0, 0.0])


class TestNmfk:
    def test_recovers_separated_rank(self, rng):
        X = sparse.csr_matrix(separated_topics_problem(rng, 3))
        cfg = SelectionConfig(
            k_min=2, k_max=6, n_perturbations=6, nmf=NmfConfig(max_iter=400, tol=1e-7, seed=5)
        )
        report = nmfk(X, cfg)
        assert report.chosen_k == 3
        assert not report.fallback
        assert [r.k for r in report.per_k] == [2, 3, 4, 5, 6]

    def test_rank_one_matrix_chooses_one(self, rng):
        w = rng.uniform(0.5, 1.5, (10, 1))
        h = rng.uniform(0.5, 1.5, (1, 8))
        X = sparse.csr_matrix(w @ h)
        cfg = SelectionConfig(
            k_min=1, k_max=3, n_perturbations=5, nmf=NmfConfig(max_iter=300, tol=1e-7, seed=6)
        )
        report = nmfk(X, cfg)
        assert report.chosen_k == 1

    def test_deterministic(self, rng):
        X = sparse.csr_matrix(separated_topics_problem(rng, 3, rows_per_topic=6, docs_per_topic=10))
        cfg = SelectionConfig(
            k_min=2, k_max=4, n_perturbations=4, nmf=NmfConfig(max_iter=150, tol=1e-6, seed=9)
        )
        a = nmfk(X, cfg)
        b = nmfk(X, cfg)
        assert a.chosen_k == b.chosen_k
        np.testing.assert_array_equal(a.consensus_W, b.consensus_W)
        assert a.per_k == b.per_k

    def test_silhouettes_bounded(self, rng):
        X = sparse.csr_matrix(rng.uniform(0.0, 1.0, (15, 20)))
        cfg = SelectionConfig(
            k_min=2, k_max=4, n_perturbations=4, nmf=NmfConfig(max_iter=100, seed=3)
        )
        report = nmfk(X, cfg)
        for rec in report.per_k:
            assert -1.0 <= rec.min_silhouette <= rec.mean_silhouette <= 1.0
            assert 0.0 <= rec.relative_error

    def test_fallback_flagged_when_no_rank_stable(self, rng):
        # pure noise rarely yields stable ranks at a 0.99 threshold
        X = sparse.csr_matrix(rng.uniform(0.0, 1.0, (12, 18)))
        cfg = SelectionConfig(
            k_min=3,
            k_max=5,
            n_perturbations=4,
            silhouette_threshold=0.99,
            nmf=NmfConfig(max_iter=60, seed=8),
        )
        report = nmfk(X, cfg)
        if report.fallback:
            best = max(report.per_k, key=lambda r: r.min_silhouette)
            assert report.chosen_k == best.k
        else:  # if noise happened to be stable, the contract still holds
            assert any(
                r.k == report.chosen_k and r.min_silhouette >= 0.99 for r in report.per_k
            )

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateMatrix):
            nmfk(
                sparse.csr_matrix((5, 5)),
                SelectionConfig(k_min=1, k_max=2, n_perturbations=2),
            )

    def test_scan_beyond_shape_rejected(self, rng):
        X = sparse.csr_matrix(rng.uniform(0.0, 1.0, (4, 6)))
        with pytest.raises(InvalidRank):
            nmfk(X, SelectionConfig(k_min=2, k_max=5, n_perturbations=2))

    def test_zero_noise_shared_seed_perfect_silhouette(self, rng):
        # delta = 0 with a shared nmf seed: every member identical, min sil 1
        X = sparse.csr_matrix(separated_topics_problem(rng, 3, rows_per_topic=5, docs_per_topic=8))
        from senmfk_split.nmf_core import nmf
        from senmfk_split.model_selection import normalize_columns as nc

        for k in (2, 3):
            member = nmf(X, k, NmfConfig(max_iter=100, seed=7))
            unit = nc(member.W)
            ensemble = [unit.copy() for _ in range(5)]
            labels, _ = cluster_columns(ensemble)
            stats = silhouette(np.hstack(ensemble), labels.ravel())
            assert stats.overall_min == 1.0


class TestEnsembleStacks:
    """Each rank's members are solved in the stacks that ``nmf_core.nmf_stack``
    sizes."""

    CONFIG = SelectionConfig(
        k_min=2, k_max=4, n_perturbations=4, nmf=NmfConfig(max_iter=120, tol=1e-8, seed=3)
    )

    @staticmethod
    def problem(rng):
        return sparse.csr_matrix(separated_topics_problem(rng, 3, rows_per_topic=4, docs_per_topic=4))

    # 12 x 12 = 144 cells: stacks of 1, 2 and 3 (3 + 1) members
    @pytest.mark.parametrize("stack_cells", [200, 300, 450])
    def test_stack_size_does_not_change_the_scan(self, rng, monkeypatch, stack_cells):
        X = self.problem(rng)
        whole = nmfk(X, self.CONFIG)
        monkeypatch.setattr(nmf_core, "_STACK_CELLS", stack_cells)
        report = nmfk(X, self.CONFIG)
        assert report.per_k == whole.per_k
        assert np.array_equal(report.consensus_W, whole.consensus_W)
        assert np.array_equal(report.consensus_H, whole.consensus_H)

    @pytest.mark.parametrize(
        "stack_cells, stride, stacks",
        [
            (100, 1, [1, 1, 1]),  # m n > _STACK_CELLS: one member at a time
            (1 << 20, 5, [1, 1, 1]),  # density 1/5, a CSR operand: never stacked
            (1 << 20, 1, [2, 1]),  # members together, then the consensus solve
        ],
    )
    def test_members_solved_per_stack(self, rng, monkeypatch, stack_cells, stride, stacks):
        X = self.problem(rng).toarray()
        X.flat[np.arange(X.size) % stride != 0] = 0.0
        sizes = []
        solve = nmf_core._solve_stack

        def spy(Xs, W, *args, **kwargs):
            sizes.append(W.shape[0])
            return solve(Xs, W, *args, **kwargs)

        monkeypatch.setattr(nmf_core, "_STACK_CELLS", stack_cells)
        monkeypatch.setattr(nmf_core, "_solve_stack", spy)
        nmfk(sparse.csr_matrix(X), SelectionConfig(k_min=2, k_max=2, n_perturbations=2))
        assert sizes == stacks

    @pytest.mark.parametrize(
        "stride, stack_cells, stack",
        [
            (5, 1 << 17, 1),  # density 1/5, a CSR operand: one copy at a time
            (1, 300, 2),  # 12 x 12 dense members, two to a stack: 2 + 2 + 1
        ],
    )
    def test_one_stack_of_copies_alive(self, rng, monkeypatch, stride, stack_cells, stack):
        X = self.problem(rng).toarray()
        X.flat[np.arange(X.size) % stride != 0] = 0.0
        refs, alive = [], []
        draw = nmf_core._draw

        def spy(*args, **kwargs):
            copy = draw(*args, **kwargs)
            refs.append(weakref.ref(copy))
            alive.append(sum(ref() is not None for ref in refs))
            return copy

        monkeypatch.setattr(nmf_core, "_STACK_CELLS", stack_cells)
        monkeypatch.setattr(nmf_core, "_draw", spy)
        nmfk(sparse.csr_matrix(X), replace(self.CONFIG, n_perturbations=5))
        assert len(alive) == 3 * 5
        assert max(alive) == stack


class TestSymmetricScan:
    """``nmfk`` draws every copy from one draw index per scan and equals
    public ``perturb`` + ``nmf`` per member; the input alone decides whether
    the draws are mirrored and the members solved as symmetric."""

    CONFIG = SelectionConfig(
        k_min=2, k_max=4, n_perturbations=3, nmf=NmfConfig(max_iter=60, tol=1e-9, seed=11)
    )

    @staticmethod
    def problem(rng, density, symmetric_values):
        pattern = np.triu(rng.uniform(size=(24, 24)) < density)
        values = rng.uniform(0.1, 1.0, (24, 24))
        if symmetric_values:
            values = np.triu(values) + np.triu(values, 1).T
        return sparse.csr_matrix(np.where(pattern | pattern.T, values, 0.0))

    @staticmethod
    def spy_scan(monkeypatch):
        """Spies on the draw index builds, the ``symmetric`` argument of each
        ensemble stack's solve, and the members of a scan."""
        indexes, flags, members = [], [], []
        build, stack, solve = nmf_core._draw_index, model_selection.nmf_stack, nmf_core._solve_stack

        def index_spy(*args, **kwargs):
            indexes.append(build(*args, **kwargs))
            return indexes[-1]

        def stack_spy(*args, **kwargs):
            for pair in stack(*args, **kwargs):
                members.append(pair)
                yield pair

        def solve_spy(Xs, W, H, config, update_w, symmetric=False):
            if update_w:
                flags.append(symmetric)
            return solve(Xs, W, H, config, update_w, symmetric)

        monkeypatch.setattr(model_selection, "_draw_index", index_spy)
        monkeypatch.setattr(model_selection, "nmf_stack", stack_spy)
        monkeypatch.setattr(nmf_core, "_solve_stack", solve_spy)
        return indexes, flags, members

    def expected_members(self, X, config):
        base, p = config.nmf.seed, config.n_perturbations
        return [
            nmf(
                perturb(X, config.delta, child_seed(base, k, j, 0)),
                k,
                replace(config.nmf, seed=child_seed(base, k, j, 1)),
            )
            for k in range(config.k_min, config.k_max + 1)
            for j in range(p)
        ]

    @staticmethod
    def assert_same_members(members, expected):
        assert len(members) == len(expected)
        for a, b in zip(members, expected):
            for name in ("W", "H", "objective_trace", "trace_iterations"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    # density 0.15 is a CSR operand, 0.6 a dense one
    @pytest.mark.parametrize("density", [0.15, 0.6])
    @pytest.mark.parametrize("symmetric_values", [False, True])
    def test_members_equal_perturb_then_nmf(self, rng, monkeypatch, density, symmetric_values):
        # no flag: the input alone decides. Exactly symmetric values, as
        # factorize_m passes M, get one mirrored draw index for the scan and
        # every stack is solved as symmetric; a symmetric pattern with
        # asymmetric values stays on the general path. A CSR operand is
        # solved one member a stack, 3 x 3 stacks; the dense 24 x 24 copies
        # of a rank share one
        X = self.problem(rng, density, symmetric_values)
        indexes, flags, members = self.spy_scan(monkeypatch)
        nmfk(X, self.CONFIG)
        assert len(indexes) == 1 and (indexes[0].of_entry is not None) == symmetric_values
        assert flags == [symmetric_values] * (9 if density < 0.25 else 3)
        self.assert_same_members(members, self.expected_members(X, self.CONFIG))

    @pytest.mark.parametrize("k_max, p", [(2, 2), (4, 3), (5, 4)])
    def test_draw_index_built_once_per_scan(self, rng, monkeypatch, k_max, p):
        # both references are spied, so a scan that went back to calling
        # perturb (which builds an index per call) is counted too
        calls = []
        build = nmf_core._draw_index

        def spy(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(nmf_core, "_draw_index", spy)
        monkeypatch.setattr(model_selection, "_draw_index", spy)
        config = replace(self.CONFIG, k_max=k_max, n_perturbations=p)
        nmfk(self.problem(rng, 0.15, True), config)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "X",
        [
            np.ones((4, 6)),
            # (1, 0) has no stored mirror
            np.array([[1.0, 0, 0], [2, 3, 0], [0, 0, 4]]),
        ],
        ids=["non-square", "no-mirror"],
    )
    def test_asymmetric_input_on_general_path(self, monkeypatch, X):
        # independent draws, and members solved without the CSC W-step
        X = sparse.csr_matrix(X)
        config = SelectionConfig(k_min=1, k_max=2, n_perturbations=2)
        indexes, flags, members = self.spy_scan(monkeypatch)
        nmfk(X, config)
        assert len(indexes) == 1 and indexes[0].of_entry is None
        assert flags == [False] * 2
        self.assert_same_members(members, self.expected_members(X, config))


class TestSelectionConfigValidation:
    def test_defaults(self):
        cfg = SelectionConfig(k_min=2, k_max=8)
        assert cfg.n_perturbations == 10
        assert cfg.delta == 0.03
        assert cfg.silhouette_threshold == 0.75

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_min": 0, "k_max": 3},
            {"k_min": 4, "k_max": 3},
            {"k_min": 1, "k_max": 2, "n_perturbations": 1},
            {"k_min": 1, "k_max": 2, "silhouette_threshold": 1.5},
            {"k_min": 1, "k_max": 2, "delta": 1.5},
            {"k_min": 1, "k_max": 2, "delta": 1.0},
            {"k_min": 1, "k_max": 2, "delta": -0.01},
            {"k_min": 1, "k_max": 2, "delta": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SelectionConfig(**kwargs)

    # a fractional count constructed, and nmfk then raised a bare TypeError
    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("k_min", {"k_min": 1.5, "k_max": 3}),
            ("k_max", {"k_min": 2, "k_max": 3.0}),
            ("n_perturbations", {"k_min": 2, "k_max": 3, "n_perturbations": 2.5}),
        ],
    )
    def test_non_integer_counts_rejected(self, name, kwargs):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SelectionConfig(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        cfg = SelectionConfig(k_min=np.int64(2), k_max=np.int32(3), n_perturbations=np.int64(2))
        assert (cfg.k_min, cfg.k_max, cfg.n_perturbations) == (2, 3, 2)
