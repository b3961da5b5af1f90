"""TF-IDF, co-occurrence, and SPPMI construction against brute-force oracles."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from conftest import assert_same_csr, traced_peak
from oracles import cooccurrence_oracle, random_tokens_corpus, sppmi_oracle, tfidf_oracle
from senmfk_split.errors import DegenerateMatrix, DimensionMismatch, EmptyColumn, NonNegativityViolation
from senmfk_split import matrix_builder
from senmfk_split.matrix_builder import (
    SemanticConfig,
    build_cooccurrence,
    build_tfidf,
    canonicalize,
    cooccurrence_triangle,
    mirror_triangle,
    sppmi,
    sppmi_triangle,
)
from senmfk_split.text_pipeline import Corpus, Document, Vocabulary


def corpus_of(*token_lists):
    return Corpus(tuple(Document(f"d{i}", tuple(ts)) for i, ts in enumerate(token_lists)))


def vocab_of(*terms):
    return Vocabulary(
        terms=tuple(terms),
        index_of={t: i for i, t in enumerate(terms)},
    )


def zipf_corpus():
    """200 Zipf documents of 300 tokens over 2,000 terms: at window 100,
    about 6M token pairs, which held at once as index arrays take over
    300 MB; the co-occurrence matrix itself is about 14 MB."""
    rng = np.random.default_rng(5)
    weights = 1.0 / np.arange(1, 2001)
    ids = rng.choice(2000, size=(200, 300), p=weights / weights.sum())
    terms = [f"w{i:04d}" for i in range(2000)]
    return corpus_of(*([terms[i] for i in row] for row in ids)), vocab_of(*terms)


def uniform_corpus(m):
    """450 documents of 60 tokens drawn uniformly over m terms: at window
    100, 796,500 token pairs.  At m = 90 this is the benchmark's topic
    corpus in size (27,000 tokens), whose triangle holds 4,095 cells."""
    rng = np.random.default_rng(18)
    terms = [f"t{i:03d}" for i in range(m)]
    docs = [[terms[i] for i in rng.integers(0, m, 60)] for _ in range(450)]
    return corpus_of(*docs), vocab_of(*terms)


# _DIRECT_CELLS at its default counts every vocabulary of up to 256 terms
# with np.bincount; at 0 every vocabulary takes the sorted count
BOTH_COUNTS = (0, matrix_builder._DIRECT_CELLS)


def csr_bytes(mat) -> int:
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


class TestTfidf:
    def test_single_document_hand_computed(self):
        X = build_tfidf(corpus_of(["a", "a", "b"]), vocab_of("a", "b"))
        col = X.toarray().ravel()
        # idf = ln(2/2) + 1 = 1 for both terms; column (2, 1) normalized
        np.testing.assert_allclose(col, [2 / np.sqrt(5), 1 / np.sqrt(5)], atol=1e-15)

    def test_absent_term_not_stored(self):
        X = build_tfidf(corpus_of(["a"], ["a", "b"]), vocab_of("a", "b"))
        assert X[1, 0] == 0.0
        assert X.nnz == 3

    def test_identical_documents_identical_columns(self):
        X = build_tfidf(corpus_of(["a", "b"], ["a", "b"]), vocab_of("a", "b"))
        np.testing.assert_array_equal(X[:, 0].toarray(), X[:, 1].toarray())

    def test_columns_unit_norm(self, rng):
        docs, terms = random_tokens_corpus(rng)
        X = build_tfidf(
            corpus_of(*docs), vocab_of(*terms)
        )
        norms = np.sqrt(np.asarray(X.power(2).sum(axis=0)).ravel())
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_empty_column_rejected(self):
        with pytest.raises(EmptyColumn, match="'d1'"):
            build_tfidf(corpus_of(["a"], ["oov", "oov"], ["oov"]), vocab_of("a"))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_oracle_property(self, data):
        # every document has one in-vocabulary token, then any mix of
        # in-vocabulary and out-of-vocabulary tokens
        terms = sorted(data.draw(st.sets(st.sampled_from("abcdefgh"), min_size=1)))
        tokens = st.sampled_from([*terms, "oov", "zz"])
        doc = st.builds(lambda t, rest: [t, *rest], st.sampled_from(terms), st.lists(tokens))
        docs = data.draw(st.lists(doc, min_size=1, max_size=10))
        X = build_tfidf(corpus_of(*docs), vocab_of(*terms))
        np.testing.assert_allclose(X.toarray(), tfidf_oracle(docs, terms), atol=1e-12)

    def test_matches_oracle(self, rng):
        for _ in range(10):
            docs, terms = random_tokens_corpus(rng)
            X = build_tfidf(corpus_of(*docs), vocab_of(*terms))
            np.testing.assert_allclose(
                X.toarray(), tfidf_oracle(docs, terms), atol=1e-12
            )


class TestCooccurrence:
    def test_single_pair(self):
        C = build_cooccurrence(corpus_of(["a", "b"]), vocab_of("a", "b"), SemanticConfig())
        np.testing.assert_array_equal(C.toarray(), [[0, 1], [1, 0]])

    def test_repeated_term_diagonal(self):
        C = build_cooccurrence(
            corpus_of(["a", "a"]), vocab_of("a"), SemanticConfig(window=2)
        )
        assert C[0, 0] == 2.0

    def test_window_one_is_zero_matrix(self):
        C = build_cooccurrence(
            corpus_of(["a", "b", "a"]), vocab_of("a", "b"), SemanticConfig(window=1)
        )
        assert C.nnz == 0

    def test_windows_do_not_cross_documents(self):
        C = build_cooccurrence(
            corpus_of(["a"], ["b"]), vocab_of("a", "b"), SemanticConfig(window=100)
        )
        assert C.nnz == 0

    def test_oov_tokens_occupy_positions(self):
        # 'a ? b' with window 2: a-b are 2 apart, no pair counted
        C = build_cooccurrence(
            corpus_of(["a", "oov", "b"]), vocab_of("a", "b"), SemanticConfig(window=2)
        )
        assert C.nnz == 0

    def test_symmetry_random(self, rng):
        docs, terms = random_tokens_corpus(rng)
        C = build_cooccurrence(corpus_of(*docs), vocab_of(*terms), SemanticConfig(window=5))
        arr = C.toarray()
        np.testing.assert_array_equal(arr, arr.T)

    @pytest.mark.parametrize("window", [1, 2, 5, 100])
    def test_matches_bruteforce_oracle(self, rng, window):
        for _ in range(5):
            docs, terms = random_tokens_corpus(rng)
            C = build_cooccurrence(
                corpus_of(*docs), vocab_of(*terms), SemanticConfig(window=window)
            )
            np.testing.assert_array_equal(
                C.toarray(), cooccurrence_oracle(docs, terms, window)
            )

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_oracle_property(self, data):
        # documents of any length from 0 up, with out-of-vocabulary tokens,
        # and windows from 1 to past the longest document
        terms = sorted(data.draw(st.sets(st.sampled_from("abcdef"), min_size=1)))
        tokens = st.sampled_from([*terms, "oov"])
        docs = data.draw(st.lists(st.lists(tokens, max_size=12), min_size=1, max_size=8))
        window = data.draw(st.integers(1, max(len(d) for d in docs) + 3))
        C = build_cooccurrence(corpus_of(*docs), vocab_of(*terms), SemanticConfig(window=window))
        np.testing.assert_array_equal(C.toarray(), cooccurrence_oracle(docs, terms, window))
        assert C.has_canonical_format and (C.data > 0).all()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data(), st.sampled_from([1.0, 1.5, 4.0]))
    def test_output_and_its_sppmi_equal_their_transposes(self, data, shift):
        # storage writes one triangle of a matrix that equals its transpose,
        # so both word-context matrices must be symmetric to the last bit
        terms = sorted(data.draw(st.sets(st.sampled_from("abcdefgh"), min_size=1)))
        tokens = st.sampled_from([*terms, "oov"])
        docs = data.draw(st.lists(st.lists(tokens, max_size=30), min_size=1, max_size=8))
        window = data.draw(st.integers(1, max(len(d) for d in docs) + 3))
        C = build_cooccurrence(corpus_of(*docs), vocab_of(*terms), SemanticConfig(window=window))
        assert_same_csr(C, C.T.tocsr())
        if C.nnz:
            M = sppmi(C, shift)
            assert_same_csr(M, M.T.tocsr())

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_triangle_matches_oracle_property(self, data):
        # repeated terms fill the diagonal, where C counts each same-term
        # pair twice; a tiny pair budget reduces into the triangle many
        # times, and both counts must give the same arrays, bit for bit
        terms = sorted(data.draw(st.sets(st.sampled_from("abcdef"), min_size=1)))
        tokens = st.sampled_from([*terms, terms[0], "oov"])
        docs = data.draw(st.lists(st.lists(tokens, max_size=12), min_size=1, max_size=8))
        window = data.draw(st.integers(1, max(len(d) for d in docs) + 3))
        args = corpus_of(*docs), vocab_of(*terms), SemanticConfig(window=window)
        expected = np.tril(cooccurrence_oracle(docs, terms, window))
        first = None
        for cells in BOTH_COUNTS:
            for budget in (1, 7, matrix_builder._PAIR_BUDGET):
                with mock.patch.multiple(matrix_builder, _DIRECT_CELLS=cells, _PAIR_BUDGET=budget):
                    L = cooccurrence_triangle(*args)
                np.testing.assert_array_equal(L.toarray(), expected)
                assert L.has_canonical_format and (L.data > 0).all()
                first = L if first is None else first
                assert_same_csr(L, first)
                assert (L.indices.dtype, L.indptr.dtype) == (first.indices.dtype, first.indptr.dtype)

    def test_window_past_int64_spacing(self, rng):
        # documents three windows of 2**62 apart would lie past 2**63
        docs, terms = random_tokens_corpus(rng)
        docs = docs * 3
        C = build_cooccurrence(corpus_of(*docs), vocab_of(*terms), SemanticConfig(window=2**62))
        np.testing.assert_array_equal(C.toarray(), cooccurrence_oracle(docs, terms, 2**62))

    @pytest.mark.parametrize("window", [2, 5, 100])
    def test_document_order_does_not_change_counts(self, rng, window):
        docs, terms = random_tokens_corpus(rng)
        docs = [["out-of-vocab" if rng.uniform() < 0.3 else t for t in doc] for doc in docs]
        config = SemanticConfig(window=window)
        expected = build_cooccurrence(corpus_of(*docs), vocab_of(*terms), config)
        for _ in range(3):
            shuffled = [docs[i] for i in rng.permutation(len(docs))]
            C = build_cooccurrence(corpus_of(*shuffled), vocab_of(*terms), config)
            assert_same_csr(C, expected)

    @pytest.mark.parametrize("budget", [1, 7])
    def test_pair_budget_does_not_change_counts(self, rng, monkeypatch, budget):
        # a tiny budget reduces the pairs into the running matrix many
        # times; it binds only the sorted count, and both counts agree
        for window, cells in itertools.product((2, 5, 100), BOTH_COUNTS):
            docs, terms = random_tokens_corpus(rng)
            args = corpus_of(*docs), vocab_of(*terms), SemanticConfig(window=window)
            expected = build_cooccurrence(*args)
            with monkeypatch.context() as patch:
                patch.setattr(matrix_builder, "_PAIR_BUDGET", budget)
                patch.setattr(matrix_builder, "_DIRECT_CELLS", cells)
                C = build_cooccurrence(*args)
            assert_same_csr(C, expected)
            np.testing.assert_array_equal(
                C.toarray(), cooccurrence_oracle(docs, terms, window)
            )

    def test_memory_bounded_by_nnz_not_pairs(self):
        corpus, vocab = zipf_corpus()
        C, peak, _ = traced_peak(
            lambda: build_cooccurrence(corpus, vocab, SemanticConfig(window=100))
        )
        assert C.sum() == 2 * 200 * sum(300 - d for d in range(1, 100))
        assert peak < 100e6

    def test_triangle_peak_bounded(self):
        # the running matrix is the triangle itself, and counting frees each
        # temporary at its last use: 1.75 times the full matrix's CSR bytes
        # here (2.09 with a list of int64 keys per batch and a concatenated
        # copy of it); counting a triangle and summing it with its
        # transpose takes 2.61
        corpus, vocab = zipf_corpus()
        C = build_cooccurrence(corpus, vocab, SemanticConfig(window=100))
        L, peak, _ = traced_peak(
            lambda: cooccurrence_triangle(corpus, vocab, SemanticConfig(window=100))
        )
        assert_same_csr(L, sparse.tril(C, format="csr"))
        assert peak <= 2.0 * csr_bytes(C)

    def test_triangle_owns_exact_size_arrays(self):
        # each batch of the sorted count (2,000 terms) is summed into the
        # running matrix, and scipy's sum sizes its buffers for both
        # operands: 713,389 slots for 586,092 entries here, held for as
        # long as the triangle; the direct count (90 terms) builds L once
        for corpus, vocab in (zipf_corpus(), uniform_corpus(90)):
            L = cooccurrence_triangle(corpus, vocab, SemanticConfig(window=100))
            for arr in (L.data, L.indices):
                owner = arr if arr.base is None else arr.base
                assert owner.nbytes == arr.nbytes == L.nnz * arr.itemsize

    def test_key_transient_bounded(self):
        # 796,500 pairs over 90 terms, counted directly: batches of about
        # 8,100 uint32 keys added into 8,100 int64 counts (1.0 MiB traced);
        # the sorted count takes 5.3 MiB (below)
        corpus, vocab = uniform_corpus(90)
        L, peak, _ = traced_peak(
            lambda: cooccurrence_triangle(corpus, vocab, SemanticConfig(window=100))
        )
        assert mirror_triangle(L).sum() == 2 * 450 * (60 * 59 // 2)
        assert peak < 2e6

    def test_key_transient_bounded_sorted(self, monkeypatch):
        # the same pairs through the sorted count: one batch of uint32 keys
        # sorted in place (5.3 MiB traced); int64 keys kept per offset and
        # concatenated took 14.2 MiB
        monkeypatch.setattr(matrix_builder, "_DIRECT_CELLS", 0)
        corpus, vocab = uniform_corpus(90)
        L, peak, _ = traced_peak(
            lambda: cooccurrence_triangle(corpus, vocab, SemanticConfig(window=100))
        )
        assert mirror_triangle(L).sum() == 2 * 450 * (60 * 59 // 2)
        assert peak < 8e6

    def test_direct_peak_within_sorted_peak(self, monkeypatch):
        # at the largest direct vocabulary, 256 terms, the 65,536 counts
        # and a batch of as many keys still take less than one sorted
        # batch: 2.5 against 5.5 MiB traced
        corpus, vocab = uniform_corpus(256)
        args = corpus, vocab, SemanticConfig(window=100)
        direct, direct_peak, _ = traced_peak(lambda: cooccurrence_triangle(*args))
        monkeypatch.setattr(matrix_builder, "_DIRECT_CELLS", 0)
        sorted_, sorted_peak, _ = traced_peak(lambda: cooccurrence_triangle(*args))
        assert_same_csr(direct, sorted_)
        assert direct_peak <= sorted_peak

    @pytest.mark.parametrize("m, direct", [(256, True), (257, False)])
    def test_direct_count_boundary(self, monkeypatch, m, direct):
        # the largest direct vocabulary and one term more, each counted by
        # its default path and by the other, with the last term (the
        # largest key) used: the same arrays and dtypes, equal to the oracle
        rng = np.random.default_rng(m)
        terms = [f"w{i:03d}" for i in range(m)]
        docs = [[terms[i] for i in rng.integers(0, m, 40)] for _ in range(30)]
        docs[0][:2] = [terms[m - 1]] * 2
        args = corpus_of(*docs), vocab_of(*terms), SemanticConfig(window=10)
        sorted_counts = []

        def spy(keys, width):
            sorted_counts.append(keys.size)
            return count_keys(keys, width)

        count_keys = matrix_builder._count_keys
        monkeypatch.setattr(matrix_builder, "_count_keys", spy)
        default = cooccurrence_triangle(*args)
        assert bool(sorted_counts) != direct
        sorted_counts.clear()
        monkeypatch.setattr(matrix_builder, "_DIRECT_CELLS", 0 if direct else m * m)
        other = cooccurrence_triangle(*args)
        assert bool(sorted_counts) == direct
        assert_same_csr(default, other)
        assert (default.indices.dtype, default.indptr.dtype) == (other.indices.dtype, other.indptr.dtype)
        np.testing.assert_array_equal(default.toarray(), np.tril(cooccurrence_oracle(docs, terms, 10)))
        assert default[m - 1, m - 1] == 2

    @pytest.mark.parametrize("m, key_type", [(65_536, np.uint32), (65_537, np.int64)])
    def test_key_width_boundary(self, m, key_type):
        # the last terms of the vocabulary, term m - 1 paired with itself
        # included: at m = 65,536 its key is 2**32 - 1, the largest uint32
        used = [0, 1, 2, m - 3, m - 2, m - 1]
        terms = [f"w{i:05d}" for i in range(m)]
        docs = [
            [terms[i] for i in (m - 1, m - 1, 0, m - 2, 2, m - 1)],
            [terms[i] for i in (1, m - 3, m - 1, 1, 0)],
        ]
        small = {terms[i]: f"s{j}" for j, i in enumerate(used)}
        expected = cooccurrence_triangle(
            corpus_of(*([small[t] for t in doc] for doc in docs)),
            vocab_of(*small.values()),
            SemanticConfig(window=4),
        )
        seen = []

        def spy(keys, width):
            seen.append((keys.dtype, int(keys.max())))
            return count_keys(keys, width)

        count_keys = matrix_builder._count_keys
        with mock.patch.object(matrix_builder, "_count_keys", spy):
            L = cooccurrence_triangle(corpus_of(*docs), vocab_of(*terms), SemanticConfig(window=4))
        assert seen == [(key_type, m * m - 1)]
        # relabel the big triangle's entries onto the small vocabulary (a
        # KeyError if any lies elsewhere); the order is kept, so the CSR
        # arrays must be the same
        coo = L.tocoo()
        relabel = {i: j for j, i in enumerate(used)}
        rows, cols = ([relabel[i] for i in idx] for idx in (coo.row, coo.col))
        shrunk = sparse.csr_matrix((coo.data, (rows, cols)), shape=expected.shape)
        assert_same_csr(shrunk, expected)
        assert L.shape == (m, m) and L.has_canonical_format

    def test_peak_within_three_outputs(self):
        # the running matrix holds each term pair once, and its sum with
        # its transpose is the result itself, with no canonical copy
        corpus, vocab = zipf_corpus()
        C, peak, _ = traced_peak(
            lambda: build_cooccurrence(corpus, vocab, SemanticConfig(window=100))
        )
        assert peak <= 3 * csr_bytes(C)


def count_keys_reference(keys, m):
    """``_count_keys`` as it was written with ``np.unique``."""
    unique, counts = np.unique(np.concatenate(keys), return_counts=True)
    indptr = np.searchsorted(unique, np.arange(m + 1) * m)
    return sparse.csr_matrix((counts.astype(np.float64), unique % m, indptr), shape=(m, m))


class TestCountKeys:
    @pytest.mark.parametrize("m", [1, 2, 9, 300])
    def test_matches_unique_reference(self, rng, m):
        # few distinct keys among many, in pieces of random sizes, one empty,
        # counted from one array of either key type, which is sorted in place
        for key_type in (np.int64, np.uint32) * 5:
            pool = rng.integers(0, m * m, size=int(rng.integers(1, 40))).astype(key_type)
            keys = [pool[rng.integers(0, pool.size, size=n)] for n in (0, *rng.integers(1, 200, 3))]
            flat = np.concatenate(keys)
            out, expected = matrix_builder._count_keys(flat, m), count_keys_reference(keys, m)
            assert_same_csr(out, expected)
            assert (out.indices.dtype, out.indptr.dtype) == (
                expected.indices.dtype,
                expected.indptr.dtype,
            )
            assert flat.dtype == key_type
            np.testing.assert_array_equal(flat, np.sort(np.concatenate(keys)))


def symmetric_counts(data, max_terms=6):
    m = data.draw(st.integers(1, max_terms))
    raw = np.array(data.draw(st.lists(st.integers(0, 5), min_size=m * m, max_size=m * m)))
    raw = raw.reshape(m, m).astype(float)
    return raw + raw.T


class TestSppmi:
    def test_zero_counts_stay_zero(self):
        counts = sparse.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        out = sppmi(counts, 1.0)
        assert out[0, 0] == 0.0 and out[1, 1] == 0.0

    def test_two_by_two_hand_value(self):
        counts = sparse.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        out = sppmi(counts, 1.0)
        np.testing.assert_allclose(out[0, 1], np.log(2.0), atol=1e-15)

    def test_shift_four_clips_to_zero(self):
        counts = sparse.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert sppmi(counts, 4.0).nnz == 0

    def test_degenerate_matrix_raises(self):
        with pytest.raises(DegenerateMatrix):
            sppmi(sparse.csr_matrix((3, 3)), 4.0)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"must be square, got \(2, 3\)"):
            sppmi(sparse.csr_matrix(np.ones((2, 3))), 1.0)

    def test_symmetric_output(self, rng):
        raw = rng.integers(0, 5, size=(8, 8)).astype(float)
        counts = sparse.csr_matrix(raw + raw.T)
        out = sppmi(counts, 2.0).toarray()
        np.testing.assert_array_equal(out, out.T)

    def test_monotone_in_shift(self, rng):
        raw = rng.integers(0, 6, size=(10, 10)).astype(float)
        counts = sparse.csr_matrix(raw + raw.T)
        prev = sppmi(counts, 1.0).toarray()
        for s in (1.5, 2.0, 4.0, 8.0):
            cur = sppmi(counts, s).toarray()
            assert (cur <= prev + 1e-15).all()
            prev = cur

    def test_matches_oracle(self, rng):
        for s in (1.0, 2.0, 4.0):
            raw = rng.integers(0, 4, size=(9, 9)).astype(float)
            counts = sparse.csr_matrix(raw + raw.T)
            np.testing.assert_allclose(
                sppmi(counts, s).toarray(), sppmi_oracle(counts.toarray(), s), atol=1e-12
            )

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data(), st.sampled_from([1.0, 1.5, 2.0, 4.0]))
    def test_matches_oracle_property(self, data, shift):
        counts = symmetric_counts(data)
        assume(counts.sum() > 0)
        np.testing.assert_allclose(
            sppmi(sparse.csr_matrix(counts), shift).toarray(),
            sppmi_oracle(counts, shift),
            atol=1e-12,
        )

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        arrays(np.int64, st.integers(1, 8).map(lambda m: (m, m)), elements=st.integers(0, 10**9)),
        st.sampled_from([1.0, 1.5, 2.0, 4.0]),
    )
    def test_output_equals_its_transpose_property(self, raw, shift):
        # counts over nine orders of magnitude, so the rounding of every
        # product and quotient is exercised
        counts = (raw + raw.T).astype(float)
        assume(counts.sum() > 0)
        M = sppmi(canonicalize(counts), shift)
        assert_same_csr(M, M.T.tocsr())

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    def test_non_canonical_input_matches_canonical(self, data):
        # each count split over two duplicate entries, an explicit zero in
        # every row, entries in a drawn order: as COO and as unsorted CSR
        counts = symmetric_counts(data)
        assume(counts.sum() > 0)
        m = counts.shape[0]
        r, c = np.nonzero(counts)
        half = np.floor(counts[r, c] / 2)
        rows = np.concatenate([r, r, np.arange(m)])
        cols = np.concatenate([c, c, np.zeros(m, dtype=int)])
        vals = np.concatenate([half, counts[r, c] - half, np.zeros(m)])
        order = np.array(data.draw(st.permutations(range(rows.size))), dtype=int)
        messy = sparse.coo_matrix((vals[order], (rows[order], cols[order])), shape=(m, m))
        expected = sppmi(canonicalize(messy), 2.0)
        # by row, then in drawn order within each row: unsorted CSR arrays
        by_row = order[np.argsort(rows[order], kind="stable")]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
        unsorted = sparse.csr_matrix((vals[by_row], cols[by_row], indptr), shape=(m, m))
        for mat in (messy, unsorted):
            out = sppmi(mat, 2.0)
            np.testing.assert_array_equal(out.toarray(), expected.toarray())
            assert out.nnz == expected.nnz

    def test_input_left_unchanged(self, rng):
        raw = rng.integers(0, 4, size=(9, 9)).astype(float)
        counts = sparse.csr_matrix(raw + raw.T)
        arrays = [a.copy() for a in (counts.data, counts.indices, counts.indptr)]
        sppmi(counts, 4.0)
        for before, after in zip(arrays, (counts.data, counts.indices, counts.indptr)):
            np.testing.assert_array_equal(before, after)

    def test_no_negative_no_nan(self, rng):
        raw = rng.integers(0, 4, size=(12, 12)).astype(float)
        counts = sparse.csr_matrix(raw + raw.T)
        out = sppmi(counts, 2.0)
        assert (out.data >= 0).all() and np.isfinite(out.data).all()

    @pytest.mark.parametrize("shift", [0.0, -1.0, 0.5, np.inf, np.nan])
    def test_invalid_shift_rejected(self, shift):
        # shift 0 made every entry inf and shift -1 every entry NaN
        counts = sparse.csr_matrix(np.array([[2.0, 1, 0], [1, 0, 3], [0, 3, 4]]))
        with pytest.raises(ValueError, match="shift"):
            sppmi(counts, shift)

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_invalid_count_rejected(self, bad):
        # -1 and inf made NaN entries, and NaN made the whole output NaN
        counts = np.array([[2.0, 1, 0], [1, 0, 3], [0, 3, 4]])
        counts[1, 2] = counts[2, 1] = bad
        with pytest.raises(NonNegativityViolation):
            sppmi(sparse.csr_matrix(counts), 1.0)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data(), st.sampled_from([1.0, 1.5, 4.0, 1e6]))
    def test_row_blocks_do_not_change_output(self, data, shift):
        # blocks of one entry split every row, and blocks of seven group
        # several; empty rows come from the dropped terms, and shift 1e6
        # clips every entry of most matrices to 0
        counts = symmetric_counts(data, max_terms=8)
        dropped = data.draw(st.lists(st.integers(0, counts.shape[0] - 1), max_size=3))
        counts[dropped, :] = counts[:, dropped] = 0
        assume(counts.sum() > 0)
        expected = sppmi(sparse.csr_matrix(counts), shift)
        for budget in (1, 2, 7):
            with mock.patch.object(matrix_builder, "_PAIR_BUDGET", budget):
                assert_same_csr(sppmi(sparse.csr_matrix(counts), shift), expected)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.data(), st.sampled_from([1.0, 1.5, 4.0, 1e6]))
    def test_triangle_matches_full_bit_for_bit(self, data, shift):
        counts = symmetric_counts(data, max_terms=8)
        assume(counts.sum() > 0)
        C = sparse.csr_matrix(counts)
        lower = sparse.tril(C, format="csr")
        expected = sparse.tril(sppmi(C, shift), format="csr")
        for budget in (1, 7, matrix_builder._PAIR_BUDGET):
            with mock.patch.object(matrix_builder, "_PAIR_BUDGET", budget):
                assert_same_csr(sppmi_triangle(lower, shift), expected)
        assert_same_csr(mirror_triangle(expected), sppmi(C, shift))

    def test_transient_bounded_by_output(self, monkeypatch):
        # with small row blocks, what stays is the kept values twice (the
        # blocks and the stacked output), not whole-input arrays: 7.4 MB here,
        # 28 MB with the whole-matrix arrays
        corpus, vocab = zipf_corpus()
        C = build_cooccurrence(corpus, vocab, SemanticConfig(window=100))
        monkeypatch.setattr(matrix_builder, "_PAIR_BUDGET", 1000)
        M, peak, _ = traced_peak(lambda: sppmi(C, 4.0))
        assert 0 < M.nnz < C.nnz / 2
        assert peak < 2 * csr_bytes(M) + 2e6


class TestCanonicalize:
    def test_removes_zeros_and_sorts(self):
        coo = sparse.coo_matrix(
            (np.array([1.0, 0.0, 2.0, 3.0]), ([0, 0, 1, 1], [1, 0, 1, 1])), shape=(2, 2)
        )
        out = canonicalize(coo)
        assert out.nnz == 2  # zero dropped, duplicates summed
        assert out[1, 1] == 5.0
        assert out.has_sorted_indices


class TestSemanticConfigValidation:
    def test_defaults(self):
        cfg = SemanticConfig()
        assert cfg.window == 100 and cfg.shift == 4.0

    @pytest.mark.parametrize(
        "kwargs", [{"window": 0}, {"shift": 0.5}, {"shift": np.inf}, {"shift": np.nan}]
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SemanticConfig(**kwargs)
