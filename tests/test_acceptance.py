"""Acceptance suite: one test per release criterion.

Each criterion is verified at its stated tolerance and prints a PASS line
(run with ``pytest -s`` to see them inline).  Expected values come from the
independent brute-force oracles in ``oracles.py`` or from synthetic
constructions whose ground truth is known by design.
"""

import time

import numpy as np
import pytest
from scipy import sparse

from conftest import histogram_rows, small_split_config, write_jsonl
from oracles import (
    block_topic_matrix,
    cooccurrence_oracle,
    frobenius_relative_error,
    nnls_projected_gradient,
    purity,
    random_tokens_corpus,
    separated_topics_problem,
    silhouette_oracle,
    sppmi_oracle,
    tfidf_oracle,
    topic_corpus_jsonl,
)
from senmfk_split import storage
from senmfk_split.matrix_builder import (
    SemanticConfig,
    build_cooccurrence,
    build_tfidf,
    sppmi,
)
from senmfk_split.model_selection import SelectionConfig, nmfk, silhouette
from senmfk_split.nmf_core import NmfConfig, nmf, solve_h
from senmfk_split.split_pipeline import joint_factorize, run_split
from senmfk_split.text_pipeline import Corpus, Document, PipelineConfig, Vocabulary


def report_pass(number: int, message: str) -> None:
    print(f"[PASS] criterion {number}: {message}")


def corpus_of(doc_tokens):
    return Corpus(tuple(Document(f"d{i}", tuple(ts)) for i, ts in enumerate(doc_tokens)))


def vocab_of(terms):
    return Vocabulary(
        terms=tuple(terms),
        index_of={t: i for i, t in enumerate(terms)},
    )


def test_criterion_1_tfidf_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(20):
        docs, terms = random_tokens_corpus(rng, max_docs=20, max_terms=15)
        X = build_tfidf(corpus_of(docs), vocab_of(terms))
        expected = tfidf_oracle(docs, terms)
        np.testing.assert_allclose(X.toarray(), expected, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report_pass(1, f"TF-IDF matches brute-force oracle to 1e-12 on 20 corpora ({elapsed:.2f}s)")


def test_criterion_2_cooccurrence_sppmi_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    shifts = (1.0, 2.0, 4.0)
    for trial in range(20):
        docs, terms = random_tokens_corpus(rng, max_docs=20, max_terms=15)
        window = [1, 2, 5, 100][trial % 4]
        counts = build_cooccurrence(
            corpus_of(docs), vocab_of(terms), SemanticConfig(window=window, shift=4.0)
        )
        expected_counts = cooccurrence_oracle(docs, terms, window)
        np.testing.assert_array_equal(counts.toarray(), expected_counts)
        if counts.nnz:
            shift = shifts[trial % len(shifts)]
            np.testing.assert_allclose(
                sppmi(counts, shift).toarray(),
                sppmi_oracle(expected_counts, shift),
                atol=1e-12,
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    report_pass(2, f"co-occurrence exact and SPPMI to 1e-12, windows 1/2/5/100 ({elapsed:.2f}s)")


def test_criterion_3_multiplicative_update_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(50):
        m = int(rng.integers(20, 201))
        n = int(rng.integers(10, 101))
        k = int(rng.integers(1, 11))
        density = float(rng.uniform(0.2, 1.0))
        X = rng.uniform(0.0, 1.0, (m, n))
        X[rng.uniform(size=(m, n)) > density] = 0.0
        pair = nmf(
            sparse.csr_matrix(X), k, NmfConfig(max_iter=120, tol=1e-15, seed=trial)
        )
        trace = pair.objective_trace
        assert len(trace) >= 2
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-9, f"trial {trial}: {prev} -> {cur}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    report_pass(3, f"objective trace non-increasing (1e-9 slack) on 50 problems ({elapsed:.2f}s)")


def test_criterion_4_nnls_matches_projected_gradient_oracle():
    rng = np.random.default_rng(404)
    for trial in range(20):
        W = rng.uniform(0.0, 1.0, (10, 4))
        X_dense = rng.uniform(0.0, 1.0, (10, 8))
        H = solve_h(
            sparse.csr_matrix(X_dense), W, NmfConfig(max_iter=5000, tol=1e-11, seed=trial)
        )
        H_oracle = nnls_projected_gradient(W, X_dense)
        err = frobenius_relative_error(X_dense, W, H)
        err_oracle = frobenius_relative_error(X_dense, W, H_oracle)
        assert abs(err - err_oracle) < 1e-4, f"trial {trial}: {err} vs {err_oracle}"
    report_pass(4, "solve_h within 1e-4 relative objective of projected gradient, 20 instances")


def test_criterion_5_rank_recovery():
    start = time.perf_counter()
    for k_true in (3, 5, 8):
        hits = 0
        chosen = []
        for trial in range(10):
            rng = np.random.default_rng(1000 + trial)
            X = sparse.csr_matrix(separated_topics_problem(rng, k_true, noise=0.01))
            config = SelectionConfig(
                k_min=2,
                k_max=k_true + 4,
                n_perturbations=10,
                delta=0.03,
                nmf=NmfConfig(max_iter=600, tol=1e-8, seed=trial),
            )
            report = nmfk(X, config)
            chosen.append(report.chosen_k)
            hits += report.chosen_k == k_true
        assert hits >= 9, f"k_true={k_true}: only {hits}/10 recovered ({chosen})"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"runtime {elapsed:.2f}s exceeds 10min"
    report_pass(5, f"chosen_k = k_true in >= 9/10 trials for k in {{3,5,8}} ({elapsed:.0f}s)")


def test_criterion_6_duplicate_factor_merging():
    rng = np.random.default_rng(606)
    B = block_topic_matrix(rng, 4, rows_per_topic=10)
    perm = [3, 1, 0, 2]
    Wcat = np.hstack([B, B[:, perm]])  # k1 = k2 = 4
    config = SelectionConfig(
        k_min=2, k_max=8, n_perturbations=10, nmf=NmfConfig(max_iter=500, tol=1e-8, seed=66)
    )
    W, _Hstar, report = joint_factorize(Wcat, config)
    assert report.chosen_k == 4
    unit_b = B / np.linalg.norm(B, axis=0)
    unit_w = W / np.linalg.norm(W, axis=0)
    sims = unit_b.T @ unit_w
    # one-to-one match of consensus columns to true basis columns
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(sims, maximize=True)
    matched = sims[rows, cols]
    assert (matched >= 0.95).all(), matched
    report_pass(6, f"[B|P(B)] with k1=k2=4 merges to k=4, matched cosines {matched.min():.3f}")


def test_criterion_7_end_to_end_synthetic_pipeline(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    lines, labels = topic_corpus_jsonl(rng, n_topics=3, docs_per_topic=100)
    corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
    config = small_split_config(seed=77, k_lo=2, k_hi=5, perturbations=8)
    model = run_split(corpus_path, config, tmp_path / "ws_a")
    assert model.k == 3, f"selected k={model.k}"
    score = purity(model.assignments, labels)
    assert score >= 0.8, f"purity {score}"
    # deterministic re-run: byte-identical artifacts
    run_split(corpus_path, config, tmp_path / "ws_b")
    names = sorted(p.name for p in (tmp_path / "ws_a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "ws_b").iterdir())
    for name in names:
        a = (tmp_path / "ws_a" / name).read_bytes()
        b = (tmp_path / "ws_b" / name).read_bytes()
        assert a == b, f"{name} differs between seeded re-runs"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"runtime {elapsed:.2f}s exceeds 5min"
    report_pass(
        7, f"300-doc corpus: k=3, purity {score:.2f}, byte-identical re-run ({elapsed:.0f}s)"
    )


def test_criterion_8_silhouette_matches_bruteforce():
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 31))
        k = int(rng.integers(2, 6))
        if k > n:
            continue
        cols = rng.uniform(0.0, 1.0, (int(rng.integers(2, 8)), n))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        rng.shuffle(labels)
        stats = silhouette(cols, labels)
        scores = silhouette_oracle(cols, labels)
        np.testing.assert_allclose(stats.overall_min, scores.min(), atol=1e-12)
        np.testing.assert_allclose(stats.overall_mean, scores.mean(), atol=1e-12)
        per_cluster = [scores[labels == c].min() for c in range(k)]
        np.testing.assert_allclose(stats.per_cluster_min, per_cluster, atol=1e-12)
        checked += 1
    report_pass(8, "silhouette equals brute force to 1e-12 on 50 labelings")


class TestCriterion9Contracts:
    def test_random_end_to_end_contracts(self, tmp_path):
        rng = np.random.default_rng(909)
        for trial in range(10):
            n_topics = int(rng.integers(2, 5))
            lines, labels = topic_corpus_jsonl(
                rng,
                n_topics=n_topics,
                docs_per_topic=int(rng.integers(25, 45)),
                words_per_topic=int(rng.integers(12, 22)),
                doc_length=int(rng.integers(30, 50)),
            )
            corpus_path = write_jsonl(tmp_path / f"in_{trial}.jsonl", lines)
            config = small_split_config(
                seed=9000 + trial, k_lo=2, k_hi=max(3, n_topics + 1), perturbations=4
            )
            ws = tmp_path / f"ws_{trial}"
            model = run_split(corpus_path, config, ws)
            # rank bound
            assert model.k <= model.k1 + model.k2
            # persisted factor matrices non-negative and finite
            for name in ("W1.mtx", "W2.mtx", "W.mtx", "H.mtx", "H1.mtx", "H2.mtx", "Hstar.mtx"):
                arr = storage.read_dense(ws / name)
                assert (arr >= 0).all() and np.isfinite(arr).all(), name
            for name in ("X.mtx", "cooc.mtx", "M.mtx"):
                mat = storage.read_sparse(ws / name)
                assert (mat.data >= 0).all() and np.isfinite(mat.data).all(), name
            # histogram partitions the documents
            hist = histogram_rows(ws / "histogram.csv")
            assert [topic_id for topic_id, _ in hist] == list(range(model.k))
            assert sum(count for _, count in hist) == len(labels)
            assert [count for _, count in hist] == model.histogram.tolist()
        report_pass(9, "rank bound, non-negative finite artifacts, histogram partition on 10 runs")

    def test_defaults_match_stated_values(self):
        pipeline = PipelineConfig()
        assert pipeline.min_doc_tokens == 20
        assert pipeline.min_df == 5
        assert pipeline.max_df_ratio == 0.5
        semantic = SemanticConfig()
        assert semantic.window == 100
        assert semantic.shift == 4.0
        from senmfk_split.cli import _DEFAULTS

        assert _DEFAULTS["min-doc-tokens"] == 20
        assert _DEFAULTS["min-df"] == 5
        assert _DEFAULTS["max-df"] == 0.5
        assert _DEFAULTS["window"] == 100
        assert _DEFAULTS["shift"] == 4.0
        report_pass(9, "defaults: min tokens 20, min-df 5, max-df 0.5, window 100, shift 4")
