"""Split factorization stages and the end-to-end pipeline."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from conftest import assert_same_csr, histogram_rows, small_split_config, write_jsonl
from oracles import (
    assignment_oracle,
    block_topic_matrix,
    purity,
    separated_topics_problem,
    topic_corpus_jsonl,
)
from senmfk_split import matrix_builder, model_selection, nmf_core, split_pipeline, storage
from senmfk_split.errors import (
    DataError,
    DegenerateBasis,
    DegenerateMatrix,
    NonNegativityViolation,
    PipelineStageError,
    ShapeMismatch,
)
from senmfk_split.matrix_builder import SemanticConfig, build_cooccurrence, build_tfidf, sppmi
from senmfk_split.model_selection import SelectionConfig
from senmfk_split.nmf_core import NmfConfig, relative_error
from senmfk_split.split_pipeline import (
    SplitConfig,
    assign_documents,
    concat_normalized,
    default_joint_range,
    factorize_m,
    factorize_x,
    final_regression,
    joint_factorize,
    run_split,
    top_words,
)
from senmfk_split.text_pipeline import (
    PipelineConfig,
    Vocabulary,
    load_jsonl_corpus,
    load_vocabulary,
)


def vocab_of(*terms):
    return Vocabulary(
        terms=tuple(terms),
        index_of={t: i for i, t in enumerate(terms)},
    )


def assert_ranks_are_basis_widths(ws) -> None:
    """Each selection report's chosen_k is the column count of its scan's
    basis, as the CLI summary, which reads no basis, takes it to be."""
    for w, _h, report in split_pipeline.FACTORS:
        chosen_k = storage.read_selection_report(ws / report).chosen_k
        assert chosen_k == storage.read_dense(ws / w).shape[1], report


def selection(k_lo, k_hi, seed, perturbations=6, max_iter=300):
    return SelectionConfig(
        k_lo, k_hi, n_perturbations=perturbations, nmf=NmfConfig(max_iter=max_iter, tol=1e-7, seed=seed)
    )


class TestFactorizeX:
    def test_synthetic_rank_three(self, rng):
        X = sparse.csr_matrix(separated_topics_problem(rng, 3))
        W1, H1, report = factorize_x(X, selection(2, 6, seed=1))
        assert report.chosen_k == 3
        assert W1.shape[1] == 3 and H1.shape[0] == 3
        assert relative_error(X, W1, H1) < 0.05
        assert [r.k for r in report.per_k] == [2, 3, 4, 5, 6]

    def test_rank_one_corpus(self, rng):
        w = rng.uniform(0.5, 1.5, (8, 1))
        X = sparse.csr_matrix(np.tile(w, (1, 10)))
        W1, _H1, report = factorize_x(X, selection(1, 3, seed=2))
        assert report.chosen_k == 1
        assert W1.shape == (8, 1)

    def test_one_consensus_solve_per_rank(self, rng, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return nmf_core.solve_h(*args, **kwargs)

        monkeypatch.setattr(model_selection, "solve_h", counting)
        monkeypatch.setattr(split_pipeline, "solve_h", counting)
        X = sparse.csr_matrix(separated_topics_problem(rng, 3, rows_per_topic=6, docs_per_topic=10))
        W1, H1, report = factorize_x(X, selection(2, 6, seed=3, perturbations=2, max_iter=50))
        assert len(calls) == 5
        assert W1 is report.consensus_W and H1 is report.consensus_H

    def test_dead_consensus_column_rejected(self, rng, monkeypatch):
        cluster = model_selection.cluster_columns

        def dead_first_centroid(column_sets):
            labels, centroids = cluster(column_sets)
            centroids[:, 0] = 0.0
            return labels, centroids

        monkeypatch.setattr(model_selection, "cluster_columns", dead_first_centroid)
        X = sparse.csr_matrix(separated_topics_problem(rng, 3, rows_per_topic=6, docs_per_topic=10))
        with pytest.raises(DegenerateBasis):
            factorize_x(X, selection(3, 3, seed=4, perturbations=2, max_iter=50))


class TestFactorizeM:
    def test_block_diagonal_two_topics(self, rng):
        blocks = []
        for _ in range(2):
            b = rng.uniform(0.5, 1.0, (5, 5))
            blocks.append(b + b.T)
        M = sparse.csr_matrix(np.block([
            [blocks[0], np.zeros((5, 5))],
            [np.zeros((5, 5)), blocks[1]],
        ]))
        W2, _H2, report = factorize_m(M, selection(1, 4, seed=3))
        assert report.chosen_k == 2
        # each consensus column is supported on one block
        for t in range(2):
            col = W2[:, t]
            top_half, bottom_half = col[:5].sum(), col[5:].sum()
            assert min(top_half, bottom_half) < 0.05 * max(top_half, bottom_half)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateMatrix):
            factorize_m(sparse.csr_matrix((6, 6)), selection(1, 2, seed=4))


class TestConcatNormalized:
    def test_columns_become_unit(self, rng):
        W1 = rng.uniform(0.5, 1.0, (6, 2)) * 2.0
        W2 = rng.uniform(0.5, 1.0, (6, 3))
        out = concat_normalized(W1, W2)
        np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-12)

    def test_column_order(self, rng):
        W1 = rng.uniform(0.1, 1.0, (5, 2))
        W2 = rng.uniform(0.1, 1.0, (5, 3))
        out = concat_normalized(W1, W2)
        assert out.shape == (5, 5)
        np.testing.assert_allclose(out[:, 0], W1[:, 0] / np.linalg.norm(W1[:, 0]))
        np.testing.assert_allclose(out[:, 2], W2[:, 0] / np.linalg.norm(W2[:, 0]))

    def test_self_concat_duplicates_detectable(self, rng):
        W = rng.uniform(0.1, 1.0, (7, 3))
        out = concat_normalized(W, W)
        for t in range(3):
            cos = out[:, t] @ out[:, t + 3]
            np.testing.assert_allclose(cos, 1.0, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            concat_normalized(rng.uniform(size=(5, 2)), rng.uniform(size=(6, 2)))


class TestJointFactorize:
    def test_duplicate_basis_merges(self, rng):
        B = block_topic_matrix(rng, 4, rows_per_topic=10)
        perm = [2, 0, 3, 1]
        Wcat = np.hstack([B, B[:, perm]])
        W, Hstar, report = joint_factorize(Wcat, selection(2, 8, seed=5))
        assert report.chosen_k == 4
        assert W.shape == (40, 4) and Hstar.shape == (4, 8)
        # every true basis column is matched by some consensus column
        sims = (B / np.linalg.norm(B, axis=0)).T @ (W / np.linalg.norm(W, axis=0))
        assert (sims.max(axis=1) >= 0.95).all()

    def test_orthogonal_columns_keep_full_rank(self, rng):
        # six mutually orthogonal-support columns: nothing to merge
        Wcat = block_topic_matrix(rng, 6, rows_per_topic=5)
        W, _Hstar, report = joint_factorize(Wcat, selection(2, 6, seed=6))
        assert report.chosen_k == 6

    def test_single_column(self, rng):
        col = rng.uniform(0.5, 1.0, (9, 1))
        W, _H, report = joint_factorize(col, selection(1, 1, seed=7, perturbations=4))
        assert report.chosen_k == 1
        cos = (W[:, 0] / np.linalg.norm(W)) @ (col[:, 0] / np.linalg.norm(col))
        assert cos > 0.999

    def test_scan_clamped_to_column_count(self, rng):
        Wcat = block_topic_matrix(rng, 3, rows_per_topic=4)
        W, _H, report = joint_factorize(Wcat, selection(2, 10, seed=8, perturbations=4))
        assert report.chosen_k <= 3

    def test_negative_input_rejected(self):
        with pytest.raises(NonNegativityViolation):
            joint_factorize(np.array([[1.0, -1.0]]).T, selection(1, 1, seed=9, perturbations=4))


class TestDefaultJointRange:
    def test_regular_case(self):
        assert default_joint_range(3, 4) == (3, 7)

    def test_floor_of_two(self):
        assert default_joint_range(2, 6) == (2, 8)

    def test_rank_one_side_includes_one(self):
        assert default_joint_range(1, 1) == (1, 2)
        assert default_joint_range(1, 5) == (1, 6)

    def test_row_cap(self, rng):
        # a merge over 6 terms scans no rank above 6: joint_factorize caps
        # the range at Wcat's rows
        Wcat = rng.uniform(0.1, 1.0, (6, 8))
        lo, hi = default_joint_range(4, 4)
        _W, _H, report = joint_factorize(Wcat, selection(lo, hi, seed=10, perturbations=4))
        assert [r.k for r in report.per_k] == [4, 5, 6]


class TestFinalRegression:
    def test_zero_target(self):
        W = np.ones((5, 2))
        H = final_regression(sparse.csr_matrix((5, 3)), W)
        np.testing.assert_allclose(H, 0.0, atol=1e-12)

    def test_recovers_construction(self, rng):
        W = rng.uniform(0.1, 1.0, (10, 3))
        H_true = rng.uniform(0.0, 1.0, (3, 6))
        X = sparse.csr_matrix(W @ H_true)
        H = final_regression(X, W, NmfConfig(max_iter=5000, tol=1e-12, seed=1))
        assert relative_error(X, W, H) < 1e-6

    def test_error_bounded_by_one(self, rng):
        X = sparse.csr_matrix(rng.uniform(0.0, 1.0, (8, 6)))
        W = rng.uniform(0.0, 1.0, (8, 2))
        H = final_regression(X, W, NmfConfig(seed=2))
        assert relative_error(X, W, H) <= 1.0 + 1e-12


class TestAssignDocuments:
    def test_argmax_and_tie_rule(self):
        H = np.array([[0.1, 0.5, 0.0], [0.9, 0.5, 0.0]])
        out = assign_documents(H)
        np.testing.assert_array_equal(out.assignments, [1, 0, 0])
        assert out.zero_columns == (2,)

    def test_histogram_partition(self, rng):
        H = rng.uniform(0.0, 1.0, (4, 30))
        out = assign_documents(H)
        assert out.counts.sum() == 30
        assert len(out.counts) == 4

    def test_scaling_invariance(self, rng):
        H = rng.uniform(0.0, 1.0, (3, 12))
        a = assign_documents(H)
        b = assign_documents(H * 17.5)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    # entries from a few values, so ties and all-zero columns are common
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(0, 12)),
            elements=st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 10.0),
        )
    )
    def test_matches_argmax_oracle_property(self, H):
        assignments, counts, zero_columns = assignment_oracle(H)
        out = assign_documents(H)
        assert out.assignments.tolist() == assignments
        assert out.counts.tolist() == counts
        assert out.zero_columns == tuple(zero_columns)
        assert out.max_weights.tolist() == [H[t, j] for j, t in enumerate(assignments)]
        assert out.counts.sum() == H.shape[1]
        assert all(out.assignments[j] == 0 for j in out.zero_columns)


class TestTopWords:
    def test_indicator_column(self):
        vocab = vocab_of(*[f"t{chr(97 + i)}" for i in range(9)])
        W = np.zeros((9, 1))
        W[7, 0] = 1.0
        ranked = top_words(W, vocab, top_n=1)
        assert ranked[0][0][0] == vocab.terms[7]

    def test_equal_weights_lexicographic(self):
        vocab = vocab_of("zed", "ant", "mid")
        W = np.array([[0.5], [0.5], [0.9]])
        ranked = top_words(W, vocab, top_n=3)
        assert [t for t, _ in ranked[0]] == ["mid", "ant", "zed"]

    def test_top5_prefix_of_top20(self, rng):
        vocab = vocab_of(*sorted({f"w{chr(97+i)}{chr(97+j)}" for i in range(5) for j in range(5)}))
        W = rng.uniform(0.0, 1.0, (len(vocab), 3))
        top20 = top_words(W, vocab, top_n=20)
        top5 = top_words(W, vocab, top_n=5)
        for t in range(3):
            assert top5[t] == top20[t][:5]

    def test_weights_non_increasing(self, rng):
        vocab = vocab_of(*sorted({f"v{chr(97+i)}{chr(97+j)}" for i in range(4) for j in range(4)}))
        W = rng.uniform(0.0, 1.0, (len(vocab), 2))
        for ranked in top_words(W, vocab, top_n=len(vocab)):
            weights = [w for _, w in ranked]
            assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_top_n_is_a_count(self):
        # -1 used to return every term but the last
        vocab = vocab_of("aa", "bb", "cc")
        W = np.array([[0.1], [0.2], [0.3]])
        for top_n, why in ((0, ">= 1"), (-1, ">= 1"), (1.5, "an integer")):
            with pytest.raises(ValueError, match=f"top_n must be {why}"):
                top_words(W, vocab, top_n)
        assert top_words(W, vocab, np.int64(1)) == [[("cc", 0.3)]]


def _split_config(**kwargs) -> SplitConfig:
    return SplitConfig(SelectionConfig(1, 2), SelectionConfig(1, 2), **kwargs)


# Every integer setting: its config (as a callable of the field's keyword
# arguments), the field, and its least value.
_COUNT_FIELDS = [
    (NmfConfig, "max_iter", 1),
    (NmfConfig, "seed", 0),
    (lambda **kw: SelectionConfig(**{"k_min": 1, "k_max": 3, **kw}), "k_min", 1),
    (lambda **kw: SelectionConfig(**{"k_min": 1, "k_max": 3, **kw}), "k_max", 1),
    (lambda **kw: SelectionConfig(1, 3, **kw), "n_perturbations", 2),
    (SemanticConfig, "window", 1),
    (lambda **kw: PipelineConfig(stopwords=frozenset(), **kw), "min_df", 1),
    (lambda **kw: PipelineConfig(stopwords=frozenset(), **kw), "min_doc_tokens", 0),
    (_split_config, "top_n_words", 1),
]


class TestCountSettings:
    # each of these used to construct: window=2.5 counted window 3's pairs,
    # min_doc_tokens=nan dropped every document, top_n_words=2.5 failed in
    # export after every factorization, seed=-1 and seed=1.5 inside numpy
    @pytest.mark.parametrize("make, name, low", _COUNT_FIELDS, ids=[f[1] for f in _COUNT_FIELDS])
    def test_one_rule_for_every_count(self, make, name, low):
        for bad, why in ((low + 0.5, "an integer"), (float("nan"), "an integer"),
                         (str(low), "an integer"), (low - 1, f">= {low}")):
            with pytest.raises(ValueError, match=f"^{name} must be {why}"):
                make(**{name: bad})
        for good in (np.int64(low), np.int32(low + 1), low + 1):
            assert getattr(make(**{name: good}), name) == good


class TestRunSplit:
    def test_three_topic_corpus(self, rng, tmp_path):
        lines, labels = topic_corpus_jsonl(rng, docs_per_topic=50)
        corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
        model = run_split(corpus_path, small_split_config(seed=3), tmp_path / "ws")
        assert model.k == 3
        assert_ranks_are_basis_widths(tmp_path / "ws")
        assert model.k <= model.k1 + model.k2
        assert purity(model.assignments, labels) >= 0.8
        assert model.histogram.sum() == len(labels)
        for name in (
            "vocab.txt",
            "corpus.jsonl",
            "X.mtx",
            "cooc.mtx",
            "M.mtx",
            "W1.mtx",
            "W2.mtx",
            "W.mtx",
            "H.mtx",
            "selection_x.json",
            "selection_m.json",
            "selection_joint.json",
            "topics.json",
            "assignments.csv",
            "histogram.csv",
        ):
            assert (tmp_path / "ws" / name).is_file(), name

    def test_input_that_is_the_workspace_corpus_is_data_error(self, rng, tmp_path):
        # the raw-text input used to be replaced by the tokenized corpus
        lines, _ = topic_corpus_jsonl(rng, docs_per_topic=30)
        ws = tmp_path / "ws"
        ws.mkdir()
        own = write_jsonl(ws / "corpus.jsonl", lines)
        before = own.read_bytes()
        link = tmp_path / "link.jsonl"
        link.symlink_to(own)
        config = small_split_config(seed=3)
        for given in (own, link):
            with pytest.raises(PipelineStageError, match="own corpus.jsonl") as info:
                run_split(given, config, ws)
            assert isinstance(info.value.cause, DataError)
        assert own.read_bytes() == before
        assert [p.name for p in ws.iterdir()] == ["corpus.jsonl"]
        # another workspace may take it as its input
        other = split_pipeline.PipelineRun(config, tmp_path / "other", own)
        (tmp_path / "other").mkdir()
        split_pipeline.run_stages(other, last="preprocess")
        assert (tmp_path / "other" / "corpus.jsonl").is_file()
        assert own.read_bytes() == before

    def test_byte_identical_reruns(self, rng, tmp_path):
        lines, _ = topic_corpus_jsonl(rng, docs_per_topic=30)
        corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
        run_split(corpus_path, small_split_config(seed=4), tmp_path / "ws_a")
        run_split(corpus_path, small_split_config(seed=4), tmp_path / "ws_b")
        names = sorted(p.name for p in (tmp_path / "ws_a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "ws_b").iterdir())
        for name in names:
            assert (tmp_path / "ws_a" / name).read_bytes() == (
                tmp_path / "ws_b" / name
            ).read_bytes(), name

    def test_each_stage_body_runs_once_with_the_run(self, rng, tmp_path, monkeypatch):
        # the tracer times these names and tests rebind them: every stage must
        # call its body through the module global, once, with the PipelineRun
        names = (
            "prepare_corpus",
            "build_matrices",
            "stage_factorize_x",
            "stage_factorize_m",
            "stage_joint",
            "stage_regression",
            "stage_export",
        )
        calls = {name: [] for name in names}
        for name in names:
            body = getattr(split_pipeline, name)

            def spy(*args, name=name, body=body, **kwargs):
                calls[name].append((args, kwargs))
                return body(*args, **kwargs)

            monkeypatch.setattr(split_pipeline, name, spy)
        lines, _ = topic_corpus_jsonl(rng, docs_per_topic=30)
        corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
        run_split(corpus_path, small_split_config(seed=3), tmp_path / "ws")
        runs = []
        for name in names:
            assert len(calls[name]) == 1, name
            ((args, kwargs),) = calls[name]
            assert len(args) == 1 and not kwargs, name
            assert isinstance(args[0], split_pipeline.PipelineRun), name
            runs.append(args[0])
        assert all(r is runs[0] for r in runs)
        assert runs[0].workspace == tmp_path / "ws"

    def test_each_stage_reads_only_its_declared_inputs(self, rng, tmp_path):
        # resume skips a stage whose declared inputs still match their
        # digests, so a stage that read any other value could be skipped wrongly
        class Recording(split_pipeline.Deferred):
            """Values that record the name of every one read."""

            def __init__(self, read):
                super().__init__(read)
                self.names = set()

            def __getitem__(self, name):
                self.names.add(name)
                return super().__getitem__(name)

        lines, _ = topic_corpus_jsonl(rng, docs_per_topic=30)
        corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
        config = small_split_config(seed=3)
        run_split(corpus_path, config, tmp_path / "ws")
        for stage in split_pipeline.STAGES:
            run = split_pipeline.PipelineRun(config, tmp_path / "ws", corpus_path)
            run.values = Recording(lambda name, run=run: split_pipeline._read(run, name))
            split_pipeline.run_stages(run, first=stage.name, last=stage.name)
            assert run.values.names <= set(stage.inputs), stage.name

    def test_model_read_back_equals_computed(self, rng, tmp_path):
        # the model of a finished workspace, every value read from its file
        lines, _ = topic_corpus_jsonl(rng, docs_per_topic=30)
        corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
        config = small_split_config(seed=3)
        model = run_split(corpus_path, config, tmp_path / "ws")
        run = split_pipeline.PipelineRun(config, tmp_path / "ws")
        assert_ranks_are_basis_widths(tmp_path / "ws")
        loaded = split_pipeline.TopicModel.from_stages(run.values)
        for name in ("W", "H", "assignments", "histogram"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name), err_msg=name)
        for name in ("topics", "k1", "k2", "k", "doc_ids", "zero_documents"):
            assert getattr(loaded, name) == getattr(model, name), name
        assert loaded.reports.keys() == model.reports.keys()
        for side, report in model.reports.items():
            back = loaded.reports[side]
            assert (back.chosen_k, back.fallback) == (report.chosen_k, report.fallback), side
            np.testing.assert_equal([asdict(r) for r in back.per_k], [asdict(r) for r in report.per_k])
            np.testing.assert_array_equal(back.consensus_W, report.consensus_W, err_msg=side)
            np.testing.assert_array_equal(back.consensus_H, report.consensus_H, err_msg=side)

    def test_every_output_reads_back_by_its_own_reader(self, rng, tmp_path):
        # a fresh run reads each file of a finished workspace as the reader
        # of its kind does, a CSV included; histogram.csv, the counts of
        # assignments.csv, has no reader
        lines, _ = topic_corpus_jsonl(rng, docs_per_topic=30)
        corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
        config = small_split_config(seed=3)
        ws = tmp_path / "ws"
        model = run_split(corpus_path, config, ws)
        readers = {
            "corpus.jsonl": load_jsonl_corpus,
            "vocab.txt": load_vocabulary,
            "X.mtx": storage.read_sparse,
            "cooc.mtx": storage.read_sparse,
            "M.mtx": storage.read_sparse,
            "H.mtx": storage.read_dense,
            "topics.json": storage.read_topics,
            "assignments.csv": storage.read_assignments,
        }
        for w, h, report in split_pipeline.FACTORS:
            readers.update({w: storage.read_dense, h: storage.read_dense})
            readers[report] = storage.read_selection_report
        outputs = [name for stage in split_pipeline.STAGES for name in stage.outputs]
        assert sorted(outputs) == sorted([*readers, "histogram.csv"])
        values = split_pipeline.PipelineRun(config, ws).values
        for name in readers:
            value, expected = values[name], readers[name](ws / name)
            if sparse.issparse(expected):
                assert_same_csr(value, expected)
            elif name == "assignments.csv":
                assert value[0] == expected[0] == model.doc_ids
                np.testing.assert_array_equal(value[1], expected[1])
                np.testing.assert_array_equal(value[1], model.assignments)
                np.testing.assert_array_equal(value[2], expected[2])
                np.testing.assert_array_equal(value[2], model.H.max(axis=0))
            elif isinstance(expected, np.ndarray):
                np.testing.assert_array_equal(value, expected, err_msg=name)
            else:
                assert value == expected, name
        with pytest.raises(KeyError):
            values["histogram.csv"]
        assert histogram_rows(ws / "histogram.csv") == list(enumerate(model.histogram))
        assert model.histogram.sum() == len(model.doc_ids)

    def test_matrices_stage_maps_tokens_once(self, rng, tmp_path, monkeypatch):
        # TF-IDF and co-occurrence share one term-id mapping, and build the
        # same matrices as each mapping the corpus itself
        mapped = []
        map_term_ids = matrix_builder.map_term_ids

        def spy(corpus, index_of):
            mapped.append(len(corpus))
            return map_term_ids(corpus, index_of)

        monkeypatch.setattr(matrix_builder, "map_term_ids", spy)
        monkeypatch.setattr(split_pipeline, "map_term_ids", spy)
        lines, _ = topic_corpus_jsonl(rng, docs_per_topic=30)
        corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
        config = small_split_config(seed=3)
        (tmp_path / "ws").mkdir()
        run = split_pipeline.PipelineRun(config, tmp_path / "ws", corpus_path)
        values = split_pipeline.run_stages(run, last="matrices")
        assert mapped == [90]
        corpus, vocab = values["corpus.jsonl"], values["vocab.txt"]
        assert_same_csr(values["X.mtx"], build_tfidf(corpus, vocab))
        cooc = build_cooccurrence(corpus, vocab, config.semantic)
        assert_same_csr(storage.read_sparse(tmp_path / "ws" / "cooc.mtx"), cooc)
        # M is built as its lower triangle and mirrored: the full matrix the
        # stage holds, and the one its file reads back as, are sppmi's
        M = sppmi(cooc, config.semantic.shift)
        assert M.nnz
        assert_same_csr(values["M.mtx"], M)
        assert_same_csr(storage.read_sparse(tmp_path / "ws" / "M.mtx"), M)

    def test_reconstruction_sanity(self, rng, tmp_path):
        lines, _ = topic_corpus_jsonl(rng, docs_per_topic=40)
        corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
        model = run_split(corpus_path, small_split_config(seed=5), tmp_path / "ws")
        assert_ranks_are_basis_widths(tmp_path / "ws")
        from senmfk_split import storage

        X = storage.read_sparse(tmp_path / "ws" / "X.mtx")
        W1 = storage.read_dense(tmp_path / "ws" / "W1.mtx")
        H1 = storage.read_dense(tmp_path / "ws" / "H1.mtx")
        err_final = relative_error(X, model.W, model.H)
        err_x = relative_error(X, W1, H1)
        assert err_final <= 1.0
        if model.k == model.k1:
            assert err_final <= 1.05 * err_x

    def test_factors_nonnegative_finite(self, rng, tmp_path):
        lines, _ = topic_corpus_jsonl(rng, docs_per_topic=30)
        corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
        model = run_split(corpus_path, small_split_config(seed=6), tmp_path / "ws")
        assert_ranks_are_basis_widths(tmp_path / "ws")
        from senmfk_split import storage

        for name in ("W1.mtx", "W2.mtx", "W.mtx", "H.mtx", "H1.mtx", "H2.mtx", "Hstar.mtx"):
            arr = storage.read_dense(tmp_path / "ws" / name)
            assert (arr >= 0).all() and np.isfinite(arr).all(), name

    def test_topics_json_schema(self, rng, tmp_path):
        lines, _ = topic_corpus_jsonl(rng, docs_per_topic=30)
        corpus_path = write_jsonl(tmp_path / "input.jsonl", lines)
        model = run_split(corpus_path, small_split_config(seed=7), tmp_path / "ws")
        assert_ranks_are_basis_widths(tmp_path / "ws")
        payload = json.loads((tmp_path / "ws" / "topics.json").read_text())
        assert [e["topic_id"] for e in payload] == list(range(model.k))
        for entry in payload:
            weights = [t["weight"] for t in entry["terms"]]
            assert all(a >= b for a, b in zip(weights, weights[1:]))
            assert len(entry["terms"]) == min(20, len(model.W))
