"""Artifact round-trips and format contracts."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import io as scipy_io
from scipy import sparse

from conftest import assert_same_csr, histogram_rows
from senmfk_split import storage
from senmfk_split.errors import DataError
from senmfk_split.matrix_builder import canonicalize
from senmfk_split.model_selection import RankRecord, SelectionReport
from senmfk_split.split_pipeline import assign_documents


class TestMatrixMarket:
    def test_sparse_header_and_roundtrip(self, rng, tmp_path):
        raw = rng.uniform(0.0, 1.0, (7, 5))
        raw[raw < 0.5] = 0.0
        X = sparse.csr_matrix(raw)
        path = tmp_path / "X.mtx"
        storage.write_sparse(X, path)
        first = path.read_text().splitlines()[0]
        assert first == "%%MatrixMarket matrix coordinate real general"
        back = storage.read_sparse(path)
        np.testing.assert_array_equal(back.toarray(), X.toarray())

    def test_symmetric_matrix_stores_one_triangle(self, rng, tmp_path):
        raw = rng.uniform(0.0, 1.0, (5, 5))
        raw[raw < 0.4] = 0.0
        S = sparse.csr_matrix(raw + raw.T)
        path = tmp_path / "S.mtx"
        storage.write_symmetric(sparse.tril(S, format="csr"), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
        lower = sparse.tril(S).nnz
        assert lines[2].split() == ["5", "5", str(lower)] and len(lines) == 3 + lower
        assert_same_csr(storage.read_sparse(path), S)

    @pytest.mark.parametrize(
        "values",
        [
            [[0.0, 3.0, 1.0], [3.0, 2.0, 0.0], [1.0, 0.0, 7.0]],
            [[np.pi, 1.0 / 3.0, 0.0], [1.0 / 3.0, 0.0, 2.5e-300], [0.0, 2.5e-300, 1e300]],
        ],
    )
    def test_write_symmetric_golden_bytes(self, tmp_path, values):
        # the bytes scipy writes from the lower triangle's COO, with the
        # field and precision chosen as for any sparse file
        S = canonicalize(np.array(values))
        whole = bool(np.all(S.data == np.trunc(S.data)))
        expected = sparse.tril(S, format="coo")
        if whole:
            expected.data = expected.data.astype(np.int64)
        golden = tmp_path / "golden.mtx"
        scipy_io.mmwrite(
            str(golden),
            expected,
            field="integer" if whole else None,
            precision=17,
            symmetry="symmetric",
        )
        path = tmp_path / "S.mtx"
        storage.write_symmetric(sparse.tril(S, format="csr"), path)
        assert path.read_bytes() == golden.read_bytes()
        field = "integer" if whole else "real"
        assert path.read_text().splitlines()[0] == f"%%MatrixMarket matrix coordinate {field} symmetric"
        assert_same_csr(storage.read_sparse(path), S)

    def test_write_symmetric_rejects_upper_entries(self, tmp_path):
        path = tmp_path / "S.mtx"
        full, not_square = np.array([[1.0, 2.0], [2.0, 1.0]]), (2, 3)
        for bad in (sparse.csr_matrix(full), sparse.csr_matrix(not_square)):
            with pytest.raises(ValueError, match="lower triangle"):
                storage.write_symmetric(bad, path)
        assert not path.exists()

    def test_symmetric_matrix_written_general(self, tmp_path):
        # write_sparse does not look for symmetry: one layout for every matrix
        S = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
        path = tmp_path / "S.mtx"
        storage.write_sparse(S, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
        assert lines[2].split() == ["2", "2", "3"]
        assert_same_csr(storage.read_sparse(path), S)

    def test_one_ulp_from_symmetric_stays_general(self, rng, tmp_path):
        raw = rng.uniform(0.0, 1.0, (5, 5))
        raw = raw + raw.T
        raw[3, 1] = np.nextafter(raw[3, 1], np.inf)
        A = sparse.csr_matrix(raw)
        path = tmp_path / "A.mtx"
        storage.write_sparse(A, path)
        assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate real general"
        assert_same_csr(storage.read_sparse(path), A)

    def test_integer_field_only_for_whole_values(self, tmp_path):
        counts = sparse.csr_matrix(np.array([[0.0, 3.0, 1.0], [3.0, 2.0, 0.0], [1.0, 0.0, 7.0]]))
        path = tmp_path / "counts.mtx"
        storage.write_sparse(counts, path)
        assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate integer general"
        assert_same_csr(storage.read_sparse(path), counts)
        storage.write_symmetric(sparse.tril(counts, format="csr"), path)
        assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate integer symmetric"
        assert_same_csr(storage.read_sparse(path), counts)
        # one value a hair off a whole number, or one at 2**53, keeps the
        # real field
        for bad in (3.0 + 2.0**-50, 2.0**53):
            data = np.array([1.0, bad, 5.0])
            A = sparse.csr_matrix((data, [0, 1, 1], [0, 1, 2, 3]), shape=(3, 2))
            storage.write_sparse(A, path)
            assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate real general"
            assert_same_csr(storage.read_sparse(path), A)

    @pytest.mark.parametrize(
        "value, field",
        [
            (np.nan, "real"),
            (np.inf, "real"),
            (-np.inf, "real"),
            (2.0**53 - 1, "integer"),
            (-(2.0**53 - 1), "integer"),
            (-(2.0**53), "real"),
        ],
    )
    def test_field_at_the_edges_of_whole(self, tmp_path, value, field):
        # NaN and the infinities are not whole numbers; the largest whole
        # values below 2**53, of either sign, are exact in int64 and float64
        A = sparse.csr_matrix((np.array([1.0, value]), [0, 0], [0, 1, 2]), shape=(2, 2))
        path = tmp_path / "A.mtx"
        storage.write_sparse(A, path)
        assert path.read_text().splitlines()[0] == f"%%MatrixMarket matrix coordinate {field} general"
        assert_same_csr(storage.read_sparse(path), A)
        storage.write_symmetric(A, path)
        assert path.read_text().splitlines()[0] == f"%%MatrixMarket matrix coordinate {field} symmetric"

    def test_float64_exact_roundtrip(self, tmp_path):
        # 17 significant digits must reproduce doubles bit for bit
        vals = np.array([[1.0 / 3.0, np.pi], [1e-300, 1.2345678901234567]])
        X = sparse.csr_matrix(vals)
        path = tmp_path / "vals.mtx"
        storage.write_sparse(X, path)
        back = storage.read_sparse(path).toarray()
        assert (back == vals).all()
        # and so in the symmetric layout
        S = sparse.csr_matrix(np.array([[np.pi, 1.0 / 3.0], [1.0 / 3.0, 1e-300]]))
        storage.write_symmetric(sparse.tril(S, format="csr"), path)
        assert "real symmetric" in path.read_text().splitlines()[0]
        assert_same_csr(storage.read_sparse(path), S)

    # whole counts and arbitrary doubles, symmetric or not
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.just(0.0)
            | st.integers(1, 50).map(float)
            | st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False),
        ),
        st.booleans(),
    )
    def test_roundtrip_is_exact(self, raw, symmetric):
        if symmetric:
            n = min(raw.shape)
            raw = np.triu(raw[:n, :n]) + np.triu(raw[:n, :n], 1).T
        A = canonicalize(raw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "A.mtx"
            if symmetric:
                storage.write_symmetric(sparse.tril(A, format="csr"), path)
            else:
                storage.write_sparse(A, path)
            header = path.read_text().splitlines()[0]
            back = storage.read_sparse(path)
        assert header.endswith("symmetric" if symmetric else "general")
        whole = np.all(A.data == np.trunc(A.data)) and np.all(A.data < 2.0**53)
        if A.nnz:  # an empty matrix has no values to judge the field by
            assert ("integer" in header) == whole
        assert_same_csr(back, A)

    def test_dense_array_roundtrip(self, rng, tmp_path):
        W = rng.uniform(0.0, 1.0, (6, 3))
        path = tmp_path / "W.mtx"
        storage.write_dense(W, path)
        assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix array real general"
        back = storage.read_dense(path)
        assert (back == W).all()

    def test_symmetric_dense_array_written_general(self, tmp_path):
        W = np.array([[1.0, 2.0], [2.0, 3.0]])
        path = tmp_path / "W.mtx"
        storage.write_dense(W, path)
        assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix array real general"
        assert np.array_equal(storage.read_dense(path), W)

    def test_write_deterministic(self, rng, tmp_path):
        W = rng.uniform(0.0, 1.0, (5, 4))
        storage.write_dense(W, tmp_path / "a.mtx")
        storage.write_dense(W, tmp_path / "b.mtx")
        assert (tmp_path / "a.mtx").read_bytes() == (tmp_path / "b.mtx").read_bytes()


class TestSelectionReportIO:
    def test_roundtrip(self, rng, tmp_path):
        report = SelectionReport(
            per_k=[
                RankRecord(2, 0.5, 0.7, 0.3),
                RankRecord(3, 0.9, 0.95, 0.1),
            ],
            chosen_k=3,
            consensus_W=rng.uniform(0.0, 1.0, (6, 3)),
            consensus_H=rng.uniform(0.0, 1.0, (3, 4)),
            fallback=False,
        )
        path = tmp_path / "sel.json"
        storage.write_selection_report(report, path)
        back = storage.read_selection_report(path)
        assert (back.per_k, back.chosen_k, back.fallback) == (report.per_k, 3, False)
        # the factors are files of their own
        assert back.consensus_W is None and back.consensus_H is None

    @pytest.mark.parametrize(
        "damage",
        [
            None,  # the file cut short
            lambda payload: payload["per_k"][1].pop("relative_error"),
            lambda payload: payload["per_k"][0].update(spread=0.1),
            lambda payload: payload.pop("fallback"),
            lambda payload: payload.update(chosen_k=[3]),
            lambda payload: payload.update(per_k=[[2, 0.5, 0.7, 0.3]]),
            lambda payload: payload.update(fallback="false"),
            lambda payload: payload.update(fallback=0),
            lambda payload: payload.update(chosen_k=2.9),
            lambda payload: payload.update(chosen_k=3.0),
            lambda payload: payload.update(chosen_k=True),
            lambda payload: payload.update(chosen_k=4),
            lambda payload: payload["per_k"][0].update(k=2.0),
            lambda payload: payload["per_k"][1].update(k=False),
            lambda payload: payload["per_k"][0].update(min_silhouette="0.5"),
            lambda payload: payload["per_k"][1].update(mean_silhouette=None),
            lambda payload: payload["per_k"][0].update(relative_error=True),
        ],
        ids=[
            "truncated",
            "rank-key-missing",
            "rank-key-extra",
            "no-fallback",
            "list-k",
            "list-rank",
            "string-fallback",
            "int-fallback",
            "float-k",
            "whole-float-k",
            "bool-k",
            "unscanned-k",
            "float-rank",
            "bool-rank",
            "string-stat",
            "null-stat",
            "bool-stat",
        ],
    )
    def test_malformed_is_data_error(self, tmp_path, damage):
        report = SelectionReport([RankRecord(2, 0.5, 0.7, 0.3), RankRecord(3, 0.9, 0.95, 0.1)], 3)
        path = tmp_path / "selection_x.json"
        storage.write_selection_report(report, path)
        text = path.read_text("utf-8")
        if damage is None:
            text = text[:40]
        else:
            payload = json.loads(text)
            damage(payload)
            text = json.dumps(payload)
        path.write_text(text, "utf-8")
        with pytest.raises(DataError, match="selection_x.json: not a valid selection report"):
            storage.read_selection_report(path)


class TestCsvArtifacts:
    def test_assignments_format(self, tmp_path):
        path = tmp_path / "a.csv"
        storage.write_assignments(
            ["docA", "docB"], np.array([1, 0]), np.array([0.5, 0.25]), path
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "doc_id,topic_id,max_weight"
        assert lines[1] == "docA,1,0.5"

    def test_histogram_roundtrip(self, tmp_path):
        path = tmp_path / "h.csv"
        storage.write_histogram(np.array([3, 0, 7]), path)
        assert histogram_rows(path) == [(0, 3), (1, 0), (2, 7)]

    # separators, quotes, line ends, NUL, non-ASCII, edge spaces and the
    # empty string, mixed with any character UTF-8 can write; a doc id
    # repeats in no table the pipeline writes
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.lists(
            st.text(st.sampled_from(list(',"\r\n\x00 \té😀')) | st.characters(codec="utf-8")),
            max_size=6,
            unique=True,
        )
    )
    @example(["", " a ", "a,b", 'say "hi"', "cr\rlf\n", "\r\n", "nul\x00", "é😀", '"'])
    def test_doc_ids_roundtrip(self, doc_ids):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "assignments.csv"
            n = len(doc_ids)
            topics, weights = np.arange(n) % 3, np.arange(n) / 3.0
            storage.write_assignments(doc_ids, topics, weights, path)
            ids, topic_ids, back = storage.read_assignments(path)
            assert ids == doc_ids
            assert topic_ids.dtype == np.int64 and back.dtype == np.float64
            np.testing.assert_array_equal(topic_ids, topics)
            np.testing.assert_array_equal(back, weights)

    # non-negative H with some columns zeroed and some entries subnormal
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(0, 8)),
            elements=st.sampled_from([0.0, 5e-324, 2.2e-308, 1e-300, 0.1, 1.0, 1e300]),
        ),
        st.sets(st.integers(0, 7)),
    )
    def test_zero_weights_are_the_zero_columns(self, H, zeroed):
        H[:, [j for j in zeroed if j < H.shape[1]]] = 0.0
        result = assign_documents(H)
        max_weights = H[result.assignments, np.arange(H.shape[1])]
        n = H.shape[1]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "assignments.csv"
            storage.write_assignments([f"d{j}" for j in range(n)], result.assignments, max_weights, path)
            _, topic_ids, weights = storage.read_assignments(path)
        np.testing.assert_array_equal(topic_ids, result.assignments)
        np.testing.assert_array_equal(weights, max_weights)
        assert tuple(np.flatnonzero(weights == 0)) == result.zero_columns
        assert result.zero_columns == tuple(np.flatnonzero(~H.any(axis=0)))

    @pytest.mark.parametrize(
        "data",
        [
            b"",  # no header
            b"doc,topic_id,max_weight\r\na,0,0.5\r\n",
            b"doc_id,topic_id,max_weight\r\na,0,0.5\r\nb,1\r\n",  # short row
            b"doc_id,topic_id,max_weight\r\na,0,0.5,7\r\n",
            b'doc_id,topic_id,max_weight\r\n"a,0,0.5\r\n',  # quote never closed
            b"doc_id,topic_id,max_weight\r\ncaf\xe9,0,0.5\r\n",  # not UTF-8
            b"doc_id,topic_id,max_weight\r\na,x,0.5\r\n",  # topic not an int
            b"doc_id,topic_id,max_weight\r\na,-1,0.5\r\n",
            b"doc_id,topic_id,max_weight\r\na,0.0,0.5\r\n",
            b"doc_id,topic_id,max_weight\r\na,99999999999999999999,0.5\r\n",  # above int64
            b"doc_id,topic_id,max_weight\r\na,0,0.5\r\nb,1,0.5\r\na,1,0.25\r\n",  # a repeats
            b"doc_id,topic_id,max_weight\r\na,0,nan\r\n",  # weight not finite
            b"doc_id,topic_id,max_weight\r\na,0,inf\r\n",
            b"doc_id,topic_id,max_weight\r\na,0,-1\r\n",  # weight negative
            b"doc_id,topic_id,max_weight\r\na,0,x\r\n",
        ],
    )
    def test_damaged_assignments_rejected(self, tmp_path, data):
        path = tmp_path / "assignments.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match=re.escape(str(path))):
            storage.read_assignments(path)


class TestTopicTable:
    def test_roundtrip(self, tmp_path):
        topics = [[("alpha", 0.5), ("beta", 0.25)], [], [("gamma", 1.0)]]
        storage.write_topics(topics, tmp_path / "topics.json")
        assert storage.read_topics(tmp_path / "topics.json") == topics

    # each entry's topic_id is its position, an exact int
    @pytest.mark.parametrize(
        "text",
        [
            '[{"topic_id": 5, "terms": []}]',
            '[{"topic_id": 1, "terms": []}, {"topic_id": 0, "terms": []}]',
            '[{"topic_id": 0, "terms": []}, {"topic_id": true, "terms": []}]',
            '[{"topic_id": 0.0, "terms": []}]',
            '[{"terms": []}]',
        ],
    )
    def test_topic_id_not_its_position_rejected(self, tmp_path, text):
        path = tmp_path / "topics.json"
        path.write_text(text, "utf-8")
        with pytest.raises(DataError, match="topics.json: not a valid topic table"):
            storage.read_topics(path)


class TestAtomicWrites:
    def test_failed_csv_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.csv"
        storage.write_assignments(["docA"], np.array([1]), np.array([0.5]), path)
        before = path.read_bytes()
        # the second weight cannot be formatted: the header and one row are
        # already written when the writer raises
        with pytest.raises(ValueError):
            storage.write_assignments(
                ["docA", "docB"], np.array([0, 1]), [0.25, "not a number"], path
            )
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]

    def test_failed_matrix_write_keeps_previous_file(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "X.mtx"
        storage.write_sparse(sparse.csr_matrix(rng.uniform(0.0, 1.0, (4, 3))), path)
        before = path.read_bytes()

        def partial_mmwrite(target, *args, **kwargs):
            Path(target).write_bytes(b"%%MatrixMarket matrix coordinate")
            raise OSError("disk full")

        monkeypatch.setattr(storage.scipy_io, "mmwrite", partial_mmwrite)
        with pytest.raises(OSError):
            storage.write_sparse(sparse.csr_matrix(np.eye(2)), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["X.mtx"]
