"""CLI commands, exit codes, config precedence, manifests, and resume."""

import argparse
import csv
import hashlib
import itertools
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import io as scipy_io

from conftest import RNG_SEED, assert_same_csr, histogram_rows, write_jsonl
from oracles import cooccurrence_oracle, purity, tfidf_oracle, topic_corpus_jsonl
import senmfk_split
from senmfk_split import cli, fileio, split_pipeline, storage, text_pipeline
from senmfk_split.cli import main, parse_config_file
from senmfk_split.errors import DataError, NumericalError
from senmfk_split.manifest import RunManifest, numeric_environment, sha256_file, sha256_text
from senmfk_split.model_selection import child_seed
from senmfk_split.text_pipeline import load_jsonl_corpus


def assert_same_outputs(ws: Path, other: Path, skip: tuple[str, ...] = ()) -> None:
    """The two workspaces hold the same files, byte for byte, apart from
    manifest.json (it carries wall-clock times) and ``skip``."""
    names = sorted(p.name for p in ws.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in other.iterdir() if p.name != "manifest.json")
    for name in names:
        if name not in skip:
            assert (ws / name).read_bytes() == (other / name).read_bytes(), name


RUN_FLAGS = [
    "--kx-min", "2", "--kx-max", "5",
    "--km-min", "2", "--km-max", "5",
    "--perturbations", "5",
    "--shift", "1",
    "--max-iter", "250",
    "--tol", "1e-7",
    "--seed", "11",
]
# The chosen rank is the largest stable one, so dropping k = 2 from the M
# scan keeps it and its basis: of RUN_FLAGS' stages only factorize_m reruns.
NEW_M_RANGE = RUN_FLAGS[:4] + ["--km-min", "3"] + RUN_FLAGS[6:]


@pytest.fixture
def sparse_reads(monkeypatch):
    """The names of the files storage.read_sparse reads, in order."""
    read = []
    read_sparse = storage.read_sparse
    monkeypatch.setattr(
        storage, "read_sparse", lambda p: read.append(Path(p).name) or read_sparse(p)
    )
    return read


@pytest.fixture
def text_loads(monkeypatch):
    """The names of the files load_jsonl_corpus and load_vocabulary read, in
    order, wherever the package calls them from."""
    read = []
    for module in (text_pipeline, split_pipeline):
        for name in ("load_jsonl_corpus", "load_vocabulary"):
            load = getattr(text_pipeline, name)
            spy = lambda p, *a, load=load, **k: read.append(Path(p).name) or load(p, *a, **k)
            monkeypatch.setattr(module, name, spy)
    return read


def write_corpus(rng, path: Path) -> tuple[Path, list[int]]:
    """The three-topic corpus of the CLI tests, written to ``path``."""
    lines, labels = topic_corpus_jsonl(rng, docs_per_topic=40)
    return write_jsonl(path, lines), labels


@pytest.fixture
def corpus_file(rng, tmp_path):
    return write_corpus(rng, tmp_path / "input.jsonl")


class TestExitCodes:
    def test_missing_argument_is_usage_error(self, capsys):
        assert main(["run"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["report", "--workspace", str(tmp_path), "--bogus"]) == 1

    def test_missing_workspace_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SENMFK_WORKSPACE", raising=False)
        (tmp_path / "x.jsonl").write_text('{"id": "a", "text": "aa bb"}\n')
        assert main(["preprocess", str(tmp_path / "x.jsonl")]) == 1

    def test_empty_input_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["preprocess", str(empty), "--workspace", str(tmp_path / "ws")])
        assert code == 2
        assert "EmptyCorpus" in capsys.readouterr().err

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = main(["preprocess", str(tmp_path / "nope.jsonl"), "--workspace", str(tmp_path)])
        assert code == 2

    def test_invalid_setting_is_usage_error(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        code = main(["run", str(path), "--workspace", str(tmp_path / "ws"),
                     "--kx-min", "5", "--kx-max", "2"])
        assert code == 1
        assert "k_min <= k_max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("delta", "1.5"), ("delta", "nan"), ("delta", "-0.1"), ("tol", "nan"), ("tol", "inf"),
         ("tol", "0")],
    )
    def test_bad_solver_setting_stops_before_any_stage(
        self, corpus_file, tmp_path, capsys, flag, value
    ):
        # a bad --delta used to fail in factorize_x, after two stages of
        # work; a NaN --tol used to run every fit to --max-iter
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws), f"--{flag}", value]) == 1
        assert f"{flag} must be" in capsys.readouterr().err
        assert not ws.exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_top_n_words_below_one_stops_before_any_stage(
        self, corpus_file, tmp_path, capsys, value
    ):
        # 0 used to write empty topic lists, and -1 every term but one
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws), "--top-n-words", value]) == 1
        assert "top_n_words must be >= 1" in capsys.readouterr().err
        assert not ws.exists()

    def test_joint_bound_without_its_pair_is_usage_error(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        for flag in ("--kj-min", "--kj-max"):
            assert main(["run", str(path), "--workspace", str(tmp_path / "ws"), flag, "3"]) == 1
            assert "set both --kj-min and --kj-max or neither" in capsys.readouterr().err

    def test_undecodable_config_is_data_error(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"seed = 1 # caf\xe9\n")
        code = main(["run", str(path), "--workspace", str(tmp_path / "ws"), "--config", str(cfg)])
        assert code == 2
        assert "latin1.cfg" in capsys.readouterr().err

    def test_undecodable_stopwords_is_data_error(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        stop = tmp_path / "latin1_stop.txt"
        stop.write_bytes(b"the\ncaf\xe9\n")
        code = main(["preprocess", str(path), "--workspace", str(tmp_path / "ws"),
                     "--stopwords", str(stop)])
        assert code == 2
        assert "latin1_stop.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "read, data",
        [
            (text_pipeline.load_stopwords, b"the\ncaf\xe9\n"),
            (text_pipeline.load_vocabulary, b"aa\ncaf\xe9\n"),
            (parse_config_file, b"seed = 1\ntol = 1e-7  # caf\xe9\n"),
        ],
        ids=["stopwords", "vocabulary", "config"],
    )
    def test_undecodable_text_input_names_its_line(self, tmp_path, read, data):
        # only the corpus used to name the line
        path = tmp_path / "latin1.txt"
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: not UTF-8"):
            read(path)

    def test_input_that_is_the_workspace_corpus_is_data_error(
        self, corpus_file, tmp_path, capsys
    ):
        # `run ws/corpus.jsonl --workspace ws` used to replace the raw-text
        # input with the tokenized corpus, its text gone
        path, _ = corpus_file
        ws = tmp_path / "ws"
        ws.mkdir()
        own = ws / "corpus.jsonl"
        shutil.copy(path, own)
        link = tmp_path / "link.jsonl"
        link.symlink_to(own)
        for command, given in itertools.product(("run", "preprocess"), (own, link)):
            assert main([command, str(given), "--workspace", str(ws)]) == 2
            assert f"{given}: the input is the workspace's own" in capsys.readouterr().err
        assert own.read_bytes() == path.read_bytes()
        assert [p.name for p in ws.iterdir()] == ["corpus.jsonl"]
        # another workspace may take it as its input
        assert main(["preprocess", str(own), "--workspace", str(tmp_path / "other")]) == 0
        assert own.read_bytes() == path.read_bytes()

    def test_undecodable_corpus_line_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"id": "a", "text": "aa bb"}\n{"id": "b", "text": "caf\xe9"}\n')
        code = main(["preprocess", str(path), "--workspace", str(tmp_path / "ws")])
        assert code == 2
        assert "latin1.jsonl:2" in capsys.readouterr().err

    def test_lone_surrogate_id_is_data_error(self, corpus_file, tmp_path, capsys):
        # "\ud800" is a valid JSON escape, but no artifact can hold what it
        # decodes to: the run must stop at the corpus line, not in export
        path, _ = corpus_file
        lines = path.read_text("utf-8").splitlines()
        lines[1] = lines[1].replace('"id": "', '"id": "\\ud800', 1)
        bad = write_jsonl(tmp_path / "surrogate.jsonl", lines)
        code = main(["run", str(bad), "--workspace", str(tmp_path / "ws")] + RUN_FLAGS)
        assert code == 2
        assert "surrogate.jsonl:2" in capsys.readouterr().err

    def test_lone_surrogate_token_is_data_error(self, tmp_path, capsys):
        lines = [json.dumps({"id": d, "tokens": ["aa", "bb"]}) for d in "abc"]
        lines[2] = '{"id": "c", "tokens": ["aa", "\\ud800x"]}'
        path = write_jsonl(tmp_path / "surrogate.jsonl", lines)
        code = main(["preprocess", str(path), "--workspace", str(tmp_path / "ws"),
                     "--min-doc-tokens", "1", "--min-df", "1", "--max-df", "1.0"])
        assert code == 2
        assert "surrogate.jsonl:3" in capsys.readouterr().err

    def test_term_vocab_txt_cannot_hold_is_data_error(self, tmp_path, capsys):
        # vocab.txt holds one term a line, read back stripped: a term with
        # edge whitespace or a line boundary (U+2028 is one) would come back
        # as another term, so preprocess rejects it by name
        flags = ["--min-doc-tokens", "1", "--min-df", "1", "--max-df", "1.0"]
        for term in ("w1 ", "x\u2028y"):
            lines = [json.dumps({"id": d, "tokens": ["w1", term]}) for d in "abc"]
            path = write_jsonl(tmp_path / "terms.jsonl", lines)
            assert main(["preprocess", str(path), "--workspace", str(tmp_path / "ws")] + flags) == 2
            assert repr(term) in capsys.readouterr().err
        # a term with inner whitespace reads back as itself
        lines = [json.dumps({"id": d, "tokens": ["w1", "machine learning"]}) for d in "abc"]
        path = write_jsonl(tmp_path / "terms.jsonl", lines)
        assert main(["preprocess", str(path), "--workspace", str(tmp_path / "ws")] + flags) == 0
        assert text_pipeline.load_vocabulary(tmp_path / "ws" / "vocab.txt").terms == (
            "machine learning", "w1"
        )

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # two tiny documents sharing one term: M degenerates at high shift
        lines = [
            json.dumps({"id": "a", "text": "alpha beta " * 12}),
            json.dumps({"id": "b", "text": "alpha beta " * 12}),
        ]
        path = write_jsonl(tmp_path / "in.jsonl", lines)
        code = main(
            ["run", str(path), "--workspace", str(tmp_path / "ws"),
             "--min-df", "1", "--max-df", "1.0", "--shift", "1000",
             "--kx-min", "1", "--kx-max", "1", "--km-min", "1", "--km-max", "1",
             "--perturbations", "2"]
        )
        assert code == 3
        assert "DegenerateMatrix" in capsys.readouterr().err


class TestPreprocess:
    def test_writes_artifacts_with_hand_counted_vocab(self, tmp_path, capsys):
        docs = {
            "a": "apple banana cherry " * 7,
            "b": "apple banana damson " * 7,
            "c": "apple elder fig " * 7,
            "d": "tiny doc",
        }
        path = write_jsonl(
            tmp_path / "in.jsonl", [json.dumps({"id": k, "text": v}) for k, v in docs.items()]
        )
        code = main(
            ["preprocess", str(path), "--workspace", str(tmp_path / "ws"),
             "--min-doc-tokens", "10", "--min-df", "2", "--max-df", "1.0"]
        )
        assert code == 0
        # doc "d" dropped (2 tokens); df: apple 3, banana 2, others 1
        vocab = (tmp_path / "ws" / "vocab.txt").read_text().split()
        assert vocab == ["apple", "banana"]
        corpus = load_jsonl_corpus(tmp_path / "ws" / "corpus.jsonl")
        assert corpus.ids() == ["a", "b", "c"]

    def test_text_and_tokens_lines_mix_with_no_flag(self, tmp_path):
        lines = [
            json.dumps({"id": "a", "text": "Apple banana " * 3}),
            json.dumps({"id": "b", "tokens": ["apple", "cherry", "machine learning"]}),
            json.dumps({"id": "c", "text": "banana cherry"}),
        ]
        path = write_jsonl(tmp_path / "mixed.jsonl", lines)
        ws = tmp_path / "ws"
        flags = ["--min-doc-tokens", "1", "--min-df", "1", "--max-df", "1.0"]
        assert main(["preprocess", str(path), "--workspace", str(ws)] + flags) == 0
        assert (ws / "vocab.txt").read_text().splitlines() == [
            "apple", "banana", "cherry", "machine learning"
        ]
        assert load_jsonl_corpus(ws / "corpus.jsonl").documents[1].tokens == (
            "apple", "cherry", "machine learning"
        )

    def test_workspace_corpus_preprocesses_to_itself(self, corpus_file, tmp_path):
        # corpus.jsonl holds tokens lines, so it is an input as it stands
        path, _ = corpus_file
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["preprocess", str(path), "--workspace", str(first)]) == 0
        assert main(["preprocess", str(first / "corpus.jsonl"), "--workspace", str(second)]) == 0
        assert_same_outputs(first, second)

    def test_pre_tokenized_flag_is_unknown(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["preprocess", str(path), "--workspace", str(ws), "--pre-tokenized"]) == 1
        assert "unrecognized arguments: --pre-tokenized" in capsys.readouterr().err
        assert not ws.exists()

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": "c", "text": "aa bb", "tokens": ["aa", "bb"]}',
            '{"id": "c"}',
            '{"id": "c", "text": null}',
        ],
        ids=["both", "neither", "null-text"],
    )
    def test_malformed_line_is_data_error(self, tmp_path, capsys, line):
        lines = [json.dumps({"id": d, "text": "aa bb"}) for d in "ab"] + [line]
        path = write_jsonl(tmp_path / "bad.jsonl", lines)
        assert main(["preprocess", str(path), "--workspace", str(tmp_path / "ws")]) == 2
        assert "bad.jsonl:3: " in capsys.readouterr().err

    def test_default_thresholds_match_production_values(self, tmp_path):
        from senmfk_split.cli import _DEFAULTS

        assert _DEFAULTS["min-doc-tokens"] == 20
        assert _DEFAULTS["min-df"] == 5
        assert _DEFAULTS["max-df"] == 0.5
        assert _DEFAULTS["window"] == 100
        assert _DEFAULTS["shift"] == 4.0


class TestMatrices:
    def test_matrices_match_oracles(self, tmp_path):
        docs = {
            "a": "red green blue red " * 6,
            "b": "red green yellow park " * 6,
            "c": "blue yellow red park " * 6,
        }
        path = write_jsonl(
            tmp_path / "in.jsonl", [json.dumps({"id": k, "text": v}) for k, v in docs.items()]
        )
        ws = tmp_path / "ws"
        assert main(
            ["preprocess", str(path), "--workspace", str(ws),
             "--min-doc-tokens", "1", "--min-df", "1", "--max-df", "1.0"]
        ) == 0
        assert main(["matrices", "--workspace", str(ws), "--window", "3", "--shift", "1"]) == 0
        corpus = load_jsonl_corpus(ws / "corpus.jsonl")
        terms = (ws / "vocab.txt").read_text().split()
        doc_tokens = [list(d.tokens) for d in corpus]
        X = storage.read_sparse(ws / "X.mtx").toarray()
        np.testing.assert_allclose(X, tfidf_oracle(doc_tokens, terms), atol=1e-12)
        C = storage.read_sparse(ws / "cooc.mtx").toarray()
        np.testing.assert_array_equal(C, cooccurrence_oracle(doc_tokens, terms, 3))
        # manifest records the semantic parameters
        manifest = RunManifest.load(ws / "manifest.json")
        assert manifest.stages["matrices"].params == {"window": 3, "shift": 1.0}

    def test_requires_preprocess_first(self, tmp_path):
        assert main(["matrices", "--workspace", str(tmp_path / "fresh")]) == 2

    def test_damaged_earlier_output_names_its_stage(self, corpus_file, tmp_path, capsys):
        # preprocess's outputs are read when matrices first needs them, and
        # the error still names the stage that wrote them
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["preprocess", str(path), "--workspace", str(ws)]) == 0
        (ws / "corpus.jsonl").write_text('{"id": "a", "tokens": \n', encoding="utf-8")
        capsys.readouterr()
        assert main(["matrices", "--workspace", str(ws), "--shift", "1"]) == 2
        err = capsys.readouterr().err
        assert "stage 'preprocess'" in err and "corpus.jsonl" in err

    def test_repeated_vocabulary_term_names_preprocess(self, corpus_file, tmp_path, capsys):
        # a repeated term would map to its last line, and X's row for its
        # first line would stay empty
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["preprocess", str(path), "--workspace", str(ws)]) == 0
        terms = (ws / "vocab.txt").read_text(encoding="utf-8").splitlines()
        (ws / "vocab.txt").write_text("".join(t + "\n" for t in [*terms, terms[0]]), encoding="utf-8")
        capsys.readouterr()
        assert main(["matrices", "--workspace", str(ws), "--shift", "1"]) == 2
        err = capsys.readouterr().err
        assert "stage 'preprocess'" in err and "vocab.txt: duplicate terms" in err

    def test_summary_counts_stored_entries(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["preprocess", str(path), "--workspace", str(ws)]) == 0
        assert main(["matrices", "--workspace", str(ws), "--shift", "1"]) == 0
        out = capsys.readouterr().out.splitlines()[-1]
        X, C, M = (storage.read_sparse(ws / n) for n in ("X.mtx", "cooc.mtx", "M.mtx"))
        assert out == (
            f"X {X.shape} ({X.nnz} nnz), cooc {C.shape} ({C.nnz} nnz), "
            f"M {M.shape} ({M.nnz} nnz) -> {ws}"
        )

    def test_default_window_and_shift_recorded(self, tmp_path):
        docs = {f"d{i}": "aa bb cc dd " * 6 for i in range(3)}
        path = write_jsonl(
            tmp_path / "in.jsonl", [json.dumps({"id": k, "text": v}) for k, v in docs.items()]
        )
        ws = tmp_path / "ws"
        main(["preprocess", str(path), "--workspace", str(ws),
              "--min-doc-tokens", "1", "--min-df", "1", "--max-df", "1.0"])
        main(["matrices", "--workspace", str(ws), "--shift", "1"])
        manifest = RunManifest.load(ws / "manifest.json")
        assert manifest.stages["matrices"].params == {"window": 100, "shift": 1.0}


class TestRun:
    def test_end_to_end_and_purity(self, corpus_file, tmp_path, capsys):
        path, labels = corpus_file
        ws = tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        topics = storage.read_topics(ws / "topics.json")
        assert len(topics) == 3
        import csv

        with (ws / "assignments.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assignments = np.array([int(r[1]) for r in rows])
        assert purity(assignments, labels) >= 0.8

    def test_rerun_is_byte_identical(self, corpus_file, tmp_path):
        path, _ = corpus_file
        ws_a, ws_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(path), "--workspace", str(ws_a)] + RUN_FLAGS)
        main(["run", str(path), "--workspace", str(ws_b)] + RUN_FLAGS)
        assert_same_outputs(ws_a, ws_b)

    def test_resume_skips_all_stages(self, corpus_file, tmp_path):
        path, _ = corpus_file
        ws = tmp_path / "ws"
        main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS)
        before = {p.name: p.read_bytes() for p in ws.iterdir()}
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        manifest = RunManifest.load(ws / "manifest.json")
        assert all(rec.resumed for rec in manifest.stages.values())
        after = {p.name: p.read_bytes() for p in ws.iterdir()}
        assert set(before) == set(after)
        for name in before:
            if name != "manifest.json":
                assert before[name] == after[name], name

    def test_resume_recomputes_stages_whose_outputs_changed(self, corpus_file, tmp_path):
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        before = {p.name: p.read_bytes() for p in ws.iterdir() if p.name != "manifest.json"}
        lines = before["W2.mtx"].decode("ascii").splitlines()
        lines[-1] = repr(float(lines[-1]) + 1.0)
        (ws / "W2.mtx").write_text("\n".join(lines) + "\n", "ascii")
        (ws / "H1.mtx").unlink()
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        stages = RunManifest.load(ws / "manifest.json").stages
        assert {name: rec.resumed for name, rec in stages.items()} == {
            "preprocess": True,
            "matrices": True,
            "factorize_x": False,
            "factorize_m": False,
            "joint": True,
            "regression": True,
            "export": True,
        }
        for name, data in before.items():
            assert (ws / name).read_bytes() == data, name

    def test_explicit_joint_range_and_seed_recorded(self, corpus_file, tmp_path, monkeypatch):
        # the explicit range's seed is keyed on --seed; the derived one on
        # the X side's seed; the joint record holds the flags, set or not
        selections = []
        joint_factorize = split_pipeline.joint_factorize

        def spy(Wcat, selection):
            selections.append(selection)
            return joint_factorize(Wcat, selection)

        monkeypatch.setattr(split_pipeline, "joint_factorize", spy)
        path, _ = corpus_file
        runs = {"explicit": ["--kj-min", "2", "--kj-max", "4"], "derived": []}
        for name, joint in runs.items():
            ws = tmp_path / name
            assert main(["run", str(path), "--workspace", str(ws)] + joint + RUN_FLAGS) == 0
            params = RunManifest.load(ws / "manifest.json").stages["joint"].params
            assert [params[key] for key in ("kj-min", "kj-max", "seed")] == (
                [2, 4, 11] if joint else [None, None, 11]
            )
        explicit, derived = selections
        assert (explicit.k_min, explicit.k_max) == (2, 4)
        assert explicit.nmf.seed == child_seed(11, 3) != child_seed(child_seed(11, 1), 3)
        assert derived.nmf.seed == child_seed(child_seed(11, 1), 3)

    def test_resume_keeps_zero_column_note(self, corpus_file, tmp_path, monkeypatch, capsys):
        # preprocess drops documents with no in-vocabulary terms, so an
        # all-zero document column can only come out of the regression:
        # zero one column of its H before export writes it
        from senmfk_split import split_pipeline

        solve = split_pipeline.final_regression

        def regression_with_zero_column(X, W, config=None):
            H = solve(X, W, config)
            H[:, 0] = 0.0
            return H

        monkeypatch.setattr(split_pipeline, "final_regression", regression_with_zero_column)
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        first = capsys.readouterr().out
        assert "1 all-zero document columns" in first
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        assert all(rec.resumed for rec in RunManifest.load(ws / "manifest.json").stages.values())
        assert capsys.readouterr().out == first

    def test_full_resume_reads_no_token(self, corpus_file, tmp_path, text_loads, capsys):
        # the summary's document count comes from assignments.csv and the
        # joint scan's row count from W1, so neither corpus nor vocabulary is read
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        first = capsys.readouterr().out
        text_loads.clear()
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        assert text_loads == []
        assert capsys.readouterr().out == first
        assert "120 documents" in first
        assert all(rec.resumed for rec in RunManifest.load(ws / "manifest.json").stages.values())

    @pytest.mark.parametrize("fallback", [False, True])
    def test_full_resume_reads_no_matrix_and_saves_once(
        self, corpus_file, tmp_path, sparse_reads, monkeypatch, capsys, fallback
    ):
        # the summary takes the ranks and fallback flags from the selection
        # reports and the document count and all-zero documents from
        # assignments.csv; resumed records go to manifest.json in one save
        # at the end
        path, _ = corpus_file
        ws = tmp_path / "ws"
        # no rank of either scan clears a silhouette threshold that high
        flags = RUN_FLAGS + (["--sil-threshold", "0.9999999"] if fallback else [])
        assert main(["run", str(path), "--workspace", str(ws)] + flags) == 0
        first = capsys.readouterr().out
        assert first.startswith("k1=3 k2=3 k=3; 120 documents")
        assert ("(fallback rank selection)" in first) == fallback
        dense_reads, renamed = [], []
        read_dense = storage.read_dense
        monkeypatch.setattr(
            storage, "read_dense", lambda p: dense_reads.append(Path(p).name) or read_dense(p)
        )
        with renaming(lambda src, dst: renamed.append(Path(dst).name) or os.replace(src, dst)):
            assert main(["run", str(path), "--workspace", str(ws), "--resume"] + flags) == 0
        assert dense_reads == []
        assert sparse_reads == []
        assert renamed == ["manifest.json"]
        assert capsys.readouterr().out == first
        assert all(rec.resumed for rec in RunManifest.load(ws / "manifest.json").stages.values())

    def test_resume_does_not_read_cooc(self, corpus_file, tmp_path, sparse_reads):
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        assert sparse_reads == []
        assert RunManifest.load(ws / "manifest.json").stages["matrices"].resumed

    def test_resume_with_new_m_range_reads_only_m(self, corpus_file, tmp_path, sparse_reads):
        path, _ = corpus_file
        ws, fresh = tmp_path / "ws", tmp_path / "fresh"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + NEW_M_RANGE) == 0
        assert sparse_reads == ["M.mtx"]
        stages = RunManifest.load(ws / "manifest.json").stages
        assert [name for name, rec in stages.items() if not rec.resumed] == ["factorize_m"]
        assert main(["run", str(path), "--workspace", str(fresh)] + NEW_M_RANGE) == 0
        assert_same_outputs(ws, fresh)

    def test_resume_reads_general_real_matrices(self, corpus_file, tmp_path):
        # a workspace whose word-context files are in the older layout:
        # every matrix as real general, and the manifest digests of those files
        path, _ = corpus_file
        ws, fresh = tmp_path / "ws", tmp_path / "fresh"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        manifest = json.loads((ws / "manifest.json").read_text())
        for name in ("X.mtx", "cooc.mtx", "M.mtx"):
            mat = storage.read_sparse(ws / name)
            scipy_io.mmwrite(ws / name, mat.tocoo(), precision=17, symmetry="general")
            assert (ws / name).read_text().startswith("%%MatrixMarket matrix coordinate real general")
            for rec in manifest["stages"].values():
                for files in (rec["inputs"], rec["outputs"]):
                    if name in files:
                        files[name] = sha256_file(ws / name)
        (ws / "manifest.json").write_text(json.dumps(manifest))
        before = {p.name: p.read_bytes() for p in ws.iterdir() if p.name != "manifest.json"}
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        assert all(rec.resumed for rec in RunManifest.load(ws / "manifest.json").stages.values())
        assert before == {p.name: p.read_bytes() for p in ws.iterdir() if p.name != "manifest.json"}
        # a stage that runs again reads the older M.mtx to the same result
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + NEW_M_RANGE) == 0
        assert not RunManifest.load(ws / "manifest.json").stages["factorize_m"].resumed
        assert main(["run", str(path), "--workspace", str(fresh)] + NEW_M_RANGE) == 0
        assert_same_outputs(ws, fresh, skip=("X.mtx", "cooc.mtx", "M.mtx"))
        for name in ("X.mtx", "cooc.mtx", "M.mtx"):
            assert_same_csr(storage.read_sparse(ws / name), storage.read_sparse(fresh / name))

    def test_resume_reruns_on_parameter_change(self, corpus_file, tmp_path):
        path, _ = corpus_file
        ws = tmp_path / "ws"
        main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS)
        changed = [f if f != "11" else "12" for f in RUN_FLAGS]  # new seed
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + changed) == 0
        manifest = RunManifest.load(ws / "manifest.json")
        assert not manifest.stages["factorize_x"].resumed
        # preprocess and matrices are seed-independent and still skip
        assert manifest.stages["preprocess"].resumed
        assert manifest.stages["matrices"].resumed

    def test_resume_after_failed_stage(self, corpus_file, tmp_path, monkeypatch):
        from senmfk_split import split_pipeline

        def failing_joint(*args, **kwargs):
            raise NumericalError("injected failure")

        path, _ = corpus_file
        clean, ws = tmp_path / "clean", tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(clean)] + RUN_FLAGS) == 0
        monkeypatch.setattr(split_pipeline, "stage_joint", failing_joint)
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 3
        monkeypatch.undo()
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        stages = RunManifest.load(ws / "manifest.json").stages
        assert {name: rec.resumed for name, rec in stages.items()} == {
            "preprocess": True,
            "matrices": True,
            "factorize_x": True,
            "factorize_m": True,
            "joint": False,
            "regression": False,
            "export": False,
        }
        assert_same_outputs(clean, ws)

    def test_out_of_memory_names_stage_and_resumes(self, corpus_file, tmp_path, monkeypatch, capsys):
        # a MemoryError is not a traceback with the usage-error code: it
        # exits 4 naming its stage, and the stages before it are resumed
        def out_of_memory(*args, **kwargs):
            raise MemoryError("injected")

        path, _ = corpus_file
        clean, ws = tmp_path / "clean", tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(clean)] + RUN_FLAGS) == 0
        monkeypatch.setattr(split_pipeline, "stage_factorize_m", out_of_memory)
        capsys.readouterr()
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 4
        assert capsys.readouterr().err == "error: MemoryError: stage 'factorize_m': injected\n"
        assert "factorize_m" not in RunManifest.load(ws / "manifest.json").stages
        monkeypatch.undo()
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        stages = RunManifest.load(ws / "manifest.json").stages
        assert stages["factorize_x"].resumed and not stages["factorize_m"].resumed
        assert_same_outputs(clean, ws)

    def test_crashed_run_with_new_settings_keeps_later_records(
        self, corpus_file, tmp_path, monkeypatch
    ):
        # a run with new settings that dies in factorize_m leaves the records
        # of factorize_m and the stages after it, whose files it did not
        # touch, so a resume with the old settings recomputes nothing
        def out_of_memory(*args, **kwargs):
            raise MemoryError("injected")

        path, _ = corpus_file
        clean, ws = tmp_path / "clean", tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        shutil.copytree(ws, clean)
        monkeypatch.setattr(split_pipeline, "stage_factorize_m", out_of_memory)
        assert main(["run", str(path), "--workspace", str(ws)] + NEW_M_RANGE) == 4
        monkeypatch.undo()
        # a setting sits only in the records of the stages that use it, so the
        # manifest still says which --km-min made the files on disk
        stages = RunManifest.load(ws / "manifest.json").stages
        assert [name for name, rec in stages.items() if "km-min" in rec.params] == ["factorize_m"]
        assert stages["factorize_m"].params["km-min"] == 2
        crashed, fresh = tmp_path / "crashed", tmp_path / "fresh"
        shutil.copytree(ws, crashed)
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        assert all(rec.resumed for rec in RunManifest.load(ws / "manifest.json").stages.values())
        assert_same_outputs(clean, ws)
        # resumed with the new settings instead, only factorize_m runs again
        argv = ["run", str(path), "--workspace", str(crashed), "--resume"] + NEW_M_RANGE
        assert main(argv) == 0
        assert recomputed(crashed) == ["factorize_m"]
        assert main(["run", str(path), "--workspace", str(fresh)] + NEW_M_RANGE) == 0
        assert_same_outputs(fresh, crashed)

    def test_resume_after_failed_matrices_stage(self, corpus_file, tmp_path, capsys):
        # window 1 pairs no tokens, so SPPMI has no counts: X and cooc are
        # written before the stage fails, but the stage is not recorded
        path, _ = corpus_file
        clean, ws = tmp_path / "clean", tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws), "--window", "1"] + RUN_FLAGS) == 3
        assert capsys.readouterr().err == (
            "error: DegenerateMatrix: stage 'matrices': co-occurrence matrix has zero total count\n"
        )
        assert "matrices" not in RunManifest.load(ws / "manifest.json").stages
        window = ["--window", "2"]
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + window + RUN_FLAGS) == 0
        stages = RunManifest.load(ws / "manifest.json").stages
        assert stages["preprocess"].resumed and not stages["matrices"].resumed
        assert main(["run", str(path), "--workspace", str(clean)] + window + RUN_FLAGS) == 0
        assert_same_outputs(clean, ws)

    def test_resume_after_single_stage_commands(self, corpus_file, tmp_path):
        # preprocess and matrices record the same stages that run resumes
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["preprocess", str(path), "--workspace", str(ws)]) == 0
        assert main(["matrices", "--workspace", str(ws), "--shift", "1"]) == 0
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        stages = RunManifest.load(ws / "manifest.json").stages
        assert stages["preprocess"].resumed and stages["matrices"].resumed
        assert not stages["factorize_x"].resumed

    def test_single_stage_commands_keep_each_others_settings(self, corpus_file, tmp_path):
        # each command replaces only the records of its own stages
        path, _ = corpus_file
        ws = tmp_path / "ws"
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("the\nand\n")
        preprocess = ["--min-df", "2", "--min-doc-tokens", "3", "--stopwords", str(stopwords)]
        assert main(["preprocess", str(path), "--workspace", str(ws)] + preprocess) == 0
        assert main(["matrices", "--workspace", str(ws), "--shift", "1"]) == 0
        stages = RunManifest.load(ws / "manifest.json").stages
        assert stages["preprocess"].params == {
            "min-doc-tokens": 3,
            "min-df": 2,
            "max-df": 0.5,
            "stopwords_digest": sha256_text("and\nthe"),
        }
        assert stages["matrices"].params == {"window": 100, "shift": 1.0}
        assert set(stages) == {"preprocess", "matrices"}

    def test_damaged_manifest_is_data_error(self, corpus_file, tmp_path, capsys):
        # a manifest cut short, or one that is valid JSON but lacks its keys,
        # stops every command that updates it, a run without --resume too,
        # and none writes over it
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["preprocess", str(path), "--workspace", str(ws)]) == 0
        assert [p.name for p in ws.iterdir() if ".tmp" in p.suffixes] == []
        manifest = ws / "manifest.json"
        run = ["run", str(path), "--workspace", str(ws)] + RUN_FLAGS
        for damaged in (manifest.read_bytes()[:200], b"{}"):
            manifest.write_bytes(damaged)
            capsys.readouterr()
            for argv in (run + ["--resume"], run, ["matrices", "--workspace", str(ws)]):
                assert main(argv) == 2
                assert f"{manifest}: not a valid manifest" in capsys.readouterr().err
            assert manifest.read_bytes() == damaged

    @pytest.mark.parametrize(
        "field, value",
        [
            ("outputs", ["corpus.jsonl", "vocab.txt"]),
            ("outputs", {"corpus.jsonl": None, "vocab.txt": None}),
            ("inputs", "input"),
            ("inputs", {"input": 0}),
            ("params", []),
            ("seconds", "0.5"),
            ("seconds", True),
            ("resumed", 1),
            ("resumed", None),
        ],
    )
    def test_record_field_of_wrong_type_is_data_error(
        self, corpus_file, tmp_path, capsys, field, value
    ):
        # a record whose fields are valid JSON of the wrong type stops the
        # command that loads it, naming manifest.json, and is not written over
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["preprocess", str(path), "--workspace", str(ws)]) == 0
        manifest = ws / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["stages"]["preprocess"][field] = value
        manifest.write_text(json.dumps(payload))
        damaged = manifest.read_bytes()
        capsys.readouterr()
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 2
        assert f"{manifest}: not a valid manifest" in capsys.readouterr().err
        assert manifest.read_bytes() == damaged

    def test_record_missing_an_output_reruns_its_stage(self, corpus_file, tmp_path):
        # a record that no longer names one of its stage's outputs, whose
        # file is gone too, does not resume the stage: factorize_x runs again
        # and writes the file back
        path, _ = corpus_file
        ws, clean = tmp_path / "ws", tmp_path / "clean"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        shutil.copytree(ws, clean)
        payload = json.loads((ws / "manifest.json").read_text())
        del payload["stages"]["factorize_x"]["outputs"]["H1.mtx"]
        (ws / "manifest.json").write_text(json.dumps(payload))
        (ws / "H1.mtx").unlink()
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        assert recomputed(ws) == ["factorize_x"]
        assert_same_outputs(clean, ws)

    def test_manifest_snapshot_complete(self, corpus_file, tmp_path):
        path, _ = corpus_file
        ws = tmp_path / "ws"
        main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS)
        assert set(json.loads((ws / "manifest.json").read_text())) == {
            "version",
            "environment",
            "stages",
        }
        manifest = RunManifest.load(ws / "manifest.json")
        assert manifest.environment == numeric_environment()
        assert manifest.environment["numpy"] == np.__version__
        for stage, key in (
            ("regression", "seed"),
            ("matrices", "window"),
            ("matrices", "shift"),
            ("preprocess", "min-doc-tokens"),
            ("factorize_x", "kx-min"),
            ("joint", "sil-threshold"),
        ):
            assert key in manifest.stages[stage].params
        assert manifest.version
        assert all(rec.seconds >= 0 for rec in manifest.stages.values())
        assert manifest.stages["preprocess"].inputs["input"] == sha256_file(path)

    def test_resume_from_manifest_with_flat_config(self, corpus_file, tmp_path):
        # a manifest as written before each setting moved into the records
        # of the stages that use it: a flat config, the input's digest once
        # more, and each stage's settings named as in its config object
        path, _ = corpus_file
        ws, clean = tmp_path / "ws", tmp_path / "clean"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        shutil.copytree(ws, clean)
        legacy = json.loads((ws / "manifest.json").read_text())
        stages = legacy["stages"]
        legacy["config"] = {k: v for rec in stages.values() for k, v in rec["params"].items()}
        legacy["input_digests"] = {"input": stages["preprocess"]["inputs"]["input"]}
        scan = {"n_perturbations": 5, "delta": 0.03, "silhouette_threshold": 0.75,
                "max_iter": 250, "tol": 1e-7}
        x_seed = child_seed(11, 1)
        old_params = {
            "preprocess": {"min_doc_tokens": 20, "min_df": 5, "max_df_ratio": 0.5,
                           "stopwords_digest": legacy["config"]["stopwords_digest"],
                           "pre_tokenized": False},
            "matrices": {"window": 100, "shift": 1.0},
            "factorize_x": {"k_min": 2, "k_max": 5, "seed": x_seed, **scan},
            "factorize_m": {"k_min": 2, "k_max": 5, "seed": child_seed(11, 2), **scan},
            "joint": {"k_min": 3, "k_max": 6, "seed": child_seed(x_seed, 3), **scan},
            "regression": {"max_iter": 250, "tol": 1e-7, "seed": x_seed},
            "export": {"top_n_words": 20},
        }
        for name, params in old_params.items():
            stages[name]["params"] = params
        (ws / "manifest.json").write_text(json.dumps(legacy))
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        # the matrices record already named its settings by their flags, and
        # its inputs are the rewritten, byte-identical corpus and vocabulary
        assert set(recomputed(ws)) == {s.name for s in split_pipeline.STAGES} - {"matrices"}
        assert set(json.loads((ws / "manifest.json").read_text())) == {
            "version",
            "environment",
            "stages",
        }
        assert_same_outputs(clean, ws)
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        assert recomputed(ws) == []

    def test_environment_elsewhere_still_resumes(self, corpus_file, tmp_path):
        # the environment documents a run; a resume under another numpy,
        # scipy or BLAS keeps every valid file, and the record is refreshed
        path, _ = corpus_file
        ws = tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        payload = json.loads((ws / "manifest.json").read_text())
        payload["environment"] = {"numpy": "0.0.1", "scipy": "0.0.1", "blas": "other 1.0"}
        (ws / "manifest.json").write_text(json.dumps(payload))
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        manifest = RunManifest.load(ws / "manifest.json")
        assert recomputed(ws) == []
        assert len(manifest.stages) == 7
        assert manifest.environment == numeric_environment()

    def test_manifest_without_environment_loads(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": "0.1.0", "stages": {}}))
        assert RunManifest.load(path).environment == {}

    @pytest.mark.parametrize("value", [None, "numpy 2", ["numpy"], 1])
    def test_environment_not_an_object_is_data_error(self, tmp_path, value):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": "0.1.0", "stages": {}, "environment": value}))
        with pytest.raises(DataError, match="not a valid manifest"):
            RunManifest.load(path)

    def test_resume_from_record_with_input_format(self, corpus_file, tmp_path):
        # a preprocess record as written when a flag said how the input was
        # tokenized: preprocess reruns once, to byte-identical files, and
        # every later stage resumes
        path, _ = corpus_file
        ws, clean = tmp_path / "ws", tmp_path / "clean"
        assert main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS) == 0
        shutil.copytree(ws, clean)
        legacy = json.loads((ws / "manifest.json").read_text())
        legacy["stages"]["preprocess"]["params"]["pre_tokenized"] = False
        (ws / "manifest.json").write_text(json.dumps(legacy))
        assert main(["run", str(path), "--workspace", str(ws), "--resume"] + RUN_FLAGS) == 0
        assert recomputed(ws) == ["preprocess"]
        assert_same_outputs(clean, ws)


class TestSha256File:
    # the empty file, one byte, and sizes around the read buffer of 2**17
    # bytes, so the last partial read is hashed
    @pytest.mark.parametrize("size", [0, 1, 2**17 - 1, 2**17, 2**17 + 1, 3 * 2**17 + 17])
    def test_matches_hashlib(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


# A RUN_FLAGS or NEW_M_RANGE run renames a finished file into place 25 times:
# the 18 outputs of the seven stages and a manifest save after each stage.
RENAMES = sum(len(stage.outputs) + 1 for stage in split_pipeline.STAGES)


class Cut(BaseException):
    """A crash at an atomic rename; no handler of the package catches it."""


@contextmanager
def renaming(replace):
    """``fileio.atomic_path`` renames through ``replace`` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "os", SimpleNamespace(replace=replace))
        yield


def run_cut(argv: list[str], cut: int) -> None:
    """``main(argv)``, cut just before its ``cut``-th atomic rename."""
    count = itertools.count(1)

    def replace(src, dst):
        if next(count) == cut:
            raise Cut
        os.replace(src, dst)

    with renaming(replace), pytest.raises(Cut):
        main(argv)


@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory):
    """The CLI corpus and one clean workspace each of RUN_FLAGS and
    NEW_M_RANGE, each run checked to make RENAMES renames."""
    root = tmp_path_factory.mktemp("clean")
    path, _ = write_corpus(np.random.default_rng(RNG_SEED), root / "input.jsonl")
    runs = SimpleNamespace(input=str(path), run=root / "run", new_m=root / "new_m")
    for ws, flags in ((runs.run, RUN_FLAGS), (runs.new_m, NEW_M_RANGE)):
        renamed = []
        with renaming(lambda src, dst: renamed.append(dst) or os.replace(src, dst)):
            assert main(["run", runs.input, "--workspace", str(ws)] + flags) == 0
        assert len(renamed) == RENAMES
    return runs


def recomputed(ws: Path) -> list[str]:
    """The stages that the last run in ``ws`` did not resume."""
    stages = RunManifest.load(ws / "manifest.json").stages
    return [name for name, rec in stages.items() if not rec.resumed]


class TestCutPoints:
    """A run cut at any of its renames resumes to a clean run's files."""

    @pytest.mark.parametrize("cut", range(1, RENAMES + 1))
    def test_resume_from_cut(self, clean_runs, tmp_path, cut):
        def resume(ws: Path, flags: list[str]) -> None:
            argv = ["run", clean_runs.input, "--workspace", str(ws), "--resume"] + flags
            assert main(argv) == 0

        # a fresh workspace: the stages saved before the cut are resumed
        ws = tmp_path / "fresh"
        run_cut(["run", clean_runs.input, "--workspace", str(ws)] + RUN_FLAGS, cut)
        resume(ws, RUN_FLAGS)
        saves = itertools.accumulate(len(stage.outputs) + 1 for stage in split_pipeline.STAGES)
        saved = [stage.name for stage, at in zip(split_pipeline.STAGES, saves) if at < cut]
        rerun = recomputed(ws)
        assert [s.name for s in split_pipeline.STAGES if s.name not in rerun] == saved
        assert_same_outputs(clean_runs.run, ws)
        # a finished RUN_FLAGS workspace cut during a NEW_M_RANGE run, then
        # resumed with either: only factorize_m's settings differ, so no
        # other stage is ever recomputed
        ws, copy = tmp_path / "cut", tmp_path / "copy"
        shutil.copytree(clean_runs.run, ws)
        run_cut(["run", clean_runs.input, "--workspace", str(ws)] + NEW_M_RANGE, cut)
        shutil.copytree(ws, copy)
        resumes = ((copy, NEW_M_RANGE, clean_runs.new_m), (ws, RUN_FLAGS, clean_runs.run))
        for ws, flags, clean in resumes:
            resume(ws, flags)
            assert recomputed(ws) in ([], ["factorize_m"])
            assert_same_outputs(clean, ws)

    def test_resume_after_exit_before_rename(self, clean_runs, tmp_path):
        # a process that dies without unwinding, as on an abort, leaves the
        # temporary file of the rename it did not reach
        ws = tmp_path / "ws"
        crash = f"""
import os, sys
sys.path.insert(0, {str(Path(senmfk_split.__file__).parents[1])!r})
from senmfk_split import cli
replace = os.replace
def rename_or_exit(src, dst):
    if os.path.basename(dst) == "M.mtx":
        os._exit(70)
    replace(src, dst)
os.replace = rename_or_exit
cli.main({["run", clean_runs.input, "--workspace", str(ws)] + RUN_FLAGS!r})
"""
        assert subprocess.run([sys.executable, "-c", crash]).returncode == 70
        assert (ws / "M.tmp.mtx").is_file() and not (ws / "M.mtx").exists()
        argv = ["run", clean_runs.input, "--workspace", str(ws), "--resume"] + RUN_FLAGS
        assert main(argv) == 0
        assert [p.name for p in ws.iterdir() if ".tmp" in p.suffixes] == []
        assert_same_outputs(clean_runs.run, ws)


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, corpus_file, tmp_path):
        path, _ = corpus_file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "kx-min = 2\nkx-max = 5\nkm-min = 2\nkm-max = 5\n"
            "perturbations = 5\nshift = 1\nmax-iter = 250\ntol = 1e-7\nseed = 99\n"
        )
        ws = tmp_path / "ws"
        assert main(
            ["run", str(path), "--workspace", str(ws), "--config", str(cfg), "--seed", "11"]
        ) == 0
        params = RunManifest.load(ws / "manifest.json").stages["factorize_x"].params
        assert params["seed"] == 11  # flag beats file
        assert params["perturbations"] == 5  # file beats default

    def test_bad_value_is_data_error(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = abc\n")
        code = main(["run", str(path), "--workspace", str(tmp_path / "ws"), "--config", str(cfg)])
        assert code == 2
        assert "DataError" in capsys.readouterr().err

    def test_bad_value_names_its_line_also_under_a_flag(self, corpus_file, tmp_path, capsys):
        # a flag used to hide the bad value, and the run went ahead
        path, _ = corpus_file
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# ranks\nkx_min = 2\nkx_max = x\n")
        with pytest.raises(DataError, match="bad.cfg:3: key 'kx-max'"):
            parse_config_file(cfg)
        ws = tmp_path / "ws"
        argv = ["run", str(path), "--workspace", str(ws), "--config", str(cfg), "--kx-max", "3"]
        assert main(argv) == 2
        assert "bad.cfg:3" in capsys.readouterr().err
        assert not ws.exists()

    def test_line_without_equals_names_its_line(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 3\n# ranks\nkx-min 2\n")
        ws = tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws), "--config", str(cfg)]) == 2
        assert "bad.cfg:3: expected 'key = value'" in capsys.readouterr().err
        assert not ws.exists()

    def test_values_typed_as_their_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("  seed = 7  # trailing\r\n\n\tmax_df=0.25\r\nkj-min = 3\n")
        assert parse_config_file(cfg) == {"seed": 7, "max-df": 0.25, "kj-min": 3}

    @pytest.mark.parametrize(
        "text, first, second",
        [("seed = 1\nseed = 2\n", 1, 2), ("# spellings\nmin_df = 3\n\nmin-df = 4\n", 2, 4)],
    )
    def test_key_set_twice_is_data_error(self, corpus_file, tmp_path, capsys, text, first, second):
        # the last line used to win without a word
        path, _ = corpus_file
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        with pytest.raises(DataError, match=f"twice.cfg:{second}: .* already set on line {first}"):
            parse_config_file(cfg)
        ws = tmp_path / "ws"
        assert main(["run", str(path), "--workspace", str(ws), "--config", str(cfg)]) == 2
        assert f"twice.cfg:{second}" in capsys.readouterr().err
        assert not ws.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 3\n")
        with pytest.raises(Exception):
            parse_config_file(cfg)

    def test_env_var_workspace(self, corpus_file, tmp_path, monkeypatch):
        path, _ = corpus_file
        ws = tmp_path / "env_ws"
        monkeypatch.setenv("SENMFK_WORKSPACE", str(ws))
        assert main(["preprocess", str(path)]) == 0
        assert (ws / "vocab.txt").is_file()


SCANS = ("factorize_x", "factorize_m", "joint")
# Each setting, by the key its stages' manifest records hold it under, with a
# change of it from RUN_FLAGS plus a joint range of 2..4, and the stages whose
# records hold it: a change reruns exactly these.  The same stages' recorded
# parameters changed before the settings moved into the stage records.
HELD_BY = [
    ("min-doc-tokens", ["--min-doc-tokens", "7"], ("preprocess",)),
    ("min-df", ["--min-df", "3"], ("preprocess",)),
    ("max-df", ["--max-df", "0.6"], ("preprocess",)),
    ("stopwords_digest", ["--stopwords", "STOPWORDS"], ("preprocess",)),
    ("window", ["--window", "50"], ("matrices",)),
    ("shift", ["--shift", "2"], ("matrices",)),
    ("kx-min", ["--kx-min", "3"], ("factorize_x",)),
    ("kx-max", ["--kx-max", "6"], ("factorize_x",)),
    ("km-min", ["--km-min", "3"], ("factorize_m",)),
    ("km-max", ["--km-max", "6"], ("factorize_m",)),
    ("kj-min", ["--kj-min", "3"], ("joint",)),
    ("kj-max", ["--kj-max", "5"], ("joint",)),
    ("perturbations", ["--perturbations", "6"], SCANS),
    ("delta", ["--delta", "0.05"], SCANS),
    ("sil-threshold", ["--sil-threshold", "0.7"], SCANS),
    ("seed", ["--seed", "12"], SCANS + ("regression",)),
    ("max-iter", ["--max-iter", "300"], SCANS + ("regression",)),
    ("tol", ["--tol", "1e-6"], SCANS + ("regression",)),
    ("top-n-words", ["--top-n-words", "9"], ("export",)),
]


class TestSettingRecords:
    """Which stage records hold each setting: the stages a change reruns."""

    def stage_params(self, tmp_path, flags):
        args = cli.build_parser().parse_args(
            ["run", "input.jsonl", "--workspace", str(tmp_path / "ws")] + RUN_FLAGS + flags
        )
        return cli._pipeline(args)[2]

    def test_every_setting_listed(self):
        assert {key for key, _, _ in HELD_BY} == set(cli._OPTIONS) | {"stopwords_digest"}

    @pytest.mark.parametrize("key, change, held_by", HELD_BY, ids=[k for k, _, _ in HELD_BY])
    def test_change_reaches_exactly_its_stages(self, tmp_path, key, change, held_by):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("the\nand\n")
        change = [str(stopwords) if flag == "STOPWORDS" else flag for flag in change]
        joint = ["--kj-min", "2", "--kj-max", "4"]
        before = self.stage_params(tmp_path, joint)
        after = self.stage_params(tmp_path, joint + change)
        assert [s.name for s in split_pipeline.STAGES] == list(before) == list(after)
        assert [name for name in before if before[name] != after[name]] == list(held_by)
        assert [name for name in after if key in after[name]] == list(held_by)
        for name in held_by:
            assert {k for k in before[name] if before[name][k] != after[name][k]} == {key}

    def test_joint_range_where_none_was_reaches_only_joint(self, tmp_path):
        # unset, the range is derived from W1 and W2, the joint stage's inputs
        before = self.stage_params(tmp_path, [])
        after = self.stage_params(tmp_path, ["--kj-min", "2", "--kj-max", "4"])
        assert (before["joint"]["kj-min"], before["joint"]["kj-max"]) == (None, None)
        assert [name for name in before if before[name] != after[name]] == ["joint"]


class TestReadme:
    """The README's Command line section lists each setting once, in one
    table, and names no flag that the commands do not take."""

    def section(self) -> str:
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        start = text.index("\n## Command line\n")
        return text[start:text.index("\n## ", start + 1)]

    def test_settings_table_matches_options(self):
        rows = [line.split("|")[1:-1] for line in self.section().splitlines()
                if line.startswith("| `--")]
        table = {cells[0].strip(" `"): [cell.strip() for cell in cells[1:]] for cells in rows}
        assert len(table) == len(rows)
        assert set(table) == {f"--{key}" for key in cli._OPTIONS} | {"--stopwords"}
        for key, (default, kind, used_by) in cli._OPTIONS.items():
            _, shown, stages = table[f"--{key}"]
            assert stages.split(", ") == list(used_by), key
            assert shown == "—" if default is None else kind(shown) == default, key
        assert table["--stopwords"][2] == "preprocess"

    def test_names_only_flags_the_commands_take(self):
        parser = cli.build_parser()
        flags = set(parser._option_string_actions)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for command in action.choices.values():
                    flags.update(command._option_string_actions)
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*[a-z0-9]", self.section()))
        assert named - flags == set()


class TestReport:
    def test_table_matches_topics_json(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        ws = tmp_path / "ws"
        main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS)
        capsys.readouterr()
        assert main(["report", "--workspace", str(ws), "--top", "5"]) == 0
        out = capsys.readouterr().out
        topics = storage.read_topics(ws / "topics.json")
        histogram = histogram_rows(ws / "histogram.csv")
        assert [topic_id for topic_id, _ in histogram] == list(range(len(topics)))
        assert sum(count for _, count in histogram) == 120
        assert out.splitlines()[0] == f"{len(topics)} topics over 120 documents"
        for (topic_id, count), ranked in zip(histogram, topics):
            top5 = [t for t, _ in ranked[:5]]
            line = [l for l in out.splitlines() if l.strip().startswith(f"{topic_id} ")]
            assert len(line) == 1
            assert line[0].split()[:2] == [str(topic_id), str(count)]
            assert ", ".join(top5) in line[0]

    @staticmethod
    def workspace(ws: Path) -> Path:
        """A finished workspace of one topic and three documents."""
        ws.mkdir()
        storage.write_topics([[("alpha", 1.0)]], ws / "topics.json")
        storage.write_assignments(
            ["d0", "d1", "d2"], np.zeros(3, int), np.array([0.5, 0.0, 1.0]), ws / "assignments.csv"
        )
        storage.write_histogram(np.array([3]), ws / "histogram.csv")
        return ws

    def test_report_requires_artifacts(self, tmp_path, monkeypatch, capsys):
        # and creates no workspace, given by flag or by environment
        ws = tmp_path / "none"
        assert main(["report", "--workspace", str(ws)]) == 2
        monkeypatch.setenv("SENMFK_WORKSPACE", str(ws))
        assert main(["report"]) == 2
        assert not ws.exists()
        capsys.readouterr()
        for name in ("topics.json", "assignments.csv", "histogram.csv"):
            ws = self.workspace(tmp_path / name)
            (ws / name).unlink()
            assert main(["report", "--workspace", str(ws)]) == 2
            assert f"{ws / name} missing" in capsys.readouterr().err

    def test_counts_come_from_the_assignments(self, tmp_path, capsys):
        # histogram.csv restates the counts and is not read: a damaged one
        # changes nothing, as an unparsable one would not
        ws = self.workspace(tmp_path / "ws")
        assert main(["report", "--workspace", str(ws)]) == 0
        undamaged = capsys.readouterr().out
        assert undamaged.splitlines()[:3] == [
            "1 topics over 3 documents",
            "topic    docs  top words",
            "    0       3  alpha",
        ]
        for text in ("topic_id,count\n0,3\n0,5\n7,2\n", "not a histogram"):
            (ws / "histogram.csv").write_text(text, encoding="utf-8")
            assert main(["report", "--workspace", str(ws)]) == 0
            assert capsys.readouterr().out == undamaged

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_top_below_one_is_usage_error(self, tmp_path, capsys, top):
        # checked before the workspace is read, so a valid one is not needed
        ws = tmp_path / "ws"
        assert main(["report", "--workspace", str(ws), "--top", top]) == 1
        assert f"--top must be >= 1, got {top}" in capsys.readouterr().err
        assert not ws.exists()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("topics.json", '[{"topic_id": 0, "terms": ['),
            ("topics.json", '[{"topic_id": 0, "words": []}]\n'),
            ("topics.json", '[{"topic_id": 0, "terms": [{"term": "a", "weight": "heavy"}]}]\n'),
            ("topics.json", '[{"topic_id": 0, "terms": [{"term": 7, "weight": 1.0}]}]\n'),
            # topic 5 must not be shown as topic 0
            ("topics.json", '[{"topic_id": 5, "terms": [{"term": "a", "weight": 1.0}]}]\n'),
            ("assignments.csv", "doc_id,topic_id,max_weight\nd0,many,0.5\n"),
            ("assignments.csv", "doc_id,topic_id,max_weight\nd0,0\n"),
            ("assignments.csv", "doc_id,topic_id,max_weight\nd0,0,-5\n"),
            ("assignments.csv", "doc_id,topic_id,max_weight\nd0,-1,0.5\n"),
            # each row is one document, so a repeated doc_id would count twice
            ("assignments.csv", "doc_id,topic_id,max_weight\nd0,0,0.5\nd0,0,0.5\n"),
            # a topic that topics.json does not have
            ("assignments.csv", "doc_id,topic_id,max_weight\nd0,0,0.5\nd1,1,0.5\n"),
        ],
    )
    def test_damaged_artifact_exits_2_naming_it(self, tmp_path, capsys, name, text):
        ws = self.workspace(tmp_path / "ws")
        (ws / name).write_text(text, encoding="utf-8")
        assert main(["report", "--workspace", str(ws)]) == 2
        err = capsys.readouterr().err
        assert "DataError" in err and str(ws / name) in err


class TestAcrossBlasKernels:
    """Reruns are byte-identical on one BLAS kernel.  scipy-openblas on
    x86-64 picks its kernel by CPU, and ``OPENBLAS_CORETYPE`` overrides the
    pick: another kernel rounds sums in another order, which reaches the
    factors' last bits and nothing that the corpus, the matrices or any
    decision of the pipeline depends on."""

    def run_with(self, corpus: Path, ws: Path, coretype: str | None) -> None:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(Path(senmfk_split.__file__).resolve().parents[1])
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        main_ = "import sys; from senmfk_split.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["run", str(corpus), "--workspace", str(ws)] + RUN_FLAGS
        subprocess.run([sys.executable, "-c", main_] + argv, env=env, check=True,
                       capture_output=True)

    def test_another_kernel_moves_only_the_factors_last_bits(self, corpus_file, tmp_path):
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        machine = platform.machine()
        if blas != "scipy-openblas" or machine not in ("x86_64", "AMD64"):
            pytest.skip(f"OPENBLAS_CORETYPE selects no kernel of {blas} on {machine}")
        path, _ = corpus_file
        default, other = tmp_path / "default", tmp_path / "sandybridge"
        self.run_with(path, default, None)
        self.run_with(path, other, "Sandybridge")
        for name in ("corpus.jsonl", "vocab.txt", "X.mtx", "cooc.mtx", "M.mtx", "histogram.csv"):
            assert (default / name).read_bytes() == (other / name).read_bytes(), name
        for _, _, report in split_pipeline.FACTORS:
            ranks = [storage.read_selection_report(ws / report).chosen_k for ws in (default, other)]
            assert ranks[0] == ranks[1], report
        topic_ids, term_orders = [], []
        for ws in (default, other):
            with (ws / "assignments.csv").open(encoding="utf-8", newline="") as fh:
                topic_ids.append([row[:2] for row in csv.reader(fh)])
            topics = storage.read_topics(ws / "topics.json")
            term_orders.append([[term for term, _ in ranked] for ranked in topics])
        assert topic_ids[0] == topic_ids[1]
        assert term_orders[0] == term_orders[1]
        names = [n for w, h, _ in split_pipeline.FACTORS for n in (w, h)] + ["H.mtx"]
        for name in names:
            a, b = storage.read_dense(default / name), storage.read_dense(other / name)
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max(), name
