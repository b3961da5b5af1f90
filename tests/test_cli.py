"""CLI commands, exit codes, config precedence, manifests, and resume."""

import json

import numpy as np
import pytest

from conftest import write_jsonl
from oracles import cooccurrence_oracle, purity, tfidf_oracle, topic_corpus_jsonl
from senmfk_split import storage
from senmfk_split.cli import main, parse_config_file
from senmfk_split.manifest import RunManifest
from senmfk_split.text_pipeline import load_jsonl_corpus


RUN_FLAGS = [
    "--kx-min", "2", "--kx-max", "5",
    "--km-min", "2", "--km-max", "5",
    "--perturbations", "5",
    "--shift", "1",
    "--max-iter", "250",
    "--tol", "1e-7",
    "--seed", "11",
]


@pytest.fixture
def corpus_file(rng, tmp_path):
    lines, labels = topic_corpus_jsonl(rng, docs_per_topic=40)
    path = write_jsonl(tmp_path / "input.jsonl", lines)
    return path, labels


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
        corpus = load_jsonl_corpus(tmp_path / "ws" / "corpus.jsonl", pre_tokenized=True)
        assert corpus.ids() == ["a", "b", "c"]

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
        corpus = load_jsonl_corpus(ws / "corpus.jsonl", pre_tokenized=True)
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
        assert manifest.stages["matrices"].params["window"] == 100
        assert manifest.config["window"] == 100
        assert manifest.config["shift"] == 1.0


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
        for p in sorted(ws_a.iterdir()):
            if p.name == "manifest.json":  # carries wall-clock times
                continue
            assert p.read_bytes() == (ws_b / p.name).read_bytes(), p.name

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

    def test_manifest_snapshot_complete(self, corpus_file, tmp_path):
        path, _ = corpus_file
        ws = tmp_path / "ws"
        main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS)
        manifest = RunManifest.load(ws / "manifest.json")
        for key in ("seed", "window", "shift", "min-doc-tokens", "kx-min", "sil-threshold"):
            assert key in manifest.config
        assert manifest.version
        assert all(rec.seconds >= 0 for rec in manifest.stages.values())
        assert manifest.input_digests["input"]


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
        manifest = RunManifest.load(ws / "manifest.json")
        assert manifest.config["seed"] == 11  # flag beats file
        assert manifest.config["perturbations"] == 5  # file beats default

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


class TestReport:
    def test_table_matches_topics_json(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        ws = tmp_path / "ws"
        main(["run", str(path), "--workspace", str(ws)] + RUN_FLAGS)
        capsys.readouterr()
        assert main(["report", "--workspace", str(ws), "--top", "5"]) == 0
        out = capsys.readouterr().out
        topics = storage.read_topics(ws / "topics.json")
        histogram = dict(storage.read_histogram(ws / "histogram.csv"))
        assert len(histogram) == len(topics)
        assert sum(histogram.values()) == 120
        for topic_id, ranked in enumerate(topics):
            top5 = [t for t, _ in ranked[:5]]
            line = [l for l in out.splitlines() if l.strip().startswith(f"{topic_id} ")]
            assert len(line) == 1
            assert ", ".join(top5) in line[0]

    def test_report_requires_artifacts(self, tmp_path):
        assert main(["report", "--workspace", str(tmp_path / "none")]) == 2
