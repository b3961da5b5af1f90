"""The file and stdout comparison of ``tools/workspace_diff.py``."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from senmfk_split import cli, split_pipeline  # noqa: E402
from workspace_diff import (  # noqa: E402
    _changed_keys,
    compare,
    compare_file,
    module_code_line_changes,
    run_fixtures,
    src_code_line_change,
    src_line_change,
)


def write_pair(tmp_path: Path, name: str, old: str, new: str) -> tuple[Path, Path]:
    (tmp_path / "base").mkdir(exist_ok=True)
    (tmp_path / "head").mkdir(exist_ok=True)
    base, head = tmp_path / "base" / name, tmp_path / "head" / name
    base.write_text(old, encoding="utf-8")
    head.write_text(new, encoding="utf-8")
    return base, head


class TestCompareFile:
    def test_identical_files(self, tmp_path):
        pair = write_pair(tmp_path, "H.mtx", "2 2\n0.5 1e-3\n", "2 2\n0.5 1e-3\n")
        assert compare_file(*pair) is None

    def test_numbers_only_difference(self, tmp_path):
        pair = write_pair(tmp_path, "W.mtx", "%x\n2 1\n4.0\n-2.0\n", "%x\n2 1\n4.0\n-1.0\n")
        assert compare_file(*pair) == "max relative difference 0.25"

    def test_text_difference(self, tmp_path):
        pair = write_pair(tmp_path, "topics.json", '["alpha", 1.0]', '["beta", 1.0]')
        assert compare_file(*pair) == "differs in more than its numbers"

    def test_manifest_seconds_ignored(self, tmp_path):
        old = {"stages": {"joint": {"seconds": 0.5, "params": {"seed": 3}}}, "seconds": 9}
        new = {"stages": {"joint": {"seconds": 0.7, "params": {"seed": 3}}}, "seconds": 8}
        pair = write_pair(tmp_path, "manifest.json", json.dumps(old), json.dumps(new))
        assert compare_file(*pair) is None

    def test_manifest_keys_that_differ(self, tmp_path):
        old = {"config": {"min-df": 5, "window": 100}, "version": "1"}
        new = {"config": {"min-df": 2, "window": 100}, "version": "1"}
        pair = write_pair(tmp_path, "manifest.json", json.dumps(old), json.dumps(new))
        assert compare_file(*pair) == "differs in config.min-df"


class TestChangedKeys:
    def test_equal_values(self):
        assert _changed_keys({"a": [1, 2], "b": {"c": 1.5}}, {"b": {"c": 1.5}, "a": [1, 2]}) == []

    def test_nested_and_absent_keys(self):
        old = {"a": {"b": 1, "c": 2}, "d": 4}
        new = {"a": {"b": 1, "c": 3}, "e": 5}
        assert _changed_keys(old, new) == ["a.c", "d", "e"]

    def test_seconds_ignored_at_every_level(self):
        assert _changed_keys({"seconds": 1, "x": {"seconds": 2}}, {"x": {"seconds": 3}}) == []


class TestStdout:
    @staticmethod
    def fixtures_printing(monkeypatch, out: Path, summary: str) -> None:
        """run_fixtures with a CLI whose ``run --resume`` prints ``summary``
        (every other command prints its name) and no run_split."""

        def fake_main(argv):
            ws = argv[argv.index("--workspace") + 1]
            print(f"{summary if '--resume' in argv else argv[0]} -> {ws}")
            return 0

        monkeypatch.setattr(cli, "main", fake_main)
        monkeypatch.setattr(split_pipeline, "run_split", lambda *args: None)
        inputs = dict.fromkeys(("run_flags", "new_m_range", "zipf_args", "topics_args"), [])
        inputs["dir"] = str(out.parent)
        run_fixtures(inputs, out)

    def test_each_fixture_stdout_recorded(self, tmp_path, monkeypatch):
        self.fixtures_printing(monkeypatch, tmp_path / "base", "k=3; 120 documents")
        stdout = tmp_path / "base" / "stdout"
        assert sorted(p.name for p in stdout.iterdir()) == [
            "cli.txt", "config.txt", "partial.txt", "stages.txt", "topics.txt", "zipf.txt"
        ]
        text = "run -> <workspace>\nk=3; 120 documents -> <workspace>\n"
        assert (stdout / "topics.txt").read_text("utf-8") == text
        # the cli fixture also reports, after its resume
        assert (stdout / "cli.txt").read_text("utf-8") == text + "report -> <workspace>\n"
        assert (stdout / "stages.txt").read_text("utf-8") == (
            "preprocess -> <workspace>\nmatrices -> <workspace>\n"
        )

    def test_stdout_difference_fails_the_comparison(self, tmp_path, monkeypatch, capsys):
        self.fixtures_printing(monkeypatch, tmp_path / "base", "k=3; 120 documents")
        self.fixtures_printing(monkeypatch, tmp_path / "same", "k=3; 120 documents")
        self.fixtures_printing(monkeypatch, tmp_path / "head", "k=3; 119 documents")
        assert compare(tmp_path / "base", tmp_path / "same")
        assert not compare(tmp_path / "base", tmp_path / "head")
        lines = capsys.readouterr().out.splitlines()
        assert "stdout/cli.txt: max relative difference 0.00833" in lines
        assert "stdout/stages.txt: identical" in lines[-3:]


class TestSrcLineChange:
    @staticmethod
    def tree(root: Path, files: dict[str, str]) -> Path:
        for name, text in files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return root

    def test_counts_package_modules_only(self, tmp_path):
        # newlines are counted, as wc -l does; other files and folders are not
        base = self.tree(tmp_path / "base", {
            "src/senmfk_split/a.py": "x = 1\ny = 2\n",
            "src/senmfk_split/b.py": "z = 3",
            "src/senmfk_split/notes.txt": "one\ntwo\n",
            "src/senmfk_split/sub/c.py": "w = 4\n",
            "tools/d.py": "v = 5\n",
        })
        head = self.tree(tmp_path / "head", {
            "src/senmfk_split/a.py": "x = 1\n",
            "src/senmfk_split/b.py": "z = 3\n\n\n\n",
        })
        assert src_line_change(base, head) == "src/ lines: 2 -> 5 (+3)"
        assert src_line_change(head, base) == "src/ lines: 5 -> 2 (-3)"
        assert src_line_change(base, base) == "src/ lines: 2 -> 2 (+0)"

    def test_code_lines_skip_blanks_comments_and_docstrings(self, tmp_path):
        # a string that is not a docstring is code, on every line it spans
        base = self.tree(tmp_path / "base", {
            "src/senmfk_split/a.py": '"""Module\n\ndocstring."""\n\nx = 1  # counted\n# comment\n',
            "src/senmfk_split/b.py": (
                "class C:\n"
                '    """Doc."""\n'
                "\n"
                "    def f(self):\n"
                '        """Two\n'
                '        lines."""\n'
                '        return """text\n'
                '# not a comment"""\n'
            ),
        })
        head = self.tree(tmp_path / "head", {
            "src/senmfk_split/a.py": "x = 1\n",
            "src/senmfk_split/b.py": "y = [\n    1,  # one\n\n    2,\n]\n",
        })
        assert src_code_line_change(base, head) == "src/ code lines: 5 -> 5 (+0)"
        assert src_line_change(base, head) == "src/ lines: 14 -> 6 (-8)"
        (head / "src" / "senmfk_split" / "b.py").write_text("y = 2\n", encoding="utf-8")
        assert src_code_line_change(base, head) == "src/ code lines: 5 -> 2 (-3)"
        assert src_code_line_change(head, base) == "src/ code lines: 2 -> 5 (+3)"

    def test_code_line_change_per_changed_module(self, tmp_path):
        # a module changed in prose only is listed with +0; an unchanged one
        # is not; one on one side only counts 0 on the other
        base = self.tree(tmp_path / "base", {
            "src/senmfk_split/a.py": "x = 1\ny = 2\n",
            "src/senmfk_split/b.py": '"""Doc."""\nz = 3\n',
            "src/senmfk_split/c.py": "w = 4\n",
            "src/senmfk_split/gone.py": "v = 5\nu = 6\n",
        })
        head = self.tree(tmp_path / "head", {
            "src/senmfk_split/a.py": "x = 1\n",
            "src/senmfk_split/b.py": '"""Other doc."""\nz = 3\n',
            "src/senmfk_split/c.py": "w = 4\n",
            "src/senmfk_split/new.py": "t = 7\n",
        })
        assert module_code_line_changes(base, head) == [
            "a.py code lines: 2 -> 1 (-1)",
            "b.py code lines: 1 -> 1 (+0)",
            "gone.py code lines: 2 -> 0 (-2)",
            "new.py code lines: 0 -> 1 (+1)",
        ]
        assert module_code_line_changes(base, base) == []
