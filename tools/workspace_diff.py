"""Compare the workspaces that a git revision and the working tree write.

    python tools/workspace_diff.py --base REV

The revision is exported with ``git archive REV | tar -x`` into a temporary
directory (no worktree, no change under ``.git``).  The inputs are built
once, from the working tree: the corpus of the CLI tests
(``test_cli.write_corpus`` with the seed of the tests' ``rng`` fixture), and
a Zipf corpus and a topic corpus from ``perfbench/inputs.py``.  Then each
side runs every fixture below in its own Python process, with its own
``src`` first on the path:

    cli     ``senmfk run`` with ``test_cli.RUN_FLAGS``, then ``run --resume``
    partial the same ``run``, then ``run --resume`` with ``test_cli.NEW_M_RANGE``
            and ``--top-n-words 5``: factorize_m and export rerun, and read
            their inputs and the summary's values from the files of the others
    split   ``run_split`` of the same corpus with ``small_split_config(seed=3)``
    stages  ``senmfk preprocess``, then ``senmfk matrices --shift 1``
    zipf    a Zipf-corpus ``senmfk run`` with ``ZIPF_ARGS``, then ``--resume``
    topics  a topic-corpus ``senmfk run`` with ``TOPICS_ARGS`` (an explicit
            merge range), then ``--resume``

``matrix_builder.cooccurrence_triangle`` counts a vocabulary of up to 256
terms (``_DIRECT_CELLS``) with ``np.bincount`` and a larger one by sorting
keys.  ``cli``, ``partial``, ``split`` and ``stages`` (60 terms) and
``topics`` (90 terms) take the direct count; ``zipf`` (2,764 terms) is the
one fixture on the sorted count.  A change to the threshold should keep a
fixture on each side.

Every file of every fixture is reported as ``identical`` or by the largest
relative difference of its numbers; ``manifest.json`` is compared with its
``seconds`` removed.  What each fixture's commands print is compared the
same way, as the file ``stdout/<fixture>.txt`` (the ``run`` summary line is
the one result that is not a file), with the workspace path written as
``<workspace>``.  A last line, ``src/ lines: <base> -> <head> (<±n>)``,
gives the net line change of ``src/senmfk_split/*.py``.  The exit code is 0
when everything is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ZIPF_SEED = 9500  # the Zipf corpus of the ``zipf`` fixture
TOPICS_SEED = 9600  # the topic corpus of the ``topics`` fixture
# A number in a text artifact; everything between numbers must match exactly.
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_ABSENT = object()  # a key that one manifest lacks


def build_inputs(out: Path) -> dict:
    """The corpora and flags of every fixture, written under ``out``."""
    for path in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        sys.path.insert(0, str(path))
    import test_cli
    import workloads
    from conftest import RNG_SEED

    out.mkdir(parents=True, exist_ok=True)
    test_cli.write_corpus(np.random.default_rng(RNG_SEED), out / "cli.jsonl")
    workloads.inputs.write_zipf_corpus(ZIPF_SEED, out / "zipf.jsonl", workloads.stopwords())
    workloads.inputs.write_topics_corpus(TOPICS_SEED, out / "topics.jsonl")
    return {
        "dir": str(out),
        "run_flags": test_cli.RUN_FLAGS,
        "new_m_range": test_cli.NEW_M_RANGE,
        "zipf_args": workloads.ZIPF_ARGS,
        "topics_args": workloads.TOPICS_ARGS,
    }


def run_fixtures(inputs: dict, out: Path) -> None:
    """Run every fixture with the ``senmfk_split`` that ``sys.path`` finds
    first, one workspace per fixture under ``out``, and what the commands
    of each fixture print in ``out/stdout/<fixture>.txt``."""
    from conftest import small_split_config
    from senmfk_split.cli import main
    from senmfk_split.split_pipeline import run_split

    src = Path(inputs["dir"])
    (out / "stdout").mkdir(parents=True)
    flags, zipf = inputs["run_flags"], inputs["zipf_args"]
    runs = {
        "cli": [["run", str(src / "cli.jsonl")] + flags] * 2,
        "partial": [
            ["run", str(src / "cli.jsonl")] + flags,
            ["run", str(src / "cli.jsonl")] + inputs["new_m_range"] + ["--top-n-words", "5"],
        ],
        "stages": [["preprocess", str(src / "cli.jsonl")], ["matrices", "--shift", "1"]],
        "zipf": [["run", str(src / "zipf.jsonl")] + zipf] * 2,
        "topics": [["run", str(src / "topics.jsonl")] + inputs["topics_args"]] * 2,
    }
    for fixture, commands in runs.items():
        ws = out / fixture
        printed = io.StringIO()
        for i, argv in enumerate(commands):
            resume = ["--resume"] if i and argv[0] == "run" else []
            with contextlib.redirect_stdout(printed):
                code = main(argv + ["--workspace", str(ws)] + resume)
            if code != 0:
                raise SystemExit(f"{fixture}: {' '.join(argv)} failed")
        text = printed.getvalue().replace(str(ws), "<workspace>")
        (out / "stdout" / f"{fixture}.txt").write_text(text, encoding="utf-8")
    run_split(src / "cli.jsonl", small_split_config(seed=3), out / "split")


def _changed_keys(old, new, prefix: str = "") -> list[str]:
    """The dotted paths at which two JSON values differ, ``seconds`` ignored."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted((old.keys() | new.keys()) - {"seconds"})
        pairs = ((k, old.get(k, _ABSENT), new.get(k, _ABSENT)) for k in keys)
        return [p for k, a, b in pairs for p in _changed_keys(a, b, f"{prefix}{k}.")]
    return [] if old == new else [prefix.rstrip(".")]


def compare_file(base: Path, head: Path) -> str | None:
    """None when the files match, else how they differ.  A manifest is
    compared without ``seconds``; other files byte for byte, and a text file
    that differs only in its numbers by the largest relative difference."""
    if base.name == "manifest.json":
        old, new = (json.loads(path.read_text("utf-8")) for path in (base, head))
        keys = _changed_keys(old, new)
        return f"differs in {', '.join(keys)}" if keys else None
    a, b = base.read_bytes(), head.read_bytes()
    if a == b:
        return None
    if _NUMBER.split(a) != _NUMBER.split(b):
        return "differs in more than its numbers"
    x = np.array([float(t) for t in _NUMBER.findall(a)])
    y = np.array([float(t) for t in _NUMBER.findall(b)])
    scale = max(float(np.abs(x).max()), float(np.abs(y).max()), np.finfo(float).tiny)
    return f"max relative difference {float(np.abs(x - y).max()) / scale:.3g}"


def compare(base: Path, head: Path) -> bool:
    """Print one line per file of every fixture; True when all match."""
    same = True
    for fixture in sorted(p.name for p in head.iterdir()):
        names = {p.name for side in (base, head) for p in (side / fixture).iterdir()}
        for name in sorted(names):
            old, new = base / fixture / name, head / fixture / name
            if not old.is_file() or not new.is_file():
                verdict = "only in the " + ("working tree" if new.is_file() else "base")
            else:
                verdict = compare_file(old, new) or "identical"
            same &= verdict == "identical"
            print(f"{fixture}/{name}: {verdict}")
    return same


def src_line_change(base: Path, head: Path) -> str:
    """The lines of ``src/senmfk_split/*.py`` (newlines, as ``wc -l`` counts
    them) in the trees ``base`` and ``head``, and their difference."""
    old, new = (
        sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "senmfk_split").glob("*.py"))
        for tree in (base, head)
    )
    return f"src/ lines: {old} -> {new} ({new - old:+d})"


def _side(src: Path, inputs: Path, out: Path) -> None:
    """:func:`run_fixtures` in a new process that imports the package from
    ``src`` and the tests' helpers from the working tree."""
    code = f"""
import json, sys
from pathlib import Path
sys.path[:0] = [{str(src)!r}, {str(ROOT / "tests")!r}, {str(Path(__file__).parent)!r}]
import senmfk_split
if not Path(senmfk_split.__file__).is_relative_to({str(src)!r}):
    raise SystemExit("senmfk_split imported from " + senmfk_split.__file__)
from workspace_diff import run_fixtures
run_fixtures(json.loads(Path({str(inputs)!r}).read_text()), Path({str(out)!r}))
"""
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        base_tree = work / "base"
        base_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.base], check=True, capture_output=True
        )
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive.stdout, check=True)
        spec = work / "inputs.json"
        spec.write_text(json.dumps(build_inputs(work / "inputs")))
        _side(base_tree / "src", spec, work / "ws_base")
        _side(ROOT / "src", spec, work / "ws_head")
        same = compare(work / "ws_base", work / "ws_head")
        print(src_line_change(base_tree, ROOT))
        return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
