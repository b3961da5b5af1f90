"""Run the benchmark in alternating pairs of a git revision and the working
tree, and say whether the change holds its bounds and its claimed gain.

    python tools/bench_pairs.py --base REV --workload W --seeds A-B
                                [--claim METRIC] [--record PATH]

The revision is exported with ``git archive REV | tar -x`` into a temporary
directory (no worktree, no change under ``.git``).  For each seed, in
order, ``perfbench/run.py --workload W --seed S --seconds N --trace 0`` runs
once in the exported tree and once in the working tree, each with its own
``perfbench/`` and ``src/``, for the ``run_seconds`` N of ``BENCHMARK.json``
(W must be one of its workloads); the base runs first for the first seed, the
working tree for the second, and so on.  A pair is the two runs of one seed.

For each end-to-end metric of ``BENCHMARK.json`` (only read), it prints
each side's median and quartiles over the pairs, in how many pairs the
change was better (lower, for a lower-is-better metric; a tie counts for
neither side), and whether the change's median is worse than the base's by
more than the metric's bound, taken as a fraction of the base's median.
Each side's failed operations are printed as a share of those attempted.
With ``--claim METRIC`` it also prints whether the gain holds: at least 10
pairs, the change better in at least 9 of every 10, and the gap between the
medians larger than the base's interquartile range.

With ``--record PATH`` it also writes the batch to PATH as one JSON object
with sorted keys: ``revisions`` (the commits of REV and of HEAD, and
whether the working tree differs from HEAD), ``workload``, ``seeds``,
``run_seconds``, ``operations`` (each side's failed and attempted
operations), ``metrics`` (per end-to-end metric its definition, each
side's quartiles, the pairs won and the bound verdict), ``claim``, ``ok``
and ``env``, each side's environment stamp from the first line
``perfbench/run.py`` prints.

The exit code is 0 when no metric is worse than its bound, no larger share
of operations failed with the change, and the claim (if any) holds, and 1
otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")  # the order of each pair's results
MIN_PAIRS = 10  # fewer pairs cannot carry a claim
WIN_SHARE = 0.9  # the share of pairs the change must win to claim a gain


def parse_seeds(text: str) -> list[int]:
    """``A-B`` (inclusive) or a single seed ``A``."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method, so one
    value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare_metric(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Summarize one metric over ``(base, change)`` pairs of values.

    ``wins`` counts the pairs where the change is strictly better;
    ``worse`` is True when the change's median is worse than the base's by
    more than ``bound`` times the base's median; ``claim`` is True when
    there are at least :data:`MIN_PAIRS` pairs, the change wins at least
    :data:`WIN_SHARE` of them, and its median is better than the base's by
    more than the base's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    base, head = [b for b, _ in pairs], [h for _, h in pairs]
    base_q, head_q = quartiles(base), quartiles(head)
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    gain = sign * (base_q[1] - head_q[1])
    return {
        "pairs": len(pairs),
        "wins": wins,
        "base": base_q,
        "change": head_q,
        "worse": -gain > bound * abs(base_q[1]),
        "claim": len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and gain > base_q[2] - base_q[0],
    }


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``perfbench/run.py`` run in ``tree``, with
    the ``env`` stamp of its first line."""
    out = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), "env": json.loads(lines[0])["env"]}


def summarize(runs: list[tuple[dict, dict]], end_to_end: list[dict], claim: str | None) -> dict:
    """The verdicts on ``(base, change)`` results: each side's failed and
    attempted operations and their share; per end-to-end metric its
    definition and :func:`compare_metric` summary (None when no pair reports
    it); the claimed metric and whether its gain holds; and ``ok``: no
    metric unreported or worse than its bound, no larger share of operations
    failed with the change, and the claim (if any) holds."""
    operations = {}
    for side, label in enumerate(SIDES):
        failed = sum(run[side]["failed"] for run in runs)
        attempted = sum(run[side]["attempted"] for run in runs)
        share = failed / attempted if attempted else 1.0
        operations[label] = {"failed": failed, "attempted": attempted, "share": share}
    metrics = {}
    for metric in end_to_end:
        name = metric["name"]
        pairs = [
            (b["metrics"][name]["value"], h["metrics"][name]["value"])
            for b, h in runs
            if name in b["metrics"] and name in h["metrics"]
        ]
        compared = compare_metric(pairs, metric["better"], metric["bound"]) if pairs else None
        metrics[name] = compared and {**metric, **compared}
    holds = bool(claim and metrics[claim] and metrics[claim]["claim"])
    ok = (
        operations["change"]["share"] <= operations["base"]["share"]
        and all(s and not s["worse"] for s in metrics.values())
        and (holds or not claim)
    )
    return {
        "operations": operations,
        "metrics": metrics,
        "claim": {"metric": claim, "holds": holds} if claim else None,
        "ok": ok,
    }


def report(summary: dict) -> None:
    """Print a :func:`summarize` summary."""
    for label, ops in summary["operations"].items():
        print(f"{label}: {ops['failed']} of {ops['attempted']} operations failed "
              f"(share {ops['share']:.3g})")
    claim = summary["claim"] and summary["claim"]["metric"]
    for name, s in summary["metrics"].items():
        if s is None:
            print(f"{name}: no pair reports it")
            continue
        (b1, bm, b3), (c1, cm, c3) = s["base"], s["change"]
        change = f" ({(cm - bm) / bm:+.1%})" if bm else ""
        print(f"{name} ({s['unit']}, {s['better']} is better, bound {s['bound']}):")
        print(f"  base   median {bm:.6g} [{b1:.6g}, {b3:.6g}]")
        print(f"  change median {cm:.6g} [{c1:.6g}, {c3:.6g}]{change}")
        print(f"  better with the change in {s['wins']} of {s['pairs']} pairs; "
              + ("WORSE than its bound" if s["worse"] else "within its bound"))
        if name == claim:
            print(f"  claim: {'holds' if s['claim'] else 'does not hold'} "
                  f"(needs {MIN_PAIRS}+ pairs, {WIN_SHARE:.0%} won, "
                  f"median gap > base IQR {b3 - b1:.6g})")


def revisions(base: str) -> dict:
    """The commits of ``base`` and of HEAD, and whether the working tree
    differs from HEAD (an untracked file that is not ignored counts)."""
    def git(*args: str) -> str:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
        )
        return done.stdout.strip()

    return {
        "base": git("rev-parse", "--verify", f"{base}^{{commit}}"),
        "head": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
    }


def write_record(path: Path, summary: dict, runs: list[tuple[dict, dict]], batch: dict) -> None:
    """The batch as one JSON object with sorted keys: ``summary``, the
    ``batch`` fields (revisions, workload, seeds, run length) and each
    side's ``env`` stamp from its first run."""
    env = {label: runs[0][side]["env"] for side, label in enumerate(SIDES)}
    text = json.dumps({**summary, **batch, "env": env}, indent=1, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    end_to_end = bench["end_to_end"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    workloads = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--claim", help="the end-to-end metric whose gain is claimed")
    parser.add_argument("--record", type=Path, help="also write the batch to this JSON file")
    args = parser.parse_args(argv)
    if args.claim and args.claim not in {m["name"] for m in end_to_end}:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric")
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.base], check=True, capture_output=True
        )
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive.stdout, check=True)
        runs = []
        for i, seed in enumerate(args.seeds):
            order = [base_tree, ROOT] if i % 2 == 0 else [ROOT, base_tree]
            result = {
                tree: run_side(tree, args.workload, seed, bench["run_seconds"]) for tree in order
            }
            runs.append((result[base_tree], result[ROOT]))
            print(f"seed {seed}: done ({'base' if i % 2 == 0 else 'change'} first)", flush=True)
    print(f"{args.workload}: {len(runs)} pairs, {args.base} against the working tree")
    summary = summarize(runs, end_to_end, args.claim)
    report(summary)
    if args.record:
        batch = {
            "revisions": revisions(args.base),
            "workload": args.workload,
            "seeds": args.seeds,
            "run_seconds": bench["run_seconds"],
        }
        write_record(args.record, summary, runs, batch)
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
