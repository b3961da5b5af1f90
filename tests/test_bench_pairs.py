"""The pairing rule of ``tools/bench_pairs.py`` on hand-made pairs, and its
``--record`` file on canned run outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import compare_metric, main, parse_seeds, quartiles, report, summarize  # noqa: E402

# ten parent runs with quartiles 1.0225 and 1.0675: an interquartile range of 0.045
BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def pairs_with(head: list[float]) -> list[tuple[float, float]]:
    return list(zip(BASE, head))


class TestCompareMetric:
    def test_nine_of_ten_with_gap_above_iqr_holds(self):
        head = [v - 0.2 for v in BASE[:9]] + [BASE[9] + 0.5]
        s = compare_metric(pairs_with(head), "lower", 0.25)
        assert s["wins"] == 9
        assert s["claim"] and not s["worse"]

    def test_eight_of_ten_fails(self):
        head = [v - 0.2 for v in BASE[:8]] + [v + 0.5 for v in BASE[8:]]
        s = compare_metric(pairs_with(head), "lower", 0.25)
        assert s["wins"] == 8
        assert not s["claim"]

    def test_tie_is_not_a_win(self):
        # nine wins and one tie: the tie counts for neither side
        head = [v - 0.2 for v in BASE[:9]] + [BASE[9]]
        assert compare_metric(pairs_with(head), "lower", 0.25)["wins"] == 9
        # eight wins and two ties is 8 of 10, not 8 of 8
        head = [v - 0.2 for v in BASE[:8]] + BASE[8:]
        s = compare_metric(pairs_with(head), "lower", 0.25)
        assert s["wins"] == 8
        assert not s["claim"]

    def test_gap_within_iqr_fails(self):
        # every pair won, but the medians differ by less than the IQR
        s = compare_metric(pairs_with([v - 0.04 for v in BASE]), "lower", 0.25)
        assert s["wins"] == 10
        assert not s["claim"]

    def test_fewer_than_ten_pairs_cannot_claim(self):
        s = compare_metric([(b, b - 0.5) for b in BASE[:9]], "lower", 0.25)
        assert s["wins"] == 9
        assert not s["claim"]

    def test_higher_is_better(self):
        s = compare_metric(pairs_with([v + 0.2 for v in BASE]), "higher", 0.1)
        assert s["wins"] == 10 and s["claim"] and not s["worse"]

    def test_worse_than_bound_is_relative_to_the_base_median(self):
        # base median 1.045: a bound of 0.25 allows up to 1.306
        assert not compare_metric(pairs_with([1.30] * 10), "lower", 0.25)["worse"]
        assert compare_metric(pairs_with([1.31] * 10), "lower", 0.25)["worse"]
        assert compare_metric(pairs_with([0.9] * 10), "higher", 0.1)["worse"]


def test_quartiles():
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert quartiles(BASE) == pytest.approx((1.0225, 1.045, 1.0675))


def test_parse_seeds():
    assert parse_seeds("6101-6105") == [6101, 6102, 6103, 6104, 6105]
    assert parse_seeds("7") == [7]


def test_report_fails_on_a_larger_failed_share(capsys):
    def run(failed, wall):
        return {"attempted": 10, "failed": failed, "metrics": {"wall_s": {"value": wall}}}

    metric = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert summarize([(run(0, 1.0), run(0, 0.9))], metric, None)["ok"]
    assert summarize([(run(1, 1.0), run(1, 0.9))], metric, None)["ok"]
    summary = summarize([(run(0, 1.0), run(1, 0.9))], metric, None)
    assert not summary["ok"]
    report(summary)
    assert "change: 1 of 10 operations failed (share 0.1)" in capsys.readouterr().out
    assert not summarize([(run(0, 1.0), run(0, 1.5))], metric, None)["ok"]
    assert not summarize([(run(0, 1.0), run(0, 0.9))], metric, "wall_s")["ok"]  # one pair
    # a metric no pair reports fails the batch
    assert not summarize([(run(0, 1.0), run(0, 0.9))], [*metric, {**metric[0], "name": "x"}], None)["ok"]


# `perfbench/run.py --workload all` prefixes each metric with its workload,
# which the per-metric report would not find; the run length is the benchmark's
@pytest.mark.parametrize("extra", [["--workload", "all"], ["--workload", "zipf-resume", "--seconds", "5"]])
def test_only_a_benchmark_workload_at_the_benchmark_length(extra, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--base", "HEAD", "--seeds", "1", *extra])
    assert exit_info.value.code == 2
    assert "zipf-resume" in capsys.readouterr().err or "--seconds" in extra


ENV = {"base": {"cpu_model": "canned", "nproc": 2}, "change": {"cpu_model": "canned", "nproc": 4}}


def canned_subprocess(base_wall: dict, change_wall: dict, calls: list):
    """A ``subprocess.run`` stand-in: ``git`` and ``tar`` succeed with fixed
    output, and ``perfbench/run.py`` prints an env line, a progress line and
    the result line, its wall time looked up by seed on the side it runs."""
    def run(cmd, cwd=None, input=None, **kwargs):
        calls.append(cmd)
        if cmd[0] == "git":
            outputs = {"archive": b"", "rev-parse": "0" * 40, "status": " M README.md\n"}
            return subprocess.CompletedProcess(cmd, 0, outputs[cmd[3]], "")
        if cmd[0] == "tar":
            return subprocess.CompletedProcess(cmd, 0, b"", b"")
        seed = int(cmd[cmd.index("--seed") + 1])
        side = "change" if Path(cwd) == bench_pairs.ROOT else "base"
        wall = (change_wall if side == "change" else base_wall)[seed]
        result = {
            "correct": True, "attempted": 10, "failed": int(side == "change" and seed == 1),
            "metrics": {name: {"value": wall, "unit": "s"}
                        for name in ("wall_s", "setup_s", "peak_rss_mb", "fit_rel_error")},
        }
        stdout = "\n".join([json.dumps({"env": ENV[side]}), "progress", json.dumps(result)]) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "")
    return run


def test_record_from_canned_runs(tmp_path, monkeypatch, capsys):
    calls = []
    base = {1: 1.0, 2: 1.1, 3: 1.2}
    change = {1: 0.9, 2: 1.0, 3: 1.3}
    monkeypatch.setattr(bench_pairs.subprocess, "run", canned_subprocess(base, change, calls))
    path = tmp_path / "BENCH.json"
    code = main(["--base", "HEAD~1", "--workload", "zipf-resume", "--seeds", "1-3",
                 "--claim", "wall_s", "--record", str(path)])
    text = path.read_text("utf-8")
    record = json.loads(text)
    # one object with sorted keys, each side's env stamp from its first line
    assert text == json.dumps(record, indent=1, sort_keys=True) + "\n"
    assert sorted(record) == [
        "claim", "env", "metrics", "ok", "operations", "pairs", "revisions", "run_seconds", "seeds",
        "workload",
    ]
    assert record["env"] == ENV
    assert record["revisions"] == {"base": "0" * 40, "head": "0" * 40, "dirty": True}
    assert ["git", "-C", str(bench_pairs.ROOT), "rev-parse", "--verify", "HEAD~1^{commit}"] in calls
    assert record["workload"] == "zipf-resume" and record["seeds"] == [1, 2, 3]
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert record["run_seconds"] == bench["run_seconds"]
    # seed 1's change run failed one of its 10 operations
    assert record["operations"] == {
        "base": {"attempted": 30, "failed": 0, "share": 0.0},
        "change": {"attempted": 30, "failed": 1, "share": 1 / 30},
    }
    wall = record["metrics"]["wall_s"]
    assert wall == {
        "name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25,
        "base": list(quartiles(list(base.values()))),
        "change": list(quartiles(list(change.values()))),
        "wins": 2, "pairs": 3, "worse": False, "claim": False,
    }
    assert sorted(record["metrics"]) == sorted(m["name"] for m in bench["end_to_end"])
    # each pair in run order: its seed and both sides' end-to-end values, so
    # the lost pair (seed 3) and an identical fit_rel_error can be read off
    names = [m["name"] for m in bench["end_to_end"]]
    assert record["pairs"] == [
        {"seed": seed, "base": dict.fromkeys(names, base[seed]),
         "change": dict.fromkeys(names, change[seed])}
        for seed in (1, 2, 3)
    ]
    # three pairs cannot carry a claim, and a larger failed share fails the batch
    assert record["claim"] == {"metric": "wall_s", "holds": False}
    assert record["ok"] is False and code == 1
    assert "claim: does not hold" in capsys.readouterr().out

