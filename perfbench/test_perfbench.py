"""Tests of the benchmark's own output checks.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _nmfk_report(chosen_k: int, fallback: bool = False) -> dict:
    return {
        "exit_code": 0,
        "wall_s": 1.0,
        "cpu_s": 1.0,
        "peak_rss_mb": 80.0,
        "result": {
            "chosen_k": chosen_k,
            "fallback": fallback,
            "per_k": [{"k": k, "min_silhouette": 1.0, "relative_error": 0.01} for k in range(2, 9)],
        },
    }


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "WARM_UP_S", 0.0)
    return json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


def _units(bench: dict) -> dict:
    return {m["name"]: m["unit"] for m in bench["end_to_end"]}


def test_wrong_rank_counts_as_failed_operation(bench, monkeypatch):
    k_true = workloads.inputs.DENSE["k_true"]
    monkeypatch.setattr(run, "run_operation", lambda spec, timeout: _nmfk_report(k_true - 1))
    result = run.run_workload("dense-scan", seed=3, seconds=0.0, trace=False, units=_units(bench))
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_fallback_rank_counts_as_failed_operation(bench, monkeypatch):
    k_true = workloads.inputs.DENSE["k_true"]
    monkeypatch.setattr(run, "run_operation", lambda spec, timeout: _nmfk_report(k_true, fallback=True))
    result = run.run_workload("dense-scan", seed=3, seconds=0.0, trace=False, units=_units(bench))
    assert result["failed"] == result["attempted"] >= 1


def test_right_rank_passes(bench, monkeypatch):
    k_true = workloads.inputs.DENSE["k_true"]
    monkeypatch.setattr(run, "run_operation", lambda spec, timeout: _nmfk_report(k_true))
    result = run.run_workload("dense-scan", seed=3, seconds=0.0, trace=False, units=_units(bench))
    assert result["failed"] == 0
    assert result["correct"] is True
    assert set(result["metrics"]) == set(_units(bench))


def test_times_are_scaled_to_the_reference_kernel(bench, monkeypatch):
    k_true = workloads.inputs.DENSE["k_true"]
    monkeypatch.setattr(run, "run_operation", lambda spec, timeout: _nmfk_report(k_true))
    monkeypatch.setattr(run, "reference_kernel", lambda: 2.0 * run.REF_KERNEL_S)
    result = run.run_workload("dense-scan", seed=3, seconds=0.0, trace=False, units=_units(bench))
    # the worker reports 1.0 s on a machine running at half the reference speed
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(0.5)


def test_crashed_worker_counts_as_failed_operation(bench, monkeypatch):
    def crash(spec, timeout):
        if spec["kind"] == "import":
            return {"exit_code": 0}
        return {"exit_code": None, "error": "boom"}

    monkeypatch.setattr(run, "run_operation", crash)
    result = run.run_workload("dense-scan", seed=3, seconds=0.0, trace=False, units=_units(bench))
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False


def test_dense_rank_is_recovered_on_seed_that_failed_at_rank_five(tmp_path):
    ctx = workloads.dense_setup(740669735, tmp_path)
    out = worker.main(workloads.dense_spec(ctx, tmp_path))
    assert workloads.dense_check(ctx, tmp_path, out)[0] == []


def _resumed_workspace(tmp_path: Path) -> tuple[dict, Path]:
    """A workspace whose manifest records every stage as resumed, and the
    set-up context that expects exactly its artifacts."""
    ws = tmp_path / "resume"
    ws.mkdir()
    outputs = {}
    for stage in workloads.STAGES:
        name = f"{stage}.out"
        (ws / name).write_text(f"artifact of {stage}\n", encoding="utf-8")
        outputs[stage] = {name: workloads.sha256_file(ws / name)}
    manifest = {"stages": {stage: {"outputs": outputs[stage], "resumed": True} for stage in workloads.STAGES}}
    (ws / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    ctx = {"workspace": str(ws), "digests": outputs, "fit_rel_error": 0.9}
    return ctx, ws


def test_untouched_resume_workspace_passes(tmp_path):
    ctx, _ = _resumed_workspace(tmp_path)
    problems, fit = workloads.resume_check(ctx, tmp_path, {"exit_code": 0})
    assert problems == []
    assert fit == 0.9


def test_tampered_artifact_is_a_failure(tmp_path):
    ctx, ws = _resumed_workspace(tmp_path)
    (ws / "matrices.out").write_text("tampered\n", encoding="utf-8")
    problems, _ = workloads.resume_check(ctx, tmp_path, {"exit_code": 0})
    assert problems == ["matrices.out differs from the set-up run"]


def test_stage_that_was_recomputed_is_a_failure(tmp_path):
    ctx, ws = _resumed_workspace(tmp_path)
    manifest = json.loads((ws / "manifest.json").read_text("utf-8"))
    manifest["stages"]["joint"]["resumed"] = False
    (ws / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    problems, _ = workloads.resume_check(ctx, tmp_path, {"exit_code": 0})
    assert problems == ["stage joint was not resumed"]


def test_zipf_pair_count_matches_brute_force():
    rng = workloads.np.random.default_rng(5)
    ids = rng.integers(0, 12, size=(7, 30))
    window, min_df, max_df = 4, 2, 0.9
    expected = workloads.inputs.zipf_expected(ids, window, min_df, max_df)
    df = [len({d for d in range(ids.shape[0]) if t in ids[d]}) for t in range(12)]
    keep = {t for t in range(12) if min_df <= df[t] <= int(max_df * ids.shape[0])}
    pairs = 0
    for row in ids:
        for p in range(len(row)):
            for q in range(p + 1, min(p + window, len(row))):
                pairs += row[p] in keep and row[q] in keep
    assert expected == {"vocabulary": len(keep), "pairs": pairs}
