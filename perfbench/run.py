"""Benchmark entry point for senmfk-split.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json.  After an untimed CPU
warm-up the run builds the workload's inputs from the seed (set-up,
repeated and timed), then runs the operation closed-loop, one at a time,
each in a fresh worker process, until ``--seconds`` have passed, checking
every operation's output.  With ``--trace 0`` it reports the end-to-end metrics
(medians over the operations, times in reference seconds: see
``reference_kernel``); with ``--trace 1`` it alternates untraced and
traced operations and reports the per-layer metrics of the traced ones, the
tracing overhead, and process CPU use from the untraced ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Per-operation records,
the environment stamp and the spans of traced operations are written under
``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # one workload's run must end within 180 s
WARM_UP_S = 1.0
# Nominal seconds of reference_kernel(); times are reported in reference
# seconds, measured seconds * REF_KERNEL_S / the kernel's measured seconds.
REF_KERNEL_S = 0.15


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def preflight() -> dict:
    """The benchmark definition, after checking the program and the test
    generators it needs are present in this checkout."""
    for required in ("BENCHMARK.json", "src/senmfk_split/__init__.py", "src/senmfk_split/cli.py", "tests/oracles.py"):
        if not (ROOT / required).is_file():
            fail(f"{ROOT / required} is missing; run from a checkout of the repository")
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.split()[-1]}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_stamp() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def warm_up(seconds: float) -> None:
    """Untimed BLAS work so the first timed operation does not pay for an
    idle CPU."""
    import numpy

    a = numpy.full((400, 400), 0.5)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        a @ a


@functools.cache
def _reference_inputs():
    import numpy
    from scipy import sparse

    rng = numpy.random.default_rng(0)
    n, per_row = 2000, 20
    indices = rng.integers(0, n, size=n * per_row)
    indptr = numpy.arange(0, n * per_row + 1, per_row)
    s = sparse.csr_matrix((rng.uniform(size=n * per_row), indices, indptr), shape=(n, n))
    return rng.uniform(size=(150, 150)), s, rng.uniform(size=(n, 8))


def reference_kernel() -> float:
    """Seconds of a fixed kernel that does not touch the package: an
    interpreted loop, small dense products and sparse products, the mix of
    work the operations do.  It runs in this process, just before and after
    each timed step, so dividing by it cancels much of the drift in speed
    of a shared machine over the minutes a batch of runs takes."""
    a, s, v = _reference_inputs()
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i % 7
    for _ in range(200):
        a = a @ a
        a /= a.max()
    for _ in range(300):
        v = s @ v
        v /= v.max()
    return time.perf_counter() - start


def referenced(step):
    """Run ``step()``; return its value and the mean reference-kernel
    seconds around it."""
    before = reference_kernel()
    value = step()
    return value, (before + reference_kernel()) / 2.0


def run_operation(spec: dict, timeout: float) -> dict:
    """Run one operation in a worker process and return its report; a
    worker that crashes or times out yields ``exit_code`` None."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    return {"exit_code": None, "error": proc.stderr.strip()[-2000:]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    from workloads import WORKLOADS

    started = time.perf_counter()
    workload = WORKLOADS[name]
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def remaining() -> float:
        return max(DEADLINE_S - (time.perf_counter() - started), 1.0)

    warm_up(WARM_UP_S)
    reference_kernel()  # untimed: builds the kernel's inputs

    def set_up():
        t0 = time.perf_counter()
        ctx = workload.setup(seed, workdir, lambda spec: run_operation(spec, remaining()))
        if run_operation({"kind": "import"}, remaining()).get("exit_code") != 0:
            fail("the program does not import")
        return ctx, time.perf_counter() - t0

    # Set-up is input generation, a cold start of the program (a fresh
    # interpreter importing the package) and any prerequisite workspace.
    setup_times, setup_refs = [], []
    for _ in range(workload.setup_repeats):
        (ctx, setup_seconds), ref_s = referenced(set_up)
        setup_times.append(setup_seconds)
        setup_refs.append(ref_s)

    ops = []
    loop_start = time.perf_counter()
    while len(ops) < (2 if trace else 1) or time.perf_counter() - loop_start < seconds:
        if time.perf_counter() - started > DEADLINE_S - 10:
            break
        i = len(ops)
        traced = trace and i % 2 == 1
        opdir = workdir / f"op{i % 2}"
        shutil.rmtree(opdir, ignore_errors=True)
        opdir.mkdir()
        spec = workload.spec(ctx, opdir)
        spec.update(op=i, trace=traced, spans_path=str(workdir / f"spans-op{i}.jsonl"))
        out, ref_s = referenced(lambda: run_operation(spec, remaining()))
        out["ref_kernel_s"] = ref_s
        try:
            problems, fit = workload.check(ctx, opdir, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, fit = [f"check failed: {type(exc).__name__}: {exc}"], float("nan")
        out.pop("result", None)
        ops.append({**out, "traced": traced, "problems": problems, "fit_rel_error": fit})

    failed = sum(1 for op in ops if op["problems"])
    ok = [op for op in ops if not op["problems"]]
    plain = [op for op in ok if not op["traced"]]
    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = statistics.median(t * REF_KERNEL_S / r for t, r in zip(setup_times, setup_refs))
        if plain:
            metrics["wall_s"] = statistics.median(op["wall_s"] * REF_KERNEL_S / op["ref_kernel_s"] for op in plain)
            metrics["peak_rss_mb"] = statistics.median(op["peak_rss_mb"] for op in plain)
            metrics["fit_rel_error"] = statistics.median(op["fit_rel_error"] for op in plain)
    else:
        traced_ops = [op for op in ok if op["traced"]]
        if traced_ops and plain:
            for key in traced_ops[0]["layers"]:
                metrics[key] = statistics.median(op["layers"][key] for op in traced_ops)
            metrics["proc.wall_s"] = statistics.median(op["wall_s"] for op in plain)
            metrics["proc.ref_kernel_s"] = statistics.median(op["ref_kernel_s"] for op in plain)
            metrics["proc.cpu_s"] = statistics.median(op["cpu_s"] for op in plain)
            metrics["proc.cpu_per_wall"] = statistics.median(op["cpu_s"] / op["wall_s"] for op in plain)
            untraced = statistics.median(op["wall_s"] for op in plain)
            overhead = statistics.median(op["wall_s"] for op in traced_ops) - untraced
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_share"] = overhead / untraced
    missing = [key for key in units if key not in metrics]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units if key in metrics},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env_stamp(),
        "setup_s": setup_times,
        "setup_ref_kernel_s": setup_refs,
        "operations": ops,
        "missing_metrics": missing,
        **result,
    }
    path = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for op in ops:
        for problem in op["problems"]:
            print(f"{name}: operation failed: {problem}", file=sys.stderr)
    return result


def _format(value: float) -> str:
    return f"{value:.6g}" if math.isfinite(value) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = preflight()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    group = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    sys.path.insert(0, str(HERE))

    print(json.dumps({"env": env_stamp()}))
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    for name in selected:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), units)
        results[name] = result
        print(f"{name}: {result['attempted']} operations, {result['failed']} failed")
        print(f"  failed_share = {result['failed'] / result['attempted']:.3g} ratio")
        for key, metric in result["metrics"].items():
            print(f"  {key} = {_format(metric['value'])} {metric['unit']}")
    if len(results) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
