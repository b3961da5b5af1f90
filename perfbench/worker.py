"""Run one benchmark operation in a fresh process and report it as JSON.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON names the operation: ``{"kind": "import"}`` only starts up
(imports the package); ``{"kind": "cli", "argv": [...]}`` calls
``senmfk_split.cli.main(argv)``; ``{"kind": "nmfk", "matrix": PATH,
"selection": {...}}`` calls ``senmfk_split.nmfk`` on a saved dense matrix.
With ``"trace": true`` the layer functions are wrapped first and the spans
are written to ``spans_path``.  The last stdout line is a JSON object with
the operation's wall and CPU seconds, the process's peak resident memory,
the exit code, the operation's own result and, when traced, the per-layer
metrics.  Running each operation in its own process makes the peak memory
that of this operation alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_package():
    """Import senmfk_split from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import senmfk_split

    if not Path(senmfk_split.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"senmfk_split imported from {senmfk_split.__file__}, not {ROOT / 'src'}")
    return senmfk_split


def warm_up(numpy) -> None:
    """A few BLAS products so thread start-up and first-touch costs are not
    timed."""
    a = numpy.full((200, 200), 0.5)
    for _ in range(10):
        a @ a


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec: dict) -> dict:
    import numpy
    from scipy import sparse

    package = import_package()
    sys.path.insert(0, str(HERE))
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.op = int(spec.get("op", 0))
        tracer.install()
    warm_up(numpy)

    result: dict = {}
    if spec["kind"] == "import":
        code, wall, cpu = 0, 0.0, 0.0
    elif spec["kind"] == "cli":
        from senmfk_split import cli

        out = io.StringIO()
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(spec["argv"])
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        result["stdout"] = out.getvalue()
    elif spec["kind"] == "nmfk":
        X = sparse.csr_matrix(numpy.load(spec["matrix"]))
        sel = dict(spec["selection"])
        config = package.SelectionConfig(nmf=package.NmfConfig(**sel.pop("nmf")), **sel)
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        report = package.nmfk(X, config)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        code = 0
        result.update(
            chosen_k=report.chosen_k,
            fallback=report.fallback,
            per_k=[{"k": r.k, "min_silhouette": r.min_silhouette, "relative_error": r.relative_error} for r in report.per_k],
        )
    else:
        raise ValueError(f"unknown operation kind {spec['kind']!r}")

    report_out = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "result": result,
    }
    if tracer is not None:
        from tracing import layer_metrics, write_spans

        write_spans(tracer.spans, Path(spec["spans_path"]))
        report_out["layers"] = layer_metrics(tracer.spans, wall)
    return report_out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
