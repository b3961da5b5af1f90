"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` replaces every public function (and public method of a
public class) defined in each layer module with a wrapper that records a
span: name, start, end, parent span and operation id.  References to the
same function held by other modules of the package are replaced too, so
calls across modules are traced.  Two private functions are wrapped as well
because they are the natural boundaries for counting: the multiplicative
update loop ``nmf_core._run_updates`` and one ensemble member
``model_selection._ensemble_member``.

Spans stay in memory until the operation ends; ``write_spans`` writes them
out as JSON lines and ``layer_metrics`` reduces them to the per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import types
from dataclasses import asdict, dataclass, field
from pathlib import Path

PACKAGE = "senmfk_split"
LAYERS = (
    "text_pipeline",
    "matrix_builder",
    "nmf_core",
    "model_selection",
    "split_pipeline",
    "storage",
    "manifest",
    "cli",
)
PRIVATE_BOUNDARIES = {
    "nmf_core": ("_run_updates",),
    "model_selection": ("_ensemble_member",),
}
# Residuals on matrices up to this many cells are evaluated densely by
# nmf_core; the flop model below follows the same split.
_DENSE_EVAL_CELLS = 4_000_000


@dataclass
class Span:
    id: int
    parent: int
    op: int
    layer: str
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except (OSError, TypeError):
        return 0.0


def _writer_path(args, kwargs):
    return kwargs.get("path", args[-1] if args else None)


def _hook_write(attrs, args, kwargs, result):
    attrs["mb"] = _file_mb(_writer_path(args, kwargs))


def _hook_read(attrs, args, kwargs, result):
    attrs["mb"] = _file_mb(kwargs.get("path", args[0] if args else None))


def _hook_corpus(attrs, args, kwargs, result):
    attrs["tokens"] = sum(len(doc.tokens) for doc in result)


def _hook_cooc(attrs, args, kwargs, result):
    attrs["pairs"] = int(round(float(result.sum()) / 2.0))


def _hook_record(attrs, args, kwargs, result):
    attrs["resumed"] = bool(kwargs.get("resumed", False))


def _hook_updates(attrs, args, kwargs, result):
    X, W, _H, config = args[:4]
    update_w = kwargs["update_w"] if "update_w" in kwargs else args[4]
    m, n = X.shape
    k = W.shape[1]
    iters = result.trace_iterations[-1] if result.trace_iterations else 0
    checks = len(result.objective_trace)
    attrs.update(
        update_w=bool(update_w),
        iters=int(iters),
        at_cap=bool(iters == config.max_iter),
        checks=checks,
        density=X.nnz / float(m * n),
        flop=update_flops(m, n, X.nnz, k, iters, checks, bool(update_w)),
    )


def update_flops(m: int, n: int, nnz: int, k: int, iters: int, checks: int, update_w: bool) -> float:
    """Computed (not measured) floating-point operations of one
    multiplicative-update solve on an m x n matrix with nnz stored entries at
    rank k: products and elementwise updates per iteration, plus one
    residual evaluation per convergence check."""
    h_step = 2 * nnz * k + 2 * k * k * n + 3 * k * n
    w_step = 2 * k * k * n + 2 * nnz * k + 4 * m * k * k + 3 * m * k if update_w else 0
    if m * n <= _DENSE_EVAL_CELLS:
        check = 2 * m * n * k + 3 * m * n
    else:
        check = 2 * nnz * k + nnz + 2 * (m + n) * k * k
    return float(2 * m * k * k + iters * (h_step + w_step) + checks * check)


_HOOKS = {
    ("storage", "write_sparse"): _hook_write,
    ("storage", "write_dense"): _hook_write,
    ("storage", "write_selection_report"): _hook_write,
    ("storage", "write_topics"): _hook_write,
    ("storage", "write_assignments"): _hook_write,
    ("storage", "write_histogram"): _hook_write,
    ("storage", "write_trace_csv"): _hook_write,
    ("storage", "read_sparse"): _hook_read,
    ("storage", "read_dense"): _hook_read,
    ("storage", "read_selection_report"): _hook_read,
    ("storage", "read_topics"): _hook_read,
    ("storage", "read_histogram"): _hook_read,
    ("manifest", "sha256_file"): _hook_read,
    ("manifest", "RunManifest.record"): _hook_record,
    ("text_pipeline", "load_jsonl_corpus"): _hook_corpus,
    ("matrix_builder", "build_cooccurrence"): _hook_cooc,
    ("nmf_core", "_run_updates"): _hook_updates,
}
# Peak resident growth is recorded for these spans only.
_MEMORY_SPANS = {("matrix_builder", "build_cooccurrence")}


def _memory_mb() -> tuple[float, float]:
    """(current, peak) resident set size of this process in MB."""
    values = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(("VmRSS:", "VmHWM:")):
                values[line[:5]] = int(line.split()[1]) / 1024.0
    return values["VmRSS"], values["VmHWM"]


class Tracer:
    """Records spans of the wrapped functions for one operation at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._ids = iter(range(1, sys.maxsize))
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn):
        hook = _HOOKS.get((layer, name))
        track_memory = (layer, name) in _MEMORY_SPANS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), stack[-1] if stack else 0, tracer.op, layer, name, 0.0, 0.0)
            stack.append(span.id)
            if track_memory:
                rss_before, _ = _memory_mb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if track_memory:
                    # resident growth up to the process peak; an upper bound
                    # if the peak was reached before this call
                    span.attrs["peak_mb"] = max(_memory_mb()[1] - rss_before, 0.0)
                tracer.spans.append(span)
            if hook is not None:
                hook(span.attrs, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions and rebind every reference to them in
        the package's modules."""
        replacements: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            private = PRIVATE_BOUNDARIES.get(layer, ())
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and (not attr.startswith("_") or attr in private):
                    replacements[id(obj)] = (obj, self.wrap(layer, attr, obj))
                elif isinstance(obj, type) and not attr.startswith("_"):
                    self._wrap_methods(layer, obj)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                original, wrapper = replacements.get(id(obj), (None, None))
                if original is obj:
                    setattr(module, attr, wrapper)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            label = f"{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self.wrap(layer, label, obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(layer, label, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(layer, label, obj.__func__)))


def write_spans(spans: list[Span], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def _sum(spans, layer, *names) -> float:
    return sum(s.seconds for s in spans if s.layer == layer and s.name in names)


def _sum_attr(spans, layer, names, key) -> float:
    return sum(s.attrs.get(key, 0) for s in spans if s.layer == layer and s.name in names)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its direct children's."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.layer] += s.seconds - child_time.get(s.id, 0.0)
    return out


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Reduce one operation's spans to the per-layer metrics (seconds are
    inclusive span durations unless named ``self_s``)."""
    m: dict[str, float] = {}

    m["text_pipeline.load_s"] = _sum(spans, "text_pipeline", "load_jsonl_corpus")
    m["text_pipeline.vocab_s"] = _sum(spans, "text_pipeline", "build_vocabulary")
    m["text_pipeline.load_vocabulary_s"] = _sum(spans, "text_pipeline", "load_vocabulary")
    m["text_pipeline.tokens"] = _sum_attr(spans, "text_pipeline", ("load_jsonl_corpus",), "tokens")

    cooc = [s for s in spans if s.layer == "matrix_builder" and s.name == "build_cooccurrence"]
    m["matrix_builder.tfidf_s"] = _sum(spans, "matrix_builder", "build_tfidf")
    m["matrix_builder.cooc_s"] = sum(s.seconds for s in cooc)
    m["matrix_builder.cooc_peak_mb"] = max((s.attrs.get("peak_mb", 0.0) for s in cooc), default=0.0)
    m["matrix_builder.cooc_pairs"] = sum(s.attrs.get("pairs", 0) for s in cooc)
    m["matrix_builder.sppmi_s"] = _sum(spans, "matrix_builder", "sppmi")

    updates = [s for s in spans if s.layer == "nmf_core" and s.name == "_run_updates"]
    fits = [s for s in updates if s.attrs.get("update_w")]
    nmf_s = _sum(spans, "nmf_core", "nmf")
    nmf_iters = sum(s.attrs.get("iters", 0) for s in fits)
    all_iters = sum(s.attrs.get("iters", 0) for s in updates)
    flop = sum(s.attrs.get("flop", 0.0) for s in updates)
    update_s = sum(s.seconds for s in updates)
    m["nmf_core.nmf_s"] = nmf_s
    m["nmf_core.nmf_calls"] = sum(1 for s in spans if s.layer == "nmf_core" and s.name == "nmf")
    m["nmf_core.nmf_iters"] = nmf_iters
    m["nmf_core.nmf_at_cap"] = sum(1 for s in fits if s.attrs.get("at_cap"))
    m["nmf_core.residual_checks"] = sum(s.attrs.get("checks", 0) for s in updates)
    m["nmf_core.ms_per_iter"] = 1e3 * sum(s.seconds for s in fits) / nmf_iters if nmf_iters else 0.0
    m["nmf_core.gflop"] = flop / 1e9
    m["nmf_core.gflop_per_s"] = flop / 1e9 / update_s if update_s else 0.0
    m["nmf_core.input_density"] = (
        sum(s.attrs.get("density", 0.0) * s.attrs.get("iters", 0) for s in updates) / all_iters
        if all_iters
        else 0.0
    )
    m["nmf_core.solve_h_s"] = _sum(spans, "nmf_core", "solve_h")
    m["nmf_core.perturb_s"] = _sum(spans, "nmf_core", "perturb")
    m["nmf_core.relative_error_s"] = _sum(spans, "nmf_core", "relative_error")

    scans = [s for s in spans if s.layer == "model_selection" and s.name == "nmfk"]
    members = [s for s in spans if s.layer == "model_selection" and s.name == "_ensemble_member"]
    scan_ids = {s.id for s in scans}
    member_s = 0.0
    ensemble_wall = 0.0
    for scan in scans:
        inside = [s for s in members if scan.start <= s.start and s.end <= scan.end]
        if inside:
            member_s += sum(s.seconds for s in inside)
            ensemble_wall += max(s.end for s in inside) - min(s.start for s in inside)
    m["model_selection.nmfk_s"] = sum(s.seconds for s in scans)
    m["model_selection.members"] = len(members)
    m["model_selection.cluster_s"] = _sum(spans, "model_selection", "cluster_columns")
    m["model_selection.silhouette_s"] = _sum(spans, "model_selection", "silhouette")
    m["model_selection.consensus_s"] = sum(
        s.seconds
        for s in spans
        if s.layer == "nmf_core" and s.name in ("solve_h", "relative_error") and s.parent in scan_ids
    )
    m["model_selection.ensemble_overlap"] = member_s / ensemble_wall if ensemble_wall else 0.0

    for metric, fn in (
        ("prepare_corpus_s", "prepare_corpus"),
        ("build_matrices_s", "build_matrices"),
        ("factorize_x_s", "stage_factorize_x"),
        ("factorize_m_s", "stage_factorize_m"),
        ("joint_s", "stage_joint"),
        ("regression_s", "stage_regression"),
        ("export_s", "stage_export"),
    ):
        m[f"split_pipeline.{metric}"] = _sum(spans, "split_pipeline", fn)

    writers = [s for s in spans if s.layer == "storage" and s.name.startswith("write_")]
    readers = [s for s in spans if s.layer == "storage" and s.name.startswith("read_")]
    m["storage.write_s"] = sum(s.seconds for s in writers)
    m["storage.write_mb"] = sum(s.attrs.get("mb", 0.0) for s in writers)
    m["storage.read_s"] = sum(s.seconds for s in readers)
    m["storage.read_mb"] = sum(s.attrs.get("mb", 0.0) for s in readers)

    records = [s for s in spans if s.layer == "manifest" and s.name == "RunManifest.record"]
    m["manifest.digest_s"] = _sum(spans, "manifest", "sha256_file")
    m["manifest.digest_mb"] = _sum_attr(spans, "manifest", ("sha256_file",), "mb")
    m["manifest.stages_resumed"] = (
        sum(1 for s in records if s.attrs.get("resumed")) / len(records) if records else 0.0
    )

    own = self_times(spans)
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = own[layer]
    m["cli.other_s"] = own["cli"]
    top_level = sum(s.seconds for s in spans if s.parent == 0)
    m["trace.unaccounted_share"] = (wall_s - top_level) / wall_s if wall_s else 0.0
    return m
