"""Batch command-line front end.

Four subcommands map onto the pipeline's stage list
(:data:`senmfk_split.split_pipeline.STAGES`):

    senmfk preprocess INPUT --workspace DIR   corpus.jsonl + vocab.txt
    senmfk matrices --workspace DIR           X.mtx, cooc.mtx, M.mtx
    senmfk run INPUT --workspace DIR          everything through topics.json
    senmfk report --workspace DIR             topic table + histogram summary

``preprocess`` and ``matrices`` run their own stage and ``run`` runs every
stage, all through :func:`senmfk_split.split_pipeline.run_stages`.
``report`` counts each topic's documents from ``assignments.csv``;
``histogram.csv``, the same counts, is an export that no command reads.
Configuration comes from defaults, then an optional flat key=value config
file (``run --config``, each value typed on the line it comes from), then
flags; flags win.  One table, ``_OPTIONS``, declares every setting's
default, type and flag, and the stages that use it: a command takes the
flags of its stages, and each stage's record in the workspace's one
manifest.json holds, by flag name, the settings it uses (beside its input
and output digests and its time).  ``run --resume`` skips stages whose
recorded settings, inputs, and outputs all still match, also after a
crashed run, with these or other settings; a full resume parses no matrix
file, since the summary comes from the selection reports and
``assignments.csv``.  Every command also records the numeric environment
(numpy, scipy, BLAS) in the manifest, which a resume never compares.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure,
4 out of memory inside a stage (named; ``run --resume`` continues the run).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .errors import DataError, PipelineStageError, SenmfkError
from .fileio import utf8_lines
from .manifest import RunManifest, numeric_environment, sha256_text
from .matrix_builder import SemanticConfig
from .model_selection import SelectionConfig, child_seed
from .nmf_core import NmfConfig
from .split_pipeline import (
    MANIFEST, STAGES, PipelineRun, SplitConfig, run_stages, zero_weight_documents,
)
from .text_pipeline import PipelineConfig, default_stopwords, load_stopwords
from . import storage

WORKSPACE_ENV = "SENMFK_WORKSPACE"

_SCANS = ("factorize_x", "factorize_m", "joint")
_SOLVES = _SCANS + ("regression",)
# Every setting: key (the flag without "--", the config-file key, and its name
# in the manifest) -> (default, from its config class where one has it; type;
# the stages whose manifest records hold it, so a change reruns just those).
_OPTIONS: dict[str, tuple[Any, Callable[[str], Any], tuple[str, ...]]] = {
    "min-doc-tokens": (PipelineConfig.min_doc_tokens, int, ("preprocess",)),
    "min-df": (PipelineConfig.min_df, int, ("preprocess",)),
    "max-df": (PipelineConfig.max_df_ratio, float, ("preprocess",)),
    "window": (SemanticConfig.window, int, ("matrices",)),
    "shift": (SemanticConfig.shift, float, ("matrices",)),
    "kx-min": (2, int, ("factorize_x",)),
    "kx-max": (10, int, ("factorize_x",)),
    "km-min": (2, int, ("factorize_m",)),
    "km-max": (10, int, ("factorize_m",)),
    "kj-min": (None, int, ("joint",)),
    "kj-max": (None, int, ("joint",)),
    "perturbations": (SelectionConfig.n_perturbations, int, _SCANS),
    "delta": (SelectionConfig.delta, float, _SCANS),
    "sil-threshold": (SelectionConfig.silhouette_threshold, float, _SCANS),
    "seed": (NmfConfig.seed, int, _SOLVES),
    "top-n-words": (SplitConfig.top_n_words, int, ("export",)),
    "max-iter": (NmfConfig.max_iter, int, _SOLVES),
    "tol": (NmfConfig.tol, float, _SOLVES),
}
_DEFAULTS: dict[str, Any] = {key: default for key, (default, _, _) in _OPTIONS.items()}


class CliUsage(Exception):
    """Raised instead of argparse's sys.exit so usage errors map to code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsage(f"{self.prog}: {message}")


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Flat key=value file, each value converted to its key's type; '#'
    starts a comment, blank lines ignored.  A value not of its key's type,
    or a key set twice (``min_df`` and ``min-df`` are one key), is a
    DataError naming the line."""
    values: dict[str, Any] = {}
    line_of: dict[str, int] = {}
    for lineno, line in utf8_lines(path):
        line = line.split("#", 1)[0]
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in _OPTIONS:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise DataError(f"{path}:{lineno}: key {key!r} already set on line {line_of[key]}")
        try:
            values[key], line_of[key] = _OPTIONS[key][1](value.strip()), lineno
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
    return values


def _resolve(flags: argparse.Namespace, file_cfg: dict[str, Any]) -> dict[str, Any]:
    """Every setting by key: the flag if set, else the config file, else the
    default."""
    settings = {**_DEFAULTS, **file_cfg}
    for key in settings:
        value = getattr(flags, key.replace("-", "_"), None)
        if value is not None:
            settings[key] = value
    return settings


def _split_config(s: dict[str, Any], stopwords: frozenset[str]) -> SplitConfig:
    def selection(k_min: int, k_max: int, tag: int) -> SelectionConfig:
        return SelectionConfig(
            k_min=k_min,
            k_max=k_max,
            n_perturbations=s["perturbations"],
            delta=s["delta"],
            silhouette_threshold=s["sil-threshold"],
            nmf=NmfConfig(max_iter=s["max-iter"], tol=s["tol"], seed=child_seed(s["seed"], tag)),
        )

    joint = (s["kj-min"], s["kj-max"])
    if None in joint and joint != (None, None):
        raise CliUsage("set both --kj-min and --kj-max or neither")
    return SplitConfig(
        selection_x=selection(s["kx-min"], s["kx-max"], 1),
        selection_m=selection(s["km-min"], s["km-max"], 2),
        selection_joint=None if None in joint else selection(*joint, 3),
        top_n_words=s["top-n-words"],
        pipeline=PipelineConfig(
            min_doc_tokens=s["min-doc-tokens"],
            min_df=s["min-df"],
            max_df_ratio=s["max-df"],
            stopwords=stopwords,
        ),
        semantic=SemanticConfig(window=s["window"], shift=s["shift"]),
    )


def _workspace(args: argparse.Namespace) -> Path:
    ws = args.workspace or os.environ.get(WORKSPACE_ENV)
    if not ws:
        raise CliUsage(f"no workspace: pass --workspace or set {WORKSPACE_ENV}")
    return Path(ws)


def _add_flags(p: argparse.ArgumentParser, *stages: str) -> None:
    """The workspace flag and the flags of the settings ``stages`` use."""
    p.add_argument("--workspace", help=f"workspace directory (default ${WORKSPACE_ENV})")
    for key, (_, kind, used_by) in _OPTIONS.items():
        if set(used_by) & set(stages):
            p.add_argument(f"--{key}", type=kind)
    if "preprocess" in stages:
        p.add_argument("--stopwords", help="custom stopword file, one term per line")


def build_parser() -> _Parser:
    parser = _Parser(prog="senmfk", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"senmfk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("preprocess", help="tokenize, filter, and build the vocabulary")
    p.add_argument("input", help="JSON-lines corpus file")
    _add_flags(p, "preprocess")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("matrices", help="build TF-IDF, co-occurrence, and SPPMI matrices")
    _add_flags(p, "matrices")
    p.set_defaults(func=cmd_matrices)

    p = sub.add_parser("run", help="full pipeline")
    p.add_argument("input", help="JSON-lines corpus file")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument(
        "--resume",
        action="store_true",
        default=False,
        help="skip stages whose recorded inputs and outputs still match",
    )
    _add_flags(p, *(stage.name for stage in STAGES))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="print the topic table and histogram")
    p.add_argument("--top", type=int, default=5, help="words per topic (default 5)")
    _add_flags(p)
    p.set_defaults(func=cmd_report)
    return parser


def _pipeline(args: argparse.Namespace) -> tuple[PipelineRun, RunManifest, dict[str, dict]]:
    """The pipeline run that all resolved settings configure, in the
    workspace directory (created once the settings are valid); the
    workspace's one manifest, so every command adds to the records of the
    others (an unreadable manifest file raises DataError); and each stage's
    manifest parameters: the settings that ``_OPTIONS`` says it uses, by key,
    and for ``preprocess`` also the stopword digest."""
    workspace = _workspace(args)
    config_path = getattr(args, "config", None)
    file_cfg = parse_config_file(config_path) if config_path else {}
    stopwords_path = getattr(args, "stopwords", None)
    try:
        settings = _resolve(args, file_cfg)
        stopwords = load_stopwords(stopwords_path) if stopwords_path else default_stopwords()
        config = _split_config(settings, stopwords)
    except ValueError as exc:
        raise CliUsage(str(exc)) from exc
    params: dict[str, dict[str, Any]] = {stage.name: {} for stage in STAGES}
    for key, (_, _, used_by) in _OPTIONS.items():
        for name in used_by:
            params[name][key] = settings[key]
    params["preprocess"]["stopwords_digest"] = sha256_text("\n".join(sorted(stopwords)))
    workspace.mkdir(parents=True, exist_ok=True)
    path = workspace / MANIFEST
    manifest = RunManifest.load(path) if path.is_file() else RunManifest(__version__)
    manifest.version, manifest.environment = __version__, numeric_environment()
    run = PipelineRun(config, workspace, getattr(args, "input", None))
    return run, manifest, params


def cmd_preprocess(args: argparse.Namespace) -> int:
    run, manifest, params = _pipeline(args)
    values = run_stages(run, manifest, params, last="preprocess")
    corpus, vocab = values["corpus.jsonl"], values["vocab.txt"]
    print(f"{len(corpus)} documents, {len(vocab)} terms -> {run.workspace}")
    return 0


def cmd_matrices(args: argparse.Namespace) -> int:
    run, manifest, params = _pipeline(args)
    values = run_stages(run, manifest, params, first="matrices", last="matrices")
    # cooc.mtx is read back in full: its file stores one triangle
    X, cooc, M = values["X.mtx"], values["cooc.mtx"], values["M.mtx"]
    print(
        f"X {X.shape} ({X.nnz} nnz), cooc {cooc.shape} ({cooc.nnz} nnz), "
        f"M {M.shape} ({M.nnz} nnz) -> {run.workspace}"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    run, manifest, params = _pipeline(args)
    values = run_stages(run, manifest, params, resume=args.resume)
    x, m, joint = (values[f"selection_{side}.json"] for side in ("x", "m", "joint"))
    doc_ids, _, max_weights = values["assignments.csv"]
    zero_documents = len(zero_weight_documents(max_weights))
    flags = []
    if any(report.fallback for report in (x, m, joint)):
        flags.append("fallback rank selection")
    if zero_documents:
        flags.append(f"{zero_documents} all-zero document columns")
    note = f" ({'; '.join(flags)})" if flags else ""
    print(
        f"k1={x.chosen_k} k2={m.chosen_k} k={joint.chosen_k}; "
        f"{len(doc_ids)} documents -> {run.workspace}{note}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise CliUsage(f"--top must be >= 1, got {args.top}")
    workspace = _workspace(args)
    paths = [workspace / name for name in ("topics.json", "assignments.csv", "histogram.csv")]
    for path in paths:
        if not path.is_file():
            raise DataError(f"{path} missing: run 'run' first")
    topics = storage.read_topics(paths[0])
    _, topic_ids, _ = storage.read_assignments(paths[1])
    counts = np.bincount(topic_ids, minlength=len(topics))
    if len(counts) > len(topics):
        raise DataError(f"{paths[1]}: topic_id {len(counts) - 1}, but {len(topics)} topics")
    print(f"{len(topics)} topics over {len(topic_ids)} documents")
    print(f"{'topic':>5}  {'docs':>6}  top words")
    for topic_id, ranked in enumerate(topics):
        words = ", ".join(term for term, _ in ranked[:args.top])
        print(f"{topic_id:>5}  {counts[topic_id]:>6}  {words}")
    print(f"histogram: {paths[2]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SenmfkError, OSError) as exc:
        cause = exc.cause if isinstance(exc, PipelineStageError) else exc
        print(f"error: {type(cause).__name__}: {exc}", file=sys.stderr)
        if isinstance(cause, MemoryError):
            return 4
        return 2 if isinstance(cause, (DataError, OSError)) else 3


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
