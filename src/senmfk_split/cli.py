"""Batch command-line front end.

Four subcommands map onto the pipeline's stage list
(:data:`senmfk_split.split_pipeline.STAGES`):

    senmfk preprocess INPUT --workspace DIR   corpus.jsonl + vocab.txt
    senmfk matrices --workspace DIR           X.mtx, cooc.mtx, M.mtx
    senmfk run INPUT --workspace DIR          everything through topics.json
    senmfk report --workspace DIR             topic table + histogram summary

``preprocess`` and ``matrices`` run their own stage and ``run`` runs every
stage, all through :func:`senmfk_split.split_pipeline.run_stages`.
Configuration comes from defaults, then an optional flat key=value config
file (``run --config``), then flags; flags win.  One table, ``_OPTIONS``,
declares every setting's default, type and flag.  Every command records its
stages in the workspace's one manifest.json (parameters, seeds, digests,
stage timings), saved after every stage; ``run --resume`` skips stages whose
recorded parameters, inputs, and outputs all still match, also after a run
that crashed midway, with these settings or others.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure,
4 out of memory inside a stage (named; ``run --resume`` continues the run).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Callable

from . import __version__
from .errors import DataError, PipelineStageError, SenmfkError
from .fileio import read_utf8
from .manifest import RunManifest, sha256_text
from .matrix_builder import SemanticConfig
from .model_selection import SelectionConfig, child_seed
from .nmf_core import NmfConfig
from .split_pipeline import MANIFEST, PipelineRun, SplitConfig, TopicModel, run_stages
from .text_pipeline import PipelineConfig, default_stopwords, load_stopwords
from . import storage

WORKSPACE_ENV = "SENMFK_WORKSPACE"

# Every setting: key (the flag without "--", and the config-file key) ->
# (default, from its config class where one has it; type; the flag group).
_OPTIONS: dict[str, tuple[Any, Callable[[str], Any], str]] = {
    "min-doc-tokens": (PipelineConfig.min_doc_tokens, int, "preprocess"),
    "min-df": (PipelineConfig.min_df, int, "preprocess"),
    "max-df": (PipelineConfig.max_df_ratio, float, "preprocess"),
    "window": (SemanticConfig.window, int, "matrices"),
    "shift": (SemanticConfig.shift, float, "matrices"),
    "kx-min": (2, int, "model"),
    "kx-max": (10, int, "model"),
    "km-min": (2, int, "model"),
    "km-max": (10, int, "model"),
    "kj-min": (None, int, "model"),
    "kj-max": (None, int, "model"),
    "perturbations": (SelectionConfig.n_perturbations, int, "model"),
    "delta": (SelectionConfig.delta, float, "model"),
    "sil-threshold": (SelectionConfig.silhouette_threshold, float, "model"),
    "seed": (NmfConfig.seed, int, "model"),
    "top-n-words": (SplitConfig.top_n_words, int, "model"),
    "max-iter": (NmfConfig.max_iter, int, "model"),
    "tol": (NmfConfig.tol, float, "model"),
}
_DEFAULTS: dict[str, Any] = {key: default for key, (default, _, _) in _OPTIONS.items()}


class CliUsage(Exception):
    """Raised instead of argparse's sys.exit so usage errors map to code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsage(f"{self.prog}: {message}")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in _DEFAULTS:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(flags: argparse.Namespace, file_cfg: dict[str, str]) -> dict[str, Any]:
    """Every setting by key: the flag if set, else the config file, else the
    default."""
    settings: dict[str, Any] = {}
    for key, (default, kind, _) in _OPTIONS.items():
        value = getattr(flags, key.replace("-", "_"), None)
        if value is None and key in file_cfg:
            try:
                value = kind(file_cfg[key])
            except ValueError as exc:
                raise DataError(f"config key {key!r}: {exc}") from exc
        settings[key] = default if value is None else value
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


def _add_flags(p: argparse.ArgumentParser, *groups: str) -> None:
    p.add_argument("--workspace", help=f"workspace directory (default ${WORKSPACE_ENV})")
    for key, (_, kind, group) in _OPTIONS.items():
        if group in groups:
            p.add_argument(f"--{key}", type=kind)
    if "preprocess" in groups:
        p.add_argument("--stopwords", help="custom stopword file, one term per line")
        p.add_argument(
            "--pre-tokenized",
            action="store_true",
            default=False,
            help="input documents carry a 'tokens' list instead of raw 'text'",
        )


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
    _add_flags(p, "preprocess", "matrices", "model")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="print the topic table and histogram")
    p.add_argument("--top", type=int, default=5, help="words per topic (default 5)")
    _add_flags(p)
    p.set_defaults(func=cmd_report)
    return parser


def _pipeline(args: argparse.Namespace, *groups: str) -> tuple[dict[str, Any], PipelineRun]:
    """The settings of the flag ``groups`` to record in the manifest (with
    ``preprocess`` also the stopword digest and the input format) and the
    pipeline run that all resolved settings configure, in the workspace
    directory, created once the settings are valid."""
    workspace = _workspace(args)
    config_path = getattr(args, "config", None)
    file_cfg = parse_config_file(config_path) if config_path else {}
    stopwords_path = getattr(args, "stopwords", None)
    pre_tokenized = bool(getattr(args, "pre_tokenized", False))
    try:
        settings = _resolve(args, file_cfg)
        stopwords = load_stopwords(stopwords_path) if stopwords_path else default_stopwords()
        config = _split_config(settings, stopwords)
    except ValueError as exc:
        raise CliUsage(str(exc)) from exc
    recorded = {key: settings[key] for key, (_, _, group) in _OPTIONS.items() if group in groups}
    if "preprocess" in groups:
        recorded["stopwords_digest"] = sha256_text("\n".join(sorted(stopwords)))
        recorded["pre_tokenized"] = pre_tokenized
    workspace.mkdir(parents=True, exist_ok=True)
    run = PipelineRun(config, workspace, getattr(args, "input", None), pre_tokenized)
    return recorded, run


def _merged_manifest(args: argparse.Namespace, *groups: str) -> tuple[PipelineRun, RunManifest]:
    """The pipeline run and the workspace's one manifest with the settings
    of this command's flag ``groups`` updated, so every command adds to the
    record of the others: their settings, and the records of stages it does
    not reach, stay.  An unreadable manifest file raises DataError."""
    settings, run = _pipeline(args, *groups)
    path = run.workspace / MANIFEST
    manifest = RunManifest.load(path) if path.is_file() else RunManifest(__version__, {})
    manifest.version = __version__
    manifest.config.update(settings)
    return run, manifest


def cmd_preprocess(args: argparse.Namespace) -> int:
    run, manifest = _merged_manifest(args, "preprocess")
    values = run_stages(run, manifest, last="preprocess")
    corpus, vocab = values["corpus.jsonl"], values["vocab.txt"]
    print(f"{len(corpus)} documents, {len(vocab)} terms -> {run.workspace}")
    return 0


def cmd_matrices(args: argparse.Namespace) -> int:
    run, manifest = _merged_manifest(args, "matrices")
    values = run_stages(run, manifest, first="matrices", last="matrices")
    # cooc.mtx is read back in full: its file stores one triangle
    X, cooc, M = values["X.mtx"], values["cooc.mtx"], values["M.mtx"]
    print(
        f"X {X.shape} ({X.nnz} nnz), cooc {cooc.shape} ({cooc.nnz} nnz), "
        f"M {M.shape} ({M.nnz} nnz) -> {run.workspace}"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    run, manifest = _merged_manifest(args, "preprocess", "matrices", "model")
    model = TopicModel.from_stages(run_stages(run, manifest, resume=args.resume))
    flags = []
    if any(report.fallback for report in model.reports.values()):
        flags.append("fallback rank selection")
    if model.zero_documents:
        flags.append(f"{len(model.zero_documents)} all-zero document columns")
    note = f" ({'; '.join(flags)})" if flags else ""
    print(
        f"k1={model.k1} k2={model.k2} k={model.k}; "
        f"{len(model.doc_ids)} documents -> {run.workspace}{note}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise CliUsage(f"--top must be >= 1, got {args.top}")
    workspace = _workspace(args)
    topics_path = workspace / "topics.json"
    histogram_path = workspace / "histogram.csv"
    for path in (topics_path, histogram_path):
        if not path.is_file():
            raise DataError(f"{path} missing: run 'run' first")
    topics = storage.read_topics(topics_path)
    histogram = dict(storage.read_histogram(histogram_path))
    total = sum(histogram.values())
    print(f"{len(topics)} topics over {total} documents")
    print(f"{'topic':>5}  {'docs':>6}  top words")
    for topic_id, ranked in enumerate(topics):
        words = ", ".join(term for term, _ in ranked[:args.top])
        print(f"{topic_id:>5}  {histogram.get(topic_id, 0):>6}  {words}")
    print(f"histogram: {histogram_path}")
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
