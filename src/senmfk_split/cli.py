"""Batch command-line front end.

Four subcommands mirror the pipeline stages:

    senmfk preprocess INPUT --workspace DIR   corpus.jsonl + vocab.txt
    senmfk matrices --workspace DIR           X.mtx, cooc.mtx, M.mtx
    senmfk run INPUT --workspace DIR          everything through topics.json
    senmfk report --workspace DIR             topic table + histogram summary

Configuration comes from defaults, then an optional flat key=value config
file (``run --config``), then flags; flags win.  Every run writes a
manifest.json capturing parameters, seeds, digests, and stage timings;
``run --resume`` skips stages whose recorded parameters, inputs, and outputs
all still match.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .errors import (
    DataError,
    NumericalError,
    PipelineStageError,
    SenmfkError,
)
from .manifest import RunManifest, sha256_file, sha256_text
from .matrix_builder import SemanticConfig
from .model_selection import SelectionConfig, child_seed
from .nmf_core import NmfConfig
from .split_pipeline import (
    SplitConfig,
    assign_documents,
    build_matrices,
    prepare_corpus,
    resolve_joint_selection,
    stage_export,
    stage_factorize_m,
    stage_factorize_x,
    stage_joint,
    stage_regression,
)
from .text_pipeline import (
    PipelineConfig,
    default_stopwords,
    load_jsonl_corpus,
    load_stopwords,
    load_vocabulary,
)
from . import storage

WORKSPACE_ENV = "SENMFK_WORKSPACE"

_DEFAULTS: dict[str, Any] = {
    "min-doc-tokens": 20,
    "min-df": 5,
    "max-df": 0.5,
    "window": 100,
    "shift": 4.0,
    "kx-min": 2,
    "kx-max": 10,
    "km-min": 2,
    "km-max": 10,
    "kj-min": None,
    "kj-max": None,
    "perturbations": 10,
    "delta": 0.03,
    "sil-threshold": 0.75,
    "seed": 42,
    "threads": 1,
    "top-n-words": 20,
    "max-iter": 1000,
    "tol": 1e-6,
}

_COERCERS: dict[str, Callable[[str], Any]] = {
    "min-doc-tokens": int,
    "min-df": int,
    "max-df": float,
    "window": int,
    "shift": float,
    "kx-min": int,
    "kx-max": int,
    "km-min": int,
    "km-max": int,
    "kj-min": int,
    "kj-max": int,
    "perturbations": int,
    "delta": float,
    "sil-threshold": float,
    "seed": int,
    "threads": int,
    "top-n-words": int,
    "max-iter": int,
    "tol": float,
}


class CliUsage(Exception):
    """Raised instead of argparse's sys.exit so usage errors map to code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsage(f"{self.prog}: {message}")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text("utf-8").splitlines(), start=1):
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


def _resolve(key: str, flags: argparse.Namespace, file_cfg: dict[str, str]) -> Any:
    attr = key.replace("-", "_")
    flag_value = getattr(flags, attr, None)
    if flag_value is not None:
        return flag_value
    if key in file_cfg:
        try:
            return _COERCERS[key](file_cfg[key])
        except ValueError as exc:
            raise DataError(f"config key {key!r}: {exc}") from exc
    return _DEFAULTS[key]


class Settings:
    """All resolved parameters for one invocation."""

    def __init__(self, flags: argparse.Namespace, file_cfg: dict[str, str]):
        for key in _DEFAULTS:
            setattr(self, key.replace("-", "_"), _resolve(key, flags, file_cfg))
        self.stopwords_path = getattr(flags, "stopwords", None)
        self.pre_tokenized = bool(getattr(flags, "pre_tokenized", False))
        if self.stopwords_path:
            self.stopwords = load_stopwords(self.stopwords_path)
        else:
            self.stopwords = default_stopwords()

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(
            min_doc_tokens=self.min_doc_tokens,
            min_df=self.min_df,
            max_df_ratio=self.max_df,
            stopwords=self.stopwords,
        )

    def semantic_config(self) -> SemanticConfig:
        return SemanticConfig(window=self.window, shift=self.shift)

    def _nmf(self, tag: int) -> NmfConfig:
        return NmfConfig(
            max_iter=self.max_iter,
            tol=self.tol,
            seed=child_seed(self.seed, tag),
        )

    def selection_x(self) -> SelectionConfig:
        return SelectionConfig(
            k_min=self.kx_min,
            k_max=self.kx_max,
            n_perturbations=self.perturbations,
            delta=self.delta,
            silhouette_threshold=self.sil_threshold,
            nmf=self._nmf(1),
        )

    def selection_m(self) -> SelectionConfig:
        return SelectionConfig(
            k_min=self.km_min,
            k_max=self.km_max,
            n_perturbations=self.perturbations,
            delta=self.delta,
            silhouette_threshold=self.sil_threshold,
            nmf=self._nmf(2),
        )

    def selection_joint(self) -> SelectionConfig | None:
        if self.kj_min is None and self.kj_max is None:
            return None
        if self.kj_min is None or self.kj_max is None:
            raise CliUsage("set both --kj-min and --kj-max or neither")
        return SelectionConfig(
            k_min=self.kj_min,
            k_max=self.kj_max,
            n_perturbations=self.perturbations,
            delta=self.delta,
            silhouette_threshold=self.sil_threshold,
            nmf=self._nmf(3),
        )

    def split_config(self) -> SplitConfig:
        return SplitConfig(
            selection_x=self.selection_x(),
            selection_m=self.selection_m(),
            selection_joint=self.selection_joint(),
            top_n_words=self.top_n_words,
            pipeline=self.pipeline_config(),
            semantic=self.semantic_config(),
            threads=self.threads,
        )

    def snapshot(self) -> dict[str, Any]:
        cfg = {key: getattr(self, key.replace("-", "_")) for key in _DEFAULTS}
        cfg["stopwords_digest"] = sha256_text("\n".join(sorted(self.stopwords)))
        cfg["pre_tokenized"] = self.pre_tokenized
        return cfg


def _workspace(args: argparse.Namespace) -> Path:
    ws = args.workspace or os.environ.get(WORKSPACE_ENV)
    if not ws:
        raise CliUsage(f"no workspace: pass --workspace or set {WORKSPACE_ENV}")
    path = Path(ws)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_manifest(workspace: Path, settings: Settings) -> RunManifest:
    path = workspace / "manifest.json"
    if path.is_file():
        manifest = RunManifest.load(path)
        manifest.version = __version__
        manifest.config = settings.snapshot()
        return manifest
    return RunManifest(version=__version__, config=settings.snapshot())


def _digests(workspace: Path, *names: str) -> dict[str, str]:
    return {name: sha256_file(workspace / name) for name in names}


def _add_common_flags(p: argparse.ArgumentParser, preprocessing=False, matrices=False, model=False):
    p.add_argument("--workspace", help=f"workspace directory (default ${WORKSPACE_ENV})")
    if preprocessing:
        p.add_argument("--min-doc-tokens", type=int)
        p.add_argument("--min-df", type=int)
        p.add_argument("--max-df", type=float)
        p.add_argument("--stopwords", help="custom stopword file, one term per line")
        p.add_argument(
            "--pre-tokenized",
            action="store_true",
            default=False,
            help="input documents carry a 'tokens' list instead of raw 'text'",
        )
    if matrices:
        p.add_argument("--window", type=int)
        p.add_argument("--shift", type=float)
    if model:
        p.add_argument("--kx-min", type=int)
        p.add_argument("--kx-max", type=int)
        p.add_argument("--km-min", type=int)
        p.add_argument("--km-max", type=int)
        p.add_argument("--kj-min", type=int)
        p.add_argument("--kj-max", type=int)
        p.add_argument("--perturbations", type=int)
        p.add_argument("--delta", type=float)
        p.add_argument("--sil-threshold", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--top-n-words", type=int)
        p.add_argument("--max-iter", type=int)
        p.add_argument("--tol", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="senmfk", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"senmfk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("preprocess", help="tokenize, filter, and build the vocabulary")
    p.add_argument("input", help="JSON-lines corpus file")
    _add_common_flags(p, preprocessing=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("matrices", help="build TF-IDF, co-occurrence, and SPPMI matrices")
    _add_common_flags(p, matrices=True)
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
    _add_common_flags(p, preprocessing=True, matrices=True, model=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="print the topic table and histogram")
    p.add_argument("--top", type=int, default=5, help="words per topic (default 5)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_report)
    return parser


def _settings(args: argparse.Namespace) -> Settings:
    file_cfg: dict[str, str] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        file_cfg = parse_config_file(config_path)
    try:
        return Settings(args, file_cfg)
    except ValueError as exc:
        raise CliUsage(str(exc)) from exc


def cmd_preprocess(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    settings = _settings(args)
    manifest = _load_manifest(workspace, settings)
    start = time.perf_counter()
    corpus, vocab = prepare_corpus(
        args.input, settings.pipeline_config(), workspace, settings.pre_tokenized
    )
    manifest.input_digests["input"] = sha256_file(args.input)
    manifest.record(
        "preprocess",
        params=_preprocess_params(settings),
        inputs={"input": manifest.input_digests["input"]},
        outputs=_digests(workspace, "corpus.jsonl", "vocab.txt"),
        seconds=time.perf_counter() - start,
    )
    manifest.save(workspace / "manifest.json")
    print(f"{len(corpus)} documents, {len(vocab)} terms -> {workspace}")
    return 0


def cmd_matrices(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    settings = _settings(args)
    for required in ("corpus.jsonl", "vocab.txt"):
        if not (workspace / required).is_file():
            raise DataError(f"{workspace / required} missing: run 'preprocess' first")
    manifest = _load_manifest(workspace, settings)
    corpus = load_jsonl_corpus(workspace / "corpus.jsonl", pre_tokenized=True)
    vocab = load_vocabulary(workspace / "vocab.txt")
    start = time.perf_counter()
    X, cooc, M = build_matrices(corpus, vocab, settings.semantic_config(), workspace)
    manifest.record(
        "matrices",
        params={"window": settings.window, "shift": settings.shift},
        inputs=_digests(workspace, "corpus.jsonl", "vocab.txt"),
        outputs=_digests(workspace, "X.mtx", "cooc.mtx", "M.mtx"),
        seconds=time.perf_counter() - start,
    )
    manifest.save(workspace / "manifest.json")
    print(
        f"X {X.shape} ({X.nnz} nnz), cooc {cooc.shape} ({cooc.nnz} nnz), "
        f"M {M.shape} ({M.nnz} nnz) -> {workspace}"
    )
    return 0


def _preprocess_params(settings: Settings) -> dict[str, Any]:
    return {
        "min_doc_tokens": settings.min_doc_tokens,
        "min_df": settings.min_df,
        "max_df_ratio": settings.max_df,
        "stopwords_digest": sha256_text("\n".join(sorted(settings.stopwords))),
        "pre_tokenized": settings.pre_tokenized,
    }


def _selection_params(sel: SelectionConfig) -> dict[str, Any]:
    return {
        "k_min": sel.k_min,
        "k_max": sel.k_max,
        "n_perturbations": sel.n_perturbations,
        "delta": sel.delta,
        "silhouette_threshold": sel.silhouette_threshold,
        "max_iter": sel.nmf.max_iter,
        "tol": sel.nmf.tol,
        "epsilon": sel.nmf.epsilon,
        "seed": sel.nmf.seed,
    }


def cmd_run(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    settings = _settings(args)
    split_cfg = settings.split_config()
    manifest_path = workspace / "manifest.json"
    previous = (
        RunManifest.load(manifest_path)
        if args.resume and manifest_path.is_file()
        else RunManifest(version=__version__, config={})
    )
    manifest = RunManifest(version=__version__, config=settings.snapshot())
    input_digest = sha256_file(args.input)
    manifest.input_digests["input"] = input_digest

    def run_stage(name, params, inputs, outputs, compute, load):
        start = time.perf_counter()
        if args.resume and previous.can_skip(name, params, inputs, workspace):
            value = load()
            resumed = True
        else:
            value = compute()
            resumed = False
        manifest.record(
            name,
            params=params,
            inputs=inputs,
            outputs=_digests(workspace, *outputs),
            seconds=time.perf_counter() - start,
            resumed=resumed,
        )
        return value

    corpus, vocab = run_stage(
        "preprocess",
        params=_preprocess_params(settings),
        inputs={"input": input_digest},
        outputs=("corpus.jsonl", "vocab.txt"),
        compute=lambda: prepare_corpus(
            args.input, split_cfg.pipeline, workspace, settings.pre_tokenized
        ),
        load=lambda: _load_corpus_vocab(workspace),
    )
    X, _cooc, M = run_stage(
        "matrices",
        params={"window": settings.window, "shift": settings.shift},
        inputs=_digests(workspace, "corpus.jsonl", "vocab.txt"),
        outputs=("X.mtx", "cooc.mtx", "M.mtx"),
        compute=lambda: build_matrices(corpus, vocab, split_cfg.semantic, workspace),
        load=lambda: (
            storage.read_sparse(workspace / "X.mtx"),
            storage.read_sparse(workspace / "cooc.mtx"),
            storage.read_sparse(workspace / "M.mtx"),
        ),
    )
    W1, _H1, report_x = run_stage(
        "factorize_x",
        params=_selection_params(split_cfg.selection_x),
        inputs=_digests(workspace, "X.mtx"),
        outputs=("W1.mtx", "H1.mtx", "selection_x.json"),
        compute=lambda: stage_factorize_x(
            X, split_cfg.selection_x, workspace, split_cfg.threads
        ),
        load=lambda: _load_factorization(workspace, "W1.mtx", "H1.mtx", "selection_x.json"),
    )
    W2, _H2, report_m = run_stage(
        "factorize_m",
        params=_selection_params(split_cfg.selection_m),
        inputs=_digests(workspace, "M.mtx"),
        outputs=("W2.mtx", "H2.mtx", "selection_m.json"),
        compute=lambda: stage_factorize_m(
            M, split_cfg.selection_m, workspace, split_cfg.threads
        ),
        load=lambda: _load_factorization(workspace, "W2.mtx", "H2.mtx", "selection_m.json"),
    )
    selection_joint = resolve_joint_selection(
        split_cfg, W1.shape[1], W2.shape[1], X.shape[0]
    )
    W, _Hstar, report_joint = run_stage(
        "joint",
        params=_selection_params(selection_joint),
        inputs=_digests(workspace, "W1.mtx", "W2.mtx"),
        outputs=("W.mtx", "Hstar.mtx", "selection_joint.json"),
        compute=lambda: stage_joint(
            W1, W2, selection_joint, workspace, split_cfg.threads
        ),
        load=lambda: _load_factorization(workspace, "W.mtx", "Hstar.mtx", "selection_joint.json"),
    )
    H = run_stage(
        "regression",
        params={"max_iter": split_cfg.selection_x.nmf.max_iter, "tol": split_cfg.selection_x.nmf.tol, "seed": split_cfg.selection_x.nmf.seed},
        inputs=_digests(workspace, "X.mtx", "W.mtx"),
        outputs=("H.mtx",),
        compute=lambda: stage_regression(X, W, split_cfg.selection_x.nmf, workspace),
        load=lambda: storage.read_dense(workspace / "H.mtx"),
    )
    result, _topics = run_stage(
        "export",
        params={"top_n_words": split_cfg.top_n_words},
        inputs=_digests(workspace, "H.mtx", "W.mtx", "vocab.txt", "corpus.jsonl"),
        outputs=("topics.json", "assignments.csv", "histogram.csv"),
        compute=lambda: stage_export(
            H, W, vocab, corpus, split_cfg.top_n_words, workspace
        ),
        load=lambda: _load_export(workspace, H),
    )
    manifest.save(manifest_path)
    flags = []
    if report_x.fallback or report_m.fallback or report_joint.fallback:
        flags.append("fallback rank selection")
    if result.zero_columns:
        flags.append(f"{len(result.zero_columns)} all-zero document columns")
    note = f" ({'; '.join(flags)})" if flags else ""
    print(
        f"k1={report_x.chosen_k} k2={report_m.chosen_k} k={report_joint.chosen_k}; "
        f"{len(corpus)} documents -> {workspace}{note}"
    )
    return 0


def _load_corpus_vocab(workspace: Path):
    corpus = load_jsonl_corpus(workspace / "corpus.jsonl", pre_tokenized=True)
    vocab = load_vocabulary(workspace / "vocab.txt")
    return corpus, vocab


def _load_factorization(workspace: Path, w_name: str, h_name: str, report_name: str):
    W = storage.read_dense(workspace / w_name)
    H = storage.read_dense(workspace / h_name)
    report = storage.read_selection_report(workspace / report_name, W)
    return W, H, report


def _load_export(workspace: Path, H: np.ndarray):
    """The export stage's results without rewriting it: assignments, counts
    and zero columns follow from the loaded H, topics from topics.json."""
    return assign_documents(H), storage.read_topics(workspace / "topics.json")


def cmd_report(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    topics_path = workspace / "topics.json"
    histogram_path = workspace / "histogram.csv"
    for path in (topics_path, histogram_path):
        if not path.is_file():
            raise DataError(f"{path} missing: run 'run' first")
    topics = storage.read_topics(topics_path)
    histogram = dict(storage.read_histogram(histogram_path))
    total = sum(histogram.values())
    top = max(args.top, 1)
    print(f"{len(topics)} topics over {total} documents")
    print(f"{'topic':>5}  {'docs':>6}  top words")
    for topic_id, ranked in enumerate(topics):
        words = ", ".join(term for term, _ in ranked[:top])
        print(f"{topic_id:>5}  {histogram.get(topic_id, 0):>6}  {words}")
    print(f"histogram: {histogram_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except CliUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PipelineStageError as exc:
        cause = exc.cause
        code = 2 if isinstance(cause, (DataError, OSError)) else 3
        print(f"error: {type(cause).__name__}: {exc}", file=sys.stderr)
        return code
    except DataError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except SenmfkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
