"""End-to-end split factorization pipeline.

The term-document matrix X and the word-context matrix M are factorized
separately (each with its own automatic rank selection), their normalized
topic bases are concatenated and factorized once more to merge co-linear
factors into k common topics, and document coordinates are recovered by a
final non-negative regression of X onto the merged basis.  The three
factorizations share one body and save W, H and the selection report under a
named file triple (:data:`FACTORS_X`, :data:`FACTORS_M`, :data:`FACTORS_JOINT`).

The pipeline is written once, as the stage list :data:`STAGES`: preprocess,
matrices, factorize_x, factorize_m, joint, regression and export.  Each
:class:`Stage` names its input and output files and the module-level function
of the :class:`PipelineRun` that computes it (``prepare_corpus``,
``build_matrices``, ``stage_*``, looked up by name).
Values are named by their files: ``run.values["W1.mtx"]`` is the X-side
basis, ``run.values["assignments.csv"]`` the doc ids, each document's topic
and its max weight, and a value the run did not compute is read from its file
when it is first used, by :func:`_read`, which picks the reader by the file's
kind: a ``.mtx`` file is a sparse matrix when the ``matrices`` stage wrote it
and a dense factor otherwise, a ``selection_*.json`` file a selection report,
and ``corpus.jsonl``, ``vocab.txt``, ``topics.json`` and ``assignments.csv``
have a reader each.  ``histogram.csv`` restates the per-topic counts of
``assignments.csv`` and is never read back.
:func:`run_stages` runs a slice of the list for every entry point:
:func:`run_split` runs all stages without a manifest; the CLI runs all or one
with each stage's settings and a manifest, so a run can be audited and
resumed after the last stage that finished.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import (
    DataError,
    DegenerateBasis,
    PipelineStageError,
    SenmfkError,
    ShapeMismatch,
    check_count,
)
from .manifest import RunManifest, sha256_file
from .matrix_builder import (
    SemanticConfig,
    _check_nonnegative,
    build_tfidf,
    cooccurrence_triangle,
    map_term_ids,
    mirror_triangle,
    sppmi_triangle,
)
from .model_selection import (
    SelectionConfig,
    SelectionReport,
    child_seed,
    nmfk,
    normalize_columns,
)
from .nmf_core import NmfConfig, solve_h
from .text_pipeline import (
    PipelineConfig,
    Vocabulary,
    build_vocabulary,
    drop_empty_documents,
    filter_documents,
    load_jsonl_corpus,
    load_vocabulary,
    save_jsonl_corpus,
    save_vocabulary,
)
from . import storage

INPUT = "input"  # the corpus file: the one stage input outside the workspace
MANIFEST = "manifest.json"
# The files of a factorization stage: basis W, coefficients H, selection report.
FACTORS_X = ("W1.mtx", "H1.mtx", "selection_x.json")
FACTORS_M = ("W2.mtx", "H2.mtx", "selection_m.json")
FACTORS_JOINT = ("W.mtx", "Hstar.mtx", "selection_joint.json")
FACTORS = (FACTORS_X, FACTORS_M, FACTORS_JOINT)
# A factorization: basis W, coefficients H, and the rank scan behind them.
Factors = tuple[np.ndarray, np.ndarray, SelectionReport]


@dataclass(frozen=True)
class SplitConfig:
    """Pipeline configuration.

    ``selection_joint`` may be None, in which case the merge scan range is
    derived at run time from the selected ranks k1 and k2 (see
    :func:`default_joint_range`).
    """

    selection_x: SelectionConfig
    selection_m: SelectionConfig
    selection_joint: SelectionConfig | None = None
    top_n_words: int = 20
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    semantic: SemanticConfig = field(default_factory=SemanticConfig)

    def __post_init__(self):
        check_count(self.top_n_words, "top_n_words", 1)


@dataclass
class TopicModel:
    """Final factors plus everything needed to inspect the run."""

    W: np.ndarray
    H: np.ndarray
    assignments: np.ndarray
    topics: list[list[tuple[str, float]]]
    k1: int
    k2: int
    k: int
    reports: dict[str, SelectionReport]
    doc_ids: list[str]
    histogram: np.ndarray
    zero_documents: tuple[int, ...] = ()

    @classmethod
    def from_stages(cls, values: dict[str, Any]) -> TopicModel:
        """The model from the values of a full :func:`run_stages` run."""
        W, H = values["W.mtx"], values["H.mtx"]
        doc_ids, assignments, max_weights = values["assignments.csv"]
        return cls(
            W=W,
            H=H,
            assignments=assignments,
            topics=values["topics.json"],
            k1=values["W1.mtx"].shape[1],
            k2=values["W2.mtx"].shape[1],
            k=W.shape[1],
            reports={
                side: replace(values[report], consensus_W=values[w], consensus_H=values[h])
                for side, (w, h, report) in zip(("x", "m", "joint"), FACTORS)
            },
            doc_ids=doc_ids,
            histogram=np.bincount(assignments, minlength=W.shape[1]),
            zero_documents=zero_weight_documents(max_weights),
        )


@dataclass(frozen=True)
class AssignmentResult:
    assignments: np.ndarray
    counts: np.ndarray
    max_weights: np.ndarray
    zero_columns: tuple[int, ...]


def _factorize(A, selection: SelectionConfig) -> Factors:
    """Rank-select with NMFk and take the chosen rank's consensus basis and
    the H the scan solved for it; DegenerateBasis if it has a zero column."""
    report = nmfk(A, selection)
    if report.consensus_H is None:
        raise DegenerateBasis(f"rank-{report.chosen_k} consensus basis has an all-zero column")
    return report.consensus_W, report.consensus_H, report


def factorize_x(X, selection: SelectionConfig) -> Factors:
    """Rank-select and factorize the term-document matrix."""
    return _factorize(X, selection)


def factorize_m(M, selection: SelectionConfig) -> Factors:
    """Rank-select and factorize the word-context matrix.  M is symmetric,
    so :func:`nmf_core.perturb` mirrors its draws and every ensemble member
    stays symmetric."""
    return _factorize(M, selection)


def concat_normalized(W1: np.ndarray, W2: np.ndarray) -> np.ndarray:
    """Concatenate the two topic bases column-wise (W1 first) after scaling
    every column to unit L2 norm."""
    W1 = np.asarray(W1, dtype=np.float64)
    W2 = np.asarray(W2, dtype=np.float64)
    if W1.ndim != 2 or W2.ndim != 2 or W1.shape[0] != W2.shape[0]:
        raise ShapeMismatch(f"row counts differ: {W1.shape} vs {W2.shape}")
    return np.hstack([normalize_columns(W1), normalize_columns(W2)])


def default_joint_range(k1: int, k2: int) -> tuple[int, int]:
    """Merge scan range: the merged rank cannot exceed k1 + k2 and rarely
    falls below the smaller part, so scan [max(2, min(k1, k2)), k1 + k2].
    When one side already collapsed to a single topic the range is widened to
    include k = 1, otherwise a rank-1 merge could never be selected."""
    lo = 1 if min(k1, k2) == 1 else max(2, min(k1, k2))
    return lo, k1 + k2


def joint_factorize(Wcat: np.ndarray, selection: SelectionConfig) -> Factors:
    """Factorize the concatenated basis to merge co-linear topics.

    The scan is clamped to [1, min(rows, cols)] of Wcat, which enforces the
    k <= k1 + k2 bound.  Returns the merged basis W, the mixing matrix H*
    from regressing Wcat onto W, and the selection report.
    """
    Wcat = np.asarray(Wcat, dtype=np.float64)
    if Wcat.ndim != 2:
        raise ShapeMismatch("Wcat must be 2-D")
    _check_nonnegative(Wcat, "Wcat")
    k_max = min(selection.k_max, min(Wcat.shape))
    selection = replace(selection, k_min=min(selection.k_min, k_max), k_max=k_max)
    return _factorize(Wcat, selection)


def final_regression(X, W: np.ndarray, config: NmfConfig | None = None) -> np.ndarray:
    """Document coordinates in the merged topic space: fixed-W non-negative
    regression of the original term-document matrix."""
    config = config or NmfConfig()
    return solve_h(X, W, replace(config, seed=child_seed(config.seed, 11)))


def zero_weight_documents(max_weights: np.ndarray) -> tuple[int, ...]:
    """The documents whose largest topic weight is 0: for a non-negative H,
    exactly its all-zero columns."""
    return tuple(int(j) for j in np.flatnonzero(max_weights == 0))


def assign_documents(H: np.ndarray) -> AssignmentResult:
    """Argmax topic per document column of a non-negative H; ties go to the
    smallest topic index.  All-zero columns land on topic 0 and are reported
    in ``zero_columns``.  Also returns the per-topic document counts and each
    document's weight on its topic."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2:
        raise ShapeMismatch("H must be 2-D")
    assignments = np.argmax(H, axis=0)
    max_weights = H[assignments, np.arange(H.shape[1])]
    return AssignmentResult(
        assignments=assignments,
        counts=np.bincount(assignments, minlength=H.shape[0]),
        max_weights=max_weights,
        zero_columns=zero_weight_documents(max_weights),
    )


def top_words(
    W: np.ndarray, vocab: Vocabulary, top_n: int
) -> list[list[tuple[str, float]]]:
    """Per topic: terms ranked by descending weight, ties lexicographic,
    truncated to min(top_n, vocabulary size)."""
    check_count(top_n, "top_n", 1)
    W = np.asarray(W, dtype=np.float64)
    m = len(vocab)
    if W.ndim != 2 or W.shape[0] != m:
        raise ShapeMismatch(f"W has {W.shape[0]} rows but vocabulary has {m} terms")
    limit = min(top_n, m)
    ranked = []
    for t in range(W.shape[1]):
        order = sorted(zip(vocab.terms, W[:, t]), key=lambda p: (-p[1], p[0]))
        ranked.append([(term, float(w)) for term, w in order[:limit]])
    return ranked


@contextmanager
def stage_scope(name: str):
    """Wrap a :class:`SenmfkError` or a ``MemoryError`` raised inside stage
    ``name`` in a :class:`PipelineStageError` naming the stage."""
    try:
        yield
    except PipelineStageError:
        raise
    except (SenmfkError, MemoryError) as exc:
        raise PipelineStageError(name, exc) from exc


def prepare_corpus(r: PipelineRun) -> None:
    """Stage 1: load, filter, build the vocabulary, drop documents that end
    up with no in-vocabulary tokens; persist corpus.jsonl and vocab.txt.
    An input that is the workspace's own corpus.jsonl is a DataError."""
    if Path(r.corpus_path).resolve() == r.path("corpus.jsonl").resolve():
        raise DataError(f"{r.corpus_path}: the input is the workspace's own corpus.jsonl")
    raw = load_jsonl_corpus(r.corpus_path)
    corpus = filter_documents(raw, r.config.pipeline)
    vocab = build_vocabulary(corpus, r.config.pipeline)
    corpus = drop_empty_documents(corpus, vocab)
    save_jsonl_corpus(corpus, r.path("corpus.jsonl"))
    save_vocabulary(vocab, r.path("vocab.txt"))
    r.values.update({"corpus.jsonl": corpus, "vocab.txt": vocab})


def build_matrices(r: PipelineRun) -> None:
    """Stage 2: TF-IDF X, co-occurrence counts, and the SPPMI matrix M.  The
    counts are only written to the workspace; X and M are also kept.  Each
    is written as soon as it exists, the symmetric two from their lower
    triangles, and the counts dropped before M is made whole.  The corpus
    is mapped to term ids once, for both builders."""
    corpus, vocab = r.values["corpus.jsonl"], r.values["vocab.txt"]
    term_ids = map_term_ids(corpus, vocab.index_of)
    X = build_tfidf(corpus, vocab, term_ids=term_ids)
    storage.write_sparse(X, r.path("X.mtx"))
    cooc = cooccurrence_triangle(corpus, vocab, r.config.semantic, term_ids=term_ids)
    del term_ids
    storage.write_symmetric(cooc, r.path("cooc.mtx"))
    M = sppmi_triangle(cooc, r.config.semantic.shift)
    del cooc
    storage.write_symmetric(M, r.path("M.mtx"))
    r.values.update({"X.mtx": X, "M.mtx": mirror_triangle(M)})


def _write_factorization(r: PipelineRun, result: Factors, names: tuple[str, str, str]) -> None:
    W, H, report = result
    storage.write_dense(W, r.path(names[0]))
    storage.write_dense(H, r.path(names[1]))
    storage.write_selection_report(report, r.path(names[2]))
    r.values.update(zip(names, (W, H, replace(report, consensus_W=None, consensus_H=None))))


def stage_factorize_x(r: PipelineRun) -> None:
    result = factorize_x(r.values["X.mtx"], r.config.selection_x)
    _write_factorization(r, result, FACTORS_X)


def stage_factorize_m(r: PipelineRun) -> None:
    result = factorize_m(r.values["M.mtx"], r.config.selection_m)
    _write_factorization(r, result, FACTORS_M)


def stage_joint(r: PipelineRun) -> None:
    """The merge scan with the explicit selection config if given, otherwise
    with a copy of the X-side parameters over :func:`default_joint_range` of
    the selected ranks k1, k2."""
    W1, W2 = r.values["W1.mtx"], r.values["W2.mtx"]
    selection = r.config.selection_joint
    if selection is None:
        lo, hi = default_joint_range(W1.shape[1], W2.shape[1])
        x = r.config.selection_x
        nmf = replace(x.nmf, seed=child_seed(x.nmf.seed, 3))
        selection = replace(x, k_min=lo, k_max=hi, nmf=nmf)
    _write_factorization(r, joint_factorize(concat_normalized(W1, W2), selection), FACTORS_JOINT)


def stage_regression(r: PipelineRun) -> None:
    H = final_regression(r.values["X.mtx"], r.values["W.mtx"], r.config.selection_x.nmf)
    storage.write_dense(H, r.path("H.mtx"))
    r.values["H.mtx"] = H


def stage_export(r: PipelineRun) -> None:
    result = assign_documents(r.values["H.mtx"])
    topics = top_words(r.values["W.mtx"], r.values["vocab.txt"], r.config.top_n_words)
    table = r.values["corpus.jsonl"].ids(), result.assignments, result.max_weights
    storage.write_topics(topics, r.path("topics.json"))
    storage.write_assignments(*table, r.path("assignments.csv"))
    storage.write_histogram(result.counts, r.path("histogram.csv"))
    r.values.update({"topics.json": topics, "assignments.csv": table})


@dataclass(frozen=True)
class Stage:
    """One entry of the stage list.

    ``inputs`` and ``outputs`` name the files whose digests the manifest
    records (names are workspace files, except :data:`INPUT`).  ``compute``
    takes the :class:`PipelineRun`, reads from ``run.values`` only the
    values its ``inputs`` name, writes its outputs and keeps their values
    there (all but ``cooc.mtx``, and ``histogram.csv``, which nothing reads
    back)."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    compute: Callable[[PipelineRun], None]


class Deferred(dict):
    """A dict that reads a missing key on first use with ``read(key)`` and
    keeps the value."""

    def __init__(self, read: Callable[[str], Any]):
        super().__init__()
        self._read = read

    def __missing__(self, key: str) -> Any:
        value = self[key] = self._read(key)
        return value


@dataclass
class PipelineRun:
    """One execution of the stage list: its configuration, its workspace,
    the corpus it reads, and the value of every workspace file by name."""

    config: SplitConfig
    workspace: Path
    corpus_path: str | Path | None = None
    values: Deferred = field(init=False)

    def __post_init__(self):
        self.values = Deferred(lambda name: _read(self, name))

    def path(self, name: str) -> Path:
        return Path(self.corpus_path) if name == INPUT else self.workspace / name


# The stage bodies are looked up as module globals when a stage runs, so a
# rebinding of e.g. ``split_pipeline.stage_joint`` takes effect.
STAGES: tuple[Stage, ...] = (
    Stage(
        "preprocess",
        inputs=(INPUT,),
        outputs=("corpus.jsonl", "vocab.txt"),
        compute=lambda r: prepare_corpus(r),
    ),
    Stage(
        "matrices",
        inputs=("corpus.jsonl", "vocab.txt"),
        outputs=("X.mtx", "cooc.mtx", "M.mtx"),
        compute=lambda r: build_matrices(r),
    ),
    Stage("factorize_x", ("X.mtx",), FACTORS_X, lambda r: stage_factorize_x(r)),
    Stage("factorize_m", ("M.mtx",), FACTORS_M, lambda r: stage_factorize_m(r)),
    Stage("joint", ("W1.mtx", "W2.mtx"), FACTORS_JOINT, lambda r: stage_joint(r)),
    Stage("regression", ("X.mtx", "W.mtx"), ("H.mtx",), lambda r: stage_regression(r)),
    Stage(
        "export",
        inputs=("H.mtx", "W.mtx", "vocab.txt", "corpus.jsonl"),
        outputs=("topics.json", "assignments.csv", "histogram.csv"),
        compute=lambda r: stage_export(r),
    ),
)
_WRITER = {name: stage for stage in STAGES for name in stage.outputs}


def _read(run: PipelineRun, name: str) -> Any:
    """The value of workspace file ``name``, read by its kind inside
    :func:`stage_scope` of the stage whose outputs hold it, so an error names
    that stage.  A ``.mtx`` file is sparse when ``matrices`` wrote it and a
    dense factor otherwise, a ``selection_*`` file is a selection report, and
    the four text files have a reader each; any other name raises KeyError.
    The readers are looked up when called, so a rebinding takes effect."""
    stage = _WRITER[name]
    if name.endswith(".mtx"):
        read = storage.read_sparse if stage.name == "matrices" else storage.read_dense
    elif name.startswith("selection_"):
        read = storage.read_selection_report
    else:
        read = {
            "corpus.jsonl": load_jsonl_corpus,
            "vocab.txt": load_vocabulary,
            "topics.json": storage.read_topics,
            "assignments.csv": storage.read_assignments,
        }[name]
    with stage_scope(stage.name):
        return read(run.path(name))


def run_stages(
    run: PipelineRun,
    manifest: RunManifest | None = None,
    params: dict[str, dict[str, Any]] | None = None,
    resume: bool = False,
    first: str | None = None,
    last: str | None = None,
) -> dict[str, Any]:
    """Run the stages ``first``..``last`` (default: all) in list order and
    return ``run.values``.

    Earlier stages are not recorded; their outputs must exist.  Each stage
    runs inside :func:`stage_scope`.  Without a manifest nothing is digested
    or recorded.  With one, each stage run replaces its record there with
    ``params[stage name]``, the settings the stage uses (a stage not reached
    keeps its record).  The manifest is saved to the workspace after each
    computed stage, and at the end if a stage was resumed since; with
    ``resume``, a stage that :meth:`RunManifest.can_skip` passes is resumed.
    """
    names = [stage.name for stage in STAGES]
    begin = names.index(first) if first else 0
    end = names.index(last) + 1 if last else len(STAGES)
    for stage in STAGES[:begin]:
        for name in stage.outputs:
            if not run.path(name).is_file():
                raise DataError(f"{run.path(name)} missing: run '{stage.name}' first")
    digests: dict[str, str] = {}  # files digested so far in this run
    resumed = False  # a resumed record differs from the saved one only in time
    for stage in STAGES[begin:end]:
        with stage_scope(stage.name):
            if manifest is None:
                stage.compute(run)
                continue
            start = time.perf_counter()
            settings = params[stage.name]
            inputs = {n: digests.get(n) or sha256_file(run.path(n)) for n in stage.inputs}
            resumed = resume and manifest.can_skip(
                stage.name, settings, inputs, stage.outputs, run.workspace
            )
            if resumed:
                outputs = manifest.stages[stage.name].outputs  # checked by can_skip
            else:
                stage.compute(run)
                outputs = {n: sha256_file(run.path(n)) for n in stage.outputs}
            digests.update(inputs)
            digests.update(outputs)
            manifest.record(
                stage.name,
                params=settings,
                inputs=inputs,
                outputs=outputs,
                seconds=time.perf_counter() - start,
                resumed=resumed,
            )
            if not resumed:
                manifest.save(run.workspace / MANIFEST)
    if resumed:
        manifest.save(run.workspace / MANIFEST)
    return run.values


def run_split(
    corpus_path: str | Path,
    config: SplitConfig,
    workspace: str | Path,
) -> TopicModel:
    """Execute the whole pipeline and persist every artifact (but no
    manifest) under ``workspace``.  Stage failures are re-raised as
    PipelineStageError with the stage name attached."""
    workspace = Path(workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    run = PipelineRun(config, workspace, corpus_path)
    return TopicModel.from_stages(run_stages(run))
