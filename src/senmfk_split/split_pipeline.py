"""End-to-end split factorization pipeline.

The term-document matrix X and the word-context matrix M are factorized
separately (each with its own automatic rank selection), their normalized
topic bases are concatenated and factorized once more to merge co-linear
factors into k common topics, and document coordinates are recovered by a
final non-negative regression of X onto the merged basis.  Every stage
persists its artifacts into a workspace directory so runs can be audited and
restarted stage by stage.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import (
    NonNegativityViolation,
    PipelineStageError,
    SenmfkError,
    ShapeMismatch,
)
from .matrix_builder import SemanticConfig, build_cooccurrence, build_tfidf, sppmi
from .model_selection import (
    SelectionConfig,
    SelectionReport,
    child_seed,
    nmfk,
    normalize_columns,
)
from .nmf_core import NmfConfig, solve_h
from .text_pipeline import (
    Corpus,
    PipelineConfig,
    Vocabulary,
    build_vocabulary,
    drop_empty_documents,
    filter_documents,
    load_jsonl_corpus,
    save_jsonl_corpus,
    save_vocabulary,
)
from . import storage


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
    threads: int = 1


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


@dataclass(frozen=True)
class AssignmentResult:
    assignments: np.ndarray
    counts: np.ndarray
    zero_columns: tuple[int, ...]


def factorize_x(
    X, selection: SelectionConfig, threads: int = 1
) -> tuple[np.ndarray, np.ndarray, SelectionReport]:
    """Rank-select and factorize the term-document matrix; H1 is re-solved
    against the unperturbed X with the consensus basis."""
    report = nmfk(X, selection, threads=threads)
    W1 = report.consensus_W
    H1 = solve_h(X, W1, _solver_config(selection.nmf))
    return W1, H1, report


def factorize_m(
    M, selection: SelectionConfig, threads: int = 1
) -> tuple[np.ndarray, np.ndarray, SelectionReport]:
    """Rank-select and factorize the word-context matrix.  Perturbations are
    applied symmetrically so every ensemble member stays symmetric."""
    report = nmfk(M, selection, symmetric_perturbation=True, threads=threads)
    W2 = report.consensus_W
    H2 = solve_h(M, W2, _solver_config(selection.nmf))
    return W2, H2, report


def concat_normalized(W1: np.ndarray, W2: np.ndarray) -> np.ndarray:
    """Concatenate the two topic bases column-wise (W1 first) after scaling
    every column to unit L2 norm."""
    W1 = np.asarray(W1, dtype=np.float64)
    W2 = np.asarray(W2, dtype=np.float64)
    if W1.ndim != 2 or W2.ndim != 2 or W1.shape[0] != W2.shape[0]:
        raise ShapeMismatch(f"row counts differ: {W1.shape} vs {W2.shape}")
    u1, _ = normalize_columns(W1)
    u2, _ = normalize_columns(W2)
    return np.hstack([u1, u2])


def default_joint_range(k1: int, k2: int, n_rows: int) -> tuple[int, int]:
    """Merge scan range: the merged rank cannot exceed k1 + k2 and rarely
    falls below the smaller part, so scan [max(2, min(k1, k2)), k1 + k2].
    When one side already collapsed to a single topic the range is widened to
    include k = 1, otherwise a rank-1 merge could never be selected."""
    hi = min(k1 + k2, n_rows)
    lo = 1 if min(k1, k2) == 1 else max(2, min(k1, k2))
    return min(lo, hi), hi


def joint_factorize(
    Wcat: np.ndarray, selection: SelectionConfig, threads: int = 1
) -> tuple[np.ndarray, np.ndarray, SelectionReport]:
    """Factorize the concatenated basis to merge co-linear topics.

    The scan is clamped to [1, min(rows, cols)] of Wcat, which enforces the
    k <= k1 + k2 bound.  Returns the merged basis W, the mixing matrix H*
    from regressing Wcat onto W, and the selection report.
    """
    Wcat = np.asarray(Wcat, dtype=np.float64)
    if Wcat.ndim != 2:
        raise ShapeMismatch("Wcat must be 2-D")
    if not np.isfinite(Wcat).all() or Wcat.min() < 0:
        raise NonNegativityViolation("Wcat must be non-negative and finite")
    cap = min(Wcat.shape)
    k_max = min(selection.k_max, cap)
    k_min = min(selection.k_min, k_max)
    if (k_min, k_max) != (selection.k_min, selection.k_max):
        selection = SelectionConfig(
            k_min=k_min,
            k_max=k_max,
            n_perturbations=selection.n_perturbations,
            delta=selection.delta,
            silhouette_threshold=selection.silhouette_threshold,
            nmf=selection.nmf,
        )
    Wcat_csr = sparse.csr_matrix(Wcat)
    report = nmfk(Wcat_csr, selection, threads=threads)
    W = report.consensus_W
    Hstar = solve_h(Wcat_csr, W, _solver_config(selection.nmf))
    return W, Hstar, report


def final_regression(X, W: np.ndarray, config: NmfConfig | None = None) -> np.ndarray:
    """Document coordinates in the merged topic space: fixed-W non-negative
    regression of the original term-document matrix."""
    return solve_h(X, W, _solver_config(config or NmfConfig()))


def assign_documents(H: np.ndarray) -> AssignmentResult:
    """Argmax topic per document column; ties go to the smallest topic index.
    All-zero columns land on topic 0 and are reported in ``zero_columns``.
    Also returns the per-topic document counts."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2:
        raise ShapeMismatch("H must be 2-D")
    k = H.shape[0]
    assignments = np.argmax(H, axis=0)
    counts = np.bincount(assignments, minlength=k)
    zero_cols = tuple(int(j) for j in np.flatnonzero(H.sum(axis=0) == 0))
    return AssignmentResult(assignments=assignments, counts=counts, zero_columns=zero_cols)


def top_words(
    W: np.ndarray, vocab: Vocabulary, top_n: int
) -> list[list[tuple[str, float]]]:
    """Per topic: terms ranked by descending weight, ties lexicographic,
    truncated to min(top_n, vocabulary size)."""
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


def _solver_config(base: NmfConfig) -> NmfConfig:
    return NmfConfig(
        max_iter=base.max_iter,
        tol=base.tol,
        epsilon=base.epsilon,
        seed=child_seed(base.seed, 11),
    )


def resolve_joint_selection(
    config: SplitConfig, k1: int, k2: int, n_rows: int
) -> SelectionConfig:
    """The merge-stage selection config: the explicit one if given, otherwise
    a copy of the X-side parameters over :func:`default_joint_range`."""
    if config.selection_joint is not None:
        return config.selection_joint
    lo, hi = default_joint_range(k1, k2, n_rows)
    template = config.selection_x
    return SelectionConfig(
        k_min=lo,
        k_max=hi,
        n_perturbations=template.n_perturbations,
        delta=template.delta,
        silhouette_threshold=template.silhouette_threshold,
        nmf=NmfConfig(
            max_iter=template.nmf.max_iter,
            tol=template.nmf.tol,
            epsilon=template.nmf.epsilon,
            seed=child_seed(template.nmf.seed, 3),
        ),
    )


@contextmanager
def stage_scope(name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except SenmfkError as exc:
        raise PipelineStageError(name, exc) from exc


def prepare_corpus(
    corpus_path: str | Path,
    config: PipelineConfig,
    workspace: Path,
    pre_tokenized: bool = False,
) -> tuple[Corpus, Vocabulary]:
    """Stage 1: load, filter, build the vocabulary, drop documents that end
    up with no in-vocabulary tokens; persist corpus.jsonl and vocab.txt."""
    raw = load_jsonl_corpus(corpus_path, pre_tokenized=pre_tokenized)
    corpus = filter_documents(raw, config)
    vocab = build_vocabulary(corpus, config)
    corpus = drop_empty_documents(corpus, vocab)
    save_jsonl_corpus(corpus, workspace / "corpus.jsonl")
    save_vocabulary(vocab, workspace / "vocab.txt")
    return corpus, vocab


def build_matrices(
    corpus: Corpus, vocab: Vocabulary, config: SemanticConfig, workspace: Path
) -> tuple[sparse.csr_matrix, sparse.csr_matrix, sparse.csr_matrix]:
    """Stage 2: TF-IDF, co-occurrence counts, and the SPPMI matrix."""
    X = build_tfidf(corpus, vocab)
    cooc = build_cooccurrence(corpus, vocab, config)
    M = sppmi(cooc, config.shift)
    storage.write_sparse(X, workspace / "X.mtx")
    storage.write_sparse(cooc, workspace / "cooc.mtx")
    storage.write_sparse(M, workspace / "M.mtx")
    return X, cooc, M


def stage_factorize_x(
    X, selection: SelectionConfig, workspace: Path, threads: int = 1
) -> tuple[np.ndarray, np.ndarray, SelectionReport]:
    W1, H1, report = factorize_x(X, selection, threads=threads)
    storage.write_dense(W1, workspace / "W1.mtx")
    storage.write_dense(H1, workspace / "H1.mtx")
    storage.write_selection_report(report, workspace / "selection_x.json")
    return W1, H1, report


def stage_factorize_m(
    M, selection: SelectionConfig, workspace: Path, threads: int = 1
) -> tuple[np.ndarray, np.ndarray, SelectionReport]:
    W2, H2, report = factorize_m(M, selection, threads=threads)
    storage.write_dense(W2, workspace / "W2.mtx")
    storage.write_dense(H2, workspace / "H2.mtx")
    storage.write_selection_report(report, workspace / "selection_m.json")
    return W2, H2, report


def stage_joint(
    W1: np.ndarray,
    W2: np.ndarray,
    selection: SelectionConfig,
    workspace: Path,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, SelectionReport]:
    Wcat = concat_normalized(W1, W2)
    W, Hstar, report = joint_factorize(Wcat, selection, threads=threads)
    storage.write_dense(W, workspace / "W.mtx")
    storage.write_dense(Hstar, workspace / "Hstar.mtx")
    storage.write_selection_report(report, workspace / "selection_joint.json")
    return W, Hstar, report


def stage_regression(
    X, W: np.ndarray, nmf_config: NmfConfig, workspace: Path
) -> np.ndarray:
    H = final_regression(X, W, nmf_config)
    storage.write_dense(H, workspace / "H.mtx")
    return H


def stage_export(
    H: np.ndarray,
    W: np.ndarray,
    vocab: Vocabulary,
    corpus: Corpus,
    top_n: int,
    workspace: Path,
) -> tuple[AssignmentResult, list[list[tuple[str, float]]]]:
    result = assign_documents(H)
    topics = top_words(W, vocab, top_n)
    max_weights = H[result.assignments, np.arange(H.shape[1])]
    storage.write_topics(topics, workspace / "topics.json")
    storage.write_assignments(
        corpus.ids(), result.assignments, max_weights, workspace / "assignments.csv"
    )
    storage.write_histogram(result.counts, workspace / "histogram.csv")
    return result, topics


def run_split(
    corpus_path: str | Path,
    config: SplitConfig,
    workspace: str | Path,
    pre_tokenized: bool = False,
) -> TopicModel:
    """Execute the whole pipeline and persist every artifact under
    ``workspace``.  Stage failures are re-raised as PipelineStageError with
    the stage name attached."""
    workspace = Path(workspace)
    workspace.mkdir(parents=True, exist_ok=True)

    with stage_scope("preprocess"):
        corpus, vocab = prepare_corpus(
            corpus_path, config.pipeline, workspace, pre_tokenized=pre_tokenized
        )
    with stage_scope("matrices"):
        X, _cooc, M = build_matrices(corpus, vocab, config.semantic, workspace)
    with stage_scope("factorize_x"):
        W1, _H1, report_x = stage_factorize_x(
            X, config.selection_x, workspace, threads=config.threads
        )
    with stage_scope("factorize_m"):
        W2, _H2, report_m = stage_factorize_m(
            M, config.selection_m, workspace, threads=config.threads
        )
    with stage_scope("joint"):
        k1, k2 = W1.shape[1], W2.shape[1]
        selection_joint = resolve_joint_selection(config, k1, k2, X.shape[0])
        W, _Hstar, report_joint = stage_joint(
            W1, W2, selection_joint, workspace, threads=config.threads
        )
    with stage_scope("regression"):
        H = stage_regression(X, W, config.selection_x.nmf, workspace)
    with stage_scope("export"):
        result, topics = stage_export(
            H, W, vocab, corpus, config.top_n_words, workspace
        )

    return TopicModel(
        W=W,
        H=H,
        assignments=result.assignments,
        topics=topics,
        k1=k1,
        k2=k2,
        k=W.shape[1],
        reports={"x": report_x, "m": report_m, "joint": report_joint},
        doc_ids=corpus.ids(),
        histogram=result.counts,
        zero_documents=result.zero_columns,
    )
