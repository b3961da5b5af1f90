"""Workspace artifact persistence.

Sparse matrices go to MatrixMarket coordinate files and dense factors to
MatrixMarket array files, both with 17 significant digits so float64 values
round-trip exactly.  Selection reports are JSON, each per-rank entry the
fields of a :class:`RankRecord` by name; topic tables are JSON, document
assignments and histograms CSV.  All writers are deterministic:
identical inputs produce byte-identical files, and atomic: each writes a
temporary file beside its target and renames it into place.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
from scipy import io as scipy_io
from scipy import sparse

from .errors import DataError
from .fileio import atomic_path
from .model_selection import RankRecord, SelectionReport

_PRECISION = 17  # significant digits; scipy renders %.16e, exact for float64
# What parsing a damaged JSON or CSV artifact raises: bad syntax, text or
# number (ValueError), a missing key (KeyError), a short row (IndexError), a
# value of the wrong kind (TypeError).
_MALFORMED = (ValueError, KeyError, IndexError, TypeError)


def write_sparse(mat, path: str | Path) -> None:
    """MatrixMarket coordinate file, 1-based indices, general symmetry."""
    with atomic_path(path) as tmp:
        scipy_io.mmwrite(
            str(tmp), sparse.coo_matrix(mat), precision=_PRECISION, symmetry="general"
        )


def write_dense(mat: np.ndarray, path: str | Path) -> None:
    """MatrixMarket array file."""
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    with atomic_path(path) as tmp:
        scipy_io.mmwrite(str(tmp), arr, precision=_PRECISION)


def read_sparse(path: str | Path) -> sparse.csr_matrix:
    mat = scipy_io.mmread(str(path))
    if not sparse.issparse(mat):
        raise DataError(f"{path}: expected a coordinate (sparse) MatrixMarket file")
    return sparse.csr_matrix(mat)


def sparse_size(path: str | Path) -> tuple[tuple[int, int], int]:
    """(shape, stored entries) of a file written by :func:`write_sparse`,
    from its header alone."""
    rows, cols, entries, *_ = scipy_io.mminfo(str(path))
    return (rows, cols), entries


def read_dense(path: str | Path) -> np.ndarray:
    mat = scipy_io.mmread(str(path))
    if sparse.issparse(mat):
        raise DataError(f"{path}: expected an array (dense) MatrixMarket file")
    return np.asarray(mat, dtype=np.float64)


def write_selection_report(report: SelectionReport, path: str | Path) -> None:
    """Selection scan as JSON; the consensus factors are persisted separately.
    Each ``per_k`` entry holds the :class:`RankRecord` fields in declaration
    order."""
    payload = {
        "per_k": [asdict(r) for r in report.per_k],
        "chosen_k": report.chosen_k,
        "fallback": report.fallback,
    }
    with atomic_path(path) as tmp:
        tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_selection_report(
    path: str | Path, consensus_W: np.ndarray, consensus_H: np.ndarray
) -> SelectionReport:
    payload = json.loads(Path(path).read_text("utf-8"))
    return SelectionReport(
        per_k=[RankRecord(**r) for r in payload["per_k"]],
        chosen_k=int(payload["chosen_k"]),
        consensus_W=consensus_W,
        consensus_H=consensus_H,
        fallback=bool(payload["fallback"]),
    )


def write_topics(topics: list[list[tuple[str, float]]], path: str | Path) -> None:
    """topics.json: [{topic_id, terms: [{term, weight}]}]."""
    payload = [
        {
            "topic_id": t,
            "terms": [{"term": term, "weight": weight} for term, weight in ranked],
        }
        for t, ranked in enumerate(topics)
    ]
    with atomic_path(path) as tmp:
        tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_topics(path: str | Path) -> list[list[tuple[str, float]]]:
    """Raises DataError naming the file when it is not a topic table."""
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
        topics = [
            [(e["term"], float(e["weight"])) for e in entry["terms"]] for entry in payload
        ]
    except _MALFORMED as exc:
        raise DataError(f"{path}: not a valid topic table: {exc!r}") from exc
    if not all(isinstance(term, str) for ranked in topics for term, _ in ranked):
        raise DataError(f"{path}: not a valid topic table: a term is not a string")
    return topics


def write_assignments(
    doc_ids: list[str],
    assignments: np.ndarray,
    max_weights: np.ndarray,
    path: str | Path,
) -> None:
    """assignments.csv: doc_id, topic_id, max_weight."""
    with atomic_path(path) as tmp, tmp.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_id", "topic_id", "max_weight"])
        for doc_id, topic, weight in zip(doc_ids, assignments, max_weights):
            writer.writerow([doc_id, int(topic), format(float(weight), ".17g")])


def write_histogram(counts: np.ndarray, path: str | Path) -> None:
    """histogram.csv: topic_id, count."""
    with atomic_path(path) as tmp, tmp.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["topic_id", "count"])
        for t, c in enumerate(counts):
            writer.writerow([t, int(c)])


def read_histogram(path: str | Path) -> list[tuple[int, int]]:
    """Raises DataError naming the file when it is not a histogram."""
    try:
        with Path(path).open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["topic_id", "count"]:
                raise DataError(f"{path}: unexpected histogram header {header}")
            return [(int(row[0]), int(row[1])) for row in reader]
    except (*_MALFORMED, csv.Error) as exc:
        raise DataError(f"{path}: not a valid histogram: {exc!r}") from exc
