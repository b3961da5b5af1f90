"""Workspace artifact persistence.

Sparse matrices go to MatrixMarket coordinate files and dense factors to
MatrixMarket array files.  A sparse file is ``general`` from
:func:`write_sparse`, and ``symmetric`` from :func:`write_symmetric`, which
takes the lower triangle of a symmetric matrix (the pipeline writes
``cooc.mtx`` and ``M.mtx`` this way).  Either writes the ``integer`` field
when every value is a whole number, checked exactly, and ``real`` otherwise.
Real values are written with 17 significant digits, so every float64
round-trips exactly, and :func:`read_sparse` returns the same canonical
float64 CSR matrix whatever layout the file has.  Selection reports are
JSON without the consensus factors, each per-rank entry the fields of a
:class:`RankRecord` by name; topic tables are JSON, document assignments
and histograms CSV.  A histogram restates the per-topic counts of the
assignments, so it is written and never read back.  All writers are
deterministic: identical inputs produce byte-identical files, and atomic:
each writes a temporary file beside its target and renames it into place.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
from scipy import io as scipy_io
from scipy import sparse

from .errors import DataError
from .fileio import atomic_path
from .matrix_builder import canonicalize
from .model_selection import RankRecord, SelectionReport

_PRECISION = 17  # significant digits; scipy renders %.16e, exact for float64
# Whole numbers below this magnitude are exact in both float64 and int64.
_EXACT_WHOLE = 2.0**53
# What parsing a damaged JSON or CSV artifact raises: bad syntax, text or
# number (ValueError), a missing key (KeyError) or index (IndexError), a
# value of the wrong kind (TypeError), a number too large (OverflowError).
_MALFORMED = (ValueError, KeyError, IndexError, TypeError, OverflowError)
_ASSIGNMENTS_HEADER = ["doc_id", "topic_id", "max_weight"]
_HISTOGRAM_HEADER = ["topic_id", "count"]


def write_sparse(mat, path: str | Path) -> None:
    """MatrixMarket coordinate file, ``general``, 1-based indices."""
    _write_coordinates(sparse.csr_matrix(mat).tocoo(), path, "general")


def write_symmetric(lower, path: str | Path) -> None:
    """A symmetric matrix as a ``symmetric`` coordinate file, from its lower
    triangle ``lower``, diagonal included.  scipy's writer would drop an
    entry above the diagonal unchecked, so that raises ValueError here."""
    coo = sparse.csr_matrix(lower).tocoo()
    if coo.shape[0] != coo.shape[1] or (coo.row < coo.col).any():
        raise ValueError("write_symmetric takes the lower triangle of a square matrix")
    _write_coordinates(coo, path, "symmetric")


def _write_coordinates(coo: sparse.coo_matrix, path: str | Path, symmetry: str) -> None:
    """``integer`` when every value is a whole number that int64 holds
    exactly, ``real`` otherwise: scipy would truncate floats in the integer
    field unchecked.  The check makes no float copy: the range first (NaN
    fails it), then the int64 copy scipy writes integers from."""
    values = coo.data
    whole = not values.size or -_EXACT_WHOLE < values.min() <= values.max() < _EXACT_WHOLE
    if whole:
        ints = values.astype(np.int64)
        whole = np.array_equal(ints, values)
        if whole:
            coo.data = ints
    with atomic_path(path) as tmp:
        scipy_io.mmwrite(
            str(tmp),
            coo,
            field="integer" if whole else None,
            precision=_PRECISION,
            symmetry=symmetry,
        )


def write_dense(mat: np.ndarray, path: str | Path) -> None:
    """MatrixMarket array file, always ``general``: scipy would otherwise
    store a symmetric array below 100 x 100 as one triangle."""
    arr = np.asarray(mat, dtype=np.float64)
    with atomic_path(path) as tmp:
        scipy_io.mmwrite(str(tmp), arr, precision=_PRECISION, symmetry="general")


def read_sparse(path: str | Path) -> sparse.csr_matrix:
    """The matrix of a coordinate file as canonical float64 CSR (see
    :func:`canonicalize`), whatever its field; a symmetric file's stored
    triangle is mirrored."""
    mat = scipy_io.mmread(str(path))
    if not sparse.issparse(mat):
        raise DataError(f"{path}: expected a coordinate (sparse) MatrixMarket file")
    return canonicalize(mat)


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


def read_selection_report(path: str | Path) -> SelectionReport:
    """The report without its factors (``consensus_W`` and ``consensus_H``
    are None).  Raises DataError naming the file when it is not a report, or
    when ``fallback`` is not a bool, a rank not an int, a statistic not an int
    or float, or ``chosen_k`` not one of the scanned ranks."""
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
        report = SelectionReport(
            per_k=[RankRecord(**r) for r in payload["per_k"]],
            chosen_k=payload["chosen_k"],
            fallback=payload["fallback"],
        )
    except _MALFORMED as exc:
        raise DataError(f"{path}: not a valid selection report: {exc!r}") from exc
    ranks = [r.k for r in report.per_k]
    stats = [(r.min_silhouette, r.mean_silhouette, r.relative_error) for r in report.per_k]
    # a JSON value has one exact type, so true is neither an int nor a float
    if (
        type(report.fallback) is not bool
        or any(type(k) is not int for k in [*ranks, report.chosen_k])
        or any(type(v) not in (int, float) for row in stats for v in row)
        or report.chosen_k not in ranks
    ):
        raise DataError(f"{path}: not a valid selection report: a value of the wrong type or rank")
    return report


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
    """Raises DataError naming the file when it is not a topic table, a term
    is not a string or an entry's topic_id is not its position."""
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
        ids = [entry["topic_id"] for entry in payload]
        topics = [
            [(e["term"], float(e["weight"])) for e in entry["terms"]] for entry in payload
        ]
    except _MALFORMED as exc:
        raise DataError(f"{path}: not a valid topic table: {exc!r}") from exc
    if not all(isinstance(term, str) for ranked in topics for term, _ in ranked):
        raise DataError(f"{path}: not a valid topic table: a term is not a string")
    # a JSON value has one exact type, so true is not topic 1
    if [(type(i), i) for i in ids] != [(int, t) for t in range(len(ids))]:
        raise DataError(f"{path}: not a valid topic table: a topic_id is not its position")
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
        writer.writerow(_ASSIGNMENTS_HEADER)
        for doc_id, topic, weight in zip(doc_ids, assignments, max_weights):
            writer.writerow([doc_id, int(topic), format(float(weight), ".17g")])


def read_assignments(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The doc_id column of assignments.csv, its topic_id column as int64 and
    its max_weight column as float64, in row order.  Raises DataError naming
    the file when it is not an assignment table, a doc_id repeats, a
    topic_id is not a non-negative int or a max_weight not a finite
    non-negative float."""
    try:
        with Path(path).open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found != _ASSIGNMENTS_HEADER:
                raise DataError(f"{path}: unexpected assignment table header {found}")
            rows = [(doc_id, int(topic), float(weight)) for doc_id, topic, weight in reader]
        topic_ids = np.array([topic for _, topic, _ in rows], dtype=np.int64)
    except (*_MALFORMED, csv.Error) as exc:
        raise DataError(f"{path}: not a valid assignment table: {exc!r}") from exc
    doc_ids = [doc_id for doc_id, _, _ in rows]
    max_weights = np.array([weight for _, _, weight in rows], dtype=np.float64)
    # NaN fails the range
    if any(topic < 0 or not 0 <= weight < math.inf for _, topic, weight in rows):
        raise DataError(f"{path}: not a valid assignment table: a topic_id or max_weight out of range")
    if len(set(doc_ids)) < len(doc_ids):
        raise DataError(f"{path}: not a valid assignment table: a doc_id repeats")
    return doc_ids, topic_ids, max_weights


def write_histogram(counts: np.ndarray, path: str | Path) -> None:
    """histogram.csv: topic_id, count."""
    with atomic_path(path) as tmp, tmp.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HISTOGRAM_HEADER)
        for t, c in enumerate(counts):
            writer.writerow([t, int(c)])
