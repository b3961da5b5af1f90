"""Sparse matrix construction: TF-IDF, windowed co-occurrence, SPPMI.

All matrices are scipy CSR with float64 data in canonical form (sorted
indices, duplicates summed, no explicit zeros).  Rows are vocabulary terms in
index order; TF-IDF columns are documents in corpus order.

:func:`build_tfidf` and :func:`cooccurrence_triangle` map the corpus to
term ids in one pass (:func:`map_term_ids`), or take that mapping from a
caller that builds both and maps it once.
The word-context matrices are symmetric, so the pipeline holds each as its
lower triangle L, diagonal included, from counting to the files:
:func:`cooccurrence_triangle` counts L, :func:`sppmi_triangle` maps it to
the triangle of M, and :func:`mirror_triangle` gives a full matrix.  The
exported :func:`build_cooccurrence` and :func:`sppmi` return full matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .errors import (
    DegenerateMatrix, DimensionMismatch, EmptyColumn, NonNegativityViolation, check_count,
)
from .text_pipeline import Corpus, Vocabulary

# the batches of cooccurrence_triangle (see there); the entries of a sppmi row block
_PAIR_BUDGET = 1 << 20
_DIRECT_CELLS = 1 << 16
# A corpus mapped to term ids: every token's id (-1 out of vocabulary) in
# corpus order, and each document's token count.
TermIds = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SemanticConfig:
    """Word-context parameters: co-occurrence window length (in tokens) and
    the SPPMI shift, a negative-sample count: finite and >= 1."""

    window: int = 100
    shift: float = 4.0

    def __post_init__(self):
        check_count(self.window, "window", 1)
        if not (math.isfinite(self.shift) and self.shift >= 1):
            raise ValueError(f"shift must be finite and >= 1, got {self.shift}")


def canonicalize(mat) -> sparse.csr_matrix:
    """Return ``mat`` as a canonical float64 CSR matrix: sorted indices,
    duplicates summed, no stored zeros.

    Always a copy, so the result owns its arrays: a sum such as ``A + B`` may
    keep scipy's over-allocated buffers (one slot per entry of A and of B)
    alive for as long as the result lives.  Callers that only read their
    input take :func:`_canonical` instead."""
    out = sparse.csr_matrix(mat, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _is_canonical(mat) -> bool:
    """True for float64 CSR with sorted indices, no duplicates and no stored
    zeros: the form :func:`canonicalize` returns."""
    return (
        isinstance(mat, sparse.csr_matrix)
        and mat.dtype == np.float64
        and mat.has_canonical_format
        and bool(np.all(mat.data != 0))
    )


def _canonical(mat) -> sparse.csr_matrix:
    """``mat`` itself when it is already canonical, else a canonical copy."""
    return mat if _is_canonical(mat) else canonicalize(mat)


def _check_nonnegative(values: np.ndarray, name: str) -> None:
    if values.size and (not np.isfinite(values).all() or values.min() < 0):
        raise NonNegativityViolation(f"{name} must be non-negative and finite")


def map_term_ids(corpus: Corpus, index_of: dict[str, int]) -> TermIds:
    """The vocabulary id of every token of ``corpus`` in corpus order (-1
    marks an out-of-vocabulary token) and the token count of each document."""
    lengths = np.fromiter((len(doc.tokens) for doc in corpus), dtype=np.int64, count=len(corpus))
    tokens = itertools.chain.from_iterable(doc.tokens for doc in corpus)
    ids = np.fromiter(
        map(index_of.get, tokens, itertools.repeat(-1)), dtype=np.int64, count=int(lengths.sum())
    )
    return ids, lengths


def build_tfidf(
    corpus: Corpus, vocab: Vocabulary, *, term_ids: TermIds | None = None
) -> sparse.csr_matrix:
    """TF-IDF matrix, terms x documents.

    tf(i, j) is the raw count of term i in document j and
    idf(i) = ln((1 + n) / (1 + df(i))) + 1 with df recounted from ``corpus``;
    every column is then scaled to unit L2 norm.  ``term_ids`` is
    ``map_term_ids(corpus, vocab.index_of)`` when the caller already holds it.

    Raises EmptyColumn if any document has no in-vocabulary tokens.
    """
    m, n = len(vocab), len(corpus)
    ids, lengths = map_term_ids(corpus, vocab.index_of) if term_ids is None else term_ids
    known = ids >= 0
    rows, cols = ids[known], np.repeat(np.arange(n), lengths)[known]
    empty = np.flatnonzero(np.bincount(cols, minlength=n) == 0)
    if empty.size:
        doc = corpus.documents[empty[0]]
        raise EmptyColumn(f"document {doc.id!r} has no in-vocabulary tokens")
    # one (term, document) entry per token; canonicalize sums them into counts
    X = canonicalize(sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(m, n)))
    df = np.diff(X.indptr)
    X.data *= np.repeat(np.log((1.0 + n) / (1.0 + df)) + 1.0, df)
    X.data *= (1.0 / np.sqrt(np.bincount(X.indices, weights=X.data**2, minlength=n)))[X.indices]
    return X


def build_cooccurrence(
    corpus: Corpus, vocab: Vocabulary, config: SemanticConfig
) -> sparse.csr_matrix:
    """Symmetric term-pair count matrix C, terms x terms: the mirror of
    :func:`cooccurrence_triangle`.

    For every token position p, each in-vocabulary token at positions
    p+1 .. p+window-1 of the same document adds 1 to both (i, j) and (j, i).
    Out-of-vocabulary tokens contribute no counts but still occupy positions.
    Windows never cross document boundaries.
    """
    return mirror_triangle(cooccurrence_triangle(corpus, vocab, config))


def cooccurrence_triangle(
    corpus: Corpus, vocab: Vocabulary, config: SemanticConfig, *, term_ids: TermIds | None = None
) -> sparse.csr_matrix:
    """The lower triangle L of :func:`build_cooccurrence`'s C, diagonal
    included, as canonical CSR.

    Only in-vocabulary tokens are kept, each with its position on one axis
    on which consecutive documents lie ``window`` positions apart (or the
    longest document's length, if smaller), so no pair across documents
    qualifies.  Offset d pairs kept token t with kept token t + d wherever
    their positions differ by less than ``window``; the gaps only widen as d
    grows, so the scan stops at the first d with no pair.  Terms a, b pair
    as one key ``max(a, b) * m + min(a, b)``, uint32 while m <= 65,536 and
    int64 beyond, written into one buffer.  While m * m <= _DIRECT_CELLS
    (m <= 256), whenever m * m keys are held ``np.bincount`` adds them into
    one int64 array of m * m counts (512 KiB at most), whose nonzero cells,
    all in the lower triangle, make L once at the end.  Above it, whenever
    _PAIR_BUDGET keys are held (4 MB of uint32 keys) they are sorted in
    place, counted and added to the running matrix, which is L itself.
    Either way memory is O(tokens + nnz + _PAIR_BUDGET) rather than
    O(tokens * window), and the CSR arrays are the same, bit for bit: on a
    90-term corpus of 27,000 tokens, 796,500 pairs take 1.0 MiB traced with
    the direct count against 5.3 MiB sorted.  ``term_ids`` is
    ``map_term_ids(corpus, vocab.index_of)`` when the caller already holds
    it.
    """
    m = len(vocab)
    ids, lengths = map_term_ids(corpus, vocab.index_of) if term_ids is None else term_ids
    # no gap within a document reaches its length, so a window past the
    # longest document counts the same pairs, and the spacing stays small
    window = min(config.window, int(lengths.max(initial=0)))
    pos = np.arange(ids.size) + np.repeat(np.arange(lengths.size) * window, lengths)
    known = ids >= 0
    # the largest key, m * m - 1, fits uint32 up to m = 65,536
    key_type = np.uint32 if m * m <= 2**32 else np.int64
    ids, pos = ids.astype(key_type, copy=False)[known], pos[known]
    direct = m * m <= _DIRECT_CELLS  # count into m * m cells, no sort
    counts = np.zeros(m * m if direct else 0, dtype=np.int64)
    lower = sparse.csr_matrix((m, m), dtype=np.float64)
    # a batch ends at the offset that takes it to budget keys, and no
    # offset pairs more than ids.size tokens
    budget = m * m if direct else _PAIR_BUDGET
    keys, held = np.empty(budget + ids.size, dtype=key_type), 0
    for d in range(1, ids.size + 1):
        near = pos[d:] - pos[:-d] < window
        done = not near.any()  # no pair at d, so none past it
        if not done:
            a, b = ids[:-d][near], ids[d:][near]
            batch = slice(held, held + a.size)  # a view would keep the keys alive
            np.maximum(a, b, out=keys[batch])
            keys[batch] *= m
            keys[batch] += np.minimum(a, b, out=a)
            held += a.size
        if held >= budget or done and held:
            if direct:
                counts += np.bincount(keys[:held], minlength=m * m)
            else:
                lower = lower + _count_keys(keys[:held], m)
            held = 0
        if done:
            break
    del keys
    if direct:
        present = np.flatnonzero(counts)
        lower = _key_matrix(present, counts[present], m)
        del counts, present
    # scipy's sum leaves data and indices as views on buffers sized for both
    # operands; copies hold only the entries, and with the keys and the
    # operands gone they stay below the last sum's peak (or, counted
    # directly, below the m * m counts)
    lower.data, lower.indices = lower.data.copy(), lower.indices.copy()
    # counts are whole numbers, exact in float64, so the order in which the
    # pairs were reduced changes no value; a same-term pair is both (i, i)
    # and its mirror in C, so it counts twice on the diagonal, which is the
    # last entry of its row
    rows = np.flatnonzero(np.diff(lower.indptr))
    last = lower.indptr[rows + 1] - 1
    lower.data[last[lower.indices[last] == rows]] *= 2
    return lower


def mirror_triangle(lower: sparse.csr_matrix) -> sparse.csr_matrix:
    """The symmetric matrix whose lower triangle, diagonal included, is
    ``lower``, as canonical CSR; each value is copied, none recomputed."""
    return _canonical(lower + sparse.triu(lower.T, 1, format="csr"))


def _count_keys(keys: np.ndarray, m: int) -> sparse.csr_matrix:
    """The m x m matrix counting every pair key ``row * m + col`` in
    ``keys``, which it sorts in place."""
    keys.sort()
    new = np.empty(keys.size, dtype=bool)  # where a run of equal keys starts
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    del new  # each temporary goes at its last use: the peak of counting
    unique = keys[starts]
    counts = np.diff(starts, append=keys.size)
    del starts
    return _key_matrix(unique, counts, m)


def _key_matrix(unique: np.ndarray, counts: np.ndarray, m: int) -> sparse.csr_matrix:
    """The m x m matrix holding ``counts[i]`` at pair key ``unique[i]``, for
    increasing keys ``row * m + col``."""
    # int64: the last boundary, m * m, passes uint32 at m = 65,536
    indptr = np.searchsorted(unique, np.arange(m + 1, dtype=np.int64) * m)
    return sparse.csr_matrix((counts.astype(np.float64), unique % m, indptr), shape=(m, m))


def sppmi(cooc: sparse.csr_matrix, shift: float) -> sparse.csr_matrix:
    """Shifted positive pointwise mutual information of a co-occurrence matrix.

    Entry (i, j) becomes max(ln(C(i,j) * D / (r(i) * r(j))) - ln(shift), 0)
    where r are row sums and D the total sum; zero counts stay zero.  A
    canonical input (see :func:`canonicalize`) is read without a copy; the
    output shares nothing with it.  Rows go in blocks of about _PAIR_BUDGET
    stored entries, of which only the nonzero values are kept.

    Raises ValueError for a shift SemanticConfig refuses, NonNegativityViolation
    for a negative or non-finite count, DegenerateMatrix for a zero total.
    """
    return _sppmi(cooc, shift, lambda mat: mat.sum(axis=1))


def sppmi_triangle(lower: sparse.csr_matrix, shift: float) -> sparse.csr_matrix:
    """The lower triangle of ``sppmi(C, shift)`` from the lower triangle of
    C, diagonal included, as :func:`cooccurrence_triangle` returns it.  C's
    row sums are rowsum(L) + colsum(L) - diag(L), exact for whole counts
    below 2**53, so every entry is the full computation's, bit for bit.
    Raises as :func:`sppmi`."""
    return _sppmi(lower, shift, lambda L: L.sum(axis=1) + L.sum(axis=0).T - L.diagonal()[:, None])


def _sppmi(cooc, shift: float, row_sums_of: Callable) -> sparse.csr_matrix:
    """SPPMI of the stored entries of ``cooc``, given ``row_sums_of(mat)``,
    the row sums of the counts that canonical ``mat`` holds entries of."""
    SemanticConfig(shift=shift)  # raises ValueError for a bad shift
    if cooc.shape[0] != cooc.shape[1]:
        raise DimensionMismatch(f"co-occurrence matrix must be square, got {cooc.shape}")
    mat = _canonical(cooc)
    _check_nonnegative(mat.data, "co-occurrence counts")
    row_sums = np.asarray(row_sums_of(mat)).ravel()
    total = row_sums.sum()
    if total <= 0:
        raise DegenerateMatrix("co-occurrence matrix has zero total count")
    blocks, r0 = [], 0
    while r0 < mat.shape[0]:
        # rows r0 .. r1-1 hold at most _PAIR_BUDGET entries, or are one row
        r1 = max(r0 + 1, np.searchsorted(mat.indptr, mat.indptr[r0] + _PAIR_BUDGET, "right") - 1)
        blocks.append(_sppmi_rows(mat, r0, r1, row_sums, total, shift))
        r0 = r1
    return sparse.vstack(blocks, format="csr")


def _sppmi_rows(mat, r0: int, r1: int, row_sums, total, shift):
    """SPPMI of rows r0 .. r1-1 of canonical ``mat``, its zeros not stored."""
    lo, hi = mat.indptr[r0], mat.indptr[r1]
    vals = mat.data[lo:hi] * total
    # r(i) of every entry's row, then times r(j)
    denom = np.repeat(row_sums[r0:r1], np.diff(mat.indptr[r0 : r1 + 1]))
    denom *= row_sums[mat.indices[lo:hi]]
    vals /= denom
    del denom
    np.log(vals, out=vals)
    vals -= np.log(shift)
    np.maximum(vals, 0.0, out=vals)
    kept = np.flatnonzero(vals)  # the entries != 0, by position in the block
    indptr = np.searchsorted(kept, mat.indptr[r0 : r1 + 1] - lo)
    return sparse.csr_matrix((vals[kept], mat.indices[lo:hi][kept], indptr), (r1 - r0, mat.shape[1]))
