"""Sparse matrix construction: TF-IDF, windowed co-occurrence, SPPMI.

All matrices are scipy CSR with float64 data in canonical form (sorted
indices, duplicates summed, no explicit zeros).  Rows are vocabulary terms in
index order; TF-IDF columns are documents in corpus order.

Memory stays bounded by the inputs and outputs, not by the number of token
pairs: :func:`build_cooccurrence` walks the corpus one window offset at a
time and reduces at most about ``_PAIR_BUDGET`` pairs at once into a running
CSR matrix, so its peak is O(tokens + nnz + _PAIR_BUDGET) rather than
O(tokens * window); :func:`sppmi` rewrites the values of a canonical input's
CSR arrays without expanding them to coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DegenerateMatrix, DimensionMismatch, EmptyColumn
from .text_pipeline import Corpus, Document, Vocabulary

# token pairs held by build_cooccurrence before it reduces them into its
# running CSR matrix (two int64 ids each: 16 MB at 2**20)
_PAIR_BUDGET = 1 << 20


@dataclass(frozen=True)
class SemanticConfig:
    """Word-context parameters: co-occurrence window length (in tokens) and
    the SPPMI shift."""

    window: int = 100
    shift: float = 4.0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.shift < 1:
            raise ValueError("shift must be >= 1")


def canonicalize(mat) -> sparse.csr_matrix:
    """Return ``mat`` as a canonical float64 CSR matrix: sorted indices,
    duplicates summed, no stored zeros.

    Always a copy: an uncopied ``upper + upper.T`` in :func:`build_cooccurrence`
    keeps scipy's over-allocated buffers (2.99M slots for 2.32M entries on a
    500-document Zipf corpus) alive through :func:`sppmi`, 205 -> 221 MB RSS."""
    out = sparse.csr_matrix(mat, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _term_ids(doc: Document, index_of: dict[str, int]) -> np.ndarray:
    """The vocabulary id of every token position of ``doc``; -1 marks an
    out-of-vocabulary token."""
    return np.fromiter(
        (index_of.get(t, -1) for t in doc.tokens), dtype=np.int64, count=len(doc.tokens)
    )


def build_tfidf(corpus: Corpus, vocab: Vocabulary) -> sparse.csr_matrix:
    """TF-IDF matrix, terms x documents.

    tf(i, j) is the raw count of term i in document j and
    idf(i) = ln((1 + n) / (1 + df(i))) + 1 with df recounted from ``corpus``;
    every column is then scaled to unit L2 norm.

    Raises EmptyColumn if any document has no in-vocabulary tokens.
    """
    m, n = len(vocab), len(corpus)
    per_doc = []
    for doc in corpus:
        ids = _term_ids(doc, vocab.index_of)
        ids = ids[ids >= 0]
        if ids.size == 0:
            raise EmptyColumn(f"document {doc.id!r} has no in-vocabulary tokens")
        per_doc.append(ids)
    rows = np.concatenate([np.empty(0, dtype=np.int64), *per_doc])
    cols = np.repeat(np.arange(n), [ids.size for ids in per_doc])
    # one (term, document) entry per token; canonicalize sums them into counts
    tf = canonicalize(sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(m, n)))
    df = np.diff(tf.indptr)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    weighted = sparse.diags(idf) @ tf
    weighted = canonicalize(weighted)
    norms = np.sqrt(np.asarray(weighted.power(2).sum(axis=0)).ravel())
    norms[norms == 0] = 1.0
    return canonicalize(weighted @ sparse.diags(1.0 / norms))


def build_cooccurrence(
    corpus: Corpus, vocab: Vocabulary, config: SemanticConfig
) -> sparse.csr_matrix:
    """Symmetric term-pair count matrix, terms x terms.

    For every token position p, each in-vocabulary token at positions
    p+1 .. p+window-1 of the same document adds 1 to both (i, j) and (j, i).
    Out-of-vocabulary tokens contribute no counts but still occupy positions.
    Windows never cross document boundaries.

    The pairs are enumerated by offset, not by document: the term ids of the
    whole corpus sit in one array, longest document first, and offset d pairs
    position p with p + d wherever both lie in one document.  Only the prefix
    of documents longer than d is scanned, so the work is sum(L * min(window,
    L)) over document lengths L.  Pairs are reduced into a running CSR matrix
    whenever _PAIR_BUDGET of them are held, so memory is O(tokens + nnz +
    _PAIR_BUDGET) rather than O(tokens * window).
    """
    m = len(vocab)
    docs = sorted(corpus, key=lambda doc: len(doc.tokens), reverse=True)
    lengths = np.array([len(doc.tokens) for doc in docs], dtype=np.int64)
    ids = np.concatenate(
        [np.empty(0, dtype=np.int64), *(_term_ids(doc, vocab.index_of) for doc in docs)]
    )
    ends = np.cumsum(lengths)
    # tokens after each position within its document
    ahead = np.repeat(ends - 1, lengths) - np.arange(ids.size)
    known = ids >= 0
    upper = sparse.csr_matrix((m, m), dtype=np.float64)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    held = 0
    longest = int(lengths[0]) if lengths.size else 0
    for d in range(1, min(config.window, longest)):
        # documents longer than d form a prefix; p + d stays inside it
        stop = int(ends[np.count_nonzero(lengths > d) - 1]) - d
        ok = known[:stop] & known[d : stop + d] & (ahead[:stop] >= d)
        rows.append(ids[:stop][ok])
        cols.append(ids[d : stop + d][ok])
        held += rows[-1].size
        if held >= _PAIR_BUDGET:
            upper = _add_pairs(upper, rows, cols)
            rows, cols, held = [], [], 0
    if held:
        upper = _add_pairs(upper, rows, cols)
    # counts are whole numbers, exact in float64, so the order in which the
    # pairs were reduced changes no value
    return canonicalize(upper + upper.T)


def _add_pairs(
    counts: sparse.csr_matrix, rows: list[np.ndarray], cols: list[np.ndarray]
) -> sparse.csr_matrix:
    """``counts`` plus one for every (rows[k][t], cols[k][t]) pair."""
    r = np.concatenate([np.empty(0, dtype=np.int64), *rows])
    c = np.concatenate([np.empty(0, dtype=np.int64), *cols])
    pairs = sparse.coo_matrix((np.ones(r.size), (r, c)), shape=counts.shape)
    return counts + pairs.tocsr()


def _is_canonical(mat) -> bool:
    """True for float64 CSR with sorted indices, no duplicates and no stored
    zeros: the form :func:`canonicalize` returns."""
    return (
        isinstance(mat, sparse.csr_matrix)
        and mat.dtype == np.float64
        and mat.has_canonical_format
        and bool(np.all(mat.data != 0))
    )


def sppmi(cooc: sparse.csr_matrix, shift: float) -> sparse.csr_matrix:
    """Shifted positive pointwise mutual information of a co-occurrence matrix.

    Entry (i, j) becomes max(ln(C(i,j) * D / (r(i) * r(j))) - ln(shift), 0)
    where r are row sums and D the total sum; zero counts stay zero.  A
    canonical input (see :func:`canonicalize`) is read without a copy; the
    output shares nothing with it.

    Raises DegenerateMatrix if the total count is zero.
    """
    if cooc.shape[0] != cooc.shape[1]:
        raise DimensionMismatch(f"co-occurrence matrix must be square, got {cooc.shape}")
    mat = cooc if _is_canonical(cooc) else canonicalize(cooc)
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    total = row_sums.sum()
    if total <= 0:
        raise DegenerateMatrix("co-occurrence matrix has zero total count")
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    vals = mat.data * total
    denom = row_sums[rows]
    denom *= row_sums[mat.indices]
    vals /= denom
    np.log(vals, out=vals)
    vals -= np.log(shift)
    np.maximum(vals, 0.0, out=vals)
    out = sparse.csr_matrix((vals, mat.indices.copy(), mat.indptr.copy()), shape=mat.shape)
    out.eliminate_zeros()
    return out
