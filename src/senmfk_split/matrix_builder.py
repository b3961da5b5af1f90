"""Sparse matrix construction: TF-IDF, windowed co-occurrence, SPPMI.

All matrices are scipy CSR with float64 data in canonical form (sorted
indices, duplicates summed, no explicit zeros).  Rows are vocabulary terms in
index order; TF-IDF columns are documents in corpus order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DegenerateMatrix, DimensionMismatch, EmptyColumn
from .text_pipeline import Corpus, Document, Vocabulary


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
    duplicates summed, no stored zeros."""
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
    """
    m = len(vocab)
    w = config.window
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for doc in corpus:
        idx = _term_ids(doc, vocab.index_of)
        L = idx.size
        for d in range(1, min(w, L)):
            a = idx[: L - d]
            b = idx[d:]
            ok = (a >= 0) & (b >= 0)
            if not ok.any():
                continue
            rows.append(a[ok])
            cols.append(b[ok])
    if not rows:
        return sparse.csr_matrix((m, m), dtype=np.float64)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    ones = np.ones(r.size, dtype=np.float64)
    counts = sparse.coo_matrix((ones, (r, c)), shape=(m, m))
    counts = counts + counts.T
    return canonicalize(counts)


def sppmi(cooc: sparse.csr_matrix, shift: float) -> sparse.csr_matrix:
    """Shifted positive pointwise mutual information of a co-occurrence matrix.

    Entry (i, j) becomes max(ln(C(i,j) * D / (r(i) * r(j))) - ln(shift), 0)
    where r are row sums and D the total sum; zero counts stay zero.

    Raises DegenerateMatrix if the total count is zero.
    """
    if cooc.shape[0] != cooc.shape[1]:
        raise DimensionMismatch(f"co-occurrence matrix must be square, got {cooc.shape}")
    mat = canonicalize(cooc)
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    total = row_sums.sum()
    if total <= 0:
        raise DegenerateMatrix("co-occurrence matrix has zero total count")
    coo = mat.tocoo()
    pmi = np.log(coo.data * total / (row_sums[coo.row] * row_sums[coo.col]))
    vals = np.maximum(pmi - np.log(shift), 0.0)
    out = sparse.coo_matrix((vals, (coo.row, coo.col)), shape=mat.shape)
    return canonicalize(out)
