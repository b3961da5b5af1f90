"""Frobenius-norm NMF via multiplicative updates.

Implements the alternating Lee-Seung updates

    H <- H * (W^T X) / (W^T W H + eps)
    W <- W * (X H^T) / (W H H^T + eps)

together with the fixed-W variant used for document regression, a sparse-safe
relative reconstruction error, the two-term diagnostic objective, and the
multiplicative perturbation used to generate factorization ensembles.

Inputs are validated and held as CSR, but the update loop runs on a dense
copy when ``3 * nnz >= 2 * m * n``: a float64 array (8 bytes per cell) is
then no larger than the CSR arrays it stands in for (8 bytes of value plus 4
of column index per stored entry), so dense BLAS adds at most one copy of the
input's own size.  Sparser inputs stay CSR.  The transpose is taken once per
solve: a view for an array, a CSC view (no copy) for CSR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import (
    DegenerateBasis,
    DimensionMismatch,
    InvalidRank,
    NonNegativityViolation,
)
from .matrix_builder import canonicalize

_TRACE_STRIDE = 10
# Residuals on matrices up to this many cells are evaluated by streaming row
# blocks (exact subtraction, no cancellation); larger problems fall back to
# the O(nnz*k) Gram expansion, whose ~1e-8 noise floor only matters within
# rounding distance of an exact fit.
_DENSE_EVAL_CELLS = 4_000_000
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class NmfConfig:
    """Solver hyperparameters.

    Parameters
    ----------
    max_iter : hard iteration cap.
    tol : stop when the relative objective change over a 10-iteration stride
        falls below this value.
    epsilon : additive guard in update denominators.
    seed : seed for the uniform factor initialization.
    """

    max_iter: int = 1000
    tol: float = 1e-6
    epsilon: float = 1e-12
    seed: int = 42

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")


@dataclass
class FactorPair:
    """Non-negative factors W (rows x k) and H (k x cols) with the relative
    reconstruction error recorded every 10 iterations."""

    W: np.ndarray
    H: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    trace_iterations: list[int] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return self.W.shape[1]


def _as_csr(X) -> sparse.csr_matrix:
    if sparse.issparse(X):
        return canonicalize(X)
    return canonicalize(sparse.csr_matrix(np.asarray(X, dtype=np.float64)))


def _check_nonnegative(X: sparse.csr_matrix, name: str) -> None:
    if X.nnz and (not np.isfinite(X.data).all() or X.data.min() < 0):
        raise NonNegativityViolation(f"{name} must be non-negative and finite")


def _residual_sq(X, W: np.ndarray, H: np.ndarray, norm_sq: float) -> float:
    """||X - WH||_F^2 without materializing WH whole; X is CSR or an ndarray.

    Small problems stream row blocks and subtract before squaring; large ones
    use the Gram expansion over the entries of X and the k x k factor Grams,
    clamping the tiny negatives cancellation can produce."""
    m, n = X.shape
    if m * n <= _DENSE_EVAL_CELLS:
        dense = isinstance(X, np.ndarray)
        rows_per_block = max(1, _BLOCK_CELLS // max(n, 1))
        total = 0.0
        for start in range(0, m, rows_per_block):
            stop = min(start + rows_per_block, m)
            block = W[start:stop] @ H
            block -= X[start:stop] if dense else X[start:stop].toarray()
            total += float(np.einsum("ij,ij->", block, block))
        return total
    cross = float(np.sum((X.T @ W) * H.T))
    gram = float(np.sum((W.T @ W) * (H @ H.T)))
    return max(norm_sq - 2.0 * cross + gram, 0.0)


def relative_error(X, W: np.ndarray, H: np.ndarray) -> float:
    """||X - WH||_F / ||X||_F, accumulated blockwise over the sparse entries
    of X and the low-rank factors; X is never densified whole."""
    X = _as_csr(X)
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    m, n = X.shape
    if W.ndim != 2 or H.ndim != 2 or W.shape[0] != m or H.shape[1] != n or W.shape[1] != H.shape[0]:
        raise DimensionMismatch(
            f"X {X.shape}, W {W.shape}, H {H.shape} do not conform"
        )
    norm_sq = float((X.data**2).sum())
    resid = np.sqrt(_residual_sq(X, W, H, norm_sq))
    if norm_sq == 0.0:
        return 0.0 if resid == 0.0 else np.inf
    return float(resid / np.sqrt(norm_sq))


def joint_objective(X, M, W, H, G, alpha: float) -> float:
    """Diagnostic two-term objective 0.5 * ||X - WH||_F^2 + alpha * ||M - WG||_F^2.

    The split pipeline never minimizes this directly; it exists to audit how
    well a shared W fits both the term-document and word-context matrices.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    X = _as_csr(X)
    M = _as_csr(M)
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if W.shape[0] != X.shape[0] or W.shape[1] != H.shape[0] or H.shape[1] != X.shape[1]:
        raise DimensionMismatch(f"X {X.shape}, W {W.shape}, H {H.shape} do not conform")
    if M.shape[0] != W.shape[0] or G.shape[0] != W.shape[1] or G.shape[1] != M.shape[1]:
        raise DimensionMismatch(f"M {M.shape}, W {W.shape}, G {G.shape} do not conform")

    term_x = _residual_sq(X, W, H, float((X.data**2).sum()))
    term_m = _residual_sq(M, W, G, float((M.data**2).sum()))
    return 0.5 * term_x + alpha * term_m


def _run_updates(
    X: sparse.csr_matrix,
    W: np.ndarray,
    H: np.ndarray,
    config: NmfConfig,
    update_w: bool,
) -> FactorPair:
    eps = config.epsilon
    norm_sq = float((X.data**2).sum())
    norm = np.sqrt(norm_sq)
    m, n = X.shape
    A = X.toarray() if 3 * X.nnz >= 2 * m * n else X
    AT = A.T
    trace: list[float] = []
    iters: list[int] = []
    prev: float | None = None
    gram_w = W.T @ W
    for it in range(1, config.max_iter + 1):
        wtx = (AT @ W).T
        H *= wtx / (gram_w @ H + eps)
        if update_w:
            hht = H @ H.T
            W *= (A @ H.T) / (W @ hht + eps)
            gram_w = W.T @ W
        if it % _TRACE_STRIDE == 0 or it == config.max_iter:
            resid = np.sqrt(_residual_sq(A, W, H, norm_sq))
            err = float(resid / norm) if norm > 0 else 0.0
            trace.append(err)
            iters.append(it)
            if prev is not None and abs(prev - err) < config.tol * max(prev, eps):
                break
            prev = err
    return FactorPair(W=W, H=H, objective_trace=trace, trace_iterations=iters)


def nmf(X, k: int, config: NmfConfig | None = None) -> FactorPair:
    """Factorize a non-negative matrix as X ~= W H at rank k.

    W and H start from uniform (0, 1) draws scaled by mean(X) / k using
    ``config.seed`` (W drawn first), then alternate multiplicative updates
    until the relative objective change over a 10-iteration stride drops
    below ``config.tol`` or ``max_iter`` is reached.

    Raises InvalidRank if k is outside [1, min(m, n)] and
    NonNegativityViolation if X has negative or non-finite entries.
    """
    config = config or NmfConfig()
    X = _as_csr(X)
    m, n = X.shape
    if not isinstance(k, (int, np.integer)) or k < 1 or k > min(m, n):
        raise InvalidRank(f"rank {k} outside [1, {min(m, n)}] for shape {X.shape}")
    _check_nonnegative(X, "X")
    rng = np.random.default_rng(config.seed)
    scale = float(X.sum()) / (m * n) / k
    W = rng.uniform(0.0, 1.0, size=(m, k)) * scale
    H = rng.uniform(0.0, 1.0, size=(k, n)) * scale
    return _run_updates(X, W, H, config, update_w=True)


def solve_h(X, W: np.ndarray, config: NmfConfig | None = None) -> np.ndarray:
    """Minimize ||X - WH||_F^2 over H >= 0 with W frozen (multiplicative
    H updates only).

    Raises DegenerateBasis if any column of W is all-zero.
    """
    config = config or NmfConfig()
    X = _as_csr(X)
    W = np.asarray(W, dtype=np.float64)
    m, n = X.shape
    if W.ndim != 2 or W.shape[0] != m:
        raise DimensionMismatch(f"W {W.shape} does not conform with X {X.shape}")
    _check_nonnegative(X, "X")
    k = W.shape[1]
    if (np.abs(W).sum(axis=0) == 0).any():
        raise DegenerateBasis("W has an all-zero column")
    rng = np.random.default_rng(config.seed)
    scale = float(X.sum()) / (m * n) / k
    H = rng.uniform(0.0, 1.0, size=(k, n)) * scale
    return _run_updates(X, W.copy(), H, config, update_w=False).H


def perturb(X, delta: float, seed, symmetric: bool = False) -> sparse.csr_matrix:
    """Multiply every stored entry by an independent uniform draw from
    [1 - delta, 1 + delta]; the sparsity pattern is unchanged.

    With ``symmetric`` the (i, j) and (j, i) entries share one draw so a
    symmetric matrix stays exactly symmetric.
    """
    if not (0 <= delta < 1):
        raise ValueError("delta must be in [0, 1)")
    X = _as_csr(X)
    rng = np.random.default_rng(seed)
    if not symmetric:
        out = X.copy()
        out.data = X.data * rng.uniform(1.0 - delta, 1.0 + delta, size=X.nnz)
        return out
    upper = canonicalize(sparse.triu(X, k=0)).tocoo()
    draws = rng.uniform(1.0 - delta, 1.0 + delta, size=upper.nnz)
    factors = sparse.coo_matrix((draws, (upper.row, upper.col)), shape=X.shape).tocsr()
    factors = factors + sparse.triu(factors, k=1).T
    return canonicalize(X.multiply(factors))
