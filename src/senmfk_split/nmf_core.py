"""Frobenius-norm NMF via multiplicative updates.

Implements the alternating Lee-Seung updates

    H <- H * (W^T X) / (W^T W H + eps)
    W <- W * (X H^T) / (W H H^T + eps)

together with the fixed-W variant used for document regression, a sparse-safe
relative reconstruction error, and the multiplicative perturbation used to
generate factorization ensembles (mirrored on an exactly symmetric input,
so every copy of it is symmetric too).

Inputs are validated and held as CSR, but the update loop runs on a dense
copy when ``4 * nnz >= m * n`` (density at least 1/4), where dense BLAS is
faster than the CSR products.  Measured on a 2-core machine, the time of
``X^T W`` plus ``X H^T`` at k = 4, dense speed over CSR speed by density:

    ========== ====== ====== ====== ====== ======
    shape       0.01   0.1    0.25   0.3    0.5
    ========== ====== ====== ====== ====== ======
    90 x 450    1.1x   2.1x   3.7x   4.6x   5.5x
    300 x 1000  0.05x  0.48x  1.3x   1.7x   2.8x
    1000 x 1000 0.08x  0.42x  1.2x   1.1x   2.4x
    600 x 3000  0.04x  0.36x  0.86x  0.88x  1.8x
    ========== ====== ====== ====== ====== ======

Sparser inputs stay CSR.  The dense copy (8 bytes per cell) can be up to
8 / (12 / 4) ~= 2.7x the bytes of the CSR arrays it stands in for (8 bytes
of value plus 4 of column index per stored entry).  Each iteration takes
four products: the H step's ``W^T X`` and ``W^T W H``, the W step's
``X H^T`` and ``W (H H^T)``.  On an array ``W^T X`` is one matmul of W's
transposed view with X, which comes out C-contiguous, so X is never
transposed; a CSR X takes it as ``X^T W`` through its CSC view (no copy),
built once per solve.  Each update ratio is computed in its denominator's
buffer, ``den += eps; num / den`` into ``den``, the same IEEE operations as
``num / (den + eps)`` with two temporaries fewer.

A CSR operand that equals its transpose exactly, such as a perturbed copy
of the word-context matrix M, takes the W step's ``X H^T`` as
``X^T H^T`` through the CSC view too.  ``csc_matvecs`` adds the same
products in the same order as ``csr_matvecs``, so the bits are equal, and
it is the faster kernel.  Median of interleaved calls (60 at 1x, 20 at
10x) on the same machine, with M of the benchmark's Zipf corpus (2,770
terms) and of ten times that corpus (19,403 terms):

    ========= ==== ========= ==========
    M nnz      k    CSR       CSC view
    ========= ==== ========= ==========
    575,796    2    2.17 ms   1.80 ms
    575,796    3    2.30 ms   2.16 ms
    575,796    8    3.80 ms   3.35 ms
    6,945,187  2    25.7 ms   20.5 ms
    6,945,187  3    27.6 ms   25.3 ms
    6,945,187  8    52.7 ms   46.0 ms
    ========= ==== ========= ==========

:func:`nmf_stack` solves an ensemble, one rank's perturbed copies of X,
in stacks: W (b, m, k), H (b, k, n) and every product one stacked matmul,
so the ~12 numpy calls of an iteration are paid once per stack, and each
member is still checked alone and leaves the stack when it stops; every
result equals that member's solve alone bit for bit.  It sizes each stack
itself: as many dense members as fit in ``_STACK_CELLS`` = 2^17 cells
(1 MB), or one CSR member; and it draws a stack's copies from X's draw
index only when that stack starts, so one stack of them is alive at a
time.  Measured on the same machine (min of 15, k = 4, k = 3 at 90 x 90),
time per member-iteration alone over stacked:

    ========== ==== ============== ===============
    shape       p    all p stacked  <= 2^17 cells
    ========== ==== ============== ===============
    60 x 150    6    1.9x           1.9x  (b = 6)
    90 x 90     4    1.9x           1.9x  (b = 4)
    100 x 300   10   1.02x          1.28x (b = 4)
    90 x 450    4    1.15x          1.13x (b = 3)
    150 x 450   6    0.77x          1x    (b = 1)
    300 x 300   10   0.69x          1x    (b = 1)
    ========== ==== ============== ===============

The saving is call overhead, so it fades as the members grow, and a stack
of large members runs slower than one member at a time.

The loop's check every 10 iterations and :func:`relative_error` take the
squared residual by one rule, :func:`_folded_error`: the expansion
``||X||^2 - 2<X, WH> + <W^T W, H H^T>`` with the cross term from a product
at hand (``X H^T``, or ``W^T X`` in the fixed-W solve), and the exact
:func:`_residual_sq` instead only within cancellation range of zero, at any
size of X.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DegenerateBasis, DimensionMismatch, InvalidRank, check_count
from .matrix_builder import _canonical, _check_nonnegative

_TRACE_STRIDE = 10
# Additive guard in the update denominators.
_EPSILON = 1e-12
# A folded residual below this share of ||X||^2 has lost too many digits to
# cancellation and is recomputed exactly.
_CANCELLATION = 1e-6
# A smaller change of the relative error between checks is rounding noise:
# the folded error is accurate to ~2.2e-16 / (2 err) <= 1.1e-13, and an exact
# fit's error (~1e-14) jitters by ~4e-16, which tol * err alone never admits.
_CHANGE_FLOOR = 1e-13
_BLOCK_CELLS = 1 << 20
# Cells of one stack of dense operands (see the module docstring).
_STACK_CELLS = 1 << 17


@dataclass(frozen=True)
class NmfConfig:
    """Solver hyperparameters.

    Parameters
    ----------
    max_iter : hard iteration cap.
    tol : stop when the relative objective change over a 10-iteration stride
        falls below this value.
    seed : seed for the uniform factor initialization.
    """

    max_iter: int = 1000
    tol: float = 1e-6
    seed: int = 42

    def __post_init__(self):
        check_count(self.max_iter, "max_iter", 1)
        check_count(self.seed, "seed", 0)
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


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


def _residual_sq(X, W: np.ndarray, H: np.ndarray) -> float:
    """||X - WH||_F^2 exactly, streaming row blocks of WH and subtracting X
    (CSR or an ndarray) before squaring, so nothing cancels."""
    m, n = X.shape
    dense = isinstance(X, np.ndarray)
    rows_per_block = max(1, _BLOCK_CELLS // max(n, 1))
    total = 0.0
    for start in range(0, m, rows_per_block):
        stop = min(start + rows_per_block, m)
        block = W[start:stop] @ H
        block -= X[start:stop] if dense else X[start:stop].toarray()
        total += float(np.einsum("ij,ij->", block, block))
    return total


def _folded_error(X, W, H, norm_sq: float, cross: float, gram_w, hht) -> float:
    """||X - WH||_F / ||X||_F, the squared residual folded as ||X||^2 - 2 cross
    + <W^T W, H H^T> (``cross`` = <X, WH>, ``gram_w`` = W^T W, ``hht`` = H H^T)
    or, below ``_CANCELLATION * ||X||^2``, exact by :func:`_residual_sq`.  A
    zero X scores 0 when fitted exactly and inf otherwise."""
    rsq = norm_sq - 2.0 * cross + float(np.einsum("ij,ij->", gram_w, hht))
    if rsq < _CANCELLATION * norm_sq:
        rsq = _residual_sq(X, W, H)
    if norm_sq == 0.0:
        return 0.0 if rsq == 0.0 else np.inf
    return float(np.sqrt(rsq) / np.sqrt(norm_sq))


def relative_error(X, W: np.ndarray, H: np.ndarray) -> float:
    """||X - WH||_F / ||X||_F from the sparse entries of X and the low-rank
    factors, by the rule of :func:`_folded_error` with the cross term from
    X H^T; X is never densified whole."""
    X = _canonical(X)
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    m, n = X.shape
    if W.ndim != 2 or H.ndim != 2 or W.shape[0] != m or H.shape[1] != n or W.shape[1] != H.shape[0]:
        raise DimensionMismatch(
            f"X {X.shape}, W {W.shape}, H {H.shape} do not conform"
        )
    norm_sq = float((X.data**2).sum())
    cross = float(np.einsum("ij,ij->", W, X @ H.T))
    return _folded_error(X, W, H, norm_sq, cross, W.T @ W, H @ H.T)


def _dense_operand(X: sparse.csr_matrix) -> bool:
    m, n = X.shape
    return 4 * X.nnz >= m * n


def _times(A, B: np.ndarray) -> np.ndarray:
    """A @ B for a dense stack A, or for a CSR A standing for a stack of one."""
    return np.matmul(A, B) if isinstance(A, np.ndarray) else (A @ B[0])[None]


def _wtx(A, AT, W: np.ndarray) -> np.ndarray:
    """W^T X (b, k, n): one stacked matmul for a dense stack A (``AT`` is
    None), or X^T W through the CSC view ``AT`` of a CSR A standing for a
    stack of one."""
    return np.matmul(W.transpose(0, 2, 1), A) if AT is None else (AT @ W[0]).T[None]


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / (den + eps), computed in den's buffer."""
    den += _EPSILON
    return np.divide(num, den, out=den)


def _solve_stack(
    Xs: list[sparse.csr_matrix],
    W: np.ndarray,
    H: np.ndarray,
    config: NmfConfig,
    update_w: bool,
    symmetric: bool = False,
) -> list[FactorPair]:
    """Multiplicative updates of the stacked factors W (b, m, k) and H
    (b, k, n) against b equally shaped matrices, W frozen unless
    ``update_w``; W and H are updated in place.

    Every product is one stacked matmul over the members still running.
    Every 10 iterations, and at ``config.max_iter``, each member's error is
    checked alone, and a member that meets the stopping rule leaves the
    stack.  A CSR operand is solved as a stack of one; when ``symmetric``
    (:func:`nmf_stack` sets it for the copies of a mirrored draw index,
    which equal their transposes exactly) its W-step product X H^T is taken
    as X^T H^T through the CSC view, like the H step's X^T W (see the
    module docstring).
    """
    m, n = Xs[0].shape
    dense = _dense_operand(Xs[0])
    if dense:
        A = np.empty((len(Xs), m, n))
        for X, slab in zip(Xs, A):
            X.toarray(out=slab)
        AT = None
    else:
        (A,) = Xs
        AT = A.T
    # the W step's X H^T: for X = X^T the CSC view's kernel is faster, same bits
    AW = AT if symmetric and not dense else A
    norm_sq = [float((X.data**2).sum()) for X in Xs]
    live = list(range(len(Xs)))  # the member in each slot of the stack
    pairs: list[FactorPair | None] = [None] * len(Xs)
    traces: list[list[float]] = [[] for _ in Xs]
    iters: list[list[int]] = [[] for _ in Xs]
    gram_w = np.matmul(W.transpose(0, 2, 1), W)
    # a frozen W's W^T X is taken once
    wtx = None if update_w else _wtx(A, AT, W)
    it = 0
    while live:
        it += 1
        wtx = _wtx(A, AT, W) if update_w else wtx
        H *= _ratio(wtx, np.matmul(gram_w, H))
        if update_w:
            hht = np.matmul(H, H.transpose(0, 2, 1))
            xht = _times(AW, H.transpose(0, 2, 1))
            W *= _ratio(xht, np.matmul(W, hht))
            gram_w = np.matmul(W.transpose(0, 2, 1), W)
        if it % _TRACE_STRIDE and it != config.max_iter:
            continue
        if not update_w:
            hht = np.matmul(H, H.transpose(0, 2, 1))
        for s, j in enumerate(live):
            # the cross term from the update's own X H^T (W step) or W^T X
            # (fixed-W step)
            if update_w:
                cross = np.einsum("ij,ij->", W[s], xht[s])
            else:
                cross = np.einsum("ij,ij->", H[s], wtx[s])
            slab = A[s] if dense else A
            err = _folded_error(slab, W[s], H[s], norm_sq[j], float(cross), gram_w[s], hht[s])
            last = traces[j][-1] if traces[j] else None
            traces[j].append(err)
            iters[j].append(it)
            if it == config.max_iter or (
                last is not None and abs(last - err) < max(config.tol * last, _CHANGE_FLOOR)
            ):
                pairs[j] = FactorPair(W[s].copy(), H[s].copy(), traces[j], iters[j])
        keep = [s for s, j in enumerate(live) if pairs[j] is None]
        if len(keep) < len(live):
            live = [live[s] for s in keep]
            W, H, gram_w, wtx = W[keep], H[keep], gram_w[keep], wtx[keep]
            if dense:
                A = AW = A[keep]
    return pairs


def _start(stack: list, k: int, seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The stacked starts W (b, m, k) and H (b, k, n) of b equally shaped
    canonical matrices: uniform (0, 1) draws scaled by mean(X) / k from
    ``default_rng(seeds[i])``, W drawn first, once k is in range and every
    matrix is non-negative and finite (a perturbed copy can overflow)."""
    m, n = stack[0].shape
    if not isinstance(k, (int, np.integer)) or k < 1 or k > min(m, n):
        raise InvalidRank(f"rank {k} outside [1, {min(m, n)}] for shape {(m, n)}")
    Ws, Hs = [], []
    for X, seed in zip(stack, seeds):
        _check_nonnegative(X.data, "X")
        rng = np.random.default_rng(seed)
        scale = float(X.sum()) / (m * n) / k
        Ws.append(rng.uniform(0.0, 1.0, size=(m, k)) * scale)
        Hs.append(rng.uniform(0.0, 1.0, size=(k, n)) * scale)
    return np.stack(Ws), np.stack(Hs)


def _next_stack(index: _DrawIndex, delta, k, config, seeds) -> list[FactorPair]:
    """Draw one stack's copies, member i from the pair ``seeds[i]``, and
    solve it.  Only this call refers to the copies, so they are freed when
    it returns."""
    stack = [_draw(index, delta, draw) for draw, _ in seeds]
    W, H = _start(stack, k, [start for _, start in seeds])
    return _solve_stack(stack, W, H, config, update_w=True, symmetric=index.of_entry is not None)


def nmf_stack(
    index: _DrawIndex, delta: float, k: int, config: NmfConfig, seeds: list[tuple[int, int]]
) -> Iterator[FactorPair]:
    """Factorize perturbed copies of ``index.X`` at rank k in stacks (see the
    module docstring), every member with ``config``'s ``max_iter`` and
    ``tol``; ``seeds[i]`` is member i's pair (draw seed, start seed).
    Yields each member's FactorPair in order, equal bit for bit to
    ``nmf(perturb(index.X, delta, seeds[i][0]), k, replace(config,
    seed=seeds[i][1]))``.

    Every copy has ``index.X``'s pattern, so ``index.X`` alone sets the
    stack size and the operand, and a mirrored index solves every member as
    symmetric.  Raises as :func:`nmf`.
    """
    m, n = index.X.shape
    size = max(1, _STACK_CELLS // (m * n)) if _dense_operand(index.X) else 1
    for first in range(0, len(seeds), size):
        yield from _next_stack(index, delta, k, config, seeds[first : first + size])


def nmf(X, k: int, config: NmfConfig | None = None) -> FactorPair:
    """Factorize a non-negative matrix as X ~= W H at rank k.

    W and H start from uniform (0, 1) draws scaled by mean(X) / k using
    ``config.seed`` (W drawn first), then alternate multiplicative updates
    until the change of the relative error over a 10-iteration stride drops
    below ``config.tol`` times the error (or below ``_CHANGE_FLOOR``), or
    ``max_iter`` is reached.

    Raises InvalidRank if k is outside [1, min(m, n)] and
    NonNegativityViolation if X has negative or non-finite entries.
    """
    config = config or NmfConfig()
    X = _canonical(X)
    W, H = _start([X], k, [config.seed])
    return _solve_stack([X], W, H, config, update_w=True)[0]


def solve_h(X, W: np.ndarray, config: NmfConfig | None = None) -> np.ndarray:
    """Minimize ||X - WH||_F^2 over H >= 0 with W frozen (multiplicative
    H updates only).

    Raises NonNegativityViolation if X or W has a negative or non-finite
    entry and DegenerateBasis if any column of W is all-zero.
    """
    config = config or NmfConfig()
    X = _canonical(X)
    W = np.asarray(W, dtype=np.float64)
    m, n = X.shape
    if W.ndim != 2 or W.shape[0] != m:
        raise DimensionMismatch(f"W {W.shape} does not conform with X {X.shape}")
    _check_nonnegative(X.data, "X")
    _check_nonnegative(W, "W")
    k = W.shape[1]
    if (np.abs(W).sum(axis=0) == 0).any():
        raise DegenerateBasis("W has an all-zero column")
    rng = np.random.default_rng(config.seed)
    scale = float(X.sum()) / (m * n) / k
    H = rng.uniform(0.0, 1.0, size=(k, n)) * scale
    return _solve_stack([X], W[None].copy(), H[None], config, update_w=False)[0].H


@dataclass(frozen=True)
class _DrawIndex:
    """What every perturbation of one matrix shares: the canonical X, the
    number of uniform draws one perturbation takes, and the draw each stored
    entry is multiplied by (None: entry t takes draw t)."""

    X: sparse.csr_matrix
    draws: int
    of_entry: np.ndarray | None = None


def _draw_index(X) -> _DrawIndex:
    """The draw index of :func:`perturb` for X, built once per matrix.  A
    square X that equals its transpose exactly, pattern and values, is
    mirrored: the entries on and above the diagonal draw in CSR order and
    each entry below it takes its mirror's draw.  Any other X takes one draw
    per stored entry."""
    X = _canonical(X)
    if X.shape[0] != X.shape[1]:
        return _DrawIndex(X, X.nnz)
    # X's CSR positions (1-based) in CSC order; on a symmetric pattern the
    # t-th of them is the mirror of CSR entry t, and entry t lies below the
    # diagonal exactly when its mirror comes earlier in CSR order
    kind = np.int32 if X.nnz < 2**31 else np.int64
    order = sparse.csr_matrix((np.arange(1, X.nnz + 1, dtype=kind), X.indices, X.indptr), X.shape)
    order = order.tocsc()
    same = np.array_equal(order.indptr, X.indptr) and np.array_equal(order.indices, X.indices)
    mirror = order.data  # the CSC pattern arrays are freed before the masks
    del order
    mirror -= 1
    if not (same and np.array_equal(X.data[mirror], X.data)):
        return _DrawIndex(X, X.nnz)
    lower = mirror < np.arange(X.nnz, dtype=kind)
    of_entry = np.empty(X.nnz, dtype=kind)
    draws = X.nnz - np.count_nonzero(lower)
    of_entry[~lower] = np.arange(draws, dtype=kind)
    of_entry[lower] = of_entry[mirror[lower]]
    return _DrawIndex(X, draws, of_entry)


def _draw(index: _DrawIndex, delta: float, seed) -> sparse.csr_matrix:
    """One perturbation of ``index.X`` from ``default_rng(seed)``: new values,
    gathered in blocks, on X's own pattern arrays (no caller writes to them)."""
    factors = np.random.default_rng(seed).uniform(1.0 - delta, 1.0 + delta, size=index.draws)
    data = index.X.data.copy()
    for start in range(0, data.size, _BLOCK_CELLS):
        part = slice(start, start + _BLOCK_CELLS)
        data[part] *= factors[part] if index.of_entry is None else factors[index.of_entry[part]]
    return sparse.csr_matrix((data, index.X.indices, index.X.indptr), index.X.shape)


def perturb(X, delta: float, seed) -> sparse.csr_matrix:
    """Multiply every stored entry by a uniform draw from [1 - delta,
    1 + delta]; the sparsity pattern is unchanged.

    The draws are independent, one per stored entry in CSR order, unless X
    is square and equals its transpose exactly: then the (i, j) and (j, i)
    entries share one draw, so the copy is exactly symmetric too.  The
    entries on and above the diagonal draw in CSR order, and each entry
    below it takes its mirror's draw.  X alone decides; there is no option.

    Finding the mirrors, or that a square X has none, takes a CSC copy of
    X's positions, several times the cost of the draw itself (about 27
    against 5 ms on the benchmark's Zipf M, 575,796 entries), so a caller
    that perturbs one matrix many times, as :func:`model_selection.nmfk`
    does, builds the index once with :func:`_draw_index` and hands it to
    :func:`nmf_stack`, which draws every copy from it with :func:`_draw`,
    bit for bit the copy this function returns.
    """
    if not (0 <= delta < 1):
        raise ValueError("delta must be in [0, 1)")
    return _draw(_draw_index(X), delta, seed).copy()  # owns its arrays
