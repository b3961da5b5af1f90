"""Automatic rank selection for NMF via perturbation ensembles.

For every candidate rank k the input matrix is perturbed ``n_perturbations``
times and factorized from distinct seeds.  The resulting basis columns are
clustered under the constraint that each cluster takes exactly one column per
ensemble member; cluster tightness is scored with cosine-distance silhouettes.
The chosen rank is the largest k whose minimum silhouette clears the
configured threshold, and that rank's cluster centroids become the consensus
basis, with the coefficients solved against them on the unperturbed matrix.

Columns are matched to centroids by an exact assignment: the
shortest-augmenting-path algorithm of Crouse ("On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016), ported from scipy's
``linear_sum_assignment`` with its tie rule, so every permutation is scipy's.
It lives here because importing ``scipy.optimize`` for this one call costs
every process about 27 MB and 0.34 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateMatrix, InvalidRank, ShapeMismatch, check_count
from .matrix_builder import _canonical
from .nmf_core import NmfConfig, _draw_index, nmf_stack, relative_error, solve_h

_MAX_CLUSTER_ROUNDS = 100
_DISTANCE_DUST = 1e-12


@dataclass(frozen=True)
class SelectionConfig:
    """Rank scan parameters: candidate range [k_min, k_max], ensemble size,
    perturbation magnitude, and the silhouette acceptance threshold."""

    k_min: int
    k_max: int
    n_perturbations: int = 10
    delta: float = 0.03
    silhouette_threshold: float = 0.75
    nmf: NmfConfig = field(default_factory=NmfConfig)

    def __post_init__(self):
        for name, low in (("k_min", 1), ("k_max", 1), ("n_perturbations", 2)):
            check_count(getattr(self, name), name, low)
        if self.k_min > self.k_max:
            raise ValueError("need 1 <= k_min <= k_max")
        if not (0 <= self.delta < 1):
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if not (0 < self.silhouette_threshold < 1):
            raise ValueError("silhouette_threshold must be in (0, 1)")


@dataclass(frozen=True)
class RankRecord:
    """Stability and fit statistics for one candidate rank."""

    k: int
    min_silhouette: float
    mean_silhouette: float
    relative_error: float


@dataclass
class SelectionReport:
    """Scan results: one record per candidate rank, the chosen rank, its
    consensus basis W (``chosen_k`` columns) and the H solved for it (None if
    W has a zero column; both None in a report read from its file), and
    whether it fell back to the most stable rank as none met the threshold."""

    per_k: list[RankRecord]
    chosen_k: int
    consensus_W: np.ndarray | None = None
    consensus_H: np.ndarray | None = None
    fallback: bool = False


@dataclass(frozen=True)
class SilhouetteStats:
    per_cluster_min: tuple[float, ...]
    overall_min: float
    overall_mean: float
    single_cluster: bool = False


def child_seed(base: int, *key: int) -> int:
    """Deterministic per-task seed derived from a base seed and an index key."""
    ss = np.random.SeedSequence(entropy=base, spawn_key=tuple(int(x) for x in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def normalize_columns(W: np.ndarray) -> np.ndarray:
    """Scale columns to unit L2 norm; all-zero columns are left untouched."""
    W = np.asarray(W, dtype=np.float64)
    norms = np.linalg.norm(W, axis=0)
    return W / np.where(norms == 0, 1.0, norms)


def _assignment(cost: list[list[float]]) -> list[int]:
    """col4row of a minimum-cost perfect matching of a square cost matrix
    (finite or +inf entries), as scipy's ``linear_sum_assignment`` picks it
    among ties: ``remaining`` is filled in reverse and shrunk by swapping in
    its last entry, and at equal reduced cost a column no row holds yet wins.
    Raises ValueError when no finite matching exists."""
    n = len(cost)
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        # shortest augmenting path from row cur, over reduced costs
        shortest = [np.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows_seen, cols_seen = [], []
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            rows_seen.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, np.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == np.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen:
            if i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _match_columns(columns: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """One-to-one assignment of the k columns to the k centroids maximizing
    total cosine similarity, solved exactly by :func:`_assignment` on the
    negated similarities.  Ties are real (a dead column's similarities are
    all 0) and break as in scipy's ``linear_sum_assignment(sim,
    maximize=True)``; a NaN or +inf similarity raises ValueError, as there.
    Returns perm with perm[c] = cluster index for column c."""
    cost = -(columns.T @ centroids)  # (k columns) x (k centroids)
    if not (cost > -np.inf).all():  # NaN fails the comparison too
        raise ValueError("matrix contains invalid numeric entries")
    return np.array(_assignment(cost.tolist()), dtype=np.int64)


def cluster_columns(
    column_sets: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Partition the p*k columns of p equally shaped (rows x k) matrices into
    k clusters holding exactly one column from each set.

    Centroids start as set 0's columns; every set is then matched one-to-one
    against the centroids by cosine similarity, centroids are recomputed as
    normalized cluster means, and matching repeats until the labels stabilize
    (at most 100 rounds).  Columns are expected to be L2-normalized.

    Returns (labels, centroids): labels has shape (p, k) with labels[s, c]
    the cluster of column c in set s; centroids is rows x k.
    """
    if not column_sets:
        raise ShapeMismatch("need at least one column set")
    sets = [np.asarray(s, dtype=np.float64) for s in column_sets]
    shape = sets[0].shape
    if len(shape) != 2:
        raise ShapeMismatch("column sets must be 2-D")
    for s in sets:
        if s.shape != shape:
            raise ShapeMismatch(f"column set shapes differ: {s.shape} vs {shape}")
    p = len(sets)
    _, k = shape
    centroids = sets[0].copy()
    labels: np.ndarray | None = None
    for _ in range(_MAX_CLUSTER_ROUNDS):
        new_labels = np.vstack([_match_columns(s, centroids) for s in sets])
        if labels is not None and (new_labels == labels).all():
            break
        labels = new_labels
        accum = np.zeros(shape)
        for s in range(p):
            accum[:, labels[s]] += sets[s]  # labels[s] is a permutation
        centroids = normalize_columns(accum / p)
    return labels, centroids


def silhouette(columns: np.ndarray, labels: np.ndarray) -> SilhouetteStats:
    """Silhouette statistics of labeled columns under cosine distance.

    s(i) = (b(i) - a(i)) / max(a(i), b(i)) with a the mean distance to the
    point's own cluster and b the smallest mean distance to another cluster;
    singletons score 0.  A single-cluster labeling is degenerate and reports
    1.0 with the ``single_cluster`` flag set.
    """
    cols = np.asarray(columns, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n = cols.shape[1]
    if labels.size != n:
        raise ShapeMismatch(f"{n} columns but {labels.size} labels")
    k = int(labels.max()) + 1 if n else 0
    sizes = np.bincount(labels, minlength=k)
    if (sizes == 0).any():
        raise ShapeMismatch("labels must form contiguous non-empty clusters")
    if k == 1:
        return SilhouetteStats((1.0,), 1.0, 1.0, single_cluster=True)
    unit = normalize_columns(cols)
    dist = 1.0 - unit.T @ unit
    np.clip(dist, 0.0, None, out=dist)
    dist[dist < _DISTANCE_DUST] = 0.0
    np.fill_diagonal(dist, 0.0)
    # cluster_dist[i, c] = total distance from point i to cluster c
    cluster_dist = np.zeros((n, k))
    for c in range(k):
        cluster_dist[:, c] = dist[:, labels == c].sum(axis=1)
    points = np.arange(n)
    own_size = sizes[labels]
    a = cluster_dist[points, labels] / np.maximum(own_size - 1, 1)  # singletons: 0 / 1
    mean_dist = cluster_dist / sizes
    mean_dist[points, labels] = np.inf
    b = mean_dist.min(axis=1)
    denom = np.maximum(a, b)
    # a singleton, or a point at distance 0 from everything, scores 0
    scores = np.divide(b - a, denom, out=np.zeros(n), where=(own_size > 1) & (denom > 0))
    per_cluster = tuple(float(scores[labels == c].min()) for c in range(k))
    return SilhouetteStats(
        per_cluster_min=per_cluster,
        overall_min=float(scores.min()),
        overall_mean=float(scores.mean()),
    )


def nmfk(X, config: SelectionConfig) -> SelectionReport:
    """Scan ranks k_min..k_max and pick the number of latent factors.

    Per rank: factorize ``n_perturbations`` perturbed copies from distinct
    seeds in one :func:`nmf_core.nmf_stack` call on the scan's draw index,
    built once per scan.  ``nmf_stack`` draws each copy when its stack
    starts, so one stack of copies is alive at a time; an exactly symmetric
    X gets mirrored draws, as :func:`nmf_core.perturb` gives it, so the
    index alone says that every copy is symmetric.  Then L2-normalize the
    basis columns, cluster them one-per-member, score the clustering with
    silhouettes, and record the reconstruction error of the centroid basis
    with H solved on the unperturbed matrix.  The chosen
    rank is the largest one with min silhouette >= the threshold; if none
    qualifies the most stable rank is returned with ``fallback`` set.

    Raises DegenerateMatrix on an all-zero input and InvalidRank when the
    scan range exceeds min(m, n).
    """
    X = _canonical(X)
    if X.nnz == 0:
        raise DegenerateMatrix("cannot select a rank for an all-zero matrix")
    m, n = X.shape
    if config.k_max > min(m, n):
        raise InvalidRank(f"k_max {config.k_max} exceeds min{X.shape} = {min(m, n)}")
    base = config.nmf.seed
    p = config.n_perturbations
    ks = list(range(config.k_min, config.k_max + 1))
    index = _draw_index(X)

    per_k: list[RankRecord] = []
    consensus_by_k: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
    for k in ks:
        seeds = [(child_seed(base, k, j, 0), child_seed(base, k, j, 1)) for j in range(p)]
        pairs = nmf_stack(index, config.delta, k, config.nmf, seeds)
        ensemble = [normalize_columns(pair.W) for pair in pairs]
        labels, centroids = cluster_columns(ensemble)
        stats = silhouette(np.hstack(ensemble), labels.ravel())
        H = None
        if (np.linalg.norm(centroids, axis=0) == 0).any():
            err = 1.0  # dead consensus column: rank is unusable, worst-case fit
        else:
            H = solve_h(X, centroids, replace(config.nmf, seed=child_seed(base, k, p, 2)))
            err = relative_error(X, centroids, H)
        per_k.append(
            RankRecord(
                k=k,
                min_silhouette=stats.overall_min,
                mean_silhouette=stats.overall_mean,
                relative_error=err,
            )
        )
        consensus_by_k[k] = (centroids, H)

    stable = [r.k for r in per_k if r.min_silhouette >= config.silhouette_threshold]
    fallback = not stable
    # max returns the first maximum, so a fallback tie keeps the smaller k
    chosen = max(stable) if stable else max(per_k, key=lambda r: r.min_silhouette).k
    consensus_W, consensus_H = consensus_by_k[chosen]
    return SelectionReport(
        per_k=per_k,
        chosen_k=chosen,
        consensus_W=consensus_W,
        consensus_H=consensus_H,
        fallback=fallback,
    )
