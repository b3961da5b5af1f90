"""Independent brute-force reference implementations.

Everything here is deliberately written as plain loops over plain data
structures, sharing no code path with the library: TF-IDF and co-occurrence
counting by direct enumeration, SPPMI by direct formula evaluation,
silhouettes from the definition, and a projected-gradient NNLS solver.
"""

from __future__ import annotations

import math

import numpy as np


def tfidf_oracle(doc_tokens: list[list[str]], terms: list[str]) -> np.ndarray:
    """Dense TF-IDF: raw counts, idf = ln((1+n)/(1+df)) + 1, unit L2 columns."""
    m, n = len(terms), len(doc_tokens)
    index = {t: i for i, t in enumerate(terms)}
    tf = np.zeros((m, n))
    for j, tokens in enumerate(doc_tokens):
        for tok in tokens:
            if tok in index:
                tf[index[tok], j] += 1.0
    df = np.zeros(m)
    for i in range(m):
        df[i] = sum(1 for j in range(n) if tf[i, j] > 0)
    out = np.zeros((m, n))
    for i in range(m):
        idf = math.log((1.0 + n) / (1.0 + df[i])) + 1.0
        for j in range(n):
            out[i, j] = tf[i, j] * idf
    for j in range(n):
        norm = math.sqrt(sum(out[i, j] ** 2 for i in range(m)))
        if norm > 0:
            for i in range(m):
                out[i, j] /= norm
    return out


def cooccurrence_oracle(
    doc_tokens: list[list[str]], terms: list[str], window: int
) -> np.ndarray:
    """O(n * L^2) pair enumeration: for every position p, every in-vocabulary
    token within the next window-1 positions of the same document adds one
    count in each direction."""
    m = len(terms)
    index = {t: i for i, t in enumerate(terms)}
    counts = np.zeros((m, m))
    for tokens in doc_tokens:
        L = len(tokens)
        for p in range(L):
            i = index.get(tokens[p])
            for q in range(p + 1, min(p + window, L)):
                j = index.get(tokens[q])
                if i is not None and j is not None:
                    counts[i, j] += 1.0
                    counts[j, i] += 1.0
    return counts


def sppmi_oracle(counts: np.ndarray, shift: float) -> np.ndarray:
    """Entrywise max(ln(C * D / (r_i * r_j)) - ln(shift), 0) on nonzero counts."""
    m = counts.shape[0]
    row = counts.sum(axis=1)
    total = counts.sum()
    out = np.zeros_like(counts, dtype=float)
    for i in range(m):
        for j in range(m):
            if counts[i, j] > 0:
                pmi = math.log(counts[i, j] * total / (row[i] * row[j]))
                out[i, j] = max(pmi - math.log(shift), 0.0)
    return out


def silhouette_oracle(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-point silhouette from the definition under cosine distance.
    ``points`` holds one point per column."""
    n = points.shape[1]
    labels = np.asarray(labels)
    unit = points / np.maximum(np.linalg.norm(points, axis=0), 1e-300)

    def dist(a: int, b: int) -> float:
        d = 1.0 - float(unit[:, a] @ unit[:, b])
        d = max(d, 0.0)
        return 0.0 if d < 1e-12 else d

    scores = np.zeros(n)
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores[i] = 0.0
            continue
        a = sum(dist(i, j) for j in own) / len(own)
        b = math.inf
        for c in set(labels.tolist()):
            if c == labels[i]:
                continue
            members = [j for j in range(n) if labels[j] == c]
            b = min(b, sum(dist(i, j) for j in members) / len(members))
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return scores


def nnls_projected_gradient(
    W: np.ndarray, X: np.ndarray, n_iter: int = 20000
) -> np.ndarray:
    """Projected gradient for min_{H >= 0} ||X - WH||_F^2 with fixed step
    1 / ||W^T W||_2."""
    WtW = W.T @ W
    WtX = W.T @ X
    step = 1.0 / max(np.linalg.norm(WtW, 2), 1e-300)
    H = np.zeros((W.shape[1], X.shape[1]))
    for _ in range(n_iter):
        grad = WtW @ H - WtX
        H_next = np.maximum(H - step * grad, 0.0)
        if np.max(np.abs(H_next - H)) < 1e-14:
            H = H_next
            break
        H = H_next
    return H


def mu_oracle(
    X: np.ndarray,
    W0: np.ndarray,
    H0: np.ndarray,
    iters: int,
    update_w: bool,
    eps: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Lee-Seung multiplicative updates on a dense array, H then W per
    iteration, for a fixed number of iterations; W stays fixed unless
    ``update_w``."""
    W = np.array(W0, dtype=np.float64)
    H = np.array(H0, dtype=np.float64)
    for _ in range(iters):
        H = H * (W.T @ X) / (W.T @ W @ H + eps)
        if update_w:
            W = W * (X @ H.T) / (W @ H @ H.T + eps)
    return W, H


def tokenize_oracle(text: str) -> list[str]:
    """The maximal runs of the ASCII letters a-z in ``text.lower()`` that are
    at least two letters long, found by a character loop."""
    tokens, run = [], ""
    for ch in text.lower() + " ":
        if "a" <= ch <= "z":
            run += ch
            continue
        if len(run) >= 2:
            tokens.append(run)
        run = ""
    return tokens


def symmetric_perturb_oracle(X: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """Mirrored multiplicative perturbation of a dense square array that
    equals its transpose: one uniform [1 - delta, 1 + delta] draw from
    ``default_rng(seed)`` per nonzero (i, j) with i <= j, drawn in row-major
    order, multiplies both X[i, j] and X[j, i]."""
    m = X.shape[0]
    upper = [(i, j) for i in range(m) for j in range(i, m) if X[i, j] != 0]
    draws = np.random.default_rng(seed).uniform(1.0 - delta, 1.0 + delta, size=len(upper))
    out = np.zeros_like(X)
    for (i, j), factor in zip(upper, draws):
        out[i, j] = X[i, j] * factor
        out[j, i] = X[j, i] * factor
    return out


def independent_perturb_oracle(X: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """Independent multiplicative perturbation of a dense array: one uniform
    [1 - delta, 1 + delta] draw from ``default_rng(seed)`` per nonzero,
    drawn in row-major order."""
    m, n = X.shape
    cells = [(i, j) for i in range(m) for j in range(n) if X[i, j] != 0]
    draws = np.random.default_rng(seed).uniform(1.0 - delta, 1.0 + delta, size=len(cells))
    out = np.zeros_like(X)
    for (i, j), factor in zip(cells, draws):
        out[i, j] = X[i, j] * factor
    return out


def assignment_oracle(H: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Per column, the first row holding the column's largest value (so ties
    go to the smallest topic index); per row, the number of columns that
    chose it; and the columns whose entries are all zero."""
    k, n = H.shape
    assignments = []
    zero_columns = []
    for j in range(n):
        best = 0
        for t in range(1, k):
            if H[t, j] > H[best, j]:
                best = t
        assignments.append(best)
        if all(H[t, j] == 0.0 for t in range(k)):
            zero_columns.append(j)
    counts = [sum(1 for a in assignments if a == t) for t in range(k)]
    return assignments, counts, zero_columns


def frobenius_relative_error(X: np.ndarray, W: np.ndarray, H: np.ndarray) -> float:
    denom = np.linalg.norm(X)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(X - W @ H) / denom)


def purity(assignments: np.ndarray, truth: list[int]) -> float:
    """Fraction of documents whose cluster's majority true label matches."""
    total = 0
    for c in set(assignments.tolist()):
        members = [truth[j] for j in range(len(truth)) if assignments[j] == c]
        counts: dict[int, int] = {}
        for t in members:
            counts[t] = counts.get(t, 0) + 1
        total += max(counts.values())
    return total / len(truth)


# ---------------------------------------------------------------------------
# synthetic data generators


def random_tokens_corpus(
    rng: np.random.Generator, max_docs: int = 20, max_terms: int = 15
) -> tuple[list[list[str]], list[str]]:
    """Random small corpus over a random alphabetic vocabulary."""
    n_terms = int(rng.integers(2, max_terms + 1))
    terms = sorted(
        {
            "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=3))
            for _ in range(n_terms)
        }
    )
    n_docs = int(rng.integers(1, max_docs + 1))
    docs = []
    for _ in range(n_docs):
        length = int(rng.integers(1, 31))
        docs.append([terms[int(i)] for i in rng.integers(0, len(terms), size=length)])
    return docs, terms


def block_topic_matrix(
    rng: np.random.Generator, k: int, rows_per_topic: int
) -> np.ndarray:
    """Non-negative basis with disjoint row support per column, unit columns."""
    m = k * rows_per_topic
    W = np.zeros((m, k))
    for t in range(k):
        W[t * rows_per_topic : (t + 1) * rows_per_topic, t] = rng.uniform(
            0.5, 1.5, rows_per_topic
        )
    return W / np.linalg.norm(W, axis=0)


def separated_topics_problem(
    rng: np.random.Generator,
    k_true: int,
    rows_per_topic: int = 12,
    docs_per_topic: int = 30,
    noise: float = 0.01,
    floor: float = 0.02,
) -> np.ndarray:
    """X = W_true H_true, one dominant row block per topic, plus multiplicative
    noise.  Topics stay well separated (inter-topic cosine ~ floor) but carry a
    small positive background so multiplicative updates are never trapped by
    the zero lock-in of fully disjoint supports."""
    m = k_true * rows_per_topic
    W = floor * rng.uniform(0.5, 1.5, (m, k_true))
    for t in range(k_true):
        W[t * rows_per_topic : (t + 1) * rows_per_topic, t] = rng.uniform(
            0.5, 1.5, rows_per_topic
        )
    n = k_true * docs_per_topic
    H = floor * rng.uniform(0.5, 1.5, (k_true, n))
    for j in range(n):
        H[j % k_true, j] = rng.uniform(0.5, 1.5)
    X = W @ H
    X *= 1.0 + noise * rng.uniform(-1.0, 1.0, size=X.shape)
    return X


def topic_corpus_jsonl(
    rng: np.random.Generator,
    n_topics: int = 3,
    docs_per_topic: int = 100,
    words_per_topic: int = 20,
    doc_length: int = 40,
) -> tuple[list[str], list[int]]:
    """JSONL lines for documents drawn from disjoint per-topic vocabularies,
    plus the generating topic labels."""
    vocab = [
        [f"{chr(110 + t)}{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(words_per_topic)]
        for t in range(n_topics)
    ]
    lines = []
    labels = []
    order = rng.permutation(n_topics * docs_per_topic)
    for idx, slot in enumerate(order):
        t = int(slot) % n_topics
        tokens = [vocab[t][int(i)] for i in rng.integers(0, words_per_topic, size=doc_length)]
        lines.append(
            '{"id": "doc%04d", "text": "%s"}' % (idx, " ".join(tokens))
        )
        labels.append(t)
    return lines, labels
