"""Seeded input generators for the benchmark workloads.

The topic corpus and the dense rank-recovery problem come from the test
suite's generators in ``tests/oracles.py``; the Zipf corpus is generated
here.  Every generator is a pure function of its seed, so the same seed
gives byte-identical input files.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Shapes of the generated inputs, one entry per workload family.
TOPICS = {"n_topics": 3, "docs_per_topic": 150, "words_per_topic": 30, "doc_length": 60}
# k_true = 3: at k_true = 5 a few data seeds in a thousand (740669735 is one)
# leaves a multiplicative-update member with a dead component at the true
# rank, so nmfk picks k = 4; none of 4,500 such fits at k_true = 3 did.
DENSE = {"k_true": 3, "rows_per_topic": 20, "docs_per_topic": 50, "noise": 0.01}
ZIPF = {"docs": 500, "doc_length": 300, "terms": 3000, "exponent": 1.0}


def load_oracles():
    """Import ``tests/oracles.py`` by path; the tests directory is not a
    package."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("senmfk_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_topics_corpus(seed: int, path: Path) -> list[int]:
    """Disjoint-vocabulary topic corpus as JSON lines; returns the generating
    topic label of every document, in file order."""
    oracles = load_oracles()
    lines, labels = oracles.topic_corpus_jsonl(np.random.default_rng(seed), **TOPICS)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return labels


def write_dense_problem(seed: int, path: Path) -> int:
    """Well-separated rank-``k_true`` non-negative matrix (100% dense) saved
    as ``.npy``; returns k_true."""
    oracles = load_oracles()
    X = oracles.separated_topics_problem(np.random.default_rng(seed), **DENSE)
    np.save(path, X)
    return DENSE["k_true"]


def zipf_terms(n: int, stopwords: frozenset[str]) -> list[str]:
    """``n`` distinct alphabetic term names ('qa', 'qb', ..., 'qaa', ...)
    that survive the tokenizer and avoid ``stopwords``."""
    terms: list[str] = []
    i = 0
    while len(terms) < n:
        letters = ""
        j = i
        while True:
            letters = chr(97 + j % 26) + letters
            j //= 26
            if j == 0:
                break
        term = "q" + letters
        if term not in stopwords:
            terms.append(term)
        i += 1
    return terms


def write_zipf_corpus(seed: int, path: Path, stopwords: frozenset[str]) -> np.ndarray:
    """Documents of i.i.d. Zipf-distributed terms (term ranks shuffled by the
    seed) as JSON lines; returns the (docs x doc_length) term-id matrix that
    the text was rendered from."""
    rng = np.random.default_rng(seed)
    n_terms = ZIPF["terms"]
    terms = zipf_terms(n_terms, stopwords)
    weights = 1.0 / np.arange(1, n_terms + 1) ** ZIPF["exponent"]
    ids = rng.permutation(n_terms)[
        rng.choice(n_terms, size=(ZIPF["docs"], ZIPF["doc_length"]), p=weights / weights.sum())
    ]
    with path.open("w", encoding="utf-8") as fh:
        for j, row in enumerate(ids):
            text = " ".join(terms[i] for i in row)
            fh.write(json.dumps({"id": f"doc{j:05d}", "text": text}) + "\n")
    return ids


def zipf_expected(ids: np.ndarray, window: int, min_df: int, max_df: float) -> dict:
    """Independent recount from the generated term ids: the vocabulary the
    document-frequency filter keeps and the number of in-vocabulary token
    pairs less than ``window`` positions apart within a document."""
    n_docs, _ = ids.shape
    n_terms = int(ids.max()) + 1
    df = np.zeros(n_terms, dtype=np.int64)
    for row in ids:
        df[np.unique(row)] += 1
    keep = (df >= min_df) & (df <= int(max_df * n_docs))
    pairs = 0
    for row in ids:
        positions = np.flatnonzero(keep[row])
        # in-vocabulary positions q with p < q <= p + window - 1
        ahead = np.searchsorted(positions, positions + window - 1, side="right")
        pairs += int((ahead - np.arange(1, positions.size + 1)).sum())
    return {"vocabulary": int(keep.sum()), "pairs": pairs}
