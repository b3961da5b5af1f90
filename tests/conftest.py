"""Shared fixtures for the test suite."""

import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from senmfk_split.matrix_builder import SemanticConfig
from senmfk_split.model_selection import SelectionConfig
from senmfk_split.nmf_core import NmfConfig
from senmfk_split.split_pipeline import SplitConfig
from senmfk_split.text_pipeline import PipelineConfig


RNG_SEED = 20240817


@pytest.fixture
def rng():
    return np.random.default_rng(RNG_SEED)


def fast_nmf(seed: int, max_iter: int = 300, tol: float = 1e-7) -> NmfConfig:
    return NmfConfig(max_iter=max_iter, tol=tol, seed=seed)


def small_split_config(
    seed: int = 1,
    k_lo: int = 2,
    k_hi: int = 5,
    perturbations: int = 6,
    shift: float = 1.0,
) -> SplitConfig:
    """Pipeline config sized for synthetic desk-scale corpora.

    shift defaults to 1 because equal disjoint-topic multinomial corpora top
    out at PMI = ln(n_topics), which the production default shift of 4 would
    clip to an all-zero context matrix.
    """
    return SplitConfig(
        selection_x=SelectionConfig(k_lo, k_hi, n_perturbations=perturbations, nmf=fast_nmf(seed)),
        selection_m=SelectionConfig(k_lo, k_hi, n_perturbations=perturbations, nmf=fast_nmf(seed + 1)),
        pipeline=PipelineConfig(),
        semantic=SemanticConfig(window=100, shift=shift),
    )


def histogram_rows(path) -> list[tuple[int, int]]:
    """The (topic_id, count) rows of a histogram.csv, which the package
    writes but never reads, below its header."""
    with Path(path).open(encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["topic_id", "count"]
    return [(int(topic), int(count)) for topic, count in rows]


def assert_same_csr(actual, expected) -> None:
    """Equal shape and CSR arrays, bit for bit, with float64 values."""
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(actual, name), getattr(expected, name), err_msg=name)
    assert actual.data.dtype == np.float64


def traced_peak(fn):
    """Call ``fn()`` under tracemalloc, started and with its peak reset just
    before.  Returns (result, peak bytes allocated during the call, bytes
    still allocated when it returned: what the result holds)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def write_jsonl(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_raw_corpus_file(tmp_path: Path, docs: dict[str, str]) -> Path:
    lines = [json.dumps({"id": doc_id, "text": text}) for doc_id, text in docs.items()]
    return write_jsonl(tmp_path / "input.jsonl", lines)
