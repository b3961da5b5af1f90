"""The benchmark workloads: seeded set-up, one operation, output checks.

Each workload builds its inputs from the seed (``setup``), describes one
operation for ``worker.py`` (``spec``) and checks that operation's outputs
(``check``).  A check returns the list of problems found (empty when the
output is correct) and the fit error ||X - WH||_F / ||X||_F of the result.
Checks read the artifacts with numpy/scipy directly, not through the
package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import io as scipy_io
from scipy import sparse

import inputs

STAGES = ("preprocess", "matrices", "factorize_x", "factorize_m", "joint", "regression", "export")

TOPICS_ARGS = [
    "--kx-min", "2", "--kx-max", "6",
    "--km-min", "2", "--km-max", "6",
    "--kj-min", "2", "--kj-max", "6",
    "--perturbations", "4", "--max-iter", "200", "--tol", "1e-7", "--shift", "1",
]
DENSE_SELECTION = {
    "k_min": 2,
    "k_max": 6,
    "n_perturbations": 6,
    "delta": 0.03,
    "nmf": {"max_iter": 300, "tol": 1e-8, "seed": 7},
}
ZIPF_WINDOW = 100
ZIPF_ARGS = [
    "--window", str(ZIPF_WINDOW), "--shift", "4",
    "--kx-min", "2", "--kx-max", "3",
    "--km-min", "2", "--km-max", "3",
    "--perturbations", "2", "--max-iter", "20",
]
# Defaults of the preprocessing filters, restated for the independent recount.
MIN_DF, MAX_DF = 5, 0.5
MIN_PURITY = 0.9
UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    setup_repeats: int
    setup: Callable[..., dict]
    spec: Callable[[dict, Path], dict]
    check: Callable[[dict, Path, dict], tuple[list[str], float]]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fit_error(ws: Path) -> float:
    """||X - WH||_F / ||X||_F from the workspace's X.mtx, W.mtx and H.mtx."""
    X = scipy_io.mmread(ws / "X.mtx").toarray()
    W = np.asarray(scipy_io.mmread(ws / "W.mtx"))
    H = np.asarray(scipy_io.mmread(ws / "H.mtx"))
    return float(np.linalg.norm(X - W @ H) / np.linalg.norm(X))


def purity(assignments: list[int], truth: list[int]) -> float:
    """Share of documents whose assigned topic's majority true label matches."""
    counts: dict[int, dict[int, int]] = {}
    for a, t in zip(assignments, truth):
        counts.setdefault(a, {}).setdefault(t, 0)
        counts[a][t] += 1
    return sum(max(c.values()) for c in counts.values()) / len(truth)


def read_assignments(ws: Path) -> dict[str, int]:
    """doc_id -> assigned topic, from assignments.csv."""
    with (ws / "assignments.csv").open("r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {row[0]: int(row[1]) for row in rows}


def stopwords() -> frozenset[str]:
    path = inputs.ROOT / "src" / "senmfk_split" / "data" / "stopwords_en.txt"
    return frozenset(line.strip() for line in path.read_text("utf-8").splitlines() if line.strip())


def _exit_problems(out: dict) -> list[str]:
    if out.get("exit_code") != 0:
        return [f"exit code {out.get('exit_code')}: {out.get('error', '')}".strip()]
    return []


# -- topics-e2e -------------------------------------------------------------


def topics_setup(seed: int, workdir: Path, run_operation=None) -> dict:
    path = workdir / "topics.jsonl"
    labels = inputs.write_topics_corpus(seed, path)
    return {"input": str(path), "labels": labels, "k_true": inputs.TOPICS["n_topics"]}


def topics_spec(ctx: dict, opdir: Path) -> dict:
    return {"kind": "cli", "argv": ["run", ctx["input"], "--workspace", str(opdir / "ws"), *TOPICS_ARGS]}


def topics_check(ctx: dict, opdir: Path, out: dict) -> tuple[list[str], float]:
    problems = _exit_problems(out)
    if problems:
        return problems, float("nan")
    ws = opdir / "ws"
    k = np.asarray(scipy_io.mmread(ws / "W.mtx")).shape[1]
    if k != ctx["k_true"]:
        problems.append(f"k = {k}, expected {ctx['k_true']}")
    assigned = read_assignments(ws)
    # topic_corpus_jsonl numbers documents doc0000, doc0001, ... in label order
    ids = [f"doc{j:04d}" for j in range(len(ctx["labels"]))]
    if sorted(assigned) != ids:
        problems.append(f"{len(assigned)} documents assigned, expected {len(ids)}")
        return problems, fit_error(ws)
    score = purity([assigned[doc] for doc in ids], ctx["labels"])
    if score < MIN_PURITY:
        problems.append(f"purity {score:.3f} < {MIN_PURITY}")
    return problems, fit_error(ws)


# -- dense-scan -------------------------------------------------------------


def dense_setup(seed: int, workdir: Path, run_operation=None) -> dict:
    path = workdir / "dense.npy"
    k_true = inputs.write_dense_problem(seed, path)
    return {"matrix": str(path), "k_true": k_true}


def dense_spec(ctx: dict, opdir: Path) -> dict:
    return {"kind": "nmfk", "matrix": ctx["matrix"], "selection": DENSE_SELECTION}


def dense_check(ctx: dict, opdir: Path, out: dict) -> tuple[list[str], float]:
    problems = _exit_problems(out)
    if problems:
        return problems, float("nan")
    result = out["result"]
    if result["chosen_k"] != ctx["k_true"]:
        problems.append(f"chosen_k = {result['chosen_k']}, expected {ctx['k_true']}")
    if result["fallback"]:
        problems.append("rank chosen by fallback")
    errors = [r["relative_error"] for r in result["per_k"] if r["k"] == result["chosen_k"]]
    return problems, float(errors[0]) if errors else float("nan")


# -- zipf-matrices ----------------------------------------------------------


def zipf_setup(seed: int, workdir: Path, run_operation=None) -> dict:
    path = workdir / "zipf.jsonl"
    ids = inputs.write_zipf_corpus(seed, path, stopwords())
    expected = inputs.zipf_expected(ids, ZIPF_WINDOW, MIN_DF, MAX_DF)
    return {"input": str(path), **expected}


def zipf_spec(ctx: dict, opdir: Path) -> dict:
    return {"kind": "cli", "argv": ["run", ctx["input"], "--workspace", str(opdir / "ws"), *ZIPF_ARGS]}


def zipf_check(ctx: dict, opdir: Path, out: dict) -> tuple[list[str], float]:
    problems = _exit_problems(out)
    if problems:
        return problems, float("nan")
    ws = opdir / "ws"
    n_terms = sum(1 for line in (ws / "vocab.txt").read_text("utf-8").splitlines() if line.strip())
    if n_terms != ctx["vocabulary"]:
        problems.append(f"vocabulary has {n_terms} terms, expected {ctx['vocabulary']}")
    cooc = sparse.csr_matrix(scipy_io.mmread(ws / "cooc.mtx"))
    if (cooc != cooc.T).nnz:
        problems.append("cooc is not symmetric")
    total = float(cooc.sum())
    if total != 2.0 * ctx["pairs"]:
        problems.append(f"cooc total {total:.0f}, expected {2 * ctx['pairs']}")
    X = sparse.csc_matrix(scipy_io.mmread(ws / "X.mtx"))
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=0)).ravel())
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > UNIT_NORM_TOL:
        problems.append(f"X column norm off unit by {worst:.3g}")
    return problems, fit_error(ws)


# -- zipf-resume ------------------------------------------------------------


def _stage_outputs(ws: Path) -> dict:
    stages = json.loads((ws / "manifest.json").read_text("utf-8"))["stages"]
    return {name: stages[name]["outputs"] for name in stages}


def resume_setup(seed: int, workdir: Path, run_operation) -> dict:
    """Zipf corpus plus a completed workspace for it; ``run_operation`` runs
    the prerequisite ``senmfk run`` (in a worker process)."""
    ctx = zipf_setup(seed, workdir)
    ws = workdir / "resume"
    shutil.rmtree(ws, ignore_errors=True)
    ws.mkdir(parents=True)
    out = run_operation({"kind": "cli", "argv": ["run", ctx["input"], "--workspace", str(ws), *ZIPF_ARGS]})
    if out.get("exit_code") != 0:
        raise RuntimeError(f"prerequisite run failed: {out}")
    ctx.update(
        workspace=str(ws),
        digests=_stage_outputs(ws),
        fit_rel_error=fit_error(ws),
    )
    return ctx


def resume_spec(ctx: dict, opdir: Path) -> dict:
    return {
        "kind": "cli",
        "argv": ["run", ctx["input"], "--workspace", ctx["workspace"], *ZIPF_ARGS, "--resume"],
    }


def resume_check(ctx: dict, opdir: Path, out: dict) -> tuple[list[str], float]:
    problems = _exit_problems(out)
    if problems:
        return problems, float("nan")
    ws = Path(ctx["workspace"])
    stages = json.loads((ws / "manifest.json").read_text("utf-8"))["stages"]
    for name in STAGES:
        if not stages.get(name, {}).get("resumed"):
            problems.append(f"stage {name} was not resumed")
    for name, outputs in ctx["digests"].items():
        for fname, digest in outputs.items():
            if sha256_file(ws / fname) != digest:
                problems.append(f"{fname} differs from the set-up run")
    return problems, ctx["fit_rel_error"]


WORKLOADS = {
    "topics-e2e": Workload(5, topics_setup, topics_spec, topics_check),
    "dense-scan": Workload(5, dense_setup, dense_spec, dense_check),
    "zipf-matrices": Workload(3, zipf_setup, zipf_spec, zipf_check),
    "zipf-resume": Workload(3, resume_setup, resume_spec, resume_check),
}
