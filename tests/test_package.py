"""The package's public surface."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import senmfk_split


def test_every_export_resolves():
    missing = [name for name in senmfk_split.__all__ if not hasattr(senmfk_split, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from senmfk_split import *", namespace)
    assert set(senmfk_split.__all__) <= set(namespace)


def test_no_heavy_scipy_subpackage_is_imported():
    # Only scipy.sparse and scipy.io are used; scipy.optimize alone would add
    # about 27 MB to every process, through scipy.linalg, scipy.spatial and
    # scipy.special.  A fresh interpreter imports the package and the CLI
    # and runs a small rank scan, which matches ensemble columns.
    script = """
import sys
import numpy as np
from scipy import sparse
import senmfk_split, senmfk_split.cli
from senmfk_split.model_selection import SelectionConfig, nmfk
from senmfk_split.nmf_core import NmfConfig
X = sparse.csr_matrix(np.random.default_rng(0).uniform(size=(12, 10)))
nmfk(X, SelectionConfig(k_min=1, k_max=3, n_perturbations=2, nmf=NmfConfig(max_iter=30, seed=1)))
heavy = ("scipy.optimize", "scipy.linalg", "scipy.spatial", "scipy.special")
print(sorted(m for m in sys.modules if m.startswith(heavy)))
"""
    src = Path(senmfk_split.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


# Names perfbench/tracing.py still hooks that the package no longer has; the
# tracer's own fix drops them.
_STALE_TRACED = {
    ("nmf_core", "_run_updates"),
    ("model_selection", "_ensemble_member"),
    ("storage", "write_trace_csv"),
    ("storage", "read_histogram"),
}


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark's tracer wraps these names by string, so a rename in the
    # package silently zeroes its metrics; a dotted name is a method
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    names = set(tracing._HOOKS)
    for layer, private in tracing.PRIVATE_BOUNDARIES.items():
        names.update((layer, name) for name in private)
    missing = []
    for layer, dotted in sorted(names - _STALE_TRACED):
        obj = importlib.import_module(f"senmfk_split.{layer}")
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{layer}.{dotted}")
    assert missing == []
