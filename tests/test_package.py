"""The package's public surface."""

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
