"""The package's public surface."""

import senmfk_split


def test_every_export_resolves():
    missing = [name for name in senmfk_split.__all__ if not hasattr(senmfk_split, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from senmfk_split import *", namespace)
    assert set(senmfk_split.__all__) <= set(namespace)
