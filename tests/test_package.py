"""The package surface: every exported name resolves."""

import nonclass


def test_every_export_resolves():
    assert [name for name in nonclass.__all__ if not hasattr(nonclass, name)] == []
    assert len(set(nonclass.__all__)) == len(nonclass.__all__)


def test_star_import():
    # a name left in __all__ after its definition is gone fails here
    namespace = {}
    exec("from nonclass import *", namespace)
    assert set(nonclass.__all__) <= namespace.keys()
