"""The package surface: every exported name resolves."""

import inspect
import re
from pathlib import Path

import nonclass


def test_every_export_resolves():
    assert [name for name in nonclass.__all__ if not hasattr(nonclass, name)] == []
    assert len(set(nonclass.__all__)) == len(nonclass.__all__)


def test_star_import():
    # a name left in __all__ after its definition is gone fails here
    namespace = {}
    exec("from nonclass import *", namespace)
    assert set(nonclass.__all__) <= namespace.keys()


def test_readme_api_section_names_every_exported_function():
    # "More of the API" gives each exported function with its signature,
    # `name(args)`, and names no function the package does not export
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index("### More of the API")
    section = text[start : text.index("\n## ", start)]
    named = set(re.findall(r"`([a-z_][a-z0-9_]*)\(", section))
    exported = {
        name for name in nonclass.__all__
        if inspect.isfunction(getattr(nonclass, name))
    }
    assert named == exported
