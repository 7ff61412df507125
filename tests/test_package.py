"""The package surface: every exported name resolves, and so does every
name the benchmark's tracer wraps."""

import inspect
import re
import sys
from pathlib import Path

import nonclass
import nonclass.cli  # noqa: F401  (the tracer wraps cli.main)

ROOT = Path(__file__).resolve().parents[1]


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


def test_benchmark_tracer_wraps_and_restores_every_name():
    # perfbench/tracer.py replaces functions of nonclass's modules by name,
    # so a renamed one fails its install here, not only in a traced run;
    # the tracer is imported as it is, from the benchmark's directory
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    t = tracer.Tracer()
    try:
        t.install(nonclass)
        wrapped = list(t._saved)
        assert wrapped
        assert [(m.__name__, a) for m, a, f in wrapped if getattr(m, a) is f] == []
    finally:
        t.remove()
    assert [(m.__name__, a) for m, a, f in wrapped if getattr(m, a) is not f] == []
