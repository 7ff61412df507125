"""Calls leave every module-level value of the package as they found it.

A module-level cache makes one call's cost show up in another call's
time, and can make a result depend on what ran before it.  Two caches
stay: optimizer._row_at_one, the radius-1 weight row, which may only
grow and must keep the bytes of its old prefix, and the cli's parser,
which functools.cache keeps inside `_build_parser` (the function object
itself does not change).
"""

import dataclasses
import sys
import types

import numpy as np

from nonclass import cli, optimizer, verify

_GROWING_ROW = ("nonclass.optimizer", "_row_at_one")


def _fingerprint(value):
    """Array bytes, the contents of containers and dataclass records, and
    any other object's identity."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_fingerprint(v) for v in value)
    if isinstance(value, dict):
        return tuple((_fingerprint(k), _fingerprint(v)) for k, v in value.items())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple(_fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value))
    return id(value)


def _snapshot():
    """(id, fingerprint) of every module-level value of every nonclass module."""
    values = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "nonclass" and not module_name.startswith("nonclass."):
            continue
        for name, value in vars(module).items():
            if name == "__builtins__" or isinstance(value, types.ModuleType):
                continue
            values[module_name, name] = (id(value), _fingerprint(value))
    return values


def _run_requests(tmp_path):
    # a heavy search (17,623 amplitudes, past any light row), a light one,
    # a Wigner grid whose window reaches past the support radius, and a
    # numeric sweep, through the command line
    requests = [
        ["dq", "--state", "svs:r=3.5,phi=0+add=1", "--json"],
        ["dq", "--state", "coherent:re=1.2,im=0.4+add=5", "--json"],
        ["grid", "--state", "fock:n=1", "--what", "wigner", "--window", "-8", "8", "-8", "8",
         "--res", "41", "--out", str(tmp_path / "w.csv")],
        ["sweep", "--family", "pac", "--p-list", "1,2", "--x-min", "0.1", "--x-max", "1",
         "--steps", "3", "--numeric", "--out", str(tmp_path / "s.csv")],
    ]
    return [cli.main(argv) for argv in requests]


def test_calls_leave_module_values_unchanged(tmp_path, capsys):
    before = _snapshot()
    codes = _run_requests(tmp_path)
    checks = [verify.check_pasv_numeric(), verify.check_pasv_maximizer()]
    after = _snapshot()
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    assert [c.name for c in checks if not c.passed] == []

    assert sorted(after.keys() - before.keys()) == []
    assert sorted(before.keys() - after.keys()) == []
    changed = [".".join(key) for key in before if key != _GROWING_ROW and after[key] != before[key]]
    assert changed == []

    _, (dtype, (n_old,), old_bytes) = before[_GROWING_ROW]
    row = optimizer._row_at_one
    assert row.dtype.str == dtype
    assert row.shape[0] >= n_old
    assert row[:n_old].tobytes() == old_bytes
