"""End-to-end acceptance gate: `nonclass verify`, run once as a child process.

The checks in nonclass.verify are the one definition of every acceptance
criterion.  The entry-point test runs `python -m nonclass.cli verify`
once, and each check is then its own test item, which prints its line
of the child's output and asserts that it passed.  Run with -s (or read
the captured output of a failure) to see the lines.
"""

import os
import subprocess
import sys
import time

import pytest

import nonclass
from nonclass import verify


@pytest.fixture(scope="module")
def verify_run():
    # the child must import the same package as this process, installed or
    # not, and a numpy RuntimeWarning fails it, as filterwarnings makes it
    # fail a test in process
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nonclass.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "nonclass.cli", "verify"],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc, time.perf_counter() - start


def test_verify_subcommand(verify_run):
    proc, elapsed = verify_run
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else "none"
    print(f"exit={proc.returncode}, {elapsed:.1f}s, summary={summary!r}")
    assert proc.returncode == 0 and elapsed < 60.0, proc.stderr
    assert summary.startswith(f"{len(verify.ALL_CHECKS)} checks: ") and " 0 failed " in summary


@pytest.mark.parametrize("index", range(len(verify.ALL_CHECKS)),
                         ids=[fn.__name__ for fn in verify.ALL_CHECKS])
def test_check(verify_run, index):
    # cli.cmd_verify prints one line per check, in ALL_CHECKS order
    proc, _ = verify_run
    lines = proc.stdout.splitlines()
    assert len(lines) > index, proc.stderr
    print(lines[index])
    assert lines[index].startswith("PASS  ")
