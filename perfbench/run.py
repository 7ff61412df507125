"""Benchmark of the nonclass command line, end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dq_mix --seed 1 --seconds 25 --trace 0

One closed-loop client in one process sends the workload's seeded
requests through `nonclass.cli.main(argv)`, checks every answer, and
prints a report followed by one JSON line.  With `--trace 0` the JSON
holds the end-to-end metrics; with `--trace 1` it holds the per-layer
metrics of a fixed number of traced requests.  README.md in this
directory explains the workloads and the metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check, known_defect
from tracer import LAYERS, UNITS, Tracer, layer_metrics
from workloads import GRID_OUT, OUT_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import nonclass, nonclass.verify; nonclass.verify.warm_up()"
)
TAIL_BEYOND = 10  # samples required beyond the tail percentile
BLOCK_SECONDS = 25  # a block takes 15-25 s at the seed commit on 2 cores
RUN_LIMIT_S = 140  # stop sending past this, so that a run ends within 180 s


@dataclass
class Outcome:
    seconds: float
    code: object  # exit code of cli.main, None when an exception escaped
    stdout: str
    stderr: str
    error: object
    out_path: str
    bytes_written: int
    failure: object = None  # reason, None when the answer is correct


def measure_setup():
    """Wall time of a fresh interpreter importing nonclass and warming up."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, timeout=120)
    return time.perf_counter() - start


def send(cli, request, reference_dq):
    """Run one request through cli.main, timing only the call, then check it."""
    out_path = ""
    if request.what != "dq":
        out_path = str(ROOT / request.argv[request.argv.index("--out") + 1])
        with contextlib.suppress(FileNotFoundError):
            os.unlink(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(list(request.argv))
        except Exception as exc:  # an escaping exception is a failed request
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    text = stdout.getvalue()
    written = len(text.encode())
    if out_path and os.path.exists(out_path):
        written += os.path.getsize(out_path)
    outcome = Outcome(seconds, code, text, stderr.getvalue(), error, out_path, written)
    outcome.failure = check(request, outcome, reference_dq)
    return outcome


def argv_digest(requests):
    h = hashlib.sha256()
    for r in requests:
        h.update(json.dumps(r.argv).encode() + b"\n")
    return h.hexdigest()


def tail_latency(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def environment():
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            sha = done.stdout.strip() or None
    try:
        import numba  # noqa: F401  (recorded only: does the optional jit import?)
        numba_ok = True
    except ImportError:
        numba_ok = False
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": numba_ok,
    }


def report_failures(sent, outcomes):
    for request, outcome in zip(sent, outcomes):
        if outcome.failure is not None:
            defect = known_defect(request, outcome)
            kind = f"known defect ({defect})" if defect else "UNEXPECTED"
            print(f"  failed [{kind}] {' '.join(request.argv)}: {outcome.failure}")


def result_line(sent, outcomes, metrics):
    failed = sum(o.failure is not None for o in outcomes)
    unexpected = sum(
        o.failure is not None and not known_defect(r, o) for r, o in zip(sent, outcomes)
    )
    return {
        "correct": unexpected == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }


def within_limit(requests, started):
    """Yield requests until the run has lasted RUN_LIMIT_S."""
    for request in requests:
        if time.perf_counter() - started > RUN_LIMIT_S:
            print(f"run limit of {RUN_LIMIT_S} s reached: {len(requests)} requests planned")
            return
        yield request


def timed_run(nonclass, requests, seed, reference_dq):
    """Closed loop over the requests, one at a time.

    Checking runs between requests and is not timed.  The SETUP_RUNS
    set-up measurements are spread over the run, so that their median
    does not rest on one moment of a machine whose speed drifts.
    """
    started = time.perf_counter()
    every = max(1, len(requests) // SETUP_RUNS)
    setups, sent, outcomes = [], [], []
    for i, request in enumerate(within_limit(requests, started)):
        if i % every == 0 and len(setups) < SETUP_RUNS:
            setups.append(measure_setup())
        sent.append(request)
        outcomes.append(send(nonclass.cli, request, reference_dq))
    setup_s = statistics.median(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [o.seconds for o in outcomes]
    busy = sum(latencies)
    p50 = statistics.median(latencies)
    tail, pct, beyond = tail_latency(latencies)
    attempted = len(outcomes)
    failed = sum(o.failure is not None for o in outcomes)
    res = sent[-1].res
    size = f"res {res}x{res} lattice per request" if res else "one state per request"

    print(f"inputs: {json.dumps({'seed': seed, 'requests': attempted, 'argv_sha256': argv_digest(sent)})}")
    print(f"setup_s         {setup_s:.6f} s      median of {len(setups)} fresh interpreters")
    print(f"requests_per_s  {attempted / busy:.6f} 1/s    {attempted} requests in {busy:.3f} s; {size}")
    print(f"latency_p50_s   {p50:.6f} s      of {attempted} samples")
    print(f"latency_tail_s  {tail:.6f} s      p{pct:.1f}, {beyond} samples beyond it, of {attempted}")
    print(f"failed_frac     {failed / attempted:.6f} ratio  {failed} of {attempted}")
    print(f"ok_frac         {1 - failed / attempted:.6f} ratio")
    print(f"peak_rss_mb     {peak_rss_mb:.3f} MB     this process")
    report_failures(sent, outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (attempted / busy, "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail, "s"),
        "ok_frac": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return sent, outcomes, metrics


def traced_run(nonclass, workload, requests, seed, reference_dq):
    """Each request sent once traced and once not.

    The order of the pair alternates, so drift in machine speed cancels
    from the overhead estimate.  A request fails if either send fails.
    """
    started = time.perf_counter()
    tracer = Tracer()
    sent, outcomes = [], []
    traced_wall = untraced_wall = 0.0
    for i, request in enumerate(within_limit(requests, started)):
        sent.append(request)
        pair = {}
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if with_trace:
                tracer.request = i
                tracer.install(nonclass)
            try:
                pair[with_trace] = send(nonclass.cli, request, reference_dq)
            finally:
                tracer.remove()
        traced_wall += pair[True].seconds
        untraced_wall += pair[False].seconds
        if pair[True].failure is None:
            pair[True].failure = pair[False].failure
        outcomes.append(pair[True])

    bytes_written = sum(o.bytes_written for o in outcomes)
    metrics, self_times = layer_metrics(tracer.spans, bytes_written, traced_wall - untraced_wall)
    spans_path = ROOT / OUT_DIR / f"spans_{workload.name}_seed{seed}.json"
    spans_path.write_text(json.dumps(tracer.records()))
    top = max(LAYERS, key=lambda layer: self_times[layer])
    verdict = "as predicted" if top == workload.predicted_top else "NOT as predicted"

    print(f"inputs: {json.dumps({'seed': seed, 'requests': len(sent), 'argv_sha256': argv_digest(sent)})}")
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print(f"wall: traced {traced_wall:.3f} s, untraced {untraced_wall:.3f} s")
    print("self time by layer:")
    for layer in sorted(LAYERS, key=lambda layer: -self_times[layer]):
        print(f"  {layer:16s} {self_times[layer]:10.4f} s  {self_times[layer] / traced_wall:7.2%}")
    print(f"largest self time: {top} ({verdict}: {workload.predicted_top})")
    report_failures(sent, outcomes)
    return sent, outcomes, {name: (value, UNITS[name]) for name, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nonclass" / "__init__.py").is_file():
        print(f"error: no nonclass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nonclass
    import nonclass.analytic
    import nonclass.cli
    import nonclass.verify

    if Path(nonclass.__file__).resolve().parent != SRC / "nonclass":
        print(f"error: imported nonclass from {nonclass.__file__}, not {SRC}", file=sys.stderr)
        return 2
    nonclass.verify.warm_up()
    reference_dq = nonclass.analytic.reference_dq
    workload = WORKLOADS[args.workload]
    requests = workload.requests(args.seed, max(1, round(args.seconds / BLOCK_SECONDS)))
    (ROOT / OUT_DIR).mkdir(parents=True, exist_ok=True)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            sent, outcomes, metrics = traced_run(nonclass, workload, requests, args.seed, reference_dq)
        else:
            sent, outcomes, metrics = timed_run(nonclass, requests, args.seed, reference_dq)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(ROOT / GRID_OUT)
    print(f"environment: {json.dumps(environment())}")
    result = result_line(sent, outcomes, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
