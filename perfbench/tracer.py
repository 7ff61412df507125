"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of nonclass's modules with wrappers
that record one span per call: name, start, end, parent span and
request id, plus the work counts of that call.  Spans stay in memory
until the run ends.  Nothing inside the package changes; `remove`
restores every original function.
"""

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# layers in the order the report lists them
LAYERS = ("cli", "states", "optimizer", "analytic", "quasiprob", "kernels.overlap", "kernels.wigner")

# every per-layer metric with its unit, in report order
UNITS = {
    "kernels.overlap.busy_s": "s",
    "kernels.overlap.calls": "count",
    "kernels.overlap.amp_pt": "count",
    "kernels.overlap.amp_pt_per_s": "1/s",
    "optimizer.self_s": "s",
    "optimizer.calls": "count",
    "optimizer.coarse_amp_pt": "count",
    "optimizer.refine_amp_pt": "count",
    "optimizer.refine_to_coarse": "ratio",
    "optimizer.kernel_calls": "count",
    "kernels.wigner.busy_s": "s",
    "kernels.wigner.calls": "count",
    "kernels.wigner.points_requested": "count",
    "kernels.wigner.points_in_support": "count",
    "kernels.wigner.chain_steps": "count",
    "kernels.wigner.chain_steps_per_s": "1/s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.encode_mb_per_s": "MB/s",
    "quasiprob.self_s": "s",
    "quasiprob.points": "count",
    "states.busy_s": "s",
    "states.calls": "count",
    "states.amplitudes": "count",
    "analytic.busy_s": "s",
    "analytic.calls": "count",
    "trace.overhead_s": "s",
    "trace.child_coverage": "ratio",
}

_STATE_BUILDERS = ("make_coherent", "make_squeezed_vacuum", "make_fock", "add_photons")


@dataclass
class Span:
    name: str
    layer: str
    parent: int  # index into Tracer.spans, -1 for a root
    request: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _overlap_counts(args, result):
    amps, betas = args[0], args[1]
    return {"amp_pt": len(amps) * np.size(betas)}


def _wigner_counts(args, result):
    amps, betas = args[0], np.asarray(args[1])
    n_amp = len(amps)
    # the kernel's own support radius; points beyond it are returned as 0
    support = math.sqrt(max(n_amp - 1, 0)) + 6.0
    inside = int(np.count_nonzero(np.abs(betas) <= support))
    return {
        "points_requested": betas.size,
        "points_in_support": inside,
        "chain_steps": n_amp * (n_amp + 1) // 2 * inside,
    }


def _state_counts(args, result):
    state = result[0] if isinstance(result, tuple) else result
    return {"amplitudes": state.cutoff + 1}


def _grid_counts(args, result):
    return {"points": result.values.size}


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = -1
        self._open = []
        self._saved = []

    def install(self, nonclass):
        """Wrap the public functions of every layer of an imported nonclass."""
        cli, states, optimizer = nonclass.cli, nonclass.states, nonclass.optimizer
        analytic, quasiprob, kernels = nonclass.analytic, nonclass.quasiprob, nonclass._kernels
        self._wrap(cli, "main", "cli", None)
        for name in _STATE_BUILDERS:
            self._wrap(states, name, "states", _state_counts)
        self._wrap(states, "svs_cutoff_for_moment", "states", None)
        self._wrap(optimizer, "maximize_q", "optimizer", None)
        self._wrap(analytic, "reference_dq", "analytic", None)
        self._wrap(quasiprob, "q_grid", "quasiprob", _grid_counts)
        self._wrap(quasiprob, "wigner_grid", "quasiprob", _grid_counts)
        self._wrap(kernels, "coherent_overlaps", "kernels.overlap", _overlap_counts)
        self._wrap(kernels, "wigner_values", "kernels.wigner", _wigner_counts)

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, module, attr, layer, counter):
        original = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2].lstrip('_')}.{attr}"
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]].name == name:
                # wigner_values recurses on the points inside its support
                # radius; the inner call belongs to the outer span
                return original(*args, **kwargs)
            span = Span(name, layer, open_[-1] if open_ else -1, self.request, time.perf_counter())
            open_.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def records(self):
        """Spans as plain dicts, for writing out."""
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request, **s.counts}
            for s in self.spans
        ]


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, bytes_written, overhead_s):
    """Per-layer busy and self times and work counts from a span list.

    Returns (metrics in UNITS order, self time per layer).  A span's self
    time is its duration minus the durations of its direct children,
    which run nested inside it one after another.  `bytes_written` is
    what the cli layer wrote (stdout and CSV files); `overhead_s` is the
    traced minus the untraced wall time of the same requests.
    """
    child_time = defaultdict(float)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
            children[s.parent].append(i)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    totals = defaultdict(int)
    for i, s in enumerate(spans):
        duration = s.end - s.start
        busy[s.layer] += duration
        self_time[s.layer] += duration - child_time[i]
        calls[s.layer] += 1
        for key, value in s.counts.items():
            totals[s.layer, key] += value

    coarse = refine = kernel_calls = 0
    for i, s in enumerate(spans):
        if s.layer != "optimizer":
            continue
        kernel_spans = [spans[j] for j in children[i] if spans[j].layer == "kernels.overlap"]
        kernel_calls += len(kernel_spans)
        for k, ks in enumerate(kernel_spans):
            if k == 0:
                coarse += ks.counts["amp_pt"]
            else:
                refine += ks.counts["amp_pt"]
    cli_spans = [i for i, s in enumerate(spans) if s.layer == "cli"]
    cli_covered = sum(child_time[i] for i in cli_spans)

    m = {
        "kernels.overlap.busy_s": busy["kernels.overlap"],
        "kernels.overlap.calls": calls["kernels.overlap"],
        "kernels.overlap.amp_pt": totals["kernels.overlap", "amp_pt"],
        "kernels.overlap.amp_pt_per_s": _ratio(
            totals["kernels.overlap", "amp_pt"], busy["kernels.overlap"]),
        "optimizer.self_s": self_time["optimizer"],
        "optimizer.calls": calls["optimizer"],
        "optimizer.coarse_amp_pt": coarse,
        "optimizer.refine_amp_pt": refine,
        "optimizer.refine_to_coarse": _ratio(refine, coarse),
        "optimizer.kernel_calls": kernel_calls,
        "kernels.wigner.busy_s": busy["kernels.wigner"],
        "kernels.wigner.calls": calls["kernels.wigner"],
        "kernels.wigner.points_requested": totals["kernels.wigner", "points_requested"],
        "kernels.wigner.points_in_support": totals["kernels.wigner", "points_in_support"],
        "kernels.wigner.chain_steps": totals["kernels.wigner", "chain_steps"],
        "kernels.wigner.chain_steps_per_s": _ratio(
            totals["kernels.wigner", "chain_steps"], busy["kernels.wigner"]),
        "cli.self_s": self_time["cli"],
        "cli.bytes_written": bytes_written,
        "cli.encode_mb_per_s": _ratio(bytes_written / 1e6, self_time["cli"]),
        "quasiprob.self_s": self_time["quasiprob"],
        "quasiprob.points": totals["quasiprob", "points"],
        "states.busy_s": busy["states"],
        "states.calls": calls["states"],
        "states.amplitudes": totals["states", "amplitudes"],
        "analytic.busy_s": busy["analytic"],
        "analytic.calls": calls["analytic"],
        "trace.overhead_s": overhead_s,
        "trace.child_coverage": _ratio(cli_covered, busy["cli"]),
    }
    return {name: m[name] for name in UNITS}, {layer: self_time[layer] for layer in LAYERS}
