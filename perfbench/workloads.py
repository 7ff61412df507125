"""Seeded request blocks for the three workloads.

A run sends the workload's pinned requests, then whole blocks of
requests built from the seed alone; the program sees only the generated
argv.  Each block covers every sampled range with a randomly shifted
rank-1 lattice (a Fibonacci lattice in two dimensions): the seed picks
the shift, the phases and the order, so every seed sends different
states, yet the set of states in a block always covers each range
evenly.  Request cost grows steeply with some parameters (about e^{2r}
in the squeeze r), and with independent uniform draws a run's throughput
and tail would hinge on how many expensive states the draw happened to
contain; the even cover removes that luck without narrowing any range.

README.md in this directory gives the reasons for every range.
"""

import math
import random
from dataclasses import dataclass

# grid requests write their CSV here, relative to the checkout root
OUT_DIR = "perfbench/.run"
GRID_OUT = OUT_DIR + "/grid.csv"

WIGNER_RES = 151
Q_RES = 401


@dataclass(frozen=True)
class Request:
    """One command line plus what the checker needs to judge its answer.

    `what` is "dq", "q" or "wigner".  `defect` is empty for an ordinary
    request; for a pinned known defect it says what goes wrong.
    """

    argv: tuple
    family: str
    params: dict
    added: int
    what: str
    res: int = 0
    defect: str = ""


def _num(x):
    # six decimals keep the argv short; the checker reads the rounded value
    return f"{x:.6f}"


def _state(family, values, added):
    """Spec text and the parameter dict the spec denotes."""
    texts = {k: (str(v) if k == "n" else _num(v)) for k, v in values.items()}
    params = {k: (int(t) if k == "n" else float(t)) for k, t in texts.items()}
    spec = family + ":" + ",".join(f"{k}={t}" for k, t in texts.items())
    if added:
        spec += f"+add={added}"
    return spec, params


def dq_request(family, values, added, defect=""):
    spec, params = _state(family, values, added)
    return Request(("dq", "--state", spec, "--json"), family, params, added, "dq", 0, defect)


def grid_request(what, res, family, values, added):
    spec, params = _state(family, values, added)
    argv = ("grid", "--state", spec, "--what", what, "--res", str(res), "--out", GRID_OUT)
    return Request(argv, family, params, added, what, res)


def lattice_1d(rng, n):
    """n evenly spaced points of [0, 1) under a random shift."""
    shift = rng.random()
    return [(j + shift) / n for j in range(n)]


def lattice_2d(rng, n, g):
    """The n-point lattice {(j/n, j g/n)} of [0, 1)^2 under a random shift.

    With (n, g) consecutive Fibonacci numbers every coordinate is evenly
    covered and the points spread well over the square.
    """
    s1, s2 = rng.random(), rng.random()
    return [((j / n + s1) % 1.0, (j * g / n + s2) % 1.0) for j in range(n)]


def _int_in(u, lo, hi):
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _coherent(rng, alpha_sq):
    a = math.sqrt(alpha_sq)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return {"re": a * math.cos(theta), "im": a * math.sin(theta)}


def _svs(rng, r):
    return {"r": r, "phi": rng.uniform(0.0, 2.0 * math.pi)}


# Known defects, sent at the start of every dq_mix run so that they count
# against the baseline (ROADMAP item 4).
PINNED_DEFECTS = (
    dq_request(
        "svs", {"r": 3.0, "phi": 0.0}, 10,
        "silent wrong dq: the peak at |beta|~45 lies past the overlap seed's "
        "underflow at |beta|~38.6",
    ),
    dq_request(
        "svs", {"r": 3.5, "phi": 0.0}, 1,
        "raw ValueError from the FockState norm check escapes cli.main",
    ),
    dq_request(
        "coherent", {"re": 38.0, "im": 0.0}, 0,
        "raw ValueError from the FockState norm check escapes cli.main",
    ),
    dq_request(
        "svs", {"r": 2.49724, "phi": 3.051618}, 5,
        "raw ValueError from the FockState norm check escapes cli.main, "
        "inside the sampled pasv range",
    ),
    dq_request(
        "svs", {"r": 0.001204, "phi": 2.992263}, 9,
        "q_max 2.3e-6 low: the optimizer stops short on the nearly round peak "
        "of a pasv state close to its Fock limit",
    ),
)


def dq_mix_block(rng):
    """`dq --json` over the four closed-form families."""
    block = [
        dq_request("coherent", _coherent(rng, 3.0 * a), _int_in(p, 0, 10))
        for a, p in lattice_2d(rng, 21, 13)
    ]
    block += [
        dq_request("svs", _svs(rng, 2.5 * r), _int_in(p, 1, 10))
        for r, p in lattice_2d(rng, 89, 55)
    ]
    block += [dq_request("fock", {"n": _int_in(n, 1, 20)}, 0) for n in lattice_1d(rng, 20)]
    block += [dq_request("svs", _svs(rng, 2.5 * r), 0) for r in lattice_1d(rng, 21)]
    return block


def wigner_map_block(rng):
    """`grid --what wigner` on the automatic window, four families."""
    res = WIGNER_RES
    block = [
        grid_request("wigner", res, "fock", {"n": _int_in(n, 1, 30)}, 0)
        for n in lattice_1d(rng, 10)
    ]
    block += [
        grid_request("wigner", res, "coherent", _coherent(rng, 4.0 * a), _int_in(p, 1, 5))
        for a, p in lattice_2d(rng, 13, 8)
    ]
    block += [
        grid_request("wigner", res, "svs", _svs(rng, 0.9 * r), _int_in(p, 1, 5))
        for r, p in lattice_2d(rng, 34, 21)
    ]
    block += [grid_request("wigner", res, "svs", _svs(rng, 1.0 * r), 0) for r in lattice_1d(rng, 13)]
    return block


def q_map_block(rng):
    """`grid --what q` at high resolution on low-cutoff states."""
    res = Q_RES
    block = [
        grid_request("q", res, "coherent", _coherent(rng, 4.0 * a), 0)
        for a in lattice_1d(rng, 13)
    ]
    block += [grid_request("q", res, "fock", {"n": _int_in(n, 1, 5)}, 0) for n in lattice_1d(rng, 10)]
    block += [
        grid_request("q", res, "coherent", _coherent(rng, 2.0 * a), _int_in(p, 1, 3))
        for a, p in lattice_2d(rng, 13, 8)
    ]
    return block


@dataclass(frozen=True)
class Workload:
    name: str
    block: object  # rng -> list of Request covering every range once
    pinned: tuple  # requests sent first in every run
    predicted_top: str  # layer expected to have the largest self time

    def requests(self, seed, blocks):
        """The pinned requests, then `blocks` blocks, each in seeded order."""
        rng = random.Random(seed)
        out = list(self.pinned)
        for _ in range(blocks):
            block = self.block(rng)
            rng.shuffle(block)
            out += block
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dq_mix", dq_mix_block, PINNED_DEFECTS, "kernels.overlap"),
        Workload("wigner_map", wigner_map_block, (), "kernels.wigner"),
        Workload("q_map", q_map_block, (), "cli"),
    )
}
