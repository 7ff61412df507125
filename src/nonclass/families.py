"""The state families, one record each; parse, render, build, reference and sweep read FAMILIES.

checks maps each spec key, in spec order, to the analytic check of its
value (a key checked by analytic._integer is an integer).  build(params,
cutoff_override, p) calls its constructor as states.<name> when it runs;
reference(params, p) is the closed form (ln F, source tag), F = pi qmax.
A sweep's x is >= 0 with rows over --p-list, or with x_is_p x is p, an
integer, with no photons added.  A new family is one more record, whose
build is one constructor call (a photon-added number state is built as |n+p>).
"""

import math
from typing import Callable, NamedTuple, Optional

from . import analytic, states
from .errors import DomainError


class Sweep(NamedTuple):
    name: str  # the sweep --family choice
    x_name: str
    params: Callable  # x -> the family's params
    x_is_p: bool = False


class Family(NamedTuple):
    name: str
    checks: dict
    build: Callable
    reference: Callable
    sweep: Optional[Sweep] = None

    def checked(self, params):
        """params with every value through its check; DomainError for the first bad one."""
        return {key: check(key, params[key]) for key, check in self.checks.items()}


def _coherent_ref(v, p):
    alpha = complex(v["re"], v["im"])
    analytic._alpha_sq(alpha)  # refuses what make_coherent refuses
    u = alpha.real**2 + alpha.imag**2
    tag = f"pac(p={p}, alpha_sq={u!r})" if p else "coherent"
    return (analytic._log_pac_fidelity(p, u) if p else 0.0), tag


def _svs_ref(v, p):
    tag = f"pasv(p={p}, r={v['r']!r})" if p else f"svs(r={v['r']!r})"
    return analytic._log_pasv_fidelity(p, v["r"]), tag


def _fock_ref(v, p):
    n = v["n"] + p
    return (analytic._log_fock_fidelity(n), f"fock(p={n})") if n else (0.0, "fock(0)")


FAMILIES = {f.name: f for f in (
    Family("coherent", {"re": analytic._finite, "im": analytic._finite},
           lambda v, cutoff, p: states.make_coherent(complex(v["re"], v["im"]), cutoff, p),
           _coherent_ref, Sweep("pac", "alpha_sq", lambda x: {"re": math.sqrt(x), "im": 0.0})),
    Family("svs", {"r": analytic._nonnegative, "phi": analytic._finite},
           lambda v, cutoff, p: states.make_squeezed_vacuum(v["r"], v["phi"], cutoff, p),
           _svs_ref, Sweep("pasv", "mean_occupancy",
                           lambda x: {"r": math.asinh(math.sqrt(x)), "phi": 0.0})),
    Family("fock", {"n": analytic._integer},
           lambda v, cutoff, p: states.make_fock(v["n"] + p, None if cutoff is None else cutoff + p),
           _fock_ref, Sweep("fock", "p", lambda n: {"n": n}, x_is_p=True)),
)}


def record(family):
    """The record of family; DomainError when it has none."""
    try:
        return FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown family {family!r}") from None


def sweeps():
    """{sweep name: record} for the records with a sweep axis, in table order."""
    return {f.sweep.name: f for f in FAMILIES.values() if f.sweep is not None}
