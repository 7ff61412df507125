"""Geometric non-classicality of single-mode bosonic states.

The degree of non-classicality of a pure state is measured by how far
its Husimi density peak falls below the coherent-state ceiling 1/pi:
dq = 1 - pi * max_beta Q(beta).  The package builds truncated
Fock-basis states (coherent, squeezed vacuum, number states, and their
photon-added versions), evaluates Husimi and Wigner densities on
lattices, locates the Husimi peak with a coarse search on concentric
rings (one FFT per ring) and a polar Newton polish, and cross-checks
everything against closed forms.
"""

from .analytic import (
    FockNonclassicality,
    PacParams,
    PasvParams,
    PasvQmax,
    SqueezeLimits,
    dq_pac,
    fock_nonclassicality,
    pasv_dq,
    pasv_qmax,
    qmax_pac,
    reference_dq,
    strong_squeezing_limits,
    svs_antinormal,
    svs_qmax,
)
from .errors import (
    AccuracyError,
    ConvergenceError,
    CutoffError,
    DomainError,
    NonclassError,
    SpecParseError,
    WindowError,
)
from .optimizer import NonclassReport, OptOptions, maximize_q
from .quasiprob import (
    QGrid,
    grid_quadrature,
    q_grid,
    q_value,
    wigner_grid,
    wigner_min_scan,
    wigner_value,
)
from .states import (
    FockState,
    PhasePoint,
    add_photons,
    antinormal_correlation,
    coherent_overlap,
    displace,
    make_coherent,
    make_fock,
    make_squeezed_vacuum,
    mean_photon,
    rotate,
    svs_cutoff_for_moment,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ConvergenceError",
    "CutoffError",
    "DomainError",
    "FockNonclassicality",
    "FockState",
    "NonclassError",
    "NonclassReport",
    "OptOptions",
    "PacParams",
    "PasvParams",
    "PasvQmax",
    "PhasePoint",
    "QGrid",
    "SpecParseError",
    "SqueezeLimits",
    "WindowError",
    "add_photons",
    "antinormal_correlation",
    "coherent_overlap",
    "displace",
    "dq_pac",
    "fock_nonclassicality",
    "grid_quadrature",
    "make_coherent",
    "make_fock",
    "make_squeezed_vacuum",
    "maximize_q",
    "mean_photon",
    "pasv_dq",
    "pasv_qmax",
    "q_grid",
    "q_value",
    "qmax_pac",
    "reference_dq",
    "rotate",
    "strong_squeezing_limits",
    "svs_antinormal",
    "svs_cutoff_for_moment",
    "svs_qmax",
    "wigner_grid",
    "wigner_min_scan",
    "wigner_value",
    "__version__",
]
