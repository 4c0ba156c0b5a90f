"""Work statistics of localized unitaries acting on a thermal scalar field.

The package computes the characteristic function of the work probability
distribution produced by a spatially smeared, temporally switched unitary
kick on a relativistic scalar field in a thermal (or vacuum) state, and the
work density with a delta atom at W = 0 (in closed form for smooth switching,
by FFT inversion for the instantaneous one), evaluates moments and
fluctuation-theorem checks, and cross-validates everything against an
independent discrete-mode simulation of the Ramsey interferometric
measurement protocol.
"""

import ctypes

from .charfn import (
    Scenario,
    charfn_correction,
    charfn_delta_closed,
    charfn_delta_numeric,
    charfn_grid,
    charfn_kms,
    sample_charfn,
)
from .distribution import WorkDistribution
from .errors import (
    ConfigError,
    ConvergenceError,
    FieldworkError,
    InconsistencyError,
    InvalidArgumentError,
    RegimeError,
)
from .field_model import (
    FieldSpec,
    SmearingProfile,
    SwitchingProfile,
    dispersion,
    smearing_ft,
    switching_ft,
    thermal_weight,
)
from .ramsey import (
    ConvergenceReport,
    ModeSet,
    QubitState,
    continuum_convergence,
    first_order_qubit_correction,
    simulate_delta_ramsey,
    simulate_perturbative_ramsey,
    tomography,
)
from .special_math import CharFnGrid, invert_charfn
from .workdist import (
    CrooksRow,
    MomentReport,
    SweepRow,
    crooks_check,
    delta_weight,
    distribution_from_charfn,
    localization_sweep,
    moments,
    work_density_analytic,
)

__version__ = "0.1.0"

# mallopt parameters of glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Raise glibc's mmap and trim thresholds, where glibc is the allocator.

    glibc serves a block above M_MMAP_THRESHOLD (128 KiB at start) by a fresh
    mmap, and gives the top of the heap back to the system once more than
    M_TRIM_THRESHOLD (twice that) of it is free; it raises both only when a
    larger mapped block is freed.  A 2^14-point distribution allocates and frees
    about 1 MiB of arrays of 64-256 KiB, so at the start values every call faults
    its temporaries in afresh: 140-210 page faults, a quarter of a delta
    distribution.  8 MiB (a 2^20-entry table) and 16 MiB keep them on a heap that
    is reused.  Elsewhere (another C library, or none found) nothing is changed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 8 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


_keep_freed_heap()

__all__ = [
    "CharFnGrid",
    "ConfigError",
    "ConvergenceError",
    "ConvergenceReport",
    "CrooksRow",
    "FieldSpec",
    "FieldworkError",
    "InconsistencyError",
    "InvalidArgumentError",
    "ModeSet",
    "MomentReport",
    "QubitState",
    "RegimeError",
    "Scenario",
    "SmearingProfile",
    "SweepRow",
    "SwitchingProfile",
    "WorkDistribution",
    "charfn_correction",
    "charfn_delta_closed",
    "charfn_delta_numeric",
    "charfn_grid",
    "charfn_kms",
    "continuum_convergence",
    "crooks_check",
    "delta_weight",
    "dispersion",
    "distribution_from_charfn",
    "first_order_qubit_correction",
    "invert_charfn",
    "localization_sweep",
    "moments",
    "sample_charfn",
    "simulate_delta_ramsey",
    "simulate_perturbative_ramsey",
    "smearing_ft",
    "switching_ft",
    "thermal_weight",
    "tomography",
    "work_density_analytic",
]
