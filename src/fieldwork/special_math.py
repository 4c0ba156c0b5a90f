"""Special functions, radial quadrature and Fourier inversion primitives.

Conventions used throughout the package:

    forward  :  P~(mu) = Int P(W) e^{+i mu W} dW
    inverse  :  P(W)   = (1/2pi) Int P~(mu) e^{-i mu W} dmu

A characteristic function sampled on a uniform mu grid that still contains a
non-decaying constant level corresponds to a point mass (atom) at W = 0.  The
atom is estimated from the outer 10% of the mu window, where any absolutely
continuous contribution has dephased, and is subtracted before the discrete
inverse transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from .distribution import WorkDistribution
from .errors import ConvergenceError, InvalidArgumentError

__all__ = [
    "QuadratureSpec",
    "CharFnGrid",
    "dawson",
    "integrate_radial",
    "invert_charfn",
    "conjugate_w_grid",
]

_GRID_CHECK_TOL = 1e-6  # P~(0) = 1 and Hermitian symmetry of a sampled CharFnGrid


def dawson(x):
    """Dawson integral D(x) = exp(-x^2) * Int_0^x exp(y^2) dy (scipy.special.dawsn).

    Accepts a float or an array; relative error near machine precision.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("dawson: input must be finite")
    out = scipy.special.dawsn(arr)
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and cutoff for the semi-infinite radial integrals.

    The momentum integrals are truncated at ``k_max``; callers are responsible
    for choosing a cutoff beyond which their integrand tail is below tolerance
    (Gaussian profiles decay like exp(-k^2 * width^2), so this is easy).
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    k_max: float = 100.0
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise InvalidArgumentError("QuadratureSpec: tolerances must be > 0")
        if not (self.k_max > 0 and math.isfinite(self.k_max)):
            raise InvalidArgumentError("QuadratureSpec: k_max must be finite and > 0")
        if self.max_subdivisions < 1:
            raise InvalidArgumentError("QuadratureSpec: max_subdivisions >= 1")


def integrate_radial(f, spec: QuadratureSpec, return_error: bool = False):
    """Adaptive estimate of Int_0^inf f(k) dk, truncated at spec.k_max.

    Raises ConvergenceError (carrying the best estimate and its error bound)
    when the subdivision budget is exhausted before reaching tolerance.
    """
    res = scipy.integrate.quad(
        f,
        0.0,
        spec.k_max,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    value, bound = res[0], res[1]
    if len(res) > 3:  # explanation string present -> warning raised
        raise ConvergenceError(
            f"radial quadrature failed to converge: {res[3]}",
            estimate=value,
            error_bound=bound,
        )
    if bound > max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0:
        raise ConvergenceError(
            "radial quadrature error bound above tolerance",
            estimate=value,
            error_bound=bound,
        )
    if return_error:
        return value, bound
    return value


@dataclass
class CharFnGrid:
    """Characteristic function sampled on a uniform mu grid.

    The grid follows DFT layout: mu_n = (n - N/2) * dmu for n = 0..N-1 with N
    even, so mu = 0 is always present and every positive sample except the left
    endpoint has its mirror image.
    """

    mu: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        n = self.mu.size
        if n < 8 or n % 2 != 0:
            raise InvalidArgumentError("CharFnGrid: need an even number (>= 8) of mu samples")
        if self.values.shape != self.mu.shape:
            raise InvalidArgumentError("CharFnGrid: mu/values shape mismatch")
        d = np.diff(self.mu)
        if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
            raise InvalidArgumentError("CharFnGrid: mu grid must be uniform")
        if abs(self.mu[n // 2]) > 1e-12 * d[0]:
            raise InvalidArgumentError("CharFnGrid: mu grid must contain 0 at index N/2")
        if abs(self.values[n // 2] - 1.0) > _GRID_CHECK_TOL:
            raise InvalidArgumentError("CharFnGrid: P~(0) must equal 1")
        # Hermitian symmetry P~(-mu) = conj P~(mu); left endpoint has no partner
        v = self.values
        mirrored = np.conj(v[1:][::-1])
        if np.max(np.abs(v[1:] - mirrored)) > _GRID_CHECK_TOL:
            raise InvalidArgumentError("CharFnGrid: P~(-mu) != conj P~(mu)")

    @property
    def spacing(self) -> float:
        return float(self.mu[1] - self.mu[0])


def conjugate_w_grid(mu: np.ndarray) -> np.ndarray:
    """The W grid conjugate to a DFT-layout mu grid: w_m = (m - N/2) * 2pi/(N dmu)."""
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    dw = 2.0 * math.pi / (n * (mu[1] - mu[0]))
    return (np.arange(n) - n // 2) * dw


# Negative density samples smaller than this fraction of the density peak are
# attributed to finite-window ringing and clamped to zero; larger violations
# set the `negative_floor_violation` diagnostic instead of being hidden.
CLAMP_REL_FLOOR = 1e-6


def invert_charfn(grid: CharFnGrid, w_grid: np.ndarray) -> WorkDistribution:
    """Inverse Fourier transform of a sampled characteristic function.

    The atom at W = 0 is the non-decaying level of P~, estimated by averaging
    the samples with |mu| >= 0.9 * mu_max; it is subtracted before the DFT so
    the returned density is purely the absolutely continuous part.
    """
    w_grid = np.asarray(w_grid, dtype=float)
    n = grid.mu.size
    if w_grid.size != n:
        raise InvalidArgumentError("invert_charfn: w grid size must match mu grid size")
    dw = w_grid[1] - w_grid[0]
    dmu = grid.spacing
    if abs(dw * dmu * n - 2.0 * math.pi) > 1e-8 * 2.0 * math.pi:
        raise InvalidArgumentError(
            "invert_charfn: w grid spacing is not conjugate to the mu grid "
            f"(dw*dmu*N = {dw * dmu * n:.6g}, expected 2*pi)"
        )
    if not np.allclose(w_grid, conjugate_w_grid(grid.mu), rtol=0.0, atol=1e-9 * abs(dw)):
        raise InvalidArgumentError("invert_charfn: w grid is not aligned with the conjugate grid")

    mu_max = abs(grid.mu[0])
    outer = np.abs(grid.mu) >= 0.9 * mu_max
    atom = float(np.mean(grid.values[outer].real))

    f = grid.values - atom
    # S(w_m) = sum_n f_n exp(-i mu_n w_m): both grids are centred on index N/2,
    # so the shifts move mu = 0 and W = 0 to index 0 and back.
    spectrum = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f)))
    density = (dmu / (2.0 * math.pi)) * spectrum
    max_imag = float(np.max(np.abs(density.imag)))
    density = density.real.copy()

    peak = float(np.max(np.abs(density))) if density.size else 0.0
    floor = CLAMP_REL_FLOOR * peak
    neg = density < 0.0
    small_neg = neg & (density >= -floor)
    clamped = int(np.count_nonzero(small_neg))
    worst_negative = float(density.min()) if neg.any() else 0.0
    violation = bool(np.any(density < -floor))
    density[small_neg] = 0.0

    return WorkDistribution(
        atom_weight=atom,
        w_grid=w_grid,
        density=density,
        metadata={
            "mu_max": mu_max,
            "mu_points": n,
            "clamped_points": clamped,
            "worst_negative_density": worst_negative,
            "negative_floor_violation": violation,
            "max_abs_imag_density": max_imag,
        },
    )
