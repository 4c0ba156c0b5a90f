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
import scipy.special

from .distribution import WorkDistribution
from .errors import ConvergenceError, InvalidArgumentError

__all__ = [
    "CharFnGrid",
    "dawson",
    "integrate_radial",
    "invert_charfn",
]

_GRID_CHECK_TOL = 1e-6  # P~(0) = 1 and Hermitian symmetry of a sampled CharFnGrid
# integrate_radial stops once its summed error is at most
# max(_ABS_TOL, _REL_TOL * |value|), and gives up past _MAX_SUBDIVISIONS intervals
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 200


def dawson(x):
    """Dawson integral D(x) = exp(-x^2) * Int_0^x exp(y^2) dy (scipy.special.dawsn).

    Accepts a float or an array; relative error near machine precision.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("dawson: input must be finite")
    out = scipy.special.dawsn(arr)
    return float(out) if arr.ndim == 0 else out


# QUADPACK's 21-point Gauss-Kronrod pair (dqk21; Piessens et al. 1983) on [-1, 1]:
# the Kronrod nodes x > 0, their weights, and the 10-point Gauss weights, which
# sit on every other node (0 on the Kronrod-only ones).  The centre node x = 0
# carries a Kronrod weight only.
_GK21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_K21_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208929583164, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_G10_W = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651938,
])
_GK21_NODES = np.concatenate([-_GK21_X, [0.0], _GK21_X[::-1]])
_K21_WEIGHTS = np.concatenate([_K21_W, [0.149445554002916905664936468389821], _K21_W[::-1]])
_G10_WEIGHTS = np.concatenate([_G10_W, [0.0], _G10_W[::-1]])
# The first level splits [0, k_max] into this many equal intervals.  Default
# cutoffs sit tens of widths past the bulk of the integrand, and starting from
# one interval would spend four more levels (four more calls) halving down to it.
_FIRST_LEVEL_INTERVALS = 16


def _gk21(fx, half):
    """K21 and dqk21's error estimate per interval, from the node values fx
    (one row per interval) and the half-lengths.

    The estimate rescales |K21 - G10| as QUADPACK does, by the spread of f
    about its mean, and never goes below 50 eps of Int |f| (round-off).
    """
    k21 = fx @ _K21_WEIGHTS
    diff = np.abs(k21 - fx @ _G10_WEIGHTS) * half
    spread = (np.abs(fx - 0.5 * k21[:, None]) @ _K21_WEIGHTS) * half
    ratio = np.divide(200.0 * diff, spread, out=np.zeros_like(diff), where=spread > 0.0)
    round_off = 50.0 * np.finfo(float).eps * (np.abs(fx) @ _K21_WEIGHTS) * half
    return k21 * half, np.maximum(spread * np.minimum(1.0, ratio**1.5), round_off)


def integrate_radial(f, k_max: float, return_error: bool = False):
    """Adaptive estimate of Int_0^inf f(k) dk, truncated at k_max.

    ``f`` takes a 1-D ndarray of k and returns an array of the same shape.
    It is called once per refinement level, on the nodes of every new
    interval, and each interval gets QUADPACK's 21-point Gauss-Kronrod value
    and error estimate (the rule scipy.integrate.quad applies).  The first
    level splits [0, k_max] into _FIRST_LEVEL_INTERVALS equal intervals; each
    later level halves the intervals with the largest errors, enough of them
    that the others' errors sum to at most tol / 2, where
    tol = max(_ABS_TOL, _REL_TOL * |value|).  The value is returned once the
    summed error is at most tol.

    Raises InvalidArgumentError unless k_max is finite and > 0, and
    ConvergenceError (carrying the best estimate and its error bound) when
    tol is not met with _MAX_SUBDIVISIONS intervals, or when f returns a
    non-finite value.
    """
    if not (k_max > 0 and math.isfinite(k_max)):
        raise InvalidArgumentError("integrate_radial: k_max must be finite and > 0")
    lo = hi = value_i = error_i = np.empty(0)
    edges = np.linspace(0.0, k_max, _FIRST_LEVEL_INTERVALS + 1)
    new_lo, new_hi = edges[:-1], edges[1:]
    while True:
        centre = 0.5 * (new_lo + new_hi)
        half = 0.5 * (new_hi - new_lo)
        nodes = centre[:, None] + half[:, None] * _GK21_NODES
        fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        if not np.all(np.isfinite(fx)):
            raise ConvergenceError(
                "radial quadrature: the integrand is not finite",
                estimate=math.nan,
                error_bound=math.inf,
            )
        kronrod, error = _gk21(fx, half)
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        value_i = np.concatenate([value_i, kronrod])
        error_i = np.concatenate([error_i, error])

        value, bound = float(value_i.sum()), float(error_i.sum())
        tol = max(_ABS_TOL, _REL_TOL * abs(value))
        if bound <= tol:
            return (value, bound) if return_error else value
        room = _MAX_SUBDIVISIONS - lo.size
        if room <= 0:
            raise ConvergenceError(
                "radial quadrature failed to converge within "
                f"{_MAX_SUBDIVISIONS} subintervals",
                estimate=value,
                error_bound=bound,
            )
        order = np.argsort(error_i)
        lo, hi, value_i, error_i = lo[order], hi[order], value_i[order], error_i[order]
        n_keep = max(np.searchsorted(np.cumsum(error_i), 0.5 * tol, side="right"), lo.size - room)
        mid = 0.5 * (lo[n_keep:] + hi[n_keep:])
        new_lo, new_hi = np.concatenate([lo[n_keep:], mid]), np.concatenate([mid, hi[n_keep:]])
        lo, hi, value_i, error_i = lo[:n_keep], hi[:n_keep], value_i[:n_keep], error_i[:n_keep]


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
        if not (d[0] > 0.0 and math.isfinite(math.pi / float(d[0]))):  # pi / dmu bounds |W|
            raise InvalidArgumentError(
                f"CharFnGrid: mu spacing must be > 0 with pi / spacing finite, not {d[0]:g}"
            )
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


# Negative density samples smaller than this fraction of the density peak are
# attributed to finite-window ringing and clamped to zero; larger violations
# set the `negative_floor_violation` diagnostic instead of being hidden.
CLAMP_REL_FLOOR = 1e-6


def invert_charfn(grid: CharFnGrid) -> WorkDistribution:
    """Inverse Fourier transform of a sampled characteristic function.

    The density is returned on the W grid conjugate to the mu grid,
    w_m = (m - N/2) * 2 pi / (N dmu) for m = 0..N-1, so W = 0 sits at index
    N/2.  The atom at W = 0 is the non-decaying level of P~, estimated by
    averaging the samples with |mu| >= 0.9 * mu_max; it is subtracted before
    the DFT so the returned density is purely the absolutely continuous part.
    """
    n = grid.mu.size
    dmu = grid.spacing
    w_grid = (np.arange(n) - n // 2) * (2.0 * math.pi / (n * dmu))

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
