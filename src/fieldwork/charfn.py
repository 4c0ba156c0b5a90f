"""Work characteristic functions for localized unitaries on thermal fields.

Every perturbative quantity in this package is one radial integral,
lambda^2 Int_0^inf dk a(k) g(w_k), over the spectral weight

    a(k) = (1 / 4 pi^2) * (k^2 / w_k) * |chi~(w_k)|^2 * |F~(k)|^2

(`_spectral_weight`); only the real factor g changes, and `_radial_integral`
is the one evaluator.  The angular reduction Int d^3k -> 4 pi Int k^2 dk is
applied in a(k), once; its prefactor 4 pi / ((2 pi)^3 * 2) = 1/(4 pi^2) is the
single point of truth for the 2-pi bookkeeping in this package.

Perturbative regime (smooth switching, coupling lambda small), thermal state
of inverse temperature beta, n_k = 1 / (e^{beta w_k} - 1) (0 for the vacuum):

    P~(mu) = 1 + lambda^2 Int_0^inf dk a(k) *
             [ (1 + n_k) (e^{+i mu w_k} - 1) + n_k (e^{-i mu w_k} - 1) ]

The bracket equals coth(beta w/2)(cos(mu w) - 1) + i sin(mu w) for real mu;
the (1+n)/n split is kept because it stays numerically exact on the imaginary
axis, where the Jarzynski evaluation P~(i beta) = 1 relies on the cancellation
(1+n)(e^{-bw}-1) + n(e^{bw}-1) = 0.  Where e^{Im(mu) w} overflows, the second
term is taken as n(e^{-z} - 1) = e^{-z-bw} / (1 - e^{-bw}) - n, z = i mu w,
which is bounded on the strip 0 <= Im mu <= beta.  The real and imaginary
parts of the bracket are integrated as two real factors g.

Non-perturbative regime (instantaneous switching chi = delta, vacuum field),
with a_F(k) the weight a(k) without |chi~|^2:

    P~(mu) = exp[ lambda^2 Int_0^inf dk a_F(k) (e^{i mu w_k} - 1) ],

with a closed form in terms of the Dawson integral for a massless field and
Gaussian smearing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidArgumentError, RegimeError
from .field_model import (
    FieldSpec,
    SmearingProfile,
    SwitchingProfile,
    dispersion,
    smearing_ft,
    switching_ft,
    thermal_weight,
)
from .special_math import CharFnGrid, dawson, integrate_radial

__all__ = [
    "Scenario",
    "charfn_kms",
    "charfn_correction",
    "charfn_delta_numeric",
    "charfn_delta_closed",
    "sample_charfn",
    "charfn_grid",
]

_FOUR_PI_SQ = 4.0 * math.pi**2


@dataclass(frozen=True)
class Scenario:
    """Full parameter set: field state and localization profiles."""

    field: FieldSpec
    switching: SwitchingProfile
    smearing: SmearingProfile

    @property
    def k_max(self) -> float:
        """Radial cutoff: both Gaussian transforms decay like Gaussians, so
        20 inverse widths leave a tail far below 1e-12 of the integral."""
        k_max = 20.0 / self.smearing.sigma
        return k_max if self.switching.is_delta else max(k_max, 20.0 / self.switching.width)

    def fingerprint(self) -> dict:
        return {
            "mass": self.field.mass,
            "beta": self.field.beta,
            "coupling": self.field.coupling,
            "switching": self.switching.kind,
        }


def _spectral_weight(s: Scenario, k, w):
    """a(k) without the coupling^2 factor, at k > 0 with w = w_k (scalars or arrays).
    A delta switching has chi~ = 1, so it contributes no |chi~|^2 factor: a_F(k)."""
    out = (k * k / w) * smearing_ft(s.smearing, k) ** 2 / _FOUR_PI_SQ
    if not s.switching.is_delta:
        out = out * np.abs(switching_ft(s.switching, w)) ** 2
    return out


def _radial_integral(s: Scenario, g) -> float:
    """Int_0^k_max a(k) g(w_k) dk for a real g, by adaptive quadrature.

    The coupling^2 factor is left to the caller, so the quadrature tolerances
    apply on the same scale for every quantity.
    """
    mass = s.field.mass

    def integrand(k):
        w = dispersion(k, mass)
        return _spectral_weight(s, k, w) * g(w)

    return integrate_radial(integrand, s.k_max)


def _bracket(mu, omega, beta):
    """Thermal phase bracket (1+n)(e^{i mu w}-1) + n(e^{-i mu w}-1), real or complex mu."""
    w = np.asarray(omega, dtype=float)
    z = 1j * mu * w
    e_plus = np.expm1(z)
    if math.isinf(beta):
        return e_plus
    _, bose = thermal_weight(omega, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        minus = bose * np.expm1(-z)
    far = ~np.isfinite(minus)  # e^{-z} overflows from Im(mu) w = 709 on, where n may be 0
    if far.any():  # the form below cancels at small beta w and mu w, so it is used only here
        bw = beta * w[far]
        minus[far] = np.exp(-z[far] - bw) / -np.expm1(-bw) - bose[far]
    return (1.0 + bose) * e_plus + minus


def _check_mu(mu, beta):
    mu_c = complex(mu)
    if not (math.isfinite(mu_c.real) and math.isfinite(mu_c.imag)):
        raise InvalidArgumentError("charfn: mu must be finite")
    if mu_c.imag != 0.0:
        upper = beta if math.isfinite(beta) else math.inf
        if not -1e-12 <= mu_c.imag <= upper * (1 + 1e-12):
            raise InvalidArgumentError(
                f"charfn: Im(mu) = {mu_c.imag} outside the KMS strip [0, beta]"
            )
    return mu_c


def _bracket_integral(s: Scenario, mu) -> complex:
    """Int a(k) * bracket(mu, w_k) dk, its real and imaginary parts integrated apart."""
    re = _radial_integral(s, lambda w: _bracket(mu, w, s.field.beta).real)
    im = _radial_integral(s, lambda w: _bracket(mu, w, s.field.beta).imag)
    return re + 1j * im


def charfn_correction(s: Scenario, mu) -> complex:
    """P~(mu) - 1 for the perturbative regime, computed without forming the 1.

    Needed by finite-difference moment extraction, which would otherwise lose
    all precision to the subtraction 1 - P~.  A lambda^2 B that is not finite
    raises RegimeError.
    """
    if s.switching.is_delta:
        raise RegimeError("perturbative characteristic function requires a smooth switching")
    mu_c = _check_mu(mu, s.field.beta)
    lam = s.field.coupling
    if lam == 0.0:
        return 0.0 + 0.0j
    out = lam * lam * _bracket_integral(s, mu_c)
    if not cmath.isfinite(out):
        raise RegimeError(f"charfn: lambda^2 B is not finite at coupling {lam:g}")
    return out


def charfn_kms(s: Scenario, mu) -> complex:
    """Perturbative characteristic function for the thermal (KMS) state.
    The second-order 1 + lambda^2 B is unguarded: at strong coupling |P~| can exceed 1."""
    return 1.0 + charfn_correction(s, mu)


def charfn_delta_numeric(s: Scenario, mu) -> complex:
    """Non-perturbative characteristic function for chi = delta on the vacuum."""
    if not s.switching.is_delta:
        raise RegimeError("charfn_delta_numeric requires a delta switching")
    if not s.field.is_vacuum:
        raise RegimeError("the instantaneous coupling is treated on the vacuum only (beta = inf)")
    mu_c = _check_mu(mu, 0.0)
    lam = s.field.coupling
    exponent = lam * lam * _bracket_integral(s, mu_c)
    return complex(np.exp(exponent))


def charfn_delta_closed(lam: float, sigma: float, mu):
    """Closed form of the delta-coupling characteristic function (massless field,
    Gaussian smearing), built from the Dawson integral:

        P~(mu) = exp[ (lam^2 / 4 pi^2) * (I(mu) - 1/(2 sigma^2)) ]
        I(mu)  = Int_0^inf k e^{-sigma^2 k^2} e^{i mu k} dk
               = 1/(2 s^2) - mu D(mu/2s)/(2 s^3) + i sqrt(pi) mu e^{-mu^2/4s^2}/(4 s^3)

    Accepts scalar or array real mu.
    """
    if not 1e-100 <= sigma <= 1e100:  # the Python float sigma^3 below must not under/overflow
        raise InvalidArgumentError("charfn_delta_closed: sigma must lie in [1e-100, 1e100]")
    mu_arr = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(mu_arr)):
        raise InvalidArgumentError("charfn_delta_closed: mu must be finite and real")
    x = mu_arr / (2.0 * sigma)
    i_mu = (
        1.0 / (2.0 * sigma**2)
        - mu_arr * dawson(x) / (2.0 * sigma**3)
        + 1j * math.sqrt(math.pi) * mu_arr * np.exp(-(x**2)) / (4.0 * sigma**3)
    )
    exponent = (lam * lam / _FOUR_PI_SQ) * (i_mu - 1.0 / (2.0 * sigma**2))
    out = np.exp(exponent)
    return complex(out) if np.ndim(mu) == 0 else out


# ---------------------------------------------------------------------------
# Batch evaluation on mu grids (trapezoid in k, vectorized over mu).
#
# The k spacing dk puts the aliasing images of the transform at multiples of
# P = 2 pi / dk >= mu_max + _ALIAS_MARGIN in mu; the trapezoid rule is
# spectrally accurate because the integrand vanishes at both ends.  Every path
# below sums the same k nodes with the same weights; the path is chosen from
# the field and the mu array (mu_z is the grid point nearest 0, at index z,
# and J = j - z):
#
# - massless field (w_k = k_n = n dk) on a uniform mu grid: the phases
#   mu_j k_n = mu_z k_n + alpha J n, alpha = dmu dk, make the sums a chirp
#   z-transform.  With J n = (J^2 + n^2 - (J - n)^2) / 2 it becomes a
#   pre-chirp, one convolution with e^{-i alpha m^2 / 2} by FFT and a
#   post-chirp (Bluestein): O((N_k + N_mu) log) in place of O(N_k N_mu).
# - massive field on a uniform mu grid (w_k is not uniform in k): the phases
#   mu_z w_n + J x_n, x_n = dmu w_n, make the sums a type-1 non-uniform FFT
#   in the points x_n mod 2 pi, taken by Gaussian gridding: O(N_k + N_mu log).
# - any other mu array: a direct sum, one trig row per point and function.
# The exponent at mu = 0 is set to 0 exactly, so that P~(0) = 1 + 0j.
# ---------------------------------------------------------------------------

# Images at P >= mu_max + _ALIAS_MARGIN.  For a smooth work density (thermal,
# massive) they carry < 1e-13 of the peak.  The W = 0 kink of a massless
# vacuum or delta density decays only as 1/mu^2, so there the image error is
# about a'(0) (1/(P - mu)^2 - 1/P^2): for delta at lambda = 1 on the default
# 2^14 grid, 4.6e-10 near the window edge (|mu| > 1200) but < 1e-13 for
# |mu| <= 10.
_ALIAS_MARGIN = 4000.0
_MU_CHUNK = 256  # rows of the direct sum's trig table at a time
_MAX_K_NODES = 2**20  # one chunk of the direct sum's trig table is then already 2 GiB
# Gaussian gridding (Greengard & Lee, SIAM Rev. 46 (2004) 443): each node is
# spread onto 2 * _SPREAD_HALF_WIDTH points of a grid _OVERSAMPLING times the
# band.  The truncated and aliased Gaussian tails carry about e^{-35} of
# Sum |a|.  At half-width 12 (e^{-30}) the aliases cost up to 5.5e-14 of
# max |exponent| on a window such as [50, 60], whose images fall near mu = 0.
_SPREAD_HALF_WIDTH = 14
_OVERSAMPLING = 3


def _batch_k_grid(s: Scenario, mu_max: float):
    probe = np.linspace(0.0, s.k_max, 4096)[1:]
    g = _spectral_weight(s, probe, dispersion(probe, s.field.mass))
    if not np.all(np.isfinite(g)):  # k^2 overflows from k_max of about 1e155
        raise ConvergenceError(
            f"sample_charfn: below k_max = {s.k_max:g} the integrand is not finite"
        )
    gmax = float(np.max(np.abs(g)))
    if gmax == 0.0:
        return None
    above = np.nonzero(np.abs(g) > 1e-18 * gmax)[0]
    k_hi = min(probe[above[-1]] * 1.05 + 0.5, s.k_max)
    dk = min(k_hi / 4000.0, 2.0 * math.pi / (mu_max + _ALIAS_MARGIN))
    if not k_hi / dk < _MAX_K_NODES:
        raise InvalidArgumentError(
            f"sample_charfn: mu_max = {mu_max:g} needs {k_hi / dk:.3g} k nodes, "
            f"more than {_MAX_K_NODES}; lower mu_max"
        )
    n_k = int(math.ceil(k_hi / dk)) + 1
    return np.linspace(0.0, k_hi, n_k)


def _uniform_step(mu: np.ndarray):
    """The step dmu of a grid of >= 4 points uniform to a few ulp, else None."""
    n = mu.size
    if n < 4:
        return None
    dmu = (mu[-1] - mu[0]) / (n - 1)
    drift = np.max(np.abs(mu - (mu[0] + np.arange(n) * dmu)))
    if dmu != 0.0 and drift <= 8.0 * np.finfo(float).eps * np.max(np.abs(mu)):
        return dmu
    return None


def _batch_exponent(s: Scenario, mu: np.ndarray) -> np.ndarray:
    """Int a(k) * bracket(mu, w_k) dk for an array of real mu (trapezoid).

    On a uniform mu grid a massless field takes the chirp z-transform
    (`_chirp_sums`) and a massive one the non-uniform FFT (`_nufft_sums`);
    any other mu array takes the direct sum (`_phase_sums`).  The exponent
    at mu = 0 is 0 exactly on every path.
    """
    mu_max = float(np.abs(mu).max()) if mu.size else 0.0
    k = _batch_k_grid(s, mu_max)
    if k is None:
        return np.zeros(mu.size, dtype=complex)
    kk = k[1:]  # integrand vanishes at k = 0
    w = dispersion(kk, s.field.mass)
    a = _spectral_weight(s, kk, w)
    trap = np.full(kk.size, k[1] - k[0])
    trap[-1] *= 0.5
    a_trap = a * trap
    if math.isinf(s.field.beta):
        a_coth = a_trap
    else:
        coth, _ = thermal_weight(w, s.field.beta)
        a_coth = a * coth * trap

    dmu = _uniform_step(mu)
    if dmu is None:
        out = _phase_sums(w, a_coth, a_trap, mu)
    else:
        if s.field.mass == 0.0:
            cos_sum, sin_sum = _chirp_sums(k[1] - k[0], a_coth, a_trap, mu, dmu)
        else:
            cos_sum, sin_sum = _nufft_sums(w, a_coth, a_trap, mu, dmu)
        out = cos_sum - a_coth.sum() + 1j * sin_sum
    out[mu == 0.0] = 0.0
    return out


def _smooth_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: an FFT length that pocketfft handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _chirp(c: float, m: np.ndarray) -> np.ndarray:
    """e^{i c m^2} for integer-valued m, to a few ulp however large c m^2 is.

    c = h + l with h cut to so few bits that h m^2 is exact: the large phase
    is then rounded only inside the argument reduction of cos and sin, and
    l m^2 is small.
    """
    m2 = m * m
    bits = 53 - int(m2.max()).bit_length()
    e = math.frexp(c)[1]
    h = math.ldexp(round(math.ldexp(c, bits - e)), e - bits)
    return np.exp(1j * (h * m2)) * np.exp(1j * ((c - h) * m2))


def _chirp_sums(dk, a_coth, a_trap, mu, dmu):
    """(Sum_n a_coth_n cos(mu_j k_n), Sum_n a_trap_n sin(mu_j k_n)) for k_n = n dk,
    n = 1 .. N_k, on the uniform grid mu_j = mu_z + (j - z) dmu.

    Bluestein's chirp z-transform, anchored at the point mu_z nearest 0:
    with alpha = dmu dk and J = j - z, Sum_n x_n e^{i alpha J n} is
    e^{i alpha J^2/2} times the convolution of x_n e^{i alpha n^2/2} with
    e^{-i alpha m^2/2}, taken for both weight rows in one 2-row FFT.
    """
    n_k, n_mu = a_coth.size, mu.size
    z = int(np.argmin(np.abs(mu)))
    half_alpha = 0.5 * dmu * dk
    n = np.arange(1, n_k + 1, dtype=float)
    size = _smooth_len(n_k + n_mu - 1)
    pre = np.exp(1j * (mu[z] * dk * n)) * _chirp(half_alpha, n)
    x = np.zeros((2, size), dtype=complex)
    np.multiply(a_coth, pre, out=x[0, :n_k])
    np.multiply(a_trap, pre, out=x[1, :n_k])
    m = np.arange(-z - n_k, n_mu - z - 1, dtype=float)  # every J - n
    kernel = np.fft.fft(_chirp(-half_alpha, m), size)
    conv = np.fft.ifft(np.fft.fft(x, axis=1) * kernel, axis=1)[:, n_k - 1 : n_k - 1 + n_mu]
    conv *= _chirp(half_alpha, np.arange(-z, n_mu - z, dtype=float))
    return conv[0].real, conv[1].imag


def _nufft_sums(w, a_coth, a_trap, mu, dmu):
    """(Sum_n a_coth_n cos(mu_j w_n), Sum_n a_trap_n sin(mu_j w_n)) for any nodes
    w_n, on the uniform grid mu_j = mu_z + (j - z) dmu.

    A type-1 non-uniform FFT by Gaussian gridding, anchored at the point mu_z
    nearest 0, so that the rounding of x_n = dmu w_n costs about eps |mu| w_n,
    as in a direct sum.  With J = j - z and c_n = a_n e^{i mu_z w_n}, the sum
    Sum_n c_n e^{i J x_n} is sqrt(pi / tau) e^{J^2 tau} times the J-th Fourier
    coefficient of Sum_n c_n g(x - x_n), g the 2 pi-periodic Gaussian
    e^{-x^2 / 4 tau}.  Both weight rows are spread onto one oversampled grid
    and taken to Fourier coefficients in one 2-row inverse FFT.
    """
    n_mu = mu.size
    z = int(np.argmin(np.abs(mu)))
    band = 2 * max(z, n_mu - 1 - z) + 2
    half = _SPREAD_HALF_WIDTH
    size = _smooth_len(max(_OVERSAMPLING * band, 2 * half))
    # Greengard & Lee's tau for the oversampling size / band, which balances
    # the truncated tails against the aliased ones
    tau = 2.0 * math.pi * half / (size * (2 * size - band))
    h = 2.0 * math.pi / size
    # node n lies at grid position t = i0 + d / h, 0 <= d < h; it is spread onto
    # the points i0 + l, l = 1 - half .. half, with the weights
    # e^{-(l h - d)^2 / 4 tau} = e^{-d^2 / 4 tau} (e^{d h / 2 tau})^l e^{-(l h)^2 / 4 tau}
    t = (dmu / h) * w
    i0 = np.floor(t)
    d = (t - i0) * h
    step = np.exp(d * (h / (2.0 * tau)))
    spread = np.empty((2 * half, w.size))
    spread[0] = np.exp(-d * (d + 2 * (half - 1) * h) / (4.0 * tau))
    for row in range(1, 2 * half):
        np.multiply(spread[row - 1], step, out=spread[row])
    spread *= np.exp(-((np.arange(1 - half, half + 1) * h) ** 2) / (4.0 * tau))[:, None]
    # point i0 + l goes to slot (i0 mod size) + l + half - 1 of a grid padded by
    # half - 1 slots before and half after, which are then folded onto the circle
    index = np.add.outer(np.arange(2 * half), np.mod(i0, size).astype(np.int64)).ravel()
    parts = np.stack((a_coth, a_trap))
    if mu[z] != 0.0:  # c_n is complex: spread its real and imaginary parts apart
        c = parts * np.exp(1j * (mu[z] * w))
        parts = np.concatenate((c.real, c.imag))
    padded = np.empty((len(parts), size + 2 * half - 1))
    weights = np.empty_like(spread)
    for row, part in zip(padded, parts):
        row[:] = np.bincount(index, np.multiply(spread, part, out=weights).ravel(), row.size)
    grid = padded[:, half - 1 : half - 1 + size]
    grid[:, size - half + 1 :] += padded[:, : half - 1]
    grid[:, :half] += padded[:, size + half - 1 :]
    if len(grid) == 4:
        grid = grid[:2] + 1j * grid[2:]
    J = np.arange(-z, n_mu - z)
    sums = np.fft.ifft(grid, axis=1)[:, J % size] * (math.sqrt(math.pi / tau) * np.exp(J * J * tau))
    return sums[0].real, sums[1].imag


def _phase_sums(w, a_coth, a_trap, mu) -> np.ndarray:
    """Sum_k a_coth_k (cos(mu w_k) - 1) + i Sum_k a_trap_k sin(mu w_k), a direct sum.

    The real part is taken as -2 Sum_k a_coth_k sin^2(mu w_k / 2), which keeps
    its digits where |mu| w_k is small.  The trig table runs _MU_CHUNK rows at
    a time, in one preallocated buffer.
    """
    out = np.empty(mu.size, dtype=complex)
    buf = np.empty((min(_MU_CHUNK, mu.size), w.size))
    for i0 in range(0, mu.size, _MU_CHUNK):
        x = mu[i0 : i0 + _MU_CHUNK]
        theta = buf[: x.size]
        np.sin(np.multiply.outer(0.5 * x, w, out=theta), out=theta)
        out.real[i0 : i0 + x.size] = -2.0 * (np.square(theta, out=theta) @ a_coth)
        np.sin(np.multiply.outer(x, w, out=theta), out=theta)
        out.imag[i0 : i0 + x.size] = theta @ a_trap
    return out


def sample_charfn(s: Scenario, mu: np.ndarray) -> np.ndarray:
    """Vectorized P~ on an arbitrary real mu array (regime chosen from the scenario).
    Smooth switching gives 1 + lambda^2 B: at strong coupling |P~| can exceed 1, and a
    lambda^2 B that is not finite raises RegimeError."""
    mu = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(mu)):
        raise InvalidArgumentError("sample_charfn: mu must be finite")
    if s.switching.is_delta and not s.field.is_vacuum:
        raise RegimeError("delta switching is treated on the vacuum only (beta = inf)")
    lam = s.field.coupling
    with np.errstate(over="ignore"):
        exponent = lam * lam * _batch_exponent(s, mu)
    if not np.all(np.isfinite(exponent)):
        raise RegimeError(f"sample_charfn: lambda^2 B is not finite at coupling {lam:g}")
    return np.exp(exponent) if s.switching.is_delta else 1.0 + exponent


DEFAULT_MU_POINTS = 2**14
DEFAULT_MU_MAX = 1536.0


def charfn_grid(
    s: Scenario,
    mu_points: int = DEFAULT_MU_POINTS,
    mu_max: float = DEFAULT_MU_MAX,
) -> CharFnGrid:
    """Sample P~ on a DFT-layout mu grid suitable for invert_charfn.

    The default window is |mu| <= 1536 with 2^14 points.  For a massless field
    the slowest tail is the 1/mu^2 decay of a vacuum or delta density with a
    kink at W = 0, which has fallen below 1e-6 of its peak there.  For m > 0
    the square-root thresholds of the density at |W| = m make P~ decay only as
    |mu|^{-3/2}; the window cuts that tail off, so the inverted density rings
    near |W| = m.
    """
    n = int(mu_points)
    if n < 8 or n % 2 != 0:
        raise InvalidArgumentError("charfn_grid: mu_points must be even and >= 8")
    dmu = 2.0 * mu_max / n
    mu = (np.arange(n) - n // 2) * dmu
    # 0 .. mu_max - dmu, then mu_max for the left endpoint, which has no mirror;
    # the samples stay one uniform grid, so they take the chirp or non-uniform FFT sums
    vals_half = sample_charfn(s, np.append(mu[n // 2 :], mu_max))
    vals = np.empty(n, dtype=complex)
    vals[n // 2 :] = vals_half[:-1]
    vals[: n // 2] = np.conj(vals_half[1:][::-1])
    return CharFnGrid(mu=mu, values=vals)
