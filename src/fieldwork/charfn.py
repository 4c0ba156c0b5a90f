"""Work characteristic functions for localized unitaries on thermal fields.

Every perturbative quantity in this package is one radial integral,
lambda^2 Int_0^inf dk a(k) g(w_k), over the spectral weight

    a(k) = (1 / 4 pi^2) * (k^2 / w_k) * |chi~(w_k)|^2 * |F~(k)|^2

(`_spectral_weight`); only the real factor g changes.  Each integral is a
trapezoid rule: with a fast phase in g (`_bracket_parts`) on the k nodes of
the mu-grid sums (`_batch_k_grid`), else (`_sinh_integral`) on the nodes
k = eps sinh t.  The phase integral of a massless vacuum or delta weight is
taken in closed form instead (`_vacuum_exponent`), in the Faddeeva function of
`special_math`, which needs numpy alone.  The angular reduction
Int d^3k -> 4 pi Int k^2 dk is applied in a(k), once; its prefactor
4 pi / ((2 pi)^3 * 2) = 1/(4 pi^2) is the single point of truth for the 2-pi
bookkeeping in this package.

Perturbative regime (smooth switching, coupling lambda small), thermal state
of inverse temperature beta, n_k = 1 / (e^{beta w_k} - 1) (0 for the vacuum):

    P~(mu) = 1 + lambda^2 Int_0^inf dk a(k) *
             [ (1 + n_k) (e^{+i mu w_k} - 1) + n_k (e^{-i mu w_k} - 1) ]

The bracket equals coth(beta w/2)(cos(mu w) - 1) + i sin(mu w) for real mu;
the (1+n)/n split is kept because it stays numerically exact on the imaginary
axis, where the Jarzynski evaluation P~(i beta) = 1 relies on the cancellation
(1+n)(e^{-bw}-1) + n(e^{bw}-1) = 0.  Where e^{Im(mu) w} overflows, the second
term is taken as n(e^{-z} - 1) = e^{-z-bw} / (1 - e^{-bw}) - n, z = i mu w,
which is bounded on the strip 0 <= Im mu <= beta.  Each part of the bracket is
a real factor g; on the sinh nodes, parts share one stack (`_bracket_parts`).

Non-perturbative regime (instantaneous switching chi = delta, vacuum field),
with a_F(k) the weight a(k) without |chi~|^2:

    P~(mu) = exp[ lambda^2 Int_0^inf dk a_F(k) (e^{i mu w_k} - 1) ],

which for a massless field is `_vacuum_exponent`; `charfn_delta_closed`
writes it for real mu with the Dawson integral, (sqrt(pi) / 2) Im w, so the two
share the Faddeeva kernel and mpmath is the tests' independent oracle.
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
    thermal_weight,
)
from .special_math import (
    _MAX_K_NODES,
    DEFAULT_MU_MAX,
    DEFAULT_MU_POINTS,
    CharFnGrid,
    _dft_step,
    _faddeeva,
    _radial_nodes,
    dawson,
    integrate_radial,
)

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
        """Radial cutoff 7 / l: a(k) is C k^2 / w_k e^{-l^2 k^2}, l = `_decay_length`,
        so every integrand's tail past k_max is about e^{-49} of its bulk."""
        return 7.0 / _decay_length(self)

    def fingerprint(self) -> dict:
        return {
            "mass": self.field.mass,
            "beta": self.field.beta,
            "coupling": self.field.coupling,
            "switching": self.switching.kind,
        }


def _decay_length(s: Scenario) -> float:
    """l = sqrt(s^2 + sigma^2), or sigma for a delta switching."""
    if s.switching.is_delta:
        return s.smearing.sigma
    return math.hypot(s.switching.width, s.smearing.sigma)


def _weight_slope(s: Scenario) -> float:
    """A0 = lim a(k) / k at k = 0: |chi~(0)|^2 / 4 pi^2 if massless, else 0 (a ~ k^2 / m)."""
    if s.field.mass != 0.0:
        return 0.0
    return 1.0 / _FOUR_PI_SQ if s.switching.is_delta else s.switching.width**2 / (2.0 * math.pi)


def _spectral_weight(s: Scenario, k, w):
    """a(k) without the coupling^2 factor, at k > 0 with w = w_k (scalars or arrays).
    A Gaussian switching of width s has |chi~(w)|^2 = 2 pi s^2 e^{-(s w)^2}, its
    center being a phase; a delta switching has chi~ = 1, so it contributes no
    |chi~|^2 factor: a_F(k)."""
    out = (k * k / w) * smearing_ft(s.smearing, k) ** 2 / _FOUR_PI_SQ
    if not s.switching.is_delta:
        width = s.switching.width
        out = out * (2.0 * math.pi * width * width) * np.exp(-((width * w) ** 2))
    return out


def _nearest_singularity(s: Scenario) -> float:
    """kappa, the distance from the real k axis of the nearest singularity of the
    radial integrands a(k) g(w_k): m for a massive field (the branch points of w_k
    at k = +-i m and, in a thermal state, the n = 0 poles of coth(beta w/2)),
    2 pi / beta for a massless thermal field (the n = 1 poles of coth), 0 for the
    W = 0 kink of a massless vacuum or delta weight."""
    if s.field.mass > 0.0:
        return s.field.mass
    return 0.0 if s.field.is_vacuum else 2.0 * math.pi / s.field.beta


def _vacuum_mass(s: Scenario) -> float:
    """Int a(k) dk = A0 / 2 l^2 for a massless vacuum or delta weight
    a(k) = A0 k e^{-l^2 k^2} (kappa = 0): (s / l)^2 / 4 pi, or 1 / 8 pi^2 divided
    twice by sigma, so that tiny widths do not pass through subnormals."""
    length = _decay_length(s)
    if s.switching.is_delta:
        return 0.5 / _FOUR_PI_SQ / length / length
    return (s.switching.width / length) ** 2 / (4.0 * math.pi)


def _vacuum_exponent(s: Scenario, mu):
    """Int a(k) (e^{i mu k} - 1) dk in closed form for a massless vacuum or delta
    weight (kappa = 0): A0 / 2 l^2 * i sqrt(pi) z w(z), z = mu / 2 l, w the
    Faddeeva function (`special_math._faddeeva`), for real or complex mu
    (Im mu >= 0), scalar or array.  A real array takes w in its Dawson form,
    vectorized; complex mu take it entry by entry.  Where z is not finite, its
    limit -A0 / 2 l^2."""
    scale = _vacuum_mass(s)
    # a scale of inf gives nan at mu = 0: callers check
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.asarray(mu) / (2.0 * _decay_length(s))
        out = (scale * math.sqrt(math.pi)) * 1j * z * _faddeeva(z)
    return np.where(np.isfinite(z), out, -scale)


# Integrals without a fast phase, the moments and the bracket at
# |Re mu| <= _SINH_MU_MAX l (the finite-difference moment checks, Jarzynski at
# mu = i beta), take the nodes k = eps sinh t.  Their integrands are singular
# only at k = +-i kappa: kappa = m (branch points or, with the thermal coth,
# poles), kappa = 2 pi n / beta (the poles of coth) and kappa = 0 (the W = 0
# kink of a massless vacuum).  With eps no more than the least such kappa > 0,
# every singularity lies at Im t = pi / 2 or, for the kink, carries a weight
# eps^2; eps <= 1 / l keeps e^{-l^2 k^2} bounded for |Im t| < pi / 4.  The
# trapezoid rule in t then converges exponentially at any mass and temperature:
# at dt = 1/16 the error estimate |T(dt) - T(2 dt)| stays below 1e-13 of
# the value, on at most 640 nodes.  eps >= 1e-16 / l bounds the node count: a
# singularity nearer than that changes a(k) only where k l < 1e-16, which
# weighs below 1e-16 of the integral.  A faster phase needs the k grid.  On
# mu arrays, such a window of slow phases takes the direct sum (`_batch_exponent`).
_SINH_STEP = 0.0625  # 2^-4
_SINH_MU_MAX = 2.0


def _sinh_integral(s: Scenario, g, at_zero=None):
    """Int a(k) g(w_k) dk, or the list of them for each row of an (R, N) stack
    g(w), by the trapezoid rule in t on k = eps sinh t, where a(k) g_r(w_k) is
    ``at_zero[r]`` (or 0) at k = 0.  The coupling^2 is left to the caller, so
    the tolerance applies on the same scale for every quantity."""
    mass = s.field.mass
    length = _decay_length(s)
    eps = min(max(_nearest_singularity(s), 1e-16 / length), 1.0 / length)

    def integrand(t):
        k = eps * np.sinh(t)
        w = dispersion(k, mass)
        # from m ~ 1e154, (s w)^2 and w^j overflow where a(k) is 0, the last node (largest w) first
        with np.errstate(over="ignore", invalid="ignore"):
            a = _spectral_weight(s, k, w)
            out = a * g(w) * (eps * np.cosh(t))
        return out if a[-1] else np.where(a == 0.0, 0.0, out)  # a(k) g is 0 where a(k) is

    # the rule of step dt misses the half node at t = 0
    endpoint = None if at_zero is None else (lambda dt: 0.5 * dt * eps * at_zero)
    # t_max a multiple of 2 dt makes every node t = n dt exact: a rounded t
    # near 37 (k l = 1 at eps l = 1e-16) would move k by 4e-15 of itself
    t_max = 2.0 * _SINH_STEP * math.ceil(math.asinh(s.k_max / eps) / (2.0 * _SINH_STEP))
    return integrate_radial(integrand, t_max, step=_SINH_STEP, endpoint=endpoint)


def _moment_integral(s: Scenario, *powers: int) -> list:
    """[Int a(k) w_k^j [(1 + n) + (-1)^j n] dk for j in powers], the bracket being
    coth(beta w/2) for even j and 1 for odd j, as one stacked integral; the mass
    (j = 0) of a massless vacuum or delta weight in closed form."""
    closed = _nearest_singularity(s) == 0.0
    rows = [j for j in powers if j or not closed]
    beta, thermal = s.field.beta, not s.field.is_vacuum

    def g(w):
        coth = thermal_weight(w, beta)[0] if thermal else 1.0
        out = [w**j * coth if j % 2 == 0 else w**j for j in rows]
        return np.array(out) if len(out) > 1 else out[0]

    # massless and thermal, a(k) coth(beta w/2) is 2 A0 / beta at k = 0
    at_zero = np.array([2.0 * _weight_slope(s) / beta if thermal and j == 0 else 0.0 for j in rows])
    if len(rows) > 1:
        values = _sinh_integral(s, g, at_zero)
    else:  # a lone row stays 1-D: a stack of one costs more
        values = [_sinh_integral(s, g, at_zero[0])] if rows else []
    if len(rows) < len(powers):
        values.insert(powers.index(0), _vacuum_mass(s))
    return values


def _bracket(mu, omega, beta, part, weights=None):
    """part (np.real or np.imag) of the thermal phase bracket
    (1+n)(e^{i mu w}-1) + n(e^{-i mu w}-1); ``weights`` is thermal_weight(w, beta)
    if at hand.  For real mu only that part of coth(beta w/2)(cos(mu w) - 1) +
    i sin(mu w) is computed, the real one as -2 coth sin^2(mu w / 2), which
    keeps its digits at small mu w."""
    w = np.asarray(omega, dtype=float)
    if mu.imag == 0.0 and part is np.imag:
        return np.sin(mu.real * w)
    vacuum = math.isinf(beta)
    coth, bose = (1.0, 0.0) if vacuum else thermal_weight(w, beta) if weights is None else weights
    if mu.imag == 0.0:
        return -2.0 * coth * np.sin(0.5 * mu.real * w) ** 2
    z = 1j * mu * w
    e_plus = np.expm1(z)
    if vacuum:
        return part(e_plus)
    with np.errstate(over="ignore", invalid="ignore"):
        minus = bose * np.expm1(-z)
    far = ~np.isfinite(minus)  # e^{-z} overflows from Im(mu) w = 709 on, where n may be 0
    if far.any():  # the form below cancels at small beta w and mu w, so it is used only here
        bw = beta * w[far]
        minus[far] = np.exp(-z[far] - bw) / -np.expm1(-bw) - bose[far]
    return part((1.0 + bose) * e_plus + minus)


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


def _bracket_parts(s: Scenario, terms) -> list:
    """[part(Int a(k) bracket(mu, w_k) dk) for mu, part in terms], part np.real or
    np.imag: one `_vacuum_exponent` call on the distinct mu for kappa = 0; one stacked
    `_sinh_integral`, coth and n once, where every |Re mu| <= _SINH_MU_MAX l; else each
    term alone, a faster phase by the trapezoid rule on the k nodes of the mu-grid sums."""
    beta = s.field.beta
    if _nearest_singularity(s) == 0.0:
        # complex, real mu too, so that each value equals its lone evaluation bit for bit
        mus = list(dict.fromkeys(mu for mu, _ in terms))
        values = dict(zip(mus, _vacuum_exponent(s, np.array(mus, dtype=complex)).tolist()))
        return [float(part(values[mu])) for mu, part in terms]
    if all(abs(mu.real) <= _SINH_MU_MAX * _decay_length(s) for mu, _ in terms):
        thermal = not math.isinf(beta) and any(mu.imag or p is np.real for mu, p in terms)

        def g(w):  # a lone term stays 1-D: a stack of one costs more
            weights = thermal_weight(w, beta) if thermal else None
            rows = [_bracket(mu, w, beta, part, weights) for mu, part in terms]
            return np.array(rows) if len(rows) > 1 else rows[0]

        values = _sinh_integral(s, g)
        return values if len(terms) > 1 else [values]
    if len(terms) > 1:
        return [_bracket_parts(s, [term])[0] for term in terms]
    [(mu, part)] = terms

    def integrand(k):
        w = dispersion(k, s.field.mass)
        return _spectral_weight(s, k, w) * _bracket(mu, w, beta, part)

    return [integrate_radial(integrand, s.k_max, step=_k_step(s, abs(mu), estimate=True))]


def _bracket_integral(s: Scenario, mu) -> complex:
    """Int a(k) * bracket(mu, w_k) dk, its real and imaginary parts integrated apart;
    for kappa = 0 both parts of one closed-form value, the one `_bracket_parts` takes."""
    if _nearest_singularity(s) == 0.0:
        return complex(_vacuum_exponent(s, np.array([mu], dtype=complex))[0])
    return _bracket_parts(s, [(mu, np.real)])[0] + 1j * _bracket_parts(s, [(mu, np.imag)])[0]


def _lambda_sq(s: Scenario, b: complex) -> complex:
    """lambda^2 b for a bracket integral b; RegimeError where it is not finite."""
    lam = s.field.coupling
    out = lam * lam * b
    if not cmath.isfinite(out):
        raise RegimeError(f"charfn: lambda^2 B is not finite at coupling {lam:g}")
    return out


def charfn_correction(s: Scenario, mu) -> complex:
    """P~(mu) - 1 for the perturbative regime, computed without forming the 1.

    Needed by finite-difference moment extraction, which would otherwise lose
    all precision to the subtraction 1 - P~.  A lambda^2 B that is not finite
    raises RegimeError.
    """
    if s.switching.is_delta:
        raise RegimeError("perturbative characteristic function requires a smooth switching")
    mu_c = _check_mu(mu, s.field.beta)
    if s.field.coupling == 0.0:
        return 0.0 + 0.0j
    return _lambda_sq(s, _bracket_integral(s, mu_c))


def charfn_kms(s: Scenario, mu) -> complex:
    """Perturbative characteristic function for the thermal (KMS) state.
    The second-order 1 + lambda^2 B is unguarded: at strong coupling |P~| can exceed 1."""
    return 1.0 + charfn_correction(s, mu)


def charfn_delta_numeric(s: Scenario, mu) -> complex:
    """Non-perturbative characteristic function for chi = delta on the vacuum, at Im mu
    >= 0: the closed form `_vacuum_exponent` if massless, else the trapezoid rule in k."""
    if not s.switching.is_delta:
        raise RegimeError("charfn_delta_numeric requires a delta switching")
    if not s.field.is_vacuum:
        raise RegimeError("the instantaneous coupling is treated on the vacuum only (beta = inf)")
    mu_c = _check_mu(mu, s.field.beta)
    return complex(np.exp(_lambda_sq(s, _bracket_integral(s, mu_c))))


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
    # e^{-x^2} is exactly 0 beyond |x| = 28: capping |x| at 64 keeps x^2 finite
    gauss = np.exp(-(np.minimum(abs(x), 64.0) ** 2))
    i_mu = (
        1.0 / (2.0 * sigma**2)
        - mu_arr * dawson(x) / (2.0 * sigma**3)
        + 1j * math.sqrt(math.pi) * mu_arr * gauss / (4.0 * sigma**3)
    )
    exponent = (lam * lam / _FOUR_PI_SQ) * (i_mu - 1.0 / (2.0 * sigma**2))
    out = np.exp(exponent)
    return complex(out) if np.ndim(mu) == 0 else out


# ---------------------------------------------------------------------------
# Batch evaluation on mu grids (trapezoid in k, vectorized over mu).
#
# A massless vacuum or delta weight takes `_vacuum_exponent`.  For any other the
# k step h puts the aliasing images of the transform at multiples of
# P = 2 pi / h in mu (`_k_step`); the trapezoid rule is spectrally accurate
# because the integrand is even at k = 0 and has decayed by k_max.  Every path
# below sums the k nodes of `_batch_k_grid` with the same weights; the path is
# chosen from the field and the mu array (mu_z the point nearest 0, J = j - z):
#
# - massless thermal field (w_k = k_n = n h) on a uniform mu grid whose
#   one FFT takes at most 2^20 points: h = 2 pi / (L |dmu|), so that the phases
#   mu_j k_n differ by exact multiples of 2 pi n / L: one L-point FFT of the
#   weights folded mod L (`_dft_sums`), O(N_k + L log L) in place of O(N_k N_mu).
# - massive field (w_k is not uniform in k) on a uniform mu grid, or a massless
#   grid with L > N_mu N_k, L > 2^20 or aligned nodes past the node cap: the phases
#   mu_z w_n + J x_n, x_n = dmu w_n, make the sums a type-1 non-uniform FFT in
#   x_n mod 2 pi, by Gaussian gridding: O(N_k + N_mu log).
# - any other mu array, or a window of slow phases, |mu| <= _SINH_MU_MAX l,
#   where the FFT sums lose digits to Sum a cos(mu w) - Sum a: a direct sum,
#   one trig row per point and function.
# The exponent at mu = 0 is set to 0 exactly, so that P~(0) = 1 + 0j.
# ---------------------------------------------------------------------------

# The integrands are analytic in |Im k| < kappa = `_nearest_singularity` and
# decay as e^{-l^2 k^2}, so the image of a phase mu at P carries about
# e^{l^2 c^2 - c (P - mu)} of the peak for any c < kappa (Trefethen & Weideman,
# SIAM Rev. 56 (2014) 385).  The margin P - mu_max = 12 l + 32 / kappa keeps it
# below e^{-32} (take c = min(kappa, 6 / l)).  A cold or nearly massless field
# (32 / kappa > _ALIAS_MARGIN l) takes the finer grid it needs up to the node
# cap of `_radial_nodes`; past the cap, the period is the largest the cap
# allows, but never below mu_max + _ALIAS_MARGIN l, so that a window too wide
# for the cap is refused, not sampled with a margin that shrinks to 0 at its
# edge.  200 l was the massless vacuum's margin on its k grid, kept so that the
# same windows are refused.  Margins in units of 1 / l (kappa l is scale free
# too) keep every node count scale free.
_ALIAS_MARGIN = 200.0
# Entries of the direct sum's trig table or of the non-uniform FFT's spreading
# tables held at a time, and the longest folded DFT: memory stays flat up to the
# node cap.
_TABLE_SIZE = 2**20
# Gaussian gridding (Greengard & Lee, SIAM Rev. 46 (2004) 443): each node is
# spread onto 2 * _SPREAD_HALF_WIDTH points of a grid _OVERSAMPLING times the
# band.  The truncated and aliased Gaussian tails carry about e^{-35} of
# Sum |a|.  At half-width 12 (e^{-30}) the aliases cost up to 5.5e-14 of
# max |exponent| on a window such as [50, 60], whose images fall near mu = 0.
_SPREAD_HALF_WIDTH = 14
_OVERSAMPLING = 3


def _k_step(s: Scenario, mu_max: float, estimate: bool = False) -> float:
    """The k step 2 pi / P for phases up to mu_max w_k, kappa > 0: P = mu_max + M
    with the margin M above, or with ``estimate`` P = 2 (mu_max + M), so that the
    rule of step 2h, which gives `integrate_radial` its error estimate, keeps its
    images a margin from every |mu| too.  P is at most the larger of the floor
    (2 mu_max + _ALIAS_MARGIN l with ``estimate``) and the largest period the
    node cap allows.  Raises ConvergenceError where k^2 in a(k) overflows below k_max."""
    if not math.isfinite(s.k_max * s.k_max):
        raise ConvergenceError(f"below k_max = {s.k_max:g} the integrand is not finite")
    length = _decay_length(s)
    floor = (2.0 if estimate else 1.0) * mu_max + _ALIAS_MARGIN * length
    fitted = (mu_max + 12.0 * length + 32.0 / _nearest_singularity(s)) * (2.0 if estimate else 1.0)
    capped = 2.0 * math.pi * (_MAX_K_NODES - 2) / s.k_max
    return 2.0 * math.pi / min(fitted, max(capped, floor))


def _batch_k_grid(s: Scenario, mu_max: float, dmu=None):
    """(k, L): the k nodes k_n = n h, n = 0 .. 2M, of the mu-grid sums with phases
    up to mu_max w_k, and the FFT length L they are aligned to, or None.  For a
    massless field on a uniform grid of step ``dmu`` h = 2 pi / (L |dmu|), L the
    least 2^a 3^b 5^c >= 2 pi / (`_k_step` |dmu|) (nodes to k_max + 2h), unless
    those nodes would pass the node cap; else h = k_max / 2M <= `_k_step`."""
    step = _k_step(s, mu_max)
    nodes = _radial_nodes(s.k_max, step)
    if dmu is None or s.field.mass != 0.0:
        return nodes, None
    size = _smooth_len(math.ceil(2.0 * math.pi / (step * abs(dmu))))
    if s.k_max * size * abs(dmu) >= 2.0 * math.pi * _MAX_K_NODES:
        return nodes, None
    h = 2.0 * math.pi / (size * abs(dmu))
    return np.arange(2 * math.ceil(0.5 * s.k_max / h) + 1) * h, size


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
    """Int a(k) * bracket(mu, w_k) dk for an array of real mu.

    A massless vacuum or delta weight takes its closed form (`_vacuum_exponent`).
    Otherwise, on a uniform mu grid wider than |mu| <= _SINH_MU_MAX l, a massless
    field on k nodes aligned to an FFT length L <= min(_TABLE_SIZE, N_mu N_k)
    takes the folded DFT (`_dft_sums`), and any other field or length the
    non-uniform FFT (`_nufft_sums`); any other mu array takes the direct sum
    (`_phase_sums`), all by the trapezoid rule in k.
    The exponent at mu = 0 is 0 exactly on every path.
    """
    if _nearest_singularity(s) == 0.0:
        return np.where(mu == 0.0, 0.0, _vacuum_exponent(s, mu))
    mu_max = float(np.abs(mu).max()) if mu.size else 0.0
    dmu = None if mu_max <= _SINH_MU_MAX * _decay_length(s) else _uniform_step(mu)
    k, size = _batch_k_grid(s, mu_max, dmu)
    h = k[1] - k[0]
    kk = k[1:]  # integrand vanishes at k = 0, and a(k_max) is e^{-49} of its bulk
    w = dispersion(kk, s.field.mass)
    a_trap = _spectral_weight(s, kk, w) * h
    a_coth = a_trap if math.isinf(s.field.beta) else a_trap * thermal_weight(w, s.field.beta)[0]

    if dmu is None:
        out = _phase_sums(w, a_coth, a_trap, mu)
    else:  # nodes aligned to a length are massless: w_k = k_n
        folded = size is not None and size <= min(_TABLE_SIZE, mu.size * kk.size)
        cos_sum, sin_sum = (_dft_sums(w, a_coth, a_trap, mu, dmu, size) if folded
                            else _nufft_sums(w, a_coth, a_trap, mu, dmu))
        out = cos_sum - a_coth.sum() + 1j * sin_sum
    out[mu == 0.0] = 0.0
    return out


def _smooth_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: an FFT length that pocketfft handles fast."""
    best, p5 = 2 * n, 1
    while p5 < 2 * n:
        p35 = p5
        while p35 < 2 * n:  # p35 2^a >= n from 2^a >= ceil(n / p35) = (n - 1) // p35 + 1
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _dft_sums(k, a_coth, a_trap, mu, dmu, length):
    """(Sum_n a_coth_n cos(mu_j k_n), Sum_n a_trap_n sin(mu_j k_n)) for k_n = n h,
    n = 1 .. N_k, on the uniform grid mu_j = mu_z + (j - z) dmu with
    h = 2 pi / (length |dmu|).  The phases are exactly mu_z k_n +
    2 pi sgn(dmu) (j - z) n / length, mu_z the point nearest 0: a length-point
    FFT of a_n e^{i mu_z k_n}, node n added into slot n mod length, per weight array."""
    z = int(np.argmin(np.abs(mu)))
    f, g = np.zeros((2, length), dtype=complex)
    for start in range(-1, k.size, length):  # nodes start + 1 .. start + length
        lo, hi = max(start, 0), min(start + length, k.size)
        c = np.exp(1j * mu[z] * k[lo:hi])
        f[lo - start : hi - start] += a_coth[lo:hi] * c
        g[lo - start : hi - start] += a_trap[lo:hi] * c
    q = (z - np.arange(mu.size)) * (1 if dmu > 0 else -1) % length
    return np.fft.fft(f)[q].real, np.fft.fft(g)[q].imag


def _nufft_sums(w, a_coth, a_trap, mu, dmu):
    """(Sum_n a_coth_n cos(mu_j w_n), Sum_n a_trap_n sin(mu_j w_n)) for any nodes
    w_n, on the uniform grid mu_j = mu_z + (j - z) dmu.

    A type-1 non-uniform FFT by Gaussian gridding, anchored at the point mu_z
    nearest 0, so that the rounding of x_n = dmu w_n costs about eps |mu| w_n,
    as in a direct sum.  With J = j - z and c_n = a_n e^{i mu_z w_n}, the sum
    Sum_n c_n e^{i J x_n} is sqrt(pi / tau) e^{J^2 tau} times the J-th Fourier
    coefficient of Sum_n c_n g(x - x_n), g the 2 pi-periodic Gaussian
    e^{-x^2 / 4 tau}.  Both weight rows, as 2 or 4 real rows, are spread onto
    one oversampled grid and taken to Fourier coefficients by one real FFT:
    for a real row x, ifft(x)[J] = conj(rfft(x)[J]) / size at J >= 0, and
    rfft(x)[-J] / size at J < 0.
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
    gauss = np.exp(-((np.arange(1 - half, half + 1) * h) ** 2) / (4.0 * tau))[:, None]
    padded = np.zeros((2 if mu[z] == 0.0 else 4, size + 2 * half - 1))
    block = _TABLE_SIZE // (2 * half)  # nodes spread at a time
    for n0 in range(0, w.size, block):
        wb = w[n0 : n0 + block]
        parts = np.stack((a_coth[n0 : n0 + block], a_trap[n0 : n0 + block]))
        if mu[z] != 0.0:  # c_n is complex: spread its real and imaginary parts apart
            c = parts * np.exp(1j * (mu[z] * wb))
            parts = np.concatenate((c.real, c.imag))
        # node n lies at grid position t = i0 + d / h, 0 <= d < h; it is spread onto
        # the points i0 + l, l = 1 - half .. half, with the weights
        # e^{-(l h - d)^2 / 4 tau} = e^{-d^2 / 4 tau} (e^{d h / 2 tau})^l e^{-(l h)^2 / 4 tau}
        t = (dmu / h) * wb
        i0 = np.floor(t)
        d = (t - i0) * h
        step = np.exp(d * (h / (2.0 * tau)))
        spread = np.empty((2 * half, t.size))
        spread[0] = np.exp(-d * (d + 2 * (half - 1) * h) / (4.0 * tau))
        for row in range(1, 2 * half):
            np.multiply(spread[row - 1], step, out=spread[row])
        spread *= gauss
        # point i0 + l goes to slot (i0 mod size) + l + half - 1 of a grid padded by
        # half - 1 slots before and half after, which are then folded onto the circle
        index = np.add.outer(np.arange(2 * half), np.mod(i0, size).astype(np.int64)).ravel()
        weights = np.empty_like(spread)
        for row, part in zip(padded, parts):
            row += np.bincount(index, np.multiply(spread, part, out=weights).ravel(), row.size)
    grid = padded[:, half - 1 : half - 1 + size]
    grid[:, size - half + 1 :] += padded[:, : half - 1]
    grid[:, :half] += padded[:, size + half - 1 :]
    J = np.arange(-z, n_mu - z)
    coef = np.fft.rfft(grid, axis=1)[:, np.abs(J)]
    np.conjugate(coef, out=coef, where=J >= 0)
    if len(coef) == 4:
        coef = coef[:2] + 1j * coef[2:]
    sums = coef * (math.sqrt(math.pi / tau) / size * np.exp(J * J * tau))
    return sums[0].real, sums[1].imag


def _phase_sums(w, a_coth, a_trap, mu) -> np.ndarray:
    """Sum_k a_coth_k (cos(mu w_k) - 1) + i Sum_k a_trap_k sin(mu w_k), a direct sum.

    The real part is taken as -2 Sum_k a_coth_k sin^2(mu w_k / 2), which keeps
    its digits where |mu| w_k is small.  The trig table runs as many rows at a
    time as fit in _TABLE_SIZE entries, in one preallocated buffer.
    """
    out = np.empty(mu.size, dtype=complex)
    rows = max(1, _TABLE_SIZE // w.size)
    buf = np.empty((min(rows, mu.size), w.size))
    for i0 in range(0, mu.size, rows):
        x = mu[i0 : i0 + rows]
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


def charfn_grid(
    s: Scenario,
    mu_points: int = DEFAULT_MU_POINTS,
    mu_max: float = DEFAULT_MU_MAX,
) -> CharFnGrid:
    """Sample P~ on mu = 0 .. mu_max, the half of a DFT-layout grid of
    ``mu_points`` points in [-mu_max, mu_max) that invert_charfn takes.

    The default window is |mu| <= 1536 with 2^14 points.  For a massless field
    the slowest tail is the 1/mu^2 decay of a vacuum or delta density with a
    kink at W = 0, which has fallen below 1e-6 of its peak there.  For m > 0
    the square-root thresholds of the density at |W| = m make P~ decay only as
    |mu|^{-3/2}; the window cuts that tail off, so the inverted density rings
    near |W| = m.  `distribution_from_charfn` samples P~ here for delta
    switching only; smooth switching takes its density in closed form.
    """
    # one uniform grid, so that the samples take the folded DFT or non-uniform FFT sums
    n, dmu = _dft_step(mu_points, mu_max)
    mu = np.append(np.arange(n // 2) * dmu, mu_max)
    return CharFnGrid(mu=mu, values=sample_charfn(s, mu))

