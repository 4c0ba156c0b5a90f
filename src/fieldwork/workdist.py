"""Work probability distributions, moments and fluctuation-theorem checks.

With the spectral weight a(k) and the Bose factor n(w) = 1/(e^{beta w} - 1) of
`charfn`, the perturbative characteristic function 1 + lambda^2 B(mu) is the
transform of a mixed distribution

    P(W) = (1 - p) delta(W) + rho(W),
    rho(W) = lambda^2 a(k) (w / k) (1 + n(w))    for W = w > m,
    rho(W) = lambda^2 a(k) (w / k) n(w)          for W = -w < -m,

with k = sqrt(w^2 - m^2) the momentum of a mode of energy w: a(k) dk written
in W, so that w / k = dk / dw is the Jacobian, 1 for a massless field.  rho is 0
for |W| <= m: no mode has less energy than the mass.  The vacuum sets n = 0, so
rho = 0 for W < 0.  As W -> 0 a massless thermal rho tends to lambda^2 A0 / beta,
A0 = lim a(k) / k; every other rho tends to 0.  Detailed balance
rho(W)/rho(-W) = (1 + n)/n = e^{beta W} is an algebraic identity of this
expression at any mass, which is why Crooks checks use it (tolerance 1e-10).
Smooth switching takes this density in closed form (`distribution_from_charfn`);
only delta switching, whose P~ = exp(lambda^2 B) holds every number of jumps,
is inverted by FFT.

The moments of rho are radial integrals over the same weight, for any mass:

    Int W^j rho(W) dW = lambda^2 Int a(k) w_k^j [(1 + n) + (-1)^j n] dk,

where the bracket is coth(beta w/2) for even j and 1 for odd j.  The density
mass p is the j = 0 case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .charfn import (
    DEFAULT_MU_MAX,
    DEFAULT_MU_POINTS,
    Scenario,
    _bracket_parts,
    _lambda_sq,
    _moment_integral,
    _spectral_weight,
    _weight_slope,
    charfn_grid,
)
from .distribution import WorkDistribution
from .errors import ConvergenceError, InconsistencyError, InvalidArgumentError, RegimeError
from .field_model import thermal_weight
from .special_math import _check_window, _dft_distribution, _dft_step, invert_charfn

__all__ = [
    "WorkDistribution",
    "MomentReport",
    "CrooksRow",
    "work_density_analytic",
    "delta_weight",
    "distribution_from_charfn",
    "moments",
    "crooks_check",
    "localization_sweep",
]


def _check_analytic_regime(s: Scenario):
    if s.switching.is_delta:
        raise RegimeError("the closed-form density applies to the perturbative regime only")


# Past sigma k = 40 the smearing factor e^{-(sigma k)^2 / 2} of a(k) is 0 in
# double precision, while k^2 / w may overflow: rho is set to 0 there.
_SMEARING_ZERO = 40.0


def _jump_factors(s: Scenario, energy: np.ndarray):
    """(lambda^2 a(k) w / k, n(w)) at the energies w > 0 of a 1-D array: rho(W)
    is the first times 1 + n(w) at W = w and times n(w) at W = -w.  The first is
    0 where w <= m, and past the smearing cutoff."""
    mass = s.field.mass
    inside = energy > mass
    w = energy[inside]
    # sqrt(w - m) sqrt(w + m) does not overflow where w^2 would; k is w if massless
    k = np.sqrt(w - mass) * np.sqrt(w + mass) if mass else w
    keep = k * s.smearing.sigma < _SMEARING_ZERO
    inside[inside] = keep
    w, k = w[keep], k[keep]
    lam = s.field.coupling
    rate = np.zeros(energy.shape)
    rate[inside] = lam * lam * (_spectral_weight(s, k, w) * (w / k))
    return rate, thermal_weight(energy, s.field.beta)[1]


def work_density_analytic(s: Scenario, w):
    """The one-jump density rho(W) of the module docstring at W != 0, any mass.

    Accepts scalar or array W; every entry must be nonzero (the atom at W = 0
    is handled by delta_weight).
    """
    _check_analytic_regime(s)
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr == 0.0) or not np.all(np.isfinite(w_arr)):
        raise InvalidArgumentError("work_density_analytic: W must be finite and nonzero")
    flat = w_arr.ravel()
    rate, bose = _jump_factors(s, np.abs(flat))
    out = rate * np.where(flat > 0.0, 1.0 + bose, bose)
    return float(out[0]) if np.ndim(w) == 0 else out.reshape(w_arr.shape)


def _density_moment(s: Scenario, power: int) -> float:
    """Int W^power rho(W) dW = lambda^2 Int a(k) w^power [(1 + n) + (-1)^power n] dk."""
    lam = s.field.coupling
    return lam * lam * _moment_integral(s, power)[0]


def _perturbative_mass(s: Scenario, p=None) -> float:
    """Density mass p (unless given) of a perturbative scenario; p > 1 is a breakdown."""
    if s.switching.is_delta:
        raise RegimeError("the density mass p is defined for smooth switching only")
    p = _density_moment(s, 0) if p is None else p
    if p > 1.0:
        raise RegimeError(
            f"perturbative breakdown: density mass p = {p:.3g} > 1; reduce the coupling"
        )
    return p


def delta_weight(s: Scenario) -> float:
    """Probability mass (1 - p) remaining at W = 0, for smooth switching and any mass."""
    return 1.0 - _perturbative_mass(s)


def distribution_from_charfn(
    s: Scenario,
    mu_points: int = DEFAULT_MU_POINTS,
    mu_max: float = DEFAULT_MU_MAX,
) -> WorkDistribution:
    """The work distribution on the W grid conjugate to the DFT-layout mu grid of
    ``mu_points`` points in [-mu_max, mu_max): w_m = (m - N/2) 2 pi / (N dmu),
    dmu = 2 mu_max / N, as `invert_charfn` returns it.

    Smooth switching, at any mass, takes the atom 1 - p and the one-jump density
    rho of the module docstring in closed form, with no mu samples: rho at every
    W != 0 (0 for |W| <= m), and at W = 0 its limit, lambda^2 A0 / beta for a
    massless thermal field and 0 otherwise.  A density wider than the W window
    is refused as in `invert_charfn`, from Re P~(dmu).  The metadata reads no
    clamping; ``window_residual`` is |p - dW Sum rho|, the mass the W samples
    miss, which by Poisson summation is the level of rho~ at the multiples of
    2 mu_max.

    Delta switching samples P~ = exp(lambda^2 B) (`charfn_grid`) and inverts it
    with the known atom exp(-lambda^2 Int a_F(k) dk), its large-mu level, which
    is exact at any strength."""
    if s.switching.is_delta:
        atom = math.exp(-_density_moment(s, 0))
        dist = invert_charfn(charfn_grid(s, mu_points=mu_points, mu_max=mu_max), atom)
    else:
        dist = _one_jump_distribution(s, mu_points, mu_max)
    dist.metadata.update(s.fingerprint())
    return dist


def _one_jump_distribution(s: Scenario, mu_points, mu_max: float) -> WorkDistribution:
    p = _perturbative_mass(s)
    atom = 1.0 - p
    n, dmu = _dft_step(mu_points, mu_max)
    lam = s.field.coupling
    if atom < 1.0:  # phi = (P~(dmu) - atom) / (1 - atom), as invert_charfn reads it
        real_b = _bracket_parts(s, [(dmu, np.real)])[0]
        _check_window((1.0 + lam * lam * real_b - atom) / (1.0 - atom), dmu)
    # the W grid is symmetric about W = 0 (index N/2): a(k) once per energy |W| = j dW
    half = n // 2
    dw = 2.0 * math.pi / (n * dmu)
    rate, bose = _jump_factors(s, np.arange(1, half + 1) * dw)
    density = np.empty(n)
    density[half - 1 :: -1] = rate * bose
    density[half] = lam * lam * _weight_slope(s) / s.field.beta  # rho at W -> 0
    density[half + 1 :] = (rate * (1.0 + bose))[:-1]
    if not np.all(np.isfinite(density)):
        raise ConvergenceError("work density: the spectral weight is not finite on the W grid")
    return _dft_distribution(atom, density, dmu, float(mu_max), abs(p - dw * float(density.sum())))


@dataclass(frozen=True)
class MomentReport:
    """First two moments and fluctuation-theorem quantities of P(W)."""

    mean: float
    second_moment: float
    variance: float
    jarzynski_value: float


_FD_STEP = 0.1
_FD_TOL = 1e-5


def _moments_finite_difference(s: Scenario, w_scale: float, *extra) -> tuple:
    """<W> and <W^2> from Richardson-extrapolated central differences of P~ at 0.

    The differences are taken on P~ - 1 = lambda^2 Int a(k) bracket(h, w_k) dk
    without forming the 1, so they lose no precision to the subtraction; <W>
    reads only Im P~ and <W^2> only Re P~, so only that part is integrated.
    Going through the bracket keeps the check independent of the w^j moment
    integrals it is compared with.  The step is measured in units of the
    typical work value `w_scale`, keeping the truncation error scale
    invariant when the localization widths shrink.  The (mu, part) terms
    ``extra`` ride in the same `_bracket_parts` call; their parts follow.
    """
    lam = s.field.coupling
    h = _FD_STEP / max(w_scale, 1e-300)
    steps = (h / 2, h)
    b = _bracket_parts(s, [(x, part) for part in (np.imag, np.real) for x in steps] + list(extra))
    d1 = [lam * lam * b[i] / x for i, x in enumerate(steps)]
    d2 = [-2.0 * (lam * lam * b[2 + i]) / (x * x) for i, x in enumerate(steps)]
    return ((4.0 * d1[0] - d1[1]) / 3.0, (4.0 * d2[0] - d2[1]) / 3.0, *b[4:])


def moments(s: Scenario) -> MomentReport:
    """Moment report for a perturbative scenario.

    <W> and <W^2> are computed by radial quadrature of the moment integrals
    (the first moment is temperature independent; the second carries the
    thermal coth factor) and cross-checked against central finite differences
    of the characteristic function at mu = 0; disagreement beyond 1e-5
    relative raises InconsistencyError, and a density mass p > 1 raises
    RegimeError (perturbative breakdown).
    """
    if s.switching.is_delta:
        raise RegimeError("moments: use the characteristic-function derivative path "
                          "for the delta coupling")
    lam, beta = s.field.coupling, s.field.beta
    p, mean, second = (lam * lam * x for x in _moment_integral(s, 0, 1, 2))
    _perturbative_mass(s, p)
    w_scale = second / mean if mean > 0 else 1.0
    # Jarzynski's P~(i beta) rides on the nodes of the differences
    jar = [] if math.isinf(beta) else [(complex(0.0, beta), np.real), (complex(0.0, beta), np.imag)]
    fd_mean, fd_second, *jar_parts = _moments_finite_difference(s, w_scale, *jar)
    scale_1 = max(abs(mean), 1e-300)
    scale_2 = max(abs(second), 1e-300)
    if abs(fd_mean - mean) > _FD_TOL * scale_1 or abs(fd_second - second) > _FD_TOL * scale_2:
        raise InconsistencyError(
            "finite-difference moments disagree with quadrature moments: "
            f"mean {mean:.12g} vs {fd_mean:.12g}, "
            f"second {second:.12g} vs {fd_second:.12g}"
        )
    variance = second - mean * mean
    if math.isinf(beta):
        jar = math.nan  # <e^{-beta W}> has no finite-beta meaning in the vacuum
    else:  # abs(charfn_kms(s, i beta)), bit for bit
        jar = abs(1.0 + _lambda_sq(s, jar_parts[0] + 1j * jar_parts[1]))
    return MomentReport(
        mean=mean,
        second_moment=second,
        variance=variance,
        jarzynski_value=jar,
    )


class CrooksRow(NamedTuple):
    w: float
    log_ratio: float
    beta_w: float
    deviation: float
    ok: bool


_DENSITY_UNDERFLOW = 1e-300


def crooks_check(s: Scenario, w_samples) -> list[CrooksRow]:
    """Detailed-balance residuals log[rho(W)/rho(-W)] - beta W per sample.

    Samples where either density underflows or is not finite are excluded
    (ok = False) with a warning, since the log-ratio is ill-conditioned there;
    so are samples in the mass gap 0 < |W| <= m, where rho is exactly 0.
    """
    _check_analytic_regime(s)
    beta = s.field.beta
    if math.isinf(beta):
        raise RegimeError("crooks_check requires a finite temperature")
    w = np.asarray(w_samples, dtype=float)
    p_fwd = work_density_analytic(s, w)
    p_rev = work_density_analytic(s, -w)
    finite = np.isfinite(p_fwd) & np.isfinite(p_rev)
    ok = finite & ~((p_fwd < _DENSITY_UNDERFLOW) | (p_rev < _DENSITY_UNDERFLOW))
    log_ratio = np.full(w.size, math.nan)
    log_ratio[ok] = np.log(p_fwd[ok] / p_rev[ok])
    mass = s.field.mass
    for excluded, fin in zip(w[~ok].tolist(), finite[~ok].tolist()):
        problem = "underflow" if fin else "overflow"
        if fin and abs(excluded) <= mass:
            problem = f"0 in the mass gap |W| <= m = {mass:g}"
        warnings.warn(f"crooks_check: density {problem} at W = {excluded}; sample excluded")
    beta_w = beta * w
    rows = zip(w.tolist(), log_ratio.tolist(), beta_w.tolist(), (log_ratio - beta_w).tolist(),
               ok.tolist())
    return [CrooksRow(*row) for row in rows]


class SweepRow(NamedTuple):
    switch_width: float
    smear_width: float
    mean: float
    std: float
    std_over_mean: float
    var_over_mean: float


def localization_sweep(base: Scenario, widths) -> list[SweepRow]:
    """Moments as the spacetime localization scales of the unitary shrink.

    Each entry of `widths` is a (switching width, smearing width) pair; the
    switching center is kept: it is a phase and drops out of every result.
    The physically meaningful growth as the operation localizes shows up in
    the variance-to-mean column: under a joint rescaling of both widths by c
    the mean scales as 1/c but the variance as 1/c^2, while std/mean is
    exactly scale invariant at second order in the coupling.
    """
    if not base.field.is_vacuum:
        raise RegimeError("localization_sweep is defined for the vacuum field")
    if base.switching.is_delta:
        raise RegimeError("localization_sweep requires Gaussian profiles")
    rows = []
    for s_w, sigma in widths:
        scen = replace(
            base,
            switching=replace(base.switching, width=s_w),
            smearing=replace(base.smearing, sigma=sigma),
        )
        rep = moments(scen)
        if not rep.mean > 0.0:  # the mean underflows for very slow or wide profiles
            raise RegimeError(
                f"localization_sweep: mean work {rep.mean:g} at widths ({s_w:g}, {sigma:g}); "
                "std/mean and var/mean are undefined"
            )
        std = math.sqrt(max(rep.variance, 0.0))
        rows.append(
            SweepRow(
                switch_width=float(s_w),
                smear_width=float(sigma),
                mean=rep.mean,
                std=std,
                std_over_mean=std / rep.mean,
                var_over_mean=rep.variance / rep.mean,
            )
        )
    return rows
