"""Work probability distributions, moments and fluctuation-theorem checks.

With the spectral weight a(k) and the Bose factor n = 1/(e^{beta w} - 1) of
`charfn`, the perturbative characteristic function inverts to a mixed
distribution

    P(W) = (1 - p) delta(W) + rho(W),
    rho(W) = lambda^2 a(|W|) (1 + n(|W|))    for W > 0,
    rho(W) = lambda^2 a(|W|) n(|W|)          for W < 0,

written here for a massless field, where w_k = k and a(|W|) is a(k) at
k = |W|.  The vacuum sets n = 0, so rho = 0 for W < 0.  Detailed balance
rho(W)/rho(-W) = (1 + n)/n = e^{beta W} is an algebraic identity of this
expression, which is why Crooks checks use the analytic density (tolerance
1e-10) while comparisons against the inverted density carry the looser
grid-resolution tolerance.

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
    _bracket_part,
    _moment_integral,
    _spectral_weight,
    charfn_grid,
    charfn_kms,
)
from .distribution import WorkDistribution
from .errors import InconsistencyError, InvalidArgumentError, RegimeError
from .field_model import thermal_weight
from .special_math import invert_charfn

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
    if s.field.mass != 0.0:
        raise RegimeError("the closed-form density requires a massless field")


def work_density_analytic(s: Scenario, w):
    """Non-atom part of the work density at W != 0 (massless field).

    Accepts scalar or array W; every entry must be nonzero (the atom at W = 0
    is handled by delta_weight).
    """
    _check_analytic_regime(s)
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr == 0.0) or not np.all(np.isfinite(w_arr)):
        raise InvalidArgumentError("work_density_analytic: W must be finite and nonzero")
    w_abs = np.abs(w_arr)
    _, bose = thermal_weight(w_abs, s.field.beta)
    lam = s.field.coupling
    out = lam * lam * _spectral_weight(s, w_abs, w_abs) * np.where(w_arr > 0.0, 1.0 + bose, bose)
    return float(out) if np.ndim(w) == 0 else out


def _density_moment(s: Scenario, power: int) -> float:
    """Int W^power rho(W) dW = lambda^2 Int a(k) w^power [(1 + n) + (-1)^power n] dk."""
    lam = s.field.coupling
    return lam * lam * _moment_integral(s, power)


def _perturbative_mass(s: Scenario) -> float:
    """Density mass p of a perturbative scenario; p > 1 means the expansion broke down."""
    if s.switching.is_delta:
        raise RegimeError("the density mass p is defined for smooth switching only")
    p = _density_moment(s, 0)
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
    """Sample P~ on the default mu grid, invert it with the known atom, and
    assemble the distribution.  The atom is 1 - p for smooth switching, and
    exp(-lambda^2 Int a_F(k) dk), the large-mu level of the exact delta P~,
    for delta switching, which is exact at any strength."""
    if s.switching.is_delta:
        atom = math.exp(-_density_moment(s, 0))
    else:
        atom = delta_weight(s)
    grid = charfn_grid(s, mu_points=mu_points, mu_max=mu_max)
    dist = invert_charfn(grid, atom)
    dist.metadata.update(s.fingerprint())
    return dist


@dataclass(frozen=True)
class MomentReport:
    """First two moments and fluctuation-theorem quantities of P(W)."""

    mean: float
    second_moment: float
    variance: float
    jarzynski_value: float
    partition_ratio: float


_FD_STEP = 0.1
_FD_TOL = 1e-5


def _moments_finite_difference(s: Scenario, w_scale: float) -> tuple[float, float]:
    """<W> and <W^2> from Richardson-extrapolated central differences of P~ at 0.

    The differences are taken on P~ - 1 = lambda^2 Int a(k) bracket(h, w_k) dk
    without forming the 1, so they lose no precision to the subtraction; <W>
    reads only Im P~ and <W^2> only Re P~, so only that part is integrated.
    Going through the bracket keeps the check independent of the w^j moment
    integrals it is compared with.  The step is measured in units of the
    typical work value `w_scale`, keeping the truncation error scale
    invariant when the localization widths shrink.
    """
    lam = s.field.coupling

    def correction(h, part):
        return lam * lam * _bracket_part(s, h, part)

    def d1(h):
        return correction(h, np.imag) / h

    def d2(h):
        return -2.0 * correction(h, np.real) / (h * h)

    h = _FD_STEP / max(w_scale, 1e-300)
    mean = (4.0 * d1(h / 2) - d1(h)) / 3.0
    second = (4.0 * d2(h / 2) - d2(h)) / 3.0
    return mean, second


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
    _perturbative_mass(s)
    mean = _density_moment(s, 1)
    second = _density_moment(s, 2)
    w_scale = second / mean if mean > 0 else 1.0
    fd_mean, fd_second = _moments_finite_difference(s, w_scale)
    scale_1 = max(abs(mean), 1e-300)
    scale_2 = max(abs(second), 1e-300)
    if abs(fd_mean - mean) > _FD_TOL * scale_1 or abs(fd_second - second) > _FD_TOL * scale_2:
        raise InconsistencyError(
            "finite-difference moments disagree with quadrature moments: "
            f"mean {mean:.12g} vs {fd_mean:.12g}, "
            f"second {second:.12g} vs {fd_second:.12g}"
        )
    variance = second - mean * mean
    if math.isinf(s.field.beta):
        jar = math.nan  # <e^{-beta W}> has no finite-beta meaning in the vacuum
    else:
        jar = abs(charfn_kms(s, complex(0.0, s.field.beta)))
    return MomentReport(
        mean=mean,
        second_moment=second,
        variance=variance,
        jarzynski_value=jar,
        partition_ratio=jar,
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
    (ok = False) with a warning, since the log-ratio is ill-conditioned there.
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
    for excluded, fin in zip(w[~ok].tolist(), finite[~ok].tolist()):
        problem = "underflow" if fin else "overflow"
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
