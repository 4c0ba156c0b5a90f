"""Accuracy checks: one program output against a reference, as error / tolerance.

Every check returns ``{metric: ratio}`` where ``metric`` names the per-layer
accuracy metric the comparison feeds and ``ratio`` is the error divided by the
tolerance the test suite applies to the same comparison, so a ratio below 1
passes.  The references are closed forms, or program functions on a path
independent of the one being checked (pointwise quadrature for grid values,
the analytic density for the FFT inversion).
"""

from __future__ import annotations

import math

import numpy as np

import fieldwork as fw

# Tolerances, each taken from the test that makes the same comparison.
GRID_TOL = 1e-10  # test_sample_charfn_matches_pointwise_quadrature, test_delta_closed_matches_numeric
PEAK_REL_TOL = 1e-4  # criterion 04: inverted density at its peak, relative
TAIL_ABS_TOL = 1e-6  # criterion 04: inverted density for |W| > 3, absolute
ATOM_TOL = 1e-6  # test_normalized_and_matches_analytic_density: atom against delta_weight
NEG_MASS_TOL = 1e-6  # criterion 07: inverted negative-work mass of the delta coupling
JARZYNSKI_TOL = 1e-8  # criterion 02: |P~(i beta) - 1|
MOMENT_REL_TOL = 1e-10  # test_mean_matches_independent_trapezoid_oracle
CROOKS_TOL = 1e-10  # criterion 03: |log[P(W)/P(-W)] - beta W|
RAMSEY_TOL = 1e-6  # continuum_convergence default tolerance, test_ramsey_comparison_table

ACCURACY_METRICS = (
    "charfn.grid_err_max",
    "charfn.pointwise_err_max",
    "workdist.density_err_max",
    "workdist.atom_err_max",
    "workdist.moment_err_max",
    "ramsey.err_max",
)


def _ratio(err, tol) -> float:
    err = float(err)
    return err / tol if math.isfinite(err) else math.inf


def gaussian_vacuum_moments(coupling, switch_width, sigma):
    """<W> and vacuum <W^2> for a massless field with Gaussian profiles.

    With a = s^2 + sigma^2 and C = (lambda^2 / 4 pi^2) 2 pi s^2:
    <W> = C sqrt(pi) / (4 a^{3/2}) at any beta, and <W^2> = C / (2 a^2) in the vacuum.
    """
    a = switch_width**2 + sigma**2
    c = coupling**2 / (4.0 * math.pi**2) * 2.0 * math.pi * switch_width**2
    return c * math.sqrt(math.pi) / (4.0 * a**1.5), c / (2.0 * a * a)


def _rel(value, reference) -> float:
    return abs(value - reference) / abs(reference)


def moment_check(scenario, mean, second_moment=None) -> dict:
    """Mean (any beta) and vacuum second moment against the Gaussian closed forms."""
    ref_mean, ref_second = gaussian_vacuum_moments(
        scenario.field.coupling, scenario.switching.width, scenario.smearing.sigma
    )
    err = _rel(mean, ref_mean)
    if second_moment is not None and scenario.field.is_vacuum:
        err = max(err, _rel(second_moment, ref_second))
    return {"workdist.moment_err_max": _ratio(err, MOMENT_REL_TOL)}


def sweep_check(coupling, rows) -> dict:
    """Each sweep row (switch width, smear width, mean, std, ...) against the closed forms."""
    worst = 0.0
    for switch_width, smear_width, mean, std, *_ in rows:
        ref_mean, ref_second = gaussian_vacuum_moments(coupling, switch_width, smear_width)
        worst = max(worst, _rel(mean, ref_mean), _rel(std**2 + mean**2, ref_second))
    return {"workdist.moment_err_max": _ratio(worst, MOMENT_REL_TOL)}


def jarzynski_check(deviation) -> dict:
    """|P~(i beta) - 1|, the Jarzynski equality."""
    return {"charfn.pointwise_err_max": _ratio(deviation, JARZYNSKI_TOL)}


def delta_closed_check(scenario, mu, values, metric) -> dict:
    """Delta-coupling P~ values against the Dawson closed form."""
    ref = fw.charfn_delta_closed(scenario.field.coupling, scenario.smearing.sigma, mu)
    return {metric: _ratio(np.max(np.abs(np.asarray(values) - ref)), GRID_TOL)}


def pointwise_spot_check(scenario, mu, values, index) -> dict:
    """Grid-path samples at ``index`` against pointwise quadrature of P~."""
    mu = np.asarray(mu)[index]
    got = np.asarray(values)[index]
    ref = np.array([fw.charfn_kms(scenario, float(m)) for m in np.atleast_1d(mu)])
    return {"charfn.grid_err_max": _ratio(np.max(np.abs(np.atleast_1d(got) - ref)), GRID_TOL)}


def massless_density_check(scenario, w_grid, density, atom_weight) -> dict:
    """Criterion 04 bounds against work_density_analytic, and the atom against delta_weight."""
    analytic = np.zeros_like(density)
    nonzero = w_grid != 0.0
    analytic[nonzero] = fw.work_density_analytic(scenario, w_grid[nonzero])
    i = int(np.argmax(analytic))
    peak_rel = abs(density[i] - analytic[i]) / analytic[i]
    tails = np.abs(w_grid) > 3.0
    tail_abs = float(np.max(np.abs(density[tails] - analytic[tails])))
    return {
        "workdist.density_err_max": max(
            _ratio(peak_rel, PEAK_REL_TOL), _ratio(tail_abs, TAIL_ABS_TOL)
        ),
        "workdist.atom_err_max": _ratio(
            abs(atom_weight - fw.delta_weight(scenario)), ATOM_TOL
        ),
    }


def delta_density_check(w_grid, density) -> dict:
    """Criterion 07: the delta coupling on the vacuum does no negative work."""
    negative = w_grid < 0
    neg_mass = abs(float(np.trapezoid(np.where(negative, density, 0.0), w_grid)))
    return {"workdist.density_err_max": _ratio(neg_mass, NEG_MASS_TOL)}


def distribution_check(scenario, w_grid, density, atom_weight) -> dict:
    """The check that applies to an inverted distribution of this scenario, if any."""
    if scenario.switching.is_delta:
        return delta_density_check(w_grid, density)
    if scenario.field.mass == 0.0:
        return massless_density_check(scenario, w_grid, density, atom_weight)
    return {}


def crooks_table_check(deviations, ok) -> dict:
    """Criterion 03 on the CLI's Crooks table; an excluded sample counts as a miss."""
    worst = max((abs(d) for d in deviations), default=0.0)
    return {"workdist.density_err_max": math.inf if not all(ok) else _ratio(worst, CROOKS_TOL)}


def ramsey_check(abs_difference) -> dict:
    return {"ramsey.err_max": _ratio(np.max(abs_difference), RAMSEY_TOL)}
