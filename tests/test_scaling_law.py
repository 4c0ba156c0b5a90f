"""The exact scaling law of the radial integrals, as an oracle for every path.

Scale the widths s and sigma and the inverse temperature beta by c, and the
mass by 1/c.  In the program's conventions a(k) dk is then invariant and the
phases become mu w / c, so the exponent obeys

    B(mu; c s, c sigma, c beta, m / c) = B(mu / c; s, sigma, beta, m),

the mean work scales as 1/c, the second moment as 1/c^2, and the density
mass p and the atom are unchanged.  The delta weight a_F(k) dk carries no
|chi~|^2 = 2 pi s^2 e^{-s^2 w^2} and scales as 1/c^2, so the delta case
scales the coupling by c as well and compares lambda^2 B.  The exponent is
compared directly, never as P~ - 1, which would cost eps / |lambda^2 B|.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from fieldwork import (
    FieldSpec,
    Scenario,
    SmearingProfile,
    SwitchingProfile,
    charfn_correction,
    delta_weight,
    distribution_from_charfn,
    moments,
)
from fieldwork.charfn import DEFAULT_MU_MAX, _batch_exponent
from fieldwork.workdist import _perturbative_mass

SCALES = [0.125, 0.5, 2.0, 8.0, 3.0]
STATES = ["thermal", "vacuum", "massive", "delta"]
REL = 1e-13
UNIFORM_MU = np.linspace(-10.0, 10.0, 201)
SCATTERED_MU = np.array([-7.3, -0.2, 0.05, 1.0, 3.3, 9.9, 17.0, 40.0])


def build(mass: float, beta: float, delta: bool, c: float = 1.0) -> Scenario:
    """The reference scenario of a mass, beta and switching, its widths and beta
    times c and its mass over c (a delta switching: its coupling times c too)."""
    field = FieldSpec(mass=mass / c, beta=beta * c, coupling=0.3 * c if delta else 0.01)
    smearing = SmearingProfile.gaussian_spherical(c)
    if delta:
        return Scenario(field=field, switching=SwitchingProfile.delta(), smearing=smearing)
    switching = SwitchingProfile.gaussian(center=0.5 * c, width=c / 12.0)
    return Scenario(field=field, switching=switching, smearing=smearing)


def scaled(state: str, c: float = 1.0) -> Scenario:
    """A reference scenario of each state, scaled by c as in `build`."""
    beta = 1.0 if state in ("thermal", "massive") else math.inf
    return build(0.6 if state == "massive" else 0.0, beta, state == "delta", c)


def _lam2_exponent(s: Scenario, mu) -> np.ndarray:
    """lambda^2 B, the exponent that sample_charfn returns P~ of."""
    return s.field.coupling**2 * _batch_exponent(s, np.asarray(mu, dtype=float))


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("mu", [UNIFORM_MU, SCATTERED_MU], ids=["uniform", "scattered"])
def test_grid_exponent_follows_the_scaling_law(state, c, mu):
    # a uniform array takes the folded DFT (massless) or the non-uniform
    # FFT (massive); a scattered one the direct sum
    base = _lam2_exponent(scaled(state), mu / c)
    got = _lam2_exponent(scaled(state, c), mu)
    assert np.max(np.abs(got - base)) <= REL * np.max(np.abs(base))


# (mass, beta, delta switching): a delta switching is treated on the vacuum only
_SWEEP_STATES = [(m, b, False) for m in (0.0, 0.6) for b in (1.0, math.inf)] + [
    (m, math.inf, True) for m in (0.0, 0.6)
]


@seed(20191019)
@settings(max_examples=100, deadline=None, database=None)
@given(st.floats(0.125, 8.0), st.sampled_from(_SWEEP_STATES))
def test_grid_exponent_follows_the_scaling_law_at_any_scale(c, state):
    # any c in [1/8, 8]: the mu grid, the k grid and the widths all round apart
    # from the base ones
    for mu in (UNIFORM_MU, SCATTERED_MU):
        base = _lam2_exponent(build(*state), mu / c)
        got = _lam2_exponent(build(*state, c), mu)
        assert np.max(np.abs(got - base)) <= REL * np.max(np.abs(base))


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("state", ["thermal", "vacuum", "massive"])
def test_pointwise_integrals_follow_the_scaling_law(state, c):
    base, scen = scaled(state), scaled(state, c)
    for mu in (0.3, 17.0, 40.0):
        ref = charfn_correction(base, mu / c)
        assert abs(charfn_correction(scen, mu) - ref) <= REL * abs(ref)
    ref, got = moments(base), moments(scen)
    assert got.mean * c == pytest.approx(ref.mean, rel=REL, abs=0.0)
    assert got.second_moment * c * c == pytest.approx(ref.second_moment, rel=REL, abs=0.0)
    # the density mass p itself: 1 - delta_weight keeps only eps / p of it
    assert _perturbative_mass(scen) == pytest.approx(_perturbative_mass(base), rel=REL, abs=0.0)
    assert delta_weight(scen) == pytest.approx(delta_weight(base), rel=0.0, abs=1e-16)


# On the DFT grid with mu_max times c, the W grid is the base one over c and
# the density c times the base one.  A power of 2 scales every sample exactly;
# c = 3 rounds the mu grid apart from the base one, which moved the density by
# up to 1.8e-13 of its peak (delta at W = 0; 1.6e-13 massive, 5.6e-16 massless).
DENSITY_REL = 1e-12


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("state", STATES)
def test_inverted_density_follows_the_scaling_law(state, c):
    base = distribution_from_charfn(scaled(state))
    got = distribution_from_charfn(scaled(state, c), mu_max=DEFAULT_MU_MAX * c)
    assert got.atom_weight == pytest.approx(base.atom_weight, rel=0.0, abs=1e-16)
    assert np.allclose(got.w_grid * c, base.w_grid, rtol=1e-15, atol=0.0)
    peak = np.max(np.abs(base.density))
    assert np.max(np.abs(got.density / c - base.density)) <= DENSITY_REL * peak
