"""Tests for field parameters, localization profiles, and thermal factors."""

import math

import mpmath
import numpy as np
import pytest

from fieldwork import (
    FieldSpec,
    InvalidArgumentError,
    SmearingProfile,
    SwitchingProfile,
    dispersion,
    smearing_ft,
    switching_ft,
    thermal_weight,
)


class TestFieldSpec:
    def test_defaults_are_massless_vacuum(self):
        f = FieldSpec()
        assert f.mass == 0.0
        assert f.is_vacuum

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            FieldSpec(mass=-1.0)
        with pytest.raises(InvalidArgumentError):
            FieldSpec(mass=math.inf)
        with pytest.raises(InvalidArgumentError):
            FieldSpec(beta=0.0)
        with pytest.raises(InvalidArgumentError):
            FieldSpec(beta=-2.0)
        with pytest.raises(InvalidArgumentError):
            FieldSpec(coupling=math.nan)

    def test_coupling_whose_square_overflows_is_rejected(self):
        assert FieldSpec(coupling=1.3e154).coupling == 1.3e154
        for coupling in (1.4e154, -1e155, 1e221):
            with pytest.raises(InvalidArgumentError, match=r"coupling\^2 overflows"):
                FieldSpec(coupling=coupling)

    def test_finite_beta_is_not_vacuum(self):
        assert not FieldSpec(beta=1.0).is_vacuum


class TestDispersion:
    def test_massless_is_identity(self):
        k = np.linspace(0.0, 10.0, 11)
        assert np.allclose(dispersion(k, 0.0), k)

    def test_massive_scalar_value(self):
        assert dispersion(3.0, 4.0) == pytest.approx(5.0, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            dispersion(-1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            dispersion(1.0, -1.0)


class TestSwitching:
    def test_gaussian_transform_closed_form(self):
        p = SwitchingProfile.gaussian(center=0.5, width=1.0 / 12.0)
        omega = np.linspace(-5.0, 5.0, 41)
        s = 1.0 / 12.0
        expected = (
            s * math.sqrt(2.0 * math.pi)
            * np.exp(-0.5 * (s * omega) ** 2)
            * np.exp(1j * 0.5 * omega)
        )
        assert np.allclose(switching_ft(p, omega), expected, rtol=1e-14)

    def test_delta_transform_is_unity(self):
        p = SwitchingProfile.delta()
        assert p.is_delta
        assert switching_ft(p, 3.7) == 1.0 + 0.0j

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SwitchingProfile.gaussian(center=0.0, width=0.0)
        for center, width in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf)):
            with pytest.raises(InvalidArgumentError):
                SwitchingProfile.gaussian(center=center, width=width)


class TestSmearing:
    def test_gaussian_transform_is_unit_normalized(self):
        p = SmearingProfile.gaussian_spherical(sigma=2.0)
        assert smearing_ft(p, 0.0) == pytest.approx(1.0, abs=1e-15)
        k = np.linspace(0.0, 5.0, 21)
        assert np.allclose(smearing_ft(p, k), np.exp(-2.0 * k**2), rtol=1e-14)

    def test_rejects_negative_momentum(self):
        p = SmearingProfile.gaussian_spherical(1.0)
        with pytest.raises(InvalidArgumentError):
            smearing_ft(p, -0.1)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SmearingProfile.gaussian_spherical(sigma=0.0)
        with pytest.raises(InvalidArgumentError):
            SmearingProfile.gaussian_spherical(sigma=math.inf)


@pytest.mark.parametrize(
    "profile, fields",
    [
        (SwitchingProfile, {"kind": "gaussian", "center": 0.5, "width": 0.0}),
        (SwitchingProfile, {"kind": "gaussian", "center": 0.5, "width": -1.0 / 12.0}),
        (SwitchingProfile, {"kind": "gaussian", "center": 0.5, "width": math.nan}),
        (SwitchingProfile, {"kind": "gaussian", "center": 0.5, "width": 1e160}),
        (SwitchingProfile, {"kind": "tabulated"}),
        (SwitchingProfile, {"kind": "delta", "width": 1.0}),
        (SmearingProfile, {"sigma": 0.0}),
        (SmearingProfile, {"sigma": -1.0}),
    ],
    ids=["width-0", "width-negative", "width-nan", "width-square-overflows", "kind-tabulated",
         "delta-width", "sigma-0", "sigma-negative"],
)
def test_direct_construction_is_validated(profile, fields):
    # the dataclass constructor, not only the named constructors, checks its fields,
    # so a bad width cannot reach Scenario.k_max as a division by zero
    with pytest.raises(InvalidArgumentError):
        profile(**fields)


class TestThermalWeight:
    def test_vacuum_limit_exact(self):
        coth, bose = thermal_weight(2.5, math.inf)
        assert coth == 1.0
        assert bose == 0.0

    def test_against_mpmath_across_regimes(self):
        mpmath.mp.dps = 40
        beta = 1.0
        for omega in (1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 650.0, 720.0):
            coth, bose = thermal_weight(omega, beta)
            x = mpmath.mpf(beta) * mpmath.mpf(omega)
            ref_bose = 1.0 / mpmath.expm1(x)
            ref_coth = mpmath.coth(x / 2)
            assert bose == pytest.approx(float(ref_bose), rel=1e-13, abs=1e-300)
            assert coth == pytest.approx(float(ref_coth), rel=1e-13)

    def test_identity_coth_equals_one_plus_two_bose(self):
        omega = np.geomspace(1e-5, 900.0, 64)
        coth, bose = thermal_weight(omega, 1.0)
        assert np.allclose(coth, 1.0 + 2.0 * bose, rtol=1e-14, atol=0.0)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(InvalidArgumentError):
            thermal_weight(0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            thermal_weight(-1.0, 1.0)
