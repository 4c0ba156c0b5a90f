"""Tests for the work distribution, moments, and fluctuation theorems."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from fieldwork import (
    ConvergenceError,
    FieldSpec,
    InconsistencyError,
    InvalidArgumentError,
    RegimeError,
    Scenario,
    SmearingProfile,
    SwitchingProfile,
    charfn_correction,
    charfn_kms,
    crooks_check,
    delta_weight,
    distribution_from_charfn,
    moments,
    localization_sweep,
    smearing_ft,
    switching_ft,
    work_density_analytic,
)
import fieldwork.charfn
import fieldwork.workdist as workdist_module
from fieldwork.charfn import DEFAULT_MU_MAX, _moment_integral, charfn_grid
from fieldwork.special_math import CLAMP_REL_FLOOR, integrate_radial, invert_charfn
from fieldwork.workdist import _FD_STEP, _density_moment, _moments_finite_difference

SWITCH_WIDTH = 1.0 / 12.0
SWITCH_CENTER = 0.5
SIGMA = 1.0
LAM = 0.01


def make_scenario(beta=1.0, coupling=LAM, mass=0.0):
    return Scenario(
        field=FieldSpec(mass=mass, beta=beta, coupling=coupling),
        switching=SwitchingProfile.gaussian(center=SWITCH_CENTER, width=SWITCH_WIDTH),
        smearing=SmearingProfile.gaussian_spherical(SIGMA),
    )


def _moment_reference(mass, beta, power):
    """lambda^2 Int a(k) w^power [(1 + n) + (-1)^power n] dk by mpmath at 25 digits."""
    with mpmath.workdps(25):
        m, s, sigma = mpmath.mpf(mass), mpmath.mpf(SWITCH_WIDTH), mpmath.mpf(SIGMA)

        def f(k):
            w = mpmath.sqrt(k * k + m * m)
            a = k * k / w * s * s * mpmath.exp(-s * s * w * w - sigma * sigma * k * k)
            if power % 2 == 0 and beta != math.inf:
                a *= mpmath.coth(beta * w / 2)
            return a * w**power / (2 * mpmath.pi)

        cuts = sorted({0.0, mass, 2 * math.pi / beta, 1e-3, 0.1, 1.0, 3.0, 7.0, 20.0})
        return float(LAM**2 * mpmath.quad(f, cuts))


class TestAnalyticDensity:
    def test_vacuum_density_vanishes_for_negative_work(self):
        s = make_scenario(beta=math.inf)
        assert work_density_analytic(s, -1.0) == 0.0
        w = np.linspace(-5.0, -0.01, 40)
        assert np.all(work_density_analytic(s, w) == 0.0)

    def test_explicit_value_at_unit_work(self):
        # density(W) = (lam^2 / 4 pi^2) |chi~(W)|^2 |F~(W)|^2 * W/(1 - e^{-bW})
        beta, w = 1.0, 1.0
        s = make_scenario(beta=beta)
        expected = (
            LAM**2
            / (4.0 * math.pi**2)
            * abs(switching_ft(s.switching, w)) ** 2
            * smearing_ft(s.smearing, w) ** 2
            * w
            / (1.0 - math.exp(-beta * w))
        )
        assert work_density_analytic(s, w) == pytest.approx(expected, rel=1e-14)

    def test_crooks_ratio_pointwise(self):
        beta, w = 1.0, 0.7
        s = make_scenario(beta=beta)
        ratio = work_density_analytic(s, w) / work_density_analytic(s, -w)
        assert ratio == pytest.approx(math.exp(beta * w), rel=1e-13)

    def test_guards(self):
        s = make_scenario(beta=1.0)
        with pytest.raises(InvalidArgumentError):
            work_density_analytic(s, 0.0)  # the atom is handled separately
        delta = Scenario(
            field=FieldSpec(coupling=0.1),
            switching=SwitchingProfile.delta(),
            smearing=SmearingProfile.gaussian_spherical(SIGMA),
        )
        with pytest.raises(RegimeError):
            work_density_analytic(delta, 1.0)

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_massive_value_carries_the_jacobian(self, beta):
        # rho(W) = (lam^2 / 4 pi^2) k |chi~(W)|^2 |F~(k)|^2 (1 + n(W)), k = sqrt(W^2 - m^2):
        # a(k) = (lam^2 / 4 pi^2) (k^2 / w) |chi~|^2 |F~|^2 times dk / dw = w / k
        mass, w = 0.5, 1.3
        s = make_scenario(beta=beta, mass=mass)
        k = math.sqrt(w * w - mass * mass)
        n = 0.0 if math.isinf(beta) else 1.0 / math.expm1(beta * w)
        common = (LAM**2 / (4.0 * math.pi**2) * k * abs(switching_ft(s.switching, w)) ** 2
                  * smearing_ft(s.smearing, k) ** 2)
        assert work_density_analytic(s, w) == pytest.approx(common * (1.0 + n), rel=1e-14)
        assert work_density_analytic(s, -w) == pytest.approx(common * n, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mass", [0.2, 0.6, 1.0])
    def test_massive_density_vanishes_below_the_threshold(self, mass):
        s = make_scenario(beta=1.0, mass=mass)
        below = np.array([-mass, -0.5 * mass, -1e-9, 1e-9, 0.5 * mass, mass])
        assert np.all(work_density_analytic(s, below) == 0.0)
        # past it rho rises as k = sqrt(W^2 - m^2): four times as far, twice as high
        for sign in (-1.0, 1.0):
            near, far = work_density_analytic(s, sign * mass * (1.0 + np.array([1e-9, 4e-9])))
            assert near > 0.0 and far / near == pytest.approx(2.0, rel=1e-6)

    def test_far_samples_are_zero_where_the_smearing_factor_underflows(self):
        # k^2 / w overflows from W of about 1.3e154, where F~(k)^2 = 0: rho is 0, not nan
        for s in (make_scenario(beta=1.0), make_scenario(beta=1.0, mass=0.6)):
            got = work_density_analytic(s, [-1e300, -45.0, 45.0, 1e200])
            assert np.all(got == 0.0)


def _mp_density(mass, beta, w):
    """rho(W) from the one-jump formula at 30 digits, written out in W:
    (lam^2 / 4 pi^2) k |chi~(w)|^2 |F~(k)|^2 times 1 + n(w) (W = w > m) or n(w) (W = -w)."""
    wa = abs(w)
    k = mpmath.sqrt(wa * wa - mass * mass)
    s = mpmath.mpf(SWITCH_WIDTH)
    chi2 = 2 * mpmath.pi * s * s * mpmath.exp(-(s * wa) ** 2)
    common = LAM**2 / (4 * mpmath.pi**2) * k * chi2 * mpmath.exp(-((SIGMA * k) ** 2))
    n = 0 if beta == math.inf else 1 / mpmath.expm1(beta * wa)
    return common * ((1 + n) if w > 0 else n)


class TestMassiveDensityOracle:
    """The transform of rho over |W| > m, by mpmath at 30 digits in W, is
    lambda^2 B(mu) + p, with B from the pointwise P~ and p the density mass."""

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    @pytest.mark.parametrize("mass", [0.0, 0.2, 0.6, 1.0])
    def test_transform_of_rho_is_the_characteristic_function(self, mass, beta):
        s = make_scenario(beta=beta, mass=mass)
        p = _density_moment(s, 0)
        sides = (1,) if math.isinf(beta) else (1, -1)
        with mpmath.workdps(30):
            m = mpmath.mpf(mass)
            for w in (-2.5, -1.1, 1.1, 2.5, 7.0):  # the package's rho, pointwise
                if abs(w) > mass and (w > 0 or not math.isinf(beta)):
                    ref = _mp_density(m, beta, mpmath.mpf(w))
                    assert work_density_analytic(s, w) == pytest.approx(float(ref), rel=1e-13)
            # W = sign (m + u^2) takes the square-root threshold off the integrand;
            # past W = 12 rho is below e^{-140} of its peak
            cuts = [mpmath.sqrt(c) for c in (0, 0.25, 0.5, 1, 2, 3, 4, 6, 8, 12 - mass)]
            for mu in (0.5, 3.0, 17.0):
                total = mpmath.mpc(0)
                for sign in sides:
                    def f(u, sign=sign):
                        w = sign * (m + u * u)
                        return _mp_density(m, beta, w) * mpmath.expj(mu * w) * 2 * u
                    total += mpmath.quad(f, cuts)
                want = charfn_correction(s, mu) + p
                assert abs(complex(total) - want) <= 1e-10 * p


class TestDeltaWeight:
    def test_zero_coupling_gives_pure_atom(self):
        assert delta_weight(make_scenario(coupling=0.0)) == 1.0

    def test_density_mass_scales_as_coupling_squared(self):
        p1 = 1.0 - delta_weight(make_scenario(coupling=0.01))
        p2 = 1.0 - delta_weight(make_scenario(coupling=0.005))
        assert p1 / p2 == pytest.approx(4.0, rel=1e-9)

    def test_perturbative_breakdown_detected(self):
        with pytest.raises(RegimeError):
            delta_weight(make_scenario(coupling=5e4))

    def test_any_mass_but_not_delta_switching(self):
        s = make_scenario(mass=0.6)
        assert delta_weight(s) == 1.0 - _density_moment(s, 0)
        with pytest.raises(RegimeError):
            delta_weight(_state_scenario("delta"))


def _state_scenario(state, coupling=LAM):
    if state == "delta":
        return Scenario(
            field=FieldSpec(coupling=coupling),
            switching=SwitchingProfile.delta(),
            smearing=SmearingProfile.gaussian_spherical(SIGMA),
        )
    beta = math.inf if state == "vacuum" else 1.0
    return make_scenario(beta=beta, coupling=coupling, mass=0.6 if state == "massive" else 0.0)


class TestDistributionFromCharfn:
    @pytest.mark.parametrize("mu_points, mu_max", [(2**14, DEFAULT_MU_MAX), (1024, 96.0)])
    def test_smooth_and_delta_share_the_w_grid_and_the_metadata(self, mu_points, mu_max):
        # the closed-form and the inverted density come out of one constructor
        smooth, delta = (distribution_from_charfn(_state_scenario(state), mu_points, mu_max)
                         for state in ("thermal", "delta"))
        six = {"mu_max": float, "mu_points": int, "clamped_points": int,
               "worst_negative_density": float, "negative_floor_violation": bool,
               "window_residual": float}
        dmu = 2.0 * mu_max / mu_points
        w_grid = (np.arange(mu_points) - mu_points // 2) * (2.0 * math.pi / (mu_points * dmu))
        for dist in (smooth, delta):
            assert {key: type(dist.metadata[key]) for key in six} == six
            assert dist.metadata["mu_max"] == mu_max and dist.metadata["mu_points"] == mu_points
            assert np.array_equal(dist.w_grid, w_grid)

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_normalized_and_matches_analytic_density(self, beta):
        s = make_scenario(beta=beta)
        dist = distribution_from_charfn(s)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-6)
        assert dist.atom_weight == pytest.approx(delta_weight(s), abs=1e-6)
        i = int(np.argmax(dist.density))
        w_peak = dist.w_grid[i]
        assert dist.density[i] == pytest.approx(
            work_density_analytic(s, w_peak), rel=1e-6
        )

    @pytest.mark.parametrize("state", ["thermal", "vacuum", "massive"])
    def test_smooth_switching_takes_the_closed_form(self, state, monkeypatch):
        # no mu samples and no inversion: rho itself at every W != 0, and its
        # limit at W = 0, on invert_charfn's W grid
        s = _state_scenario(state)
        ref = invert_charfn(charfn_grid(s), delta_weight(s))

        def sampled(*args, **kwargs):
            raise AssertionError("the smooth-switching distribution sampled or inverted P~")

        monkeypatch.setattr(workdist_module, "charfn_grid", sampled)
        monkeypatch.setattr(workdist_module, "invert_charfn", sampled)
        dist = distribution_from_charfn(s)
        assert np.array_equal(dist.w_grid, ref.w_grid)
        zero = dist.w_grid == 0.0
        assert np.flatnonzero(zero).tolist() == [dist.w_grid.size // 2]
        assert np.array_equal(dist.density[~zero], work_density_analytic(s, dist.w_grid[~zero]))
        limit = LAM**2 * SWITCH_WIDTH**2 / (2.0 * math.pi) if state == "thermal" else 0.0
        assert dist.density[zero][0] == pytest.approx(limit, rel=1e-15, abs=0.0)
        if state == "thermal":  # the limit continues the samples either side of W = 0
            i = dist.w_grid.size // 2
            assert dist.density[i] == pytest.approx(
                0.5 * (dist.density[i - 1] + dist.density[i + 1]), rel=1e-4)
        meta = dist.metadata
        assert meta["clamped_points"] == 0 and meta["worst_negative_density"] == 0.0
        assert meta["negative_floor_violation"] is False
        assert set(meta) >= set(ref.metadata)
        # the mass the W samples miss: the transform of rho at the multiples of
        # 2 mu_max, 1e-16 of p for the smooth thermal rho, 7e-7 for the vacuum's
        # kink at W = 0 and 2e-6 for the massive thresholds
        p = _density_moment(s, 0)
        n = dist.w_grid.size
        dw = 2.0 * math.pi / (n * (2.0 * DEFAULT_MU_MAX / n))  # as the W grid's step is formed
        assert meta["window_residual"] == abs(p - dw * dist.density.sum())
        assert meta["window_residual"] <= 1e-5 * p

    @pytest.mark.parametrize("state", ["thermal", "vacuum", "massive"])
    def test_closed_form_density_keeps_the_input_errors(self, state):
        s = _state_scenario(state)
        with pytest.raises(InvalidArgumentError, match="mu_points must be even"):
            distribution_from_charfn(s, mu_points=1001)
        with pytest.raises(InvalidArgumentError, match="spacing"):
            distribution_from_charfn(s, mu_max=0.0)
        with pytest.raises(InvalidArgumentError, match="wider than the W window"):
            distribution_from_charfn(s, mu_points=64)

    def test_a_far_w_grid_stays_finite_or_is_a_convergence_error(self):
        # at mu_max = 1e-200 the W samples lie past the smearing cutoff, where k^2 / w
        # overflows: rho is 0 there.  At widths of 1e-160 rho is not 0 where k^2
        # overflows (from W of about 1.3e154), and the density is refused
        for state in ("thermal", "massive"):
            dist = distribution_from_charfn(_state_scenario(state), mu_max=1e-200)
            assert np.all(np.isfinite(dist.density))
        tiny = Scenario(
            field=FieldSpec(coupling=LAM),
            switching=SwitchingProfile.gaussian(center=0.0, width=1e-160),
            smearing=SmearingProfile.gaussian_spherical(1e-160),
        )
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="not finite"):
            distribution_from_charfn(tiny, mu_max=1e-158)

    def test_metadata_carries_scenario_fingerprint(self):
        dist = distribution_from_charfn(make_scenario(beta=1.0))
        assert "beta" in dist.metadata
        assert dist.metadata["beta"] == 1.0

    @pytest.mark.parametrize("state", ["thermal", "vacuum", "delta", "massive"])
    def test_inversion_matches_the_full_complex_dft(self, state):
        # the half-spectrum real inverse FFT against the full complex DFT, by FFT,
        # of the mirrored grid mu_n = (n - N/2) dmu, with the same atom and clamp:
        # Sum_n f_n e^{-i mu_n w_m} with both grids centred on index N/2.  Delta
        # coupling 10 puts the perturbative density mass above 1; the delta
        # coupling is exact there and must not be rejected as a breakdown
        s = _state_scenario(state, coupling=10.0 if state == "delta" else LAM)
        if state == "delta":
            dist = distribution_from_charfn(s)
        else:  # smooth switching takes rho in closed form: invert its sampled P~ here
            dist = invert_charfn(charfn_grid(s), delta_weight(s))
        half = charfn_grid(s).values
        n = 2 * (half.size - 1)
        full = np.concatenate((np.conj(half[1:][::-1]), half[:-1])) - dist.atom_weight
        dmu = 2.0 * DEFAULT_MU_MAX / n
        ref = (dmu / (2.0 * np.pi)) * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(full)))
        # its imaginary part is (dmu / 2 pi) Im P~(mu_max) (-1)^m, from the
        # unpaired Nyquist sample, which the real transform leaves out
        ref = ref.real
        peak = np.max(np.abs(ref))
        ref[(ref < 0.0) & (ref >= -CLAMP_REL_FLOOR * peak)] = 0.0
        assert np.max(np.abs(dist.density - ref)) <= 1e-15 * peak

    @pytest.mark.parametrize("mu_max", [DEFAULT_MU_MAX, 1.0])
    @pytest.mark.parametrize("state", ["thermal", "vacuum", "massive"])
    def test_smooth_switching_atom_is_the_delta_weight(self, state, mu_max):
        # at mu_max = 1 the density part of P~ has not dephased: the atom stays
        # 1 - p, and the window residual reports what the window cuts off
        s = _state_scenario(state)
        dist = distribution_from_charfn(s, mu_max=mu_max)
        assert dist.atom_weight == delta_weight(s)
        if mu_max == 1.0:
            assert dist.metadata["window_residual"] >= 0.5 * (1.0 - dist.atom_weight)

    @pytest.mark.parametrize("coupling", [0.1, 1.0])
    def test_delta_switching_atom_is_the_closed_form(self, coupling):
        # the large-mu level of P~ = exp[lambda^2 Int a_F (e^{i mu w} - 1) dk]
        s = _state_scenario("delta", coupling=coupling)
        closed = math.exp(-(coupling**2) / (8.0 * math.pi**2 * SIGMA**2))
        assert distribution_from_charfn(s).atom_weight == pytest.approx(closed, rel=0.0,
                                                                         abs=1e-15)

    def test_vacuum_negative_side_is_empty(self):
        dist = distribution_from_charfn(make_scenario(beta=math.inf))
        assert abs(dist.negative_mass()) <= 1e-9


class TestMoments:
    def test_mean_is_temperature_independent(self):
        means = [moments(make_scenario(beta=b)).mean for b in (0.5, 1.0, math.inf)]
        assert means[0] == pytest.approx(means[1], rel=1e-12)
        assert means[1] == pytest.approx(means[2], rel=1e-12)
        assert means[0] > 0.0

    def test_mean_matches_independent_trapezoid_oracle(self):
        # <W> = (lam^2 / 4 pi^2) Int k^2 |chi~(k)|^2 |F~(k)|^2 dk, evaluated
        # here on a dense fixed grid instead of adaptive quadrature.
        s = make_scenario(beta=1.0)
        k = np.linspace(0.0, 60.0, 400001)
        integrand = (
            k**2
            * np.abs(switching_ft(s.switching, k)) ** 2
            * smearing_ft(s.smearing, k) ** 2
        )
        oracle = LAM**2 / (4.0 * math.pi**2) * np.trapezoid(integrand, k)
        assert moments(s).mean == pytest.approx(oracle, rel=1e-10)

    def test_variance_increases_with_temperature(self):
        variances = [
            moments(make_scenario(beta=b)).variance for b in (math.inf, 2.0, 1.0, 0.5)
        ]
        assert all(b > a for a, b in zip(variances, variances[1:]))

    def test_jarzynski_value_unity_at_finite_beta(self):
        rep = moments(make_scenario(beta=1.0))
        assert rep.jarzynski_value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "beta, width, sigma",
        [(1.0, 0.02, 1.0), (1.0, 1 / 12, 0.02), (1.0, 1 / 96, 0.125), (3.0, 1 / 12, 1.0),
         (20.0, 1 / 12, 1.0)],
    )
    def test_cold_or_narrow_thermal_states_keep_jarzynski(self, beta, width, sigma):
        # beta k_max > 709 here: e^{Im(mu) w} overflows on the imaginary axis
        # where the Bose factor has already underflowed to 0
        s = Scenario(
            field=FieldSpec(beta=beta, coupling=LAM),
            switching=SwitchingProfile.gaussian(center=6.0 * width, width=width),
            smearing=SmearingProfile.gaussian_spherical(sigma),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = moments(s)
            assert abs(charfn_kms(s, 1j * beta) - 1.0) <= 1e-8
        a = width**2 + sigma**2
        mean = LAM**2 * width**2 / (8.0 * math.sqrt(math.pi) * a**1.5)
        assert rep.mean == pytest.approx(mean, rel=1e-10)
        assert rep.jarzynski_value == pytest.approx(1.0, abs=1e-8)

    def test_jarzynski_undefined_in_vacuum(self):
        rep = moments(make_scenario(beta=math.inf))
        assert math.isnan(rep.jarzynski_value)

    def test_moments_reject_delta_switching(self):
        delta = Scenario(
            field=FieldSpec(coupling=0.1),
            switching=SwitchingProfile.delta(),
            smearing=SmearingProfile.gaussian_spherical(SIGMA),
        )
        with pytest.raises(RegimeError):
            moments(delta)

    @pytest.mark.parametrize("beta, mass", [(1.0, 0.0), (math.inf, 0.0), (1.0, 0.6)])
    def test_finite_differences_are_the_richardson_values_of_the_correction(self, beta, mass):
        # integrating only the part of P~ - 1 that each difference reads
        # must leave every bit of the Richardson values unchanged
        s = make_scenario(beta=beta, mass=mass)
        w_scale = 1.7
        h = _FD_STEP / w_scale

        def d1(x):
            return charfn_correction(s, x).imag / x

        def d2(x):
            return -2.0 * charfn_correction(s, x).real / (x * x)

        expected = ((4.0 * d1(h / 2) - d1(h)) / 3.0, (4.0 * d2(h / 2) - d2(h)) / 3.0)
        assert _moments_finite_difference(s, w_scale) == expected

    @pytest.mark.parametrize(
        "beta, mass", [(1.0, 0.0), (math.inf, 0.0), (1.0, 0.6), (math.inf, 0.6), (1e6, 3e-3)]
    )
    def test_stacked_moments_equal_the_per_integral_route(self, beta, mass):
        # p, <W> and <W^2> share one stacked integral, the differences and
        # Jarzynski's P~(i beta) another: every bit matches the separate integrals
        s = make_scenario(beta=beta, mass=mass)
        rep = moments(s)
        assert rep.mean == LAM * LAM * _moment_integral(s, 1)[0]
        assert rep.second_moment == LAM * LAM * _moment_integral(s, 2)[0]
        assert rep.variance == rep.second_moment - rep.mean * rep.mean
        if math.isinf(beta):
            assert math.isnan(rep.jarzynski_value)
        else:
            assert rep.jarzynski_value == abs(charfn_kms(s, complex(0.0, beta)))

    @pytest.mark.parametrize(
        "beta, mass, rows, exponents",
        [(1.0, 0.0, [3, 6], []), (1.0, 0.6, [3, 6], []), (math.inf, 0.6, [3, 4], []),
         (math.inf, 0.0, [2], [2])],
    )
    def test_moments_take_two_stacked_integrals(self, monkeypatch, beta, mass, rows, exponents):
        # pass 1: p, <W>, <W^2> (p in closed form for the massless vacuum); pass 2: the
        # four difference parts and, at finite beta, Re and Im of the bracket at i beta.
        # The massless vacuum takes its four parts from the closed form at the two steps
        stacks, sizes = [], []
        vacuum_exponent = fieldwork.charfn._vacuum_exponent

        def counting(f, k_max, **kwargs):
            def counted(k):
                out = f(k)
                stacks.append(out.shape[0])
                return out

            return integrate_radial(counted, k_max, **kwargs)

        def exponent(s, mu):
            sizes.append(np.size(mu))
            return vacuum_exponent(s, mu)

        monkeypatch.setattr(fieldwork.charfn, "integrate_radial", counting)
        monkeypatch.setattr(fieldwork.charfn, "_vacuum_exponent", exponent)
        moments(make_scenario(beta=beta, mass=mass))
        assert stacks == rows
        assert sizes == exponents

    def test_a_repeated_mu_takes_the_closed_form_of_its_lone_evaluation(self):
        # the massless vacuum evaluates each distinct mu once; every part of a repeated
        # mu is the float its lone evaluation gives
        s = make_scenario(beta=math.inf)
        terms = [(0.5, np.imag), (1.0, np.imag), (0.5, np.real), (1.0, np.real),
                 (complex(0.0, 2.0), np.real), (complex(0.0, 2.0), np.imag)]
        lone = [fieldwork.charfn._bracket_parts(s, [term])[0] for term in terms]
        assert fieldwork.charfn._bracket_parts(s, terms) == lone

    @pytest.mark.parametrize("beta, mass", [(1.0, 0.0), (math.inf, 0.6), (1.0, 0.6)])
    def test_a_lone_moment_integral_keeps_a_1d_integrand(self, monkeypatch, beta, mass):
        # a stack of one row costs more than the row; the value is the stacked one, bit for bit
        s = make_scenario(beta=beta, mass=mass)
        stacked = _moment_integral(s, 0, 1, 2)
        shapes = []

        def recording(f, k_max, **kwargs):
            def recorded(k):
                out = f(k)
                shapes.append(out.shape)
                return out

            return integrate_radial(recorded, k_max, **kwargs)

        monkeypatch.setattr(fieldwork.charfn, "integrate_radial", recording)
        for power in (0, 1, 2):
            assert _moment_integral(s, power) == [stacked[power]]
        assert [len(shape) for shape in shapes] == [1, 1, 1]

    @pytest.mark.parametrize("beta", [1.0, 1e4, 1e6, math.inf])
    @pytest.mark.parametrize("mass", [0.0, 1e-6, 3e-3])
    def test_moment_integrals_at_small_mass_and_low_temperature(self, mass, beta):
        # p and <W^2> are singular at k = +-i m and, with the thermal coth, at
        # k = +-2 pi i n / beta.  On a uniform k grid their trapezoid images decay
        # only as e^{-m P} and e^{-2 pi P / beta}, P = 2 pi / dk: such a grid misses
        # its tolerance at m = 3e-3 or beta = 1e4, and at beta = 1e6 the Jarzynski
        # point mu = i beta needs more than 2^20 of its nodes
        s = make_scenario(beta=beta, mass=mass)
        rep = moments(s)
        got = (_density_moment(s, 0), rep.mean, rep.second_moment)
        for power, value in enumerate(got):
            assert value == pytest.approx(_moment_reference(mass, beta, power), rel=1e-13)
        if math.isfinite(beta):
            assert abs(rep.jarzynski_value - 1.0) <= 1e-15

    def test_second_moment_consistent_with_distribution(self):
        s = make_scenario(beta=1.0)
        rep = moments(s)
        dist = distribution_from_charfn(s)
        assert dist.mean() == pytest.approx(rep.mean, rel=1e-5)
        assert dist.second_moment() == pytest.approx(rep.second_moment, rel=1e-5)


class TestCrooks:
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_detailed_balance(self, beta):
        s = make_scenario(beta=beta)
        rows = crooks_check(s, np.linspace(0.1, 3.0, 20))
        assert all(r.ok for r in rows)
        assert max(abs(r.deviation) for r in rows) <= 1e-12
        for r in rows:
            assert r.beta_w == pytest.approx(beta * r.w, rel=1e-15)

    @pytest.mark.parametrize("mass", [0.2, 0.6, 1.0])
    def test_detailed_balance_at_any_mass(self, mass):
        # criterion 03's tolerance, on samples past the threshold |W| = m
        s = make_scenario(beta=1.0, mass=mass)
        rows = crooks_check(s, np.linspace(mass + 0.05, 3.0, 20))
        assert all(r.ok for r in rows)
        assert max(abs(r.deviation) for r in rows) <= 1e-10

    def test_underflow_samples_are_flagged_not_silently_wrong(self):
        s = make_scenario(beta=1.0)
        with pytest.warns(UserWarning):
            rows = crooks_check(s, [60.0])
        assert not rows[0].ok
        assert math.isnan(rows[0].deviation)

    def test_samples_in_the_mass_gap_are_excluded_with_their_own_warning(self):
        s = make_scenario(beta=1.0, mass=0.6)
        with pytest.warns(UserWarning) as caught:
            rows = crooks_check(s, [-0.3, 0.6, 1.0])
        assert [str(c.message) for c in caught] == [
            f"crooks_check: density 0 in the mass gap |W| <= m = 0.6 at W = {w}; sample excluded"
            for w in (-0.3, 0.6)
        ]
        assert [r.ok for r in rows] == [False, False, True]
        assert math.isnan(rows[0].deviation) and math.isnan(rows[1].log_ratio)

    def test_overflowing_samples_are_excluded(self):
        s = make_scenario(beta=1e-4, coupling=1e154)
        with np.errstate(over="ignore"), pytest.warns(UserWarning, match="density overflow"):
            rows = crooks_check(s, [0.5, 1.0])
        assert not any(r.ok for r in rows)
        assert all(math.isnan(r.deviation) for r in rows)

    def test_mixed_samples_match_the_per_sample_values(self):
        s = make_scenario(beta=1.0)
        w = [0.5, 60.0, 1.0]
        with pytest.warns(UserWarning) as caught:
            rows = crooks_check(s, w)
        assert [str(c.message) for c in caught] == [
            "crooks_check: density underflow at W = 60.0; sample excluded"
        ]
        assert [r.ok for r in rows] == [True, False, True]
        assert [math.isnan(r.log_ratio) for r in rows] == [False, True, False]
        assert math.isnan(rows[1].deviation) and rows[1].beta_w == 60.0
        for r in (rows[0], rows[2]):
            expected = math.log(work_density_analytic(s, r.w) / work_density_analytic(s, -r.w))
            assert r.log_ratio == pytest.approx(expected, rel=1e-15, abs=1e-15)
            assert r.deviation == pytest.approx(expected - r.w, rel=1e-15, abs=1e-15)


class TestLocalizationSweep:
    def _base(self):
        return make_scenario(beta=math.inf)

    def test_a_vanishing_mean_is_a_regime_error(self):
        # a switching of width 1e-200 has |chi~|^2 ~ s^2 below the least double:
        # the mean work underflows to 0
        with pytest.raises(RegimeError, match="mean work 0"):
            localization_sweep(self._base(), [(1e-200, SIGMA)])

    def test_variance_to_mean_grows_as_widths_shrink(self):
        pairs = [(c * SWITCH_WIDTH, c * SIGMA) for c in (1.0, 0.5, 0.25, 0.125)]
        rows = localization_sweep(self._base(), pairs)
        vom = [r.var_over_mean for r in rows]
        assert all(b > a for a, b in zip(vom, vom[1:]))
        assert vom[1] == pytest.approx(2.0 * vom[0], rel=1e-9)

    def test_std_to_mean_is_exactly_scale_invariant(self):
        # Under a joint rescaling of both widths by c the mean scales as 1/c
        # and the variance as 1/c^2, so std/mean does not change; the growth
        # of relative fluctuations under localization appears only in ratios
        # with a remaining scale, such as variance/mean.
        pairs = [(c * SWITCH_WIDTH, c * SIGMA) for c in (1.0, 0.25, 0.0625)]
        rows = localization_sweep(self._base(), pairs)
        som = [r.std_over_mean for r in rows]
        assert som[1] == pytest.approx(som[0], rel=1e-9)
        assert som[2] == pytest.approx(som[0], rel=1e-9)

    @pytest.mark.parametrize(
        "scales, trend",
        [
            (((1.0, 1.0), (0.5, 0.5), (0.25, 0.25)), 0),  # joint: ratio constant
            (((1.0, 1.0), (0.5, 1.0), (0.25, 1.0)), 1),  # switching only: ratio rises
            (((1.0, 1.0), (1.0, 0.5), (1.0, 0.25)), -1),  # smearing only: ratio falls
        ],
    )
    def test_moments_follow_the_closed_form_localization_law(self, scales, trend):
        # Vacuum, Gaussian profiles, a = s^2 + sigma^2:
        #   <W>   = lambda^2 s^2 / (8 sqrt(pi) a^{3/2})
        #   <W^2> = lambda^2 s^2 / (4 pi a^2)
        pairs = [(cs * SWITCH_WIDTH, cg * SIGMA) for cs, cg in scales]
        rows = localization_sweep(self._base(), pairs)
        for (s, sigma), row in zip(pairs, rows):
            a = s * s + sigma * sigma
            mean = LAM**2 * s**2 / (8.0 * math.sqrt(math.pi) * a**1.5)
            second = LAM**2 * s**2 / (4.0 * math.pi * a**2)
            ratio = 4.0 * math.sqrt(a) / (LAM * s) * math.sqrt(1.0 - LAM**2 * s**2 / (16.0 * a))
            assert row.mean == pytest.approx(mean, rel=1e-10)
            assert row.std**2 + row.mean**2 == pytest.approx(second, rel=1e-10)
            assert row.std_over_mean == pytest.approx(ratio, rel=1e-10)
        if trend:
            ratios = [r.std_over_mean for r in rows]
            assert all(trend * (y - x) > 0.0 for x, y in zip(ratios, ratios[1:]))

    def test_regime_guards(self):
        pairs = [(SWITCH_WIDTH, SIGMA)]
        with pytest.raises(RegimeError):
            localization_sweep(make_scenario(beta=1.0), pairs)
