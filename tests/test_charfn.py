"""Tests for the work characteristic functions.

The key oracle here is an independent Monte Carlo evaluation of the full 3D
momentum integral (no radial reduction), which checks the angular factor and
every 2-pi power in the analytic implementation.
"""

import math
import tracemalloc
import warnings
from dataclasses import astuple, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import fieldwork.charfn as charfn_module
from fieldwork import (
    ConvergenceError,
    FieldSpec,
    InvalidArgumentError,
    RegimeError,
    Scenario,
    SmearingProfile,
    SwitchingProfile,
    charfn_correction,
    charfn_delta_closed,
    charfn_delta_numeric,
    charfn_grid,
    charfn_kms,
    moments,
    sample_charfn,
    thermal_weight,
)
from fieldwork.charfn import (
    DEFAULT_MU_MAX,
    _TABLE_SIZE,
    _batch_exponent,
    _batch_k_grid,
    _bracket_integral,
    _radial_integrals,
    _spectral_weight,
)
from fieldwork.field_model import dispersion
from fieldwork.special_math import dawson

SWITCH_WIDTH = 1.0 / 12.0
SWITCH_CENTER = 0.5
SIGMA = 1.0
LAM = 0.01


def make_scenario(beta=1.0, coupling=LAM, switching=None):
    return Scenario(
        field=FieldSpec(mass=0.0, beta=beta, coupling=coupling),
        switching=switching
        or SwitchingProfile.gaussian(center=SWITCH_CENTER, width=SWITCH_WIDTH),
        smearing=SmearingProfile.gaussian_spherical(SIGMA),
    )


def delta_scenario(coupling=0.1):
    return Scenario(
        field=FieldSpec(mass=0.0, beta=math.inf, coupling=coupling),
        switching=SwitchingProfile.delta(),
        smearing=SmearingProfile.gaussian_spherical(SIGMA),
    )


def test_charfn_is_one_at_zero_exactly():
    for s in (make_scenario(1.0), make_scenario(math.inf), delta_scenario()):
        fn = charfn_delta_numeric if s.switching.is_delta else charfn_kms
        assert fn(s, 0.0) == 1.0 + 0.0j


def test_hermitian_symmetry():
    s = make_scenario(beta=1.0)
    for mu in (0.3, 1.0, 4.0, 17.0):
        assert charfn_kms(s, -mu) == pytest.approx(np.conj(charfn_kms(s, mu)), abs=1e-15)


def test_modulus_bounded_by_one():
    for s in (make_scenario(0.5), make_scenario(math.inf), delta_scenario(0.1)):
        fn = charfn_delta_numeric if s.switching.is_delta else charfn_kms
        for mu in np.linspace(-20.0, 20.0, 81):
            assert abs(fn(s, float(mu))) <= 1.0 + 1e-9


def test_real_part_at_most_one():
    s = make_scenario(beta=1.0)
    for mu in np.linspace(-10.0, 10.0, 41):
        assert charfn_kms(s, float(mu)).real <= 1.0 + 1e-15


def test_kms_crossing_relation():
    # P~(mu) = P~(-mu + i beta) for the time-reversal-symmetric process.
    beta = 1.0
    s = make_scenario(beta=beta)
    for mu in (0.2, 0.7, 1.5, 3.0):
        lhs = charfn_kms(s, mu)
        rhs = charfn_kms(s, -mu + 1j * beta)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_jarzynski_point_is_exactly_cancelled():
    for beta in (0.5, 1.0, 2.0):
        s = make_scenario(beta=beta)
        assert abs(charfn_kms(s, 1j * beta) - 1.0) <= 1e-14


def test_complex_mu_restricted_to_kms_strip():
    s = make_scenario(beta=1.0)
    with pytest.raises(InvalidArgumentError):
        charfn_kms(s, 1j * 2.0)
    with pytest.raises(InvalidArgumentError):
        charfn_kms(s, -0.5j)


def test_correction_consistent_with_charfn():
    s = make_scenario(beta=1.0)
    for mu in (0.5, 1.0, 5.0):
        assert 1.0 + charfn_correction(s, mu) == pytest.approx(
            charfn_kms(s, mu), abs=1e-16
        )


def test_correction_scales_with_coupling_squared():
    weak = make_scenario(beta=1.0, coupling=0.005)
    strong = make_scenario(beta=1.0, coupling=0.01)
    ratio = charfn_correction(strong, 1.0) / charfn_correction(weak, 1.0)
    assert ratio == pytest.approx(4.0, rel=1e-12)


def test_regime_guards():
    with pytest.raises(RegimeError):
        charfn_correction(delta_scenario(), 1.0)  # delta needs the exponentiated form
    with pytest.raises(RegimeError):
        charfn_delta_numeric(make_scenario(beta=1.0), 1.0)  # smooth switching
    thermal_delta = Scenario(
        field=FieldSpec(beta=1.0, coupling=0.1),
        switching=SwitchingProfile.delta(),
        smearing=SmearingProfile.gaussian_spherical(SIGMA),
    )
    with pytest.raises(RegimeError):
        charfn_delta_numeric(thermal_delta, 1.0)  # vacuum only


@pytest.mark.parametrize("mass", [0.0, 0.6])
def test_delta_numeric_on_the_vacuum_strip_matches_mpmath(mass):
    # the vacuum's KMS strip is Im mu >= 0; P~ = exp(lambda^2 Int a_F (e^{i mu w} - 1) dk)
    s = Scenario(
        field=FieldSpec(mass=mass, beta=math.inf, coupling=0.5),
        switching=SwitchingProfile.delta(),
        smearing=SmearingProfile.gaussian_spherical(SIGMA),
    )
    for mu in (0.5j, 3.0 + 0.5j, 17.0 + 2.0j, -4.0 + 0.1j):
        with mpmath.workdps(30):
            z = mpmath.mpc(mu)

            def f(k):
                w = mpmath.sqrt(k * k + mass**2)
                return k * k / w * mpmath.exp(-(SIGMA * k) ** 2) * mpmath.expm1(1j * z * w)

            pieces = mpmath.linspace(0, 12, 49)
            ref = complex(mpmath.exp(0.25 * mpmath.quad(f, pieces) / (4 * mpmath.pi**2)))
        assert abs(charfn_delta_numeric(s, mu) - ref) <= 1e-12 * abs(ref - 1.0)
    with pytest.raises(InvalidArgumentError):
        charfn_delta_numeric(s, -1e-6j)


def test_monte_carlo_oracle_full_3d_integral():
    """Independent 3D Monte Carlo estimate of P~(mu) - 1 at beta = 1, mu = 1.

    Samples k from the Gaussian envelope of |chi~|^2 |F~|^2 over R^3 and
    averages the remaining factor of the integrand of

        P~(mu) - 1 = lam^2 Int d^3k |chi~(w)|^2 |F~(k)|^2 / ((2 pi)^3 2 w)
                     * [coth(beta w / 2)(cos(mu w) - 1) + i sin(mu w)],

    checking both the angular reduction and the 2-pi bookkeeping.
    """
    beta, mu = 1.0, 1.0
    s = make_scenario(beta=beta)
    u = SWITCH_WIDTH**2 + SIGMA**2  # |chi~|^2 |F~|^2 = 2 pi s^2 e^{-u k^2}
    rng = np.random.default_rng(20240817)
    n = 2_000_000
    kvec = rng.normal(scale=1.0 / math.sqrt(2.0 * u), size=(n, 3))
    k = np.linalg.norm(kvec, axis=1)
    coth, _ = thermal_weight(k, beta)
    bracket = coth * (np.cos(mu * k) - 1.0) + 1j * np.sin(mu * k)
    # integrand / density, with the e^{-u k^2} envelope cancelled analytically
    density_norm = (u / math.pi) ** 1.5
    samples = (
        2.0 * math.pi * SWITCH_WIDTH**2
        / ((2.0 * math.pi) ** 3 * 2.0 * k)
        * bracket
        / density_norm
    )
    estimate = LAM**2 * samples.mean()
    stderr = LAM**2 * np.hypot(
        samples.real.std(ddof=1), samples.imag.std(ddof=1)
    ) / math.sqrt(n)
    exact = charfn_correction(s, mu)
    assert abs(estimate - exact) < 6.0 * stderr
    # and the Monte Carlo resolution itself is meaningful for this check
    assert stderr < 0.05 * abs(exact)


def test_delta_closed_form_constants():
    # mu -> infinity limit of the closed form is the atom weight
    # exp(-lam^2 / (8 pi^2 sigma^2)).
    lam, sigma = 0.1, 1.0
    limit = math.exp(-(lam**2) / (8.0 * math.pi**2 * sigma**2))
    assert charfn_delta_closed(lam, sigma, 1e7) == pytest.approx(limit, rel=1e-6)
    assert charfn_delta_closed(lam, sigma, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_delta_closed_form_takes_huge_mu_without_an_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = charfn_delta_closed(0.1, 1.0, [1e300, -1e300])
    assert np.all(np.isfinite(values))
    # the Gaussian factor e^{-(mu / 2 sigma)^2} is 0 there and just as 0 when formed directly
    mu = np.concatenate([np.linspace(-200.0, 200.0, 4001), [1e150, -1e155, 1e300]])
    x = mu / 2.0
    with np.errstate(over="ignore"):
        gauss = np.exp(-(x**2))
    i_mu = 0.5 - mu * dawson(x) / 2.0 + 1j * math.sqrt(math.pi) * mu * gauss / 4.0
    direct = np.exp((0.1 * 0.1 / (4.0 * math.pi**2)) * (i_mu - 0.5))
    assert np.array_equal(charfn_delta_closed(0.1, 1.0, mu), direct)


def test_delta_closed_matches_numeric():
    s = delta_scenario(coupling=0.1)
    for mu in np.linspace(-10.0, 10.0, 41):
        closed = charfn_delta_closed(0.1, SIGMA, float(mu))
        numeric = charfn_delta_numeric(s, float(mu))
        assert abs(closed - numeric) <= 1e-10


def test_sample_charfn_matches_pointwise_quadrature():
    for s in (make_scenario(beta=1.0), make_scenario(beta=math.inf), delta_scenario()):
        fn = charfn_delta_numeric if s.switching.is_delta else charfn_kms
        mu = np.linspace(-30.0, 30.0, 13)
        batch = sample_charfn(s, mu)
        pointwise = np.array([fn(s, float(m)) for m in mu])
        assert np.max(np.abs(batch - pointwise)) < 1e-10


def test_charfn_grid_layout_and_symmetry():
    # the grid holds mu = 0 .. mu_max, the half of the 512-point DFT grid; the
    # other half is P~(-mu) = conj P~(mu), which invert_charfn takes as given
    s = make_scenario(beta=1.0)
    grid = charfn_grid(s, mu_points=512, mu_max=256.0)
    assert np.array_equal(grid.mu, np.append(np.arange(256) * 1.0, 256.0))
    assert grid.values[0] == 1.0 + 0.0j
    mirror = sample_charfn(s, -grid.mu)
    assert np.max(np.abs(mirror - np.conj(grid.values))) < 1e-12


def _massive_scenario(mass=0.6):
    return Scenario(
        field=FieldSpec(mass=mass, beta=1.0, coupling=LAM),
        switching=SwitchingProfile.gaussian(center=SWITCH_CENTER, width=SWITCH_WIDTH),
        smearing=SmearingProfile.gaussian_spherical(SIGMA),
    )


_DFT_HALF = np.append(np.arange(2**13) * (2.0 * 1536.0 / 2**14), 1536.0)  # charfn_grid's samples


@pytest.mark.parametrize(
    "mu",
    [np.linspace(-10.0, 10.0, 201), np.linspace(-3.0, 10.0, 131),
     0.05 + 0.1 * np.arange(100), _DFT_HALF, np.linspace(10.0, -3.0, 131),
     np.linspace(-10.0, 10.0, 2**17 + 1), 3.0 + 1e-5 * np.arange(201)],
    ids=["symmetric", "asymmetric", "zero-free", "dft-half", "descending", "two-classes",
         "fine"],
)
def test_uniform_grid_matches_the_per_point_sum(mu):
    """A uniform grid takes the folded DFT for a massless thermal field and the
    non-uniform FFT for a massive one; the same points shuffled are not
    uniform and take the direct sum.  The vacuum and delta take their closed
    form on both.  The descending grid has dmu < 0.  On the 2^17-point window
    the period at beta = 40 is about 1.5e6 steps dmu, more than _TABLE_SIZE,
    so one DFT would pass 2^20 points and the grid takes the non-uniform FFT.
    On the fine window the period is about 400 times more steps dmu than the
    direct sum has entries, and a massless field takes the non-uniform FFT."""
    order = np.random.default_rng(7).permutation(mu.size)
    if mu.size > 2**14:  # 250 points of the 2^17-point window
        order = order[:250]
    for s in (make_scenario(1.0), make_scenario(40.0), make_scenario(math.inf),
              delta_scenario(1.0), _massive_scenario()):
        grid = sample_charfn(s, mu)
        scale = np.max(np.abs(grid - 1.0))
        assert np.max(np.abs(grid[order] - sample_charfn(s, mu[order]))) <= 1e-13 * scale
        if 0.0 in mu:
            assert grid[mu == 0.0][0] == 1.0 + 0.0j
        if mu[0] == -mu[-1]:
            assert np.max(np.abs(grid[::-1] - np.conj(grid))) <= 1e-13 * scale


def _long_double_exponent(s, mu):
    """_batch_exponent's trapezoid sum over the same k nodes and weights, in long
    double: -2 Sum a_coth sin^2(mu w / 2) + i Sum a_trap sin(mu w), whose real
    part keeps its relative precision where mu w is small."""
    k = _batch_k_grid(s, float(np.max(np.abs(mu))))[0]
    w = dispersion(k[1:], s.field.mass)
    trap = np.full(w.size, k[1] - k[0])
    trap[-1] *= 0.5
    a_trap = _spectral_weight(s, k[1:], w) * trap
    a_coth = a_trap * thermal_weight(w, s.field.beta)[0]
    theta = np.multiply.outer(np.asarray(mu, dtype=np.longdouble), w.astype(np.longdouble))
    re = -2 * np.sin(theta / 2) ** 2 @ a_coth.astype(np.longdouble)
    im = np.sin(theta) @ a_trap.astype(np.longdouble)
    return re.astype(float) + 1j * im.astype(float)


def test_direct_sum_keeps_its_digits_on_a_narrow_window():
    # Sum a cos(mu w) - Sum a lost about 6e-13 of max |B| here to cancellation
    s = make_scenario(beta=1.0)
    mu = np.array([0.001, 0.0025, 0.004, 0.006])  # not uniform: the direct sum
    got = _batch_exponent(s, mu)
    ref = _long_double_exponent(s, mu)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "s", [make_scenario(beta=1.0), _massive_scenario(0.2)], ids=["massless", "massive"]
)
def test_a_narrow_uniform_window_takes_the_direct_sum(s):
    # the FFT sums, massless and massive, form Sum a cos(mu w) - Sum a, which
    # lost 1.5e-13 and 3.5e-13 of max |B| here
    mu = np.linspace(0.0015, 0.006, 4)
    ref = _long_double_exponent(s, mu)
    assert np.max(np.abs(_batch_exponent(s, mu) - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_wider_uniform_windows_keep_the_fft_sums(monkeypatch):
    # the direct sum serves windows |mu| <= 2 l, whatever the number of points:
    # the charfn command's 201 points and the pdf command's 2^14 keep the FFTs
    def direct_sum(*args):
        raise AssertionError("a wide uniform window took the direct sum")

    monkeypatch.setattr(charfn_module, "_phase_sums", direct_sum)
    for s in (make_scenario(1.0), make_scenario(math.inf), delta_scenario(), _massive_scenario()):
        sample_charfn(s, np.linspace(-10.0, 10.0, 201))
        charfn_grid(s)


@pytest.mark.parametrize("mass", [0.2, 0.6, 1.0])
@pytest.mark.parametrize(
    "mu",
    [_DFT_HALF, np.linspace(50.0, 60.0, 201), np.linspace(-60.0, 60.0, 241),
     -3.05 + 0.1 * np.arange(131)],
    ids=["dft-half", "offset", "through-zero", "straddle"],
)
def test_massive_grid_matches_a_long_double_sum(mass, mu, monkeypatch):
    # The independent check of the non-uniform FFT on charfn_grid's samples and
    # on windows either side of mu = 0.  The offset window puts the FFT's alias
    # images near mu = 0, where the sums are largest.  Its Fourier coefficients
    # come from real FFTs of the spread rows: 2 rows where the anchor mu_z is 0
    # (dft-half, through-zero), 4 where it is not (offset, straddle); coefficients
    # J = j - z of both signs on the through-zero and straddle windows.
    s = _massive_scenario(mass)
    nufft = charfn_module._nufft_sums
    rows = []

    def spy(w, a_coth, a_trap, grid, dmu):
        rows.append(2 if grid[np.argmin(np.abs(grid))] == 0.0 else 4)
        return nufft(w, a_coth, a_trap, grid, dmu)

    monkeypatch.setattr(charfn_module, "_nufft_sums", spy)
    got = _batch_exponent(s, mu)
    assert rows == [2 if 0.0 in mu else 4]
    rng = np.random.default_rng(2019)
    picks = np.union1d([1, 2, mu.size - 1], rng.choice(mu.size, min(mu.size, 250), replace=False))
    ref = _long_double_exponent(s, mu[picks])
    assert np.max(np.abs(got[picks] - ref)) <= 1.5e-14 * np.max(np.abs(got))


@st.composite
def _uniform_mu_grids(draw):
    """(kind, mu): a uniform grid of 4 to 600 points, increasing."""
    n = draw(st.integers(4, 600))
    dmu = draw(st.floats(1e-3, 2.0))
    kind = draw(st.sampled_from(["offset", "through-zero", "zero-free", "negative", "symmetric"]))
    steps = np.arange(n, dtype=float)
    if kind == "offset":
        mu = draw(st.floats(-60.0, 60.0)) + steps * dmu
    elif kind == "through-zero":
        mu = (steps - draw(st.integers(0, n - 1))) * dmu
    elif kind == "zero-free":
        mu = draw(st.floats(1e-3, 60.0)) + steps * dmu
    elif kind == "negative":
        mu = -(draw(st.floats(1e-3, 60.0)) + steps[::-1] * dmu)
    else:
        mu = (steps - (n - 1) / 2) * dmu  # mu[i] == -mu[-1 - i] exactly
    return kind, mu


_SCALE_MU = np.linspace(-50.0, 50.0, 101)
_PROPERTY_STATES = {"thermal": make_scenario(1.0), "vacuum": make_scenario(math.inf),
                    "delta": delta_scenario(1.0), "massive": _massive_scenario()}


@seed(20191018)
@settings(max_examples=40, deadline=None, database=None)
@given(_uniform_mu_grids(), st.sampled_from(sorted(_PROPERTY_STATES)),
       st.randoms(use_true_random=False))
def test_uniform_grid_properties(grid_case, state, rng):
    """Any uniform grid, whichever sum it takes, agrees with the same points
    shuffled (one trig row each), is 1 at mu = 0 exactly, is Hermitian on a
    symmetric grid and stays in the unit disc at the reference couplings.

    The sums are compared on the exponent B of P~ = 1 + lambda^2 B (of
    P~ = exp(lambda^2 B) for delta), relative to max |B| over the grid and
    over |mu| <= 50.  P~ itself would not do: near mu = 0, 1e-13 of |P~ - 1|
    is below one ulp of P~.  Nor would the grid alone: a window wider than
    |mu| <= 2 l that stays near mu = 0 takes the folded DFT or non-uniform FFT,
    which lose digits to the cancellation Sum a cos(mu k) - Sum a.
    """
    kind, mu = grid_case
    s = _PROPERTY_STATES[state]
    order = np.array(rng.sample(range(mu.size), mu.size))
    grid = _batch_exponent(s, mu)
    per_point = np.empty_like(grid)
    per_point[order] = _batch_exponent(s, mu[order])
    scale = max(np.max(np.abs(grid)), np.max(np.abs(_batch_exponent(s, _SCALE_MU))))
    assert np.max(np.abs(grid - per_point)) <= 1e-13 * scale
    if kind == "symmetric":
        assert np.max(np.abs(grid[::-1] - np.conj(grid))) <= 1e-13 * scale
    values = sample_charfn(s, mu)
    assert np.all(values[mu == 0.0] == 1.0 + 0.0j)
    assert np.all(np.abs(values) <= 1.0)


def test_sample_charfn_rejects_non_finite_mu():
    s = make_scenario(beta=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError):
            sample_charfn(s, [0.0, bad, 1.0])


def _tiny_widths(s):
    """s with both widths (sigma alone for delta) at 1e-160."""
    tiny = replace(s, smearing=SmearingProfile.gaussian_spherical(1e-160))
    if s.switching.is_delta:
        return tiny
    return replace(tiny, switching=SwitchingProfile.gaussian(center=0.0, width=1e-160))


def test_sample_charfn_reports_a_non_finite_spectral_weight():
    # widths of 1e-160 put the cutoff 7 / sqrt(s^2 + sigma^2) above 1e160; from
    # about 1e155 on, k^2 in the spectral weight overflows
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="not finite"):
        sample_charfn(_tiny_widths(make_scenario(1.0)), np.linspace(-10.0, 10.0, 21))


def test_tiny_widths_take_the_closed_form_without_a_k_grid():
    # the vacuum takes no k grid: its exponent is A0 / 2 l^2 i sqrt(pi) z w(z),
    # z = mu / 2 l, with A0 / 2 l^2 = (s / l)^2 / 4 pi = 1 / 8 pi at s = sigma.
    # At |z| >= 3.5e158 (mu != 0), i sqrt(pi) z w(z) = -1 - 1 / 2 z^2 + ... is -1
    mu = np.linspace(-10.0, 10.0, 21)
    got = sample_charfn(_tiny_widths(make_scenario(math.inf)), mu)
    ref = np.where(mu == 0.0, 1.0, 1.0 - LAM**2 / (8.0 * math.pi))
    assert np.max(np.abs(got - ref)) <= 1e-16
    # delta: lambda^2 / 8 pi^2 sigma^2 overflows
    for evaluate in (sample_charfn, charfn_delta_numeric):
        with pytest.raises(RegimeError, match="lambda\\^2 B is not finite"):
            evaluate(_tiny_widths(delta_scenario()), mu if evaluate is sample_charfn else 1.0)


def test_an_infinite_z_takes_the_limit_of_the_vacuum_exponent():
    # at widths of 1e-300, z = mu / 2 l is not finite at |mu| = 1e10: the exponent
    # is its limit -A0 / 2 l^2 = -1 / 8 pi, not nan; mu = 0 stays exactly 0
    s = replace(make_scenario(math.inf), smearing=SmearingProfile.gaussian_spherical(1e-300),
                switching=SwitchingProfile.gaussian(center=0.0, width=1e-300))
    mu = np.array([-1e10, 0.0, 1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _batch_exponent(s, mu)
        ref = np.array([-1.0, 0.0, -1.0]) / (8.0 * math.pi)
        assert got[1] == 0.0 and np.max(np.abs(got - ref)) <= 1e-15 / (8.0 * math.pi)
        assert charfn_correction(s, 1e10) == pytest.approx(LAM**2 * ref[0], rel=1e-15)
        # the closed form, where k^2 of a sinh-node integral overflows
        p = LAM * LAM * _radial_integrals(s, [0])[0]
        assert p == pytest.approx(LAM**2 / (8.0 * math.pi), rel=1e-15)


def test_overflowing_second_order_term_is_a_regime_error():
    # a hot state (coth ~ 2 / (beta w)) makes B of order 1e3, and 1e154^2 B overflows
    s = make_scenario(beta=1e-3, coupling=1e154)
    with pytest.raises(RegimeError, match="lambda\\^2 B is not finite"):
        sample_charfn(s, np.linspace(-10.0, 10.0, 21))
    with pytest.raises(RegimeError, match="lambda\\^2 B is not finite"):
        charfn_correction(s, 5.0)


def test_delta_closed_form_rejects_a_sigma_whose_cube_is_not_a_double():
    mu = np.linspace(-5.0, 5.0, 11)
    for sigma in (0.0, -1.0, math.nan, math.inf, 1e-120, 1e-217, 1e103, 1e201):
        with pytest.raises(InvalidArgumentError, match="sigma"):
            charfn_delta_closed(0.1, sigma, mu)
    for sigma in (1e-100, 1e100):
        assert np.all(np.isfinite(charfn_delta_closed(0.1, sigma, mu)))


def test_delta_grid_matches_the_dawson_form():
    # The W = 0 kink of the delta density makes P~ decay as 1/mu^2, which the
    # images of a k grid alias; the closed form has none: every sample is at
    # round-off.
    s = delta_scenario(coupling=1.0)
    grid = charfn_grid(s)
    err = np.abs(grid.values - charfn_delta_closed(1.0, SIGMA, grid.mu))
    assert np.max(err) <= 1e-13
    assert np.max(err[np.abs(grid.mu) <= 10.0]) <= 1e-13


def _dawson_exponent(s, mu):
    """A0 Int_0^inf k e^{-l^2 k^2} (e^{i mu k} - 1) dk, the exponent of a massless
    vacuum or delta weight A0 k e^{-l^2 k^2}, by the Dawson form (x = mu / 2 l)."""
    sigma = s.smearing.sigma
    if s.switching.is_delta:
        a0, length = 1.0 / (4.0 * math.pi**2), sigma
    else:
        width = s.switching.width
        a0, length = width**2 / (2.0 * math.pi), math.hypot(width, sigma)
    x = np.asarray(mu) / (2.0 * length)
    return a0 * x / length**2 * (-dawson(x) + 0.5j * math.sqrt(math.pi) * np.exp(-x * x))


@pytest.mark.parametrize("window", [10.0, 1536.0, 20000.0])
@pytest.mark.parametrize(
    "width, sigma",
    [(SWITCH_WIDTH, SIGMA), (1.0 / 96.0, 1.0 / 8.0), (None, 1.0), (None, 1.0 / 8.0)],
    ids=["vacuum", "vacuum-narrow", "delta", "delta-narrow"],
)
def test_kink_exponents_match_the_dawson_form(width, sigma, window):
    # both paths take the closed form in the Faddeeva function; the Dawson form
    # is an independent writing of it for real mu
    switching = SwitchingProfile.delta() if width is None else SwitchingProfile.gaussian(0.5, width)
    s = Scenario(field=FieldSpec(mass=0.0, beta=math.inf, coupling=LAM), switching=switching,
                 smearing=SmearingProfile.gaussian_spherical(sigma))
    mu = np.linspace(-window, window, 201)
    ref = _dawson_exponent(s, mu)
    assert np.max(np.abs(_batch_exponent(s, mu) - ref)) <= 1e-13 * np.max(np.abs(ref))
    for point in (0.3 * window, 0.77 * window, window):
        ref = _dawson_exponent(s, point)
        assert abs(_bracket_integral(s, complex(point)) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("window", [10.0, 1536.0, 20000.0])
def test_thermal_sine_sums_match_the_vacuum_closed_form(window):
    # Im B = Int a(k) sin(mu k) dk does not depend on beta, so the thermal sine
    # sums, on the folded DFT and on the pointwise k grid, are the vacuum's
    thermal, vacuum = make_scenario(1.0), make_scenario(math.inf)
    mu = np.linspace(-window, window, 201)
    ref = _dawson_exponent(vacuum, mu)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(_batch_exponent(thermal, mu).imag - ref.imag)) <= 1e-13 * scale
    for point in (0.3 * window, 0.77 * window, window):  # |mu| > 2 l: the k grid
        got = _bracket_integral(thermal, complex(point)).imag
        assert abs(got - _dawson_exponent(vacuum, point).imag) <= 1e-13 * scale


def _mp_vacuum_exponent(a0, length, mu):
    """A0 Int_0^inf k e^{-l^2 k^2} (e^{i mu k} - 1) dk at 30 digits, by quadrature."""
    with mpmath.workdps(30):
        a0, length, mu = mpmath.mpf(a0), mpmath.mpf(length), mpmath.mpc(mu)

        def f(k):
            return a0 * k * mpmath.exp(-length * length * k * k) * mpmath.expm1(1j * mu * k)

        cells = int(abs(mu.real)) + 8  # pieces of about one period of e^{i Re(mu) k}
        return complex(mpmath.quad(f, mpmath.linspace(0, 12 / length, cells)))


@pytest.mark.parametrize("mu", [0.3 + 0.1j, 5 + 3j, 30 + 0.5j, 1 + 50j, 2j, 1e-3 * (1 + 1j)])
def test_complex_vacuum_and_delta_exponents_match_mpmath(mu):
    vacuum, delta = make_scenario(math.inf), delta_scenario()
    length = math.hypot(SWITCH_WIDTH, SIGMA)
    ref = _mp_vacuum_exponent(SWITCH_WIDTH**2 / (2.0 * math.pi), length, mu)
    assert abs(_bracket_integral(vacuum, mu) - ref) <= 1e-13 * abs(ref)
    ref = _mp_vacuum_exponent(1.0 / (4.0 * math.pi**2), SIGMA, mu)
    assert abs(_bracket_integral(delta, mu) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("mu", [1000.0, 3000.0])
def test_pointwise_integrals_converge_at_large_mu(mu):
    # The vacuum exponent is B(mu) = 2 pi s^2 log P~_delta(mu; lambda = 1, l), l^2 =
    # s^2 + sigma^2, by the Dawson closed form; adaptive quadrature gave up above
    # |mu| = 440 (vacuum) and 370 (delta)
    s = make_scenario(beta=math.inf)
    length = math.hypot(SWITCH_WIDTH, SIGMA)
    ref = 2.0 * math.pi * SWITCH_WIDTH**2 * np.log(charfn_delta_closed(1.0, length, mu))
    got = charfn_correction(s, mu) / LAM**2
    assert abs(got - ref) <= 1e-13 * abs(ref)
    d = delta_scenario()
    assert abs(charfn_delta_numeric(d, mu) - charfn_delta_closed(0.1, SIGMA, mu)) <= 1e-13


@pytest.mark.parametrize("mu", [5000j, 1.0 + 9000j])
def test_kms_strip_at_low_temperature_matches_mpmath(mu):
    # At beta = 1e4 the poles of coth(beta w / 2) at k = +-2 pi i n / beta sit
    # 6e-4 from the real axis.  A uniform k grid of the vacuum's step aliases
    # them: it missed its tolerance at 0.5 i beta and was 1e-8 off at
    # 3 + 0.9 i beta.  The sinh nodes serve |Re mu| <= 2 l; beyond, the k step
    # follows the poles (see test_exponent_matches_mpmath_on_both_paths).
    beta = 1e4
    with mpmath.workdps(25):
        s, sigma, z = mpmath.mpf(SWITCH_WIDTH), mpmath.mpf(SIGMA), mpmath.mpc(mu)

        def f(k):
            a = k * s * s * mpmath.exp(-(s * s + sigma * sigma) * k * k) / (2 * mpmath.pi)
            n = 1 / mpmath.expm1(beta * k)
            return a * ((1 + n) * mpmath.expm1(1j * z * k) + n * mpmath.expm1(-1j * z * k))

        ref = complex(LAM**2 * mpmath.quad(f, [0, 2 * math.pi / beta, 1e-2, 0.1, 1, 3, 7, 12]))
    assert abs(charfn_correction(make_scenario(beta=beta), mu) - ref) <= 1e-13 * abs(ref)


def _mp_points(kappa, end, piece):
    """Breakpoints of [0, end] for mpmath.quad: geometric ones from kappa / 16 on
    (a singularity at distance kappa from 0), then equal pieces of at most ``piece``."""
    points = [mpmath.mpf(0)]
    x = kappa / 16
    while 0 < x < min(end, piece):
        points.append(x)
        x *= 4
    n = int(mpmath.ceil((end - points[-1]) / piece))
    return points + [points[-1] + (end - points[-1]) * i / n for i in range(1, n + 1)]


def _mp_exponents(mass, beta, width, sigma, mus):
    """Int a(k) bracket(mu, w_k) dk at 30 digits for each mu in ``mus``.

    Re B = Re Int a coth e^{i mu w} dk - Int a coth dk and Im B = Im Int a e^{i mu w} dk.
    a, coth(beta w/2) and w_k are analytic in the sector 0 <= arg k <= pi / 6, whose
    singularities lie on the imaginary axis, and the Gaussian decays there, so the
    two phase integrals are taken on the ray k = t e^{i pi/6}, where e^{i mu w}
    decays and hardly oscillates.
    """
    with mpmath.workdps(30):
        m2, s, sg = mpmath.mpf(mass) ** 2, mpmath.mpf(width), mpmath.mpf(sigma)
        l2 = s * s + sg * sg
        c = s * s * mpmath.exp(-s * s * m2) / (2 * mpmath.pi)  # a = c k^2 e^{-l^2 k^2} / w
        thermal = math.isfinite(beta)
        kappa = mpmath.sqrt(m2) if mass else (2 * mpmath.pi / beta if thermal else 0)

        def coth(w):
            q = mpmath.exp(-beta * w) if thermal else 0
            return (1 + q) / (1 - q)

        def real_axis(k):
            w = mpmath.sqrt(k * k + m2)
            return c * k * k * mpmath.exp(-l2 * k * k) / w * coth(w)

        level = mpmath.quad(real_axis, _mp_points(kappa, 13 / mpmath.sqrt(l2), 2 / mpmath.sqrt(l2)))
        rot = mpmath.expjpi(mpmath.mpf(1) / 6)
        out = []
        for mu in map(mpmath.mpf, mus):

            def ray(t):
                k2 = (t * rot) ** 2
                w = mpmath.sqrt(k2 + m2)
                e = c * rot * k2 * mpmath.exp(1j * mu * w - l2 * k2) / w
                return mpmath.mpc(mpmath.re(e * coth(w)), mpmath.im(e))

            # |e^{i mu w} e^{-l^2 k^2}| is about e^{-(mu t + l^2 t^2) / 2} on the ray
            end = (mpmath.sqrt(mu * mu + 240 * l2) - mu) / l2
            phase = mpmath.quad(ray, _mp_points(kappa, end, min(6 * mpmath.pi / mu, 1 / mpmath.sqrt(l2))))
            out.append(complex(mpmath.re(phase) - level, mpmath.im(phase)))
        return np.array(out)


@pytest.mark.parametrize(
    "mass, beta, width, sigma",
    [(mass, beta, width, sigma)
     for width, sigma in [(SWITCH_WIDTH, SIGMA), (1.0 / 96.0, 1.0 / 8.0)]
     for mass, beta in [(0.0, 0.1), (0.0, 0.5), (0.0, 2.0), (0.0, 100.0)]
     + [(m, b) for m in (0.05, 0.2, 1.0, 3.0) for b in (1.0, math.inf)]]
    # a fixed margin of 4000 l aliased the coth poles at beta = 1e4 (1.1e-12 at
    # mu = 5, 7.5e-11 at mu = 40) and the branch points at m = 3e-3 (5e-13)
    + [(0.0, 1e4, SWITCH_WIDTH, SIGMA), (1e-3, 1.0, SWITCH_WIDTH, SIGMA),
       (3e-3, 1.0, 0.125, 0.8), (3e-3, math.inf, 0.125, 0.8)]
    # past the node cap on the pointwise path (beta = 1e5) or on both paths,
    # where the period is the largest the cap allows
    + [(0.0, 1e5, SWITCH_WIDTH, SIGMA), (0.0, 1e6, SWITCH_WIDTH, SIGMA),
       (1e-7, 1.0, SWITCH_WIDTH, SIGMA), (1e-7, math.inf, SWITCH_WIDTH, SIGMA)],
)
def test_exponent_matches_mpmath_on_both_paths(mass, beta, width, sigma):
    # the k step follows the nearest singularity of the integrand, at k = +-i m
    # (massive) or +-2 pi i / beta (massless thermal)
    s = Scenario(
        field=FieldSpec(mass=mass, beta=beta, coupling=LAM),
        switching=SwitchingProfile.gaussian(center=SWITCH_CENTER, width=width),
        smearing=SmearingProfile.gaussian_spherical(sigma),
    )
    mus = (5.0, 17.0, 40.0)
    ref = _mp_exponents(mass, beta, width, sigma, mus)
    grid = _batch_exponent(s, np.array(mus))
    pointwise = np.array([charfn_correction(s, mu) for mu in mus]) / LAM**2
    for got in (grid, pointwise):
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("beta", [1e5, 1e6])
def test_a_grid_past_one_dft_matches_mpmath(beta):
    # the charfn command's 201 points at a period of 5e6 (beta = 1e5) or, capped,
    # 9e5 (beta = 1e6) steps dmu: one DFT would pass 2^20 points, so the grid
    # takes the non-uniform FFT.  Exponents, not 1 + lambda^2 B, are compared:
    # rounding against the 1 would hide the digits.
    mu = np.linspace(-10.0, 10.0, 201)
    at = [70, 150, 170]  # mu = -3, 5, 7; B(-mu) = conj B(mu)
    ref = _mp_exponents(0.0, beta, SWITCH_WIDTH, SIGMA, np.abs(mu[at]))
    ref[0] = np.conj(ref[0])
    got = _batch_exponent(make_scenario(beta=beta), mu)[at]
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("mass, beta", [(0.0, 1.0), (0.0, 1e6), (1e-7, 1.0)])
def test_past_the_node_cap_a_wide_mu_window_is_an_invalid_argument(mass, beta):
    # the period is never below |mu| + 200 l, whatever the nearest singularity
    s = replace(make_scenario(beta=beta), field=FieldSpec(mass=mass, beta=beta, coupling=LAM))
    with pytest.raises(InvalidArgumentError, match=r"lower \|mu\|"):
        charfn_correction(s, 2e6)


@pytest.mark.parametrize("case", ["direct sum", "non-uniform FFT"])
def test_memory_stays_flat_on_a_fine_k_grid(case):
    # a cold or light field takes 7e5 k nodes: the trig and spreading tables
    # hold _TABLE_SIZE entries at a time, not a row or 28 rows per node
    if case == "direct sum":
        s, mu_max = make_scenario(beta=1e5), 10.0
        run = lambda: sample_charfn(s, np.sort(np.random.default_rng(3).uniform(-10.0, 10.0, 16)))
    else:
        s, mu_max = _massive_scenario(5e-5), 1536.0
        run = lambda: charfn_grid(s)
    n_k = _batch_k_grid(s, mu_max)[0].size
    assert n_k > 5e5
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (3 * _TABLE_SIZE + 10 * n_k)


def test_sample_k_grid_follows_the_nearest_singularity():
    # the charfn command's 201-point window |mu| <= 10 and the pdf command's 2^14
    # grid |mu| <= 1536, at the reference widths, on the nodes their uniform
    # steps take; a massless vacuum or delta weight takes no k grid
    states = [make_scenario(beta) for beta in (0.5, 1.0, 2.0)] + [
        _massive_scenario(mass) for mass in (0.2, 0.6, 1.0)
    ]
    for s in states:
        assert _batch_k_grid(s, 10.0, 0.1)[0].size <= 256
        assert _batch_k_grid(s, DEFAULT_MU_MAX, _DFT_HALF[1])[0].size <= 2048


def test_grid_memory_at_the_node_cap():
    # beta = 1e6 takes the capped 2^20 k nodes, whose one DFT would pass 2^20
    # points: the non-uniform FFT spreads _TABLE_SIZE entries at a time, where
    # two residue classes of a folded DFT peaked at 93 MiB and a Bluestein
    # transform, with FFTs of length N_k + N_mu, at 136 MiB
    s = make_scenario(beta=1e6)
    tracemalloc.start()
    try:
        charfn_grid(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2**20


def test_grid_memory_stays_within_two_and_a_half_chunks():
    # thermal takes the folded DFT, massive the non-uniform FFT
    for s in (make_scenario(beta=1.0), _massive_scenario()):
        n_k = _batch_k_grid(s, 12288.0)[0].size
        tracemalloc.start()
        try:
            charfn_grid(s, mu_points=2**17, mu_max=12288.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 256 * n_k * 8  # 2.5 trig tables of 256 rows of a direct sum


@pytest.mark.parametrize("mass, beta", [(0.0, 1.0), (0.0, math.inf), (0.6, 1.0)],
                         ids=["thermal", "vacuum", "massive"])
def test_results_do_not_depend_on_the_switching_center(mass, beta):
    # the state is stationary, so only |chi~(w)|^2 enters and the center is a phase
    early, late = (
        Scenario(
            field=FieldSpec(mass=mass, beta=beta, coupling=LAM),
            switching=SwitchingProfile.gaussian(center=center, width=SWITCH_WIDTH),
            smearing=SmearingProfile.gaussian_spherical(SIGMA),
        )
        for center in (0.5, 7.0)
    )
    mu = np.linspace(-10.0, 10.0, 201)
    for f in (
        lambda s: charfn_correction(s, 17.0),
        lambda s: sample_charfn(s, mu) - 1.0,
        lambda s: np.array(astuple(moments(s))),
    ):
        np.testing.assert_allclose(f(late), f(early), rtol=1e-13, atol=0.0)
