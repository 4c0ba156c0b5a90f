"""Oracle tests for the special functions, quadrature wrapper, and inversion."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate

import fieldwork.charfn
import fieldwork.special_math
from fieldwork import (
    CharFnGrid,
    ConvergenceError,
    FieldSpec,
    InvalidArgumentError,
    Scenario,
    SmearingProfile,
    SwitchingProfile,
    charfn_kms,
    invert_charfn,
)
from fieldwork.special_math import dawson, integrate_radial

# Dawson integral reference values computed from the defining integral
# D(x) = e^{-x^2} Int_0^x e^{y^2} dy with 50-digit arithmetic (mpmath).
_DAWSON_REFERENCE = {
    0.1: 0.099335992397852866590618712384009171488072278417721,
    0.5: 0.42443638350202229593404235248966957109642947735969,
    1.0: 0.53807950691276841913638742040755675479197500175393,
    2.0: 0.30134038892379196603466443928642269521191533840425,
    5.0: 0.10213407442427683543855100704927174628858027601985,
    10.0: 0.05025384718759852803274841986071548588790675028321,
}


def test_dawson_against_defining_integral():
    for x, ref in _DAWSON_REFERENCE.items():
        # Independent check of the table itself via adaptive quadrature.
        inner, _ = scipy.integrate.quad(lambda y: math.exp(y * y - x * x), 0.0, x)
        assert inner == pytest.approx(ref, rel=1e-9)
        assert dawson(x) == pytest.approx(ref, rel=5e-14, abs=1e-15)
        assert dawson(-x) == pytest.approx(-ref, rel=5e-14, abs=1e-15)


def test_dawson_matches_mpmath_to_machine_precision():
    # x = 6.0: a truncated asymptotic expansion of D(x) loses the most digits near there
    x = np.append(np.linspace(0.01, 50.0, 500), 6.0)
    with mpmath.workdps(50):
        ref = np.array(
            [float(mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-(v * v)) * mpmath.erfi(v))
             for v in map(mpmath.mpf, x)]
        )
    assert np.max(np.abs(dawson(x) / ref - 1.0)) <= 1e-14
    assert np.array_equal(dawson(-x), -dawson(x))


def test_dawson_small_argument_series_limit():
    # D(x) = x - 2x^3/3 + 4x^5/15 + O(x^7)
    for x in (1e-8, 1e-4, 1e-2):
        series = x - 2.0 * x**3 / 3.0 + 4.0 * x**5 / 15.0
        assert dawson(x) == pytest.approx(series, rel=1e-12)
    assert dawson(0.0) == 0.0


def test_dawson_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        dawson(math.nan)
    with pytest.raises(InvalidArgumentError):
        dawson(math.inf)


def _mp_faddeeva(z):
    """w(z) = e^{-z^2} erfc(-iz) at 30 digits."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        return complex(mpmath.exp(-z * z) * mpmath.erfc(-1j * z))


_RADIUS = fieldwork.special_math._FADDEEVA_RADIUS
# |z| over 14 decades, and on both sides of the switch from Weideman's series to
# the asymptotic one
_MODULI = np.concatenate(
    [np.logspace(-8.0, 6.0, 29), _RADIUS * (1.0 + np.array([-1e-15, 0.0, 1e-15, -0.05, 0.05]))]
)


def test_faddeeva_matches_mpmath_in_the_upper_half_plane():
    faddeeva = fieldwork.special_math._faddeeva
    z = np.array([r * complex(math.cos(t), math.sin(t))
                  for r in _MODULI for t in np.linspace(0.0, math.pi, 13)])
    # Im z = -1e-12, the tolerance of the KMS strip, on both paths too
    z = np.concatenate([z, np.concatenate([-_MODULI, _MODULI]) - 1e-12j])
    ref = np.array([_mp_faddeeva(v) for v in z])
    lone = np.array([faddeeva(complex(v)) for v in z])
    assert np.max(np.abs(lone - ref) / np.abs(ref)) <= 2e-14
    # an array runs each entry in the scalar arithmetic of its lone evaluation
    assert np.array_equal(faddeeva(z), lone)
    assert np.array_equal(faddeeva(z.reshape(2, -1)), lone.reshape(2, -1))
    # the real axis in the Dawson form, vectorized
    x = np.concatenate([-_MODULI, [0.0], _MODULI])
    ref = np.array([_mp_faddeeva(v) for v in x])
    assert np.max(np.abs(faddeeva(x) - ref) / np.abs(ref)) <= 2e-14
    assert np.array_equal(faddeeva(x).real, np.exp(-np.minimum(np.abs(x), 64.0) ** 2))


def test_dawson_matches_mpmath_up_to_1e4():
    x = np.concatenate([np.logspace(-8.0, 4.0, 1201), _MODULI[_MODULI <= 1e4]])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-(v * v)) * mpmath.erfi(v))
                        for v in map(mpmath.mpf, x)])
    assert np.max(np.abs(dawson(x) / ref - 1.0)) <= 1e-14
    assert all(abs(dawson(float(v)) / r - 1.0) <= 1e-14 for v, r in zip(x[::50], ref[::50]))


def test_faddeeva_at_huge_and_infinite_arguments_warns_nothing():
    faddeeva = fieldwork.special_math._faddeeva
    huge = 1e308 * np.exp(1j * np.linspace(0.0, math.pi, 9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lone = [faddeeva(complex(v)) for v in huge]
        stacked = faddeeva(huge)
        real = faddeeva(np.array([1e308, -1e308, 1e300, math.inf, -math.inf]))
        at_inf = [faddeeva(complex(math.inf, 0.0)), faddeeva(np.array([math.inf + 0j]))[0]]
        assert dawson(1e308) == pytest.approx(0.5e-308, rel=1e-14)
    # w(z) ~ i / (sqrt(pi) z), a subnormal at |z| = 1e308, and its limit 0 at z = inf
    assert np.array_equal(stacked, lone)
    assert np.max(np.abs(stacked * huge * math.sqrt(math.pi) - 1j)) <= 1e-6
    assert np.all(np.isfinite(real)) and np.all(real[3:] == 0.0)
    assert at_inf == [0.0, 0.0]


@pytest.mark.parametrize("k_max", [-1.0, math.inf, math.nan])
def test_integrate_radial_rejects_a_bad_k_max(k_max):
    with pytest.raises(InvalidArgumentError, match="k_max"):
        integrate_radial(lambda k: np.exp(-k), k_max)


def test_integrate_radial_gaussian_moment():
    # Int_0^inf k^2 e^{-k^2} dk = sqrt(pi)/4
    value = integrate_radial(lambda k: k * k * np.exp(-k * k), 40.0)
    assert value == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-12)


def test_integrate_radial_reports_error_bound():
    # k^2 e^{-k^2} vanishes at 0 and is even there: the trapezoid rule converges
    # exponentially, and at step 0.25 the coarse rule T(0.5) has converged too
    value, bound = integrate_radial(
        lambda k: k * k * np.exp(-k * k), 10.0, step=0.25, return_error=True
    )
    assert value == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-14)
    assert 0.0 <= bound < 1e-14


@pytest.mark.parametrize(
    "f, step",
    [(lambda k: np.exp(-k), None),  # nonzero at k = 0
     (lambda k: k * np.exp(-k * k), None),  # a kink at k = 0 without its endpoint term
     (lambda k: k * k * np.exp(-k * k) * np.cos(50.0 * k), 0.075)],  # T(0.15) aliases 50
    ids=["nonzero-at-0", "kink", "under-resolved"],
)
def test_integrate_radial_convergence_failure_carries_estimate(f, step):
    # each integrand breaks the trapezoid contract, and T(h) - T(2h) shows it
    with pytest.raises(ConvergenceError, match="misses the tolerance") as excinfo:
        integrate_radial(f, 10.0, step=step)
    assert math.isfinite(excinfo.value.estimate)
    assert 0.0 < excinfo.value.error_bound < math.inf


@pytest.mark.parametrize("mu", [0.1, 5.0, 17.0, 40.0])
def test_integrate_radial_error_bound_covers_a_gaussian_closed_form(mu):
    # Int_0^inf k^2 e^{-k^2} cos(mu k) dk = (sqrt(pi) / 8) (2 - mu^2) e^{-mu^2 / 4};
    # the tail past 7 is e^{-49}.  The integrand is even at k = 0, so the rule
    # needs no endpoint term.  The step is the package's pointwise one, with
    # images beyond 2 mu + 200.
    value, bound = integrate_radial(
        lambda k: k * k * np.exp(-k * k) * np.cos(mu * k),
        7.0,
        step=2.0 * math.pi / (2.0 * mu + 200.0),
        return_error=True,
    )
    ref = math.sqrt(math.pi) / 8.0 * (2.0 - mu * mu) * math.exp(-mu * mu / 4.0)
    assert abs(value - ref) <= max(bound, 2e-16)
    assert bound <= fieldwork.special_math._TOL


def test_integrate_radial_rejects_a_nan_integrand():
    with pytest.raises(ConvergenceError):
        integrate_radial(lambda k: np.where(k > 3.0, np.nan, 1.0), 10.0)


def _rows(k):
    """Integrands that meet the trapezoid contract: even at 0, decayed by k = 40."""
    gauss = k * k * np.exp(-k * k)
    return [gauss, gauss * np.cos(3.0 * k), k**4 * np.exp(-0.25 * k * k), 1e-30 * gauss]


@pytest.mark.parametrize("k_max, step", [(40.0, None), (12.0, 0.0625), (40.0, 0.0081)])
def test_stacked_integrate_radial_rows_equal_their_one_dimensional_calls(k_max, step):
    # each row is summed along its own axis, so it agrees with its 1-D call bit for bit
    values, bounds = integrate_radial(
        lambda k: np.array(_rows(k)), k_max, step=step, return_error=True
    )
    assert isinstance(values, list) and len(values) == len(bounds) == 4
    for r in range(4):
        one = integrate_radial(lambda k: _rows(k)[r], k_max, step=step, return_error=True)
        assert (values[r], bounds[r]) == one
        assert all(type(x) is float for x in one)


def test_stacked_integrate_radial_endpoint_applies_per_row():
    # e^{-k^2} and 2 e^{-k^2} are even but not 0 at k = 0: the rule misses the
    # half nodes h f(0) / 2, passed per row
    f0 = np.array([1.0, 2.0, 0.0])
    values = integrate_radial(
        lambda k: np.array([np.exp(-k * k), 2.0 * np.exp(-k * k), k * k * np.exp(-k * k)]),
        12.0, step=0.05, endpoint=lambda h: 0.5 * h * f0,
    )
    one = integrate_radial(lambda k: np.exp(-k * k), 12.0, step=0.05, endpoint=lambda h: 0.5 * h)
    assert values[0] == one == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)
    assert values[1] == 2.0 * one
    assert values[2] == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-14)


def test_stacked_integrate_radial_raises_for_the_first_row_that_misses():
    # at step 0.3 the coarse rule T(0.6) misses e^{-k^2} by 6e-11, while the
    # wider e^{-k^2 / 4} has converged: the narrow rows alone fail
    def narrow(k):
        return k * k * np.exp(-k * k)

    def stack(k):
        return np.array([k * k * np.exp(-0.25 * k * k), narrow(k), 3.0 * narrow(k)])

    assert integrate_radial(lambda k: stack(k)[0], 12.0, step=0.3) > 0.0
    with pytest.raises(ConvergenceError, match="misses the tolerance") as one:
        integrate_radial(narrow, 12.0, step=0.3)
    with pytest.raises(ConvergenceError, match="misses the tolerance") as stacked:
        integrate_radial(stack, 12.0, step=0.3)
    assert stacked.value.estimate == one.value.estimate
    assert stacked.value.error_bound == one.value.error_bound > fieldwork.special_math._TOL


def test_stacked_integrate_radial_rejects_a_nan_in_one_row():
    def stack(k):
        return np.array([k * k * np.exp(-k * k), np.where(k > 3.0, np.nan, 0.0)])

    with pytest.raises(ConvergenceError, match="not finite"):
        integrate_radial(stack, 10.0)


def test_one_dimensional_integrate_radial_is_unchanged():
    # values pinned from the evaluator before stacks were accepted: plain floats
    value = integrate_radial(lambda k: k * k * np.exp(-k * k), 40.0)
    assert type(value) is float and value.hex() == "0x1.c5bf891b4ef6ap-2"
    value, bound = integrate_radial(
        lambda k: k * k * np.exp(-k * k), 12.0, step=0.25, return_error=True
    )
    assert (value.hex(), bound) == ("0x1.c5bf891b4ef6ap-2", 2.0**-51)


def test_charfn_kms_integrand_is_called_on_node_batches(monkeypatch):
    # one call per radial integral, on all of its nodes, never one per node
    s = Scenario(
        field=FieldSpec(mass=0.0, beta=1.0, coupling=0.01),
        switching=SwitchingProfile.gaussian(center=0.5, width=1.0 / 12.0),
        smearing=SmearingProfile.gaussian_spherical(1.0),
    )
    sizes = []

    def counting(f, k_max, **kwargs):
        def counted(k):
            assert isinstance(k, np.ndarray)
            sizes.append(k.size)
            return f(k)

        return integrate_radial(counted, k_max, **kwargs)

    monkeypatch.setattr(fieldwork.charfn, "integrate_radial", counting)
    charfn_kms(s, 40.0)
    assert 0 < len(sizes) <= 16
    assert min(sizes) >= 21


def _half_mu_grid(n, mu_max):
    """mu = 0 .. mu_max, the half of the n-point DFT grid in [-mu_max, mu_max)."""
    return np.arange(n // 2 + 1) * (2.0 * mu_max / n)


def test_charfn_grid_validation():
    mu = _half_mu_grid(16, 8.0)
    CharFnGrid(mu=mu, values=np.ones(9, dtype=complex))
    CharFnGrid(mu=mu[:5], values=np.ones(5, dtype=complex))  # any length >= 5
    with pytest.raises(InvalidArgumentError, match=">= 5"):
        CharFnGrid(mu=mu[:4], values=np.ones(4, dtype=complex))
    with pytest.raises(InvalidArgumentError, match="shape"):
        CharFnGrid(mu=mu, values=np.ones(8, dtype=complex))
    with pytest.raises(InvalidArgumentError, match="start at 0"):
        CharFnGrid(mu=mu + 1.0, values=np.ones(9, dtype=complex))
    bad = np.ones(9, dtype=complex)
    bad[0] = 0.5
    with pytest.raises(InvalidArgumentError, match="P~"):
        CharFnGrid(mu=mu, values=bad)
    with pytest.raises(InvalidArgumentError, match="uniform"):
        CharFnGrid(mu=mu**1.1, values=np.ones(9, dtype=complex))
    with pytest.raises(InvalidArgumentError, match="spacing"):
        CharFnGrid(mu=np.zeros(8), values=np.ones(8))  # zero spacing: no conjugate W grid
    with pytest.raises(InvalidArgumentError, match="spacing"):
        CharFnGrid(mu=-mu, values=np.ones(9))  # decreasing


def test_invert_constant_charfn_is_pure_atom():
    mu = _half_mu_grid(256, 64.0)
    grid = CharFnGrid(mu=mu, values=np.ones(mu.size, dtype=complex))
    dist = invert_charfn(grid, 1.0)
    n, dmu = 256, mu[1] - mu[0]
    assert np.array_equal(dist.w_grid, (np.arange(n) - n // 2) * (2.0 * math.pi / (n * dmu)))
    assert dist.atom_weight == 1.0
    assert np.max(np.abs(dist.density)) < 1e-14
    assert dist.metadata["mu_points"] == n and dist.metadata["mu_max"] == 64.0


def test_invert_pure_phase_is_shifted_peak():
    # P~(mu) = e^{i mu w0}: a distribution concentrated at W = w0, no atom.
    w0 = 1.0
    n, mu_max = 4096, 256.0
    mu = _half_mu_grid(n, mu_max)
    # Mollified to make the periodic inversion well-conditioned: a narrow
    # Gaussian at w0 instead of an exact delta.
    eps = 0.05
    values = np.exp(1j * mu * w0 - 0.5 * (eps * mu) ** 2)
    dist = invert_charfn(CharFnGrid(mu=mu, values=values), 0.0)
    w = dist.w_grid
    assert abs(w[np.argmax(dist.density)] - w0) <= 2.0 * (w[1] - w[0])
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-8)


def test_invert_then_forward_roundtrip():
    # Smooth test characteristic function: atom + Gaussian density component.
    n, mu_max = 4096, 256.0
    mu = _half_mu_grid(n, mu_max)
    atom = 0.7

    def charfn(m):
        return atom + 0.3 * np.exp(1j * m * 0.8 - 0.5 * (0.2 * m) ** 2)

    dist = invert_charfn(CharFnGrid(mu=mu, values=charfn(mu)), atom)
    w = dist.w_grid
    # Discrete forward transform of the output plus the atom contribution, on
    # both signs of mu: the half grid stands for the whole spectrum.
    probe = np.concatenate((-mu[1:][mu[1:] < 20.0][::-1], mu[mu < 20.0]))
    kernel = np.exp(1j * np.multiply.outer(probe, w))
    forward = dist.atom_weight + np.trapezoid(kernel * dist.density, w, axis=-1)
    assert np.max(np.abs(forward - charfn(probe))) < 1e-8


def test_invert_clamps_small_ringing_and_reports_diagnostics():
    n, mu_max = 4096, 256.0
    mu = _half_mu_grid(n, mu_max)
    values = 0.5 + 0.5 * np.exp(1j * mu * 0.8 - 0.5 * (0.2 * mu) ** 2)
    dist = invert_charfn(CharFnGrid(mu=mu, values=values), 0.5)
    assert np.all(dist.density >= 0.0)
    assert "clamped_points" in dist.metadata
    assert dist.metadata["negative_floor_violation"] is False
    # the density part has dephased by 0.9 mu_max: exp(-0.5 (0.2 * 230)^2) underflows;
    # a wrong atom leaves its error as a constant level of P~ - atom
    assert dist.metadata["window_residual"] == 0.0
    wrong = invert_charfn(CharFnGrid(mu=mu, values=values), 0.5 - 1e-3)
    assert wrong.metadata["window_residual"] == pytest.approx(1e-3, rel=1e-12)
