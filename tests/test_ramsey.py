"""Tests for the discrete-mode interferometric simulator."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fieldwork import (
    FieldSpec,
    InvalidArgumentError,
    ModeSet,
    QubitState,
    RegimeError,
    SmearingProfile,
    SwitchingProfile,
    charfn_delta_closed,
    continuum_convergence,
    first_order_qubit_correction,
    simulate_delta_ramsey,
    simulate_perturbative_ramsey,
    thermal_weight,
    tomography,
    smearing_ft,
    switching_ft,
)

SIGMA = 1.0
SMEARING = SmearingProfile.gaussian_spherical(SIGMA)
SWITCHING = SwitchingProfile.gaussian(center=0.5, width=1.0 / 12.0)
TWO_PI_CUBED = (2.0 * math.pi) ** 3


def discrete_coupling_weights(modes):
    """w_j = |F~(k_j)|^2 d3k_j / ((2 pi)^3 2 w_j) -- shared by both oracles."""
    k = np.asarray(modes.ks)
    w = np.asarray(modes.omegas)
    vol = np.asarray(modes.weights)
    return smearing_ft(SMEARING, k) ** 2 * vol / (TWO_PI_CUBED * 2.0 * w)


class TestModeSet:
    def test_uniform_radial_midpoint_cells(self):
        modes = ModeSet.uniform_radial(4, 2.0)
        dk = 0.5
        assert np.allclose(modes.ks, [0.25, 0.75, 1.25, 1.75])
        assert np.allclose(
            modes.weights, 4.0 * math.pi * np.asarray(modes.ks) ** 2 * dk
        )
        assert np.allclose(modes.omegas, modes.ks)  # massless

    def test_massive_dispersion(self):
        modes = ModeSet.uniform_radial(4, 2.0, mass=1.0)
        assert np.allclose(modes.omegas, np.hypot(modes.ks, 1.0))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ModeSet.uniform_radial(0, 1.0)
        with pytest.raises(InvalidArgumentError):
            ModeSet.uniform_radial(4, -1.0)
        with pytest.raises(InvalidArgumentError):
            ModeSet(ks=(1.0, 0.5), omegas=(1.0, 0.5), weights=(1.0, 1.0))

    def test_modes_are_read_only_float_arrays_built_once(self):
        ks = np.array([0.5, 1.0])
        modes = ModeSet(ks=ks, omegas=(0.5, 1.0), weights=[1, 2])  # an array, a tuple, a list
        arrays = modes.arrays()
        assert arrays[0] is modes.ks and arrays[1] is modes.omegas and arrays[2] is modes.weights
        assert all(a is b for a, b in zip(arrays, modes.arrays()))
        assert all(a.dtype == float and not a.flags.writeable for a in arrays)
        ks[0] = 0.25  # the mode set holds its own copy
        assert modes.ks.tolist() == [0.5, 1.0] and modes.weights.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            modes.ks[0] = 0.25

    @pytest.mark.parametrize("ks", [1.0, [[0.5, 1.0]]])
    def test_rejects_modes_that_are_not_one_dimensional(self, ks):
        with pytest.raises(InvalidArgumentError, match="matching nonempty"):
            ModeSet(ks=ks, omegas=ks, weights=ks)

    @pytest.mark.parametrize(
        "field, value", [("ks", math.inf), ("omegas", math.nan), ("weights", math.inf)]
    )
    def test_rejects_non_finite_modes(self, field, value):
        arrays = {"ks": [0.5, 1.0], "omegas": [0.5, 1.0], "weights": [1.0, 1.0]}
        arrays[field][1] = value
        with pytest.raises(InvalidArgumentError, match="finite"):
            ModeSet(**{name: tuple(a) for name, a in arrays.items()})

    @pytest.mark.parametrize("k_max", [1e120, 1e300])  # 4 pi k^2 dk, then k^2, overflows
    def test_overflowing_cell_weights_raise_without_a_warning(self, k_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="finite"):
                ModeSet.uniform_radial(128, k_max)


class TestQubitState:
    def test_accepts_valid_density_matrix(self):
        QubitState(matrix=np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidArgumentError):
            QubitState(matrix=np.array([[0.5, 0.4], [0.1, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidArgumentError):
            QubitState(matrix=np.array([[0.6, 0.0], [0.0, 0.6]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidArgumentError):
            QubitState(matrix=np.array([[1.2, 0.0], [0.0, -0.2]]))

    @pytest.mark.parametrize(
        "bad, message",
        [([[0.5, 0.4], [0.1, 0.5]], "Hermitian"),
         ([[0.6, 0.0], [0.0, 0.6]], "trace"),
         ([[1.2, 0.0], [0.0, -0.2]], "eigenvalues"),
         # nan > tolerance is False, so a NaN member would pass every other check
         ([[0.5, np.nan], [np.nan, 0.5]], "finite")],
    )
    def test_one_bad_member_of_a_stack_raises(self, bad, message):
        stack = np.tile(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), (3, 4, 1, 1))
        QubitState(matrix=stack)
        stack[2, 1] = bad
        with pytest.raises(InvalidArgumentError, match=message):
            QubitState(matrix=stack)

    def test_rejects_a_stack_of_non_2x2_matrices(self):
        with pytest.raises(InvalidArgumentError):
            QubitState(matrix=np.zeros((4, 3, 3)))


class TestTomography:
    def test_pauli_readout_on_known_states(self):
        # |0><0|: sigma_z expectation +1, sigma_y expectation 0.
        assert tomography(QubitState(np.diag([1.0, 0.0]))) == 1.0 + 0.0j
        # (I + sigma_y)/2: sigma_z expectation 0, sigma_y expectation 1.
        rho = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
        assert tomography(QubitState(rho)) == pytest.approx(1j, abs=1e-15)

    def test_complex_for_one_state_and_an_array_for_a_stack(self):
        rho = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
        assert type(tomography(QubitState(rho))) is complex
        stack = np.stack([np.diag([1.0, 0.0]), rho, np.diag([0.0, 1.0])])
        values = tomography(QubitState(stack))
        assert isinstance(values, np.ndarray) and values.shape == (3,)
        assert values.tolist() == [tomography(QubitState(m)) for m in stack]


class TestDeltaSimulator:
    def test_matches_independent_discrete_sum_formula(self):
        # For a product of displaced modes the interferometric signal is
        # exactly exp( lam^2 sum_j w_j (e^{i mu w_j} - 1) ).
        lam, mu = 0.1, 1.3
        modes = ModeSet.uniform_radial(64, 10.0)
        w = np.asarray(modes.omegas)
        weights = discrete_coupling_weights(modes)
        expected = np.exp(lam**2 * np.sum(weights * (np.exp(1j * mu * w) - 1.0)))
        simulated = tomography(simulate_delta_ramsey(modes, lam, SMEARING, mu))
        assert abs(simulated - expected) <= 1e-12

    def test_state_is_physical(self):
        q = simulate_delta_ramsey(ModeSet.uniform_radial(32, 8.0), 0.5, SMEARING, 2.0)
        assert abs(np.trace(q.matrix) - 1.0) <= 1e-14
        assert np.linalg.eigvalsh(q.matrix).min() >= -1e-14

    def test_zero_coupling_is_identity_signal(self):
        modes = ModeSet.uniform_radial(16, 5.0)
        signal = tomography(simulate_delta_ramsey(modes, 0.0, SMEARING, 3.0))
        assert signal == pytest.approx(1.0, abs=1e-15)

    def test_hermitian_symmetry_in_mu(self):
        modes = ModeSet.uniform_radial(32, 8.0)
        plus = tomography(simulate_delta_ramsey(modes, 0.1, SMEARING, 1.7))
        minus = tomography(simulate_delta_ramsey(modes, 0.1, SMEARING, -1.7))
        assert minus == pytest.approx(np.conj(plus), abs=1e-15)


class TestStackedDeltaSimulator:
    @pytest.mark.parametrize(
        "n_modes, mu",
        [(128, np.linspace(-10.0, 10.0, 101)),
         (4096, np.linspace(-25.0, 25.0, 256)),  # 16 mu rows per chunk: 16 chunks
         (3, np.array([[0.0, 1e-3], [7.5, -1e6]])),  # a 2-D mu array keeps its shape
         (70000, np.array([0.3, -2.0]))],  # more modes than a chunk holds: one row each
    )
    def test_rows_equal_scalar_calls_bit_for_bit(self, n_modes, mu):
        modes = ModeSet.uniform_radial(n_modes, 10.0)
        stack = simulate_delta_ramsey(modes, 0.3, SMEARING, mu)
        assert stack.matrix.shape == mu.shape + (2, 2)
        values = tomography(stack)
        for index, m in np.ndenumerate(mu):
            single = simulate_delta_ramsey(modes, 0.3, SMEARING, float(m))
            assert np.array_equal(stack.matrix[index], single.matrix)
            assert values[index] == tomography(single)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_mu_gives_an_empty_stack(self, shape):
        q = simulate_delta_ramsey(ModeSet.uniform_radial(16, 5.0), 0.1, SMEARING, np.zeros(shape))
        assert q.matrix.shape == shape + (2, 2)
        assert tomography(q).shape == shape

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_non_finite_mu_raises(self, bad):
        mu = np.array([0.0, 1.0, bad, 2.0])
        with pytest.raises(InvalidArgumentError, match="mu must be finite"):
            simulate_delta_ramsey(ModeSet.uniform_radial(16, 5.0), 0.1, SMEARING, mu)

    def test_memory_is_bounded_by_the_chunk(self):
        # the (mu, mode) temporaries of 4096 modes x 256 mu would take 16 MiB each
        modes = ModeSet.uniform_radial(4096, 10.0)
        mu = np.linspace(-25.0, 25.0, 256)
        tracemalloc.start()
        try:
            simulate_delta_ramsey(modes, 0.3, SMEARING, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestPerturbativeSimulator:
    def test_matches_discrete_vacuum_characteristic_function(self):
        # Independent discrete-sum formula at beta = inf:
        # P~ = 1 + lam^2 sum_j w_j |chi~(w_j)|^2 (e^{i mu w_j} - 1).
        lam, mu = 0.01, 1.0
        field = FieldSpec(mass=0.0, beta=math.inf, coupling=lam)
        modes = ModeSet.uniform_radial(128, 10.0)
        w = np.asarray(modes.omegas)
        weights = discrete_coupling_weights(modes)
        chi2 = np.abs(switching_ft(SWITCHING, w)) ** 2
        expected = 1.0 + lam**2 * np.sum(weights * chi2 * (np.exp(1j * mu * w) - 1.0))
        q = simulate_perturbative_ramsey(modes, field, SWITCHING, SMEARING, mu)
        assert abs(tomography(q) - expected) <= 1e-12

    def test_matches_discrete_thermal_sum(self):
        lam, mu, beta = 0.01, 0.8, 1.0
        field = FieldSpec(mass=0.0, beta=beta, coupling=lam)
        modes = ModeSet.uniform_radial(96, 10.0)
        w = np.asarray(modes.omegas)
        weights = discrete_coupling_weights(modes)
        _, n = thermal_weight(w, beta)
        chi_plus = np.abs(switching_ft(SWITCHING, w)) ** 2
        chi_minus = np.abs(switching_ft(SWITCHING, -w)) ** 2
        expected = 1.0 + lam**2 * np.sum(
            weights
            * (
                chi_minus * n * (np.exp(-1j * mu * w) - 1.0)
                + chi_plus * (1.0 + n) * (np.exp(1j * mu * w) - 1.0)
            )
        )
        q = simulate_perturbative_ramsey(modes, field, SWITCHING, SMEARING, mu)
        assert abs(tomography(q) - expected) <= 1e-12

    def test_trace_preserved_to_machine_precision(self):
        field = FieldSpec(mass=0.0, beta=1.0, coupling=0.01)
        modes = ModeSet.uniform_radial(64, 10.0)
        q = simulate_perturbative_ramsey(modes, field, SWITCHING, SMEARING, 2.0)
        assert abs(np.trace(q.matrix) - 1.0) <= 1e-12

    def test_first_order_correction_is_identically_zero(self):
        field = FieldSpec(mass=0.0, beta=1.0, coupling=0.01)
        modes = ModeSet.uniform_radial(32, 10.0)
        corr = first_order_qubit_correction(modes, field, SWITCHING, SMEARING, 1.0)
        assert corr.shape == (2, 2)
        assert np.all(corr == 0.0)

    def test_rejects_delta_switching(self):
        field = FieldSpec(mass=0.0, beta=math.inf, coupling=0.1)
        modes = ModeSet.uniform_radial(16, 5.0)
        with pytest.raises(RegimeError):
            simulate_perturbative_ramsey(
                modes, field, SwitchingProfile.delta(), SMEARING, 1.0
            )


class TestContinuumConvergence:
    def test_discrete_simulation_converges_to_continuum(self):
        report = continuum_convergence(SMEARING, 0.01, 1.0, [16, 32, 64, 128])
        assert report.monotone
        assert report.converged
        assert report.ok
        assert report.errors[-1] <= 1e-6
        # reference is the adaptive-quadrature continuum value
        assert abs(report.reference - charfn_delta_closed(0.01, SIGMA, 1.0)) < 1e-10

    def test_failure_is_reported_not_hidden(self):
        report = continuum_convergence(
            SMEARING, 0.01, 1.0, [2, 4], tolerance=1e-15
        )
        assert not report.converged
        assert not report.ok
