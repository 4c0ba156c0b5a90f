"""Discrete-mode simulation of the Ramsey interferometric protocol.

This module is the independent oracle for the analytic characteristic
functions: a qubit is Hadamard-rotated, drives the field conditionally
(branch |0>: U e^{-i mu H0}; branch |1>: e^{-i mu H0} U), is rotated again,
and its Bloch components are read out,

    P~(mu) = Tr[sigma_z rho_mu] + i Tr[sigma_y rho_mu].

The field is replaced by a finite set of radial modes (cell weight
4 pi k_j^2 dk), for which the protocol can be executed exactly:

* instantaneous coupling: the unitary is a product of single-mode
  displacements, so both branches stay coherent states and the field trace is
  a product of per-mode coherent-state overlaps -- no Fock truncation, valid
  at any coupling strength.  A whole mu array runs as one stack of qubit
  states, in chunks of mu rows that bound the (mu, mode) temporaries;
* smooth switching: the second-order Dyson algebra is assembled term by term,
  with the first-order terms kept explicitly (they vanish because the thermal
  one-point function does) and the <U^(2)> contribution obtained from
  second-order unitarity, which is exactly what forces the trace to stay 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import Scenario, charfn_delta_numeric
from .errors import InvalidArgumentError, RegimeError
from .field_model import (
    FieldSpec,
    SmearingProfile,
    SwitchingProfile,
    dispersion,
    smearing_ft,
    switching_ft,
    thermal_weight,
)
__all__ = [
    "ModeSet",
    "QubitState",
    "simulate_delta_ramsey",
    "simulate_perturbative_ramsey",
    "first_order_qubit_correction",
    "tomography",
    "continuum_convergence",
    "ConvergenceReport",
]

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
# mu rows per chunk times modes: each complex (rows, modes) temporary stays <= 1 MiB
_CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Radial discretization of the momentum integral: modes (k_j, w_j, d3k_j).

    Each field is taken as a sequence or an array and held as a read-only 1-D
    float array of its own; a mode set compares and hashes by identity."""

    ks: np.ndarray
    omegas: np.ndarray
    weights: np.ndarray  # momentum-space cell volumes d^3k_j

    def __post_init__(self):
        modes = [np.array(x, dtype=float) for x in (self.ks, self.omegas, self.weights)]
        ks, ws, vols = modes
        if not (ks.ndim == 1 and ks.size and ks.shape == ws.shape == vols.shape):
            raise InvalidArgumentError("ModeSet: need matching nonempty mode arrays")
        if not np.all(np.isfinite([ks, ws, vols])):
            raise InvalidArgumentError("ModeSet: momenta, energies and cell weights must be finite")
        if np.any(ks <= 0) or np.any(vols <= 0):
            raise InvalidArgumentError("ModeSet: momenta and cell weights must be > 0")
        if np.any(np.diff(ks) <= 0):
            raise InvalidArgumentError("ModeSet: modes must be sorted by k")
        for name, arr in zip(("ks", "omegas", "weights"), modes):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def uniform_radial(cls, n: int, k_max: float, mass: float = 0.0) -> "ModeSet":
        """Midpoint radial grid k_j = (j - 1/2) dk with cell weight 4 pi k_j^2 dk."""
        if n < 1 or not k_max > 0:
            raise InvalidArgumentError("uniform_radial: need n >= 1 and k_max > 0")
        dk = k_max / n
        ks = (np.arange(n) + 0.5) * dk
        with np.errstate(over="ignore"):  # an overflowed weight is rejected as non-finite
            weights = 4.0 * math.pi * ks**2 * dk
        return cls(ks=ks, omegas=dispersion(ks, mass), weights=weights)

    def arrays(self):
        return self.ks, self.omegas, self.weights


@dataclass(frozen=True)
class QubitState:
    """Validated 2x2 density matrix of the ancilla qubit, or a (..., 2, 2) stack
    of them; every member passes every check."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape[-2:] != (2, 2):
            raise InvalidArgumentError("QubitState: matrix must be 2x2")
        if not np.all(np.isfinite(m)):
            raise InvalidArgumentError("QubitState: matrix entries must be finite")
        if np.any(np.abs(m - np.swapaxes(m, -1, -2).conj()) > 1e-10):
            raise InvalidArgumentError("QubitState: matrix is not Hermitian")
        trace = np.trace(m, axis1=-2, axis2=-1)
        if np.any(abs(trace.real - 1.0) > 1e-12) or np.any(abs(trace.imag) > 1e-12):
            raise InvalidArgumentError("QubitState: trace must equal 1")
        eigs = np.linalg.eigvalsh(m)
        if np.any(eigs < -1e-10) or np.any(eigs > 1.0 + 1e-10):
            raise InvalidArgumentError("QubitState: eigenvalues outside [0, 1]")
        object.__setattr__(self, "matrix", m)


def tomography(q: QubitState):
    """Bloch readout Tr[sigma_z rho] + i Tr[sigma_y rho] = P~(mu): a complex for
    one state, an array for a stack."""
    rho = q.matrix
    out = (np.trace(_SIGMA_Z @ rho, axis1=-2, axis2=-1).real
           + 1j * np.trace(_SIGMA_Y @ rho, axis1=-2, axis2=-1).real)
    return complex(out) if rho.ndim == 2 else out


def _mode_amplitudes(modes: ModeSet, smearing: SmearingProfile, scale=1.0) -> np.ndarray:
    """scale F~(k_j) sqrt(d3k_j) / ((2 pi)^{3/2} sqrt(2 w_j)), the coupling of
    mode j per unit lambda times ``scale``, which multiplies first."""
    ks, ws, vols = modes.arrays()
    norm = (2.0 * math.pi) ** 1.5 * np.sqrt(2.0 * ws)
    return scale * smearing_ft(smearing, ks) * np.sqrt(vols) / norm


def _assemble_final_state(branch_overlap) -> QubitState:
    """Qubit state(s) after the closing Hadamard, given Tr_field |psi_0><psi_1|
    (a scalar or an array of them)."""
    overlap = np.asarray(branch_overlap)
    rho = np.ones(overlap.shape + (2, 2), dtype=complex)
    rho[..., 0, 1] = overlap
    rho[..., 1, 0] = np.conj(overlap)
    return QubitState(matrix=_HADAMARD @ (0.5 * rho) @ _HADAMARD)


def simulate_delta_ramsey(
    modes: ModeSet, lam: float, smearing: SmearingProfile, mu
) -> QubitState:
    """Execute the protocol exactly for the instantaneous coupling on the vacuum.

    The conditional unitary displaces every mode by
    alpha_j = -i lam F~(k_j) sqrt(d3k_j) / ((2 pi)^{3/2} sqrt(2 w_j)); the free
    evolution rotates each coherent amplitude by e^{-i mu w_j}.  The field
    trace is the product of per-mode coherent-state overlaps.  A mu array gives
    a stack of states of its shape; each member equals the scalar call's.
    """
    mu_arr = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(mu_arr)):
        raise InvalidArgumentError("simulate_delta_ramsey: mu must be finite")
    ws = modes.omegas
    alpha = _mode_amplitudes(modes, smearing, -1j * lam)
    # branch |0>: U e^{-i mu H0} |vac> = |alpha>;  branch |1>: e^{-i mu H0} U |vac>
    psi0 = alpha
    mu_rows = mu_arr.reshape(-1, 1)
    log_overlap = np.empty(mu_rows.shape[0], dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // ws.size)
    for start in range(0, mu_rows.shape[0], step):
        psi1 = alpha * np.exp(-1j * mu_rows[start : start + step] * ws)
        # <psi1|psi0> = prod_j exp(-|a|^2/2 - |b|^2/2 + conj(b) a), summed along each row
        log_overlap[start : start + step] = np.sum(
            -0.5 * np.abs(psi0) ** 2 - 0.5 * np.abs(psi1) ** 2 + np.conj(psi1) * psi0,
            axis=-1,
        )
    return _assemble_final_state(np.exp(log_overlap).reshape(mu_arr.shape))


def first_order_qubit_correction(
    modes: ModeSet,
    field: FieldSpec,
    switching: SwitchingProfile,
    smearing: SmearingProfile,
    mu: float,
) -> np.ndarray:
    """First-order Dyson contribution to the qubit state (identically zero).

    Every first-order term is proportional to the one-point function of the
    field in the thermal state, Tr[a_j rho] = Tr[a_j^dag rho] = 0; assembling
    it explicitly keeps that cancellation assertable rather than assumed.
    """
    ws = modes.omegas
    a_expect = np.zeros(ws.size, dtype=complex)  # thermal <a_j>
    g = _mode_amplitudes(modes, smearing)
    for shift in (0.0, mu, -mu):
        phase = np.exp(-1j * shift * ws)
        term = np.sum(
            g * (switching_ft(switching, -ws) * phase * a_expect
                 + switching_ft(switching, ws) * np.conj(phase) * np.conj(a_expect))
        )
        if term != 0.0:  # pragma: no cover - structural impossibility
            raise InvalidArgumentError("first-order term failed to vanish")
    return np.zeros((2, 2), dtype=complex)


def _second_order_offdiag(
    modes: ModeSet,
    field: FieldSpec,
    switching: SwitchingProfile,
    smearing: SmearingProfile,
    mu: float,
) -> np.ndarray:
    """X(mu) = <U^(1)dag U^(1)_{+mu}> per unit lambda^2, for mu in {X(mu), X(0), X(-mu)}.

    X(mu) = sum_j w_j [ |chi~(-w_j)|^2 n_j e^{-i mu w_j}
                        + |chi~(w_j)|^2 (1 + n_j) e^{+i mu w_j} ].
    """
    ws = modes.omegas
    w_j = _mode_amplitudes(modes, smearing) ** 2
    if field.is_vacuum:
        n_j = np.zeros_like(ws)
    else:
        _, n_j = thermal_weight(ws, field.beta)
    chi_plus = np.abs(switching_ft(switching, ws)) ** 2
    chi_minus = np.abs(switching_ft(switching, -ws)) ** 2

    def x_of(m):
        return np.sum(
            w_j * (chi_minus * n_j * np.exp(-1j * m * ws)
                   + chi_plus * (1.0 + n_j) * np.exp(1j * m * ws))
        )

    return np.array([x_of(mu), x_of(0.0), x_of(-mu)])


def simulate_perturbative_ramsey(
    modes: ModeSet,
    field: FieldSpec,
    switching: SwitchingProfile,
    smearing: SmearingProfile,
    mu: float,
) -> QubitState:
    """Second-order Dyson assembly of the qubit state for discretized modes.

    The <U^(2)> + h.c. contribution equals -<U^(1)dag U^(1)> by second-order
    unitarity; keeping it as a separate term (computed at mu = 0, where the
    free-evolution phases cancel against the thermal state's stationarity)
    makes the trace-preservation bookkeeping explicit.
    """
    if switching.is_delta:
        raise RegimeError("simulate_perturbative_ramsey requires a smooth switching")
    if not math.isfinite(mu):
        raise InvalidArgumentError("simulate_perturbative_ramsey: mu must be finite")
    first_order_qubit_correction(modes, field, switching, smearing, mu)
    lam2 = field.coupling**2
    x_mu, x_zero, x_neg = _second_order_offdiag(modes, field, switching, smearing, mu)
    y = -x_zero  # 2 Re <U^(2)> per unit lambda^2
    rho_before = 0.5 * np.array(
        [
            [1.0 + lam2 * (x_zero + y), 1.0 + lam2 * (x_mu + y)],
            [1.0 + lam2 * (x_neg + y), 1.0 + lam2 * (x_zero + y)],
        ],
        dtype=complex,
    )
    return QubitState(matrix=_HADAMARD @ rho_before @ _HADAMARD)


@dataclass
class ConvergenceReport:
    """Continuum-limit validation of the discrete-mode simulator."""

    mode_counts: list
    errors: list
    reference: complex
    monotone: bool
    converged: bool
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.monotone and self.converged


def continuum_convergence(
    smearing: SmearingProfile,
    lam: float,
    mu: float,
    mode_counts,
    k_max: float = 10.0,
    tolerance: float = 1e-6,
) -> ConvergenceReport:
    """|simulated P~_N(mu) - continuum P~(mu)| for increasing mode counts N.

    The reference is `charfn_delta_numeric`, the instantaneous coupling's
    characteristic function in closed form; the discrete errors must decrease
    monotonically and end below `tolerance`.
    """
    scenario = Scenario(
        field=FieldSpec(mass=0.0, beta=math.inf, coupling=lam),
        switching=SwitchingProfile.delta(),
        smearing=smearing,
    )
    reference = charfn_delta_numeric(scenario, mu)
    counts = [int(n) for n in mode_counts]
    errors = []
    for n in counts:
        modes = ModeSet.uniform_radial(n, k_max)
        simulated = tomography(simulate_delta_ramsey(modes, lam, smearing, mu))
        errors.append(abs(simulated - reference))
    monotone = all(b < a for a, b in zip(errors, errors[1:])) or len(errors) < 2
    converged = bool(errors) and errors[-1] <= tolerance
    return ConvergenceReport(
        mode_counts=counts,
        errors=errors,
        reference=reference,
        monotone=monotone,
        converged=converged,
        tolerance=tolerance,
    )
