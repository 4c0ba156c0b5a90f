"""Field state parameters and the spacetime localization profiles.

Natural units (hbar = c = 1) throughout.  The field is a real scalar with
dispersion w_k = sqrt(m^2 + k^2); its thermal state is fixed by an inverse
temperature beta, with beta = inf encoding the vacuum exactly (not as a large
float, so the vacuum limit never inherits rounding from Bose factors).

Localization profiles:

  switching chi(t)  --  temporal window of the unitary, Gaussian or delta.
      The Gaussian is chi(t) = exp(-(t - t0)^2 / (2 s^2)) with unit amplitude,
      matching the form used for the reference work distributions
      (t0 = 1/2, s = 1/12).  The delta is the instantaneous coupling,
      chi~ = 1.  The center t0 drops out of every result: the field state is
      stationary, so only |chi~(w)|^2 enters and t0 is a phase e^{i w t0}.
  smearing F(x)     --  spatial profile, a spherically symmetric Gaussian,
      the unit-normalized 3D density
          F(r) = (2 pi sigma^2)^{-3/2} exp(-r^2 / (2 sigma^2)),
      whose 3D Fourier transform is F~(k) = exp(-sigma^2 k^2 / 2) with
      F~(0) = 1.  This normalization is the one that reproduces the known
      closed-form characteristic function for the instantaneous coupling
      (constant factor exp(-lambda^2 / (8 pi^2 sigma^2))), and is used
      consistently everywhere.

Fourier conventions: chi~(w) = Int dt chi(t) e^{+iwt},
F~(k) = Int d^3x F(x) e^{-ik.x} (real and even in k for real radial profiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "FieldSpec",
    "SwitchingProfile",
    "SmearingProfile",
    "dispersion",
    "switching_ft",
    "smearing_ft",
    "thermal_weight",
]


@dataclass(frozen=True)
class FieldSpec:
    """Mass, inverse temperature (math.inf = vacuum) and coupling strength."""

    mass: float = 0.0
    beta: float = math.inf
    coupling: float = 0.01

    def __post_init__(self):
        if not (self.mass >= 0.0 and math.isfinite(self.mass)):
            raise InvalidArgumentError("FieldSpec: mass must be finite and >= 0")
        if not self.beta > 0.0:
            raise InvalidArgumentError("FieldSpec: beta must be > 0 (or inf)")
        if not math.isfinite(self.coupling):
            raise InvalidArgumentError("FieldSpec: coupling must be finite")
        if not math.isfinite(self.coupling * self.coupling):
            raise InvalidArgumentError("FieldSpec: coupling^2 overflows a double")

    @property
    def is_vacuum(self) -> bool:
        return math.isinf(self.beta)


@dataclass(frozen=True)
class SwitchingProfile:
    """Temporal window chi(t): gaussian or delta (instantaneous)."""

    kind: str
    center: float = 0.0
    width: float = 0.0

    def __post_init__(self):
        if self.kind == "delta":
            if self.center != 0.0 or self.width != 0.0:
                raise InvalidArgumentError("delta switching: takes no center or width")
        elif self.kind != "gaussian":
            raise InvalidArgumentError(
                f"switching kind must be 'gaussian' or 'delta', not {self.kind!r}"
            )
        elif not (math.isfinite(self.center) and math.isfinite(self.width) and self.width > 0):
            raise InvalidArgumentError("gaussian switching: need finite center, finite width > 0")
        elif not math.isfinite(self.width * self.width):  # |chi~(0)|^2 = 2 pi width^2
            raise InvalidArgumentError("gaussian switching: width^2 overflows a double")

    @classmethod
    def gaussian(cls, center: float, width: float) -> "SwitchingProfile":
        return cls(kind="gaussian", center=center, width=width)

    @classmethod
    def delta(cls) -> "SwitchingProfile":
        return cls(kind="delta")

    @property
    def is_delta(self) -> bool:
        return self.kind == "delta"


@dataclass(frozen=True)
class SmearingProfile:
    """Unit-normalized spherical Gaussian F(r) of width sigma."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise InvalidArgumentError("gaussian smearing: sigma must be finite and > 0")

    @classmethod
    def gaussian_spherical(cls, sigma: float) -> "SmearingProfile":
        return cls(sigma=sigma)


def dispersion(k, m):
    """Mode energy w_k = sqrt(m^2 + k^2)."""
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0) or (np.ndim(m) == 0 and m < 0):
        raise InvalidArgumentError("dispersion: k and m must be >= 0")
    out = np.hypot(k_arr, m)
    return float(out) if np.ndim(k) == 0 else out


def switching_ft(p: SwitchingProfile, omega):
    """chi~(w) = Int dt chi(t) e^{iwt}.  Accepts scalar or array omega."""
    omega_arr = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega_arr)):
        raise InvalidArgumentError("switching_ft: omega must be finite")
    if p.is_delta:
        out = np.ones_like(omega_arr, dtype=complex)
    else:
        s = p.width
        out = (
            s
            * math.sqrt(2.0 * math.pi)
            * np.exp(-0.5 * (s * omega_arr) ** 2)
            * np.exp(1j * omega_arr * p.center)
        )
    return complex(out) if np.ndim(omega) == 0 else out


def smearing_ft(p: SmearingProfile, k):
    """3D Fourier transform F~(k) = exp(-sigma^2 k^2 / 2) of the smearing, at |k| = k."""
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0) or not np.all(np.isfinite(k_arr)):
        raise InvalidArgumentError("smearing_ft: k must be finite and >= 0")
    out = np.exp(-0.5 * (p.sigma * k_arr) ** 2)
    return float(out) if np.ndim(k) == 0 else out


def thermal_weight(omega, beta):
    """Thermal factors (coth(bw/2), 1/(e^{bw}-1)) = (1 + 2n, n).

    beta = inf returns (1, 0) exactly; expm1 keeps small b*w free of
    cancellation, and its overflow at large b*w gives n = 0.
    """
    omega_arr = np.asarray(omega, dtype=float)
    if np.any(omega_arr <= 0.0):
        raise InvalidArgumentError("thermal_weight: omega must be > 0")
    with np.errstate(over="ignore"):
        bose = 1.0 / np.expm1(beta * omega_arr)
    coth = 1.0 + 2.0 * bose
    if omega_arr.ndim == 0:
        return float(coth), float(bose)
    return coth, bose
