"""Field state parameters and the spacetime localization profiles.

Natural units (hbar = c = 1) throughout.  The field is a real scalar with
dispersion w_k = sqrt(m^2 + k^2); its thermal state is fixed by an inverse
temperature beta, with beta = inf encoding the vacuum exactly (not as a large
float, so the vacuum limit never inherits rounding from Bose factors).

Localization profiles:

  switching chi(t)  --  temporal window of the unitary.  The Gaussian variant
      is chi(t) = exp(-(t - t0)^2 / (2 s^2)) with unit amplitude, matching the
      form used for the reference work distributions (t0 = 1/2, s = 1/12).
  smearing F(x)     --  spatial profile, spherically symmetric.  The Gaussian
      variant is the unit-normalized 3D density
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
    """Temporal window chi(t): gaussian, delta (instantaneous) or tabulated."""

    kind: str
    center: float = 0.0
    width: float = 0.0
    t_samples: tuple = ()
    values: tuple = ()

    @classmethod
    def gaussian(cls, center: float, width: float) -> "SwitchingProfile":
        if not (math.isfinite(center) and math.isfinite(width) and width > 0):
            raise InvalidArgumentError("gaussian switching: need finite center, finite width > 0")
        return cls(kind="gaussian", center=center, width=width)

    @classmethod
    def delta(cls) -> "SwitchingProfile":
        return cls(kind="delta")

    @classmethod
    def tabulated(cls, t, values) -> "SwitchingProfile":
        t = np.asarray(t, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise InvalidArgumentError("tabulated switching: need matching 1D sample arrays")
        if not np.all(np.diff(t) > 0):
            raise InvalidArgumentError("tabulated switching: t samples must be increasing")
        return cls(kind="tabulated", t_samples=tuple(t), values=tuple(v))

    @property
    def is_delta(self) -> bool:
        return self.kind == "delta"


@dataclass(frozen=True)
class SmearingProfile:
    """Spherically symmetric spatial profile F(r)."""

    kind: str
    sigma: float = 0.0
    r_samples: tuple = ()
    values: tuple = ()

    @classmethod
    def gaussian_spherical(cls, sigma: float) -> "SmearingProfile":
        if not (sigma > 0 and math.isfinite(sigma)):
            raise InvalidArgumentError("gaussian smearing: sigma must be finite and > 0")
        return cls(kind="gaussian_spherical", sigma=sigma)

    @classmethod
    def tabulated_radial(cls, r, values) -> "SmearingProfile":
        r = np.asarray(r, dtype=float)
        v = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise InvalidArgumentError("tabulated smearing: need matching 1D sample arrays")
        if not (np.all(r >= 0) and np.all(np.diff(r) > 0)):
            raise InvalidArgumentError("tabulated smearing: r samples must be increasing and >= 0")
        return cls(kind="tabulated_radial", r_samples=tuple(r), values=tuple(v))


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
    if p.kind == "delta":
        out = np.ones_like(omega_arr, dtype=complex)
    elif p.kind == "gaussian":
        s = p.width
        out = (
            s
            * math.sqrt(2.0 * math.pi)
            * np.exp(-0.5 * (s * omega_arr) ** 2)
            * np.exp(1j * omega_arr * p.center)
        )
    elif p.kind == "tabulated":
        t = np.asarray(p.t_samples)
        v = np.asarray(p.values)
        phases = np.exp(1j * np.multiply.outer(omega_arr, t))
        out = np.trapezoid(phases * v, t, axis=-1)
    else:  # pragma: no cover
        raise InvalidArgumentError(f"unknown switching kind {p.kind!r}")
    return complex(out) if np.ndim(omega) == 0 else out


def smearing_ft(p: SmearingProfile, k):
    """3D Fourier transform F~(k) of the radial profile, evaluated at |k| = k.

    For a spherically symmetric F the transform reduces to
    F~(k) = 4 pi * Int_0^inf r^2 F(r) sin(kr)/(kr) dr, real and even in k.
    """
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0) or not np.all(np.isfinite(k_arr)):
        raise InvalidArgumentError("smearing_ft: k must be finite and >= 0")
    if p.kind == "gaussian_spherical":
        out = np.exp(-0.5 * (p.sigma * k_arr) ** 2)
    elif p.kind == "tabulated_radial":
        r = np.asarray(p.r_samples)
        v = np.asarray(p.values)
        # np.sinc(x) = sin(pi x)/(pi x), so sinc(kr/pi) = sin(kr)/(kr)
        kernel = np.sinc(np.multiply.outer(k_arr, r) / math.pi)
        out = 4.0 * math.pi * np.trapezoid(r**2 * v * kernel, r, axis=-1)
    else:  # pragma: no cover
        raise InvalidArgumentError(f"unknown smearing kind {p.kind!r}")
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
