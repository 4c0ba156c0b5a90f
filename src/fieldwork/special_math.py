"""Special functions, radial quadrature and Fourier inversion primitives.

Conventions used throughout the package:

    forward  :  P~(mu) = Int P(W) e^{+i mu W} dW
    inverse  :  P(W)   = (1/2pi) Int P~(mu) e^{-i mu W} dmu

A real distribution has P~(-mu) = conj P~(mu), so a characteristic function
is sampled on mu >= 0 only (`CharFnGrid`) and inverted by a real inverse FFT.
An atom at W = 0 is the level that P~ keeps at large mu.  The caller knows
its weight in closed form and passes it to `invert_charfn`, which subtracts it
before the transform, so the density is the absolutely continuous part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import WorkDistribution
from .errors import ConvergenceError, InvalidArgumentError

__all__ = [
    "CharFnGrid",
    "dawson",
    "integrate_radial",
    "invert_charfn",
]

_GRID_CHECK_TOL = 1e-6  # P~(0) = 1 on a sampled CharFnGrid
_TOL = 1e-11  # integrate_radial: error estimate <= _TOL * max(1, |value|)
_MAX_K_NODES = 2**20  # bounds the time and the O(N_k) memory of one k grid

# The Faddeeva function w(z) = e^{-z^2} erfc(-iz) on Im z >= 0.  Below
# |z| = _FADDEEVA_RADIUS it is Weideman's rational series (SIAM J. Numer. Anal. 31
# (1994) 1497): with L = sqrt(N / sqrt 2), d = L - iz and Z = (L + iz) / d, which
# lies in the unit disc,
#     w(z) = (2 p(Z) / d + 1 / sqrt(pi)) / d,   p(Z) = Sum_{n<N} a_{n+1} Z^n,
# a_n the Fourier coefficients of e^{-t^2} (L^2 + t^2), t = L tan(theta / 2), on
# theta in (-pi, pi).  It is analytic down to the pole z = -iL, so Im z = -1e-12
# (the KMS strip's tolerance) is as accurate.  From _FADDEEVA_RADIUS on, the
# asymptotic series
#     w(z) = i / (sqrt(pi) z) Sum_k (2k - 1)!! / (2z^2)^k,
# whose first omitted term, 21!! / 288^11 = 1.2e-17 at |z| = 12, bounds its error.
_FADDEEVA_TERMS = 40
_FADDEEVA_L = math.sqrt(_FADDEEVA_TERMS / math.sqrt(2.0))
_FADDEEVA_RADIUS = 12.0
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_FADDEEVA_BLOCK = 7  # the real-axis series: its N + 1 = 41 terms in six blocks of 7 powers of Z
_FADDEEVA_CHUNK = 2**13  # points per pass of the real-axis series: 13 complex rows, 1.7 MB


def _weideman_coefficients(n: int, scale: float) -> np.ndarray:
    """a_1 .. a_n of e^{-t^2} (scale^2 + t^2) = Sum_n a_n e^{i n theta},
    t = scale tan(theta / 2), from one FFT of its 4n samples theta = k pi / 2n."""
    m = 2 * n
    t = scale * np.tan(np.arange(1 - m, m) * (math.pi / (2 * m)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))  # f(pi) = 0
    return np.fft.fft(np.fft.fftshift(f)).real[1 : n + 1] / (2 * m)


_WEIDEMAN = _weideman_coefficients(_FADDEEVA_TERMS, _FADDEEVA_L)
_WEIDEMAN_HORNER = tuple(_WEIDEMAN[::-1].tolist())  # a_N first


def _sine_blocks(a: np.ndarray, scale: float, block: int) -> np.ndarray:
    """b_1 .. b_{n+1} of the real-axis sine series Im w(x) = Sum_k b_k sin(k theta)
    (`_weideman_imag`), b_k = (a_k + (a_{k-1} + a_{k+1}) / 2) / L^2 plus
    1 / (2 L sqrt(pi)) at k = 1, zero-padded into rows of ``block``."""
    b = np.convolve(a, [0.5, 1.0, 0.5])[1:] / scale**2
    b[0] += 0.5 * _INV_SQRT_PI / scale
    return np.append(b, np.zeros(-b.size % block)).reshape(-1, block)


_WEIDEMAN_SINES = _sine_blocks(_WEIDEMAN, _FADDEEVA_L, _FADDEEVA_BLOCK)  # row j: b_{7j+1} ..
# (2k - 1)!! / (2^k sqrt(pi)), k = 10 .. 0: the asymptotic series in u = 1 / z^2
_ASYMPTOTIC_HORNER = tuple(
    math.prod(range(1, 2 * k, 2)) / 2**k * _INV_SQRT_PI for k in range(10, -1, -1)
)


def _faddeeva_scalar(z: complex) -> complex:
    """w(z) for a Python complex, in scalar arithmetic."""
    if abs(z) < _FADDEEVA_RADIUS:
        d = _FADDEEVA_L - 1j * z
        big_z = (_FADDEEVA_L + 1j * z) / d
        p = 0.0
        for a in _WEIDEMAN_HORNER:
            p = p * big_z + a
        return (2.0 * p / d + _INV_SQRT_PI) / d
    v = 1.0 / z
    u = v * v
    s = 0.0
    for c in _ASYMPTOTIC_HORNER:
        s = s * u + c
    return 1j * v * s


def _weideman_imag(x: np.ndarray) -> np.ndarray:
    """Im w(x) for real 0 <= x < _FADDEEVA_RADIUS (1-D).  On the real axis
    Z = e^{i theta}, 1 / d^2 = Z / (L^2 + x^2), 1 / (L^2 + x^2) = (1 + cos theta) / 2 L^2
    and x / (L^2 + x^2) = sin theta / 2L, so the series is the sine series
    Im w(x) = Sum_{k=1}^{N+1} b_k sin(k theta) = Im Sum_k b_k Z^k (`_sine_blocks`).
    It runs by blocks: the powers Z^1 .. Z^7 by doubling, each the product of two
    lower ones; every block's polynomial in Z by one real matrix product; Horner's
    rule in Z^7 over the six blocks."""
    step = _FADDEEVA_CHUNK
    if x.size > step:
        return np.concatenate([_weideman_imag(x[i : i + step]) for i in range(0, x.size, step)])
    powers = np.empty((_FADDEEVA_BLOCK, x.size), dtype=complex)  # row j: Z^{j+1}
    ix = 1j * x
    np.divide(_FADDEEVA_L + ix, _FADDEEVA_L - ix, out=powers[0])
    done = 1
    while done < _FADDEEVA_BLOCK:
        more = min(done, _FADDEEVA_BLOCK - done)
        np.multiply(powers[:more], powers[done - 1], out=powers[done : done + more])
        done += more
    # real coefficients times complex powers, as one real matrix product
    blocks = (_WEIDEMAN_SINES @ powers.view(float)).view(complex)
    series = blocks[-1]
    for row in blocks[-2::-1]:
        series *= powers[-1]
        series += row
    return series.imag


def _asymptotic_imag(x: np.ndarray) -> np.ndarray:
    """Im w(x) for real x >= _FADDEEVA_RADIUS, by the asymptotic series in real
    arithmetic; Re w = e^{-x^2} is below 1e-60 of it there."""
    v = 1.0 / x
    u = v * v
    s = _ASYMPTOTIC_HORNER[0] * u
    for c in _ASYMPTOTIC_HORNER[1:-1]:
        s += c
        s *= u
    s += _ASYMPTOTIC_HORNER[-1]
    s *= v
    return s


def _faddeeva_real(x: np.ndarray) -> np.ndarray:
    """w(x) = e^{-x^2} + 2i D(x) / sqrt(pi) on a 1-D real array; Im w is odd, and
    is taken at |x|."""
    ax = np.abs(x)
    near = ax < _FADDEEVA_RADIUS
    out = np.zeros(x.shape, dtype=complex)
    if near.all():
        im = _weideman_imag(ax)
        np.exp(-np.square(ax), out=out.real)
    else:  # the series on every point, clamped, then the few near ones replaced
        im = _asymptotic_imag(np.maximum(ax, _FADDEEVA_RADIUS))
        i = np.flatnonzero(near)
        im[i] = _weideman_imag(ax[i])
        # e^{-x^2} is exactly 0 from |x| = 27.3 on; exp is not taken there, where
        # its underflowing results take a slow path
        i = np.flatnonzero(ax < 28.0)
        out.real[i] = np.exp(-np.square(ax[i]))
    np.copysign(im, x, out=out.imag)
    return out


def _faddeeva(z):
    """The Faddeeva function w(z) = e^{-z^2} erfc(-iz) for Im z >= 0 (down to
    Im z = -1e-12), to about 1e-15 relative.

    A real array takes the Dawson form w(x) = e^{-x^2} + 2i D(x) / sqrt(pi),
    vectorized.  Complex z, which only pointwise callers pass, run entry by
    entry in Python's scalar arithmetic, so that an entry of an array equals
    its lone evaluation bit for bit.  Where |z| is infinite, its limit 0.
    """
    arr = np.asarray(z)
    if arr.dtype.kind == "c":
        out = [_faddeeva_scalar(v) for v in arr.ravel().tolist()]
        return np.array(out, dtype=complex).reshape(arr.shape)
    return _faddeeva_real(arr.ravel()).reshape(arr.shape)


def dawson(x):
    """Dawson integral D(x) = exp(-x^2) * Int_0^x exp(y^2) dy = (sqrt(pi) / 2) Im w(x),
    w the Faddeeva function (`_faddeeva`).

    Accepts a float or an array; relative error about 1e-15.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("dawson: input must be finite")
    out = (0.5 * math.sqrt(math.pi)) * _faddeeva(arr).imag
    return float(out) if arr.ndim == 0 else out


def _radial_nodes(k_max: float, step: float) -> np.ndarray:
    """The trapezoid nodes k_n = n h, n = 0 .. 2N, on [0, k_max]: the least even
    number 2N of steps with h = k_max / 2N <= step, so that the even nodes
    make the rule of step 2h."""
    if not (k_max > 0 and math.isfinite(k_max)):
        raise InvalidArgumentError("integrate_radial: k_max must be finite and > 0")
    n_k = k_max / step if step > 0 else math.inf
    if not n_k < _MAX_K_NODES:
        raise InvalidArgumentError(
            f"radial quadrature: {n_k:.3g} k nodes up to k_max = {k_max:g}, more than "
            f"{_MAX_K_NODES}; lower |mu| or mu_max"
        )
    return np.linspace(0.0, k_max, 2 * math.ceil(0.5 * n_k) + 1)


def integrate_radial(f, k_max: float, *, step=None, endpoint=None, return_error: bool = False):
    """Trapezoid estimate T(h) of Int_0^inf f(k) dk, truncated at k_max.

    ``f`` takes a 1-D ndarray of k and returns an array of the same shape, or
    an (R, N) stack of R integrands on those N nodes, which then gives a list of
    R values (and of R error estimates); it is called once, on the nodes k > 0 of
    `_radial_nodes(k_max, step)` (step k_max / 4000 by default).  The rule
    converges exponentially when f vanishes at 0, is even there and has decayed
    by k_max (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  Otherwise
    ``endpoint(h)``, the error of the rule of step h in closed form (per row for
    a stack), is added.  Raises InvalidArgumentError unless k_max is finite and
    > 0, and ConvergenceError (carrying the value and the error estimate
    |T(h) - T(2h)| of the first failing row, T(2h) from the even nodes) when
    f is not finite or a row's estimate exceeds _TOL * max(1, |value|).
    """
    k = _radial_nodes(k_max, k_max / 4000.0 if step is None else step)
    h = k[1] - k[0]
    fx = np.asarray(f(k[1:]), dtype=float)
    if not np.isfinite(fx).all():
        raise ConvergenceError(
            "radial quadrature: the integrand is not finite",
            estimate=math.nan,
            error_bound=math.inf,
        )
    # each row summed along its own contiguous axis, as a 1-D f is, bit for bit
    fine, coarse = h * fx.sum(axis=-1), 2.0 * h * fx[..., 1::2].sum(axis=-1)
    if endpoint is not None:
        fine, coarse = fine + endpoint(h), coarse + endpoint(2.0 * h)
    values, bounds = fine.tolist(), abs(fine - coarse).tolist()  # floats, or lists of R
    for value, bound in zip(values, bounds) if fx.ndim > 1 else [(values, bounds)]:
        if not bound <= _TOL * max(1.0, abs(value)):
            raise ConvergenceError(
                f"radial quadrature: error estimate {bound:.3g} on {fx.shape[-1]} nodes "
                "misses the tolerance",
                estimate=value,
                error_bound=bound,
            )
    return (values, bounds) if return_error else values


def _check_spacing(dmu: float) -> float:
    """The mu grid step dmu, which must be > 0 with pi / dmu (the W grid's edge) finite."""
    if not (dmu > 0.0 and math.isfinite(math.pi / dmu)):
        raise InvalidArgumentError(
            f"CharFnGrid: mu spacing must be > 0 with pi / spacing finite, not {dmu:g}"
        )
    return dmu


def _check_window(phi: float, dmu: float) -> None:
    """With phi = (P~ - atom) / (1 - atom), Re phi(dmu) ~ 1 - dmu^2 <W^2> / 2; below
    1 - pi^2 / 50 the window |W| <= pi / dmu ends within about 5 rms of the density,
    which then aliases into it, and InvalidArgumentError is raised."""
    if not phi >= 1.0 - math.pi**2 / 50.0:
        raise InvalidArgumentError(
            f"invert_charfn: the density is wider than the W window |W| <= {math.pi / dmu:.3g} "
            f"(Re phi(dmu) = {phi:.3g}); raise the number of points or lower mu_max"
        )


@dataclass
class CharFnGrid:
    """Characteristic function sampled on the half grid mu_n = n dmu, n = 0 .. N/2.

    P~(-mu) = conj P~(mu) gives the other half, so these N/2 + 1 samples are
    the whole DFT-layout spectrum of N = 2 (len - 1) points.
    """

    mu: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.mu.ndim != 1 or self.mu.size < 5:
            raise InvalidArgumentError("CharFnGrid: need a 1-D grid of >= 5 mu samples")
        if self.values.shape != self.mu.shape:
            raise InvalidArgumentError("CharFnGrid: mu/values shape mismatch")
        if self.mu[0] != 0.0:
            raise InvalidArgumentError("CharFnGrid: mu grid must start at 0")
        d = np.diff(self.mu)
        _check_spacing(float(d[0]))
        if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
            raise InvalidArgumentError("CharFnGrid: mu grid must be uniform")
        if abs(self.values[0] - 1.0) > _GRID_CHECK_TOL:
            raise InvalidArgumentError("CharFnGrid: P~(0) must equal 1")

    @property
    def spacing(self) -> float:
        return float(self.mu[1] - self.mu[0])


DEFAULT_MU_POINTS = 2**14
DEFAULT_MU_MAX = 1536.0


def _dft_step(mu_points, mu_max: float) -> tuple:
    """(N, dmu = 2 mu_max / N) of the DFT-layout grid of N = ``mu_points`` points
    in [-mu_max, mu_max), whose half mu = n dmu, n = 0 .. N/2, `charfn_grid` samples."""
    n = int(mu_points)
    if n < 8 or n % 2 != 0:
        raise InvalidArgumentError("charfn_grid: mu_points must be even and >= 8")
    return n, _check_spacing(2.0 * mu_max / n)


def _dft_distribution(atom, density, dmu, mu_max, window_residual, clamped=0, worst=0.0,
                      violation=False) -> WorkDistribution:
    """The atom at W = 0 and the density on w_m = (m - N/2) 2 pi / (N dmu), m = 0 .. N-1
    (W = 0 at index N/2), conjugate to the N = len(density) mu points of step dmu in
    [-mu_max, mu_max), with the grid, the window residual and `invert_charfn`'s clamping."""
    n = density.size
    return WorkDistribution(
        atom_weight=atom,
        w_grid=(np.arange(n) - n // 2) * (2.0 * math.pi / (n * dmu)),
        density=density,
        metadata={
            "mu_max": mu_max,
            "mu_points": n,
            "clamped_points": clamped,
            "worst_negative_density": worst,
            "negative_floor_violation": violation,
            "window_residual": window_residual,
        },
    )


# Negative density samples smaller than this fraction of the density peak are
# attributed to finite-window ringing and clamped to zero; larger violations
# set the `negative_floor_violation` diagnostic instead of being hidden.
CLAMP_REL_FLOOR = 1e-6


def invert_charfn(grid: CharFnGrid, atom: float) -> WorkDistribution:
    """Inverse Fourier transform of a sampled characteristic function with a
    known atom of weight ``atom`` at W = 0.

    The density is returned on the W grid conjugate to the mu grid,
    w_m = (m - N/2) * 2 pi / (N dmu) for m = 0..N-1, N = 2 (len(grid.mu) - 1),
    so W = 0 sits at index N/2.  The atom is subtracted from P~ before the
    transform, so the density is the absolutely continuous part.  The
    metadata key ``window_residual``, the largest |P~ - atom| at
    mu >= 0.9 mu_max, is the level of that part's transform where the window
    cuts it off.  The real inverse FFT takes P~(-mu) = conj P~(mu), and only
    Re P~ at mu_max, the Nyquist point.  A density wider than the W window is
    refused (`_check_window`, from the first sample).
    """
    n = 2 * (grid.mu.size - 1)
    dmu = grid.spacing
    mu_max = float(grid.mu[-1])

    f = grid.values - atom
    _check_window((f[1] / (1.0 - atom)).real if atom < 1.0 else 1.0, dmu)
    window_residual = float(np.max(np.abs(f[grid.mu >= 0.9 * mu_max])))
    # irfft(X)_m = (1/N) Sum_n X_n e^{+2 pi i n m / N} over the Hermitian
    # extension of X, and mu_n w_m = 2 pi n m / N: with X = conj f it is
    # (1/N) Sum_n f_n e^{-i mu_n w_m}, and the shift moves W = 0 to index N/2
    density = np.fft.fftshift(np.fft.irfft(np.conj(f), n)) * (n * dmu / (2.0 * math.pi))

    peak = float(np.max(np.abs(density)))
    floor = CLAMP_REL_FLOOR * peak
    neg = density < 0.0
    small_neg = neg & (density >= -floor)
    clamped = int(np.count_nonzero(small_neg))
    worst_negative = float(density.min()) if neg.any() else 0.0
    violation = bool(np.any(density < -floor))
    density[small_neg] = 0.0

    return _dft_distribution(atom, density, dmu, mu_max, window_residual, clamped,
                             worst_negative, violation)
