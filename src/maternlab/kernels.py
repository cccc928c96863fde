"""Whittle-Matern kernel family.

Radial profiles are normalized so the profile value at r = 0 is 1, and the
kernel value is ``amplitude * profile(r)``.  For d = 1 the two smoothness
indices used throughout the experiments carry closed forms,

    m = 1:  exp(-r)
    m = 2:  (1 + r) exp(-r)

while other (m, d) pairs are evaluated through the modified Bessel profile
r^nu K_nu(r) / (2^(nu-1) Gamma(nu)) with nu = m - d/2.  The native space of
the kernel with smoothness index m is norm-equivalent to the Sobolev space
W_2^m, which embeds into continuous functions exactly when 2m > d; the
constructor enforces that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import kv

__all__ = [
    "KernelSpec",
    "paper_amplitude",
    "kernel_eval",
    "exp_poly_coeffs",
    "kernel_translate_deriv",
    "fourier_symbol",
    "convolution_root",
    "tail_energy",
    "boundary_layer_width",
]

# Below this radius the Bessel profile is replaced by its limit value 1;
# the profile deviates from 1 by O(r^2) there, far under double precision.
_BESSEL_CUTOFF = 1e-8

# d = 1 profiles of the form exp(-r) * p(r), keyed by m: the coefficients of
# p, lowest degree first.  kernel_eval and the fast interpolant evaluation
# both read this table, so they cannot disagree on which profiles qualify.
_EXP_POLY = {1: (1.0,), 2: (1.0, 1.0)}


def paper_amplitude(m, d=1):
    """Amplitude 2^(nu-1) * Gamma(nu) for nu = m - d/2.

    This is the constant that turns the unit-normalized profile into the
    bare Bessel form r^nu K_nu(r); for m = 2, d = 1 it equals sqrt(pi/2).
    """
    nu = m - d / 2.0
    if nu <= 0:
        raise ValueError(f"amplitude undefined for nu = m - d/2 = {nu} <= 0")
    return 2.0 ** (nu - 1.0) * math.gamma(nu)


@dataclass(frozen=True)
class KernelSpec:
    """A Matern-family radial kernel.

    Parameters
    ----------
    m : int
        Sobolev smoothness index; the native space is (equivalent to) W_2^m.
    d : int, optional
        Space dimension, default 1.
    amplitude : float, optional
        Multiplicative constant, default 1.0.
    """

    m: int
    d: int = 1
    amplitude: float = 1.0

    def __post_init__(self):
        if not float(self.m).is_integer() or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not float(self.d).is_integer() or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        if 2 * self.m <= self.d:
            raise ValueError(
                f"need 2m > d for pointwise evaluation, got m={self.m}, d={self.d}"
            )
        if not (np.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be positive, got {self.amplitude!r}")

    @property
    def nu(self):
        """Bessel order m - d/2 of the radial profile."""
        return self.m - self.d / 2.0

    def __call__(self, r):
        return kernel_eval(self, r)


def _bessel_profile(nu, r):
    # r^nu K_nu(r) tends to 2^(nu-1) Gamma(nu) as r -> 0; divide that out
    # so the profile is 1 at the origin, and guard the K_nu overflow there.
    lim = 2.0 ** (nu - 1.0) * math.gamma(nu)
    safe = np.where(r > _BESSEL_CUTOFF, r, 1.0)
    vals = safe**nu * kv(nu, safe) / lim
    return np.where(r > _BESSEL_CUTOFF, vals, 1.0)


def exp_poly_coeffs(k):
    """Coefficients of p, lowest degree first, when the profile of k is
    exp(-r) * p(r) in closed form; None when it goes through the Bessel form."""
    return _EXP_POLY.get(k.m) if k.d == 1 else None


def kernel_eval(k, r):
    """Evaluate ``amplitude * profile(r)`` at radii r >= 0.

    Accepts scalars or arrays; scalars come back as float.  Strictly
    positive and nonincreasing in r for every profile in the family.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("radius must be finite")
    if np.any(arr < 0):
        raise ValueError("radius must be nonnegative")
    coeffs = exp_poly_coeffs(k)
    if coeffs is None:
        prof = _bessel_profile(k.nu, arr)
    else:
        poly = coeffs[-1]
        for c in coeffs[-2::-1]:
            poly = poly * arr + c
        prof = poly * np.exp(-arr)
    out = k.amplitude * prof
    return float(out) if arr.ndim == 0 else out


def kernel_translate_deriv(k, x, order):
    """Derivative of x -> kernel_eval(k, |x|) for the m = 2, d = 1 kernel.

    Supported orders are 0..3.  The translate is C^2 on the line; the third
    derivative jumps at x = 0, where the right-sided limit is returned and a
    RuntimeWarning flags the one-sidedness.

    Parameters
    ----------
    k : KernelSpec
        Must have m = 2 and d = 1; other members of the family are not C^2.
    x : float or array_like
    order : int
        Derivative order, 0 to 3.
    """
    if k.m != 2 or k.d != 1:
        raise ValueError("translate derivatives are implemented for m=2, d=1 only")
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0..3, got {order!r} (4th derivative jumps at 0)")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    r = np.abs(arr)
    decay = np.exp(-r)
    if order == 0:
        out = (1.0 + r) * decay
    elif order == 1:
        out = -arr * decay
    elif order == 2:
        out = (r - 1.0) * decay
    else:
        if np.any(arr == 0):
            warnings.warn(
                "third derivative of the kernel translate is one-sided at x=0; "
                "returning the right-hand limit",
                RuntimeWarning,
                stacklevel=2,
            )
        out = np.where(arr == 0, 2.0, np.sign(arr) * (2.0 - r) * decay)
    out = k.amplitude * out
    return float(out) if arr.ndim == 0 else out


def fourier_symbol(k, omega):
    """Symbol (1 + omega^2)^(-m) of the kernel, normalization constants dropped.

    No 2*pi convention is tracked; the symbol is meaningful only in ratios
    and identities, never with absolute normalization.
    """
    arr = np.asarray(omega, dtype=float)
    out = (1.0 + arr * arr) ** (-float(k.m))
    return float(out) if arr.ndim == 0 else out


def convolution_root(k):
    """The kernel whose Fourier symbol squares to the symbol of k.

    Defined for even m provided the root smoothness m/2 still satisfies
    2(m/2) > d; otherwise the root leaves the pointwise-defined family and a
    ValueError is raised.  The root amplitude is sqrt(amplitude); profile
    constants beyond the symbol identity are not tracked.
    """
    if k.m % 2 != 0:
        raise ValueError(f"no convolution root in the family for odd m = {k.m}")
    half = k.m // 2
    if 2 * half <= k.d:
        raise ValueError(
            f"root smoothness m/2 = {half} violates 2(m/2) > d = {k.d}; "
            "the root is not pointwise defined"
        )
    return KernelSpec(m=half, d=k.d, amplitude=math.sqrt(k.amplitude))


def tail_energy(k, R):
    """Integral of K(y)^2 over |y| > R.

    Closed forms cover d = 1 with m in {1, 2}; everything else integrates
    the squared profile numerically.  Strictly decreasing in R, tending to 0.
    """
    R = float(R)
    if not (np.isfinite(R) and R >= 0):
        raise ValueError(f"R must be finite and nonnegative, got {R!r}")
    amp2 = k.amplitude**2
    if k.d == 1 and k.m == 1:
        return amp2 * math.exp(-2.0 * R)
    if k.d == 1 and k.m == 2:
        u = 1.0 + R
        return amp2 * math.exp(-2.0 * R) * (u * u + u + 0.5)
    # surface measure of the unit sphere times the radial integral
    surf = 2.0 * math.pi ** (k.d / 2.0) / math.gamma(k.d / 2.0)
    val, _ = quad(
        lambda r: kernel_eval(k, r) ** 2 * r ** (k.d - 1), R, np.inf, epsabs=1e-13
    )
    return surf * val


def boundary_layer_width(k, v_norm, tol):
    """Smallest R with v_norm^2 * tail_energy(k, R) <= tol^2.

    Solved by bisection to an interval width of 1e-10.  Returns 0 when the
    inequality already holds at R = 0 (in particular for v_norm = 0).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if v_norm < 0:
        raise ValueError(f"v_norm must be nonnegative, got {v_norm!r}")
    target = tol * tol

    def satisfied(R):
        return v_norm * v_norm * tail_energy(k, R) <= target

    if satisfied(0.0):
        return 0.0
    hi = 1.0
    while not satisfied(hi):
        hi *= 2.0
        if hi > 2**60:
            raise ArithmeticError("tail energy does not reach tol; kernel not decaying?")
    lo = 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi
