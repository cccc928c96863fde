"""Whittle-Matern kernel family.

Radial profiles are normalized so the profile value at r = 0 is 1, and the
kernel value is ``amplitude * profile(r)``.  For d = 1 every m has the
closed form exp(-r) p_m(r), p_m the reverse Bessel polynomial,

    m = 1:  exp(-r)
    m = 2:  (1 + r) exp(-r)
    m = 3:  (1 + r + r^2/3) exp(-r)

while d >= 2 is evaluated through the modified Bessel profile
r^nu K_nu(r) / (2^(nu-1) Gamma(nu)) with nu = m - d/2.  The native space of
the kernel with smoothness index m is norm-equivalent to the Sobolev space
W_2^m, which embeds into continuous functions exactly when 2m > d; the
constructor enforces that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "paper_amplitude",
    "kernel_eval",
    "exp_poly_coeffs",
    "tail_energy",
]

# Below this radius the Bessel profile is replaced by its limit value 1;
# the profile deviates from 1 by O(r^2) there, far under double precision.
_BESSEL_CUTOFF = 1e-8


def _exp_poly(m):
    # The d = 1 profile exp(-r) p(r): the reverse Bessel coefficients
    # c_k = (2m-2-k)! (m-1)! 2^k / ((2m-2)! k! (m-1-k)!) of p, lowest degree
    # first, each rounded once (integer true division).  kernel_eval and the
    # state-space solver both read them, so they cannot disagree.
    f, n = math.factorial, 2 * m - 2
    return tuple(f(n - k) * f(m - 1) * 2**k / (f(n) * f(k) * f(m - 1 - k)) for k in range(m))


def _exp_tail(q, a):
    # Every d = 1 closed form rests on this: the integral of exp(-a r) q(r) over
    # r > u is exp(-a u) t(u), t = sum_k q^(k) / a^(k+1): a t_k = q_k + (k+1) t_(k+1).
    t = [0.0] * (len(q) + 1)
    for k in range(len(q) - 1, -1, -1):
        t[k] = (q[k] + (k + 1) * t[k + 1]) / a
    return t[:-1]


def _horner(coeffs, r):
    if len(coeffs) == 1:
        return np.full(np.shape(r), coeffs[0])
    poly = coeffs[-1] * r  # then in place: one array of r's shape
    poly += coeffs[-2]
    for c in coeffs[-3::-1]:
        poly *= r
        poly += c
    return poly


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
        for name in ("m", "d"):  # a bool would pass the integer test as 0 or 1
            v = getattr(self, name)
            if isinstance(v, (bool, np.bool_)) or not float(v).is_integer() or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))
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
    from scipy.special import kv

    lim = 2.0 ** (nu - 1.0) * math.gamma(nu)
    safe = np.where(r > _BESSEL_CUTOFF, r, 1.0)
    vals = safe**nu * kv(nu, safe) / lim
    return np.where(r > _BESSEL_CUTOFF, vals, 1.0)


def exp_poly_coeffs(k):
    """Coefficients of p, lowest degree first, when the profile of k is
    exp(-r) * p(r) in closed form (d = 1); None for the Bessel form."""
    return _exp_poly(k.m) if k.d == 1 else None


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
        out = _bessel_profile(k.nu, arr)
    else:
        out = np.empty(arr.shape)  # built in place: one array beyond it at most
        np.exp(np.negative(arr, out=out), out=out)
        if len(coeffs) > 1:
            out *= _horner(coeffs, arr)
    out *= k.amplitude
    return float(out) if arr.ndim == 0 else out


def tail_energy(k, R):
    """Integral of K(y)^2 over |y| > R: 2 amplitude^2 exp(-2R) t(R) for
    d = 1, t = sum_k (p^2)^(k) / 2^(k+1); d >= 2 integrates the squared
    profile numerically.  Strictly decreasing in R, tending to 0.
    """
    R = float(R)
    if not (np.isfinite(R) and R >= 0):
        raise ValueError(f"R must be finite and nonnegative, got {R!r}")
    amp2 = k.amplitude**2
    p = exp_poly_coeffs(k)
    if p is not None:
        return float(2 * amp2 * math.exp(-2 * R) * _horner(_exp_tail(np.convolve(p, p), 2.0), R))
    from scipy.integrate import quad

    # surface measure of the unit sphere times the radial integral
    surf = 2.0 * math.pi ** (k.d / 2.0) / math.gamma(k.d / 2.0)
    val, _ = quad(
        lambda r: kernel_eval(k, r) ** 2 * r ** (k.d - 1), R, np.inf, epsabs=1e-13
    )
    return surf * val
