"""Whittle-Matern kernel family on the line.

Radial profiles are normalized so the profile value at r = 0 is 1, and the
kernel value is ``amplitude * profile(r)``.  Every m has the closed form
exp(-r) p_m(r), p_m the reverse Bessel polynomial,

    m = 1:  exp(-r)
    m = 2:  (1 + r) exp(-r)
    m = 3:  (1 + r + r^2/3) exp(-r)

which is r^nu K_nu(r) / (2^(nu-1) Gamma(nu)) with nu = m - 1/2.  The lab
works on the line only (d = 1), where the native space of the kernel with
smoothness index m is norm-equivalent to the Sobolev space W_2^m.
_translate_sum sums translates c_q K(|x - y_q|) (mercer.eigen_extend's
extensions), _kernel_rows samples kernel matrices and _slices blocks
points, the one blocking rule (_by_blocks joins one result per slice).

The argument rules live here, one per kind, and no other module turns an
argument into a number or an index; each refusal is a ValueError naming it.
_positive_int reads m (at most 85, see KernelSpec) and sizes, _finite real
parameters, _interval the endpoints a < b, _points arrays of finite points,
radii and values (_reals, its dtype half, lets NaN and inf through) and
_index indices in 0..size - 1.  None reads a bool, a string, None, a complex
number or an integer too large for a float as a number, nor 2.0 as an index.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "paper_amplitude",
    "kernel_eval",
    "tail_energy",
]

# Kernel entries per block of rows of a kernel matrix (2 MB); the
# structured paths take 1/64 as many points, so their work arrays fit in cache.
_BLOCK_ENTRIES = 1 << 18


def _capped(m, r, out=None):
    # exp(-r) is 0 from r = 745.2, but for m >= 3 a polynomial in r beside it
    # overflows from r ~ 1e154 and 0 * inf is NaN, so radii past 1e3 read as
    # 1e3 there; the polynomials of m = 1 and 2 are finite at every finite r.
    return np.minimum(r, 1e3, out=out) if m >= 3 else r


def _exp_poly(m):
    # The profile exp(-r) p(r): the reverse Bessel coefficients
    # c_k = (2m-2-k)! (m-1)! 2^k / ((2m-2)! k! (m-1-k)!) of p, lowest degree
    # first, each rounded once (integer true division).  kernel_eval and the
    # state-space solver both read them, so they cannot disagree.
    f, n = math.factorial, 2 * m - 2
    return tuple(f(n - k) * f(m - 1) * 2**k / (f(n) * f(k) * f(m - 1 - k)) for k in range(m))


def _exp_tail(q, a):
    # Every closed form rests on this: the integral of exp(-a r) q(r) over
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


def _real(v):
    # a finite real number, numpy scalars included, but no bool (it would pass
    # as 0 or 1) and no integer past the largest float (float() overflows)
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _positive_int(v, name, zero=False, top=math.inf):
    # v as an int: a real number with an integral value in 1..top (0..top when zero)
    if not _real(v) or not float(v).is_integer() or v < (0 if zero else 1):
        raise ValueError(f"{name} must be a {'nonnegative' if zero else 'positive'} integer, got {v!r}")
    if v > top:
        raise ValueError(f"{name} must be at most {top}, got {v!r}")
    return int(v)


def _finite(v, name, zero=False):
    # v as a float: a finite real number above 0 (or at least 0 when zero)
    if not _real(v) or not (v >= 0 if zero else v > 0):
        raise ValueError(f"{name} must be finite and {'nonnegative' if zero else 'positive'}, got {v!r}")
    return float(v)


def _interval(a, b):
    # the endpoints as floats: finite real numbers with a < b
    if not (_real(a) and _real(b) and a < b):
        raise ValueError(f"need finite a < b, got a={a!r}, b={b!r}")
    return float(a), float(b)


def _reals(x, what):
    # _points' dtype half, NaN and inf kept: complex, string and None entries
    # and integers too large for a float are refused before any cast
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf" and not (arr.dtype.kind == "O" and all(map(_real, arr.flat))):
        raise ValueError(f"{what} must be finite")
    return arr.astype(float, copy=False)


def _points(x, what):
    # x as a float array, a float array itself uncopied, every entry finite
    arr = _reals(x, what)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def _index(v, size, name):
    # v as an integer array (a scalar stays 0-d) of entries in 0..size - 1: no
    # bool (np.asarray([0, True]) is int64), float (2.0 too), string or object
    arr = np.asarray(v)
    bools = any(isinstance(e, (bool, np.bool_)) for e in np.asarray(v, dtype=object).flat)
    if bools or arr.dtype.kind not in "iu" or not ((arr >= 0) & (arr < size)).all():
        raise ValueError(f"{name} must be {'integers' if arr.ndim else 'an integer'} in 0..{size - 1}, got {v!r}")
    return arr


def paper_amplitude(m):
    """Amplitude 2^(nu-1) * Gamma(nu) for nu = m - 1/2.

    This is the constant that turns the unit-normalized profile into the
    bare Bessel form r^nu K_nu(r); for m = 2 it equals sqrt(pi/2).  m is
    read as KernelSpec reads it: a positive integer up to 85.
    """
    nu = KernelSpec(m).m - 0.5
    return 2.0 ** (nu - 1.0) * math.gamma(nu)


@dataclass(frozen=True)
class KernelSpec:
    """A Matern-family kernel on the line.

    Parameters
    ----------
    m : int
        Sobolev smoothness index; the native space is (equivalent to) W_2^m.
        At most 85: the solver's closed forms divide by factorials up to
        (2m - 1)!, and 171! is the first that is no finite double.
    amplitude : float, optional
        Multiplicative constant, default 1.0, stored as a float.
    """

    m: int
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m", _positive_int(self.m, "m", top=85))
        object.__setattr__(self, "amplitude", _finite(self.amplitude, "amplitude"))

    def __call__(self, r):
        return kernel_eval(self, r)


def kernel_eval(k, r, out=None):
    """Evaluate ``amplitude * profile(r)`` at radii r >= 0.

    Accepts scalars or arrays; scalars come back as float.  Positive and
    nonincreasing in r, 0 where exp(-r) underflows, for every profile in the
    family.  An array out of r's shape receives the values; it may be r itself.
    """
    arr = _points(r, "radius")
    if np.any(arr < 0):
        raise ValueError("radius must be nonnegative")
    coeffs = _exp_poly(k.m)
    if k.m >= 3:  # the capped radii in out, where exp(-r) is then taken
        out = arr = _capped(k.m, arr, out=np.empty(arr.shape) if out is None else out)
    # p(r) before out is written, since out may hold r: one array beyond it
    poly = _horner(coeffs, arr) if len(coeffs) > 1 else None
    out = np.empty(arr.shape) if out is None else out
    np.exp(np.negative(arr, out=out), out=out)
    if poly is not None:
        out *= poly
    out *= k.amplitude
    return float(out) if arr.ndim == 0 else out


def _slices(size, width=64):
    # The one blocking rule: consecutive slices of at most _BLOCK_ENTRIES // width
    # of size points, each stopping at size (one empty slice for no points).
    rows = max(1, _BLOCK_ENTRIES // width)
    return [slice(lo, min(lo + rows, size)) for lo in range(0, max(size, 1), rows)]


def _by_blocks(block, size, width=64):
    # block(b) for b in _slices(size, width), joined.  Joining keeps the
    # evaluation paths' allocation pattern: a result made before the blocks
    # took an m = 2 rate study from 418 to 732 page faults.
    return np.concatenate([block(b) for b in _slices(size, width)])


def _kernel_rows(k, y, x):
    # kernel_eval(k, |y_i - x_j|) for 1-D y and x, evaluated in a new array
    # in blocks of rows of _BLOCK_ENTRIES entries: each block's radii are
    # written there and overwritten by the kernel values, so beside it only
    # one block's work arrays are held (its polynomial).
    out = np.empty((y.size, x.size))
    for b in _slices(y.size, x.size):
        r = np.subtract(y[b, None], x, out=out[b])
        kernel_eval(k, np.abs(r, out=r), out=r)
    return out


def _cells(x, pts):
    # np.searchsorted(x, pts, side="right"), the count of nodes at or left of
    # each point.  Ascending points merge with the nodes in their range in
    # O(M + N log M): a run of points per node.  Others search, O(M log N).
    if pts.ndim == 1 and pts.size > 1 and (pts[1:] >= pts[:-1]).all():
        lo, hi = np.searchsorted(x, pts[[0, -1]], side="right")
        runs = np.diff(np.concatenate(([0], np.searchsorted(pts, x[lo:hi]), [pts.size])))
        return np.repeat(np.arange(lo, hi + 1), runs)
    return np.searchsorted(x, pts, side="right")


def _translate_sum(k, y, c, x):
    """sum_q c_q K(|x - y_q|) at M points x (1-D) for ascending centres y and
    c of shape (Q,) or (Q, K), shaped x.shape + c.shape[1:].

    The kernel e^{-r} p(r) sums by moments in O((Q + M) K m): the nodes
    at or left of a point enter through L_j = sum_{q <= p} c_q d^j e^{-d},
    d = y_p - y_q, j < m, of the nearest one, y_p, at distance t: p(t + d) =
    sum_j p^(j)(t) d^j / j! makes their sum e^{-t} sum_j p^(j)(t) L_j / j!.
    Mirrored moments serve the rest.
    """
    coeffs = _exp_poly(k.m)
    m, derivs = len(coeffs), [coeffs]  # coefficients of p^(j), lowest degree first
    while len(derivs) < m:
        derivs.append([i * a for i, a in enumerate(derivs[-1])][1:])

    def moments(y, c):
        # Per block of nodes less than 1 past its first node y_lo, s = y - y_lo:
        # L_j = sum_i C(j, i) s^(j-i) (-1)^i e^{-s} cumsum(c s^i e^s), plus the
        # node before the block carried in with e^{-d} sum_i C(j, i) d^(j-i) L_i.
        # So e^{+-s} cannot overflow and the binomial sum rounds to at most
        # 2^j eps of its terms.  Row 0 stands for "no node".
        out = np.zeros((m, y.size + 1, c.shape[1]))
        cuts = np.flatnonzero(np.diff(np.floor(y - y[0]))) + 1
        bounds = [0, *cuts, y.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            s = (y[lo:hi] - y[lo])[:, None]
            d = (y[lo:hi] - y[max(lo - 1, 0)])[:, None]
            prev, grown = out[:, lo], c[lo:hi] * np.exp(s)
            es, sums = np.exp(-s), []
            for i in range(m):
                sums.append(es * np.cumsum(grown, axis=0))
                grown = grown * s
            for j in range(m):
                lj, carry = sums[0], prev[j]  # Horner in s over the binomial sum
                for i in range(1, j + 1):
                    lj = lj * s + (-1) ** i * math.comb(j, i) * sums[i]
                    carry = carry + math.comb(j, j - i) * d**i * prev[j - i]
                out[j, lo + 1 : hi + 1] = lj + np.exp(-d) * carry
        return out

    cols = c.reshape(y.size, -1)
    idx = _cells(y, x)  # nodes at or left of each point
    left = moments(y, cols)[:, idx]
    right = moments(-y[::-1], cols[::-1])[:, ::-1][:, idx]
    ypad = np.r_[y[0], y, y[-1]]
    out = 0.0
    # t < 0 only where the zero row stands for a missing node
    for mom, t in ((left, x - ypad[idx]), (right, ypad[idx + 1] - x)):
        t = _capped(m, np.maximum(t, 0.0))[:, None]
        total = sum(_horner(derivs[j], t) / math.factorial(j) * mom[j] for j in range(m))
        out = out + np.exp(-t) * total
    return k.amplitude * out.reshape(x.shape + c.shape[1:])


def tail_energy(k, R):
    """Integral of K(y)^2 over |y| > R: 2 amplitude^2 exp(-2R) t(R),
    t = sum_k (p^2)^(k) / 2^(k+1).  Strictly decreasing in R, tending to 0.
    """
    R = _finite(R, "R", zero=True)
    p = _exp_poly(k.m)
    return float(2 * k.amplitude**2 * math.exp(-2 * R) * _horner(_exp_tail(np.convolve(p, p), 2.0), R))
