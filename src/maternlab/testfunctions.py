"""Indicator convolutions, the explicit test function and boundary-condition residuals.

For every kernel K, K * chi_[a,b] = H(x - a) - H(x - b) in closed form, in
every derivative order 0..2m-1 (order 2m jumps at a and b, since the
convolved density is the indicator).  box_convolution is the [-1, 1] case
and convolve_with_indicator the value on any [a, b].  The test function
f_exact is the unit-amplitude m = 2 box, with a closed-form native norm.
Outside [-1, 1] the order-m box convolution solves (Id - D^2)^m f = 0 with
decay, which is what the boundary-condition residuals check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .kernels import KernelSpec, _by_blocks, _capped, _exp_poly, _exp_tail, _horner, _index, _interval, _points, _positive_int

__all__ = [
    "box_convolution",
    "f_exact",
    "f_native_norm_sq",
    "convolve_with_indicator",
    "bc_residuals",
]

@lru_cache(maxsize=None)
def _box_terms(m, order):
    # (c, q) with H(u) = s(u) (c + exp(-|u|) q(|u|)), s = sgn(u) at even orders,
    # 1 at odd: c = T(0), q = -T at order 0, else c = 0, q = (D - 1)^(order-1) p.
    q = np.array(_exp_poly(m)) if order else -np.array(_exp_tail(_exp_poly(m), 1.0))
    for _ in range(order - 1):
        q = np.append(q[1:] * np.arange(1, q.size), 0.0) - q
    return (0.0 if order else -q[0]), tuple(q.tolist())


def _indicator(k, a, b, x, order):
    # (K * chi_[a,b])^(order)(x) = H(x - a) - H(x - b), order already checked;
    # the constants cancel exactly outside [a, b].  Scalars come back as float.
    arr = _points(x, "x")
    const, q = _box_terms(k.m, order)
    flat, edges = arr.ravel(), np.array([[a], [b]])

    def block(sl):  # (2, rows) work arrays stay in cache
        u = flat[sl] - edges
        r = _capped(k.m, np.abs(u))
        s = np.sign(u) if order % 2 == 0 else np.ones_like(u)
        h = s * (_horner(q, r) * np.exp(-r))
        return k.amplitude * (h[0] - h[1] + const * (s[0] - s[1]))

    out = _by_blocks(block, flat.size)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def box_convolution(k, x, order=0):
    """(K * chi_[-1,1])^(order)(x) = H(x + 1) - H(x - 1) for the kernel
    K(u) = amplitude exp(-|u|) p(|u|): H = sgn(u) (T(0) - exp(-|u|) T(|u|)),
    T = sum_k p^(k), at order 0, and K^(order - 1) at orders 1..2m-1; the
    constants cancel exactly outside [-1, 1].  Scalars come back as float.
    Raises ValueError for non-finite x, or an order that is not an integer
    in 0..2m-1 (a bool or a float is none).
    """
    return _indicator(k, -1.0, 1.0, x, int(_index(order, 2 * k.m, "order")))


def f_exact(x, order=0):
    """f = K * chi_[-1,1] or its derivative of order 0..3, K = (1 + r) e^{-r}."""
    return box_convolution(KernelSpec(m=2), x, order)


def f_native_norm_sq(k=None):
    """Exact squared native norm of f in the native space of kernel k.

    For the unit-amplitude m = 2 kernel (the default, k=None) it is
    the double integral of (1+|x-y|)e^{-|x-y|} over [-1,1]^2, which reduces
    to 2(1 + 5 e^{-2}) ~ 3.3533528.  Under amplitude c the same f is
    (c K) * (chi / c), so the squared norm scales by 1/c.  Any other kernel
    has no closed form here and gives None.
    """
    value = 2.0 * (1.0 + 5.0 * math.exp(-2.0))
    if k is None:
        return value
    if k.m != 2:
        return None
    return value / k.amplitude


def convolve_with_indicator(k, a, b, x):
    """The integral of K(|x - y|) dy over [a, b], H(x - a) - H(x - b) with H
    as in box_convolution: O(1) work per point of a scalar (a float back) or
    an array x.  Raises ValueError unless a, b and x are finite and a < b."""
    a, b = _interval(a, b)
    return _indicator(k, a, b, x, 0)


def _bc_coefficients(order, sign):
    # (Id + sign D)^order as the coefficients of D^0, ..., D^order
    return [math.comb(order, i) * sign**i for i in range(order + 1)]


def bc_residuals(g, a, b, order=2, rows=None):
    """Residuals (Id - D)^k D^j g(a) and (Id + D)^k D^j g(b), k = order, j < rows.

    A function that matches, smoothly enough, a decaying solution of
    (Id - D^2)^k u = 0 to the left of a (span{x^i e^x, i < k}) and to the
    right of b (span{x^i e^{-x}, i < k}) makes all of them vanish; the order-m
    box convolution does with k = m outside [-1, 1].  Each binomial sum runs
    left to right.  The default, k = 2 over j < 2, is the two-constraint form
    that f_exact meets: g(a) - 2 g'(a) + g''(a), g'(a) - 2 g''(a) + g'''(a),
    and the same with + at b.  k = 1 over j < 3 is the printed-chain form,
    the consecutive gaps in g(a) = g'(a) = g''(a) = g'''(a) and
    g(b) = -g'(b) = g''(b) = -g'''(b).  It imposes three constraints per
    endpoint where C^3 matching to the two-dimensional decaying solution
    space imposes two: e^{-x} meets it at b but x e^{-x} does not, and
    f_exact violates it.

    Parameters
    ----------
    g : callable
        g(x, n) is the n-th derivative at x, for n < order + rows.
    a, b : float
        The endpoints, finite with a < b.
    order : int, optional
        The power k, a positive integer, 2 by default.
    rows : int, optional
        The number of derivatives j of each combination, a positive integer,
        ``order`` by default.

    Returns
    -------
    tuple of 2 * rows floats: the rows at a, then those at b.
    """
    a, b = _interval(a, b)
    order = _positive_int(order, "order")
    rows = order if rows is None else _positive_int(rows, "rows")
    out = []
    for x, sign in ((a, -1), (b, 1)):
        coeffs = _bc_coefficients(order, sign)
        vals = [float(g(x, n)) for n in range(order + rows)]
        for j in range(rows):
            r = vals[j]
            for c, v in zip(coeffs[1:], vals[j + 1 :]):
                r += c * v
            out.append(r)
    return tuple(out)
