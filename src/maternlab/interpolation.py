"""Norm-minimal interpolation with kernel translates.

Among all native-space functions matching the data, the interpolant
s(x) = sum_j a_j K(|x - x_j|) with A a = values (A the Gram matrix of
translates) has minimal native norm; its residual is orthogonal to every
translate at the nodes.  The solve goes through an unpivoted LAPACK Cholesky
factorization of the dense Gram matrix with an explicit conditioning floor,
so failure is a typed error naming the pivot instead of a silently
regularized answer.

Evaluation never forms the points x nodes kernel matrix.  For the d = 1
profiles exp(-r) p(r) it combines per-node exponential moments with a
binomial shift inside each cell: O(N^2) once, then a binary search and
O(m) work per point.  Bessel profiles are summed in blocks of points of
bounded size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dpotrf

from .errors import ConditioningError, ConditioningWarning
from .kernels import exp_poly_coeffs, kernel_eval

__all__ = [
    "CONDITIONING_FLOOR",
    "JITTER_SCALE",
    "NodeSet",
    "Interpolant",
    "assemble_gram",
    "interpolate",
    "evaluate",
    "native_norm_sq",
    "native_error_norm",
]

# Both scale with kernel_eval(k, 0), the common magnitude of Gram diagonals.
CONDITIONING_FLOOR = 1e-13
JITTER_SCALE = 1e-12

# Kernel entries per block of points on the Bessel evaluation path (2 MB).
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing interpolation nodes inside [-C, C].

    Parameters
    ----------
    points : array_like
        Node coordinates, strictly increasing.
    halfwidth : float
        Domain half-width C; all nodes must lie in [-C, C].
    """

    points: np.ndarray
    halfwidth: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("nodes must form a nonempty 1-D vector")
        if not np.all(np.isfinite(pts)):
            raise ValueError("nodes must be finite")
        if pts.size > 1 and np.any(np.diff(pts) <= 0):
            raise ValueError("nodes must be strictly increasing (distinct)")
        C = float(self.halfwidth)
        if not (np.isfinite(C) and C > 0):
            raise ValueError(f"halfwidth must be positive, got {self.halfwidth!r}")
        object.__setattr__(self, "halfwidth", C)
        if pts[0] < -C - 1e-12 or pts[-1] > C + 1e-12:
            raise ValueError("nodes fall outside [-C, C]")

    def __len__(self):
        return self.points.size

    @property
    def spacing(self):
        """Largest gap between consecutive nodes; 2C/(N-1) for equidistant sets."""
        if self.points.size == 1:
            return 2.0 * self.halfwidth
        return float(np.max(np.diff(self.points)))


@dataclass(frozen=True)
class Interpolant:
    """A solved interpolant: kernel, nodes, coefficients, and the data values."""

    kernel: object
    nodes: NodeSet
    coefficients: np.ndarray
    values: np.ndarray

    def __call__(self, points):
        return evaluate(self, points)


def assemble_gram(k, X):
    """Gram matrix A_ij = kernel_eval(k, |x_i - x_j|) of translates at X."""
    pts = X.points
    return kernel_eval(k, np.abs(pts[:, None] - pts[None, :]))


def _cholesky_floor(A, floor):
    # Unpivoted lower Cholesky, done in place in A.  The pivot checked is the
    # diagonal remainder before its square root, L[j, j]**2; a value at or
    # below the floor means the matrix is numerically not PD at scale.
    # dpotrf stops at the first pivot <= 0 (info = j + 1); only the block it
    # completed before that has final diagonals to check.
    diag = A.diagonal().copy()
    # A is symmetric, so its transpose is the same matrix in Fortran order
    # and LAPACK works on it without a copy.
    L, info = dpotrf(A.T, lower=1, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dpotrf rejected argument {-info}")
    done = A.shape[0] if info == 0 else info - 1
    low = np.flatnonzero(np.diagonal(L)[:done] ** 2 <= floor)
    if low.size:
        j = int(low[0])
    elif info > 0:
        j = info - 1
    else:
        return L
    raise ConditioningError(j, diag[j] - L[j, :j] @ L[j, :j], floor)


def interpolate(k, X, values, jitter=False):
    """Solve for the norm-minimal interpolant of the data at X.

    Parameters
    ----------
    k : KernelSpec
    X : NodeSet
    values : array_like
        Data, one value per node.
    jitter : bool, optional
        When True, 1e-12 * K(0) is added to the Gram diagonal before
        factorization and a ConditioningWarning records the change.  Off by
        default: a hard ConditioningError beats silent smoothing.

    Raises
    ------
    ConditioningError
        When a factorization pivot falls to or below 1e-13 * K(0); the error
        carries the offending pivot index.
    """
    vals = np.array(values, dtype=float)
    if vals.shape != (len(X),):
        raise ValueError(f"expected {len(X)} values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    A = assemble_gram(k, X)
    k0 = kernel_eval(k, 0.0)
    if jitter:
        A[np.diag_indices_from(A)] += JITTER_SCALE * k0
        warnings.warn(
            f"added diagonal jitter {JITTER_SCALE * k0:.3e} to the Gram matrix",
            ConditioningWarning,
            stacklevel=2,
        )
    L = _cholesky_floor(A, CONDITIONING_FLOOR * k0)
    a = cho_solve((L, True), vals)
    vals.setflags(write=False)
    a.setflags(write=False)
    return Interpolant(kernel=k, nodes=X, coefficients=a, values=vals)


def evaluate(s, points):
    """Evaluate s(x) = sum_j a_j K(|x - x_j|) at the given points.

    Scalars come back as float, arrays with the shape of ``points``.
    Memory stays O(N^2 + M) for M points: nothing of size N x M is held.

    Raises
    ------
    ValueError
        When a point is not finite.
    """
    pts = np.asarray(points, dtype=float)
    flat = pts.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("evaluation points must be finite")
    coeffs = exp_poly_coeffs(s.kernel)
    if coeffs is None:
        out = _evaluate_blocks(s, flat)
    else:
        out = s.kernel.amplitude * _evaluate_exp_poly(coeffs, s, flat)
    return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)


def _evaluate_blocks(s, flat):
    # the dense kernel sum, a bounded number of points at a time
    X = s.nodes.points
    rows = max(1, _BLOCK_ENTRIES // X.size)
    out = np.empty(flat.size)
    for lo in range(0, flat.size, rows):
        chunk = flat[lo : lo + rows]
        out[lo : lo + rows] = kernel_eval(s.kernel, np.abs(chunk[:, None] - X)) @ s.coefficients
    return out


def _node_moments(x, a, m):
    # Left moments  sum_{j <= p} a_j e^{-(x_p - x_j)} (x_p - x_j)^l  and right
    # moments  sum_{j >= p} a_j e^{-(x_j - x_p)} (x_j - x_p)^l,  l < m, each a
    # triangular product with one symmetric N x N matrix.  A running
    # recursion over p would be O(N) but lets rounding drift by ~sqrt(N) eps,
    # enough to move the measured rates near the error floor.
    dist = np.subtract.outer(x, x)
    np.abs(dist, out=dist)
    w = np.negative(dist)
    np.exp(w, out=w)
    left = np.empty((m, x.size))
    right = np.empty((m, x.size))
    for l in range(m):
        if l:
            w *= dist
        # w is symmetric, so w.T is w in Fortran order: no copy for BLAS
        left[l] = dtrmv(w.T, a, lower=1)
        right[l] = dtrmv(w.T, a, lower=0)
    return left, right


def _shifted(coeffs, moments):
    # Row i: the coefficient of t^i e^{-t} in sum_j a_j K(d_j + t), where the
    # moments are taken at distances d_j, from the binomial expansion of p.
    m = len(coeffs)
    return np.array(
        [
            sum(coeffs[k] * math.comb(k, i) * moments[k - i] for k in range(i, m))
            for i in range(m)
        ]
    )


def _evaluate_exp_poly(coeffs, s, flat):
    # s(x) for K(r) = e^{-r} p(r), with a unit amplitude.  With x_p <= x <
    # x_{p+1}, the nodes j <= p sit at r = (x_p - x_j) + t, t = x - x_p, and
    # the nodes j > p at r = (x_j - x_{p+1}) + u, u = x_{p+1} - x.
    x = s.nodes.points
    n, m = x.size, len(coeffs)
    left, right = _node_moments(x, s.coefficients, m)
    # one zero column each for the points left of x_0 and right of x_{N-1}
    zero = np.zeros((m, 1))
    left = np.hstack([zero, _shifted(coeffs, left)])
    right = np.hstack([_shifted(coeffs, right), zero])
    idx = np.searchsorted(x, flat, side="right")  # nodes at or left of x
    t = np.where(idx > 0, flat - x[np.maximum(idx - 1, 0)], 0.0)
    u = np.where(idx < n, x[np.minimum(idx, n - 1)] - flat, 0.0)
    out = np.zeros(flat.size)
    for side, dist in ((left, t), (right, u)):
        # t^i e^{-t} stays below 1 for any t >= 0, so far points give 0, not inf*0
        basis = np.exp(-dist)
        for i in range(m):
            if i:
                basis *= dist
            out += side[i, idx] * basis
    return out


def native_norm_sq(s):
    """Squared native norm a^T A a of the interpolant, computed as a . values."""
    return max(float(s.coefficients @ s.values), 0.0)


def native_error_norm(f_norm_sq, s):
    """Native-norm distance ||f - s|| from the Pythagoras split.

    For f in the native space with squared norm ``f_norm_sq``, orthogonality
    of the interpolation residual gives ||f - s||^2 = ||f||^2 - ||s||^2.
    Returns sqrt(max(0, f_norm_sq - native_norm_sq(s))).

    Raises
    ------
    ValueError
        When native_norm_sq(s) exceeds f_norm_sq by more than 1e-9, which
        signals a wrong f_norm_sq or an f outside the native space.
    """
    if f_norm_sq < 0:
        raise ValueError(f"f_norm_sq must be nonnegative, got {f_norm_sq!r}")
    diff = f_norm_sq - native_norm_sq(s)
    if diff < -1e-9:
        raise ValueError(
            f"interpolant norm exceeds f_norm_sq by {-diff:.3e}: "
            "wrong norm value, or f is not a member of the native space"
        )
    return math.sqrt(max(diff, 0.0))
