"""Norm-minimal interpolation with kernel translates.

Among all native-space functions matching the data, the interpolant
s(x) = sum_j a_j K(|x - x_j|) with A a = values (A the Gram matrix of
translates) has minimal native norm; its residual is orthogonal to every
translate at the nodes.  Failure is a typed error naming the first
factorization pivot at or below the conditioning floor, never a silently
regularized answer.

Two solvers, chosen by the kernel alone:

* The d = 1 kernels exp(-r) and (1 + r) exp(-r) are the covariances of
  Gauss-Markov processes with state f and (f, f').  A Kalman filter with
  exact observations of f runs forward over the nodes; its innovation
  variances are the Cholesky pivots of A.  A backward (Bryson-Frazier)
  pass gives the coefficients and the node states.  Evaluation works cell
  by cell from the two node states around each point.  Time and memory
  are O(N) for the solve and O(N + M) for M points: nothing of size
  N x N or N x M exists.
* Every other kernel assembles the dense Gram matrix and factors it with
  an unpivoted LAPACK Cholesky, O(N^3) time and O(N^2) memory, and sums
  the translates in blocks of points of bounded size.  This path is also
  the test oracle for the first.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

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

# Kernel entries per block of points on the dense evaluation path (2 MB);
# the cell path takes 1/16 as many points per block.
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
    """A solved interpolant.

    ``states`` holds s(x_j) (and s'(x_j) for m = 2) per node, shape
    (N, m), on the d = 1, m <= 2 path, and is None on the dense path.
    ``norm_sq`` is the squared native norm y^T A^{-1} y.
    """

    kernel: object
    nodes: NodeSet
    coefficients: np.ndarray
    values: np.ndarray
    states: Optional[np.ndarray]
    norm_sq: float

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
    from scipy.linalg.lapack import dpotrf

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


def _gamma_p(n, x):
    # 1 - e^{-x} sum_{i<n} x^i / i!, the regularized incomplete gamma
    # function P(n, x), for n >= 2 and x >= 0.  The difference cancels below
    # x = 1, so there it is summed as e^{-x} sum_{i>=n} x^i / i!, with terms
    # until x^i / i! falls below 2^-60 of the first at the largest such x.
    small = x < 1.0
    xs = x[small]
    top = float(xs.max(initial=0.0))
    terms, size = 0, 1.0
    while size > 2.0**-60:
        terms += 1
        size *= top / (n + terms)
    series = np.ones_like(xs)
    for i in range(n + terms, n, -1):
        series = 1.0 + series * xs / i
    out = np.empty_like(x)
    out[small] = np.exp(-xs) * xs**n / math.factorial(n) * series
    xl = x[~small]
    out[~small] = 1.0 - np.exp(-xl) * sum(xl**i / math.factorial(i) for i in range(n))
    return out


def _m2_transitions(d):
    # Per-gap transition Phi(d) and process covariance Q(d) = I - Phi Phi^T
    # of the unit-amplitude m = 2 process (stationary covariance I), as the
    # arrays (Phi11 - 1, Phi12, Phi21, Phi22 - 1, Q11, Q12, Q22).  Entries
    # near 1 are carried as their distance from 1, and none is formed by
    # cancellation.  (m = 1: Phi - 1 = expm1(-d), Q = -expm1(-2d).)
    e = np.exp(-d)
    de = d * e
    return (
        -_gamma_p(2, d),
        de,
        -de,
        np.expm1(-d) - de,
        _gamma_p(3, 2.0 * d),
        2.0 * de * de,
        -np.expm1(-2.0 * d) + 2.0 * (1.0 - d) * de * e,
    )


# Both recursions below run a Kalman filter forward over the nodes, with
# exact observations of f (or noise variance r under jitter): innovation
# e_j = y_j - E[y_j | y_<j] with variance S_j, the j-th Cholesky pivot of
# A + rI; gain G_j; filtered mean and covariance.  The innovation is taken
# in difference form, (y_j - y_{j-1}) minus the predicted change, which
# keeps it accurate when consecutive data nearly agree.  The backward
# (Bryson-Frazier) pass carries the adjoint l_j = sum_{i>j} Phi(x_i, x_j)^T
# H^T a_i and gives a_j = e_j / S_j - G_j . l_j and the smoothed node state
# (filtered mean + filtered covariance l_j).  Pivots scale with k0 = K(0).
# Each returns the coefficients, the node states, the innovations and the
# pivots.


def _solve_ou(x, y, k0, noise, floor):
    # m = 1: the Ornstein-Uhlenbeck process, state f
    d = np.diff(x)
    phim1, q = (array("d", v.tobytes()) for v in (np.expm1(-d), -np.expm1(-2.0 * d)))
    y = array("d", y.tobytes())
    fwd = array("d")
    p, mu, c = k0, 0.0, 0.0
    for j, yj in enumerate(y):
        if j:
            phi = 1.0 + phim1[j - 1]
            p = phi * phi * cv + k0 * q[j - 1]
            e = (yj - y[j - 1]) + c - phim1[j - 1] * mu
        else:
            e = yj
        s = p + noise
        if not s > floor:
            raise ConditioningError(j, s, floor)
        c = noise * e / s
        mu = yj - c
        cv = p * noise / s
        fwd.extend((e, s, p / s, mu, cv))
    bwd = array("d")
    lam = 0.0
    for j in range(len(y) - 1, -1, -1):
        e, s, g, mu, cv = fwd[5 * j : 5 * j + 5]
        a = e / s - g * lam
        bwd.extend((a, mu + cv * lam))
        lam = (1.0 + phim1[j - 1]) * (lam + a) if j else 0.0
    fwd = np.frombuffer(fwd).reshape(-1, 5)
    bwd = np.frombuffer(bwd).reshape(-1, 2)[::-1]
    return bwd[:, 0].copy(), bwd[:, 1:].copy(), fwd[:, 0], fwd[:, 1]


def _solve_m2(x, y, k0, noise, floor):
    # m = 2: state (f, f'), the 2 x 2 blocks written out; (P11, P12, P22)
    # is the filtered covariance, (p11, p12, p22) the predicted one
    f11m1, f12, f21, f22m1, q11, q12, q22 = (
        array("d", v.tobytes()) for v in _m2_transitions(np.diff(x))
    )
    y = array("d", y.tobytes())
    fwd = array("d")
    p11, p12, p22 = k0, 0.0, k0
    mu1 = mu2 = c = 0.0
    for j, yj in enumerate(y):
        if j:
            i = j - 1
            f11, f22 = 1.0 + f11m1[i], 1.0 + f22m1[i]
            b11 = f11 * P11 + f12[i] * P12
            b12 = f11 * P12 + f12[i] * P22
            b21 = f21[i] * P11 + f22 * P12
            b22 = f21[i] * P12 + f22 * P22
            p11 = b11 * f11 + b12 * f12[i] + k0 * q11[i]
            p12 = b11 * f21[i] + b12 * f22 + k0 * q12[i]
            p22 = b21 * f21[i] + b22 * f22 + k0 * q22[i]
            e = (yj - y[i]) + c - (f11m1[i] * mu1 + f12[i] * mu2)
            n2 = f21[i] * mu1 + f22 * mu2
        else:
            e, n2 = yj, 0.0
        s = p11 + noise
        if not s > floor:
            raise ConditioningError(j, s, floor)
        g2 = p12 / s
        c = noise * e / s
        mu1, mu2 = yj - c, n2 + g2 * e
        P11, P12, P22 = p11 * noise / s, p12 * noise / s, p22 - p12 * g2
        fwd.extend((e, s, p11 / s, g2, mu1, mu2, P11, P12, P22))
    bwd = array("d")
    l1 = l2 = 0.0
    for j in range(len(y) - 1, -1, -1):
        e, s, g1, g2, mu1, mu2, P11, P12, P22 = fwd[9 * j : 9 * j + 9]
        a = e / s - (g1 * l1 + g2 * l2)
        bwd.extend((a, mu1 + P11 * l1 + P12 * l2, mu2 + P12 * l1 + P22 * l2))
        l1 += a
        if j:
            i = j - 1
            l1, l2 = (
                (1.0 + f11m1[i]) * l1 + f21[i] * l2,
                f12[i] * l1 + (1.0 + f22m1[i]) * l2,
            )
    fwd = np.frombuffer(fwd).reshape(-1, 9)
    bwd = np.frombuffer(bwd).reshape(-1, 3)[::-1]
    return bwd[:, 0].copy(), bwd[:, 1:].copy(), fwd[:, 0], fwd[:, 1]


def _solve_dense(k, X, vals, noise, floor):
    from scipy.linalg import cho_solve

    A = assemble_gram(k, X)
    A[np.diag_indices_from(A)] += noise
    L = _cholesky_floor(A, floor)
    return cho_solve((L, True), vals)


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
        factorization (on the d = 1, m <= 2 path: as observation noise of
        that variance) and a ConditioningWarning records the change.  Off by
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
    k0 = kernel_eval(k, 0.0)
    noise = JITTER_SCALE * k0 if jitter else 0.0
    if jitter:
        warnings.warn(
            f"added diagonal jitter {noise:.3e} to the Gram matrix",
            ConditioningWarning,
            stacklevel=2,
        )
    floor = CONDITIONING_FLOOR * k0
    coeffs = exp_poly_coeffs(k)
    if coeffs is None:
        a, states = _solve_dense(k, X, vals, noise, floor), None
        norm_sq = float(a @ vals)
    else:
        solve = {1: _solve_ou, 2: _solve_m2}[len(coeffs)]
        a, states, e, pivots = solve(X.points, vals, k0, noise, floor)
        norm_sq = float(np.sum(e * e / pivots))
        states.setflags(write=False)
    vals.setflags(write=False)
    a.setflags(write=False)
    return Interpolant(
        kernel=k, nodes=X, coefficients=a, values=vals, states=states, norm_sq=norm_sq
    )


def evaluate(s, points):
    """Evaluate s(x) = sum_j a_j K(|x - x_j|) at the given points.

    Scalars come back as float, arrays with the shape of ``points``.
    Nothing of size N x M is held for M points.

    Raises
    ------
    ValueError
        When a point is not finite.
    """
    pts = np.asarray(points, dtype=float)
    flat = pts.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("evaluation points must be finite")
    if s.states is None:
        rows, block = max(1, _BLOCK_ENTRIES // len(s.nodes)), partial(_sum_translates, s)
    else:
        rows, block = _BLOCK_ENTRIES // 16, _cell_evaluator(s.nodes.points, s.states)
    out = np.empty(flat.size)
    for lo in range(0, flat.size, rows):
        out[lo : lo + rows] = block(flat[lo : lo + rows])
    return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)


def _sum_translates(s, pts):
    # the dense kernel sum
    return kernel_eval(s.kernel, np.abs(pts[:, None] - s.nodes.points)) @ s.coefficients


def _cell_evaluator(x, states):
    # With no node on one side, s(x_0 - t) and s(x_{N-1} + t) are the
    # process's prediction from that end node's state.  Between nodes p and
    # p + 1 it is the bridge conditioned on both states z_p, z_{p+1}:
    #   s(x_p + t) = [Phi(t) z_p + Q(t) Phi(u)^T Q(d)^{-1} (z_{p+1} - Phi(d) z_p)]_1
    # with d = x_{p+1} - x_p and u = d - t.  The amplitude cancels.  The
    # per-cell factors are formed once; the returned function maps points
    # to values with O(1) work arrays per point (about 16).
    n, order = states.shape
    v = states[:, 0]
    d = np.diff(x)
    if order == 1:
        denom = np.expm1(-2.0 * d)
    else:
        s1 = states[:, 1]
        f11m1, f12, f21, f22m1, q11, q12, q22 = _m2_transitions(d)
        # z_{p+1} - Phi(d) z_p per cell, in difference form, then Q(d)^{-1} of it
        r1 = np.diff(v) - (f11m1 * v[:-1] + f12 * s1[:-1])
        r2 = np.diff(s1) - (f21 * v[:-1] + f22m1 * s1[:-1])
        det = q11 * q22 - q12 * q12
        w1 = (q22 * r1 - q12 * r2) / det
        w2 = (q11 * r2 - q12 * r1) / det

    def block(pts):
        idx = np.searchsorted(x, pts, side="right")  # nodes at or left of each point
        out = np.empty(pts.size)
        for end, j, sign in ((idx == 0, 0, -1.0), (idx == n, n - 1, 1.0)):
            t = np.abs(pts[end] - x[j])
            if order == 1:
                out[end] = np.exp(-t) * v[j]
            else:
                out[end] = np.exp(-t) * (v[j] + t * (v[j] + sign * s1[j]))
        inside = (idx > 0) & (idx < n)
        p = idx[inside] - 1
        t = pts[inside] - x[p]
        u = x[p + 1] - pts[inside]
        if order == 1:
            # (v_p sinh u + v_{p+1} sinh t) / sinh d, in decaying exponentials
            out[inside] = (
                v[p] * np.exp(-t) * np.expm1(-2.0 * u)
                + v[p + 1] * np.exp(-u) * np.expm1(-2.0 * t)
            ) / denom[p]
            return out
        a11m1, a12, _, _, b11, b12, _ = _m2_transitions(t)
        # [Phi(t) z_p]_1: in difference form near x_p, where it stays close
        # to v_p; directly in wide cells, where it decays like e^{-t}
        near = v[p] + (a11m1 * v[p] + a12 * s1[p])
        far = np.exp(-t) * ((1.0 + t) * v[p] + t * s1[p])
        eu = np.exp(-u)
        out[inside] = (
            np.where(t < 1.0, near, far)
            + (b11 * (1.0 + u) + b12 * u) * eu * w1[p]
            + (b12 * (1.0 - u) - b11 * u) * eu * w2[p]
        )
        return out

    return block


def native_norm_sq(s):
    """Squared native norm y^T A^{-1} y = a^T A a of the interpolant.

    The d = 1, m <= 2 solve sums e_j^2 / S_j over its innovations; the dense
    solve takes a . values.
    """
    return max(s.norm_sq, 0.0)


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
