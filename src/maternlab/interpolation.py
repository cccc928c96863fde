"""Norm-minimal interpolation with kernel translates.

Among all native-space functions matching the data, the interpolant
s(x) = sum_j a_j K(|x - x_j|) with A a = values (A the Gram matrix of
translates) has minimal native norm; its residual is orthogonal to every
translate at the nodes.  Failure is a typed error naming the node where the
problem is numerically singular, never a silently regularized answer.

One solver serves every kernel.  The kernel e^{-r} p_m(r) is the covariance
of a Gauss-Markov process with state (f, f', ..., f^(m-1)).  The node states
minimize its Markov energy with the node values held: one block-tridiagonal
system in h = m - 1 unknowns per node, factored once by cyclic reduction and
applied twice; the minimum is ||s||^2.  Its blocks are held entry-major,
(h, h, N), one length-N array per entry: a solve is O(N) ufunc work over
O(log N) reduction levels.  Evaluation conditions the process on the two
node states around each point with the solve's bridge weights.  O(N) memory
for the solve; for M points O(M + N log M) when they ascend and O(M log N)
otherwise, O(N + M) memory: nothing is N x N or N x M.  The dense Cholesky
solve of the Gram matrix (assemble_gram) is its test oracle, kept with the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import ConditioningError
from .kernels import _by_blocks, _capped, _cells, _exp_poly, _finite, _horner, _kernel_rows, _points, kernel_eval

__all__ = [
    "CONDITIONING_FLOOR",
    "NodeSet",
    "Interpolant",
    "assemble_gram",
    "interpolate",
    "evaluate",
    "native_norm_sq",
    "native_error_norm",
]

# Scales with kernel_eval(k, 0), the common magnitude of Gram diagonals.
CONDITIONING_FLOOR = 1e-13


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
        pts = _points(self.points, "nodes").copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("nodes must form a nonempty 1-D vector")
        if pts.size > 1 and np.any(np.diff(pts) <= 0):
            raise ValueError("nodes must be strictly increasing (distinct)")
        C = _finite(self.halfwidth, "halfwidth")
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

    ``states`` holds s(x_j), s'(x_j), ..., s^(m-1)(x_j) per node, shape
    (N, m): its first column is the data, bit for bit.  ``bridge_weights``
    holds the cells' w_j = Q(d_j)^{-1} (z_{j+1} - Phi(d_j) z_j), shape
    (N - 1, m), which evaluate reads.  ``norm_sq`` is
    the squared native norm y^T A^{-1} y; the coefficients a = A^{-1} y are
    never formed.  ``_min_pivot`` is the smallest bound K(0)(1 - rho^2) on
    the Cholesky pivots of A, rho the profile at a node gap.
    """

    kernel: object
    nodes: NodeSet
    states: np.ndarray
    bridge_weights: np.ndarray
    norm_sq: float
    _min_pivot: float = field(default=math.nan, compare=False, repr=False)

    def __call__(self, points):
        return evaluate(self, points)


def assemble_gram(k, X):
    """Gram matrix A_ij = kernel_eval(k, |x_i - x_j|) of translates at X,
    sampled in blocks of rows: one N x N array and one block of work memory."""
    return _kernel_rows(k, X.points, X.points)


@lru_cache(maxsize=None)
def _process(m):
    # The unit-variance process with covariance e^{-r} p_m(r) solves
    # (D + 1)^m f = white noise of intensity q, state z = (f, ..., f^(m-1)).
    # N = F + I, F its companion matrix, is nilpotent: Phi(d) = e^{-d}
    # sum_{k<m} (N d)^k/k!, and Q(d) = sum_n I_n(d) H_n, H_n = q sum_{i+j=n}
    # v_i v_j^T, v_i = N^i e_m/i!, tends to P as I_n -> n!/2^(n+1).
    F = np.diag(np.ones(m - 1), 1)
    F[-1] -= [math.comb(m, b) for b in range(m)]
    N = F + np.eye(m)
    npow = np.array([np.linalg.matrix_power(N, k) / math.factorial(k) for k in range(m)])
    q = 2.0 ** (2 * m - 1) * math.factorial(m - 1) ** 2 / math.factorial(2 * m - 2)
    H = np.zeros((2 * m - 1, m, m))
    for i in range(m):
        for j in range(m):
            H[i + j] += q * np.outer(npow[i, :, -1], npow[j, :, -1])
    P = np.tensordot([math.factorial(n) / 2.0 ** (n + 1) for n in range(2 * m - 1)], H, 1)
    out = (npow, H, np.linalg.inv(P))
    for arr in out:
        arr.setflags(write=False)  # cached: every caller shares them
    return out


def _exp_moments(x, top):
    # I_n(x) = int_0^x s^n e^{-2s} ds, n = 0..top, shape (top + 1,) + x.shape,
    # without cancellation: below x = top/2 the top one from its positive
    # series e^{-2x} x^(top+1)/(top+1) S_top(x), the rest downward,
    # I_{n-1} = (2 I_n + x^n e^{-2x})/n; above it upward from
    # I_0 = -expm1(-2x)/2, I_n = (n I_{n-1} - x^n e^{-2x})/2.
    small = x < 0.5 * top
    if small.any() and not small.all():
        out = np.empty((top + 1,) + x.shape)
        out[:, small] = _exp_moments(x[small], top)
        out[:, ~small] = _exp_moments(x[~small], top)
        return out
    out, pw = np.empty((top + 1,) + x.shape), [np.exp(-2.0 * x)]  # x^n e^{-2x}
    for n in range(top + 1):
        pw.append(pw[-1] * x)
    if not small.all():
        out[0] = -0.5 * np.expm1(-2.0 * x)
        for n in range(1, top + 1):
            out[n] = (n * out[n - 1] - pw[n]) / 2.0
        return out
    out[top] = pw.pop() / (top + 1) * _horner(_series(top, x.max(initial=0.0)), x)
    for n in range(top, 0, -1):
        out[n - 1] = (2.0 * out[n] + pw.pop()) / n
    return out


def _series(top, xmax):
    # coefficients of S_top(x) = sum_k (2x)^k / ((top+2)...(top+k+1)), all
    # positive, to the first term below 2^-60 at x = xmax
    coeffs = [1.0]
    while coeffs[-1] * xmax ** (len(coeffs) - 1) > 2.0**-60:
        coeffs.append(coeffs[-1] * 2.0 / (top + 1 + len(coeffs)))
    return coeffs


def _mul(A, B):
    # the block products A_j B_j of entry-major stacks A (p, q, n), B (q, r, n)
    out = A[:, 0, None] * B[0]
    for k in range(1, len(B)):
        out += A[:, k, None] * B[k]
    return out


def _transitions(d, m):
    # Phi(d) - I and Q(d)^{-1} for gaps d, each (m, m, d.size).  Phi - I as
    # expm1(-d) I + e^{-d} sum_{k>=1} (N d)^k / k! and Q from the moments
    # above: near d = 0 neither is formed by cancellation.
    npow, H, _ = _process(m)
    dphi = np.exp(-d) * np.tensordot(npow[1:], d ** np.arange(1, m)[:, None], (0, 0))
    dphi[range(m), range(m)] += np.expm1(-d)
    Q = np.tensordot(H, _exp_moments(d, 2 * m - 2), (0, 0))
    return dphi, _inverse(Q, np.arange(1, d.size + 1))


def _inverse(A, ids):
    # The inverses of the SPD blocks of A (h, h, n), read from its lower
    # triangle: Cholesky factors L, column by column, then forward
    # substitution with L and with L^T on the reversed unknowns.  It ignores
    # diagonal scaling, so Q(d), diagonal d^(2m-1) ... d, inverts as well as
    # a unit diagonal.  A pivot <= 0 raises naming ids[i].
    L, x = np.array(A, dtype=float), np.zeros_like(A)
    for j in range(len(L)):
        L[j:, j] -= sum(L[j:, k] * L[j, k] for k in range(j))
        if not (L[j, j] > 0).all():
            i = np.argmin(L[j, j] > 0)
            raise ConditioningError(ids[i], L[j, j, i], 0.0, detail="banded solve")
        L[j:, j] /= np.sqrt(L[j, j])
        x[j, j] = 1.0
    for M, y in ((L, x), (L.transpose(1, 0, 2)[::-1, ::-1], x[::-1])):
        for j in range(len(M)):
            for k in range(j):
                y[j] -= M[j, k] * y[k]
            y[j] /= M[j, j]
    return x


def _cyclic_factor(D, S, ids):
    # Cyclic reduction of the SPD block-tridiagonal matrix with diagonal
    # blocks D (h, h, n) and blocks S_j (h, h, n - 1) at row j + 1, column j:
    # factor the odd-numbered diagonal blocks and the Schur complement on the
    # even-numbered unknowns, once.  Returns the solve for b (h, r, n).
    n = D.shape[-1]
    if n == 1:
        return partial(_mul, _inverse(D, ids))
    k, r = n // 2, (n - 1) // 2  # odd-numbered unknowns, those with a right neighbour
    left, lt, right = S[..., 0::2], S[..., 0::2].transpose(1, 0, 2), S[..., 1::2]
    Di = _inverse(D[..., 1::2], ids[1::2])
    YL, YR = _mul(Di, left), _mul(Di[..., :r], right.transpose(1, 0, 2))
    De = D[..., 0::2].copy()
    De[..., :k] -= _mul(lt, YL)
    De[..., 1:] -= _mul(right, YR)
    solve_even = _cyclic_factor(De, -_mul(right, YL[..., :r]), ids[0::2])

    def solve(b):
        # eliminate the odd-numbered unknowns, solve for the even-numbered
        # ones, substitute back
        yb = _mul(Di, b[..., 1::2])
        be = b[..., 0::2].copy()
        be[..., :k] -= _mul(lt, yb)
        be[..., 1:] -= _mul(right, yb[..., :r])
        xe = solve_even(be)
        x = np.empty_like(b)
        x[..., 0::2], x[..., 1::2] = xe, yb - _mul(YL, xe[..., :k])
        x[..., 1 : 2 * r : 2] -= _mul(YR, xe[..., 1:])
        return x

    return solve


def _solve_markov(d, y, m, k0, starts):
    # The node states z_j = (f, ..., f^(m-1))(x_j) minimize E = z_0^T P^{-1} z_0
    # + sum_j r_j^T W_j r_j (amplitude 1) over the derivatives u with f_j = y_j,
    # r_j = z_{j+1} - Phi_j z_j in difference form, W_j = Q_j^{-1}; min E =
    # k0 y^T A^{-1} y.  Half its gradient at node j is w_{j-1} - Phi_j^T w_j
    # (w_j = W_j r_j, P^{-1} z_0 for w_{-1}, w_{N-1} = 0).  A stiff block
    # beside soft ones (near-coincident nodes) rounds the soft directions of
    # the Hessian away, so u is refined once against the gradient, by the
    # same factors.  Levels starting at nodes ``starts`` stack into one
    # system: the cell before a start (any gap d > 0) gets W = 0 and the
    # start the prior.  Vectors are (m, 1, n) and blocks (m, m, n).
    n, h = y.size, m - 1
    _, _, Pinv = _process(m)
    dphi, W = _transitions(d, m)
    W[..., starts[1:] - 1] = 0.0

    def residuals(u):
        z = np.concatenate([y[None, None], u])
        r = np.diff(z) - _mul(dphi, z[..., :-1])
        return z, r, _mul(W, r)

    def gradient(u):  # its derivative part
        z, _, w = residuals(u)
        g = np.dstack([np.zeros((m, 1, 1)), w])
        g[:, 0, starts] = Pinv @ z[:, 0, starts]
        g[..., :-1] -= w + _mul(dphi.transpose(1, 0, 2), w)  # Phi_j^T w_j
        return g[1:]

    u = np.zeros((h, 1, n))
    if h:  # m = 1 has no unknowns
        B = dphi[:, 1:] + np.eye(m)[:, 1:, None]  # Phi's derivative columns
        WB = _mul(W, B)
        D = np.dstack([Pinv[1:, 1:, None], W[1:, 1:]])
        D[..., starts] = Pinv[1:, 1:, None]
        D[..., :-1] += _mul(B.transpose(1, 0, 2), WB)
        solve = _cyclic_factor(D, -WB[1:], np.arange(n))
        for _ in range(2):
            u = u - solve(gradient(u))
    z, r, w = residuals(u)
    rw, z, w = r * w, z[:, 0].T, w[:, 0].T
    for arr in (z, w):
        arr.setflags(write=False)  # and so every level's view
    return [  # (z, w, E / k0) per level
        (z[i:j], w[i : j - 1], float(z[i] @ Pinv @ z[i] + np.sum(rw[..., i : j - 1])) / k0)
        for i, j in zip(starts, [*starts[1:], n])
    ]


def _interpolate_levels(k, sets, values):
    # One Interpolant per node set, values finite and one per node.  Every
    # set is solved at once, as one stacked banded system; every pivot bound
    # is checked first, and a refusal names the set's N and local node.
    k0, coeffs = kernel_eval(k, 0.0), _exp_poly(k.m)
    floor = CONDITIONING_FLOOR * k0
    sizes = np.array([len(X) for X in sets])
    starts = np.cumsum(sizes) - sizes
    d = np.diff(np.concatenate([X.points for X in sets]))
    d[starts[1:] - 1] = 0.5  # the seams: any d > 0 serves, 0.5 keeps _exp_moments on one branch
    # K(0)(1 - rho(gap)^2) = Var(f_j | f_{j-1}) caps pivot j (is it for
    # m = 1); 1 - rho = -(expm1(-d) + e^{-d} (p(d) - 1)) near d = 0.
    one_minus = -(np.expm1(-d) + np.exp(-d) * _horner((0.0,) + coeffs[1:], d))
    bounds = np.concatenate([[k0], k0 * one_minus * (2.0 - one_minus)])
    bounds[starts] = k0  # each set's first pivot
    low = np.flatnonzero(bounds <= floor)
    if low.size:
        j = low[0]
        i = np.searchsorted(starts, j, side="right") - 1
        raise ConditioningError(j - starts[i], bounds[j], floor, detail=f"at N={sizes[i]}")
    y = np.concatenate(values)
    return [
        Interpolant(k, X, z, w, e, float(bounds[i : i + len(X)].min()))
        for X, i, (z, w, e) in zip(sets, starts, _solve_markov(d, y, len(coeffs), k0, starts))
    ]


def interpolate(k, X, values):
    """Solve for the norm-minimal interpolant of the data at X.

    One banded solve of the Gauss-Markov node states.  Nothing regularizes
    the system: a hard ConditioningError beats silent smoothing.

    Parameters
    ----------
    k : KernelSpec
    X : NodeSet
    values : array_like
        Data, one value per node.

    Raises
    ------
    ConditioningError
        Before any solve, when the bound K(0) (1 - rho(x_j - x_{j-1})^2),
        rho the profile, on Cholesky pivot j of A falls to or below
        1e-13 * K(0).
    """
    vals = _points(values, "values")
    if vals.shape != (len(X),):
        raise ValueError(f"expected {len(X)} values, got shape {vals.shape}")
    return _interpolate_levels(k, [X], [vals])[0]


def evaluate(s, points):
    """Evaluate s(x) = sum_j a_j K(|x - x_j|) at the given points.

    Scalars come back as float, arrays with the shape of ``points``.
    Nothing of size N x M is held for M points.  Each point is found among
    the N nodes by one merge when the points ascend, O(M + N log M) in all,
    or by binary search otherwise, O(M log N); the rest is O(1) per point.

    Raises
    ------
    ValueError
        When a point is not finite.
    """
    pts = _points(points, "evaluation points")
    flat = pts.ravel()
    out = _by_blocks(_cell_evaluator(s, flat), flat.size)
    return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)


def _cell_evaluator(s, flat):
    # Between nodes p and p + 1, s is the process bridge conditioned on both
    # node states: with d = x_{p+1} - x_p, u = d - t and, as [H_n]_1 = 0 for
    # n < m - 1, v_k = [N^k/k! z_p]_1 and G_jk = [H_{m-1+j}]_1 (N^k/k!)^T w_p,
    #   s(x_p + t) = e^{-t} sum_k v_k t^k + e^{-u} sum_j I_{m-1+j}(t) sum_k G_jk u^k
    # (beyond the end nodes w = 0, and odd derivatives flip on the left).
    # Points with t >= 1 are summed so.  Nearer x_p, e^{-u} I_i = e^{-d-t} J_i
    # with J_i = e^{2t} I_i = sum_{k>i} 2^(k-i-1) i!/k! t^k, whose terms past
    # top = 2m - 2 are 2^(top-i) i!/(top+1)! t^(top+1) S_top(t).  So in
    # difference form s = v_0 + (expm1(-t) v_0 + e^{-t} R), R = sum_{k=1}^{top}
    # a_k t^k + t^(top+1) S_top(t) a_E, a_k = v_k for k < m; each cell folds
    # the other a, polynomials in u, from e^{-d} G once, into a table that
    # each call builds and its blocks of points share.
    x, states, (n, m) = s.nodes.points, s.states, s.states.shape
    top, cells = 2 * m - 2, _cells(x, flat)
    npow, H, _ = _process(m)
    gmap = np.tensordot(H[m - 1 :, 0], npow, (1, 2))  # G_jk = gmap[j, k] @ w_p
    fold = np.zeros((m, m))  # a_m, ..., a_top, a_E from J_i, i = m - 1 + j
    for j, i in enumerate(range(m - 1, top + 1)):
        for k in range(i + 1, top + 2):  # k = top + 1: t^(top+1) S_top(t)
            fold[k - m, j] = 2.0 ** (k - i - 1) / math.perm(k, k - i)
    w = np.zeros((n + 1, m))  # one row per cell, 0 beyond the end nodes
    w[1:-1] = s.bridge_weights
    table = np.empty((2 + m + m * m, n + 1))  # x_p, x_{p+1}, v_k, a_k and a_E per cell
    table[0, 0], table[0, 1:], table[1, :-1], table[1, -1] = x[0], x, x, x[-1]
    table[2 : 2 + m, 0] = npow[:, 0] @ (states[0] * (-1.0) ** np.arange(m))
    table[2 : 2 + m, 1:] = npow[:, 0] @ states.T
    table[2 + m :] = (fold @ gmap.reshape(m, -1)).reshape(m * m, m) @ w.T
    table[2 + m :] *= np.exp(table[0] - table[1])  # e^{-d}

    def near(pts, t, tmax, cols):
        v, a = cols[2 : 2 + m], cols[2 + m :]
        if m == 1:  # t S_0(t) = expm1(2t)/2
            r = np.expm1(2.0 * t) * a[0] * 0.5
        else:  # Horner in t, t^(top+1) S_top(t) a_E innermost
            u = cols[1] - pts
            r = _horner(_series(top, tmax), t) * _horner(a[-m:], u)
            for k in range(top, 0, -1):
                r *= t
                r += _horner(a[(k - m) * m : (k + 1 - m) * m], u) if k >= m else v[k]
            r *= t
        t = -t
        r *= np.exp(t)
        out = np.expm1(t, out=t)
        out *= v[0]
        out += r
        out += v[0]
        return out

    def block(b):
        pts, c = flat[b], cells[b]
        cols = table.take(c, axis=1)
        t = _capped(m, np.abs(pts - cols[0]))  # u below too: see kernels._capped
        tmax = t.max(initial=0.0)
        if tmax < 1.0:
            return near(pts, t, tmax, cols)
        out, inner, far = np.empty_like(t), np.flatnonzero(t < 1.0), np.flatnonzero(t >= 1.0)
        out[inner] = near(pts[inner], t[inner], t[inner].max(initial=0.0), cols[:, inner])
        pts, t, cols, g = pts[far], t[far], cols[:, far], gmap.reshape(m * m, m) @ w[c[far]].T
        moments, u = _exp_moments(t, top)[m - 1 :], _capped(m, np.abs(cols[1] - pts))
        total = sum(moments[j] * _horner(g[j * m : (j + 1) * m], u) for j in range(m))
        out[far] = np.exp(-t) * _horner(cols[2 : 2 + m], t) + np.exp(-u) * total
        return out

    return block


def native_norm_sq(s):
    """Squared native norm y^T A^{-1} y = a^T A a of the interpolant.

    The solve takes the minimized Markov energy, a sum of nonnegative
    terms.
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
        When f_norm_sq is negative or not finite, or native_norm_sq(s) exceeds
        it by more than 1e-10 f_norm_sq, which signals a wrong f_norm_sq or an
        f outside the native space.  The tolerance is relative, so the
        kernel's amplitude does not decide whether a solve is refused.
    """
    f_norm_sq = _finite(f_norm_sq, "f_norm_sq", zero=True)
    diff = f_norm_sq - native_norm_sq(s)
    if diff < -1e-10 * f_norm_sq:
        raise ValueError(
            f"interpolant norm exceeds f_norm_sq by {-diff:.3e}: "
            "wrong norm value, or f is not a member of the native space"
        )
    return math.sqrt(max(diff, 0.0))
