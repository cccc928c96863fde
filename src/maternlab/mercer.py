"""Nystrom discretization of the kernel integral operator on an interval.

A Gauss-Legendre rule turns the eigenproblem for the operator
(T g)(x) = integral over [a, b] of K(|x - y|) g(y) dy into the symmetric
matrix problem B u = kappa u with B = W^{1/2} A W^{1/2}, where A holds
kernel samples at the rule nodes and W the weights.  Eigenfunction samples
phi_n = W^{-1/2} u_n are then discretely orthonormal in L2(a, b).  The rule
costs O(Q^2) time and O(Q) memory, the dense eigensolve O(Q^3) time.

The eigenfunctions extend off the interval through the eigenvalue equation
itself, kappa_n phi_n^E = K * (chi phi_n), and the extensions inherit the
native-space orthogonality kappa_l (phi_j^E, phi_l^E)_K = delta_jl, which
hk_gram_extended verifies discretely.  For the closed-form d = 1 kernels
running exponential moments over the sorted nodes give the extension at M
points in O(Q + M) per mode; the d >= 2 kernels sum in blocks of points.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import TruncationError
from .interpolation import _BLOCK_ENTRIES, _cells
from .kernels import _horner, exp_poly_coeffs, kernel_eval

__all__ = [
    "MercerSystem",
    "nystrom_eig",
    "eigen_extend",
    "project_samples",
    "extend_function",
    "hk_gram_extended",
    "hk_gram_matrix",
]


@dataclass(frozen=True)
class MercerSystem:
    """Nystrom eigenpairs of the kernel operator on [a, b].

    Fields
    ------
    nodes, weights : (rule_size,) read-only ascending Gauss-Legendre nodes and
        positive weights on [a, b].
    eigenvalues : (n_modes,) nonincreasing positive kappa_n.
    eigenfunctions : (n_modes, rule_size) samples of phi_n at the rule
        nodes, discretely L2-orthonormal, sign-fixed so phi_n >= 0 at the
        first rule node.
    full_spectrum : all rule_size eigenvalues of the discretized operator,
        for trace and tail diagnostics.
    gram : kernel sample matrix A at the rule nodes.
    """

    kernel: object
    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    full_spectrum: np.ndarray
    gram: np.ndarray

    @property
    def n_modes(self):
        return self.eigenvalues.size


def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1]: three
    Newton steps on the recurrence from Tricomi's guesses (six agree to 1.1e-16
    up to n = 10^4), w = 2 / ((1 - x)(1 + x) P_n'^2) (1 - x*x loses digits at
    the ends), mirrored bit for bit.  O(n^2) time, O(n) memory."""
    k = np.arange(1, n // 2 + 1)
    x = (1 - (n - 1) / (8 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    x = np.append(x, np.zeros(n % 2))  # odd n: the root 0
    for step in range(4):  # three Newton steps, then P_n' at the nodes
        prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
        dp = n * (prev - x * p) / ((1 - x) * (1 + x))
        x = x - p / dp if step < 3 else x
    w = 2 / ((1 - x) * (1 + x) * dp**2)
    return np.r_[-x[: n // 2], x[::-1]], np.r_[w[: n // 2], w[::-1]]


def nystrom_eig(k, a, b, rule_size, n_modes):
    """Discretize the kernel operator on [a, b] and return leading eigenpairs.

    Parameters
    ----------
    k : KernelSpec
    a, b : float
        Interval endpoints, a < b.
    rule_size : int
        Gauss-Legendre point count.
    n_modes : int
        Number of leading eigenpairs kept; must not exceed rule_size.

    Raises
    ------
    TypeError
        When a size is not an integer (a float or a bool).
    TruncationError
        When any of the requested leading eigenvalues is nonpositive, which
        means the discretization cannot support that many modes.
    """
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got a={a}, b={b}")
    # before any work (a float would fail only after eigh, True would pass as 1)
    if isinstance(rule_size, bool) or isinstance(n_modes, bool):
        raise TypeError(f"sizes must be integers, not bool: {rule_size!r}, {n_modes!r}")
    rule_size, n_modes = operator.index(rule_size), operator.index(n_modes)
    if not 1 <= n_modes <= rule_size:
        raise ValueError(f"need 1 <= n_modes <= rule_size, got {n_modes}, {rule_size}")
    t, w = _gauss_legendre(rule_size)
    half = 0.5 * (b - a)
    y = half * t + 0.5 * (a + b)
    w = half * w
    A = kernel_eval(k, np.abs(y[:, None] - y[None, :]))
    sw = np.sqrt(w)
    vals, vecs = np.linalg.eigh(sw[:, None] * A * sw[None, :])
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    if vals[n_modes - 1] <= 0:
        bad = int(np.argmax(vals[:n_modes] <= 0))
        raise TruncationError(
            f"eigenvalue {bad + 1} of {n_modes} requested modes is nonpositive "
            f"({vals[bad]:.3e}); ask for fewer modes"
        )
    phi = (vecs[:, order[:n_modes]] / sw[:, None]).T
    phi[phi[:, 0] < 0] *= -1.0
    eigvals = vals[:n_modes].copy()
    for arr in (y, w, eigvals, phi, vals, A):
        arr.setflags(write=False)
    return MercerSystem(
        kernel=k,
        a=a,
        b=b,
        nodes=y,
        weights=w,
        eigenvalues=eigvals,
        eigenfunctions=phi,
        full_spectrum=vals,
        gram=A,
    )


def _check_mode(sys, n):
    idx = np.asarray(n)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"mode index {n!r} is not an integer")
    if np.any((idx < 0) | (idx >= sys.n_modes)):
        raise ValueError(f"mode index {n} outside 0..{sys.n_modes - 1}")


def eigen_extend(sys, n, x):
    """Extension phi_n^E(x) = (1/kappa_n) sum_q w_q K(|x - y_q|) phi_n(y_q).

    Agrees with phi_n on [a, b] (at the rule nodes to the rounding of the
    eigensolve, by the discrete eigenvalue equation) and decays to 0 as |x|
    grows.  Mode indices are zero-based; a sequence of indices n gives one
    column per mode.  At M points, Q rule nodes and K modes the closed-form
    kernels (d = 1) take O((Q + M) K m) time and memory, the d >= 2 kernels
    O(M Q K) time in blocks of points.  Raises ValueError for a mode index
    out of range, a point that is not finite or x of more than one dimension.
    """
    _check_mode(sys, n)
    n = np.asarray(n)
    flat = np.atleast_1d(np.asarray(x, dtype=float))
    if flat.ndim != 1 or not np.all(np.isfinite(flat)):
        raise ValueError("extension points must be finite, as a scalar or 1-D array")
    coeffs = exp_poly_coeffs(sys.kernel)
    if coeffs is None:
        rows = max(1, _BLOCK_ENTRIES // sys.nodes.size)
        out = np.empty(flat.shape + n.shape)
        for lo in range(0, flat.size, rows):
            kx = kernel_eval(sys.kernel, np.abs(flat[lo : lo + rows, None] - sys.nodes[None, :]))
            out[lo : lo + rows] = (kx * sys.weights) @ sys.eigenfunctions[n].T / sys.eigenvalues[n]
    else:
        c = (sys.weights * sys.eigenfunctions[n]).T / sys.eigenvalues[n]
        out = sys.kernel.amplitude * _exp_poly_sum(coeffs, sys.nodes, c, flat)
    return out[0] if np.ndim(x) == 0 else out


def _exp_poly_sum(coeffs, y, c, x):
    """sum_q c_q e^{-r} p(r), r = |x - y_q|, for ascending y and c of shape
    (Q,) or (Q, K), where p(r) = sum_{k<m} coeffs[k] r^k.

    The nodes at or left of a point enter through the moments
    L_j = sum_{q <= p} c_q d^j e^{-d}, d = y_p - y_q, j < m, of the nearest
    one, y_p, at distance t: p(t + d) = sum_j p^(j)(t) d^j / j! makes their
    sum e^{-t} sum_j p^(j)(t) L_j / j!.  Mirrored moments serve the rest.
    """
    m, derivs = len(coeffs), [coeffs]  # coefficients of p^(j), lowest degree first
    while len(derivs) < m:
        derivs.append([i * c for i, c in enumerate(derivs[-1])][1:])

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
                    lj = lj * s + (-1) ** i * comb(j, i) * sums[i]
                    carry = carry + comb(j, j - i) * d**i * prev[j - i]
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
        t = np.maximum(t, 0.0)[:, None]
        total = sum(_horner(derivs[j], t) / factorial(j) * mom[j] for j in range(m))
        out = out + np.exp(-t) * total
    return out.reshape(x.shape + c.shape[1:])


def project_samples(sys, samples):
    """Coefficients c_n = sum_q w_q samples_q phi_n(y_q) of a sample vector."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != sys.nodes.shape:
        raise ValueError("samples must be given at the rule nodes")
    return sys.eigenfunctions @ (sys.weights * samples)


def extend_function(sys, samples, x):
    """Extend a function given by samples at the rule nodes to arbitrary x.

    Projects onto the represented modes and sums c_n phi_n^E(x).  The
    truncation error decreases as the system carries more modes; no rate is
    claimed, only monotone improvement for native-space functions.
    """
    coeffs = project_samples(sys, samples)
    out = eigen_extend(sys, range(sys.n_modes), np.atleast_1d(x)) @ coeffs
    return float(out[0]) if np.ndim(x) == 0 else out


def hk_gram_extended(sys, j, l):
    """Native-space inner product (phi_j^E, phi_l^E)_K, discretized.

    Uses the identity (phi_j^E, phi_l^E)_K =
    (1/(kappa_j kappa_l)) * double integral of phi_j(x) K(|x-y|) phi_l(y)
    over [a,b]^2, evaluated with the rule.  Expected value: delta_jl / kappa_l
    (orthogonality carries over from L2 to the native space).
    """
    _check_mode(sys, j)
    _check_mode(sys, l)
    w = sys.weights
    lhs = w * sys.eigenfunctions[j]
    rhs = w * sys.eigenfunctions[l]
    return float(lhs @ sys.gram @ rhs) / (sys.eigenvalues[j] * sys.eigenvalues[l])


def hk_gram_matrix(sys):
    """Matrix of hk_gram_extended over all modes of the system."""
    wphi = sys.weights * sys.eigenfunctions
    kappa = sys.eigenvalues
    out = np.empty((kappa.size, kappa.size))
    for j in range(kappa.size):
        # hk_gram_extended's (w phi_j) A, hoisted; entries stay bit-identical
        row = wphi[j] @ sys.gram
        for l in range(j, kappa.size):
            out[j, l] = out[l, j] = float(row @ wphi[l]) / (kappa[j] * kappa[l])
    return out
