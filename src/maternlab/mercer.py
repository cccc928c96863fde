"""Nystrom discretization of the kernel integral operator on an interval.

A Gauss-Legendre rule turns the eigenproblem for the operator
(T g)(x) = integral over [a, b] of K(|x - y|) g(y) dy into the symmetric
matrix problem B u = kappa u with B = W^{1/2} A W^{1/2}, where A holds
kernel samples at the rule nodes and W the weights.  Eigenfunction samples
phi_n = W^{-1/2} u_n are then discretely orthonormal in L2(a, b).

The eigenfunctions extend off the interval through the eigenvalue equation
itself, kappa_n phi_n^E = K * (chi phi_n), and the extensions inherit the
native-space orthogonality kappa_l (phi_j^E, phi_l^E)_K = delta_jl, which
hk_gram_extended verifies discretely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import TruncationError
from .kernels import kernel_eval

__all__ = [
    "MercerSystem",
    "nystrom_eig",
    "eigen_extend",
    "project_samples",
    "extend_function",
    "hk_gram_extended",
    "hk_gram_matrix",
    "apply_multiplier",
]


@dataclass(frozen=True)
class MercerSystem:
    """Nystrom eigenpairs of the kernel operator on [a, b].

    Fields
    ------
    nodes, weights : (rule_size,) read-only Gauss-Legendre nodes and
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
    TruncationError
        When any of the requested leading eigenvalues is nonpositive, which
        means the discretization cannot support that many modes.
    """
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got a={a}, b={b}")
    if not 1 <= n_modes <= rule_size:
        raise ValueError(f"need 1 <= n_modes <= rule_size, got {n_modes}, {rule_size}")
    t, w = leggauss(rule_size)
    half = 0.5 * (b - a)
    y = half * t + 0.5 * (a + b)
    w = half * w
    A = kernel_eval(k, np.abs(y[:, None] - y[None, :]))
    sw = np.sqrt(w)
    B = sw[:, None] * A * sw[None, :]
    vals, vecs = np.linalg.eigh(B)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    if vals[n_modes - 1] <= 0:
        bad = int(np.argmax(vals[:n_modes] <= 0))
        raise TruncationError(
            f"eigenvalue {bad + 1} of {n_modes} requested modes is nonpositive "
            f"({vals[bad]:.3e}); ask for fewer modes"
        )
    phi = (vecs[:, :n_modes] / sw[:, None]).T
    flip = phi[:, 0] < 0
    phi[flip] *= -1.0
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
    if np.any((np.asarray(n) < 0) | (np.asarray(n) >= sys.n_modes)):
        raise ValueError(f"mode index {n} outside 0..{sys.n_modes - 1}")


def eigen_extend(sys, n, x):
    """Extension phi_n^E(x) = (1/kappa_n) sum_q w_q K(|x - y_q|) phi_n(y_q).

    Agrees with phi_n on [a, b] (exactly at rule nodes, by the discrete
    eigenvalue equation) and decays to 0 as |x| grows.  Mode indices are
    zero-based.  A sequence of indices n gives one column per mode, all
    from a single kernel evaluation at the points of x.
    """
    n = np.asarray(n)
    _check_mode(sys, n)
    flat = np.atleast_1d(np.asarray(x, dtype=float))
    kx = kernel_eval(sys.kernel, np.abs(flat[:, None] - sys.nodes[None, :]))
    out = (kx * sys.weights) @ sys.eigenfunctions[n].T / sys.eigenvalues[n]
    return out[0] if np.ndim(x) == 0 else out


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


def apply_multiplier(sys, coeffs, p):
    """Apply the kernel operator (p = +1) or its inverse (p = -1) as a
    multiplier on eigencoefficients; returns samples at the rule nodes.

    Given coefficients c_n with respect to phi_n, returns the sample vector
    of sum_n kappa_n^p c_n phi_n.  For p = -1 this inverts the operator on
    the represented span only; the caller accepts that truncation.
    """
    if p not in (1, -1):
        raise ValueError(f"p must be +1 or -1, got {p!r}")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size > sys.n_modes:
        raise ValueError(f"coeffs must be a vector of length <= {sys.n_modes}")
    n = coeffs.size
    scaled = sys.eigenvalues[:n] ** p * coeffs
    return sys.eigenfunctions[:n].T @ scaled
