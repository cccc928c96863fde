"""Nystrom discretization of the kernel integral operator on an interval.

A Gauss-Legendre rule turns the eigenproblem for the operator
(T g)(x) = integral over [a, b] of K(|x - y|) g(y) dy into the symmetric
matrix problem B u = kappa u with B = W^{1/2} A W^{1/2}, where A holds
kernel samples at the rule nodes and W the weights.  Eigenfunction samples
phi_n = W^{-1/2} u_n are then discretely orthonormal in L2(a, b).  The rule
costs O(Q^2) time, the eigensolve O(Q^3): one dense eigh below 1536 points,
and from 1536 on a tridiagonal reduction of each parity half with only the
kept eigenvectors computed, about 3x faster at Q = 1600 (see _parity_eigh,
whose LAPACK calls are the package's only use of scipy).  Each solver
finds every eigenvalue, to merge the halves and to refuse modes at the
rounding floor, and the system keeps the leading n_modes.  Both sample the
rows of A they read, and the system keeps no Q x Q array: from 1536 points
the peak is the two halves and a block of rows (0.62 times A at Q = 1600),
below it B and eigh's eigenvectors (2 times A).

The eigenfunctions extend off the interval through the eigenvalue equation
itself, kappa_n phi_n^E = K * (chi phi_n), and the extensions inherit the
native-space orthogonality kappa_l (phi_j^E, phi_l^E)_K = delta_jl, which
the Gram checks verify discretely by (W Phi) A (W Phi)^T.  Extensions and
A (W Phi)^T sum kernel translates at the nodes by moments, O((Q + M) K m) for
M points and K modes (kernels._translate_sum): only the eigensolve samples A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .kernels import _array, _index, _interval, _kernel_rows, _points, _positive_int, _slices, _translate_sum

__all__ = [
    "MercerSystem",
    "nystrom_eig",
    "eigen_extend",
    "project_samples",
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
    """

    kernel: object
    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray

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
    # float scalars and a positional out: fewer conversions per ufunc call, same IEEE operations
    steps = [(2.0 * j - 1, j - 1.0, float(j)) for j in range(2, n + 1)]
    for step in range(4):  # three Newton steps, then P_n' at the nodes
        prev, p, nxt = np.ones_like(x), x.copy(), np.empty_like(x)
        for c, d, j in steps:  # ((2j - 1) x p - (j - 1) prev) / j in place
            np.multiply(x, c, nxt)
            nxt *= p
            prev *= d
            nxt -= prev
            nxt /= j
            prev, p, nxt = p, nxt, prev
        dp = n * (prev - x * p) / ((1 - x) * (1 + x))
        x = x - p / dp if step < 3 else x
    w = 2 / ((1 - x) * (1 + x) * dp**2)
    return np.r_[-x[: n // 2], x[::-1]], np.r_[w[: n // 2], w[::-1]]


def _refuse_truncation(vals, n_modes):
    # kept eigenvalues at or below Q eps ||B||_2, the eigensolve's backward error, are noise
    floor = vals.size * np.finfo(float).eps * vals[0]
    if vals[n_modes - 1] <= floor:
        bad = int(np.argmax(vals[:n_modes] <= floor))
        raise TruncationError(
            f"eigenvalue {bad + 1} of {n_modes} requested modes ({vals[bad]:.3e}) is at or below "
            f"the rounding floor rule_size * eps * kappa_1 = {floor:.3e}; ask for fewer modes"
        )


def _dense_eigh(sw, rows, n_modes):
    """All eigenvalues of B = W^1/2 A W^1/2, descending, and the n_modes
    leading eigenvectors as columns, from one dense eigh: O(Q^3).  B is
    scaled in place in the freshly sampled rows(slice(None)) of A, so it and
    eigh's eigenvector matrix are the two Q x Q arrays held."""
    B = rows(slice(None))
    B *= sw[:, None]
    B *= sw
    vals, vecs = np.linalg.eigh(B)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    _refuse_truncation(vals, n_modes)
    return vals, vecs[:, order[:n_modes]]


def _parity_eigh(sw, rows, n_modes):
    """_dense_eigh's result from the two parity halves of B.

    The rule is mirror-symmetric bit for bit, so B = J B J (J the reversal;
    off-centre intervals to the rounding of the shift, as the fold reads
    only B's top rows) and B u = kappa u splits into M+ v = kappa v for the
    even vectors u = [v; Jv] / sqrt 2 and M- v = kappa v for the odd ones
    u = [v; -Jv] / sqrt 2, with M+- = B11 +- B12 J on the top n = Q // 2
    rows of B.  For odd Q the centre row and column join M+ scaled by
    sqrt 2, and the last entry of v is an even vector's centre sample.
    rows(b) returns rows b of A afresh; the fold scales A's top rows a block
    at a time into M+ and M-, their own arrays, half the size of A together.
    Each is reduced to tridiagonal form in place (dsytrd, a quarter of the
    dense reduction's flops for both); sterf gives all its eigenvalues,
    inverse iteration (dstein) only the kept vectors, and dormqr takes them
    back (dormtr for UPLO = 'L', which scipy does not wrap) with the
    reflectors shifted in place to the half's leading block: no Q x Q array.
    """
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import dormqr, dstein, dsytrd, dsytrd_lwork

    size, n = sw.size, sw.size // 2
    plus, minus = np.empty((size - n, size - n)), np.empty((n, n))
    head, sw_head = plus[:n], sw[:n]

    def fold(b):  # rows b of M+ and M-, from rows b of B's top
        t = rows(b)
        t *= sw_head[b, None]
        t *= sw
        near, far = t[:, :n], t[:, : -n - 1 : -1]
        np.add(near, far, out=head[b, :n])
        if size % 2:
            head[b, n] = np.sqrt(2.0) * t[:, n]
        np.subtract(near, far, out=minus[b])

    for b in _slices(n, size):
        fold(b)
    if size % 2:
        plus[n, :n] = plus[:n, n]
        plus[n, n] = sw[n] * rows(slice(n, n + 1))[0, n] * sw[n]
    tri = []
    for M in (plus, minus):  # M is symmetric, so M.T is its Fortran-ordered twin
        lwork, _ = dsytrd_lwork(M.shape[0], lower=1)
        c, d, e, tau, _ = dsytrd(M.T, lower=1, lwork=int(lwork), overwrite_a=1)
        tri.append((c, d, e, tau, eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="sterf")))
    vals = np.concatenate([t[4] for t in tri])
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    _refuse_truncation(vals, n_modes)
    even = order[:n_modes] < plus.shape[0]
    vecs = np.zeros((size, n_modes))
    for (c, d, e, tau, w), sign, cols, half in zip(tri, (1.0, -1.0), (even, ~even), ("even", "odd")):
        want, h = int(cols.sum()), d.size
        if want == 0:
            continue
        z, info = dstein(d, e, w[-want:], np.ones(h, np.intc), np.full(h, h, np.intc))  # one block of h rows
        if info:
            raise np.linalg.LinAlgError(f"dstein: {info} of {want} vectors of the {half} half did not converge")
        z = z[:, ::-1]  # the kept vectors, descending
        flat = c.T.reshape(-1)  # c is Fortran-ordered: its columns end to end
        for j in range(h - 1):  # column j's reflector, c[1:, j], packed to ld h - 1
            flat[j * (h - 1) : (j + 1) * (h - 1)] = flat[j * h + 1 : (j + 1) * h]
        refl = flat[: (h - 1) ** 2].reshape((h - 1, h - 1), order="F")
        _, query, _ = dormqr("L", "N", refl, tau, z[1:], -1)
        z[1:] = dormqr("L", "N", refl, tau, z[1:], int(query[0]))[0]
        vecs[:n, cols] = z[:n] / np.sqrt(2.0)
        vecs[: -n - 1 : -1, cols] = sign * vecs[:n, cols]
        if size % 2 and sign > 0:
            vecs[n, cols] = z[n]
    return vals, vecs


# Below this rule size the dense eigh runs: importing scipy.linalg for the
# parity path costs more than it saves there.
_PARITY_MIN_RULE = 1536


def nystrom_eig(k, a, b, rule_size, n_modes):
    """Discretize the kernel operator on [a, b] and return leading eigenpairs.

    Rules of 1536 points or more are solved from their two parity
    halves, computing only the kept eigenvectors (see _parity_eigh);
    smaller rules by one dense eigh, which is the parity path's test
    oracle.  Each solver samples the kernel rows it reads; the returned
    system holds no Q x Q array.

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
    ValueError
        When a size is not a positive integer (a bool, or a float with a
        fraction) or n_modes exceeds rule_size, or a >= b.
    TruncationError
        When a kept eigenvalue is at or below rule_size * eps * kappa_1, the
        eigensolve's backward error: the rule cannot resolve that many modes.
    """
    a, b = _interval(a, b)
    rule_size = _positive_int(rule_size, "rule_size")
    n_modes = _positive_int(n_modes, "n_modes")
    if n_modes > rule_size:
        raise ValueError(f"need 1 <= n_modes <= rule_size, got {n_modes}, {rule_size}")
    t, w = _gauss_legendre(rule_size)
    half = 0.5 * (b - a)
    y = half * t + 0.5 * (a + b)
    w = half * w
    sw = np.sqrt(w)

    def rows(b):  # rows b of the gram, freshly sampled
        return _kernel_rows(k, y[b], y)

    eigh = _parity_eigh if rule_size >= _PARITY_MIN_RULE else _dense_eigh
    vals, vecs = eigh(sw, rows, n_modes)
    phi = (vecs / sw[:, None]).T
    phi[phi[:, 0] < 0] *= -1.0
    eigvals = vals[:n_modes].copy()
    for arr in (y, w, eigvals, phi):
        arr.setflags(write=False)
    return MercerSystem(kernel=k, a=a, b=b, nodes=y, weights=w, eigenvalues=eigvals, eigenfunctions=phi)


def eigen_extend(sys, n, x):
    """Extension phi_n^E(x) = (1/kappa_n) sum_q w_q K(|x - y_q|) phi_n(y_q).

    Agrees with phi_n on [a, b] (at the rule nodes to the rounding of the
    eigensolve, by the discrete eigenvalue equation) and decays to 0 as |x|
    grows.  Mode indices are zero-based; a sequence of indices n gives one
    column per mode, and one mode at a scalar point gives a float.  At M
    points, Q rule nodes and K modes it takes O((Q + M) K m) time and
    memory.  Raises ValueError for a mode index that is not an integer in
    range (a bool or a float is none), an empty list of them, a point that
    is not finite or x of more than one dimension.
    """
    if _array(n, "mode index").size == 0:
        raise ValueError(f"mode index list {n!r} is empty")
    n = _index(n, sys.n_modes, "mode index")
    flat = np.atleast_1d(_points(x, "extension points"))
    if flat.ndim != 1:
        raise ValueError("extension points must be a scalar or 1-D array")
    c = (sys.weights * sys.eigenfunctions[n]).T / sys.eigenvalues[n]
    out = _translate_sum(sys.kernel, sys.nodes, c, flat)
    if np.ndim(x):
        return out
    return float(out[0]) if n.ndim == 0 else out[0]


def project_samples(sys, samples):
    """Coefficients c_n = sum_q w_q samples_q phi_n(y_q) of finite samples;
    eigen_extend(sys, range(sys.n_modes), x) @ c extends them off [a, b]."""
    samples = _points(samples, "samples")
    if samples.shape != sys.nodes.shape:
        raise ValueError("samples must be given at the rule nodes")
    return sys.eigenfunctions @ (sys.weights * samples)


def hk_gram_extended(sys, j, l):
    """Native-space inner product (phi_j^E, phi_l^E)_K, discretized: entry
    (j, l) of hk_gram_matrix.

    Uses the identity (phi_j^E, phi_l^E)_K =
    (1/(kappa_j kappa_l)) * double integral of phi_j(x) K(|x-y|) phi_l(y)
    over [a,b]^2, evaluated with the rule.  Expected value: delta_jl /
    kappa_l (orthogonality carries over from L2 to the native space).
    Raises ValueError unless j and l are single mode indices in range.
    """
    for n in (j, l):
        if _index(n, sys.n_modes, "mode index").ndim:
            raise ValueError(f"mode index {n!r} is not a single integer")
    return float(hk_gram_matrix(sys)[j, l])


def hk_gram_matrix(sys):
    """Native-space Gram matrix (W Phi) A (W Phi)^T / kappa kappa^T of the extensions over
    all modes, mirrored to exact symmetry, with A (W Phi)^T summed by moments
    (kernels._translate_sum): O(Q K (K + m)) time, O(Q K m) memory, no kernel sampled."""
    wphi = sys.weights * sys.eigenfunctions
    a_wphi = _translate_sum(sys.kernel, sys.nodes, wphi.T, sys.nodes)
    kappa = sys.eigenvalues
    gram = wphi @ a_wphi / (kappa[:, None] * kappa)
    return np.triu(gram) + np.triu(gram, 1).T
