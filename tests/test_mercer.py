"""Nystrom eigenpairs, extensions, and native-space Gram identities.

The continuous eigenvalues of the exponential kernel operator on [-1, 1]
are 2/(1+omega^2) with omega tan(omega) = 1 for even modes and
tan(omega) = -omega for odd modes, and the eigenfunctions are cos(omega x)
and sin(omega x); the root-finder below supplies them independently of the
Nystrom code.
"""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from dense_oracle import solve_dense
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

import maternlab
from maternlab import (
    KernelSpec,
    MercerSystem,
    TruncationError,
    eigen_extend,
    equidistant_nodes,
    hk_gram_extended,
    hk_gram_matrix,
    kernel_eval,
    nystrom_eig,
    paper_amplitude,
    project_samples,
)
from maternlab import kernels, mercer
from maternlab.kernels import _kernel_rows, _translate_sum
from maternlab.mercer import _gauss_legendre


def _continuous_omega(n_modes):
    """Leading frequencies omega_n in (n pi/2, (n+1) pi/2).

    Even n solve omega tan(omega) = 1, written omega sin - cos = 0; odd n
    solve omega cot(omega) = -1, written omega cos + sin = 0.
    """
    out = []
    for n in range(n_modes):
        if n % 2 == 0:
            g = lambda w: w * np.sin(w) - np.cos(w)  # noqa: E731
        else:
            g = lambda w: w * np.cos(w) + np.sin(w)  # noqa: E731
        out.append(brentq(g, n * np.pi / 2, (n + 1) * np.pi / 2, xtol=1e-15))
    return np.array(out)


def _continuous_kappa(n_modes):
    """Leading eigenvalues 2/(1+omega_n^2)."""
    return 2.0 / (1.0 + _continuous_omega(n_modes) ** 2)


def _continuous_phi(n_modes, y):
    """L2(-1, 1)-normalized cos(omega_n y) (even n) and sin(omega_n y) (odd n)."""
    rows = []
    for n, w in enumerate(_continuous_omega(n_modes)):
        if n % 2 == 0:
            rows.append(np.cos(w * y) / np.sqrt(1.0 + np.sin(2 * w) / (2 * w)))
        else:
            rows.append(np.sin(w * y) / np.sqrt(1.0 - np.sin(2 * w) / (2 * w)))
    return np.array(rows)


KAPPA_1, KAPPA_2 = _continuous_kappa(2)


def test_leading_eigenvalues_approach_continuous_values():
    k = KernelSpec(m=1)
    errs = []
    for rule in (50, 100, 200):
        sys_ = nystrom_eig(k, -1.0, 1.0, rule, 3)
        errs.append(abs(sys_.eigenvalues[0] - KAPPA_1))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-5
    sys_ = nystrom_eig(k, -1.0, 1.0, 200, 3)
    assert abs(sys_.eigenvalues[1] - KAPPA_2) < 5e-5
    assert np.all(np.diff(sys_.eigenvalues) <= 0)  # sorted descending


def test_twenty_leading_eigenvalues_match_the_transcendental_roots():
    # every requested kappa_n, not just the first two, against the roots;
    # the Nystrom error is second order in 1/Q, so doubling Q must cut
    # each mode's error by well over half
    kappa = _continuous_kappa(20)
    errs = {}
    for rule in (200, 400):
        sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, rule, 20)
        errs[rule] = np.abs(sys_.eigenvalues - kappa)
    assert np.all(errs[400] < 1e-5), errs[400]
    assert np.all(errs[400] < errs[200] / 3.0), errs[200] / errs[400]


def _solve_with_spectrum(k, a, b, rule_size, n_modes):
    # nystrom_eig, and every eigenvalue that its eigensolver returned
    name = "_parity_eigh" if rule_size >= mercer._PARITY_MIN_RULE else "_dense_eigh"
    real, seen = getattr(mercer, name), []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    with mock.patch.object(mercer, name, spy):
        sys_ = nystrom_eig(k, a, b, rule_size, n_modes)
    return sys_, seen[0][0]


def test_trace_identity():
    # sum of all discrete eigenvalues equals (b - a) * K(0) exactly
    _, spectrum = _solve_with_spectrum(KernelSpec(m=1), -1.0, 1.0, 150, 10)
    assert float(np.sum(spectrum)) == pytest.approx(2.0, abs=1e-12)
    wide, spectrum = _solve_with_spectrum(KernelSpec(m=2, amplitude=1.5), -0.5, 2.5, 80, 5)
    assert float(np.sum(spectrum)) == pytest.approx(3.0 * 1.5, abs=1e-12)
    # the rule mapped onto [a, b]: interior nodes, positive weights, and
    # exactness through degree 2Q - 1 on the shifted interval
    assert np.all((wide.nodes > -0.5) & (wide.nodes < 2.5) & (wide.weights > 0))
    exact = (2.5**8 - 0.5**8) / 8.0
    assert float(np.sum(wide.weights * wide.nodes**7)) == pytest.approx(exact, rel=1e-13)


def _phi_deviation(rule, n_modes):
    # max over the rule nodes of |phi_n - continuous phi_n|, up to sign
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, rule, n_modes)
    exact = _continuous_phi(n_modes, sys_.nodes)
    plus = np.max(np.abs(sys_.eigenfunctions - exact), axis=1)
    minus = np.max(np.abs(sys_.eigenfunctions + exact), axis=1)
    return np.minimum(plus, minus)


def test_eigenfunctions_match_the_closed_form_modes():
    # measured at Q = 200: 1.5e-5 (mode 1) rising to 3.9e-3 (mode 10); the
    # bound 2e-5 (n+1)^2.5 sits 1.3-2.6x above each mode's value
    dev200 = _phi_deviation(200, 10)
    bound = 2e-5 * np.arange(1, 11) ** 2.5
    assert np.all(dev200 < bound), dev200 / bound
    # second order in 1/Q: doubling Q cuts every mode's deviation about 4x
    dev400 = _phi_deviation(400, 10)
    assert np.all(dev400 < dev200 / 3.5), dev200 / dev400


def test_discrete_orthonormality_and_eigen_equation():
    k = KernelSpec(m=1)
    sys_ = nystrom_eig(k, -1.0, 1.0, 120, 8)
    w = sys_.weights
    G = (sys_.eigenfunctions * w) @ sys_.eigenfunctions.T
    assert np.max(np.abs(G - np.eye(8))) < 1e-12
    # integral operator applied at the nodes reproduces kappa_n phi_n
    A = _kernel_rows(k, sys_.nodes, sys_.nodes)
    for n in (0, 3, 7):
        lhs = A @ (w * sys_.eigenfunctions[n])
        rhs = sys_.eigenvalues[n] * sys_.eigenfunctions[n]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sign_convention_first_node_nonnegative():
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 90, 6)
    assert np.all(sys_.eigenfunctions[:, 0] >= 0)


def test_truncation_error_when_spectrum_bottoms_out():
    # the m=4 spectrum decays so fast that requesting every mode of a
    # 60-point rule runs into roundoff-negative eigenvalues
    with pytest.raises(TruncationError):
        nystrom_eig(KernelSpec(m=4), -1.0, 1.0, 60, 60)
    # a modest leading batch of the same discretization is fine
    sys_ = nystrom_eig(KernelSpec(m=4), -1.0, 1.0, 60, 10)
    assert np.all(sys_.eigenvalues > 0)


def test_nystrom_validation():
    k = KernelSpec(m=1)
    with pytest.raises(ValueError):
        nystrom_eig(k, 1.0, -1.0, 50, 3)
    with pytest.raises(ValueError):
        nystrom_eig(k, -1.0, 1.0, 50, 51)
    with pytest.raises(ValueError):
        nystrom_eig(k, -1.0, 1.0, 50, 0)


def test_sizes_must_be_integers():
    # the package's one integer rule (kernels._positive_int, as in KernelSpec
    # and run_rate_study): an integral float is taken, a fraction or a bool
    # (True would build a one-point system) is refused with a ValueError,
    # which cli.main maps to exit 2
    k = KernelSpec(m=1)
    want = nystrom_eig(k, -1.0, 1.0, 20, 4)
    for rule, modes in ((20.0, 4.0), (np.int64(20), np.int32(4))):
        assert np.array_equal(nystrom_eig(k, -1.0, 1.0, rule, modes).eigenfunctions, want.eigenfunctions)
    bad = ((20.5, 4, "rule_size"), (20, 4.5, "n_modes"), (True, True, "rule_size"), (20, True, "n_modes"),
           ("20", 4, "rule_size"), (20, None, "n_modes"), ([20], 4, "rule_size"), (20, 4 + 0j, "n_modes"))
    for rule, modes, name in bad:
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            nystrom_eig(k, -1.0, 1.0, rule, modes)


def _mp_rule_error(t, w, idx):
    # Largest node error against the roots of P_n polished by Newton steps at
    # 40 digits, and largest relative weight error against the weight formula
    # at the given double node.  Rounding a node near +-1 by d moves its exact
    # weight by 2d/(1 - x^2), 4.7e-11 relative at Q = 1600's end nodes, so
    # that weight is the one a double rule can be held to.
    n = t.size

    def legendre(x):  # P_n(x) and P_n'(x) by the recurrence at 40 digits
        prev, p = mp.mpf(1), x
        for j in range(2, n + 1):
            prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
        return p, n * (prev - x * p) / (1 - x * x)

    node_err = weight_err = 0.0
    with mp.workdps(40):
        for i in idx:
            x = root = mp.mpf(float(t[i]))
            for _ in range(3):
                p, dp = legendre(root)
                root -= p / dp
            exact = 2 / ((1 - x * x) * legendre(x)[1] ** 2)
            node_err = max(node_err, abs(float(x - root)))
            weight_err = max(weight_err, abs(float((w[i] - exact) / exact)))
    return node_err, weight_err


# A scan of all 1600 weights gives 1.26e-12 at the third node from each end
# and at most 5.7e-13 elsewhere; numpy's leggauss is off by 3.7e-8 at the ends.
RULE_WEIGHT_TOL = 2e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7, 200, 1600])
def test_rule_matches_40_digit_values(n):
    t, w = _gauss_legendre(n)
    # at Q = 1600 the four outermost nodes at each end and 4 interior ones
    idx = range(n) if n <= 200 else [0, 1, 2, 3, 400, 799, 800, 1200, 1596, 1597, 1598, 1599]
    node_err, weight_err = _mp_rule_error(t, w, idx)
    assert node_err <= 2.3e-16
    assert weight_err <= RULE_WEIGHT_TOL
    if n == 1600:
        assert _mp_rule_error(*leggauss(n), [0, n - 1])[1] > RULE_WEIGHT_TOL


@pytest.mark.parametrize("n", [*range(1, 41), 200, 1601, 4000])
def test_rule_is_symmetric_ascending_and_sums_to_two(n):
    t, w = _gauss_legendre(n)
    assert t.shape == w.shape == (n,)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(t) > 0) and np.all(w > 0)
    assert abs(w.sum() - 2.0) <= 1e-14


@pytest.mark.parametrize("n", range(1, 21))
def test_rule_integrates_monomials_to_degree_2n_minus_1(n):
    t, w = _gauss_legendre(n)
    for k in range(2 * n):
        assert abs(w @ t**k - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) <= 1e-14


def test_rule_memory_is_linear_in_its_size():
    # numpy's companion-matrix rule holds a 4000 x 4000 matrix, 122 MiB
    tracemalloc.start()
    try:
        _gauss_legendre(4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _gauss_legendre_by_expressions(n):
    # _gauss_legendre as it ran before its recurrence worked in place
    k = np.arange(1, n // 2 + 1)
    x = (1 - (n - 1) / (8 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    x = np.append(x, np.zeros(n % 2))
    for step in range(4):
        prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
        dp = n * (prev - x * p) / ((1 - x) * (1 + x))
        x = x - p / dp if step < 3 else x
    w = 2 / ((1 - x) * (1 + x) * dp**2)
    return np.r_[-x[: n // 2], x[::-1]], np.r_[w[: n // 2], w[::-1]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 20, 201, 1600])
def test_in_place_recurrence_repeats_the_expression_loop(n):
    # the in-place ufuncs keep the expressions' operation order, bit for bit
    for got, want in zip(_gauss_legendre(n), _gauss_legendre_by_expressions(n)):
        assert np.array_equal(got, want)


def _nystrom_full_reorder(k, a, b, rule_size, n_modes, eigh=None):
    # nystrom_eig's fields and the whole spectrum, with the gram as one
    # kernel_eval call on all Q x Q radii and all Q eigenvector columns
    # reordered before the leading ones are kept, or with eigh(sw, A, n_modes)
    # for the eigenpairs
    t, w = _gauss_legendre(rule_size)
    half = 0.5 * (b - a)
    y = half * t + 0.5 * (a + b)
    w = half * w
    A = kernel_eval(k, np.abs(y[:, None] - y[None, :]))
    sw = np.sqrt(w)
    if eigh is None:
        vals, vecs = np.linalg.eigh(sw[:, None] * A * sw[None, :])
        order = np.argsort(vals)[::-1]
        vals = vals[order]
        vecs = vecs[:, order]
    else:
        vals, vecs = eigh(sw, A, n_modes)
    phi = (vecs[:, :n_modes] / sw[:, None]).T
    phi[phi[:, 0] < 0] *= -1.0
    fields = {"nodes": y, "weights": w, "eigenvalues": vals[:n_modes], "eigenfunctions": phi}
    return fields, vals


@pytest.mark.parametrize(
    "m,a,b,rule,modes", [(1, -1.0, 1.0, 1535, 48), (2, -1.0, 2.0, 120, 6), (1, -1.0, 1.0, 201, 10)]
)
def test_kept_columns_match_the_full_reorder(m, a, b, rule, modes, monkeypatch):
    # below 1536 points the dense eigh runs unchanged, bit for bit
    monkeypatch.setattr(mercer, "_parity_eigh", None)
    k = KernelSpec(m=m)
    sys_, spectrum = _solve_with_spectrum(k, a, b, rule, modes)
    fields, vals = _nystrom_full_reorder(k, a, b, rule, modes)
    for field, want in fields.items():
        assert np.array_equal(getattr(sys_, field), want), field
    assert np.array_equal(spectrum, vals)


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "m,a,b,rule,modes", [(1, -1.0, 1.0, 1600, 48), (1, -1.0, 1.0, 1601, 48), (2, -0.5, 2.5, 1536, 40)]
)
def test_parity_solve_matches_the_dense_oracle(m, a, b, rule, modes, monkeypatch):
    # From 1536 points the spectrum comes from the two parity halves with
    # only the kept vectors computed, so it matches the dense eigh to the
    # rounding of a backward-stable solve, not bit for bit.  Measured: the
    # eigenvalues within 2.0 eps ||B||, residuals within 3.4 eps ||B||,
    # orthogonality within 5 eps, and each vector within 3.1 eps ||B|| / gap
    # of the oracle's.
    monkeypatch.setattr(mercer, "_dense_eigh", None)
    k = KernelSpec(m=m)
    sys_, spectrum = _solve_with_spectrum(k, a, b, rule, modes)
    want, full = _nystrom_full_reorder(k, a, b, rule, modes)
    for field in ("nodes", "weights"):
        assert np.array_equal(getattr(sys_, field), want[field]), field
    sw = np.sqrt(sys_.weights)
    B = sw[:, None] * _kernel_rows(k, sys_.nodes, sys_.nodes) * sw
    norm = np.max(np.abs(full))  # ||B||_2 of the symmetric B
    assert np.max(np.abs(spectrum - full)) <= 4 * EPS * norm
    assert np.array_equal(sys_.eigenvalues, spectrum[:modes])
    U = (sys_.eigenfunctions * sw).T
    assert np.max(np.linalg.norm(B @ U - U * sys_.eigenvalues, axis=0)) <= 8 * EPS * norm
    assert np.max(np.abs(U.T @ U - np.eye(modes))) <= rule * EPS
    # sign-fixed L2 vectors u = W^1/2 phi, against the perturbation bound
    gap = np.minimum(full[:modes] - full[1 : modes + 1], np.r_[np.inf, -np.diff(full[:modes])])
    moved = np.linalg.norm((sys_.eigenfunctions - want["eigenfunctions"]) * sw, axis=1)
    assert np.all(moved <= 8 * EPS * norm / gap)
    assert np.all(sys_.eigenfunctions[:, 0] >= 0)


def test_parity_solve_refuses_a_truncated_spectrum():
    # m = 4 at 1536 points: 712 of the 1536 eigenvalues are nonpositive, and
    # from eigenvalue 30 on they are at or below the rounding floor, so the
    # halves' eigenvalues refuse 900 modes before any vector is computed
    with pytest.raises(TruncationError, match=r"eigenvalue 30 of 900 requested modes \(.*\) is at or below the rounding floor"):
        nystrom_eig(KernelSpec(m=4), -1.0, 1.0, 1536, 900)


def test_kept_modes_stop_at_the_rounding_floor():
    # An eigenvalue at or below Q eps kappa_1, the symmetric eigensolve's
    # backward error (||B||_2 = kappa_1), is rounding noise.  Only
    # nonpositive ones were refused, so m = 10 at the CLI defaults (200
    # points, 10 modes) kept kappa_10 = 4.9e-16 and its Gram check read 0.9986.
    kept = nystrom_eig(KernelSpec(m=6), -1.0, 1.0, 200, 10)  # kappa_10 / kappa_1 = 1.7e-12
    assert kept.eigenvalues[-1] > 200 * EPS * kept.eigenvalues[0]
    for m in (7, 10):
        _, full = _solve_with_spectrum(KernelSpec(m=m), -1.0, 1.0, 200, 1)
        floor = 200 * EPS * full[0]
        n = int(np.argmax(full <= floor))  # the first mode at the floor, zero-based
        named = f"eigenvalue {n + 1} of 10 requested modes ({full[n]:.3e}) is at or below the rounding floor"
        with pytest.raises(TruncationError, match=re.escape(f"{named} rule_size * eps * kappa_1 = {floor:.3e}")):
            nystrom_eig(KernelSpec(m=m), -1.0, 1.0, 200, 10)
        assert nystrom_eig(KernelSpec(m=m), -1.0, 1.0, 200, n).n_modes == n


def test_parity_solve_refuses_unconverged_vectors(monkeypatch):
    # inverse iteration reports vectors that did not converge in info > 0
    from scipy.linalg import lapack

    real = lapack.dstein
    monkeypatch.setattr(lapack, "dstein", lambda *args: (real(*args)[0], 1))
    with pytest.raises(np.linalg.LinAlgError, match=r"dstein: 1 of \d+ vectors of the even half did not converge"):
        nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 1600, 48)


def _parity_eigh_by_expressions(sw, A, n_modes):
    # _parity_eigh as it was before it worked in a caller's workspace: the
    # scaled top rows and both halves as separate arrays, and dormqr on a
    # copy of the reflectors rather than on the half's packed array
    from scipy.linalg.lapack import dormqr, dstein, dsterf, dsytrd, dsytrd_lwork

    size, n = sw.size, sw.size // 2
    top = sw[:n, None] * A[:n] * sw
    fold = top[:, : -n - 1 : -1]
    halves = [top[:, :n] + fold, top[:, :n] - fold]
    if size % 2:
        col = np.sqrt(2.0) * top[:, n : n + 1]
        halves[0] = np.block([[halves[0], col], [col.T, sw[n] * A[n, n] * sw[n]]])
    tri = []
    for M in halves:
        lwork, _ = dsytrd_lwork(M.shape[0], lower=1)
        c, d, e, tau, _ = dsytrd(M.T, lower=1, lwork=int(lwork), overwrite_a=1)
        tri.append((c, d, e, tau, dsterf(d, e)[0]))
    vals = np.concatenate([t[4] for t in tri])
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    even = order[:n_modes] < halves[0].shape[0]
    vecs = np.zeros((size, n_modes))
    for (c, d, e, tau, w), sign, cols in zip(tri, (1.0, -1.0), (even, ~even)):
        want = int(cols.sum())
        if want == 0:
            continue
        h = d.size
        iblock, isplit = np.ones(h, dtype=np.intc), np.zeros(h, dtype=np.intc)
        isplit[0] = h
        z, info = dstein(d, e, w[-want:], iblock, isplit)  # dsterf's, ascending
        assert info == 0
        z = z[:, ::-1]
        refl = np.asfortranarray(c[1:, :-1])
        _, work, _ = dormqr("L", "N", refl, tau, z[1:], -1)
        z[1:] = dormqr("L", "N", refl, tau, z[1:], int(work[0]))[0]
        vecs[:n, cols] = z[:n] / np.sqrt(2.0)
        vecs[: -n - 1 : -1, cols] = sign * vecs[:n, cols]
        if size % 2 and sign > 0:
            vecs[n, cols] = z[n]
    return vals, vecs


# each rule size twice, each m and interval at least three times
@pytest.mark.parametrize(
    "rule,m,a,b",
    [
        (1535, 1, -1.0, 1.0),
        (1535, 3, -0.3, 1.7),
        (1536, 2, -1.0, 1.0),
        (1536, 1, -0.3, 1.7),
        (1600, 1, -1.0, 1.0),
        (1600, 2, -0.3, 1.7),
        (1601, 3, -1.0, 1.0),
        (1601, 1, -0.3, 1.7),
        (2400, 2, -1.0, 1.0),
        (2400, 3, -0.3, 1.7),
    ],
)
def test_blocked_gram_and_folded_halves_repeat_the_expressions(rule, m, a, b):
    # The solvers sample the rows they read in blocks (the parity halves are
    # folded from fresh blocks of the top rows, B is scaled in place in a
    # fresh sample).  Every field matches the whole-array expressions bit for
    # bit, and so does the blocked gram that they sample.
    k = KernelSpec(m=m)
    sys_, spectrum = _solve_with_spectrum(k, a, b, rule, 24)
    eigh = _parity_eigh_by_expressions if rule >= 1536 else None
    fields, vals = _nystrom_full_reorder(k, a, b, rule, 24, eigh)
    for field, want in fields.items():
        assert np.array_equal(getattr(sys_, field), want), field
    assert np.array_equal(spectrum, vals)
    y = sys_.nodes
    assert np.array_equal(_kernel_rows(k, y, y), kernel_eval(k, np.abs(y[:, None] - y[None, :])))


@pytest.mark.parametrize("rule", [1600, 1601])
def test_parity_solve_leaves_its_top_rows_alone(rule):
    # The solve reads A only through its sampler: each of the top n rows
    # once, in blocks, and for odd Q the centre row.  It scales the fresh
    # rows it is handed and builds the halves in its own array, so A, whose
    # rows the sampler copies, is left as it was.
    k = KernelSpec(m=2)
    t, w = _gauss_legendre(rule)
    sw = np.sqrt(w)
    A = kernel_eval(k, np.abs(t[:, None] - t[None, :]))
    before = A.copy()
    n = rule // 2
    asked = []

    def rows(b):
        asked.append(b)
        return A[b].copy()

    got = mercer._parity_eigh(sw, rows, 12)
    assert np.array_equal(A, before)
    read = np.concatenate([np.arange(rule)[b] for b in asked])
    assert np.array_equal(read, np.r_[np.arange(n), [n] * (rule % 2)]) and len(asked) > 2
    for g, want in zip(got, _parity_eigh_by_expressions(sw, before, 12)):
        assert np.array_equal(g, want)


def _traced_peak(call):
    # peak traced bytes of a second call, so one-time imports and caches
    # of the first do not count
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nystrom_holds_one_rule_by_rule_array():
    # From 1536 points the peak is the two parity halves (half a Q x Q
    # array) and one block of sampled rows: 0.62 x at 1600 and 1601 for
    # m = 1 and 0.71 x for m = 3, whose sampling blocks hold a Horner
    # polynomial beside them (0.80 x with an n x n vector array or a copy of
    # a half's reflectors beside them).  Below 1536, B and eigh's
    # eigenvectors are the two Q x Q arrays held (2.04 x at 1535).
    from scipy.linalg import lapack  # noqa: F401  (imported before tracing)

    cases = ((1535, 1, 2.1), (1600, 1, 0.75), (1601, 1, 0.75), (1600, 3, 0.75), (1601, 3, 0.75))
    for rule, m, bound in cases:
        peak = _traced_peak(lambda: nystrom_eig(KernelSpec(m=m), -1.0, 1.0, rule, 48))
        assert peak <= bound * 8 * rule**2, (rule, m, peak / (8 * rule**2))


@pytest.mark.parametrize("rule", [200, 1535, 1600])
def test_system_holds_no_rule_by_rule_array(rule):
    # nodes, weights and the spectrum hold Q entries, the eigenfunctions Q K
    sys_ = nystrom_eig(KernelSpec(m=2), -1.0, 1.0, rule, 12)
    for field, value in vars(sys_).items():
        assert np.size(value) <= rule * (sys_.n_modes + 1), field


@pytest.mark.parametrize("rule", [1600, 2400])
def test_gram_check_holds_no_rule_by_rule_array(rule):
    # The Gram checks sum A (W Phi)^T by moments: each side's moments and
    # their gathers at the nodes are m arrays of Q x K, so the peak is
    # O(Q K m), 6.2 x 8 Q K for m = 1 and 11.3 x for m = 3 at K = 48, at
    # 1600 and at 2400 points.  One Q x Q array is 33 x 8 Q K at 1600 points
    # and 50 x at 2400.  hk_gram_extended reads its entry of hk_gram_matrix.
    modes = 48
    for m in (1, 3):
        sys_ = nystrom_eig(KernelSpec(m=m), -1.0, 1.0, rule, modes)
        for check in (lambda: hk_gram_matrix(sys_), lambda: hk_gram_extended(sys_, 0, 1)):
            peak = _traced_peak(check)
            assert peak <= (3 * m + 6) * 8 * rule * modes, (m, peak / (8 * rule * modes))


def test_gram_check_samples_no_kernel_matrix(monkeypatch):
    # nystrom_eig samples the gram once; the Gram checks evaluate no kernel
    sys_ = nystrom_eig(KernelSpec(m=2), -1.0, 1.0, 200, 10)
    calls = []

    def counted(k, r, out=None):
        calls.append(np.size(r))
        return kernel_eval(k, r, out)

    monkeypatch.setattr(kernels, "kernel_eval", counted)
    hk_gram_matrix(sys_)
    hk_gram_extended(sys_, 2, 3)
    assert calls == []


_GATE_PROBE = """
import json
import numpy as np
from maternlab import KernelSpec, hk_gram_matrix, nystrom_eig

devs = {}
for workload, rule, modes in (("spectral_checks", 1600, 48), ("cli_defaults", 200, 10)):
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, rule, modes)
    dev = hk_gram_matrix(sys_) * sys_.eigenvalues - np.eye(modes)
    devs[workload] = float(np.max(np.abs(dev)))
print(json.dumps(devs))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_native_gram_gate_holds_for_one_and_two_blas_threads(threads):
    # The benchmark's gates are 1.1 x the frozen max|kappa G - I| of the
    # spectral_checks gram (Q = 1600, 48 modes) and of the CLI's (Q = 200,
    # 10 modes).  The dense eigh met the first only with two BLAS threads
    # (1.113e-13 with one); the moment sum reads 6.3e-14 and 7.2e-14 there
    # (limit 1.016e-13; the long-double form 3.2e-14 and 3.1e-14), and
    # 1.09e-14 at Q = 200 with either (limit 1.311e-14).
    frozen = json.loads((Path(__file__).resolve().parents[1] / "bench" / "frozen.json").read_text())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    src = str(Path(maternlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _GATE_PROBE], capture_output=True, text=True, env=env, timeout=300, check=True
    )
    devs = json.loads(proc.stdout)
    assert set(devs) == {"spectral_checks", "cli_defaults"}
    for workload, dev in devs.items():
        assert dev <= 1.1 * frozen[workload]["gram_max_dev"], (workload, dev)


def test_extension_agrees_at_nodes_and_decays():
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 100, 6)
    for n in (0, 2, 5):
        at_nodes = eigen_extend(sys_, n, sys_.nodes)
        assert np.max(np.abs(at_nodes - sys_.eigenfunctions[n])) < 1e-12
    far = eigen_extend(sys_, 0, np.array([6.0, 10.0]))
    assert np.all(np.abs(far) < 1e-2)
    assert abs(far[1]) < abs(far[0])
    assert type(eigen_extend(sys_, 0, 0.5)) is float
    with pytest.raises(ValueError):
        eigen_extend(sys_, 6, 0.5)


def test_several_modes_extend_to_one_column_each():
    sys_ = nystrom_eig(KernelSpec(m=2), -1.0, 2.0, 120, 6)
    xs = np.linspace(-2.5, 3.5, 401)
    terms = np.abs(kernel_eval(sys_.kernel, np.abs(xs[:, None] - sys_.nodes[None, :])))
    terms *= sys_.weights
    for modes in ([4, 0, 2], (1, 5), range(6)):
        cols = eigen_extend(sys_, modes, xs)
        assert cols.shape == (401, len(modes))
        for c, n in enumerate(modes):
            # one matrix product for all modes sums in another order than
            # the per-mode product: allow the a-priori bound Q eps sum|terms|
            bound = 120 * np.finfo(float).eps * (terms @ np.abs(sys_.eigenfunctions[n]))
            diff = np.abs(cols[:, c] - eigen_extend(sys_, n, xs))
            assert np.all(diff <= bound / sys_.eigenvalues[n])
    at_point = eigen_extend(sys_, [3, 1], 0.5)
    assert at_point.shape == (2,)
    assert np.allclose(at_point, [eigen_extend(sys_, 3, 0.5), eigen_extend(sys_, 1, 0.5)])
    for bad in ([0, 6], [-1, 2], (2, 7)):
        with pytest.raises(ValueError):
            eigen_extend(sys_, bad, xs)


@pytest.mark.parametrize("bad", [True, 1.5, np.float64(2.0)])
def test_mode_indices_must_be_integers(bad):
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 40, 3)
    named = re.escape(repr(bad))
    with pytest.raises(ValueError, match=named):
        eigen_extend(sys_, bad, 0.5)
    with pytest.raises(ValueError, match=named):
        hk_gram_extended(sys_, 0, bad)


@pytest.mark.parametrize("j, l", [([0, 1], 2), (0, [1, 2]), ([0, 1], [1, 2]), (np.array([1]), 0)])
def test_gram_entry_takes_single_mode_indices(j, l):
    # a sequence used to fail inside numpy ("setting an array element with
    # a sequence", or a matmul core-dimension error)
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 40, 3)
    with pytest.raises(ValueError, match=r"mode index .* is not a single integer"):
        hk_gram_extended(sys_, j, l)


@pytest.mark.parametrize("empty", [[], (), np.array([], dtype=int), range(0)])
def test_an_empty_mode_list_is_named_empty(empty):
    # [] used to be refused as "not an integer", range(0) to pass
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 40, 3)
    with pytest.raises(ValueError, match=r"mode index list .* is empty"):
        eigen_extend(sys_, empty, 0.5)


def test_projection_recovers_eigenfunction_coefficients():
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 80, 5)
    for n in range(5):
        c = project_samples(sys_, sys_.eigenfunctions[n])
        expect = np.zeros(5)
        expect[n] = 1.0
        assert np.max(np.abs(c - expect)) < 1e-11
    with pytest.raises(ValueError):
        project_samples(sys_, np.zeros(7))


def _dense_extension(sys_, n, xs):
    # eigen_extend as the weighted M x Q kernel matrix times the mode(s)
    kx = kernel_eval(sys_.kernel, np.abs(xs[:, None] - sys_.nodes[None, :]))
    return (kx * sys_.weights) @ sys_.eigenfunctions[n].T / sys_.eigenvalues[n]


def _rounding_bound(k, centres, c, xs):
    # a-priori bound on the rounding of sum_q c_q K(r_q), r_q = |x - y_q|,
    # per point and column: Q eps of the summed |terms| for the sum, eps r_q
    # per term for each path's rounding of r_q inside e^{-r_q} (condition
    # number r_q), and 4 eps per term for the exp and products
    r = np.abs(xs[:, None] - centres[None, :])
    terms = np.abs(kernel_eval(k, r))
    eps = np.finfo(float).eps
    return eps * ((terms * (centres.size + 4 + 2 * r)) @ np.abs(c))


def _points_around(nodes, rng):
    # left of, on, between and right of the nodes, in unsorted order
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    span = nodes[-1] - nodes[0]
    left = nodes[0] - span * rng.uniform(0, 1, 7)
    right = nodes[-1] + span * rng.uniform(0, 1, 7)
    return rng.permutation(np.concatenate([left, nodes[::3], mid[::3], right]))


def test_extensions_match_their_dense_kernel_sums():
    rng = np.random.default_rng(7)
    for m, amp in (
        (1, 1.0), (2, 1.0), (1, paper_amplitude(1)), (2, paper_amplitude(2)),
        (3, 1.0), (3, paper_amplitude(3)),
    ):
        sys_ = nystrom_eig(KernelSpec(m=m, amplitude=amp), -1.0, 2.0, 120, 6)
        pts = _points_around(sys_.nodes, rng)
        terms = np.abs(kernel_eval(sys_.kernel, np.abs(pts[:, None] - sys_.nodes[None, :])))
        terms *= sys_.weights
        cols = eigen_extend(sys_, range(6), pts)
        for n in range(6):
            # the structured sum adds in another order than the matrix
            # product: allow the a-priori bound Q eps sum|terms| / kappa
            bound = 120 * np.finfo(float).eps * (terms @ np.abs(sys_.eigenfunctions[n]))
            bound /= sys_.eigenvalues[n]
            dense = _dense_extension(sys_, n, pts)
            assert np.all(np.abs(eigen_extend(sys_, n, pts) - dense) <= bound)
            assert np.all(np.abs(cols[:, n] - dense) <= bound)
    # the coefficients of the dense oracle's interpolant sum by the same
    # moments: within Q eps sum|terms| of its own K @ a
    for m in (1, 2, 3):
        k = KernelSpec(m=m, amplitude=paper_amplitude(m))
        X = equidistant_nodes(1.0, 41)
        a = solve_dense(k, X, np.cos(3.0 * X.points)).coefficients
        pts = _points_around(X.points, rng)
        kx = kernel_eval(k, np.abs(pts[:, None] - X.points[None, :]))
        bound = 41 * np.finfo(float).eps * (kx @ np.abs(a))
        assert np.all(np.abs(_translate_sum(k, X.points, a, pts) - kx @ a) <= bound)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extension_points_must_be_finite(m, bad):
    sys_ = nystrom_eig(KernelSpec(m=m), -1.0, 1.0, 40, 3)
    for x in (bad, np.array([0.5, bad, 2.0])):
        with pytest.raises(ValueError, match="finite"):
            eigen_extend(sys_, 0, x)
        with pytest.raises(ValueError, match="finite"):
            eigen_extend(sys_, [0, 2], x)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_extension_points_are_a_scalar_or_a_vector(m):
    # a 2 x 3 array with as many columns as modes must not broadcast into
    # a wrong-shaped result
    sys_ = nystrom_eig(KernelSpec(m=m), -1.0, 1.0, 40, 3)
    x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    with pytest.raises(ValueError, match="1-D"):
        eigen_extend(sys_, range(3), x)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_long_intervals_extend_like_the_dense_sum(m):
    # one anchor for the moment sums would overflow e^{y - a} past ~700
    sys_ = nystrom_eig(KernelSpec(m=m), 0.0, 1500.0, 300, 4)
    pts = _points_around(sys_.nodes, np.random.default_rng(m))
    c = (sys_.weights * sys_.eigenfunctions).T / sys_.eigenvalues
    got = eigen_extend(sys_, range(4), pts)
    assert np.all(np.isfinite(got))
    bound = _rounding_bound(sys_.kernel, sys_.nodes, c, pts)
    assert np.all(np.abs(got - _dense_extension(sys_, range(4), pts)) <= bound)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_extension_never_holds_a_points_by_rule_array(m):
    # one float64 M x Q array would take 1e5 * 1600 * 8 B = 1.28 GB
    sys_ = nystrom_eig(KernelSpec(m=m), -1.0, 1.0, 1600, 1)
    x = np.linspace(-2.0, 2.0, 100_000)
    tracemalloc.start()
    try:
        eigen_extend(sys_, 0, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@st.composite
def _sums(draw):
    # ascending centres (ties allowed), signed coefficient columns, and points
    # at the centres, near them and far out.  Coefficients are 0 or of size
    # 1e-3..1e3 and points stay within 620 of every centre, so no term is
    # subnormal, where the relative rounding bound would not hold.
    centres = np.sort(draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=12)))
    cols = draw(st.integers(1, 3))
    coef = st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
    row = st.lists(coef, min_size=cols, max_size=cols)
    c = np.array(draw(st.lists(row, min_size=centres.size, max_size=centres.size)))
    near = draw(st.lists(st.floats(-25.0, 25.0), max_size=10))
    far = draw(st.lists(st.floats(30.0, 600.0), max_size=4))
    on = draw(st.lists(st.sampled_from(list(centres)), max_size=4))
    xs = np.array(near + on + far + [-v for v in far], dtype=float)
    return centres, c, draw(st.permutations(list(xs))) if xs.size else [0.0]


@settings(max_examples=200, deadline=None)
@given(_sums(), st.sampled_from([1, 2, 3]), st.sampled_from([1.0, float(np.sqrt(np.pi / 2))]))
def test_structured_sum_matches_the_dense_oracle(case, m, amp):
    centres, c, xs = case
    xs = np.array(xs, dtype=float)
    k = KernelSpec(m=m, amplitude=amp)
    # unit weights and eigenvalues make the extension the plain sum over c
    ones = np.ones(c.shape[1])
    sys_ = MercerSystem(
        kernel=k,
        a=centres[0],
        b=centres[-1],
        nodes=centres,
        weights=np.ones(centres.size),
        eigenvalues=ones,
        eigenfunctions=c.T,
    )
    got = eigen_extend(sys_, range(c.shape[1]), xs)
    want = kernel_eval(k, np.abs(xs[:, None] - centres[None, :])) @ c
    assert np.all(np.abs(got - want) <= _rounding_bound(k, centres, c, xs))


def test_native_gram_of_extensions_is_inverse_spectrum():
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 150, 6)
    for j in range(6):
        assert hk_gram_extended(sys_, j, j) == pytest.approx(
            1.0 / sys_.eigenvalues[j], rel=1e-10
        )
    assert abs(hk_gram_extended(sys_, 0, 3)) < 1e-10
    G = hk_gram_matrix(sys_)
    assert G.shape == (6, 6)
    assert np.allclose(G, G.T, rtol=0, atol=0)
    scaled = G * sys_.eigenvalues[None, :]
    assert np.max(np.abs(scaled - np.eye(6))) < 1e-9


@pytest.mark.parametrize("rule, modes", [(200, 10), (1600, 48)])
def test_gram_entry_is_the_matrix_entry(rule, modes):
    # one route to a Gram entry: hk_gram_extended took its own two-mode
    # product, which differed from the matrix at rounding in 99 of 100
    # entries at Q = 200 and in 2,299 of 2,304 at Q = 1600 (up to 9.5e-12)
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, rule, modes)
    G = hk_gram_matrix(sys_)
    every = [(j, l) for j in range(modes) for l in range(modes)]
    pairs = every if rule == 200 else [(0, 0), (0, 47), (47, 0), (13, 29), (47, 47)]
    for j, l in pairs:
        assert hk_gram_extended(sys_, j, l) == G[j, l], (j, l)


@pytest.mark.parametrize("rule", [100, 200])
def test_native_gram_from_the_h1_norm(rule):
    # For K = exp(-|x|) the native inner product is the H1 form
    # (f, g)_K = 1/2 integral over R of (f g + f' g').  Integrate the
    # extensions and their derivatives, written here from the kernel, with
    # Gauss-Legendre panels split at +-1 and at every rule node (the kinks),
    # out to 40 units past the interval, where exp(-80) is negligible.
    n_modes = 8
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, rule, n_modes)
    cuts = np.concatenate(
        [np.arange(-41.0, -1.0), [-1.0], sys_.nodes, [1.0], np.arange(2.0, 42.0)]
    )
    t, w = leggauss(20)
    lo, hi = cuts[:-1, None], cuts[1:, None]
    x = (0.5 * (hi - lo) * t + 0.5 * (hi + lo)).ravel()
    wx = (0.5 * (hi - lo) * w).ravel()
    g = eigen_extend(sys_, range(n_modes), x)
    d = x[:, None] - sys_.nodes[None, :]
    dk = -np.sign(d) * np.exp(-np.abs(d)) * sys_.weights
    dg = dk @ sys_.eigenfunctions.T / sys_.eigenvalues
    H = 0.5 * ((wx[:, None] * g).T @ g + (wx[:, None] * dg).T @ dg)
    kappa = sys_.eigenvalues[None, :]
    # measured 8e-15 and 3e-15 at Q = 100 and 200
    assert np.max(np.abs(H * kappa - np.eye(n_modes))) <= 1e-12
    assert np.max(np.abs((H - hk_gram_matrix(sys_)) * kappa)) <= 1e-12


def _assert_gram_matches_the_long_double_form(sys_):
    # G = (W Phi) A (W Phi)^T / kappa kappa^T from the same double inputs,
    # with A sampled densely and every product summed in long double.  The
    # double Gram sums A (W Phi)^T by moments (kernels._translate_sum), whose
    # a-priori rounding bound per entry, eps (Q + 4 + 2 r) of the summed
    # |terms|, grows with the interval; what it reads is 0.08 to 0.9 % of
    # gamma_{2Q+4} |W Phi| A |W Phi|^T / kappa kappa^T, the dense product's
    # bound (W Phi rounding once, two sums of length Q, two roundings in the
    # scaling; gamma_n = n u / (1 - n u), u = eps / 2), which the test keeps.
    # A dropped or repeated term moves entries by far more than that bound;
    # the mirror makes G symmetric bit for bit.
    ld = np.longdouble
    A = _kernel_rows(sys_.kernel, sys_.nodes, sys_.nodes).astype(ld)
    wphi = sys_.weights.astype(ld) * sys_.eigenfunctions.astype(ld)
    kappa = sys_.eigenvalues.astype(ld)
    scale = np.outer(kappa, kappa)
    want = wphi @ A @ wphi.T / scale
    rule, modes = sys_.nodes.size, sys_.n_modes
    u = EPS / 2
    gamma = (2 * rule + 4) * u / (1 - (2 * rule + 4) * u)
    bound = gamma * (np.abs(wphi) @ A @ np.abs(wphi).T) / scale
    got = hk_gram_matrix(sys_)
    assert np.array_equal(got, got.T)
    assert np.all(np.abs(got - want) <= bound), float(np.max(np.abs(got - want) / bound))
    for j, l in [(0, 0), (0, 1), (1, modes - 1), (modes - 1, modes - 1), (modes // 2, 2)]:
        assert abs(hk_gram_extended(sys_, j, l) - want[j, l]) <= bound[j, l], (j, l)


@pytest.mark.parametrize("rule,modes", [(200, 10), (400, 40)])
def test_gram_check_matches_the_long_double_quadratic_form(rule, modes):
    _assert_gram_matches_the_long_double_form(nystrom_eig(KernelSpec(m=1), -1.0, 1.0, rule, modes))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("a, b, rule, modes", [(-0.3, 1.7, 1600, 48), (0.0, 6.0, 400, 40), (-10.0, 10.0, 800, 40)])
def test_gram_check_matches_the_long_double_form_on_long_intervals(m, a, b, rule, modes):
    # intervals of 2, 6 and 20 units reach the moment sum's blocks of unit
    # length and its carries between them, on both sides of every node
    _assert_gram_matches_the_long_double_form(nystrom_eig(KernelSpec(m=m), a, b, rule, modes))


def test_system_is_frozen_and_read_only():
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 40, 3)
    assert isinstance(sys_, MercerSystem)
    assert sys_.n_modes == 3
    with pytest.raises(ValueError):
        sys_.eigenvalues[0] = 5.0
    with pytest.raises(ValueError):
        sys_.eigenfunctions[0, 0] = 5.0
    with pytest.raises(ValueError):
        sys_.nodes[0] = 5.0
    with pytest.raises(ValueError):
        sys_.weights[0] = 5.0
