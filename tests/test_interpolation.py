"""Norm-minimal interpolation: exactness, optimality, conditioning."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve

from maternlab import (
    CONDITIONING_FLOOR,
    JITTER_SCALE,
    ConditioningError,
    ConditioningWarning,
    KernelSpec,
    NodeSet,
    assemble_gram,
    equidistant_nodes,
    evaluate,
    f_exact,
    f_native_norm_sq,
    interpolate,
    kernel_eval,
    native_error_norm,
    native_norm_sq,
)
from maternlab import interpolation


def test_nodeset_validation():
    NodeSet(points=[-0.5, 0.0, 0.5], halfwidth=1.0)
    with pytest.raises(ValueError):
        NodeSet(points=[], halfwidth=1.0)
    with pytest.raises(ValueError):
        NodeSet(points=[0.0, 0.0], halfwidth=1.0)  # distinct required
    with pytest.raises(ValueError):
        NodeSet(points=[0.5, -0.5], halfwidth=1.0)  # increasing required
    with pytest.raises(ValueError):
        NodeSet(points=[-2.0, 0.0], halfwidth=1.0)  # outside the domain
    with pytest.raises(ValueError):
        NodeSet(points=[0.0, np.inf], halfwidth=1.0)
    with pytest.raises(ValueError):
        NodeSet(points=[0.0], halfwidth=-1.0)


def test_nodeset_is_read_only_and_sized():
    X = NodeSet(points=[-0.5, 0.0, 0.5], halfwidth=1.0)
    assert len(X) == 3
    with pytest.raises(ValueError):
        X.points[0] = 9.0
    assert X.spacing == pytest.approx(0.5)
    lone = NodeSet(points=[0.3], halfwidth=1.0)
    assert lone.spacing == 2.0  # the whole interval counts as the gap


def test_equidistant_nodes_spacing():
    X = equidistant_nodes(1.2, 11)
    assert len(X) == 11
    assert X.points[0] == -1.2
    assert X.points[-1] == 1.2
    assert X.spacing == pytest.approx(0.24, rel=1e-14)
    with pytest.raises(ValueError):
        equidistant_nodes(1.2, 1)


def test_gram_matrix_symmetric_with_kernel_diagonal():
    k = KernelSpec(m=2, amplitude=1.3)
    X = equidistant_nodes(1.0, 7)
    A = assemble_gram(k, X)
    assert A.shape == (7, 7)
    assert np.allclose(A, A.T, rtol=0, atol=0)
    assert np.allclose(np.diag(A), 1.3)


def test_interpolant_reproduces_data_at_nodes():
    # node reproduction degrades with the Gram condition number, so keep the
    # separation distance honest and the tolerance matched to it
    rng = np.random.default_rng(404)
    k = KernelSpec(m=2)
    for _ in range(20):
        n = rng.integers(2, 30)
        pts = np.sort(rng.uniform(-1, 1, size=n))
        pts = pts[np.concatenate([[True], np.diff(pts) > 0.02])]
        X = NodeSet(points=pts, halfwidth=1.0)
        vals = rng.standard_normal(len(X))
        s = interpolate(k, X, vals)
        assert np.max(np.abs(evaluate(s, X.points) - vals)) < 1e-9


def test_single_node_interpolant_is_a_kernel_translate():
    # with one node and value K(0), minimality forces s = K(. - x0)
    k = KernelSpec(m=2, amplitude=2.0)
    X = NodeSet(points=[0.3], halfwidth=1.0)
    s = interpolate(k, X, [k.amplitude])
    xs = np.linspace(-1, 1, 41)
    from maternlab import kernel_eval

    assert np.allclose(evaluate(s, xs), kernel_eval(k, np.abs(xs - 0.3)), rtol=1e-13)


def test_evaluate_scalar_returns_float():
    k = KernelSpec(m=2)
    X = equidistant_nodes(1.0, 5)
    s = interpolate(k, X, f_exact(X.points))
    out = evaluate(s, 0.25)
    assert isinstance(out, float)
    arr = evaluate(s, np.array([0.25, 0.5]))
    assert arr.shape == (2,)
    assert s(0.25) == out  # callable form


def test_native_norm_monotone_under_refinement():
    # optimal recovery: the norm of the interpolant grows with the node set
    # and stays below the norm of the interpolated function
    k = KernelSpec(m=2)
    f_sq = f_native_norm_sq()
    norms = []
    for N in (5, 9, 17, 33, 65):
        X = equidistant_nodes(1.2, N)
        s = interpolate(k, X, f_exact(X.points))
        norms.append(native_norm_sq(s))
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= f_sq
    # the gap closes: at N=65 the interpolant carries nearly the whole norm
    assert f_sq - norms[-1] < 1e-6


def test_native_norm_equals_quadratic_form():
    rng = np.random.default_rng(77)
    k = KernelSpec(m=2)
    X = equidistant_nodes(0.9, 13)
    vals = rng.standard_normal(13)
    s = interpolate(k, X, vals)
    A = assemble_gram(k, X)
    a = s.coefficients
    assert native_norm_sq(s) == pytest.approx(float(a @ A @ a), rel=1e-10)
    assert native_norm_sq(s) == pytest.approx(float(a @ vals), rel=1e-12)


def _translate_deriv(k, x, order):
    # derivative of x -> kernel_eval(k, |x|) for the m = 2, d = 1 kernel:
    # (1+r) e^{-r}, -x e^{-r} and (r-1) e^{-r} for orders 0, 1, 2
    r = np.abs(x)
    poly = (1.0 + r, -x, r - 1.0)[order]
    return k.amplitude * poly * np.exp(-r)


def test_translate_derivatives_match_finite_differences():
    k = KernelSpec(m=2, amplitude=1.7)
    h = 1e-6
    rng = np.random.default_rng(31)
    xs = rng.uniform(-3, 3, size=25)
    xs = xs[np.abs(xs) > 1e-3]
    assert np.allclose(_translate_deriv(k, xs, 0), kernel_eval(k, np.abs(xs)), rtol=1e-15, atol=0)
    for order in (1, 2):
        fd = (
            _translate_deriv(k, xs + h, order - 1) - _translate_deriv(k, xs - h, order - 1)
        ) / (2 * h)
        assert np.max(np.abs(fd - _translate_deriv(k, xs, order))) < 1e-8


def _direct_native_error(s):
    # |r|_K^2 = 1/4 int_R (r^2 + 2 r'^2 + r''^2) for the unit-amplitude m = 2
    # kernel, from its symbol 4/(1 + w^2)^2.  r = f - s is analytic between
    # the nodes and the breakpoints of f, so Gauss-Legendre runs per cell;
    # unit cells cover the exponential tails, cut at |x| = 40 where r is below
    # rounding.
    t, w = np.polynomial.legendre.leggauss(20)
    edges = np.unique(
        np.concatenate([s.nodes.points, [-1.0, 1.0], np.arange(-40.0, 41.0)])
    )
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * t).ravel()
    wx = (half[:, None] * w).ravel()
    dist = x[:, None] - s.nodes.points[None, :]
    r0, r1, r2 = (
        f_exact(x, q) - _translate_deriv(s.kernel, dist, q) @ s.coefficients
        for q in range(3)
    )
    return float(np.sqrt(0.25 * wx @ (r0**2 + 2.0 * r1**2 + r2**2)))


def test_error_norm_pythagoras():
    k = KernelSpec(m=2)
    f_sq = f_native_norm_sq()
    for N in (21, 161):
        X = equidistant_nodes(1.2, N)
        s = interpolate(k, X, f_exact(X.points))
        err = native_error_norm(f_sq, s)
        assert err**2 + native_norm_sq(s) == pytest.approx(f_sq, rel=1e-12)
        # the split holds by construction; the direct integral does not
        assert err == pytest.approx(_direct_native_error(s), rel=1e-5)
    with pytest.raises(ValueError):
        native_error_norm(native_norm_sq(s) - 1e-3, s)  # claimed norm too small


def test_conditioning_error_on_near_duplicate_nodes():
    k = KernelSpec(m=2)
    X = NodeSet(points=[0.0, 1e-9, 0.5], halfwidth=1.0)
    with pytest.raises(ConditioningError) as info:
        interpolate(k, X, [1.0, 1.0, 0.5])
    err = info.value
    assert err.pivot_index == 1
    assert err.pivot_value <= err.floor
    assert err.floor == pytest.approx(CONDITIONING_FLOOR)


def test_jitter_rescues_with_warning():
    k = KernelSpec(m=2)
    X = NodeSet(points=[0.0, 1e-9, 0.5], halfwidth=1.0)
    with pytest.warns(ConditioningWarning):
        s = interpolate(k, X, [1.0, 1.0, 0.5], jitter=True)
    # the regularized solve still reproduces well-separated data closely
    assert evaluate(s, 0.5) == pytest.approx(0.5, abs=1e-5)


def test_jitter_goes_onto_the_diagonal_in_place(monkeypatch):
    # the dense path (m = 3; m <= 2 takes the state-space solve).  481 is
    # near the largest equidistant m = 3 ladder on [-1.2, 1.2] that factors
    # without jitter, and one N x N array (1.8 MB) still exceeds the bound.
    k = KernelSpec(m=3)
    X = equidistant_nodes(1.2, 481)
    vals = f_exact(X.points)
    # the coefficients of the old out-of-place A + c I, solved the same way
    k0 = kernel_eval(k, 0.0)
    old_A = assemble_gram(k, X) + (JITTER_SCALE * k0) * np.eye(len(X))
    L = interpolation._cholesky_floor(old_A, CONDITIONING_FLOOR * k0)
    with pytest.warns(ConditioningWarning):
        s = interpolate(k, X, vals, jitter=True)
    assert np.array_equal(s.coefficients, cho_solve((L, True), vals))

    # and no N x N array beyond the plain solve's.  The assembly's own
    # temporaries peak higher than an out-of-place A + c I would, so the
    # Gram matrix is handed in ready-made.
    gram = assemble_gram(k, X)
    monkeypatch.setattr(interpolation, "assemble_gram", lambda k, X: gram.copy())
    peaks = {}
    for jitter in (False, True):
        tracemalloc.start()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            interpolate(k, X, vals, jitter=jitter)
        peaks[jitter] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[True] - peaks[False] < 1 << 20, peaks


def test_interpolate_validates_values():
    k = KernelSpec(m=2)
    X = equidistant_nodes(1.0, 5)
    with pytest.raises(ValueError):
        interpolate(k, X, [1.0, 2.0])  # wrong length
    with pytest.raises(ValueError):
        interpolate(k, X, [1.0, 2.0, np.nan, 0.0, 1.0])


def test_interpolant_arrays_read_only():
    k = KernelSpec(m=2)
    X = equidistant_nodes(1.0, 5)
    s = interpolate(k, X, f_exact(X.points))
    with pytest.raises(ValueError):
        s.coefficients[0] = 7.0
    with pytest.raises(ValueError):
        s.values[0] = 7.0
    with pytest.raises(ValueError):
        s.states[0, 1] = 7.0


def _nodes(N, jittered, C=1.0, seed=0):
    if N == 1:
        return NodeSet(points=[0.3], halfwidth=C)
    pts = np.linspace(-C, C, N)
    if jittered:
        h = pts[1] - pts[0]
        pts[1:-1] += np.random.default_rng(seed).uniform(-h / 4, h / 4, N - 2)
    return NodeSet(points=pts, halfwidth=C)


@pytest.mark.parametrize("jittered", [False, True])
@pytest.mark.parametrize(
    "m, N",
    [(m, N) for m in (1, 2) for N in (1, 2, 11, 161, 1281)]
    # the m = 3 Gram matrix on 1281 nodes is below the conditioning floor
    + [(3, N) for N in (1, 2, 11, 161)],
)
def test_evaluate_matches_dense_oracle(m, N, jittered):
    # m = 1, 2 take the state-space path, m = 3 the blocked Bessel
    # sum.  Random data give coefficients up to ~1e9 whose translates cancel
    # to O(1), so the error is measured against sum_j |a_j| K(|x - x_j|), the
    # size of the terms both summations round.
    k = KernelSpec(m=m, amplitude=2.5)
    X = _nodes(N, jittered, seed=N)
    rng = np.random.default_rng(7 * N + m)
    s = interpolate(k, X, rng.standard_normal(N))
    x = np.concatenate(
        [
            np.linspace(-1.0, 1.0, 1001),
            X.points,
            rng.uniform(-2.0, 2.0, 200),
            [-1e3, -50.0, -3.0, 3.0, 50.0, 1e3],
        ]
    )
    K = kernel_eval(k, np.abs(x[:, None] - X.points[None, :]))
    dense = K @ s.coefficients
    scale = K @ np.abs(s.coefficients)
    got = evaluate(s, x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - dense) <= 1e-12 * scale)
    assert np.array_equal(evaluate(s, x[None, :]), got[None, :])
    for x0 in (X.points[-1], 0.123, -7.5):
        one = evaluate(s, x0)
        assert isinstance(one, float)
        assert one == evaluate(s, np.array([x0]))[0]


@pytest.mark.parametrize("m", [2, 3])
def test_evaluate_rejects_non_finite_points(m):
    k = KernelSpec(m=m)
    s = interpolate(k, equidistant_nodes(1.0, 5), np.ones(5))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            evaluate(s, bad)
        with pytest.raises(ValueError):
            evaluate(s, np.array([0.0, bad, 0.5]))


def _row_cholesky_pivots(A, floor):
    # Reference: the unpivoted row-by-row lower Cholesky.  Returns the pivots
    # (diagonal remainders before their square roots) up to and including
    # the first one at or below the floor.
    n = A.shape[0]
    L = np.zeros_like(A)
    pivots = []
    for j in range(n):
        d = A[j, j] - L[j, :j] @ L[j, :j]
        pivots.append(d)
        if d <= floor:
            break
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return np.array(pivots)


def _row_cholesky_pivot(A, floor):
    # index and value of the first pivot at or below the floor, or None
    # when every pivot clears it
    pivots = _row_cholesky_pivots(A, floor)
    return (pivots.size - 1, pivots[-1]) if pivots[-1] <= floor else None


@pytest.mark.parametrize("m, gap", [(1, 1e-14), (2, 1e-9)])
@pytest.mark.parametrize("N", [41, 301])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_conditioning_pivot_agrees_with_row_cholesky(m, gap, N, where):
    # A gap of 1e-14 with m = 1 leaves a pivot near 5e-14, inside (0, floor],
    # and the LAPACK factorization runs to the end; a gap of 1e-9 with m = 2
    # leaves a pivot at rounding level, where LAPACK stops (info > 0).
    k = KernelSpec(m=m, amplitude=2.5)
    pts = np.linspace(-1.0, 1.0, N)
    j = {"first": 1, "middle": N // 2, "last": N - 1}[where]
    pts[j] = pts[j - 1] + gap
    X = NodeSet(points=pts, halfwidth=1.0)
    floor = CONDITIONING_FLOOR * k.amplitude
    want = _row_cholesky_pivot(assemble_gram(k, X), floor)
    assert want is not None and want[0] == j
    with pytest.raises(ConditioningError) as info:
        interpolate(k, X, np.ones(N))
    assert info.value.pivot_index == j
    assert info.value.pivot_value <= floor
    assert info.value.floor == pytest.approx(floor)


def test_conditioning_reports_first_low_pivot_before_lapack_stops():
    # a pivot near 1e-14 at 1, then a rounding-level one at 30 where the
    # LAPACK factorization stops: the error names the first
    k = KernelSpec(m=2)
    pts = np.linspace(-1.0, 1.0, 41)
    pts[1] = pts[0] + 1e-7
    pts[30] = pts[29] + 1e-9
    X = NodeSet(points=pts, halfwidth=1.0)
    want = _row_cholesky_pivot(assemble_gram(k, X), CONDITIONING_FLOOR)
    with pytest.raises(ConditioningError) as info:
        interpolate(k, X, np.ones(41))
    assert want[0] == info.value.pivot_index == 1
    assert 0.0 < info.value.pivot_value <= CONDITIONING_FLOOR


@pytest.mark.parametrize("m", [2, 3])
def test_evaluate_never_holds_an_n_by_m_array(m):
    # one float64 N x M array would take 400 * 20000 * 8 B = 64 MB
    k = KernelSpec(m=m)
    X = equidistant_nodes(1.0, 400)
    s = interpolate(k, X, f_exact(X.points))
    x = np.linspace(-1.5, 1.5, 20000)
    tracemalloc.start()
    try:
        evaluate(s, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _family(name, N):
    if name == "sine":
        # graded toward both ends: gaps near h^2 there
        return NodeSet(points=np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, N)), halfwidth=1.0)
    if name == "wide":
        # cells of 40 length scales: mid-cell values near e^{-20} of the data
        return NodeSet(points=np.linspace(-200.0, 200.0, N), halfwidth=200.0)
    return _nodes(N, name == "jittered", seed=N)


@pytest.mark.parametrize("jitter", [False, True])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize(
    "family, N",
    [(f, N) for f in ("uniform", "jittered") for N in (1, 2, 11, 161, 1281)]
    + [("sine", N) for N in (2, 11, 41, 161, 321, 1281)]
    + [("wide", 11)],
)
def test_state_space_solve_matches_dense_oracle(family, N, m, jitter):
    # The d = 1, m <= 2 solve against the dense Cholesky of A (+ c I),
    # random data, amplitude 2.5.  Errors are measured against the size of
    # the terms both sides round, as in test_evaluate_matches_dense_oracle.
    k = KernelSpec(m=m, amplitude=2.5)
    X = _family(family, N)
    x = X.points
    rng = np.random.default_rng(7 * N + m)
    y = rng.standard_normal(N)
    k0 = kernel_eval(k, 0.0)
    noise = JITTER_SCALE * k0 if jitter else 0.0
    floor = CONDITIONING_FLOOR * k0
    A = assemble_gram(k, X)
    A[np.diag_indices_from(A)] += noise
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        try:
            L = interpolation._cholesky_floor(A.copy(), floor)
        except ConditioningError as exc:
            # past the dense oracle's reach, both refuse at the same pivot
            with pytest.raises(ConditioningError) as info:
                interpolate(k, X, y, jitter=jitter)
            assert info.value.pivot_index == exc.pivot_index
            return
        s = interpolate(k, X, y, jitter=jitter)
    a = cho_solve((L, True), y)

    mid = 0.5 * (x[1:] + x[:-1])
    pts = np.concatenate(
        [x, mid, rng.uniform(-2.0, 2.0, 300), [-1e3, -50.0, 50.0, 1e3]]
    )
    K = kernel_eval(k, np.abs(pts[:, None] - x[None, :]))
    # On sine-graded m = 2 nodes from N = 161 the dense solve is the less
    # accurate side: against a 50-digit solve at N = 161 it is off by
    # 2.5e-13 of the scale, the state-space solve by 6e-21.
    tol = 1e-10 if (family, m) == ("sine", 2) and N >= 161 else 1e-12
    for got in (evaluate(s, pts), K @ s.coefficients):
        assert np.all(np.abs(got - K @ a) <= tol * (K @ np.abs(a)))

    # the node slopes belong to the same interpolant as the coefficients
    if m == 2:
        D = x[:, None] - x[None, :]
        Kp = -k0 * D * np.exp(-np.abs(D))
        c = s.coefficients
        assert np.all(np.abs(s.states[:, 1] - Kp @ c) <= 1e-12 * (np.abs(Kp) @ np.abs(c)))
    assert native_norm_sq(s) == pytest.approx(
        a @ y, abs=1e-12 * (np.abs(a) @ A @ np.abs(a))
    )

    # innovation variances are the Cholesky pivots; the dense ones carry an
    # absolute rounding near N eps K(0) (9e-15 K(0) at most, measured), which
    # dominates for the m = 2 sine-graded pivots near 1e-11 K(0)
    solve = {1: interpolation._solve_ou, 2: interpolation._solve_m2}[m]
    pivots = solve(x, y, k0, noise, floor)[3]
    if N <= 161:
        want = _row_cholesky_pivots(A, floor)
        assert want.size == N
        assert np.all(np.abs(pivots - want) <= 1e-7 * want + 2e-14 * k0)
    if m == 1 and not jitter:
        gaps = np.diff(x)
        assert pivots[0] == k0
        assert np.allclose(pivots[1:], k0 * -np.expm1(-2.0 * gaps), rtol=1e-15, atol=0)


def test_state_space_jitter_matches_the_dense_jittered_solve():
    # the case jitter exists for: a near-duplicate pair that fails without it
    for m, gap in ((1, 1e-14), (2, 1e-9)):
        k = KernelSpec(m=m, amplitude=2.5)
        pts = np.linspace(-1.0, 1.0, 41)
        pts[20] = pts[19] + gap
        X = NodeSet(points=pts, halfwidth=1.0)
        y = f_exact(pts)
        with pytest.raises(ConditioningError):
            interpolate(k, X, y)
        k0 = kernel_eval(k, 0.0)
        A = assemble_gram(k, X) + JITTER_SCALE * k0 * np.eye(41)
        a = cho_solve((interpolation._cholesky_floor(A, CONDITIONING_FLOOR * k0), True), y)
        with pytest.warns(ConditioningWarning):
            s = interpolate(k, X, y, jitter=True)
        grid = np.linspace(-1.5, 1.5, 601)
        K = kernel_eval(k, np.abs(grid[:, None] - pts[None, :]))
        assert np.all(np.abs(evaluate(s, grid) - K @ a) <= 1e-12 * (K @ np.abs(a)))
        assert native_norm_sq(s) == pytest.approx(a @ y, rel=1e-9)
        # the data are smoothed, not reproduced: the pair disagrees in f
        assert np.max(np.abs(s.states[:, 0] - y)) > 0.0


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_state_space_path_runs_at_sizes_the_dense_path_cannot_hold():
    # One N x N float64 array at N = 1e5 would take 80 GB, one N x grid array
    # 800 GB.  The m = 1 error must keep its h^2 decay from 1e4 to 1e5 nodes.
    k = KernelSpec(m=1)
    rms = {}
    for N in (10**4, 10**5):
        X = equidistant_nodes(1.2, N)
        y = f_exact(X.points)
        grid = np.linspace(-1.2, 1.2, 10 * N)
        f_grid = f_exact(grid)
        values, peak = _traced_peak(lambda: evaluate(interpolate(k, X, y), grid))
        rms[N] = np.sqrt(np.mean((values - f_grid) ** 2))
    assert peak < 32 * 2**20, peak  # the 8 MB result plus O(N) state
    rate = np.log(rms[10**4] / rms[10**5]) / np.log((10**5 - 1) / (10**4 - 1))
    assert rate == pytest.approx(2.0, abs=0.01)

    k = KernelSpec(m=2)
    X = equidistant_nodes(1.2, 3 * 10**4)
    y = f_exact(X.points)
    grid = np.linspace(-1.2, 1.2, 3 * 10**5)
    s, peak = _traced_peak(lambda: interpolate(k, X, y))
    values, peak_eval = _traced_peak(lambda: evaluate(s, grid))
    assert max(peak, peak_eval) < 16 * 2**20, (peak, peak_eval)
    assert np.array_equal(evaluate(s, X.points), y)
    assert np.max(np.abs(values - f_exact(grid))) < 1e-14


def test_state_space_floor_trips_where_the_dense_pivot_would():
    # m = 2 on 1e5 nodes of [-0.8, 0.8]: the third pivot, about gap^3, sits
    # below the floor.  The leading pivots of A depend on the leading nodes
    # only, so the dense row Cholesky on the first three nodes is the oracle.
    k = KernelSpec(m=2)
    X = equidistant_nodes(0.8, 10**5)
    with pytest.raises(ConditioningError) as info:
        interpolate(k, X, f_exact(X.points))
    assert info.value.pivot_index == 2
    assert 0.0 < info.value.pivot_value <= CONDITIONING_FLOOR
    head = NodeSet(points=X.points[:3], halfwidth=0.8)
    want = _row_cholesky_pivot(assemble_gram(k, head), CONDITIONING_FLOOR)
    assert want is not None and want[0] == 2
