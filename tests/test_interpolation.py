"""Norm-minimal interpolation: exactness, optimality, conditioning."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from dense_oracle import solve_dense
from hypothesis import strategies as st
from mpmath import mp

from maternlab import (
    CONDITIONING_FLOOR,
    ConditioningError,
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
)
from maternlab import interpolation, kernels


def _coefficients(s):
    # a = A^{-1} y of a state-space interpolant, from its states and bridge
    # weights: half the Markov energy gradient at node j, w_{j-1} - Phi_j^T w_j
    # (P^{-1} z_0 for w_{-1}, w_{N-1} = 0), has f-part K(0) a_j.  This is the
    # arithmetic the solve itself used while it kept the coefficients.
    m, z, w = s.states.shape[1], s.states, s.bridge_weights
    _, _, Pinv = interpolation._process(m)
    dphi, _ = interpolation._transitions(np.diff(s.nodes.points), m)
    back = w + (dphi * w.T[:, None]).sum(axis=0).T
    g = np.vstack([np.zeros(m), w])
    g[0] = Pinv @ z[0]
    return (g - np.vstack([back, np.zeros(m)]))[:, 0] / kernel_eval(s.kernel, 0.0)


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
    # N follows run_rate_study's integer rule: an integral float is taken, a
    # fraction or a bool refused with a ValueError, not numpy's TypeError
    assert np.array_equal(equidistant_nodes(1.2, 21.0).points, equidistant_nodes(1.2, 21).points)
    for N in (21.7, True):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            equidistant_nodes(1.2, N)
    # C = 0 used to fail as "not strictly increasing", C = inf inside linspace
    for C in (0.0, -1.0, math.inf, math.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="C must be finite and positive"):
                equidistant_nodes(C, 11)


def test_gram_matrix_symmetric_with_kernel_diagonal():
    k = KernelSpec(m=2, amplitude=1.3)
    X = equidistant_nodes(1.0, 7)
    A = assemble_gram(k, X)
    assert A.shape == (7, 7)
    assert np.allclose(A, A.T, rtol=0, atol=0)
    assert np.allclose(np.diag(A), 1.3)


@pytest.mark.parametrize("m,amplitude,N", [(3, 1, 1281), (1, 1, 7), (2, 2, 300)])
def test_gram_rows_repeat_one_kernel_matrix(m, amplitude, N):
    # sampled in blocks of rows, bit for bit the one-call kernel matrix
    k = KernelSpec(m=m, amplitude=1.3 * amplitude)
    pts = equidistant_nodes(1.0, N).points
    want = kernel_eval(k, np.abs(pts[:, None] - pts[None, :]))
    assert np.array_equal(assemble_gram(k, NodeSet(pts, 1.0)), want)


def test_dense_gram_holds_one_matrix_and_one_block():
    # the dense oracle's Gram matrix at m = 3.  One call on all N x N radii
    # held the radii, the values and the polynomial, three 13.1 MB arrays at
    # N = 1281.
    k = KernelSpec(m=3)
    X = equidistant_nodes(1.2, 1281)
    A, peak = _traced_peak(lambda: assemble_gram(k, X))
    assert peak <= A.nbytes + 3 * 2**20


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
    assert type(out) is float
    arr = evaluate(s, np.array([0.25, 0.5]))
    assert arr.shape == (2,)
    assert arr[0] == out


def test_native_norm_monotone_under_refinement():
    # optimal recovery: the norm of the interpolant grows with the node set
    # and stays below the norm of the interpolated function
    k = KernelSpec(m=2)
    f_sq = f_native_norm_sq()
    norms = []
    for N in (5, 9, 17, 33, 65):
        X = equidistant_nodes(1.2, N)
        s = interpolate(k, X, f_exact(X.points))
        norms.append(s.norm_sq)
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
    a = _coefficients(s)
    assert s.norm_sq == pytest.approx(float(a @ A @ a), rel=1e-10)
    assert s.norm_sq == pytest.approx(float(a @ vals), rel=1e-12)


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
        f_exact(x, q) - _translate_deriv(s.kernel, dist, q) @ _coefficients(s)
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
        assert err**2 + s.norm_sq == pytest.approx(f_sq, rel=1e-12)
        # the split holds by construction; the direct integral does not
        assert err == pytest.approx(_direct_native_error(s), rel=1e-5)
    with pytest.raises(ValueError):
        native_error_norm(s.norm_sq - 1e-3, s)  # claimed norm too small
    with pytest.raises(ValueError):  # 1.5e-10 relative: the refusal is no looser than 1e-9
        native_error_norm(s.norm_sq - 5e-10, s)
    for bad in (np.nan, np.inf, -1.0):  # a NaN used to come back as the distance
        with pytest.raises(ValueError, match="finite and nonnegative"):
            native_error_norm(bad, s)


def test_error_norm_refusal_is_relative_to_the_norm():
    # ||s||^2 exceeds ||f||^2 by about 3e-16 relative at both amplitudes, 9.8e-4
    # absolute at 1e-12; a norm claimed 10% too small is refused at both
    X = equidistant_nodes(1.2, 20481)
    for amplitude in (1.0, 1e-12):
        k = KernelSpec(m=2, amplitude=amplitude)
        s, f_sq = interpolate(k, X, f_exact(X.points)), f_native_norm_sq(k)
        assert native_error_norm(f_sq, s) == 0.0
        with pytest.raises(ValueError, match="exceeds f_norm_sq"):
            native_error_norm(0.9 * f_sq, s)


def test_conditioning_error_on_near_duplicate_nodes():
    k = KernelSpec(m=2)
    X = NodeSet(points=[0.0, 1e-9, 0.5], halfwidth=1.0)
    with pytest.raises(ConditioningError) as info:
        interpolate(k, X, [1.0, 1.0, 0.5])
    err = info.value
    assert err.pivot_index == 1
    assert err.pivot_value <= err.floor
    assert err.floor == pytest.approx(CONDITIONING_FLOOR, rel=1e-15, abs=0)


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
    assert not hasattr(s, "coefficients")  # the solve never forms a = A^{-1} y
    with pytest.raises(ValueError):
        s.states[0, 0] = 7.0
    with pytest.raises(ValueError):
        s.states[0, 1] = 7.0
    with pytest.raises(ValueError):
        s.bridge_weights[0, 1] = 7.0


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
    dense = K @ _coefficients(s)
    scale = K @ np.abs(_coefficients(s))
    got = evaluate(s, x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - dense) <= 1e-12 * scale)
    assert np.array_equal(evaluate(s, x[None, :]), got[None, :])
    for x0 in (X.points[-1], 0.123, -7.5):
        one = evaluate(s, x0)
        assert isinstance(one, float)
        assert one == evaluate(s, np.array([x0]))[0]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_evaluation_does_not_depend_on_the_order_of_the_points(m):
    # Ascending points merge with the nodes, other orders search them; the
    # series near a node runs to the largest offset in its block of points.
    # Neither may move a value by more than rounding: 1e-15 of the scale of
    # test_evaluate_matches_dense_oracle.
    k = KernelSpec(m=m, amplitude=2.5)
    X = _nodes(161, True, seed=5)
    rng = np.random.default_rng(m)
    s = interpolate(k, X, rng.standard_normal(161))
    x = np.sort(np.concatenate([np.linspace(-1.5, 1.5, 3001), X.points, X.points[::7],
                                rng.uniform(-60.0, 60.0, 40)]))
    scale = kernel_eval(k, np.abs(x[:, None] - X.points)) @ np.abs(_coefficients(s))
    got = evaluate(s, x)
    order = rng.permutation(x.size)
    for other in (evaluate(s, x[::-1])[::-1], evaluate(s, x[order])[np.argsort(order)],
                  np.array([evaluate(s, p) for p in x[::5]])):
        want, tol = (got[::5], scale[::5]) if other.size < x.size else (got, scale)
        assert np.all(np.abs(other - want) <= 1e-15 * tol)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_evaluation_blocks_split_cells_and_leave_a_remainder(m):
    # the cell path works through blocks of points; here a block ends inside
    # a cell and the last block is short.  Every block agrees with the
    # points evaluated in other blocks and with the dense sum.
    rows = kernels._BLOCK_ENTRIES // 64
    k = KernelSpec(m=m, amplitude=2.5)
    X = _nodes(11, False)
    s = interpolate(k, X, np.cos(3.0 * X.points))
    x = np.linspace(-1.25, 1.25, 2 * rows + 123)
    cells = kernels._cells(X.points, x)
    assert cells[rows - 1] == cells[rows] and x.size % rows
    K = kernel_eval(k, np.abs(x[:, None] - X.points))
    a = _coefficients(s)
    got = evaluate(s, x)
    assert np.all(np.abs(got - K @ a) <= 1e-12 * (K @ np.abs(a)))
    shifted = np.concatenate([evaluate(s, x[: rows // 2]), evaluate(s, x[rows // 2 :])])
    assert np.all(np.abs(shifted - got) <= 1e-15 * (K @ np.abs(a)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-12, 12), min_size=1, max_size=10, unique=True),
    st.lists(st.integers(-16, 16), max_size=40),
    st.booleans(),
)
def test_cells_count_the_nodes_at_or_left_of_each_point(nodes, points, ascending):
    # quarter-integer points against half-integer nodes: points on nodes,
    # repeated points and points beyond either end are all common
    x = np.sort(np.array(nodes, dtype=float)) / 2.0
    pts = np.array(points, dtype=float) / 4.0
    if ascending:
        pts = np.sort(pts)
    assert np.array_equal(kernels._cells(x, pts), np.searchsorted(x, pts, side="right"))
    for p in pts[:3]:
        assert kernels._cells(x, p) == np.searchsorted(x, p, side="right")


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
    assert info.value.floor == pytest.approx(floor, rel=1e-15, abs=0)


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


# d/dx and d^2/dx^2 of the unit-amplitude translate K(|x|), by hand from
# (1 + r) e^{-r} and (1 + r + r^2/3) e^{-r}
_TRANSLATE_DERIVS = {
    1: (),
    2: (lambda x, r: -x * np.exp(-r),),
    3: (
        lambda x, r: -x * (1.0 + r) / 3.0 * np.exp(-r),
        lambda x, r: (r * r - r - 1.0) / 3.0 * np.exp(-r),
    ),
}


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize(
    "family, N, m",
    # The dense m = 3 solve is off by 1e-5 of the values from N = 41 (against
    # a 50-digit solve), and on sine-graded m = 2 nodes from N = 1281 the
    # dense factorization fails: test_structured_solve_matches_a_50_digit_gram_solve
    # and the graded ladder below take over there.
    [(f, N, m) for f in ("uniform", "jittered") for N in (1, 2, 11, 161, 1281) for m in (1, 2)]
    + [("sine", N, m) for N in (2, 11, 41, 161, 321, 1281) for m in (1, 2) if (N, m) != (1281, 2)]
    + [("wide", N, m) for N in (11, 41, 161) for m in (1, 2, 3)]
    + [(f, N, 3) for f in ("uniform", "jittered") for N in (1, 2, 11)]
    + [("sine", N, 3) for N in (2, 11)],
)
def test_state_space_solve_matches_dense_oracle(family, N, m, mirrored):
    # The state-space solve against the dense Cholesky of A, random
    # data, amplitude 2.5.  Mirrored, it solves on -x with the data reversed
    # and is read back at -x: its elimination order and the end that carries
    # the stationary prior swap, the interpolant must not.  Errors are
    # measured against the size of the terms both sides round, as in
    # test_evaluate_matches_dense_oracle.
    k = KernelSpec(m=m, amplitude=2.5)
    X = _family(family, N)
    x = X.points
    rng = np.random.default_rng(7 * N + m)
    y = rng.standard_normal(N)
    k0 = kernel_eval(k, 0.0)
    floor = CONDITIONING_FLOOR * k0
    A = assemble_gram(k, X)
    a = solve_dense(k, X, y).coefficients
    flip = -1.0 if mirrored else 1.0
    if mirrored:
        s = interpolate(k, NodeSet(points=-x[::-1], halfwidth=X.halfwidth), y[::-1])
        coef, states = _coefficients(s)[::-1], s.states[::-1] * (-1.0) ** np.arange(m)
    else:
        s = interpolate(k, X, y)
        coef, states = _coefficients(s), s.states

    mid = 0.5 * (x[1:] + x[:-1])
    pts = np.concatenate(
        [x, mid, rng.uniform(-2.0, 2.0, 300), [-1e3, -50.0, 50.0, 1e3]]
    )
    K = kernel_eval(k, np.abs(pts[:, None] - x[None, :]))
    # On sine-graded m = 2 nodes from N = 161 the dense solve is the less
    # accurate side: against a 50-digit solve at N = 161 it is off by
    # 2.5e-13 of the scale, the state-space solve by 6e-21.
    tol = 1e-10 if (family, m) == ("sine", 2) and N >= 161 else 1e-12
    for got in (evaluate(s, flip * pts), K @ coef):
        assert np.all(np.abs(got - K @ a) <= tol * (K @ np.abs(a)))

    # the node derivatives belong to the same interpolant as the
    # coefficients, up to the rounding of the data where the translates'
    # derivatives vanish (one node, or 40 length scales between nodes)
    assert np.array_equal(states[:, 0], y)
    D = x[:, None] - x[None, :]
    for order, deriv in enumerate(_TRANSLATE_DERIVS[m], start=1):
        Kd = k0 * deriv(D, np.abs(D))
        bound = tol * (np.abs(Kd) @ np.abs(coef)) + 1e-15 * np.abs(y).max()
        assert np.all(np.abs(states[:, order] - Kd @ coef) <= bound)
    assert s.norm_sq == pytest.approx(
        a @ y, abs=1e-12 * (np.abs(a) @ A @ np.abs(a))
    )

    # the refusal bound K(0) (1 - rho(gap)^2) caps every Cholesky pivot and
    # is the pivot for m = 1; the dense pivots carry an absolute rounding
    # near N eps K(0) (9e-15 K(0) at most, measured), the bound here eps K(0)
    if N <= 161:
        bounds = k0 * (1.0 - (kernel_eval(k, np.diff(x)) / k0) ** 2)
        pivots = _row_cholesky_pivots(A, floor)
        assert pivots.size == N and pivots[0] == k0
        assert np.all(pivots[1:] <= bounds * (1.0 + 1e-12) + 2e-14 * k0)
        if m == 1:
            assert np.all(np.abs(pivots[1:] - bounds) <= 1e-7 * bounds + 2e-14 * k0)


def test_near_duplicate_pairs_stay_refused():
    # nothing smooths the data past the floor: the refusal names the node
    # and the node count
    for m, gap in ((1, 1e-14), (2, 1e-9)):
        k = KernelSpec(m=m, amplitude=2.5)
        pts = np.linspace(-1.0, 1.0, 41)
        pts[20] = pts[19] + gap
        X = NodeSet(points=pts, halfwidth=1.0)
        with pytest.raises(ConditioningError, match=r"\(at N=41\)") as info:
            interpolate(k, X, f_exact(pts))
        assert info.value.pivot_index == 20


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


def test_state_space_solves_where_the_dense_pivot_trips():
    # m = 2 on 1e5 nodes of [-0.8, 0.8]: the third Cholesky pivot of A, about
    # gap^3, sits below the 1e-13 floor, which stopped the earlier solvers.
    # The leading pivots of A depend on the leading nodes only, so the dense
    # row Cholesky on the first three nodes shows it.  The gap bound is
    # 2.6e-10, and the solve keeps the boundary-layer law max|f - s| <= 4e-3 h^2.
    k = KernelSpec(m=2)
    X = equidistant_nodes(0.8, 10**5)
    head = NodeSet(points=X.points[:3], halfwidth=0.8)
    want = _row_cholesky_pivot(assemble_gram(k, head), CONDITIONING_FLOOR)
    assert want is not None and want[0] == 2
    s = interpolate(k, X, f_exact(X.points))
    h = 1.6 / (10**5 - 1)
    grid = np.linspace(-0.8, 0.8, 2 * 10**5 - 1)
    assert np.max(np.abs(evaluate(s, grid) - f_exact(grid))) <= 4e-3 * h**2

    # away from the boundary layer, on [-1.2, 1.2], rounding is all that is left
    X = equidistant_nodes(1.2, 10**5)
    s = interpolate(k, X, f_exact(X.points))
    grid = np.linspace(-1.2, 1.2, 2 * 10**5 - 1)  # spacing h / 2
    assert np.sqrt(np.mean((evaluate(s, grid) - f_exact(grid)) ** 2)) <= 1e-15


def _gram_oracle(m, x, y, pts, amplitude=1.0):
    # The dense Gram solve in 50 digits, independent of the package: the
    # reverse Bessel coefficients of p, a = A^{-1} y by Cholesky, then the
    # node states sum_i a_i d^o/dx^o K(|x_j - x_i|), the norm a . y and the
    # values at pts.  The o-th derivative of g(r) = e^{-r} p(r) is
    # e^{-r} sum_i C(o, i) (-1)^(o-i) p^(i)(r).
    with mp.workdps(50):
        f = math.factorial
        p = [mp.mpf(f(2 * m - 2 - k) * f(m - 1) * 2**k) / (f(2 * m - 2) * f(k) * f(m - 1 - k))
             for k in range(m)]
        dp = [p]
        for _ in range(m - 1):
            dp.append([c * (i + 1) for i, c in enumerate(dp[-1][1:])])
        G = [[mp.fsum(math.comb(o, i) * (-1) ** (o - i) * dp[i][k] for i in range(o + 1)
                      if k < len(dp[i])) for k in range(m)] for o in range(m)]
        amp = mp.mpf(amplitude)
        xs = [mp.mpf(float(v)) for v in x]
        n = len(xs)

        def sums(t, orders):
            # sum_i a_i d^o/dt^o K(|t - x_i|) for each order o
            out = [mp.mpf(0)] * len(orders)
            for xi, ai in zip(xs, a):
                r = abs(t - xi)
                e = amp * mp.exp(-r) * ai
                for q, o in enumerate(orders):
                    sign = 1 if t >= xi or o % 2 == 0 else -1
                    out[q] += sign * e * mp.polyval(G[o][::-1], r)
            return out

        A = [[amp * mp.exp(-abs(xi - xj)) * mp.polyval(G[0][::-1], abs(xi - xj)) for xj in xs]
             for xi in xs]
        L = [[mp.mpf(0)] * n for _ in range(n)]
        for j in range(n):
            L[j][j] = mp.sqrt(A[j][j] - mp.fdot(L[j][:j], L[j][:j]))
            for i in range(j + 1, n):
                L[i][j] = (A[i][j] - mp.fdot(L[i][:j], L[j][:j])) / L[j][j]
        b = [mp.mpf(float(v)) for v in y]
        z = []
        for i in range(n):
            z.append((b[i] - mp.fdot(L[i][:i], z)) / L[i][i])
        a = [mp.mpf(0)] * n
        for i in range(n - 1, -1, -1):
            a[i] = (z[i] - mp.fdot([L[k][i] for k in range(i + 1, n)], a[i + 1 :])) / L[i][i]
        states = np.array([[float(v) for v in sums(xj, range(m))] for xj in xs])
        vals = np.array([float(sums(mp.mpf(float(t)), [0])[0]) for t in pts])
        return states, np.array([float(v) for v in a]), float(mp.fdot(a, b)), vals


def _pair(N, gap):
    pts = np.linspace(-1.0, 1.0, N)
    pts[N // 2] = pts[N // 2 - 1] + gap
    return pts


@pytest.mark.parametrize(
    "m, x, a_tol",
    [
        # sine-graded: gaps near 1e-4 at the ends; the dense m = 3
        # factorization stops at N = 81
        (2, np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, 161)), 1e-11),
        (3, np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, 81)), 1e-7),
        # one pair past the old 1e-13 K(0) pivot floor (pivots near gap^3 and
        # gap^5) and above the gap bound (1.6e-13 for m = 2, 3.3e-13 for m = 3)
        (2, _pair(21, 4e-7), 1e-6),
        (3, _pair(21, 1e-6), None),
    ],
    ids=["sine161-m2", "sine81-m3", "pair4e-7-m2", "pair1e-6-m3"],
)
def test_structured_solve_matches_a_50_digit_gram_solve(m, x, a_tol):
    k = KernelSpec(m=m, amplitude=2.5)
    y = np.cos(3.0 * x)
    pts = np.concatenate([0.5 * (x[1:] + x[:-1]), [-3.0, -1.2, 1.2, 3.0]])
    states, a, norm_sq, vals = _gram_oracle(m, x, y, pts, amplitude=2.5)
    s = interpolate(k, NodeSet(points=x, halfwidth=1.0), y)
    err = np.max(np.abs(s.states - states), axis=0) / np.max(np.abs(states), axis=0)
    assert np.all(err <= 1e-13), err
    # the values at -3 and 3 carry the error of s'' times t^2 / 2
    assert np.max(np.abs(evaluate(s, pts) - vals)) <= 2e-13 * np.max(np.abs(vals))
    assert s.norm_sq == pytest.approx(norm_sq, rel=1e-13, abs=0)
    # a = A^{-1} y is the ill-conditioned output: it moves with the rounding
    # of the states times cond(A), and at the m = 3 pair (cond(A) near 1e30)
    # no digit of it survives in double precision.  Nothing on this path
    # reads it.
    if a_tol is not None:
        assert np.max(np.abs(_coefficients(s) - a)) <= a_tol * np.max(np.abs(a))


def test_sine_graded_ladder_keeps_its_rate_past_the_old_floor():
    # sine-graded nodes on [-0.8, 0.8], gaps near h^2 at the ends: the old
    # 1e-13 K(0) pivot floor refused these from N = 401.  The RMS error on a
    # 10 N grid keeps the local rate 4 down to 4e-15.
    k = KernelSpec(m=2)
    rms = []
    for N in (641, 1281, 2561):
        x = 0.8 * np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, N))
        s = interpolate(k, NodeSet(points=x, halfwidth=0.8), f_exact(x))
        grid = np.linspace(-0.8, 0.8, 10 * N)
        rms.append(np.sqrt(np.mean((evaluate(s, grid) - f_exact(grid)) ** 2)))
    rates = np.log2(np.array(rms[:-1]) / rms[1:]) / np.log2((2560 / 1280, 1280 / 640))[::-1]
    assert np.all(np.abs(rates - 4.0) <= 0.2), (rms, rates)
    assert rms[-1] < 1e-14


def test_banded_factorization_failure_is_a_conditioning_error():
    # a Schur block that is not positive definite names its node; the
    # public solve refuses such gaps before it gets there
    D = np.array([[[2.0, -1.0, 2.0]]])  # entry-major: (h, h, n)
    S = np.array([[[1.5, 0.1]]])
    with pytest.raises(ConditioningError) as info:
        interpolation._cyclic_factor(D, S, np.array([4, 5, 6]))
    assert info.value.pivot_index == 5
    assert info.value.pivot_value == -1.0
    # the same system, positive definite, against a dense solve
    D[..., 1] = 3.0
    full = np.diag(D[0, 0]) + np.diag(S[0, 0], -1) + np.diag(S[0, 0], 1)
    got = interpolation._cyclic_factor(D, S, np.arange(3))(np.ones((1, 1, 3)))
    assert np.allclose(got[0, 0], np.linalg.solve(full, np.ones(3)), rtol=1e-14, atol=0)


def _block_tridiagonal(G, S):
    # the dense matrix of diagonal blocks D_j and blocks S_j at row j + 1,
    # column j, given as (n, h, h) stacks.  D_j = G_j G_j^T + (h + |S_(j-1)|
    # + |S_j|) I, norms spectral, is SPD by block diagonal dominance:
    # x^T A x >= sum_j (lambda_min(D_j) - |S_(j-1)| - |S_j|) |x_j|^2 >= h |x|^2.
    # A floor of 4h alone let S outweigh it: for h = 1 and seed 77941937
    # the smallest eigenvalue was -0.0695 (see the test below).
    n, h = G.shape[:2]
    norms = np.linalg.norm(S, 2, axis=(1, 2))
    shift = h + np.r_[0.0, norms] + np.r_[norms, 0.0]
    D = G @ G.transpose(0, 2, 1) + shift[:, None, None] * np.eye(h)
    full = np.zeros((n * h, n * h))
    for j in range(n):
        full[j * h : (j + 1) * h, j * h : (j + 1) * h] = D[j]
    for j in range(n - 1):
        full[(j + 1) * h : (j + 2) * h, j * h : (j + 1) * h] = S[j]
        full[j * h : (j + 1) * h, (j + 1) * h : (j + 2) * h] = S[j].T
    assert np.linalg.eigvalsh(full)[0] >= h * (1 - 1e-12)
    return D, full


def test_a_block_tridiagonal_system_that_is_not_spd_is_refused():
    # the system a floor of 4h alone drew for h = 1, n = 6, seed 77941937:
    # S outweighs the diagonal, so the matrix is indefinite and the cyclic
    # reduction meets a nonpositive pivot, which it must refuse
    rng = np.random.default_rng(77941937)
    S = rng.standard_normal((5, 1, 1))
    G = rng.standard_normal((6, 1, 1))
    D = G * G + 4.0
    full = np.diag(D.ravel()) + np.diag(S.ravel(), -1) + np.diag(S.ravel(), 1)
    assert np.linalg.eigvalsh(full)[0] == pytest.approx(-0.0695, abs=5e-5)
    with pytest.raises(ConditioningError):
        interpolation._cyclic_factor(D.transpose(1, 2, 0), S.transpose(1, 2, 0), np.arange(6))


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 33, 100])
def test_one_cyclic_factorization_solves_many_right_sides(h, n):
    # random SPD block-tridiagonal systems, diagonally dominant by blocks,
    # against np.linalg.solve on the assembled dense matrix
    rng = np.random.default_rng(100 * h + n)
    G = rng.standard_normal((n, h, h))
    S = rng.standard_normal((n - 1, h, h))
    D, full = _block_tridiagonal(G, S)
    solve = interpolation._cyclic_factor(D.transpose(1, 2, 0), S.transpose(1, 2, 0), np.arange(n))
    for b in rng.standard_normal((2, n, h)):
        got = solve(b.T[:, None])[:, 0].T
        want = np.linalg.solve(full, b.ravel()).reshape(n, h)
        assert np.allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(0, 19), st.booleans(), st.integers(0, 2**32 - 1))
def test_entrywise_cholesky_and_cyclic_reduction_match_a_dense_solve(h, half, odd, seed):
    # random SPD block-tridiagonal systems of n = 1 ... 40 blocks, odd and
    # even, held entry-major (h, h, n): one factorization applied to two
    # right sides against np.linalg.solve, and the blocks' inverses from
    # their Cholesky factors against np.linalg.inv
    n = 2 * half + 1 if odd else 2 * half + 2
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n - 1, h, h))
    D, full = _block_tridiagonal(rng.standard_normal((n, h, h)), S)
    solve = interpolation._cyclic_factor(D.transpose(1, 2, 0), S.transpose(1, 2, 0), np.arange(n))
    for b in rng.standard_normal((2, n, h)):
        got = solve(b.T[:, None])[:, 0].T
        want = np.linalg.solve(full, b.ravel()).reshape(n, h)
        assert np.allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    lower = np.tril(D) + np.triu(rng.standard_normal((n, h, h)), 1)  # never read
    got = interpolation._inverse(lower.transpose(1, 2, 0), np.arange(n)).transpose(2, 0, 1)
    want = np.linalg.inv(D)
    assert np.allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_interpolate_factors_once_and_evaluate_recomputes_nothing(m, monkeypatch):
    # the factorization recurses on the even-numbered half: one factorization
    # of 161 blocks is one call per size 161, 81, ..., 1
    transitions, factor = interpolation._transitions, interpolation._cyclic_factor
    calls = {"transitions": 0, "factor sizes": []}

    def counted_transitions(d, m):
        calls["transitions"] += 1
        return transitions(d, m)

    def counted_factor(D, S, ids):
        calls["factor sizes"].append(D.shape[-1])
        return factor(D, S, ids)

    monkeypatch.setattr(interpolation, "_transitions", counted_transitions)
    monkeypatch.setattr(interpolation, "_cyclic_factor", counted_factor)
    X = _nodes(161, jittered=True, seed=3)
    s = interpolate(KernelSpec(m=m, amplitude=2.5), X, f_exact(X.points))
    once = {"transitions": 1, "factor sizes": [] if m == 1 else [161, 81, 41, 21, 11, 6, 3, 2, 1]}
    assert calls == once
    evaluate(s, np.linspace(-1.5, 1.5, 3001))
    assert calls == once
    # the stored weights are W_j r_j of the stored states, bit for bit
    dphi, W = transitions(np.diff(X.points), m)
    z = s.states.T[:, None]
    r = np.diff(z) - interpolation._mul(dphi, z[..., :-1])
    assert np.array_equal(s.bridge_weights, interpolation._mul(W, r)[:, 0].T)


def test_evaluate_blocks_its_rows_like_the_dense_sum():
    # rows of points in blocks of bounded size, no N x M array (26 MB here),
    # and the dense oracle's sum K @ a at every 37th point
    k = KernelSpec(m=2, amplitude=1.3)
    X = equidistant_nodes(1.0, 400)
    s = interpolate(k, X, f_exact(X.points))
    x = np.linspace(-1.5, 1.5, 8000)
    values, peak = _traced_peak(lambda: evaluate(s, x))
    assert peak < 16 * 2**20
    a = solve_dense(k, X, f_exact(X.points)).coefficients
    K = kernel_eval(k, np.abs(x[::37, None] - X.points))
    assert np.all(np.abs(values[::37] - K @ a) <= 1e-12 * (K @ np.abs(a)))


# ---------------------------------------------------------------- properties


@st.composite
def _node_sets(draw, min_gap=1e-3):
    # 1..24 nodes in [-1, 1] at least min_gap apart, and data in [-1, 1]
    pts = np.sort(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=24, unique=True)))
    x = [pts[0]]
    for p in pts[1:]:
        if p - x[-1] >= min_gap:
            x.append(p)
    y = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(x), max_size=len(x)))
    return np.array(x), np.array(y)


@settings(max_examples=60, deadline=None)
@given(_node_sets(), st.sampled_from([1, 2, 3]), st.sampled_from([1.0, 2.5]))
def test_interpolant_reproduces_the_data_exactly(case, m, amp):
    x, y = case
    X = NodeSet(points=x, halfwidth=1.0)
    s = interpolate(KernelSpec(m=m, amplitude=amp), X, y)
    assert np.array_equal(evaluate(s, x), y)


@settings(max_examples=60, deadline=None)
@given(_node_sets(min_gap=0.01), st.sampled_from([1, 2, 3]), st.data())
def test_kernel_translate_at_a_node_is_reproduced(case, m, data):
    # data from K(|. - x_c|) at a node x_c: the norm-minimal interpolant is
    # that translate itself, everywhere.  The data carry eps K(0) of
    # rounding, which close nodes amplify: at gaps of 0.01 or more the solve
    # misses the translate by up to 1.4e-12 (m = 3, 3000 random node sets).
    # On one such set a 50-digit solve of the same data misses it by as
    # much and agrees with the solve to 4e-15.
    x, _ = case
    c = data.draw(st.integers(0, x.size - 1))
    k = KernelSpec(m=m, amplitude=2.5)
    s = interpolate(k, NodeSet(points=x, halfwidth=1.0), kernel_eval(k, np.abs(x - x[c])))
    t = np.concatenate([np.linspace(-4.0, 4.0, 801), x])
    assert np.max(np.abs(evaluate(s, t) - kernel_eval(k, np.abs(t - x[c])))) <= 1e-11
    assert s.norm_sq == pytest.approx(2.5, rel=1e-12, abs=0)  # ||K(. - x_c)||^2 = K(0)


@settings(max_examples=60, deadline=None)
@given(_node_sets(min_gap=0.02), st.sampled_from([1, 2, 3]))
def test_interpolant_is_symmetric_under_reflection(case, m):
    # s solved on -x with the data reversed is s(-t); the solve itself runs
    # from the left end, so this checks it is not biased toward one end.
    # Rounding alone reached 3.9e-12 of max|y| (m = 3) and 7.8e-15 of the
    # norm over 3000 random node sets.
    x, y = case
    k = KernelSpec(m=m)
    s = interpolate(k, NodeSet(points=x, halfwidth=1.0), y)
    r = interpolate(k, NodeSet(points=-x[::-1], halfwidth=1.0), y[::-1])
    t = np.linspace(-2.0, 2.0, 401)
    scale = np.max(np.abs(y)) + 1e-300
    assert np.max(np.abs(evaluate(r, -t) - evaluate(s, t))) <= 1e-10 * scale
    assert r.norm_sq == pytest.approx(s.norm_sq, rel=1e-12, abs=1e-300)


# the largest gap whose bound K(0)(1 - rho^2) is at or below 1e-13 K(0):
# about 5e-14, 3.2e-7 and 5.5e-7 for m = 1, 2, 3
_REFUSED_GAP = {1: 4.9e-14, 2: 3.1e-7, 3: 5.4e-7}


@settings(max_examples=60, deadline=None)
@given(_node_sets(min_gap=0.01), st.sampled_from([1, 2, 3]), st.floats(0.01, 1.0), st.data())
def test_a_pair_inside_the_gap_bound_is_refused(case, m, frac, data):
    x, y = case
    j = data.draw(st.integers(0, x.size - 1))
    gap = frac * _REFUSED_GAP[m]
    x = np.sort(np.concatenate([x, [x[j] + gap if x[j] < 0.5 else x[j] - gap]]))
    y = np.resize(y, x.size)
    k = KernelSpec(m=m, amplitude=2.5)
    with pytest.raises(ConditioningError) as info:
        interpolate(k, NodeSet(points=x, halfwidth=1.0), y)
    err = info.value
    assert np.diff(x)[err.pivot_index - 1] < 1e-6
    assert 0.0 < err.pivot_value <= err.floor == pytest.approx(2.5e-13, rel=1e-15, abs=0)
    # the reported bound, against 30 digits
    with mp.workdps(30):
        g = mp.mpf(float(x[err.pivot_index] - x[err.pivot_index - 1]))
        p = {1: 1, 2: 1 + g, 3: 1 + g + g**2 / 3}[m]
        want = float(2.5 * (1 - (mp.exp(-g) * p) ** 2))
    assert err.pivot_value == pytest.approx(want, rel=1e-6, abs=0)


# ---------------------------------------------------------------- ladders


def _one_level_markov_solve(m, x, y, k0):
    # The single-level d = 1 solve as it was written before levels could be
    # stacked: the prior on node 0, every cell weighted, one factorization
    # applied twice.  Built from the package's own pieces, so the stacked
    # solve's one-level case must repeat its arithmetic bit for bit.
    # Blocks are entry-major, (m, m, n - 1), and vectors (m, 1, n).
    n, h = y.size, m - 1
    mul = interpolation._mul
    _, _, Pinv = interpolation._process(m)
    dphi, W = interpolation._transitions(np.diff(x), m)

    def gradient(u):
        z = np.concatenate([y[None, None], u])
        r = np.diff(z) - mul(dphi, z[..., :-1])
        w = mul(W, r)
        back = w + mul(dphi.transpose(1, 0, 2), w)
        first = Pinv @ z[:, 0, [0]]
        return z, r, w, np.concatenate([first[:, None], w], axis=2) - np.concatenate(
            [back, np.zeros((m, 1, 1))], axis=2)

    u = np.zeros((h, 1, n))
    if h:
        B = dphi[:, 1:] + np.eye(m)[:, 1:, None]
        WB = mul(W, B)
        D = np.concatenate([Pinv[1:, 1:, None], W[1:, 1:]], axis=2)
        D[..., :-1] += mul(B.transpose(1, 0, 2), WB)
        solve = interpolation._cyclic_factor(D, -WB[1:], np.arange(n))
        for _ in range(2):
            u = u - solve(gradient(u)[3][1:])
    z, r, w, grad = gradient(u)
    rw, z, w = r * w, z[:, 0].T, w[:, 0].T
    return z, w, grad[0, 0] / k0, float(z[0] @ Pinv @ z[0] + np.sum(rw)) / k0


def _ladder_family(name, N, seed=0):
    # equidistant, sine-graded, and jittered with one pair 1e-6 apart
    u = np.linspace(-1.0, 1.0, N)
    if name == "sine":
        u = np.sin(0.5 * np.pi * u)
    elif name == "pair":
        u[1:-1] += np.random.default_rng(seed).uniform(-0.25, 0.25, N - 2) * (u[1] - u[0])
        u[N // 2] = u[N // 2 - 1] + 1e-6
    return NodeSet(points=u, halfwidth=1.0)


@pytest.mark.parametrize("family", ["uniform", "sine", "pair"])
@pytest.mark.parametrize("N", [2, 3, 41, 161])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_level_solve_repeats_the_single_level_arithmetic(family, N, m):
    k = KernelSpec(m=m, amplitude=2.5)
    X = _ladder_family(family, N, seed=N)
    y = np.cos(3.0 * X.points) + np.random.default_rng(N + m).uniform(-0.1, 0.1, N)
    s = interpolate(k, X, y)
    z, w, a, norm_sq = _one_level_markov_solve(m, X.points, y, kernel_eval(k, 0.0))
    assert np.array_equal(s.states, z)
    assert np.array_equal(s.bridge_weights, w)
    assert np.array_equal(_coefficients(s), a)
    assert s.norm_sq == norm_sq
    oracle = interpolation.Interpolant(k, X, z, w, norm_sq)
    grid = np.linspace(-1.5, 1.5, 10 * N)
    assert np.array_equal(evaluate(s, grid), evaluate(oracle, grid))


def _m1_former_arithmetic(x, y, k0):
    # The m = 1 solve as the (n, h, h) stack code computed it, written out:
    # Phi - 1 = expm1(-d), Q = 2 I_0(d) with I_0 = -expm1(-2d)/2, its
    # factor L = Q/sqrt(Q), W = (1/L)/L, P^{-1} = 1, and no unknowns.
    d = np.diff(x)
    Q = -0.5 * np.expm1(-2.0 * d) * 2.0
    L = Q / np.sqrt(Q)
    r = np.diff(y) - np.expm1(-d) * y[:-1]
    w = 1.0 / L / L * r
    return w, float(y[0] * 1.0 * y[0] + np.sum(r * w)) / k0


@pytest.mark.parametrize("amplitude", [1.0, 2.5])
def test_m1_solve_repeats_the_former_stack_arithmetic(amplitude):
    # bit for bit, on every level of the stacked benchmark ladder and on
    # jittered nodes solved alone
    k = KernelSpec(m=1, amplitude=amplitude)
    k0 = kernel_eval(k, 0.0)
    sets = [equidistant_nodes(1.2, N) for N in (161, 321, 641, 1281, 2561)]
    values = [f_exact(X.points) for X in sets]
    solved = interpolation._interpolate_levels(k, sets, values)
    jittered = [_nodes(2561, jittered=True, C=0.8, seed=seed) for seed in (1, 2)]
    for X in jittered:
        values.append(f_exact(X.points))
        solved.append(interpolate(k, X, values[-1]))
    for X, y, s in zip(sets + jittered, values, solved):
        w, norm_sq = _m1_former_arithmetic(X.points, y, k0)
        assert np.array_equal(s.states[:, 0], y)
        assert np.array_equal(s.bridge_weights[:, 0], w)
        assert s.norm_sq == norm_sq


@pytest.mark.parametrize(
    "m, C, ladder",
    [
        (1, 1.2, (161, 321, 641, 1281, 2561)),
        (2, 0.8, (161, 321, 641, 1281, 2561)),
        (2, 1.2, (11, 21, 41, 81, 161)),
        (3, 0.8, (41, 81, 161, 321, 641)),
    ],
)
def test_stacked_levels_agree_with_separate_solves(m, C, ladder):
    # a level's interpolant does not depend on the levels stacked beside
    # it; only the order in which cyclic reduction eliminates its unknowns
    # changes, so the agreement is to rounding
    k = KernelSpec(m=m)
    sets = [equidistant_nodes(C, N) for N in ladder]
    values = [f_exact(X.points) for X in sets]
    grid = np.linspace(-C, C, 10 * ladder[-1])
    stacked = interpolation._interpolate_levels(k, sets, values)
    for X, y, s in zip(sets, values, stacked):
        alone = interpolate(k, X, y)
        assert s.nodes is X and np.array_equal(s.states[:, 0], y)
        for arr in (s.states, s.bridge_weights):
            assert not arr.flags.writeable
        assert np.max(np.abs(evaluate(s, grid) - evaluate(alone, grid))) <= 1e-15
        if m <= 2:
            assert s.norm_sq == pytest.approx(alone.norm_sq, rel=2e-16, abs=0)
    if m == 1:  # nothing is factored: every level is the one-level solve
        assert all(np.array_equal(s.states, interpolate(k, X, y).states)
                   for X, y, s in zip(sets, values, stacked))


def test_stacked_m3_levels_match_a_50_digit_gram_solve():
    # the m = 3 cases of test_structured_solve_matches_a_50_digit_gram_solve,
    # stacked with an equidistant level between them, to the same bounds
    k = KernelSpec(m=3, amplitude=2.5)
    xs = [_pair(21, 1e-6), np.linspace(-1.0, 1.0, 11), np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, 81))]
    sets = [NodeSet(points=x, halfwidth=1.0) for x in xs]
    values = [np.cos(3.0 * x) for x in xs]
    for x, y, s in zip(xs, values, interpolation._interpolate_levels(k, sets, values)):
        pts = np.concatenate([0.5 * (x[1:] + x[:-1]), [-3.0, -1.2, 1.2, 3.0]])
        states, _, norm_sq, vals = _gram_oracle(3, x, y, pts, amplitude=2.5)
        err = np.max(np.abs(s.states - states), axis=0) / np.max(np.abs(states), axis=0)
        assert np.all(err <= 1e-13), err
        assert np.max(np.abs(evaluate(s, pts) - vals)) <= 2e-13 * np.max(np.abs(vals))
        assert s.norm_sq == pytest.approx(norm_sq, rel=1e-13, abs=0)


def test_each_stacked_level_keeps_its_own_smallest_pivot_bound():
    # a one-node level's only pivot is K(0), whatever gap the stack has at
    # the seam before it; a longer level's is that of its own solve
    k = KernelSpec(m=2, amplitude=2.5)
    sets = [NodeSet(points=[0.3], halfwidth=1.0), equidistant_nodes(1.0, 11),
            NodeSet(points=[-0.5], halfwidth=1.0)]
    values = [np.ones(len(X)) for X in sets]
    out = interpolation._interpolate_levels(k, sets, values)
    assert [s._min_pivot for s in out[::2]] == [2.5, 2.5]
    assert out[1]._min_pivot == interpolate(k, sets[1], values[1])._min_pivot < 2.5


def test_stacked_levels_are_refused_before_anything_is_solved(monkeypatch):
    # the second and third levels hold a pair inside the m = 2 gap bound
    # (node 10 of each): the refusal names the second level's size and the
    # node's index in it, as its own solve would, and no transition was
    # formed and nothing factored
    k = KernelSpec(m=2)
    sets = [equidistant_nodes(1.0, 11), NodeSet(points=_pair(21, 1e-7), halfwidth=1.0),
            NodeSet(points=_pair(31, 1e-8), halfwidth=1.0)]
    with pytest.raises(ConditioningError) as alone:
        interpolate(k, sets[1], np.ones(21))

    def no_solve(*args):
        raise AssertionError("solved before every level was checked")

    monkeypatch.setattr(interpolation, "_transitions", no_solve)
    monkeypatch.setattr(interpolation, "_cyclic_factor", no_solve)
    with pytest.raises(ConditioningError, match=r"\(at N=21\)") as info:
        interpolation._interpolate_levels(k, sets, [np.ones(len(X)) for X in sets])
    assert info.value.pivot_index == alone.value.pivot_index == 10
    assert info.value.pivot_value == alone.value.pivot_value
