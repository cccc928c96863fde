"""Rate studies and log-log fits.

The frozen RMS rows at the bottom were produced by an independent
prototype (dense solve via numpy.linalg.solve, errors accumulated with
plain loops) on the C = 1.2 ladder {11, 21, 41} with a 501-point grid.
"""

import math
import re
import warnings

import numpy as np
import pytest
from dense_oracle import solve_dense
from mpmath import mp

from maternlab import experiments, interpolation
from maternlab import (
    CONDITIONING_FLOOR,
    ConditioningError,
    InsufficientDataError,
    KernelSpec,
    NodeSet,
    assemble_gram,
    equidistant_nodes,
    evaluate,
    f_exact,
    f_native_norm_sq,
    fit_rate,
    interpolate,
    kernel_eval,
    run_rate_study,
)


def test_rms_error_matches_direct_computation():
    # the study's RMS columns against the same RMS taken directly from a
    # separately solved interpolant on the study's own grid
    k = KernelSpec(m=2)
    X = equidistant_nodes(1.0, 9)
    s = interpolate(k, X, f_exact(X.points))
    grid = np.linspace(-1, 1, 101)
    err = f_exact(grid) - evaluate(s, grid)
    inner = np.abs(grid) <= 1.0 - 0.25
    study = run_rate_study(k, 1.0, 0.25, [9], 101, f_exact)
    (row,) = study.rows
    assert np.array_equal(study.finest_error, err)
    assert row.rms_global == pytest.approx(
        float(np.sqrt(np.mean(err**2))), rel=1e-14, abs=0
    )
    assert row.rms_interior == pytest.approx(
        float(np.sqrt(np.mean(err[inner] ** 2))), rel=1e-14, abs=0
    )
    with pytest.raises(ValueError):
        run_rate_study(k, 1.0, 0.25, [9], 0, f_exact)


def test_fit_rate_recovers_exact_power_law():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    for p in (1.0, 2.5, 4.0):
        e = 0.37 * h**p
        assert fit_rate(h, e) == pytest.approx(p, abs=1e-12)
        assert fit_rate(h, e, all_levels=True) == pytest.approx(p, abs=1e-12)


def test_fit_rate_prefers_finest_levels():
    # 5 levels: the 4 finest follow h^4 exactly, the coarsest breaks the
    # pattern; the default fit uses ceil(5/2)+1 = 4 finest levels only
    h = np.array([16.0, 8.0, 4.0, 2.0, 1.0])
    e = h**4
    e[0] *= 7.0
    assert fit_rate(h, e) == pytest.approx(4.0, abs=1e-12)
    assert fit_rate(h, e, all_levels=True) != pytest.approx(4.0, abs=1e-3)


def test_fit_rate_drops_floor_levels_and_validates():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    e = np.array([1e-2, 1e-3, 1e-15, 5e-16])  # last two below the floor
    slope = fit_rate(h, e)
    expect = (math.log(1e-2) - math.log(1e-3)) / (math.log(0.4) - math.log(0.2))
    assert slope == pytest.approx(expect, rel=1e-12)
    with pytest.raises(InsufficientDataError):
        fit_rate(h, np.full(4, 1e-16))
    with pytest.raises(InsufficientDataError):
        fit_rate(np.array([0.1]), np.array([1e-3]))
    with pytest.raises(ValueError):
        fit_rate(h, e[:2])
    with pytest.raises(ValueError):
        fit_rate(-h, e)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_fit_rate_rejects_non_finite_spacings(bad, capfd):
    # a non-finite h used to reach the least-squares solve, which raised
    # LinAlgError and printed LAPACK errors to stderr
    with pytest.raises(ValueError, match="finite"):
        fit_rate([1.0, bad, 0.5], [1e-2, 1e-3, 1e-4])
    assert capfd.readouterr().err == ""


def test_fit_rate_drops_a_nan_level():
    # e is read by kernels._reals, which lets NaN through: a NaN level, as
    # the native_err of a study without f_norm_sq, is left out of the fit
    h = np.array([0.4, 0.2, 0.1, 0.05])
    e = h**4 * (1.0 + h)
    gap = e.copy()
    gap[1] = math.nan
    for full in (False, True):
        assert fit_rate(h, gap, all_levels=full) == fit_rate(h[[0, 2, 3]], e[[0, 2, 3]], all_levels=full)


FROZEN_ROWS = {
    # N: (rms_global, rms_interior)
    11: (2.4989140857182422e-05, 2.1222675604085742e-05),
    21: (1.3064330375621768e-06, 1.3821253657521893e-06),
    41: (8.0684562591022649e-08, 8.540363271383604e-08),
}

# Native-norm errors sqrt(||f||^2 - y . A^{-1} y) at 40 digits, from the
# float nodes linspace(-1.2, 1.2, N) and the exact f and ||f||^2:
#
#   from mpmath import mp, mpf, exp, sqrt, matrix, lu_solve
#   mp.dps = 40
#   def f(x):
#       if x < -1: return exp(x - 1) * (x - 3) + exp(x + 1) * (1 - x)
#       if x > 1: return exp(1 - x) * (1 + x) - exp(-1 - x) * (x + 3)
#       return exp(x - 1) * (x - 3) - exp(-1 - x) * (x + 3) + 4
#   for N in (11, 21, 41):
#       x = [mpf(float(v)) for v in np.linspace(-1.2, 1.2, N)]
#       A = matrix(N, N)
#       for i in range(N):
#           for j in range(N):
#               r = abs(x[i] - x[j]); A[i, j] = (1 + r) * exp(-r)
#       y = matrix([f(v) for v in x]); a = lu_solve(A, y)
#       print(N, sqrt(2 * (1 + 5 * exp(-2)) - sum(a[i] * y[i] for i in range(N))))
NATIVE_ERR_40_DIGITS = {
    11: 0.0063449983766008997898,
    21: 0.0015143471056997349617,
    41: 0.00038186890364763952137,
}


def test_rate_study_reproduces_frozen_rows():
    f_sq = f_native_norm_sq()
    study = run_rate_study(
        KernelSpec(m=2), 1.2, 0.4, [11, 21, 41], 501, f_exact, f_norm_sq=f_sq,
    )
    assert [row.N for row in study.rows] == [11, 21, 41]
    for row in study.rows:
        g, i = FROZEN_ROWS[row.N]
        assert row.rms_global == pytest.approx(g, rel=1e-9, abs=0)
        assert row.rms_interior == pytest.approx(i, rel=1e-9, abs=0)
        # the Pythagoras split loses eps ||f||^2 / (2 err^2) relative to
        # cancellation (2.6e-9 at N = 41); below that no solver can do better
        n = NATIVE_ERR_40_DIGITS[row.N]
        floor = np.finfo(float).eps * f_sq / (2.0 * n * n)
        assert row.native_err == pytest.approx(n, rel=max(1e-9, 2.0 * floor))
        assert row.h == pytest.approx(2.4 / (row.N - 1), rel=1e-14)
        assert row.maxabs_global >= row.rms_global
    assert study.global_rate == pytest.approx(4.137, abs=2e-3)
    assert study.interior_rate == pytest.approx(3.979, abs=2e-3)


def test_rate_study_without_norm_leaves_nan_column():
    study = run_rate_study(KernelSpec(m=2), 1.2, 0.4, [11, 21], 501, f_exact)
    assert all(math.isnan(row.native_err) for row in study.rows)
    assert study.global_rate is not None


def test_rate_study_validation(monkeypatch):
    k = KernelSpec(m=2)
    with pytest.raises(ValueError):
        run_rate_study(k, -1.0, 0.4, [11, 21], 501, f_exact)
    with pytest.raises(ValueError):
        run_rate_study(k, 1.2, 1.5, [11, 21], 501, f_exact)  # margin >= C
    with pytest.raises(ValueError):
        run_rate_study(k, 1.2, 0.4, [21, 11], 501, f_exact)  # not increasing
    with pytest.raises(ValueError):
        run_rate_study(k, 1.2, 0.4, [], 501, f_exact)
    with pytest.raises(ValueError):
        run_rate_study(k, 1.2, 0.4, [11, 81], 501, f_exact)  # grid too coarse
    # every count is an integer, not a bool: before, [11, 21.7, 41.9] ran as
    # (11, 21, 41) and a grid of 500.5 reached numpy as a TypeError.  A
    # non-finite f_norm_sq used to fill native_err with NaN, and 0 to raise
    # ZeroDivisionError after the solves; all are refused before any solve.
    _forbid_solves(monkeypatch)
    for counts, grid, named in (
        ([11, 21.7, 41.9], 501, "node count must be a positive integer, got 21.7"),
        ([11, True, 21], 501, "node count must be a positive integer, got True"),
        ([11, 21], 500.5, "grid_size must be a positive integer, got 500.5"),
        ([11, 21], True, "grid_size must be a positive integer, got True"),
        ([11, 21], np.nan, "grid_size must be a positive integer, got nan"),
        ([11, "21"], 501, "node count must be a positive integer, got '21'"),
        ([11, 21], None, "grid_size must be a positive integer, got None"),
    ):
        with pytest.raises(ValueError, match=re.escape(named)):
            run_rate_study(k, 1.2, 0.4, counts, grid, f_exact)
    for bad in (np.nan, np.inf, -np.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match=f"f_norm_sq must be finite and positive, got {bad}"):
            run_rate_study(k, 1.2, 0.4, [11, 21], 501, f_exact, f_norm_sq=bad)


def _forbid_solves(monkeypatch):
    # the one solver entry a rate study reaches raises when called
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating")

    monkeypatch.setattr(experiments, "_interpolate_levels", no_solve)


def test_empty_interior_window_raises_before_solving(monkeypatch):
    # |x| <= 1e-4 holds no point of a 2000-point grid on [-1.2, 1.2]
    _forbid_solves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"margin 1\.1999.*2000-point grid"):
            run_rate_study(KernelSpec(m=2), 1.2, 1.1999, [11, 21], 2000, f_exact)
    # the patch covers the one solve a study reaches, the stacked one
    with pytest.raises(AssertionError, match="solved before validating"):
        run_rate_study(KernelSpec(m=2), 1.2, 0.4, [11, 21], 2000, f_exact)


def _nan_at(x0):
    def reference(x):
        out = f_exact(x)
        out[x == x0] = np.nan
        return out

    return reference


_GRID = np.linspace(-1.2, 1.2, 501)


@pytest.mark.parametrize(
    "reference, named",
    [
        # one NaN on the grid: before, every rms_global was NaN, global_rate
        # None, and the interior rate still came out near 4
        (_nan_at(_GRID[7]), r"nan at point 7 of 501 grid points, x = -1\.166"),
        (_nan_at(_GRID[250]), r"nan at point 250 of 501 grid points, x = 0$"),
        # a grid result of the wrong length used to fail only after the
        # first solve, inside numpy broadcasting
        (lambda x: f_exact(x)[:-1], r"shape \(500,\) for 501 grid points"),
        (lambda x: f_exact(x[:-1]) if x.size == 11 else f_exact(x),
         r"shape \(10,\) for 11 nodes of level N=11"),
        (lambda x: np.where(x.size == 41, np.inf, f_exact(x)),
         r"inf at point 0 of 41 nodes of level N=41, x = -1\.2"),
        (lambda x: np.full(x.size, 1.0) if x.size == 501 else 1.0, r"shape \(\) for 11 nodes"),
    ],
)
def test_a_bad_reference_is_refused_before_solving(monkeypatch, reference, named):
    _forbid_solves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            run_rate_study(KernelSpec(m=2), 1.2, 0.4, [11, 21, 41], 501, reference)


def test_rate_study_attaches_node_count_to_conditioning_failures(monkeypatch):
    # microscopic domain: spacing ~1e-7 collapses the Gram pivots
    with pytest.raises(ConditioningError) as info:
        run_rate_study(KernelSpec(m=2), 1e-6, 0.0, [11, 21], 501, f_exact)
    assert "N=11" in str(info.value)
    # C = 2.2e-6: N = 11 has gaps 4.4e-7, above the m = 2 gap bound near
    # 3.1e-7; N = 21 has 2.2e-7, below it.  The second level is named, at
    # its own first pivot, and nothing was factored before the refusal.
    factor = []
    monkeypatch.setattr(interpolation, "_cyclic_factor", lambda *a: factor.append(a))
    with pytest.raises(ConditioningError) as info:
        run_rate_study(KernelSpec(m=2), 2.2e-6, 0.0, [11, 21, 41], 501, f_exact)
    assert "N=21" in str(info.value) and info.value.pivot_index == 1
    assert factor == []


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_d1_study_forms_and_factors_its_ladder_once(m, monkeypatch):
    # one _transitions call for the whole ladder, and one factorization of
    # the stacked 11 + 21 + 41 = 73 blocks: the recursion halves it, so the
    # sizes are one chain 73, 37, ..., 1 (none for m = 1)
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
    run_rate_study(KernelSpec(m=m), 1.2, 0.4, [11, 21, 41], 501, f_exact)
    chain = [] if m == 1 else [73, 37, 19, 10, 5, 3, 2, 1]
    assert calls == {"transitions": 1, "factor sizes": chain}


def test_the_d1_solve_needs_no_einsum_or_matmul(monkeypatch):
    # the blocks are entry-major, so the solve is ufunc calls on length-n
    # arrays: a d = 1 interpolate and a stacked study run with np.einsum and
    # np.matmul refusing every call
    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum or np.matmul called")

    monkeypatch.setattr(np, "einsum", refuse)
    monkeypatch.setattr(np, "matmul", refuse)
    # The stored states hold the data, so s is exact at the nodes: on
    # jittered nodes, on sine-graded ones and with one pair 1e-6 apart.
    x = np.linspace(-0.8, 0.8, 161)
    x[1:-1] += np.random.default_rng(1).uniform(-0.002, 0.002, 159)
    pair = x.copy()
    pair[80] = pair[79] + 1e-6
    sine = 0.8 * np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, 161))
    for m in (1, 2, 3):
        for pts in (x, sine, pair):
            s = interpolate(KernelSpec(m=m), NodeSet(points=pts, halfwidth=0.8), f_exact(pts))
            assert np.array_equal(evaluate(s, pts), s.states[:, 0])
        run_rate_study(KernelSpec(m=m), 1.2, 0.4, [11, 21, 41], 501, f_exact)


def test_a_study_evaluates_each_level_once(monkeypatch):
    # each level's interpolant is evaluated once, on the grid: one cell
    # evaluator per level, for that level's nodes and the 501 grid points
    seen, cell_evaluator = [], interpolation._cell_evaluator

    def spy(s, flat):
        seen.append((len(s.nodes), flat.size))
        return cell_evaluator(s, flat)

    monkeypatch.setattr(interpolation, "_cell_evaluator", spy)
    run_rate_study(KernelSpec(m=2), 1.2, 0.4, [11, 21, 41], 501, f_exact)
    assert seen == [(11, 501), (21, 501), (41, 501)]


def test_dense_studies_solve_each_level_on_its_own():
    # the dense oracle solves each level on its own; the stacked banded
    # study must give every level the same interpolant: its grid errors and
    # its norm ratio against the dense K @ a and a . y, and its pivot bound
    # a cap on the dense smallest pivot (equal to it for m = 1)
    C, ladder, grid_size = 1.2, [11, 21, 41], 501
    f_sq = 3.0  # any norm above ||s||^2 serves the ratio
    grid = np.linspace(-C, C, grid_size)
    for m in (1, 2, 3):
        k = KernelSpec(m=m, amplitude=2.5)
        rows = run_rate_study(k, C, 0.4, ladder, grid_size, f_exact, f_norm_sq=f_sq).rows
        for N, row in zip(ladder, rows):
            X = equidistant_nodes(C, N)
            dense = solve_dense(k, X, f_exact(X.points))
            K = kernel_eval(k, np.abs(grid[:, None] - X.points))
            diff = np.abs(f_exact(grid) - K @ dense.coefficients)
            scale = np.max(K @ np.abs(dense.coefficients))
            assert abs(row.maxabs_global - diff.max()) <= 1e-12 * scale
            assert row.norm_ratio == pytest.approx(dense.norm_sq / f_sq, rel=1e-12, abs=0)
            if m == 1:
                assert row.min_pivot == pytest.approx(dense.min_pivot, rel=1e-12, abs=0)
            else:
                assert dense.min_pivot < row.min_pivot


@pytest.mark.parametrize(
    "m, C, margin, ladder, grid_size",
    [
        (1, 1.2, 0.4, (161, 321, 641, 1281, 2561), 25610),
        (2, 1.0, 0.25, (9,), 101),
        (2, 1.0, 0.5, (11,), 201),  # +-0.5 are grid points
        (3, 0.8, 0.0, (21,), 211),
    ],
)
def test_rate_rows_equal_the_masked_statistics(m, C, margin, ladder, grid_size):
    # the window slice and the single squaring against the former
    # boolean-mask statistics, on interpolants the study solves bit for bit
    # alike (one level, or m = 1, where the stack factors nothing)
    k = KernelSpec(m=m)
    study = run_rate_study(k, C, margin, ladder, grid_size, f_exact, f_native_norm_sq(k))
    grid = np.linspace(-C, C, grid_size)
    inner = np.abs(grid) <= C - margin
    for N, row in zip(ladder, study.rows):
        X = equidistant_nodes(C, N)
        s = interpolate(k, X, f_exact(X.points))
        diff = np.abs(f_exact(grid) - evaluate(s, grid))
        assert row.rms_global == float(np.sqrt(np.mean(diff**2)))
        assert row.rms_interior == float(np.sqrt(np.mean(diff[inner] ** 2)))
        assert row.maxabs_global == float(diff.max())
        assert row.maxabs_interior == float(diff[inner].max())


def test_rate_rows_carry_the_norm_ratio():
    # the Pythagoras split's cancellation ||s||^2 / ||f||^2
    k, f_sq = KernelSpec(m=2), f_native_norm_sq()
    study = run_rate_study(k, 1.2, 0.4, [11, 21, 41], 501, f_exact, f_norm_sq=f_sq)
    for row, s in zip(study.rows, [interpolate(k, X, f_exact(X.points)) for X in
                                   (equidistant_nodes(1.2, N) for N in (11, 21, 41))]):
        assert row.norm_ratio == pytest.approx(s.norm_sq / f_sq, rel=1e-15, abs=0)
        assert 1.0 - 2e-5 < row.norm_ratio < 1.0
    plain = run_rate_study(k, 1.2, 0.4, [11, 21], 501, f_exact)
    assert all(math.isnan(row.norm_ratio) for row in plain.rows)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rate_rows_certify_the_solve_with_its_smallest_pivot(m):
    # every gap of a level is h, so its smallest pivot bound is
    # K(0)(1 - rho(h)^2), here against 30 digits; for m = 1 it is the dense
    # Cholesky's smallest pivot, for m >= 2 a cap on it
    k = KernelSpec(m=m, amplitude=2.5)
    k0, ladder = kernel_eval(k, 0.0), [11, 21, 41]
    rows = run_rate_study(k, 1.2, 0.4, ladder, 501, f_exact).rows
    for N, row in zip(ladder, rows):
        with mp.workdps(30):
            g = mp.mpf(2.4) / (N - 1)
            p = {1: 1, 2: 1 + g, 3: 1 + g + g**2 / 3}[m]
            want = float(mp.mpf(2.5) * (1 - (mp.exp(-g) * p) ** 2))
        assert row.min_pivot == pytest.approx(want, rel=1e-12, abs=0)
        assert row.pivot_margin == row.min_pivot / (CONDITIONING_FLOOR * k0)
        assert row.pivot_margin > 1.0
        dense = np.min(np.diag(np.linalg.cholesky(assemble_gram(k, equidistant_nodes(1.2, N))))) ** 2
        if m == 1:
            assert row.min_pivot == pytest.approx(dense, rel=1e-12, abs=0)
        else:
            assert dense < row.min_pivot
    hand = experiments.RateRow(N=11, h=0.24, rms_global=1.0, rms_interior=1.0, native_err=1.0,
                               maxabs_global=1.0, maxabs_interior=1.0)
    assert math.isnan(hand.min_pivot) and math.isnan(hand.pivot_margin)


def test_amplitude_choice_does_not_move_the_decay_exponent():
    # rescaling the kernel by 4 rescales coefficients by 1/4 and the norm
    # budget by 1/4; the fitted exponent must be unchanged
    base = run_rate_study(
        KernelSpec(m=2), 1.2, 0.4, [11, 21, 41], 501, f_exact, f_native_norm_sq()
    ).native_exponent
    scaled = run_rate_study(
        KernelSpec(m=2, amplitude=4.0), 1.2, 0.4, [11, 21, 41], 501, f_exact,
        f_native_norm_sq() / 4.0,
    ).native_exponent
    assert scaled == pytest.approx(base, abs=1e-12)
    assert base == pytest.approx(-2.14, abs=0.1)


def test_decay_study_default_norm_follows_the_kernel():
    # with the closed form f_native_norm_sq(kernel) as the norm, the
    # amplitude cannot move the exponent
    ladder = [11, 21, 41]

    def exponent(k):
        return run_rate_study(k, 1.2, 0.4, ladder, 501, f_exact, f_native_norm_sq(k)).native_exponent

    base = exponent(KernelSpec(m=2))
    scaled = exponent(KernelSpec(m=2, amplitude=4.0))
    assert scaled == pytest.approx(base, abs=1e-12)
    assert base == pytest.approx(-2.14, abs=0.1)


def test_native_norm_closed_form_per_kernel():
    assert f_native_norm_sq(KernelSpec(m=2)) == f_native_norm_sq()
    assert f_native_norm_sq(KernelSpec(m=2, amplitude=4.0)) == f_native_norm_sq() / 4.0
    for k in (KernelSpec(m=1), KernelSpec(m=3)):
        assert f_native_norm_sq(k) is None


def _old_native_exponent(study):
    # the former RateStudy.native_exponent: its own floor and finest-levels
    # selection, then a polyfit of log native_err on log N
    N = np.array([row.N for row in study.rows], dtype=float)
    e = np.array([row.native_err for row in study.rows])
    keep = np.isfinite(e) & (e >= 1e-13)
    N = N[keep]
    e = e[keep]
    if N.size < 2:
        return math.nan
    take = np.argsort(N)[::-1][: min(N.size, math.ceil(N.size / 2) + 1)]
    slope, _ = np.polyfit(np.log(N[take]), np.log(e[take]), 1)
    return float(slope)


@pytest.mark.parametrize("C,margin", [(1.2, 0.4), (0.8, 0.2)])
def test_native_exponent_is_the_shared_rate_fit(C, margin):
    # the criterion-4 studies: fit_rate on 1/N must reproduce the old fit bit for bit
    study = run_rate_study(
        KernelSpec(m=2), C, margin, [11, 21, 41, 81, 161], 2001, f_exact,
        f_native_norm_sq(),
    )
    assert study.native_exponent == _old_native_exponent(study)


def test_decay_study_degenerates_to_nan_for_reproduced_references():
    # 0.0 and 0.48 are nodes at every level of the C=1.2 ladder, so this
    # kernel-translate combination is reproduced exactly and every level
    # falls below the error floor
    k = KernelSpec(m=2)

    def reference(x):
        return 2.0 * kernel_eval(k, np.abs(x)) + kernel_eval(k, np.abs(x - 0.48))

    exact_norm_sq = 5.0 * kernel_eval(k, 0.0) + 4.0 * kernel_eval(k, 0.48)
    out = run_rate_study(k, 1.2, 0.4, [11, 21, 41], 501, reference, exact_norm_sq)
    assert math.isnan(out.native_exponent)


def test_m3_ladder_runs_past_the_dense_stop_at_rate_m_plus_half():
    # the dense m = 3 Cholesky stopped near N = 481 on [-0.8, 0.8]; the
    # state-space solve runs the ladder to 641, and the global RMS error
    # decays like h^(m + 1/2) = h^3.5, limited by the boundary layer
    study = run_rate_study(KernelSpec(m=3), 0.8, 0.2, [41, 81, 161, 321, 641], 6410, f_exact)
    assert [row.N for row in study.rows] == [41, 81, 161, 321, 641]
    assert 3.4 <= study.global_rate <= 3.6
