"""Rate studies, log-log fits, and the interior sup bound.

The frozen RMS rows at the bottom were produced by an independent
prototype (dense solve via numpy.linalg.solve, errors accumulated with
plain loops) on the C = 1.2 ladder {11, 21, 41} with a 501-point grid.
"""

import math
import warnings

import numpy as np
import pytest

from maternlab import experiments
from maternlab import (
    ConditioningError,
    InsufficientDataError,
    KernelSpec,
    bad_part_sup_bound,
    equidistant_nodes,
    f_exact,
    f_native_norm_sq,
    fit_rate,
    interpolate,
    kernel_eval,
    native_decay_study,
    run_rate_study,
    tail_energy,
)


def test_rms_error_matches_direct_computation():
    # the study's RMS columns against the same RMS taken directly from a
    # separately solved interpolant on the study's own grid
    k = KernelSpec(m=2)
    X = equidistant_nodes(1.0, 9)
    s = interpolate(k, X, f_exact(X.points))
    grid = np.linspace(-1, 1, 101)
    err = f_exact(grid) - s(grid)
    inner = np.abs(grid) <= 1.0 - 0.25
    study = run_rate_study(k, 1.0, 0.25, [9], 101, f_exact)
    (row,) = study.rows
    assert np.array_equal(study.finest_error, err)
    assert row.rms_global == pytest.approx(
        float(np.sqrt(np.mean(err**2))), rel=1e-14
    )
    assert row.rms_interior == pytest.approx(
        float(np.sqrt(np.mean(err[inner] ** 2))), rel=1e-14
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
        assert row.rms_global == pytest.approx(g, rel=1e-9)
        assert row.rms_interior == pytest.approx(i, rel=1e-9)
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


def test_rate_study_validation():
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


def test_empty_interior_window_raises_before_solving(monkeypatch):
    # |x| <= 1e-4 holds no point of a 2000-point grid on [-1.2, 1.2]
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating the window")

    monkeypatch.setattr(experiments, "interpolate", no_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"margin 1\.1999.*2000-point grid"):
            run_rate_study(KernelSpec(m=2), 1.2, 1.1999, [11, 21], 2000, f_exact)


def test_rate_study_attaches_node_count_to_conditioning_failures():
    # microscopic domain: spacing ~1e-7 collapses the Gram pivots
    with pytest.raises(ConditioningError) as info:
        run_rate_study(KernelSpec(m=2), 1e-6, 0.0, [11, 21], 501, f_exact)
    assert "N=11" in str(info.value)


def test_amplitude_choice_does_not_move_the_decay_exponent():
    # rescaling the kernel by 4 rescales coefficients by 1/4 and the norm
    # budget by 1/4; the fitted exponent must be unchanged
    base = native_decay_study(
        KernelSpec(m=2), 1.2, 0.4, [11, 21, 41], 501, f_exact, f_native_norm_sq()
    )
    scaled = native_decay_study(
        KernelSpec(m=2, amplitude=4.0), 1.2, 0.4, [11, 21, 41], 501, f_exact,
        f_native_norm_sq() / 4.0,
    )
    assert scaled == pytest.approx(base, abs=1e-12)
    assert base == pytest.approx(-2.14, abs=0.1)


def test_decay_study_default_norm_follows_the_kernel():
    # without f_norm_sq the closed form f_native_norm_sq(kernel) is used, so
    # the amplitude cannot move the exponent; kernels without one must raise
    ladder = [11, 21, 41]
    base = native_decay_study(KernelSpec(m=2), 1.2, 0.4, ladder, 501)
    scaled = native_decay_study(KernelSpec(m=2, amplitude=4.0), 1.2, 0.4, ladder, 501)
    assert scaled == pytest.approx(base, abs=1e-12)
    assert base == pytest.approx(-2.14, abs=0.1)
    for m in (1, 3):
        with pytest.raises(ValueError, match=f"m={m}"):
            native_decay_study(KernelSpec(m=m), 1.2, 0.4, ladder, 501)
    with pytest.raises(ValueError, match="f_norm_sq"):
        native_decay_study(KernelSpec(m=2), 1.2, 0.4, ladder, 501, lambda x: f_exact(x))


def test_native_norm_closed_form_per_kernel():
    assert f_native_norm_sq(KernelSpec(m=2)) == f_native_norm_sq()
    assert f_native_norm_sq(KernelSpec(m=2, amplitude=4.0)) == f_native_norm_sq() / 4.0
    for k in (KernelSpec(m=1), KernelSpec(m=3), KernelSpec(m=2, d=2)):
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
    out = native_decay_study(k, 1.2, 0.4, [11, 21, 41], 501, reference, exact_norm_sq)
    assert math.isnan(out)


def test_bad_part_bound_formula_and_monotonicity():
    k = KernelSpec(m=1)
    assert bad_part_sup_bound(k, 2.0, 1.5) == pytest.approx(
        2.0 * math.sqrt(tail_energy(k, 1.5)), rel=1e-14
    )
    assert bad_part_sup_bound(k, 2.0, 1.5) == pytest.approx(
        2.0 * math.exp(-1.5), rel=1e-13
    )
    radii = np.linspace(0, 4, 9)
    vals = [bad_part_sup_bound(k, 1.0, r) for r in radii]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        bad_part_sup_bound(k, -1.0, 1.0)
