"""Acceptance gate: one check per shipped guarantee, one verdict line each.

Each test prints `criterion N: PASS/FAIL (detail)` and then asserts, so a
plain `pytest -v tests/test_acceptance.py` reads as the acceptance table.
Tolerances and runtime budgets are part of the contract and are asserted,
not just reported.
"""

import math
import time

import numpy as np
import pytest
from mpmath import mp
from scipy.optimize import brentq

import maternlab.cli as cli
from maternlab import (
    KernelSpec,
    analytic_weights,
    bad_part_sup_bound,
    bc_residuals,
    convolve_with_indicator,
    f_exact,
    f_native_norm_sq,
    hk_gram_matrix,
    nystrom_eig,
    run_rate_study,
    run_trials,
    sobolev_weights,
)

LADDER = [11, 21, 41, 81, 161]
GRID = 2001

_cache = {}


def _study_c12():
    if "c12" not in _cache:
        t0 = time.perf_counter()
        _cache["c12"] = run_rate_study(
            KernelSpec(m=2), 1.2, 0.4, LADDER, GRID, f_exact,
            f_norm_sq=f_native_norm_sq(),
        )
        _cache["c12_time"] = time.perf_counter() - t0
    return _cache["c12"], _cache["c12_time"]


def _study_c08():
    if "c08" not in _cache:
        t0 = time.perf_counter()
        _cache["c08"] = run_rate_study(
            KernelSpec(m=2), 0.8, 0.2, LADDER, GRID, f_exact,
            f_norm_sq=f_native_norm_sq(),
        )
        _cache["c08_time"] = time.perf_counter() - t0
    return _cache["c08"], _cache["c08_time"]


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_localized_rates_near_four():
    study, elapsed = _study_c12()
    g, i = study.global_rate, study.interior_rate
    ok = 3.4 <= g <= 4.6 and 3.4 <= i <= 4.6 and elapsed < 10.0
    assert _verdict(
        1, ok, f"C=1.2 global {g:.3f}, interior {i:.3f}, {elapsed:.1f}s"
    ), f"expected both rates in [3.4, 4.6] within 10s; got {g:.3f}/{i:.3f} in {elapsed:.1f}s"


def test_criterion_2_interior_superconvergence_without_localization():
    study, elapsed = _study_c08()
    g, i = study.global_rate, study.interior_rate
    ok = 3.4 <= i <= 4.6 and g < 3.0 and elapsed < 10.0
    assert _verdict(
        2, ok, f"C=0.8 interior {i:.3f}, global {g:.3f}, {elapsed:.1f}s"
    ), f"expected interior in [3.4, 4.6] and global < 3 within 10s; got {i:.3f}/{g:.3f}"


def test_criterion_3_anomalous_global_rate():
    study, _ = _study_c08()
    g = study.global_rate
    ok = 2.1 <= g <= 2.9
    assert _verdict(3, ok, f"C=0.8 global {g:.3f}"), (
        f"expected global rate in [2.1, 2.9]; got {g:.3f}"
    )


def test_criterion_4_native_norm_decay_exponent():
    # f = K * v with supp v = [-1, 1] inside [-C, C]: duality gives
    # |f - s|_K^2 = (v, f - s)_L2 <= |v|_2 |f - s|_L2, and the sampling
    # inequality |f - s|_L2 <= c h^m |f - s|_K closes it to |f - s|_K = O(h^m).
    # With h = 2C/(N - 1) and m = 2 the exponent against N is about -2.
    # At C = 0.8 the data see only part of the support, the native error
    # stalls, and the same window must reject it.
    # The exponent is RateStudy.native_exponent of the criterion 1 and 2
    # studies, which carry f_norm_sq.
    exponent = _study_c12()[0].native_exponent
    cut = _study_c08()[0].native_exponent
    lo, hi = -2.3, -1.7
    ok = lo <= exponent <= hi and not lo <= cut <= hi
    assert _verdict(
        4, ok, f"C=1.2 exponent {exponent:.3f}, C=0.8 exponent {cut:.3f}"
    ), (
        f"expected the C=1.2 native-norm decay exponent against N in "
        f"[{lo}, {hi}], i.e. |f - s|_K = O(h^m) with m = 2, from duality with "
        f"the L2 density v plus the sampling inequality; and the C=0.8 exponent, "
        f"where the support of v is cut by the boundary, outside that window. "
        f"Measured {exponent:.3f} at C=1.2 and {cut:.3f} at C=0.8."
    )


def test_criterion_5_sequence_space_bounds_exact():
    t0 = time.perf_counter()
    reports = [
        run_trials(space, 1000, 42)
        for space in (sobolev_weights(64), analytic_weights(64))
    ]
    elapsed = time.perf_counter() - t0
    all_hold = all(r.all_pass for r in reports)
    extremal_ok = all(abs(r.extremal_ratio - 1.0) <= 1e-12 for r in reports)
    ok = all_hold and extremal_ok and elapsed < 1.0
    detail = (
        f"{sum(r.trials for r in reports)} trials, extremal ratios "
        f"{', '.join(f'{r.extremal_ratio:.12f}' for r in reports)}, {elapsed:.2f}s"
    )
    assert _verdict(5, ok, detail), (
        f"bounds must hold in every trial with the extremal case sharp "
        f"within 1e-12 and under 1s; holds={all_hold}, extremal={extremal_ok}, "
        f"{elapsed:.2f}s"
    )


def test_criterion_6_mercer_spectral_accuracy():
    omega = brentq(lambda w: w * np.tan(w) - 1.0, 0.1, 1.5, xtol=1e-15)
    kappa_oracle = 2.0 / (1.0 + omega * omega)
    sys_ = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 200, 5)
    k1_err = abs(sys_.eigenvalues[0] - kappa_oracle)
    trace_err = abs(float(np.sum(sys_.full_spectrum)) - 2.0)
    scaled = hk_gram_matrix(sys_)[:5, :5] * sys_.eigenvalues[None, :5]
    gram_err = float(np.max(np.abs(scaled - np.eye(5))))
    ok = k1_err <= 1e-3 and trace_err <= 1e-6 and gram_err <= 1e-6
    assert _verdict(
        6,
        ok,
        f"kappa_1 err {k1_err:.2e}, trace err {trace_err:.2e}, "
        f"gram err {gram_err:.2e}",
    ), f"tolerances 1e-3 / 1e-6 / 1e-6 exceeded: {k1_err:.2e}, {trace_err:.2e}, {gram_err:.2e}"


def test_criterion_7_closed_form_consistency():
    rng = np.random.default_rng(42)
    xs = rng.uniform(-3.0, 3.0, size=200)

    def antiderivative(t):  # of (1 + |s|) e^{-|s|} from 0 to t, elementary
        return math.copysign(2.0 - (2.0 + abs(t)) * math.exp(-abs(t)), t)

    anti_err = max(
        abs(f_exact(float(x)) - (antiderivative(1.0 - x) - antiderivative(-1.0 - x))) for x in xs
    )
    # f^(j)(+-1), orders 0..3, against the defining integral of K^(j) over
    # [x - 1, x + 1] in 30 digits; mp.diff differentiates (1 + r) e^{-r}
    with mp.workdps(30):

        def kernel_deriv(u, j):
            g = mp.diff(lambda r: (1 + r) * mp.exp(-r), abs(u), j)
            return -g if u < 0 and j % 2 else g

        breakpoint_err = max(
            abs(f_exact(x, j) - float(mp.quad(lambda u: kernel_deriv(u, j), [x - 1, x + 1])))
            for x in (-1.0, 1.0)
            for j in range(4)
        )
    bc_err = max(abs(v) for v in bc_residuals(f_exact, -1.2, 1.2))
    ok = anti_err <= 1e-10 and breakpoint_err <= 1e-12 and bc_err <= 1e-10
    assert _verdict(
        7,
        ok,
        f"antiderivative err {anti_err:.2e}, breakpoint err {breakpoint_err:.2e}, bc err {bc_err:.2e}",
    ), f"tolerances 1e-10 / 1e-12 / 1e-10 exceeded: {anti_err:.2e}, {breakpoint_err:.2e}, {bc_err:.2e}"


def test_criterion_8_bad_part_bound_soundness():
    # the driving density is the indicator of [2, 3]; its L2 norm is 1 and
    # every x in [-1, 1] keeps distance 2 - x from the support
    xs = np.linspace(-1.0, 1.0, 50)
    worst_margin = math.inf
    violations = 0
    for k in (KernelSpec(m=1), KernelSpec(m=2)):
        for x in xs:
            value = abs(convolve_with_indicator(k, 2.0, 3.0, float(x)))
            bound = bad_part_sup_bound(k, 1.0, 2.0 - float(x))
            worst_margin = min(worst_margin, bound - value)
            violations += value > bound
    ok = violations == 0
    assert _verdict(
        8, ok, f"100 checks, worst margin {worst_margin:.3e}"
    ), f"{violations} bound violations; worst margin {worst_margin:.3e}"


def test_criterion_9_rates_csv_determinism(tmp_path):
    args = ["rates", "--nodes", "11,21,41", "--grid", "501"]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.glob("*.csv"))
    assert names == sorted(p.name for p in out2.glob("*.csv"))
    mismatched = [
        name
        for name in names
        if (out1 / name).read_bytes() != (out2 / name).read_bytes()
    ]
    ok = not mismatched and len(names) >= 2
    assert _verdict(
        9, ok, f"{len(names)} CSVs byte-identical across runs"
    ), f"files differing between identical runs: {mismatched}"
