"""Weighted sequence-space projections and the two approximation bounds.

The hand-worked example below uses kappa = (1, 1/16, 1/81, 1/256) with
f = (1,1,1,1) and S = {0,1}: the excluded multiplier is eps = 1/9, the
standard right side is sqrt(337)/9 and the superconvergent right side is
sqrt(72354)/81.
"""

import math
import tracemalloc

import numpy as np
import pytest

from maternlab import (
    WeightedSeqSpace,
    analytic_weights,
    run_trials,
    sobolev_weights,
    verify_standard_bound,
    verify_superconvergence,
)


def test_weight_presets():
    sob = sobolev_weights(8)
    assert sob.M == 8
    assert sob.kappa[0] == 1.0
    assert sob.kappa[3] == pytest.approx(4.0**-4)
    ana = analytic_weights(6)
    assert ana.kappa[0] == 0.5
    assert ana.kappa[5] == pytest.approx(2.0**-6)
    for space in (sob, ana):
        assert np.all(space.kappa > 0)
        assert np.all(np.diff(space.kappa) <= 0)


def test_space_validation():
    with pytest.raises(ValueError):
        WeightedSeqSpace(kappa=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        WeightedSeqSpace(kappa=np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        WeightedSeqSpace(kappa=np.array([0.5, 1.0]))  # must not increase
    with pytest.raises(ValueError):
        WeightedSeqSpace(kappa=np.array([]))


def test_projection_zeroes_the_complement():
    # the residual f - Pf keeps exactly the excluded coordinates, whether S
    # comes as an index list or as a boolean mask
    space = sobolev_weights(6)
    f = np.arange(1.0, 7.0)
    by_index = verify_standard_bound(space, f, [0, 2, 4])  # residual (0,2,0,4,0,6)
    assert by_index.lhs == pytest.approx(math.sqrt(56.0), rel=1e-14)
    assert by_index.rhs == pytest.approx(math.sqrt(50816.0) / 4.0, rel=1e-14)
    mask = np.array([True, True, False, False, True, True])
    by_mask = verify_standard_bound(space, f, mask)  # residual (0,0,3,4,0,0)
    assert by_mask.lhs == pytest.approx(5.0, rel=1e-14)
    assert by_mask.rhs == pytest.approx(math.sqrt(4825.0) / 9.0, rel=1e-14)
    with pytest.raises(ValueError):
        verify_standard_bound(space, f, [7])  # index out of range
    with pytest.raises(ValueError):
        verify_standard_bound(space, np.ones(5), mask)  # length mismatch


def test_native_norm_hand_value():
    # with S empty, eps = 1 and the right side is the full native norm
    space = sobolev_weights(4)
    f = np.array([1.0, 1.0, 1.0, 1.0])
    # 1/1 + 16 + 81 + 256
    chk = verify_standard_bound(space, f, [])
    assert chk.eps == 1.0
    assert chk.rhs**2 == pytest.approx(354.0, rel=1e-14)


def test_epsilon_is_largest_excluded_root():
    space = sobolev_weights(4)
    f = np.ones(4)
    assert verify_standard_bound(space, f, [0, 1]).eps == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert verify_standard_bound(space, f, [1, 2, 3]).eps == 1.0  # mode 0 excluded
    assert verify_standard_bound(space, f, [0, 1, 2, 3]).eps == 0.0  # nothing excluded


def test_standard_bound_hand_example():
    space = sobolev_weights(4)
    f = np.ones(4)
    chk = verify_standard_bound(space, f, [0, 1])
    assert chk.lhs == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert chk.eps == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert chk.rhs == pytest.approx(math.sqrt(337.0) / 9.0, rel=1e-14)
    assert chk.holds


def test_superconvergence_bound_hand_example():
    space = sobolev_weights(4)
    f = np.ones(4)
    chk = verify_superconvergence(space, f, [0, 1])
    assert chk.lhs == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert chk.rhs == pytest.approx(math.sqrt(72354.0) / 81.0, rel=1e-14)
    assert chk.holds


def test_both_bounds_hold_for_arbitrary_sequences():
    # the inequalities are identities of the weights, not of any model for
    # f, so heavy-tailed draws must pass as well
    rng = np.random.default_rng(112)
    for space in (sobolev_weights(32), analytic_weights(32)):
        for _ in range(200):
            f = rng.standard_cauchy(32)
            mask = rng.random(32) < rng.uniform(0.1, 0.9)
            std = verify_standard_bound(space, f, mask)
            sup = verify_superconvergence(space, f, mask)
            assert std.holds
            assert sup.holds


def test_unit_coordinate_case_is_sharp():
    # f = e_j with S excluding exactly j makes both bounds equalities
    for space in (sobolev_weights(16), analytic_weights(16)):
        for j in (0, 5, 15):
            f = np.zeros(16)
            f[j] = 1.0
            mask = np.ones(16, dtype=bool)
            mask[j] = False
            std = verify_standard_bound(space, f, mask)
            sup = verify_superconvergence(space, f, mask)
            assert std.lhs / std.rhs == pytest.approx(1.0, abs=1e-13)
            assert sup.lhs / sup.rhs == pytest.approx(1.0, abs=1e-13)


def test_full_subset_gives_zero_residual():
    space = sobolev_weights(8)
    f = np.arange(1.0, 9.0)
    chk = verify_standard_bound(space, f, np.ones(8, dtype=bool))
    assert chk.lhs == 0.0
    assert chk.eps == 0.0
    assert chk.holds


def test_run_trials_reports_and_is_deterministic():
    space = analytic_weights(64)
    rep1 = run_trials(space, 300, 42)
    rep2 = run_trials(space, 300, 42)
    assert rep1.trials == 300
    assert rep1.standard_passes == 300
    assert rep1.super_passes == 300
    assert rep1.counterexample is None
    assert rep1.all_pass
    assert rep1.extremal_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep1.sharpest_standard == rep2.sharpest_standard
    assert rep1.sharpest_super == rep2.sharpest_super
    assert 0.0 < rep1.sharpest_standard <= 1.0 + 1e-12
    different = run_trials(space, 300, 43)
    assert different.sharpest_standard != rep1.sharpest_standard


def _per_trial_loop(space, n_trials, seed):
    # the trials of run_trials redrawn one at a time and checked with the
    # public single-trial verifiers
    std_pass = sup_pass = 0
    sharpest_std = sharpest_sup = 0.0
    for child in np.random.SeedSequence(seed).spawn(n_trials):
        rng = np.random.default_rng(child)
        f = space.kappa * rng.standard_normal(space.M)
        mask = rng.random(space.M) < 0.5
        std = verify_standard_bound(space, f, mask)
        sup = verify_superconvergence(space, f, mask)
        std_pass += std.holds
        sup_pass += sup.holds
        if std.rhs > 0:
            sharpest_std = max(sharpest_std, std.lhs / std.rhs)
        if sup.rhs > 0:
            sharpest_sup = max(sharpest_sup, sup.lhs / sup.rhs)
    return std_pass, sup_pass, sharpest_std, sharpest_sup


@pytest.mark.parametrize("space", [sobolev_weights(64), analytic_weights(64), sobolev_weights(5)])
def test_batched_trials_match_the_per_trial_verifiers(space):
    rep = run_trials(space, 300, 7)
    std_pass, sup_pass, sharpest_std, sharpest_sup = _per_trial_loop(space, 300, 7)
    assert (rep.standard_passes, rep.super_passes) == (std_pass, sup_pass) == (300, 300)
    assert rep.sharpest_standard == pytest.approx(sharpest_std, rel=1e-12)
    assert rep.sharpest_super == pytest.approx(sharpest_sup, rel=1e-12)


def _cold(space, n_trials, seed):
    # run_trials with no draws kept from an earlier call
    from maternlab import seqmodel

    seqmodel._memo_draws.cache_clear()
    return run_trials(space, n_trials, seed)


def test_presets_sharing_a_seed_draw_once(monkeypatch):
    from maternlab import seqmodel

    spaces = (sobolev_weights(64), analytic_weights(64))
    cold = [_cold(space, 200, 11) for space in spaces]
    seqmodel._memo_draws.cache_clear()
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(s) or real(s))
    assert [run_trials(space, 200, 11) for space in spaces] == cold
    assert len(made) == 200
    monkeypatch.undo()
    run_trials(spaces[0], 200, 12)
    assert seqmodel._memo_draws.cache_info().currsize == 1


@pytest.mark.parametrize("n_trials", [200, 8193])  # from the memo, and drawn in place
def test_trial_rows_are_the_per_trial_draws(monkeypatch, n_trials):
    # f = kappa .* g and the subsets, bit for bit as each trial's own generator gives them
    from maternlab import seqmodel

    space = sobolev_weights(64)
    seen = []
    check = seqmodel._check_bounds
    monkeypatch.setattr(
        seqmodel,
        "_check_bounds",
        lambda kappa, f, keep: seen.append((f, keep)) or check(kappa, f, keep),
    )
    run_trials(space, n_trials, 3)
    f, keep = seen[0]
    for i, child in enumerate(np.random.SeedSequence(3).spawn(n_trials)):
        rng = np.random.default_rng(child)
        assert np.array_equal(f[i], space.kappa * rng.standard_normal(64))
        assert np.array_equal(keep[i], rng.random(64) < 0.5)


def test_unseeded_trials_draw_afresh_on_every_call():
    space = sobolev_weights(16)
    first, second = run_trials(space, 50, None), run_trials(space, 50, None)
    assert first.sharpest_standard != second.sharpest_standard
    assert first.sharpest_super != second.sharpest_super


@pytest.mark.parametrize("seed", [[1, 2], np.array([1, 2])])
def test_sequence_seeds_are_accepted(seed):
    space = analytic_weights(16)
    rep = run_trials(space, 50, seed)
    assert rep == _cold(space, 50, (1, 2))
    std_pass, sup_pass, sharpest_std, sharpest_sup = _per_trial_loop(space, 50, [1, 2])
    assert (rep.standard_passes, rep.super_passes) == (std_pass, sup_pass)
    assert rep.sharpest_standard == pytest.approx(sharpest_std, rel=1e-12)


@pytest.mark.parametrize("n_trials", [5000, 20000])
def test_only_small_draws_outlive_the_call(n_trials):
    from maternlab import seqmodel

    space = sobolev_weights(64)
    f_bytes = (n_trials + 1) * 64 * 8
    memo_bytes = n_trials * 64 * 9 if n_trials * 64 <= seqmodel._MEMO_ENTRIES else 0
    seqmodel._memo_draws.cache_clear()
    tracemalloc.start()
    try:
        rep = run_trials(space, n_trials, 5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.all_pass
    assert kept < memo_bytes + 2**20
    # the batch f, its mask and the temporaries of the bound checks
    assert peak < 4.5 * f_bytes + memo_bytes


def test_trials_can_fail(monkeypatch):
    # a negative tolerance no inequality can meet: every trial fails, and
    # the reported counterexample is the first one with its draw
    from maternlab import seqmodel

    monkeypatch.setattr(seqmodel, "_TOL", -np.inf)
    space = sobolev_weights(16)
    rep = run_trials(space, 50, 42)
    assert (rep.standard_passes, rep.super_passes) == (0, 0)
    assert not rep.all_pass
    cx = rep.counterexample
    assert cx["trial"] == 0
    rng = np.random.default_rng(np.random.SeedSequence(42).spawn(1)[0])
    assert np.array_equal(cx["f"], space.kappa * rng.standard_normal(16))
    assert np.array_equal(cx["subset"], rng.random(16) < 0.5)
    assert cx["standard"] == verify_standard_bound(space, cx["f"], cx["subset"])
    assert cx["superconvergence"] == verify_superconvergence(space, cx["f"], cx["subset"])
    assert not (cx["standard"].holds or cx["superconvergence"].holds)


def test_run_trials_edge_cases():
    space = sobolev_weights(16)
    empty = run_trials(space, 0, 42)
    assert empty.all_pass
    assert empty.trials == 0
    assert empty.extremal_ratio == 1.0
    with pytest.raises(ValueError):
        run_trials(space, -1, 42)
