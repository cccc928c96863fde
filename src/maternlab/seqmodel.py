"""Finite sequence-space model of native-space interpolation.

Work in R^M with a positive nonincreasing weight vector kappa.  The model
norms are

    ||f||_0^2 = sum f_n^2          (the L2 stand-in)
    ||f||_K^2 = sum f_n^2/kappa_n  (the native-space stand-in)

and interpolation on an index subset S becomes the coordinate projection
keeping S, which is orthogonal in the K-inner product.  With
eps = max over excluded n of sqrt(kappa_n), the projection error obeys

    standard:          ||f - Pf||_0 <= eps   * ||f - Pf||_K
    superconvergence:  ||f - Pf||_0 <= eps^2 * ||f./kappa||_0

the second requiring only that v_f = f./kappa is the l2 preimage of f.
Both inequalities are exact finite-dimensional statements; the verifiers
here check them with a 1e-12 additive tolerance and report the pieces.
The presets take M, and run_trials its trial count, by kernels._positive_int:
an integral float is taken, and a fraction or a bool raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .kernels import _by_blocks, _index, _points, _positive_int, _slices

__all__ = [
    "WeightedSeqSpace",
    "sobolev_weights",
    "analytic_weights",
    "BoundCheck",
    "verify_standard_bound",
    "verify_superconvergence",
    "TrialReport",
    "run_trials",
]

_TOL = 1e-12


@dataclass(frozen=True)
class WeightedSeqSpace:
    """Weight vector kappa, strictly positive and stored nonincreasing."""

    kappa: np.ndarray

    def __post_init__(self):
        kap = _points(self.kappa, "kappa").copy()
        if kap.ndim != 1 or kap.size == 0:
            raise ValueError("kappa must be a nonempty 1-D vector")
        if np.any(kap <= 0):
            raise ValueError("kappa must be finite and strictly positive")
        if np.any(np.diff(kap) > 0):
            raise ValueError("kappa must be nonincreasing")
        kap.setflags(write=False)
        object.__setattr__(self, "kappa", kap)

    @property
    def M(self):
        return self.kappa.size


def sobolev_weights(M=64):
    """Polynomially decaying weights kappa_n = n^(-4), n = 1..M, M a positive integer."""
    n = np.arange(1, _positive_int(M, "M") + 1, dtype=float)
    return WeightedSeqSpace(kappa=n**-4)


def analytic_weights(M=64):
    """Geometrically decaying weights kappa_n = 2^(-n), n = 1..M, M a positive integer."""
    n = np.arange(1, _positive_int(M, "M") + 1)
    return WeightedSeqSpace(kappa=0.5**n)


def _as_mask(space, S):
    """Normalize an index subset to a boolean mask.

    Accepts a boolean array of length M, or zero-based integer indices (one,
    or any iterable).  Duplicate indices are allowed and collapse.
    """
    mask = np.zeros(space.M, dtype=bool)
    S = list(S) if np.iterable(S) and not isinstance(S, np.ndarray) else S
    arr = np.asarray(S)
    if arr.size == 0:
        return mask
    if arr.dtype == bool and arr.ndim:
        if arr.shape != (space.M,):
            raise ValueError(f"boolean subset must have length {space.M}")
        return arr.copy()
    mask[_index(S, space.M, "subset indices")] = True
    return mask


class BoundCheck(NamedTuple):
    lhs: float
    eps: float
    rhs: float
    holds: bool


def _check_bounds(kappa, f, keep):
    """Both bounds for f of shape (..., M) projected onto the coordinates in
    keep; returns the standard and the superconvergence BoundCheck, whose
    fields are arrays over the leading axes.  Beside f it holds one work
    array of f's shape at a time."""
    eps = np.sqrt(np.max(np.where(keep, 0.0, kappa), axis=-1))
    sq = np.where(keep, 0.0, f)  # the residual, then its square
    sq *= sq
    lhs = np.sqrt(np.sum(sq, axis=-1))
    sq /= kappa
    rhs_std = eps * np.sqrt(np.sum(sq, axis=-1))
    sq = np.divide(f, kappa, out=sq)  # v = f ./ kappa, then its square
    sq *= sq
    rhs_sup = eps * eps * np.sqrt(np.sum(sq, axis=-1))
    return tuple(BoundCheck(lhs, eps, rhs, lhs <= rhs + _TOL) for rhs in (rhs_std, rhs_sup))


def _scalar(check, i=()):
    """Entry i of a batched BoundCheck as plain floats and a bool."""
    lhs, eps, rhs, holds = (field[i] for field in check)
    return BoundCheck(float(lhs), float(eps), float(rhs), bool(holds))


def _single(space, f, S):
    # _check_bounds for one finite f of length M and one subset S
    f = _points(f, "f")
    if f.shape != (space.M,):
        raise ValueError(f"f must have length {space.M}")
    return _check_bounds(space.kappa, f, _as_mask(space, S))


def verify_standard_bound(space, f, S):
    """Check ||f - Pf||_0 <= eps * ||f - Pf||_K for the subset S.

    Returns (lhs, eps, rhs, holds) with holds true when the inequality is
    satisfied up to an additive 1e-12.
    """
    return _scalar(_single(space, f, S)[0])


def verify_superconvergence(space, f, S):
    """Check ||f - Pf||_0 <= eps^2 * ||f./kappa||_0 for the subset S.

    f is read as a member of the smoother class whose l2 preimage is
    v_f = f./kappa (always well defined at finite M).  Returns
    (lhs, eps, rhs, holds) with the same 1e-12 tolerance.
    """
    return _scalar(_single(space, f, S)[1])


def _sharpest(check):
    """Largest lhs/rhs over the trials with rhs > 0, or 0."""
    lhs, rhs = check.lhs, check.rhs
    return np.divide(lhs, rhs, out=np.zeros(lhs.size), where=rhs > 0).max(initial=0.0)


@dataclass(frozen=True)
class TrialReport:
    """Outcome of a randomized verification run on one weight preset."""

    trials: int
    standard_passes: int
    super_passes: int
    sharpest_standard: float
    sharpest_super: float
    extremal_ratio: float
    counterexample: Optional[dict]

    @property
    def all_pass(self):
        return (
            self.standard_passes == self.trials
            and self.super_passes == self.trials
            and self.counterexample is None
        )


def _draw(seeds, g, coin):
    """Standard normals into g and coin flips into coin, one row per trial,
    each from its own child of seeds; children are spawned a block at a
    time, and successive spawns continue the child count."""
    for b in _slices(len(g), 8 * g.shape[1]):  # 2^15 / M trials a block
        for i, child in enumerate(seeds.spawn(b.stop - b.start), b.start):
            rng = np.random.default_rng(child)
            g[i] = rng.standard_normal(g.shape[1])
            coin[i] = rng.random(g.shape[1]) < 0.5


# draws of at most this many n_trials * M entries (4.5 MB) outlive the call
_MEMO_ENTRIES = 1 << 19


@lru_cache(maxsize=1)
def _memo_draws(n_trials, M, entropy):
    """Read-only draws of one seed, shared by the presets that use it."""
    g, coin = np.empty((n_trials, M)), np.empty((n_trials, M), dtype=bool)
    _draw(np.random.SeedSequence(entropy), g, coin)
    g.flags.writeable = coin.flags.writeable = False
    return g, coin


def _counterexample(trial, f, keep, std, sup, i):
    return {
        "trial": trial,
        "f": f[i].copy(),
        "subset": keep[i].copy(),
        "standard": _scalar(std, i),
        "superconvergence": _scalar(sup, i),
    }


def run_trials(space, n_trials, seed):
    """Randomized verification of both inequalities on one weight preset.

    Each trial draws f = kappa .* g with standard normal g (so the implied
    density v_f = g has moderate norm and f has rapidly decaying tails) and
    an independent uniform random subset S.  Per-trial generators are
    spawned deterministically from the base seed, so results do not depend
    on evaluation order.  n_trials is a nonnegative integer (an integral
    float is taken; a fraction or a bool raises ValueError); with
    n_trials = 0 the report is a vacuous pass.

    The extremal unit-coordinate case f = e_1, S = everything else is run
    as a fixed extra trial whenever n_trials > 0; its superconvergence
    ratio lhs/rhs equals 1 to machine precision (the bound is sharp).

    Trials are drawn and checked in blocks of 2^15 / M, and only counts,
    ratios and the first counterexample are kept between blocks, so the
    memory beyond the shared draws (at most 4.5 MB, kept for the next
    call) does not grow with n_trials: about 0.7 MB at M = 64.
    """
    n_trials = _positive_int(n_trials, "n_trials", zero=True)
    kappa, M = space.kappa, space.M
    seeds = np.random.SeedSequence(seed)  # seed=None draws afresh on every call
    memo = None
    if n_trials * M <= _MEMO_ENTRIES:
        # keyed by the resolved entropy: a list seed is unhashable
        entropy = seeds.entropy
        memo = _memo_draws(n_trials, M, entropy if np.ndim(entropy) == 0 else tuple(entropy))
    found = []  # the first failing trial, as the report's counterexample

    def block(b):  # pass counts and sharpest ratios of trials b
        if memo is None:
            shape = (b.stop - b.start, M)
            f, keep = np.empty(shape), np.empty(shape, dtype=bool)
            _draw(seeds, f, keep)
            f *= kappa
        else:
            f, keep = memo[0][b] * kappa, memo[1][b]
        std, sup = _check_bounds(kappa, f, keep)
        failed = np.flatnonzero(~(std.holds & sup.holds))
        if failed.size and not found:
            found.append(_counterexample(b.start + int(failed[0]), f, keep, std, sup, failed[0]))
        return [[np.sum(std.holds), np.sum(sup.holds), _sharpest(std), _sharpest(sup)]]

    stats = _by_blocks(block, n_trials, 8 * M)
    passes, sharpest = stats[:, :2].sum(axis=0), stats[:, 2:].max(axis=0)
    extremal_ratio = 1.0
    if n_trials > 0:
        f = np.eye(1, M)
        keep = f == 0
        std, sup = _check_bounds(kappa, f, keep)
        if not (found or (std.holds[0] and sup.holds[0])):
            found.append(_counterexample("extremal", f, keep, std, sup, 0))
        extremal_ratio = float(sup.lhs[0] / sup.rhs[0])
    return TrialReport(
        trials=n_trials,
        standard_passes=int(passes[0]),
        super_passes=int(passes[1]),
        sharpest_standard=float(sharpest[0]),
        sharpest_super=float(sharpest[1]),
        extremal_ratio=extremal_ratio,
        counterexample=found[0] if found else None,
    )
