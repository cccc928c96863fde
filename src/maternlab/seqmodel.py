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
Both are exact finite-dimensional statements; run_trials checks both, and
verify_superconvergence the second, with a 1e-12 additive tolerance.
Both hold term by term, so no draw can fail them: the trials check the
arithmetic, and the extremal case e_1 the sharpness of the constant.  The
model predicts a rate: on the kernel's spectrum, partial sums of
(f_n/kappa_n)^2 growing like N^beta give 2m - beta/2 in h (criterion 5).
run_trials draws through one generator of blocks, _draws, whose blocks
_memo_draws keeps when they hold at most 2^19 entries.
The presets take M, and run_trials its trial count, by kernels._positive_int:
an integral float is taken, and a fraction or a bool raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .kernels import _array, _index, _points, _positive_int, _seed, _slices

__all__ = [
    "WeightedSeqSpace",
    "sobolev_weights",
    "analytic_weights",
    "BoundCheck",
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
    # S as a boolean mask: S is a boolean array of length M, or zero-based
    # integer indices (one, or any iterable), where duplicates collapse
    mask = np.zeros(space.M, dtype=bool)
    S = list(S) if np.iterable(S) and not isinstance(S, np.ndarray) else S
    arr = _array(S, "subset indices")
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


def verify_superconvergence(space, f, S):
    """Check ||f - Pf||_0 <= eps^2 * ||f./kappa||_0 for the subset S.

    f, finite and of length M, is read as a member of the smoother class whose
    l2 preimage is v_f = f./kappa (always well defined at finite M).  Returns
    (lhs, eps, rhs, holds), holds true when it is met up to an additive 1e-12.
    """
    f = _points(f, "f")
    if f.shape != (space.M,):
        raise ValueError(f"f must have length {space.M}")
    return _scalar(_check_bounds(space.kappa, f, _as_mask(space, S))[1])


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


def _draws(entropy, n_trials, M):
    """Blocks of 2^15 / M trials as (first trial, standard normals, coin
    flips), one row per trial, each from its own child of
    SeedSequence(entropy), the children spawned in trial order."""
    seeds = np.random.SeedSequence(entropy)
    for b in _slices(n_trials, 8 * M):
        n = b.stop - b.start
        g, coin = np.empty((n, M)), np.empty((n, M), dtype=bool)
        for i, child in enumerate(seeds.spawn(n)):
            rng = np.random.default_rng(child)
            g[i] = rng.standard_normal(M)
            coin[i] = rng.random(M) < 0.5
        yield b.start, g, coin


# draws of at most this many n_trials * M entries (4.5 MB) outlive the call
_MEMO_ENTRIES = 1 << 19


@lru_cache(maxsize=1)
def _memo_draws(entropy, n_trials, M):
    """The blocks of _draws, read-only, shared by the presets that use one seed."""
    blocks = tuple(_draws(entropy, n_trials, M))
    for _, g, coin in blocks:
        g.flags.writeable = coin.flags.writeable = False
    return blocks


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
    n_trials = 0 the report is a vacuous pass.  seed is a nonnegative
    integer or a sequence of them, or None for fresh entropy on every call
    (a bool, a float or a string raises ValueError).

    The extremal unit-coordinate case f = e_1, S = everything else is run
    as a fixed extra trial whenever n_trials > 0; its superconvergence
    ratio lhs/rhs equals 1 to machine precision (the bound is sharp).

    Trials are drawn and checked in blocks of 2^15 / M, and only counts,
    ratios and the first counterexample are kept between blocks, so the
    memory beyond the shared draws (at most 4.5 MB, kept for the next
    call) does not grow with n_trials: about 0.65 MB at M = 64.
    """
    n_trials = _positive_int(n_trials, "n_trials", zero=True)
    kappa, M = space.kappa, space.M
    entropy = _seed(seed).entropy  # resolved, so None draws afresh; a list is unhashable
    entropy = entropy if np.ndim(entropy) == 0 else tuple(entropy)
    draws = _memo_draws if n_trials * M <= _MEMO_ENTRIES else _draws
    passes, sharpest, found = np.zeros(2, dtype=int), np.zeros(2), None
    for start, g, coin in draws(entropy, n_trials, M):
        f = np.multiply(g, kappa, out=g if g.flags.writeable else None)  # memo draws are shared
        std, sup = _check_bounds(kappa, f, coin)
        passes += np.sum(std.holds), np.sum(sup.holds)
        sharpest = np.maximum(sharpest, (_sharpest(std), _sharpest(sup)))
        failed = np.flatnonzero(~(std.holds & sup.holds))
        if failed.size and found is None:  # the first failing trial
            found = _counterexample(start + int(failed[0]), f, coin, std, sup, failed[0])
        del f, g, coin, std, sup  # before the next block is drawn
    extremal_ratio = 1.0
    if n_trials > 0:
        f = np.eye(1, M)
        keep = f == 0
        std, sup = _check_bounds(kappa, f, keep)
        if found is None and not (std.holds[0] and sup.holds[0]):
            found = _counterexample("extremal", f, keep, std, sup, 0)
        extremal_ratio = float(sup.lhs[0] / sup.rhs[0])
    return TrialReport(
        trials=n_trials,
        standard_passes=int(passes[0]),
        super_passes=int(passes[1]),
        sharpest_standard=float(sharpest[0]),
        sharpest_super=float(sharpest[1]),
        extremal_ratio=extremal_ratio,
        counterexample=found,
    )
