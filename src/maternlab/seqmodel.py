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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

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
        kap = np.array(self.kappa, dtype=float)
        if kap.ndim != 1 or kap.size == 0:
            raise ValueError("kappa must be a nonempty 1-D vector")
        if not np.all(np.isfinite(kap)) or np.any(kap <= 0):
            raise ValueError("kappa must be finite and strictly positive")
        if np.any(np.diff(kap) > 0):
            raise ValueError("kappa must be nonincreasing")
        kap.setflags(write=False)
        object.__setattr__(self, "kappa", kap)

    @property
    def M(self):
        return self.kappa.size


def sobolev_weights(M=64):
    """Polynomially decaying weights kappa_n = n^(-4), n = 1..M."""
    n = np.arange(1, M + 1, dtype=float)
    return WeightedSeqSpace(kappa=n**-4)


def analytic_weights(M=64):
    """Geometrically decaying weights kappa_n = 2^(-n), n = 1..M."""
    n = np.arange(1, M + 1)
    return WeightedSeqSpace(kappa=0.5**n)


def _as_mask(space, S):
    """Normalize an index subset to a boolean mask.

    Accepts a boolean array of length M or an iterable of zero-based
    indices.  Duplicate indices are allowed and collapse.
    """
    mask = np.zeros(space.M, dtype=bool)
    S = np.asarray(list(S) if not isinstance(S, np.ndarray) else S)
    if S.size == 0:
        return mask
    if S.dtype == bool:
        if S.shape != (space.M,):
            raise ValueError(f"boolean subset must have length {space.M}")
        return S.copy()
    idx = S.astype(int)
    if np.any(idx < 0) or np.any(idx >= space.M):
        raise ValueError("subset indices out of range")
    mask[idx] = True
    return mask


def _check_f(space, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (space.M,):
        raise ValueError(f"f must have length {space.M}")
    return f


class BoundCheck(NamedTuple):
    lhs: float
    eps: float
    rhs: float
    holds: bool


def _check_bounds(kappa, f, keep):
    """Both bounds for f of shape (..., M) projected onto the coordinates in
    keep; returns the standard and the superconvergence BoundCheck, whose
    fields are arrays over the leading axes."""
    resid = np.where(keep, 0.0, f)
    lhs = np.sqrt(np.sum(resid * resid, axis=-1))
    eps = np.sqrt(np.max(np.where(keep, 0.0, kappa), axis=-1))
    rhs_std = eps * np.sqrt(np.sum(resid * resid / kappa, axis=-1))
    v = f / kappa
    rhs_sup = eps * eps * np.sqrt(np.sum(v * v, axis=-1))
    return tuple(BoundCheck(lhs, eps, rhs, lhs <= rhs + _TOL) for rhs in (rhs_std, rhs_sup))


def _scalar(check, i=()):
    """Entry i of a batched BoundCheck as plain floats and a bool."""
    lhs, eps, rhs, holds = (field[i] for field in check)
    return BoundCheck(float(lhs), float(eps), float(rhs), bool(holds))


def verify_standard_bound(space, f, S):
    """Check ||f - Pf||_0 <= eps * ||f - Pf||_K for the subset S.

    Returns (lhs, eps, rhs, holds) with holds true when the inequality is
    satisfied up to an additive 1e-12.
    """
    return _scalar(_check_bounds(space.kappa, _check_f(space, f), _as_mask(space, S))[0])


def verify_superconvergence(space, f, S):
    """Check ||f - Pf||_0 <= eps^2 * ||f./kappa||_0 for the subset S.

    f is read as a member of the smoother class whose l2 preimage is
    v_f = f./kappa (always well defined at finite M).  Returns
    (lhs, eps, rhs, holds) with the same 1e-12 tolerance.
    """
    return _scalar(_check_bounds(space.kappa, _check_f(space, f), _as_mask(space, S))[1])


def _sharpest(check, n):
    """Largest lhs/rhs over the first n trials with rhs > 0, or 0."""
    lhs, rhs = check.lhs[:n], check.rhs[:n]
    return float(np.divide(lhs, rhs, out=np.zeros(n), where=rhs > 0).max(initial=0.0))


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


def _draw(seed, g, coin):
    """Standard normals into g and coin flips into coin, one row per trial."""
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(len(g))):
        rng = np.random.default_rng(child)
        g[i] = rng.standard_normal(g.shape[1])
        coin[i] = rng.random(g.shape[1]) < 0.5


# draws of at most this many n_trials * M entries (4.5 MB) outlive the call
_MEMO_ENTRIES = 1 << 19


@lru_cache(maxsize=1)
def _memo_draws(n_trials, M, entropy):
    """Read-only draws of one seed, shared by the presets that use it."""
    g, coin = np.empty((n_trials, M)), np.empty((n_trials, M), dtype=bool)
    _draw(entropy, g, coin)
    g.flags.writeable = coin.flags.writeable = False
    return g, coin


def run_trials(space, n_trials, seed):
    """Randomized verification of both inequalities on one weight preset.

    Each trial draws f = kappa .* g with standard normal g (so the implied
    density v_f = g has moderate norm and f has rapidly decaying tails) and
    an independent uniform random subset S.  Per-trial generators are
    spawned deterministically from the base seed, so results do not depend
    on evaluation order.  With n_trials = 0 the report is a vacuous pass.

    The extremal unit-coordinate case f = e_1, S = everything else is run
    as a fixed extra trial whenever n_trials > 0; its superconvergence
    ratio lhs/rhs equals 1 to machine precision (the bound is sharp).
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    # the random trials, then the extremal case as one more row
    f = np.zeros((n_trials + (n_trials > 0), space.M))
    keep = np.ones(f.shape, dtype=bool)
    if n_trials * space.M <= _MEMO_ENTRIES:
        # resolved first: seed=None draws afresh on every call; a list seed is unhashable
        entropy = np.random.SeedSequence(seed).entropy
        key = entropy if np.ndim(entropy) == 0 else tuple(entropy)
        f[:n_trials], keep[:n_trials] = _memo_draws(n_trials, space.M, key)
    else:
        _draw(seed, f[:n_trials], keep[:n_trials])
    f[:n_trials] *= space.kappa
    if n_trials > 0:
        f[-1, 0] = 1.0
        keep[-1, 0] = False
    std, sup = _check_bounds(space.kappa, f, keep)
    counterexample = None
    failed = np.flatnonzero(~(std.holds & sup.holds))
    if failed.size:
        i = int(failed[0])
        counterexample = {
            "trial": i if i < n_trials else "extremal",
            "f": f[i],
            "subset": keep[i],
            "standard": _scalar(std, i),
            "superconvergence": _scalar(sup, i),
        }
    return TrialReport(
        trials=n_trials,
        standard_passes=int(np.sum(std.holds[:n_trials])),
        super_passes=int(np.sum(sup.holds[:n_trials])),
        sharpest_standard=_sharpest(std, n_trials),
        sharpest_super=_sharpest(sup, n_trials),
        extremal_ratio=float(sup.lhs[-1] / sup.rhs[-1]) if n_trials > 0 else 1.0,
        counterexample=counterexample,
    )
