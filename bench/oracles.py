"""Reference values that do not come from the package under test.

Closed forms are derived here independently, and roots are found with
scipy's bracketing solver, so a check against them can fail whatever the
package computes about itself.  ``frozen()`` holds values measured once at
the baseline commit, the one that added this benchmark, for quantities
with no closed form.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

from env import BENCH_DIR


def _G(u):
    # integral of (1 + t) e^{-t} over [0, u]
    return 2.0 - (2.0 + u) * np.exp(-u)


def f_indicator(x):
    """Integral of (1 + |x - y|) e^{-|x - y|} dy over y in [-1, 1]."""
    x = np.asarray(x, dtype=float)
    inside = _G(np.abs(x + 1.0)) + _G(np.abs(1.0 - x))
    outside = np.abs(_G(np.abs(x) + 1.0) - _G(np.abs(x) - 1.0))
    return np.where(np.abs(x) <= 1.0, inside, outside)


@lru_cache(maxsize=None)
def exp_kernel_frequency(n):
    """Frequency omega_n of mode n (zero-based) of e^{-|x-y|} on [-1, 1].

    Even modes cos(omega x) solve omega tan omega = 1 on (k pi, k pi + pi/2);
    odd modes sin(omega x) solve omega cot omega = -1 on
    (k pi + pi/2, (k + 1) pi), with k = n // 2.  The two families interlace,
    so omega_n increases with n.
    """
    from scipy.optimize import brentq

    even = n % 2 == 0

    def secular(w):
        # the two conditions with their denominators cleared
        return w * math.sin(w) - math.cos(w) if even else w * math.cos(w) + math.sin(w)

    eps = 1e-12
    lo = (n // 2) * math.pi + (0.0 if even else math.pi / 2)
    return brentq(secular, lo + eps, lo + math.pi / 2 - eps, xtol=1e-14, rtol=1e-15)


def exp_kernel_eigenvalues(n_modes):
    """kappa_n = 2 / (1 + omega_n^2) for the leading modes, nonincreasing."""
    w = np.array([exp_kernel_frequency(n) for n in range(n_modes)])
    return 2.0 / (1.0 + w * w)


def exp_kernel_extension(n, x):
    """Native-space extension of the L2-normalized mode n (zero-based).

    Inside [-1, 1] it is the eigenfunction; outside it decays as
    phi(+-1) e^{-(|x| - 1)}, which is what the eigenvalue equation gives.
    The sign is fixed so the value near x = -1 is nonnegative.
    """
    w = exp_kernel_frequency(n)
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, -1.0, 1.0)
    if n % 2 == 0:
        norm = math.sqrt(1.0 + math.sin(2 * w) / (2 * w))
        phi = np.cos(w * clipped) / norm
    else:
        norm = math.sqrt(1.0 - math.sin(2 * w) / (2 * w))
        phi = np.sin(w * clipped) / norm
    phi = phi * np.exp(-(np.abs(x) - np.abs(clipped)))
    edge = math.cos(w) if n % 2 == 0 else -math.sin(w)
    return phi if edge >= 0 else -phi


def seq_sharpest_ratios(kappa, n_trials, seed):
    """Largest lhs/rhs of both sequence-space bounds over the seeded trials.

    Redraws the trials of ``run_trials`` (one generator per spawned child
    sequence: a standard normal vector, then a uniform subset) and evaluates
    both inequalities in vectorized form.
    """
    kappa = np.asarray(kappa, dtype=float)
    M = kappa.size
    f = np.empty((n_trials, M))
    keep = np.empty((n_trials, M), dtype=bool)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        rng = np.random.default_rng(child)
        f[i] = kappa * rng.standard_normal(M)
        keep[i] = rng.random(M) < 0.5
    resid = np.where(keep, 0.0, f)
    lhs = np.sqrt(np.sum(resid * resid, axis=1))
    eps = np.sqrt(np.max(np.where(keep, 0.0, kappa), axis=1))
    rhs_std = eps * np.sqrt(np.sum(resid * resid / kappa, axis=1))
    rhs_sup = eps * eps * np.sqrt(np.sum((f / kappa) ** 2, axis=1))
    std = np.where(rhs_std > 0, lhs / np.where(rhs_std > 0, rhs_std, 1.0), 0.0)
    sup = np.where(rhs_sup > 0, lhs / np.where(rhs_sup > 0, rhs_sup, 1.0), 0.0)
    return float(std.max()), float(sup.max())


@lru_cache(maxsize=1)
def frozen():
    """Values measured at the baseline commit (see bench/README.md)."""
    with open(BENCH_DIR / "frozen.json") as fh:
        return json.load(fh)
