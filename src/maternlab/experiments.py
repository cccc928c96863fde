"""Convergence-rate studies.

A rate study interpolates a reference function on a doubling ladder of
equidistant node sets in [-C, C], measures global and interior RMS errors
on a fine grid, optionally tracks the native-norm error through the
Pythagoras split, and fits log-log slopes.  Fits use the finest half of the
usable levels (plus one) to approximate the asymptotic regime; errors below
1e-13 are dropped first, since the Gram conditioning floor makes anything
smaller meaningless.  The same fit of the native-norm error against N is
``RateStudy.native_exponent``.  The whole ladder is one stacked banded
solve (interpolation._interpolate_levels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientDataError
from .interpolation import CONDITIONING_FLOOR, NodeSet, _interpolate_levels, evaluate, native_error_norm
from .kernels import _finite, _points, _positive_int, _reals, kernel_eval

__all__ = [
    "ERROR_FLOOR",
    "RateRow",
    "RateStudy",
    "equidistant_nodes",
    "fit_rate",
    "run_rate_study",
]

ERROR_FLOOR = 1e-13


def equidistant_nodes(C, N):
    """N equidistant nodes from -C to +C inclusive, spacing 2C/(N-1)."""
    C = _finite(C, "C")
    N = _positive_int(N, "N")
    if N < 2:
        raise ValueError(f"need N >= 2 nodes, got {N}")
    return NodeSet(points=np.linspace(-C, C, N), halfwidth=C)


def fit_rate(h, e, all_levels=False):
    """Least-squares slope of log e against log h.

    Levels whose e is NaN or below 1e-13 are dropped.  By default the fit
    runs over the ceil(L/2) + 1 finest (smallest h) of the L usable levels;
    pass all_levels=True for the full-ladder slope.

    Raises
    ------
    InsufficientDataError
        When fewer than two usable levels remain.
    """
    h, e = _points(h, "h"), _reals(e, "e")
    if h.shape != e.shape or h.ndim != 1:
        raise ValueError("h and e must be matching 1-D vectors")
    if not np.all(h > 0):
        raise ValueError("h must be finite and positive")
    keep = np.isfinite(e) & (e >= ERROR_FLOOR)
    hs = h[keep]
    es = e[keep]
    if hs.size < 2:
        raise InsufficientDataError(
            f"rate fit needs >= 2 usable levels, have {hs.size} "
            f"(errors below {ERROR_FLOOR:g} are dropped)"
        )
    if not all_levels:
        # finest half of the levels, plus one; never more than all of them
        take = np.argsort(hs)[: math.ceil(hs.size / 2) + 1]
        hs = hs[take]
        es = es[take]
    slope, _ = np.polyfit(np.log(hs), np.log(es), 1)
    return float(slope)


@dataclass(frozen=True)
class RateRow:
    """One ladder level: node count, spacing, and error measurements.

    ``norm_ratio`` is the cancellation ratio ||s||^2 / ||f||^2 of the
    Pythagoras split (NaN without f_norm_sq, or for a row made by hand).
    ``min_pivot`` is the smallest bound K(0)(1 - rho^2) on the Cholesky pivots
    of the level's Gram matrix, and ``pivot_margin`` = min_pivot / (1e-13 K(0)).
    """

    N: int
    h: float
    rms_global: float
    rms_interior: float
    native_err: float
    maxabs_global: float
    maxabs_interior: float
    norm_ratio: float = math.nan
    min_pivot: float = math.nan
    pivot_margin: float = math.nan


@dataclass(frozen=True)
class RateStudy:
    """A completed convergence study with fitted rates.

    ``global_rate``/``interior_rate`` use the finest-levels fit;
    the ``*_all`` variants fit every usable level.  All four are None when
    the ladder leaves fewer than two usable levels.  ``finest_error`` is the
    signed error f - s of the last level on the evaluation grid (None for a
    study assembled by hand).
    """

    kernel: object
    C: float
    interior_margin: float
    node_counts: tuple
    grid_size: int
    rows: tuple
    global_rate: Optional[float]
    interior_rate: Optional[float]
    global_rate_all: Optional[float]
    interior_rate_all: Optional[float]
    finest_error: Optional[np.ndarray] = None

    @property
    def native_exponent(self):
        """Fitted exponent of native_err against N, the criterion-4 measure.

        A log-log fit over the finest ceil(L/2) + 1 of the L levels whose
        native_err is at least 1e-13.  NaN when fewer than two remain, so
        for a study without f_norm_sq, or for a reference that every level
        reproduces exactly (a combination of kernel translates at nodes).

        For f = K * v with v in L2 and supp v inside [-C, C], duality and the
        sampling inequality give ||f - s||_K = O(h^m), so the exponent is
        about -m (-2.04 for m = 2, C = 1.2 on the 11..161 ladder).  When the
        boundary cuts the support, the data miss part of f and the native
        error stalls: the exponent is near 0 (-0.08 at C = 0.8).
        """
        N = np.array([row.N for row in self.rows], dtype=float)
        try:
            return -fit_rate(1.0 / N, [row.native_err for row in self.rows])
        except InsufficientDataError:
            return math.nan


def run_rate_study(
    kernel,
    C,
    interior_margin,
    node_counts,
    grid_size,
    reference,
    f_norm_sq=None,
):
    """Interpolate the reference on each ladder level and measure errors.

    Every level is solved at once, as one stacked banded system.

    Parameters
    ----------
    kernel : KernelSpec
    C : float
        Domain half-width; nodes and evaluation grid live in [-C, C].
    interior_margin : float
        The interior window is |x| <= C - interior_margin; it must hold at
        least one grid point.
    node_counts : sequence of int
        Strictly increasing node ladder, each an integer >= 2.
    grid_size : int
        Evaluation grid resolution; an integer >= 10x the largest node count.
    reference : callable
        Vectorized function being interpolated; it must give one finite
        value per grid point and per node.
    f_norm_sq : float, optional
        Exact squared native norm of the reference, finite and positive (it
        divides norm_ratio); enables the native_err column (NaN otherwise).

    Raises
    ------
    ValueError
        Before any solve, for a bad configuration, an empty interior window
        or a reference value that is missing or not finite.
    ConditioningError
        From the solver, naming the offending node count.
    """
    C = _finite(C, "C")
    margin = _finite(interior_margin, "interior_margin", zero=True)
    if not margin < C:
        raise ValueError(f"interior margin must lie in [0, C), got {margin!r}")
    counts = [_positive_int(n, "node count") for n in node_counts]
    grid_size = _positive_int(grid_size, "grid_size")
    if f_norm_sq is not None:
        f_norm_sq = _finite(f_norm_sq, "f_norm_sq")
    if len(counts) == 0 or any(n < 2 for n in counts):
        raise ValueError("node_counts must be nonempty with every count >= 2")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("node_counts must be strictly increasing")
    if grid_size < 10 * max(counts):
        raise ValueError(
            f"grid_size {grid_size} too coarse for N = {max(counts)}; need >= 10x"
        )
    grid = np.linspace(-C, C, grid_size)
    # the interior window |x| <= C - margin is a slice of the sorted grid
    lo = int(np.searchsorted(grid, -(C - margin), side="left"))
    hi = int(np.searchsorted(grid, C - margin, side="right"))
    if hi <= lo:
        raise ValueError(
            f"interior window |x| <= C - margin = {C - margin:g} (margin {margin:g}) "
            f"holds no point of the {grid_size}-point grid on [-{C:g}, {C:g}]"
        )
    f_grid = _reference_values(reference, grid, "grid points")
    sets = [equidistant_nodes(C, N) for N in counts]
    values = [_reference_values(reference, X.points, f"nodes of level N={len(X)}") for X in sets]
    solved = _interpolate_levels(kernel, sets, values)
    rows, floor = [], CONDITIONING_FLOOR * kernel_eval(kernel, 0.0)
    for N, s in zip(counts, solved):
        err = f_grid - evaluate(s, grid)
        sq, diff = err * err, np.abs(err)
        nerr = math.nan if f_norm_sq is None else native_error_norm(f_norm_sq, s)
        ratio = math.nan if f_norm_sq is None else s.norm_sq / f_norm_sq
        rows.append(
            RateRow(
                N=N,
                h=2.0 * C / (N - 1),
                rms_global=float(np.sqrt(np.mean(sq))),
                rms_interior=float(np.sqrt(np.mean(sq[lo:hi]))),
                native_err=nerr,
                maxabs_global=float(diff.max()),
                maxabs_interior=float(diff[lo:hi].max()),
                norm_ratio=ratio,
                min_pivot=s._min_pivot,
                pivot_margin=s._min_pivot / floor,
            )
        )
    hs = np.array([row.h for row in rows])
    fits = {}
    for name, errs in (
        ("global", np.array([row.rms_global for row in rows])),
        ("interior", np.array([row.rms_interior for row in rows])),
    ):
        for suffix, full in (("", False), ("_all", True)):
            try:
                fits[name + suffix] = fit_rate(hs, errs, all_levels=full)
            except InsufficientDataError:
                fits[name + suffix] = None
    return RateStudy(
        kernel=kernel,
        C=C,
        interior_margin=margin,
        node_counts=tuple(counts),
        grid_size=grid_size,
        rows=tuple(rows),
        global_rate=fits["global"],
        interior_rate=fits["interior"],
        global_rate_all=fits["global_all"],
        interior_rate_all=fits["interior_all"],
        finest_error=err,
    )


def _reference_values(reference, x, where):
    # the reference at x: one finite real value per point, or ValueError
    # naming the first point that has none (or all of them, by _reals)
    vals = _reals(reference(x), "reference values")
    if vals.shape != x.shape:
        raise ValueError(f"reference returned shape {vals.shape} for {x.size} {where}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = bad[0]
        raise ValueError(f"reference is {vals[i]} at point {i} of {x.size} {where}, x = {x[i]:g}")
    return vals
