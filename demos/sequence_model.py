"""
The sequence-space model of superconvergence
============================================

In a weighted little-l2 model the two approximation bounds behind the
rate studies become exact statements about the weights alone: dropping
the components in S costs at most eps = max excluded sqrt(kappa) in the
native scale, and eps^2 against the stronger norm.  Randomized trials
never find a violation, and the unit-coordinate case shows the constant
1 cannot be improved.
"""

import numpy as np

from maternlab import (
    analytic_weights,
    run_trials,
    sobolev_weights,
    verify_superconvergence,
)

for name, space in (
    ("polynomial weights n^-4", sobolev_weights(64)),
    ("geometric weights 2^-n", analytic_weights(64)),
):
    report = run_trials(space, 1000, seed=42)
    print(f"--- {name} ---")
    print(f"standard bound:        {report.standard_passes}/{report.trials} hold")
    print(f"superconvergent bound: {report.super_passes}/{report.trials} hold")
    print(
        f"sharpest observed ratios: {report.sharpest_standard:.4f} (standard), "
        f"{report.sharpest_super:.4f} (super)"
    )
    print(f"extremal unit-coordinate ratio: {report.extremal_ratio:.15f}\n")

# one worked example: drop every second component
space = sobolev_weights(8)
f = space.kappa * np.ones(8)
keep = np.array([True, False] * 4)
sup = verify_superconvergence(space, f, keep)
print("worked example, f = kappa, S = even components:")
print(f"  super: {sup.lhs:.6e} <= {sup.rhs:.6e} (eps = {sup.eps:.4f})")
