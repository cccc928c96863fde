"""
Tail energy and the interior sup bound
======================================

Whatever part of a convolution K * v is driven from outside the working
interval is pointwise small inside it: Cauchy-Schwarz against the kernel
tail gives |K*v(x)| <= ||v||_2 * sqrt(tail_energy(R)) once x keeps
distance R from the support.  The bound decays exponentially, so the
influence of the outside world is confined to a boundary layer.
"""

import numpy as np

from maternlab import (
    KernelSpec,
    bad_part_sup_bound,
    convolve_with_indicator,
    tail_energy,
)

for m in (1, 2):
    k = KernelSpec(m=m)
    print(f"--- kernel m = {m} ---")
    print("tail energies:")
    for R in (0.0, 1.0, 2.0, 4.0):
        print(f"  R = {R:3.1f}: {tail_energy(k, R):.6e}")

    # driving density: the indicator of [2, 3], unit L2 norm; every x in
    # [-1, 1] keeps distance 2 - x from its support
    xs = np.linspace(-1.0, 1.0, 9)
    print("bad-part value vs bound on [-1, 1]:")
    for x in xs:
        value = abs(convolve_with_indicator(k, 2.0, 3.0, float(x)))
        bound = bad_part_sup_bound(k, 1.0, 2.0 - float(x))
        print(f"  x = {x:5.2f}: |K*v| = {value:.3e} <= {bound:.3e}")
    print()
