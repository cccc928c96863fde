"""Reproduce the reference timings quoted in ROADMAP open item 1.

Usage: python3 bench/reference.py

Prints, as medians over ``REPEAT`` runs on the rate_ladder inputs of
seed 1: the set-up (import) time, the self time of ``interpolate`` at
N = 2561 (the package's factorization plus triangular solves) next to
LAPACK ``cholesky`` + ``solve_triangular`` on the same Gram matrix,
``evaluate`` time and tracemalloc peak at N = 2561 on the 10 N grid, and
``convolve_with_indicator`` time per point.
"""

from __future__ import annotations

import statistics
import sys
import time

import env

env.pin_threads()

REPEAT = 5


def main():
    if not env.use_checkout_source():
        print(f"error: no package source under {env.SRC}", file=sys.stderr)
        return 2
    import run

    setup = run.measure_setup("rate_ladder", 1, REPEAT)

    import numpy as np
    from scipy.linalg import cholesky, solve_triangular

    import maternlab as ml
    import spans
    import workloads as W

    inp = W.make_inputs("rate_ladder", 1)
    k = ml.KernelSpec(m=2)
    nodes = ml.NodeSet(inp.nodes, W.JITTER_C)
    conv_points = W.make_inputs("spectral_checks", 1).conv_points[:8]
    rows = {"interpolate_self_ms": [], "lapack_ms": [], "evaluate_s": [], "evaluate_peak_mb": [], "convolve_ms_per_point": []}
    ml.interpolate(k, nodes, inp.values)  # warm-up: first BLAS/LAPACK calls
    for _ in range(REPEAT):
        tracer = spans.Tracer()
        tracer.install()
        try:
            s = ml.interpolate(k, nodes, inp.values)
            ml.evaluate(s, inp.grid)
            for x in conv_points:
                ml.convolve_with_indicator(k, -1.0, 1.0, x)
        finally:
            tracer.uninstall()
        m = spans.layer_metrics(tracer.arrays())
        rows["interpolate_self_ms"].append(1e3 * m["interpolation.interpolate.self_s"])
        rows["evaluate_s"].append(m["interpolation.evaluate.s"])
        rows["evaluate_peak_mb"].append(m["interpolation.evaluate.peak_mb"])
        rows["convolve_ms_per_point"].append(1e3 * m["testfunctions.convolve_with_indicator.s"] / len(conv_points))
        A = ml.assemble_gram(k, nodes)
        t0 = time.perf_counter()
        L = cholesky(A, lower=True)
        solve_triangular(L.T, solve_triangular(L, inp.values, lower=True), lower=False)
        rows["lapack_ms"].append(1e3 * (time.perf_counter() - t0))
    print(f"set-up (import + inputs): {statistics.median(setup):.3f} s over {len(setup)} fresh processes")
    for name, values in rows.items():
        print(f"{name}: median {statistics.median(values):.4g} (min {min(values):.4g}, max {max(values):.4g}, n={len(values)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
