"""
The boundary split: which part of f spoils the rate
===================================================

On the domain [-C, C] = [-0.8, 0.8] the density v = chi_[-1, 1] of
f = K * v sticks out of the domain.  Interpolation is linear, so splitting
v at the domain boundary splits f and the error alike:

    f_in  = K * chi_[-C, C]                     (driven from inside)
    f_out = K * chi_[-1, -C] + K * chi_[C, 1]   (driven from outside)

and e_all = e_in + e_out.  For m = 2 the in part converges at 2m = 4 even
though its density fills the whole domain, while the out part carries the
entire loss, about m + 1/2 globally.  For m = 1 the out part solves
(1 - D^2) f_out = 0 inside the domain, so the interpolant reproduces it to
rounding and there is no layer at all.
"""

from maternlab import KernelSpec, convolve_with_indicator, run_rate_study

C, MARGIN, LADDER, GRID = 0.8, 0.2, [11, 21, 41, 81, 161], 2001


def parts(k):
    return {
        "in": lambda x: convolve_with_indicator(k, -C, C, x),
        "out": lambda x: convolve_with_indicator(k, -1.0, -C, x) + convolve_with_indicator(k, C, 1.0, x),
        "all": lambda x: convolve_with_indicator(k, -1.0, 1.0, x),
    }


def rate(value):
    # None when fewer than two levels lie above the 1e-13 error floor
    return "  below the floor" if value is None else f"{value:17.3f}"


for m in (1, 2):
    k = KernelSpec(m=m)
    print(f"--- kernel m = {m}, C = {C}, interior |x| <= {C - MARGIN:g} ---")
    print(f"{'part':>5} {'global rate':>17} {'interior rate':>17} {'finest rms':>12}")
    for name, f in parts(k).items():
        study = run_rate_study(k, C, MARGIN, LADDER, GRID, f)
        print(
            f"{name:>5} {rate(study.global_rate)} {rate(study.interior_rate)} "
            f"{study.rows[-1].rms_global:>12.3e}"
        )
    print()
