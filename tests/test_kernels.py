"""Kernel profiles, symbols, tail energies, and their closed forms.

Frozen oracle values below were derived by hand from the exponential
closed forms or computed with scipy.integrate.quad on the defining
integrals, independently of the library code.
"""

import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import quad

from maternlab import (
    KernelSpec,
    kernel_eval,
    paper_amplitude,
    tail_energy,
)

# e^{-1/2} and (1 + 1/2) e^{-1/2}, 17 digits from mpmath
EXP_HALF = 0.60653065971263342
M2_AT_HALF = 0.90979598956895014


def test_closed_form_profiles_match_frozen_values():
    k1 = KernelSpec(m=1)
    k2 = KernelSpec(m=2)
    assert kernel_eval(k1, 0.5) == pytest.approx(EXP_HALF, rel=1e-15)
    assert kernel_eval(k2, 0.5) == pytest.approx(M2_AT_HALF, rel=1e-15)
    assert kernel_eval(k1, 0.0) == 1.0
    assert kernel_eval(k2, 0.0) == 1.0


def test_amplitude_scales_evaluation():
    k = KernelSpec(m=2, amplitude=3.5)
    assert kernel_eval(k, 0.0) == pytest.approx(3.5, rel=1e-15)
    assert kernel_eval(k, 0.7) == pytest.approx(3.5 * kernel_eval(KernelSpec(m=2), 0.7), rel=1e-15)


def test_callable_form_agrees_with_kernel_eval():
    k = KernelSpec(m=2)
    rng = np.random.default_rng(2024)
    r = rng.uniform(0, 4, size=20)
    assert np.allclose(k(r), kernel_eval(k, r), rtol=0, atol=0)


def test_bessel_profile_reduces_to_closed_forms():
    # the general r^nu K_nu(r) branch must agree with the d=1 exponentials
    # above the small-radius guard; below it the flat continuation is off by
    # at most the guard radius itself (the steepest profile has slope -1)
    rng = np.random.default_rng(7)
    r = np.concatenate([[2e-8, 1e-7], rng.uniform(0.01, 6.0, size=40)])
    from maternlab.kernels import _bessel_profile

    exact_m1 = np.exp(-r)
    exact_m2 = (1.0 + r) * np.exp(-r)
    assert np.max(np.abs(_bessel_profile(0.5, r) - exact_m1)) < 1e-13
    assert np.max(np.abs(_bessel_profile(1.5, r) - exact_m2)) < 1e-13
    guarded = np.array([0.0, 1e-9, 1e-8])
    assert np.max(np.abs(_bessel_profile(0.5, guarded) - np.exp(-guarded))) <= 1e-8


def test_generated_closed_forms_match_the_bessel_profile():
    # (1 + r + r^2/3) e^{-r} and (1 + r + 2r^2/5 + r^3/15) e^{-r}, by hand,
    # against r^nu K_nu(r) normalized, nu = 5/2 and 7/2, and against the
    # reverse Bessel coefficients the kernel generates
    from maternlab.kernels import _bessel_profile

    r = np.linspace(0.0, 40.0, 4001)[1:]
    by_hand = {
        3: (1.0 + r + r * r / 3.0) * np.exp(-r),
        4: (1.0 + r + 2.0 * r * r / 5.0 + r**3 / 15.0) * np.exp(-r),
    }
    for m, want in by_hand.items():
        assert np.max(np.abs(_bessel_profile(m - 0.5, r) / want - 1.0)) <= 2e-15
        assert np.max(np.abs(kernel_eval(KernelSpec(m=m), r) / want - 1.0)) <= 2e-15
    assert KernelSpec(m=3).d == 1 and kernel_eval(KernelSpec(m=3), 0.0) == 1.0


def test_profile_continuous_at_bessel_cutoff():
    k = KernelSpec(m=2, d=2)
    below = kernel_eval(k, 0.999e-8)
    above = kernel_eval(k, 1.001e-8)
    assert abs(below - above) < 1e-10
    assert kernel_eval(k, 0.0) == 1.0


def test_kernel_eval_positive_and_nonincreasing():
    rng = np.random.default_rng(11)
    for k in (KernelSpec(m=1), KernelSpec(m=2), KernelSpec(m=2, d=2), KernelSpec(m=3, d=1)):
        r = np.sort(rng.uniform(0, 10, size=50))
        vals = kernel_eval(k, r)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 1e-15)


def test_kernel_eval_rejects_bad_radii():
    k = KernelSpec(m=2)
    with pytest.raises(ValueError):
        kernel_eval(k, -0.1)
    with pytest.raises(ValueError):
        kernel_eval(k, np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        kernel_eval(k, np.inf)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(m=0)
    with pytest.raises(ValueError):
        KernelSpec(m=1, d=0)
    with pytest.raises(ValueError):
        KernelSpec(m=1, d=2)  # 2m > d fails
    with pytest.raises(ValueError):
        KernelSpec(m=2, amplitude=0.0)
    with pytest.raises(ValueError):
        KernelSpec(m=2, amplitude=-1.0)
    assert KernelSpec(m=2).nu == 1.5
    assert KernelSpec(m=3, d=2).nu == 2.0
    # a bool m or d used to pass as 1; integral values are stored as int
    for kwargs, name in (({"m": True}, "m"), ({"m": np.True_}, "m"), ({"m": 2, "d": True}, "d")):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer, got (np\\.)?True"):
            KernelSpec(**kwargs)
    for m, d in ((2.0, 1), (np.int64(2), np.int64(1)), (2, 1.0)):
        k = KernelSpec(m=m, d=d)
        assert type(k.m) is int and type(k.d) is int
        assert repr(k) == "KernelSpec(m=2, d=1, amplitude=1.0)"


def test_paper_amplitude_known_values():
    # 2^(nu-1) Gamma(nu): both (m=1,d=1) and (m=2,d=1) give sqrt(pi/2)
    sqrt_pi_half = math.sqrt(math.pi / 2.0)
    assert paper_amplitude(2, 1) == pytest.approx(sqrt_pi_half, rel=1e-15)
    assert paper_amplitude(1, 1) == pytest.approx(sqrt_pi_half, rel=1e-15)
    assert paper_amplitude(2, 2) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        paper_amplitude(1, 2)


def test_kernel_symbol_ratios_by_quadrature():
    # the d = 1 Matern kernel has Fourier symbol proportional to
    # (1 + w^2)^(-m), so the cosine transform of kernel_eval divided by its
    # value at w = 0 must equal that; this checks the generated closed forms
    for m in (1, 2, 3, 4):
        k = KernelSpec(m=m)
        at_zero, _ = quad(lambda r: kernel_eval(k, r), 0.0, np.inf, epsabs=1e-14)
        for w in (0.5, 1.0, 3.0):
            val, _ = quad(lambda r: kernel_eval(k, r), 0.0, np.inf, weight="cos", wvar=w)
            assert val / at_zero == pytest.approx((1.0 + w * w) ** (-m), rel=1e-9)


def test_m1_kernel_self_convolution_is_the_m2_kernel():
    # the m = 1 kernel is the convolution root of the m = 2 kernel:
    # (e^{-|.|} * e^{-|.|})(x) = (1+|x|) e^{-|x|}; checked by quadrature
    k = KernelSpec(m=2)
    root = KernelSpec(m=1)
    for x in (0.0, 0.7, 1.9):
        val, _ = quad(
            lambda t: kernel_eval(root, abs(x - t)) * kernel_eval(root, abs(t)),
            -np.inf,
            np.inf,
            epsabs=1e-12,
            limit=200,
        )
        assert val == pytest.approx(kernel_eval(k, x), abs=1e-10)


def test_tail_energy_closed_forms():
    # integral of e^{-2y} over |y| > R is e^{-2R}; the m=2 analog is
    # e^{-2R} ((1+R)^2 + (1+R) + 1/2), both derived by hand
    for R in (0.0, 0.8, 1.5, 3.0):
        assert tail_energy(KernelSpec(m=1), R) == pytest.approx(
            math.exp(-2 * R), rel=1e-14
        )
        u = 1.0 + R
        assert tail_energy(KernelSpec(m=2), R) == pytest.approx(
            math.exp(-2 * R) * (u * u + u + 0.5), rel=1e-14
        )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_tail_energy_matches_30_digits(m):
    # 2 int_R^inf (e^{-r} p(r))^2 dr with the exact reverse Bessel p; one
    # closed form serves every m, m >= 3 included, without quadrature
    f = math.factorial
    with mp.workdps(30):
        p = [mp.mpf(f(2 * m - 2 - k) * f(m - 1) * 2**k) / (f(2 * m - 2) * f(k) * f(m - 1 - k))
             for k in range(m)]
        for R in (0.0, 0.8, 1.5, 3.0, 10.0):
            ref = 2 * mp.quad(lambda r: (mp.exp(-r) * mp.polyval(p[::-1], r)) ** 2, [R, mp.inf])
            assert tail_energy(KernelSpec(m=m), R) == pytest.approx(float(ref), rel=1e-14)
            assert tail_energy(KernelSpec(m=m, amplitude=1.5), R) == pytest.approx(
                2.25 * float(ref), rel=1e-14
            )


def test_tail_energy_matches_direct_quadrature():
    for k in (KernelSpec(m=1), KernelSpec(m=2, amplitude=1.3)):
        for R in (0.5, 2.0):
            ref, _ = quad(lambda y: kernel_eval(k, y) ** 2, R, np.inf, epsabs=1e-14)
            assert tail_energy(k, R) == pytest.approx(2.0 * ref, rel=1e-11)


def test_tail_energy_general_dimension_branch():
    # d=2: surface 2*pi, weight r; oracle by direct quadrature
    k = KernelSpec(m=2, d=2)
    for R in (0.3, 1.2):
        ref, _ = quad(lambda r: kernel_eval(k, r) ** 2 * r, R, np.inf, epsabs=1e-13)
        assert tail_energy(k, R) == pytest.approx(2.0 * math.pi * ref, rel=1e-9)


def test_tail_energy_decreasing_and_validated():
    k = KernelSpec(m=2)
    R = np.linspace(0, 5, 11)
    vals = [tail_energy(k, r) for r in R]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        tail_energy(k, -0.1)
    with pytest.raises(ValueError):
        tail_energy(k, np.nan)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_kernel_eval_holds_at_most_one_array_beyond_its_output(m):
    # Built in place: exp(-r) in the output, and one Horner array for m >= 2
    # only (before, two arrays for m = 1 and three for m >= 2).
    r = np.abs(np.subtract.outer(np.linspace(-1, 1, 400), np.linspace(-1, 1, 400)))
    tracemalloc.start()
    try:
        out = kernel_eval(KernelSpec(m=m, amplitude=1.5), r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 + (m > 1)) * out.nbytes + 2**16
