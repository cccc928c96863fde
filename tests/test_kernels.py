"""Kernel profiles, symbols, tail energies, and their closed forms.

Frozen oracle values below were derived by hand from the exponential
closed forms or computed with scipy.integrate.quad on the defining
integrals, independently of the library code.
"""

import math

import numpy as np
import pytest
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
    # value at w = 0 must equal that; m = 3 runs through the Bessel profile
    for m in (1, 2, 3):
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

