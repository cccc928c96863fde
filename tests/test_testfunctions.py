"""The piecewise-exponential test function and boundary-condition residuals.

Frozen oracle values were derived by hand from the antiderivative
2 - (2 + r) e^{-r} of (1 + r) e^{-r}: f(0) = 4 - 6 e^{-1}, f(1) = 2 - 4 e^{-2}, and the chain gap at 1.2 equals
e^{-0.2} - e^{-2.2}.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from maternlab import (
    KernelSpec,
    bc_residuals,
    convolve_with_indicator,
    f_exact,
    f_native_norm_sq,
    kernel_eval,
    paper_amplitude,
)

F_AT_0 = 4.0 - 6.0 * math.exp(-1.0)
F_AT_1 = 2.0 - 4.0 * math.exp(-2.0)
CHAIN_GAP_12 = math.exp(-0.2) - math.exp(-2.2)
BREAKPOINTS = (-1.0, 1.0)  # the edges of the box [-1, 1]: f is C^3, not C^4, there


def test_frozen_point_values():
    assert f_exact(0.0) == pytest.approx(F_AT_0, rel=1e-15)
    assert f_exact(1.0) == pytest.approx(F_AT_1, rel=1e-15)
    assert f_exact(-1.0) == pytest.approx(F_AT_1, rel=1e-15)


def test_symmetry_in_all_orders():
    # f is even, so odd-order derivatives are odd and even orders even
    rng = np.random.default_rng(606)
    x = rng.uniform(-4, 4, size=60)
    for order, sign in ((0, 1), (1, -1), (2, 1), (3, -1)):
        assert np.allclose(
            f_exact(-x, order), sign * f_exact(x, order), rtol=1e-13, atol=1e-15
        )


def test_branches_meet_through_third_order():
    # the translate kernel is C^2 and the indicator contributes one more
    # order through its endpoints, so f is C^3 across the breakpoints
    eps = 1e-9
    for bp in BREAKPOINTS:
        for order in (0, 1, 2, 3):
            below = f_exact(bp - eps, order)
            above = f_exact(bp + eps, order)
            assert abs(below - above) < 1e-7  # continuity, one-sided offsets O(eps)
    # exact branch agreement at the breakpoints themselves
    for order in (0, 1, 2, 3):
        # evaluating exactly at bp picks one branch; compare to limits
        at = f_exact(1.0, order)
        assert abs(at - f_exact(1.0 - 1e-12, order)) < 1e-10
        assert abs(at - f_exact(1.0 + 1e-12, order)) < 1e-10


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(909)
    xs = rng.uniform(-3, 3, size=40)
    xs = xs[np.min(np.abs(xs[:, None] - np.array(BREAKPOINTS)[None, :]), axis=1) > 1e-2]
    h = 1e-6
    for order in (1, 2, 3):
        fd = (f_exact(xs + h, order - 1) - f_exact(xs - h, order - 1)) / (2 * h)
        assert np.max(np.abs(fd - f_exact(xs, order))) < 1e-7


def test_decay_in_the_far_field():
    assert f_exact(10.0) < 2e-3
    assert f_exact(30.0) < 1e-11
    assert f_exact(-30.0) < 1e-11


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        f_exact(0.5, order=4)
    with pytest.raises(ValueError):
        f_exact(0.5, order=-1)


@pytest.mark.parametrize("order", [True, False, 1.0, np.float64(2.0), "1", None, np.True_])
def test_order_must_be_a_true_integer(order):
    # 1.0 in range(4) and True == 1 both hold in Python, so a range check
    # alone would silently return a derivative for these
    with pytest.raises(ValueError, match="order must be an integer"):
        f_exact(0.5, order)
    with pytest.raises(ValueError, match="order must be an integer"):
        convolve_with_indicator(KernelSpec(m=3), -1.0, 1.0, 0.5, order)


def test_integer_like_orders_and_the_order_range():
    assert f_exact(0.5, np.int64(1)) == f_exact(0.5, 1)
    for m in (1, 2, 3, 4):
        k = KernelSpec(m=m)
        convolve_with_indicator(k, -1.0, 1.0, 0.5, 2 * m - 1)
        with pytest.raises(ValueError, match=f"0..{2 * m - 1}"):
            convolve_with_indicator(k, -1.0, 1.0, 0.5, 2 * m)  # jumps at +-1
    with pytest.raises(ValueError, match="finite"):
        convolve_with_indicator(KernelSpec(m=2), -1.0, 1.0, [0.0, np.inf])


def test_scalar_and_array_forms():
    out = f_exact(0.5)
    assert isinstance(out, float)
    arr = f_exact(np.array([0.5, 1.5]))
    assert arr.shape == (2,)
    assert arr[0] == out


def test_f_matches_independent_convolution_oracle():
    # f(x) = F(1 - x) - F(-1 - x) with F(t) = sgn(t) (2 - (2 + |t|) e^{-|t|}),
    # the elementary antiderivative of (1 + |s|) e^{-|s|} from 0, at
    # scattered points, including the kinks
    rng = np.random.default_rng(515)
    xs = np.concatenate([rng.uniform(-3, 3, size=20), [-1.0, 1.0, 0.0]])
    for x in xs:
        oracle = _kernel_antiderivative(2, 1.0 - x) - _kernel_antiderivative(2, -1.0 - x)
        assert f_exact(float(x)) == pytest.approx(oracle, abs=1e-11)


def _mp_p(m):
    # the exact reverse Bessel coefficients of p, lowest degree first
    f = math.factorial
    return [mp.mpf(f(2 * m - 2 - k) * f(m - 1) * 2**k) / (f(2 * m - 2) * f(k) * f(m - 1 - k))
            for k in range(m)]


def _mp_box(m, order, x):
    # The defining integral of K^(order) over [x - 1, x + 1], split at the
    # kink u = 0; K^(j)(u) = sgn(u)^j e^{-|u|} sum_i C(j, i) (-1)^(j-i)
    # p^(i)(|u|) by Leibniz, with the exact reverse Bessel coefficients of p.
    p = _mp_p(m)

    def kernel_deriv(u):
        r = abs(u)
        s = mp.fsum(math.comb(order, i) * (-1) ** (order - i) * p[k] * math.perm(k, i) * r ** (k - i)
                    for i in range(order + 1) for k in range(i, m))
        return (-1 if u < 0 and order % 2 else 1) * mp.exp(-r) * s

    x = mp.mpf(x)
    return mp.quad(kernel_deriv, [x - 1, 0, x + 1] if abs(x) < 1 else [x - 1, x + 1])


_BOX_XS = [0.0, 0.3, -0.7, 1.0, -1.0, 0.999, 1.001, 1.7, -3.2, 40.0, -40.0]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_box_convolution_every_order_matches_30_digits(m):
    k = KernelSpec(m=m)
    with mp.workdps(30):
        for order in range(2 * m):
            got = convolve_with_indicator(k, -1.0, 1.0, _BOX_XS, order)
            for x, value in zip(_BOX_XS, got):
                ref = float(_mp_box(m, order, x))
                assert abs(value - ref) <= 2e-15, (order, x, value, ref)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_box_convolution_parity_continuity_and_amplitude(m):
    # K * chi is even, so order j has parity (-1)^j, and it holds bit for
    # bit: x -> -x only swaps and negates the two radii.  Every order up
    # to 2m - 1 is continuous across +-1, and the amplitude scales exactly.
    k = KernelSpec(m=m)
    x = np.r_[np.random.default_rng(77).uniform(-5.0, 5.0, 200), -1.0, 0.0, 1.0]
    eps = 1e-9
    for order in range(2 * m):
        assert np.array_equal(convolve_with_indicator(k, -1.0, 1.0, -x, order), (-1) ** order * convolve_with_indicator(k, -1.0, 1.0, x, order))
        for bp in BREAKPOINTS:
            around = convolve_with_indicator(k, -1.0, 1.0, [bp - eps, bp, bp + eps], order)
            assert np.max(np.abs(np.diff(around))) < 1e-7, (order, bp, around)
        assert np.array_equal(
            convolve_with_indicator(KernelSpec(m=m, amplitude=2.5), -1.0, 1.0, x, order),
            2.5 * convolve_with_indicator(k, -1.0, 1.0, x, order),
        )
    # order 1 is K(x + 1) - K(x - 1) from the kernel's own coefficients
    assert np.array_equal(
        convolve_with_indicator(k, -1.0, 1.0, x, 1), kernel_eval(k, np.abs(x + 1.0)) - kernel_eval(k, np.abs(x - 1.0))
    )


def test_native_norm_equals_integral_of_f():
    # for convolution data, ||K * chi||_K^2 = integral of f over [-1, 1];
    # scipy.integrate.quad provides the independent value
    from scipy.integrate import quad

    val, _ = quad(f_exact, -1.0, 1.0, epsabs=1e-13)
    assert f_native_norm_sq() == pytest.approx(val, rel=1e-12)
    assert f_native_norm_sq() == pytest.approx(2.0 * (1.0 + 5.0 * math.exp(-2.0)))


def test_convolve_matches_a_hand_integral_and_needs_a_below_b():
    k = KernelSpec(m=1)
    val = convolve_with_indicator(k, -1.0, 1.0, 0.25)
    # hand integral: int e^{-|0.25-y|} dy over [-1,1] = 2 - e^{-1.25} - e^{-0.75}
    exact = 2.0 - math.exp(-1.25) - math.exp(-0.75)
    assert val == pytest.approx(exact, abs=1e-11)
    with pytest.raises(ValueError):
        convolve_with_indicator(k, 1.0, -1.0, 0.25)


def _kernel_antiderivative(m, t):
    # integral of K(|s|) ds over [0, t] for the closed-form d = 1 kernels
    r = abs(t)
    if m == 1:
        return math.copysign(1.0 - math.exp(-r), t)
    return math.copysign(2.0 - (2.0 + r) * math.exp(-r), t)


@st.composite
def _interval_and_point(draw):
    a = draw(st.floats(-6.0, 6.0))
    b = a + draw(st.floats(1e-6, 8.0))
    x = draw(st.one_of(st.just(a), st.just(b), st.floats(-12.0, 12.0), st.sampled_from([-1e3, 1e3])))
    return a, b, x


def _mp_convolve(m, a, b, x):
    # the integral of e^{-r} p(r), r = |x - y|, over [a, b] in 30 digits,
    # split at the kink y = x
    with mp.workdps(30):
        p = _mp_p(m)

        def kernel(y):
            r = abs(x - y)
            return mp.exp(-r) * mp.fsum(c * r**k for k, c in enumerate(p))

        return mp.quad(kernel, [a, x, b] if a < x < b else [a, b])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(m=st.sampled_from([1, 2, 3, 4]), amplitude=st.sampled_from([1.0, 2.5]), abx=_interval_and_point())
def test_convolve_matches_elementary_antiderivatives(m, amplitude, abx):
    # x at a, at b, inside and outside [a, b] and at +-1e3, against 30-digit
    # mpmath for every m; for m = 1 and 2 also F(b - x) - F(a - x), F the
    # kernel's elementary antiderivative from 0
    a, b, x = abx
    got = convolve_with_indicator(KernelSpec(m=m, amplitude=amplitude), a, b, x)
    assert got == pytest.approx(amplitude * float(_mp_convolve(m, a, b, x)), abs=1e-12)
    if m <= 2:
        exact = _kernel_antiderivative(m, b - x) - _kernel_antiderivative(m, a - x)
        assert got == pytest.approx(amplitude * exact, abs=1e-12)


@pytest.mark.parametrize("a,b,x", [(-1.0, 1.0, 0.3), (-1.0, 1.0, -1.0), (-1.0, 1.0, 2.5), (0.2, 3.0, 1.7)])
def test_convolve_bessel_kernel_matches_scipy_quad(a, b, x):
    # The m = 3 and m = 4 profiles are r^nu K_nu(r) / (2^(nu-1) Gamma(nu)),
    # nu = 5/2 and 7/2, which have no elementary antiderivative above.  The
    # integrand is written from scipy's K_nu, so the oracle shares nothing
    # with kernel_eval; quad gets the kink at y = x as a breakpoint, and
    # r = 0 the limit 1.
    from scipy.integrate import quad
    from scipy.special import kv

    for m in (3, 4):
        k, nu = KernelSpec(m=m), m - 0.5

        def bessel(y):
            r = abs(x - y)
            return r**nu * kv(nu, r) / paper_amplitude(m) if r > 0 else 1.0

        ref, _ = quad(
            bessel,
            a,
            b,
            points=[x] if a < x < b else None,
            epsabs=1e-13,
            epsrel=0.0,
            limit=200,
        )
        assert convolve_with_indicator(k, a, b, x) == pytest.approx(ref, abs=1e-12)


def test_two_constraint_residuals_vanish_for_f_outside_support():
    for a, b in ((-1.2, 1.2), (-2.0, 3.0), (-1.0, 1.0)):
        r = bc_residuals(f_exact, a, b)
        assert len(r) == 4
        assert max(abs(v) for v in r) < 1e-13


def test_residuals_need_a_left_of_b():
    # with a >= b the (1 - D)^k rows would be read at the right end
    for a, b in ((1.0, -1.0), (0.5, 0.5), (np.nan, 1.0)):
        named = re.escape(f"need finite a < b, got a={a!r}, b={b!r}")
        with pytest.raises(ValueError, match=named):
            bc_residuals(f_exact, a, b)
        with pytest.raises(ValueError, match=named):
            bc_residuals(f_exact, a, b, order=1, rows=3)


def test_residual_order_and_rows_take_the_integer_rule():
    # kernels._positive_int: order=True was read as 1, order=2.0 raised
    # TypeError from range, rows=-1 returned (), and bc_residuals(f_exact,
    # 10**400, 1) raised OverflowError from its own message
    for bad in (True, 0, -1, 2.5, "2", 10**400, None):  # rows=None is the default, order
        with pytest.raises(ValueError, match=re.escape(f"order must be a positive integer, got {bad!r}")):
            bc_residuals(f_exact, -1.2, 1.2, order=bad)
        if bad is not None:
            with pytest.raises(ValueError, match=re.escape(f"rows must be a positive integer, got {bad!r}")):
                bc_residuals(f_exact, -1.2, 1.2, rows=bad)
    with pytest.raises(ValueError, match=re.escape(f"need finite a < b, got a={10**400!r}, b=1.0")):
        bc_residuals(f_exact, 10**400, 1.0)
    assert bc_residuals(f_exact, -1.2, 1.2, order=2.0, rows=np.int64(2)) == bc_residuals(f_exact, -1.2, 1.2)


def test_two_constraint_residuals_annihilate_pure_exponentials():
    # (1-D)^2 kills e^x at the left endpoint, (1+D)^2 kills e^{-x} at the
    # right; crossing them leaves nonzero residuals
    def grow(x, order=0):
        return math.exp(x)

    def decay(x, order=0):
        return (-1.0) ** order * math.exp(-x)

    r_grow = bc_residuals(grow, -1.5, 1.5)
    assert abs(r_grow[0]) < 1e-13 and abs(r_grow[1]) < 1e-13
    assert abs(r_grow[2]) > 1.0  # e^x is not annihilated on the right
    r_decay = bc_residuals(decay, -1.5, 1.5)
    assert abs(r_decay[2]) < 1e-13 and abs(r_decay[3]) < 1e-13
    assert abs(r_decay[0]) > 1.0


def test_chain_residuals_quantify_f_violation():
    chain = bc_residuals(f_exact, -1.2, 1.2, order=1, rows=3)
    assert len(chain) == 6
    # every consecutive gap has the same magnitude e^{-0.2} - e^{-2.2}
    assert all(abs(abs(g) - CHAIN_GAP_12) < 1e-13 for g in chain)
    assert CHAIN_GAP_12 == pytest.approx(0.7079276, abs=1e-7)


def test_chain_residuals_vanish_for_matched_exponentials():
    def grow(x, order=0):
        return math.exp(x)

    def decay(x, order=0):
        return (-1.0) ** order * math.exp(-x)

    left = bc_residuals(grow, -1.5, 1.5, order=1, rows=3)[:3]
    assert max(abs(v) for v in left) < 1e-13
    right = bc_residuals(decay, -1.5, 1.5, order=1, rows=3)[3:]
    assert max(abs(v) for v in right) < 1e-13


def test_generated_residuals_equal_the_written_out_forms():
    # bit for bit, so bc-check prints what it printed when each form was
    # written out by hand: the binomial sums run left to right
    for a, b in ((-1.2, 1.2), (-1.5, 1.5), (-0.8, 0.8), (-3.0, 2.0)):
        ga, gb = ([f_exact(x, n) for n in range(4)] for x in (a, b))
        assert bc_residuals(f_exact, a, b) == (
            ga[0] - 2.0 * ga[1] + ga[2],
            ga[1] - 2.0 * ga[2] + ga[3],
            gb[0] + 2.0 * gb[1] + gb[2],
            gb[1] + 2.0 * gb[2] + gb[3],
        )
        assert bc_residuals(f_exact, a, b, order=1, rows=3) == (
            ga[0] - ga[1], ga[1] - ga[2], ga[2] - ga[3],
            gb[0] + gb[1], gb[1] + gb[2], gb[2] + gb[3],
        )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_order_m_residuals_vanish_for_the_box_convolution(m):
    # outside [-1, 1] the order-m box convolution is e^{-|x|} times a
    # polynomial of degree m - 1, which (Id -+ D)^m annihilates; inside the
    # support it is not
    k = KernelSpec(m=m)

    def g(x, n):
        return convolve_with_indicator(k, -1.0, 1.0, x, n)

    outside = bc_residuals(g, -1.2, 1.2, order=m)
    assert len(outside) == 2 * m and max(abs(v) for v in outside) <= 1e-14
    assert max(abs(v) for v in bc_residuals(g, -0.8, 0.8, order=m)) > 0.1
