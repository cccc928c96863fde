"""Kernel profiles, symbols, tail energies, and their closed forms.

Frozen oracle values below were derived by hand from the exponential
closed forms or computed with scipy.integrate.quad on the defining
integrals, independently of the library code.
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import quad
from scipy.special import kv

from maternlab import (
    KernelSpec,
    NodeSet,
    WeightedSeqSpace,
    bad_part_sup_bound,
    box_convolution,
    convolve_with_indicator,
    eigen_extend,
    equidistant_nodes,
    evaluate,
    f_exact,
    fit_rate,
    hk_gram_extended,
    interpolate,
    kernel_eval,
    native_error_norm,
    nystrom_eig,
    paper_amplitude,
    project_samples,
    run_rate_study,
    run_trials,
    sobolev_weights,
    tail_energy,
    verify_standard_bound,
    verify_superconvergence,
)
from maternlab import kernels

# e^{-1/2} and (1 + 1/2) e^{-1/2}, 17 digits from mpmath
EXP_HALF = 0.60653065971263342
M2_AT_HALF = 0.90979598956895014


def _bessel_profile(nu, r):
    # r^nu K_nu(r) / (2^(nu-1) Gamma(nu)), the Matern profile written from
    # scipy's K_nu, independent of the package's closed forms; r > 0
    return r**nu * kv(nu, r) / (2.0 ** (nu - 1.0) * math.gamma(nu))


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
    # r^nu K_nu(r), nu = m - 1/2, must agree with the exponentials by hand
    # and with the kernel, down to small radii
    rng = np.random.default_rng(7)
    r = np.concatenate([[2e-8, 1e-7], rng.uniform(0.01, 6.0, size=40)])
    exact_m1 = np.exp(-r)
    exact_m2 = (1.0 + r) * np.exp(-r)
    assert np.max(np.abs(_bessel_profile(0.5, r) - exact_m1)) < 1e-13
    assert np.max(np.abs(_bessel_profile(1.5, r) - exact_m2)) < 1e-13
    for m in (1, 2):
        assert np.max(np.abs(_bessel_profile(m - 0.5, r) - kernel_eval(KernelSpec(m=m), r))) < 1e-13


def test_generated_closed_forms_match_the_bessel_profile():
    # (1 + r + r^2/3) e^{-r} and (1 + r + 2r^2/5 + r^3/15) e^{-r}, by hand,
    # against r^nu K_nu(r) normalized, nu = 5/2 and 7/2, and against the
    # reverse Bessel coefficients the kernel generates
    r = np.linspace(0.0, 40.0, 4001)[1:]
    by_hand = {
        3: (1.0 + r + r * r / 3.0) * np.exp(-r),
        4: (1.0 + r + 2.0 * r * r / 5.0 + r**3 / 15.0) * np.exp(-r),
    }
    for m, want in by_hand.items():
        assert np.max(np.abs(_bessel_profile(m - 0.5, r) / want - 1.0)) <= 2e-15
        assert np.max(np.abs(kernel_eval(KernelSpec(m=m), r) / want - 1.0)) <= 2e-15
    assert kernel_eval(KernelSpec(m=3), 0.0) == 1.0


def test_kernel_eval_positive_and_nonincreasing():
    rng = np.random.default_rng(11)
    for k in (KernelSpec(m=1), KernelSpec(m=2), KernelSpec(m=3), KernelSpec(m=4)):
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
        KernelSpec(m=2, amplitude=0.0)
    with pytest.raises(ValueError):
        KernelSpec(m=2, amplitude=-1.0)
    # the lab is one-dimensional: m and amplitude are the only fields
    assert [f.name for f in dataclasses.fields(KernelSpec)] == ["m", "amplitude"]
    with pytest.raises(TypeError, match="'d'"):
        KernelSpec(m=2, d=2)
    # a bool m used to pass as 1; integral values are stored as int
    for m in (True, np.True_):
        with pytest.raises(ValueError, match="m must be a positive integer, got (np\\.)?True"):
            KernelSpec(m=m)
    for m in (2.0, np.int64(2)):
        k = KernelSpec(m=m)
        assert type(k.m) is int
        assert repr(k) == "KernelSpec(m=2, amplitude=1.0)"
    # a string, None, a list or a complex used to escape as a TypeError from
    # float() or a comparison ("'<' not supported between instances of 'str'
    # and 'int'")
    for m in ("2", None, [2], 2 + 0j):
        with pytest.raises(ValueError, match=re.escape(f"m must be a positive integer, got {m!r}")):
            KernelSpec(m=m)


def test_spec_stores_the_amplitude_as_a_float():
    # a bool amplitude used to be kept as True; integral and numpy values
    # are stored as float, so the repr names the number
    for amp in (True, np.True_, False):
        with pytest.raises(ValueError, match="amplitude must be finite and positive, got (np\\.)?(True|False)"):
            KernelSpec(m=2, amplitude=amp)
    # non-numbers used to fail inside numpy ("ufunc 'isfinite' not
    # supported") or in a comparison, with a TypeError
    for amp in ("2", None, [1.0], 2 + 0j):
        with pytest.raises(ValueError, match=re.escape(f"amplitude must be finite and positive, got {amp!r}")):
            KernelSpec(m=2, amplitude=amp)
    for amp in (1, np.int64(1), np.float64(1.0), 1.0):
        k = KernelSpec(m=2, amplitude=amp)
        assert type(k.amplitude) is float
        assert repr(k) == "KernelSpec(m=2, amplitude=1.0)"
    assert KernelSpec(m=2, amplitude=np.float32(0.1)).amplitude == float(np.float32(0.1))


def test_paper_amplitude_known_values():
    # 2^(nu-1) Gamma(nu), nu = m - 1/2: m = 1 and m = 2 both give sqrt(pi/2),
    # m = 3 gives 2^(3/2) Gamma(5/2) = 3 sqrt(2 pi) / 2
    sqrt_pi_half = math.sqrt(math.pi / 2.0)
    assert paper_amplitude(2) == pytest.approx(sqrt_pi_half, rel=1e-15)
    assert paper_amplitude(1) == pytest.approx(sqrt_pi_half, rel=1e-15)
    assert paper_amplitude(3) == pytest.approx(1.5 * math.sqrt(2.0 * math.pi), rel=1e-15)
    with pytest.raises(ValueError):
        paper_amplitude(0)


def test_paper_amplitude_takes_m_by_the_integer_rule():
    # kernels._positive_int, as in KernelSpec: paper_amplitude(True) used to
    # return 1.2533 and paper_amplitude(2.5) 2.0, though KernelSpec refuses both
    for m in (True, 2.5, 0, "2"):
        with pytest.raises(ValueError, match=re.escape(f"m must be a positive integer, got {m!r}")):
            paper_amplitude(m)
    for m in (2.0, np.int64(2)):
        assert paper_amplitude(m) == paper_amplitude(2)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda n: KernelSpec(m=n), "m"),
        (lambda n: KernelSpec(m=2, amplitude=n), "amplitude"),
        (lambda n: paper_amplitude(n), "m"),
        (lambda n: nystrom_eig(KernelSpec(m=1), -1.0, 1.0, n, 1), "rule_size"),
        (lambda n: nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 8, n), "n_modes"),
        (lambda n: equidistant_nodes(1.0, n), "N"),
        (lambda n: run_rate_study(KernelSpec(m=2), 1.2, 0.2, [11, n], 501, f_exact), "node count"),
        (lambda n: run_rate_study(KernelSpec(m=2), 1.2, 0.2, [11, 21], n, f_exact), "grid_size"),
        (lambda n: sobolev_weights(n), "M"),
        (lambda n: run_trials(sobolev_weights(8), n, 0), "n_trials"),
    ],
    ids=["m", "amplitude", "paper_amplitude", "rule_size", "n_modes", "N", "node_count", "grid_size", "M", "n_trials"],
)
def test_integers_too_large_for_a_float_are_refused_by_name(call, name):
    # these used to escape as OverflowError "int too large to convert to
    # float", from float() or math.isfinite
    for n in (10**400, -(10**400)):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(n)


def _solved():
    X = equidistant_nodes(1.0, 3)
    return interpolate(KernelSpec(m=2), X, f_exact(X.points))


# (call, message) per real parameter: the message is the rule's, naming it
_REALS = {
    "amplitude": (lambda v: KernelSpec(m=2, amplitude=v), "amplitude must be finite and positive"),
    "halfwidth": (lambda v: NodeSet(points=[0.0], halfwidth=v), "halfwidth must be finite and positive"),
    "equidistant_nodes-C": (lambda v: equidistant_nodes(v, 5), "C must be finite and positive"),
    "run_rate_study-C": (
        lambda v: run_rate_study(KernelSpec(m=2), v, 0.2, [11, 21], 501, f_exact),
        "C must be finite and positive",
    ),
    "interior_margin": (
        lambda v: run_rate_study(KernelSpec(m=2), 1.2, v, [11, 21], 501, f_exact),
        "interior_margin must be finite and nonnegative",
    ),
    "run_rate_study-f_norm_sq": (
        lambda v: run_rate_study(KernelSpec(m=2), 1.2, 0.2, [11, 21], 501, f_exact, f_norm_sq=v),
        "f_norm_sq must be finite and positive",
    ),
    "native_error_norm-f_norm_sq": (
        lambda v: native_error_norm(v, _solved()),
        "f_norm_sq must be finite and nonnegative",
    ),
    "R": (lambda v: tail_energy(KernelSpec(m=2), v), "R must be finite and nonnegative"),
    "v_outside_norm": (
        lambda v: bad_part_sup_bound(KernelSpec(m=2), v, 1.0),
        "v_outside_norm must be finite and nonnegative",
    ),
    "nystrom_eig-a": (lambda v: nystrom_eig(KernelSpec(m=1), v, 1.0, 8, 2), "need finite a < b"),
    "nystrom_eig-b": (lambda v: nystrom_eig(KernelSpec(m=1), -1.0, v, 8, 2), "need finite a < b"),
    "convolve-a": (lambda v: convolve_with_indicator(KernelSpec(m=2), v, 1.0, 0.0), "need finite a < b"),
    "convolve-b": (lambda v: convolve_with_indicator(KernelSpec(m=2), -1.0, v, 0.0), "need finite a < b"),
}


@pytest.mark.parametrize(
    "param, value",
    [
        pytest.param(param, value, id=f"{param}-{label}")
        for param in sorted(_REALS)
        for value, label in ((10**400, "10**400"), (True, "True"), ("1.2", "str"), (None, "None"))
        # None is run_rate_study's default f_norm_sq: no native-norm column
        if not (value is None and param == "run_rate_study-f_norm_sq")
    ],
)
def test_every_real_parameter_is_refused_by_name(param, value):
    # kernels._finite and kernels._interval: an integer too large for a
    # float used to raise OverflowError (TypeError in equidistant_nodes),
    # True passed as 1.0 and "1.2" as 1.2 where float() read them
    call, message = _REALS[param]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got "):
        call(value)


# (call, name) per point array, each called with three entries
_POINTS = {
    "kernel_eval": (lambda x: kernel_eval(KernelSpec(m=2), x), "radius"),
    "NodeSet": (lambda x: NodeSet(points=x, halfwidth=1.0), "nodes"),
    "interpolate": (lambda x: interpolate(KernelSpec(m=2), equidistant_nodes(1.0, 3), x), "values"),
    "evaluate": (lambda x: evaluate(_solved(), x), "evaluation points"),
    "box_convolution": (lambda x: box_convolution(KernelSpec(m=3), x, 1), "x"),
    "f_exact": (lambda x: f_exact(x), "x"),
    "convolve_with_indicator": (lambda x: convolve_with_indicator(KernelSpec(m=2), -1.0, 1.0, x), "x"),
    "eigen_extend": (
        lambda x: eigen_extend(nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 8, 2), 0, x),
        "extension points",
    ),
    "fit_rate-h": (lambda x: fit_rate(x, [1e-2, 1e-3, 1e-4]), "h"),
    "fit_rate-e": (lambda x: fit_rate([0.4, 0.2, 0.1], x), "e"),
    "project_samples": (lambda x: project_samples(nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 3, 2), x), "samples"),
    "WeightedSeqSpace": (lambda x: WeightedSeqSpace(kappa=x), "kappa"),
    "verify_standard_bound": (lambda x: verify_standard_bound(sobolev_weights(3), x, [0]), "f"),
    "verify_superconvergence": (lambda x: verify_superconvergence(sobolev_weights(3), x, [0]), "f"),
    "reference": (
        lambda x: run_rate_study(KernelSpec(m=2), 1.2, 0.2, [11, 21], 501, lambda grid: x),
        "reference values",
    ),
}


@pytest.mark.parametrize(
    "entries",
    [
        np.array([0.1, 0.2 + 1j, 0.3]),
        np.array([0.1, 0.2, 0.3], dtype=complex),
        [0.1, None, 0.3],
        ["0.1", "0.2", "0.3"],
        [0.1, 10**400, 0.3],
    ],
    ids=["complex", "complex-dtype", "None", "str", "10**400"],
)
@pytest.mark.parametrize("entry", sorted(_POINTS))
def test_every_point_array_is_refused_by_name(entry, entries):
    # kernels._points, or its dtype half _reals for fit_rate's e and a
    # reference's values: a complex array used to be cast to its real part
    # with only a ComplexWarning (evaluate(s, [0.1 + 1j]) gave s(0.1)), a
    # string array was parsed, and None or 10**400 escaped as
    # TypeError/OverflowError
    call, name = _POINTS[entry]
    for x in (entries, entries[1]):  # the array, and its bad entry alone
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            call(x)


def test_point_rule_keeps_a_float_array_and_reads_ints_and_objects():
    x = np.array([0.0, 0.5, 2.0])
    assert kernels._points(x, "x") is x
    assert np.array_equal(kernels._points([0, 1, 2], "x"), [0.0, 1.0, 2.0])
    assert kernels._points(np.float32([0.25]), "x").dtype == np.float64
    big = kernels._points([1, 10**20], "x")  # an object array of ints a float holds
    assert big.dtype == np.float64 and big[1] == 1e20
    for bad in (np.array([np.inf]), [math.nan], -math.inf):
        with pytest.raises(ValueError, match="^x must be finite$"):
            kernels._points(bad, "x")


def test_point_rule_splits_into_a_dtype_half_and_a_finiteness_check():
    # _reals lets NaN and inf through, for the readers that hold them by
    # contract (fit_rate's e, a reference's values); it refuses the rest as
    # _points does, before any cast
    x = np.array([0.5, math.nan, -math.inf])
    assert kernels._reals(x, "x") is x
    assert np.array_equal(kernels._reals([1, math.nan], "x"), [1.0, math.nan], equal_nan=True)
    for bad in ([0.1 + 1j], ["0.5"], [None], [10**400], np.array([1.0], dtype=complex)):
        with pytest.raises(ValueError, match="^x must be finite$"):
            kernels._reals(bad, "x")


# (call, name, size) per index argument: a mode of a three-mode system, a
# subset index of a four-weight space, a derivative order of an m = 3 kernel
_SYSTEM = nystrom_eig(KernelSpec(m=1), -1.0, 1.0, 8, 3)
_INDICES = {
    "eigen_extend": (lambda n: eigen_extend(_SYSTEM, n, 0.5), "mode index", 3),
    "hk_gram_extended": (lambda n: hk_gram_extended(_SYSTEM, 0, n), "mode index", 3),
    "verify_standard_bound": (
        lambda n: verify_standard_bound(sobolev_weights(4), np.ones(4), n), "subset indices", 4
    ),
    "verify_superconvergence": (
        lambda n: verify_superconvergence(sobolev_weights(4), np.ones(4), n), "subset indices", 4
    ),
    "box_convolution": (lambda n: box_convolution(KernelSpec(m=3), 0.5, n), "order", 6),
}


_SIZE = object()  # stands for the argument's size, one past its last index


@pytest.mark.parametrize(
    "bad",
    [True, np.True_, [0, True], 2.0, "1", None, np.array([0, 1], dtype=object), -1, _SIZE],
    ids=["True", "np.True_", "list-with-True", "2.0", "str", "None", "object-array", "-1", "size"],
)
@pytest.mark.parametrize("entry", sorted(_INDICES))
def test_every_index_is_refused_by_name(entry, bad):
    # kernels._index: [0, True] used to select modes or subset indices 0 and
    # 1 (np.asarray makes it int64), and box_convolution's order had its own
    # operator.index reading
    call, name, size = _INDICES[entry]
    with pytest.raises(ValueError, match=f"^{name} "):
        call(size if bad is _SIZE else bad)


def test_index_rule_returns_integer_arrays_and_keeps_a_scalar_0d():
    for v in (2, np.int64(2), np.uint8(2)):
        idx = kernels._index(v, 3, "i")
        assert idx.ndim == 0 and idx == 2 and idx.dtype.kind in "iu"
    for v in ([0, 2], (2, 0, 2), range(3), np.array([1], dtype=np.int32)):
        assert np.array_equal(kernels._index(v, 3, "i"), np.asarray(v))
    with pytest.raises(ValueError, match=re.escape("i must be integers in 0..2, got [0, 3]")):
        kernels._index([0, 3], 3, "i")
    with pytest.raises(ValueError, match=re.escape("i must be an integer in 0..2, got 2.0")):
        kernels._index(2.0, 3, "i")


def test_m_is_bounded_where_the_closed_forms_are_finite_doubles():
    # From m = 68 the solver's companion row held integers past int64, from
    # m = 86 its closed forms overflow, and from m = 172 1/j! did in the
    # translate sums; paper_amplitude(200) raised OverflowError from
    # math.gamma.  Up to 85 every factorial (2m - 1)! they use is a double.
    for m in (86, 172, 200, 86.0):
        for call in (KernelSpec, paper_amplitude):
            with pytest.raises(ValueError, match=f"^{re.escape(f'm must be at most 85, got {m!r}')}$"):
                call(m)
    for m in (68, 85):
        assert KernelSpec(m=m).m == m
        assert math.isfinite(paper_amplitude(m))


@pytest.mark.parametrize("m", [3, 4])
def test_far_radii_give_zero_not_nan(m):
    # For m >= 3 the polynomial beside exp(-r) overflows from r ~ 1e154,
    # long after exp(-r) underflows to 0; each product of the two used to
    # read inf * 0 = NaN there
    k = KernelSpec(m=m)
    X = equidistant_nodes(1.2, 11)
    s = interpolate(k, X, box_convolution(k, X.points))
    sys_ = nystrom_eig(k, -1.0, 1.0, 40, 3)
    for r in (1e200, 1e300):
        near_and_far = np.array([1.0, r])
        want = [kernel_eval(k, 1.0), 0.0]
        assert np.array_equal(kernel_eval(k, near_and_far), want)
        assert np.array_equal(kernel_eval(k, near_and_far, out=near_and_far), want)  # in place
        for x in (r, -r):
            for order in range(2 * m):
                assert box_convolution(k, x, order) == 0.0, (x, order)
            assert convolve_with_indicator(k, -1.0, 1.0, x) == 0.0
            assert evaluate(s, x) == 0.0
            assert np.array_equal(eigen_extend(sys_, [0, 1, 2], x), [0.0, 0.0, 0.0])


def test_kernel_symbol_ratios_by_quadrature():
    # the d = 1 Matern kernel has Fourier symbol proportional to
    # (1 + w^2)^(-m), so the cosine transform of kernel_eval divided by its
    # value at w = 0 must equal that; this checks the generated closed forms
    for m in (1, 2, 3, 4):
        k = KernelSpec(m=m)
        at_zero, _ = quad(lambda r: kernel_eval(k, r), 0.0, np.inf, epsabs=1e-14)
        for w in (0.5, 1.0, 3.0):
            val, _ = quad(lambda r: kernel_eval(k, r), 0.0, np.inf, weight="cos", wvar=w)
            assert val / at_zero == pytest.approx((1.0 + w * w) ** (-m), rel=1e-9, abs=0)


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
            math.exp(-2 * R), rel=1e-14, abs=0
        )
        u = 1.0 + R
        assert tail_energy(KernelSpec(m=2), R) == pytest.approx(
            math.exp(-2 * R) * (u * u + u + 0.5), rel=1e-14, abs=0
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
            assert tail_energy(KernelSpec(m=m), R) == pytest.approx(float(ref), rel=1e-14, abs=0)
            assert tail_energy(KernelSpec(m=m, amplitude=1.5), R) == pytest.approx(
                2.25 * float(ref), rel=1e-14, abs=0
            )


def test_tail_energy_matches_direct_quadrature():
    for k in (KernelSpec(m=1), KernelSpec(m=2, amplitude=1.3)):
        for R in (0.5, 2.0):
            ref, _ = quad(lambda y: kernel_eval(k, y) ** 2, R, np.inf, epsabs=1e-14)
            assert tail_energy(k, R) == pytest.approx(2.0 * ref, rel=1e-11, abs=0)


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
