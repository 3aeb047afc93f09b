import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import heuristics as h
from gaplab.heuristics import DomainError
from tests.conftest import sieve_segments

# frozen from a 40-digit mpmath evaluation of the same closed forms
G_WOLF_1E6_78498 = 114.7038545642796
G_WOLF_127_31 = 9.429398515557629
G_GAUSS_E_E = 2.7078401211010832
G_GAUSS_1E6 = 122.15403114039816
G_CRAMER_1E6 = 190.86833197722233
GRANVILLE_1E6 = 214.32967020240809
R_KERNEL_9 = 0.5797091611170912
R_KERNEL_4 = 0.5202600950228889
PF_WOLF_14 = 157.77753769106342
R_MAIN_WOLF_1E6 = 0.0827959419099869


def test_default_constants():
    c = h.DEFAULT_CONSTANTS
    assert c.C2 == pytest.approx(float(2 * mpmath.mp.twinprime), abs=0)
    assert 1.320323 < c.C2 < 1.320324
    assert c.c_prime == math.log(c.C2)
    assert f"{c.c_prime:.8f}" == "0.27787688"
    assert 1.1229 < c.granville_coeff < 1.1230
    assert f"{c.granville_coeff:.5f}" == "1.12292"
    assert f"{h.EULER_GAMMA:.15f}" == "0.577215664901533"


def test_twin_constant_tiny_products():
    empty = h.twin_constant(3)  # no prime p with 2 < p < 3
    assert empty.value == 2.0
    assert abs(empty.value - float(2 * mpmath.mp.twinprime)) <= empty.tail_bound
    assert h.twin_constant(4).value == 1.5
    assert h.twin_constant(6).value == 1.5 * (1 - 1 / 16)  # 1.40625


def test_twin_constant_converges():
    est = h.twin_constant(10**6)
    assert abs(est.value - 1.32032363169) <= 1e-6
    assert abs(est.value - float(2 * mpmath.mp.twinprime)) <= est.tail_bound
    assert est.tail_bound <= 1e-6


def test_converged_product_reproduces_c_prime():
    # at 1e8 the truncation error (~5e-10) is below the 8th decimal of ln C2
    with sieve_segments(1 << 22):
        est = h.twin_constant(10**8)
    assert f"{math.log(est.value):.8f}" == "0.27787688"


def test_twin_constant_monotone_decreasing():
    limits = [10, 100, 1000, 10**4, 10**5]
    values = [h.twin_constant(L).value for L in limits]
    assert values == sorted(values, reverse=True)
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("limit", [1000, 3163, 10**4, 10**5, 10**6])
def test_tail_bound_covers_true_deviation(limit):
    est = h.twin_constant(limit)
    true_c2 = float(2 * mpmath.mp.twinprime)
    assert abs(est.value - true_c2) <= est.tail_bound


def test_g_wolf():
    assert h.g_wolf(1e6, 78498) == pytest.approx(G_WOLF_1E6_78498, rel=1e-13)
    assert h.g_wolf(127, 31) == pytest.approx(G_WOLF_127_31, rel=1e-13)
    # degenerate but legal: pi_x = 1 gives x * (c' - ln x)
    x = math.e
    assert h.g_wolf(x, 1) == pytest.approx(x * (h.DEFAULT_CONSTANTS.c_prime - 1), rel=1e-12)
    with pytest.raises(DomainError):
        h.g_wolf(100.0, 0)


def test_g_gauss():
    assert h.g_gauss(math.e**math.e) == pytest.approx(G_GAUSS_E_E, rel=1e-13)
    assert h.g_gauss(1e6) == pytest.approx(G_GAUSS_1E6, rel=1e-13)
    with pytest.raises(DomainError):
        h.g_gauss(math.e)


def test_g_cramer():
    assert h.g_cramer(1) == 0.0
    assert h.g_cramer(math.e) == pytest.approx(1.0, rel=1e-15)
    assert h.g_cramer(1e6) == pytest.approx(G_CRAMER_1E6, rel=1e-13)
    with pytest.raises(DomainError):
        h.g_cramer(0.5)


def test_granville_bound():
    assert h.granville_bound(math.e) == pytest.approx(
        h.DEFAULT_CONSTANTS.granville_coeff, rel=1e-15
    )
    assert h.granville_bound(1e6) == pytest.approx(GRANVILLE_1E6, rel=1e-13)
    with pytest.raises(DomainError):
        h.granville_bound(1.0)


def test_pf_models():
    assert h.pf_wolf(1) == pytest.approx(math.e, rel=1e-15)
    assert h.pf_wolf(4) == pytest.approx(2 * math.e**2, rel=1e-14)
    assert h.pf_wolf(14) == pytest.approx(PF_WOLF_14, rel=1e-13)
    assert h.pf_shanks(0) == 1.0
    assert h.pf_shanks(4) == pytest.approx(math.e**2, rel=1e-14)
    assert h.pf_shanks(16) == pytest.approx(math.e**4, rel=1e-14)
    with pytest.raises(DomainError):
        h.pf_wolf(0)
    with pytest.raises(DomainError):
        h.pf_shanks(-1)


_LN_DBL_MAX = math.log(sys.float_info.max)


def _wolf_overflow_root() -> float:
    """The r at which r * e^r reaches DBL_MAX: r + ln r = ln DBL_MAX, by Newton."""
    r = _LN_DBL_MAX
    for _ in range(50):
        r -= (r + math.log(r) - _LN_DBL_MAX) / (1.0 + 1.0 / r)
    return r


@pytest.mark.parametrize(
    "model,root",
    [(h.pf_shanks, _LN_DBL_MAX), (h.pf_wolf, _wolf_overflow_root())],
)
def test_pf_models_reject_overflow_just_past_it(model, root):
    # sqrt(d) = root is where the value reaches DBL_MAX
    assert math.isfinite(model((root * (1 - 1e-12)) ** 2))
    for d in ((root * (1 + 1e-12)) ** 2, 1e6, 1e300):
        with pytest.raises(DomainError, match="overflows a double"):
            model(d)


def test_r_kernel_values():
    assert h.r_kernel(0) == 0.0
    assert h.r_kernel(9) == pytest.approx(R_KERNEL_9, rel=1e-15)
    assert f"{h.r_kernel(9):.12g}" == "0.579709161117"
    assert h.r_kernel(4) == pytest.approx(R_KERNEL_4, rel=1e-14)
    with pytest.raises(DomainError):
        h.r_kernel(-0.5)


def test_r_shanks_values():
    assert h.r_shanks(0) == 0.0
    assert h.r_shanks(4) == pytest.approx(2 / math.e, rel=1e-14)
    assert h.r_shanks(16) == pytest.approx(8 * math.exp(-2), rel=1e-14)


# d where e^(-sqrt(d)/2) leaves the normal doubles: sqrt(d)/2 = 1022 ln 2
_KERNEL_UNDERFLOW_D = (2 * 1022 * math.log(2)) ** 2


def _kernel_truth(name, d):
    """(1/2) d^alpha e^(-sqrt(d)/2) at the double d, in 50-digit mpmath."""
    with mpmath.workdps(50):
        d = mpmath.mpf(d)
        power = d ** mpmath.mpf(0.75) if name == "r_kernel" else d
        return power / 2 * mpmath.exp(-mpmath.sqrt(d) / 2)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["r_kernel", "r_shanks"]), d=st.floats(min_value=0, max_value=3e6))
@example(name="r_kernel", d=2.2e6)
@example(name="r_shanks", d=2.2e6)
@example(name="r_kernel", d=1e7)
@example(name="r_kernel", d=_KERNEL_UNDERFLOW_D * (1 - 1e-12))
@example(name="r_shanks", d=_KERNEL_UNDERFLOW_D * (1 - 1e-12))
@example(name="r_kernel", d=_KERNEL_UNDERFLOW_D * (1 + 1e-12))
@example(name="r_kernel", d=2.0e6)
@example(name="r_shanks", d=5e-324)
def test_kernels_print_12_true_digits_or_raise(name, d):
    # past the edge a subnormal value keeps fewer digits than the 12 printed
    truth = _kernel_truth(name, d)
    try:
        value = h.MODELS[name][0](d)
    except DomainError as exc:
        assert "underflows a double" in str(exc)
        assert mpmath.exp(-mpmath.sqrt(d) / 2) < sys.float_info.min
        return
    if truth < sys.float_info.min:
        # d = 0, or r_shanks(d) = d/2 for 0 < d < 2 DBL_MIN: as near as a
        # subnormal can hold it (see _scaled_exp)
        assert abs(value - truth) <= 2**-1074
        return
    printed = mpmath.mpf(f"{value:.12g}")
    with mpmath.workdps(50):
        unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(truth)) - 11)
        assert abs(printed - truth) <= unit, (value, truth)


def test_r_cramer_form():
    assert h.r_cramer_form(1) == 0.0
    assert h.r_cramer_form(math.e) == pytest.approx(1 / (2 * math.sqrt(math.e)), rel=1e-14)
    assert h.r_cramer_form(math.e**4) == pytest.approx(4 / math.e**2, rel=1e-14)
    with pytest.raises(DomainError):
        h.r_cramer_form(0.9)


def test_r_main_composition():
    x = 1e6
    for form, g_name in h.GAP_FORMS.items():
        g, takes_pi = h.MODELS[g_name]
        r_main, r_takes_pi = h.MODELS["r_main_" + g_name.removeprefix("g_")]
        assert r_takes_pi == takes_pi, form
        args = (x, 78498) if takes_pi else (x,)
        assert r_main(*args) == h.r_kernel(g(*args)), form
    r_main_wolf, _ = h.MODELS["r_main_wolf"]
    assert r_main_wolf(x, 78498) == pytest.approx(R_MAIN_WOLF_1E6, rel=1e-12)
    # negative modelled G (degenerate x) is rejected by the kernel
    with pytest.raises(DomainError):
        r_main_wolf(3.0, 1)


def test_kernel_shape():
    d = np.linspace(1e-6, 9.0, 10**4)
    values = 0.5 * d**0.75 * np.exp(-0.5 * np.sqrt(d))
    assert np.all(np.diff(values) > 0)
    d = np.linspace(9.0, 400.0, 10**4)
    values = 0.5 * d**0.75 * np.exp(-0.5 * np.sqrt(d))
    assert np.all(np.diff(values) < 0)


def test_kernel_finite_difference_at_maximum():
    step = 1e-4
    derivative = (h.r_kernel(9 + step) - h.r_kernel(9 - step)) / (2 * step)
    assert abs(derivative) <= 1e-6


@pytest.mark.parametrize("d", [100.0, 400.0, 2500.0])
def test_kernel_agrees_with_exact_first_occurrence_difference(d):
    # sqrt(pf+d)-sqrt(pf) == kernel(d) up to the expansion's next order
    pf = h.pf_wolf(d)
    exact = d / (math.sqrt(pf + d) + math.sqrt(pf))
    assert abs(exact - h.r_kernel(d)) / h.r_kernel(d) <= d**-0.25


def test_gauss_identity_under_forced_pi():
    for x in np.geomspace(10.0, 1e15, 200):
        pi = x / math.log(x)
        lhs = h.g_wolf(x, pi)
        rhs = h.g_gauss(x)
        assert abs(lhs - rhs) / rhs <= 1e-9


def test_cramer_composition_identity():
    r_main_cramer, _ = h.MODELS["r_main_cramer"]
    for x in np.geomspace(3.0, 1e15, 1000):
        lhs = r_main_cramer(float(x))
        rhs = h.r_cramer_form(float(x))
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-300)


def test_kernel_argmax():
    assert h.kernel_argmax(h.r_kernel) == (9.0, h.r_kernel(9.0))
    assert h.kernel_argmax("r_shanks") == (16.0, h.r_shanks(16.0))
    assert h.kernel_argmax(h.r_kernel)[1] == pytest.approx(R_KERNEL_9, rel=1e-12)
    assert h.kernel_argmax(h.r_shanks)[1] == pytest.approx(8 * math.exp(-2), rel=1e-12)

    # restricted interval: kernel rises on (0, 9), so the boundary wins
    x_star, value = h.kernel_argmax(h.r_kernel, (0.0, 1.0))
    assert x_star == 1.0 and value == h.r_kernel(1.0)

    with pytest.raises(ValueError):
        h.kernel_argmax("nope")
    with pytest.raises(ValueError):
        h.kernel_argmax(h.r_cramer_form)
    with pytest.raises(ValueError):
        h.kernel_argmax(h.r_kernel, (5.0, 5.0))


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["r_kernel", "r_shanks"]),
    ends=st.tuples(
        st.floats(min_value=0.0, max_value=400.0), st.floats(min_value=0.0, max_value=400.0)
    ).filter(lambda t: t[0] != t[1]),
)
def test_kernel_argmax_is_the_clamped_closed_form(name, ends):
    lo, hi = sorted(ends)
    kernel = getattr(h, name)
    peak = 9.0 if name == "r_kernel" else 16.0
    x, value = h.kernel_argmax(name, (lo, hi))
    assert x == min(max(peak, lo), hi)
    assert value == kernel(x)
    # a few ulps of slack: one rounded evaluation near a flat maximum can
    # land above another whose exact value is larger
    for g in np.linspace(lo, hi, 401):
        assert kernel(float(g)) <= value + 4 * math.ulp(value)


def test_gap_model_dispatch():
    x = 1e6
    assert set(h.GAP_FORMS.values()) <= set(h.MODELS)
    expected = {
        "wolf_exact_pi": (h.g_wolf, True),
        "wolf_gauss": (h.g_gauss, False),
        "cramer": (h.g_cramer, False),
        "granville": (h.granville_bound, False),
    }
    assert {form: h.MODELS[name] for form, name in h.GAP_FORMS.items()} == expected
    g_wolf, _ = h.MODELS[h.GAP_FORMS["wolf_exact_pi"]]
    assert g_wolf(x, 78498) == h.g_wolf(x, 78498)
    r_main_wolf, _ = h.MODELS["r_main_wolf"]
    assert r_main_wolf(x, 78498) == pytest.approx(R_MAIN_WOLF_1E6, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(c2=st.floats(min_value=1.01, max_value=3.0))
def test_constants_from_c2_consistent(c2):
    c = h.HeuristicConstants.from_c2(c2)
    assert c.c_prime == math.log(c.C2)


def test_twin_constant_rejects_tiny_limit():
    with pytest.raises(ValueError):
        h.twin_constant(2)
