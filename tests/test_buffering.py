import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vesim.buffering import (buffering_slowdown, complexed_conc,
                             free_proton_conc, total_conc_from_free)


def bisect_free_conc(total, b0, ka, tol=1e-12):
    """Independent oracle: bisection on the mass-action residual."""
    def residual(c):
        return c * c + c * (b0 + ka - total) - ka * total
    lo, hi = 0.0, total
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * hi:  # relative: roots span many decades
            break
    return 0.5 * (lo + hi)


def test_unbuffered_identity():
    # without a ligand every proton stays free
    assert free_proton_conc(0.123, 0.0, 6.2e-5) == 0.123
    assert free_proton_conc(1e-20 / 1e-17, 0.0, 6.2e-5) == 1e-20 / 1e-17
    assert complexed_conc(1e-3, 0.0, 6.2e-5) == 0.0


def test_zero_total():
    assert free_proton_conc(0.0, 20.0, 6.2e-5) == 0.0


@pytest.mark.parametrize("b0", [0.0, 20.0])
def test_nan_total_stays_nan(b0):
    # as in the compiled FDM step: a NaN total is not taken for T <= 0,
    # so a lane gone NaN shows in every kernel
    assert math.isnan(free_proton_conc(math.nan, b0, 6.2e-5))
    roots = free_proton_conc(np.array([1e-3, math.nan, 0.0]), b0, 6.2e-5)
    assert np.isnan(roots).tolist() == [False, True, False]


def test_reference_complex_concentration():
    # C_HB = B0*C/(C+k_a) at the pH 7.4 defaults: ~7.82 mol/m^3
    c_free, b0, ka = 3.98e-5, 20.0, 6.2e-5
    chb = complexed_conc(c_free, b0, ka)
    assert chb == pytest.approx(b0 * c_free / (c_free + ka), rel=1e-14)
    assert chb == pytest.approx(7.82, rel=1e-3)
    # and the forward/backward pair is consistent
    total = total_conc_from_free(c_free, b0, ka)
    assert free_proton_conc(total, b0, ka) == pytest.approx(c_free,
                                                            rel=1e-12)


def test_mass_action_residual_at_equilibrium():
    total = total_conc_from_free(3.98e-5, 20.0, 6.2e-5)
    c = free_proton_conc(total, 20.0, 6.2e-5)
    chb = total - c
    assert 0.0 <= chb <= 20.0
    # k_a = C*(B0 - C_HB)/C_HB to relative 1e-12
    assert c * (20.0 - chb) / chb == pytest.approx(6.2e-5, rel=1e-12)


def test_saturated_buffer_against_bisection():
    # T = B0 + k_a with k_a << B0 drives the buffer to near saturation
    b0, ka = 20.0, 6.2e-5
    total = b0 + ka
    c = free_proton_conc(total, b0, ka)
    assert c == pytest.approx(bisect_free_conc(total, b0, ka), rel=1e-9)


@given(total=st.floats(1e-12, 1e3), b0=st.floats(1e-6, 1e3),
       ka=st.floats(1e-8, 1e2))
def test_free_conc_matches_bisection_oracle(total, b0, ka):
    c = free_proton_conc(total, b0, ka)
    assert 0.0 <= c <= total
    oracle = bisect_free_conc(total, b0, ka)
    assert c == pytest.approx(oracle, rel=1e-8, abs=1e-18)
    # complexed amount stays below B0 up to the subtraction's own ulp
    assert total - c <= b0 + 1e-13 * max(1.0, total)


def test_slowdown_reference_value():
    # 1 + k_a*B0/(C+k_a)^2 at pH 7.4, B0 = 20
    slow = buffering_slowdown(3.98e-5, 20.0, 6.2e-5)
    assert slow == pytest.approx(1.0 + 6.2e-5 * 20 / (1.018e-4) ** 2,
                                 rel=1e-12)
    assert slow == pytest.approx(1.0 + 1.1966e5, rel=1e-3)
    assert buffering_slowdown(3.98e-5, 0.0, 6.2e-5) == 1.0


@given(totals=st.lists(st.floats(-1.0, 1e3), min_size=1, max_size=8),
       b0=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
       ka=st.floats(1e-8, 1e2),
       q_sign=st.sampled_from(["drawn", ">=0", "<0", "mixed"]),
       fracs=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=8),
       nonpositive=st.lists(st.tuples(st.integers(0, 8),
                                      st.sampled_from([0.0, -0.0, -1e-300,
                                                       -1.0])),
                            max_size=3))
def test_array_root_equals_scalar_root(totals, b0, ka, q_sign, fracs,
                                       nonpositive):
    # the root of an array, as the FDM's numpy step takes it: the float
    # root of every element, whether q = B0 + k_a - T has one sign on
    # every element or both, and with totals <= 0 among positive ones
    s = b0 + ka
    if q_sign == ">=0":  # T = s*f <= s, so q >= 0 (q = 0 at f = 1)
        totals = [s * f for f in fracs]
    elif q_sign == "<0":  # T > s
        totals = [s * (1.0 + f) for f in fracs]
    elif q_sign == "mixed":
        totals = [s * (f if i % 2 else 1.0 + f) for i, f in enumerate(fracs)]
    for i, t in nonpositive:
        totals.insert(i, t)
    arr = free_proton_conc(np.array(totals), b0, ka)
    assert arr.shape == (len(totals),)
    for t, c in zip(totals, arr):
        c_float = free_proton_conc(t, b0, ka)
        assert type(c_float) is float
        assert c == c_float and np.signbit(c) == np.signbit(c_float)
        if t > 1e-12 and b0 > 0.0:
            assert c == pytest.approx(bisect_free_conc(t, b0, ka),
                                      rel=1e-8, abs=1e-18)


def test_slowdown_of_an_array_equals_its_floats_slowdowns():
    # a population's stability coefficient takes the slowdown per lane,
    # so the array form must give each float's bits
    c = 10.0 ** np.random.default_rng(3).uniform(-8.0, -2.0, 20000)
    for b0 in (2.0, 20.0, 100.0):
        assert buffering_slowdown(c, b0, 6.2e-5).tolist() == [
            buffering_slowdown(x, b0, 6.2e-5) for x in c.tolist()]
