import math

import numpy as np
import pytest

from vesim.analytic import lambert_w0_exp


def newton_w0(x, tol=1e-15):
    """Independent oracle: damped Newton on w*e^w = x from a safe seed."""
    if x == 0.0:
        return 0.0
    w = math.log1p(x) if x > -0.2 else -1.0 + math.sqrt(2 * (1 + math.e * x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1.0)) if w != -1.0 else f
        w_new = w - step
        if abs(w_new - w) < tol * max(1.0, abs(w)):
            return w_new
        w = w_new
    return w


def test_log_domain_consistency_small():
    for y in (-5.0, 0.0, 3.0, 100.0):
        assert lambert_w0_exp(y) == pytest.approx(newton_w0(math.exp(y)),
                                                  rel=1e-13)


def test_log_domain_huge_argument():
    # w + log(w) = y must hold where exp(y) overflows
    for y in (800.0, 5e3, 1e6, 1e12):
        w = lambert_w0_exp(y)
        assert w + math.log(w) == pytest.approx(y, rel=1e-13)


def test_vectorized_shapes():
    ys = np.array([-2.0, 10.0, 1000.0])
    out = lambert_w0_exp(ys)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(lambert_w0_exp(1000.0), rel=1e-14)


def test_lambert_domain_function_identity():
    # the substrate-law argument f overflows in linear space at the
    # default cargo load; the log form must still invert exactly at dt=0
    c_start, km = 300.0, 1.3e-2
    y = math.log(c_start / km) + c_start / km  # log(f(0))
    w = lambert_w0_exp(y)
    assert km * w == pytest.approx(c_start, rel=1e-12)
    assert w + math.log(w) == pytest.approx(y, rel=1e-13)


def newton_w_log(y):
    """Independent oracle for y beyond exp's range: Newton on
    w + ln(w) = y, run until an iterate repeats (a fixed point)."""
    w, seen = y - math.log(y), set()
    while w not in seen:
        seen.add(w)
        w -= (w + math.log(w) - y) / (1.0 + 1.0 / w)
    return w


def test_log_domain_matches_oracles_on_both_branches():
    # lambert_w0_exp takes scipy's W0(exp(y)) up to y = 700 and four
    # Newton steps on w + ln(w) = y above it; `exact` calls it, so both
    # branches are held to 1e-15 relative
    edge = [np.nextafter(700.0, -np.inf), 700.0, np.nextafter(700.0, np.inf)]
    ys = np.concatenate([np.linspace(-30.0, 700.0, 400), edge,
                         np.geomspace(700.0, 1e8, 400)])
    want = np.array([newton_w0(math.exp(y)) if y <= 700.0 else newton_w_log(y)
                     for y in ys])
    for got in (lambert_w0_exp(ys), [lambert_w0_exp(float(y)) for y in ys]):
        assert np.all(np.abs(got - want) <= 1e-15 * want)
