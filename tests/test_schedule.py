import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from vesim.schedule import (NO_CROSSING, CycleRecord, LightSignal,
                            ScheduleError, _lag_kernel,
                            buffered_relaxation_time, classify_cycle,
                            clip_cycle_times, predict_buffered_crossing,
                            schedule_from_crossings, schedule_from_times)


class TestLightSignal:
    def test_valid(self):
        sig = LightSignal([(0, 600)], 1200)
        assert sig.is_on(0.0) and sig.is_on(599.99)
        assert not sig.is_on(600.0) and not sig.is_on(1000.0)

    def test_is_on_takes_arrays(self):
        # on, just before and just after each switch, with a touching
        # pair of intervals: the array form answers as the scalar form
        # and both as the half-open [t_on, t_off) test
        sig = LightSignal([(10, 35), (35, 50), (80, 110)], 200)
        switches = [t for iv in sig.intervals for t in iv]
        ts = np.array([[np.nextafter(t, -math.inf), t,
                        np.nextafter(t, math.inf)] for t in switches])
        on = sig.is_on(ts)
        assert on.dtype == bool and on.shape == ts.shape
        scalar = [[sig.is_on(float(t)) for t in row] for row in ts]
        assert all(type(x) is bool for row in scalar for x in row)
        assert on.tolist() == scalar
        assert on.tolist() == [
            [any(a <= t < b for a, b in sig.intervals) for t in row]
            for row in ts.tolist()]
        assert on[:, 1].tolist() == [True, True, True, False, True, False]

    def test_overlap_rejected(self):
        with pytest.raises(ScheduleError):
            LightSignal([(0, 60), (50, 100)], 200)

    def test_reversed_rejected(self):
        with pytest.raises(ScheduleError):
            LightSignal([(60, 10)], 200)

    def test_beyond_horizon_rejected(self):
        with pytest.raises(ScheduleError):
            LightSignal([(0, 300)], 200)

    def test_non_finite_horizon_rejected(self):
        for horizon in (math.nan, math.inf):
            with pytest.raises(ScheduleError, match="finite"):
                LightSignal([(0, 1)], horizon)

    def test_cycle_bounds(self):
        sig = LightSignal([(10, 35), (50, 80)], 200)
        assert sig.cycle_bounds(0) == (10, 35, 50)
        assert sig.cycle_bounds(1) == (50, 80, 200)


def _unbuffered_crossing(c_start, c_target, a, b_prime, t_prev):
    return predict_buffered_crossing(c_start, c_target, a, b_prime, t_prev,
                                     0.0, 6.2e-5)


class TestPrediction:
    def test_already_at_threshold(self):
        assert _unbuffered_crossing(2.0, 2.0, 0.1, 0.5, 7.0) == 7.0

    def test_asymptote_below_target(self):
        # rises towards b'/a = 1 but the target is 2: no crossing
        assert _unbuffered_crossing(0.5, 2.0, 1.0, 1.0, 0.0) == NO_CROSSING

    def test_simple_rise(self):
        # C(t) = 2 - 1.5 e^-t, target 1.0 -> t = ln(1.5)
        t = _unbuffered_crossing(0.5, 1.0, 1.0, 2.0, 0.0)
        assert t == pytest.approx(math.log(1.5), rel=1e-12)

    def test_decay_crossing(self):
        # C(t) = 1 + (3-1)e^-2t, target 2 -> t = ln(2)/2
        t = _unbuffered_crossing(3.0, 2.0, 2.0, 2.0, 0.0)
        assert t == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)

    def test_target_behind_start(self):
        # decaying towards 1 from 1.5; target 3 was never ahead
        assert _unbuffered_crossing(1.5, 3.0, 1.0, 1.0, 0.0) == NO_CROSSING

    def test_requires_positive_a(self):
        with pytest.raises(ScheduleError):
            _unbuffered_crossing(1.0, 2.0, 0.0, 1.0, 0.0)


def _log10_floats(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@given(a=_log10_floats(-3, 3), k_a=_log10_floats(-7, -3),
       b0=st.just(0.0) | _log10_floats(-3, 3), c_from=_log10_floats(-7, -3),
       target=st.floats(-3.0, 5.0), frac=st.floats(1e-3, 0.99),
       t_prev=st.floats(0.0, 1e3))
@example(a=1.0, k_a=1e-5, b0=10.0, c_from=1e-5, target=-1.0, frac=0.4,
         t_prev=0.0)  # s = -k_a: the h(m/v) branch at m = 0
@settings(deadline=None)  # quad's cost varies; timing is not under test
def test_buffered_crossing_integrates_the_buffered_law(a, k_a, b0, c_from,
                                                       target, frac, t_prev):
    # the law C' = (b' - aC)/S(C), S(C) = 1 + k_a*B0/(C + k_a)^2, moves
    # from c_from a fraction `frac` of the way to its target s = b'/a
    s = target * c_from
    assume(abs(s - c_from) > 1e-3 * c_from)
    c_to = c_from + frac * (s - c_from)
    assume(c_to >= 0.0)
    b_prime = a * s
    t = predict_buffered_crossing(c_from, c_to, a, b_prime, 0.0, b0, k_a)
    ref = quad(lambda c: (1.0 + k_a * b0 / (c + k_a) ** 2)
               / (b_prime - a * c), c_from, c_to,
               epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert t == pytest.approx(ref, rel=1e-9)
    # unbuffered, the law inverts to the exponential's log ratio
    s_inf = b_prime / a
    assert predict_buffered_crossing(c_from, c_to, a, b_prime, t_prev, 0.0,
                                     k_a) == pytest.approx(
        t_prev - math.log((c_to - s_inf) / (c_from - s_inf)) / a,
        rel=1e-12)


def assert_elementwise(fn, *columns):
    """fn on arrays equals fn on each element, as 0-d arrays and floats;
    a column of one shape gives that shape back."""
    arrays = [np.array(c, dtype=float) for c in columns]
    batch = fn(*arrays)
    assert batch.shape == arrays[0].shape
    for k in range(arrays[0].size):
        zero_d = fn(*(np.array(a[k]) for a in arrays))
        assert isinstance(zero_d, float)
        assert np.array_equal(zero_d, batch[k])
        assert np.array_equal(fn(*(float(a[k]) for a in arrays)), batch[k])
    columns = fn(*(a.reshape(-1, 1) for a in arrays))
    assert np.array_equal(columns, batch.reshape(-1, 1))


# (a, k_a, B0, C_start, s/C_start, fraction of the way to s, t_prev)
_LAW_CASES = st.lists(st.tuples(
    _log10_floats(-3, 3), _log10_floats(-7, -3),
    st.just(0.0) | _log10_floats(-3, 3), _log10_floats(-7, -3),
    st.floats(-3.0, 5.0), st.just(0.0) | st.floats(1e-9, 0.99),
    st.floats(0.0, 1e3)), min_size=1, max_size=8)


def _law_columns(cases):
    a, k_a, b0, c, target, frac, t_prev = (np.array(x) for x in zip(*cases))
    s = target * c
    c_to = c + frac * (s - c)
    return a, k_a, b0, c, s, c_to, t_prev


@given(cases=_LAW_CASES, swap=st.booleans())
@example(cases=[(1.0, 1e-5, 10.0, 1e-5, -1.0, 0.4, 0.0)], swap=False)
@settings(deadline=None)
def test_crossing_helpers_are_elementwise(cases, swap):
    a, k_a, b0, c, s, c_to, t_prev = _law_columns(cases)
    if swap:  # targets behind the start or past the asymptote
        c, c_to = c_to, c
    assume(np.all(c_to + k_a > 0.0) and np.all(c + k_a > 0.0))
    assert_elementwise(predict_buffered_crossing, c, c_to, a, a * s, t_prev,
                       b0, k_a)


@given(cases=_LAW_CASES)
@example(cases=[(1.0, 1e-5, 10.0, 1e-5, -1.0, 0.4, 0.0),
                (1.0, 1e-5, 10.0, 1e-5, 3.0, 1e-6, 0.0)])
@settings(deadline=None)
def test_relaxation_time_is_elementwise(cases):
    # covers the Gauss-Legendre, h(m/v) and closed-form branches, and
    # log ratio 0
    a, k_a, b0, c, s, c_to, t_prev = _law_columns(cases)
    assume(np.all(np.abs(s - c) > 1e-3 * c) and np.all(c_to + k_a > 0.0))
    log_ratio = np.log((c_to - s) / (c - s))
    assert_elementwise(buffered_relaxation_time, c, log_ratio, a, a * s, b0,
                       k_a)


@given(x=st.lists(st.floats(-0.1, 0.1) | st.floats(-2e-3, 2e-3),
                  min_size=1, max_size=8))
def test_lag_kernel_is_elementwise(x):
    assert_elementwise(_lag_kernel, x)


@given(cases=st.lists(st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 200.0),
                                st.floats(0.0, 200.0)),
                      min_size=1, max_size=8))
def test_clip_is_elementwise(cases):
    t2, t4, shift = (np.array(x) for x in zip(*cases))
    t2 = np.where(shift > 150.0, NO_CROSSING, t2)
    clip = clip_cycle_times(t2, t4, 10.0, 80.0, 110.0)
    for k in range(t2.size):
        one = clip_cycle_times(float(t2[k]), float(t4[k]), 10.0, 80.0, 110.0)
        assert one == (clip[0][k], clip[1][k])


class TestClipping:
    def test_interior_untouched(self):
        assert clip_cycle_times(20.0, 90.0, 10.0, 80.0, 110.0) == (20.0, 90.0)

    def test_type_b_degeneration(self):
        # threshold never reached while lit, estimate after light-off
        t2, t4 = clip_cycle_times(100.0, 60.0, 10.0, 80.0, 110.0)
        assert (t2, t4) == (80.0, 80.0)

    def test_type_b_with_no_crossing_marker(self):
        t2, t4 = clip_cycle_times(NO_CROSSING, 20.0, 10.0, 80.0, 110.0)
        assert (t2, t4) == (80.0, 80.0)

    def test_type_c_forward(self):
        # symport outlasting the dark phase clips to the next cycle start
        t2, t4 = clip_cycle_times(20.0, 150.0, 10.0, 80.0, 110.0)
        assert (t2, t4) == (20.0, 110.0)

    def test_backward_merge(self):
        t2, t4 = clip_cycle_times(5.0, 90.0, 10.0, 80.0, 110.0)
        assert (t2, t4) == (10.0, 90.0)

    def test_invalid_bounds(self):
        with pytest.raises(ScheduleError):
            clip_cycle_times(1.0, 2.0, 10.0, 5.0, 20.0)


@given(t2_est=st.floats(-50, 250), t4_est=st.floats(-50, 250) | st.just(NO_CROSSING),
       t1=st.floats(0, 50), dur=st.floats(0, 50), gap=st.floats(0, 50))
def test_clip_always_monotone(t2_est, t4_est, t1, dur, gap):
    t3 = t1 + dur
    t1_next = t3 + gap
    t2, t4 = clip_cycle_times(t2_est, t4_est, t1, t3, t1_next)
    assert t1 <= t2 <= t3 <= t4 <= t1_next
    cycle_type = classify_cycle(t1, t2, t3, t4, t1_next)
    assert cycle_type in ("a", "b", "c")
    if cycle_type == "b":
        assert t4 == t2
    rec = CycleRecord(t1, t2, t3, t4, cycle_type)  # monotonicity holds
    assert rec.symport_duration >= 0


class TestClassification:
    def test_b_means_zero_duration(self):
        assert classify_cycle(10, 80, 80, 80, 110) == "b"

    def test_c_forward_merge(self):
        assert classify_cycle(10, 20, 80, 110, 110) == "c"

    def test_c_backward_merge(self):
        assert classify_cycle(10, 10, 80, 90, 110) == "c"

    def test_a_regular(self):
        assert classify_cycle(10, 20, 80, 90, 110) == "a"


class TestPhaseAt:
    """The cycle and phase `CycleSchedule.annotate` gives each time."""

    @staticmethod
    def _at(*times):
        sig = LightSignal([(10.0, 80.0), (110.0, 140.0)], 200.0)
        sched = schedule_from_times(sig, [20.0, 140.0], [90.0, 140.0])
        assert sched.types() == ["a", "b"]
        cycles, phases = sched.annotate(np.array(times))
        return list(zip(cycles, phases))

    def test_initial_leakage_phase(self):
        assert self._at(0.0, 5.0) == [(1, "P1"), (1, "P1")]

    def test_phase_sequence(self):
        assert self._at(15.0, 50.0, 85.0, 100.0) == [
            (1, "P2"), (1, "P3"), (1, "P4"), (2, "P1")]

    def test_boundary_belongs_to_ending_phase(self):
        assert self._at(20.0, 80.0) == [(1, "P2"), (1, "P3")]

    def test_zero_duration_phases_skipped(self):
        # cycle 2 is type (b): no P3/P4; after t3 the next leakage begins
        assert self._at(120.0, 150.0) == [(2, "P2"), (3, "P1")]


class TestScheduleFromTimes:
    def test_non_monotone_cycle_rejected(self):
        sig = LightSignal([(10, 80)], 200)
        with pytest.raises(ScheduleError, match="not monotone"):
            schedule_from_times(sig, [5.0], [90.0])

    def test_cycle_starting_before_previous_end_rejected(self):
        sig = LightSignal([(10, 80), (100, 150)], 200)
        with pytest.raises(ScheduleError, match="previous one ends"):
            schedule_from_times(sig, [20.0, 120.0], [105.0, 160.0])


class TestScheduleFromCrossings:
    def test_regular_cycle(self):
        sig = LightSignal([(10, 80)], 200)
        sched = schedule_from_crossings(sig, [(20.0, 1), (90.0, -1)])
        (c,) = sched.cycles
        assert (c.t1, c.t2, c.t3, c.t4) == (10.0, 20.0, 80.0, 90.0)
        assert c.cycle_type == "a"

    def test_no_crossing_gives_type_b(self):
        sig = LightSignal([(10, 80)], 200)
        sched = schedule_from_crossings(sig, [])
        (c,) = sched.cycles
        assert (c.t2, c.t4) == (80.0, 80.0)
        assert c.cycle_type == "b"

    def test_merged_cycles(self):
        sig = LightSignal([(10, 80), (100, 150)], 200)
        sched = schedule_from_crossings(sig, [(20.0, 1), (160.0, -1)])
        c1, c2 = sched.cycles
        assert (c1.t2, c1.t4) == (20.0, 100.0)
        assert c1.cycle_type == "c"
        assert (c2.t2, c2.t4) == (100.0, 160.0)
        assert c2.cycle_type == "c"

    def test_resolution_idempotent(self):
        sig = LightSignal([(10, 80), (100, 150)], 200)
        crossings = [(20.0, 1), (90.0, -1), (105.0, 1), (160.0, -1)]
        a = schedule_from_crossings(sig, crossings)
        b = schedule_from_crossings(sig, crossings)
        assert [(c.t1, c.t2, c.t3, c.t4, c.cycle_type) for c in a.cycles] \
            == [(c.t1, c.t2, c.t3, c.t4, c.cycle_type) for c in b.cycles]

    def test_boundary_sequences_jointly_nondecreasing(self):
        sig = LightSignal([(10, 80), (100, 150), (170, 190)], 250)
        crossings = [(20.0, 1), (160.0, -1), (175.0, 1), (200.0, -1)]
        sched = schedule_from_crossings(sig, crossings)
        flat = []
        for c in sched.cycles:
            flat += [c.t1, c.t2, c.t3, c.t4]
        assert flat == sorted(flat)
