# schedule.py
"""
Illumination cycles, cycle phases and symport start/end bookkeeping.

A cycle i spans one on/off illumination period and is delimited by four
monotone boundary times: t1 (pump start), t2 (symport start), t3 (pump
end), t4 (symport end). Phases P1 (leakage only), P2 (pumping), P3
(pumping + symport) and P4 (symport after light-off) fill the gaps
between them; zero-duration phases are skipped. Cycle types:

    a: regular cycle, t1 < t2 < t3 < t4
    b: illumination too short for symport,   t2 = t3 = t4
    c: symport bridges two cycles,           t4(i) = t1(i+1) = t2(i+1)

t1/t3 come from the light signal. t2/t4 are predicted by inverting the
buffered proton law of a phase and then clipped into their cycle so the
boundary sequences stay monotone and types b/c degenerate correctly.

The crossing and relaxation-time helpers take floats or arrays of one
shape, one element per vesicle, and answer element by element: each
element takes its own branch, and no reduction mixes elements, so a
batch gives every element the value it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NO_CROSSING = math.inf

# (node, weight) pairs of the 5-point Gauss-Legendre rule on [-1, 1]
_GL_INNER = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_OUTER = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_W_INNER = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_GL_W_OUTER = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GAUSS_LEGENDRE_5 = ((-_GL_OUTER, _GL_W_OUTER), (-_GL_INNER, _GL_W_INNER),
                     (0.0, 128.0 / 225.0),
                     (_GL_INNER, _GL_W_INNER), (_GL_OUTER, _GL_W_OUTER))

PHASE_LEAK = "P1"
PHASE_PUMP = "P2"
PHASE_PUMP_SYMPORT = "P3"
PHASE_SYMPORT = "P4"


class ScheduleError(ValueError):
    """Raised for invalid light signals or cycle boundaries."""


@dataclass(frozen=True)
class LightSignal:
    """Binary piecewise-constant illumination schedule.

    Attributes:
        intervals: ordered (t_on, t_off) pairs in seconds, non-overlapping
        horizon: total simulated duration in seconds
    """

    intervals: tuple[tuple[float, float], ...]
    horizon: float

    def __init__(self, intervals, horizon: float):
        ivs = tuple((float(a), float(b)) for a, b in intervals)
        prev_off = -math.inf
        for k, (t_on, t_off) in enumerate(ivs):
            if not t_on < t_off:
                raise ScheduleError(
                    f"interval {k}: t_on ({t_on}) must be < t_off ({t_off})")
            if t_on < prev_off:
                raise ScheduleError(
                    f"interval {k}: overlaps or precedes the previous one")
            if t_on < 0:
                raise ScheduleError(f"interval {k}: negative t_on ({t_on})")
            prev_off = t_off
        if horizon <= 0:
            raise ScheduleError(f"horizon must be > 0, got {horizon}")
        if not math.isfinite(horizon):
            raise ScheduleError(f"horizon must be finite, got {horizon}")
        if ivs and ivs[-1][1] > horizon:
            raise ScheduleError("last interval ends beyond the horizon")
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "horizon", float(horizon))

    def is_on(self, t):
        """l(t): whether the light acts at t, in some closed-open
        [t_on, t_off). Takes a float (and returns a bool) or an array
        (and returns a bool array of its shape)."""
        edges = np.asarray(self.intervals, dtype=float).reshape(-1)
        # t lies in an interval when an odd number of edges are <= t
        on = np.searchsorted(edges, t, side="right") % 2 == 1
        return bool(on) if np.ndim(on) == 0 else on

    @property
    def n_cycles(self) -> int:
        return len(self.intervals)

    def cycle_bounds(self, i: int) -> tuple[float, float, float]:
        """(t1, t3, t1_next) of 0-based cycle i; t1_next is the horizon
        for the last cycle."""
        t1, t3 = self.intervals[i]
        t1_next = (self.intervals[i + 1][0]
                   if i + 1 < len(self.intervals) else self.horizon)
        return t1, t3, t1_next


@dataclass(frozen=True)
class CycleRecord:
    """Resolved boundary times of one cycle (seconds) and its type."""

    t1: float
    t2: float
    t3: float
    t4: float
    cycle_type: str

    def __post_init__(self):
        if not (self.t1 <= self.t2 <= self.t3 <= self.t4):
            raise ScheduleError(
                f"cycle boundaries not monotone: {self.t1}, {self.t2}, "
                f"{self.t3}, {self.t4}")

    @property
    def symport_duration(self) -> float:
        return self.t4 - self.t2


@dataclass
class CycleSchedule:
    """Fully resolved cycle boundaries for one trajectory."""

    cycles: list[CycleRecord] = field(default_factory=list)
    horizon: float = 0.0

    def boundaries(self) -> list[tuple[float, int, str]]:
        """All phase start times as (time, cycle index, phase) sorted in t.

        The phase named at time tb is the one *beginning* at tb; degenerate
        (zero-duration) phases are skipped.
        """
        out: list[tuple[float, int, str]] = []
        prev_end = 0.0
        for i, c in enumerate(self.cycles):
            for tb, te, phase in ((prev_end, c.t1, PHASE_LEAK),
                                  (c.t1, c.t2, PHASE_PUMP),
                                  (c.t2, c.t3, PHASE_PUMP_SYMPORT),
                                  (c.t3, c.t4, PHASE_SYMPORT)):
                if te > tb:
                    out.append((tb, i + 1, phase))
            prev_end = c.t4
        if self.horizon > prev_end:
            out.append((prev_end, len(self.cycles) + 1, PHASE_LEAK))
        return out

    def annotate(self, times) -> tuple[list[int], list[str]]:
        """Cycle indices and phase labels for an ascending array of times.

        Phase intervals are left-open, right-closed, so a boundary instant
        belongs to the phase that ends there; t = 0 maps to the opening
        leakage phase. 1-based cycle indices.
        """
        bounds = self.boundaries()
        if not bounds:
            n = len(times)
            return [1] * n, [PHASE_LEAK] * n
        starts, cycles, phases = zip(*bounds)
        k = np.maximum(np.searchsorted(starts, times, side="left") - 1, 0)
        return (np.array(cycles)[k].tolist(),
                np.array(phases, dtype=object)[k].tolist())

    def types(self) -> list[str]:
        return [c.cycle_type for c in self.cycles]

    def symport_intervals(self) -> list[tuple[float, float]]:
        """Merged (t2, t4) intervals with zero-duration ones dropped."""
        out: list[tuple[float, float]] = []
        for c in self.cycles:
            if c.t4 > c.t2:
                if out and math.isclose(out[-1][1], c.t2, abs_tol=1e-12):
                    out[-1] = (out[-1][0], c.t4)
                else:
                    out.append((c.t2, c.t4))
        return out


def _lanes(*values):
    """Flat float arrays of one length from floats and arrays of one shape.

    Returns the common shape and the inputs raveled to it; floats and 0-d
    arrays are repeated. Every array-form helper below computes on these
    lanes, element by element, and `_shaped` restores the caller's shape.
    """
    arrays = [np.asarray(v, dtype=float) for v in values]
    shape = next((a.shape for a in arrays if a.ndim), ())
    size = math.prod(shape)
    flat = []
    for a in arrays:
        if a.shape == shape:
            flat.append(a.reshape(-1))
        elif a.ndim == 0:
            flat.append(np.full(size, a))
        else:
            raise ValueError(f"shape {a.shape} does not match {shape}")
    return shape, flat


def _shaped(out: np.ndarray, shape: tuple):
    """`out` in the caller's shape; a float for floats and 0-d arrays."""
    return out.reshape(shape)[()]


def buffered_relaxation_time(c_start, log_ratio, a, b_prime, buffer_total,
                             k_a):
    """Time the buffered proton law takes to leave c_start by a log ratio.

    With a fast mass-action buffer the free concentration obeys

        C' = (b' - a*C) / S(C),   S(C) = 1 + k_a*B0 / (C + k_a)^2,

    which separates. With s = b'/a, m = s + k_a, k = k_a*B0, it integrates to

        a*t(C) = -(1 + k/m^2)*ln|s - C| + (k/m^2)*ln(C + k_a)
                 - k/(m*(C + k_a)) + const.

    The end state is given by log_ratio = ln((C - s)/(c_start - s)) rather
    than by C itself, so states within rounding of s keep a finite time.
    At B0 = 0 this is the unbuffered -log_ratio/a. Takes floats or arrays
    of one shape; each element takes its own branch below.
    """
    shape, (c_start, log_ratio, a, b_prime, buffer_total, k_a) = _lanes(
        c_start, log_ratio, a, b_prime, buffer_total, k_a)
    t = -log_ratio / a
    m = b_prime / a + k_a
    u0 = c_start + k_a
    # elsewhere the buffer adds nothing, or C sits at s already
    k = np.flatnonzero((buffer_total > 0.0) & (log_ratio != 0.0) & (u0 != m))
    if k.size:
        m, u0, log_ratio = m[k], u0[k], log_ratio[k]
        gap = (u0 - m) * np.exp(log_ratio)  # C - s at the end state
        u = m + gap  # C + k_a
        d = (u0 - m) * np.expm1(log_ratio)  # C - c_start, exact when small
        # lag = int_u0^u dv / (v^2 (m - v)), the buffer's share of a*t
        lag = np.empty_like(d)
        # a short step, where the closed forms below lose ~u/d ulps; both
        # poles (v = 0, v = m) lie at least 20 steps away, so 5-point
        # Gauss-Legendre is accurate to rounding
        short = np.abs(d) <= 0.05 * np.minimum(np.minimum(u0, u),
                                                np.abs(gap))
        # the 1/m^2 and 1/m terms of the closed form cancel to leading
        # order, losing ~(u/m)^2 ulps; the antiderivative -h(m/v)/v^2
        # avoids them
        near = ~short & (np.abs(m) < 0.1 * np.minimum(u0, u))
        far = ~(short | near)
        if short.any():
            mid, half = u0[short] + 0.5 * d[short], 0.5 * d[short]
            ms, total = m[short], 0.0
            for x, w in _GAUSS_LEGENDRE_5:
                total = total + w / ((mid + half * x) ** 2
                                     * (ms - mid - half * x))
            lag[short] = half * total
        if near.any():
            mn, u0n, un = m[near], u0[near], u[near]
            lag[near] = (_lag_kernel(mn / u0n) / (u0n * u0n)
                         - _lag_kernel(mn / un) / (un * un))
        if far.any():
            mf, u0f, uf, df = m[far], u0[far], u[far], d[far]
            lag[far] = ((np.log1p(df / u0f) - log_ratio[far]) / (mf * mf)
                        + df / (mf * uf * u0f))
        t[k] = t[k] + k_a[k] * buffer_total[k] * lag / a[k]
    return _shaped(t, shape)


def _lag_kernel(x):
    """h(x) = (ln(1 - x) + x) / x^2 for |x| < 0.1, with h(0) = -1/2.

    Takes floats or arrays.
    """
    shape, (x,) = _lanes(x)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-3
    if small.any():
        xs = x[small]
        series = 0.0
        for n in range(2, 8):
            series = series + xs ** (n - 2) / n
        out[small] = -series
    if not small.all():
        xl = x[~small]
        out[~small] = (np.log1p(-xl) + xl) / (xl * xl)
    return _shaped(out, shape)


def predict_buffered_crossing(c_start, c_target, a, b_prime, t_prev,
                              buffer_total, k_a):
    """Time at which the buffered proton law reaches c_target.

    Unbuffered, the phase dynamics C' = -a*C + b' relax exponentially
    towards s = b'/a, and inverting for C(t) = c_target gives

        t = t_prev - (1/a) * [log(c_target - s) - log(c_start - s)].

    The buffer only delays a crossing, it never adds or removes one:
    where that time lies past t_prev, the log ratio goes through
    `buffered_relaxation_time` instead, which is the same time at
    buffer_total = 0. Returns NO_CROSSING when the target is on the far
    side of the asymptote (the log arguments differ in sign) or behind
    the start value in relaxation direction (negative delay), and t_prev
    when c_start is the target. Takes floats or arrays of one shape and
    answers element by element.
    """
    shape, (c_start, c_target, a, b_prime, t_prev, buffer_total, k_a) = \
        _lanes(c_start, c_target, a, b_prime, t_prev, buffer_total, k_a)
    if np.any(a <= 0.0):
        raise ScheduleError(
            f"phase coefficient a must be > 0, got {a[a <= 0.0][0]}")
    s_inf = b_prime / a
    num = c_target - s_inf
    den = c_start - s_inf
    out = np.full(num.shape, NO_CROSSING)
    same_side = (num != 0.0) & (den != 0.0) & ((num > 0.0) == (den > 0.0))
    k = np.flatnonzero(same_side)
    ratio = num[k] / den[k]
    k, ratio = k[ratio <= 1.0], ratio[ratio <= 1.0]  # > 1: in the past
    log_ratio = np.log(ratio)
    out[k] = t_prev[k] - log_ratio / a[k]
    at_target = c_start == c_target
    out[at_target] = t_prev[at_target]
    moved = (out[k] != t_prev[k]) & (out[k] != NO_CROSSING)
    k = k[moved]
    out[k] = t_prev[k] + buffered_relaxation_time(
        c_start[k], log_ratio[moved], a[k], b_prime[k], buffer_total[k],
        k_a[k])
    return _shaped(out, shape)


def clip_cycle_times(t2_est, t4_est, t1, t3, t1_next):
    """Clip predicted symport times into their cycle.

    t2 is confined to [t1, t3] and t4 to [t3, t1_next]; estimates of
    NO_CROSSING collapse onto the upper clip bound. This reproduces the
    degenerate boundary patterns of type (b) (t2 = t3 = t4) and type (c)
    (t4 = t1_next) cycles. The estimates and the bounds may be arrays of
    one shape, one element per vesicle.
    """
    t1, t3, t1_next = np.broadcast_arrays(t1, t3, t1_next)
    ok = (t1 <= t3) & (t3 <= t1_next)
    if not np.all(ok):
        m = int(ok.argmin())  # the first bad lane, in flat order
        raise ScheduleError(
            f"lane {m}: need t1 <= t3 <= t1_next, got {t1.flat[m]}, "
            f"{t3.flat[m]}, {t1_next.flat[m]}")
    t2 = np.maximum(np.minimum(t3, t2_est), t1)
    t4 = np.maximum(np.minimum(t1_next, t4_est), t3)
    return t2, np.maximum(t4, t2)


def classify_cycle(t1: float, t2: float, t3: float, t4: float,
                   t1_next: float) -> str:
    """Cycle type from clipped boundary times.

    b: zero symport duration; c: symport glued to the next cycle or
    carried in from the previous one; a: otherwise.
    """
    if t4 <= t2:
        return "b"
    if t4 >= t1_next or t2 <= t1:
        return "c"
    return "a"


def _symport_estimates(events, active_at_start: bool, t1: float, t3: float,
                       t1_next: float) -> tuple[float, float]:
    """Unclipped (t2, t4) of one cycle from sorted crossings.

    `events` holds (time, direction) rows as `schedule_from_crossings`
    takes them. t2 is t1 when the symport indicator is on at t1, else the
    first upward crossing in [t1, t3); t4 is the first downward crossing
    in (t2, t1_next). Each is NO_CROSSING when there is none, and t4 is
    NO_CROSSING whenever t2 is. Reads only the rows of the cycle.
    """
    t, d = np.asarray(events, dtype=float).reshape(-1, 2).T
    before = np.searchsorted(t, t1, side="right")  # crossings at or before t1
    active = d[before - 1] > 0 if before else active_at_start
    if active:
        t2_est = t1
    else:
        lo, hi = np.searchsorted(t, (t1, t3))
        up = np.flatnonzero(d[lo:hi] > 0)
        if not up.size:
            return NO_CROSSING, NO_CROSSING
        t2_est = float(t[lo + up[0]])
    lo = np.searchsorted(t, t2_est, side="right")
    down = np.flatnonzero(d[lo:np.searchsorted(t, t1_next)] < 0)
    return t2_est, float(t[lo + down[0]]) if down.size else NO_CROSSING


def schedule_from_times(signal: LightSignal, t2s, t4s) -> CycleSchedule:
    """The schedule of `signal` with clipped symport times t2s, t4s.

    Cycle i has boundaries (t1, t2s[i], t3, t4s[i]) and the type
    `classify_cycle` gives it. Raises ScheduleError if a cycle's
    boundaries are not monotone or it starts before the previous one ends.
    """
    cycles: list[CycleRecord] = []
    for i, (t2, t4) in enumerate(zip(t2s, t4s)):
        t1, t3, t1_next = signal.cycle_bounds(i)
        if cycles and t1 < cycles[-1].t4:
            raise ScheduleError("cycle starts before the previous one ends")
        cycles.append(CycleRecord(t1, t2, t3, t4,
                                  classify_cycle(t1, t2, t3, t4, t1_next)))
    return CycleSchedule(cycles, signal.horizon)


def schedule_from_crossings(signal: LightSignal, crossings,
                            active_at_start: bool = False) -> CycleSchedule:
    """Assemble a CycleSchedule from detected threshold crossings.

    Args:
        signal: the driving light signal
        crossings: (time, direction) rows, an (m, 2) array or a list of
            pairs, direction +1 for upward (symport on) and -1 for
            downward, sorted as `sorted` sorts such pairs
        active_at_start: whether the symport indicator is on at t=0

    The same clipping semantics as the analytical route apply: a new
    cycle begins at every t_on even if symport has not ended, and a cycle
    whose illumination never triggers symport degenerates to type (b).
    """
    events = np.asarray(crossings, dtype=float)
    t2s, t4s = [], []
    for i in range(signal.n_cycles):
        t1, t3, t1_next = signal.cycle_bounds(i)
        t2_est, t4_est = _symport_estimates(events, active_at_start, t1, t3,
                                            t1_next)
        if t2_est == NO_CROSSING:
            t2, t4 = t3, t3  # illumination never triggered symport: type (b)
        else:
            t2, t4 = clip_cycle_times(t2_est, t4_est, t1, t3, t1_next)
        t2s.append(t2)
        t4s.append(t4)
    return schedule_from_times(signal, t2s, t4s)


def schedule_final_time(signal: LightSignal, crossings,
                        active_at_start: bool) -> float:
    """The time from which no later crossing can change the schedule.

    `crossings` are those found so far, in the form
    `schedule_from_crossings` takes; the schedule is final at any time t
    past them with t >= the returned time. Every cycle before the last
    one is bounded by the next cycle's t1, so only the last cycle can
    still move. It is final once a downward crossing after its t2 is
    known (-inf), or from its t3 on if it has no t2 (type b); with a t2
    and no such crossing yet, more crossings are needed (inf). A signal
    without cycles is final at once.
    """
    if not signal.intervals:
        return -math.inf
    t1, t3, t1_next = signal.cycle_bounds(signal.n_cycles - 1)
    t2_est, t4_est = _symport_estimates(crossings, active_at_start, t1, t3,
                                        t1_next)
    if t2_est == NO_CROSSING:
        return t3
    return -math.inf if t4_est != NO_CROSSING else math.inf
