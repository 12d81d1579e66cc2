# analytic.py
"""
Analytical solvers for the single-vesicle transport ODEs.

Two modes share one phase-by-phase engine:

  * exact  -- Lambert-W substrate law plus a variation-of-constants proton
              law whose integral is evaluated by a batched 7/15-point
              Gauss-Kronrod rule;
  * closed -- linearized release flux, giving piecewise-linear substrate
              and a pure exponential proton relaxation per phase.

The engine advances a population of vesicles on one sample grid
(`run_analytic_batch`). It takes the population as lane arrays
(`model.VesicleLanes`) and its rates as one `DerivedRates` of arrays,
and its state is one array element per vesicle. Its cycle bounds are
per lane too: t1 and t3 of each cycle, the next cycle's t1 and the
horizon, from one shared light signal or one signal per lane with a
common cycle count. The light of each phase is shared: P2 and P3 are
lit. Each phase is one batched segment with per-vesicle end times, and
vesicles whose segment is empty sit it out. An ensemble experiment is
one population, a fig6 sweep's points of one kinetics are another, and
`run_analytic` is the population of one lane. Every element is computed
on its own, so a vesicle's row is the same bit for bit whatever else is
in the population.

Within one cycle phase the proton ODE is C' = -a*C + b' with

    a  = j_l_a + j_p_a * 1{light}
    b  = j_l_b + j_p_b * 1{light}
    b' = b + h,   h = -(gamma_sym_h / v_in) * 1{symport active}

and j_l_a = gamma_l*(1/v_in + 1/v_out), j_p_a = gamma_p/(v_out*c_h_out0),
j_l_b = gamma_l*n_h/(v_in*v_out), j_p_b = j_p_a*n_h/v_in
(`phase_coefficients` returns (a, b, h) as floats or per-vesicle arrays).
A fast mass-action buffer slows the free concentration by S(C) = 1 +
k_a*B0/(C + k_a)^2, giving C' = (b' - a*C)/S(C). With constant light and
a saturated drain this law separates; `schedule.buffered_relaxation_time`
is its solution t(C). Each segment's end state comes from inverting t(C)
(`buffered_log_ratio`), and its samples follow a single exponential
whose rate is pinned to pass through both end states: the engine divides
that segment's a, b and h by beta = a*dt / ln((C_start - s)/(C_end - s)),
s = b'/a, which keeps s and scales the rate. Exact mode uses the same
pinned a, b and h in its drain quadrature, one call for all drained
vesicles of a segment. The substrate rate is never attenuated.

Note the sign of j_l_b: it must be positive for the relaxation target
b/a to reproduce the pump/leak equilibrium and for the phase solution to
satisfy its own boundary condition C(t_sec) = C_start.

Symport start/end times are t(C_switch) from the separable buffered law
(the Michaelis-Menten drain of the exact law does not separate), clipped
into the cycle; this is done identically in both modes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw as _lambertw

from . import buffering
from .model import (DerivedRates, Environment, KineticConstants, ModelError,
                    VesicleLanes, VesicleSpec, derive_rates)
from .schedule import (LightSignal, _lanes, _shaped, buffered_relaxation_time,
                       clip_cycle_times, predict_buffered_crossing,
                       schedule_from_times)
from .trajectory import Event, Trajectory, sample_grid

# Substrate level (fraction of K_M) below which the release module is
# reported as depleted; the Michaelis-Menten flux there is ~1% of maximum.
DEPLETION_FRACTION_OF_KM = 1e-2

_EXP_SAFE = 700.0  # exp() overflow bound for float64
# C + k_a (mol/m^3) below which the buffered law counts as stalled
_STALL_CONC = 1e-150

# 15-point Kronrod rule and its embedded 7-point Gauss rule on [-1, 1]
# (Piessens et al., QUADPACK, 1983, routine qk15): the non-negative nodes
# in descending order, their Kronrod weights, and the Gauss weights of
# the nodes 2, 4, 6 and 8 of that list.
_XGK = (0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000)
_WGK = (0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082,
       0.279705391489276667901467771423780,
       0.381830050505118944950369775488975,
       0.417959183673469387755102040816327)
_GK_NODES = np.array([-x for x in _XGK] + list(_XGK[-2::-1]))
_K15_WEIGHTS = np.array(_WGK + _WGK[-2::-1])
_G7_HALF = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3])
_G7_WEIGHTS = np.array(_G7_HALF + _G7_HALF[-2::-1])
# Bisections allowed per sample interval before QuadratureError
_MAX_SUBDIVISIONS = 200


class QuadratureError(RuntimeError):
    """The Gauss-Kronrod rule missed tolerance on a sample interval.

    Raised when an interval's |K15 - G7| error estimate still exceeds
    max(1e-4*scale*d, 1e-8*|value|) once its bisection budget is spent.

    Attributes:
        estimate: the best value achieved before giving up
        abserr: the reported absolute error of that estimate
    """

    def __init__(self, msg: str, estimate: float, abserr: float):
        super().__init__(msg)
        self.estimate = estimate
        self.abserr = abserr


def lambert_w0_exp(y):
    """W0(exp(y)) evaluated stably for any y, including y >> 700.

    For large y the defining relation becomes w + log(w) = y, solved by a
    Newton iteration seeded with the asymptotic y - log(y).
    """
    arr = np.asarray(y, dtype=float)
    out = np.empty_like(arr)
    small = arr <= _EXP_SAFE
    if np.any(small):
        out[small] = np.real(_lambertw(np.exp(arr[small])))
    big = ~small
    if np.any(big):
        yb = arr[big]
        w = yb - np.log(yb)
        for _ in range(4):
            w -= (w + np.log(w) - yb) / (1.0 + 1.0 / w)
        out[big] = w
    if np.isscalar(y) or arr.ndim == 0:
        return float(out)
    return out


def phase_coefficients(v_in, leak_rate, pump_rate, n_h, symport_h,
                       env: Environment, light: bool, drain):
    """Proton-ODE coefficients (a, b, h) of one cycle phase; b' = b + h.

    The phase's proton law is C' = -a*C + b' unbuffered, and
    C' = (b' - a*C)/S(C) with the buffer. Takes floats or arrays of one
    shape, one element per vesicle: its volume `v_in`, `leak_rate`,
    `pump_rate`, free-H+ inventory `n_h` and symport H+ rate `symport_h`
    (the `DerivedRates` fields of those names). `drain` may be a bool
    array of that shape too; `light` is shared.

    Args:
        light: illumination state of the phase
        drain: whether the symport H+ drain acts (threshold indicator on
            and substrate still available)
    """
    v_out = env.v_out
    # no pumps give j_p_a = 0 either way
    j_p_a = (pump_rate / (v_out * env.c_h_out0) if env.c_h_out0 > 0.0
             else 0.0 * pump_rate)
    a = leak_rate * (1.0 / v_in + 1.0 / v_out) + (j_p_a if light else 0.0)
    b = (leak_rate * n_h / (v_in * v_out)
         + (j_p_a * n_h / v_in if light else 0.0))
    # -symport_h/v_in, or a signed zero that adds nothing to b
    h = -symport_h / v_in * drain
    return a, b, h


def closed_form_proton(c_start, a, s, dt):
    """Exponential relaxation C = s + (C_start - s) * exp(-a*dt) towards
    the target s = b'/a."""
    return s + (c_start - s) * np.exp(-a * np.asarray(dt, dtype=float))


def buffered_log_ratio(c_start, a, b_prime, dt, buffer_total, k_a):
    """ln((C - s)/(c_start - s)) reached after dt under the buffered law.

    Inverts `buffered_relaxation_time` (whose a, b' and buffer arguments
    come in the same order) by a bracketed Newton iteration on the log
    ratio y. The buffer only slows the unbuffered relaxation, so the root
    lies in [-a*dt, 0], i.e. between c_start and the relaxation target
    s = b'/a. The iteration solves ln(t(y)/dt) = 0: t(y) grows like
    exp(-2y) where the buffer dominates and like -y where it does not,
    and the logarithm keeps Newton steps from stalling on the steep side
    in either regime.
    Returns 0.0 where c_start sits at s to rounding and cannot move, and
    where dt = 0.

    Takes floats or arrays of one shape. Each element iterates on its
    own bracket and leaves the loop once it converges, so it takes
    exactly the steps it would take alone.
    """
    shape, (c_start, a, b_prime, dt, b0, k_a) = _lanes(
        c_start, a, b_prime, dt, buffer_total, k_a)
    m = b_prime / a + k_a
    u0 = c_start + k_a
    out = np.zeros_like(u0)
    pos = np.flatnonzero((u0 != m) & (dt > 0.0))
    c_start, a, b_prime, dt, b0, k_a, m, u0 = (
        v[pos] for v in (c_start, a, b_prime, dt, b0, k_a, m, u0))
    k = k_a * b0
    lo, hi = -a * dt, np.zeros_like(dt)
    # a*dt = int_y^0 S(C(y')) dy': start from S frozen at c_start, then
    # refine by the trapezoid and Simpson rules over that interval
    s0 = 1.0 + k / (u0 * u0)
    y = -a * dt / s0
    # each refinement needs C + k_a > 0 at its nodes; where a node stalls
    # the guess stays put (u = 1 only keeps the masked quotient finite)
    u = m + (u0 - m) * np.exp(y)
    ok = u > _STALL_CONC
    u = np.where(ok, u, 1.0)
    y = np.where(ok, -2.0 * a * dt / (s0 + 1.0 + k / (u * u)), y)
    u = m + (u0 - m) * np.exp(y)
    u_mid = m + (u0 - m) * np.exp(0.5 * y)
    ok &= (u > _STALL_CONC) & (u_mid > _STALL_CONC)
    u, u_mid = np.where(ok, u, 1.0), np.where(ok, u_mid, 1.0)
    y = np.where(ok, -6.0 * a * dt / (s0 + 4.0 * (1.0 + k / (u_mid * u_mid))
                                      + 1.0 + k / (u * u)), y)
    for _ in range(200):
        if not pos.size:
            break
        y = np.where((lo < y) & (y < hi), y, 0.5 * (lo + hi))
        u = m + (u0 - m) * np.exp(y)  # C + k_a
        # at or past C = -k_a, where S(C) and the elapsed time diverge
        # (a target s < -k_a): more than dt has passed
        stalled = u <= _STALL_CONC
        lo = np.where(stalled, y, lo)
        go = np.flatnonzero(~stalled) if stalled.any() else slice(None)
        t = buffered_relaxation_time(c_start[go], y[go], a[go], b_prime[go],
                                     b0[go], k_a[go])
        g = np.log(t / dt[go])
        late = g > 0.0
        lo[go] = np.where(late, y[go], lo[go])
        hi[go] = np.where(late, hi[go], y[go])
        # d ln(t)/dy = -S(C) / (a*t)
        y[go] = y[go] + g * a[go] * t / (1.0 + k[go] / (u[go] * u[go]))
        # quadratic convergence: the last step left a relative time
        # error ~g^2
        done = np.zeros(pos.size, dtype=bool)
        done[go] = np.abs(g) <= 1e-7
        if done.any():
            out[pos[done]] = y[done]
            keep = ~done
            (pos, c_start, a, b_prime, dt, b0, k_a, k, m, u0, lo, hi, y) = (
                v[keep] for v in (pos, c_start, a, b_prime, dt, b0, k_a, k,
                                  m, u0, lo, hi, y))
    out[pos] = y
    return _shaped(out, shape)


def closed_form_substrate(c_s_start, ramp_rate, dt, drain):
    """Linearized substrate law: constant, or a ramp clamped at zero.

    ramp_rate is the saturated release rate gamma_s/v_in (mol/m^3/s).
    Takes floats or arrays that broadcast, `drain` included.
    """
    ramp = np.maximum(c_s_start - ramp_rate * np.asarray(dt, dtype=float),
                      0.0)
    return np.where(drain, ramp, c_s_start)


def _exponent(c_s_start, gamma_s, v_in, k_m: float):
    """(y0, decay) per drained lane: the exact substrate law is
    K_M * W0(exp(y0 - decay*t)). y0 = ln(C0/K_M) + C0/K_M is formed from
    Python floats, as `math.log` forms it (numpy's SIMD log may differ)."""
    y0 = np.array([math.log(c / k_m) + c / k_m for c in c_s_start.tolist()])
    return y0, gamma_s / (v_in * k_m)


def exact_substrate(c_s_start, gamma_s, v_in, k_m: float, offsets):
    """Michaelis-Menten substrate law C_S = K_M * W0(f(dt)) under drain.

    f(dt) = (C0/K_M) * exp((C0 - (gamma_s/v_in)*dt) / K_M) is evaluated in
    the log domain so large C0/K_M ratios cannot overflow. Takes drained
    lanes (C0 > 0, saturated substrate rate gamma_s > 0 mol/s) as arrays
    of shape (n,), and one row of offsets per lane, shape (n, m).
    """
    y0, decay = _exponent(c_s_start, gamma_s, v_in, k_m)
    return k_m * lambert_w0_exp(y0[:, None] - decay[:, None]
                                * np.asarray(offsets, dtype=float))


def exact_depletion_offset(c_s_start, gamma_s, v_in, k_m: float,
                           threshold: float) -> np.ndarray:
    """Time offset at which the exact substrate law reaches `threshold`,
    per drained lane that starts above it."""
    w = threshold / k_m
    y0 = _exponent(c_s_start, gamma_s, v_in, k_m)[0]
    return (y0 - w - math.log(w)) * v_in * k_m / gamma_s


def exact_proton_series(c_start, a, b, drain, c_s_start, gamma_s, v_in,
                        k_m: float, offsets) -> np.ndarray:
    """Exact proton law of drained lanes at offsets from the phase start.

    The phase law is C' = -a*C + b - drain*sat(t), where drain is the
    symport H+ drain rate gamma_sym_h/v_in (mol/m^3/s) and sat =
    C_S/(C_S + K_M) follows `exact_substrate`. The integral is
    accumulated between consecutive offsets with the decaying
    exponential folded into the integrand, which keeps long phases
    stable:

        C(t+d) = C(t)*e^(-a d) + int_0^d g(u) e^(-a (d-u)) du,
        g(u) = b - drain * W(f(u)) / (W(f(u)) + 1).

    Takes arrays with one element per lane, and one non-decreasing row
    of offsets per lane. All intervals go through one `_gauss_kronrod`
    call; each lane is then chained in Python floats. A zero-length
    interval adds nothing, so a row may repeat its last offset. Raises
    QuadratureError for the first interval, in lane-major order, that
    misses tolerance.
    """
    offsets = np.asarray(offsets, dtype=float)
    y0, decay = _exponent(c_s_start, gamma_s, v_in, k_m)
    t_prev = np.pad(offsets[:, :-1], ((0, 0), (1, 0)))
    d = offsets - t_prev
    lane, col = np.nonzero(d > 0.0)
    t_k, d_k = offsets[lane, col], d[lane, col]
    # The exponential weight kills contributions older than ~45/a; the
    # neglected remainder is below 1e-19 relative.
    reach = np.divide(45.0, a, out=np.full_like(a, math.inf), where=a > 0.0)
    lo = np.maximum(t_prev[lane, col], t_k - reach[lane])

    def integrand(u, rows):
        m = lane[rows, None]
        w = lambert_w0_exp(y0[m] - decay[m] * u)
        return ((b[m] - drain[m] * w / (w + 1.0))
                * np.exp(-a[m] * (t_k[rows, None] - u)))

    scale = (np.abs(b) + drain)[lane]
    integral = np.zeros_like(offsets)
    integral[lane, col], abserr = _gauss_kronrod(
        integrand, lo, t_k, 1e-12 * scale * d_k + 1e-300, 1e-8)

    out = np.zeros_like(offsets)  # c_k = c_(k-1)*e^(-a d_k) + I_k
    for m, (c, growth, vals) in enumerate(zip(
            c_start.tolist(), np.exp(-a[:, None] * d).tolist(),
            integral.tolist())):
        out[m] = [c := c * g + v for g, v in zip(growth, vals)]

    failed = np.flatnonzero(abserr > np.maximum(
        1e-4 * scale * d_k, 1e-8 * np.abs(integral[lane, col])) + 1e-300)
    if failed.size:
        k = failed[0]
        raise QuadratureError(
            f"phase integral did not converge (abserr={abserr[k]:g})",
            estimate=float(out[lane[k], col[k]]), abserr=float(abserr[k]))
    return out


def _gauss_kronrod(integrand, lo, hi, epsabs, epsrel):
    """Integrals over every interval [lo_i, hi_i] and their error estimates.

    The 15 Kronrod nodes are mapped onto all intervals at once, and
    `integrand(u, rows)` is called with u of shape (m, 15) and the index
    of the interval each row belongs to. A rule's error estimate is
    |K15 - G7|. In every interval whose summed estimate exceeds
    max(epsabs_i, epsrel*|I_i|), each piece whose estimate exceeds its
    length's share of that tolerance is bisected, all in one batched rule
    per round. An interval stops refining when the next round would pass
    `_MAX_SUBDIVISIONS` bisections. Returns the integrals and the summed
    estimates.
    """
    n = lo.size
    owner, p_lo, p_hi = np.arange(n), lo, hi
    p_val, p_err = val, err = _kronrod_rule(integrand, lo, hi, owner)
    spent = np.zeros(n, dtype=int)
    while True:
        tol = np.maximum(epsabs, epsrel * np.abs(val))
        split = ((err > tol)[owner]
                 & (p_err * (hi - lo)[owner] > tol[owner] * (p_hi - p_lo)))
        wanted = np.bincount(owner[split], minlength=n)
        split &= (spent + wanted <= _MAX_SUBDIVISIONS)[owner]
        if not split.any():
            return val, err
        spent += np.bincount(owner[split], minlength=n)
        mid = 0.5 * (p_lo[split] + p_hi[split])
        halves = np.concatenate((owner[split], owner[split]))
        h_lo = np.concatenate((p_lo[split], mid))
        h_hi = np.concatenate((mid, p_hi[split]))
        h_val, h_err = _kronrod_rule(integrand, h_lo, h_hi, halves)
        keep = ~split
        owner = np.concatenate((owner[keep], halves))
        p_lo = np.concatenate((p_lo[keep], h_lo))
        p_hi = np.concatenate((p_hi[keep], h_hi))
        p_val = np.concatenate((p_val[keep], h_val))
        p_err = np.concatenate((p_err[keep], h_err))
        val = np.bincount(owner, p_val, minlength=n)
        err = np.bincount(owner, p_err, minlength=n)


def _kronrod_rule(integrand, lo, hi, rows):
    """One 15-point Kronrod rule per interval, and its |K15 - G7|.

    Each row is summed on its own in a fixed order, so its bits depend
    neither on the other rows nor on the BLAS build, as a matrix
    product's would."""
    half = 0.5 * (hi - lo)
    u = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    f = integrand(u, rows)
    k15 = (f * _K15_WEIGHTS).sum(axis=1) * half
    g7 = (f * _G7_WEIGHTS).sum(axis=1) * half
    return k15, np.abs(k15 - g7)


_DEPLETION_INFO = {"closed": "closed-form ramp reached 0",
                   "exact": "fell below reporting threshold"}


@dataclass
class BatchTrajectory:
    """Sampled series and symport times of a batch of vesicles.

    Row m belongs to lane m of the population.

    Attributes:
        t: the shared sample grid (n_t,)
        c_h_in/c_s_in: (n, n_t) intravesicular concentrations
        t2/t4: (n, n_cycles) clipped symport start and end per cycle
        depletion_time: (n,) first depletion event (NaN: none)
        rates: the population's rates, one element per vesicle
        v_in: (n,) intravesicular volumes; v_out: the shared one
    """

    t: np.ndarray
    c_h_in: np.ndarray
    c_s_in: np.ndarray
    t2: np.ndarray
    t4: np.ndarray
    depletion_time: np.ndarray
    rates: DerivedRates
    v_in: np.ndarray
    v_out: float

    @property
    def c_h_out(self) -> np.ndarray:
        """Extravesicular free H+ from free-H+ conservation."""
        n_h = self.rates.total_free_protons
        return (n_h[:, None] - self.c_h_in * self.v_in[:, None]) / self.v_out

    @property
    def c_s_out(self) -> np.ndarray:
        """Extravesicular substrate from substrate conservation."""
        n_s = self.rates.total_substrate
        return (n_s[:, None] - self.c_s_in * self.v_in[:, None]) / self.v_out

    def symport_span(self) -> tuple[np.ndarray, np.ndarray]:
        """First symport start (inf: none) and last symport end (NaN:
        none) of each vesicle, over cycles with t4 > t2."""
        active = self.t4 > self.t2
        # boundaries never decrease from cycle to cycle, so the first
        # start is the smallest and the last end the largest
        start = np.min(np.where(active, self.t2, math.inf), axis=1,
                       initial=math.inf)
        end = np.max(np.where(active, self.t4, -math.inf), axis=1,
                     initial=-math.inf)
        return start, np.where(active.any(axis=1), end, math.nan)


class _BatchEngine:
    """Chains the cycle phases of a batch of vesicles, exact or closed mode.

    Every per-vesicle input is a plain array with one element per
    vesicle: the volumes and the population's `DerivedRates` (leak, pump
    and symport rates, free-H+ inventory and symport threshold). The
    state holds one element per vesicle too: time, C_H_in, C_S_in, the
    next unsampled grid point and the first depletion time. Every phase
    is one batched segment with per-vesicle end times; the vesicles whose
    own segment is empty sit it out.
    """

    def __init__(self, v_in: np.ndarray, rates: DerivedRates, k_m: float,
                 env: Environment, mode: str, grid: np.ndarray):
        self.v_in, self.k_m, self.env = v_in, k_m, env
        self.mode, self.grid = mode, grid
        self.leak, self.pump = rates.leak_rate, rates.pump_rate
        self.n_h, self.switch = rates.total_free_protons, rates.switch_conc
        self.symport_h = rates.symport_rate_proton
        self.gamma_s = rates.symport_rate_substrate
        self.ramp = self.gamma_s / v_in
        n = v_in.size
        self.t = np.zeros(n)
        self.c_h = np.full(n, env.c_h_in0)
        self.c_s = np.full(n, env.c_s_in0)
        self.cursor = np.zeros(n, dtype=np.intp)
        self.depletion = np.full(n, math.nan)
        self.depletion_threshold = DEPLETION_FRACTION_OF_KM * k_m
        self.c_h_in = np.full((n, grid.size), math.nan)
        self.c_s_in = np.full((n, grid.size), math.nan)

    # -- phase-level helpers -------------------------------------------------

    def coeffs(self, rows, light: bool, drain):
        """(a, b, h) of vesicles `rows`, not yet pinned to a segment."""
        return phase_coefficients(
            self.v_in[rows], self.leak[rows], self.pump[rows],
            self.n_h[rows], self.symport_h[rows], self.env, light, drain)

    def relax(self, c_start, a, b, h, dt):
        """Pin each segment's single-exponential rate to the buffered law.

        Returns (a, b, h) divided by a per-vesicle beta so that the
        closed-form relaxation from c_start passes through the buffered
        law's state after dt, and that state. Unbuffered, the
        coefficients are already exact and are returned unchanged.
        """
        b0, k_a = self.env.buffer_total, self.env.k_a
        s = (b + h) / a
        if b0 <= 0.0:
            return a, b, h, closed_form_proton(c_start, a, s, dt)
        y = buffered_log_ratio(c_start, a, b + h, dt, b0, k_a)
        moved = y < 0.0
        # where nothing resolvably moves: the local slowdown at c_start
        beta = buffering.buffering_slowdown(c_start, b0, k_a)
        np.divide(-a * dt, y, out=beta, where=moved)  # a/beta = -y/dt
        c_end = np.where(moved, s + (c_start - s) * np.exp(y), c_start)
        return a / beta, b / beta, h / beta, c_end

    def _record_depletion(self, rows, times) -> None:
        first = np.isnan(self.depletion[rows])
        self.depletion[rows[first]] = times[first]

    def segment(self, t_end, light: bool, indicator: bool) -> None:
        """Advance to t_end, one per vesicle, under constant light and
        symport indicator.

        Only vesicles more than 1e-15 s short of t_end move. In closed
        mode a drained segment splits once, where the substrate ramp hits
        zero; in exact mode the drain fades smoothly instead and only the
        reporting threshold generates an event.
        """
        rows = np.flatnonzero(self.t < t_end - 1e-15)
        if not rows.size:
            self.t = np.maximum(self.t, t_end)
            return
        end = t_end[rows]
        drain = np.zeros(rows.size, dtype=bool)
        if indicator:
            drain = (self.c_s[rows] > 0.0) & (self.gamma_s[rows] > 0.0)
        if indicator and self.mode == "closed":
            t0 = self.t[rows]
            d = rows[drain]
            t_dep = np.full(rows.size, math.inf)
            t_dep[drain] = t0[drain] + self.v_in[d] * self.c_s[d] \
                / self.gamma_s[d]
            gone = drain & (t_dep <= t0 + 1e-15)  # residual cargo underflow
            self.c_s[rows[gone]] = 0.0
            self._record_depletion(rows[gone], t0[gone])
            drain &= ~gone
            split = drain & (t_dep < end)
            seg_end = np.where(split, t_dep, end)
            self._emit(rows, seg_end, light, drain)
            self.c_s[rows[split]] = 0.0
            self._record_depletion(rows[split], seg_end[split])
            rest = split & (seg_end < end - 1e-15)
            self._emit(rows[rest], end[rest], light,
                       np.zeros(np.count_nonzero(rest), dtype=bool))
        else:
            self._emit(rows, end, light, drain)
        self.t = np.maximum(self.t, t_end)

    def _emit(self, rows, seg_end, light: bool, drain) -> None:
        """Evaluate one constant-coefficient segment per vesicle in `rows`
        and sample it on the grid points (t, seg_end] it covers."""
        if not rows.size:
            return
        t0, c_h0, c_s0 = self.t[rows], self.c_h[rows], self.c_s[rows]
        first = self.cursor[rows]
        last = np.maximum(first, np.searchsorted(self.grid, seg_end + 1e-12,
                                                 side="right"))
        # row r samples grid points first[r]..last[r]-1: a block with one
        # row per vesicle, padded past last[r] with points it leaves out
        col = first[:, None] + np.arange(np.max(last - first, initial=0))
        taken = col < last[:, None]
        offsets = self.grid[np.minimum(col, self.grid.size - 1)] \
            - t0[:, None]
        end_offset = seg_end - t0
        ramp = self.ramp[rows]
        a, b, h, c_h_end = self.relax(c_h0, *self.coeffs(rows, light, drain),
                                      end_offset)
        s = (b + h) / a
        column = np.s_[:, None]
        c_h_pts = closed_form_proton(c_h0[column], a[column], s[column],
                                     offsets)
        c_s_pts = closed_form_substrate(c_s0[column], ramp[column], offsets,
                                        drain[column])
        c_s_end = closed_form_substrate(c_s0, ramp, end_offset, drain)
        if self.mode == "exact":
            # undrained, the exact proton law is the closed form; drained,
            # one quadrature over every drained row: its sample offsets,
            # then its end offset, which also fills the padding
            c_h_end = closed_form_proton(c_h0, a, s, end_offset)
            d = np.flatnonzero(drain)
            if d.size:
                end = end_offset[d, None]
                all_off = np.concatenate(
                    (np.where(taken[d], offsets[d], end), end), axis=1)
                lanes = (c_s0[d], self.gamma_s[rows[d]], self.v_in[rows[d]],
                         self.k_m)
                c_h_all = exact_proton_series(c_h0[d], a[d], b[d], -h[d],
                                              *lanes, all_off)
                c_s_all = exact_substrate(*lanes, all_off)
                c_h_pts[d], c_h_end[d] = c_h_all[:, :-1], c_h_all[:, -1]
                c_s_pts[d], c_s_end[d] = c_s_all[:, :-1], c_s_all[:, -1]
                d_off = exact_depletion_offset(*lanes,
                                               self.depletion_threshold)
                hit = ((c_s0[d] > self.depletion_threshold)
                       & (d_off <= end_offset[d]))
                self._record_depletion(rows[d[hit]], t0[d[hit]] + d_off[hit])
        at = (rows[:, None] * self.grid.size + col)[taken]
        self.c_h_in.ravel()[at] = c_h_pts[taken]
        self.c_s_in.ravel()[at] = c_s_pts[taken]
        self.t[rows] = seg_end
        self.c_h[rows], self.c_s[rows] = c_h_end, c_s_end
        self.cursor[rows] = last

    # -- symport time prediction ---------------------------------------------

    def symport_start(self, t_from: np.ndarray) -> np.ndarray:
        """Upward threshold crossings under lit, symport-free dynamics,
        from each vesicle's own t_from."""
        out = np.array(t_from, dtype=float)
        rows = np.flatnonzero(self.c_h < self.switch)
        a, b, h = self.coeffs(rows, light=True, drain=False)
        out[rows] = predict_buffered_crossing(
            self.c_h[rows], self.switch[rows], a, b + h, out[rows],
            self.env.buffer_total, self.env.k_a)
        return out

    def symport_end(self, t_from: np.ndarray) -> np.ndarray:
        """Downward crossings in the dark from each vesicle's own t_from,
        stepping over closed-form substrate depletion where it happens
        first."""
        out = np.array(t_from, dtype=float)
        c_h, t0 = self.c_h.copy(), out.copy()
        b0, k_a = self.env.buffer_total, self.env.k_a
        above = self.c_h >= self.switch
        d = np.flatnonzero(above & (self.c_s > 0.0) & (self.gamma_s > 0.0))
        a, b, h = self.coeffs(d, light=False, drain=True)
        t_start = t0[d]
        t_dep = t_start + self.v_in[d] * self.c_s[d] / self.gamma_s[d]
        tc = predict_buffered_crossing(c_h[d], self.switch[d], a, b + h,
                                       t_start, b0, k_a)
        first = tc <= t_dep
        out[d[first]] = tc[first]
        late = ~first
        c_h[d[late]] = self.relax(c_h[d[late]], a[late], b[late], h[late],
                                  (t_dep - t_start)[late])[-1]
        t0[d[late]] = t_dep[late]
        above[d[first]] = False
        r = np.flatnonzero(above)  # crossing in the undrained dark
        a, b, h = self.coeffs(r, light=False, drain=False)
        out[r] = predict_buffered_crossing(c_h[r], self.switch[r], a, b + h,
                                           t0[r], b0, k_a)
        return out


def _lane_bounds(signal, n: int):
    """t1, t3 and the next t1 of each lane's cycles, (n, n_cycles), and
    each lane's horizon, from one `LightSignal` or n of one cycle count."""
    signals = [signal] if isinstance(signal, LightSignal) else list(signal)
    if len(signals) != (1 if isinstance(signal, LightSignal) else n):
        raise ModelError(f"{len(signals)} light signals for {n} lanes")
    for m, sig in enumerate(signals):
        if sig.n_cycles != signals[0].n_cycles:
            raise ModelError(f"lane {m}'s light signal has {sig.n_cycles} "
                             f"cycles, lane 0's has {signals[0].n_cycles}")
    # the horizon closes each lane's rows as the t1 after its last cycle
    edges = np.array([sig.intervals + ((sig.horizon, sig.horizon),)
                      for sig in signals])
    edges = np.broadcast_to(edges, (n,) + edges.shape[1:])
    return edges[:, :-1, 0], edges[:, :-1, 1], edges[:, 1:, 0], edges[:, -1, 0]


def run_analytic_batch(vesicles: VesicleLanes, kin: KineticConstants,
                       env: Environment, signal, mode: str,
                       sample_times) -> BatchTrajectory:
    """Phase-by-phase analytic trajectories of a population.

    Each phase advances the whole population at once, with per-vesicle
    cycle bounds, symport times, end states and depletion splits. The
    light of a phase and the sample grid are shared. Row m equals the
    batch-of-one run of lane m on its own signal bit for bit.

    Args:
        vesicles: the population, one lane (and one row) per vesicle
        signal: one `LightSignal` for all vesicles, or a sequence of one
            per vesicle, all with the same number of cycles
        mode: 'exact' or 'closed'
        sample_times: non-decreasing sample times in [0, horizon] of
            every vesicle
    """
    if mode not in ("exact", "closed"):
        raise ModelError(f"mode must be 'exact' or 'closed', got {mode!r}")
    t1s, t3s, t1_nexts, horizon = _lane_bounds(signal, len(vesicles))
    grid = np.asarray(sample_times, dtype=float)
    if grid.ndim != 1:
        raise ModelError(f"sample times must be one-dimensional, got "
                         f"shape {grid.shape}")
    m = int(horizon.argmin())
    bad = ~((grid >= 0.0) & (grid <= horizon[m]))  # also NaN
    bad[1:] |= grid[1:] < grid[:-1]
    if bad.any():
        raise ModelError(f"sample time {grid[bad.argmax()].item()!r} is not "
                         f"non-decreasing within [0, {horizon[m].item()!r}], "
                         f"the horizon of lane {m}")
    rates = derive_rates(vesicles, kin, env)
    eng = _BatchEngine(vesicles.v_in, rates, kin.k_m, env, mode, grid)
    if grid.size and grid[0] == 0.0:
        eng.c_h_in[:, 0], eng.c_s_in[:, 0] = env.c_h_in0, env.c_s_in0
        eng.cursor[:] = 1
    if np.any(eng.c_h >= eng.switch):
        warnings.warn("initial H+ concentration already exceeds the symport "
                      "threshold; the opening leakage phase treats the "
                      "release module as inactive", stacklevel=2)

    t2 = np.empty(t1s.shape)
    t4 = np.empty_like(t2)
    for i, (t1, t3, t1_next) in enumerate(zip(t1s.T, t3s.T, t1_nexts.T)):
        eng.segment(t1, light=False, indicator=False)  # P1: dark relaxation
        t2_est = eng.symport_start(t1)
        # P2: pumping below threshold, up to t2 as clip_cycle_times clips it
        eng.segment(np.maximum(np.minimum(t3, t2_est), t1), light=True,
                    indicator=False)
        eng.segment(t3, light=True, indicator=True)  # P3: pumping + symport
        t4_est = eng.symport_end(t3)
        t2[:, i], t4[:, i] = clip_cycle_times(t2_est, t4_est, t1, t3,
                                              t1_next)
        eng.segment(t4[:, i], light=False, indicator=True)  # P4
    eng.segment(horizon, light=False, indicator=False)  # trailing dark

    return BatchTrajectory(
        t=grid, c_h_in=eng.c_h_in, c_s_in=eng.c_s_in,
        t2=t2, t4=t4, depletion_time=eng.depletion,
        rates=rates, v_in=eng.v_in, v_out=env.v_out)


def run_analytic(spec: VesicleSpec, kin: KineticConstants, env: Environment,
                 signal: LightSignal, mode: str = "closed",
                 sample_times=None) -> Trajectory:
    """Phase-by-phase analytic trajectory of one vesicle.

    The batch-of-one case of `run_analytic_batch`. Each phase's terminal
    state seeds the next; symport start/end times are t(C_switch) of the
    separable buffered law in both modes, clipped into their cycles.
    Segment end states invert that law, and samples follow one
    exponential per segment pinned to both end states.

    Args:
        mode: 'exact' or 'closed'
        sample_times: non-decreasing sample times in [0, horizon];
            None samples every 0.1 s. Other spacings pass
            `trajectory.sample_grid(horizon, interval)`.
    """
    grid = (sample_grid(signal.horizon, 0.1) if sample_times is None
            else np.asarray(sample_times, dtype=float))
    batch = run_analytic_batch(VesicleLanes.of([spec]), kin, env, signal,
                               mode, grid)
    sched = schedule_from_times(signal, batch.t2[0].tolist(),
                                batch.t4[0].tolist())
    t_dep = float(batch.depletion_time[0])
    events = ([] if math.isnan(t_dep)
              else [Event("depletion", t_dep, _DEPLETION_INFO[mode])])
    cycles, phases = sched.annotate(grid)
    return Trajectory(
        t=grid, c_h_in=batch.c_h_in[0], c_h_out=batch.c_h_out[0],
        c_s_in=batch.c_s_in[0], c_s_out=batch.c_s_out[0],
        light=signal.is_on(grid).astype(int),
        cycle=np.asarray(cycles, dtype=int),
        phase=phases, schedule=sched, solver=mode,
        derived=batch.rates.lane(0),
        events=events,
    )
