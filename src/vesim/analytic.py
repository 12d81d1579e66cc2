# analytic.py
"""
Analytical solvers for the single-vesicle transport ODEs.

Two modes share one phase-by-phase engine:

  * exact  -- Lambert-W substrate law plus a variation-of-constants proton
              law whose integral is evaluated by a batched 7/15-point
              Gauss-Kronrod rule;
  * closed -- linearized release flux, giving piecewise-linear substrate
              and a pure exponential proton relaxation per phase.

Within one cycle phase the proton ODE is C' = -a*C + b' with

    a  = j_l_a + j_p_a * 1{light}
    b  = j_l_b + j_p_b * 1{light}
    b' = b - (gamma_sym_h / v_in) * 1{symport active}   (closed form)

and j_l_a = gamma_l*(1/v_in + 1/v_out), j_p_a = gamma_p/(v_out*c_h_out0),
j_l_b = gamma_l*n_h/(v_in*v_out), j_p_b = j_p_a*n_h/v_in. A fast
mass-action buffer slows the free concentration by S(C) = 1 +
k_a*B0/(C + k_a)^2, giving C' = (b' - a*C)/S(C). With constant light and
a saturated drain this law separates; `schedule.buffered_relaxation_time`
is its solution t(C). Each segment's end state comes from inverting t(C)
(`buffered_log_ratio`), and its samples follow a single exponential
whose rate is pinned to pass through both end states: the coefficients
are divided by beta = a*dt / ln((C_start - s)/(C_end - s)). Exact mode
uses the same pinned beta in its drain quadrature. The substrate rate
is never attenuated.

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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import lambertw as _lambertw

from . import buffering
from .model import (DerivedRates, Environment, KineticConstants, ModelError,
                    VesicleSpec, derive_rates)
from .schedule import (CycleRecord, CycleSchedule, LightSignal,
                       buffered_relaxation_time, classify_cycle,
                       clip_cycle_times, predict_buffered_crossing)
from .trajectory import Event, Trajectory, sample_grid

# Substrate level (fraction of K_M) below which the release module is
# reported as depleted; the Michaelis-Menten flux there is ~1% of maximum.
DEPLETION_FRACTION_OF_KM = 1e-2

_BRANCH_POINT = -math.exp(-1.0)
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


class LambertDomainError(ValueError):
    """Argument below -1/e, outside the real principal branch."""


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


def lambert_w0(x):
    """Principal branch of the Lambert W function, w*exp(w) = x.

    Accepts scalars or arrays with x >= -1/e; one Halley step polishes
    the library value so the residual |w*e^w - x| stays within
    1e-12 * max(1, |x|).
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < _BRANCH_POINT):
        bad = arr[arr < _BRANCH_POINT]
        raise LambertDomainError(
            f"lambert_w0 needs x >= -1/e = {_BRANCH_POINT!r}; got {bad!r}")
    w = np.real(_lambertw(arr))
    # Halley refinement; skipped next to the branch point where the
    # correction denominator degenerates and the seed is already best.
    ew = np.exp(w)
    f = w * ew - arr
    denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
    safe = np.abs(w + 1.0) > 1e-6
    w = np.where(safe & (denom != 0.0), w - f / np.where(denom == 0, 1, denom), w)
    if np.isscalar(x) or arr.ndim == 0:
        return float(w)
    return w


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


@dataclass(frozen=True)
class PhaseCoefficients:
    """Proton-ODE coefficients of one cycle phase, buffer-attenuated.

    The j_* fields are the unattenuated building blocks; `a`, `b` and
    `b_prime` assemble them for the phase's light/symport combination and
    divide by the attenuation factor `beta`. With beta = 1 they are the
    coefficients of the buffered law C' = (b' - a*C)/S(C); the analytic
    engine sets beta per segment so that one exponential passes through
    that law's start and end states.
    """

    j_l_a: float
    j_p_a: float
    j_l_b: float
    j_p_b: float
    j_sym_b: float
    beta: float
    light: bool
    drain: bool

    @property
    def a(self) -> float:
        return (self.j_l_a + (self.j_p_a if self.light else 0.0)) / self.beta

    @property
    def b(self) -> float:
        return (self.j_l_b + (self.j_p_b if self.light else 0.0)) / self.beta

    @property
    def b_prime(self) -> float:
        return self.b + (self.j_sym_b / self.beta if self.drain else 0.0)

    @property
    def s_inf(self) -> float:
        """Relaxation target b'/a of the phase."""
        return self.b_prime / self.a


def phase_coefficients(spec: VesicleSpec, rates: DerivedRates,
                       env: Environment, light: bool, drain: bool,
                       beta: float = 1.0) -> PhaseCoefficients:
    """Assemble the proton coefficients for one phase.

    Args:
        light: illumination state of the phase
        drain: whether the symport H+ drain acts (threshold indicator on
            and substrate still available)
        beta: buffer attenuation factor dividing every coefficient
    """
    v_in, v_out = spec.v_in, env.v_out
    j_l_a = rates.leak_rate * (1.0 / v_in + 1.0 / v_out)
    if rates.pump_rate > 0.0 and env.c_h_out0 > 0.0:
        j_p_a = rates.pump_rate / (v_out * env.c_h_out0)
    else:
        j_p_a = 0.0
    n_h = rates.total_free_protons
    return PhaseCoefficients(
        j_l_a=j_l_a,
        j_p_a=j_p_a,
        j_l_b=rates.leak_rate * n_h / (v_in * v_out),
        j_p_b=j_p_a * n_h / v_in,
        j_sym_b=-(spec.flux_sign * rates.symport_rate_proton) / v_in,
        beta=beta,
        light=light,
        drain=drain,
    )


def closed_form_proton(c_start: float, coeffs: PhaseCoefficients, dt):
    """Exponential relaxation C = b'/a + (C_start - b'/a) * exp(-a*dt)."""
    s = coeffs.s_inf
    return s + (c_start - s) * np.exp(-coeffs.a * np.asarray(dt, dtype=float))


def buffered_log_ratio(c_start: float, coeffs: PhaseCoefficients, dt: float,
                       buffer_total: float, k_a: float) -> float:
    """ln((C - s)/(c_start - s)) reached after dt under the buffered law.

    Inverts `buffered_relaxation_time` for the unattenuated coefficients
    (beta = 1) by a bracketed Newton iteration on the log ratio y. The
    buffer only slows the unbuffered relaxation, so the root lies in
    [-a*dt, 0], i.e. between c_start and the relaxation target s. The
    iteration solves ln(t(y)/dt) = 0: t(y) grows like exp(-2y) where the
    buffer dominates and like -y where it does not, and the logarithm
    keeps Newton steps from stalling on the steep side in either regime.
    Returns 0.0 when c_start sits at s to rounding and cannot move.
    """
    a, b_prime = coeffs.a, coeffs.b_prime
    m = b_prime / a + k_a
    u0 = c_start + k_a
    if u0 == m:
        return 0.0
    k = k_a * buffer_total
    lo, hi = -a * dt, 0.0
    # a*dt = int_y^0 S(C(y')) dy': start from S frozen at c_start, then
    # refine by the trapezoid and Simpson rules over that interval
    s0 = 1.0 + k / (u0 * u0)
    y = -a * dt / s0
    u = m + (u0 - m) * math.exp(y)
    if u > _STALL_CONC:
        y = -2.0 * a * dt / (s0 + 1.0 + k / (u * u))
        u = m + (u0 - m) * math.exp(y)
        u_mid = m + (u0 - m) * math.exp(0.5 * y)
        if u > _STALL_CONC and u_mid > _STALL_CONC:
            y = -6.0 * a * dt / (s0 + 4.0 * (1.0 + k / (u_mid * u_mid))
                                 + 1.0 + k / (u * u))
    for _ in range(200):
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
        u = m + (u0 - m) * math.exp(y)  # C + k_a
        if u <= _STALL_CONC:
            # at or past C = -k_a, where S(C) and the elapsed time
            # diverge (a target s < -k_a): more than dt has passed
            lo = y
            continue
        t = buffered_relaxation_time(c_start, y, a, b_prime, buffer_total,
                                     k_a)
        g = math.log(t / dt)
        if g > 0.0:
            lo = y
        else:
            hi = y
        # d ln(t)/dy = -S(C) / (a*t)
        y += g * a * t / (1.0 + k / (u * u))
        if abs(g) <= 1e-7:
            # quadratic convergence: the last step left a relative time
            # error ~g^2
            return y
    return y


def closed_form_substrate(c_s_start: float, rates: DerivedRates,
                          spec: VesicleSpec, dt, drain: bool):
    """Linearized substrate law: constant, or a ramp clamped at zero."""
    dt = np.asarray(dt, dtype=float)
    if not drain:
        return np.full_like(dt, c_s_start)
    rate = rates.symport_rate_substrate / spec.v_in
    return np.maximum(c_s_start - rate * dt, 0.0)


def exact_substrate(c_s_start: float, rates: DerivedRates, spec: VesicleSpec,
                    kin: KineticConstants, dt, drain: bool = True):
    """Michaelis-Menten substrate law C_S = K_M * W0(f(dt)).

    f(dt) = (C0/K_M) * exp((C0 - (gamma_s/v_in)*dt) / K_M) is evaluated in
    the log domain so large C0/K_M ratios cannot overflow. Outside symport
    intervals the concentration is constant.
    """
    dt = np.asarray(dt, dtype=float)
    if not drain or c_s_start <= 0.0 or rates.symport_rate_substrate == 0.0:
        return np.full_like(dt, max(c_s_start, 0.0))
    k_m = kin.k_m
    y0 = math.log(c_s_start / k_m) + c_s_start / k_m
    decay = rates.symport_rate_substrate / (spec.v_in * k_m)
    return k_m * lambert_w0_exp(y0 - decay * dt)


def exact_depletion_offset(c_s_start: float, rates: DerivedRates,
                           spec: VesicleSpec, kin: KineticConstants,
                           threshold: float) -> float:
    """Time offset at which the exact substrate law reaches `threshold`."""
    if c_s_start <= threshold:
        return 0.0
    if rates.symport_rate_substrate == 0.0:
        return math.inf
    k_m = kin.k_m
    w = threshold / k_m
    y0 = math.log(c_s_start / k_m) + c_s_start / k_m
    return (y0 - w - math.log(w)) * spec.v_in * k_m / rates.symport_rate_substrate


def exact_proton_series(c_start: float, c_s_start: float,
                        coeffs: PhaseCoefficients, rates: DerivedRates,
                        spec: VesicleSpec, kin: KineticConstants,
                        offsets) -> np.ndarray:
    """Exact proton law at ascending offsets from the phase start.

    Without an active drain the variation-of-constants integral reduces
    algebraically to the closed form. With it, the integral is accumulated
    stepwise between consecutive offsets with the decaying exponential
    folded into the integrand, which keeps the evaluation stable for
    arbitrarily long phases:

        C(t+d) = C(t)*e^(-a d) + int_0^d g(u) e^(-a (d-u)) du,
        g(u) = b - (gamma_sym_h/(v_in*beta)) * W(f(u)) / (W(f(u)) + 1).

    All sample intervals of the segment are integrated at once by
    `_gauss_kronrod` (one Lambert-W call per batch), then chained.
    """
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    a, b = coeffs.a, coeffs.b
    drain_coeff = -coeffs.j_sym_b / coeffs.beta  # gamma_sym_h/(v_in*beta)
    if not coeffs.drain or c_s_start <= 0.0 or drain_coeff == 0.0:
        return closed_form_proton(c_start, coeffs, offsets)

    k_m = kin.k_m
    y0 = math.log(c_s_start / k_m) + c_s_start / k_m
    decay = rates.symport_rate_substrate / (spec.v_in * k_m)

    t_prev = np.concatenate(([0.0], offsets[:-1]))
    d = offsets - t_prev
    moving = d > 0.0
    t_k, d_k = offsets[moving], d[moving]
    # The exponential weight kills contributions older than ~45/a; the
    # neglected remainder is below 1e-19 relative.
    lo = np.maximum(t_prev[moving],
                    t_k - (45.0 / a if a > 0.0 else math.inf))

    def integrand(u, rows):
        w = lambert_w0_exp(y0 - decay * u)
        return ((b - drain_coeff * w / (w + 1.0))
                * np.exp(-a * (t_k[rows, None] - u)))

    scale = abs(b) + drain_coeff
    integral = np.zeros_like(offsets)
    integral[moving], abserr = _gauss_kronrod(
        integrand, lo, t_k, 1e-12 * scale * d_k + 1e-300, 1e-8)

    c, chained = c_start, []
    for growth, val in zip(np.exp(-a * d).tolist(), integral.tolist()):
        c = c * growth + val
        chained.append(c)
    out = np.array(chained)

    failed = np.flatnonzero(abserr > np.maximum(
        1e-4 * scale * d_k, 1e-8 * np.abs(integral[moving])) + 1e-300)
    if failed.size:
        k = failed[0]
        raise QuadratureError(
            f"phase integral did not converge (abserr={abserr[k]:g})",
            estimate=float(out[moving][k]), abserr=float(abserr[k]))
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
    """One 15-point Kronrod rule per interval, and its |K15 - G7|."""
    half = 0.5 * (hi - lo)
    u = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    f = integrand(u, rows)
    k15 = (f @ _K15_WEIGHTS) * half
    g7 = (f @ _G7_WEIGHTS) * half
    return k15, np.abs(k15 - g7)


@dataclass
class _Collector:
    """Accumulates sampled points while the phase engine advances."""

    grid: np.ndarray
    t: list = field(default_factory=list)
    c_h_in: list = field(default_factory=list)
    c_s_in: list = field(default_factory=list)
    light: list = field(default_factory=list)
    cursor: int = 0

    def take_points(self, t_end: float) -> np.ndarray:
        """Grid points with t_prev < t <= t_end (consumes them)."""
        start = self.cursor
        self.cursor = max(start, int(np.searchsorted(
            self.grid, t_end + 1e-12, side="right")))
        return self.grid[start:self.cursor]

    def add(self, times, c_h, c_s, light: bool):
        self.t.extend(np.atleast_1d(times).tolist())
        self.c_h_in.extend(np.atleast_1d(c_h).tolist())
        self.c_s_in.extend(np.atleast_1d(c_s).tolist())
        self.light.extend([1 if light else 0] * np.atleast_1d(times).size)


class _PhaseEngine:
    """Chains cycle phases for one analytic run, exact or closed mode."""

    def __init__(self, spec: VesicleSpec, kin: KineticConstants,
                 env: Environment, rates: DerivedRates, mode: str,
                 collector: _Collector):
        if mode not in ("exact", "closed"):
            raise ModelError(f"mode must be 'exact' or 'closed', got {mode!r}")
        self.spec, self.kin, self.env, self.rates = spec, kin, env, rates
        self.mode = mode
        self.col = collector
        self.c_h = env.c_h_in0
        self.c_s = env.c_s_in0
        self.t = 0.0
        self.events: list[Event] = []
        self.depletion_threshold = DEPLETION_FRACTION_OF_KM * kin.k_m
        self._coeffs: dict[tuple[bool, bool], PhaseCoefficients] = {}

    # -- phase-level helpers -------------------------------------------------

    def coeffs(self, light: bool, drain: bool) -> PhaseCoefficients:
        """Unattenuated coefficients of a light/drain combination."""
        co = self._coeffs.get((light, drain))
        if co is None:
            co = self._coeffs[light, drain] = phase_coefficients(
                self.spec, self.rates, self.env, light, drain)
        return co

    def relax(self, c_start: float, co: PhaseCoefficients,
              dt: float) -> tuple[PhaseCoefficients, float]:
        """Pin a segment's single-exponential rate to the buffered law.

        Returns coefficients whose closed-form relaxation from c_start
        passes through the buffered law's state after dt, and that state.
        Unbuffered, `co` is already exact and is returned unchanged.
        """
        b0, k_a = self.env.buffer_total, self.env.k_a
        if b0 <= 0.0:
            return co, float(closed_form_proton(c_start, co, dt))
        s = co.s_inf
        y = buffered_log_ratio(c_start, co, dt, b0, k_a) if dt > 0.0 else 0.0
        if y < 0.0:
            beta = -co.a * dt / y  # so that a/beta = ln(ratio)/dt
            c_end = s + (c_start - s) * math.exp(y)
        else:  # no resolvable motion: the local slowdown at c_start
            beta = buffering.buffering_slowdown(c_start, b0, k_a)
            c_end = c_start
        return PhaseCoefficients(co.j_l_a, co.j_p_a, co.j_l_b, co.j_p_b,
                                 co.j_sym_b, beta, co.light, co.drain), c_end

    def crossing(self, c_start: float, co: PhaseCoefficients,
                 t_from: float) -> float:
        """Time at which the buffered law carries c_start to the switch."""
        return predict_buffered_crossing(
            c_start, self.rates.switch_conc, co.a, co.b_prime, t_from,
            self.env.buffer_total, self.env.k_a)

    def _drain_possible(self) -> bool:
        return (self.c_s > 0.0
                and self.rates.symport_rate_substrate > 0.0)

    def _record_depletion(self, t: float, how: str):
        if not any(ev.kind == "depletion" for ev in self.events):
            self.events.append(Event("depletion", t, how))

    def _run_segment(self, t_end: float, light: bool,
                     indicator: bool) -> None:
        """Advance to t_end with constant light/indicator states.

        Splits internally when the closed-form substrate ramp hits zero;
        in exact mode the drain fades smoothly instead and only the
        reporting threshold generates an event.
        """
        while self.t < t_end - 1e-15:
            drain = indicator and self._drain_possible()
            seg_end = t_end
            if drain and self.mode == "closed":
                t_dep = self.t + self.spec.v_in * self.c_s / \
                    self.rates.symport_rate_substrate
                if t_dep <= self.t + 1e-15:  # residual cargo underflow
                    self.c_s = 0.0
                    self._record_depletion(self.t, "closed-form ramp reached 0")
                    continue
                if t_dep <= t_end:
                    seg_end = t_dep
            self._emit(seg_end, self.coeffs(light, drain), drain)
            if drain and self.mode == "closed" and seg_end < t_end:
                self.c_s = 0.0
                self._record_depletion(seg_end, "closed-form ramp reached 0")
        self.t = max(self.t, t_end)

    def _emit(self, seg_end: float, co: PhaseCoefficients, drain: bool):
        """Evaluate one constant-coefficient segment and sample it."""
        pts = self.col.take_points(seg_end)
        offsets = pts - self.t
        end_offset = seg_end - self.t
        all_off = np.append(offsets, end_offset)
        co, c_h_end = self.relax(self.c_h, co, end_offset)
        if self.mode == "exact":
            c_h_all = exact_proton_series(self.c_h, self.c_s, co, self.rates,
                                          self.spec, self.kin, all_off)
            c_s_all = exact_substrate(self.c_s, self.rates, self.spec,
                                      self.kin, all_off, drain)
            if drain and self.c_s > self.depletion_threshold:
                d_off = exact_depletion_offset(self.c_s, self.rates,
                                               self.spec, self.kin,
                                               self.depletion_threshold)
                if d_off <= end_offset:
                    self._record_depletion(self.t + d_off,
                                           "fell below reporting threshold")
            c_h_pts, c_h_end = c_h_all[:-1], float(c_h_all[-1])
        else:
            c_h_pts = closed_form_proton(self.c_h, co, offsets)
            c_s_all = closed_form_substrate(self.c_s, self.rates, self.spec,
                                            all_off, drain)
        c_s_pts, c_s_end = c_s_all[:-1], float(c_s_all[-1])
        if pts.size:
            self.col.add(pts, c_h_pts, c_s_pts, co.light)
        self.t = seg_end
        self.c_h, self.c_s = c_h_end, c_s_end

    # -- symport time prediction ---------------------------------------------

    def predict_symport_start(self, t_from: float) -> float:
        """Upward threshold crossing under lit, symport-free dynamics."""
        if self.c_h >= self.rates.switch_conc:
            return t_from
        return self.crossing(self.c_h, self.coeffs(light=True, drain=False),
                             t_from)

    def predict_symport_end(self, t_from: float) -> float:
        """Downward crossing in the dark, stepping over closed-form
        substrate depletion if it happens first."""
        if self.c_h < self.rates.switch_conc:
            return t_from
        c_h, c_s, t0 = self.c_h, self.c_s, t_from
        if c_s > 0.0 and self.rates.symport_rate_substrate > 0.0:
            co = self.coeffs(light=False, drain=True)
            t_dep = t0 + self.spec.v_in * c_s / self.rates.symport_rate_substrate
            tc = self.crossing(c_h, co, t0)
            if tc <= t_dep:
                return tc
            c_h = self.relax(c_h, co, t_dep - t0)[1]
            t0 = t_dep
        return self.crossing(c_h, self.coeffs(light=False, drain=False), t0)


def run_analytic(spec: VesicleSpec, kin: KineticConstants, env: Environment,
                 signal: LightSignal, mode: str = "closed",
                 sample_interval: float = 0.1,
                 sample_times=None,
                 rates: DerivedRates | None = None) -> Trajectory:
    """Phase-by-phase analytic trajectory of one vesicle.

    Each phase's terminal state seeds the next; symport start/end times
    are t(C_switch) of the separable buffered law in both modes, clipped
    into their cycles. Segment end states invert that law, and samples
    follow one exponential per segment pinned to both end states.

    Args:
        mode: 'exact' or 'closed'
        sample_interval: uniform output spacing (s), ignored when
            `sample_times` is given
        sample_times: explicit ascending sample times in [0, horizon]
    """
    if spec.mode != "symporter":
        raise ModelError("analytic solvers support symporter mode only; "
                         "use the finite-difference solver for antiporters")
    if rates is None:
        rates = derive_rates(spec, kin, env)
    grid = (np.asarray(sample_times, dtype=float) if sample_times is not None
            else sample_grid(signal.horizon, sample_interval))

    col = _Collector(grid=grid)
    eng = _PhaseEngine(spec, kin, env, rates, mode, col)
    if grid.size and grid[0] == 0.0:
        col.add(0.0, eng.c_h, eng.c_s, signal.is_on(0.0))
        col.cursor = 1

    if eng.c_h >= rates.switch_conc:
        warnings.warn("initial H+ concentration already exceeds the symport "
                      "threshold; the opening leakage phase treats the "
                      "release module as inactive", stacklevel=2)

    sched = CycleSchedule(horizon=signal.horizon)
    for i in range(signal.n_cycles):
        t1, t3, t1_next = signal.cycle_bounds(i)
        if t1 > eng.t:  # P1: dark relaxation
            eng._run_segment(t1, light=False, indicator=False)
        t2_est = eng.predict_symport_start(t1)
        t2 = max(min(t3, t2_est), t1)
        if t2 > eng.t:  # P2: pumping below threshold
            eng._run_segment(t2, light=True, indicator=False)
        if t3 > eng.t:  # P3: pumping + symport
            eng._run_segment(t3, light=True, indicator=True)
        t4_est = eng.predict_symport_end(t3)
        t2, t4 = clip_cycle_times(t2_est, t4_est, t1, t3, t1_next)
        if t4 > eng.t:  # P4: symport after light-off
            eng._run_segment(t4, light=False, indicator=True)
        sched.append(CycleRecord(t1, t2, t3, t4,
                                 classify_cycle(t1, t2, t3, t4, t1_next)))
        sched.mark_resolved(t4)
    if signal.horizon > eng.t:  # trailing dark stretch
        eng._run_segment(signal.horizon, light=False, indicator=False)
    sched.mark_resolved(signal.horizon)

    t_arr = np.asarray(col.t)
    c_h_in = np.asarray(col.c_h_in)
    c_s_in = np.asarray(col.c_s_in)
    v_in, v_out = spec.v_in, env.v_out
    c_h_out = (rates.total_free_protons - c_h_in * v_in) / v_out
    c_s_out = (rates.total_substrate - c_s_in * v_in) / v_out
    cycles, phases = sched.annotate(t_arr)
    return Trajectory(
        t=t_arr, c_h_in=c_h_in, c_h_out=c_h_out, c_s_in=c_s_in,
        c_s_out=c_s_out, light=np.asarray(col.light, dtype=int),
        cycle=np.asarray(cycles, dtype=int), phase=phases,
        schedule=sched, solver=mode, derived=rates, events=eng.events,
    )
