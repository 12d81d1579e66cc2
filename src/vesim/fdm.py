# fdm.py
"""
Forward-Euler ground-truth integrator for the vesicle transport ODEs.

Compartment totals (free + buffer-complexed H+) are stepped with fluxes
evaluated at the free concentrations, then both compartments are
re-equilibrated through the mass-action quadratic; binding kinetics are
assumed fast relative to transport. The substrate has no buffer
interaction. Explicit Euler at a fixed step keeps the baseline
bit-reproducible; a stiffness check refuses steps that the fastest phase
coefficient would destabilize.

The flux laws are those of `model.py`, for its one release module, the
proton/substrate symporter. The shared-pool kernel calls them
on per-vesicle arrays and re-equilibrates with `free_proton_conc_array`.
The single-vesicle loop inlines them and `free_proton_conc` in the same
arithmetic order, since in CPython a function call costs as much as the
step's arithmetic, and a test pins the two bit for bit. Both kernels
keep out of the step every test that cannot change within it: they walk
the blocks of `_step_blocks`, which end at every record step, light
switch and drift check. The single-vesicle symport condition is one
flag, changed only when the threshold test flips or the cargo runs out.

Symport threshold crossings are detected by the sign change of
(C_H_in - C_switch) with linear interpolation between steps and then
assembled into the same cycle schedule the analytic solvers produce.
A single-vesicle run can stop as soon as no later crossing can change
that schedule (`until_settled`); the fig6 sweep's cross-check, which
reads only the schedule, stops there instead of stepping through its
long dark tail.

The shared-pool kernel's cost is numpy's fixed cost per call, so its
step makes few calls while each element sees the scalar loop's float
operations. The threshold test `model.symport_gate`, the same as
(c_in - c_switch) >= 0, is taken once: it gates the next step's symport
and marks the crossings. Rare events (a threshold flip, a lane newly
below the depletion threshold, a substrate overshoot to clamp) are found
by one argmax over one flag array and handled lane by lane only in the
steps that have one. A stable step keeps each Michaelis-Menten decrement
below the cargo in exact arithmetic, but once the fluxes underflow to
subnormals their rounding can overshoot it, so the clamp at 0 stays.
The pool returns its record arrays, one column per vesicle, as they are.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .analytic import DEPLETION_FRACTION_OF_KM
from .buffering import (buffering_slowdown, free_proton_conc,
                        free_proton_conc_array, total_conc_from_free)
from .model import (DerivedRates, Environment, KineticConstants, VesicleSpec,
                    derive_rates, leakage_flux, net_proton_inflow, pump_flux,
                    symport_flux, symport_gate)
from .schedule import (CycleSchedule, LightSignal, schedule_from_crossings,
                       schedule_is_final)
from .trajectory import Event, Trajectory


class FdmStabilityError(RuntimeError):
    """Requested time step violates the explicit-Euler stability bound."""


@dataclass(frozen=True)
class FdmConfig:
    """Finite-difference run settings.

    Attributes:
        dt: time step in seconds (baseline default 1e-2)
        record_stride: one recorded sample every `record_stride` steps

    Light switch times are quantized to the step grid, so signals should
    use switch times that are multiples of dt.
    """

    dt: float = 1e-2
    record_stride: int = 10

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:  # also refuses NaN
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if (not isinstance(self.record_stride, numbers.Integral)
                or self.record_stride < 1):
            raise ValueError("record_stride must be a positive integer")

    def check_stability(self, spec: VesicleSpec, kin: KineticConstants,
                        env: Environment,
                        rates: DerivedRates | None = None) -> float:
        """Raise FdmStabilityError unless dt * a_max < 1; returns a_max."""
        if rates is None:
            rates = derive_rates(spec, kin, env)
        a_max = stability_coefficient(spec, kin, env, rates)
        if self.dt * a_max >= 1.0:
            raise FdmStabilityError(
                f"dt={self.dt:g} s is unstable for the stiffest phase "
                f"coefficient {a_max:.4g} 1/s (dt*a={self.dt * a_max:.3g}); "
                f"use dt < {1.0 / a_max:.3g} s")
        return a_max


def stability_coefficient(spec: VesicleSpec, kin: KineticConstants,
                          env: Environment, rates: DerivedRates) -> float:
    """Fastest relaxation rate (1/s) any phase can exhibit.

    The proton coefficient is the unbuffered rate divided by the smallest
    buffering slowdown along the reachable concentration range; the
    substrate adds its own Michaelis-Menten bound.
    """
    c_max = max(env.c_h_in0, env.c_h_out0)
    if rates.leak_rate > 0:
        c_max = max(c_max, env.c_h_out0 + rates.pump_rate / rates.leak_rate)
    slow = buffering_slowdown(c_max, env.buffer_total, env.k_a)
    a_h = rates.leak_rate * (1.0 / spec.v_in + 1.0 / env.v_out)
    if rates.pump_rate > 0 and env.c_h_out0 > 0:
        a_h += rates.pump_rate / (env.v_out * env.c_h_out0)
    a = a_h / slow
    if rates.symport_rate_substrate > 0:
        a = max(a, rates.symport_rate_substrate / (spec.v_in * kin.k_m))
    return a


def stable_dt(spec: VesicleSpec, kin: KineticConstants,
              env: Environment) -> float:
    """A round-number dt satisfying dt * a_max <= 0.5."""
    rates = derive_rates(spec, kin, env)
    a_max = stability_coefficient(spec, kin, env, rates)
    limit = 0.5 / a_max
    exp = math.floor(math.log10(limit))
    for mant in (5.0, 2.0, 1.0):
        dt = mant * 10.0 ** exp
        if dt <= limit:
            return dt
    return 10.0 ** exp


def _step_blocks(signal: LightSignal, dt: float, n_steps: int,
                 stride: int):
    """The steps [0, n_steps) as blocks (k0, k1, light), in order.

    Blocks end at every record step (k % stride == 0 and n_steps), at
    every light switch and at every k with k % 1000 == 1, the step before
    which a kernel samples the drift; `light` is the illumination of each
    of the block's steps. The last block is (n_steps, n_steps), the final
    record. Light switch times are rounded to the step grid.
    """
    lights = [(min(int(round(t_on / dt)), n_steps),
               min(int(round(t_off / dt)), n_steps))
              for t_on, t_off in signal.intervals]
    edges = np.unique(np.concatenate((
        np.arange(0, n_steps + 1, stride), [n_steps],
        np.arange(1, n_steps, 1000),
        np.array(lights, dtype=int).ravel())))
    edge_light = np.zeros(len(edges), dtype=bool)
    for k_on, k_off in lights:
        edge_light[np.searchsorted(edges, k_on):
                   np.searchsorted(edges, k_off)] = True
    edges = edges.tolist()
    return zip(edges, edges[1:] + [n_steps], edge_light.tolist())


def _record_count(n_steps: int, stride: int) -> int:
    """Samples recorded: every stride-th step from 0, and step n_steps."""
    return n_steps // stride + 1 + (1 if n_steps % stride else 0)


def _inventory_drift(h_total, h_total0, s_total, s_total0):
    """Relative H+ or substrate inventory drift, whichever is larger."""
    drift = abs(h_total - h_total0) / h_total0
    if s_total0 > 0:
        drift = max(drift, abs(s_total - s_total0) / s_total0)
    return drift


def simulate_svs(spec: VesicleSpec, kin: KineticConstants, env: Environment,
                 signal: LightSignal, cfg: FdmConfig | None = None, *,
                 until_settled: bool = False) -> Trajectory:
    """Ground-truth trajectory of a single vesicle system.

    Each step makes the float operations of `simulate_mvs_shared_pool`
    with one vesicle, in the same order, so the two agree bit for bit.
    The steps run in the blocks of `_step_blocks`, which both kernels
    walk; per step the loop runs only what can change per step (see the
    module docstring).

    With `until_settled`, the run stops at the first record step at which
    `schedule_is_final` holds, so its `schedule` is the full run's. The
    trajectory then holds only what was found up to that stop: the
    recorded samples (an exact prefix of the full run's), the events so
    far, and the conservation drift checked so far.
    """
    cfg = cfg or FdmConfig()
    rates = derive_rates(spec, kin, env)
    cfg.check_stability(spec, kin, env, rates)

    dt = cfg.dt
    n_steps = int(round(signal.horizon / dt))
    stride = cfg.record_stride

    v_in, v_out = spec.v_in, env.v_out
    b0, k_a, km = env.buffer_total, env.k_a, kin.k_m
    gamma_p, gamma_l = rates.pump_rate, rates.leak_rate
    gamma_s, gamma_h = rates.symport_rate_substrate, rates.symport_rate_proton
    c_switch = rates.switch_conc
    c_out0 = env.c_h_out0
    dep_threshold = DEPLETION_FRACTION_OF_KM * km
    pump_on = gamma_p > 0.0 and c_out0 > 0.0
    # free_proton_conc's constants, as it groups them: (b0 + k_a) - total,
    # (4*k_a)*total and (2*k_a)*total
    buffered = b0 > 0.0
    b_k, k_a4, k_a2 = b0 + k_a, 4.0 * k_a, 2.0 * k_a
    sqrt = math.sqrt

    th_in = total_conc_from_free(env.c_h_in0, b0, k_a) * v_in
    th_out = total_conc_from_free(env.c_h_out0, b0, k_a) * v_out
    h_total0 = th_in + th_out
    cs_in = env.c_s_in0
    ts_out = 0.0
    s_total0 = cs_in * v_in

    n_rec = _record_count(n_steps, stride)
    rec_t = np.empty(n_rec)
    rec_chin = np.empty(n_rec)
    rec_chout = np.empty(n_rec)
    rec_csin = np.empty(n_rec)
    rec_csout = np.empty(n_rec)
    rec_light = np.empty(n_rec, dtype=int)

    crossings: list[tuple[float, int]] = []
    events: list[Event] = []
    drift = 0.0

    c_in = free_proton_conc(th_in / v_in, b0, k_a)
    c_out = free_proton_conc(th_out / v_out, b0, k_a)
    # model.symport_gate, taken once per step: it gates the next step's
    # symport and its flips are the crossings. `release` is the whole
    # symport condition; cargo only falls, and once it is gone it stays.
    above = c_in >= c_switch
    active_at_start = above
    cargo = gamma_s > 0.0 and cs_in > 0.0
    release = above and cargo
    depleted = False

    ri = 0
    for k0, k1, light in _step_blocks(signal, dt, n_steps, stride):
        # C_S_in moves only in release steps, which test it for depletion;
        # a run that starts below the threshold reports it after step 0
        if k0 == 1 and not depleted and cs_in < dep_threshold:
            events.append(Event("depletion", dt,
                                "fell below reporting threshold"))
            depleted = True
        if k0 % stride == 0 or k0 == n_steps:
            rec_t[ri] = k0 * dt
            rec_chin[ri] = c_in
            rec_chout[ri] = c_out
            rec_csin[ri] = cs_in
            rec_csout[ri] = ts_out / v_out
            rec_light[ri] = 1 if light else 0
            ri += 1
            if k0 == n_steps or (until_settled and schedule_is_final(
                    signal, crossings, active_at_start, k0 * dt)):
                break
        if k0 % 1000 == 1:  # the state after step k0 - 1
            drift = max(drift, _inventory_drift(
                th_in + th_out, h_total0, cs_in * v_in + ts_out, s_total0))
        lit = light and pump_on

        # model.pump_flux, symport_flux, leakage_flux and net_proton_inflow
        # and buffering.free_proton_conc, inlined in their arithmetic
        # order; the test TestSharedPool::test_single_vesicle_degenerates_
        # to_svs pins this step bit for bit to the shared-pool kernel,
        # which calls them.
        for k in range(k0, k1):
            pump = gamma_p * (c_out / c_out0) if lit else 0.0
            if release:
                mm = cs_in / (cs_in + km)
                f_s = gamma_s * mm
                d_h = dt * (pump - gamma_l * (c_in - c_out) - gamma_h * mm)
                if f_s > 0.0:
                    released = dt * f_s
                    cs_in -= released / v_in
                    ts_out += released
                    if cs_in <= 0.0:
                        if cs_in < 0.0:
                            ts_out += cs_in * v_in  # return the overshoot
                            cs_in = 0.0
                            if not depleted:
                                events.append(Event(
                                    "depletion", (k + 1) * dt,
                                    "substrate clamped at 0"))
                                depleted = True
                        cargo = release = False
                if not depleted and cs_in < dep_threshold:
                    events.append(Event("depletion", (k + 1) * dt,
                                        "fell below reporting threshold"))
                    depleted = True
            else:  # f_h = 0, and x - 0.0 is x
                d_h = dt * (pump - gamma_l * (c_in - c_out))
            th_in += d_h
            th_out -= d_h

            c_prev = c_in
            total = th_in / v_in
            if total <= 0.0:
                c_in = 0.0
            elif not buffered:
                c_in = total
            else:
                q = b_k - total
                disc = sqrt(q * q + k_a4 * total)
                c_in = (k_a2 * total / (q + disc) if q >= 0.0
                        else 0.5 * (disc - q))
            total = th_out / v_out
            if total <= 0.0:
                c_out = 0.0
            elif not buffered:
                c_out = total
            else:
                q = b_k - total
                disc = sqrt(q * q + k_a4 * total)
                c_out = (k_a2 * total / (q + disc) if q >= 0.0
                         else 0.5 * (disc - q))

            if (c_in >= c_switch) is not above:
                above = not above
                diff_prev = c_prev - c_switch
                frac = diff_prev / (diff_prev - (c_in - c_switch))
                crossings.append((k * dt + frac * dt, 1 if above else -1))
                release = above and cargo

    drift = max(drift, _inventory_drift(
        th_in + th_out, h_total0, cs_in * v_in + ts_out, s_total0))

    if ri < n_rec:  # stopped once the schedule was final
        rec_t, rec_chin, rec_chout, rec_csin, rec_csout, rec_light = (
            a[:ri].copy() for a in (rec_t, rec_chin, rec_chout, rec_csin,
                                    rec_csout, rec_light))
    sched = schedule_from_crossings(signal, crossings, active_at_start)
    cycles, phases = sched.annotate(rec_t)
    return Trajectory(
        t=rec_t, c_h_in=rec_chin, c_h_out=rec_chout, c_s_in=rec_csin,
        c_s_out=rec_csout, light=rec_light,
        cycle=np.asarray(cycles, dtype=int), phase=phases, schedule=sched,
        solver="fdm", derived=rates, events=events,
        conservation_drift=drift,
    )


@dataclass
class SharedPoolResult:
    """Multi-vesicle run against one common extravesicular pool.

    Attributes:
        t: shared sample times, shape (n_t,)
        c_h_in / c_s_in: each vesicle's free H+ and substrate
            concentrations (mol/m^3), shape (n_t, n), one column per
            vesicle in the order of the specs
        pooled_c_h_out / pooled_c_s_out: pool concentrations (mol/m^3)
        schedules: each vesicle's cycle schedule, from its crossings
        events: each vesicle's depletion events
        conservation_drift: max relative inventory drift over the run
    """

    t: np.ndarray
    c_h_in: np.ndarray
    c_s_in: np.ndarray
    pooled_c_h_out: np.ndarray
    pooled_c_s_out: np.ndarray
    schedules: list[CycleSchedule]
    events: list[list[Event]]
    conservation_drift: float


def simulate_mvs_shared_pool(specs: list[VesicleSpec], kin: KineticConstants,
                             env_total: Environment, signal: LightSignal,
                             cfg: FdmConfig | None = None) -> SharedPoolResult:
    """Step all vesicles against one shared extravesicular compartment.

    `env_total.v_out` is the pool volume available to the modeled
    vesicles; every vesicle's nominal allotment, which sets its threshold
    concentration, is v_out / len(specs). This run violates vesicle
    independence on purpose: it is the baseline against which the
    independent-compartment approximation is judged.
    """
    if not specs:
        raise ValueError("need at least one vesicle")
    cfg = cfg or FdmConfig()
    n_ves = len(specs)
    v_pool = env_total.v_out
    env_alloc = dataclasses.replace(env_total, v_out=v_pool / n_ves)

    rates = [derive_rates(s, kin, env_alloc) for s in specs]
    for s, r in zip(specs, rates):
        cfg.check_stability(s, kin, env_alloc, r)

    dt = cfg.dt
    n_steps = int(round(signal.horizon / dt))
    stride = cfg.record_stride
    b0, k_a, km = env_total.buffer_total, env_total.k_a, kin.k_m
    c_out0 = env_total.c_h_out0

    v_in = np.array([s.v_in for s in specs])
    gamma_p = np.array([r.pump_rate for r in rates])
    gamma_l = np.array([r.leak_rate for r in rates])
    gamma_s = np.array([r.symport_rate_substrate for r in rates])
    gamma_h = np.array([r.symport_rate_proton for r in rates])
    c_switch = np.array([r.switch_conc for r in rates])

    th_in = np.full(n_ves, total_conc_from_free(env_total.c_h_in0, b0, k_a)) * v_in
    pool_th = total_conc_from_free(c_out0, b0, k_a) * v_pool
    cs_in = np.full(n_ves, env_total.c_s_in0)
    pool_ts = 0.0
    h_total0 = th_in.sum() + pool_th
    s_total0 = (cs_in * v_in).sum()

    n_rec = _record_count(n_steps, stride)
    rec_t = np.empty(n_rec)
    rec_chin = np.empty((n_rec, n_ves))
    rec_csin = np.empty((n_rec, n_ves))
    rec_pool_h = np.empty(n_rec)
    rec_pool_s = np.empty(n_rec)

    crossings: list[list[tuple[float, int]]] = [[] for _ in range(n_ves)]
    events: list[list[Event]] = [[] for _ in range(n_ves)]
    # a lane's threshold drops to 0 once it has reported depletion, so
    # the one test below also finds the rare lanes to clamp at 0
    dep_threshold = np.full(n_ves, DEPLETION_FRACTION_OF_KM * km)
    # rows: net H+ inflow and released substrate, summed in one reduction
    flows = np.empty((2, n_ves))

    c_in = free_proton_conc_array(th_in / v_in, b0, k_a)
    c_pool = free_proton_conc(pool_th / v_pool, b0, k_a)
    above = symport_gate(c_in, c_switch)
    active_at_start = above
    drift = 0.0

    ri = 0
    for k0, k1, light in _step_blocks(signal, dt, n_steps, stride):
        if k0 % stride == 0 or k0 == n_steps:
            rec_t[ri] = k0 * dt
            rec_chin[ri] = c_in
            rec_csin[ri] = cs_in
            rec_pool_h[ri] = c_pool
            rec_pool_s[ri] = pool_ts / v_pool
            ri += 1
            if k0 == n_steps:
                break
        if k0 % 1000 == 1:  # the state after step k0 - 1
            drift = max(drift, _inventory_drift(
                th_in.sum() + pool_th, h_total0,
                (cs_in * v_in).sum() + pool_ts, s_total0))

        for k in range(k0, k1):
            pump = pump_flux(c_pool, c_out0, gamma_p, light)
            f_s, f_h = symport_flux(above, cs_in, gamma_s, gamma_h, km)
            leak = leakage_flux(c_in, c_pool, gamma_l)
            net_in = net_proton_inflow(pump, leak, f_h)

            th_in += dt * net_in
            released = dt * f_s
            cs_in -= released / v_in
            flows[0] = net_in
            flows[1] = released
            net_sum, released_sum = flows.sum(axis=1).tolist()
            pool_th -= dt * net_sum
            pool_ts += released_sum

            c_prev = c_in
            c_in = free_proton_conc_array(th_in / v_in, b0, k_a)
            c_pool = free_proton_conc(pool_th / v_pool, b0, k_a)

            # one threshold test gates the next step's symport and finds
            # the crossings
            was_above, above = above, symport_gate(c_in, c_switch)
            flipped = above != was_above
            low = cs_in < dep_threshold
            rare = flipped | low
            if rare[rare.argmax()]:
                for v in np.flatnonzero(flipped):
                    diff_prev = c_prev[v] - c_switch[v]
                    frac = diff_prev / (diff_prev - (c_in[v] - c_switch[v]))
                    crossings[v].append((k * dt + frac * dt,
                                         1 if above[v] else -1))
                under = cs_in < 0.0
                if under.any():
                    pool_ts += (cs_in[under] * v_in[under]).sum()
                    cs_in[under] = 0.0
                for v in np.flatnonzero(low):
                    if dep_threshold[v] > 0.0:
                        events[v].append(Event(
                            "depletion", (k + 1) * dt,
                            "substrate clamped at 0" if under[v]
                            else "fell below reporting threshold"))
                        dep_threshold[v] = 0.0

    drift = max(drift, _inventory_drift(
        th_in.sum() + pool_th, h_total0, (cs_in * v_in).sum() + pool_ts,
        s_total0))
    schedules = [schedule_from_crossings(signal, crossings[v],
                                         bool(active_at_start[v]))
                 for v in range(n_ves)]
    return SharedPoolResult(
        t=rec_t, c_h_in=rec_chin, c_s_in=rec_csin, pooled_c_h_out=rec_pool_h,
        pooled_c_s_out=rec_pool_s, schedules=schedules, events=events,
        conservation_drift=drift,
    )
