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
proton/substrate symporter. Both public kernels, the single vesicle and
many vesicles sharing one extravesicular pool, run in one driver,
`_run_lanes`; a single vesicle is a pool of one lane. The driver walks
the blocks of `_step_blocks`, which end at every light switch and drift
check, and hands each block to the compiled step, vesim_fdm_steps of
`_native.c` (`native`). Without a compiler it runs `_step_numpy`, which
calls the flux laws and is the oracle the C step is pinned to bit for
bit. The step writes the recorded samples itself.

When a vesicle's threshold test `model.symport_gate`, which gates its
symport, flips in a step, the step locates the crossing by linear
interpolation and appends it to a crossing log, which the driver reads
in bulk; a vesicle that chatters across its threshold for thousands of
steps thus costs no return to Python. The crossings make the same cycle
schedule the analytic solvers produce. A step returns early after the
rare step in which some vesicle's cargo falls below the depletion
threshold; the driver then clamps a substrate overshoot at 0 (once the
fluxes underflow to subnormals their rounding can overshoot the cargo),
logs the depletion event, and resumes.

The step knows no stopping rule: a run that stops once its schedules are
final gives it a log with room for one step's crossings, so the driver
sees each crossing right after its step and moves the stop it steps to.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import native
from .analytic import DEPLETION_FRACTION_OF_KM, phase_coefficients
from .buffering import (buffering_slowdown, free_proton_conc,
                        total_conc_from_free)
from .model import (DerivedRates, Environment, KineticConstants,
                    VesicleLanes, VesicleSpec, derive_rates, leakage_flux,
                    net_proton_inflow, pump_flux, symport_flux, symport_gate)
from .schedule import (CycleSchedule, LightSignal, schedule_final_time,
                       schedule_from_crossings)
from .trajectory import Event, Trajectory


class FdmStabilityError(RuntimeError):
    """Requested time step violates the explicit-Euler stability bound."""


@dataclass(frozen=True)
class FdmConfig:
    """Finite-difference run settings.

    Attributes:
        dt: time step in seconds (baseline default 1e-2)
        record_stride: one recorded sample every `record_stride` steps

    The steps switch the light at the step nearest each switch time, so
    signals should use switch times that are multiples of dt; the
    recorded `light` column is the signal's own (`LightSignal.is_on`).
    """

    dt: float = 1e-2
    record_stride: int = 10

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:  # also refuses NaN
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if (not isinstance(self.record_stride, numbers.Integral)
                or self.record_stride < 1):
            raise ValueError("record_stride must be a positive integer")

    def check_stability(self, spec: VesicleSpec | VesicleLanes,
                        kin: KineticConstants, env: Environment,
                        rates: DerivedRates | None = None) -> float:
        """Raise FdmStabilityError unless dt * a_max < 1 for every lane;
        returns the largest a_max."""
        if rates is None:
            rates = derive_rates(spec, kin, env)
        a_max = float(np.max(stability_coefficient(spec, kin, env, rates)))
        if self.dt * a_max >= 1.0:
            raise FdmStabilityError(
                f"dt={self.dt:g} s is unstable for the stiffest phase "
                f"coefficient {a_max:.4g} 1/s (dt*a={self.dt * a_max:.3g}); "
                f"use dt < {1.0 / a_max:.3g} s")
        return a_max


def stability_coefficient(spec: VesicleSpec | VesicleLanes,
                          kin: KineticConstants, env: Environment,
                          rates: DerivedRates):
    """Fastest relaxation rate (1/s) any phase can exhibit, per lane.

    The proton coefficient is the lit phase's unbuffered rate a
    (`analytic.phase_coefficients`) divided by the smallest buffering
    slowdown along the reachable concentration range; the
    substrate adds its own Michaelis-Menten bound. One vesicle's, or
    each lane's, the same bits either way.
    """
    leak, pump = rates.leak_rate, rates.pump_rate
    # without leakage the pump/leak equilibrium raises no bound
    c_max = np.maximum(max(env.c_h_in0, env.c_h_out0), env.c_h_out0
                       + pump / np.where(leak > 0, leak, math.inf))
    slow = buffering_slowdown(c_max, env.buffer_total, env.k_a)
    a_h, _, _ = phase_coefficients(
        spec.v_in, leak, pump, rates.total_free_protons,
        rates.symport_rate_proton, env, light=True, drain=False)
    return np.maximum(a_h / slow,
                      rates.symport_rate_substrate / (spec.v_in * kin.k_m))


def stable_dt(spec: VesicleSpec, kin: KineticConstants,
              env: Environment) -> float:
    """A round-number dt satisfying dt * a_max <= 0.5."""
    limit = 0.5 / stability_coefficient(spec, kin, env,
                                        derive_rates(spec, kin, env))
    exp = math.floor(math.log10(limit))
    for mant in (5.0, 2.0, 1.0):
        dt = mant * 10.0 ** exp
        if dt <= limit:
            return dt
    return 10.0 ** exp


def _lit(signal: LightSignal, dt: float, n_steps: int, ks: np.ndarray):
    """Whether each step of `ks` is lit: k_on <= k < k_off for a light
    interval, its switch times rounded to the step grid and clipped to
    n_steps."""
    lights = np.array([(min(int(round(t_on / dt)), n_steps),
                        min(int(round(t_off / dt)), n_steps))
                       for t_on, t_off in signal.intervals], dtype=int)
    lights = lights.reshape(-1, 1, 2)
    return ((ks >= lights[..., 0]) & (ks < lights[..., 1])).any(axis=0)


def _step_blocks(signal: LightSignal, dt: float, n_steps: int):
    """The steps [0, n_steps) as blocks (k0, k1, light), in order.

    Blocks end at every light switch, at every k with k % 1000 == 1 (the
    step before which the driver samples the drift) and at n_steps;
    `light` is the illumination of each of the block's steps (`_lit`).
    """
    edges = sorted({0, n_steps, *range(1, n_steps, 1000),
                    *(min(int(round(t / dt)), n_steps)
                      for iv in signal.intervals for t in iv)})
    return zip(edges[:-1], edges[1:],
               _lit(signal, dt, n_steps, np.array(edges[:-1])).tolist())


# The rows of the per-lane state array and the fields of the pool array,
# in the order of the enums of _native.c
_LANE_ROWS = ("v_in", "gamma_p", "gamma_l", "gamma_s", "gamma_h",
              "c_switch", "dep_threshold", "th_in", "cs_in", "c_in", "net_in",
              "released")
_POOL_FIELDS = ("th", "ts", "c", "dt", "v_pool", "b0", "k_a", "k_m", "c_out0")


_LOG_ROOM = 4096  # log entries beyond one step's flips of every lane


class _CrossingLog:
    """The threshold crossings the steps found.

    Entry i < n[0] is lane vd[0, i] crossing in direction vd[1, i] (+1
    up, -1 down) at time t[i]; the compiled step writes the same three
    buffers, and returns to be emptied (`take`) when they are full.
    """

    def __init__(self, cap: int):
        self.n = np.zeros(1, dtype=np.int64)
        self.vd = np.empty((2, cap), dtype=np.int64)
        self.t = np.empty(cap)
        self.taken = [(self.vd[:, :0], self.t[:0])]

    def take(self) -> bool:
        """Empty the buffers into the entries taken; whether they held any."""
        m = int(self.n[0])
        if m:
            self.taken.append((self.vd[:, :m].copy(), self.t[:m].copy()))
            self.n[0] = 0
        return m > 0

    def per_lane(self, n_lanes: int) -> list[np.ndarray]:
        """Each lane's crossings taken so far, as `schedule_from_crossings`
        takes them."""
        vd = np.concatenate([vd for vd, _ in self.taken], axis=1)
        t = np.concatenate([t for _, t in self.taken])
        self.taken = [(vd, t)]
        order = np.lexsort((vd[1], t, vd[0]))  # by lane, time, direction
        rows = np.column_stack((t[order], vd[1, order]))
        return np.split(rows, np.cumsum(
            np.bincount(vd[0], minlength=n_lanes))[:-1])


class _Records:
    """A run's recorded samples: row i holds the state at step steps[i] =
    min(i * stride, n_steps), every stride-th step from 0 and n_steps."""

    def __init__(self, n_steps: int, stride: int, n_lanes: int):
        n = -(-n_steps // stride) + 1
        self.stride, self.steps = stride, np.minimum(np.arange(n) * stride,
                                                     n_steps)
        self.c_h_in, self.c_s_in = np.empty((2, n, n_lanes))
        self.pool_h, self.pool_s = np.empty((2, n))


def _step_numpy(lanes: np.ndarray, above: np.ndarray, pool: np.ndarray,
                log: _CrossingLog, rec: _Records):
    """The FDM step in numpy, on model.py's flux laws: the oracle and the
    fallback of the compiled step, vesim_fdm_steps of _native.c.

    Binds the state of `_run_lanes` (`lanes`, rows `_LANE_ROWS`; `above`,
    each lane's threshold test; `pool`, `_POOL_FIELDS`; `log`, the
    crossings found and not yet taken; `rec`, the records) and returns
    steps(k0, k1, light). It runs the steps [k0, k1) in place, writing
    record r before step r * stride. A lane whose test flips in step k
    has its crossing, interpolated linearly within the step, appended to
    `log` and its `above` updated. It returns k1; or -(k + 1) after the
    first step k after which some lane's cargo fell below its depletion
    threshold or `log` has no room for another step's flips.
    """
    (v_in, gamma_p, gamma_l, gamma_s, gamma_h, c_switch, dep_threshold,
     th_in, cs_in, c_in) = lanes[:-2]
    flows = lanes[-2:]  # net H+ inflow and released substrate: one sum
    dt, v_pool, b0, k_a, km, c_out0 = pool[3:].tolist()
    n, cap, stride = above.size, log.t.size, rec.stride
    totals = np.empty(n + 1)  # the lanes' H+ totals, then the pool's
    lane_totals = totals[:n]

    def steps(k0: int, k1: int, light: bool) -> int:
        pool_th, pool_ts, c_pool = pool[:3].tolist()
        r = -(-k0 // stride)  # the next record
        for k in range(k0, k1):
            if k == r * stride:
                rec.c_h_in[r], rec.c_s_in[r] = c_in, cs_in
                rec.pool_h[r], rec.pool_s[r] = c_pool, pool_ts / v_pool
                r += 1
            pump = pump_flux(c_pool, c_out0, gamma_p, light)
            f_s, f_h = symport_flux(above, cs_in, gamma_s, gamma_h, km)
            leak = leakage_flux(c_in, c_pool, gamma_l)
            flows[0] = net_proton_inflow(pump, leak, f_h)
            flows[1] = dt * f_s
            th_in[:] += dt * flows[0]
            cs_in[:] -= flows[1] / v_in
            net_sum, released_sum = flows.sum(axis=1).tolist()
            pool_th -= dt * net_sum
            pool_ts += released_sum
            np.divide(th_in, v_in, out=lane_totals)
            totals[n] = pool_th / v_pool
            roots = free_proton_conc(totals, b0, k_a)
            c_new, c_pool = roots[:n], roots.item(n)
            flipped = symport_gate(c_new, c_switch) != above
            if flipped.any():  # log the crossings within step k
                v = np.flatnonzero(flipped)
                above[v] ^= True
                diff_prev = c_in[v] - c_switch[v]
                frac = diff_prev / (diff_prev - (c_new[v] - c_switch[v]))
                m, m1 = log.n[0], log.n[0] + v.size
                log.vd[:, m:m1] = v, np.where(above[v], 1, -1)
                log.t[m:m1] = k * dt + frac * dt
                log.n[0] = m1
            c_in[:] = c_new
            if (cs_in < dep_threshold).any() or log.n[0] + n > cap:
                k = -(k + 1)
                break
        else:
            k = k1
        pool[:3] = pool_th, pool_ts, c_pool
        return k

    return steps


def _bind_step(fn, lanes: np.ndarray, above: np.ndarray, pool: np.ndarray,
               log: _CrossingLog, rec: _Records):
    """`_step_numpy`'s contract on the compiled step `fn`
    (`native.Library.fdm_steps`)."""
    n, cap, n_rec = above.size, log.t.size, rec.steps.size
    buffers = (lanes, above, pool, log.n, log.vd, log.t, rec.c_h_in,
               rec.c_s_in, rec.pool_h, rec.pool_s)
    layout = [((len(_LANE_ROWS), n), "f8"), ((n,), "?"),
              ((len(_POOL_FIELDS),), "f8"), ((1,), "i8"),
              ((2, cap), "i8"), ((cap,), "f8"), *[((n_rec, n), "f8")] * 2,
              *[((n_rec,), "f8")] * 2]
    if cap < n or any(a.shape != shape or a.dtype != dtype
                      or not a.flags.c_contiguous
                      for a, (shape, dtype) in zip(buffers, layout)):
        raise ValueError("FDM state buffers of the wrong layout")
    # the caller keeps the buffers alive while it steps; arguments
    # passed as ctypes objects skip a conversion on every call
    void_p, long = ctypes.c_void_p, ctypes.c_long
    ptrs = [void_p(a.ctypes.data) for a in buffers]
    call = functools.partial(fn, long(n), *ptrs[:6], long(cap),
                             *ptrs[6:], long(rec.stride))
    n_steps = int(rec.steps[-1])

    def steps(k0: int, k1: int, light: bool) -> int:
        if not 0 <= k0 <= k1 <= n_steps:  # the records it writes exist
            raise ValueError(f"steps [{k0}, {k1}) outside the run")
        return call(k0, k1, light)
    return steps


def _compiled_step():
    """The compiled step as a binder with `_step_numpy`'s contract, or
    `_step_numpy` where the library cannot be built (`native.library`).
    """
    lib = native.library()
    if lib is None:
        return _step_numpy
    return functools.partial(_bind_step, lib.fdm_steps)


def simulate_svs(spec: VesicleSpec, kin: KineticConstants, env: Environment,
                 signal: LightSignal, cfg: FdmConfig | None = None, *,
                 until_settled: bool = False) -> Trajectory:
    """Ground-truth trajectory of a single vesicle system.

    The run of `simulate_mvs_shared_pool` with this one vesicle and a
    pool of volume env.v_out, so the two agree bit for bit.

    With `until_settled`, the run stops at the first record step at which
    its schedule is final (`schedule_final_time`), so its `schedule` is
    the full run's. The trajectory then holds only what was found up to
    that stop: the recorded samples (an exact prefix of the full run's),
    the events so far, and the conservation drift checked so far.
    """
    res, rates = _run_lanes(VesicleLanes.of([spec]), kin, env, signal,
                            cfg or FdmConfig(), until_settled)
    sched = res.schedules[0]
    cycles, phases = sched.annotate(res.t)
    return Trajectory(
        t=res.t, c_h_in=res.c_h_in[:, 0], c_h_out=res.pooled_c_h_out,
        c_s_in=res.c_s_in[:, 0], c_s_out=res.pooled_c_s_out,
        light=signal.is_on(res.t).astype(int),
        cycle=np.asarray(cycles, dtype=int), phase=phases, schedule=sched,
        solver="fdm", derived=rates.lane(0), events=res.events[0],
        conservation_drift=float(res.conservation_drift),
    )


@dataclass
class SharedPoolResult:
    """Multi-vesicle run against one common extravesicular pool.

    Attributes:
        t: shared sample times, shape (n_t,)
        c_h_in / c_s_in: each vesicle's free H+ and substrate
            concentrations (mol/m^3), shape (n_t, n), one column per
            vesicle in the order of the population's lanes
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


def simulate_mvs_shared_pool(specs: VesicleLanes, kin: KineticConstants,
                             env_total: Environment, signal: LightSignal,
                             cfg: FdmConfig | None = None) -> SharedPoolResult:
    """Step the population `specs` against one shared extravesicular
    compartment.

    `env_total.v_out` is the pool volume available to the modeled
    vesicles; every vesicle's nominal allotment, which sets its threshold
    concentration, is v_out / len(specs). This run violates vesicle
    independence on purpose: it is the baseline against which the
    independent-compartment approximation is judged.
    """
    return _run_lanes(specs, kin, env_total, signal, cfg or FdmConfig(),
                      False)[0]


def _run_lanes(vesicles: VesicleLanes, kin: KineticConstants,
               env_total: Environment, signal: LightSignal, cfg: FdmConfig,
               until_settled: bool):
    """Step the population `vesicles` against one pool of env_total.v_out.

    The driver of both public kernels (see the module docstring). With
    `until_settled` the run stops at the first record step at which
    every vesicle's schedule is final, as the crossings so far show. The
    step writes the records but the last, the state the run ends at;
    each record's t follows from its step.

    Returns the SharedPoolResult and the population's DerivedRates.
    """
    n_ves = len(vesicles)
    v_pool = env_total.v_out
    env_alloc = dataclasses.replace(env_total, v_out=v_pool / n_ves)
    rates = derive_rates(vesicles, kin, env_alloc)
    cfg.check_stability(vesicles, kin, env_alloc, rates)

    dt = cfg.dt
    n_steps = int(round(signal.horizon / dt))
    stride = cfg.record_stride
    b0, k_a, km = env_total.buffer_total, env_total.k_a, kin.k_m
    c_out0 = env_total.c_h_out0

    lanes = np.empty((len(_LANE_ROWS), n_ves))
    lanes[:6] = (vesicles.v_in, rates.pump_rate, rates.leak_rate,
                 rates.symport_rate_substrate, rates.symport_rate_proton,
                 rates.switch_conc)
    (v_in, gamma_p, gamma_l, gamma_s, gamma_h, c_switch, dep_threshold,
     th_in, cs_in, c_in, _, _) = lanes
    # a lane's threshold drops to 0 once it has reported depletion, so
    # the step's one test also finds the rare lanes to clamp at 0
    dep_threshold[:] = DEPLETION_FRACTION_OF_KM * km
    th_in[:] = total_conc_from_free(env_total.c_h_in0, b0, k_a) * v_in
    cs_in[:] = env_total.c_s_in0
    pool_th = total_conc_from_free(c_out0, b0, k_a) * v_pool
    roots = free_proton_conc(np.append(th_in / v_in, pool_th / v_pool),
                             b0, k_a)
    c_in[:] = roots[:-1]
    pool = np.array([pool_th, 0.0, roots[-1], dt, v_pool, b0, k_a, km,
                     c_out0])
    h_total0 = th_in.sum() + pool_th
    s_total0 = (cs_in * v_in).sum()

    def inventory_drift():
        """Relative H+ or substrate inventory drift, whichever is larger."""
        drift = abs(th_in.sum() + pool[0] - h_total0) / h_total0
        if s_total0 > 0:
            s_total = (cs_in * v_in).sum() + pool[1]
            drift = max(drift, abs(s_total - s_total0) / s_total0)
        return drift

    # model.symport_gate, taken once per step: it gates the next step's
    # symport and its flips are the crossings
    above = symport_gate(c_in, c_switch)
    active_at_start = above.copy()
    # a settled run's every crossing returns from the step to move the stop
    log = _CrossingLog(n_ves if until_settled else n_ves + _LOG_ROOM)
    rec = _Records(n_steps, stride, n_ves)
    steps = _compiled_step()(lanes, above, pool, log, rec)
    events: list[list[Event]] = [[] for _ in range(n_ves)]
    drift = 0.0

    def settled_stop(k: int) -> int:
        """The first record step from step k on at which the crossings
        taken fix every schedule (`schedule_final_time`), or n_steps."""
        t_final = max(schedule_final_time(signal, c, bool(a)) for c, a in
                      zip(log.per_lane(n_ves), active_at_start))
        # from a step before the first with k * dt >= t_final, whatever
        # the rounding; both infinities clip to the run
        k = max(k, int(np.clip(t_final, 0.0, signal.horizon) / dt) - 1)
        k = -(-k // stride) * stride
        while k < n_steps and k * dt < t_final:
            k += stride
        return min(k, n_steps)

    stop = settled_stop(0) if until_settled else n_steps
    k = 0
    for k0, k1, light in _step_blocks(signal, dt, n_steps):
        if k0 % 1000 == 1:  # the state after step k0 - 1
            drift = max(drift, inventory_drift())
        k = k0
        while k < min(k1, stop):
            k = steps(k, min(k1, stop), light)
            if k < 0:  # after step -k - 1 a lane is low or the log full
                k = -k
                if log.take() and until_settled:
                    stop = settled_stop(k)
                low = cs_in < dep_threshold
                under = cs_in < 0.0
                if under.any():
                    pool[1] += (cs_in[under] * v_in[under]).sum()
                    cs_in[under] = 0.0
                for v in np.flatnonzero(low):
                    if dep_threshold[v] > 0.0:
                        events[v].append(Event(
                            "depletion", k * dt,
                            "substrate clamped at 0" if under[v]
                            else "fell below reporting threshold"))
                        dep_threshold[v] = 0.0
        if k == stop:  # every schedule is final, or the run is done
            break

    drift = max(drift, inventory_drift())
    log.take()
    # the record at the step the run ends at is the driver's to write
    n_rec = -(-k // stride) + 1
    rec.c_h_in[n_rec - 1], rec.c_s_in[n_rec - 1] = c_in, cs_in
    rec.pool_h[n_rec - 1], rec.pool_s[n_rec - 1] = pool[2], pool[1] / v_pool
    schedules = [schedule_from_crossings(signal, c, bool(a)) for c, a in
                 zip(log.per_lane(n_ves), active_at_start)]
    return SharedPoolResult(
        t=rec.steps[:n_rec] * dt, c_h_in=rec.c_h_in[:n_rec],
        c_s_in=rec.c_s_in[:n_rec], pooled_c_h_out=rec.pool_h[:n_rec],
        pooled_c_s_out=rec.pool_s[:n_rec], schedules=schedules,
        events=events, conservation_drift=drift,
    ), rates
