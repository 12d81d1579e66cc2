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
proton/substrate symporter. The public kernels all run in one loop,
`_run_lanes`, which steps many vesicles ("lanes") in one of two ways:
against one shared extravesicular pool (`simulate_mvs_shared_pool`), or
each against a pool of its own, under a light signal, kinetics and
horizon of its own (`simulate_svs_batch`). A single vesicle is a pool of
one lane, and the two ways agree there. `_run_lanes` walks the blocks of
`_step_blocks`, which end at every lane's light switch and horizon and
at every drift check. It sets a lane's pump rate to 0.0 while the lane
is dark, and hands each block to the compiled step, vesim_fdm_steps of
`_native.c` (`native`), for the lanes whose horizon is still ahead, so
a lane past it costs nothing. Without a compiler it runs `_step_numpy`,
which calls the flux laws and is the oracle the C step is pinned to bit
for bit. The step writes the recorded samples itself.

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
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import native
from .analytic import DEPLETION_FRACTION_OF_KM, phase_coefficients
from .buffering import (buffering_slowdown, free_proton_conc,
                        total_conc_from_free)
from .model import (DerivedRates, Environment, KineticConstants,
                    VesicleLanes, VesicleSpec, derive_rates, leakage_flux,
                    net_proton_inflow, pump_flux, symport_flux, symport_gate)
from .schedule import CycleSchedule, LightSignal, schedule_from_crossings
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


def _step_blocks(signals: Sequence[LightSignal], dt: float):
    """The steps [0, n) of lanes under `signals`, n the largest step count
    round(horizon / dt), as blocks: their edges, 0 = e_0 < ... < e_m = n,
    and whether each lane is lit in each block, shape (m, lanes).

    Blocks end at every lane's light switch and last step, and at every k
    with k % 1000 == 1 (the step before which `_run_lanes` samples the
    drift). A lane is lit in steps k_on <= k < k_off of a light interval,
    its switch times rounded to the step grid and clipped to its steps.
    """
    grids = {}  # signal -> its step count and light intervals in steps
    for s in dict.fromkeys(signals):
        n = int(round(s.horizon / dt))
        grids[s] = n, np.array([min(int(round(t / dt)), n) for iv in
                                s.intervals for t in iv], dtype=int)
    n_max = max(n for n, _ in grids.values())
    edges = np.array(sorted({0, *range(1, n_max, 1000), *(
        k for n, ks in grids.values() for k in (n, *ks.tolist()))}))
    # lit where an odd number of switches are at or before a block's start
    lit = {s: np.searchsorted(ks, edges[:-1], side="right") % 2 == 1
           for s, (_, ks) in grids.items()}
    return edges, np.column_stack([lit[s] for s in signals])


# The rows of the per-lane state array, of the per-pool state array and
# the entries of the constants, in the order of the enums of _native.c.
# gamma_p is a lane's pump rate while it is lit, 0.0 while it is dark.
_LANE_ROWS = ("v_in", "gamma_p", "gamma_l", "gamma_s", "gamma_h",
              "c_switch", "dep_threshold", "th_in", "cs_in", "c_in", "net_in",
              "released")
_POOL_ROWS = ("th", "ts", "c", "v_pool")
_CONSTS = ("dt", "b0", "k_a", "k_m", "c_out0")


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

    def take(self) -> None:
        """Empty the buffers into the entries taken."""
        m = int(self.n[0])
        if m:
            self.taken.append((self.vd[:, :m].copy(), self.t[:m].copy()))
            self.n[0] = 0

    def per_lane(self, n_lanes: int) -> list[np.ndarray]:
        """Each lane's crossings taken, as `schedule_from_crossings` takes
        them."""
        vd = np.concatenate([vd for vd, _ in self.taken], axis=1)
        t = np.concatenate([t for _, t in self.taken])
        order = np.lexsort((vd[1], t, vd[0]))  # by lane, time, direction
        rows = np.column_stack((t[order], vd[1, order]))
        return np.split(rows, np.cumsum(
            np.bincount(vd[0], minlength=n_lanes))[:-1])


class _Records:
    """A run's recorded samples of n_lanes lanes and n_pools pools: row i
    holds the state at step min(i * stride, n_steps), every stride-th
    step from 0 and n_steps, of each lane and pool that runs that long."""

    def __init__(self, n_steps: int, stride: int, n_lanes: int,
                 n_pools: int):
        n = -(-n_steps // stride) + 1
        self.stride, self.steps = stride, np.minimum(np.arange(n) * stride,
                                                     n_steps)
        self.c_h_in, self.c_s_in = np.empty((2, n, n_lanes))
        self.pool_h, self.pool_s = np.empty((2, n, n_pools))


def _step_numpy(lanes: np.ndarray, above: np.ndarray, pools: np.ndarray,
                consts: np.ndarray, log: _CrossingLog, rec: _Records):
    """The FDM step in numpy, on model.py's flux laws: the oracle and the
    fallback of the compiled step, vesim_fdm_steps of _native.c.

    Binds the state of `_run_lanes` (`lanes`, rows `_LANE_ROWS`; `above`,
    each lane's threshold test; `pools`, rows `_POOL_ROWS`, one column
    that every lane shares or one per lane; `consts`, `_CONSTS`; `log`,
    the crossings found and not yet taken; `rec`, the records) and
    returns steps(k0, k1, n_run). It runs the steps [k0, k1) of the
    lanes [0, n_run) and their pools in place, writing their record r
    before step r * stride. A lane whose test flips in step k has its
    crossing, interpolated linearly within the step, appended to `log`
    and its `above` updated. It returns k1; or -(k + 1) after the first
    step k after which some lane's cargo fell below its depletion
    threshold or `log` has no room for another step's flips.
    """
    dt, b0, k_a, km, c_out0 = consts.tolist()
    n, cap, stride, shared = above.size, log.t.size, rec.stride, \
        pools.shape[1] == 1

    def steps(k0: int, k1: int, n_run: int) -> int:
        n_pools = 1 if shared else n_run
        (v_in, gamma_p, gamma_l, gamma_s, gamma_h, c_switch, dep_threshold,
         th_in, cs_in, c_in, net_in, released) = lanes[:, :n_run]
        pool_th, pool_ts, c_pool, v_pool = pools[:, :n_pools]
        gate, flows = above[:n_run], lanes[-2:, :n_run]
        totals = np.empty(n_run + n_pools)  # the lanes' H+ totals, pools'
        r = -(-k0 // stride)  # the next record
        for k in range(k0, k1):
            if k == r * stride:
                rec.c_h_in[r, :n_run], rec.c_s_in[r, :n_run] = c_in, cs_in
                rec.pool_h[r, :n_pools] = c_pool
                rec.pool_s[r, :n_pools] = pool_ts / v_pool
                r += 1
            pump = pump_flux(c_pool, c_out0, gamma_p, True)
            f_s, f_h = symport_flux(gate, cs_in, gamma_s, gamma_h, km)
            leak = leakage_flux(c_in, c_pool, gamma_l)
            net_in[:] = net_proton_inflow(pump, leak, f_h)
            released[:] = dt * f_s
            th_in += dt * net_in
            cs_in -= released / v_in
            # a shared pool takes the sum of its lanes' flows
            net, rel = flows.sum(axis=1, keepdims=True) if shared else flows
            pool_th -= dt * net
            pool_ts += rel
            np.divide(th_in, v_in, out=totals[:n_run])
            np.divide(pool_th, v_pool, out=totals[n_run:])
            roots = free_proton_conc(totals, b0, k_a)
            c_new, c_pool[:] = roots[:n_run], roots[n_run:]
            flipped = symport_gate(c_new, c_switch) != gate
            if flipped.any():  # log the crossings within step k
                v = np.flatnonzero(flipped)
                gate[v] ^= True
                diff_prev = c_in[v] - c_switch[v]
                frac = diff_prev / (diff_prev - (c_new[v] - c_switch[v]))
                m, m1 = log.n[0], log.n[0] + v.size
                log.vd[:, m:m1] = v, np.where(gate[v], 1, -1)
                log.t[m:m1] = k * dt + frac * dt
                log.n[0] = m1
            c_in[:] = c_new
            if (cs_in < dep_threshold).any() or log.n[0] + n > cap:
                return -(k + 1)
        return k1

    return steps


def _bind_step(fn, lanes: np.ndarray, above: np.ndarray, pools: np.ndarray,
               consts: np.ndarray, log: _CrossingLog, rec: _Records):
    """`_step_numpy`'s contract on the compiled step `fn`
    (`native.Library.fdm_steps`)."""
    n, n_pools, cap, n_rec = above.size, pools.shape[-1], log.t.size, \
        rec.steps.size
    buffers = (lanes, above, pools, consts, log.n, log.vd, log.t,
               rec.c_h_in, rec.c_s_in, rec.pool_h, rec.pool_s)
    layout = [((len(_LANE_ROWS), n), "f8"), ((n,), "?"),
              ((len(_POOL_ROWS), n_pools), "f8"), ((len(_CONSTS),), "f8"),
              ((1,), "i8"), ((2, cap), "i8"), ((cap,), "f8"),
              *[((n_rec, n), "f8")] * 2, *[((n_rec, n_pools), "f8")] * 2]
    if cap < n or n_pools not in (1, n) or any(
            a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous
            for a, (shape, dtype) in zip(buffers, layout)):
        raise ValueError("FDM state buffers of the wrong layout")
    # the caller keeps the buffers alive while it steps; arguments
    # passed as ctypes objects skip a conversion on every call
    void_p, long = ctypes.c_void_p, ctypes.c_long
    ptrs = [void_p(a.ctypes.data) for a in buffers]
    call = functools.partial(fn, long(n), *ptrs[:2], long(n_pools),
                             *ptrs[2:7], long(cap), *ptrs[7:],
                             long(rec.stride))
    n_steps = int(rec.steps[-1])

    def steps(k0: int, k1: int, n_run: int) -> int:
        # the records it writes exist, and so do its lanes
        if not (0 <= k0 <= k1 <= n_steps and 0 <= n_run <= n):
            raise ValueError(f"steps [{k0}, {k1}) of {n_run} lanes outside "
                             "the run")
        return call(n_run, k0, k1)
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
                 signal: LightSignal,
                 cfg: FdmConfig | None = None) -> Trajectory:
    """Ground-truth trajectory of a single vesicle system.

    The run of `simulate_mvs_shared_pool` with this one vesicle and a
    pool of volume env.v_out, so the two agree bit for bit.
    """
    return simulate_svs_batch(VesicleLanes.of([spec]), [kin], env, [signal],
                              cfg)[0]


def simulate_svs_batch(vesicles: VesicleLanes,
                       kins: Sequence[KineticConstants], env: Environment,
                       signals: Sequence[LightSignal],
                       cfg: FdmConfig | None = None) -> list[Trajectory]:
    """`simulate_svs` of every lane m of `vesicles` under kins[m] and
    signals[m], bit for bit, the vesicles independent lanes of one run.

    Each lane has a pool of its own of env.v_out and runs to its own
    horizon. The kinetics may differ in all but k_m. The stability check
    (`FdmConfig.check_stability`) refuses the run if any lane is unstable.
    """
    if not len(vesicles) == len(kins) == len(signals):
        raise ValueError("need one kinetics and one light signal per lane")
    cfg = cfg or FdmConfig()
    # longest horizon first, as _run_lanes steps the lanes
    order = np.argsort([-s.horizon for s in signals], kind="stable")
    rec, rates, schedules, events, drift = _run_lanes(
        VesicleLanes(vesicles.d_in[order], vesicles.d_mem,
                     vesicles.n_pumps[order], vesicles.n_sym[order],
                     vesicles.permeability[order]),
        [kins[m] for m in order], env, [signals[m] for m in order], cfg,
        shared=False)
    trajs = [None] * len(order)
    for i, m in enumerate(order.tolist()):
        n = int(round(signals[m].horizon / cfg.dt))
        t = np.minimum(rec.steps[:-(-n // cfg.record_stride) + 1], n) * cfg.dt
        cycles, phases = schedules[i].annotate(t)
        trajs[m] = Trajectory(
            t=t, c_h_in=rec.c_h_in[:t.size, i], c_h_out=rec.pool_h[:t.size, i],
            c_s_in=rec.c_s_in[:t.size, i], c_s_out=rec.pool_s[:t.size, i],
            light=signals[m].is_on(t).astype(int),
            cycle=np.asarray(cycles, dtype=int), phase=phases,
            schedule=schedules[i], solver="fdm", derived=rates.lane(i),
            events=events[i], conservation_drift=float(drift[i]))
    return trajs


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
    cfg = cfg or FdmConfig()
    rec, _, schedules, events, drift = _run_lanes(
        specs, [kin] * len(specs), env_total, [signal] * len(specs), cfg,
        shared=True)
    return SharedPoolResult(
        t=rec.steps * cfg.dt, c_h_in=rec.c_h_in, c_s_in=rec.c_s_in,
        pooled_c_h_out=rec.pool_h[:, 0], pooled_c_s_out=rec.pool_s[:, 0],
        schedules=schedules, events=events, conservation_drift=float(drift[0]))


def _lane_rates(vesicles: VesicleLanes, kins: Sequence[KineticConstants],
                env: Environment) -> DerivedRates:
    """Each lane's `derive_rates` under its own kinetics kins[m]."""
    distinct = list(dict.fromkeys(kins))
    if len(distinct) == 1:
        return derive_rates(vesicles, distinct[0], env)
    which = np.array([distinct.index(kin) for kin in kins])
    rates = [vars(derive_rates(vesicles, kin, env)) for kin in distinct]
    return DerivedRates(**{name: np.array([r[name] for r in rates])[
        which, np.arange(len(kins))] for name in rates[0]})


def _run_lanes(vesicles: VesicleLanes, kins: Sequence[KineticConstants],
               env: Environment, signals: Sequence[LightSignal],
               cfg: FdmConfig, shared: bool):
    """Step the population `vesicles`, lane m under kins[m] and
    signals[m], longest horizon first, each lane against a pool of its own
    of env.v_out, or, if `shared`, all against one pool of env.v_out.

    The loop of the public kernels (see the module docstring). The
    kinetics must agree in k_m, and a shared pool's lanes in their
    signal. The step runs only the lanes whose horizon is ahead, and
    writes their records but each lane's last, the state it ends at.

    Returns the `_Records`, the population's DerivedRates, each lane's
    schedule and events, and each pool's drift.
    """
    n_ves = len(vesicles)
    if len({kin.k_m for kin in kins}) > 1:
        raise ValueError("the lanes' kinetics differ in k_m")
    v_pool = env.v_out
    env_alloc = dataclasses.replace(env, v_out=v_pool / n_ves) if shared \
        else env
    rates = _lane_rates(vesicles, kins, env_alloc)
    cfg.check_stability(vesicles, kins[0], env_alloc, rates)

    dt, stride = cfg.dt, cfg.record_stride
    b0, k_a, km, c_out0 = env.buffer_total, env.k_a, kins[0].k_m, env.c_h_out0
    n_steps = np.array([int(round(s.horizon / dt)) for s in signals])
    n_pools = 1 if shared else n_ves

    lanes = np.empty((len(_LANE_ROWS), n_ves))
    lanes[:6] = (vesicles.v_in, rates.pump_rate, rates.leak_rate,
                 rates.symport_rate_substrate, rates.symport_rate_proton,
                 rates.switch_conc)
    (v_in, gamma_p, gamma_l, gamma_s, gamma_h, c_switch, dep_threshold,
     th_in, cs_in, c_in, _, _) = lanes
    # a lane's threshold drops to 0 once it has reported depletion, so
    # the step's one test also finds the rare lanes to clamp at 0
    dep_threshold[:] = DEPLETION_FRACTION_OF_KM * km
    th_in[:] = total_conc_from_free(env.c_h_in0, b0, k_a) * v_in
    cs_in[:] = env.c_s_in0
    pools = np.empty((len(_POOL_ROWS), n_pools))
    pool_th, pool_ts, c_pool, _ = pools
    pools[:] = [[total_conc_from_free(c_out0, b0, k_a) * v_pool], [0.0],
                [0.0], [v_pool]]
    roots = free_proton_conc(np.concatenate((th_in / v_in, pool_th / v_pool)),
                             b0, k_a)
    c_in[:], c_pool[:] = roots[:n_ves], roots[n_ves:]
    consts = np.array([dt, b0, k_a, km, c_out0])

    # lanes[7:9], the rows th_in and cs_in, times these are each lane's
    # H+ and substrate inventories
    weights = np.array([np.ones(n_ves), v_in])

    def inventories():
        """Each pool's H+ and substrate inventory, its lanes' included:
        rows H+ and substrate, one column per pool."""
        lane_inv = lanes[7:9] * weights
        return pools[:2] + (lane_inv.sum(axis=1, keepdims=True) if shared
                            else lane_inv)

    # the extremes of the inventories sampled, which give the largest
    # drift: a correctly rounded difference is monotone in its operand
    inventory0 = inventories()
    lowest, highest = inventory0.copy(), inventory0.copy()

    def sample_inventories():
        inventory = inventories()
        np.minimum(lowest, inventory, out=lowest)
        np.maximum(highest, inventory, out=highest)

    # model.symport_gate, taken once per step: it gates the next step's
    # symport and its flips are the crossings
    above = symport_gate(c_in, c_switch)
    active_at_start = above.copy()
    log = _CrossingLog(n_ves + _LOG_ROOM)
    rec = _Records(int(n_steps[0]), stride, n_ves, n_pools)
    steps = _compiled_step()(lanes, above, pools, consts, log, rec)
    events: list[list[Event]] = [[] for _ in range(n_ves)]

    edges, lit = _step_blocks(signals, dt)
    n_runs = (n_steps >= edges[1:, None]).sum(axis=1)  # horizon ahead
    switched = np.append(True, (lit[1:] != lit[:-1]).any(axis=1))
    for k0, k1, n_run, lit_lanes, switch in zip(
            edges[:-1].tolist(), edges[1:].tolist(), n_runs.tolist(), lit,
            switched.tolist()):
        if k0 % 1000 == 1:  # the state after step k0 - 1
            sample_inventories()
        if switch:  # a dark lane's pump rate is 0.0
            np.multiply(rates.pump_rate, lit_lanes, out=gamma_p)
        k = k0
        while k < k1:
            k = steps(k, k1, n_run)
            if k < 0:  # after step -k - 1 a lane is low or the log full
                k = -k
                log.take()
                low = cs_in < dep_threshold
                under = cs_in < 0.0
                if under.any():
                    lost = cs_in[under] * v_in[under]
                    if shared:
                        pool_ts += lost.sum()
                    else:
                        pool_ts[under] += lost
                    cs_in[under] = 0.0
                for v in np.flatnonzero(low):
                    if dep_threshold[v] > 0.0:
                        events[v].append(Event(
                            "depletion", k * dt,
                            "substrate clamped at 0" if under[v]
                            else "fell below reporting threshold"))
                        dep_threshold[v] = 0.0

    sample_inventories()
    # each pool's relative H+ or substrate drift, whichever is larger; a
    # pool without substrate has no substrate drift
    scale = inventory0.copy()
    scale[1, scale[1] <= 0.0] = math.inf
    drift = (np.maximum(highest - inventory0, inventory0 - lowest)
             / scale).max(axis=0)
    log.take()
    # the record at the step each lane ends at is this loop's to write
    last, lane = -(-n_steps // stride), np.arange(n_ves)
    rec.c_h_in[last, lane], rec.c_s_in[last, lane] = c_in, cs_in
    rec.pool_h[last[:n_pools], lane[:n_pools]] = c_pool
    rec.pool_s[last[:n_pools], lane[:n_pools]] = pool_ts / v_pool
    return rec, rates, [
        schedule_from_crossings(s, c, bool(a)) for s, c, a in
        zip(signals, log.per_lane(n_ves), active_at_start)], events, drift
