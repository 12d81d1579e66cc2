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
the blocks of `_step_blocks`, which end at every record step, light
switch and drift check, and hands each block to the compiled step
`_fdm_step.c`, built with the system C compiler on first use and cached
per user. Without a compiler it runs `_step_numpy`, which calls the
flux laws and is the oracle the C step is pinned to bit for bit.

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

import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import importlib.resources
import math
import numbers
import os
import shutil
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

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



# The rows of the per-lane state array and the fields of the pool array,
# in the order of the enums of _fdm_step.c
_LANE_ROWS = ("v_in", "gamma_p", "gamma_l", "gamma_s", "gamma_h",
              "c_switch", "dep_threshold", "th_in", "cs_in", "c_in", "net_in",
              "released")
_POOL_FIELDS = ("th", "ts", "c", "dt", "v_pool", "b0", "k_a", "k_m", "c_out0")


_LOG_ROOM = 4096  # log entries beyond one step's flips of every lane


class _CrossingLog:
    """The threshold crossings a step found, until the driver takes them.

    Entry i < n[0] is lane vd[0, i] crossing in direction vd[1, i] (+1
    up, -1 down) at time t[i]; the compiled step writes the same three
    buffers, and returns to be emptied when they are full.
    """

    def __init__(self, cap: int):
        self.n = np.zeros(1, dtype=np.int64)
        self.vd = np.empty((2, cap), dtype=np.int64)
        self.t = np.empty(cap)

    def take(self, crossings: list[list[tuple[float, int]]]) -> None:
        """Append every logged crossing to its lane's list; empty the log."""
        m = int(self.n[0])
        if not m:
            return
        for v, d, t in zip(*self.vd[:, :m].tolist(), self.t[:m].tolist()):
            crossings[v].append((t, d))
        self.n[0] = 0


def _step_numpy(lanes: np.ndarray, above: np.ndarray, pool: np.ndarray,
                log: _CrossingLog):
    """The FDM step in numpy, on model.py's flux laws: the oracle and the
    fallback of the compiled step, vesim_fdm_steps of _fdm_step.c.

    Binds the state of `_run_lanes` (`lanes`, rows `_LANE_ROWS`; `above`,
    each lane's threshold test; `pool`, `_POOL_FIELDS`; `log`, the
    crossings found and not yet taken) and returns steps(k0, k1, light).
    It runs the steps [k0, k1) in place. A lane whose test flips in step
    k has its crossing, interpolated linearly within the step, appended
    to `log` and its `above` updated. It returns k1, or the first step k
    after which some lane's cargo fell below its depletion threshold or
    `log` has no room for another step's flips, with the state after
    step k.
    """
    (v_in, gamma_p, gamma_l, gamma_s, gamma_h, c_switch, dep_threshold,
     th_in, cs_in, c_in) = lanes[:-2]
    flows = lanes[-2:]  # net H+ inflow and released substrate: one sum
    dt, v_pool, b0, k_a, km, c_out0 = pool[3:].tolist()
    n, cap = above.size, log.t.size

    def steps(k0: int, k1: int, light: bool) -> int:
        pool_th, pool_ts, c_pool = pool[:3].tolist()
        for k in range(k0, k1):
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
            c_prev = c_in.copy()
            c_in[:] = free_proton_conc_array(th_in / v_in, b0, k_a)
            c_pool = free_proton_conc(pool_th / v_pool, b0, k_a)
            flipped = symport_gate(c_in, c_switch) != above
            if flipped.any():  # log the crossings within step k
                v = np.flatnonzero(flipped)
                above[v] ^= True
                diff_prev = c_prev[v] - c_switch[v]
                frac = diff_prev / (diff_prev - (c_in[v] - c_switch[v]))
                m, m1 = log.n[0], log.n[0] + v.size
                log.vd[:, m:m1] = v, np.where(above[v], 1, -1)
                log.t[m:m1] = k * dt + frac * dt
                log.n[0] = m1
            if (cs_in < dep_threshold).any() or log.n[0] + n > cap:
                break
        else:
            k = k1
        pool[:3] = pool_th, pool_ts, c_pool
        return k

    return steps


# Fixed, so the library's bits do not depend on the environment: no
# fused multiply-add, no -ffast-math, no host-specific instructions
_CC_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-lm")


def _cache_dir() -> Path:
    """$XDG_CACHE_HOME/vesim (default ~/.cache/vesim), or a per-user
    temporary directory when that cannot be written."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(root) / "vesim"
    with contextlib.suppress(OSError):
        path.mkdir(parents=True, exist_ok=True)
    if os.access(path, os.W_OK):
        return path
    path = Path(tempfile.gettempdir()) / f"vesim-{os.getuid()}"
    path.mkdir(mode=0o700, exist_ok=True)
    if path.stat().st_uid != os.getuid():
        raise OSError(f"{path} belongs to another user")
    return path


def _load_step():
    """The compiled step as a binder with `_step_numpy`'s contract.

    Builds _fdm_step.c with the system C compiler `cc` unless the cache
    already holds a library for this source and these flags, and loads
    it with ctypes. Raises OSError or CalledProcessError when the
    library cannot be built or loaded.
    """
    source = importlib.resources.files("vesim").joinpath(
        "_fdm_step.c").read_bytes()
    key = hashlib.sha256(source + str(_CC_FLAGS).encode()).hexdigest()[:16]
    lib_dir = _cache_dir()
    path = lib_dir / f"_fdm_step-{key}.so"
    if not path.exists():
        cc = shutil.which("cc")
        if cc is None:
            raise OSError("no C compiler: cc is not on the PATH")
        # build under a temporary name: other processes may build it too
        fd, tmp = tempfile.mkstemp(dir=lib_dir, prefix=path.name)
        os.close(fd)
        try:
            subprocess.run([cc, "-x", "c", "-", "-o", tmp, *_CC_FLAGS],
                           input=source, capture_output=True, check=True)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    fn = ctypes.CDLL(str(path)).vesim_fdm_steps
    fn.argtypes = (ctypes.c_long, *(ctypes.c_void_p,) * 6, ctypes.c_long,
                   ctypes.c_long, ctypes.c_long, ctypes.c_int)
    fn.restype = ctypes.c_long

    def bind(lanes: np.ndarray, above: np.ndarray, pool: np.ndarray,
             log: _CrossingLog):
        n, cap = above.size, log.t.size
        buffers = (lanes, above, pool, log.n, log.vd, log.t)
        if not (lanes.shape == (len(_LANE_ROWS), n)
                and pool.shape == (len(_POOL_FIELDS),)
                and lanes.dtype == pool.dtype == log.t.dtype == np.float64
                and above.dtype == np.bool_
                and log.n.dtype == log.vd.dtype == np.int64
                and log.vd.shape == (2, cap) and cap >= n
                and all(a.flags.c_contiguous for a in buffers)):
            raise ValueError("FDM state buffers of the wrong layout")
        # the caller keeps the buffers alive while it steps; arguments
        # passed as ctypes objects skip a conversion on every call
        return functools.partial(fn, ctypes.c_long(n), *(
            ctypes.c_void_p(a.ctypes.data) for a in buffers),
            ctypes.c_long(cap))

    return bind


def _select_step():
    """The compiled step, or `_step_numpy` with one UserWarning saying why."""
    try:
        return _load_step()
    except (OSError, subprocess.CalledProcessError) as exc:
        # a failed build's reason is the compiler's first message
        err = getattr(exc, "stderr", b"").decode(errors="replace")
        reason = err.split("\n")[0] or exc
        warnings.warn(f"vesim: cannot build the compiled FDM step ({reason}); "
                      "running the numpy step, 20 to 200 times slower",
                      UserWarning, stacklevel=2)
        return _step_numpy


# Built and loaded on the first FDM run, never at import
_compiled_step = functools.cache(_select_step)


def simulate_svs(spec: VesicleSpec, kin: KineticConstants, env: Environment,
                 signal: LightSignal, cfg: FdmConfig | None = None, *,
                 until_settled: bool = False) -> Trajectory:
    """Ground-truth trajectory of a single vesicle system.

    The run of `simulate_mvs_shared_pool` with this one vesicle and a
    pool of volume env.v_out, so the two agree bit for bit.

    With `until_settled`, the run stops at the first record step at which
    `schedule_is_final` holds, so its `schedule` is the full run's. The
    trajectory then holds only what was found up to that stop: the
    recorded samples (an exact prefix of the full run's), the events so
    far, and the conservation drift checked so far.
    """
    res, rates, light = _run_lanes([spec], kin, env, signal,
                                   cfg or FdmConfig(), until_settled)
    sched = res.schedules[0]
    cycles, phases = sched.annotate(res.t)
    return Trajectory(
        t=res.t, c_h_in=res.c_h_in[:, 0], c_h_out=res.pooled_c_h_out,
        c_s_in=res.c_s_in[:, 0], c_s_out=res.pooled_c_s_out, light=light,
        cycle=np.asarray(cycles, dtype=int), phase=phases, schedule=sched,
        solver="fdm", derived=rates[0], events=res.events[0],
        conservation_drift=float(res.conservation_drift),
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
    return _run_lanes(specs, kin, env_total, signal, cfg or FdmConfig(),
                      False)[0]


def _run_lanes(specs: list[VesicleSpec], kin: KineticConstants,
               env_total: Environment, signal: LightSignal, cfg: FdmConfig,
               until_settled: bool):
    """Step `specs` against one pool of volume `env_total.v_out`.

    The driver of both public kernels (see the module docstring). With
    `until_settled` the run stops at the first record step at which
    every vesicle's schedule is final.

    Returns the SharedPoolResult, each vesicle's DerivedRates and the
    illumination (0 or 1) of each recorded sample.
    """
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

    lanes = np.empty((len(_LANE_ROWS), n_ves))
    (v_in, gamma_p, gamma_l, gamma_s, gamma_h, c_switch, dep_threshold,
     th_in, cs_in, c_in, _, _) = lanes
    v_in[:] = [s.v_in for s in specs]
    gamma_p[:] = [r.pump_rate for r in rates]
    gamma_l[:] = [r.leak_rate for r in rates]
    gamma_s[:] = [r.symport_rate_substrate for r in rates]
    gamma_h[:] = [r.symport_rate_proton for r in rates]
    c_switch[:] = [r.switch_conc for r in rates]
    # a lane's threshold drops to 0 once it has reported depletion, so
    # the step's one test also finds the rare lanes to clamp at 0
    dep_threshold[:] = DEPLETION_FRACTION_OF_KM * km
    th_in[:] = total_conc_from_free(env_total.c_h_in0, b0, k_a) * v_in
    cs_in[:] = env_total.c_s_in0
    c_in[:] = free_proton_conc_array(th_in / v_in, b0, k_a)
    pool_th = total_conc_from_free(c_out0, b0, k_a) * v_pool
    c_pool = free_proton_conc(pool_th / v_pool, b0, k_a)
    pool = np.array([pool_th, 0.0, c_pool, dt, v_pool, b0, k_a, km, c_out0])
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
    log = _CrossingLog(n_ves + _LOG_ROOM)
    steps = _compiled_step()(lanes, above, pool, log)

    # every stride-th step from 0, and step n_steps
    n_rec = n_steps // stride + 1 + (1 if n_steps % stride else 0)
    rec_t = np.empty(n_rec)
    rec_chin = np.empty((n_rec, n_ves))
    rec_csin = np.empty((n_rec, n_ves))
    rec_pool_h = np.empty(n_rec)
    rec_pool_s = np.empty(n_rec)
    rec_light = np.empty(n_rec, dtype=int)

    crossings: list[list[tuple[float, int]]] = [[] for _ in range(n_ves)]
    events: list[list[Event]] = [[] for _ in range(n_ves)]
    drift = 0.0

    ri = 0
    for k0, k1, light in _step_blocks(signal, dt, n_steps, stride):
        if k0 % stride == 0 or k0 == n_steps:
            rec_t[ri] = k0 * dt
            rec_chin[ri] = c_in
            rec_csin[ri] = cs_in
            rec_pool_h[ri] = pool[2]
            rec_pool_s[ri] = pool[1] / v_pool
            rec_light[ri] = light
            ri += 1
            if until_settled:
                log.take(crossings)
            if k0 == n_steps or (until_settled and all(
                    schedule_is_final(signal, crossings[v],
                                      bool(active_at_start[v]), k0 * dt)
                    for v in range(n_ves))):
                break
        if k0 % 1000 == 1:  # the state after step k0 - 1
            drift = max(drift, inventory_drift())

        k = k0
        while k < k1:
            k = steps(k, k1, light)
            if k == k1:
                break
            # after step k a lane is low or the crossing log is full
            log.take(crossings)
            low = cs_in < dep_threshold
            under = cs_in < 0.0
            if under.any():
                pool[1] += (cs_in[under] * v_in[under]).sum()
                cs_in[under] = 0.0
            for v in np.flatnonzero(low):
                if dep_threshold[v] > 0.0:
                    events[v].append(Event(
                        "depletion", (k + 1) * dt,
                        "substrate clamped at 0" if under[v]
                        else "fell below reporting threshold"))
                    dep_threshold[v] = 0.0
            k += 1

    drift = max(drift, inventory_drift())
    log.take(crossings)
    if ri < n_rec:  # stopped once every schedule was final
        rec_t, rec_chin, rec_csin, rec_pool_h, rec_pool_s, rec_light = (
            a[:ri].copy() for a in (rec_t, rec_chin, rec_csin, rec_pool_h,
                                    rec_pool_s, rec_light))
    schedules = [schedule_from_crossings(signal, crossings[v],
                                         bool(active_at_start[v]))
                 for v in range(n_ves)]
    return SharedPoolResult(
        t=rec_t, c_h_in=rec_chin, c_s_in=rec_csin, pooled_c_h_out=rec_pool_h,
        pooled_c_s_out=rec_pool_s, schedules=schedules, events=events,
        conservation_drift=drift,
    ), rates, rec_light
