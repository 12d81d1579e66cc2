# presets.py
"""
Scenario presets reproducing the reference evaluations.

Each run preset yields a list of labeled RunConfigs plus a self-check
that is executed after the runs and written into the manifest:

  fig3  buffer-molarity sweep of the energizing module (no symporters)
  fig4  light pattern producing all three cycle types (b), (a), (c), (c)
  fig5  low-cargo depletion study at a 1:1 pump/symporter split
  fig9  population ensemble vs mean-parameter vesicle

Sweep presets (fig6, fig10, fig11) live in vesim.sweep.

The reference parameter tables do not publish the fig4 light pattern;
the windows here are chosen so the asserted type sequence emerges at
default parameters, and the assertion is part of the preset self-check.
Similarly fig5 uses 500 s illumination per 1200 s cycle, which places
substrate depletion around t = 6450 s.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import RunConfig
from .ensemble import EnsembleConfig, PopulationDistributions
from .fdm import FdmConfig, stable_dt
from .model import (Environment, VesicleSpec, default_environment,
                    default_kinetics, default_vesicle)
from .schedule import LightSignal

RECORD_INTERVAL = 0.1  # seconds between stored samples in run presets


@dataclass
class Scenario:
    name: str
    description: str
    runs: list[RunConfig]
    self_check: Callable[[dict], dict] | None = None


def _svs_config(label: str, spec: VesicleSpec, env: Environment,
                signal: LightSignal, seed: int = 0,
                sample_interval: float = RECORD_INTERVAL) -> RunConfig:
    """A single-vesicle run of all three solvers on the default kinetics."""
    kin = default_kinetics()
    dt = 1e-2
    limit = stable_dt(spec, kin, env)
    if dt > limit:  # unbuffered runs are too stiff for the baseline step
        dt = limit
    stride = max(1, int(round(sample_interval / dt)))
    return RunConfig(solvers=("fdm", "exact", "closed"), seed=seed,
                     vesicle=spec, population=None, kinetics=kin,
                     environment=env, signal=signal,
                     fdm=FdmConfig(dt=dt, record_stride=stride),
                     sample_interval=sample_interval, ensemble=None,
                     label=label)


# --- fig3: buffer molarity sweep -------------------------------------------

FIG3_BUFFERS = (0.0, 10.0, 20.0, 100.0)


def fig3_scenario(seed: int = 0) -> Scenario:
    spec = dataclasses.replace(default_vesicle(), n_sym=0)
    signal = LightSignal([(0.0, 600.0)], horizon=1200.0)
    runs = []
    for b0 in FIG3_BUFFERS:
        env = default_environment(buffer_total=b0)
        runs.append(_svs_config(f"B0={b0:g}", spec, env, signal, seed=seed))
    return Scenario(
        name="fig3",
        description="intravesicular H+ response for buffer molarities "
                    f"{FIG3_BUFFERS}, energizing module only",
        runs=runs, self_check=_fig3_check)


def _fig3_check(results: dict) -> dict:
    terminal_dev = {}
    for label, res in results.items():
        fdm = res["trajectories"]["fdm"]
        rates = fdm.derived
        c_eq = (res["config"].environment.c_h_out0
                + rates.pump_rate / rates.leak_rate)
        k = int(np.argmin(np.abs(fdm.t - 600.0)))
        terminal_dev[label] = float(abs(fdm.c_h_in[k] - c_eq) / c_eq)
    check = {"terminal_relative_deviation_from_equilibrium": terminal_dev}
    order = [f"B0={b:g}" for b in FIG3_BUFFERS]
    for solver in ("fdm", "closed"):
        slopes = {}
        for label, res in results.items():
            traj = res["trajectories"][solver]
            slopes[label] = float(abs(traj.c_h_in[1] - traj.c_h_in[0])
                                  / (traj.t[1] - traj.t[0]))
        check[f"initial_slope_{solver}"] = slopes
        check[f"slopes_strictly_decreasing_{solver}"] = all(
            slopes[a] > slopes[b] for a, b in zip(order, order[1:]))
    return check


# --- fig4: all three cycle types --------------------------------------------

FIG4_WINDOWS = ((10.0, 35.0), (50.0, 80.0), (110.0, 140.0), (150.0, 180.0))
FIG4_EXPECTED_TYPES = ["b", "a", "c", "c"]


def fig4_scenario(seed: int = 0) -> Scenario:
    signal = LightSignal(FIG4_WINDOWS, horizon=250.0)
    runs = [_svs_config("fig4", default_vesicle(), default_environment(),
                        signal, seed=seed)]
    return Scenario(
        name="fig4",
        description="light pattern driving cycle types (b), (a), (c), (c)",
        runs=runs, self_check=_fig4_check)


def _fig4_check(results: dict) -> dict:
    res = results["fig4"]
    out: dict = {"expected_types": FIG4_EXPECTED_TYPES}
    fdm = res["trajectories"]["fdm"]
    for solver, traj in res["trajectories"].items():
        out[f"types_{solver}"] = traj.schedule.types()
        out[f"types_match_{solver}"] = (traj.schedule.types()
                                        == FIG4_EXPECTED_TYPES)
    devs = {}
    for solver in ("exact", "closed"):
        ana = res["trajectories"][solver]
        devs[solver] = max(
            max(abs(cf.t2 - ca.t2), abs(cf.t4 - ca.t4))
            for cf, ca in zip(fdm.schedule.cycles, ana.schedule.cycles))
    out["max_crossing_deviation_vs_fdm_s"] = {k: float(v)
                                              for k, v in devs.items()}
    # substrate release flat in the type-(b) cycle, rising under symport
    t, cs = fdm.t, fdm.c_s_out
    b_cycle = fdm.schedule.cycles[0]
    in_b = (t >= b_cycle.t1) & (t <= b_cycle.t4)
    out["c_s_out_constant_in_type_b"] = bool(
        np.allclose(cs[in_b], cs[in_b][0], rtol=1e-12, atol=1e-30))
    rising = []
    for lo, hi in fdm.schedule.symport_intervals():
        seg = cs[(t > lo) & (t <= hi)]
        rising.append(bool(np.all(np.diff(seg) > 0)))
    out["c_s_out_strictly_increasing_in_symport"] = all(rising)
    return out


# --- fig5: substrate depletion ----------------------------------------------

FIG5_CYCLES = 7
FIG5_ON = 500.0
FIG5_PERIOD = 1200.0


def fig5_scenario(seed: int = 0) -> Scenario:
    spec = dataclasses.replace(default_vesicle(), n_pumps=35, n_sym=35)
    env = default_environment(c_s_in0=3.14)
    signal = LightSignal(
        [(i * FIG5_PERIOD, i * FIG5_PERIOD + FIG5_ON)
         for i in range(FIG5_CYCLES)],
        horizon=FIG5_CYCLES * FIG5_PERIOD)
    runs = [_svs_config("fig5", spec, env, signal, seed=seed,
                        sample_interval=0.5)]
    return Scenario(
        name="fig5",
        description="substrate depletion at 1:1 pump/symporter split and "
                    "3.14 mol/m^3 cargo",
        runs=runs, self_check=_fig5_check)


def _fig5_check(results: dict) -> dict:
    res = results["fig5"]
    fdm = res["trajectories"]["fdm"]
    c_s0 = res["config"].environment.c_s_in0
    out: dict = {"depletion_time": {}}
    for solver, traj in res["trajectories"].items():
        out["depletion_time"][solver] = traj.depletion_time()
    for solver in ("exact", "closed"):
        traj = res["trajectories"].get(solver)
        if traj is None:
            continue
        f = np.interp(traj.t, fdm.t, fdm.c_s_in)
        out[f"max_c_s_in_error_rel_initial_{solver}"] = float(
            np.max(np.abs(traj.c_s_in - f)) / c_s0)
    return out


# --- fig9: ensemble vs mean-parameter vesicle --------------------------------

FIG9_SIGNAL = ((0.0, 800.0),)
FIG9_HORIZON = 1600.0


def fig9_scenario(seed: int = 0, n_mod: int = 100, n_ex: int = 10) -> Scenario:
    pop = PopulationDistributions()
    ens = EnsembleConfig(n_mod=n_mod, n_ex=n_ex, seed=seed)
    env = default_environment(v_out=ens.v_out_per_vesicle)
    cfg = RunConfig(
        solvers=("closed", "fdm"), seed=seed, vesicle=None, population=pop,
        kinetics=default_kinetics(), environment=env,
        signal=LightSignal(FIG9_SIGNAL, horizon=FIG9_HORIZON),
        fdm=FdmConfig(dt=1e-2, record_stride=1000),
        sample_interval=10.0, ensemble=ens, label="fig9")
    return Scenario(
        name="fig9",
        description="inter-vesicle and inter-experiment statistics of a "
                    f"{n_mod}-vesicle ensemble over {n_ex} experiments",
        runs=[cfg], self_check=_fig9_check)


def _fig9_check(results: dict) -> dict:
    res = results["fig9"]
    ens = res["ensemble"]
    t_end_ill = FIG9_SIGNAL[0][1]
    k = int(np.argmin(np.abs(ens.t - t_end_ill)))
    mean_cs = float(ens.interex_mean_c_s_out[k])
    ref_cs = float(np.interp(t_end_ill, ens.mean_param_traj.t,
                             ens.mean_param_traj.c_s_out))
    out = {
        "interex_mean_c_s_out_at_end_of_illumination": mean_cs,
        "mean_parameter_c_s_out_at_end_of_illumination": ref_cs,
        "ensemble_exceeds_mean_parameter": bool(mean_cs > ref_cs),
        "terminal_interex_variance_c_s_out":
            float(ens.interex_var_c_s_out[-1]),
    }
    pool = res.get("shared_pool")
    if pool is not None:
        grid = ens.t
        pooled = np.interp(grid, pool.t, pool.pooled_c_s_out)
        scale = max(float(np.max(np.abs(ens.interex_mean_c_s_out))), 1e-300)
        out["shared_pool_vs_independent_max_rel"] = float(
            np.max(np.abs(pooled - ens.per_exp_c_s_out[0]) / scale))
    return out


RUN_PRESETS: dict[str, Callable[..., Scenario]] = {
    "fig3": fig3_scenario,
    "fig4": fig4_scenario,
    "fig5": fig5_scenario,
    "fig9": fig9_scenario,
}


def describe_presets() -> list[tuple[str, str, str]]:
    """(name, kind, description) rows for every registered preset."""
    from .sweep import SWEEP_PRESETS
    rows = []
    for name, builder in sorted(RUN_PRESETS.items()):
        rows.append((name, "run", builder().description))
    for name, builder in sorted(SWEEP_PRESETS.items()):
        rows.append((name, "sweep", builder().description))
    return rows
