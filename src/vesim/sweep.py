# sweep.py
"""
Parameter sweeps: symport-duration scans and ensemble sensitivity studies.

  fig6   symport duration and released substrate vs illumination duration
         for several symport rate constants and membrane permeabilities
  fig10  ensemble response for mean inner diameters of 100/500/1000 nm
  fig11  ensemble response for mean permeabilities of 1/5/10 x 1e-6 m/s

Each sweep yields one row per point; per-point failures are recorded in
the row and do not abort the sweep. fig6's closed points run as one
`run_analytic_batch` call per kinetics, each point a lane with its own
permeability and light signal; a point whose inputs break a model
condition is an error row before the batch runs. All points then
cross-check their closed symport durations in one FDM call
(`simulate_svs_batch`), each point a lane with its own pool, kinetics,
light and horizon; a point that the FDM refuses alone is an error row.
"""

from __future__ import annotations

import dataclasses
import math
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analytic import run_analytic_batch
from .ensemble import PopulationDistributions
from .fdm import FdmConfig, simulate_svs_batch
from .model import (VesicleLanes, default_environment, default_kinetics,
                    default_vesicle)
from .presets import fig9_scenario
from .runner import execute_run
from .schedule import LightSignal


@dataclass
class SweepSpec:
    name: str
    description: str
    kind: str                                  # 'illumination' | 'ensemble'
    points: list[dict] = field(default_factory=list)
    seed: int = 0


@dataclass
class SweepResult:
    name: str
    rows: list[dict]
    summary: dict


# --- fig6 --------------------------------------------------------------------

FIG6_DURATIONS = (15.0, 30.0, 45.0, 60.0, 90.0, 120.0, 180.0, 240.0,
                  300.0, 400.0, 500.0, 600.0)
FIG6_COMBOS = ((0.005, 3e-6), (0.006, 3e-6), (0.008, 3e-6),
               (0.006, 5e-6), (0.006, 1e-5))
FIG6_TAIL = 800.0  # dark margin after the illumination window


def fig6_sweep(seed: int = 0) -> SweepSpec:
    points = [{"symport_rate": g_sym, "permeability": g_l, "duration": d}
              for (g_sym, g_l) in FIG6_COMBOS for d in FIG6_DURATIONS]
    return SweepSpec(
        name="fig6",
        description="symport duration vs illumination duration for symport "
                    "rates 0.005/0.006/0.008 1/s and permeabilities "
                    "3/5/10 x 1e-6 m/s",
        kind="illumination", points=points, seed=seed)


def _fig6_inputs(point: dict):
    """A fig6 point's vesicle, kinetics and light signal, or a raise."""
    dur = point["duration"]
    return (dataclasses.replace(default_vesicle(),
                                permeability=point["permeability"]),
            dataclasses.replace(default_kinetics(),
                                symport_rate_per_protein=point["symport_rate"]),
            LightSignal([(0.0, dur)], horizon=dur + FIG6_TAIL))


# fig6 reads only the FDM schedules, which no record stride moves: a
# stride past every horizon records each lane's first and last state
FIG6_FDM = FdmConfig(dt=1e-2, record_stride=2**30)


def _fig6_closed(rows: list[dict], runs: list[tuple]) -> None:
    """Adds the closed columns to the rows of `runs`, or makes them error
    rows.

    The points of one kinetics run as one batch sampled on {0} and their
    durations, which must lie within the smallest horizon of its lanes:
    the points past it form the next batch.
    """
    lanes = {}  # kinetics -> [(duration, row, vesicle, signal)]
    for k, spec, kin, signal in runs:
        lanes.setdefault(kin, []).append((rows[k]["duration"], k, spec,
                                          signal))
    for kin, todo in lanes.items():
        todo.sort()  # by duration, then row: no two lanes tie
        while todo:
            fit = [lane for lane in todo if lane[0] <= todo[0][3].horizon]
            todo = todo[len(fit):]
            durations, ks, specs, signals = zip(*fit)
            try:
                grid = np.unique((0.0, *durations))
                batch = run_analytic_batch(
                    VesicleLanes.of(specs), kin, default_environment(),
                    signals, "closed", grid)
            except Exception as exc:  # noqa: BLE001 - per-batch isolation
                for k in ks:
                    rows[k] = _error_row(rows[k], exc)
                continue
            c_s_out = batch.c_s_out[np.arange(len(ks)),
                                    np.searchsorted(grid, durations)]
            for k, t2, t4, c_s, t_dep in zip(
                    ks, batch.t2[:, 0].tolist(), batch.t4[:, 0].tolist(),
                    c_s_out.tolist(), batch.depletion_time.tolist()):
                rows[k].update(t2_closed=t2, t4_closed=t4,
                               symport_duration_closed=t4 - t2,
                               c_s_out_end_illumination=c_s,
                               depletion_time=None if math.isnan(t_dep)
                               else t_dep)


def _fig6_fdm(rows: list[dict], runs: list[tuple]) -> None:
    """Adds the FDM symport duration to the rows of `runs`, or makes them
    error rows.

    A point that the FDM refuses alone (`FdmConfig.check_stability`) is
    an error row; the others run as independent lanes of one
    `simulate_svs_batch` call, each to its own horizon.
    """
    env, ok = default_environment(), []
    for k, spec, kin, signal in runs:
        if "error" in rows[k]:
            continue
        try:
            FIG6_FDM.check_stability(spec, kin, env)
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            rows[k] = _error_row(rows[k], exc)
            continue
        ok.append((k, spec, kin, signal))
    if not ok:
        return
    ks, specs, kins, signals = zip(*ok)
    try:
        trajs = simulate_svs_batch(VesicleLanes.of(specs), kins, env,
                                   signals, FIG6_FDM)
    except Exception as exc:  # noqa: BLE001 - per-batch isolation
        for k in ks:
            rows[k] = _error_row(rows[k], exc)
        return
    for k, traj in zip(ks, trajs):
        rows[k]["symport_duration_fdm"] = \
            traj.schedule.cycles[0].symport_duration


# --- fig10 / fig11 -----------------------------------------------------------

FIG10_DIAMETERS_NM = (100.0, 500.0, 1000.0)
FIG11_PERMEABILITIES = (1e-6, 5e-6, 1e-5)


def fig10_sweep(seed: int = 0) -> SweepSpec:
    points = [{"d_mean_nm": d} for d in FIG10_DIAMETERS_NM]
    return SweepSpec(name="fig10",
                     description="ensemble sensitivity to the mean inner "
                                 "vesicle diameter (100/500/1000 nm)",
                     kind="ensemble", points=points, seed=seed)


def fig11_sweep(seed: int = 0) -> SweepSpec:
    points = [{"g_l_mean": g} for g in FIG11_PERMEABILITIES]
    return SweepSpec(name="fig11",
                     description="ensemble sensitivity to the mean membrane "
                                 "permeability (1/5/10 x 1e-6 m/s)",
                     kind="ensemble", points=points, seed=seed)


def _population_for_point(point: dict) -> PopulationDistributions:
    pop = PopulationDistributions()
    if "d_mean_nm" in point:
        pop = dataclasses.replace(
            pop, diameter=pop.diameter.with_mean(point["d_mean_nm"] * 1e-9))
    if "g_l_mean" in point:
        pop = dataclasses.replace(
            pop, permeability=pop.permeability.with_mean_log10(
                math.log10(point["g_l_mean"])))
    return pop


def _ensemble_point(point: dict, seed: int) -> dict:
    """fig9's closed ensemble on a 20 s grid, for the point's population."""
    cfg = dataclasses.replace(fig9_scenario(seed).runs[0],
                              solvers=("closed",), sample_interval=20.0,
                              population=_population_for_point(point))
    res = execute_run(cfg)["ensemble"]
    t_end_ill = cfg.signal.intervals[0][1]
    row = dict(point)
    row["peak_interex_mean_c_h_in"] = float(np.max(res.interex_mean_c_h_in))
    row["c_h_in_end_illumination"] = res.value_at(res.interex_mean_c_h_in,
                                                  t_end_ill)
    row["median_symport_start"] = float(np.median(res.symport_start_median))
    row["median_symport_end"] = float(np.nanmedian(res.symport_end_median))
    row["terminal_interex_mean_c_s_out"] = float(
        res.interex_mean_c_s_out[-1])
    row["terminal_interex_var_c_s_out"] = float(res.interex_var_c_s_out[-1])
    row["c_s_out_end_illumination"] = res.value_at(res.interex_mean_c_s_out,
                                                   t_end_ill)
    return row


# --- driver -------------------------------------------------------------------

def _error_row(point: dict, exc: Exception) -> dict:
    """`point` with the error it raised; call it while handling `exc`."""
    row = dict(point)
    row["error"] = f"{type(exc).__name__}: {exc}"
    row["traceback"] = traceback.format_exc(limit=3)
    return row


def run_sweep(sweep: SweepSpec) -> SweepResult:
    """Execute every sweep point in order; a failing point does not abort.

    A fig6 point whose inputs raise is an error row before any batch
    runs; the others run as `_fig6_closed` batches, and `_fig6_fdm`
    cross-checks the rows these leave without an error. An ensemble
    sweep runs each point's ensemble, and a point that raises becomes its
    error row.
    """
    rows, runs = [], []  # fig6's runs: (row, vesicle, kinetics, signal)
    for k, point in enumerate(sweep.points):
        try:
            if sweep.kind == "illumination":
                runs.append((k, *_fig6_inputs(point)))
                rows.append(dict(point))
            else:
                rows.append(_ensemble_point(point, sweep.seed))
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            rows.append(_error_row(point, exc))
    _fig6_closed(rows, runs)
    _fig6_fdm(rows, runs)
    return SweepResult(name=sweep.name, rows=rows,
                       summary=_summarize(sweep, rows))


def _line_fit(xs, ys) -> tuple[float, float]:
    """Slope and R^2 of the least-squares line through (xs, ys), from
    centred `math.fsum` sums (slope = Sxy/Sxx): no BLAS or LAPACK call,
    so no CPU-specific kernel can move a bit."""
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    dy = [y - y_mean for y in ys]
    slope = (math.fsum(a * b for a, b in zip(dx, dy))
             / math.fsum(a * a for a in dx))
    ss_tot = math.fsum(b * b for b in dy)
    ss_res = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    return slope, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _summarize(sweep: SweepSpec, rows: list[dict]) -> dict:
    ok = [r for r in rows if "error" not in r]
    summary: dict = {"points": len(rows), "failed": len(rows) - len(ok)}
    if sweep.kind == "illumination":
        groups: dict = {}  # the rows of each combo, in first-seen order
        for r in ok:
            groups.setdefault((r["symport_rate"], r["permeability"]),
                              []).append(r)
        by_combo: dict = {}
        for (g_sym, g_l), sel in groups.items():
            key = f"gamma_sym={g_sym:g},g_l={g_l:g}"
            # symport starts at the cold-start crossing of every point
            # whose light outlasts it; inf where no point triggers symport
            t_min = next((r["t2_closed"] for r in sel
                          if r["symport_duration_closed"] > 0), math.inf)
            entry = {"min_illumination_time": float(t_min)}
            fit = [(r["duration"], r["symport_duration_closed"])
                   for r in sel if r["duration"] > t_min]
            if len(fit) >= 3:
                (entry["linear_fit_slope"],
                 entry["linear_fit_r2"]) = _line_fit(*zip(*fit))
            by_combo[key] = entry
        summary["combos"] = by_combo
    else:
        # rows are keyed by the population parameter each point sets
        key = next(iter(sweep.points[0])) if sweep.points else None
        summary["ordering_key"] = key
        summary["rows"] = {f"{r[key]:g}": {k: v for k, v in r.items()
                                           if k != key} for r in ok}
    return summary


SWEEP_PRESETS: dict[str, Callable[..., SweepSpec]] = {
    "fig6": fig6_sweep,
    "fig10": fig10_sweep,
    "fig11": fig11_sweep,
}
