# runner.py
"""
Run execution and artifact persistence.

A scenario run produces a deterministic directory tree:

    <out>/
      manifest.json                 config echo + hashes, schedules,
                                    events, self-check results
      <run label>/
        trajectory_<solver>.csv     per-solver time series
        ensemble_stats.csv          ensemble mean/std/variance series
        shared_pool.csv             pooled-compartment baseline series

Identical config + seed reproduce byte-identical CSV files. Plot data is
emitted separately as tidy long-format (series, t, value) files with no
rendering dependency.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from itertools import starmap
from operator import itemgetter
from pathlib import Path

import numpy as np

from .analytic import run_analytic
from .config import RunConfig, config_hash, to_config_tree
from .ensemble import EnsembleResult, experiment_vesicles, run_ensemble
from .fdm import SharedPoolResult, simulate_mvs_shared_pool, simulate_svs
from .presets import Scenario
from .trajectory import (Trajectory, float_fields, fmt_float, sample_grid,
                         write_csv_columns, write_trajectory_csv)

OUT_ROOT_ENV = "VESIM_OUT_ROOT"


class SolverFailure(RuntimeError):
    """A solver failed while executing a run."""


def default_out_root() -> Path:
    return Path(os.environ.get(OUT_ROOT_ENV, "runs"))


def execute_run(cfg: RunConfig, workers: int = 1) -> dict:
    """Execute one RunConfig; returns trajectories and ensemble results."""
    out: dict = {"config": cfg, "trajectories": {}, "ensemble": None,
                 "shared_pool": None}
    if cfg.vesicle is not None:
        for solver in cfg.solvers:
            if solver == "fdm":
                traj = simulate_svs(cfg.vesicle, cfg.kinetics,
                                    cfg.environment, cfg.signal, cfg.fdm)
            else:
                traj = run_analytic(cfg.vesicle, cfg.kinetics,
                                    cfg.environment, cfg.signal, solver,
                                    sample_interval=cfg.sample_interval)
            out["trajectories"][solver] = traj
        return out

    # Population run: independent-vesicle ensemble, plus a shared-pool
    # baseline when 'fdm' is among the requested solvers. The baseline
    # reuses experiment 0's vesicle sample so the two are comparable.
    analytic_solvers = [s for s in cfg.solvers if s != "fdm"]
    solver = analytic_solvers[0] if analytic_solvers else "closed"
    sample_times = sample_grid(cfg.signal.horizon, cfg.sample_interval)
    out["ensemble"] = run_ensemble(cfg.population, cfg.kinetics,
                                   cfg.environment, cfg.signal, cfg.ensemble,
                                   solver=solver, sample_times=sample_times,
                                   workers=workers)
    if "fdm" in cfg.solvers:
        specs = experiment_vesicles(cfg.population, cfg.ensemble, 0)
        env_pool = dataclasses.replace(
            cfg.environment,
            v_out=cfg.ensemble.n_mod * cfg.ensemble.v_out_per_vesicle)
        out["shared_pool"] = simulate_mvs_shared_pool(
            specs, cfg.kinetics, env_pool, cfg.signal, cfg.fdm)
    return out


def _schedule_json(traj: Trajectory) -> list[dict]:
    return [{"t1": c.t1, "t2": c.t2, "t3": c.t3, "t4": c.t4,
             "type": c.cycle_type} for c in traj.schedule.cycles]


def _events_json(traj: Trajectory) -> list[dict]:
    return [{"kind": ev.kind, "t": ev.t, "info": ev.info}
            for ev in traj.events]


def _write_ensemble_csv(res: EnsembleResult, path: Path) -> None:
    header = ["t", "interex_mean_c_h_in", "interex_var_c_h_in",
              "interex_mean_c_s_out", "interex_var_c_s_out"]
    columns = [res.t, res.interex_mean_c_h_in, res.interex_var_c_h_in,
               res.interex_mean_c_s_out, res.interex_var_c_s_out]
    for q in range(res.per_exp_c_s_out.shape[0]):
        header += [f"exp{q}_mean_c_h_in", f"exp{q}_std_c_h_in",
                   f"exp{q}_c_s_out", f"exp{q}_std_c_s_out"]
        columns += [res.per_exp_mean_c_h_in[q], res.per_exp_std_c_h_in[q],
                    res.per_exp_c_s_out[q], res.per_exp_std_c_s_out[q]]
    write_csv_columns(path, header, [float_fields(c) for c in columns])


def _write_shared_pool_csv(res: SharedPoolResult, path: Path) -> None:
    write_csv_columns(path, ["t", "pooled_c_h_out", "pooled_c_s_out"],
                      [float_fields(res.t), float_fields(res.pooled_c_h_out),
                       float_fields(res.pooled_c_s_out)])


def run_scenario(scenario: Scenario, out_dir: Path | str | None = None,
                 workers: int = 1) -> tuple[Path, dict]:
    """Execute a scenario and persist its artifact set.

    Returns the output directory and the in-memory results keyed by run
    label. Raises SolverFailure if any run's solver errors out.
    """
    out = (Path(out_dir) if out_dir is not None
           else default_out_root() / scenario.name)
    out.mkdir(parents=True, exist_ok=True)

    results: dict[str, dict] = {}
    manifest: dict = {"scenario": scenario.name,
                      "description": scenario.description, "runs": {}}
    for cfg in scenario.runs:
        try:
            res = execute_run(cfg, workers=workers)
        except Exception as exc:
            raise SolverFailure(f"run {cfg.label!r}: "
                                f"{type(exc).__name__}: {exc}") from exc
        results[cfg.label] = res
        run_dir = out / _safe_name(cfg.label)
        run_dir.mkdir(exist_ok=True)
        entry: dict = {"config": to_config_tree(cfg),
                       "config_hash": config_hash(cfg),
                       "artifacts": [], "schedule": {}, "events": {}}
        for solver, traj in res["trajectories"].items():
            fname = f"trajectory_{solver}.csv"
            write_trajectory_csv(traj, run_dir / fname)
            entry["artifacts"].append(f"{run_dir.name}/{fname}")
            entry["schedule"][solver] = _schedule_json(traj)
            entry["events"][solver] = _events_json(traj)
            if solver == "fdm":
                entry["conservation_drift"] = traj.conservation_drift
        if res["ensemble"] is not None:
            fname = "ensemble_stats.csv"
            _write_ensemble_csv(res["ensemble"], run_dir / fname)
            entry["artifacts"].append(f"{run_dir.name}/{fname}")
            entry["ensemble"] = {
                "solver": res["ensemble"].solver,
                "n_mod": cfg.ensemble.n_mod, "n_ex": cfg.ensemble.n_ex,
                "n_ves": cfg.ensemble.n_ves, "seed": cfg.seed,
                "symport_start_median":
                    [float(x) for x in
                     res["ensemble"].symport_start_median],
            }
        if res["shared_pool"] is not None:
            fname = "shared_pool.csv"
            _write_shared_pool_csv(res["shared_pool"], run_dir / fname)
            entry["artifacts"].append(f"{run_dir.name}/{fname}")
            entry["shared_pool_conservation_drift"] = (
                res["shared_pool"].conservation_drift)
        manifest["runs"][cfg.label] = entry

    if scenario.self_check is not None:
        manifest["self_check"] = _jsonable(scenario.self_check(results))
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=True)
    return out, results


def write_sweep_artifacts(result, out_dir: Path | str | None = None) -> Path:
    """Persist a SweepResult as summary.csv + summary.json."""
    out = (Path(out_dir) if out_dir is not None
           else default_out_root() / result.name)
    out.mkdir(parents=True, exist_ok=True)
    cols: list[str] = []
    for row in result.rows:
        for key in row:
            if key not in cols and key != "traceback":
                cols.append(key)
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in result.rows:
            w.writerow([_csv_cell(row.get(c)) for c in cols])
    with open(out / "summary.json", "w") as fh:
        json.dump({"name": result.name, "summary": _jsonable(result.summary),
                   "rows": _jsonable(result.rows)}, fh, indent=2,
                  sort_keys=True)
    return out


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt_float(v)
    return v


def _safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in label)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


# --- plot data ----------------------------------------------------------------

class MissingArtifacts(FileNotFoundError):
    """Raised when a run directory lacks the expected series, or holds an
    input that is not a vesim artifact."""


_TRAJECTORY_SERIES = ("C_H_in", "C_S_in", "C_S_out", "light")
_POOL_SERIES = ("pooled_c_h_out", "pooled_c_s_out")
_ENSEMBLE_COLUMNS = ("interex_mean_c_h_in", "interex_mean_c_s_out",
                     "interex_var_c_h_in", "interex_var_c_s_out")
_ENSEMBLE_SERIES = ("interex_mean_c_h_in", "interex_mean_c_s_out",
                    "interex_mean_c_h_in+std", "interex_mean_c_h_in-std",
                    "interex_mean_c_s_out+std", "interex_mean_c_s_out-std")


def emit_plot_data(run_dir: Path | str) -> Path:
    """Flatten a run directory into one tidy (series, t, value) file.

    Trajectory files contribute light/C_H_in/C_S_in/C_S_out series per
    solver; ensemble files contribute mean and mean+/-std band series;
    shared-pool files their pooled series. The inputs must be vesim's own
    artifacts, whose fields are unquoted (`trajectory.write_csv_columns`):
    each is streamed to the output in file order, row by row, with its t
    and value fields copied verbatim. The output is moved into place only
    once complete, so a failed export leaves no partial file.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise MissingArtifacts(f"{run_dir} is not a directory")
    traj_files = sorted(run_dir.glob("**/trajectory_*.csv"))
    ens_files = sorted(run_dir.glob("**/ensemble_stats.csv"))
    pool_files = sorted(run_dir.glob("**/shared_pool.csv"))
    if not traj_files and not ens_files and not pool_files:
        raise MissingArtifacts(
            f"{run_dir} holds no trajectory_*.csv, ensemble_stats.csv or "
            "shared_pool.csv artifacts")

    def tag(path: Path) -> str:
        rel = path.relative_to(run_dir)
        return "/".join(rel.parts[:-1]) or "."

    out_path = run_dir / "plot_data.csv"
    part = out_path.with_name(out_path.name + ".part")
    try:
        with open(part, "w", newline="") as out:
            out.write("series,t,value\r\n")
            for path in traj_files:
                solver = path.stem.replace("trajectory_", "")
                _write_series(out, path, f"{tag(path)}/{solver}",
                              _TRAJECTORY_SERIES, _TRAJECTORY_SERIES)
            for path in ens_files:
                _write_series(out, path, tag(path), _ENSEMBLE_COLUMNS,
                              _ENSEMBLE_SERIES, _ensemble_bands)
            for path in pool_files:
                _write_series(out, path, tag(path), _POOL_SERIES,
                              _POOL_SERIES)
        part.replace(out_path)
    finally:
        part.unlink(missing_ok=True)  # left only by a failed export
    return out_path


def _write_series(out, path: Path, prefix: str, columns: tuple[str, ...],
                  series: tuple[str, ...], derive=None) -> None:
    """Write one input's (series, t, value) lines, row by row.

    Reads `columns` (and t) of each row; `derive` maps those fields to
    the values of `series`, which are the columns themselves without it.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    if '"' in text:
        raise MissingArtifacts(
            f"{path} holds a '\"', so it is not a vesim artifact")
    reader = csv.reader(io.StringIO(text, newline=""))
    index = {name: i for i, name in enumerate(next(reader, []))}
    for col in ("t",) + columns:
        if col not in index:
            raise MissingArtifacts(f"{path} has no column {col!r}")
    rows = map(itemgetter(*(index[c] for c in ("t",) + columns)), reader)
    if derive is not None:
        rows = map(derive, rows)
    # one str.format per input row; braces in a series name are literal
    line = "".join(
        _csv_field(f"{prefix}/{name}").replace("{", "{{").replace("}", "}}")
        + f",{{0}},{{{j}}}\r\n" for j, name in enumerate(series, 1))
    try:
        out.writelines(starmap(line.format, rows))
    except IndexError:
        raise MissingArtifacts(
            f"{path} has a row shorter than its header") from None


def _ensemble_bands(row: tuple[str, ...]) -> tuple[str, ...]:
    """t, the two means and their mean+/-std bands from the variances."""
    t, mean_h, mean_s, var_h, var_s = row
    bands = []
    for mean, var in ((mean_h, var_h), (mean_s, var_s)):
        std = float(var) ** 0.5
        bands += [fmt_float(float(mean) + std), fmt_float(float(mean) - std)]
    return (t, mean_h, mean_s, *bands)


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes a field: quoted only if it must be."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text
