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

import dataclasses
import io
import json
import math
import os
from itertools import repeat
from operator import add, sub
from pathlib import Path

import numpy as np

from . import native
from .analytic import run_analytic
from .config import ConfigError, RunConfig, config_hash, to_config_tree
from .ensemble import EnsembleResult, experiment_vesicles, run_ensemble
from .fdm import SharedPoolResult, simulate_mvs_shared_pool, simulate_svs
from .presets import Scenario
from .trajectory import (Trajectory, fmt_float, join_columns, sample_grid,
                         write_atomically, write_csv_columns,
                         write_trajectory_csv)

OUT_ROOT_ENV = "VESIM_OUT_ROOT"


class SolverFailure(RuntimeError):
    """A solver failed while executing a run."""


def make_out_dir(out_dir: Path | str | None, name: str) -> Path:
    """`out_dir`, else `name` under $VESIM_OUT_ROOT (default ./runs); made
    if missing."""
    root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
    out = Path(out_dir) if out_dir is not None else root / name
    out.mkdir(parents=True, exist_ok=True)
    return out


def execute_run(cfg: RunConfig, workers: int = 1) -> dict:
    """Execute one RunConfig; returns trajectories and ensemble results."""
    out: dict = {"config": cfg, "trajectories": {}, "ensemble": None,
                 "shared_pool": None}
    sample_times = sample_grid(cfg.signal.horizon, cfg.sample_interval)
    if cfg.vesicle is not None:
        for solver in cfg.solvers:
            if solver == "fdm":
                traj = simulate_svs(cfg.vesicle, cfg.kinetics,
                                    cfg.environment, cfg.signal, cfg.fdm)
            else:
                traj = run_analytic(cfg.vesicle, cfg.kinetics,
                                    cfg.environment, cfg.signal, solver,
                                    sample_times=sample_times)
            out["trajectories"][solver] = traj
        return out

    # Population run: independent-vesicle ensemble, plus a shared-pool
    # baseline when 'fdm' is among the requested solvers. The baseline
    # reuses experiment 0's vesicle sample so the two are comparable.
    analytic_solvers = [s for s in cfg.solvers if s != "fdm"]
    solver = analytic_solvers[0] if analytic_solvers else "closed"
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
    write_csv_columns(path, header, columns)


def _write_shared_pool_csv(res: SharedPoolResult, path: Path) -> None:
    write_csv_columns(path, ["t", "pooled_c_h_out", "pooled_c_s_out"],
                      [res.t, res.pooled_c_h_out, res.pooled_c_s_out])


def run_scenario(scenario: Scenario, out_dir: Path | str | None = None,
                 workers: int = 1) -> tuple[Path, dict]:
    """Execute a scenario and persist its artifact set.

    Returns the output directory and the in-memory results keyed by run
    label. Raises ConfigError before any run if two runs would write one
    run directory, and SolverFailure if any run's solver errors out.
    """
    labels: dict[str, str] = {}
    for cfg in scenario.runs:
        name = _safe_name(cfg.label)
        if name in labels:
            raise ConfigError(f"runs {labels[name]!r} and {cfg.label!r} "
                              f"share the run directory {name!r}")
        labels[name] = cfg.label
    out = make_out_dir(out_dir, _on_disk(scenario.name))

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
        name = _safe_name(cfg.label)
        run_dir = out / _on_disk(name)
        run_dir.mkdir(exist_ok=True)
        entry: dict = {"config": to_config_tree(cfg),
                       "config_hash": config_hash(cfg),
                       "artifacts": [], "schedule": {}, "events": {}}
        for solver, traj in res["trajectories"].items():
            fname = f"trajectory_{solver}.csv"
            write_trajectory_csv(traj, run_dir / fname)
            entry["artifacts"].append(f"{name}/{fname}")
            entry["schedule"][solver] = _schedule_json(traj)
            entry["events"][solver] = _events_json(traj)
            if solver == "fdm":
                entry["conservation_drift"] = traj.conservation_drift
        if res["ensemble"] is not None:
            fname = "ensemble_stats.csv"
            _write_ensemble_csv(res["ensemble"], run_dir / fname)
            entry["artifacts"].append(f"{name}/{fname}")
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
            entry["artifacts"].append(f"{name}/{fname}")
            entry["shared_pool_conservation_drift"] = (
                res["shared_pool"].conservation_drift)
        manifest["runs"][cfg.label] = entry

    if scenario.self_check is not None:
        manifest["self_check"] = scenario.self_check(results)
    with write_atomically(out / "manifest.json") as fh:
        json.dump(_jsonable(manifest), fh, indent=2, sort_keys=True,
                  allow_nan=False)
    return out, results


def write_sweep_artifacts(result, out_dir: Path | str | None = None) -> Path:
    """Persist a SweepResult as summary.csv + summary.json; summary.csv
    holds `csv.writer`'s bytes, but for a row of one empty field ('""'
    there), which no sweep row is (each holds its point)."""
    out = make_out_dir(out_dir, result.name)
    cols: list[str] = []
    for row in result.rows:
        for key in row:
            if key not in cols and key != "traceback":
                cols.append(key)
    write_csv_columns(out / "summary.csv", list(map(_csv_cell, cols)),
                      [[_csv_cell(row.get(c)) for row in result.rows]
                       for c in cols])
    with write_atomically(out / "summary.json") as fh:
        json.dump({"name": result.name, "summary": _jsonable(result.summary),
                   "rows": _jsonable(result.rows)}, fh, indent=2,
                  sort_keys=True, allow_nan=False)
    return out


def _csv_cell(v) -> str:
    """One sweep summary value as a finished CSV field."""
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt_float(v)
    return _csv_field(str(v))


def _safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in label)


def _jsonable(obj):
    """`obj` in types `json` writes as strict JSON: a non-finite float
    becomes null, for which JSON has no number."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
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
    artifacts (`trajectory.write_csv_columns`): unquoted fields, lines
    ending in '\\r\\n', as many fields in each as in the header. Each is
    streamed to the output in file order, with its t and value fields
    copied verbatim. Inputs are read as UTF-8, and a series is named by
    the bytes of its input's path, whatever the locale. The output is
    written through `write_atomically`, so a failed export leaves no
    partial file.
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
        return _as_written(path.relative_to(run_dir).parent)

    out_path = run_dir / "plot_data.csv"
    with write_atomically(out_path) as fh:
        out = fh.buffer
        out.write(b"series,t,value\r\n")
        for path in traj_files:
            solver = _as_written(path.stem).replace("trajectory_", "")
            _write_series(out, path, f"{tag(path)}/{solver}",
                          _TRAJECTORY_SERIES, _TRAJECTORY_SERIES)
        for path in ens_files:
            _write_series(out, path, tag(path), _ENSEMBLE_COLUMNS,
                          _ENSEMBLE_SERIES, _ensemble_bands)
        for path in pool_files:
            _write_series(out, path, tag(path), _POOL_SERIES, _POOL_SERIES)
    return out_path


def _as_written(name) -> str:
    """A path as the UTF-8 reading of its bytes (lone bytes as
    surrogates), which the export writes back as they were."""
    return os.fsencode(name).decode(errors="surrogateescape")


def _on_disk(name: str) -> str:
    """The path name whose bytes are `name` in UTF-8: `_as_written`'s
    inverse, so a name reads the same in any locale."""
    return os.fsdecode(name.encode(errors="surrogateescape"))


def _write_series(out, path: Path, prefix: str, columns: tuple[str, ...],
                  series: tuple[str, ...], derive=None) -> None:
    """Write one input's (series, t, value) lines to the binary `out`.

    Reads the input in blocks of whole lines (`_line_blocks`). The
    compiled copier (`native`) copies the t and `columns` fields of a
    block. The text path (`_fields`, `join_columns`) takes a block the
    copier refuses, and names its fault; and every block where there is
    no copier, or a `derive`, which maps the columns to the columns of
    `series` (without it they are the columns themselves).
    """
    heads = [_csv_field(f"{prefix}/{name}") for name in series]
    with open(path, "rb") as fh:
        # the first line as text mode splits it, at a lone '\\r' too
        header = io.StringIO(fh.readline().decode(), newline="").readline()
        fh.seek(len(header.encode()))
        names = _fields(path, [header], 1, header.count(",") + 1)[:-1]
        index = {name: i for i, name in enumerate(names)}
        for col in ("t",) + columns:
            if col not in index:
                raise MissingArtifacts(f"{path} has no column {col!r}")
        pick = [index[c] for c in ("t",) + columns]
        copy = None
        if derive is None and (lib := native.library()) is not None:
            copy = lib.field_copier(
                [h.encode(errors="surrogateescape") for h in heads], pick,
                len(names))
        first, stride = 2, len(names) + 1
        for block in _line_blocks(fh):
            if copy is not None and (copied := copy(block)) is not None:
                out.write(copied[0])
                first += copied[1]
                continue
            lines = io.StringIO(block.decode(), newline="").readlines()
            fields = _fields(path, lines, first, len(names))
            first += len(lines)
            t, *values = (fields[i::stride] for i in pick)
            if derive is not None:
                values = derive(*values)
            out.write(join_columns(
                [col for head, value in zip(heads, values)
                 for col in ([head] * len(t), t, value)],
                [",", ",", "\r\n"] * len(series)).encode(
                    errors="surrogateescape"))


_READ_BYTES = 1 << 16  # what the plot export reads of an input at once


def _line_blocks(fh):
    """The rest of binary file `fh` in blocks of whole lines, each
    ending in '\\n' but maybe the last."""
    rest = b""
    while more := fh.read(_READ_BYTES):
        end = more.rfind(b"\n") + 1
        if end:
            yield rest + more[:end]
            rest = more[end:]
        else:
            rest += more
    if rest:
        yield rest


def _fields(path: Path, lines: list[str], first: int,
            width: int) -> list[str]:
    """The fields of `lines`, each line's `width` fields and then '\\n'.

    Raises MissingArtifacts naming `path` and the first line (numbered
    from `first`) that holds a '"', does not end in '\\r\\n' or holds
    another number of fields.
    """
    text, n = "".join(lines), len(lines)
    # each line end becomes a '\n' field: a line holds no other '\n'
    fields = text.replace("\r\n", ",\n,").split(",")[:-1]
    if ('"' in text or text.count("\r\n") != n
            or len(fields) != (width + 1) * n
            or fields[width::width + 1].count("\n") != n):
        for no, line in enumerate(lines, first):
            count = line.count(",") + 1
            if '"' in line:
                why = "holds a '\"', so it is not a vesim artifact"
            elif not line.endswith("\r\n"):
                why = "does not end in '\\r\\n'"
            elif count != width:
                why = (f"is {'shorter' if count < width else 'longer'} than"
                       f" its header (fields: {count}, header: {width})")
            else:
                continue
            raise MissingArtifacts(f"{path} line {no} {why}")
    return fields


def _ensemble_bands(mean_h, mean_s, var_h, var_s) -> list[list[str]]:
    """The two means and their mean+/-std bands from the variances."""
    bands = []
    for mean, var in ((mean_h, var_h), (mean_s, var_s)):
        std = list(map(pow, map(float, var), repeat(0.5)))
        for op in (add, sub):
            bands.append(list(map(fmt_float, map(op, map(float, mean), std))))
    return [mean_h, mean_s, *bands]


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes a field: quoted only if it must be."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text
