# trajectory.py
"""
Time-series container shared by the finite-difference and analytical
solvers, plus its CSV schema and the artifact format (`write_csv_columns`)
that every vesim CSV writer but the sweep summary uses.

Columns written: t, C_H_in, C_H_out, C_S_in, C_S_out, phase, cycle, light
(all SI, full double precision), with a trailing `solver` column for the
analytical solvers so mixed run directories stay self-describing.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .model import DerivedRates
from .schedule import CycleSchedule


@dataclass
class Event:
    """Timestamped solver event, e.g. substrate depletion."""

    kind: str
    t: float
    info: str = ""


@dataclass
class Trajectory:
    """Sampled concentrations of one vesicle with phase annotations.

    Attributes:
        t: sample times (s)
        c_h_in/c_h_out: free H+ concentrations (mol/m^3)
        c_s_in/c_s_out: substrate concentrations (mol/m^3)
        light: 0/1 illumination flag per sample
        cycle/phase: cycle index (1-based) and phase label per sample
        schedule: resolved cycle boundary times
        events: depletion and anomaly events
        solver: 'fdm', 'exact' or 'closed'
        derived: the rates/inventories the run was computed with
        conservation_drift: max relative drift of the H+ and substrate
            inventories (FDM only; 0 for the analytical solvers)
    """

    t: np.ndarray
    c_h_in: np.ndarray
    c_h_out: np.ndarray
    c_s_in: np.ndarray
    c_s_out: np.ndarray
    light: np.ndarray
    cycle: np.ndarray
    phase: list[str]
    schedule: CycleSchedule
    solver: str
    derived: DerivedRates
    events: list[Event] = field(default_factory=list)
    conservation_drift: float = 0.0

    def __len__(self) -> int:
        return len(self.t)

    def depletion_time(self) -> float | None:
        for ev in self.events:
            if ev.kind == "depletion":
                return ev.t
        return None


CSV_COLUMNS = ("t", "C_H_in", "C_H_out", "C_S_in", "C_S_out",
               "phase", "cycle", "light")


def fmt_float(x: float) -> str:
    """One float as an artifact field: its shortest round-trip `repr`."""
    return repr(float(x))


def float_fields(values) -> Iterable[str]:
    """`fmt_float` over a float column, with no Python call per value."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def int_fields(values) -> Iterable[str]:
    """An integer column as artifact fields."""
    return map(str, np.asarray(values).astype(int).tolist())


def write_csv_columns(path, header: Sequence[str],
                      columns: Sequence[Iterable[str]]) -> None:
    """Write one artifact CSV from its columns of finished fields.

    This is vesim's artifact format: floats as `float_fields`, fields
    joined by ',' and lines ending in '\\r\\n', with no quoting, because
    no vesim field needs it (float reprs, ints, phase labels, solver
    names, column names). The bytes are those `csv.writer` writes for
    the same rows. Every column must hold one field per row.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map("{}\r\n".format,
                          map(",".join, zip(*columns, strict=True))))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one trajectory; analytical solvers carry a solver column."""
    header = CSV_COLUMNS
    columns = [float_fields(traj.t), float_fields(traj.c_h_in),
               float_fields(traj.c_h_out), float_fields(traj.c_s_in),
               float_fields(traj.c_s_out), traj.phase,
               int_fields(traj.cycle), int_fields(traj.light)]
    if traj.solver != "fdm":
        header += ("solver",)
        columns.append([traj.solver] * len(traj))
    write_csv_columns(path, header, columns)


def read_trajectory_csv(path) -> dict:
    """Read a trajectory CSV back into plain arrays (round-trip checks)."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        rows = list(r)
    out: dict = {name: [] for name in header}
    for row in rows:
        for name, val in zip(header, row):
            out[name].append(val)
    for name in ("t", "C_H_in", "C_H_out", "C_S_in", "C_S_out"):
        out[name] = np.array([float(v) for v in out[name]])
    if "cycle" in out:
        out["cycle"] = np.array([int(v) for v in out["cycle"]])
    if "light" in out:
        out["light"] = np.array([int(v) for v in out["light"]])
    return out


def sample_grid(horizon: float, interval: float) -> np.ndarray:
    """Samples `interval` apart from 0 to the horizon, ascending; the
    last interval is the shorter remainder when the horizon is not a
    whole number n of intervals, else this is linspace(0, horizon, n + 1).
    """
    n = math.floor(horizon / interval)
    if math.isclose((n + 1) * interval, horizon):
        n += 1  # the quotient rounded down below a whole number
    if math.isclose(n * interval, horizon):
        return np.linspace(0.0, horizon, n + 1)
    return np.append(np.linspace(0.0, n * interval, n + 1), horizon)
