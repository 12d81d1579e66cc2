# trajectory.py
"""
Time-series container shared by the finite-difference and analytical
solvers, plus its CSV schema.

Columns written: t, C_H_in, C_H_out, C_S_in, C_S_out, phase, cycle, light
(all SI, full double precision), with a trailing `solver` column for the
analytical solvers so mixed run directories stay self-describing.
"""

from __future__ import annotations

import csv
import math
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
    c_hb_in: np.ndarray | None = None
    c_hb_out: np.ndarray | None = None
    conservation_drift: float = 0.0

    def __len__(self) -> int:
        return len(self.t)

    def depletion_time(self) -> float | None:
        for ev in self.events:
            if ev.kind == "depletion":
                return ev.t
        return None

    def interp(self, name: str, times: np.ndarray) -> np.ndarray:
        return np.interp(times, self.t, getattr(self, name))


CSV_COLUMNS = ("t", "C_H_in", "C_H_out", "C_S_in", "C_S_out",
               "phase", "cycle", "light")


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one trajectory; analytical solvers carry a solver column."""
    with_solver = traj.solver != "fdm"
    cols = CSV_COLUMNS + (("solver",) if with_solver else ())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for k in range(len(traj)):
            row = [_fmt(traj.t[k]), _fmt(traj.c_h_in[k]),
                   _fmt(traj.c_h_out[k]), _fmt(traj.c_s_in[k]),
                   _fmt(traj.c_s_out[k]), traj.phase[k],
                   int(traj.cycle[k]), int(traj.light[k])]
            if with_solver:
                row.append(traj.solver)
            w.writerow(row)


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
    """Uniform sample grid [0, horizon] including both endpoints."""
    n = int(round(horizon / interval))
    grid = np.linspace(0.0, n * interval, n + 1)
    if not math.isclose(grid[-1], horizon):
        grid = np.append(grid, horizon)
    return grid
