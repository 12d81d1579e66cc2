# trajectory.py
"""
Time-series container shared by the finite-difference and analytical
solvers, plus its CSV schema, the artifact format every vesim CSV writer
uses (`write_csv_columns`) and vesim's one file writer (`write_atomically`).

Columns written: t, C_H_in, C_H_out, C_S_in, C_S_out, phase, cycle, light
(all SI, full double precision), with a trailing `solver` column for the
analytical solvers so mixed run directories stay self-describing.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import native
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
        light: 0/1 illumination acting from each sample on, the
            signal's `is_on` (1 at light-on, 0 at light-off)
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


def float_fields(values) -> Sequence[str]:
    """`fmt_float` over a float column, with no Python call per value:
    one `repr` per run of bit-identical values (0.0 and -0.0 stay
    apart)."""
    values = np.asarray(values, dtype=float)
    bits = values.view(np.int64)
    ends = np.flatnonzero(bits[1:] != bits[:-1])  # of all runs but the last
    if ends.size + 1 >= values.size:
        return list(map(repr, values.tolist()))
    heads = np.append(0, ends + 1)
    fields = np.array(list(map(repr, values[heads].tolist())), dtype=object)
    return np.repeat(fields, np.diff(heads, append=values.size))


def int_fields(values) -> list[str]:
    """An integer column as artifact fields."""
    return list(map(str, np.asarray(values).astype(int).tolist()))


CHUNK_ROWS = 1024  # rows a writer formats at once


def join_columns(columns: Sequence[Sequence[str]],
                 separators: Sequence[str]) -> str:
    """The rows held by equal-length columns as text, row i being
    columns[0][i], separators[0], columns[1][i], separators[1], ...;
    each column fills its tokens by one slice assignment."""
    n = len(columns[0])
    stride = 2 * len(columns)
    tokens = [""] * (stride * n)
    tokens[1::2] = list(separators) * n
    for j, column in enumerate(columns):
        tokens[2 * j::stride] = column
    return "".join(tokens)


@contextlib.contextmanager
def write_atomically(path):
    """Open `path` for writing text as UTF-8, whatever the locale, as
    `<path>.part` moved onto `path` when the block ends: a block that
    raises leaves no `.part` file and `path` as it was. Lines are written
    as given (no newline mapping); a CSV writer writes bytes to the
    file's `buffer`."""
    part = Path(f"{path}.part")
    try:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            yield fh
        part.replace(path)
    finally:
        part.unlink(missing_ok=True)  # left only by a block that raised


def write_csv_columns(path, header: Sequence[str],
                      columns: Sequence) -> None:
    """Write one artifact CSV from its columns.

    A column is a float array (written as `float_fields`), an integer
    array (`int_fields`) or any other sequence of finished fields, the
    labels. This is vesim's artifact format: fields joined by ',' and
    lines ending in '\\r\\n', as UTF-8; no solver artifact field needs
    quoting, and the sweep summary quotes its own (`runner._csv_field`).
    The bytes are those `csv.writer` writes for the same rows. The
    compiled row writer (`native`) formats `CHUNK_ROWS` rows at a time,
    floats by its own shortest round-trip digits, byte for byte `repr`;
    without it `join_columns` joins them. Columns of unequal length
    raise ValueError, leaving `path` as it was.
    """
    columns = [np.ascontiguousarray(c, dtype=np.float64
                                    if c.dtype.kind == "f" else np.int64)
               if isinstance(c, np.ndarray) and c.dtype.kind in "fiub"
               else list(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError("columns of unequal length")
    lib = native.library()
    rows = (_joined_rows(columns) if lib is None
            else lib.row_writer(columns, CHUNK_ROWS))
    with write_atomically(path) as fh:
        out = fh.buffer
        out.write(",".join(header).encode() + b"\r\n")
        for r0 in range(0, n, CHUNK_ROWS):
            out.write(rows(r0, min(r0 + CHUNK_ROWS, n)))


def _joined_rows(columns):
    """The Python twin of `native.Library.row_writer`."""
    separators = [","] * (len(columns) - 1) + ["\r\n"]

    def rows(r0: int, r1: int) -> bytes:
        return join_columns(
            [(float_fields if c.dtype.kind == "f" else int_fields)(c[r0:r1])
             if isinstance(c, np.ndarray) else c[r0:r1] for c in columns],
            separators).encode()
    return rows


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one trajectory; analytical solvers carry a solver column."""
    header = CSV_COLUMNS
    columns = [np.asarray(c, dtype=float)
               for c in (traj.t, traj.c_h_in, traj.c_h_out, traj.c_s_in,
                         traj.c_s_out)]
    columns += [traj.phase, np.asarray(traj.cycle).astype(int),
                np.asarray(traj.light).astype(int)]
    if traj.solver != "fdm":
        header += ("solver",)
        columns.append([traj.solver] * len(traj))
    write_csv_columns(path, header, columns)


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
