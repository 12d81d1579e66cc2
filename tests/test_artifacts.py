"""Artifact writers and the plot export against row-by-row references.

The references below are the `csv.writer` / `csv.DictReader` code the
column-wise writers and the streaming export replaced; every file the
current code writes must match theirs byte for byte, and a write that
fails leaves no partial file. The compiled writer and export must match
their Python twins byte for byte, and refuse what they refuse.
"""

import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vesim import native
from vesim.cli import main as cli_main
from vesim.config import parse_config
from vesim.ensemble import EnsembleResult
from vesim.fdm import SharedPoolResult
from vesim.presets import Scenario
from vesim.runner import (MissingArtifacts, _write_ensemble_csv,
                          _write_shared_pool_csv, emit_plot_data, execute_run,
                          run_scenario, write_sweep_artifacts)
from vesim.schedule import CycleSchedule
from vesim.sweep import SweepResult
from vesim.trajectory import (CHUNK_ROWS, CSV_COLUMNS, Trajectory,
                              sample_grid, write_csv_columns,
                              write_trajectory_csv)

SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1,
           -1.5, 1e300, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())
# the values of runs: 0.0 next to -0.0, and NaN and +-inf runs
RUN_VALUES = st.sampled_from([0.0, -0.0, math.nan, math.inf,
                              -math.inf]) | FLOATS


@contextlib.contextmanager
def python_twins():
    """Run the block on the Python twins of the compiled kernels."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(native, "library", lambda: None)
        yield


# a test that loops over `PATHS` runs once on the compiled kernels
# (where a C compiler builds them) and once on their Python twins
PATHS = (contextlib.nullcontext, python_twins)


# --- row-by-row references ----------------------------------------------------

def _fmt(x):
    return repr(float(x))


def reference_trajectory_csv(traj, path):
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


def reference_ensemble_csv(res, path):
    cols = ["t", "interex_mean_c_h_in", "interex_var_c_h_in",
            "interex_mean_c_s_out", "interex_var_c_s_out"]
    for q in range(res.per_exp_c_s_out.shape[0]):
        cols += [f"exp{q}_mean_c_h_in", f"exp{q}_std_c_h_in",
                 f"exp{q}_c_s_out", f"exp{q}_std_c_s_out"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for k in range(len(res.t)):
            row = [_fmt(res.t[k]), _fmt(res.interex_mean_c_h_in[k]),
                   _fmt(res.interex_var_c_h_in[k]),
                   _fmt(res.interex_mean_c_s_out[k]),
                   _fmt(res.interex_var_c_s_out[k])]
            for q in range(res.per_exp_c_s_out.shape[0]):
                row += [_fmt(res.per_exp_mean_c_h_in[q, k]),
                        _fmt(res.per_exp_std_c_h_in[q, k]),
                        _fmt(res.per_exp_c_s_out[q, k]),
                        _fmt(res.per_exp_std_c_s_out[q, k])]
            w.writerow(row)


def reference_shared_pool_csv(res, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "pooled_c_h_out", "pooled_c_s_out"])
        for k in range(len(res.t)):
            w.writerow([_fmt(res.t[k]), _fmt(res.pooled_c_h_out[k]),
                        _fmt(res.pooled_c_s_out[k])])


def reference_summary_csv(rows, path):
    cols = []
    for row in rows:
        for key in row:
            if key not in cols and key != "traceback":
                cols.append(key)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in rows:
            w.writerow([
                "" if v is None else _fmt(v) if isinstance(v, float) else v
                for v in (row.get(c) for c in cols)])


def reference_plot_data(run_dir, out_name):
    run_dir = Path(run_dir)
    traj_files = sorted(run_dir.glob("**/trajectory_*.csv"))
    ens_files = sorted(run_dir.glob("**/ensemble_stats.csv"))
    pool_files = sorted(run_dir.glob("**/shared_pool.csv"))
    rows = []

    def tag(path):
        rel = path.relative_to(run_dir)
        return "/".join(rel.parts[:-1]) or "."

    for path in traj_files:
        solver = path.stem.replace("trajectory_", "")
        prefix = f"{tag(path)}/{solver}"
        with open(path, newline="") as fh:
            for rec in csv.DictReader(fh):
                for col in ("C_H_in", "C_S_in", "C_S_out", "light"):
                    rows.append((f"{prefix}/{col}", rec["t"], rec[col]))
    for path in ens_files:
        prefix = tag(path)
        with open(path, newline="") as fh:
            for rec in csv.DictReader(fh):
                for col in ("interex_mean_c_h_in", "interex_mean_c_s_out"):
                    rows.append((f"{prefix}/{col}", rec["t"], rec[col]))
                for col in ("interex_var_c_h_in", "interex_var_c_s_out"):
                    base = col.replace("var", "mean")
                    std = float(rec[col]) ** 0.5
                    rows.append((f"{prefix}/{base}+std", rec["t"],
                                 _fmt(float(rec[base]) + std)))
                    rows.append((f"{prefix}/{base}-std", rec["t"],
                                 _fmt(float(rec[base]) - std)))
    for path in pool_files:
        prefix = tag(path)
        with open(path, newline="") as fh:
            for rec in csv.DictReader(fh):
                for col in ("pooled_c_h_out", "pooled_c_s_out"):
                    rows.append((f"{prefix}/{col}", rec["t"], rec[col]))
    out_path = run_dir / out_name
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["series", "t", "value"])
        w.writerows(rows)
    return out_path


# --- synthetic artifacts ------------------------------------------------------

def make_trajectory(columns, phase, cycle, light, solver):
    # the writers read only the sampled columns and the solver name
    t, c_h_in, c_h_out, c_s_in, c_s_out = (np.array(c, dtype=float)
                                           for c in columns)
    return Trajectory(t=t, c_h_in=c_h_in, c_h_out=c_h_out, c_s_in=c_s_in,
                      c_s_out=c_s_out, light=np.array(light, dtype=int),
                      cycle=np.array(cycle, dtype=int), phase=list(phase),
                      schedule=CycleSchedule(), solver=solver, derived=None)


def make_ensemble(t, interex, per_exp, n_ex):
    mean_h, var_h, mean_s, var_s = (np.array(c, dtype=float) for c in interex)
    per_exp = np.array(per_exp, dtype=float).reshape(4, n_ex, len(t))
    return EnsembleResult(
        t=np.array(t, dtype=float), per_exp_mean_c_h_in=per_exp[0],
        per_exp_std_c_h_in=per_exp[1], per_exp_c_s_out=per_exp[2],
        per_exp_std_c_s_out=per_exp[3], interex_mean_c_h_in=mean_h,
        interex_var_c_h_in=var_h, interex_mean_c_s_out=mean_s,
        interex_var_c_s_out=var_s, mean_param_traj=None,
        symport_start_median=np.zeros(0), symport_end_median=np.zeros(0),
        config=None, solver="closed")


def make_pool(t, c_h, c_s):
    t = np.array(t, dtype=float)
    return SharedPoolResult(t=t, c_h_in=np.empty((len(t), 0)),
                            c_s_in=np.empty((len(t), 0)),
                            pooled_c_h_out=np.array(c_h, dtype=float),
                            pooled_c_s_out=np.array(c_s, dtype=float),
                            schedules=[], events=[], conservation_drift=0.0)


@st.composite
def float_column(draw, n):
    """n floats: independent values, or runs of repeated ones."""
    if draw(st.booleans()):
        return draw(hnp.arrays(np.float64, n, elements=FLOATS))
    heads = sorted({0, *draw(st.sets(st.integers(0, max(n - 1, 0))))})
    values = draw(st.lists(RUN_VALUES, min_size=len(heads),
                           max_size=len(heads)))
    return np.repeat(values, np.diff(heads, append=n))


@st.composite
def float_rows(draw, k, n):
    return np.array([draw(float_column(n)) for _ in range(k)]).reshape(k, n)


@st.composite
def trajectories(draw):
    n = draw(st.integers(0, 20))
    ints = hnp.arrays(np.int64, (2, n), elements=st.integers(1, 10**6))
    cycle, codes = draw(ints)
    return make_trajectory(draw(float_rows(5, n)),
                           [f"P{c % 4 + 1}" for c in codes], cycle,
                           codes % 2,
                           draw(st.sampled_from(["fdm", "exact", "closed"])))


@st.composite
def ensembles(draw):
    n = draw(st.integers(0, 12))
    n_ex = draw(st.integers(1, 3))
    rows = draw(float_rows(5 + 4 * n_ex, n))
    return make_ensemble(rows[0], rows[1:5], rows[5:], n_ex)


@st.composite
def pools(draw):
    return make_pool(*draw(float_rows(3, draw(st.integers(0, 12)))))


def _same_floats(a, b):
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


# --- writers ------------------------------------------------------------------

@settings(derandomize=True, deadline=None, max_examples=100)
@given(traj=trajectories(), ens=ensembles(), pool=pools())
def test_writers_match_row_by_row_reference(traj, ens, pool):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for write, ref, obj in (
                (write_trajectory_csv, reference_trajectory_csv, traj),
                (_write_ensemble_csv, reference_ensemble_csv, ens),
                (_write_shared_pool_csv, reference_shared_pool_csv, pool)):
            write(obj, d / "new.csv")
            ref(obj, d / "ref.csv")
            assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()

        write_trajectory_csv(traj, d / "traj.csv")
        with open(d / "traj.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        for name, arr in zip(CSV_COLUMNS[:5], (traj.t, traj.c_h_in,
                                                traj.c_h_out, traj.c_s_in,
                                                traj.c_s_out)):
            back = np.array([float(r[name]) for r in rows])
            assert _same_floats(back, arr), name
        assert [r["phase"] for r in rows] == traj.phase
        assert [int(r["cycle"]) for r in rows] == list(traj.cycle)
        assert [int(r["light"]) for r in rows] == list(traj.light)
        assert ("solver" in reader.fieldnames) == (traj.solver != "fdm")


@given(interval=st.floats(1e-3, 100.0), n=st.integers(0, 2000),
       rest=st.just(0.0) | st.floats(0.0, 1.0))
@example(interval=10.0, n=120, rest=0.6)  # horizon 1206
@example(interval=10.0, n=0, rest=0.5)    # one interval past the horizon
@settings(derandomize=True, deadline=None, max_examples=200)
def test_sample_grid_ascends_to_the_horizon(interval, n, rest):
    horizon = (n + rest) * interval
    assume(horizon > 0.0)
    grid = sample_grid(horizon, interval)
    assert grid[0] == 0.0 and grid[-1] == horizon
    assert np.all(np.diff(grid) > 0.0)
    assert np.all(np.diff(grid) <= interval * (1.0 + 1e-8))
    if rest == 0.0:
        assert np.array_equal(grid, np.linspace(0.0, horizon, n + 1))


def test_both_run_kinds_sample_on_one_grid():
    # a vesicle run and a population run with the same horizon and
    # sample_interval report the same times
    common = {"run": {"solver": "closed"},
              "signal": {"intervals": [[0, 600]], "horizon": 1206},
              "sample_interval": 10.0}
    vesicle = execute_run(parse_config(dict(common, vesicle={})))
    population = execute_run(parse_config(dict(
        common, population={}, ensemble={"n_mod": 2, "n_ex": 1})))
    grid = sample_grid(1206.0, 10.0)
    assert np.array_equal(vesicle["trajectories"]["closed"].t, grid)
    assert np.array_equal(population["ensemble"].t, grid)


def test_empty_trajectory_writes_its_header_only(tmp_path):
    for solver in ("fdm", "closed"):
        traj = make_trajectory([[]] * 5, [], [], [], solver)
        write_trajectory_csv(traj, tmp_path / "new.csv")
        reference_trajectory_csv(traj, tmp_path / "ref.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.count(b"\r\n") == 1



# rows at and around the writers' chunk edges, and past the export's
# first block of input
EDGE_ROWS = (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
             2 * CHUNK_ROWS + 1, 4097)


def _edge_columns(k, n):
    """k float columns of n rows; column j holds runs of 2j + 1 equal
    SPECIAL values, so runs straddle every chunk edge (a power of 2)."""
    rows = np.arange(n)
    return np.array([np.roll(SPECIAL, j)[rows // (2 * j + 1) % len(SPECIAL)]
                     for j in range(k)]).reshape(k, n)


@pytest.mark.parametrize("n", EDGE_ROWS)
def test_writers_and_export_match_references_across_chunk_edges(tmp_path, n):
    cols = _edge_columns(13, n)
    codes = np.arange(n) // 5  # runs of phase, cycle and light as well
    phase = [f"P{c % 4 + 1}" for c in codes]
    # variances stay >= 0, as an ensemble's do
    ens = make_ensemble(cols[0], [cols[1], abs(cols[2]), cols[3],
                                  abs(cols[4])], cols[5:], n_ex=2)
    artifacts = [(write_trajectory_csv, reference_trajectory_csv,
                  make_trajectory(cols[:5], phase, codes, codes % 2, solver),
                  f"trajectory_{solver}.csv") for solver in ("fdm", "exact")]
    artifacts += [
        (_write_ensemble_csv, reference_ensemble_csv, ens,
         "ensemble_stats.csv"),
        (_write_shared_pool_csv, reference_shared_pool_csv,
         make_pool(*cols[10:]), "shared_pool.csv")]
    for k, path in enumerate(PATHS):
        run_dir = tmp_path / f"run{k}"
        run_dir.mkdir()
        with path():
            for write, ref, obj, name in artifacts:
                write(obj, run_dir / name)
                ref(obj, tmp_path / "ref.csv")
                assert (run_dir / name).read_bytes() == (
                    tmp_path / "ref.csv").read_bytes(), name
            ref = reference_plot_data(run_dir, "reference.csv").read_bytes()
            assert emit_plot_data(run_dir).read_bytes() == ref


@pytest.mark.parametrize("n", (1, CHUNK_ROWS, CHUNK_ROWS + 1))
@pytest.mark.parametrize("extra", (-1, 1))
@pytest.mark.parametrize("odd", (0, 2))
def test_writer_refuses_columns_of_unequal_length(tmp_path, n, extra, odd):
    # column `odd` holds one field fewer or one more than the others; the
    # refused file neither replaces an older one nor stays as a .part
    path = tmp_path / "x.csv"
    for old in (None, b"old\r\n"):
        if old is not None:
            path.write_bytes(old)
        columns = [iter(["1.5"] * (n + extra * (j == odd))) for j in range(3)]
        with pytest.raises(ValueError):
            write_csv_columns(path, ["a", "b", "c"], columns)
        assert (path.read_bytes() if path.exists() else None) == old
        assert list(tmp_path.iterdir()) == ([path] if old else [])


def test_a_failed_json_write_leaves_no_file(tmp_path, monkeypatch):
    def dump(obj, fh, **kwargs):
        fh.write("{")  # part of the document, then the failure
        raise RuntimeError("disk full")

    monkeypatch.setattr(json, "dump", dump)
    cfg = parse_config({"run": {"solver": "closed"}, "vesicle": {},
                        "signal": {"intervals": [[0, 60]], "horizon": 120}},
                       label="mini")
    with pytest.raises(RuntimeError, match="disk full"):
        run_scenario(Scenario("mini", "", [cfg]), tmp_path / "run")
    with pytest.raises(RuntimeError, match="disk full"):
        write_sweep_artifacts(SweepResult("s", [{"a": 1.0}], {}),
                              tmp_path / "sweep")
    # what was written before the failure stays; no manifest or summary
    assert [p.name for p in (tmp_path / "run").iterdir()] == ["mini"]
    assert [p.name for p in (tmp_path / "sweep").iterdir()] == [
        "summary.csv"]


# --- sweep summary ------------------------------------------------------------

SUMMARY_VALUES = (st.sampled_from([None, 0, -3, True, False, "", "a,b",
                                   'say "hi"', "two\nlines", "cr\r",
                                   np.float64(0.1), np.int64(7)])
                  | FLOATS | st.text(alphabet=',"\r\n a'))
# every row holds the point it came from, so no row is one empty field
SUMMARY_ROWS = st.lists(st.builds(
    lambda k, rest: {"point": k, **rest}, st.integers(0, 9),
    st.dictionaries(st.sampled_from(["duration", "error", "traceback",
                                     "a,b", 'k"ey']), SUMMARY_VALUES)),
    max_size=6)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rows=SUMMARY_ROWS)
@example(rows=[])
@example(rows=[{"point": 0, "duration": 60.0, "rate": math.nan},
               {"point": 1, "error": 'ValueError: bad "x", line\n2',
                "traceback": "Traceback ...", "flag": True},
               {"point": 2, "duration": "", "rate": 3}])
def test_summary_matches_csv_writer(rows):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_sweep_artifacts(SweepResult("s", rows, {}), d)
        reference_summary_csv(rows, d / "ref.csv")
        assert (d / "summary.csv").read_bytes() == (d / "ref.csv").read_bytes()


# --- plot export --------------------------------------------------------------

def _fill_run_dir(d: Path) -> None:
    """Trajectory, ensemble and shared-pool files, at the top and nested."""
    n = len(SPECIAL)
    t = np.arange(n) * 0.1
    cols = [t] + [np.roll(SPECIAL, k) for k in range(4)]
    phase = ["P1", "P2", "P3", "P4"] * (n // 4)
    for sub in (d, d / "run,one", d / 'q"uote' / "deep"):
        sub.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(make_trajectory(cols, phase, range(n),
                                             [k % 2 for k in range(n)],
                                             "fdm"),
                             sub / "trajectory_fdm.csv")
        write_trajectory_csv(make_trajectory(cols[::-1], phase, range(n),
                                             [1] * n, "exact"),
                             sub / "trajectory_exact.csv")
    # variances stay >= 0, as an ensemble's do
    variances = [abs(x) for x in SPECIAL]
    ens = make_ensemble(t, [SPECIAL, variances, SPECIAL[::-1], variances],
                        np.tile(SPECIAL, 8), n_ex=2)
    _write_ensemble_csv(ens, d / "run,one" / "ensemble_stats.csv")
    _write_shared_pool_csv(make_pool(t, SPECIAL, SPECIAL[::-1]),
                           d / "run,one" / "shared_pool.csv")
    _write_shared_pool_csv(make_pool(t, SPECIAL, SPECIAL),
                           d / "shared_pool.csv")


def test_plot_export_matches_dictreader_reference(tmp_path):
    _fill_run_dir(tmp_path)
    ref = reference_plot_data(tmp_path, "reference.csv").read_bytes()
    for path in PATHS:
        with path():
            out = emit_plot_data(tmp_path)
        assert out == tmp_path / "plot_data.csv"
        assert out.read_bytes() == ref
    # the nested names were quoted, and every input contributed
    assert b'"run,one/exact/C_H_in"' in ref
    assert b'"q""uote/deep/fdm/light"' in ref
    assert b'"run,one/interex_mean_c_s_out-std"' in ref
    assert b"./pooled_c_h_out" in ref
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "plot_data.csv", 'q"uote', "reference.csv", "run,one",
        "shared_pool.csv", "trajectory_exact.csv", "trajectory_fdm.csv"]


# SHA-256 of fig4's plot export (seed 0): its fdm, exact and closed
# trajectories through the writer and the export. The analytic solvers'
# bits go through numpy's SIMD exp and log, so like GOLDEN_FIG9_CSV this
# holds for one numpy build on one CPU family.
GOLDEN_FIG4_PLOT_DATA = (
    "6dee1d6f0babf2f5cdbd5dd688bfe25b"
    "f4741966e02760624acbeefa723f8560")


def test_fig4_plot_export_matches_golden_hash(tmp_path):
    assert cli_main(["run", "--preset", "fig4", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    out = emit_plot_data(tmp_path)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        GOLDEN_FIG4_PLOT_DATA)


MALFORMED = {
    "missing column": ("t,C_H_in\r\n0.0,1.0\r\n", "'C_S_in'"),
    "short row": ("t,C_H_in,C_S_in,C_S_out,light\r\n0.0,1.0,2.0\r\n",
                  "shorter than its header"),
    # the short row after it leaves the chunk's field count right
    "long row": ("t,C_H_in,C_S_in,C_S_out,light\r\n0.0,1.0,2.0,3.0,0,5\r\n"
                 "0.1,1.0,2.0,3.0\r\n", "line 2 is longer than its header"),
    "LF line end": ("t,C_H_in,C_S_in,C_S_out,light\r\n0.0,1.0,2.0,3.0,0\n"
                    "0.1,1.0,2.0,3.0,0\r\n", "line 2 does not end in"),
    # split at ',' and '\r\n' alone, these fields line up with the header
    "LF line end between empty fields": (
        "t,C_H_in,C_S_in,C_S_out,light\r\n0.0,1.0,2.0,3.0,0,\n"
        ",0.1,1.0,2.0,3.0,0\r\n", "line 2 does not end in"),
    "blank line": ("t,C_H_in,C_S_in,C_S_out,light\r\n0.0,1.0,2.0,3.0,0\r\n"
                   "\r\n", "line 3 is shorter than its header"),
    "quoted field": ('t,C_H_in,C_S_in,C_S_out,light\r\n0.0,"1.0",2,3,0\r\n',
                     "not a vesim artifact"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_plot_export_refuses_malformed_input(tmp_path, capsys, case):
    # a valid input sorts first, so a streaming export has begun writing
    # when it reaches the malformed one; both paths name the same fault
    _fill_run_dir(tmp_path / "a")
    text, message = MALFORMED[case]
    bad = tmp_path / "b" / "trajectory_fdm.csv"
    bad.parent.mkdir()
    bad.write_bytes(text.encode())
    messages = []
    for path in PATHS:
        with path():
            with pytest.raises(MissingArtifacts, match=message) as info:
                emit_plot_data(tmp_path)
            messages.append(str(info.value))
            assert str(bad) in str(info.value)
            assert not list(tmp_path.glob("plot_data*"))

            assert cli_main(["emit-plot-data", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(bad) in err
            assert not list(tmp_path.glob("plot_data*"))
    assert messages[0] == messages[1]


# --- compiled kernels against their Python twins ------------------------------

def _bits(b):
    return np.array([b], dtype=np.uint64).view(np.float64)[0]


# raw float bit patterns: NaN payloads (quiet, signalling, negative),
# +-0.0, +-inf, subnormals, the normal extremes and plain values; and
# the bits of st.floats() draws, whose exponents uniform bits seldom hit
FLOAT_BITS = st.sampled_from([
    0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
    0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF, 0x0000000000000000,
    0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x0010000000000000,
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, 0x3FB999999999999A,
    0x4330000000000000, 0x3EE4F8B588E368F1]) | st.integers(0, 2**64 - 1) \
    | st.floats().map(lambda x: int(np.float64(x).view(np.uint64)))
INT64S = st.sampled_from([-2**63, 2**63 - 1, 0, -1, 10**19 - 2**63]) \
    | st.integers(-2**63, 2**63 - 1)
LABELS = (st.sampled_from(["", '"quoted, with ""quotes"""', "µs", "P1",
                           "é\u6570\U0001F600", "solver"])
          | st.text(max_size=5))


@st.composite
def writer_columns(draw):
    """Float, int64 and label columns of one length; each row draws from
    a few values, so runs of equal values form and break."""
    n = draw(st.sampled_from([0, 1, CHUNK_ROWS - 1, CHUNK_ROWS,
                              CHUNK_ROWS + 1]) | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from("fil"), min_size=1,
                              max_size=6)):
        values = draw(st.lists({"f": FLOAT_BITS, "i": INT64S,
                                "l": LABELS}[kind], min_size=1, max_size=5))
        rows = rng.integers(0, len(values), n)
        if kind == "f":
            columns.append(np.array(values, dtype=np.uint64)[rows].view(
                np.float64))
        elif kind == "i":
            columns.append(np.array(values, dtype=np.int64)[rows])
        else:
            columns.append([values[r] for r in rows])
    return columns


@settings(derandomize=True, deadline=None, max_examples=60)
@given(columns=writer_columns())
@example(columns=[np.array([_bits(0x8000000000000000), 0.0, 0.0,
                            _bits(0x7FF8000000000001), math.nan]),
                  np.array([-2**63, -2**63, 2**63 - 1, 0, 0]),
                  ["", "", "µ", '"a,b"', ""]])
def test_compiled_writer_matches_its_python_twin(columns):
    if native.library() is None:
        pytest.skip("no compiled library on this host")
    header = [f"c{j}" for j in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        out = []
        for k, path in enumerate(PATHS):
            with path():
                write_csv_columns(Path(tmp) / f"{k}.csv", header, columns)
            out.append((Path(tmp) / f"{k}.csv").read_bytes())
    assert out[0] == out[1]
    n = len(columns[0])
    assert out[0].count(b"\r\n") == n + 1


def _float_corpus() -> np.ndarray:
    """Doubles where a shortest round-trip formatter goes wrong, as bits,
    each also with its sign bit set."""
    rng = np.random.default_rng(20181)
    ulps = np.arange(-2, 3, dtype=np.int64)
    # every binade's first and last value, each +-1 ulp, and the
    # subnormals' edges, powers of 2 and smallest values
    edges = (np.arange(2048, dtype=np.int64) << 52)[:, None] + ulps
    subnormal = np.append(np.arange(1, 64),
                          (1 << np.arange(53))[:, None] + ulps)
    # 2^53 +- k, 10^k and its neighbours, the fixed/scientific switch
    near_2_53 = (np.float64(2**53) + np.arange(-64, 65)).view(np.int64)
    tens = np.array([float(f"1e{k}") for k in range(-324, 309)])
    switch = np.array([m * 10.0**k for m in (1.0, 1.5, 9.5, 9.999999999999999)
                       for k in (-6, -5, -4, -3, 15, 16, 17)])
    near = [(tens.view(np.int64)[:, None] + ulps).ravel(),
            (switch.view(np.int64)[:, None] + ulps).ravel()]
    seeded = [rng.integers(0, 2**63, 10**5, dtype=np.int64),
              (10.0 ** rng.uniform(-12, 4, 10**5)).view(np.int64)]
    nans = np.array([0x7FF8000000000000, 0x7FFFFFFFFFFFFFFF])
    bits = np.concatenate([edges.ravel(), subnormal, near_2_53,
                           *near, *seeded, nans])
    bits = bits[bits >= 0]
    return np.concatenate([bits, bits | np.int64(-2**63)])


def test_compiled_floats_equal_repr_on_a_corpus(tmp_path):
    if native.library() is None:
        pytest.skip("no compiled library on this host")
    values = _float_corpus().view(np.float64)
    write_csv_columns(tmp_path / "x.csv", ["x"], [values])
    expected = "".join(f"{x!r}\r\n" for x in values.tolist())
    assert (tmp_path / "x.csv").read_bytes() == f"x\r\n{expected}".encode()


def test_pow5_tables_are_exact():
    # checked by products, not by the divisions and shifts that made them
    inv, pow5 = ([hi << 64 | lo for lo, hi in table.tolist()]
                 for table in native._pow5_tables())
    for q, v in enumerate(inv):
        p = 5**q  # v = floor(2^(b + 124) / p) + 1
        assert (v - 1) * p <= 1 << p.bit_length() + 124 < v * p
    for i, v in enumerate(pow5):
        p = 5**i  # v is the leading 125 bits of p
        assert v << p.bit_length() <= p << 125 < (v + 1) << p.bit_length()


def test_c_source_builds_without_warnings(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on the PATH")
    source = Path(native.__file__).with_name("_native.c").read_bytes()
    done = subprocess.run([cc, "-x", "c", "-", "-o", str(tmp_path / "x.so"),
                           *native._CC_FLAGS, "-Wall", "-Wextra", "-Werror"],
                          input=source, capture_output=True)
    assert done.returncode == 0, done.stderr.decode(errors="replace")


# bytes of fields and line ends, most of them valid: '"', a lone '\r'
# or '\n' and a byte that is no UTF-8 are faults; a form feed and a
# character outside ASCII are not, nor line ends to str.splitlines
FIELD = st.sampled_from([b"0.5", b"-1e-05", b"nan", b"3", b""] * 4
                        + [b"\xc2\xb5", b"\x0c", b"\xc2\x85", b'"', b"\r",
                           b"\n", b"\xff"])
LINE = st.builds(lambda fields, end: b",".join(fields) + end,
                 st.lists(FIELD, min_size=5, max_size=5)
                 | st.lists(FIELD, min_size=0, max_size=7),
                 st.sampled_from([b"\r\n"] * 8 + [b"\n", b"\r", b""]))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(lines=st.lists(LINE, max_size=4), valid=st.sampled_from([0, 1, 4000]))
@example(lines=[b"0.5,\x0c,1,2,3\r\n"], valid=0)
@example(lines=[b"0.5,1,2,3,4\r\r\n", b"0.5,1,2,3,4\r\n"], valid=4000)
def test_compiled_export_matches_its_python_twin_on_any_input(lines, valid):
    # `valid` good lines first put a fault past the first block read
    body = b"0.5,1.0,2.0,3.0,0\r\n" * valid + b"".join(lines)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "trajectory_fdm.csv").write_bytes(
            b"t,C_H_in,C_S_in,C_S_out,light\r\n" + body)
        for path in PATHS:
            with path():
                try:
                    results.append(emit_plot_data(tmp).read_bytes())
                except (MissingArtifacts, UnicodeDecodeError) as exc:
                    results.append((type(exc), str(exc)))
    assert results[0] == results[1]


def test_compiled_kernels_refuse_what_would_overrun_their_buffers():
    lib = native.library()
    if lib is None:
        pytest.skip("no compiled library on this host")
    rows = lib.row_writer([np.array([1.5, 2.5]), ["a", "b"]], max_rows=1)
    assert bytes(rows(0, 1)) == b"1.5,a\r\n"
    for r0, r1 in ((0, 2), (1, 3), (-1, 0)):
        with pytest.raises(ValueError, match="outside the columns"):
            rows(r0, r1)
    cols = rows.args[0]
    out = np.empty(8, dtype=np.uint8)
    with pytest.raises(RuntimeError, match="vesim_format_rows failed"):
        lib._format_rows(len(cols), cols.ctypes.data, 0, 1, out.ctypes.data,
                         6)  # one byte short of the row
    with pytest.raises(ValueError, match="outside the input's width"):
        lib.field_copier([b"s"], [0, 2], width=2)
    copy = lib.field_copier([b"s"], [0, 1], width=2)
    assert bytes(copy(b"1,2\r\n")[0]) == b"s,1,2\r\n"
    assert copy(b"1,2\r") is None  # refused: the text path names why
    with pytest.raises(RuntimeError, match="vesim_copy_fields failed"):
        lib._copy_fields(b"1,2\r\n", 5, 2, 2, np.array([0, 1]).ctypes, b"s",
                         np.array([0, 1]).ctypes, np.empty(3, int).ctypes,
                         out.ctypes, 6, np.empty(1, int).ctypes)


def test_without_a_compiler_every_kernel_falls_back_alike(tmp_path,
                                                         monkeypatch):
    # fig4 runs every solver, the writer and the export: without `cc`
    # and a cached library, one warning names the reason for all three
    # kernels, and every artifact keeps its bytes
    if native.library() is None:
        pytest.skip("no compiled library on this host")

    def fig4(out):
        assert cli_main(["run", "--preset", "fig4", "--seed", "0",
                         "--out", str(out)]) == 0
        emit_plot_data(out)
        return {p.relative_to(out): p.read_bytes()
                for p in out.rglob("*") if p.is_file()}

    compiled = fig4(tmp_path / "compiled")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setattr(native, "library", functools.cache(native._select))
    with pytest.warns(UserWarning) as caught:
        fallback = fig4(tmp_path / "fallback")
    assert [str(w.message) for w in caught] == [
        "vesim: cannot build the compiled kernels (no C compiler: cc is not "
        "on the PATH); running their Python twins: the FDM step 20 to 200 "
        "times slower, the CSV writer 7 and the plot export 5 times "
        "slower"]
    assert fallback.keys() == compiled.keys()
    assert fallback == compiled


@pytest.mark.parametrize("path", ["compiled", "python"])
def test_export_writes_utf8_in_any_locale(tmp_path, path):
    # a run directory named by a non-ASCII config file name, exported
    # in the C locale (ASCII, no UTF-8 mode): the same bytes as in UTF-8
    name = os.fsdecode("Bµ".encode())
    config = tmp_path / f"{name}.yaml"
    config.write_text("run: {solver: closed}\nvesicle: {}\n"
                      "signal: {intervals: [[0, 60]], horizon: 120}\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    with contextlib.nullcontext() if path == "compiled" else python_twins():
        utf8 = emit_plot_data(out).read_bytes()
    assert b"\r\nB\xc2\xb5/closed/C_H_in,0.0," in utf8
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(native.__file__).parents[1]))
    script = ("import sys\nfrom vesim import cli, native\n"
              "if sys.argv[1] == 'python':\n"
              "    native.library = lambda: None\n"
              "sys.exit(cli.main(['emit-plot-data', sys.argv[2]]))\n")
    done = subprocess.run([sys.executable, "-c", script, path, out],
                          env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert (out / "plot_data.csv").read_bytes() == utf8
