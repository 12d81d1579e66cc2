"""Artifact writers and the plot export against row-by-row references.

The references below are the `csv.writer` / `csv.DictReader` code the
column-wise writers and the streaming export replaced; every file the
current code writes must match theirs byte for byte.
"""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vesim.cli import main as cli_main
from vesim.config import parse_config
from vesim.ensemble import EnsembleResult
from vesim.fdm import SharedPoolResult
from vesim.runner import (MissingArtifacts, _write_ensemble_csv,
                          _write_shared_pool_csv, emit_plot_data, execute_run)
from vesim.schedule import CycleSchedule
from vesim.trajectory import (CSV_COLUMNS, Trajectory, read_trajectory_csv,
                              sample_grid, write_trajectory_csv)

SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1,
           -1.5, 1e300, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())


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


def float_rows(k, n):
    return hnp.arrays(np.float64, (k, n), elements=FLOATS)


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
        back = read_trajectory_csv(d / "traj.csv")
        for name, arr in zip(CSV_COLUMNS[:5], (traj.t, traj.c_h_in,
                                                traj.c_h_out, traj.c_s_in,
                                                traj.c_s_out)):
            assert _same_floats(back[name], arr), name
        assert back["phase"] == traj.phase
        assert np.array_equal(back["cycle"], traj.cycle)
        assert np.array_equal(back["light"], traj.light)
        assert ("solver" in back) == (traj.solver != "fdm")


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


MALFORMED = {
    "missing column": ("t,C_H_in\r\n0.0,1.0\r\n", "'C_S_in'"),
    "short row": ("t,C_H_in,C_S_in,C_S_out,light\r\n0.0,1.0,2.0\r\n",
                  "shorter than its header"),
    "quoted field": ('t,C_H_in,C_S_in,C_S_out,light\r\n0.0,"1.0",2,3,0\r\n',
                     "not a vesim artifact"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_plot_export_refuses_malformed_input(tmp_path, capsys, case):
    # a valid input sorts first, so a streaming export has begun writing
    # when it reaches the malformed one
    _fill_run_dir(tmp_path / "a")
    text, message = MALFORMED[case]
    bad = tmp_path / "b" / "trajectory_fdm.csv"
    bad.parent.mkdir()
    bad.write_bytes(text.encode())
    with pytest.raises(MissingArtifacts, match=message) as info:
        emit_plot_data(tmp_path)
    assert str(bad) in str(info.value)
    assert not list(tmp_path.glob("plot_data*"))

    assert cli_main(["emit-plot-data", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not list(tmp_path.glob("plot_data*"))
