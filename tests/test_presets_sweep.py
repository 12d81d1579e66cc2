import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vesim
from vesim.ensemble import EnsembleConfig, PopulationDistributions, run_ensemble
from vesim.fdm import FdmConfig, FdmStabilityError, simulate_svs
from vesim.model import default_environment, default_kinetics, default_vesicle
from vesim.presets import (FIG4_EXPECTED_TYPES, RUN_PRESETS,
                           describe_presets, fig4_scenario, fig9_scenario)
from vesim.runner import execute_run, run_scenario, write_sweep_artifacts
from vesim.schedule import LightSignal
from vesim.sweep import (FIG6_FDM, FIG6_TAIL, SweepSpec, _fig6_fdm,
                         _fig6_inputs, fig6_sweep, fig10_sweep, run_sweep)


def test_preset_registry_complete():
    names = {name for name, _, _ in describe_presets()}
    assert {"fig3", "fig4", "fig5", "fig6", "fig9", "fig10",
            "fig11"} <= names


@pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5"])
def test_every_solver_writes_the_signals_light(preset):
    # `light` is the illumination acting from each sample on, in every
    # solver alike, at the samples on a light switch too
    for cfg in RUN_PRESETS[preset](seed=0).runs:
        switches = {t for iv in cfg.signal.intervals for t in iv}
        for solver, traj in execute_run(cfg)["trajectories"].items():
            assert switches <= set(traj.t.tolist())
            assert traj.light.tolist() == [
                int(cfg.signal.is_on(t)) for t in traj.t.tolist()], (
                    cfg.label, solver)


def test_fig4_scenario_selfcheck(tmp_path):
    out, _ = run_scenario(fig4_scenario(), tmp_path / "fig4")
    manifest = json.loads((out / "manifest.json").read_text())
    check = manifest["self_check"]
    # the type-sequence assertion ships inside the preset's manifest
    assert check["expected_types"] == FIG4_EXPECTED_TYPES
    for solver in ("fdm", "exact", "closed"):
        assert check[f"types_match_{solver}"] is True
    assert check["c_s_out_constant_in_type_b"] is True
    assert check["c_s_out_strictly_increasing_in_symport"] is True
    assert (out / "fig4" / "trajectory_fdm.csv").exists()
    sched = manifest["runs"]["fig4"]["schedule"]["fdm"]
    assert [c["type"] for c in sched] == FIG4_EXPECTED_TYPES


def test_fig9_scenario_shared_pool(fig9_preset):
    out, results = fig9_preset
    res = results["fig9"]
    assert res["ensemble"] is not None
    assert res["shared_pool"] is not None
    (cfg,) = fig9_scenario().runs
    assert res["shared_pool"].c_h_in.shape[1] == cfg.ensemble.n_mod
    manifest = json.loads((out / "manifest.json").read_text())
    # the pooled-compartment baseline stays inside the closed-form
    # approximation's error band (same sampled vesicles on both sides)
    assert manifest["self_check"]["shared_pool_vs_independent_max_rel"] < 0.1
    assert (out / "fig9" / "ensemble_stats.csv").exists()
    assert (out / "fig9" / "shared_pool.csv").exists()


# SHA-256 of the fig9 preset's population artifacts (seed 0): the
# ensemble statistics and the shared-pool baseline. The vesicle draw, the
# batched analytic engine and the pool FDM all feed them, so a change to
# any of them that is not bit for bit shows here. The ensemble statistics
# come from the closed solver, whose bits go through numpy's SIMD exp and
# log: that digest holds for one numpy build on one CPU family (it
# changes under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
# on an AVX-512 host). The shared-pool digest does not change there.
GOLDEN_FIG9_CSV = {
    "ensemble_stats.csv": (
        "8c1a1364b49cab097f7fae075688a423"
        "ecba6d3ddf5391c07ca1a403911d1e67"),
    "shared_pool.csv": (
        "b3d45fa3bc36d13c24f8824b0820e7e4"
        "724fb7d22971eb4303a254da067c9125"),
}


@pytest.mark.parametrize("name", list(GOLDEN_FIG9_CSV))
def test_fig9_csv_matches_golden_hash(fig9_preset, name):
    out, _ = fig9_preset
    digest = hashlib.sha256((out / "fig9" / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_FIG9_CSV[name]


def test_empty_signal_constant_trajectories(tmp_path):
    import yaml
    from vesim.cli import main as cli_main
    tree = {
        "run": {"solver": "all", "seed": 0},
        "vesicle": {"d_in": "87 nm", "d_mem": "14 nm", "n_pumps": 40,
                    "n_sym": 30, "permeability": "3e-6 m/s"},
        "signal": {"intervals": [], "horizon": 50},
        "sample_interval": 5.0,
        "fdm": {"dt": "1e-2 s", "record_stride": 500},
    }
    cfg = tmp_path / "dark.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    assert cli_main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 0
    for solver in ("fdm", "exact", "closed"):
        data = np.genfromtxt(tmp_path / "o" / "dark"
                             / f"trajectory_{solver}.csv", delimiter=",",
                             names=True)
        assert np.allclose(data["C_H_in"], 3.98e-5, rtol=1e-12), solver
        assert np.allclose(data["C_S_in"], 300.0, rtol=1e-12), solver
        assert np.all(data["light"] == 0)


def _illumination_sweep(points) -> SweepSpec:
    points = [{"symport_rate": g, "permeability": p, "duration": d}
              for g, p, d in points]
    return SweepSpec(name="points", description="", kind="illumination",
                     points=points)


def _json(rows) -> str:
    # through their JSON text, so that NaN fields compare equal and each
    # float bit for bit
    return json.dumps(rows, sort_keys=True)


def test_sweep_point_failure_isolated():
    # an impossible point must produce an error row, not abort the sweep;
    # it is refused before its kinetics' batch runs, which gives the
    # other points the rows they get without it
    good = [(0.006, 3e-6, 60.0), (0.006, 5e-6, 90.0)]
    result = run_sweep(_illumination_sweep([(0.006, -1.0, 60.0), *good]))
    assert result.summary["failed"] == 1
    assert "permeability must be > 0" in result.rows[0]["error"]
    assert all("error" not in r for r in result.rows[1:])
    assert _json(result.rows[1:]) == _json(
        run_sweep(_illumination_sweep(good)).rows)


def test_sweep_batches_points_past_the_smallest_horizon_apart():
    # one kinetics, durations 15 s and 900 s: horizons 815 s and 1700 s,
    # so 900 s lies past the first batch's grid and runs in a second
    # batch; each row is the row of its point swept alone
    points = [(0.006, 3e-6, 900.0), (0.006, 3e-6, 15.0),
              (0.006, 5e-6, 300.0)]
    result = run_sweep(_illumination_sweep(points))
    assert result.summary["failed"] == 0
    assert _json(result.rows) == _json(
        [run_sweep(_illumination_sweep([p])).rows[0] for p in points])


def test_sweep_summary_json_is_strict(tmp_path):
    # the 15 s point never triggers symport: its combo's minimum
    # illumination time is inf in memory and null on disk, and no bare
    # Infinity or NaN token reaches the file
    result = run_sweep(_illumination_sweep([(0.006, 3e-6, 15.0)]))
    assert result.summary["combos"]["gamma_sym=0.006,g_l=3e-06"] == {
        "min_illumination_time": math.inf}
    out = write_sweep_artifacts(result, tmp_path / "strict")

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=refuse)
    assert summary["summary"]["combos"]["gamma_sym=0.006,g_l=3e-06"] == {
        "min_illumination_time": None}


def test_fig6_summary_has_an_entry_per_combo_of_its_own_points():
    # a combo outside the preset's gets its entry too, in first-seen
    # order; a combo whose light never triggers symport has no minimum
    points = [{"symport_rate": g, "permeability": p, "duration": d}
              for g, p, d in ((0.007, 4e-6, 60.0), (0.007, 4e-6, 15.0),
                              (0.006, 3e-6, 15.0), (0.007, 4e-6, 90.0))]
    result = run_sweep(SweepSpec(name="combos", description="",
                                 kind="illumination", points=points))
    combos = result.summary["combos"]
    assert list(combos) == ["gamma_sym=0.007,g_l=4e-06",
                            "gamma_sym=0.006,g_l=3e-06"]
    rows = [r for r in result.rows if r["symport_rate"] == 0.007]
    assert [r["symport_duration_closed"] > 0 for r in rows] == [
        True, False, True]
    assert combos["gamma_sym=0.007,g_l=4e-06"]["min_illumination_time"] \
        == rows[0]["t2_closed"] == rows[2]["t2_closed"] < 60.0
    assert combos["gamma_sym=0.006,g_l=3e-06"] == {
        "min_illumination_time": math.inf}


def test_ensemble_sweep_keys_rows_by_the_point_parameter():
    # a renamed fig10 sweep still orders its rows by mean diameter
    spec = dataclasses.replace(fig10_sweep(), name="diameters",
                               points=fig10_sweep().points[:1])
    summary = run_sweep(spec).summary
    assert summary["failed"] == 0
    assert summary["ordering_key"] == "d_mean_nm"
    assert list(summary["rows"]) == ["100"]
    assert "d_mean_nm" not in summary["rows"]["100"]


def _fig6_fdm_rows(points: list[dict]) -> list[dict]:
    """The rows of `points` after fig6's batched FDM cross-check alone."""
    rows = [dict(point) for point in points]
    _fig6_fdm(rows, [(k, *_fig6_inputs(p)) for k, p in enumerate(points)])
    return rows


def test_sweep_worker_roundtrip():
    # fig6's batched FDM cross-check adds exactly its column to each row
    points = [{"symport_rate": 0.006, "permeability": 3e-6, "duration": 60.0},
              {"symport_rate": 0.008, "permeability": 1e-5, "duration": 15.0}]
    for point, row in zip(points, _fig6_fdm_rows(points)):
        assert "error" not in row
        assert row == {**point,
                       "symport_duration_fdm": row["symport_duration_fdm"]}
    assert row["symport_duration_fdm"] == 0.0  # 15 s triggers no symport
    assert _fig6_fdm_rows(points[:1])[0]["symport_duration_fdm"] > 0


def test_fig6_sweep_spec_covers_required_grid():
    spec = fig6_sweep()
    combos = {(p["symport_rate"], p["permeability"]) for p in spec.points}
    assert (0.006, 3e-6) in combos
    assert any(g > 0.006 for g, _ in combos)
    assert any(l > 3e-6 for _, l in combos)


@pytest.mark.parametrize("duration", [15.0, 45.0, 600.0])
def test_fig6_point_stops_with_the_full_run_duration(duration):
    # the point's lane stops at its own horizon, in a batch whose other
    # lanes run longer and shorter under other kinetics, with the
    # duration of its full one-lane run; the 15 s point never triggers
    # symport (type b)
    point = {"symport_rate": 0.006, "permeability": 3e-6,
             "duration": duration}
    spec = dataclasses.replace(default_vesicle(), permeability=3e-6)
    kin = dataclasses.replace(default_kinetics(),
                              symport_rate_per_protein=0.006)
    sig = LightSignal([(0.0, duration)], horizon=duration + FIG6_TAIL)
    full = simulate_svs(spec, kin, default_environment(), sig,
                        FdmConfig(dt=1e-2, record_stride=100))
    (cyc,) = full.schedule.cycles
    assert (cyc.cycle_type == "b") == (duration == 15.0)
    others = [{"symport_rate": 0.008, "permeability": 1e-5, "duration": d}
              for d in (30.0, 300.0)]
    rows = _fig6_fdm_rows([others[0], point, others[1]])
    assert rows[1]["symport_duration_fdm"] == cyc.symport_duration


def test_an_unstable_fig6_point_is_its_own_error_row():
    # the FDM refuses one point at fig6's dt while its closed columns
    # exist: that point is the one error row, and the other points keep
    # the rows of a sweep without it
    good = [{"symport_rate": 0.006, "permeability": 3e-6, "duration": 60.0},
            {"symport_rate": 0.008, "permeability": 1e-5, "duration": 400.0}]
    bad = {"symport_rate": 10.0, "permeability": 3e-6, "duration": 45.0}
    sweep = SweepSpec(name="isolation", description="", kind="illumination")
    mixed = run_sweep(dataclasses.replace(sweep, points=[good[0], bad,
                                                         good[1]]))
    clean = run_sweep(dataclasses.replace(sweep, points=good))
    assert mixed.summary["failed"] == 1
    assert mixed.rows[1]["error"].startswith("FdmStabilityError: dt=0.01 s")
    assert "symport_duration_closed" in mixed.rows[1]
    assert [mixed.rows[0], mixed.rows[2]] == clean.rows
    with pytest.raises(FdmStabilityError):
        FIG6_FDM.check_stability(*_fig6_inputs(bad)[:2],
                                 default_environment())


def test_fig6_summary_holds_its_bytes_on_any_blas_kernel(tmp_path):
    # the line fit calls no BLAS or LAPACK routine, so the CPU kernels
    # OpenBLAS picks cannot move a bit of the summary
    summaries = []
    for kernels in ("", "Sandybridge"):
        env = dict(os.environ, OPENBLAS_CORETYPE=kernels,
                   PYTHONPATH=str(Path(vesim.__file__).parents[1]))
        if not kernels:
            del env["OPENBLAS_CORETYPE"]
        out = tmp_path / (kernels or "default")
        r = subprocess.run([sys.executable, "-m", "vesim.cli", "sweep",
                            "--preset", "fig6", "--out", str(out)],
                           env=env, capture_output=True)
        assert r.returncode == 0, r.stderr.decode()
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("solver", ["closed", "exact"])
def test_ensemble_parallel_matches_serial(solver):
    pop = PopulationDistributions()
    kin = default_kinetics()
    cfg = EnsembleConfig(n_mod=6, n_ex=4, seed=11)
    env = default_environment(v_out=cfg.v_out_per_vesicle)
    sig = LightSignal([(0.0, 200.0)], 400.0)
    ts = np.array([0.0, 200.0, 400.0])
    serial = run_ensemble(pop, kin, env, sig, cfg, solver, sample_times=ts,
                          workers=1)
    parallel = run_ensemble(pop, kin, env, sig, cfg, solver, sample_times=ts,
                            workers=2)
    assert np.array_equal(serial.per_exp_c_s_out, parallel.per_exp_c_s_out)
    assert np.array_equal(serial.per_exp_mean_c_h_in,
                          parallel.per_exp_mean_c_h_in)
