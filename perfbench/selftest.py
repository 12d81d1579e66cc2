"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

Every workload runs once, traced, with shrunken presets: the toy sizes
are patched into the freshly imported vesim modules, never into the
sources. The test checks that
  * every end-to-end metric of BENCHMARK.json prints with its unit, and
    the result line carries exactly the end-to-end (untraced) or
    per-layer (traced) metrics, with their units;
  * the span file parses;
  * a corrupted artifact in a copy of a pass raises checks_failed;
  * without the vesim sources the benchmark exits non-zero and prints
    no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _toy_vesim() -> None:
    presets = sys.modules["vesim.presets"]
    sweep = sys.modules["vesim.sweep"]

    def without_exact(builder):
        def build(**kw):
            scenario = builder(**kw)
            scenario.runs = [dataclasses.replace(c, solvers=("fdm", "closed"))
                             for c in scenario.runs]
            return scenario
        return build

    presets.RUN_PRESETS["fig3"] = without_exact(presets.fig3_scenario)
    presets.RUN_PRESETS["fig5"] = without_exact(presets.fig5_scenario)
    presets.FIG9_SIGNAL, presets.FIG9_HORIZON = ((0.0, 100.0),), 200.0
    presets.RUN_PRESETS["fig9"] = functools.partial(presets.fig9_scenario,
                                                    n_mod=4, n_ex=2)
    sweep.FIG6_DURATIONS = (60.0, 120.0)
    sweep.FIG6_COMBOS = sweep.FIG6_COMBOS[:1]


def _expect(cond: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def _metrics_and_units(name: str, failures: list[str]) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        doc = run.run(name, SEED, 0.0, trace=True)
        traced = run.report(doc, trace=True)
    lines = set(buf.getvalue().splitlines())
    with contextlib.redirect_stdout(io.StringIO()):
        untraced = run.report(doc, trace=False)
    for kind, result in (("end_to_end", untraced), ("per_layer", traced)):
        want = {m["name"]: m["unit"] for m in BENCH[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        _expect(got == want, f"{name}: result line has every {kind} metric "
                             "with its unit", failures)
    _expect(all(any(line.startswith(f"{m['name']} ")
                    and line.endswith(f" {m['unit']}") for line in lines)
                for m in BENCH["end_to_end"]),
            f"{name}: every end-to-end metric printed with its unit",
            failures)
    _expect(traced["correct"] and traced["failed"] == 0
            and traced["attempted"] > 0,
            f"{name}: correct, no failed operation", failures)
    span_file = run.OUT / f"spans-{name}-seed{SEED}.json"
    doc = json.loads(span_file.read_text())
    _expect(len(doc["spans"]) > 0
            and all({"id", "name", "start", "end", "parent"} <= set(s)
                    for s in doc["spans"]),
            f"{name}: span file parses", failures)


def _corruption(failures: list[str]) -> None:
    parts = run.WORKLOADS["single-vesicle"]
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        run._import_vesim()
        good = tmp / "pass0"
        with contextlib.redirect_stdout(io.StringIO()):
            run.run_pass(parts, good, SEED, run.Ops())
        results, ref = run.check_pass(parts, good, None)
        _expect(all(results.values()), "clean pass passes every check",
                failures)

        bad_csv = tmp / "bad_csv"
        shutil.copytree(good, bad_csv)
        path = bad_csv / "fig4" / "fig4" / "trajectory_fdm.csv"
        data = bytearray(path.read_bytes())
        data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
        path.write_bytes(bytes(data))
        results, _ = run.check_pass(parts, bad_csv, ref)
        _expect(not results["csv_byte_identical"],
                "corrupted trajectory CSV raises checks_failed", failures)

        bad_manifest = tmp / "bad_manifest"
        shutil.copytree(good, bad_manifest)
        path = bad_manifest / "fig4" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["runs"]["fig4"]["schedule"]["closed"][1]["type"] = "c"
        path.write_text(json.dumps(manifest))
        results, _ = run.check_pass(parts, bad_manifest, ref)
        _expect(not results["fig4_types_b_a_c_c"],
                "corrupted fig4 schedule raises checks_failed", failures)


def _without_sources(failures: list[str]) -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, tmp / run.HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "population", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
    _expect(proc.returncode != 0 and "{" not in proc.stdout,
            "without vesim sources: non-zero exit, no result", failures)


def main() -> int:
    run.ENSEMBLE_N_MOD, run.ENSEMBLE_N_EX = 20, 3
    import_vesim = run._import_vesim

    def toy_import():
        import_vesim()
        _toy_vesim()
    run._import_vesim = toy_import
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    failures: list[str] = []
    _expect(sorted(w["name"] for w in BENCH["workloads"])
            == sorted(run.WORKLOADS), "BENCHMARK.json names every workload",
            failures)
    for name in run.WORKLOADS:
        _metrics_and_units(name, failures)
    _corruption(failures)
    _without_sources(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
