"""vesim benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory; the checkout is the parent of this file's
directory, and vesim is imported from its `src/`. Every workload drives
vesim in-process through `vesim.cli.main` (with `--workers 1`) and
`vesim.runner.emit_plot_data`, one call after the other (closed loop,
one client). A workload is a fixed sequence of parts, each a vesim
scenario; one pass runs every part once. Passes repeat while the next
one should end within `--seconds` (judged by the median pass so far),
and at least twice so that the CSVs of two passes can be compared byte
for byte.

Every operation (a CLI call, a plot export, a set-up) is timed in
reference seconds: its wall time scaled by the host's speed, sampled
with a fixed kernel just before and after it (see speed.py). Times in
the result line are reference seconds; wall seconds are printed beside
them.

With `--trace 1` one more pass runs with every layer function wrapped
(see spans.py); its spans go to `perfbench/out/`, and the per-layer
metrics replace the end-to-end ones in the result line.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines before it give the
environment stamp, every end-to-end metric with its unit, the time of
each part, the checks and the solver cross-validation values. See
README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_PASSES = 2
SETUP_REPS = 3  # before every pass, so they sample the whole run
DRIFT_LIMIT = 1e-9
SVS_PRESETS = ("fig3", "fig4", "fig5")
FIG4_TYPES = ["b", "a", "c", "c"]
ENSEMBLE_N_MOD = 1000
ENSEMBLE_N_EX = 10


class Ops:
    """Operations attempted and failed over the whole run.

    Each operation is timed by `clock`; `wall` and `ref` sum its wall
    and reference seconds (speed.py) over the run.
    """

    def __init__(self, clock: speed.Clock | None = None):
        self.attempted = 0
        self.failed = 0
        self.clock = clock or speed.Clock()
        self.wall = self.ref = 0.0

    def _timed(self, fn: Callable[[], object]) -> object:
        out, wall, ref = self.clock.time(fn)
        self.wall += wall
        self.ref += ref
        return out

    def cli(self, *argv: str) -> None:
        self.attempted += 1
        main = sys.modules["vesim.cli"].main
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self._timed(lambda: main([*argv, "--workers", "1"]))
        except Exception:  # noqa: BLE001 - counted, not fatal
            traceback.print_exc()
            code = -1
        if code != 0:
            self.failed += 1

    def plot(self, run_dir: Path) -> None:
        self.attempted += 1
        emit = sys.modules["vesim.runner"].emit_plot_data
        try:
            self._timed(lambda: emit(run_dir))
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            print(f"emit_plot_data {run_dir}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            self.failed += 1


# --- parts -------------------------------------------------------------------

def _vesicle_seconds(cfg) -> float:
    """Vesicles x horizon summed over the solver calls of one RunConfig."""
    h = cfg.signal.horizon
    if cfg.vesicle is not None:
        return len(cfg.solvers) * h
    ens = cfg.ensemble
    total = (ens.n_mod * ens.n_ex + 1) * h
    if "fdm" in cfg.solvers:  # shared-pool baseline over one experiment
        total += ens.n_mod * h
    return total


def _build_svs(work: Path, seed: int) -> float:
    presets = sys.modules["vesim.presets"]
    return sum(_vesicle_seconds(cfg) for p in SVS_PRESETS
               for cfg in presets.RUN_PRESETS[p]().runs)


def _run_svs(d: Path, seed: int, ops: Ops) -> None:
    for p in SVS_PRESETS:
        ops.cli("run", "--preset", p, "--out", str(d / p))
    for p in SVS_PRESETS:
        ops.plot(d / p)


def _build_fig6(work: Path, seed: int) -> float:
    sweep = sys.modules["vesim.sweep"]
    spec = sweep.SWEEP_PRESETS["fig6"]()
    # one closed and one FDM run per point
    return sum(2 * (pt["duration"] + sweep.FIG6_TAIL) for pt in spec.points)


def _run_fig6(d: Path, seed: int, ops: Ops) -> None:
    ops.cli("sweep", "--preset", "fig6", "--out", str(d / "fig6"))
    try:
        rows = _json(d / "fig6" / "summary.json")["rows"]
    except OSError:  # the failed sweep call is already counted
        return
    ops.attempted += len(rows)
    ops.failed += sum("error" in r for r in rows)


def _build_fig9(work: Path, seed: int) -> float:
    presets = sys.modules["vesim.presets"]
    return sum(_vesicle_seconds(cfg)
               for cfg in presets.RUN_PRESETS["fig9"](seed=seed).runs)


def _run_fig9(d: Path, seed: int, ops: Ops) -> None:
    ops.cli("run", "--preset", "fig9", "--seed", str(seed),
            "--out", str(d / "fig9"))


def ensemble_config(work: Path) -> Path:
    """Closed-solver population config with the default distributions."""
    path = work / "ensemble.yaml"
    path.write_text(
        "run: {solver: closed}\n"
        "population: {}\n"
        f"ensemble: {{n_mod: {ENSEMBLE_N_MOD}, n_ex: {ENSEMBLE_N_EX}}}\n"
        "signal: {intervals: [[0, 800]], horizon: 1600}\n"
        "sample_interval: 10\n")
    return path


def _build_ensemble(work: Path, seed: int) -> float:
    cfg = sys.modules["vesim.config"].load_config(work / "ensemble.yaml")
    return _vesicle_seconds(cfg)


def _run_ensemble(d: Path, seed: int, ops: Ops) -> None:
    ops.cli("run", "--config", str(d.parent / "ensemble.yaml"),
            "--seed", str(seed), "--out", str(d / "ensemble"))


# --- output checks -----------------------------------------------------------

def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _types(entry: dict, solver: str) -> list[str]:
    return [c["type"] for c in entry["schedule"][solver]]


def _fdm_drift_ok(d: Path) -> bool:
    drifts = [e["conservation_drift"]
              for p in SVS_PRESETS
              for e in _json(d / p / "manifest.json")["runs"].values()]
    return len(drifts) > 0 and all(x < DRIFT_LIMIT for x in drifts)


def _checks_svs(d: Path) -> dict[str, Callable[[], bool]]:
    def fig4_types():
        entry = _json(d / "fig4" / "manifest.json")["runs"]["fig4"]
        return all(_types(entry, s) == FIG4_TYPES
                   for s in ("fdm", "exact", "closed"))

    def fig3_slopes():
        chk = _json(d / "fig3" / "manifest.json")["self_check"]
        return (chk["slopes_strictly_decreasing_fdm"] is True
                and chk["slopes_strictly_decreasing_closed"] is True)

    return {"fig4_types_b_a_c_c": fig4_types,
            "fig3_slopes_strictly_decreasing": fig3_slopes,
            "fdm_conservation_drift": lambda: _fdm_drift_ok(d)}


def _checks_fig6(d: Path) -> dict[str, Callable[[], bool]]:
    def no_failed():
        doc = _json(d / "fig6" / "summary.json")
        return doc["summary"]["failed"] == 0 and len(doc["rows"]) > 0
    return {"fig6_no_failed_points": no_failed}


def _series_complete(run_dir: Path, label: str) -> bool:
    """ensemble_stats.csv has one finite row per sample time."""
    entry = _json(run_dir / "manifest.json")["runs"][label]
    cfg = entry["config"]
    n_t = round(cfg["signal"]["horizon"] / cfg["sample_interval"]) + 1
    with open(run_dir / label / "ensemble_stats.csv") as fh:
        lines = fh.read().splitlines()[1:]
    return (len(lines) == n_t and entry["ensemble"]["n_mod"]
            == cfg["ensemble"]["n_mod"]
            and all(math.isfinite(float(x))
                    for line in lines for x in line.split(",")))


def _checks_fig9(d: Path) -> dict[str, Callable[[], bool]]:
    def pool_drift():
        entry = _json(d / "fig9" / "manifest.json")["runs"]["fig9"]
        return entry["shared_pool_conservation_drift"] < DRIFT_LIMIT
    return {"fig9_ensemble_series_complete":
            lambda: _series_complete(d / "fig9", "fig9"),
            "shared_pool_conservation_drift": pool_drift}


def _checks_ensemble(d: Path) -> dict[str, Callable[[], bool]]:
    return {"ensemble_series_complete":
            lambda: _series_complete(d / "ensemble", "ensemble")}


# --- cross-validation values (reported, not checked) -------------------------

def _xval_svs(d: Path) -> dict:
    manifests = [_json(d / p / "manifest.json") for p in SVS_PRESETS]
    mismatch = 0
    for m in manifests:
        for entry in m["runs"].values():
            fdm = _types(entry, "fdm")
            for solver in entry["schedule"]:
                if solver != "fdm":
                    mismatch += sum(a != b for a, b in
                                    zip(fdm, _types(entry, solver)))
    fig4, fig5 = manifests[1]["self_check"], manifests[2]["self_check"]
    return {
        "xval_dev_s": (max(fig4["max_crossing_deviation_vs_fdm_s"].values()),
                       "s"),
        "xval_c_s_in_rel": (max(v for k, v in fig5.items() if k.startswith(
            "max_c_s_in_error_rel_initial_")), "ratio"),
        "xval_type_mismatch": (mismatch, "count"),
        "conservation_drift": (max(e["conservation_drift"] for m in manifests
                                   for e in m["runs"].values()), "ratio"),
    }


def _xval_fig6(d: Path) -> dict:
    rows = _json(d / "fig6" / "summary.json")["rows"]
    return {"xval_dev_s": (max(abs(r["symport_duration_closed"]
                                   - r["symport_duration_fdm"])
                               for r in rows if "error" not in r), "s")}


def _xval_fig9(d: Path) -> dict:
    entry = _json(d / "fig9" / "manifest.json")["runs"]["fig9"]
    return {"conservation_drift": (entry["shared_pool_conservation_drift"],
                                   "ratio")}


@dataclass(frozen=True)
class Part:
    """One vesim scenario of a workload, with its checks."""
    build: Callable[[Path, int], float]  # inputs -> vesicle-seconds a run
    run: Callable[[Path, int, Ops], None]
    checks: Callable[[Path], dict[str, Callable[[], bool]]]
    xval: Callable[[Path], dict] = lambda d: {}


PARTS = {
    "svs-presets": Part(_build_svs, _run_svs, _checks_svs, _xval_svs),
    "sweep-fig6": Part(_build_fig6, _run_fig6, _checks_fig6, _xval_fig6),
    "pool-fig9": Part(_build_fig9, _run_fig9, _checks_fig9, _xval_fig9),
    "ensemble-closed": Part(_build_ensemble, _run_ensemble,
                            _checks_ensemble),
}

# Two workloads, split by mechanism: everything single-vesicle (FDM
# step loop, exact, sweep, trajectory CSVs and plot export) against
# everything population (shared-pool FDM, closed ensemble). Two long
# workloads instead of four short ones, because on a shared 2-core host
# the speed of a pass drifts by up to ±25% over minutes (README.md).
WORKLOADS = {
    "single-vesicle": ("svs-presets", "sweep-fig6"),
    "population": ("pool-fig9", "ensemble-closed"),
}


# --- measurement -------------------------------------------------------------

def _purge_vesim() -> None:
    for name in [m for m in sys.modules
                 if m == "vesim" or m.startswith("vesim.")]:
        del sys.modules[name]


def _import_vesim() -> None:
    for name in ("vesim.cli", "vesim.config", "vesim.presets",
                 "vesim.sweep", "vesim.runner"):
        importlib.import_module(name)


def measure_setup(parts: tuple[str, ...], work: Path, seed: int,
                  clock: speed.Clock) -> tuple[list[float], float]:
    """Time importing vesim afresh and building the workload's inputs.

    numpy, scipy and yaml stay imported; only vesim is imported again.
    Returns the reference-second times of SETUP_REPS repetitions and
    the vesicle-seconds of one pass.
    """
    def setup() -> float:
        _import_vesim()
        return sum(PARTS[p].build(work, seed) for p in parts)

    times = []
    for _ in range(SETUP_REPS):
        _purge_vesim()
        vs, _, ref = clock.time(setup)
        times.append(ref)
    return times, vs


def run_pass(parts: tuple[str, ...], d: Path, seed: int,
             ops: Ops) -> dict[str, tuple[float, float]]:
    """Run every part once into `d`.

    Returns each part's time in wall and in reference seconds, summed
    over its operations.
    """
    times = {}
    for p in parts:
        wall, ref = ops.wall, ops.ref
        PARTS[p].run(d, seed, ops)
        times[p] = (ops.wall - wall, ops.ref - ref)
    return times


def csv_hashes(d: Path) -> dict[str, str]:
    out = {}
    for path in sorted(d.rglob("*.csv")):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[str(path.relative_to(d))] = h.hexdigest()
    return out


def check_names(parts: tuple[str, ...]) -> list[str]:
    return [name for p in parts for name in PARTS[p].checks(Path())] + [
        "csv_byte_identical"]


def check_pass(parts: tuple[str, ...], d: Path,
               ref: dict[str, str] | None) -> tuple[dict[str, bool], dict]:
    """Run the checks of every part on pass directory `d`.

    `ref` holds the CSV hashes of an earlier pass with the same seed;
    the CSVs of `d` must match them byte for byte.
    """
    results = {}
    for p in parts:
        for name, check in PARTS[p].checks(d).items():
            try:
                results[name] = bool(check())
            except (OSError, KeyError, ValueError, TypeError,
                    IndexError) as exc:
                print(f"check {name}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                results[name] = False
    hashes = csv_hashes(d)
    results["csv_byte_identical"] = bool(hashes) and (ref is None
                                                      or hashes == ref)
    return results, hashes


def _high_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (n={n}, needs n >= 11)"
    return (f"p{100.0 * (n - 10) / n:.1f} {sorted(values)[n - 11]:.6f} s "
            f"(n={n})")


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment_stamp(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "workload": workload, "seed": seed}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full result document."""
    parts = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        ensemble_config(work)
        _import_vesim()  # untimed: loads numpy, scipy and yaml
        ops = Ops()
        walls: list[float] = []  # wall seconds of each pass
        passes: list[float] = []  # reference seconds of each pass
        part_times: dict[str, list[float]] = {p: [] for p in parts}
        setups: list[float] = []
        failed_checks: set[str] = set()
        ref = prev = None
        t_start = time.perf_counter()
        # another pass only if it should end within `seconds`
        while (len(walls) < MIN_PASSES
               or time.perf_counter() - t_start + statistics.median(walls)
               <= seconds):
            times, vesicle_s = measure_setup(parts, work, seed, ops.clock)
            setups += times
            d = work / f"pass{len(walls)}"
            t0 = time.perf_counter()
            times = run_pass(parts, d, seed, ops)
            walls.append(time.perf_counter() - t0)
            passes.append(sum(r for _, r in times.values()))
            for p, (_, r) in times.items():
                part_times[p].append(r)
            results, hashes = check_pass(parts, d, ref)
            failed_checks |= {k for k, ok in results.items() if not ok}
            ref = ref or hashes
            if prev is not None:
                shutil.rmtree(prev)
            prev = d
        wall_s = statistics.median(passes)
        doc = {
            "env": environment_stamp(workload, seed),
            "passes": passes,
            "passes_wall": walls,
            "parts": part_times,
            "speed_samples": ops.clock.samples,
            "checks": check_names(parts),
            "checks_failed": sorted(failed_checks),
            "xval": {p: PARTS[p].xval(prev) for p in parts},
            "metrics": {
                "wall_s": (wall_s, "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "vesicle_s_per_s": (vesicle_s / wall_s, "ves.s/s"),
            },
        }
        if trace:
            doc["layers"] = traced_pass(workload, work, seed, ops, ref,
                                        wall_s, failed_checks, doc["env"])
            doc["checks_failed"] = sorted(failed_checks)
        doc["attempted"], doc["failed"] = ops.attempted, ops.failed
        return doc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_pass(workload: str, work: Path, seed: int, ops: Ops, ref: dict,
                untraced_s: float, failed_checks: set, env: dict) -> dict:
    """One pass with every layer wrapped; returns per-layer metrics.

    Span times are wall seconds. The per-layer times are scaled to
    reference seconds by the pass's own ratio of reference to wall time,
    like the end-to-end times they add up to.
    """
    parts = WORKLOADS[workload]
    tr = spans.Tracer()
    tr.install(spans.vesim_targets())
    d = work / "traced"
    try:
        times = run_pass(parts, d, seed, ops)
    finally:
        tr.uninstall()
    traced_wall = sum(w for w, _ in times.values())
    traced_s = sum(r for _, r in times.values())
    scale = traced_s / traced_wall
    results, _ = check_pass(parts, d, ref)
    failed_checks |= {k for k, ok in results.items() if not ok}
    metrics = {k: v * scale if spans.LAYER_UNITS[k] in ("s", "ms", "us")
               else v for k, v in spans.layer_metrics(tr).items()}
    metrics["tracing.overhead_s"] = traced_s - untraced_s
    span_file = OUT / f"spans-{workload}-seed{seed}.json"
    tr.write(span_file, {"env": env, "traced_s": traced_s,
                         "traced_wall_s": traced_wall,
                         "untraced_median_s": untraced_s})
    print(f"spans: {len(tr.spans)} written to {span_file}")
    print(f"{'span':28s} {'calls':>7s} {'busy_s':>10s} {'self_s':>10s}")
    for name, calls, busy, self_s in tr.table():
        print(f"{name:28s} {calls:7d} {busy:10.4f} {self_s:10.4f}")
    print(f"span times in wall seconds; per-layer times x {scale:.4f} "
          "to reference seconds")
    print(f"tracing overhead {traced_s - untraced_s:+.4f} s "
          f"(traced {traced_s:.4f} s, untraced median {untraced_s:.4f} s, "
          "reference seconds)")
    return {k: (v, spans.LAYER_UNITS[k]) for k, v in metrics.items()}


def report(doc: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the result-line object."""
    print("env: " + json.dumps(doc["env"], sort_keys=True))
    walls = doc["passes"]
    print(f"workload {doc['env']['workload']}: {len(walls)} passes, "
          "pass times " + " ".join(f"{w:.4f}" for w in walls)
          + " reference s; " + " ".join(f"{w:.4f}" for w in doc["passes_wall"])
          + " wall s (with speed samples)")
    samples = doc["speed_samples"]
    print(f"speed samples: {len(samples)}, kernel median "
          f"{statistics.median(samples) * 1e3:.3f} ms, range "
          f"{min(samples) * 1e3:.3f}-{max(samples) * 1e3:.3f} ms "
          f"(reference {speed.REF_S * 1e3:g} ms)")
    print(f"wall_s high percentile: {_high_percentile(walls)}")
    for name, (value, unit) in doc["metrics"].items():
        print(f"{name} {value} {unit}")
    for part, times in doc["parts"].items():
        print(f"part {part}: median {statistics.median(times)} s, "
              + " ".join(f"{t:.4f}" for t in times))
    attempted, failed = doc["attempted"], doc["failed"]
    print(f"error_rate {failed / attempted} ({failed}/{attempted} "
          "operations failed)")
    print(f"checks_failed {len(doc['checks_failed'])} of "
          f"{len(doc['checks'])} {doc['checks_failed']}")
    for part, values in doc["xval"].items():
        for name, (value, unit) in values.items():
            print(f"{part}: {name} {value} {unit}")
    if trace:
        for name, (value, unit) in doc["layers"].items():
            print(f"{name} {value} {unit}")
    metrics = doc["layers"] if trace else doc["metrics"]
    return {"correct": failed == 0 and not doc["checks_failed"],
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # run the clean-up in `run` when stopped by SIGTERM
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "vesim" / "__init__.py").is_file():
        print(f"vesim sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(doc, bool(args.trace))
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
