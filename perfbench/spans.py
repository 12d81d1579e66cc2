"""In-memory span tracer that wraps vesim's public layer functions.

Each wrapped call records one span (name, start, end, parent) and adds
to named counters. Spans stay in memory until `write` dumps them once,
at the end of the traced pass.

vesim modules import these functions by name (`from .fdm import
simulate_svs` in runner, sweep and ensemble), so `install` replaces the
function in every loaded vesim module that holds it, and `uninstall`
puts the originals back.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, count=None):
        """Return `fn` recording a span per call.

        `name` is a string or a function of (args, kwargs) giving the span
        name; `count(tracer, name, fn, args, kwargs, result)` runs after
        the span closes and adds to `self.counts`.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            sid = len(spans)
            spans.append([span_name, 0.0, 0.0,
                          stack[-1] if stack else None])
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid][1], spans[sid][2] = t0, clock()
                stack.pop()
                self.counts[f"{span_name}.raised"] += 1
                raise
            spans[sid][1], spans[sid][2] = t0, clock()
            stack.pop()
            if count is not None:
                count(self, span_name, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Patch each (module, attribute, name, count) target everywhere.

        The original object of `module.attribute` is replaced in every
        loaded `vesim` module that holds the same object.
        """
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "vesim"
                                         or k.startswith("vesim."))]
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # --- summaries ----------------------------------------------------------

    def _durations(self):
        return [end - start for _, start, end, _ in self.spans]

    def busy(self, name: str) -> float:
        """Wall time inside spans `name`, nested same-name spans once."""
        dur = self._durations()
        total = 0.0
        for sid, (span_name, _, _, parent) in enumerate(self.spans):
            if span_name != name:
                continue
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                total += dur[sid]
        return total

    def self_time(self, name: str) -> float:
        """Time in spans `name` not covered by their direct child spans."""
        dur = self._durations()
        total = 0.0
        for sid, span in enumerate(self.spans):
            if span[0] == name:
                total += dur[sid]
            elif span[3] is not None and self.spans[span[3]][0] == name:
                total -= dur[sid]
        return total

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, busy_s, self_s) for every span name, by busy time."""
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        rows = [(n, c, self.busy(n), self.self_time(n))
                for n, c in calls.items()]
        return sorted(rows, key=lambda r: -r[2])

    def write(self, path: Path, meta: dict) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        doc = dict(meta)
        doc["spans"] = [{"id": sid, "name": name, "start": start - t0,
                         "end": end - t0, "parent": parent}
                        for sid, (name, start, end, parent)
                        in enumerate(self.spans)]
        doc["counts"] = dict(self.counts)
        tmp = Path(f"{path}.tmp{os.getpid()}")
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        tmp.replace(path)


# --- vesim layer targets -----------------------------------------------------

def _count_svs(tr, name, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    dt = a["cfg"].dt if a["cfg"] is not None else _fdm_default_dt()
    tr.counts["fdm.svs.steps"] += int(round(a["signal"].horizon / dt))


def _count_pool(tr, name, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    dt = a["cfg"].dt if a["cfg"] is not None else _fdm_default_dt()
    steps = int(round(a["signal"].horizon / dt))
    tr.counts["fdm.pool.steps"] += steps
    tr.counts["fdm.pool.vesicle_steps"] += steps * len(a["specs"])


def _fdm_default_dt() -> float:
    return sys.modules["vesim.fdm"].FdmConfig().dt


def _analytic_name(args, kwargs) -> str:
    mode = args[4] if len(args) > 4 else kwargs.get("mode", "closed")
    return f"analytic.{mode}"


def _count_analytic(tr, name, fn, args, kwargs, result):
    tr.counts[f"{name}.samples"] += len(result.t)


def _count_ensemble(tr, name, fn, args, kwargs, result):
    cfg = _bound(fn, args, kwargs)["cfg"]
    tr.counts["ensemble.vesicles"] += cfg.n_mod * cfg.n_ex + 1


def _count_sweep(tr, name, fn, args, kwargs, result):
    tr.counts["sweep.points"] += len(result.rows)
    tr.counts["sweep.failed"] += sum("error" in r for r in result.rows)


PLOT_INPUTS = ("**/trajectory_*.csv", "**/ensemble_stats.csv",
               "**/shared_pool.csv")


def _count_plot(tr, name, fn, args, kwargs, result):
    run_dir = Path(_bound(fn, args, kwargs)["run_dir"])
    tr.counts["runner.plot.bytes_read"] += sum(
        p.stat().st_size for pat in PLOT_INPUTS for p in run_dir.glob(pat))
    with open(result, "rb") as fh:
        tr.counts["runner.plot.rows"] += fh.read().count(b"\n") - 1


def _count_csv(tr, name, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tr.counts["trajectory.csv.rows"] += len(a["traj"])
    tr.counts["trajectory.csv.bytes"] += os.path.getsize(a["path"])


def vesim_targets() -> list[tuple]:
    """(module, attribute, span name, counter) for each traced layer."""
    m = sys.modules
    return [
        (m["vesim.cli"], "main", "cli.main", None),
        (m["vesim.sweep"], "run_sweep", "sweep.run_sweep", _count_sweep),
        (m["vesim.runner"], "run_scenario", "runner.run_scenario", None),
        (m["vesim.runner"], "execute_run", "runner.execute_run", None),
        (m["vesim.runner"], "write_sweep_artifacts", "runner.sweep_write",
         None),
        (m["vesim.runner"], "emit_plot_data", "runner.plot", _count_plot),
        (m["vesim.ensemble"], "run_ensemble", "ensemble.run_ensemble",
         _count_ensemble),
        (m["vesim.fdm"], "simulate_svs", "fdm.svs", _count_svs),
        (m["vesim.fdm"], "simulate_mvs_shared_pool", "fdm.pool", _count_pool),
        (m["vesim.analytic"], "run_analytic", _analytic_name,
         _count_analytic),
        (m["vesim.trajectory"], "write_trajectory_csv", "trajectory.csv",
         _count_csv),
    ]


# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "fdm.svs.calls": "count", "fdm.svs.steps": "count",
    "fdm.svs.busy_s": "s", "fdm.svs.us_per_step": "us",
    "fdm.pool.steps": "count", "fdm.pool.vesicle_steps": "count",
    "fdm.pool.busy_s": "s", "fdm.pool.us_per_step": "us",
    "analytic.exact.calls": "count", "analytic.exact.samples": "count",
    "analytic.exact.busy_s": "s", "analytic.exact.ms_per_run": "ms",
    "analytic.closed.calls": "count", "analytic.closed.busy_s": "s",
    "analytic.closed.us_per_run": "us",
    "ensemble.vesicles": "count", "ensemble.busy_s": "s",
    "ensemble.self_s": "s", "ensemble.ms_per_vesicle": "ms",
    "sweep.points": "count", "sweep.failed": "count", "sweep.self_s": "s",
    "runner.execute.busy_s": "s", "runner.persist_s": "s",
    "runner.plot.busy_s": "s", "runner.plot.rows": "count",
    "runner.plot.bytes_read": "B",
    "trajectory.csv.calls": "count", "trajectory.csv.rows": "count",
    "trajectory.csv.bytes": "B", "trajectory.csv.us_per_row": "us",
    "cli.self_s": "s",
    "tracing.spans": "count", "tracing.overhead_s": "s",
}


def _per(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric; layers the pass never entered read 0."""
    c = tr.counts
    calls = defaultdict(int)
    for span in tr.spans:
        calls[span[0]] += 1
    svs, pool = tr.busy("fdm.svs"), tr.busy("fdm.pool")
    exact, closed = tr.busy("analytic.exact"), tr.busy("analytic.closed")
    ens, plot = tr.busy("ensemble.run_ensemble"), tr.busy("runner.plot")
    csv_busy = tr.busy("trajectory.csv")
    return {
        "fdm.svs.calls": calls["fdm.svs"],
        "fdm.svs.steps": c["fdm.svs.steps"],
        "fdm.svs.busy_s": svs,
        "fdm.svs.us_per_step": _per(svs, c["fdm.svs.steps"], 1e6),
        "fdm.pool.steps": c["fdm.pool.steps"],
        "fdm.pool.vesicle_steps": c["fdm.pool.vesicle_steps"],
        "fdm.pool.busy_s": pool,
        "fdm.pool.us_per_step": _per(pool, c["fdm.pool.steps"], 1e6),
        "analytic.exact.calls": calls["analytic.exact"],
        "analytic.exact.samples": c["analytic.exact.samples"],
        "analytic.exact.busy_s": exact,
        "analytic.exact.ms_per_run": _per(exact, calls["analytic.exact"],
                                          1e3),
        "analytic.closed.calls": calls["analytic.closed"],
        "analytic.closed.busy_s": closed,
        "analytic.closed.us_per_run": _per(closed, calls["analytic.closed"],
                                           1e6),
        "ensemble.vesicles": c["ensemble.vesicles"],
        "ensemble.busy_s": ens,
        "ensemble.self_s": tr.self_time("ensemble.run_ensemble"),
        "ensemble.ms_per_vesicle": _per(ens, c["ensemble.vesicles"], 1e3),
        "sweep.points": c["sweep.points"],
        "sweep.failed": c["sweep.failed"],
        "sweep.self_s": tr.self_time("sweep.run_sweep"),
        "runner.execute.busy_s": tr.busy("runner.execute_run"),
        "runner.persist_s": (tr.busy("runner.run_scenario")
                             - tr.busy("runner.execute_run")),
        "runner.plot.busy_s": plot,
        "runner.plot.rows": c["runner.plot.rows"],
        "runner.plot.bytes_read": c["runner.plot.bytes_read"],
        "trajectory.csv.calls": calls["trajectory.csv"],
        "trajectory.csv.rows": c["trajectory.csv.rows"],
        "trajectory.csv.bytes": c["trajectory.csv.bytes"],
        "trajectory.csv.us_per_row": _per(csv_busy,
                                          c["trajectory.csv.rows"], 1e6),
        "cli.self_s": tr.self_time("cli.main"),
        "tracing.spans": len(tr.spans),
    }
