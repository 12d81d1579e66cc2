# cli.py
"""
Command-line interface.

    vesim run --preset fig3 [--seed N] [--out DIR] [--workers N]
    vesim run --config cfg.yaml [--solver fdm|exact|closed|all]
    vesim sweep --preset fig6 [--seed N] [--out DIR]
    vesim presets list
    vesim emit-plot-data RUN_DIR

Exit codes: 0 success, 1 validation or path error, 2 solver error. The
output root defaults to ./runs and can be overridden with $VESIM_OUT_ROOT.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ConfigError, check_seed, load_config
from .presets import RUN_PRESETS, Scenario, describe_presets
from .runner import (MissingArtifacts, SolverFailure, _as_written,
                     emit_plot_data, make_out_dir, run_scenario,
                     write_sweep_artifacts)
from .sweep import SWEEP_PRESETS, run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vesim",
        description="simulator for light-driven vesicular release "
                    "transmitters")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario or config file")
    run_p.add_argument("--preset", choices=sorted(RUN_PRESETS))
    run_p.add_argument("--config", type=Path, help="YAML/JSON config path")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", type=Path, default=None)
    run_p.add_argument("--workers", type=int, default=1,
                       help="processes for a population run's experiments")
    run_p.add_argument("--solver",
                       choices=["fdm", "exact", "closed", "all"],
                       default=None, help="solvers of a --config run")

    sweep_p = sub.add_parser("sweep", help="execute a sweep preset")
    sweep_p.add_argument("--preset", choices=sorted(SWEEP_PRESETS),
                         required=True)
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out", type=Path, default=None)
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="unused: a sweep runs in one process")

    presets_p = sub.add_parser("presets", help="inspect available presets")
    presets_p.add_argument("action", choices=["list"])

    plot_p = sub.add_parser("emit-plot-data",
                            help="flatten run artifacts into tidy plot data")
    plot_p.add_argument("run_dir", type=Path)
    return p


def _scenario_from_args(args) -> Scenario:
    if bool(args.preset) == (args.config is not None):
        raise ConfigError("give exactly one of --preset and --config")
    if args.preset:
        if args.solver:
            raise ConfigError("--solver applies to --config runs only; a "
                              "preset runs its own solvers")
        builder = RUN_PRESETS[args.preset]
        return (builder(seed=args.seed) if args.seed is not None
                else builder())
    # the file name's bytes read as UTF-8, so the run's name, directory
    # and manifest do not depend on the locale
    name = _as_written(args.config.stem)
    cfg = load_config(args.config, label=name)
    if args.seed is not None:
        cfg = _reseed(cfg, args.seed)
    if args.solver:
        cfg = dataclasses.replace(cfg, solvers=(
            ("fdm", "exact", "closed") if args.solver == "all"
            else (args.solver,)))
    return Scenario(name=name,
                    description=f"config file {_as_written(args.config)}",
                    runs=[cfg])


def _reseed(cfg, seed: int):
    ens = (dataclasses.replace(cfg.ensemble, seed=seed)
           if cfg.ensemble is not None else None)
    return dataclasses.replace(cfg, seed=seed, ensemble=ens)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed, "--seed")
        if getattr(args, "workers", 1) < 1:
            raise ConfigError("--workers: must be >= 1")
        if args.command == "run":
            scenario = _scenario_from_args(args)
            out, _ = run_scenario(scenario, out_dir=args.out,
                                  workers=args.workers)
            print(f"wrote {out}")
        elif args.command == "sweep":
            builder = SWEEP_PRESETS[args.preset]
            spec = (builder(seed=args.seed) if args.seed is not None
                    else builder())
            out = make_out_dir(args.out, spec.name)  # before any point runs
            result = run_sweep(spec)
            write_sweep_artifacts(result, out)
            failed = result.summary.get("failed", 0)
            print(f"wrote {out} ({failed} failed points)")
            if failed:
                return EXIT_SOLVER
        elif args.command == "presets":
            for name, kind, desc in describe_presets():
                print(f"{name:8s} {kind:6s} {desc}")
        elif args.command == "emit-plot-data":
            path = emit_plot_data(args.run_dir)
            print(f"wrote {path}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MissingArtifacts, OSError) as exc:  # a path it cannot use
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
