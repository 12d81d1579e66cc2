# config.py
"""
Unit-annotated run configuration.

Configs are YAML/JSON key-value trees in which every physical quantity
carries an explicit unit suffix ("87 nm", "3e-6 m/s"); bare numbers are
accepted only for dimensionless fields. Unit or dimension mismatches,
and any value the built dataclass refuses, are hard errors carrying the
offending field path. An omitted field takes the library default.
Everything normalizes to SI on parse, and a canonical annotated form can
be emitted such that re-parsing it reproduces an identical configuration
(hash equality). One table per section lists its fields; parsing,
defaults and the canonical form all come from it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import yaml

from .ensemble import (DiameterDistribution, EnsembleConfig,
                       PermeabilityDistribution, PopulationDistributions)
from .fdm import FdmConfig
from .model import (Environment, KineticConstants, VesicleSpec,
                    default_vesicle)
from .schedule import LightSignal


class ConfigError(ValueError):
    """Configuration validation failure, annotated with the field path."""


# unit string -> (dimension, scale to SI)
UNITS: dict[str, tuple[str, float]] = {
    "m": ("length", 1.0), "mm": ("length", 1e-3), "um": ("length", 1e-6),
    "µm": ("length", 1e-6), "nm": ("length", 1e-9),
    "m^3": ("volume", 1.0), "m3": ("volume", 1.0), "L": ("volume", 1e-3),
    "mL": ("volume", 1e-6), "uL": ("volume", 1e-9), "µL": ("volume", 1e-9),
    "mol/m^3": ("concentration", 1.0), "mol/m3": ("concentration", 1.0),
    "mM": ("concentration", 1.0), "M": ("concentration", 1e3),
    "1/s": ("rate", 1.0), "/s": ("rate", 1.0),
    "m/s": ("speed", 1.0), "cm/s": ("speed", 1e-2), "um/s": ("speed", 1e-6),
    "s": ("time", 1.0), "ms": ("time", 1e-3), "min": ("time", 60.0),
    "h": ("time", 3600.0),
    "1/m^2": ("areal_density", 1.0), "1/m2": ("areal_density", 1.0),
    "1/um^2": ("areal_density", 1e12), "1/nm^2": ("areal_density", 1e18),
    "mol": ("amount", 1.0),
}

_CANONICAL_UNIT = {"length": "m", "volume": "m^3",
                   "concentration": "mol/m^3", "rate": "1/s",
                   "speed": "m/s", "time": "s", "areal_density": "1/m^2",
                   "amount": "mol"}


def parse_quantity(value, dimension: str, path: str) -> float:
    """Parse '<number> <unit>' into SI, enforcing the expected dimension."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        raise ConfigError(
            f"{path}: physical quantity needs a unit suffix, e.g. "
            f"'{value} {_CANONICAL_UNIT[dimension]}'")
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a quantity string, got {value!r}")
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(f"{path}: expected '<number> <unit>', got {value!r}")
    num_s, unit = parts
    try:
        num = float(num_s)
    except ValueError:
        raise ConfigError(f"{path}: bad number {num_s!r}") from None
    if unit not in UNITS:
        raise ConfigError(f"{path}: unknown unit {unit!r}")
    dim, scale = UNITS[unit]
    if dim != dimension:
        raise ConfigError(
            f"{path}: expected a {dimension} (e.g. "
            f"'{_CANONICAL_UNIT[dimension]}'), got {dim} unit {unit!r}")
    return _finite(num * scale, value, path)


def format_quantity(si_value: float, dimension: str) -> str:
    return f"{si_value!r} {_CANONICAL_UNIT[dimension]}"


def _finite(num: float, value, path: str) -> float:
    """`num`, parsed from `value`, unless it is infinite or NaN."""
    if not math.isfinite(num):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return num


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a dimensionless number, "
                          f"got {value!r}")
    try:
        num = float(value)
    except OverflowError:  # an integer beyond the float range
        num = math.inf
    return _finite(num, value, path)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def check_seed(value, path: str) -> int:
    """A random seed: an integer >= 0, as numpy's SeedSequence takes."""
    seed = _integer(value, path)
    if seed < 0:
        raise ConfigError(f"{path}: expected a non-negative integer, "
                          f"got {value!r}")
    return seed


def _known(sec: dict, path: str, keys) -> None:
    """Refuse a key of section `sec` that is not in `keys`."""
    for key in sec:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key" if path
                              else f"{key}: unknown key")


def _section(tree: dict, path: str, required: bool = True) -> dict:
    """The section at `path` in `tree`, the mapping that holds its last
    name; an absent optional section is empty."""
    sec = tree.get(path.rpartition(".")[2])
    if sec is None:
        if required:
            raise ConfigError(f"missing section {path!r}")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return sec


# The fields of each section, as (key, kind) pairs naming the fields of
# the dataclass the section builds. A kind is a UNITS dimension (a
# quantity with a unit suffix), "number" or "integer".
_KINETICS = (("pump_rate_per_protein", "rate"),
             ("symport_rate_per_protein", "rate"),
             ("stoichiometry", "number"), ("k_m", "concentration"),
             ("xi", "number"))
_ENVIRONMENT = (("buffer_total", "concentration"), ("k_a", "concentration"),
                ("c_h_in0", "concentration"), ("c_h_out0", "concentration"),
                ("c_s_in0", "concentration"))
_V_OUT = (("v_out", "volume"),)  # vesicle runs only
_VESICLE = (("d_in", "length"), ("d_mem", "length"), ("n_pumps", "integer"),
            ("n_sym", "integer"), ("permeability", "speed"))
_FDM = (("dt", "time"), ("record_stride", "integer"))
_ENSEMBLE = (("n_ves", "number"), ("n_mod", "integer"), ("n_ex", "integer"),
             ("v_out_tot", "volume"))
_POPULATION = (("d_mem", "length"),)
_DIAMETER = (("shift", "length"), ("mu_log", "number"),
             ("sigma_log", "number"))
_PERMEABILITY = (("mu_log10", "number"), ("sigma_log10", "number"),
                 ("lo_log10", "number"), ("hi_log10", "number"))
_PROTEINS = (("rho", "areal_density"), ("p_pump", "number"))


def _read(sec: dict, path: str, fields, default, extra=()) -> dict:
    """The values of `fields` in section `sec`, normalized to SI.

    An absent key takes the attribute of the `default` instance. A key
    that is neither a field nor in `extra` is refused.
    """
    _known(sec, path, [key for key, _ in fields] + list(extra))
    values = {}
    for key, kind in fields:
        if key not in sec:
            values[key] = getattr(default, key)
        elif kind == "number":
            values[key] = _number(sec[key], f"{path}.{key}")
        elif kind == "integer":
            values[key] = _integer(sec[key], f"{path}.{key}")
        else:
            values[key] = parse_quantity(sec[key], kind, f"{path}.{key}")
    return values


def _without_mode(sec: dict, path: str) -> dict:
    """Section `sec` without the `mode` key older config files carry;
    it may only name the one release module vesim models."""
    if "mode" not in sec:
        return sec
    if sec["mode"] != "symporter":
        raise ConfigError(f"{path}: mode must be one of ('symporter',), "
                          f"got {sec['mode']!r}")
    return {k: v for k, v in sec.items() if k != "mode"}


def _write(obj, fields) -> dict:
    """The canonical tree of `fields` of `obj`: quantities with their
    canonical unit, plain values as they are."""
    return {key: (format_quantity(getattr(obj, key), kind)
                  if kind in _CANONICAL_UNIT else getattr(obj, key))
            for key, kind in fields}


def _build(cls, path: str, **values):
    """cls(**values), with its ValueError reported at `path`."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _log_scale(sec: dict, path: str, dimension: str, default: str) -> float:
    """SI scale of the section's `log_unit`, a unit of `dimension`."""
    unit = sec.get("log_unit", default)
    if not isinstance(unit, str) or UNITS.get(unit, ("",))[0] != dimension:
        raise ConfigError(f"{path}.log_unit: need a {dimension} unit, "
                          f"got {unit!r}")
    return UNITS[unit][1]


_SOLVERS = ("fdm", "exact", "closed")


@dataclass
class RunConfig:
    """Fully normalized (SI) description of one simulation run."""

    solvers: tuple[str, ...]
    seed: int
    vesicle: VesicleSpec | None
    population: PopulationDistributions | None
    kinetics: KineticConstants
    environment: Environment
    signal: LightSignal
    fdm: FdmConfig
    sample_interval: float
    ensemble: EnsembleConfig | None
    label: str = "run"

    def __post_init__(self):
        if (self.vesicle is None) == (self.population is None):
            raise ConfigError(
                "exactly one of 'vesicle' and 'population' must be present")
        if self.population is not None and self.ensemble is None:
            raise ConfigError("'population' runs need an 'ensemble' section")
        # the config tree records run.seed only, the vesicles draw from
        # ensemble.seed: a difference would not reproduce from the tree
        if self.ensemble is not None and self.ensemble.seed != self.seed:
            raise ConfigError(f"ensemble seed {self.ensemble.seed} differs "
                              f"from run seed {self.seed}")


def parse_config(tree: dict, label: str = "run") -> RunConfig:
    """Validate and normalize a configuration tree.

    An omitted key takes the library default; an invalid value raises
    ConfigError naming its path.
    """
    if not isinstance(tree, dict):
        raise ConfigError("top level must be a mapping")
    _known(tree, "", ("run", "vesicle", "population", "kinetics",
                      "environment", "signal", "fdm", "sample_interval",
                      "ensemble"))

    run = _section(tree, "run", required=False)
    _known(run, "run", ("solver", "seed"))
    solver = run.get("solver", "all")
    if solver == "all":
        solvers: tuple[str, ...] = _SOLVERS
    elif solver in _SOLVERS:
        solvers = (solver,)
    elif (isinstance(solver, list)
          and all(s in _SOLVERS for s in solver) and solver):
        solvers = tuple(solver)
    else:
        raise ConfigError(f"run.solver: expected one of {_SOLVERS + ('all',)}"
                          f" or a list thereof, got {solver!r}")
    seed = check_seed(run.get("seed", 0), "run.seed")

    has_vesicle = "vesicle" in tree
    has_population = "population" in tree
    if has_vesicle == has_population:
        raise ConfigError(
            "exactly one of 'vesicle' and 'population' must be present")

    kinetics = _build(KineticConstants, "kinetics", **_read(
        _section(tree, "kinetics", required=False), "kinetics", _KINETICS,
        KineticConstants()))

    ens = None
    if "ensemble" in tree or has_population:
        ens = _build(EnsembleConfig, "ensemble", seed=seed, **_read(
            _section(tree, "ensemble", required=has_population), "ensemble",
            _ENSEMBLE, EnsembleConfig()))

    env_t = _section(tree, "environment", required=False)
    if has_vesicle:
        env_values = _read(env_t, "environment", _ENVIRONMENT + _V_OUT,
                           Environment())
    elif "v_out" in env_t:
        raise ConfigError("environment.v_out is derived from the "
                          "ensemble section in population runs")
    else:
        env_values = dict(_read(env_t, "environment", _ENVIRONMENT,
                                Environment()), v_out=ens.v_out_per_vesicle)
    environment = _build(Environment, "environment", **env_values)

    vesicle = None
    population = None
    if has_vesicle:
        vesicle = _build(VesicleSpec, "vesicle", **_read(
            _without_mode(_section(tree, "vesicle"), "vesicle"), "vesicle",
            _VESICLE, default_vesicle()))
    else:
        p_t = _without_mode(_section(tree, "population"), "population")
        pop = PopulationDistributions()
        # log_unit shifts only the log-scale values the tree gives
        path = "population.diameter"
        d_t = _section(p_t, path, required=False)
        d_shift = math.log(_log_scale(d_t, path, "length", "nm"))
        d = _read(d_t, path, _DIAMETER, pop.diameter, extra=["log_unit"])
        if "mu_log" in d_t:
            d["mu_log"] += d_shift
        diameter = _build(DiameterDistribution, path, **d)
        path = "population.permeability"
        g_t = _section(p_t, path, required=False)
        g_shift = math.log10(_log_scale(g_t, path, "speed", "m/s"))
        g = _read(g_t, path, _PERMEABILITY, pop.permeability,
                  extra=["log_unit"])
        for key in ("mu_log10", "lo_log10", "hi_log10"):
            if key in g_t:
                g[key] += g_shift
        permeability = _build(PermeabilityDistribution, path, **g)
        population = _build(
            PopulationDistributions, "population", diameter=diameter,
            permeability=permeability,
            **_read(_section(p_t, "population.proteins", required=False),
                    "population.proteins", _PROTEINS, pop),
            **_read(p_t, "population", _POPULATION, pop,
                    extra=["diameter", "permeability", "proteins"]))

    sig_t = _section(tree, "signal")
    _known(sig_t, "signal", ("intervals", "horizon"))
    intervals = sig_t.get("intervals", [])
    if not isinstance(intervals, list) or not all(
            isinstance(iv, (list, tuple)) and len(iv) == 2
            for iv in intervals):
        raise ConfigError("signal.intervals: expected a list of "
                          "[t_on, t_off] second pairs")
    if sig_t.get("horizon") is None:
        raise ConfigError("signal.horizon missing")
    signal = _build(
        LightSignal, "signal",
        intervals=[(_number(a, f"signal.intervals[{k}]"),
                    _number(b, f"signal.intervals[{k}]"))
                   for k, (a, b) in enumerate(intervals)],
        horizon=_number(sig_t["horizon"], "signal.horizon"))

    fdm_cfg = _build(FdmConfig, "fdm", **_read(
        _section(tree, "fdm", required=False), "fdm", _FDM, FdmConfig()))

    sample_interval = _number(tree.get("sample_interval", 0.1),
                              "sample_interval")
    if sample_interval <= 0:
        raise ConfigError("sample_interval must be > 0")

    return RunConfig(solvers=solvers, seed=seed, vesicle=vesicle,
                     population=population, kinetics=kinetics,
                     environment=environment, signal=signal, fdm=fdm_cfg,
                     sample_interval=sample_interval, ensemble=ens,
                     label=label)


def load_config(path, label: str | None = None) -> RunConfig:
    """The RunConfig of a YAML file, read as UTF-8 whatever the locale."""
    with open(path, encoding="utf-8") as fh:
        try:
            tree = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8: {exc}") from None
    return parse_config(tree, label=label or str(path))


def to_config_tree(cfg: RunConfig) -> dict:
    """Canonical annotated tree; parsing it reproduces `cfg` exactly."""
    tree: dict = {
        "run": {"solver": list(cfg.solvers), "seed": cfg.seed},
        "kinetics": _write(cfg.kinetics, _KINETICS),
        "environment": _write(cfg.environment, _ENVIRONMENT),
        "signal": {
            "intervals": [[a, b] for a, b in cfg.signal.intervals],
            "horizon": cfg.signal.horizon,
        },
        "fdm": _write(cfg.fdm, _FDM),
        "sample_interval": cfg.sample_interval,
    }
    if cfg.vesicle is not None:
        tree["vesicle"] = _write(cfg.vesicle, _VESICLE)
        tree["environment"].update(_write(cfg.environment, _V_OUT))
    else:
        p = cfg.population
        tree["population"] = {
            "diameter": dict(_write(p.diameter, _DIAMETER), log_unit="m"),
            "permeability": dict(_write(p.permeability, _PERMEABILITY),
                                 log_unit="m/s"),
            "proteins": _write(p, _PROTEINS),
            **_write(p, _POPULATION),
        }
    if cfg.ensemble is not None:
        tree["ensemble"] = _write(cfg.ensemble, _ENSEMBLE)
    return tree


def config_hash(cfg: RunConfig) -> str:
    """SHA-256 of the canonical configuration tree."""
    blob = json.dumps(to_config_tree(cfg), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
