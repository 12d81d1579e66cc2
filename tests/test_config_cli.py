import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import vesim
from vesim.cli import _build_parser, main as cli_main
from vesim.config import (ConfigError, config_hash, load_config,
                          parse_config, parse_quantity, to_config_tree)
from vesim.ensemble import EnsembleConfig, PopulationDistributions
from vesim.fdm import FdmConfig
from vesim.model import Environment, KineticConstants, default_vesicle
from vesim.presets import RUN_PRESETS
from vesim.runner import emit_plot_data, run_scenario

MINIMAL = {
    "run": {"solver": "closed", "seed": 5},
    "vesicle": {"d_in": "87 nm", "d_mem": "14 nm", "n_pumps": 40,
                "n_sym": 30, "permeability": "3e-6 m/s"},
    "signal": {"intervals": [[0, 60]], "horizon": 120},
}
POPULATION = {
    "run": {"solver": "closed", "seed": 5},
    "population": {},
    "ensemble": {"n_mod": 2, "n_ex": 1},
    "signal": {"intervals": [[0, 60]], "horizon": 120},
}


class TestQuantities:
    def test_basic_units(self):
        assert parse_quantity("87 nm", "length", "x") == pytest.approx(
            8.7e-8)
        assert parse_quantity("1 mL", "volume", "x") == pytest.approx(1e-6)
        assert parse_quantity("20 mol/m^3", "concentration", "x") == 20.0
        assert parse_quantity("2 min", "time", "x") == 120.0
        assert parse_quantity("1.685e-3 1/nm^2", "areal_density", "x") \
            == pytest.approx(1.685e15)

    def test_dimension_mismatch_is_hard_error(self):
        with pytest.raises(ConfigError, match="expected a length"):
            parse_quantity("87 s", "length", "vesicle.d_in")

    def test_bare_number_rejected_for_quantity(self):
        with pytest.raises(ConfigError, match="unit suffix"):
            parse_quantity(87, "length", "vesicle.d_in")

    def test_unknown_unit(self):
        with pytest.raises(ConfigError, match="unknown unit"):
            parse_quantity("87 furlong", "length", "x")

    def test_field_path_in_message(self):
        cfg = dict(MINIMAL, vesicle=dict(MINIMAL["vesicle"],
                                         d_in="87 mol/m^3"))
        with pytest.raises(ConfigError, match="vesicle.d_in"):
            parse_config(cfg)


class TestParsing:
    def test_minimal_roundtrip_hash(self):
        cfg = parse_config(MINIMAL)
        tree = to_config_tree(cfg)
        cfg2 = parse_config(tree)
        assert config_hash(cfg) == config_hash(cfg2)

    def test_legacy_mode_symporter_is_dropped(self):
        # older config files name the one release module; the key parses,
        # leaves the canonical tree and does not move the config hash
        for base, section in ((MINIMAL, "vesicle"),
                              (POPULATION, "population")):
            tree = dict(base, **{section: dict(base[section],
                                               mode="symporter")})
            cfg = parse_config(tree)
            assert config_hash(cfg) == config_hash(parse_config(base))
            assert "mode" not in to_config_tree(cfg)[section]

    def test_defaults_match_reference_table(self):
        cfg = parse_config(MINIMAL)
        assert cfg.environment.buffer_total == 20.0
        assert cfg.environment.k_a == pytest.approx(6.2e-5)
        assert cfg.environment.c_s_in0 == 300.0
        assert cfg.kinetics.k_m == pytest.approx(1.3e-2)
        assert cfg.kinetics.stoichiometry == 3.0
        assert cfg.kinetics.xi == 0.015
        assert cfg.fdm.dt == pytest.approx(1e-2)

    def test_exactly_one_of_vesicle_population(self):
        cfg = dict(MINIMAL)
        cfg["population"] = {}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(cfg)
        cfg2 = {k: v for k, v in MINIMAL.items() if k != "vesicle"}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(cfg2)

    def test_population_requires_ensemble(self):
        cfg = {"run": {"solver": "closed"}, "population": {},
               "signal": {"intervals": [[0, 60]], "horizon": 120}}
        cfg["ensemble"] = {"n_mod": 4, "n_ex": 2}
        parsed = parse_config(cfg)
        assert parsed.population is not None
        assert parsed.environment.v_out == pytest.approx(1e-17)
        tree = to_config_tree(parsed)
        assert config_hash(parse_config(tree)) == config_hash(parsed)

    def test_ensemble_seed_must_equal_run_seed(self):
        # the config tree records run.seed only, so a run whose vesicles
        # drew from another seed would not reproduce from its manifest
        from vesim.presets import fig9_scenario
        cfg = fig9_scenario(seed=1).runs[0]
        with pytest.raises(ConfigError, match="ensemble seed 2 differs "
                                              "from run seed 1"):
            dataclasses.replace(
                cfg, ensemble=dataclasses.replace(cfg.ensemble, seed=2))
        with pytest.raises(ConfigError, match="ensemble seed 1 differs "
                                              "from run seed 3"):
            dataclasses.replace(cfg, seed=3)

    def test_population_diameter_log_units(self):
        cfg = {"run": {}, "population": {
                   "diameter": {"shift": "39.74 nm", "mu_log": 4.16,
                                "sigma_log": 0.62, "log_unit": "nm"}},
               "ensemble": {"n_mod": 2, "n_ex": 2},
               "signal": {"intervals": [], "horizon": 10}}
        parsed = parse_config(cfg)
        assert parsed.population.diameter.mu_log == pytest.approx(
            4.16 + math.log(1e-9))

    def test_bad_signal(self):
        cfg = dict(MINIMAL, signal={"intervals": [[60, 10]], "horizon": 120})
        with pytest.raises(ConfigError, match="signal"):
            parse_config(cfg)

    def test_missing_horizon(self):
        cfg = dict(MINIMAL, signal={"intervals": [[0, 10]]})
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(cfg)


# each invalid value, and the start of the error that must name its path
INVALID = {
    "kinetics.k_m": (dict(MINIMAL, kinetics={"k_m": "0 mol/m^3"}),
                     "kinetics: k_m must be > 0"),
    "population.diameter.sigma_log": (
        dict(POPULATION, population={"diameter": {"sigma_log": 0}}),
        "population.diameter: sigma_log must be > 0"),
    "ensemble.n_mod": (dict(POPULATION, ensemble={"n_mod": 0}),
                       "ensemble: need 1 <= n_mod"),
    "population.proteins.p_pump": (
        dict(POPULATION, population={"proteins": {"p_pump": 2}}),
        "population: p_pump must lie in [0, 1]"),
    "population.mode": (dict(POPULATION, population={"mode": "foo"}),
                        "population: mode must be one of"),
    # the symporter is the one release module
    "vesicle.mode antiporter": (
        dict(MINIMAL, vesicle={"mode": "antiporter"}),
        "vesicle: mode must be one of ('symporter',), got 'antiporter'"),
    "population.mode antiporter": (
        dict(POPULATION, population={"mode": "antiporter"}),
        "population: mode must be one of ('symporter',), got 'antiporter'"),
    "population.diameter": (dict(POPULATION, population={"diameter": 5}),
                            "population.diameter: expected a mapping"),
    "signal.intervals text": (
        dict(MINIMAL, signal={"intervals": [[0, "a"]], "horizon": 120}),
        "signal.intervals[0]: expected a dimensionless number, got 'a'"),
    "signal.intervals null": (
        dict(MINIMAL, signal={"intervals": [[0, None]], "horizon": 120}),
        "signal.intervals[0]: expected a dimensionless number, got None"),
    "signal.intervals bool": (
        dict(MINIMAL, signal={"intervals": [[0, True]], "horizon": 120}),
        "signal.intervals[0]: expected a dimensionless number, got True"),
    # refused for vesicle runs too, which do not use the seed
    "run.seed vesicle": (dict(MINIMAL, run={"seed": -1}),
                         "run.seed: expected a non-negative integer, got -1"),
    "run.seed population": (
        dict(POPULATION, run={"seed": -3}),
        "run.seed: expected a non-negative integer, got -3"),
    # numbers that are not finite, as quantities and as plain numbers
    "environment.c_s_in0 inf": (
        dict(MINIMAL, environment={"c_s_in0": "inf mol/m^3"}),
        "environment.c_s_in0: expected a finite number, got 'inf mol/m^3'"),
    "fdm.dt nan": (dict(MINIMAL, fdm={"dt": "nan s"}),
                   "fdm.dt: expected a finite number, got 'nan s'"),
    "fdm.dt overflow": (dict(MINIMAL, fdm={"dt": "1e308 h"}),
                        "fdm.dt: expected a finite number, got '1e308 h'"),
    "kinetics.xi nan": (dict(MINIMAL, kinetics={"xi": math.nan}),
                        "kinetics.xi: expected a finite number, got nan"),
    "sample_interval nan": (dict(MINIMAL, sample_interval=math.nan),
                            "sample_interval: expected a finite number, "
                            "got nan"),
    "signal.horizon inf": (
        dict(MINIMAL, signal={"intervals": [[0, 60]], "horizon": math.inf}),
        "signal.horizon: expected a finite number, got inf"),
    "population.permeability.mu_log10 -inf": (
        dict(POPULATION, population={"permeability": {"mu_log10": -math.inf}}),
        "population.permeability.mu_log10: expected a finite number, "
        "got -inf"),
    "ensemble.n_ves overflow": (
        dict(POPULATION, ensemble={"n_mod": 2, "n_ex": 1, "n_ves": 10**400}),
        "ensemble.n_ves: expected a finite number, got 1000"),
    # a misspelt key or section is refused, not run at the default
    "vesicle.permeabilty": (
        dict(MINIMAL, vesicle=dict(MINIMAL["vesicle"],
                                   permeabilty="5e-6 m/s")),
        "vesicle.permeabilty: unknown key"),
    "unknown section": (dict(MINIMAL, enviroment={}),
                        "enviroment: unknown key"),
    "run.solvers": (dict(MINIMAL, run={"solvers": "fdm"}),
                    "run.solvers: unknown key"),
    "signal.horizn": (
        dict(MINIMAL, signal={"intervals": [[0, 60]], "horizn": 120}),
        "signal.horizn: unknown key"),
    "kinetics.km": (dict(MINIMAL, kinetics={"km": "1 mol/m^3"}),
                    "kinetics.km: unknown key"),
    "environment.B0": (dict(MINIMAL, environment={"B0": "20 mol/m^3"}),
                       "environment.B0: unknown key"),
    "fdm.step": (dict(MINIMAL, fdm={"step": "1 ms"}),
                 "fdm.step: unknown key"),
    "ensemble.n_ves_": (dict(POPULATION, ensemble={"n_mod": 2, "n_ex": 1,
                                                   "n_ves_": 5}),
                        "ensemble.n_ves_: unknown key"),
    "population.sigma": (dict(POPULATION, population={"sigma": 1}),
                         "population.sigma: unknown key"),
    "population.diameter.mu": (
        dict(POPULATION, population={"diameter": {"mu": 4.0}}),
        "population.diameter.mu: unknown key"),
    "population.permeability.unit": (
        dict(POPULATION, population={"permeability": {"unit": "m/s"}}),
        "population.permeability.unit: unknown key"),
    "population.proteins.log_unit": (
        dict(POPULATION, population={"proteins": {"log_unit": "m"}}),
        "population.proteins.log_unit: unknown key"),
}


class TestValidationPaths:
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_parse_names_the_path(self, case):
        tree, message = INVALID[case]
        with pytest.raises(ConfigError) as exc:
            parse_config(tree)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_cli_exits_1_naming_the_path(self, case, tmp_path, capsys):
        tree, message = INVALID[case]
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(yaml.safe_dump(tree))
        rc = cli_main(["run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"configuration error: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestDefaults:
    SIGNAL = {"intervals": [], "horizon": 10}

    def test_empty_vesicle_sections_take_library_defaults(self):
        cfg = parse_config({"vesicle": {}, "kinetics": {}, "environment": {},
                            "fdm": {}, "ensemble": {}, "signal": self.SIGNAL})
        assert cfg.vesicle == default_vesicle()
        assert cfg.kinetics == KineticConstants()
        assert cfg.environment == Environment()
        assert cfg.fdm == FdmConfig()
        assert cfg.ensemble == EnsembleConfig()

    def test_empty_population_sections_take_library_defaults(self):
        cfg = parse_config({"population": {"diameter": {}, "permeability": {},
                                           "proteins": {}},
                            "ensemble": {}, "signal": self.SIGNAL})
        assert cfg.population == PopulationDistributions()
        assert cfg.environment == dataclasses.replace(
            Environment(), v_out=EnsembleConfig().v_out_per_vesicle)

    def test_log_unit_shifts_only_given_values(self):
        tree = {"population": {"diameter": {"log_unit": "m"},
                               "permeability": {"log_unit": "cm/s",
                                                "mu_log10": -3.5}},
                "ensemble": {}, "signal": self.SIGNAL}
        pop = parse_config(tree).population
        default = PopulationDistributions()
        assert pop.diameter == default.diameter
        assert pop.permeability == dataclasses.replace(
            default.permeability, mu_log10=-3.5 + math.log10(1e-2))


def _quantity(lo, hi, units):
    """'<number> <unit>' strings whose SI value lies in [lo, hi]."""
    return st.tuples(st.floats(0.0, 1.0), st.sampled_from(units)).map(
        lambda p: f"{(lo + p[0] * (hi - lo)) / _SCALE[p[1]]!r} {p[1]}")


_SCALE = {"m": 1.0, "nm": 1e-9, "um": 1e-6, "m/s": 1.0, "cm/s": 1e-2,
          "mol/m^3": 1.0, "M": 1e3, "m^3": 1.0, "mL": 1e-6, "s": 1.0,
          "ms": 1e-3, "1/s": 1.0, "1/m^2": 1.0, "1/um^2": 1e12}


def _some(**fields):
    """Mappings holding any subset of `fields` (key -> strategy)."""
    return st.fixed_dictionaries({}, optional=fields)


_COMMON = dict(
    run=st.fixed_dictionaries({
        "solver": st.sampled_from(["all", "fdm", "closed", ["exact"]]),
        "seed": st.integers(0, 2 ** 32)}),
    kinetics=_some(
        pump_rate_per_protein=_quantity(0.0, 0.1, ["1/s"]),
        symport_rate_per_protein=_quantity(0.0, 0.1, ["1/s"]),
        stoichiometry=st.floats(0.5, 4.0), k_m=_quantity(1e-3, 1.0,
                                                          ["mol/m^3", "M"]),
        xi=st.floats(0.0, 0.1)),
    signal=st.fixed_dictionaries({
        "intervals": st.sampled_from([[], [[0, 60]], [[0.5, 10], [20, 30]]]),
        "horizon": st.floats(60.0, 1e4)}),
    fdm=_some(dt=_quantity(1e-4, 1.0, ["s", "ms"]),
              record_stride=st.integers(1, 100)),
    sample_interval=st.floats(1e-3, 10.0),
)
_ENV = dict(buffer_total=_quantity(0.0, 100.0, ["mol/m^3", "M"]),
            k_a=_quantity(1e-6, 1e-3, ["mol/m^3"]),
            c_h_in0=_quantity(0.0, 1e-3, ["mol/m^3"]),
            c_h_out0=_quantity(0.0, 1e-3, ["mol/m^3"]),
            c_s_in0=_quantity(0.0, 500.0, ["mol/m^3", "M"]))
VESICLE_TREES = st.fixed_dictionaries(dict(
    _COMMON,
    vesicle=_some(d_in=_quantity(2e-8, 3e-7, ["nm", "um", "m"]),
                  d_mem=_quantity(1e-9, 2e-8, ["nm"]),
                  n_pumps=st.integers(0, 200), n_sym=st.integers(0, 200),
                  permeability=_quantity(1e-7, 1e-5, ["m/s", "cm/s"])),
    environment=_some(v_out=_quantity(1e-19, 1e-15, ["m^3", "mL"]), **_ENV)))
POPULATION_TREES = st.fixed_dictionaries(dict(
    _COMMON,
    population=_some(
        diameter=_some(shift=_quantity(0.0, 5e-8, ["nm", "m"]),
                       mu_log=st.floats(-20.0, 6.0),
                       sigma_log=st.floats(0.01, 1.0),
                       log_unit=st.sampled_from(["nm", "um", "m"])),
        permeability=st.tuples(st.floats(-7.0, -4.0), st.floats(0.01, 1.0),
                               st.floats(0.01, 1.0)).map(
            lambda p: {"mu_log10": p[0], "sigma_log10": p[1],
                       "lo_log10": p[0] - p[2], "hi_log10": p[0] + p[2]}),
        proteins=_some(rho=_quantity(0.0, 3e15, ["1/m^2", "1/um^2"]),
                       p_pump=st.floats(0.0, 1.0)),
        d_mem=_quantity(1e-9, 2e-8, ["nm"])),
    ensemble=_some(n_ves=st.floats(1e3, 1e12), n_mod=st.integers(1, 100),
                   n_ex=st.integers(1, 10),
                   v_out_tot=_quantity(1e-9, 1e-3, ["m^3", "mL"])),
    environment=_some(**_ENV)))


class TestRoundTrip:
    @given(tree=VESICLE_TREES | POPULATION_TREES)
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_canonical_tree_reparses_to_the_same_config(self, tree):
        cfg = parse_config(tree)
        assert parse_config(to_config_tree(cfg)) == cfg

    @pytest.mark.parametrize("preset", sorted(RUN_PRESETS))
    def test_presets_round_trip(self, preset):
        for cfg in RUN_PRESETS[preset]().runs:
            again = parse_config(to_config_tree(cfg), label=cfg.label)
            assert again == cfg
            assert config_hash(again) == config_hash(cfg)


class TestRunnerArtifacts:
    def test_config_run_artifacts_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(MINIMAL))
        from vesim.presets import Scenario
        cfg = load_config(cfg_path, label="mini")
        out1, _ = run_scenario(Scenario("mini", "test", [cfg]),
                               tmp_path / "a")
        out2, _ = run_scenario(Scenario("mini", "test", [cfg]),
                               tmp_path / "b")
        f1 = (out1 / "mini" / "trajectory_closed.csv").read_bytes()
        f2 = (out2 / "mini" / "trajectory_closed.csv").read_bytes()
        assert f1 == f2  # identical config + seed: byte-identical output
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["runs"]["mini"]["config_hash"] == config_hash(cfg)

    def test_manifest_roundtrip(self, tmp_path):
        from vesim.presets import Scenario
        cfg = parse_config(MINIMAL, label="mini")
        out, _ = run_scenario(Scenario("mini", "t", [cfg]), tmp_path / "m")
        manifest = json.loads((out / "manifest.json").read_text())
        reparsed = parse_config(manifest["runs"]["mini"]["config"])
        assert config_hash(reparsed) == manifest["runs"]["mini"]["config_hash"]

    def test_trajectory_csv_schema(self, tmp_path):
        from vesim.presets import Scenario
        cfg = parse_config(dict(MINIMAL, run={"solver": "all", "seed": 1}),
                           label="mini")
        out, _ = run_scenario(Scenario("mini", "t", [cfg]), tmp_path / "s")
        with open(out / "mini" / "trajectory_fdm.csv", newline="") as fh:
            fdm = csv.DictReader(fh)
            assert fdm.fieldnames == ["t", "C_H_in", "C_H_out", "C_S_in",
                                      "C_S_out", "phase", "cycle", "light"]
        with open(out / "mini" / "trajectory_exact.csv", newline="") as fh:
            exact = csv.DictReader(fh)
            assert exact.fieldnames[-1] == "solver"
            assert {row["solver"] for row in exact} == {"exact"}

    def test_emit_plot_data(self, tmp_path):
        from vesim.presets import Scenario
        cfg = parse_config(MINIMAL, label="mini")
        out, _ = run_scenario(Scenario("mini", "t", [cfg]), tmp_path / "p")
        plot = emit_plot_data(out)
        lines = plot.read_text().splitlines()
        assert lines[0] == "series,t,value"
        series = {ln.split(",")[0] for ln in lines[1:]}
        assert "mini/closed/C_H_in" in series
        assert "mini/closed/light" in series

    @pytest.mark.parametrize("labels", [("B0=1", "B0_1"), ("mini", "mini")],
                             ids=["same-directory", "same-label"])
    def test_runs_sharing_a_run_directory_are_refused(self, labels,
                                                      tmp_path):
        from vesim.presets import Scenario
        runs = [parse_config(MINIMAL, label=label) for label in labels]
        first, second = map(repr, labels)
        with pytest.raises(ConfigError, match=f"runs {first} and {second} "
                                              "share the run directory"):
            run_scenario(Scenario("two", "t", runs), tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_emit_plot_data_empty_dir(self, tmp_path):
        from vesim.runner import MissingArtifacts
        with pytest.raises(MissingArtifacts):
            emit_plot_data(tmp_path)


class TestCli:
    def test_presets_list(self, capsys):
        assert cli_main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig4", "fig5", "fig6", "fig9", "fig10",
                     "fig11"):
            assert name in out

    def test_run_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(MINIMAL))
        rc = cli_main(["run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_validation_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        bad = dict(MINIMAL, vesicle=dict(MINIMAL["vesicle"], d_in="87 s"))
        cfg_path.write_text(yaml.safe_dump(bad))
        assert cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 1

    def test_both_preset_and_config_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(MINIMAL))
        assert cli_main(["run", "--preset", "fig4", "--config",
                         str(cfg_path)]) == 1

    def test_solver_option_narrows_a_config_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        tree = dict(MINIMAL, run={"solver": "all", "seed": 5})
        cfg_path.write_text(yaml.safe_dump(tree))
        assert cli_main(["run", "--config", str(cfg_path), "--solver",
                         "closed", "--out", str(tmp_path / "o")]) == 0
        assert sorted(os.listdir(tmp_path / "o" / "cfg")) == [
            "trajectory_closed.csv"]

    @pytest.mark.parametrize("preset", sorted(RUN_PRESETS))
    def test_solver_option_with_a_preset_exits_1(self, preset, tmp_path,
                                                 capsys):
        # a preset's self-check reads its own solvers' trajectories
        rc = cli_main(["run", "--preset", preset, "--solver", "closed",
                       "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error: --solver applies to "
                              "--config runs only")
        assert not (tmp_path / "o").exists()

    def test_emit_plot_data_missing_dir(self, tmp_path):
        assert cli_main(["emit-plot-data", str(tmp_path / "nowhere")]) == 1

    def test_seed_override_changes_ensemble(self, tmp_path):
        tree = {
            "run": {"solver": "closed", "seed": 1},
            "population": {},
            "ensemble": {"n_mod": 3, "n_ex": 2},
            "signal": {"intervals": [[0, 50]], "horizon": 100},
            "sample_interval": 25.0,
        }
        cfg_path = tmp_path / "ens.yaml"
        cfg_path.write_text(yaml.safe_dump(tree))
        rc = cli_main(["run", "--config", str(cfg_path), "--seed", "7",
                       "--out", str(tmp_path / "o1")])
        assert rc == 0
        rc = cli_main(["run", "--config", str(cfg_path), "--seed", "8",
                       "--out", str(tmp_path / "o2")])
        assert rc == 0
        a = (tmp_path / "o1" / "ens" / "ensemble_stats.csv").read_bytes()
        b = (tmp_path / "o2" / "ens" / "ensemble_stats.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "fig4"],
        ["run", "--config", "CONFIG"],
        ["sweep", "--preset", "fig6"],
    ], ids=["run-preset", "run-config", "sweep"])
    def test_negative_seed_option_exits_1(self, argv, tmp_path, capsys):
        cfg_path = tmp_path / "ens.yaml"
        cfg_path.write_text(yaml.safe_dump(POPULATION))
        argv = [str(cfg_path) if a == "CONFIG" else a for a in argv]
        rc = cli_main(argv + ["--seed", "-1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error: --seed: expected a "
                              "non-negative integer, got -1")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "fig4", "--workers", "0"],
        ["sweep", "--preset", "fig10", "--workers", "-3"],
    ], ids=["run", "sweep"])
    def test_workers_below_1_exits_1(self, argv, tmp_path, capsys):
        rc = cli_main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == ("configuration error: --workers: "
                                           "must be >= 1\n")
        assert not (tmp_path / "o").exists()
        # a sweep still takes --workers 1, as the benchmark passes it
        args = _build_parser().parse_args(argv[:3] + ["--workers", "1"])
        assert args.workers == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "DIR", "--out", "NEW"],
        ["run", "--preset", "fig4", "--out", "FILE"],
        ["sweep", "--preset", "fig10", "--out", "FILE"],
    ], ids=["config-is-a-dir", "run-out-is-a-file", "sweep-out-is-a-file"])
    def test_unusable_path_exits_1(self, argv, tmp_path, capsys,
                                   monkeypatch):
        # a sweep refuses its --out before it runs a point
        def no_sweep(spec):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(vesim.cli, "run_sweep", no_sweep)
        (tmp_path / "file").write_text("")
        paths = {"DIR": tmp_path, "NEW": tmp_path / "o",
                 "FILE": tmp_path / "file"}
        rc = cli_main([str(paths.get(a, a)) for a in argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()
        assert (tmp_path / "file").read_text() == ""

    def test_invalid_yaml_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("run: {solver: closed\nvesicle: {}\n")
        rc = cli_main(["run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"configuration error: {cfg_path}: not valid "
                              "YAML: ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_solver_error_exit_code(self, tmp_path):
        # valid config whose step is too coarse for the unbuffered
        # stiffness: the stability check trips inside the solver
        tree = dict(MINIMAL,
                    run={"solver": "fdm", "seed": 1},
                    environment={"buffer_total": "0 mol/m^3"},
                    fdm={"dt": "1e-2 s", "record_stride": 10})
        cfg_path = tmp_path / "stiff.yaml"
        cfg_path.write_text(yaml.safe_dump(tree))
        rc = cli_main(["run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "o")])
        assert rc == 2

    def test_config_is_read_as_utf8_in_any_locale(self, tmp_path):
        # in the C locale (ASCII, no UTF-8 mode): a config with a non-ASCII
        # comment runs, and one that is no UTF-8 exits 1 naming its path
        good, bad = tmp_path / "good.yaml", tmp_path / "bad.yaml"
        text = yaml.safe_dump(MINIMAL)
        good.write_text("# 87 \u00b5m, in UTF-8\n" + text, encoding="utf-8")
        bad.write_bytes(b"# 87 \xb5m, in Latin-1\n" + text.encode())
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(vesim.__file__).parents[1]))
        runs = [subprocess.run([sys.executable, "-m", "vesim.cli", "run",
                                "--config", str(cfg), "--out",
                                str(tmp_path / cfg.stem)],
                               env=env, capture_output=True)
                for cfg in (good, bad)]
        assert runs[0].returncode == 0, runs[0].stderr.decode()
        assert (tmp_path / "good" / "manifest.json").exists()
        assert runs[1].returncode == 1
        assert runs[1].stderr.decode().startswith(
            f"configuration error: {bad}: not UTF-8: ")
        assert b"Traceback" not in runs[1].stderr
        assert not (tmp_path / "bad").exists()

    def test_run_names_do_not_depend_on_the_locale(self, tmp_path):
        # a config named by a non-ASCII file name: the C locale (ASCII, no
        # UTF-8 mode) writes the same directories, under the output root
        # too, and the same manifest bytes as UTF-8
        cfg = tmp_path / f"{os.fsdecode('Bµ'.encode())}.yaml"
        cfg.write_text(yaml.safe_dump(MINIMAL))
        assert cli_main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "utf8")]) == 0
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0", VESIM_OUT_ROOT=str(tmp_path / "c"),
                   PYTHONPATH=str(Path(vesim.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "vesim.cli", "run",
                               "--config", cfg], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        assert os.listdir(os.fsencode(tmp_path / "c")) == [b"B\xc2\xb5"]
        manifests = []
        for out in (tmp_path / "utf8", tmp_path / "c" / cfg.stem):
            assert sorted(os.listdir(os.fsencode(out))) == [
                b"B\xc2\xb5", b"manifest.json"]
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        entry = json.loads(manifests[0])["runs"]["Bµ"]
        assert entry["artifacts"] == ["Bµ/trajectory_closed.csv"]

    def test_import_loads_no_process_pool_or_integrator(self):
        # a fresh interpreter: the test session itself may load these
        script = ("import sys, vesim.cli; print(sorted(m for m in ("
                  "'multiprocessing', 'concurrent.futures.process', "
                  "'scipy.integrate') if m in sys.modules))")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(vesim.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_module_entrypoint(self, tmp_path):
        r = subprocess.run([sys.executable, "-m", "vesim.cli", "presets",
                            "list"], capture_output=True, text=True)
        assert r.returncode == 0
        assert "fig3" in r.stdout
