import warnings

import pytest

from vesim.model import (default_environment, default_kinetics,
                         default_vesicle, derive_rates)
from vesim.presets import fig9_scenario
from vesim.runner import run_scenario


@pytest.fixture
def base_vesicle():
    return default_vesicle()


@pytest.fixture
def base_kinetics():
    return default_kinetics()


@pytest.fixture
def base_env():
    return default_environment()


@pytest.fixture
def base_rates(base_vesicle, base_kinetics, base_env):
    return derive_rates(base_vesicle, base_kinetics, base_env)


@pytest.fixture(scope="session")
def fig9_preset(tmp_path_factory):
    """The fig9 preset, run once per session: its output directory and
    results. Its 160k-step shared pool is the slowest run in the suite."""
    return run_scenario(fig9_scenario(), tmp_path_factory.mktemp("fig9"))


@pytest.fixture(autouse=True)
def _quiet_volume_warning():
    # ensemble tail vesicles legitimately trip the v_out/v_in advisory
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="v_out < 100 \\* v_in.*")
        yield
