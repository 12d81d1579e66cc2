from pathlib import Path

import pytest

import vesim


def test_public_names_resolve_once():
    names = vesim.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [n for n in names if not hasattr(vesim, n)]
    assert not missing, f"exported but undefined: {missing}"


def test_lane_api_is_exported():
    # a population travels as lane arrays from the draw to the solvers
    from vesim import ensemble, model
    for name in ("VesicleLanes", "sample_vesicles", "derive_rates",
                 "simulate_mvs_shared_pool"):
        assert name in vesim.__all__, name
    assert vesim.VesicleLanes is model.VesicleLanes
    assert vesim.sample_vesicles is ensemble.sample_vesicles
    assert "sample_vesicle" not in vesim.__all__


def test_every_c_source_ships_with_the_package():
    # a non-editable install without a source silently runs the Python
    # twins of its kernels
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    sources = {p.name for p in (root / "src" / "vesim").glob("*.c")}
    assert sources and sources <= set(package_data["vesim"])
