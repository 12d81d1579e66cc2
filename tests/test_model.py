import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vesim.fdm import stability_coefficient
from vesim.model import (AVOGADRO, Environment, KineticConstants,
                         ModelError, VesicleLanes, VesicleSpec,
                         default_environment, default_kinetics,
                         default_vesicle, derive_rates, leakage_flux,
                         net_proton_inflow, pump_flux, switch_concentration,
                         symport_flux, symport_gate)


def test_geometry():
    spec = default_vesicle()
    assert spec.v_in == pytest.approx(math.pi / 6 * (87e-9) ** 3, rel=1e-12)
    assert spec.a_ves == pytest.approx(math.pi * (115e-9) ** 2, rel=1e-12)


def test_invalid_specs_rejected():
    with pytest.raises(ModelError):
        VesicleSpec(d_in=-1e-9, d_mem=14e-9, n_pumps=1, n_sym=1,
                    permeability=3e-6)
    with pytest.raises(ModelError):
        VesicleSpec(d_in=87e-9, d_mem=14e-9, n_pumps=-3, n_sym=1,
                    permeability=3e-6)
    with pytest.raises(ModelError):
        Environment(v_out=0.0)
    for cls, kwargs in ((Environment, dict(c_s_in0=math.inf)),
                        (Environment, dict(v_out=math.inf)),
                        (KineticConstants, dict(xi=math.nan)),
                        (KineticConstants, dict(k_m=math.inf)),
                        (VesicleSpec, dict(d_in=math.inf, d_mem=14e-9,
                                           n_pumps=1, n_sym=1,
                                           permeability=3e-6))):
        with pytest.raises(ModelError, match="must be finite"):
            cls(**kwargs)


def test_pump_rate_from_table_defaults(base_rates):
    # 0.03/s * 40 / N_A, direct arithmetic
    assert base_rates.pump_rate == pytest.approx(0.03 * 40 / AVOGADRO,
                                                 rel=1e-14)
    assert base_rates.pump_rate == pytest.approx(1.9927e-24, rel=1e-4)


def test_zero_pumps_zero_rate(base_kinetics, base_env):
    spec = dataclasses.replace(default_vesicle(), n_pumps=0)
    assert derive_rates(spec, base_kinetics, base_env).pump_rate == 0.0


def test_leak_rate_from_geometry(base_rates):
    # pi * (115 nm)^2 * 3e-6 m/s
    assert base_rates.leak_rate == pytest.approx(
        math.pi * (1.15e-7) ** 2 * 3e-6, rel=1e-14)
    assert base_rates.leak_rate == pytest.approx(1.2465e-19, rel=1e-3)


def test_switch_concentration_value(base_rates, base_vesicle, base_env):
    # N_H/(V_out*10^-xi + V_in) at pH 7.4 both sides, xi = 0.015
    n_h = 3.98e-5 * (base_vesicle.v_in + base_env.v_out)
    expect = n_h / (base_env.v_out * 10 ** -0.015 + base_vesicle.v_in)
    assert base_rates.switch_conc == pytest.approx(expect, rel=1e-14)
    assert base_rates.switch_conc == pytest.approx(4.120e-5, rel=1e-3)


def test_inventories(base_rates, base_vesicle, base_env):
    assert base_rates.total_free_protons == pytest.approx(
        base_env.c_h_in0 * base_vesicle.v_in
        + base_env.c_h_out0 * base_env.v_out, rel=1e-14)
    assert base_rates.total_substrate == pytest.approx(
        300.0 * base_vesicle.v_in, rel=1e-14)


def test_inert_configuration_warns(base_kinetics, base_env):
    spec = dataclasses.replace(default_vesicle(), n_pumps=0, n_sym=0)
    with pytest.warns(UserWarning, match="no pumps"):
        derive_rates(spec, base_kinetics, base_env)


def test_small_v_out_warns(base_kinetics):
    env = default_environment(v_out=1e-21)
    with pytest.warns(UserWarning, match="v_out < 100"):
        derive_rates(default_vesicle(), base_kinetics, env)


def _symport(c_in, c_s, rates, kin):
    return symport_flux(symport_gate(c_in, rates.switch_conc), c_s,
                        rates.symport_rate_substrate,
                        rates.symport_rate_proton, kin.k_m)


class TestPumpFlux:
    def test_dark_is_zero(self, base_rates, base_env):
        assert pump_flux(3.98e-5, base_env.c_h_out0, base_rates.pump_rate,
                         light_on=False) == 0.0

    def test_unit_ratio_gives_full_rate(self, base_rates, base_env):
        assert pump_flux(base_env.c_h_out0, base_env.c_h_out0,
                         base_rates.pump_rate, True) == pytest.approx(
            base_rates.pump_rate, rel=1e-14)

    def test_linear_in_reservoir(self, base_rates, base_env):
        assert pump_flux(base_env.c_h_out0 / 2, base_env.c_h_out0,
                         base_rates.pump_rate, True) == pytest.approx(
            base_rates.pump_rate / 2, rel=1e-14)

    def test_exhausted_reservoir(self, base_rates, base_env):
        assert pump_flux(0.0, base_env.c_h_out0, base_rates.pump_rate,
                         True) == 0.0
        # a reservoir that starts empty gives no pump flux either
        assert pump_flux(0.0, 0.0, base_rates.pump_rate, True) == 0.0


class TestSymportFlux:
    def test_below_threshold(self, base_rates, base_kinetics):
        assert _symport(base_rates.switch_conc * 0.99, 300.0, base_rates,
                        base_kinetics) == (0.0, 0.0)

    def test_half_saturation_at_km(self, base_rates, base_kinetics):
        f_s, f_h = _symport(base_rates.switch_conc, base_kinetics.k_m,
                            base_rates, base_kinetics)
        assert f_s == pytest.approx(base_rates.symport_rate_substrate / 2,
                                    rel=1e-14)
        assert f_h == pytest.approx(3 * f_s, rel=1e-14)

    def test_depleted(self, base_rates, base_kinetics):
        assert _symport(base_rates.switch_conc * 2, 0.0, base_rates,
                        base_kinetics) == (0.0, 0.0)


class TestLeakageFlux:
    def test_no_gradient(self, base_rates):
        assert leakage_flux(5e-5, 5e-5, base_rates.leak_rate) == 0.0

    def test_unit_gradient(self, base_rates):
        f = leakage_flux(1.5, 0.5, base_rates.leak_rate)
        assert f == pytest.approx(base_rates.leak_rate, rel=1e-12)
        assert f == pytest.approx(1.2465e-19, rel=1e-3)

    def test_inward_is_negative(self, base_rates):
        assert leakage_flux(1e-5, 5e-5, base_rates.leak_rate) < 0


def test_dead_system_all_fluxes_zero(base_rates, base_kinetics, base_env):
    c = 3.98e-5
    assert c < base_rates.switch_conc
    assert pump_flux(c, base_env.c_h_out0, base_rates.pump_rate,
                     False) == 0.0
    assert _symport(c, 300.0, base_rates, base_kinetics) == (0.0, 0.0)
    assert leakage_flux(c, c, base_rates.leak_rate) == 0.0


_conc = st.floats(0.0, 1e2)


@given(st.lists(st.tuples(_conc, _conc, _conc, _conc, st.booleans()),
                min_size=1, max_size=8))
def test_flux_laws_on_arrays_equal_scalar_calls(rows):
    # one law for both FDM kernels: arrays give each element's float
    rates = derive_rates(default_vesicle(), default_kinetics(),
                         default_environment())
    k_m, c_out0 = default_kinetics().k_m, 3.98e-5
    c_in, c_s, c_out, c_switch, _ = (np.array(col) for col in zip(*rows))
    gamma = np.array([rates.pump_rate if r[4] else 0.0 for r in rows])

    def laws(c_in, c_s, c_out, c_switch, gamma):
        pump = pump_flux(c_out, c_out0, gamma, True)
        f_s, f_h = symport_flux(symport_gate(c_in, c_switch), c_s, gamma,
                                3.0 * gamma, k_m)
        leak = leakage_flux(c_in, c_out, rates.leak_rate)
        return f_s, net_proton_inflow(pump, leak, f_h)

    f_s, net = laws(c_in, c_s, c_out, c_switch, gamma)
    for k in range(len(rows)):
        one = laws(float(c_in[k]), float(c_s[k]), float(c_out[k]),
                   float(c_switch[k]), float(gamma[k]))
        assert (f_s[k], net[k]) == one


@given(a=st.floats(0, 1e2), b=st.floats(0, 1e2))
def test_leakage_antisymmetry(a, b):
    rates = derive_rates(default_vesicle(), default_kinetics(),
                         default_environment())
    f_ab = leakage_flux(a, b, rates.leak_rate)
    f_ba = leakage_flux(b, a, rates.leak_rate)
    assert f_ab == -f_ba


@pytest.mark.parametrize("factor", [2, 3, 5])
def test_rate_scaling_in_protein_counts(factor, base_kinetics, base_env):
    spec1 = default_vesicle()
    spec2 = dataclasses.replace(spec1, n_pumps=spec1.n_pumps * factor,
                                n_sym=spec1.n_sym * factor)
    r1 = derive_rates(spec1, base_kinetics, base_env)
    r2 = derive_rates(spec2, base_kinetics, base_env)
    assert r2.pump_rate == pytest.approx(factor * r1.pump_rate, rel=1e-14)
    assert r2.symport_rate_substrate == pytest.approx(
        factor * r1.symport_rate_substrate, rel=1e-14)
    assert r2.symport_rate_proton == pytest.approx(
        factor * r1.symport_rate_proton, rel=1e-14)


@given(xi=st.floats(1e-4, 1.0), c0=st.floats(1e-7, 1e-2),
       v_out_over_v_in=st.floats(10.0, 1e6))
def test_switch_above_initial_for_positive_threshold(xi, c0,
                                                     v_out_over_v_in):
    v_in = 3.45e-22
    v_out = v_in * v_out_over_v_in
    n_h = c0 * (v_in + v_out)
    assert switch_concentration(n_h, v_in, v_out, xi) > c0



@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
       d_mem=st.floats(2e-9, 30e-9),
       b0=st.sampled_from([0.0, 2.0, 20.0, 100.0]),
       v_out=st.floats(-21.0, -15.0).map(lambda e: 10.0 ** e),
       c_h_in0=st.floats(1e-6, 1e-3), c_h_out0=st.floats(0.0, 1e-3),
       c_s_in0=st.floats(0.0, 300.0))
@example(seed=0, n=2, d_mem=14e-9, b0=20.0, v_out=1e-17, c_h_in0=3.98e-5,
         c_h_out0=3.98e-5, c_s_in0=300.0)
@settings(derandomize=True, deadline=None, max_examples=40)
def test_population_rates_equal_per_spec_rates(seed, n, d_mem, b0, v_out,
                                               c_h_in0, c_h_out0, c_s_in0):
    # every lane's geometry, derived rates and stability coefficient are
    # its spec's, bit for bit; the lanes are random doubles, on which an
    # array power would differ from the spec's float power now and then
    rng = np.random.default_rng(seed)
    kin = default_kinetics()
    env = default_environment(buffer_total=b0, v_out=v_out, c_h_in0=c_h_in0,
                              c_h_out0=c_h_out0, c_s_in0=c_s_in0)
    specs = [VesicleSpec(d, d_mem, p, s, g) for d, p, s, g in zip(
        rng.uniform(20e-9, 400e-9, n).tolist(),
        rng.integers(0, 300, n).tolist(), rng.integers(0, 300, n).tolist(),
        (10.0 ** rng.uniform(-8.0, -4.0, n)).tolist())]
    lanes = VesicleLanes.of(specs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rates = derive_rates(lanes, kin, env)
        a = stability_coefficient(lanes, kin, env, rates)
        for m, spec in enumerate(specs):
            one = derive_rates(spec, kin, env)
            assert rates.lane(m) == one
            assert lanes.v_in[m] == spec.v_in
            assert lanes.a_ves[m] == spec.a_ves
            assert a[m] == stability_coefficient(spec, kin, env, one)


_VALID_LANE = dict(d_in=87e-9, d_mem=14e-9, n_pumps=40, n_sym=30,
                   permeability=3e-6)


@given(field=st.sampled_from(["d_in", "d_mem", "n_pumps", "n_sym",
                              "permeability"]),
       bad=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 2.5,
                            -2]),
       n=st.integers(1, 5), data=st.data())
@settings(derandomize=True, deadline=None, max_examples=60)
def test_invalid_lanes_refused_as_specs(field, bad, n, data):
    # a population with one invalid lane is refused with the message a
    # VesicleSpec of that lane's values gets
    if field in ("d_in", "permeability"):
        bad = float(bad)  # lane arrays of diameters and permeabilities
    values = dict(_VALID_LANE, **{field: bad})
    try:
        VesicleSpec(**values)
    except ModelError as exc:
        message = str(exc)
    else:  # a value valid for this field
        message = None
    m = data.draw(st.integers(0, n - 1))
    lanes = {k: v if k == "d_mem" else [v if i == m and k == field else
                                       _VALID_LANE[k] for i in range(n)]
             for k, v in values.items()}
    if message is None:
        VesicleLanes(**lanes)
    else:
        with pytest.raises(ModelError) as exc:
            VesicleLanes(**lanes)
        assert str(exc.value) == message


def test_population_lanes_of_one_length():
    with pytest.raises(ModelError, match="at least one vesicle"):
        VesicleLanes.of([])
    with pytest.raises(ModelError, match="one length"):
        VesicleLanes(d_in=[87e-9, 90e-9], d_mem=14e-9, n_pumps=[1],
                     n_sym=[1, 2], permeability=[3e-6, 3e-6])
    with pytest.raises(ModelError, match="all of one d_mem"):
        VesicleLanes.of([default_vesicle(),
                         dataclasses.replace(default_vesicle(), d_mem=9e-9)])


def test_population_rates_warn_once_per_call(base_kinetics):
    # many inert lanes and many small compartments: one warning each,
    # with the static messages
    lanes = VesicleLanes(d_in=[87e-9, 300e-9, 300e-9, 87e-9], d_mem=14e-9,
                         n_pumps=[0, 0, 40, 0], n_sym=[0, 0, 30, 0],
                         permeability=[3e-6] * 4)
    env = default_environment(v_out=1e-21)
    with pytest.warns(UserWarning) as caught:
        derive_rates(lanes, base_kinetics, env)
    assert [str(w.message) for w in caught] == [
        "vesicle has no pumps and no symporters; only leakage will act",
        "v_out < 100 * v_in; the single-vesicle compartment approximation "
        "degrades"]
