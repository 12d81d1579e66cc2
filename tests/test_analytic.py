import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from vesim import analytic
from vesim.analytic import (QuadratureError, buffered_log_ratio,
                            closed_form_proton, closed_form_substrate,
                            exact_depletion_offset, exact_proton_series,
                            exact_substrate, phase_coefficients,
                            run_analytic, run_analytic_batch)
from vesim.ensemble import (EnsembleConfig, PopulationDistributions,
                            sample_vesicles)
from vesim.fdm import FdmConfig, simulate_svs, stable_dt
from vesim.model import (ModelError, VesicleLanes, VesicleSpec,
                         default_environment, default_kinetics,
                         default_vesicle, derive_rates)
from vesim.schedule import LightSignal, buffered_relaxation_time
from vesim.trajectory import sample_grid


@pytest.fixture
def setup():
    spec = default_vesicle()
    kin = default_kinetics()
    env = default_environment()
    return spec, kin, env, derive_rates(spec, kin, env)


def _coeffs(spec, rates, env, light, drain):
    """(a, b, h) of one phase of the vesicle `spec`."""
    return phase_coefficients(spec.v_in, rates.leak_rate, rates.pump_rate,
                              rates.total_free_protons,
                              rates.symport_rate_proton, env, light, drain)


def _target(a, b, h):
    return (b + h) / a


def _lane(spec, kin, rates, c_s_start):
    """The (c_s_start, gamma_s, v_in, K_M) arguments of the exact
    substrate law for the one drained lane of `spec`."""
    return (np.array([c_s_start]), np.array([rates.symport_rate_substrate]),
            np.array([spec.v_in]), kin.k_m)


def _series(c_start, a, b, drain, c_s_start, gamma_s, v_in, k_m, offsets):
    """`exact_proton_series` of one lane given as floats, as a 1-D row."""
    lane = [np.array([v]) for v in (c_start, a, b, drain, c_s_start,
                                    gamma_s, v_in)]
    return exact_proton_series(*lane, k_m, np.asarray(offsets)[None, :])[0]


class TestPhaseCoefficients:
    def test_auxiliary_terms(self, setup):
        spec, kin, env, rates = setup
        j_l_a = rates.leak_rate * (1 / spec.v_in + 1 / env.v_out)
        j_p_a = rates.pump_rate / (env.v_out * env.c_h_out0)
        j_l_b = rates.leak_rate * rates.total_free_protons \
            / (spec.v_in * env.v_out)
        a, b, h = _coeffs(spec, rates, env, light=True, drain=True)
        assert a == pytest.approx(j_l_a + j_p_a, rel=1e-14)
        assert b == pytest.approx(
            j_l_b + j_p_a * rates.total_free_protons / spec.v_in, rel=1e-14)
        assert h == pytest.approx(-rates.symport_rate_proton / spec.v_in,
                                  rel=1e-14)
        a, b, h = _coeffs(spec, rates, env, light=False, drain=False)
        assert (a, b, h) == (pytest.approx(j_l_a, rel=1e-14),
                             pytest.approx(j_l_b, rel=1e-14), 0.0)
        assert a > 0

    def test_dark_equilibrium_is_initial_ph(self, setup):
        # with equal initial pH the dark relaxation target is c_h_in0
        spec, kin, env, rates = setup
        co = _coeffs(spec, rates, env, light=False, drain=False)
        assert _target(*co) == pytest.approx(env.c_h_in0, rel=1e-12)

    def test_lit_equilibrium_matches_pump_leak_balance(self, setup):
        spec, kin, env, rates = setup
        co = _coeffs(spec, rates, env, light=True, drain=False)
        c_eq = env.c_h_out0 + rates.pump_rate / rates.leak_rate
        assert _target(*co) == pytest.approx(c_eq, rel=1e-3)


class TestClosedFormProton:
    def test_boundary_condition(self, setup):
        spec, kin, env, rates = setup
        a, b, h = _coeffs(spec, rates, env, True, False)
        assert closed_form_proton(1.23e-5, a, _target(a, b, h), 0.0) \
            == pytest.approx(1.23e-5, rel=1e-14)

    def test_asymptote(self, setup):
        spec, kin, env, rates = setup
        a, b, h = _coeffs(spec, rates, env, True, False)
        s = _target(a, b, h)
        assert closed_form_proton(env.c_h_in0, a, s, 1e9) == pytest.approx(
            s, rel=1e-12)

    def test_equilibrium_fixed_point(self, setup):
        spec, kin, env, rates = setup
        a, b, h = _coeffs(spec, rates, env, False, False)
        s = _target(a, b, h)
        assert closed_form_proton(s, a, s, 123.4) == pytest.approx(
            s, rel=1e-14)

    def test_buffer_slows_initial_slope_by_beta(self, setup):
        # the engine pins a segment by dividing a, b and h by beta; the
        # target stays and the initial slope falls by beta
        spec, kin, env, rates = setup
        beta = 6.2e-5 * 20.0 / (env.c_h_in0 + 6.2e-5) ** 2
        a, b, h = _coeffs(spec, rates, env, True, False)
        s_buff = _target(a / beta, b / beta, h / beta)
        assert s_buff == pytest.approx(_target(a, b, h), rel=1e-14)
        dt = 1e-9  # small against the 2.8 ms unbuffered time constant
        slope_plain = (closed_form_proton(env.c_h_in0, a, _target(a, b, h),
                                          dt) - env.c_h_in0) / dt
        slope_buff = (closed_form_proton(env.c_h_in0, a / beta, s_buff, dt)
                      - env.c_h_in0) / dt
        assert slope_plain / slope_buff == pytest.approx(beta, rel=1e-4)
        assert beta == pytest.approx(1.1966e5, rel=1e-3)


def _log10_floats(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@given(a=_log10_floats(-3, 3), target=st.floats(-3.0, 5.0),
       c_start=_log10_floats(-7, -3), b0=_log10_floats(-3, 3),
       k_a=_log10_floats(-7, -3), dt=_log10_floats(-3, 5))
@settings(deadline=None)  # bisection near the stall varies in cost
def test_buffered_log_ratio_inverts_the_buffered_law(a, target, c_start, b0,
                                                     k_a, dt):
    # s = target * c_start < -k_a lets C + k_a head for 0, where the law
    # stalls; the inversion must stay inside that bracket
    s = target * c_start
    assume(abs(s - c_start) > 1e-3 * c_start)
    y = buffered_log_ratio(c_start, a, a * s, dt, b0, k_a)
    assert -a * dt <= y <= 0.0
    # t moves by S(C)/a per unit of y; next to the stall that turns the
    # rounding of y and of C + k_a into more than 1e-9 of dt
    u = s + k_a + (c_start - s) * math.exp(y)
    rounding = (1.0 + k_a * b0 / u ** 2) / a * 1e-14
    assert buffered_relaxation_time(c_start, y, a, a * s, b0, k_a) \
        == pytest.approx(dt, rel=1e-9, abs=rounding)


@given(cases=st.lists(st.tuples(
    _log10_floats(-3, 3), st.floats(-3.0, 5.0), _log10_floats(-7, -3),
    st.just(0.0) | _log10_floats(-3, 3), _log10_floats(-7, -3),
    st.just(0.0) | _log10_floats(-3, 5)), min_size=1, max_size=6))
@settings(deadline=None)
def test_buffered_log_ratio_is_elementwise(cases):
    # each element iterates alone: the batch equals its 0-d and float
    # calls bit for bit, whatever its neighbours need
    a, target, c, b0, k_a, dt = (np.array(x) for x in zip(*cases))
    b_prime = a * (target * c)
    batch = buffered_log_ratio(c, a, b_prime, dt, b0, k_a)
    assert batch.shape == c.shape
    for k in range(c.size):
        args = (c[k], a[k], b_prime[k], dt[k], b0[k], k_a[k])
        zero_d = buffered_log_ratio(*map(np.array, args))
        assert isinstance(zero_d, float)
        assert np.array_equal(zero_d, batch[k])
        assert np.array_equal(buffered_log_ratio(*map(float, args)),
                              batch[k])


class TestSubstrateLaws:
    def test_closed_constant_outside_symport(self, setup):
        spec, kin, env, rates = setup
        ramp = rates.symport_rate_substrate / spec.v_in
        out = closed_form_substrate(300.0, ramp, [0.0, 50.0], False)
        assert np.all(out == 300.0)

    def test_closed_linear_zero_crossing(self, setup):
        spec, kin, env, rates = setup
        dt_zero = spec.v_in * 300.0 / rates.symport_rate_substrate
        ramp = rates.symport_rate_substrate / spec.v_in
        out = closed_form_substrate(300.0, ramp, [dt_zero, 2 * dt_zero],
                                    True)
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == 0.0

    def test_exact_initial_condition(self, setup):
        spec, kin, env, rates = setup
        lane = _lane(spec, kin, rates, 300.0)
        assert exact_substrate(*lane, [[0.0]])[0, 0] \
            == pytest.approx(300.0, rel=1e-12)

    def test_exact_near_linear_for_large_cargo(self, setup):
        # C_S >> K_M: the Michaelis-Menten term saturates and the exact
        # law tracks the linear ramp within 0.5%
        spec, kin, env, rates = setup
        dt = 1e4
        exact = exact_substrate(*_lane(spec, kin, rates, 300.0), [[dt]])[0, 0]
        linear = 300.0 - rates.symport_rate_substrate / spec.v_in * dt
        assert exact == pytest.approx(linear, rel=5e-3)

    def test_exact_satisfies_implicit_mm_integral(self, setup):
        # C + K_M ln C = C0 + K_M ln C0 - (gamma_s/v_in) dt to 1e-9
        spec, kin, env, rates = setup
        c0, km = 3.14, kin.k_m
        rate = rates.symport_rate_substrate / spec.v_in
        for dt in (10.0, 500.0, 2500.0, 3400.0):
            c = exact_substrate(*_lane(spec, kin, rates, c0), [[dt]])[0, 0]
            lhs = c + km * math.log(c)
            rhs = c0 + km * math.log(c0) - rate * dt
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_depletion_offset_inverts_substrate_law(self, setup):
        spec, kin, env, rates = setup
        thr = 1e-2 * kin.k_m
        lane = _lane(spec, kin, rates, 3.14)
        off = exact_depletion_offset(*lane, thr)
        assert exact_substrate(*lane, off[:, None])[0, 0] \
            == pytest.approx(thr, rel=1e-10)


class TestExactProton:
    def test_reduces_to_closed_without_drain(self):
        # without cargo no segment drains, so the exact engine runs the
        # closed-form proton law in every phase, symport windows included
        lanes = sample_vesicles(PopulationDistributions(),
                                np.random.default_rng(5), 6)
        sig = LightSignal([(10, 35), (50, 80)], 150)
        ts = np.linspace(0.0, 150.0, 31)
        for b0 in (0.0, 20.0):
            env = default_environment(
                v_out=EnsembleConfig().v_out_per_vesicle, buffer_total=b0,
                c_s_in0=0.0)
            exact, closed = (run_analytic_batch(lanes, default_kinetics(),
                                                env, sig, mode, ts)
                             for mode in ("exact", "closed"))
            assert np.any(exact.t4 > exact.t2)
            assert np.array_equal(exact.c_h_in, closed.c_h_in)
            assert np.array_equal(exact.t4, closed.t4)

    def test_quadrature_against_brute_force_euler(self, setup):
        # independent oracle: integrate the same ODE with a tiny explicit
        # step, drain following the exact substrate law
        spec, kin, env, rates = setup
        a, b, _ = _coeffs(spec, rates, env, True, True)
        drain = rates.symport_rate_proton / spec.v_in
        lane = _lane(spec, kin, rates, 3.14)
        c0 = rates.switch_conc
        dt_end = 0.05
        n = 200000
        h = dt_end / n
        c_s = exact_substrate(*lane, (np.arange(n) * h)[None, :])[0]
        sat = (c_s / (c_s + kin.k_m)).tolist()
        c = c0
        for k in range(n):
            c += h * (-a * c + b - drain * sat[k])
        series = _series(c0, a, b, drain, 3.14, rates.symport_rate_substrate,
                         spec.v_in, kin.k_m, [dt_end])
        assert series[0] == pytest.approx(c, rel=1e-6)

    def test_quadrature_error_when_budget_is_spent(self, setup,
                                                   monkeypatch):
        # across 40 e-folds of the exponential weight one 15-point rule
        # misses tolerance; bisection recovers it, a zero budget cannot
        spec, kin, env, rates = setup
        a, b, h = _coeffs(spec, rates, env, True, True)
        args = (rates.switch_conc, a, b, -h, 3.14,
                rates.symport_rate_substrate, spec.v_in, kin.k_m,
                [40.0 / a])
        converged = _series(*args)
        monkeypatch.setattr(analytic, "_MAX_SUBDIVISIONS", 0)
        with pytest.raises(QuadratureError) as info:
            _series(*args)
        assert math.isfinite(info.value.estimate)
        assert math.isfinite(info.value.abserr)
        assert info.value.estimate == pytest.approx(converged[0], rel=1e-2)

    def test_quadrature_error_names_first_failing_interval_lane_major(
            self, setup, monkeypatch):
        # three drained lanes: lane 0 converges, lane 1 misses tolerance
        # on its second interval and lane 2 on its first. The batch
        # reports lane 1's interval, as a loop over the lanes would, with
        # the estimate and error lane 1 gets alone
        spec, kin, env, rates = setup
        a, b, h = _coeffs(spec, rates, env, True, True)
        cargo = [3.14, 3.14, 300.0]
        rows = [[0.1 / a, 0.2 / a], [1.0 / a, 40.0 / a], [40.0 / a, 41.0 / a]]
        lanes = [(rates.switch_conc, a, b, -h, c,
                  rates.symport_rate_substrate, spec.v_in, kin.k_m, r)
                 for c, r in zip(cargo, rows)]
        batch = [np.array([lane[k] for lane in lanes]) for k in range(7)]
        offsets = np.array(rows)
        converged = exact_proton_series(*batch, kin.k_m, offsets)
        for m, lane in enumerate(lanes):
            assert np.array_equal(converged[m], _series(*lane))
        monkeypatch.setattr(analytic, "_MAX_SUBDIVISIONS", 0)
        assert np.array_equal(_series(*lanes[0]), converged[0])
        assert np.array_equal(_series(*lanes[1][:-1], rows[1][:1]),
                              converged[1, :1])
        with pytest.raises(QuadratureError) as alone:
            _series(*lanes[1])
        with pytest.raises(QuadratureError) as later_lane:
            _series(*lanes[2][:-1], rows[2][:1])
        with pytest.raises(QuadratureError) as info:
            exact_proton_series(*batch, kin.k_m, offsets)
        assert info.value.estimate == alone.value.estimate
        assert info.value.abserr == alone.value.abserr
        assert str(info.value) == str(alone.value)
        assert info.value.estimate == pytest.approx(converged[1, 1],
                                                    rel=1e-2)
        assert later_lane.value.estimate != alone.value.estimate


def test_gauss_kronrod_constants_integrate_polynomials_exactly():
    x = analytic._GK_NODES
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert analytic._K15_WEIGHTS @ x ** k == pytest.approx(exact,
                                                              abs=1e-15)
        if k <= 13:
            assert analytic._G7_WEIGHTS @ x ** k == pytest.approx(exact,
                                                                 abs=1e-15)


def test_kronrod_rule_rows_are_independent_of_their_batch():
    # every interval gets the same bits alone as inside any batch, so a
    # lane's quadrature does not depend on the other lanes
    rng = np.random.default_rng(11)
    lo = rng.uniform(0.0, 50.0, 41)
    hi = lo + 10.0 ** rng.uniform(-3.0, 1.5, 41)

    def integrand(u, rows):
        return np.exp(-0.3 * u) * np.cos(u) + 1.0 / (1.0 + u)

    rows = np.arange(lo.size)
    k15, err = analytic._kronrod_rule(integrand, lo, hi, rows)
    for batch in (rows[::-1], rows[::3], rows[5:6], rows[7:30]):
        b15, berr = analytic._kronrod_rule(integrand, lo[batch], hi[batch],
                                           batch)
        assert np.array_equal(b15, k15[batch])
        assert np.array_equal(berr, err[batch])
    for i in rows:
        one = analytic._kronrod_rule(integrand, lo[i:i + 1], hi[i:i + 1],
                                     rows[i:i + 1])
        assert (one[0][0], one[1][0]) == (k15[i], err[i])


def _chained_quad_reference(c_start, a, b, drain, c_s_start, gamma_s, v_in,
                            k_m, offsets):
    """quad per sample interval of (b - drain*sat(u))*e^(-a(t_k - u)),
    chained through c_k = c_(k-1)*e^(-a*d_k) + I_k."""
    lane = [np.array([v]) for v in (c_s_start, gamma_s, v_in)]

    def g(u, t_k):
        c_s = exact_substrate(*lane, k_m, [[u]])[0, 0]
        return (b - drain * c_s / (c_s + k_m)) * math.exp(-a * (t_k - u))

    out, c, t_prev = [], c_start, 0.0
    for t_k in offsets:
        val = quad(g, t_prev, t_k, args=(t_k,), epsabs=0.0, epsrel=1e-13,
                   limit=500)[0]
        c = c * math.exp(-a * (t_k - t_prev)) + val
        out.append(c)
        t_prev = t_k
    return np.array(out)


@given(c_s_ratio=_log10_floats(-3, 3), beta=st.floats(1.0, 50.0),
       light=st.booleans(),
       steps=st.lists(_log10_floats(-4, 1.5), min_size=1, max_size=6),
       long_gap=st.floats(45.5, 400.0), at=st.integers(0, 6))
@settings(deadline=None, max_examples=60)
def test_exact_series_matches_chained_quad(c_s_ratio, beta, light, steps,
                                           long_gap, at):
    spec, kin, env = default_vesicle(), default_kinetics(), \
        default_environment()
    rates = derive_rates(spec, kin, env)
    # a drained phase pinned by beta, as a buffered segment is
    a, b, h = (v / beta for v in _coeffs(spec, rates, env, light, True))
    # uneven gaps, one of them longer than 45 e-folds of the weight
    steps.insert(min(at, len(steps)), long_gap / a)
    offsets = np.cumsum(steps)
    args = (rates.switch_conc, a, b, -h, c_s_ratio * kin.k_m,
            rates.symport_rate_substrate, spec.v_in, kin.k_m, offsets)
    np.testing.assert_allclose(_series(*args),
                               _chained_quad_reference(*args), rtol=1e-9)


class TestRunAnalytic:
    def test_dead_system_constant(self, base_kinetics, base_env):
        spec = dataclasses.replace(default_vesicle(), n_pumps=0, n_sym=0)
        sig = LightSignal([(0, 100)], 200)
        with pytest.warns(UserWarning, match="no pumps"):
            traj = run_analytic(spec, base_kinetics, base_env, sig, "closed")
        assert np.allclose(traj.c_h_in, base_env.c_h_in0, rtol=1e-14)
        assert np.allclose(traj.c_s_in, base_env.c_s_in0, rtol=1e-14)

    def test_boundary_continuity(self, setup):
        spec, kin, env, rates = setup
        sig = LightSignal([(10, 35), (50, 80), (110, 140), (150, 180)], 250)
        for mode in ("exact", "closed"):
            traj = run_analytic(spec, kin, env, sig, mode,
                                sample_times=sample_grid(sig.horizon, 0.05))
            jumps = np.abs(np.diff(traj.c_h_in)) / traj.c_h_in[:-1]
            # nothing moves faster than the attenuated rate allows
            assert np.max(jumps) < 1e-3
            # substrate never increases inside the vesicle
            assert np.all(np.diff(traj.c_s_in) <= 1e-15)

    def test_closed_equals_exact_without_symporters(self, base_kinetics,
                                                    base_env):
        spec = dataclasses.replace(default_vesicle(), n_sym=0)
        sig = LightSignal([(0, 600)], 1200)
        closed = run_analytic(spec, base_kinetics, base_env, sig, "closed",
                              sample_times=sample_grid(sig.horizon, 1.0))
        exact = run_analytic(spec, base_kinetics, base_env, sig, "exact",
                             sample_times=sample_grid(sig.horizon, 1.0))
        assert np.allclose(closed.c_h_in, exact.c_h_in, rtol=1e-13)

    def test_buffer_degeneracy_bitwise(self, base_kinetics):
        # B0 = 0 makes beta = 1: changing k_a must not change a single bit
        spec = default_vesicle()
        sig = LightSignal([(0, 100)], 200)
        env_a = default_environment(buffer_total=0.0, k_a=6.2e-5)
        env_b = default_environment(buffer_total=0.0, k_a=1.0)
        ta = run_analytic(spec, base_kinetics, env_a, sig, "closed")
        tb = run_analytic(spec, base_kinetics, env_b, sig, "closed")
        assert np.array_equal(ta.c_h_in, tb.c_h_in)
        assert np.array_equal(ta.c_s_in, tb.c_s_in)

    def test_fig3_sweep_common_equilibrium(self, base_kinetics):
        # all buffer molarities approach the same lit equilibrium; only
        # the pace differs (checked against a 3000 s illumination)
        spec = dataclasses.replace(default_vesicle(), n_sym=0)
        sig = LightSignal([(0, 3000)], 3200)
        finals = {}
        for b0 in (0.0, 10.0, 20.0):
            env = default_environment(buffer_total=b0)
            traj = run_analytic(spec, base_kinetics, env, sig, "closed",
                                sample_times=sample_grid(sig.horizon, 10.0))
            k = int(np.argmin(np.abs(traj.t - 3000.0)))
            finals[b0] = traj.c_h_in[k]
        rates = derive_rates(spec, base_kinetics, default_environment())
        c_eq = 3.98e-5 + rates.pump_rate / rates.leak_rate
        for b0, val in finals.items():
            assert val == pytest.approx(c_eq, rel=2e-2), f"B0={b0}"

    def test_unbuffered_exact_matches_fdm(self, base_kinetics):
        # with no buffer the phase coefficients are exact, so the only
        # differences left are quadrature and Euler error
        spec = VesicleSpec(d_in=87e-9, d_mem=14e-9, n_pumps=35, n_sym=35,
                           permeability=3e-6)
        env = default_environment(buffer_total=0.0, c_s_in0=3.14)
        sig = LightSignal([(0, 500)], 1200)
        dt = stable_dt(spec, base_kinetics, env)
        fdm = simulate_svs(spec, base_kinetics, env, sig,
                           FdmConfig(dt=dt, record_stride=round(0.5 / dt)))
        exact = run_analytic(spec, base_kinetics, env, sig, "exact",
                             sample_times=sample_grid(sig.horizon, 0.5))
        assert np.max(np.abs(exact.c_h_in - fdm.c_h_in) / fdm.c_h_in) < 1e-6
        assert np.max(np.abs(exact.c_s_in - fdm.c_s_in)
                      / np.maximum(fdm.c_s_in, 1e-9)) < 1e-4

    def test_symport_time_prediction_vs_fdm_oracle(self, base_kinetics):
        # single 600 s illumination at table defaults; the FDM crossing
        # is the oracle for the closed-form start-time prediction
        spec = default_vesicle()
        sig = LightSignal([(0.0, 600.0)], 1200.0)
        # unbuffered: the inversion is exact, agreement to 2 FDM steps
        env0 = default_environment(buffer_total=0.0)
        dt0 = stable_dt(spec, base_kinetics, env0)
        fdm0 = simulate_svs(spec, base_kinetics, env0, sig,
                            FdmConfig(dt=dt0, record_stride=100))
        ana0 = run_analytic(spec, base_kinetics, env0, sig, "closed",
                            sample_times=sample_grid(sig.horizon, 1.0))
        assert abs(fdm0.schedule.cycles[0].t2
                   - ana0.schedule.cycles[0].t2) <= 2 * dt0
        # buffered: t2 comes from the separable buffered law, which is the
        # mass-action ground truth the FDM steps, so the same 2-step bound
        env = default_environment()
        fdm = simulate_svs(spec, base_kinetics, env, sig,
                           FdmConfig(dt=1e-2, record_stride=100))
        ana = run_analytic(spec, base_kinetics, env, sig, "closed",
                           sample_times=sample_grid(sig.horizon, 1.0))
        assert abs(fdm.schedule.cycles[0].t2
                   - ana.schedule.cycles[0].t2) <= 2 * 1e-2

    def test_heterogeneous_symport_times_vs_fdm_oracle(self, base_kinetics):
        # five vesicles of the default population (seed fixed before the
        # results were seen); one batched closed run against each
        # vesicle's own FDM run
        lanes = sample_vesicles(PopulationDistributions(),
                                np.random.default_rng(5), 5)
        specs = [VesicleSpec(d_in=d, d_mem=lanes.d_mem, n_pumps=p, n_sym=s,
                             permeability=g) for d, p, s, g in zip(
            lanes.d_in.tolist(), lanes.n_pumps.tolist(),
            lanes.n_sym.tolist(), lanes.permeability.tolist())]
        # unbuffered, at each vesicle's stable_dt
        env0 = default_environment(buffer_total=0.0)
        sig0 = LightSignal([(0.0, 300.0)], 400.0)
        batch0 = run_analytic_batch(lanes, base_kinetics, env0, sig0,
                                    "closed", [0.0, 400.0])
        # buffered, where stable_dt is 5-10 s: at the 1e-2 s of the
        # default-vesicle test above
        env = default_environment()
        sig = LightSignal([(0.0, 600.0)], 1200.0)
        batch = run_analytic_batch(lanes, base_kinetics, env, sig, "closed",
                                   [0.0, 1200.0])
        for m, spec in enumerate(specs):
            for e, s, b, dt in ((env0, sig0, batch0,
                                 stable_dt(spec, base_kinetics, env0)),
                                (env, sig, batch, 1e-2)):
                fdm = simulate_svs(spec, base_kinetics, e, s,
                                   FdmConfig(dt=dt, record_stride=1000))
                cyc = fdm.schedule.cycles[0]
                assert abs(cyc.t2 - b.t2[m, 0]) <= 2 * dt
                assert abs(cyc.t4 - b.t4[m, 0]) <= 2 * dt

    def test_trajectory_annotations(self, setup):
        spec, kin, env, rates = setup
        sig = LightSignal([(10, 35), (50, 80)], 150)
        traj = run_analytic(spec, kin, env, sig, "closed")
        assert traj.phase[0] == "P1"
        assert set(traj.phase) <= {"P1", "P2", "P3", "P4"}
        k = int(np.argmin(np.abs(traj.t - 60.0)))
        assert traj.phase[k] == "P3"  # inside the second window, crossed
        assert traj.light[k] == 1
        assert traj.cycle[k] == 2


@pytest.mark.parametrize("times, message", [
    ([0.0, 5.0, 3.0, 1.0], "sample time 3.0 "),   # decreasing
    ([-1.0, 0.0], "sample time -1.0 "),           # before 0
    ([0.0, 60.0, 60.5], "sample time 60.5 "),     # past the horizon
    ([0.0, math.nan, 10.0], "sample time nan "),
    (5.0, r"one-dimensional, got shape \(\)"),
])
def test_batch_refuses_a_grid_it_cannot_sample(times, message):
    # every grid point of an accepted grid is sampled; any other grid is
    # refused, naming its first bad time
    with pytest.raises(ModelError, match=message):
        run_analytic_batch(VesicleLanes.of([default_vesicle()]),
                           default_kinetics(), default_environment(),
                           LightSignal([(0.0, 30.0)], 60.0), "closed", times)


_THREE_LANES = VesicleLanes.of([default_vesicle()] * 3)


@pytest.mark.parametrize("signals, times, message", [
    ([LightSignal([(0.0, 30.0)], 60.0)] * 2
     + [LightSignal([(0.0, 10.0), (20.0, 30.0)], 60.0)], [0.0],
     "lane 2's light signal has 2 cycles, lane 0's has 1"),
    ([LightSignal([(0.0, 30.0)], 60.0)] * 2, [0.0],
     "2 light signals for 3 lanes"),
    ([LightSignal([(0.0, 30.0)], h) for h in (60.0, 40.0, 50.0)],
     [0.0, 30.0, 45.0], r"sample time 45.0 .* the horizon of lane 1"),
])
def test_batch_refuses_lane_signals_it_cannot_run(signals, times, message):
    # per-lane signals need one cycle count, one per lane, and a grid
    # within the smallest horizon, whose lane is named
    with pytest.raises(ModelError, match=message):
        run_analytic_batch(_THREE_LANES, default_kinetics(),
                           default_environment(), signals, "closed", times)


@st.composite
def _lane_signals(draw):
    """1-3 lanes of one pulse count (1-3), each with its own pulses,
    horizon and permeability."""
    n_pulses, lanes = draw(st.integers(1, 3)), []
    for _ in range(draw(st.integers(1, 3))):
        t, pulses = 0.0, []
        for _ in range(n_pulses):
            t_on = t + draw(st.floats(0.0, 60.0))
            t = t_on + draw(st.floats(5.0, 120.0))
            pulses.append((t_on, t))
        lanes.append((LightSignal(pulses, t + draw(st.floats(1.0, 300.0))),
                      draw(st.floats(1e-6, 1e-5))))
    return lanes


@settings(derandomize=True, deadline=None, max_examples=12)
@given(lanes=_lane_signals(), mode=st.sampled_from(["closed", "exact"]),
       c_s_in0=st.sampled_from([0.01, 0.05, default_environment().c_s_in0]))
def test_lane_signals_equal_each_lanes_own_run(lanes, mode, c_s_in0):
    # a batch with one signal per lane: row m is the batch-of-one run of
    # lane m on its own signal, bit for bit; the small cargoes run dry
    specs = [dataclasses.replace(default_vesicle(), permeability=g)
             for _, g in lanes]
    signals = [sig for sig, _ in lanes]
    grid = np.linspace(0.0, min(sig.horizon for sig in signals), 9)
    kin, env = default_kinetics(), default_environment(c_s_in0=c_s_in0)
    batch = run_analytic_batch(VesicleLanes.of(specs), kin, env, signals,
                               mode, grid)
    for m, (spec, sig) in enumerate(zip(specs, signals)):
        one = run_analytic(spec, kin, env, sig, mode, sample_times=grid)
        assert np.array_equal(batch.t2[m], [c.t2 for c in one.schedule.cycles])
        assert np.array_equal(batch.t4[m], [c.t4 for c in one.schedule.cycles])
        assert np.array_equal(batch.c_h_in[m], one.c_h_in)
        assert np.array_equal(batch.c_s_in[m], one.c_s_in)
        t_dep = one.depletion_time()
        assert np.array_equal(batch.depletion_time[m],
                              math.nan if t_dep is None else t_dep,
                              equal_nan=True)
