import dataclasses
import functools
import hashlib
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vesim import fdm, native
from vesim.analytic import DEPLETION_FRACTION_OF_KM, run_analytic
from vesim.buffering import total_conc_from_free
from vesim.fdm import (FdmConfig, FdmStabilityError, simulate_mvs_shared_pool,
                       simulate_svs, simulate_svs_batch, stability_coefficient,
                       stable_dt)
from vesim.model import (VesicleLanes, VesicleSpec, default_environment,
                         default_kinetics, default_vesicle, derive_rates)
from vesim.presets import RUN_PRESETS
from vesim.schedule import LightSignal, schedule_from_crossings
from vesim.trajectory import sample_grid, write_trajectory_csv


def test_stability_check_rejects_baseline_step_when_unbuffered(
        base_vesicle, base_kinetics):
    # unbuffered leakage relaxes in ~3 ms; dt = 1e-2 s must be refused
    env = default_environment(buffer_total=0.0)
    cfg = FdmConfig(dt=1e-2)
    with pytest.raises(FdmStabilityError, match="unstable"):
        cfg.check_stability(base_vesicle, base_kinetics, env)


def test_stability_check_passes_buffered_baseline(base_vesicle,
                                                  base_kinetics, base_env):
    a = FdmConfig(dt=1e-2).check_stability(base_vesicle, base_kinetics,
                                           base_env)
    assert a * 1e-2 < 1


@pytest.mark.parametrize("kwargs", [
    dict(dt=float("nan")), dict(dt=float("inf")), dict(dt=0.0),
    dict(record_stride=10.0), dict(record_stride=0)])
def test_config_refuses_non_finite_dt_and_non_integer_stride(kwargs):
    with pytest.raises(ValueError, match="dt must be|record_stride must"):
        FdmConfig(**kwargs)


def test_config_takes_numpy_integer_stride(base_vesicle, base_kinetics,
                                           base_env):
    sig = LightSignal([(0, 1)], 2)
    cfg = FdmConfig(record_stride=np.int64(10))
    traj = simulate_svs(base_vesicle, base_kinetics, base_env, sig, cfg)
    assert len(traj) == 21


def test_stable_dt_round_number(base_vesicle, base_kinetics):
    env = default_environment(buffer_total=0.0)
    dt = stable_dt(base_vesicle, base_kinetics, env)
    rates = derive_rates(base_vesicle, base_kinetics, env)
    assert dt * stability_coefficient(base_vesicle, base_kinetics, env,
                                      rates) <= 0.5
    assert dt in (1e-3, 2e-3, 5e-4)


def test_dead_system_constant(base_kinetics, base_env):
    spec = dataclasses.replace(default_vesicle(), n_pumps=0, n_sym=0)
    sig = LightSignal([(0, 50)], 100)
    with pytest.warns(UserWarning, match="no pumps"):
        traj = simulate_svs(spec, base_kinetics, base_env, sig,
                            FdmConfig(dt=1e-2, record_stride=100))
    assert np.allclose(traj.c_h_in, base_env.c_h_in0, rtol=1e-12)
    assert np.allclose(traj.c_s_in, base_env.c_s_in0, rtol=1e-12)


def test_terminal_equilibrium_unbuffered(base_kinetics):
    # pump/leak balance: C_eq = C_H_out0 + gamma_P/gamma_L ~ 5.58e-5
    spec = dataclasses.replace(default_vesicle(), n_sym=0)
    env = default_environment(buffer_total=0.0)
    sig = LightSignal([(0, 600)], 600)
    dt = stable_dt(spec, base_kinetics, env)
    traj = simulate_svs(spec, base_kinetics, env, sig,
                        FdmConfig(dt=dt, record_stride=round(1.0 / dt)))
    rates = traj.derived
    c_eq = env.c_h_out0 + rates.pump_rate / rates.leak_rate
    assert c_eq == pytest.approx(5.58e-5, rel=1e-3)
    assert traj.c_h_in[-1] == pytest.approx(c_eq, rel=1e-2)


def test_conservation(base_vesicle, base_kinetics, base_env):
    sig = LightSignal([(10, 35), (50, 80)], 150)
    traj = simulate_svs(base_vesicle, base_kinetics, base_env, sig)
    assert traj.conservation_drift < 1e-6


def test_first_order_convergence_richardson(base_kinetics, base_env):
    # terminal error scales O(dt): successive differences halve
    spec = dataclasses.replace(default_vesicle(), n_sym=0)
    sig = LightSignal([(0, 300)], 300)
    terminals = []
    for dt in (4e-2, 2e-2, 1e-2):
        traj = simulate_svs(spec, base_kinetics, base_env, sig,
                            FdmConfig(dt=dt, record_stride=int(300 / dt)))
        terminals.append(traj.c_h_in[-1])
    ratio = (terminals[0] - terminals[1]) / (terminals[1] - terminals[2])
    assert ratio == pytest.approx(2.0, abs=0.3)


def dt_ladder(cfg, rungs=4):
    """The FDM's own error bar: RunConfig `cfg`'s vesicle run at dt,
    dt/2, ..., dt/2**(rungs - 1), recording at the same times (the
    record stride doubles with each halving).

    Returns, per output, the successive differences d_k (rung k minus
    rung k + 1, shape (rungs - 1, ...)) and the observed orders
    log2(|d_k| / |d_k+1|), elementwise. Outputs: 't2' and 't4' per
    cycle (NaN where a cycle has none), 'C_H_in' at the records and
    'released' substrate (the first C_S_in minus the last).
    """
    outputs = {"t2": [], "t4": [], "C_H_in": [], "released": []}
    for k in range(rungs):
        traj = simulate_svs(cfg.vesicle, cfg.kinetics, cfg.environment,
                            cfg.signal,
                            FdmConfig(dt=cfg.fdm.dt / 2**k,
                                      record_stride=cfg.fdm.record_stride
                                      * 2**k))
        if k == 0:
            t = traj.t
        assert np.array_equal(traj.t, t)  # the records line up
        outputs["t2"].append([c.t2 for c in traj.schedule.cycles])
        outputs["t4"].append([c.t4 for c in traj.schedule.cycles])
        outputs["C_H_in"].append(traj.c_h_in)
        outputs["released"].append(traj.c_s_in[0] - traj.c_s_in[-1])
    ladder = {}
    for name, values in outputs.items():
        d = -np.diff(np.array(values, dtype=float), axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ladder[name] = d, np.log2(np.abs(d[:-1]) / np.abs(d[1:]))
    return ladder


def test_fig4_symport_start_converges_at_first_order():
    # cycle 2's t2 is a transversal crossing: halving dt halves its
    # error (from dt = 1e-2 to 1.25e-3)
    _, order = dt_ladder(RUN_PRESETS["fig4"]().runs[0])["t2"]
    assert np.all((order[:, 1] >= 0.9) & (order[:, 1] <= 1.1))


def test_converges_to_closed_form_unbuffered(base_kinetics):
    spec = dataclasses.replace(default_vesicle(), n_sym=0)
    env = default_environment(buffer_total=0.0)
    sig = LightSignal([(0, 600)], 1200)
    dt = stable_dt(spec, base_kinetics, env)
    stride = round(0.1 / dt)
    fdm = simulate_svs(spec, base_kinetics, env, sig,
                       FdmConfig(dt=dt, record_stride=stride))
    closed = run_analytic(spec, base_kinetics, env, sig, "closed",
                          sample_times=sample_grid(sig.horizon, 0.1))
    rel = np.abs(closed.c_h_in - fdm.c_h_in) / fdm.c_h_in
    assert np.max(rel) < 1e-3


def test_monotone_rise_while_pump_beats_leak(base_vesicle, base_kinetics):
    env = default_environment(buffer_total=0.0)
    sig = LightSignal([(0, 0.05)], 0.1)
    dt = stable_dt(base_vesicle, base_kinetics, env)
    traj = simulate_svs(base_vesicle, base_kinetics, env, sig,
                        FdmConfig(dt=dt, record_stride=1))
    lit = traj.light == 1
    assert np.all(np.diff(traj.c_h_in[lit]) >= 0)


def test_light_column_is_the_signals_off_the_step_grid(base_vesicle,
                                                      base_kinetics,
                                                      base_env):
    # the steps switch at the nearest step (1000 and 3501), but each
    # sample's light is the signal's, as in the exact solver: off at
    # t = 10.0 s, which precedes t_on = 10.004 s
    sig = LightSignal([(10.004, 35.006)], 60)
    traj = simulate_svs(base_vesicle, base_kinetics, base_env, sig,
                        FdmConfig(dt=1e-2, record_stride=1))
    exact = run_analytic(base_vesicle, base_kinetics, base_env, sig, "exact",
                         sample_times=traj.t)
    assert traj.t[1000] == 10.0 and traj.light[1000] == 0
    assert traj.light.tolist() == sig.is_on(traj.t).astype(int).tolist()
    assert np.array_equal(traj.light, exact.light)


def test_depletion_event_recorded(base_kinetics):
    spec = VesicleSpec(d_in=87e-9, d_mem=14e-9, n_pumps=35, n_sym=35,
                       permeability=3e-6)
    env = default_environment(c_s_in0=0.05)
    sig = LightSignal([(0, 300)], 400)
    traj = simulate_svs(spec, base_kinetics, env, sig,
                        FdmConfig(dt=1e-2, record_stride=100))
    t_dep = traj.depletion_time()
    assert t_dep is not None
    k = int(np.argmin(np.abs(traj.t - t_dep)))
    assert traj.c_s_in[k] <= 0.01 * base_kinetics.k_m * 1.5


def test_crossing_detection_matches_prediction_unbuffered(base_kinetics):
    # without buffering the closed-form inversion is exact, so detected
    # and predicted symport times must agree to interpolation accuracy
    env = default_environment(buffer_total=0.0)
    spec = default_vesicle()
    sig = LightSignal([(0, 0.1)], 0.3)
    dt = 2e-4
    fdm = simulate_svs(spec, base_kinetics, env, sig,
                       FdmConfig(dt=dt, record_stride=10))
    closed = run_analytic(spec, base_kinetics, env, sig, "closed",
                          sample_times=sample_grid(sig.horizon, 0.01))
    cf, ca = fdm.schedule.cycles[0], closed.schedule.cycles[0]
    assert cf.t2 == pytest.approx(ca.t2, abs=2 * dt)
    assert cf.t4 == pytest.approx(ca.t4, abs=2 * dt)


def test_phase_annotation_at_60s(base_vesicle, base_kinetics, base_env):
    sig = LightSignal([(10, 35), (50, 80), (110, 140), (150, 180)], 250)
    traj = simulate_svs(base_vesicle, base_kinetics, base_env, sig)
    k = int(np.argmin(np.abs(traj.t - 60.0)))
    assert traj.phase[k] == "P3"
    assert traj.cycle[k] == 2


def _unbuffered_case():
    spec, env = default_vesicle(), default_environment(buffer_total=0.0)
    dt = stable_dt(spec, default_kinetics(), env)
    return (spec, env, LightSignal([(0, 0.5)], 1.0),
            FdmConfig(dt=dt, record_stride=50), True, [])


# A step the stability check accepts: dt*a_max = 0.911. Once the cargo is
# ~1e-300 the fluxes underflow to subnormals, whose rounding lets one
# decrement exceed what is left; the clamp holds C_S_in at 0 from step 291.
CLAMP_SPEC = VesicleSpec(d_in=1.1066413413874867e-07, d_mem=14e-9,
                         n_pumps=167, n_sym=173,
                         permeability=2.608229801879833e-05)
CLAMP_CS_FRAC, CLAMP_U = 0.2831710565694664, 0.9114165898320166


def _substrate_case(spec, cs_frac, u, n_steps=300):
    """Light-on run of `n_steps` at dt = u/a_max, c_s_in0 in [1e-3, 3 K_M]."""
    kin = default_kinetics()
    env = default_environment(
        c_s_in0=1e-3 + cs_frac * (3.0 * kin.k_m - 1e-3))
    dt = u / stability_coefficient(spec, kin, env,
                                   derive_rates(spec, kin, env))
    horizon = n_steps * dt
    return (spec, env, LightSignal([(0, horizon)], horizon),
            FdmConfig(dt=dt, record_stride=1))


def _weak_buffer_case():
    # B0 = 1e-5 mol/m^3: the pumped interior's total H+ rises past
    # B0 + k_a, so the buffer root takes its q < 0 branch
    spec = dataclasses.replace(default_vesicle(), n_pumps=200,
                               permeability=3e-6)
    env = default_environment(buffer_total=1e-5)
    dt = stable_dt(spec, default_kinetics(), env)
    return (spec, env, LightSignal([(0, 2.0)], 4.0),
            FdmConfig(dt=dt, record_stride=50), True, [])


def test_weak_buffer_case_reaches_the_q_negative_root():
    spec, env, sig, cfg, _, _ = _weak_buffer_case()
    traj = simulate_svs(spec, default_kinetics(), env, sig, cfg)
    total = [total_conc_from_free(c, env.buffer_total, env.k_a)
             for c in traj.c_h_in]
    assert max(total) > env.buffer_total + env.k_a


# (spec, env, signal, cfg, run the stability check, expected event infos)
PIN_CASES = {
    "buffered": lambda: (default_vesicle(), default_environment(),
                         LightSignal([(0, 60)], 120),
                         FdmConfig(dt=1e-2, record_stride=100), True, []),
    "depletion": lambda: (default_vesicle(),
                          default_environment(c_s_in0=0.05),
                          LightSignal([(0, 200)], 200),
                          FdmConfig(dt=2e-2, record_stride=100), True,
                          ["fell below reporting threshold"]),
    # a step past the substrate bound 1/a_s ~ 15 s overshoots the cargo
    # below zero while it is still above the reporting threshold
    "clamp": lambda: (default_vesicle(), default_environment(c_s_in0=0.05),
                      LightSignal([(0, 400)], 600),
                      FdmConfig(dt=20.0, record_stride=1), False,
                      ["substrate clamped at 0"]),
    "clamp_checked": lambda: (
        *_substrate_case(CLAMP_SPEC, CLAMP_CS_FRAC, CLAMP_U), True,
        ["fell below reporting threshold"]),
    "unbuffered": _unbuffered_case,
    # both light switches (steps 37 and 6005) fall inside record blocks
    "switch_mid_block": lambda: (default_vesicle(), default_environment(),
                                 LightSignal([(0.37, 60.05)], 120),
                                 FdmConfig(dt=1e-2, record_stride=100),
                                 True, []),
    # 12037 steps at a stride of 300: the last record block is partial
    "partial_last_record": lambda: (default_vesicle(), default_environment(),
                                    LightSignal([(0, 60)], 120.37),
                                    FdmConfig(dt=1e-2, record_stride=300),
                                    True, []),
    "weak_buffer": _weak_buffer_case,
}


# SHA-256 of two preset FDM trajectory files. The step loop uses only
# + - * / and sqrt, which IEEE 754 rounds exactly (the set-up adds a few
# `**` powers), and the writer prints each float with repr, so a change
# to the loop that is not bit for bit shows here.
GOLDEN_FDM_CSV = {
    ("fig4", "fig4"):
        "abf3fe2c93dcc2b1692d1e099589ad420898a7acfc7ace3fc1b602d276bfbd27",
    ("fig3", "B0=20"):
        "5987e68a43736a9d63f43d3781da004ad8b15fd45bd363598db42b0b3a7add8c",
}


@pytest.mark.parametrize("preset, label", list(GOLDEN_FDM_CSV))
def test_preset_fdm_csv_matches_golden_hash(preset, label, tmp_path):
    cfg = next(c for c in RUN_PRESETS[preset]().runs if c.label == label)
    traj = simulate_svs(cfg.vesicle, cfg.kinetics, cfg.environment,
                        cfg.signal, cfg.fdm)
    path = tmp_path / "trajectory_fdm.csv"
    write_trajectory_csv(traj, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_FDM_CSV[preset, label]


@given(d_in=st.floats(40e-9, 300e-9), n_pumps=st.integers(0, 200),
       n_sym=st.integers(1, 300),
       permeability=st.floats(-7.0, -4.0).map(lambda e: 10.0 ** e),
       cs_frac=st.floats(0.0, 1.0), u=st.floats(0.5, 0.999))
@example(d_in=CLAMP_SPEC.d_in, n_pumps=CLAMP_SPEC.n_pumps,
         n_sym=CLAMP_SPEC.n_sym, permeability=CLAMP_SPEC.permeability,
         cs_frac=CLAMP_CS_FRAC, u=CLAMP_U)
@settings(derandomize=True, deadline=None, max_examples=60)
def test_stable_step_keeps_substrate_nonnegative(d_in, n_pumps, n_sym,
                                                 permeability, cs_frac, u):
    # dt*a_s < 1 keeps every decrement below the cargo in exact
    # arithmetic; in floating point the clamp is what keeps C_S_in >= 0
    # (CLAMP_SPEC), and the substrate is conserved either way
    spec = VesicleSpec(d_in=d_in, d_mem=14e-9, n_pumps=n_pumps, n_sym=n_sym,
                       permeability=permeability)
    spec, env, sig, cfg = _substrate_case(spec, cs_frac, u)
    traj = simulate_svs(spec, default_kinetics(), env, sig, cfg)
    assert len(traj) == 301
    assert np.all(traj.c_s_in >= 0.0)
    s0 = env.c_s_in0 * spec.v_in
    s = traj.c_s_in * spec.v_in + traj.c_s_out * env.v_out
    assert np.max(np.abs(s - s0)) / s0 < 1e-9


@given(d_in=st.floats(40e-9, 300e-9), n_pumps=st.integers(0, 200),
       n_sym=st.integers(0, 200),
       permeability=st.floats(-7.0, -4.0).map(lambda e: 10.0 ** e),
       b0=st.sampled_from([0.0, 10.0, 20.0, 100.0]),
       c_h_in0=st.floats(1e-5, 1e-4), c_s_in0=st.floats(1e-3, 300.0),
       on=st.integers(0, 4000), lit=st.integers(1, 4000))
@settings(derandomize=True, deadline=None, max_examples=40)
@pytest.mark.filterwarnings("ignore:vesicle has no pumps")
def test_fdm_stays_finite_and_within_its_inventory(d_in, n_pumps, n_sym,
                                                   permeability, b0, c_h_in0,
                                                   c_s_in0, on, lit):
    # the FDM is the oracle: on any valid vesicle its free H+ stays finite
    # and inside the H+ inventory, and its cargo inside [0, c_s_in0], over
    # 10,000 steps with one pulse in the first 8,000
    kin = default_kinetics()
    spec = VesicleSpec(d_in=d_in, d_mem=14e-9, n_pumps=n_pumps, n_sym=n_sym,
                       permeability=permeability)
    env = default_environment(buffer_total=b0, c_h_in0=c_h_in0,
                              c_s_in0=c_s_in0)
    dt = min(1e-2, stable_dt(spec, kin, env))
    sig = LightSignal([(on * dt, (on + lit) * dt)], 10000 * dt)
    traj = simulate_svs(spec, kin, env, sig, FdmConfig(dt=dt,
                                                       record_stride=10))
    assert np.all(np.isfinite(traj.c_h_in))
    assert np.all(np.isfinite(traj.c_h_out))
    h_total0 = (total_conc_from_free(c_h_in0, b0, env.k_a) * spec.v_in
                + total_conc_from_free(env.c_h_out0, b0, env.k_a) * env.v_out)
    assert np.all(traj.c_h_in >= 0.0)
    assert np.all(traj.c_h_in * spec.v_in <= h_total0)
    assert np.all((traj.c_s_in >= 0.0) & (traj.c_s_in <= c_s_in0))
    assert traj.conservation_drift < 1e-9


@st.composite
def _pulses(draw):
    """1-3 light pulses and a dark tail, in steps: (intervals, horizon)."""
    intervals, k = [], 0
    for _ in range(draw(st.integers(1, 3))):
        on = k + draw(st.integers(0, 1500))
        k = on + draw(st.integers(1, 1500))
        intervals.append((on, k))
    return intervals, k + draw(st.integers(1, 8000))


@st.composite
def _lane_runs(draw):
    """2-6 random vesicles, each with its own symport rate and 1-3 light
    pulses in steps of dt, and a shared environment: the arguments of
    `simulate_svs_batch`."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = [VesicleSpec(d_in=d, d_mem=14e-9, n_pumps=int(p), n_sym=int(s),
                         permeability=10.0 ** e)
             for d, p, s, e in zip(rng.uniform(40e-9, 300e-9, n),
                                   rng.integers(0, 200, n),
                                   rng.integers(1, 300, n),
                                   rng.uniform(-7.0, -5.0, n))]
    kins = [dataclasses.replace(default_kinetics(),
                                symport_rate_per_protein=r)
            for r in rng.choice([0.004, 0.006, 0.01], n)]
    env = default_environment(
        buffer_total=draw(st.sampled_from([0.0, 10.0, 20.0])),
        c_s_in0=10.0 ** draw(st.floats(-3.0, 2.5)))
    dt = min(1e-2, *(stable_dt(s, k, env) for s, k in zip(specs, kins)))
    signals = []
    for _ in range(n):
        intervals, horizon = draw(_pulses())
        signals.append(LightSignal([(a * dt, b * dt) for a, b in intervals],
                                   horizon * dt))
    return (VesicleLanes.of(specs), kins, env, signals,
            FdmConfig(dt=dt, record_stride=draw(st.sampled_from([1, 7, 100]))))


def _assert_same_traj(a, b):
    for name in ("t", "c_h_in", "c_h_out", "c_s_in", "c_s_out", "light",
                 "cycle"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.phase == b.phase
    assert a.schedule.cycles == b.schedule.cycles
    assert a.events == b.events
    assert a.derived == b.derived
    assert a.conservation_drift == b.conservation_drift


@given(runs=_lane_runs())
@settings(derandomize=True, deadline=None, max_examples=25)
@pytest.mark.filterwarnings("ignore:vesicle has no pumps")
def test_independent_lanes_equal_their_own_runs(runs):
    # each lane of one call, with its own pool, light and horizon, runs
    # as the lane alone: records, schedule and events bit for bit, though
    # the lanes retire in turn, longest horizon last
    lanes, kins, env, signals, cfg = runs
    batch = simulate_svs_batch(lanes, kins, env, signals, cfg)
    assert len(batch) == len(lanes)
    for m, traj in enumerate(batch):
        spec = VesicleSpec(float(lanes.d_in[m]), lanes.d_mem,
                           int(lanes.n_pumps[m]), int(lanes.n_sym[m]),
                           float(lanes.permeability[m]))
        _assert_same_traj(traj, simulate_svs(spec, kins[m], env, signals[m],
                                             cfg))


@given(pulses=st.lists(_pulses(), min_size=1, max_size=3))
@settings(derandomize=True, deadline=None, max_examples=60)
def test_step_blocks_tile_the_run_at_every_decision_step(pulses):
    # the one block schedule both kernels walk: contiguous blocks that
    # start at 0 and only at every drift check, light switch and lane's
    # end (the step writes the records itself), each lane lit or dark in
    # all of a block's steps
    dt = 1e-2
    signals = [LightSignal([(a * dt, b * dt) for a, b in intervals],
                           horizon * dt) for intervals, horizon in pulses]
    edges, lit = fdm._step_blocks(signals, dt)
    n_steps = [round(s.horizon / dt) for s in signals]
    k0, k1 = edges[:-1], edges[1:]
    assert edges[0] == 0 and edges[-1] == max(n_steps)
    assert np.all(k0 < k1)
    switches = {min(round(t / dt), n) for s, n in zip(signals, n_steps)
                for iv in s.intervals for t in iv}
    assert set(edges.tolist()) == {0, *range(1, max(n_steps), 1000),
                                   *switches, *n_steps}
    assert lit.shape == (k0.size, len(signals))
    # each lane's per-step illumination on the step grid, k in
    # [k_on, k_off), clipped to its steps
    for s, n, lit_lane in zip(signals, n_steps, lit.T):
        light = np.zeros(max(n_steps), dtype=bool)
        for t_on, t_off in s.intervals:
            light[round(t_on / dt):min(round(t_off / dt), n)] = True
        assert np.array_equal(np.repeat(lit_lane, k1 - k0)[:n], light[:n])


def _six_lane_case():
    """Six lanes against one pool, record stride 1.

    Lanes 0 and 1 are twins and flip in the same steps (with lane 2 at
    the first up-crossing); lane 2 chatters across C_switch and runs
    dry; twin lanes 3 and 5 run dry together, at another step; lane 4
    never does.
    """
    base = default_vesicle()
    drier = dataclasses.replace(base, n_pumps=50, n_sym=90)
    specs = [base, base,
             dataclasses.replace(base, n_pumps=40, n_sym=150), drier,
             dataclasses.replace(base, permeability=4e-6, n_sym=20),
             drier]
    env = default_environment(v_out=len(specs) * 1e-17, c_s_in0=0.03,
                              buffer_total=2.0)
    return (specs, env, LightSignal([(0, 20), (40, 60)], 100),
            FdmConfig(dt=1e-2, record_stride=1))


class TestSharedPool:
    @pytest.mark.parametrize("case", list(PIN_CASES))
    def test_single_vesicle_degenerates_to_svs(self, case, base_kinetics,
                                               monkeypatch):
        # a single vesicle is a pool of one lane: simulate_svs on the
        # step in use (compiled where a C compiler exists) matches the
        # one-lane pool on the numpy step, which calls model.py's flux
        # laws, bit for bit
        spec, env, sig, cfg, checked, infos = PIN_CASES[case]()
        if not checked:
            monkeypatch.setattr(FdmConfig, "check_stability",
                                lambda self, *args: 0.0)
        svs = simulate_svs(spec, base_kinetics, env, sig, cfg)
        monkeypatch.setattr(fdm, "_compiled_step", lambda: fdm._step_numpy)
        pool = simulate_mvs_shared_pool(VesicleLanes.of([spec]),
                                        base_kinetics, env, sig, cfg)
        assert [e.info for e in svs.events] == infos
        assert np.any(svs.c_s_in == 0.0) == case.startswith("clamp")
        assert pool.events[0] == svs.events
        assert np.array_equal(pool.c_h_in[:, 0], svs.c_h_in)
        assert np.array_equal(pool.c_s_in[:, 0], svs.c_s_in)
        assert np.array_equal(pool.pooled_c_h_out, svs.c_h_out)
        assert np.array_equal(pool.pooled_c_s_out, svs.c_s_out)
        assert pool.schedules[0].cycles == svs.schedule.cycles
        assert pool.conservation_drift == svs.conservation_drift

    def test_events_per_lane_match_recorded_series(self, base_kinetics,
                                                   monkeypatch):
        specs, env, sig, cfg = _six_lane_case()
        dt = cfg.dt
        seen = []  # each lane's crossing list, as its schedule gets it

        def spy(signal, crossings, active_at_start=False):
            seen.append([tuple(row) for row in crossings.tolist()])
            return schedule_from_crossings(signal, crossings, active_at_start)

        monkeypatch.setattr(fdm, "schedule_from_crossings", spy)
        pool = simulate_mvs_shared_pool(VesicleLanes.of(specs), base_kinetics,
                                        env, sig, cfg)
        # every lane pinned bit for bit, not only the one-lane pools
        digest = hashlib.sha256()
        for a in (pool.t, pool.c_h_in, pool.c_s_in, pool.pooled_c_h_out,
                  pool.pooled_c_s_out):
            assert a.dtype == np.float64 and a.flags.c_contiguous
            digest.update(a.tobytes())
        assert pool.c_h_in.shape == (10001, len(specs))
        assert digest.hexdigest() == ("25bb8e202702b2da2f11e867619146e1"
                                      "0421d8607de91e55339a7678f9ad2641")
        env_alloc = dataclasses.replace(env, v_out=env.v_out / len(specs))
        threshold = DEPLETION_FRACTION_OF_KM * base_kinetics.k_m
        flip_steps, dry_steps = [], []
        assert len(seen) == len(specs)
        for v, found in enumerate(seen):
            c_h_in, c_s_in = pool.c_h_in[:, v], pool.c_s_in[:, v]
            c_switch = derive_rates(specs[v], base_kinetics,
                                    env_alloc).switch_conc
            # the same linear interpolation between recorded samples
            diff = c_h_in - c_switch
            above = diff >= 0.0
            steps = np.flatnonzero(above[1:] != above[:-1])
            expected = [(k * dt + diff[k] / (diff[k] - diff[k + 1]) * dt,
                         1 if above[k + 1] else -1) for k in steps]
            assert found == expected
            flip_steps.append(set(steps.tolist()))
            low = np.flatnonzero(c_s_in < threshold)
            if low.size:
                assert [(e.kind, e.t) for e in pool.events[v]] == \
                    [("depletion", pool.t[low[0]])]
                dry_steps.append(int(low[0]))
            else:
                assert pool.events[v] == []
        # the case exercises what the comment above says it does
        assert flip_steps[0] == flip_steps[1]
        assert len(flip_steps[0]) >= 3 and len(flip_steps[2]) > 20
        assert flip_steps[0] & flip_steps[2]
        assert len(dry_steps) == 3
        assert dry_steps[0] != dry_steps[1] == dry_steps[2]

    @pytest.mark.parametrize("step", ["compiled", "numpy"])
    def test_a_full_crossing_log_changes_no_bit(self, step, base_kinetics,
                                                monkeypatch):
        # with no room beyond one step's flips the log fills at every
        # step that has a crossing, and the step returns to be emptied
        step = _c_step() if step == "compiled" else fdm._step_numpy
        specs, env, sig, cfg = _six_lane_case()
        args = (VesicleLanes.of(specs), base_kinetics, env, sig, cfg)
        expected = _run_pool_on(step, *args)
        monkeypatch.setattr(fdm, "_LOG_ROOM", 0)
        _assert_same_pool(_run_pool_on(step, *args), expected)

    @pytest.mark.parametrize("step", ["compiled", "numpy"])
    def test_chattering_lane_costs_no_early_return(self, step,
                                                   base_kinetics,
                                                   monkeypatch):
        # a step returns early only after a lane runs dry or its cargo
        # is clamped at 0, never for a crossing
        bind = _c_step() if step == "compiled" else fdm._step_numpy
        early, crossings = [], []

        def counting(*state):
            steps = bind(*state)

            def run(k0, k1, *args):
                k = steps(k0, k1, *args)
                early.append(k < k1)
                return k
            return run

        def spy(signal, found, active_at_start=False):
            crossings.append(len(found))
            return schedule_from_crossings(signal, found, active_at_start)

        monkeypatch.setattr(fdm, "schedule_from_crossings", spy)
        specs, env, sig, cfg = _six_lane_case()
        _run_pool_on(counting, VesicleLanes.of(specs), base_kinetics, env,
                     sig, cfg)
        assert crossings[2] > 20
        assert sum(early) <= 2 * len(specs) < crossings[2]

    def test_identical_vesicles_match_split_compartments(self,
                                                         base_kinetics):
        n = 5
        spec = default_vesicle()
        env_total = default_environment(v_out=n * 1e-17)
        sig = LightSignal([(0, 120)], 240)
        cfg = FdmConfig(dt=1e-2, record_stride=100)
        pool = simulate_mvs_shared_pool(VesicleLanes.of([spec] * n),
                                        base_kinetics,
                                        env_total, sig, cfg)
        env_split = default_environment(v_out=1e-17)
        svs = simulate_svs(spec, base_kinetics, env_split, sig, cfg)
        scale = max(np.max(np.abs(svs.c_s_out)), 1e-300)
        assert np.max(np.abs(pool.pooled_c_s_out - svs.c_s_out)) / scale \
            < 1e-3
        assert pool.conservation_drift < 1e-6

    def test_heterogeneous_pool_conserves(self, base_kinetics):
        specs = [default_vesicle(),
                 dataclasses.replace(default_vesicle(), n_pumps=10,
                                     n_sym=60, d_in=120e-9),
                 dataclasses.replace(default_vesicle(), permeability=5e-6)]
        env_total = default_environment(v_out=3e-17)
        sig = LightSignal([(0, 60)], 120)
        pool = simulate_mvs_shared_pool(VesicleLanes.of(specs),
                                        base_kinetics, env_total,
                                        sig, FdmConfig(dt=1e-2,
                                                       record_stride=50))
        assert pool.conservation_drift < 1e-6
        assert pool.c_h_in.shape[1] == 3

    def test_empty_pool_rejected(self, base_kinetics, base_env):
        with pytest.raises(ValueError, match="at least one"):
            simulate_mvs_shared_pool(VesicleLanes.of([]), base_kinetics,
                                     base_env,
                                     LightSignal([(0, 1)], 2), FdmConfig())


def _c_step():
    """The compiled step; skips where no C compiler can build it."""
    step = fdm._compiled_step()
    if step is fdm._step_numpy:
        pytest.skip("no compiled FDM step on this host")
    return step


def _run_pool_on(step, *args):
    return _run_on(step, simulate_mvs_shared_pool, *args)


def _run_on(step, kernel, *args):
    """kernel(*args) on the FDM step `step`."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fdm, "_compiled_step", lambda: step)
        return kernel(*args)


def _assert_same_pool(a, b):
    for name in ("t", "c_h_in", "c_s_in", "pooled_c_h_out",
                 "pooled_c_s_out"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.events == b.events
    assert [s.cycles for s in a.schedules] == [s.cycles for s in b.schedules]
    assert a.conservation_drift == b.conservation_drift


# 7, 8, 9, 128 and 129 lanes sit at the block edges of numpy's pairwise
# sum, which the compiled step repeats for the two pool sums. 3, 4 and 5
# lanes sit on either side of the compiled step's cutoff for its vector
# passes (VEC_LANES), and 17 and 101 leave a vector remainder. These five
# start or go on in the dark, and a cargo runs low in each, from 4 lanes
# on inside a vector body (first lane 3 of 4 and of 5, 6 of 17, 69 of 101)
@given(n_ves=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       b0=st.sampled_from([0.0, 10.0, 20.0]), pulses=_pulses(),
       c_s_in0=st.floats(-3.0, 2.5).map(lambda e: 10.0 ** e),
       stride=st.sampled_from([1, 7, 10, 100]), own_pools=st.booleans())
@example(n_ves=1, seed=0, b0=0.0, pulses=([(0, 300)], 2000), c_s_in0=0.01,
         stride=10, own_pools=False)
@example(n_ves=7, seed=1, b0=20.0, pulses=([(0, 800), (1000, 1200)], 2000),
         c_s_in0=0.05, stride=10, own_pools=False)
@example(n_ves=8, seed=2, b0=10.0, pulses=([(0, 1500)], 2500), c_s_in0=1.0,
         stride=7, own_pools=False)
@example(n_ves=9, seed=3, b0=0.0, pulses=([(100, 600)], 2000),
         c_s_in0=300.0, stride=1, own_pools=False)
@example(n_ves=128, seed=4, b0=20.0, pulses=([(0, 1000)], 1500),
         c_s_in0=0.02, stride=100, own_pools=False)
@example(n_ves=129, seed=5, b0=10.0, pulses=([(0, 1000)], 1500),
         c_s_in0=0.02, stride=10, own_pools=False)
@example(n_ves=300, seed=6, b0=0.0, pulses=([(0, 400), (600, 900)], 1200),
         c_s_in0=0.03, stride=10, own_pools=False)
@example(n_ves=3, seed=2, b0=0.0, pulses=([(0, 800), (1000, 1300)], 1800),
         c_s_in0=0.0005, stride=10, own_pools=False)
@example(n_ves=4, seed=0, b0=20.0, pulses=([(200, 1200)], 1600),
         c_s_in0=0.0005, stride=7, own_pools=False)
@example(n_ves=5, seed=10, b0=10.0, pulses=([(0, 400), (700, 1000)], 1500),
         c_s_in0=0.001, stride=1, own_pools=False)
@example(n_ves=17, seed=7, b0=0.0, pulses=([(0, 600)], 1500),
         c_s_in0=0.001, stride=10, own_pools=False)
@example(n_ves=101, seed=11, b0=20.0,
         pulses=([(100, 700), (900, 1000)], 1400), c_s_in0=0.02, stride=100,
         own_pools=False)
# Lanes with pools of their own take the vector passes, 2 lanes in a
# remainder alone; the lanes retire in turn, and of the 5 and the 17 lanes
# some run dry
@example(n_ves=2, seed=14, b0=0.0, pulses=([(0, 300)], 1200), c_s_in0=0.001,
         stride=7, own_pools=True)
@example(n_ves=5, seed=12, b0=10.0, pulses=([(0, 400), (700, 1000)], 1500),
         c_s_in0=0.001, stride=1, own_pools=True)
@example(n_ves=17, seed=13, b0=20.0, pulses=([(100, 700), (900, 1000)], 1400),
         c_s_in0=0.02, stride=100, own_pools=True)
@settings(derandomize=True, deadline=None, max_examples=12)
@pytest.mark.filterwarnings("ignore:vesicle has no pumps")
def test_compiled_step_matches_numpy_step_on_random_pools(
        n_ves, seed, b0, pulses, c_s_in0, stride, own_pools):
    # heterogeneous vesicles against one pool, or each against its own
    # under a light, horizon and symport rate of its own: every record
    # array, event, schedule and drift of the compiled step equals the
    # numpy step's
    args = _random_pool(n_ves, seed, b0, pulses, c_s_in0, stride)
    if not own_pools:
        _assert_same_pool(_run_pool_on(_c_step(), *args),
                          _run_pool_on(fdm._step_numpy, *args))
        return
    args = _own_pools(args, seed, pulses)
    for a, b in zip(*(_run_on(step, simulate_svs_batch, *args)
                      for step in (_c_step(), fdm._step_numpy))):
        _assert_same_traj(a, b)


def _random_pool(n_ves, seed, b0, pulses, c_s_in0, stride):
    """simulate_mvs_shared_pool's arguments for n_ves random vesicles
    against one pool, under light pulses given in steps."""
    rng = np.random.default_rng(seed)
    kin = default_kinetics()
    specs = [VesicleSpec(d_in=d, d_mem=14e-9, n_pumps=int(p), n_sym=int(s),
                         permeability=10.0 ** e)
             for d, p, s, e in zip(rng.uniform(40e-9, 300e-9, n_ves),
                                   rng.integers(0, 200, n_ves),
                                   rng.integers(0, 300, n_ves),
                                   rng.uniform(-7.0, -5.0, n_ves))]
    env = default_environment(buffer_total=b0, c_s_in0=c_s_in0)
    dt = min(1e-2, *(stable_dt(s, kin, env) for s in specs))
    intervals, horizon = pulses
    sig = LightSignal([(a * dt, b * dt) for a, b in intervals], horizon * dt)
    return (VesicleLanes.of(specs), kin,
            dataclasses.replace(env, v_out=n_ves * env.v_out),
            sig, FdmConfig(dt=dt, record_stride=stride))


def _own_pools(args, seed, pulses):
    """simulate_svs_batch's arguments for `_random_pool`'s vesicles, each
    against a pool of its own with a symport rate of its own, under the
    pulses shifted and cut to a horizon of its own."""
    vesicles, kin, env_total, _, cfg = args
    n, dt = len(vesicles), cfg.dt
    rng = np.random.default_rng(seed)
    intervals, horizon = pulses
    kins, signals = [], []
    for shift, tail, rate in zip(
            rng.integers(0, 300, n),
            rng.integers(1, horizon - intervals[-1][1] + 1, n),
            rng.choice([0.004, 0.006, 0.009], n)):
        kins.append(dataclasses.replace(kin, symport_rate_per_protein=rate))
        signals.append(LightSignal(
            [((a + shift) * dt, (b + shift) * dt) for a, b in intervals],
            (intervals[-1][1] + shift + tail) * dt))
    env = dataclasses.replace(env_total, v_out=env_total.v_out / n)
    return vesicles, kins, env, signals, cfg


@pytest.mark.parametrize("case", ["buffered", "depletion", "unbuffered"])
def test_drift_is_the_largest_drift_sampled(case, monkeypatch):
    # the run keeps only each inventory's extremes over its samples
    # (the state after every step k with k % 1000 == 0, and the end):
    # they give the largest relative drift of a sample, bit for bit
    spec, env, sig, cfg, checked, _ = PIN_CASES[case]()
    if not checked:
        monkeypatch.setattr(FdmConfig, "check_stability",
                            lambda self, *args: 0.0)
    bind, row, samples = fdm._compiled_step(), fdm._LANE_ROWS.index, []

    def watching(lanes, above, pools, *state):
        steps = bind(lanes, above, pools, *state)

        def inventory():
            return (lanes[row("th_in")].sum() + pools[0, 0],
                    (lanes[row("cs_in")] * lanes[row("v_in")]).sum()
                    + pools[1, 0])

        def run(k0, k1, n_run):
            if k0 % 1000 == 1 and k0 > samples[-1][0]:
                samples.append((k0, inventory()))
            k = steps(k0, k1, n_run)
            if k == k1 == k_end:
                samples.append((k, inventory()))
            return k
        samples.append((0, inventory()))
        return run

    k_end = round(sig.horizon / cfg.dt)
    monkeypatch.setattr(fdm, "_compiled_step", lambda: watching)
    traj = simulate_svs(spec, default_kinetics(), env, sig, cfg)
    (_, (h0, s0)), *rest = samples
    assert len(rest) == (k_end - 2) // 1000 + 2
    assert traj.conservation_drift == max(
        max(abs(h - h0) / h0, abs(s - s0) / s0 if s0 > 0 else 0.0)
        for _, (h, s) in rest)
    assert traj.conservation_drift > abs(rest[-1][1][0] - h0) / h0


@pytest.mark.parametrize("step", ["compiled", "numpy"])
@pytest.mark.parametrize("stride", [7, 100])
@pytest.mark.parametrize("case", ["clamp", "clamp_checked", "depletion",
                                  "switch_mid_block", "partial_last_record"])
def test_records_are_every_stride_th_sample_of_stride_one(case, stride, step,
                                                          monkeypatch):
    # the step writes the records, the driver the last one; each holds
    # the state after the driver has seen to a low lane, so no recorded
    # cargo is below 0
    step = _c_step() if step == "compiled" else fdm._step_numpy
    spec, env, sig, cfg, checked, _ = PIN_CASES[case]()
    if not checked:
        monkeypatch.setattr(FdmConfig, "check_stability",
                            lambda self, *args: 0.0)
    monkeypatch.setattr(fdm, "_compiled_step", lambda: step)

    def run(s):
        return simulate_mvs_shared_pool(
            VesicleLanes.of([spec]), default_kinetics(), env, sig,
            dataclasses.replace(cfg, record_stride=s))

    every, res = run(1), run(stride)
    n_steps = len(every.t) - 1
    rows = np.append(np.arange(0, n_steps, stride), n_steps)
    for name in ("t", "c_h_in", "c_s_in", "pooled_c_h_out",
                 "pooled_c_s_out"):
        assert np.array_equal(getattr(res, name),
                              getattr(every, name)[rows]), name
    assert np.all(every.c_s_in >= 0.0)
    assert np.any(every.c_s_in == 0.0) == case.startswith("clamp")


def test_compiled_step_refuses_steps_outside_the_run():
    # the step writes record k // stride of its lanes for k in [k0, k1):
    # a range past the run's n_steps = 10, or more lanes than the run's
    # 2, would write past the record buffers
    steps = _c_step()(np.zeros((len(fdm._LANE_ROWS), 2)),
                      np.zeros(2, dtype=bool),
                      np.zeros((len(fdm._POOL_ROWS), 2)),
                      np.zeros(len(fdm._CONSTS)), fdm._CrossingLog(2),
                      fdm._Records(10, 5, 2, 2))
    for k0, k1, n_run in ((0, 11, 2), (-1, 3, 2), (4, 3, 2), (0, 3, 3),
                          (0, 3, -1)):
        with pytest.raises(ValueError, match="outside the run"):
            steps(k0, k1, n_run)


def _nan_lane_state(b0: float, n: int = 2, nan_lane: int = 1,
                    dt: float = 1e-2):
    """The set-up of `_run_lanes` for n default vesicles and one record
    step, but lane nan_lane's H+ total is NaN."""
    specs, kin = VesicleLanes.of([default_vesicle()] * n), default_kinetics()
    env = default_environment(buffer_total=b0)
    rates = derive_rates(specs, kin, env)
    row = {name: i for i, name in enumerate(fdm._LANE_ROWS)}
    lanes = np.zeros((len(fdm._LANE_ROWS), n))
    lanes[:6] = (specs.v_in, rates.pump_rate, rates.leak_rate,
                 rates.symport_rate_substrate, rates.symport_rate_proton,
                 rates.switch_conc)
    lanes[row["dep_threshold"]] = DEPLETION_FRACTION_OF_KM * kin.k_m
    lanes[row["th_in"]] = (total_conc_from_free(env.c_h_in0, b0, env.k_a)
                           * specs.v_in)
    lanes[row["th_in"], nan_lane] = np.nan
    lanes[row["cs_in"]], lanes[row["c_in"]] = env.c_s_in0, env.c_h_in0
    v_pool = n * env.v_out
    pools = np.array([[total_conc_from_free(env.c_h_out0, b0, env.k_a)
                       * v_pool], [0.0], [env.c_h_out0], [v_pool]])
    consts = np.array([dt, b0, env.k_a, kin.k_m, env.c_h_out0])
    rec = fdm._Records(1, 1, n, 1)
    for buf in (rec.c_h_in, rec.c_s_in, rec.pool_h, rec.pool_s):
        buf.fill(0.0)
    return (lanes, np.zeros(n, dtype=bool), pools, consts,
            fdm._CrossingLog(n + fdm._LOG_ROOM), rec)


def _step_both(make_state):
    """Step 0 of a fresh state from make_state() in the compiled and the
    numpy step: each step's return, state, log entries and records."""
    after = []
    for bind in (_c_step(), fdm._step_numpy):
        state = make_state()
        lanes, above, pools, _, log, rec = state
        k = bind(*state)(0, 1, above.size)
        m = int(log.n[0])
        after.append((k, lanes, above, pools, log.vd[:, :m], log.t[:m],
                      rec.c_h_in, rec.c_s_in, rec.pool_h, rec.pool_s))
    for c, n in zip(*after):
        assert np.array_equal(c, n, equal_nan=True)
    return after[1]


@pytest.mark.parametrize("b0", [0.0, 20.0])
def test_a_nan_lane_is_nan_in_both_steps(b0):
    # the numpy step's buffer root keeps a NaN total NaN, as the compiled
    # step's does, so the oracle reports the NaN lane it would report
    c_in = _step_both(lambda: _nan_lane_state(b0))[1][
        fdm._LANE_ROWS.index("c_in")]
    assert np.isnan(c_in[1]) and np.isfinite(c_in[0])


@pytest.mark.parametrize("b0", [0.0, 20.0])
@pytest.mark.parametrize("nan_lane, low_lane", [(1, None), (36, None),
                                                (1, 36), (36, 2)])
def test_a_nan_lane_in_the_vector_passes_hides_no_return(b0, nan_lane,
                                                         low_lane):
    # 37 lanes take the compiled step's vector passes: lane 1 lies inside
    # a vector body and lane 36 in the remainder, whether a vector holds
    # 2, 4, 16 or 32 lanes. Lanes 3 and 33 flip down, and a low lane's
    # cargo is empty: the NaN lane neither hides nor makes a flip or a
    # return.
    def make_state():
        state = _nan_lane_state(b0, 37, nan_lane, dt=1e-5)
        lanes, above = state[:2]
        above[[3, 33]] = True
        if low_lane is not None:
            lanes[fdm._LANE_ROWS.index("cs_in"), low_lane] = 0.0
        return state

    k, lanes, above, _, log_vd, *_ = _step_both(make_state)
    assert k == (1 if low_lane is None else -1)
    assert log_vd.tolist() == [[3, 33], [-1, -1]]
    assert not above.any()
    c_in = lanes[fdm._LANE_ROWS.index("c_in")]
    assert np.flatnonzero(np.isnan(c_in)).tolist() == [nan_lane]


class TestCompiledStepBuild:
    """The compiled library's build and cache, as the FDM step sees them,
    each in a fresh cache."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        self.lib_dir = tmp_path / "vesim"

    def _pin_case(self, step):
        spec, env, sig, cfg, _, _ = PIN_CASES["depletion"]()
        return _run_pool_on(step, VesicleLanes.of([spec]), default_kinetics(),
                            env, sig, cfg)

    @staticmethod
    def _load_step():
        lib = native.Library(native._build())
        return functools.partial(fdm._bind_step, lib.fdm_steps)

    def test_compiled_step_is_in_use_where_a_compiler_exists(self):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler (cc) on the PATH")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fallback warns
            assert native._select() is not None
        assert fdm._compiled_step() is not fdm._step_numpy
        assert len(list(self.lib_dir.glob("_native-*.so"))) == 1

    def test_second_load_runs_no_compiler(self, monkeypatch):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler (cc) on the PATH")
        first = self._load_step()

        def no_compiler(*args, **kwargs):
            raise AssertionError("the cached library was built again")

        monkeypatch.setattr(native.subprocess, "run", no_compiler)
        second = self._load_step()
        _assert_same_pool(self._pin_case(first),
                          self._pin_case(second))
        assert [p.name for p in self.lib_dir.iterdir()] == [
            p.name for p in self.lib_dir.glob("_native-*.so")]

    def test_cflags_from_the_environment_are_ignored(self, monkeypatch):
        c_step = _c_step()
        monkeypatch.setenv("CFLAGS", "-ffast-math -march=native")
        _assert_same_pool(self._pin_case(self._load_step()),
                          self._pin_case(c_step))

    def test_failed_build_falls_back_with_one_warning(self, monkeypatch):
        expected = self._pin_case(fdm._compiled_step())
        monkeypatch.setattr(native, "_CC_FLAGS", ("-no-such-flag",))
        with pytest.warns(UserWarning, match="Python twins") as caught:
            lib = native._select()
        assert len(caught) == 1
        assert lib is None
        monkeypatch.setattr(native, "library", lambda: lib)
        step = fdm._compiled_step()
        assert step is fdm._step_numpy
        _assert_same_pool(self._pin_case(step), expected)

    def test_libraries_of_two_flag_sets_both_stay_cached(self, monkeypatch):
        # checkouts with other sources or flags share the cache: each
        # library is built once, and loading one does not evict another
        if shutil.which("cc") is None:
            pytest.skip("no C compiler (cc) on the PATH")
        flag_sets = (native._CC_FLAGS,
                     (*native._CC_FLAGS, "-DVESIM_OTHER_BUILD"))
        builds = []
        run = native.subprocess.run

        def counted_run(*args, **kwargs):
            builds.append(args)
            return run(*args, **kwargs)

        def no_compiler(*args, **kwargs):
            raise AssertionError("a cached library was built again")

        for compile_with in (counted_run, no_compiler):
            monkeypatch.setattr(native.subprocess, "run", compile_with)
            for flags in flag_sets:
                monkeypatch.setattr(native, "_CC_FLAGS", flags)
                self._load_step()
        assert len(builds) == 2
        assert len(list(self.lib_dir.glob("_native-*.so"))) == 2

    @pytest.mark.filterwarnings("ignore:vesicle has no pumps")
    def test_library_without_clones_matches_the_numpy_step(self,
                                                          monkeypatch):
        # the vector passes' baseline clone, which an AVX2 host's loader
        # does not pick, built alone by a define that only this test
        # passes; a compiler without target_clones builds the same loops
        if shutil.which("cc") is None:
            pytest.skip("no C compiler (cc) on the PATH")
        monkeypatch.setattr(native, "_CC_FLAGS",
                            (*native._CC_FLAGS, "-DVESIM_NO_CLONES"))
        args = _random_pool(101, 11, 20.0, ([(100, 700), (900, 1000)], 1400),
                            0.02, 100)
        _assert_same_pool(_run_pool_on(self._load_step(), *args),
                          _run_pool_on(fdm._step_numpy, *args))

    def test_unwritable_cache_falls_back_to_a_user_temp_dir(self, tmp_path,
                                                           monkeypatch):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        assert native._cache_dir() == (tmp_path / "tmp"
                                       / f"vesim-{os.getuid()}")
