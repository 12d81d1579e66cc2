import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from vesim.analytic import run_analytic, run_analytic_batch
from vesim.ensemble import (DiameterDistribution, EnsembleConfig,
                            PermeabilityDistribution,
                            PopulationDistributions, jensen_gap_check,
                            mean_parameter_spec, protein_slots, run_ensemble,
                            sample_vesicle)
from vesim.model import ModelError, default_environment, default_kinetics
from vesim.runner import _write_ensemble_csv
from vesim.schedule import LightSignal, classify_cycle

# light pattern driving cycle types b, a, c, c on the default vesicle
FIG4_SIGNAL = LightSignal([(10.0, 35.0), (50.0, 80.0), (110.0, 140.0),
                           (150.0, 180.0)], 250.0)


def _draw(dist, cfg, rng):
    """n_mod vesicles drawn one after the other from `rng`."""
    return [sample_vesicle(dist, rng) for _ in range(cfg.n_mod)]


@pytest.fixture
def pop():
    return PopulationDistributions()


@pytest.fixture
def signal():
    return LightSignal([(0.0, 800.0)], 1600.0)


class TestSampling:
    def test_protein_slots_reference_points(self, pop):
        # the default slot density must reproduce both anchors: 70 slots
        # on the 87 nm baseline vesicle, 112 on the 117.67 nm mean one
        assert protein_slots(87e-9, 14e-9, pop.rho) == 70
        assert protein_slots(117.67e-9, 14e-9, pop.rho) == 112

    def test_counts_partition(self, pop):
        rng = np.random.default_rng(7)
        for _ in range(200):
            spec = sample_vesicle(pop, rng)
            n_tot = protein_slots(spec.d_in, spec.d_mem, pop.rho)
            assert spec.n_pumps + spec.n_sym == n_tot
            assert spec.d_in > pop.diameter.shift
            lo, hi = pop.permeability.lo_log10, pop.permeability.hi_log10
            assert lo < math.log10(spec.permeability) < hi

    def test_reproducible(self, pop):
        a = [sample_vesicle(pop, np.random.default_rng(42))
             for _ in range(10)]
        b = [sample_vesicle(pop, np.random.default_rng(42))
             for _ in range(10)]
        assert a == b

    def test_degenerate_distributions_collapse(self):
        # vanishing spread: every vesicle identical, the population
        # behaves like a single-vesicle system
        pop = PopulationDistributions(
            diameter=DiameterDistribution(shift=87e-9 - 1e-12,
                                          mu_log=math.log(1e-12),
                                          sigma_log=1e-12),
            permeability=PermeabilityDistribution(
                mu_log10=math.log10(3e-6), sigma_log10=1e-9,
                lo_log10=math.log10(3e-6) - 1e-6,
                hi_log10=math.log10(3e-6) + 1e-6),
            p_pump=1.0)
        rng = np.random.default_rng(0)
        specs = [sample_vesicle(pop, rng) for _ in range(20)]
        assert len({(s.d_in, s.n_pumps, s.n_sym) for s in specs}) == 1
        assert specs[0].n_sym == 0  # deterministic split at p_pump = 1

    def test_sampling_moments_match_analytic(self, pop):
        rng = np.random.default_rng(123)
        n = 100_000
        d = pop.diameter.sample(rng, n)
        se_mean = math.sqrt(pop.diameter.variance / n)
        assert abs(d.mean() - pop.diameter.mean) < 3 * se_mean
        log_g = np.log10(pop.permeability.sample(rng, n))
        mu, sigma = -5.52, 0.25
        alpha, beta = (-5.77 - mu) / sigma, (-5.27 - mu) / sigma
        tn = stats.truncnorm(alpha, beta, loc=mu, scale=sigma)
        assert abs(log_g.mean() - tn.mean()) < 3 * tn.std() / math.sqrt(n)
        assert abs(log_g.var(ddof=1) - tn.var()) < 5 * tn.var() / math.sqrt(n)

    def test_ks_against_target_cdfs(self, pop):
        rng = np.random.default_rng(2718)
        n = 20_000
        d = pop.diameter.sample(rng, n)
        p_d = stats.kstest(d, pop.diameter.cdf).pvalue
        assert p_d > 0.01
        g = np.log10(pop.permeability.sample(rng, n))
        p_g = stats.kstest(g, pop.permeability.cdf_log10).pvalue
        assert p_g > 0.01

    def test_mean_parameter_spec(self, pop):
        spec = mean_parameter_spec(pop)
        assert spec.d_in == pytest.approx(pop.diameter.mean, rel=1e-12)
        n_tot = protein_slots(spec.d_in, spec.d_mem, pop.rho)
        assert spec.n_pumps + spec.n_sym == n_tot
        assert spec.n_pumps == round(pop.p_pump * n_tot)
        assert spec.permeability == pytest.approx(3.17e-6, rel=1e-2)


class TestEnsembleRuns:
    def test_seeded_bit_reproducibility(self, pop, signal):
        kin = default_kinetics()
        cfg = EnsembleConfig(n_mod=8, n_ex=3, seed=99)
        env = default_environment(v_out=cfg.v_out_per_vesicle)
        ts = np.array([0.0, 400.0, 800.0, 1600.0])
        a = run_ensemble(pop, kin, env, signal, cfg, sample_times=ts)
        b = run_ensemble(pop, kin, env, signal, cfg, sample_times=ts)
        assert np.array_equal(a.per_exp_c_s_out, b.per_exp_c_s_out)
        assert np.array_equal(a.interex_var_c_s_out, b.interex_var_c_s_out)
        # inter-experiment variance is the unbiased one across experiments
        assert np.array_equal(a.interex_var_c_s_out,
                              a.per_exp_c_s_out.var(axis=0, ddof=1))

    def test_fdm_solver_rejected(self, pop, signal):
        # ensembles run the analytic solvers only
        cfg = EnsembleConfig(n_mod=2, n_ex=2, seed=1)
        env = default_environment(v_out=cfg.v_out_per_vesicle)
        with pytest.raises(ModelError, match="'exact' or 'closed'"):
            run_ensemble(pop, default_kinetics(), env, signal, cfg,
                         solver="fdm", sample_times=np.array([0.0, 800.0]))

    def test_different_seeds_differ(self, pop, signal):
        kin = default_kinetics()
        env = default_environment(v_out=EnsembleConfig().v_out_per_vesicle)
        ts = np.array([0.0, 800.0])
        a = run_ensemble(pop, kin, env, signal,
                         EnsembleConfig(n_mod=8, n_ex=2, seed=1),
                         sample_times=ts)
        b = run_ensemble(pop, kin, env, signal,
                         EnsembleConfig(n_mod=8, n_ex=2, seed=2),
                         sample_times=ts)
        assert not np.array_equal(a.per_exp_c_s_out, b.per_exp_c_s_out)

    def test_variance_decreases_with_population(self, pop, signal):
        kin = default_kinetics()
        ts = np.array([0.0, 800.0, 1600.0])
        out = {}
        for n_mod in (10, 100):
            vs = []
            for rep in range(4):
                cfg = EnsembleConfig(n_mod=n_mod, n_ex=8, seed=300 + rep)
                env = default_environment(v_out=cfg.v_out_per_vesicle)
                res = run_ensemble(pop, kin, env, signal, cfg,
                                   sample_times=ts)
                vs.append(res.interex_var_c_s_out[-1])
            out[n_mod] = np.mean(vs)
        assert out[100] < out[10]

    def test_experiment_grids_and_shapes(self, pop, signal):
        kin = default_kinetics()
        cfg = EnsembleConfig(n_mod=5, n_ex=2, seed=4)
        env = default_environment(v_out=cfg.v_out_per_vesicle)
        rng = np.random.default_rng(0)
        exp = run_analytic_batch(_draw(pop, cfg, rng), kin, env, signal,
                                 "closed", np.linspace(0, 1600, 9))
        assert exp.c_h_in.shape == (5, 9)
        assert exp.c_s_out.mean(axis=0).shape == (9,)
        assert np.all(np.isfinite(exp.c_h_in))


def _signal_from_gaps(pairs) -> LightSignal:
    """Intervals from (dark gap, lit duration) pairs, then a dark tail."""
    t, intervals = 0.0, []
    for gap, lit in pairs:
        t_on = t + gap
        t = t_on + lit
        intervals.append((t_on, t))
    return LightSignal(intervals, t + 300.0)


_SIGNALS = st.just(FIG4_SIGNAL) | st.lists(
    st.tuples(st.floats(0.0, 200.0), st.floats(1.0, 400.0)),
    min_size=1, max_size=4).map(_signal_from_gaps)


def _types(t2, t4, signal):
    return [classify_cycle(t1, b, t3, d, t1_next)
            for (t1, t3, t1_next), b, d in zip(
                map(signal.cycle_bounds, range(signal.n_cycles)), t2, t4)]


@given(seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["closed", "exact"]),
       b0=st.sampled_from([0.0, 20.0]),
       c_s_in0=st.floats(-3.0, 0.5).map(lambda e: 10.0 ** e),
       signal=_SIGNALS, n_t=st.integers(2, 40))
@example(seed=3, mode="closed", b0=20.0, c_s_in0=0.02, signal=FIG4_SIGNAL,
         n_t=26)
@example(seed=3, mode="exact", b0=0.0, c_s_in0=0.01, signal=FIG4_SIGNAL,
         n_t=26)
# some vesicles run dry in P4 after others have already ended P4
@example(seed=1, mode="closed", b0=20.0, c_s_in0=0.05, signal=FIG4_SIGNAL,
         n_t=26)
@settings(deadline=None, max_examples=40)
def test_experiment_rows_equal_single_vesicle_runs(seed, mode, b0, c_s_in0,
                                                   signal, n_t):
    # the batched experiment is the batch-of-one run of each vesicle,
    # bit for bit
    kin = default_kinetics()
    cfg = EnsembleConfig(n_mod=6, n_ex=1)
    env = default_environment(v_out=cfg.v_out_per_vesicle, buffer_total=b0,
                              c_s_in0=c_s_in0)
    ts = np.linspace(0.0, signal.horizon, n_t)
    specs = _draw(PopulationDistributions(), cfg, np.random.default_rng(seed))
    exp = run_analytic_batch(specs, kin, env, signal, mode, ts)
    start, end = exp.symport_span()
    for m, spec in enumerate(specs):
        one = run_analytic(spec, kin, env, signal, mode, sample_times=ts)
        assert np.array_equal(exp.c_h_in[m], one.c_h_in)
        assert np.array_equal(exp.c_s_out[m], one.c_s_out)
        cycles = one.schedule.cycles
        assert exp.t2[m].tolist() == [c.t2 for c in cycles]
        assert exp.t4[m].tolist() == [c.t4 for c in cycles]
        assert _types(exp.t2[m], exp.t4[m], signal) == one.schedule.types()
        t_dep = one.depletion_time()
        assert (math.isnan(exp.depletion_time[m]) if t_dep is None
                else exp.depletion_time[m] == t_dep)
        active = [c for c in cycles if c.t4 > c.t2]
        assert start[m] == (active[0].t2 if active else math.inf)
        if active:
            assert end[m] == active[-1].t4
        else:
            assert math.isnan(end[m])


def test_closed_ramp_depletes_some_vesicles_mid_phase():
    # the first example above mixes vesicles whose linearised cargo runs
    # out inside a phase with vesicles that keep cargo to the end
    cfg = EnsembleConfig(n_mod=6, n_ex=1)
    env = default_environment(v_out=cfg.v_out_per_vesicle, c_s_in0=0.02)
    exp = run_analytic_batch(_draw(PopulationDistributions(), cfg,
                                   np.random.default_rng(3)),
                             default_kinetics(), env, FIG4_SIGNAL, "closed",
                             np.linspace(0.0, 250.0, 26))
    depleted = np.flatnonzero(np.isfinite(exp.depletion_time))
    assert 0 < depleted.size < cfg.n_mod
    for m in depleted:  # strictly inside a symport interval
        t = exp.depletion_time[m]
        assert np.any((exp.t2[m] < t) & (t < exp.t4[m]))


@pytest.mark.parametrize("n_ex", [1, 3])
def test_single_vesicle_experiments_give_finite_stats(pop, signal, n_ex,
                                                      tmp_path):
    # n_mod = 1 is a valid config: the spread across one vesicle is 0
    cfg = EnsembleConfig(n_mod=1, n_ex=n_ex, seed=5)
    env = default_environment(v_out=cfg.v_out_per_vesicle)
    res = run_ensemble(pop, default_kinetics(), env, signal, cfg,
                       sample_times=np.linspace(0.0, 1600.0, 9))
    assert np.all(res.per_exp_std_c_h_in == 0.0)
    assert np.all(res.per_exp_std_c_s_out == 0.0)
    _write_ensemble_csv(res, tmp_path / "ensemble_stats.csv")
    rows = (tmp_path / "ensemble_stats.csv").read_text().splitlines()
    assert len(rows) == 10
    assert all(math.isfinite(float(x)) for row in rows[1:]
               for x in row.split(","))


class TestJensenGap:
    # a 30-symporter drain on the mean-diameter vesicle empties the
    # 3.14 mol/m^3 cargo around t ~ 8900 s; the probes bracket that knee,
    # where the substrate law's convexity in the count is resolvable
    SIGNAL = LightSignal([(0.0, 9500.0)], 10500.0)

    def _env(self):
        cfg = EnsembleConfig()
        return default_environment(v_out=cfg.v_out_per_vesicle,
                                   c_s_in0=3.14)

    def test_deterministic_count_zero_gap(self, pop):
        kin = default_kinetics()
        res = jensen_gap_check(pop, kin, self._env(), self.SIGNAL,
                               t_probe=8900.0,
                               nsym_values=[30.0], nsym_probs=[1.0])
        assert res.status == "ok"
        assert res.gap == 0.0

    def test_two_point_strictly_positive(self, pop):
        kin = default_kinetics()
        res = jensen_gap_check(pop, kin, self._env(), self.SIGNAL,
                               t_probe=8950.0, nsym_values=[20.0, 40.0])
        assert res.status == "ok"
        assert res.ensemble_mean > res.mean_param_value
        assert res.gap > 1e-2  # strict, resolvable convexity gap

    def test_second_derivative_matches_closed_form(self, pop):
        # central differences vs the closed-form curvature across a grid
        # of probe times spanning the Michaelis-Menten knee
        kin = default_kinetics()
        checked = 0
        for t_probe in (7000.0, 8000.0, 8950.0, 9300.0):
            res = jensen_gap_check(pop, kin, self._env(), self.SIGNAL,
                                   t_probe, nsym_values=[20.0, 40.0])
            assert res.second_derivative_analytic >= 0.0
            if res.second_derivative_analytic > 1e-6:
                assert res.second_derivative_numeric == pytest.approx(
                    res.second_derivative_analytic, rel=1e-2)
                checked += 1
        assert checked >= 2

    def test_inconclusive_outside_symport(self, pop):
        kin = default_kinetics()
        res = jensen_gap_check(pop, kin, self._env(), self.SIGNAL,
                               t_probe=5.0)
        assert res.status == "inconclusive"

    def test_binomial_default_positive(self, pop):
        kin = default_kinetics()
        res = jensen_gap_check(pop, kin, self._env(), self.SIGNAL,
                               t_probe=8000.0)
        assert res.status == "ok"
        assert res.gap > 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(n_mod=0)
    with pytest.raises(ValueError):
        EnsembleConfig(n_mod=200, n_ves=100)
    with pytest.raises(ValueError, match="finite"):
        EnsembleConfig(v_out_tot=math.inf)
    with pytest.raises(ValueError, match="finite"):
        EnsembleConfig(n_ves=10**400, n_mod=5)
    cfg = EnsembleConfig()
    assert cfg.v_out_per_vesicle == pytest.approx(1e-17, rel=1e-12)


def test_shared_pool_draws_experiment_zeros_vesicles(monkeypatch):
    # the runner's shared-pool baseline solves the vesicles of the
    # ensemble's experiment 0, drawn from the stream (ensemble seed, 0)
    from vesim import runner
    from vesim.config import parse_config
    cfg = parse_config({
        "run": {"solver": ["closed", "fdm"], "seed": 11},
        "population": {}, "ensemble": {"n_mod": 3, "n_ex": 2},
        "signal": {"intervals": [[0, 50]], "horizon": 100},
        "sample_interval": 25.0})
    pooled = []
    monkeypatch.setattr(runner, "simulate_mvs_shared_pool",
                        lambda specs, *args: pooled.append(specs))
    res = runner.execute_run(cfg)
    rng = np.random.default_rng(np.random.SeedSequence((11, 0)))
    specs0 = _draw(cfg.population, cfg.ensemble, rng)
    env = dataclasses.replace(cfg.environment,
                              v_out=cfg.ensemble.v_out_per_vesicle)
    exp0 = run_analytic_batch(specs0, cfg.kinetics, env, cfg.signal,
                              "closed", res["ensemble"].t)
    assert pooled == [specs0]
    assert np.array_equal(exp0.c_s_out.mean(axis=0),
                          res["ensemble"].per_exp_c_s_out[0])
