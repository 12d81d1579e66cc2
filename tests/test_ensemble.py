import math

import numpy as np
import pytest
from scipy import stats

from vesim.ensemble import (DiameterDistribution, EnsembleConfig,
                            PermeabilityDistribution,
                            PopulationDistributions, jensen_gap_check,
                            mean_parameter_spec, protein_slots, run_ensemble,
                            run_experiment, sample_vesicle)
from vesim.model import ModelError, default_environment, default_kinetics
from vesim.schedule import LightSignal


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
        exp = run_experiment(pop, kin, env, signal, cfg, rng,
                             sample_times=np.linspace(0, 1600, 9))
        assert exp.c_h_in.shape == (5, 9)
        assert exp.pooled_c_s_out.shape == (9,)
        assert np.all(np.isfinite(exp.c_h_in))


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
    cfg = EnsembleConfig()
    assert cfg.v_out_per_vesicle == pytest.approx(1e-17, rel=1e-12)
