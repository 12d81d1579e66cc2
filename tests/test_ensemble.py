import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from scipy.special import ndtr, ndtri

from vesim.analytic import exact_substrate, run_analytic, run_analytic_batch
from vesim.ensemble import (DEFAULT_P_PUMP, DEFAULT_RHO,
                            DiameterDistribution, EnsembleConfig,
                            PermeabilityDistribution,
                            PopulationDistributions, experiment_vesicles,
                            mean_parameter_spec, protein_slots, run_ensemble,
                            sample_vesicles)
from vesim.model import (AVOGADRO, ModelError, VesicleLanes, VesicleSpec,
                         default_environment, default_kinetics)
from vesim.runner import _write_ensemble_csv
from vesim.schedule import LightSignal, classify_cycle

# light pattern driving cycle types b, a, c, c on the default vesicle
FIG4_SIGNAL = LightSignal([(10.0, 35.0), (50.0, 80.0), (110.0, 140.0),
                           (150.0, 180.0)], 250.0)


def _draw(dist, cfg, rng):
    """n_mod vesicles drawn one after the other from `rng`."""
    return sample_vesicles(dist, rng, cfg.n_mod)


def _lane_spec(lanes, m):
    """Lane m of a population as a VesicleSpec."""
    return VesicleSpec(d_in=float(lanes.d_in[m]), d_mem=lanes.d_mem,
                       n_pumps=int(lanes.n_pumps[m]),
                       n_sym=int(lanes.n_sym[m]),
                       permeability=float(lanes.permeability[m]))


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
        lanes = sample_vesicles(pop, np.random.default_rng(7), 200)
        for m in range(len(lanes)):
            spec = _lane_spec(lanes, m)
            n_tot = protein_slots(spec.d_in, spec.d_mem, pop.rho)
            assert spec.n_pumps + spec.n_sym == n_tot
            assert spec.d_in > pop.diameter.shift
            lo, hi = pop.permeability.lo_log10, pop.permeability.hi_log10
            assert lo < math.log10(spec.permeability) < hi

    def test_reproducible(self, pop):
        a = sample_vesicles(pop, np.random.default_rng(42), 10)
        b = sample_vesicles(pop, np.random.default_rng(42), 10)
        for name in ("d_in", "n_pumps", "n_sym", "permeability"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        # the first vesicles of a stream do not depend on how many follow
        first = sample_vesicles(pop, np.random.default_rng(42), 4)
        assert np.array_equal(first.permeability, a.permeability[:4])

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
        lanes = sample_vesicles(pop, np.random.default_rng(0), 20)
        assert len(set(zip(lanes.d_in.tolist(), lanes.n_pumps.tolist(),
                           lanes.n_sym.tolist()))) == 1
        assert lanes.n_sym[0] == 0  # deterministic split at p_pump = 1

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
    lanes = _draw(PopulationDistributions(), cfg, np.random.default_rng(seed))
    exp = run_analytic_batch(lanes, kin, env, signal, mode, ts)
    start, end = exp.symport_span()
    for m in range(len(lanes)):
        one = run_analytic(_lane_spec(lanes, m), kin, env, signal, mode,
                           sample_times=ts)
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
    """The mean-parameter bias, measured by the solvers themselves."""

    # a 30-symporter drain on the mean-diameter vesicle empties the
    # 3.14 mol/m^3 cargo around t ~ 8900 s; the probes bracket that knee,
    # where the substrate law's convexity in the count is resolvable
    SIGNAL = LightSignal([(0.0, 9500.0)], 10500.0)
    PROBES = (7000.0, 8000.0, 8950.0, 9300.0)

    def _env(self):
        cfg = EnsembleConfig()
        return default_environment(v_out=cfg.v_out_per_vesicle,
                                   c_s_in0=3.14)

    def _batch(self, pop, counts, sample_times):
        """One exact batch of the mean vesicle with each symporter count
        in `counts`, one lane per count."""
        spec = mean_parameter_spec(pop)
        lanes = VesicleLanes.of([dataclasses.replace(spec, n_sym=n)
                                 for n in counts])
        return run_analytic_batch(lanes, default_kinetics(), self._env(),
                                  self.SIGNAL, "exact", sample_times)

    def test_two_point_strictly_positive(self, pop):
        r = self._batch(pop, (20, 40, 30), [0.0, 8950.0])
        c20, c40, c30 = r.c_s_in[:, 1].tolist()
        assert 0.5 * (c20 + c40) - c30 > 1e-2  # strict, resolvable gap

    def test_second_derivative_matches_closed_form(self, pop):
        # central differences of `exact_substrate` in the symporter count
        # against the closed-form curvature k_m*(beta*dt)^2*w/(1+w)^3, on
        # probe times spanning the Michaelis-Menten knee
        kin, env = default_kinetics(), self._env()
        v_in = mean_parameter_spec(pop).v_in
        t2 = self._batch(pop, (30,), [0.0]).t2[0, 0]
        dt = np.array(self.PROBES) - t2
        x, h = 30.0, 3e-3
        counts = np.array([x - h, x, x + h])
        below, at, above = exact_substrate(
            np.full(3, env.c_s_in0),
            kin.symport_rate_per_protein * counts / AVOGADRO,
            np.full(3, v_in), kin.k_m, np.tile(dt, (3, 1)))
        numeric = (above - 2.0 * at + below) / h ** 2
        beta = kin.symport_rate_per_protein / (AVOGADRO * v_in * kin.k_m)
        w = at / kin.k_m
        analytic = kin.k_m * (beta * dt) ** 2 * w / (1.0 + w) ** 3
        assert np.all(analytic >= 0.0)
        resolved = analytic > 1e-6
        assert np.count_nonzero(resolved) >= 2
        np.testing.assert_allclose(numeric[resolved], analytic[resolved],
                                   rtol=1e-2)

    def test_substrate_is_convex_in_the_symporter_count(self, pop):
        # C_S_in over every count 0..n_tot of the mean vesicle: no second
        # difference is negative, and each is positive where the binomial
        # count is likely, so any spread in the count lifts the ensemble
        # mean above the mean-count vesicle
        spec = mean_parameter_spec(pop)
        n_tot = spec.n_pumps + spec.n_sym
        r = self._batch(pop, range(n_tot + 1),
                        [0.0, 7000.0, 8000.0, 8950.0])
        d2 = np.diff(r.c_s_in[:, 1:], n=2, axis=0)
        pmf = stats.binom.pmf(np.arange(1, n_tot), n_tot, 1.0 - pop.p_pump)
        assert np.all(d2 >= 0.0)
        assert np.all(d2[pmf > 1e-6] > 0.0)

    def test_ensemble_mean_exceeds_the_mean_parameter_vesicle(self, pop,
                                                              signal):
        # the population's own bias: 2x10^4 default vesicles in one closed
        # batch release more on average than the mean-parameter vesicle,
        # by many standard errors of the mean (13 and 19 on this seed)
        env = default_environment(v_out=EnsembleConfig().v_out_per_vesicle)
        kin, ts = default_kinetics(), [0.0, 800.0, 1600.0]
        lanes = sample_vesicles(pop, np.random.default_rng(424242), 20_000)
        c_s_out = run_analytic_batch(lanes, kin, env, signal, "closed",
                                     ts).c_s_out[:, 1:]
        ref = run_analytic(mean_parameter_spec(pop), kin, env, signal,
                           "closed", sample_times=ts).c_s_out[1:]
        se = c_s_out.std(axis=0, ddof=1) / math.sqrt(len(lanes))
        assert np.all(c_s_out.mean(axis=0) - ref > 5.0 * se)


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
    lanes0 = _draw(cfg.population, cfg.ensemble, rng)
    env = dataclasses.replace(cfg.environment,
                              v_out=cfg.ensemble.v_out_per_vesicle)
    exp0 = run_analytic_batch(lanes0, cfg.kinetics, env, cfg.signal,
                              "closed", res["ensemble"].t)
    (pool_lanes,) = pooled
    for name in ("d_in", "n_pumps", "n_sym", "permeability"):
        assert np.array_equal(getattr(pool_lanes, name),
                              getattr(lanes0, name))
    assert np.array_equal(exp0.c_s_out.mean(axis=0),
                          res["ensemble"].per_exp_c_s_out[0])


# SHA-256 of ensemble_stats.csv for one small population run per
# analytic solver: the draw, the batched engine (with exact's drain
# quadrature) and the statistics, byte for byte. The bits of both
# analytic solvers go through numpy's SIMD exp and log, whose results
# depend on the CPU features numpy dispatches to (they change under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" on an AVX-512
# host), so these digests hold for one numpy build on one CPU family.
# No BLAS call feeds them: the Kronrod rule sums each row in a fixed
# order.
GOLDEN_POPULATION_CSV = {
    "closed": (
        "250c96138d4e363a1c57402eb226ec18"
        "a3e590219181cf93fb7dbea8f31519da"),
    "exact": (
        "f4a28d750d32c139b2a5522ea54d6f20"
        "e8c45a1617dad832879c88263549e15c"),
}


@pytest.mark.parametrize("solver", list(GOLDEN_POPULATION_CSV))
def test_population_csv_matches_golden_hash(solver, tmp_path):
    from vesim.config import parse_config
    from vesim.presets import Scenario
    from vesim.runner import run_scenario
    cfg = parse_config({
        "run": {"solver": solver, "seed": 21}, "population": {},
        "ensemble": {"n_mod": 12, "n_ex": 3},
        "signal": {"intervals": [[10, 35], [50, 80]], "horizon": 150},
        "sample_interval": 5.0}, label="pin")
    out, _ = run_scenario(Scenario("pin", "pinned population", [cfg]),
                          tmp_path)
    csv = (out / "pin" / "ensemble_stats.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == GOLDEN_POPULATION_CSV[solver]


def _frozen_scalar_draw(dist, rng):
    """One vesicle as the per-vesicle draw made it before populations
    became lane arrays, frozen here as the lane draw's reference:
    (d_in, n_tot, n_pumps, permeability)."""
    diam, perm = dist.diameter, dist.permeability
    d_in = float(diam.shift + np.exp(diam.mu_log + diam.sigma_log
                                     * rng.standard_normal()))
    n_tot = int(math.floor(math.pi * (d_in + 2.0 * dist.d_mem) ** 2
                           * dist.rho))
    n_pumps = int(rng.binomial(n_tot, dist.p_pump)) if n_tot > 0 else 0
    alpha = (perm.lo_log10 - perm.mu_log10) / perm.sigma_log10
    beta = (perm.hi_log10 - perm.mu_log10) / perm.sigma_log10
    u = rng.uniform(ndtr(alpha), ndtr(beta))
    return d_in, n_tot, n_pumps, float(
        10.0 ** (perm.mu_log10 + perm.sigma_log10 * ndtri(u)))


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       shift_nm=st.floats(1.0, 100.0), mu_nm=st.floats(1.0, 300.0),
       sigma_log=st.floats(0.01, 1.5),
       mu_log10=st.floats(-7.0, -4.0), sigma_log10=st.floats(0.02, 1.0),
       lo=st.floats(0.01, 2.0), hi=st.floats(0.01, 2.0),
       # 0 leaves every vesicle without slots; 1e13 gives 0 or 1 slot
       rho=st.sampled_from([0.0, 1e13, 1e15, DEFAULT_RHO]),
       p_pump=st.sampled_from([0.0, 1.0, 0.3, DEFAULT_P_PUMP]))
@example(seed=0, n=20, shift_nm=39.74, mu_nm=64.07, sigma_log=0.62,
         mu_log10=-5.52, sigma_log10=0.25, lo=0.25, hi=0.25, rho=1e13,
         p_pump=0.0)
@settings(derandomize=True, deadline=None, max_examples=60)
def test_lane_draw_equals_the_scalar_draw(seed, n, shift_nm, mu_nm,
                                          sigma_log, mu_log10, sigma_log10,
                                          lo, hi, rho, p_pump):
    # the lanes and the stream left behind are those of n scalar draws,
    # bit for bit
    dist = PopulationDistributions(
        diameter=DiameterDistribution(shift=shift_nm * 1e-9,
                                      mu_log=math.log(mu_nm * 1e-9),
                                      sigma_log=sigma_log),
        permeability=PermeabilityDistribution(
            mu_log10=mu_log10, sigma_log10=sigma_log10,
            lo_log10=mu_log10 - lo, hi_log10=mu_log10 + hi),
        rho=rho, p_pump=p_pump)
    rng_lanes, rng_ref = (np.random.default_rng(seed) for _ in range(2))
    lanes = sample_vesicles(dist, rng_lanes, n)
    ref = [_frozen_scalar_draw(dist, rng_ref) for _ in range(n)]
    d_in, n_tot, n_pumps, perm = (list(c) for c in zip(*ref))
    assert lanes.d_in.tolist() == d_in
    assert lanes.n_pumps.tolist() == n_pumps
    assert (lanes.n_pumps + lanes.n_sym).tolist() == n_tot
    assert lanes.permeability.tolist() == perm
    assert lanes.d_mem == dist.d_mem
    assert rng_lanes.random() == rng_ref.random()


def test_run_ensemble_warns_once_counting_small_compartments(pop, signal):
    # ~1.2e13 vesicles share the bath: v_out per vesicle is 83 zl, under
    # 100 * v_in for the larger half of them; one warning per run says
    # how many of the n_mod * n_ex vesicles that is
    cfg = EnsembleConfig(n_ves=1.2e13, n_mod=6, n_ex=3, seed=8)
    env = default_environment(v_out=cfg.v_out_per_vesicle)
    small = sum(int(np.count_nonzero(
        env.v_out < 100.0 * experiment_vesicles(pop, cfg, i).v_in))
        for i in range(cfg.n_ex))
    assert 0 < small < cfg.n_mod * cfg.n_ex
    with pytest.warns(UserWarning) as caught:
        run_ensemble(pop, default_kinetics(), env, signal, cfg,
                     sample_times=np.array([0.0, 800.0]))
    messages = [str(w.message) for w in caught
                if "v_out < 100" in str(w.message)]
    assert messages == [f"v_out < 100 * v_in for {small} of 18 vesicles; "
                        "the single-vesicle compartment approximation "
                        "degrades"]
