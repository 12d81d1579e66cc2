# ensemble.py
"""
Random vesicle populations, multi-vesicle ensembles and their statistics.

Vesicle production scatter is modeled by three distributions:

  * inner diameter: shifted log-normal, d = l_ves + exp(mu + sigma*Z);
  * protein counts: n_tot = floor(pi*(d_in + 2*d_mem)^2 * rho) slots,
    pumps binomial with probability p_pump, symporters the remainder;
  * membrane permeability: truncated log-normal, log10(g) drawn from a
    normal clipped to (lo, hi) by inverse-CDF sampling.

The protein-slot area uses the outer vesicle surface, like the leakage
area: with the default slot density this reproduces both reference
anchors (70 proteins on the 87 nm baseline vesicle, 112 on a 117.67 nm
one), which the printed inner-surface variant cannot.

Experiments are collections of independently sampled vesicles sharing a
uniformly split extravesicular volume; ensembles repeat experiments to
estimate inter-experiment variance. The vesicles of one experiment are
drawn one after the other (so a seed always gives the same vesicles) and
then solved together in one `analytic.run_analytic_batch` call; each row
equals the vesicle's own `run_analytic` run bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .analytic import lambert_w0_exp, run_analytic, run_analytic_batch
from .model import (_VALID_MODES, AVOGADRO, Environment, KineticConstants,
                    VesicleSpec)
from .schedule import LightSignal
from .trajectory import Trajectory

LN10 = math.log(10.0)

# Slot density reproducing 70 proteins on the default 87 nm vesicle and
# 112 on the 117.67 nm population mean (1/m^2).
DEFAULT_RHO = 1.685e15
DEFAULT_P_PUMP = 4.0 / 7.0


@dataclass(frozen=True)
class DiameterDistribution:
    """Shifted log-normal inner diameter; shift and mu in SI meters."""

    shift: float = 39.74e-9
    mu_log: float = 4.16 + math.log(1e-9)  # fitted in log-nanometers
    sigma_log: float = 0.62

    def __post_init__(self):
        if self.sigma_log <= 0:
            raise ValueError("sigma_log must be > 0")

    def sample(self, rng: np.random.Generator, size=None):
        z = rng.standard_normal(size)
        return self.shift + np.exp(self.mu_log + self.sigma_log * z)

    @property
    def mean(self) -> float:
        return self.shift + math.exp(self.mu_log + 0.5 * self.sigma_log ** 2)

    @property
    def variance(self) -> float:
        s2 = self.sigma_log ** 2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu_log + s2)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        ok = x > self.shift
        out[ok] = ndtr((np.log(x[ok] - self.shift) - self.mu_log)
                       / self.sigma_log)
        return out

    @staticmethod
    def with_mean(target_mean: float, shift: float = 39.74e-9,
                  sigma_log: float = 0.62) -> "DiameterDistribution":
        """Distribution with the same shape but a prescribed mean."""
        if target_mean <= shift:
            raise ValueError("target mean must exceed the shift")
        mu = math.log(target_mean - shift) - 0.5 * sigma_log ** 2
        return DiameterDistribution(shift=shift, mu_log=mu,
                                    sigma_log=sigma_log)


@dataclass(frozen=True)
class PermeabilityDistribution:
    """Truncated log-normal permeability; parameters act on log10(g/m/s).

    The table of defaults quotes -5.52 +/- 0.25 with bounds (-5.77, -5.27),
    which decodes to the 3e-6 m/s baseline only in base 10, so base 10 it is.
    """

    mu_log10: float = -5.52
    sigma_log10: float = 0.25
    lo_log10: float = -5.77
    hi_log10: float = -5.27

    def __post_init__(self):
        if self.hi_log10 <= self.lo_log10:
            raise ValueError("hi_log10 must exceed lo_log10")
        if self.sigma_log10 <= 0:
            raise ValueError("sigma_log10 must be > 0")

    def _alpha_beta(self) -> tuple[float, float]:
        return ((self.lo_log10 - self.mu_log10) / self.sigma_log10,
                (self.hi_log10 - self.mu_log10) / self.sigma_log10)

    def sample(self, rng: np.random.Generator, size=None):
        alpha, beta = self._alpha_beta()
        lo_u, hi_u = ndtr(alpha), ndtr(beta)
        u = rng.uniform(lo_u, hi_u, size)
        return 10.0 ** (self.mu_log10 + self.sigma_log10 * ndtri(u))

    @property
    def mean(self) -> float:
        """E[10^X] for the truncated normal X."""
        alpha, beta = self._alpha_beta()
        k = LN10 * self.sigma_log10
        num = ndtr(beta - k) - ndtr(alpha - k)
        den = ndtr(beta) - ndtr(alpha)
        return math.exp(LN10 * self.mu_log10 + 0.5 * k * k) * num / den

    def cdf_log10(self, x):
        """CDF of log10(g) (the truncated normal itself)."""
        alpha, beta = self._alpha_beta()
        z = (np.asarray(x, dtype=float) - self.mu_log10) / self.sigma_log10
        num = np.clip((ndtr(z) - ndtr(alpha)) / (ndtr(beta) - ndtr(alpha)),
                      0.0, 1.0)
        return np.where(z <= alpha, 0.0, np.where(z >= beta, 1.0, num))

    @staticmethod
    def with_mean_log10(center: float, half_width: float = 0.25,
                        sigma_log10: float = 0.25) -> "PermeabilityDistribution":
        return PermeabilityDistribution(
            mu_log10=center, sigma_log10=sigma_log10,
            lo_log10=center - half_width, hi_log10=center + half_width)


@dataclass(frozen=True)
class PopulationDistributions:
    """Joint description of the vesicle production scatter."""

    diameter: DiameterDistribution = field(default_factory=DiameterDistribution)
    permeability: PermeabilityDistribution = field(
        default_factory=PermeabilityDistribution)
    rho: float = DEFAULT_RHO
    p_pump: float = DEFAULT_P_PUMP
    d_mem: float = 14e-9
    mode: str = "symporter"

    def __post_init__(self):
        if not 0.0 <= self.p_pump <= 1.0:
            raise ValueError("p_pump must lie in [0, 1]")
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.mode not in _VALID_MODES:
            raise ValueError(f"mode must be one of {_VALID_MODES}, "
                             f"got {self.mode!r}")


def protein_slots(d_in: float, d_mem: float, rho: float) -> int:
    """Total protein slots on the outer surface of one vesicle."""
    return int(math.floor(math.pi * (d_in + 2.0 * d_mem) ** 2 * rho))


def sample_vesicle(dist: PopulationDistributions,
                   rng: np.random.Generator) -> VesicleSpec:
    """Draw one vesicle: diameter, then protein split, then permeability.

    log(permeability) is drawn independently of the diameter.
    """
    d_in = float(dist.diameter.sample(rng))
    n_tot = protein_slots(d_in, dist.d_mem, dist.rho)
    n_pumps = int(rng.binomial(n_tot, dist.p_pump)) if n_tot > 0 else 0
    perm = float(dist.permeability.sample(rng))
    return VesicleSpec(d_in=d_in, d_mem=dist.d_mem, n_pumps=n_pumps,
                       n_sym=n_tot - n_pumps, permeability=perm,
                       mode=dist.mode)


def mean_parameter_spec(dist: PopulationDistributions) -> VesicleSpec:
    """Single vesicle built from the population-mean parameter values.

    The mean diameter and mean permeability are plugged into the
    generative model, so the protein counts are the conditional means at
    the mean diameter (p_pump * n_tot(d_mean) pumps). Averaging the
    counts over the whole diameter distribution instead would smuggle
    the convex quadratic slot growth into the reference vesicle, hiding
    exactly the ensemble bias this reference exists to expose.
    """
    d_mean = dist.diameter.mean
    n_tot = protein_slots(d_mean, dist.d_mem, dist.rho)
    n_pumps = int(round(dist.p_pump * n_tot))
    return VesicleSpec(d_in=d_mean, d_mem=dist.d_mem, n_pumps=n_pumps,
                       n_sym=n_tot - n_pumps,
                       permeability=dist.permeability.mean, mode=dist.mode)


@dataclass(frozen=True)
class EnsembleConfig:
    """Population size and replication settings of an ensemble study.

    The nominal vesicle count n_ves fixes the per-vesicle extravesicular
    allotment v_out_tot / n_ves; only n_mod vesicles are actually
    simulated and treated as a representative sample.
    """

    n_ves: float = 1e11
    n_mod: int = 100
    n_ex: int = 10
    seed: int = 0
    v_out_tot: float = 1e-6

    def __post_init__(self):
        if not 1 <= self.n_mod <= self.n_ves:
            raise ValueError("need 1 <= n_mod <= n_ves")
        if self.n_ex < 1:
            raise ValueError("n_ex must be >= 1")
        if self.v_out_tot <= 0:
            raise ValueError("v_out_tot must be > 0")
        # an int n_ves beyond the float range is below math.inf
        if not (self.n_ves <= sys.float_info.max
                and self.v_out_tot <= sys.float_info.max):
            raise ValueError("n_ves and v_out_tot must be finite")

    @property
    def v_out_per_vesicle(self) -> float:
        return self.v_out_tot / self.n_ves


@dataclass
class EnsembleResult:
    """Inter-vesicle and inter-experiment statistics of an ensemble study."""

    t: np.ndarray
    per_exp_mean_c_h_in: np.ndarray   # (n_ex, n_t)
    per_exp_std_c_h_in: np.ndarray
    per_exp_c_s_out: np.ndarray       # (n_ex, n_t) pooled per experiment
    per_exp_std_c_s_out: np.ndarray
    interex_mean_c_h_in: np.ndarray
    interex_var_c_h_in: np.ndarray
    interex_mean_c_s_out: np.ndarray
    interex_var_c_s_out: np.ndarray
    mean_param_traj: Trajectory
    symport_start_median: np.ndarray  # per experiment
    symport_end_median: np.ndarray
    config: EnsembleConfig
    solver: str

    def value_at(self, series: np.ndarray, t: float) -> float:
        k = int(np.argmin(np.abs(self.t - t)))
        return float(series[k])


def experiment_vesicles(dist: PopulationDistributions, cfg: EnsembleConfig,
                        i: int) -> list[VesicleSpec]:
    """The n_mod vesicles of experiment i of an ensemble.

    Experiment i draws them one after the other from its own stream,
    seeded by the entropy pair (cfg.seed, i), so a worker process or the
    runner's shared-pool baseline redraws the same vesicles.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i)))
    return [sample_vesicle(dist, rng) for _ in range(cfg.n_mod)]


def _experiment_worker(args) -> tuple:
    """Solve experiment i in one `run_analytic_batch` call and reduce it.

    Returns (mean C_H_in, std C_H_in, pooled C_S_out, std C_S_out)
    over the vesicles at each sample time, then the medians of the first
    symport start and the last symport end, so that no (n_mod, n_t)
    array outlives its experiment.
    """
    dist, kin, env, signal, cfg, i, solver, sample_times = args
    r = run_analytic_batch(experiment_vesicles(dist, cfg, i), kin, env,
                           signal, solver, sample_times)
    c_s_out = r.c_s_out
    start, end = r.symport_span()
    # the unbiased spread needs two vesicles; one has spread 0 (ddof=0)
    std_kw = dict(axis=0, ddof=1) if cfg.n_mod > 1 else dict(axis=0, ddof=0)
    end_median = (np.nanmedian(end) if np.any(np.isfinite(end))
                  else math.nan)
    return (r.c_h_in.mean(axis=0), r.c_h_in.std(**std_kw),
            c_s_out.mean(axis=0), c_s_out.std(**std_kw),
            np.median(start), end_median)


def run_ensemble(dist: PopulationDistributions, kin: KineticConstants,
                 env_base: Environment, signal: LightSignal,
                 cfg: EnsembleConfig, solver: str = "closed", *,
                 sample_times: np.ndarray, workers: int = 1) -> EnsembleResult:
    """Run n_ex seeded experiments and collect their statistics.

    Experiment i solves `experiment_vesicles(dist, cfg, i)`, so results
    are reproducible bit-for-bit for any worker count (the reduction is
    ordered by experiment index). Each experiment is reduced to its
    statistics as it finishes.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    env = dataclasses.replace(env_base, v_out=cfg.v_out_per_vesicle)
    jobs = [(dist, kin, env, signal, cfg, i, solver, sample_times)
            for i in range(cfg.n_ex)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_experiment_worker, jobs))
    else:
        rows = [_experiment_worker(j) for j in jobs]
    mean_h, std_h, cs, std_cs, start_median, end_median = zip(*rows)
    per_mean_h = np.stack(mean_h)
    per_cs = np.stack(cs)

    mean_spec = mean_parameter_spec(dist)
    mean_traj = run_analytic(mean_spec, kin, env, signal, solver,
                             sample_times=sample_times)

    n_ex = cfg.n_ex
    var_kw = dict(axis=0, ddof=1) if n_ex > 1 else dict(axis=0, ddof=0)
    return EnsembleResult(
        t=sample_times,
        per_exp_mean_c_h_in=per_mean_h,
        per_exp_std_c_h_in=np.stack(std_h),
        per_exp_c_s_out=per_cs,
        per_exp_std_c_s_out=np.stack(std_cs),
        interex_mean_c_h_in=per_mean_h.mean(axis=0),
        interex_var_c_h_in=per_mean_h.var(**var_kw),
        interex_mean_c_s_out=per_cs.mean(axis=0),
        interex_var_c_s_out=per_cs.var(**var_kw),
        mean_param_traj=mean_traj,
        symport_start_median=np.array(start_median),
        symport_end_median=np.array(end_median),
        config=cfg, solver=solver,
    )


@dataclass(frozen=True)
class JensenGapResult:
    """Outcome of the convexity (mean-parameter bias) check."""

    status: str                    # 'ok' or 'inconclusive'
    ensemble_mean: float
    mean_param_value: float
    gap: float                     # E{C_S(X)} - C_S(E{X})
    second_derivative_numeric: float
    second_derivative_analytic: float


def jensen_gap_check(dist: PopulationDistributions, kin: KineticConstants,
                     env_base: Environment, signal: LightSignal,
                     t_probe: float, cfg: EnsembleConfig | None = None,
                     nsym_values=None, nsym_probs=None) -> JensenGapResult:
    """Compare E{C_S_in(n_sym)} with C_S_in(E{n_sym}) at time t_probe.

    The intravesicular substrate concentration under active symport is
    C_S = K_M * W(f) with the symporter count entering the exponent of f,
    which is strictly convex in that count, so randomness in it biases
    the ensemble mean above the mean-parameter value. The count is
    relaxed to a real parameter, as in the differentiation argument.

    By default n_sym varies binomially over the mean vesicle's protein
    slots; an explicit two-point (or any discrete) distribution can be
    supplied through nsym_values / nsym_probs.
    """
    cfg = cfg or EnsembleConfig()
    env = dataclasses.replace(env_base, v_out=cfg.v_out_per_vesicle)
    spec = mean_parameter_spec(dist)
    traj = run_analytic(spec, kin, env, signal, "closed",
                        sample_times=np.array([0.0, signal.horizon]))
    interval = None
    for c in traj.schedule.cycles:
        if c.t2 < t_probe <= c.t4:
            interval = c
            break
    if interval is None:
        return JensenGapResult("inconclusive", math.nan, math.nan, math.nan,
                               math.nan, math.nan)

    n_tot = spec.n_pumps + spec.n_sym
    if nsym_values is None:
        from scipy.stats import binom
        ks = np.arange(n_tot + 1)
        probs = binom.pmf(ks, n_tot, 1.0 - dist.p_pump)
        keep = probs > 1e-15
        values, probs = ks[keep].astype(float), probs[keep]
    else:
        values = np.asarray(nsym_values, dtype=float)
        probs = (np.asarray(nsym_probs, dtype=float) if nsym_probs is not None
                 else np.full(len(values), 1.0 / len(values)))
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("nsym_probs must sum to 1")

    c_s0 = env.c_s_in0
    k_m = kin.k_m
    dt = t_probe - interval.t2
    y0 = math.log(c_s0 / k_m) + c_s0 / k_m
    beta4 = kin.symport_rate_per_protein / (AVOGADRO * spec.v_in * k_m)

    def c_s(x):
        return k_m * lambert_w0_exp(y0 - beta4 * np.asarray(x, dtype=float) * dt)

    mean_x = float(np.sum(values * probs))
    ensemble_mean = float(np.sum(probs * c_s(values)))
    at_mean = float(c_s(mean_x))

    h = max(1e-4 * mean_x, 1e-3)
    d2_num = float((c_s(mean_x + h) - 2.0 * at_mean + c_s(mean_x - h)) / h ** 2)
    w = lambert_w0_exp(y0 - beta4 * mean_x * dt)
    d2_ana = k_m * (beta4 * dt) ** 2 * w / (1.0 + w) ** 3

    return JensenGapResult("ok", ensemble_mean, at_mean,
                           ensemble_mean - at_mean, d2_num, float(d2_ana))
