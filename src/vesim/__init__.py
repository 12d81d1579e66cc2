"""Simulation engine for optically controlled vesicular release devices.

Vesicles carrying light-driven proton pumps and proton/substrate
symporters are modeled through three cross-validating solvers (explicit
finite differences as ground truth, an exact analytical solution, and a
closed-form approximation), an illumination cycle-phase state machine,
and a stochastic multi-vesicle ensemble layer with inter-experiment
statistics.
"""

from .analytic import lambert_w0_exp, run_analytic
from .buffering import free_proton_conc
from .ensemble import (EnsembleConfig, PopulationDistributions,
                       run_ensemble, sample_vesicles)
from .fdm import FdmConfig, simulate_mvs_shared_pool, simulate_svs
from .model import (AVOGADRO, DerivedRates, Environment, KineticConstants,
                    VesicleLanes, VesicleSpec, derive_rates, leakage_flux,
                    pump_flux, symport_flux, symport_gate)
from .schedule import CycleSchedule, LightSignal, clip_cycle_times
from .trajectory import Trajectory

__version__ = "0.1.0"

__all__ = [
    "AVOGADRO", "CycleSchedule", "DerivedRates", "EnsembleConfig",
    "Environment", "FdmConfig", "KineticConstants", "LightSignal",
    "PopulationDistributions", "Trajectory", "VesicleLanes", "VesicleSpec",
    "clip_cycle_times", "derive_rates", "free_proton_conc", "lambert_w0_exp",
    "leakage_flux", "pump_flux", "run_analytic", "run_ensemble",
    "sample_vesicles", "simulate_mvs_shared_pool", "simulate_svs",
    "symport_flux", "symport_gate",
]
