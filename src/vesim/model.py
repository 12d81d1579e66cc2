# model.py
"""
Physical quantities, derived rates and instantaneous flux laws.

All quantities are SI: lengths in m, volumes in m^3, concentrations in
mol/m^3, amounts in mol, rates in mol/s (per vesicle) or 1/s (per protein).
The transmitter is a light-driven proton pump (the energizing module) and
a proton/substrate symporter (the release module, the one vesim models):
the pump moves H+ in, the symporter moves it out with its cargo, and
leakage relaxes the gradient.
The flux laws (pump, symport, leakage and their net H+ balance) take plain
concentrations and rates, floats or numpy arrays alike. They are the
finite-difference step's physics: the FDM's numpy step calls them, and
its compiled step (`_fdm_step.c`) repeats them in the same arithmetic
order (pinned bit for bit by tests/test_fdm.py). The analytic solvers linearise
the same laws per cycle phase: `analytic.phase_coefficients` takes the
`DerivedRates` fields as floats or per-vesicle arrays and returns that
phase's proton coefficients (a, b, h).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

AVOGADRO = 6.022e23  # 1/mol

_VALID_MODES = ("symporter",)


class ModelError(ValueError):
    """Raised when a physical quantity violates its constraints."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ModelError(msg)


def _require_finite(obj) -> None:
    """Refuse a NaN or infinite float in any field of a model dataclass."""
    for name, value in vars(obj).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ModelError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class VesicleSpec:
    """Geometry, protein counts and membrane permeability of one nanodevice.

    Attributes:
        d_in: inner vesicle diameter (m)
        d_mem: membrane thickness (m), deterministic across vesicles
        n_pumps: number of light-driven proton pumps
        n_sym: number of co-transporters
        permeability: membrane H+ permeability coefficient (m/s)
        mode: the release module; 'symporter' (a proton/substrate
            symporter) is the one vesim models
    """

    d_in: float
    d_mem: float
    n_pumps: int
    n_sym: int
    permeability: float
    mode: str = "symporter"

    def __post_init__(self):
        _require_finite(self)
        _require(self.d_in > 0, f"d_in must be > 0, got {self.d_in}")
        _require(self.d_mem > 0, f"d_mem must be > 0, got {self.d_mem}")
        _require(self.permeability > 0,
                 f"permeability must be > 0, got {self.permeability}")
        _require(self.n_pumps >= 0 and self.n_pumps == int(self.n_pumps),
                 f"n_pumps must be a non-negative integer, got {self.n_pumps}")
        _require(self.n_sym >= 0 and self.n_sym == int(self.n_sym),
                 f"n_sym must be a non-negative integer, got {self.n_sym}")
        _require(self.mode in _VALID_MODES,
                 f"mode must be one of {_VALID_MODES}, got {self.mode!r}")

    @property
    def v_in(self) -> float:
        """Intravesicular volume (m^3), sphere of diameter d_in."""
        return math.pi / 6.0 * self.d_in ** 3

    @property
    def d_out(self) -> float:
        """Total outer diameter d_in + 2*d_mem (m)."""
        return self.d_in + 2.0 * self.d_mem

    @property
    def a_ves(self) -> float:
        """Outer surface area (m^2), used for leakage and protein slots."""
        return math.pi * self.d_out ** 2


@dataclass(frozen=True)
class KineticConstants:
    """Per-protein transport kinetics and the symport activation threshold.

    Attributes:
        pump_rate_per_protein: effective H+ rate of one pump (1/s)
        symport_rate_per_protein: substrate rate of one co-transporter (1/s)
        stoichiometry: H+:substrate ratio of the co-transporter
        k_m: Michaelis-Menten constant of the co-transporter (mol/m^3)
        xi: logarithmic pH-difference threshold for symport activation
    """

    pump_rate_per_protein: float = 0.03
    symport_rate_per_protein: float = 0.006
    stoichiometry: float = 3.0
    k_m: float = 1.3e-2
    xi: float = 0.015

    def __post_init__(self):
        _require_finite(self)
        _require(self.pump_rate_per_protein >= 0, "pump_rate_per_protein < 0")
        _require(self.symport_rate_per_protein >= 0,
                 "symport_rate_per_protein < 0")
        _require(self.k_m > 0, f"k_m must be > 0, got {self.k_m}")
        _require(self.stoichiometry > 0,
                 f"stoichiometry must be > 0, got {self.stoichiometry}")


@dataclass(frozen=True)
class Environment:
    """Extravesicular volume, buffer and initial concentrations of one SVS.

    Attributes:
        v_out: extravesicular volume allotted to this vesicle (m^3)
        buffer_total: total buffer molarity B0, both compartments (mol/m^3)
        k_a: buffer dissociation constant (mol/m^3)
        c_h_in0: initial free intravesicular H+ concentration (mol/m^3)
        c_h_out0: initial free extravesicular H+ concentration (mol/m^3)
        c_s_in0: initial intravesicular substrate concentration (mol/m^3)
    """

    v_out: float = 1.0e-17
    buffer_total: float = 20.0
    k_a: float = 6.2e-5
    c_h_in0: float = 3.98e-5
    c_h_out0: float = 3.98e-5
    c_s_in0: float = 300.0

    def __post_init__(self):
        _require_finite(self)
        _require(self.v_out > 0, f"v_out must be > 0, got {self.v_out}")
        _require(self.buffer_total >= 0, "buffer_total < 0")
        if self.buffer_total > 0:
            _require(self.k_a > 0, "k_a must be > 0 when buffer_total > 0")
        _require(self.c_h_in0 >= 0 and self.c_h_out0 >= 0,
                 "initial H+ concentrations must be >= 0")
        _require(self.c_s_in0 >= 0, "c_s_in0 must be >= 0")


@dataclass(frozen=True)
class DerivedRates:
    """Per-vesicle effective rates and conserved inventories.

    Attributes:
        pump_rate: whole-vesicle pump rate at unit concentration ratio (mol/s)
        symport_rate_substrate: saturated substrate rate of the release
            module (mol/s)
        symport_rate_proton: H+ rate coupled to the substrate rate (mol/s)
        leak_rate: membrane leakage conductance (m^3/s)
        total_free_protons: free-H+ inventory of the SVS at t=0 (mol)
        total_substrate: substrate inventory (mol), all intravesicular at t=0
        switch_conc: intravesicular H+ threshold for symport activity
            (mol/m^3), computed once from the initial free concentrations
    """

    pump_rate: float
    symport_rate_substrate: float
    symport_rate_proton: float
    leak_rate: float
    total_free_protons: float
    total_substrate: float
    switch_conc: float


def switch_concentration(total_free_protons: float, v_in: float,
                         v_out: float, xi: float) -> float:
    """Intravesicular H+ concentration at which the symporters activate.

    Solves xi = log10(C_in) - log10(C_out) under free-H+ conservation,
    giving C = N_H / (V_out * 10^(-xi) + V_in).
    """
    return total_free_protons / (v_out * 10.0 ** (-xi) + v_in)


def derive_rates(spec: VesicleSpec, kin: KineticConstants,
                 env: Environment) -> DerivedRates:
    """Assemble the per-vesicle rates and inventories used by all solvers.

    Emits a warning (never an error) for physically inert but valid
    configurations, and when v_out is small enough to strain the
    small-vesicle assumption (v_out < 100 * v_in).
    """
    if spec.n_pumps == 0 and spec.n_sym == 0:
        warnings.warn("vesicle has no pumps and no symporters; "
                      "only leakage will act", stacklevel=2)
    if env.v_out < 100.0 * spec.v_in:
        # static message so the default filter dedupes it in ensembles
        warnings.warn(
            "v_out < 100 * v_in; the single-vesicle compartment "
            "approximation degrades", stacklevel=2)

    gamma_p = kin.pump_rate_per_protein * spec.n_pumps / AVOGADRO
    gamma_s = kin.symport_rate_per_protein * spec.n_sym / AVOGADRO
    n_h = env.c_h_in0 * spec.v_in + env.c_h_out0 * env.v_out
    n_s = env.c_s_in0 * spec.v_in
    return DerivedRates(
        pump_rate=gamma_p,
        symport_rate_substrate=gamma_s,
        symport_rate_proton=kin.stoichiometry * gamma_s,
        leak_rate=spec.permeability * spec.a_ves,
        total_free_protons=n_h,
        total_substrate=n_s,
        switch_conc=switch_concentration(n_h, spec.v_in, env.v_out, kin.xi),
    )


def pump_flux(c_out, c_out0: float, gamma_p, light_on: bool):
    """H+ influx (mol/s) driven by the pumps: gamma_p * (c_out / c_out0).

    Scales with the extravesicular free H+ relative to its initial value,
    so an exhausted reservoir shuts the pumps down smoothly; zero in the
    dark and when the reservoir starts empty. Concentrations and rates
    may be floats or numpy arrays.
    """
    if not light_on or c_out0 <= 0.0:
        return 0.0
    return gamma_p * (c_out / c_out0)


def symport_gate(c_in, c_switch):
    """Threshold test of the release module: on while c_in >= c_switch.

    In IEEE arithmetic the same test as (c_in - c_switch) >= 0, so the
    FDM detects symport crossings by its flips. Floats or numpy arrays.
    """
    return c_in >= c_switch


def symport_flux(above_switch, c_s, gamma_s, gamma_h, k_m: float):
    """(substrate, H+) outflux in mol/s through the release module.

    Michaelis-Menten in the substrate, mm = gate * c_s / (c_s + k_m),
    gated on by `above_switch` = symport_gate(c_in, c_switch) while
    substrate remains (c_s > 0); the fluxes are gamma_s * mm and
    gamma_h * mm. The caller passes the threshold test because the FDM
    takes it once per step for both the gate and the crossings.
    Concentrations and rates may be floats or numpy arrays, the test a
    bool or bool array.
    """
    gate = above_switch & (c_s > 0.0)
    mm = gate * c_s / (c_s + k_m)
    return gamma_s * mm, gamma_h * mm


def leakage_flux(c_in, c_out, gamma_l):
    """Passive H+ flux (mol/s) across the membrane; positive = outward."""
    return gamma_l * (c_in - c_out)


def net_proton_inflow(pump, leak, symport_h):
    """Net H+ flow into the vesicle (mol/s): pump - leak - symport.

    The pump moves H+ in, the symporter moves it out with its cargo, and
    `leak` is the passive flux, positive outward.
    """
    return pump - leak - symport_h


def default_vesicle() -> VesicleSpec:
    """Vesicle with the baseline evaluation geometry and protein counts."""
    return VesicleSpec(d_in=87e-9, d_mem=14e-9, n_pumps=40, n_sym=30,
                       permeability=3e-6)


def default_kinetics() -> KineticConstants:
    return KineticConstants()


def default_environment(**overrides) -> Environment:
    """Baseline environment: one vesicle's share of a 1 mL bath split
    across 1e11 vesicles, pH 7.4 on both sides, 20 mol/m^3 buffer."""
    return Environment(**overrides)
