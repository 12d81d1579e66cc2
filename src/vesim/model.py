# model.py
"""
Physical quantities, derived rates and instantaneous flux laws.

All quantities are SI: lengths in m, volumes in m^3, concentrations in
mol/m^3, amounts in mol, rates in mol/s (per vesicle) or 1/s (per protein).
The transmitter is a light-driven proton pump (the energizing module) and
a proton/substrate symporter (the release module, the one vesim models):
the pump moves H+ in, the symporter moves it out with its cargo, and
leakage relaxes the gradient.
One vesicle is a `VesicleSpec`; a population is a `VesicleLanes`, the same
fields with one array element (lane) per vesicle, and `derive_rates` turns
either into the `DerivedRates` all solvers use (floats or arrays).
The flux laws (pump, symport, leakage and their net H+ balance) take plain
concentrations and rates, floats or numpy arrays alike. They are the
finite-difference step's physics: the FDM's numpy step calls them, and
its compiled step (`_native.c`) repeats them in the same arithmetic
order (pinned bit for bit by tests/test_fdm.py). The analytic solvers linearise
the same laws per cycle phase: `analytic.phase_coefficients` takes the
`DerivedRates` fields as floats or per-vesicle arrays and returns that
phase's proton coefficients (a, b, h).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

AVOGADRO = 6.022e23  # 1/mol

# the start of the small extravesicular volume advisory
SMALL_V_OUT = "v_out < 100 * v_in"


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


def _sphere_volume(d: float) -> float:
    return math.pi / 6.0 * d ** 3


def _outer_area(d_in: float, d_mem: float) -> float:
    return math.pi * (d_in + 2.0 * d_mem) ** 2


def _check_vesicle(v) -> None:
    """Refuse a vesicle, or a population with a lane, that breaks a
    condition of `VesicleSpec`, naming the first value that does."""
    x = {k: np.asarray(getattr(v, k)) for k in
         ("d_in", "d_mem", "n_pumps", "n_sym", "permeability")}
    checks = [(k, np.isfinite(a), "finite") for k, a in x.items()
              if a.dtype.kind == "f"]
    checks += [(k, x[k] > 0, "> 0") for k in ("d_in", "d_mem", "permeability")]
    checks += [(k, (x[k] >= 0) & (x[k] == np.trunc(x[k])),
                "a non-negative integer") for k in ("n_pumps", "n_sym")]
    for k, ok, condition in checks:
        if not ok.all():
            raise ModelError(f"{k} must be {condition}, got {x[k][~ok][0]}")


@dataclass(frozen=True)
class VesicleSpec:
    """Geometry, protein counts and membrane permeability of one nanodevice.

    Attributes:
        d_in: inner vesicle diameter (m)
        d_mem: membrane thickness (m), deterministic across vesicles
        n_pumps: number of light-driven proton pumps
        n_sym: number of co-transporters
        permeability: membrane H+ permeability coefficient (m/s)
    """

    d_in: float
    d_mem: float
    n_pumps: int
    n_sym: int
    permeability: float

    def __post_init__(self):
        _check_vesicle(self)

    @property
    def v_in(self) -> float:
        """Intravesicular volume (m^3), sphere of diameter d_in."""
        return _sphere_volume(self.d_in)

    @property
    def a_ves(self) -> float:
        """Outer surface area (m^2), used for leakage and protein slots."""
        return _outer_area(self.d_in, self.d_mem)


@dataclass(frozen=True, eq=False)
class VesicleLanes:
    """A population: `VesicleSpec`'s fields under its conditions, with
    d_in, n_pumps, n_sym and permeability as arrays holding one element
    (lane) per vesicle, d_mem shared. `v_in` and `a_ves` are
    formed lane by lane as `VesicleSpec` forms them, bit for bit.
    """

    d_in: np.ndarray
    d_mem: float
    n_pumps: np.ndarray
    n_sym: np.ndarray
    permeability: np.ndarray

    def __post_init__(self):
        for k in ("d_in", "n_pumps", "n_sym", "permeability"):
            object.__setattr__(self, k, np.asarray(getattr(self, k)))
        _require(self.d_in.ndim == 1 and len(self) > 0 and all(
            getattr(self, k).shape == self.d_in.shape
            for k in ("n_pumps", "n_sym", "permeability")),
            "need at least one vesicle, in lane arrays of one length")
        _check_vesicle(self)

    @classmethod
    def of(cls, specs: list[VesicleSpec]) -> "VesicleLanes":
        """`specs` in order, one lane each."""
        _require(len({s.d_mem for s in specs}) == 1, "need at least one "
                 "vesicle, all of one d_mem")
        d_in, d_mem, n_pumps, n_sym, perm = zip(
            *(vars(s).values() for s in specs))
        return cls(d_in, d_mem[0], n_pumps, n_sym, perm)

    def __len__(self) -> int:
        return self.d_in.size

    @functools.cached_property
    def v_in(self) -> np.ndarray:
        return np.array([_sphere_volume(d) for d in self.d_in.tolist()])

    @functools.cached_property
    def a_ves(self) -> np.ndarray:
        return np.array([_outer_area(d, self.d_mem)
                         for d in self.d_in.tolist()])


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
    """Rates and inventories of a vesicle (floats) or population (arrays).

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

    def lane(self, m: int) -> "DerivedRates":
        """The rates of lane m of a population, as floats."""
        return DerivedRates(*(float(v[m]) for v in vars(self).values()))


def switch_concentration(total_free_protons: float, v_in: float,
                         v_out: float, xi: float) -> float:
    """Intravesicular H+ concentration at which the symporters activate.

    Solves xi = log10(C_in) - log10(C_out) under free-H+ conservation,
    giving C = N_H / (V_out * 10^(-xi) + V_in).
    """
    return total_free_protons / (v_out * 10.0 ** (-xi) + v_in)


def derive_rates(vesicles: VesicleSpec | VesicleLanes,
                 kin: KineticConstants, env: Environment) -> DerivedRates:
    """Assemble the rates and inventories used by all solvers.

    Takes one vesicle or a population, whose lanes get their specs'
    rates bit for bit. Emits at most one warning (never an error) per
    call, with a static message, for each of: some vesicle is physically
    inert but valid; v_out is small enough to strain the small-vesicle
    assumption (v_out < 100 * v_in).
    """
    if np.any((vesicles.n_pumps == 0) & (vesicles.n_sym == 0)):
        warnings.warn("vesicle has no pumps and no symporters; "
                      "only leakage will act", stacklevel=2)
    v_in = vesicles.v_in
    if np.any(env.v_out < 100.0 * v_in):
        warnings.warn(SMALL_V_OUT + "; the single-vesicle compartment "
                      "approximation degrades", stacklevel=2)

    gamma_p = kin.pump_rate_per_protein * vesicles.n_pumps / AVOGADRO
    gamma_s = kin.symport_rate_per_protein * vesicles.n_sym / AVOGADRO
    n_h = env.c_h_in0 * v_in + env.c_h_out0 * env.v_out
    n_s = env.c_s_in0 * v_in
    return DerivedRates(
        pump_rate=gamma_p,
        symport_rate_substrate=gamma_s,
        symport_rate_proton=kin.stoichiometry * gamma_s,
        leak_rate=vesicles.permeability * vesicles.a_ves,
        total_free_protons=n_h,
        total_substrate=n_s,
        switch_conc=switch_concentration(n_h, v_in, env.v_out, kin.xi),
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
