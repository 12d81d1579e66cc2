# buffering.py
"""
Mass-action buffer chemistry for a single monoprotic ligand.

The reversible reaction HB <-> H + B at dissociation constant k_a gives,
for a compartment holding a total (free + complexed) proton concentration
T with total ligand B0, the free concentration as the positive root of

    C^2 + C*(B0 + k_a - T) - k_a*T = 0.

The finite-difference solver re-equilibrates both compartments after every
flux update: its numpy step with `free_proton_conc` for the pool and with
the array form `free_proton_conc_array` for the vesicles, and its compiled
step with the same expressions in C. The array form is bit-identical to
the scalar root element by element; when all totals are positive and
q = B0 + k_a - T >= 0 throughout, it evaluates only the conjugate branch
of the root. The analytical solvers divide the free-H+ flux by the exact
local slowdown dT/dC = `buffering_slowdown`, whose separable law they
integrate in closed form (`schedule.buffered_relaxation_time`).
"""

from __future__ import annotations

import math

import numpy as np


def free_proton_conc(total_conc: float, buffer_total: float,
                     k_a: float) -> float:
    """Free H+ concentration of a compartment at buffer equilibrium.

    Args:
        total_conc: free + complexed H+ concentration T (mol/m^3)
        buffer_total: total ligand B0 (mol/m^3)
        k_a: dissociation constant (mol/m^3)

    Returns:
        The unique non-negative root of the mass-action quadratic.
    """
    if total_conc <= 0.0:
        return 0.0
    if buffer_total <= 0.0:
        return total_conc
    # q > 0 would cancel against the discriminant; use the conjugate form.
    q = buffer_total + k_a - total_conc
    disc = math.sqrt(q * q + 4.0 * k_a * total_conc)
    if q >= 0.0:
        return 2.0 * k_a * total_conc / (q + disc)
    return 0.5 * (disc - q)


def free_proton_conc_array(total_conc: np.ndarray, buffer_total: float,
                           k_a: float) -> np.ndarray:
    """`free_proton_conc` of every element of `total_conc`.

    Evaluates the same expressions in the same order, so each element is
    bit-identical to the scalar root. When every total is positive and
    every q >= 0, only the conjugate branch is evaluated: the FDM's numpy
    step calls this once per step, and in the fig9 pool (seeds 0 and 7)
    every one of its 160001 calls takes that branch. The checks index at
    argmin, which numpy runs several times faster than min on small
    arrays (a NaN fails them and takes the general path).
    """
    if buffer_total <= 0.0:
        return np.where(total_conc > 0.0, total_conc, 0.0)
    q = buffer_total + k_a - total_conc
    disc = np.sqrt(q * q + 4.0 * k_a * total_conc)
    if total_conc.size and total_conc[total_conc.argmin()] > 0.0:
        if q[q.argmin()] >= 0.0:
            return 2.0 * k_a * total_conc / (q + disc)
    root = np.where(q >= 0.0, 2.0 * k_a * total_conc / (q + disc),
                    0.5 * (disc - q))
    return np.where(total_conc > 0.0, root, 0.0)


def complexed_conc(c_free: float, buffer_total: float, k_a: float) -> float:
    """Complex concentration in equilibrium with a given free concentration."""
    if buffer_total <= 0.0 or c_free <= 0.0:
        return 0.0
    return buffer_total * c_free / (c_free + k_a)


def total_conc_from_free(c_free: float, buffer_total: float,
                         k_a: float) -> float:
    """Total (free + complexed) concentration for a given free concentration."""
    return c_free + complexed_conc(c_free, buffer_total, k_a)


def buffering_slowdown(c_h: float, buffer_total: float, k_a: float) -> float:
    """Exact local slowdown dT/dC = 1 + k_a*B0/(c_h+k_a)^2 of free-H+ motion.

    Used for stability estimates of explicit stepping and by the analytic
    solvers' buffered proton law. Floats or arrays, the same bits either
    way: the square is a product, which numpy's array power also forms.
    """
    if buffer_total <= 0.0:
        return 1.0
    u = c_h + k_a
    return 1.0 + k_a * buffer_total / (u * u)
