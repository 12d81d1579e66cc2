# buffering.py
"""
Mass-action buffer chemistry for a single monoprotic ligand.

The reversible reaction HB <-> H + B at dissociation constant k_a gives,
for a compartment holding a total (free + complexed) proton concentration
T with total ligand B0, the free concentration as the positive root of

    C^2 + C*(B0 + k_a - T) - k_a*T = 0.

The finite-difference solver re-equilibrates both compartments after every
flux update: its numpy step with one `free_proton_conc` call on the
vesicles' totals and the pool's, and its compiled step with the same
expressions in C, element by element. The analytical solvers divide the
free-H+ flux by the exact local slowdown dT/dC = `buffering_slowdown`,
whose separable law they integrate in closed form
(`schedule.buffered_relaxation_time`).
"""

from __future__ import annotations

import numpy as np


def free_proton_conc(total_conc, buffer_total: float, k_a: float):
    """Free H+ concentration of a compartment at buffer equilibrium.

    Args:
        total_conc: free + complexed H+ concentration T (mol/m^3), a
            float (and the root is a float) or an array (and the root is
            an array of its shape)
        buffer_total: total ligand B0 (mol/m^3)
        k_a: dissociation constant (mol/m^3)

    Returns:
        The unique non-negative root of the mass-action quadratic, 0
        where T <= 0 and NaN where T is NaN, as in the compiled FDM step.
        Each element has the bits its float would. When every T > 0 and
        every q >= 0, only the conjugate branch is evaluated: the FDM's
        numpy step calls this once per step on its lanes' totals and its
        pool's, and in the fig9 pool (seeds 0 and 7) all 160001 calls take
        that branch. The checks index at argmin, which numpy runs several
        times faster than min on small arrays (a NaN fails them).
    """
    total = np.asarray(total_conc, dtype=float)
    if buffer_total <= 0.0:
        root = total
    else:
        # q > 0 would cancel against the discriminant; use the conjugate
        # form. For T <= 0, q^2 + 4*k_a*T >= (B0 + k_a + T)^2 >= 0.
        q = buffer_total + k_a - total
        disc = np.sqrt(q * q + 4.0 * k_a * total)
        root = 2.0 * k_a * total / (q + disc)
        if (total.size and total.flat[total.argmin()] > 0.0
                and q.flat[q.argmin()] >= 0.0):
            return root if root.ndim else float(root)
        root = np.where(q >= 0.0, root, 0.5 * (disc - q))
    root = np.where(total <= 0.0, 0.0, root)
    return root if root.ndim else float(root)


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
