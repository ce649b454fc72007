"""Answer checks.  Each function returns the failure reasons of one
operation (empty when it passes), or one list per row for row-wise stages."""

from __future__ import annotations

import math

import numpy as np

T_TOL = 1e-6      # |t_at_convergence - 1|, the solver tests' tolerance
# Cross-check engine gap at the CLI's box (m = 16, L = 3 sigma).  The CLI's
# default tolerance, 0.02, is below the direct engine's own discretization
# error there with the default b: at sigma = 1 the gap is 5.2%, 2.5%, 1.5% and
# 1.0% at m = 12, 16, 20, 24, and 2.5-2.6% at m = 16 over sigma in [0.95, 1.05].
GAP_TOL = 0.03


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def lambda_star(est, band) -> list[str]:
    reasons = []
    if not (_finite(est.lambda_star, est.lambda_sub) and np.all(np.isfinite(est.minimizer.values))):
        reasons.append("NaN in the lambda* estimate")
    elif not band[0] <= est.lambda_star <= band[1]:
        reasons.append(f"lambda* = {est.lambda_star!r} outside the reference band {band}")
    return reasons


def _pair_structure(energy_plus, energy_minus) -> list[str]:
    reasons = []
    if not energy_plus < 0.0:
        reasons.append(f"J+ = {energy_plus!r} is not negative")
    if not energy_plus <= energy_minus:
        reasons.append(f"J+ = {energy_plus!r} above J- = {energy_minus!r}")
    return reasons


def pair(plus, minus, tol) -> list[str]:
    """One solve_pair: both branches converged, structure, projection at t = 1."""
    reasons = []
    for tag, res in (("N+", plus), ("N-", minus)):
        if not (_finite(res.energy, res.weak_residual, res.t_at_convergence)
                and np.all(np.isfinite(res.solution.values))):
            reasons.append(f"{tag}: NaN in the result")
            continue
        if not (res.converged and res.weak_residual <= tol):
            reasons.append(f"{tag}: not converged (residual {res.weak_residual!r})")
        if not abs(res.t_at_convergence - 1.0) <= T_TOL:
            reasons.append(f"{tag}: t_at_convergence = {res.t_at_convergence!r}")
    return reasons + _pair_structure(plus.energy, minus.energy)


def _monotone(rows, key, sign) -> list[bool]:
    """Per row: does `key` move in direction `sign` from the previous row?"""
    return [True] + [sign * (key(b) - key(a)) > 0.0 for a, b in zip(rows, rows[1:])]


def sweep_rows(result, sign_change, tol) -> list[list[str]]:
    """Rows of run_sweep; `sign_change` is the locator's report or None when
    the window brackets no sign change."""
    rows = result.rows
    down_p = _monotone(rows, lambda r: r.energy_plus, -1)
    down_m = _monotone(rows, lambda r: r.energy_minus, -1)
    up_t = _monotone(rows, lambda r: r.t_plus, +1)
    down_t = _monotone(rows, lambda r: r.t_minus, -1)
    out = []
    for i, r in enumerate(rows):
        reasons = []
        if not _finite(r.lam, r.energy_plus, r.energy_minus, r.t_plus, r.t_minus,
                       r.norm_minus, r.residual_plus, r.residual_minus):
            out.append(["NaN in the row"])
            continue
        if not (r.converged_plus and r.converged_minus
                and max(r.residual_plus, r.residual_minus) <= tol):
            reasons.append("not converged")
        reasons += _pair_structure(r.energy_plus, r.energy_minus)
        if not (down_p[i] and down_m[i]):
            reasons.append("energies do not decrease in lambda")
        if not (up_t[i] and down_t[i]):
            reasons.append("fixed-profile roots not monotone in lambda")
        if (sign_change is not None and i > 0 and rows[i - 1].lam < sign_change.crossing <= r.lam
                and not sign_change.within_one_cell):
            reasons.append(f"sign change {sign_change.crossing!r} more than one cell "
                           f"from {sign_change.target!r}")
        out.append(reasons)
    return out


def endpoint_rows(rep) -> list[list[str]]:
    """Rows of endpoint_probe at lambda_k = (1 - 2^-k) lambda*."""
    out = []
    for i, (ep, em, norm, conv) in enumerate(
            zip(rep.energy_plus, rep.energy_minus, rep.norms_minus, rep.converged)):
        if not _finite(ep, em, norm):
            out.append(["NaN in the row"])
            continue
        reasons = [] if conv else ["not converged"]
        reasons += _pair_structure(ep, em)
        if i > 0 and not (ep < rep.energy_plus[i - 1] and em < rep.energy_minus[i - 1]):
            reasons.append("energies do not decrease in lambda")
        out.append(reasons)
    return out


def crosscheck(B_rad, B_dir) -> list[str]:
    if not (_finite(B_rad, B_dir) and B_rad > 0.0):
        return ["NaN or nonpositive B"]
    gap = abs(B_rad - B_dir) / B_rad
    return [] if gap <= GAP_TOL else [f"engine gap {gap!r} above {GAP_TOL}"]
