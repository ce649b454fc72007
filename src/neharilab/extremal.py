"""Estimation of the extremal parameters lambda* = inf Lambda_n and lambda_*.

Lambda_n is 0-homogeneous, so the infimum over the positive cone is searched
on the E = 1 sphere: a deterministic family x scale lattice pre-search
followed by projected gradient descent (analytic quotient-rule gradient,
Riesz-preconditioned, nonnegativity by clipping, renormalization to E = 1).
The reported value is the best evaluation seen, i.e. an upper estimate of the
discrete infimum; lambda_* is derived through the exact pointwise identity
Lambda_e = ratio * Lambda_n rather than optimized separately.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFamily, NotInPositiveCone
from .fibering import lambda_n
from .functionals import DEFAULT_FLOOR_FACTOR, reduced_triple, workspace
from .grid import GridFunction, sample_profile
from .params import ProblemParams, fibering_constants

DEFAULT_FAMILIES = (
    ("gaussian", None),
    ("sobolev_bump", None),
    ("inverse_poly", 1.0),
    ("inverse_poly", 1.5),
)
DEFAULT_SIGMAS = (0.35, 0.5, 0.7, 1.0, 1.4, 2.0, 2.8, 4.0)
REL_TOL = 1e-8        # relative decrease over PATIENCE accepted steps that stops the descent
PATIENCE = 10
STEP0 = 1.0
STEP_MAX = 4.0
BACKTRACK_MAX = 40


@dataclass
class SweepEntry:
    family: str
    beta: float | None
    sigma: float
    value: float


@dataclass
class DescentOptions:
    max_iters: int = 250


@dataclass
class ExtremalEstimate:
    lambda_star: float
    lambda_sub: float
    minimizer: GridFunction
    sweep_trace: list[SweepEntry] = field(repr=False, default_factory=list)
    descent_values: list[float] = field(repr=False, default_factory=list)

    def write_trace_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["family", "beta", "sigma", "lambda_n"])
            for e in self.sweep_trace:
                wr.writerow([
                    e.family,
                    "" if e.beta is None else format(e.beta, ".17g"),
                    format(e.sigma, ".17g"),
                    format(e.value, ".17g"),
                ])


def family_sweep(families, sigmas, grid, params: ProblemParams):
    """Evaluate Lambda_n over the family x scale lattice; return the argmin.

    Returns (best_value, best_profile, trace) with the trace in lattice order
    (deterministic).
    """
    families = list(families)
    sigmas = list(sigmas)
    if not families or not sigmas:
        raise EmptyFamily("family sweep needs at least one family and one scale")
    best_val, best_u, trace = np.inf, None, []
    for fam, beta in families:
        for sigma in sigmas:
            u = sample_profile(fam, sigma, grid, beta=beta)
            if not u.in_positive_cone:
                continue
            t = reduced_triple(u, params)
            val = float(lambda_n(t, params.p, params.q))
            trace.append(SweepEntry(family=fam, beta=beta, sigma=sigma, value=val))
            if val < best_val:
                best_val, best_u = val, u
    if best_u is None:
        raise EmptyFamily("no lattice profile lies in the positive cone")
    return best_val, best_u, trace


def _lambda_n_gradient(ws, ev, params: ProblemParams):
    """Nodal gradient of Lambda_n at the evaluation ev by the quotient rule on (E, A, B)."""
    p, q = params.p, params.q
    g = ws.grid
    u_vals = ev.u
    E, A, B = ev.triple.as_tuple()
    kappa = (2 * p - q) / (2 * p - 2)
    nu = (2 - q) / (2 * p - 2)
    val = float(lambda_n(ev.triple, p, q))
    uf = np.maximum(u_vals, DEFAULT_FLOOR_FACTOR * np.max(u_vals))
    quad = g.omega * g.weights
    gE = 2.0 * ws.apply_G(u_vals)
    gA = quad * ws.a * q * uf ** (q - 1.0)
    gB = quad * ws.b * 2.0 * p * np.abs(u_vals) ** (p - 1.0) * ev.w_u
    return val * (kappa * gE / E - gA / A - nu * gB / B)


def refine_descent(start: GridFunction, params: ProblemParams,
                   opts: DescentOptions | None = None):
    """Projected gradient descent on Lambda_n from `start`.

    Iterates are clipped to the nonnegative cone and renormalized to E = 1
    (free by 0-homogeneity).  Steps are Riesz-preconditioned through the
    energy operator and accepted on simple decrease with halving backtracking;
    the accepted trial's evaluation supplies the next gradient.
    Returns (value, minimizer, history); the value never exceeds the start's.
    """
    opts = opts or DescentOptions()
    if not start.in_positive_cone:
        raise NotInPositiveCone("descent needs a nonnegative start that is not identically zero")
    ws = workspace(start.grid, params)
    p, q = params.p, params.q
    ev = ws.evaluate(start.values / np.sqrt(ws.norm_sq(start.values)))
    val = float(lambda_n(ev.triple, p, q))
    history = [val]
    step = STEP0
    for _ in range(opts.max_iters):
        z = ws.solve_G(_lambda_n_gradient(ws, ev, params))
        accepted = False
        s = step
        for _bt in range(BACKTRACK_MAX):
            trial = np.clip(ev.u - s * z, 0.0, None)
            if not np.any(trial > 0.0):
                s *= 0.5
                continue
            trial_ev = ws.evaluate(trial / np.sqrt(ws.norm_sq(trial)))
            tval = float(lambda_n(trial_ev.triple, p, q))
            if tval < val:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        ev, val = trial_ev, tval
        history.append(val)
        step = min(2.0 * s, STEP_MAX)
        if len(history) > PATIENCE and (
            history[-PATIENCE - 1] - history[-1] < REL_TOL * abs(history[-1])
        ):
            break
    return val, GridFunction(start.grid, ev.u), history


def estimate_lambda_star(params: ProblemParams, grid,
                         families=DEFAULT_FAMILIES, sigmas=DEFAULT_SIGMAS,
                         opts: DescentOptions | None = None) -> ExtremalEstimate:
    """Family sweep, then descent from its winner; lambda_* = ratio * lambda*."""
    sweep_val, sweep_u, trace = family_sweep(families, sigmas, grid, params)
    val, minimizer, history = refine_descent(sweep_u, params, opts)
    best = min(val, sweep_val)
    ratio = fibering_constants(params.p, params.q).ratio
    return ExtremalEstimate(
        lambda_star=best,
        lambda_sub=ratio * best,
        minimizer=minimizer,
        sweep_trace=trace,
        descent_values=history,
    )


def r_sensitivity(params: ProblemParams, R_values, M: int, grading: float = 2.0,
                  families=DEFAULT_FAMILIES, sigmas=DEFAULT_SIGMAS,
                  opts: DescentOptions | None = None):
    """lambda* estimates across truncation radii.

    The whole-space problem is truncated to [0, R]; with the decaying weight
    families the tail contributions vanish only polynomially, so the
    truncation error is reported empirically (shrinking deltas) rather than
    claimed small.  Returns [(R, lambda_star), ...] in the given order.
    """
    from .grid import build_radial_grid

    out = []
    for R in R_values:
        grid = build_radial_grid(float(R), M, grading, params.N)
        est = estimate_lambda_star(params, grid, families=families, sigmas=sigmas, opts=opts)
        out.append((float(R), est.lambda_star))
    return out
