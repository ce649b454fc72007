"""Estimation of the extremal parameters lambda* = inf Lambda_n and lambda_*.

Lambda_n is 0-homogeneous, so the infimum over the positive cone is searched
on the E = 1 sphere.  A fixed family x scale lattice picks the start:
family_sweep evaluates one profile at a time and keeps only its (E, A, B).
The lattice is the two families that win on sampled admissible sets, gaussian
and inverse_poly with beta = 1.5, at eight scales; it is internal, with no
setting and no report of its own.  A Newton-Krylov iteration on

    f = log Lambda_n = kappa log E - log A - nu log B + const,
    kappa = (2p-q)/(2p-2),  nu = (2-q)/(2p-2),

refines it (Riemannian Newton on the sphere; Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008).  Since f is
0-homogeneous, grad f . u = 0, and its Riemannian Hessian is the Euclidean
one on the G-tangent space {v : u^T G v = 0},

    kappa (2G/E - g_E g_E^T/E^2) - (H_A/A - g_A g_A^T/A^2) - nu (H_B/B - g_B g_B^T/B^2),

where g_E = 2Gu drops out and g_A, g_B are FunctionalWorkspace.grad_A and
grad_B, the gradients the solver's weak gradient J'_lambda is built from.  A
product is one kernel apply through FunctionalWorkspace.hessian, and its
normal part along Gu is removed.

* Each step solves the tangent Newton system by truncated PCG, stopped as the
  solver's N- step is (Steihaug 1983).  The preconditioner is
  P = 2 kappa G/E + FunctionalWorkspace.singular_diag(u, q(1-q)/A), factored
  once per step by FunctionalWorkspace.factor: the analogue of the solver's
  G + singular shift.  P^-1 r is projected back onto the tangent space.
* On nonpositive curvature at the first CG step the step is that
  preconditioned gradient, with a step-length memory doubling up to STEP_MAX.
* Steps go through solver.line_search, the solver's Armijo backtracking, by
  an attempt that retracts u - s x to the sphere (clipped as below) and takes
  the decrease as log(Lambda_n(u) / Lambda_n(u')) while the target is at
  least ROUNDING.  Below it, two rounded evaluations of f cannot resolve the
  decrease, so it is computed from differences, each free of cancellation:
      dE = (u'-u)^T (G u' + G u),
      dA = sum omega w a u^q expm1(q log1p(delta/u)),
      dB = sum omega w (rho'-rho)(w_u'+w_u),
           rho'-rho = b u^p expm1(p log1p(delta/u)),
      f(u) - f(u') = -kappa log1p(dE/E) + log1p(dA/A) + nu log1p(dB/B),
  with delta = u' - u; dB rests on the kernel operator being symmetric, as
  the one dsymv applies from the built triangle is.  So no accepted step
  raises f.
* A step lowers no node below FLOOR times its value, so iterates stay strictly
  positive, as the minimizer is.  A clip to zero strands tail nodes at the
  floor of A's gradient, which then take many steps to recover.
* The iteration stops when the KKT residual ||grad f||_{G^-1} at E = 1 reaches
  KKT_TOL.

The reported value is that of the last accepted iterate, the lowest of the
accepted ones and an upper estimate of the discrete infimum, and the estimate
carries its KKT residual, reported wherever the iteration stops.  lambda_* is
derived through the exact pointwise identity Lambda_e = ratio * Lambda_n
rather than optimized separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy

from .errors import EmptyFamily, NotInPositiveCone
from .fibering import lambda_n
# reduced_triple stays importable here: perfbench's tracer wraps extremal.reduced_triple
from .functionals import ReducedTriple, reduced_triple, workspace  # noqa: F401
from .grid import GridFunction, _check_scale, sample_profile
from .params import ProblemParams, fibering_constants
from .solver import ARMIJO, line_search, truncated_pcg  # noqa: F401 (ARMIJO: re-exported)

DEFAULT_FAMILIES = (("gaussian", None), ("inverse_poly", 1.5))
DEFAULT_SIGMAS = (0.35, 0.5, 0.7, 1.0, 1.4, 2.0, 2.8, 4.0)
KKT_TOL = 1e-8        # ||grad log Lambda_n||_{G^-1} at E = 1 that stops the refinement
FLOOR = 0.1           # a step keeps every node at or above this share of its value
STEP0 = 1.0           # first length of a preconditioned gradient step
STEP_MAX = 4.0
BACKTRACK_MAX = 40
ROUNDING = 1e-14      # Armijo targets below this take the decrease from differences
# |E - 1| within which a start counts as on the sphere and is not rescaled:
# rescaling a returned minimizer moves Lambda_n by a few ulps, so a restart
# from it could read a value above the one reported
SPHERE_ROUNDING = 1e-12


@dataclass
class DescentOptions:
    max_iters: int = 250


@dataclass
class ExtremalEstimate:
    lambda_star: float
    lambda_sub: float
    minimizer: GridFunction
    kkt_residual: float
    descent_values: list[float] = field(repr=False, default_factory=list)


def family_sweep(families, sigmas, grid, params: ProblemParams):
    """Evaluate Lambda_n over the family x scale lattice; return the argmin.

    The lattice is taken in its order, family by family.  Each profile is
    sampled (sample_profile) and evaluated as one vector.  One outside the
    positive cone is skipped, and so is one whose (E, A, B) is not finite and
    positive: on a grid whose first node lies far out, B underflows to 0.
    Only the (E, A, B) floats are kept, and one lambda_n call takes Lambda_n
    of them all.  A scale that is not finite and positive, and a Cartesian
    grid (refused by workspace), fail before any profile is sampled.

    Returns (best_value, best_profile): the first of equal minima, and the
    winner, sampled again.
    """
    families = list(families)
    sigmas = list(sigmas)
    if not families or not sigmas:
        raise EmptyFamily("family sweep needs at least one family and one scale")
    for sigma in sigmas:
        _check_scale(sigma)
    ws = workspace(grid, params)
    kept, triples = [], []
    for fam, beta in families:
        for sigma in sigmas:
            u = sample_profile(fam, sigma, grid, beta=beta)
            if not u.in_positive_cone:
                continue
            triple = ws.evaluate(u.values).triple.as_tuple()
            if all(math.isfinite(x) and x > 0.0 for x in triple):
                kept.append((fam, beta, sigma))
                triples.append(triple)
    if not kept:
        raise EmptyFamily(
            "no lattice profile lies in the positive cone with finite, positive E, A and B "
            f"on the grid R = {grid.R}, M = {grid.M}, first node {grid.nodes[0]:.3g}")
    vals = lambda_n(ReducedTriple(*np.array(triples).T), params.p, params.q)
    best = int(np.argmin(vals))
    fam, beta, sigma = kept[best]
    return float(vals[best]), sample_profile(fam, sigma, grid, beta=beta)


def _log_gradient(ws, ev, kappa: float, nu: float):
    """grad f, f = log Lambda_n = kappa log E - log A - nu log B + const, at
    ev, with the A and B gradients g_A, g_B that the Hessian's rank terms need."""
    E, A, B = ev.triple.as_tuple()
    gA, gB = ws.grad_A(ev.u), ws.grad_B(ev)
    grad = ev.Gu * (2.0 * kappa / E)
    grad = daxpy(gA, grad, a=-1.0 / A)
    return daxpy(gB, grad, a=-nu / B), gA, gB


def _kkt(ws, g) -> float:
    """||g||_{G^-1}: at E = 1, the KKT residual of a gradient g of log Lambda_n."""
    return math.sqrt(float(g @ ws.solve_G(g)))


def _power_difference(u, delta, e):
    """(u + delta)^e - u^e without cancellation: u^e expm1(e log1p(delta/u)),
    and (u + delta)^e where u = 0."""
    out = (u + delta) ** e
    pos = u > 0.0
    up = u[pos]
    out[pos] = up**e * np.expm1(e * np.log1p(delta[pos] / up))
    return out


def _log_decrease(ws, ev, trial, kappa: float, nu: float) -> float:
    """f(u) - f(u'), f = log Lambda_n, from the differences of (E, A, B)
    between the evaluations ev of u and trial of u' (module docstring)."""
    g, p, q, u = ws.grid, ws.params.p, ws.params.q, ev.u
    E, A, B = ev.triple.as_tuple()
    quad = g.omega * g.weights
    delta = trial.u - u
    dE = float(delta @ (trial.Gu + ev.Gu))
    dA = float(quad @ (ws.a * _power_difference(u, delta, q)))
    dB = float(quad @ (ws.b * _power_difference(u, delta, p) * (trial.w_u + ev.w_u)))
    return -kappa * math.log1p(dE / E) + math.log1p(dA / A) + nu * math.log1p(dB / B)


def _newton_system(ws, ev, gA, gB, kappa: float, nu: float):
    """The tangent Hessian product of f = log Lambda_n at ev and its
    preconditioner, for solver.truncated_pcg (module docstring).

    The product is v -> T^T (grad^2 f) v for G-tangent v (u^T G v = 0), with
    T v = v - u (u^T G v) / E; the preconditioner is r -> T P^-1 r through
    ws.factor(diag, 2 kappa / E), the factored P.  The diagonal of
    -grad^2 log A, which is positive, goes into P and is then divided in place
    by s = 2 p nu / B and handed to ws.hessian with G's weight 2 kappa / (E s),
    which folds in B's diagonal: so s hessian is 2 kappa G / E - nu H_B / B.
    Each product is one kernel apply and one G product.  Both projections
    read G u from ev, as u^T G y = (G u)^T y.
    """
    p, q, u, Gu = ws.params.p, ws.params.q, ev.u, ev.Gu
    E, A, B = ev.triple.as_tuple()
    diag = ws.singular_diag(u, q * (1.0 - q) / A)
    solve_P = ws.factor(diag, 2.0 * kappa / E)
    s = 2.0 * p * nu / B
    diag /= s
    hess = ws.hessian(ev, diag, 2.0 * kappa / (E * s))
    cA, cB = 1.0 / (A * A), nu / (B * B)

    def apply(v, out=None):
        out = hess(v, out)
        out *= s
        out = daxpy(gA, out, a=cA * float(gA @ v))
        out = daxpy(gB, out, a=cB * float(gB @ v))
        return daxpy(Gu, out, a=-float(u @ out) / E)

    def precondition(r, out):
        # T P^-1 r, written into out
        y = solve_P(r, out)
        return daxpy(u, y, a=-float(Gu @ y) / E)

    return apply, precondition


def refine_descent(start: GridFunction, params: ProblemParams,
                   opts: DescentOptions | None = None):
    """Minimize log Lambda_n on the E = 1 sphere from `start` by Newton-Krylov
    steps (module docstring).  The start is scaled onto the sphere unless it
    lies there within SPHERE_ROUNDING.

    Stops when the KKT residual ||grad log Lambda_n||_{G^-1} reaches KKT_TOL,
    when no step is accepted, or after opts.max_iters steps.  Returns
    (value, minimizer, history, kkt_residual): history holds the start's value
    and then each accepted one, so it never rises and value is its last and
    lowest entry; the residual is the minimizer's, whichever way the
    iteration stopped.
    """
    opts = opts or DescentOptions()
    if not start.in_positive_cone:
        raise NotInPositiveCone("descent needs a nonnegative start that is not identically zero")
    ws = workspace(start.grid, params)
    p, q = params.p, params.q
    C = fibering_constants(p, q)
    kappa, nu = C.kappa, C.nu
    E = ws.norm_sq(start.values)
    ev = ws.evaluate(start.values.copy() if abs(E - 1.0) <= SPHERE_ROUNDING
                     else start.values / math.sqrt(E))
    val = float(lambda_n(ev.triple, p, q))
    history = [val]
    step = STEP0
    while True:
        u = ev.u
        g, gA, gB = _log_gradient(ws, ev, kappa, nu)
        kkt = _kkt(ws, g)
        if kkt <= KKT_TOL or len(history) > opts.max_iters:
            break
        hess, precondition = _newton_system(ws, ev, gA, gB, kappa, nu)
        del gA, gB   # ev stays: a decrease below ROUNDING needs its w_u and G u
        x, slope, newton = truncated_pcg(hess, precondition, g, kkt)
        del g, hess, precondition

        def attempt(s, target):
            trial = np.maximum(u - s * x, FLOOR * u)
            trial /= math.sqrt(ws.norm_sq(trial))
            trial_ev = ws.evaluate(trial)
            tval = float(lambda_n(trial_ev.triple, p, q))
            if target < ROUNDING:
                decrease = _log_decrease(ws, ev, trial_ev, kappa, nu)
            else:
                decrease = math.log(val / tval)
            return (trial_ev, tval) if decrease >= target else None

        accepted = line_search(attempt, 1.0 if newton else step, slope, BACKTRACK_MAX)
        del x   # the next step must not hold it (peak memory)
        if accepted is None:
            break   # no step accepted: u stays the minimizer
        ev, tval, s = accepted
        # a decrease below rounding can leave the rounded tval a hair above val
        val = min(val, tval)
        history.append(val)
        if not newton:
            step = min(2.0 * s, STEP_MAX)
    return val, GridFunction(start.grid, u), history, kkt


def estimate_lambda_star(params: ProblemParams, grid,
                         families=DEFAULT_FAMILIES, sigmas=DEFAULT_SIGMAS,
                         opts: DescentOptions | None = None) -> ExtremalEstimate:
    """Family sweep, then the Newton-Krylov refinement from its winner;
    lambda_* = ratio * lambda*."""
    sweep_val, sweep_u = family_sweep(families, sigmas, grid, params)
    val, minimizer, history, kkt = refine_descent(sweep_u, params, opts)
    best = min(val, sweep_val)
    ratio = fibering_constants(params.p, params.q).ratio
    return ExtremalEstimate(
        lambda_star=best,
        lambda_sub=ratio * best,
        minimizer=minimizer,
        descent_values=history,
        kkt_residual=kkt,
    )
