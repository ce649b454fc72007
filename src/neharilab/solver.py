"""Two-branch Nehari solver: ground state on N+ and bound state on N-.

For lambda below the estimated extremal value, every ray with
Lambda_n(u) > lambda crosses the Nehari set twice; the solver minimizes the
branch-reduced energy v -> J_lambda(t(v) v) by descent with reprojection:

    loop: reproject to the branch (absorb t into u, so t = 1 afterwards),
          take a step x, clip u - s x to the nonnegative cone,
          backtrack on the reduced energy.

The envelope theorem makes the reduced gradient at an on-branch point equal
the weak gradient g = J'_lambda(u) = Gu - (lambda/q) g_A - g_B/(2p) of
FunctionalWorkspace.defect, the one home of the formulas for g_A, g_B and
the singular term's floor.  g is both the step's source and the convergence
measure (its dual quadrature-weighted norm, relative to the size of its
largest term).  Both branches precondition with the SPD operator
P = G + FunctionalWorkspace.singular_diag(u, lambda (1-q)), which carries the
stiffness of the elliptic part and of the singular term; it is factored by
FunctionalWorkspace.factor.  The step x differs by branch:

* N+: one preconditioned gradient step, x = P^-1 g.
* N-: an inexact Newton step on the reduced energy (local minimax, Li &
  Zhou 2001).  Its Hessian at an on-branch point is the Schur complement
  H_hat = H - (Hu)(Hu)^T / (u^T H u), positive semidefinite at the N-
  minimizer with null direction u.  H adds to P the nonlocal Hessian, of
  size about (2p-1) B on N-, which P lacks and which stalls a gradient step.
  H_hat x = g is solved by truncated CG (Steihaug 1983), P factored once per
  step, with matrix-free products (one kernel apply each).  H u itself needs
  no apply: the kernel's input c u is that of w_u, so H u is read from w_u.
  CG stops at ||r|| <= min(0.5, sqrt(residual)) ||r_0||, on nonpositive
  curvature (keeping the last iterate, or P^-1 g at the first step) or after
  CG_MAX steps.  N+ keeps the gradient step: Newton there stalls near a saddle.

One evaluation per point (FunctionalWorkspace.evaluate: w_u, G u and
(E, A, B)) supplies an iterate's energy, defect and residual.  Each
backtracking trial gets one evaluation for its projection, and its Nehari
point t * trial reuses it through the exact scalings w_u(t u) = t^p w_u(u),
G(t u) = t G u and (E, A, B)(t u) = scale_triple, applied in place; the
start's projection is reused the same way.  Steps go through line_search,
the Armijo backtracking shared with the lambda* refinement: the solver's
attempt skips a trial that clips to zero or whose ray misses the Nehari set,
and accepts on the energy's decrease along -x (slope g.x), or on the
residual's once energy differences sit at machine precision.  The final
iterate is evaluated afresh once, so its residual, energy and projection
time t_at_convergence (which must sit at 1) do not rest on the scalings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, dnrm2

from . import fibering
from .errors import NotInPositiveCone, RayMissesNehari
from .fibering import DOUBLE_ROOT_BAND, Branch, DoubleRoot, NoRoot, nehari_roots
from .functionals import (
    Evaluation,
    ReducedTriple,
    energy_from_triple,
    floored_fraction,
    workspace,
)
from .grid import GridFunction, sample_profile
from .params import ProblemParams

REINIT_SIGMAS = (1.0, 0.5, 2.0, 0.25, 4.0, 0.125)
STEP_MAX = 1.0        # a full preconditioned step, and the first one tried
BACKTRACK_MAX = 60
ARMIJO = 0.25         # share of the predicted decrease s * slope a step must realize
CG_MAX = 20           # inner iterations of one Newton-Krylov step


@dataclass
class SolverOptions:
    tol: float = 1e-4              # weak-residual convergence target
    max_iters: int = 400


@dataclass
class SolveResult:
    solution: GridFunction = field(repr=False)
    branch: Branch
    lam: float
    energy: float
    weak_residual: float
    iterations: int                # accepted steps; 0 when the start has converged
    converged: bool
    t_at_convergence: float
    floored_mass: float
    triple: ReducedTriple
    energy_history: list[float] = field(repr=False, default_factory=list)

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.triple.E))


def project_to_nehari(u: GridFunction, lam: float, branch: Branch,
                      params: ProblemParams) -> GridFunction:
    """Return t_branch(u) * u on the requested Nehari branch.

    Raises RayMissesNehari when lambda > Lambda_n(u) (no roots on this ray)
    or lambda lies in the tangency band |lambda - Lambda_n(u)| <=
    DOUBLE_ROOT_BAND Lambda_n(u) (only the tangency point).
    """
    ws = workspace(u.grid, params)
    t = _project_values(params, ws.evaluate(u.values), lam, branch)[0]
    return GridFunction(u.grid, t * u.values)


def _project_values(params, ev, lam, branch):
    """Projection time t of the ray through ev and the triple at t * u."""
    roots = nehari_roots(ev.triple, lam, params.p, params.q)
    if isinstance(roots, NoRoot):
        raise RayMissesNehari(f"lambda = {lam} > Lambda_n(u) = {roots.lambda_n}")
    if isinstance(roots, DoubleRoot):
        raise RayMissesNehari(
            f"lambda = {lam} is within the tangency band {DOUBLE_ROOT_BAND:g} Lambda_n(u) "
            f"of Lambda_n(u) = {float(fibering.lambda_n(ev.triple, params.p, params.q))}: "
            "the ray touches the Nehari set only at its double root"
        )
    t = roots.t_plus if branch == Branch.NPLUS else roots.t_minus
    return t, fibering.scale_triple(ev.triple, t, params.p, params.q)


def _to_branch(params, ev, lam, branch):
    """The evaluation of t * u, the Nehari point of ev's ray on the branch:
    u, G u and w_u are scaled in place by t, t and t^p (w_u is p-homogeneous)."""
    t, triple = _project_values(params, ev, lam, branch)
    u, Gu, w_u = ev.u, ev.Gu, ev.w_u
    u *= t
    Gu *= t
    w_u *= t ** params.p
    return Evaluation(u, w_u, Gu, triple)


def strong_form_defect(u: GridFunction, lam: float, params: ProblemParams) -> np.ndarray:
    """Nodal Euler-Lagrange defect d = J'_lambda(u) / (omega w), so that
    sum_i d_i phi_i omega w_i = J'_lambda(u)[phi] (see
    FunctionalWorkspace.defect).  At an on-branch point it is also the nodal
    gradient of the branch-reduced energy (envelope theorem).
    """
    grad = _defect(u, lam, params)[0]
    return grad / (u.grid.omega * u.grid.weights)


def weak_residual(u: GridFunction, lam: float, params: ProblemParams) -> float:
    """Euler-Lagrange defect norm relative to its largest term (see
    FunctionalWorkspace.defect)."""
    return _defect(u, lam, params)[1]


def _defect(u, lam, params):
    if not u.in_positive_cone:   # grad_B takes u^(p-1), defined for u >= 0
        raise NotInPositiveCone("the weak gradient needs a nonnegative u, not identically zero")
    ws = workspace(u.grid, params)
    return ws.defect(ws.evaluate(u.values), lam)


def _initial_ray(ws, lam, branch, init, grid, params):
    """The evaluated Nehari point of the first candidate ray (init, then
    Gaussians) that carries Nehari points for lambda.  A Gaussian is sampled
    only once every candidate before it has missed."""
    gaussians = (sample_profile("gaussian", s, grid) for s in REINIT_SIGMAS)
    candidates = gaussians if init is None else itertools.chain((init,), gaussians)
    last_error = None
    for cand in candidates:
        try:
            # a copy: the projection scales the candidate in place
            return _to_branch(params, ws.evaluate(cand.values.copy()), lam, branch)
        except RayMissesNehari as err:
            last_error = err
    raise RayMissesNehari(
        f"no sampled ray carries Nehari points at lambda = {lam} "
        f"(init and {len(REINIT_SIGMAS)} Gaussians tried): {last_error}"
    )


def _hessian_along_u(ws, ev, diag):
    """H u with no kernel apply and no G product, diag as ws.hessian(ev,
    diag) left it.

    c u = b u^p r^-a w is w_u's own kernel input, so K(c u) = w_u / (2 pi
    r^-a) and H u = G u + diag u - g_B / 2, G u read from ev.
    """
    hu = diag * ev.u
    hu += ev.Gu
    return daxpy(ws.grad_B(ev), hu, a=-0.5)


def _branch_hessian(ws, ev, diag):
    """v -> H_hat v = H v - (Hu)(u^T H v) / (u^T H u), H = ws.hessian(ev, diag)."""
    hess = ws.hessian(ev, diag)   # folds the nonlocal diagonal into diag first
    hu = _hessian_along_u(ws, ev, diag)
    uhu = float(ev.u @ hu)

    def apply(v, out=None):
        return daxpy(hu, hess(v, out), a=-float(hu @ v) / uhu)

    return apply


def truncated_pcg(hess, precondition, r, res):
    """Truncated PCG (Steihaug 1983) for hess x = r, from x = 0.

    precondition(r, out) writes y = P^-1 r into out and returns it.  CG stops
    at ||r|| <= min(0.5, sqrt(res)) ||r_0||, on nonpositive curvature or after
    CG_MAX steps.  Returns (x, slope, newton): slope = r_0.x = sum_k alpha_k
    r_k.y_k, accumulated so that r_0 need not be kept (r is consumed); on
    nonpositive curvature at the first step x is P^-1 r_0 and newton is False.
    Few vectors are live, since a Krylov step is its caller's memory peak.
    """
    stop = min(0.5, math.sqrt(res)) * dnrm2(r)
    p = precondition(r, np.empty_like(r))
    rho = float(r @ p)
    x = np.zeros_like(r)
    hp = np.empty_like(r)
    slope = 0.0
    for k in range(CG_MAX):
        hp = hess(p, out=hp)
        curv = float(p @ hp)
        if curv <= 0.0:
            if k == 0:
                return p, rho, False
            break
        alpha = rho / curv
        x = daxpy(p, x, a=alpha)
        slope += alpha * rho
        r = daxpy(hp, r, a=-alpha)
        if dnrm2(r) <= stop:
            break
        y = precondition(r, hp)   # hp is free until the next product
        rho, rho_old = float(r @ y), rho
        p *= rho / rho_old
        p += y
    return x, slope, True


def line_search(attempt, s, slope, tries):
    """Armijo backtracking over the lengths s, s/2, ... (`tries` of them):
    attempt(s, target) tests the trial of length s against the target
    ARMIJO s slope and returns (point, value) if it accepts it, else None.
    Returns (point, value, s) for the first accepted length, or None."""
    for _ in range(tries):
        if (accepted := attempt(s, ARMIJO * s * slope)) is not None:
            return (*accepted, s)
        s *= 0.5
    return None


def minimize_on_branch(lam: float, branch: Branch, init: GridFunction | None,
                       params: ProblemParams, grid=None,
                       opts: SolverOptions | None = None) -> SolveResult:
    """Minimize J_lambda over the requested Nehari branch.

    Terminates at weak residual <= opts.tol (converged) or the iteration cap
    (converged=False, full diagnostics in the result).  Raises
    RayMissesNehari when no sampled ray, or the final iterate's ray, carries
    Nehari points for lambda.
    """
    if branch not in (Branch.NPLUS, Branch.NMINUS):
        raise ValueError(f"branch must be NPLUS or NMINUS, got {branch}")
    opts = opts or SolverOptions()
    if grid is None:
        if init is None:
            raise ValueError("need an initial profile or a grid")
        grid = init.grid
    ws = workspace(grid, params)

    ev = _initial_ray(ws, lam, branch, init, grid, params)
    J = energy_from_triple(ev.triple, lam, params)
    history = [J]
    step = STEP_MAX
    for _ in range(opts.max_iters):
        grad, res = ws.defect(ev, lam)
        if res <= opts.tol:
            break
        u = ev.u
        shift = ws.singular_diag(u, lam * (1.0 - params.q))
        if branch == Branch.NPLUS:
            z = ws.solve_shifted(shift, grad)
            slope = float(grad @ z)  # directional derivative along -z
        else:
            precondition = ws.factor(shift)   # grad is consumed as the CG residual
            hess = _branch_hessian(ws, ev, shift)   # folds the nonlocal diagonal into shift
            z, slope = truncated_pcg(hess, precondition, grad, res)[:2]
            del hess, precondition   # not held through the line search (peak memory)

        def attempt(s, target):
            trial = u - s * z
            np.maximum(trial, 0.0, out=trial)
            if not (trial > 0.0).any():
                return None
            try:
                trial_ev = _to_branch(params, ws.evaluate(trial), lam, branch)
            except RayMissesNehari:
                return None
            trial_J = energy_from_triple(trial_ev.triple, lam, params)
            if trial_J <= J - target or (target < 8e-15 * abs(J)
                                         and ws.defect(trial_ev, lam)[1] < 0.7 * res):
                return trial_ev, trial_J
            return None

        accepted = line_search(attempt, step, slope, BACKTRACK_MAX)
        del z  # the next step must not hold this one (peak memory)
        if accepted is None:
            break
        ev, J, s = accepted
        history.append(J)
        step = min(2.0 * s, STEP_MAX)

    ev = ws.evaluate(ev.u)   # afresh, so that t_final below checks the scalings
    J = history[-1] = energy_from_triple(ev.triple, lam, params)
    ufun = GridFunction(grid, ev.u)
    res = ws.defect(ev, lam)[1]
    # every iterate is an absorbed projection, so the converged state's own
    # projection time must sit at 1 up to the root tolerance
    t_final = _project_values(params, ev, lam, branch)[0]
    return SolveResult(
        solution=ufun,
        branch=branch,
        lam=lam,
        energy=J,
        weak_residual=res,
        iterations=len(history) - 1,
        converged=bool(res <= opts.tol),
        t_at_convergence=t_final,
        floored_mass=floored_fraction(ufun, params),
        triple=ev.triple,
        energy_history=history,
    )


def solve_pair(lam: float, params: ProblemParams, grid,
               init: GridFunction | tuple[GridFunction, GridFunction] | None = None,
               opts: SolverOptions | None = None) -> tuple[SolveResult, SolveResult]:
    """Solve both branches, from one initial profile or from an
    (N+ start, N- start) pair.

    Returns (ground_state_result, bound_state_result); the ground state is the
    N+ minimizer (negative energy), the bound state the N- minimizer.
    """
    init_plus, init_minus = init if isinstance(init, tuple) else (init, init)
    plus = minimize_on_branch(lam, Branch.NPLUS, init_plus, params, grid=grid, opts=opts)
    minus = minimize_on_branch(lam, Branch.NMINUS, init_minus, params, grid=grid, opts=opts)
    return plus, minus


def solution_distance(first: SolveResult, second: SolveResult,
                      params: ProblemParams) -> float:
    """Relative energy-norm distance between two solutions on one grid."""
    ws = workspace(first.solution.grid, params)
    diff = first.solution.values - second.solution.values
    denom = max(np.sqrt(first.triple.E), np.sqrt(second.triple.E))
    return float(np.sqrt(ws.norm_sq(diff)) / denom)
