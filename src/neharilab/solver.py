"""Two-branch Nehari solver: ground state on N+ and bound state on N-.

For lambda below the estimated extremal value, every ray with
Lambda_n(u) > lambda crosses the Nehari set twice; the solver minimizes the
branch-reduced energy v -> J_lambda(t(v) v) by descent with reprojection:

    loop: reproject to the branch (absorb t into u, so t = 1 afterwards),
          take a step x, clip u - s x to the nonnegative cone,
          backtrack on the reduced energy.

The envelope theorem makes the reduced gradient at an on-branch point equal
the plain gradient action J'_lambda(u)[.], so the strong-form defect

    d_i = (G u)_i / (omega w_i) - lambda a_i max(u_i, eps)^(q-1)
          - b_i u_i^(p-1) (w_u)_i

is both the step's source (the gradient is g = omega w d) and the
convergence measure (its quadrature-weighted norm, relative to the size of
its largest term).  Both branches precondition with the SPD operator
P = G + diag(omega w lambda a (1-q) u^(q-2)), which carries the stiffness of
the elliptic part and of the singular term.  The step x differs by branch:

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

One evaluation per point (FunctionalWorkspace.evaluate: w_u and (E, A, B))
supplies an iterate's energy, defect and residual.  Each backtracking trial
gets one evaluation for its projection, and its Nehari point t * trial reuses
it through the exact scalings w_u(t u) = t^p w_u(u) and (E, A, B)(t u) =
scale_triple, applied in place; the start's projection is reused the same
way.  Acceptance is Armijo sufficient decrease along -x with slope g.x, with
a residual-decrease fallback once energy differences sit at machine
precision.  The final iterate is evaluated afresh once, so its residual,
energy and projection time t_at_convergence (which must sit at 1) do not
rest on the scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.blas import daxpy, dnrm2

from . import fibering
from .errors import NoConvergence, RayMissesNehari, UnsupportedDimension
from .fibering import Branch, DoubleRoot, NoRoot, nehari_roots
from .functionals import (  # strong_form_defect: public here next to weak_residual
    DEFAULT_FLOOR_FACTOR,
    Evaluation,
    ReducedTriple,
    energy_from_triple,
    floored_fraction,
    strong_form_defect,
    workspace,
)
from .grid import GridFunction, sample_profile
from .params import ProblemParams

REINIT_SIGMAS = (1.0, 0.5, 2.0, 0.25, 4.0, 0.125)
STEP_MAX = 1.0        # a full preconditioned step; SolverOptions.step0 lies in (0, 1]
BACKTRACK_MAX = 60
ARMIJO = 0.25
CG_MAX = 20           # inner iterations of one Newton-Krylov step


@dataclass
class SolverOptions:
    tol: float = 1e-4              # weak-residual convergence target
    max_iters: int = 400
    step0: float = 1.0
    floor_factor: float = DEFAULT_FLOOR_FACTOR
    reinit_budget: int = 6


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

    Raises RayMissesNehari when lambda >= Lambda_n(u) (no roots on this ray,
    or only the tangency point).
    """
    ws = workspace(u.grid, params)
    t = _project_values(params, ws.evaluate(u.values), lam, branch)[0]
    return GridFunction(u.grid, t * u.values)


def _project_values(params, ev, lam, branch):
    """Projection time t of the ray through ev and the triple at t * u."""
    roots = nehari_roots(ev.triple, lam, params.p, params.q)
    if isinstance(roots, (NoRoot, DoubleRoot)):
        raise RayMissesNehari(
            f"lambda = {lam} >= Lambda_n(u) = {float(fibering.lambda_n(ev.triple, params.p, params.q))}"
        )
    t = roots.t_plus if branch == Branch.NPLUS else roots.t_minus
    return t, fibering.scale_triple(ev.triple, t, params.p, params.q)


def _to_branch(params, ev, lam, branch):
    """The evaluation of t * u, the Nehari point of ev's ray on the branch:
    u and w_u are scaled in place by t and t^p (w_u is p-homogeneous)."""
    t, triple = _project_values(params, ev, lam, branch)
    u, w_u = ev.u, ev.w_u
    u *= t
    w_u *= t ** params.p
    return Evaluation(u, w_u, triple)


def weak_residual(u: GridFunction, lam: float, params: ProblemParams,
                  floor_factor: float = DEFAULT_FLOOR_FACTOR,
                  include_nonlocal: bool = True, source=None) -> float:
    """Euler-Lagrange defect norm relative to its largest term (see
    FunctionalWorkspace.defect).  ``include_nonlocal=False`` and ``source``
    are test hooks for the linear problem -Delta u + V u = source.
    """
    if u.grid.kind != "radial":
        raise UnsupportedDimension("weak residual implemented on radial grids")
    ws = workspace(u.grid, params)
    return ws.defect(ws.evaluate(u.values), lam, floor_factor, include_nonlocal, source)[1]


def _initial_ray(ws, lam, branch, init, grid, params, budget):
    """The evaluated Nehari point of the first candidate ray (init, then
    Gaussians) that carries Nehari points for lambda."""
    candidates = []
    if init is not None:
        candidates.append(init)
    candidates.extend(
        sample_profile("gaussian", s, grid) for s in REINIT_SIGMAS[: max(budget, 0)]
    )
    last_error = None
    for cand in candidates:
        try:
            # a copy: the projection scales the candidate in place
            return _to_branch(params, ws.evaluate(cand.values.copy()), lam, branch)
        except RayMissesNehari as err:
            last_error = err
    raise RayMissesNehari(
        f"no sampled ray carries Nehari points at lambda = {lam} "
        f"(reinitialization budget {budget} exhausted): {last_error}"
    )


def _singular_shift(ws, u, lam, ff):
    """lambda (1-q) omega w a u_f^(q-2), u_f = max(u, ff max u): the singular
    term's Hessian diagonal, the shift of the preconditioner G + shift."""
    g, q = ws.grid, ws.params.q
    return g.omega * g.weights * lam * ws.a * (1.0 - q) * np.maximum(u, ff * np.max(u)) ** (q - 2.0)


def _hessian_along_u(ws, ev, diag):
    """H u with no kernel apply, diag as ws.hessian(ev, diag) left it.

    c u = b u^p r^-a w is w_u's own kernel input, so K(c u) = w_u / (2 pi
    r^-a) and H u = G u + diag u - p omega w b u^(p-1) w_u.
    """
    g, p, u = ws.grid, ws.params.p, ev.u
    hu = ws.apply_G(u)
    hu += diag * u
    hu -= p * g.omega * g.weights * ws.b * u ** (p - 1.0) * ev.w_u
    return hu


def _branch_hessian(ws, ev, diag):
    """v -> H_hat v = H v - (Hu)(u^T H v) / (u^T H u), H = ws.hessian(ev, diag)."""
    hess = ws.hessian(ev, diag)   # folds the nonlocal diagonal into diag first
    hu = _hessian_along_u(ws, ev, diag)
    uhu = float(ev.u @ hu)

    def apply(v, out=None):
        return daxpy(hu, hess(v, out), a=-float(hu @ v) / uhu)

    return apply


def _newton_krylov_step(ws, ev, shift, g, res):
    """The N- step x ~ H_hat^-1 g by truncated PCG (module docstring) and its
    slope g.x; g is consumed as the residual.
    """
    ab = ws.Gb.copy(order="F")
    ab[2] += shift
    cb = (cholesky_banded(ab, overwrite_ab=True, check_finite=False), False)
    hess = _branch_hessian(ws, ev, shift)   # folds the nonlocal diagonal into shift

    def precondition(r, out):
        out[:] = r
        return cho_solve_banded(cb, out, overwrite_b=True, check_finite=False)

    return truncated_pcg(hess, precondition, g, res)[:2]


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


def minimize_on_branch(lam: float, branch: Branch, init: GridFunction | None,
                       params: ProblemParams, grid=None,
                       opts: SolverOptions | None = None,
                       strict: bool = False) -> SolveResult:
    """Minimize J_lambda over the requested Nehari branch.

    Terminates at weak residual <= opts.tol (converged) or the iteration cap
    (converged=False, full diagnostics in the result; raises NoConvergence
    only when strict=True).
    """
    if branch not in (Branch.NPLUS, Branch.NMINUS):
        raise ValueError(f"branch must be NPLUS or NMINUS, got {branch}")
    opts = opts or SolverOptions()
    if grid is None:
        if init is None:
            raise ValueError("need an initial profile or a grid")
        grid = init.grid
    if grid.kind != "radial":
        raise UnsupportedDimension("the solver runs on radial grids")
    ws = workspace(grid, params)
    ff = opts.floor_factor

    ev = _initial_ray(ws, lam, branch, init, grid, params, opts.reinit_budget)
    J = energy_from_triple(ev.triple, lam, params)
    history = [J]
    step = opts.step0
    for _ in range(opts.max_iters):
        d, res = ws.defect(ev, lam, ff)
        if res <= opts.tol:
            break
        u = ev.u
        shift = _singular_shift(ws, u, lam, ff)
        if branch == Branch.NPLUS:
            grad = grid.omega * grid.weights * d
            z = ws.solve_shifted(shift, grad)
            slope = float(grad @ z)  # directional derivative along -z
        else:
            # the gradient overwrites d: one vector less at the Krylov peak
            d *= grid.omega * grid.weights
            z, slope = _newton_krylov_step(ws, ev, shift, d, res)
        accepted = None
        s = min(step, STEP_MAX)
        for _bt in range(BACKTRACK_MAX):
            trial = np.clip(u - s * z, 0.0, None)
            if not np.any(trial > 0.0):
                s *= 0.5
                continue
            try:
                trial_ev = _to_branch(params, ws.evaluate(trial), lam, branch)
            except RayMissesNehari:
                s *= 0.5
                continue
            if energy_from_triple(trial_ev.triple, lam, params) <= J - ARMIJO * s * slope:
                accepted = trial_ev
                break
            if ARMIJO * s * slope < 8e-15 * abs(J):
                # energy differences at machine precision: fall back to a
                # residual-decrease acceptance for the Newton endgame
                if ws.defect(trial_ev, lam, ff)[1] < 0.7 * res:
                    accepted = trial_ev
                    break
            s *= 0.5
        del z  # the next step must not hold this one (peak memory)
        if accepted is None:
            break
        ev = accepted
        J = energy_from_triple(ev.triple, lam, params)
        history.append(J)
        step = min(2.0 * s, STEP_MAX)

    ev = ws.evaluate(ev.u)   # afresh, so that t_final below checks the scalings
    J = history[-1] = energy_from_triple(ev.triple, lam, params)
    ufun = GridFunction(grid, ev.u)
    res = ws.defect(ev, lam, ff)[1]
    converged = bool(res <= opts.tol)
    try:
        # every iterate is an absorbed projection, so the converged state's
        # own projection time must sit at 1 up to the root tolerance
        t_final = _project_values(params, ev, lam, branch)[0]
    except RayMissesNehari:  # pragma: no cover
        t_final = float("nan")
    result = SolveResult(
        solution=ufun,
        branch=branch,
        lam=lam,
        energy=J,
        weak_residual=res,
        iterations=len(history) - 1,
        converged=converged,
        t_at_convergence=t_final,
        floored_mass=floored_fraction(ufun, params, ff),
        triple=ev.triple,
        energy_history=history,
    )
    if strict and not converged:
        raise NoConvergence(
            f"residual {res:.3e} above tolerance {opts.tol:.1e} after {result.iterations} iterations",
            result=result,
        )
    return result


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
