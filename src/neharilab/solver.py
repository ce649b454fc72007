"""Two-branch Nehari solver: ground state on N+ and bound state on N-.

For lambda below the estimated extremal value, every ray with
Lambda_n(u) > lambda crosses the Nehari set twice; the solver minimizes the
branch-reduced energy v -> J_lambda(t(v) v) by envelope-gradient descent with
reprojection:

    loop: reproject to the branch (absorb t into u, so t = 1 afterwards),
          take a preconditioned step along the Euler-Lagrange defect,
          clip to the nonnegative cone, backtrack on the reduced energy.

The envelope theorem makes the reduced gradient at an on-branch point equal
the plain gradient action J'_lambda(u)[.], so the strong-form defect

    d_i = (G u)_i / (omega w_i) - lambda a_i max(u_i, eps)^(q-1)
          - b_i u_i^(p-1) (w_u)_i

is both the descent direction source and the convergence measure (its
quadrature-weighted norm, relative to the size of its largest term).  One
evaluation per point (FunctionalWorkspace.evaluate: w_u and (E, A, B))
supplies an iterate's energy, defect and residual, so the defect and the
residual share it; each backtracking trial gets one evaluation for its
projection, and the accepted point t * trial one more.  Steps are
preconditioned by the SPD operator G + diag(omega w lambda a (1-q) u^(q-2)),
which carries the stiffness of both the elliptic part and the singular term;
acceptance is Armijo sufficient decrease with a residual-decrease fallback
once energy differences sit at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fibering
from .errors import NoConvergence, RayMissesNehari, UnsupportedDimension
from .fibering import Branch, DoubleRoot, NoRoot, nehari_roots
from .functionals import (  # strong_form_defect: public here next to weak_residual
    DEFAULT_FLOOR_FACTOR,
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
    iterations: int
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


def _initial_ray(lam, branch, init, grid, params, budget):
    """Return a cone function whose ray carries Nehari points for lambda."""
    candidates = []
    if init is not None:
        candidates.append(init)
    candidates.extend(
        sample_profile("gaussian", s, grid) for s in REINIT_SIGMAS[: max(budget, 0)]
    )
    last_error = None
    for cand in candidates:
        try:
            return project_to_nehari(cand, lam, branch, params)
        except RayMissesNehari as err:
            last_error = err
    raise RayMissesNehari(
        f"no sampled ray carries Nehari points at lambda = {lam} "
        f"(reinitialization budget {budget} exhausted): {last_error}"
    )


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
    q, ff = params.q, opts.floor_factor

    ev = ws.evaluate(_initial_ray(lam, branch, init, grid, params, opts.reinit_budget).values)
    J = energy_from_triple(ev.triple, lam, params)
    history = [J]
    quad = grid.omega * grid.weights
    step = opts.step0
    it = 0
    for it in range(opts.max_iters):
        d, res = ws.defect(ev, lam, ff)
        if res <= opts.tol:
            break
        u = ev.u
        uf = np.maximum(u, ff * np.max(u))
        shift = quad * lam * ws.a * (1.0 - q) * uf ** (q - 2.0)
        z = ws.solve_shifted(shift, quad * d)
        slope = float((quad * d) @ z)  # directional derivative along -z
        accepted = None
        s = min(step, STEP_MAX)
        for _bt in range(BACKTRACK_MAX):
            trial = np.clip(u - s * z, 0.0, None)
            if not np.any(trial > 0.0):
                s *= 0.5
                continue
            try:
                t, trial_triple = _project_values(params, ws.evaluate(trial), lam, branch)
            except RayMissesNehari:
                s *= 0.5
                continue
            trial = t * trial
            if energy_from_triple(trial_triple, lam, params) <= J - ARMIJO * s * slope:
                accepted = ws.evaluate(trial)
                break
            if ARMIJO * s * slope < 8e-15 * abs(J):
                # energy differences at machine precision: fall back to a
                # residual-decrease acceptance for the Newton endgame
                trial_ev = ws.evaluate(trial)
                if ws.defect(trial_ev, lam, ff)[1] < 0.7 * res:
                    accepted = trial_ev
                    break
            s *= 0.5
        if accepted is None:
            break
        ev = accepted
        J = energy_from_triple(ev.triple, lam, params)
        history.append(J)
        step = min(2.0 * s, STEP_MAX)

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
        iterations=it + 1,
        converged=converged,
        t_at_convergence=t_final,
        floored_mass=floored_fraction(ufun, params, ff),
        triple=ev.triple,
        energy_history=history,
    )
    if strict and not converged:
        raise NoConvergence(
            f"residual {res:.3e} above tolerance {opts.tol:.1e} after {it + 1} iterations",
            result=result,
        )
    return result


def solve_pair(lam: float, params: ProblemParams, grid,
               init: GridFunction | None = None,
               opts: SolverOptions | None = None) -> tuple[SolveResult, SolveResult]:
    """Solve both branches from the same initial profile.

    Returns (ground_state_result, bound_state_result); the ground state is the
    N+ minimizer (negative energy), the bound state the N- minimizer.
    """
    plus = minimize_on_branch(lam, Branch.NPLUS, init, params, grid=grid, opts=opts)
    minus = minimize_on_branch(lam, Branch.NMINUS, init, params, grid=grid, opts=opts)
    return plus, minus


def solution_distance(first: SolveResult, second: SolveResult,
                      params: ProblemParams) -> float:
    """Relative energy-norm distance between two solutions on one grid."""
    ws = workspace(first.solution.grid, params)
    diff = first.solution.values - second.solution.values
    denom = max(np.sqrt(first.triple.E), np.sqrt(second.triple.E))
    return float(np.sqrt(ws.norm_sq(diff)) / denom)
