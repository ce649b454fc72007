import dataclasses

import numpy as np
import pytest

import neharilab as nl
from neharilab import functionals, solver
from neharilab.errors import RayMissesNehari, NoConvergence
from neharilab.fibering import Branch, phi_second
from neharilab.functionals import workspace
from neharilab.solver import (
    SolverOptions,
    minimize_on_branch,
    project_to_nehari,
    solution_distance,
    solve_pair,
    strong_form_defect,
)

from oracles import dense_energy_operator


@pytest.fixture(scope="module")
def lam(estimate):
    return 0.5 * estimate.lambda_star


@pytest.fixture(scope="module")
def pair(params, grid, estimate, lam):
    return solve_pair(lam, params, grid, init=estimate.minimizer)


# --- projection -------------------------------------------------------------------

def test_projection_lands_on_requested_branch(params, gaussian, lam):
    for branch in (Branch.NPLUS, Branch.NMINUS):
        proj = project_to_nehari(gaussian, lam, branch, params)
        triple = nl.reduced_triple(proj, params)
        assert nl.classify(triple, lam, params.p, params.q) is branch


def test_projection_idempotent(params, gaussian, lam):
    proj = project_to_nehari(gaussian, lam, Branch.NPLUS, params)
    again = project_to_nehari(proj, lam, Branch.NPLUS, params)
    t_change = np.max(np.abs(again.values - proj.values)) / np.max(proj.values)
    assert t_change <= 1e-10


def test_projection_ray_property(params, gaussian, lam):
    # project(s u) = project(u): t compensates the scale exactly
    a = project_to_nehari(gaussian, lam, Branch.NMINUS, params)
    b = project_to_nehari(gaussian.scaled(7.0), lam, Branch.NMINUS, params)
    assert b.values == pytest.approx(a.values, rel=1e-10)


def test_projection_nehari_defect_vanishes(params, gaussian, lam):
    proj = project_to_nehari(gaussian, lam, Branch.NPLUS, params)
    t = nl.reduced_triple(proj, params)
    scale = max(t.E, lam * t.A, t.B)
    assert abs(t.E - lam * t.A - t.B) <= 1e-10 * scale


def test_projection_rejects_high_lambda(params, gaussian):
    t = nl.reduced_triple(gaussian, params)
    Ln = float(nl.lambda_n(t, params.p, params.q))
    with pytest.raises(RayMissesNehari):
        project_to_nehari(gaussian, 2.0 * Ln, Branch.NPLUS, params)


# --- envelope gradient ---------------------------------------------------------------

def test_envelope_gradient_matches_reduced_fd(params, grid, estimate, lam):
    ws = workspace(grid, params)
    u = project_to_nehari(estimate.minimizer, lam, Branch.NPLUS, params)
    g = strong_form_defect(u, lam, params)
    psi = 1.0 + 0.4 * np.sin(1.3 * grid.nodes)
    phi = psi * u.values
    pairing = ws.space_integral(g * phi)
    eps = 1e-5

    def reduced(vals):
        proj = project_to_nehari(nl.GridFunction(grid, vals), lam, Branch.NPLUS, params)
        return nl.energy(proj, lam, params)

    fd = (reduced(u.values * (1 + eps * psi)) - reduced(u.values * (1 - eps * psi))) / (2 * eps)
    assert pairing == pytest.approx(fd, rel=1e-4)


def test_envelope_gradient_small_at_converged_solution(params, pair):
    plus, _ = pair
    ws = workspace(plus.solution.grid, params)
    g = strong_form_defect(plus.solution, plus.lam, params)
    assert ws.wnorm(g) <= 10.0 * plus.weak_residual * max(
        ws.wnorm(ws.apply_G(plus.solution.values) / (plus.solution.grid.omega * plus.solution.grid.weights)),
        1.0,
    )


# --- weak residual --------------------------------------------------------------------

def test_weak_residual_linear_solve_oracle(params, grid):
    # with lambda = 0 and the nonlocal term off, G u = omega w f is the exact
    # discrete solution of -Delta u + V u = f: residual at machine precision
    ws = workspace(grid, params)
    f = np.exp(-0.5 * (grid.nodes - 2.0) ** 2)
    u = np.linalg.solve(dense_energy_operator(grid, ws.V), grid.omega * grid.weights * f)
    res = nl.weak_residual(nl.GridFunction(grid, u), 0.0, params,
                           include_nonlocal=False, source=f)
    assert res <= 1e-10


def test_weak_residual_scales_with_defect(params, grid):
    # u solves the source f exactly, so against source k*f the defect is
    # -(k-1) f while the scale is k ||f||: the residual must be (k-1)/k exactly
    ws = workspace(grid, params)
    f = np.exp(-0.5 * (grid.nodes - 2.0) ** 2)
    u = np.linalg.solve(dense_energy_operator(grid, ws.V), grid.omega * grid.weights * f)
    ufun = nl.GridFunction(grid, u)
    r2 = nl.weak_residual(ufun, 0.0, params, include_nonlocal=False, source=2.0 * f)
    r3 = nl.weak_residual(ufun, 0.0, params, include_nonlocal=False, source=3.0 * f)
    assert r2 == pytest.approx(0.5, rel=1e-9)
    assert r3 == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_converged_residual_below_tolerance(pair):
    plus, minus = pair
    assert plus.converged and minus.converged
    assert plus.weak_residual <= 1e-4
    assert minus.weak_residual <= 1e-4


def test_reported_residual_is_the_public_weak_residual(params, pair):
    for res in pair:
        assert nl.weak_residual(res.solution, res.lam, params) == res.weak_residual


def test_one_w_u_per_evaluated_point(params, grid, estimate, lam, monkeypatch):
    # every evaluation is followed by one projection (initial ray,
    # backtracking trial, the final iterate's t): the projected point reuses
    # its evaluation, and the defect and the residual reuse the iterate's w_u
    calls = {"w_u": 0, "roots": 0}
    w_u, roots = functionals.FunctionalWorkspace.w_u, solver.nehari_roots

    def counted_w_u(self, u_vals):
        calls["w_u"] += 1
        return w_u(self, u_vals)

    def counted_roots(*args):
        calls["roots"] += 1
        return roots(*args)

    monkeypatch.setattr(functionals.FunctionalWorkspace, "w_u", counted_w_u)
    monkeypatch.setattr(solver, "nehari_roots", counted_roots)
    for branch in (Branch.NPLUS, Branch.NMINUS):
        calls.update(w_u=0, roots=0)
        result = minimize_on_branch(lam, branch, estimate.minimizer, params, grid=grid)
        assert result.converged
        assert calls["w_u"] <= calls["roots"]


@pytest.mark.parametrize("mu", [1.0, 1.5])
@pytest.mark.parametrize("M", [128, 1024])
def test_branch_scaling_matches_fresh_evaluation(mu, M):
    # the solver moves an evaluated point to its Nehari point t * u by the
    # exact scalings w_u(t u) = t^p w_u(u) and scale_triple, not by a second
    # evaluation; both must agree with a fresh one to rounding
    prm = nl.validate(dataclasses.replace(nl.ProblemParams(), mu=mu))
    g = nl.build_radial_grid(16.0, M, 2.0)
    ws = workspace(g, prm)
    u = nl.sample_profile("gaussian", 1.0, g).values
    w = ws.w_u(u)
    for t in (0.3, 2.7):
        assert np.max(np.abs(ws.w_u(t * u) - t**prm.p * w) / w) <= 1e-13
    lam = 0.5 * float(nl.lambda_n(ws.evaluate(u).triple, prm.p, prm.q))
    for branch in (Branch.NPLUS, Branch.NMINUS):
        scaled = solver._to_branch(prm, ws.evaluate(u.copy()), lam, branch)
        fresh = ws.evaluate(scaled.u)
        assert abs(np.max(scaled.u) / np.max(u) - 1.0) > 0.01   # a real move
        assert np.max(np.abs(scaled.w_u - fresh.w_u) / fresh.w_u) <= 1e-13
        for x, y in zip(scaled.triple.as_tuple(), fresh.triple.as_tuple()):
            assert x == pytest.approx(y, rel=1e-13)


def test_solve_pair_takes_a_start_per_branch(params, grid, pair, lam, monkeypatch):
    # from an (N+ start, N- start) pair each branch gets its own start: at
    # the converged solutions both are done at the first residual check
    plus, minus = pair
    seen = []
    minimize = solver.minimize_on_branch

    def spy(lam_, branch, init, *args, **kwargs):
        seen.append((branch, init))
        return minimize(lam_, branch, init, *args, **kwargs)

    monkeypatch.setattr(solver, "minimize_on_branch", spy)
    again = solve_pair(lam, params, grid, init=(plus.solution, minus.solution))
    assert [b for b, _ in seen] == [Branch.NPLUS, Branch.NMINUS]
    assert seen[0][1] is plus.solution and seen[1][1] is minus.solution
    for new, old in zip(again, pair):
        assert new.converged and new.iterations == 0
        assert new.energy == pytest.approx(old.energy, rel=1e-12)


def test_start_profile_left_unchanged(params, grid, gaussian, lam):
    # the projection scales in place, so the start must be copied first
    before = gaussian.values.copy()
    minimize_on_branch(lam, Branch.NMINUS, gaussian, params, grid=grid,
                       opts=SolverOptions(max_iters=1))
    assert np.array_equal(gaussian.values, before)


# --- branch structure -------------------------------------------------------------------

def test_ground_state_energy_negative(pair):
    plus, _ = pair
    assert plus.energy < 0.0


def test_energy_ordering(pair):
    plus, minus = pair
    assert plus.energy <= minus.energy


def test_branch_second_derivative_signs(params, pair, lam):
    plus, minus = pair
    assert phi_second(1.0, plus.triple, lam, params.p, params.q) > 0.0
    assert phi_second(1.0, minus.triple, lam, params.p, params.q) < 0.0


def test_bound_state_d29_inequality(params, pair):
    # phi''(1) < 0 on N- forces E <= (2p-q) B / (2-q)
    _, minus = pair
    t = minus.triple
    assert t.E <= (2 * params.p - params.q) * t.B / (2 - params.q) * (1 + 1e-12)


def test_solutions_distinct(params, pair):
    plus, minus = pair
    assert solution_distance(plus, minus, params) >= 1e-3


def test_solutions_positive(pair):
    plus, minus = pair
    assert plus.floored_mass < 0.01
    assert minus.floored_mass < 0.01
    assert np.all(plus.solution.values >= 0.0)
    assert np.any(plus.solution.values > 0.0)


def test_projection_time_near_one(pair):
    plus, minus = pair
    assert plus.t_at_convergence == pytest.approx(1.0, abs=1e-6)
    assert minus.t_at_convergence == pytest.approx(1.0, abs=1e-6)


def test_energy_monotone_along_iterations(pair):
    plus, minus = pair
    for res in (plus, minus):
        hist = res.energy_history
        assert all(b <= a + 1e-12 * abs(a) for a, b in zip(hist, hist[1:]))


def test_solve_above_every_sampled_ray_reports_ray_miss(params, grid, estimate):
    # Lambda_n is unbounded above, so moderate lambda overshoots are absorbed
    # by reinitialization; a lambda above EVERY sampled ray's Lambda_n must
    # surface RayMissesNehari once the budget is exhausted
    from neharilab.solver import REINIT_SIGMAS

    sampled = [estimate.minimizer] + [
        nl.sample_profile("gaussian", s, grid) for s in REINIT_SIGMAS
    ]
    lam_big = 2.0 * max(
        float(nl.lambda_n(nl.reduced_triple(u, params), params.p, params.q))
        for u in sampled
    )
    with pytest.raises(RayMissesNehari):
        minimize_on_branch(lam_big, Branch.NPLUS, estimate.minimizer, params, grid=grid)


@pytest.mark.parametrize("overrides", [
    dict(p=1.7, q=0.5),
    dict(p=3.0, q=0.3, gamma3=1.4, gamma4=1.2),
    dict(mu=2.0, alpha=0.4, q=0.8, gamma3=1.2, gamma4=1.5),
    dict(mu=2.5, alpha=0.2, p=2.2, gamma4=1.5),
    dict(alpha=0.0, choquard=True),
    dict(b_form="constant", gamma4=0.0),
])
def test_pipeline_across_exponents(grid, overrides):
    # the whole stack (extremal estimate -> both branches) at non-default
    # exponents, kernels (incl. the mu = 2 log branch and mu > 2), the pure
    # Choquard kernel, and constant b
    import dataclasses
    from neharilab.extremal import DescentOptions, estimate_lambda_star

    prm = nl.validate(dataclasses.replace(nl.ProblemParams(), **overrides))
    est = estimate_lambda_star(prm, grid, opts=DescentOptions(max_iters=120))
    plus, minus = solve_pair(0.5 * est.lambda_star, prm, grid, init=est.minimizer)
    assert plus.converged and minus.converged
    assert plus.energy < 0.0
    assert plus.energy <= minus.energy


def test_strict_mode_raises_on_cap(params, grid, estimate, lam):
    with pytest.raises(NoConvergence) as err:
        minimize_on_branch(lam, Branch.NPLUS, estimate.minimizer, params, grid=grid,
                           opts=SolverOptions(tol=1e-15, max_iters=3), strict=True)
    assert err.value.result is not None
    assert err.value.result.converged is False


def test_nonstrict_returns_diagnostics_on_cap(params, grid, estimate, lam):
    res = minimize_on_branch(lam, Branch.NPLUS, estimate.minimizer, params, grid=grid,
                             opts=SolverOptions(tol=1e-15, max_iters=3))
    assert res.converged is False
    assert res.iterations >= 1
    assert np.isfinite(res.weak_residual)


# --- N- Newton-Krylov step ---------------------------------------------------------

@pytest.mark.parametrize("mu", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("p", [2.0, 3.5])
def test_branch_hessian_matches_defect_difference(grid, mu, p):
    # On directions tangent to N- at u ((Hu).v = 0) the rank-one term
    # vanishes and H_hat v is the derivative of the gradient omega w d; along
    # u itself H_hat must vanish.  The floored nodes are left out: there the
    # defect depends on u only through the floor ff * max(u).
    # alpha = 0.2 keeps p = 3.5 inside the exponent window at mu = 2.
    prm = nl.validate(dataclasses.replace(nl.ProblemParams(), alpha=0.2, mu=mu, p=p))
    ws = workspace(grid, prm)
    gauss = nl.sample_profile("gaussian", 1.0, grid)
    lam = 0.5 * float(nl.lambda_n(nl.reduced_triple(gauss, prm), p, prm.q))
    u = project_to_nehari(gauss, lam, Branch.NMINUS, prm).values
    ff = functionals.DEFAULT_FLOOR_FACTOR
    ev = ws.evaluate(u)
    hu = ws.hessian(ev, solver._singular_shift(ws, u, lam, ff))(u)
    hess = solver._branch_hessian(ws, ev, solver._singular_shift(ws, u, lam, ff))
    quad = grid.omega * grid.weights

    def gradient(vals):
        return quad * ws.defect(ws.evaluate(vals), lam, ff)[0]

    assert u @ hu < 0.0   # N-: the ray direction carries negative curvature
    assert np.max(np.abs(hess(u))) <= 1e-12 * np.max(np.abs(hu))
    live = u >= ff * np.max(u)
    eps = 1e-4
    for psi in (np.sin(1.3 * grid.nodes), np.exp(-0.3 * grid.nodes), grid.nodes / (1.0 + grid.nodes)):
        v = psi * u
        v -= (hu @ v) / (hu @ u) * u
        fd = (gradient(u + eps * v) - gradient(u - eps * v)) / (2.0 * eps)
        hv = hess(v)
        assert np.max(np.abs(fd - hv)[live]) <= 1e-6 * np.max(np.abs(hv)[live])


@pytest.mark.parametrize("mu", [1.0, 1.5])
def test_hessian_along_u_reads_w_u(grid, monkeypatch, mu):
    # c u is w_u's own kernel input, so H u comes from w_u with no kernel apply
    prm = nl.validate(dataclasses.replace(nl.ProblemParams(), mu=mu))
    ws = workspace(grid, prm)
    gauss = nl.sample_profile("gaussian", 1.0, grid)
    lam = 0.5 * float(nl.lambda_n(nl.reduced_triple(gauss, prm), prm.p, prm.q))
    u = project_to_nehari(gauss, lam, Branch.NMINUS, prm).values
    ev = ws.evaluate(u)
    diag = solver._singular_shift(ws, u, lam, functionals.DEFAULT_FLOOR_FACTOR)
    ref = ws.hessian(ev, diag)(u)   # folds the nonlocal diagonal into diag
    monkeypatch.setattr(ws, "kernel", None)
    hu = solver._hessian_along_u(ws, ev, diag)
    assert np.max(np.abs(hu - ref)) <= 1e-12 * np.max(np.abs(ref))


# lambda / lambda* and exponents where a gradient step on N- needs up to 36 iterations
NEWTON_FRACS = (0.1, 0.5, 0.9, 0.99)
NEWTON_CASES = {
    # (mu, p): N+ iterations at NEWTON_FRACS, which the N- step must not change
    (1.0, 2.0): (3, 4, 6, 6),
    (1.0, 3.0): (3, 3, 3, 3),
    (1.0, 3.5): (3, 3, 3, 3),
    (1.0, 4.0): (3, 3, 3, 3),
    (1.5, 3.5): (3, 3, 3, 3),
}


@pytest.fixture(scope="module", params=sorted(NEWTON_CASES), ids=lambda c: f"mu{c[0]}-p{c[1]}")
def newton_case(request):
    from neharilab.extremal import estimate_lambda_star

    mu, p = request.param
    prm = nl.validate(dataclasses.replace(nl.ProblemParams(), mu=mu, p=p))
    g = nl.build_radial_grid(20.0, 256, 2.0)
    return request.param, prm, g, estimate_lambda_star(prm, g)


def test_nminus_newton_converges_in_few_iterations(newton_case):
    _, prm, g, est = newton_case
    for frac in NEWTON_FRACS:
        res = minimize_on_branch(frac * est.lambda_star, Branch.NMINUS, est.minimizer, prm, grid=g)
        assert res.converged and res.iterations <= 10, (frac, res.iterations)
        assert res.t_at_convergence == pytest.approx(1.0, abs=1e-6)


def test_nminus_energy_matches_tight_reference(newton_case):
    _, prm, g, est = newton_case
    for frac in NEWTON_FRACS:
        lam = frac * est.lambda_star
        res = minimize_on_branch(lam, Branch.NMINUS, est.minimizer, prm, grid=g)
        ref = minimize_on_branch(lam, Branch.NMINUS, est.minimizer, prm, grid=g,
                                 opts=SolverOptions(tol=1e-8))
        assert ref.converged
        assert abs(res.energy - ref.energy) <= SolverOptions().tol * abs(ref.energy)


def test_nplus_keeps_the_gradient_step(newton_case):
    # N+ iteration counts of the preconditioned gradient step, unchanged
    case, prm, g, est = newton_case
    iters = tuple(
        minimize_on_branch(frac * est.lambda_star, Branch.NPLUS, est.minimizer, prm, grid=g).iterations
        for frac in NEWTON_FRACS
    )
    assert iters == NEWTON_CASES[case]
