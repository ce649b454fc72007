import dataclasses

import numpy as np
import pytest
from scipy.linalg.blas import dsbmv

import neharilab as nl
from neharilab import functionals, solver
from neharilab.errors import NotInPositiveCone, RayMissesNehari
from neharilab.fibering import DOUBLE_ROOT_BAND, Branch, phi_second
from neharilab.functionals import workspace
from neharilab.solver import (
    SolverOptions,
    minimize_on_branch,
    project_to_nehari,
    solution_distance,
    solve_pair,
    strong_form_defect,
)


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
    with pytest.raises(RayMissesNehari, match=r"lambda = \S+ > Lambda_n\(u\) = \S+$"):
        project_to_nehari(gaussian, 2.0 * Ln, Branch.NPLUS, params)


def test_projection_names_the_tangency_band(params, gaussian):
    # just below Lambda_n(u), inside the band: a double root, not "lambda >="
    Ln = float(nl.lambda_n(nl.reduced_triple(gaussian, params), params.p, params.q))
    lam = Ln * (1.0 - 0.5 * DOUBLE_ROOT_BAND)
    assert lam < Ln
    with pytest.raises(RayMissesNehari, match="tangency band 1e-12") as info:
        project_to_nehari(gaussian, lam, Branch.NMINUS, params)
    assert ">" not in str(info.value)


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

    def wnorm(vals):   # quadrature-weighted L^2 norm of a nodal field
        return np.sqrt(ws.space_integral(vals**2))

    g = strong_form_defect(plus.solution, plus.lam, params)
    assert wnorm(g) <= 10.0 * plus.weak_residual * max(
        wnorm(ws.apply_G(plus.solution.values) / (plus.solution.grid.omega * plus.solution.grid.weights)),
        1.0,
    )


# --- weak residual --------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.3, 1e6])
def test_weak_residual_is_the_dual_norm_over_the_largest_term(params, grid, lam):
    # J' = Gu - (lambda/q) g_A - g_B/(2p); its residual is its norm dual to
    # the quadrature weights over the largest such norm of its three terms
    # (at lambda = 1e6 the singular term is the largest)
    ws = workspace(grid, params)
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0)
    ev = ws.evaluate(u.values)
    terms = [ws.apply_G(u.values), lam / params.q * ws.grad_A(u.values),
             ws.grad_B(ev) / (2.0 * params.p)]
    quad = grid.omega * grid.weights

    def dual(v):
        return np.sqrt(v @ (v / quad))

    grad, res = ws.defect(ev, lam)
    scale = max(np.max(np.abs(t)) for t in terms)
    assert np.max(np.abs(grad - (terms[0] - terms[1] - terms[2]))) <= 1e-14 * scale
    assert res == pytest.approx(dual(grad) / max(dual(t) for t in terms), rel=1e-12)
    assert nl.weak_residual(u, lam, params) == res


def test_converged_residual_below_tolerance(pair):
    plus, minus = pair
    assert plus.converged and minus.converged
    assert plus.weak_residual <= 1e-4
    assert minus.weak_residual <= 1e-4


def test_reported_residual_is_the_public_weak_residual(params, pair):
    for res in pair:
        assert nl.weak_residual(res.solution, res.lam, params) == res.weak_residual


def test_weak_gradient_refuses_u_outside_the_positive_cone(params, grid, gaussian, lam):
    # grad_B takes u^(p-1), defined for u >= 0; a negative node is refused by
    # name rather than read as NaN
    vals = gaussian.values.copy()
    vals[5] = -1e-3 * vals.max()
    for fn in (nl.weak_residual, strong_form_defect):
        for u in (nl.GridFunction(grid, vals), nl.GridFunction(grid, np.zeros(grid.M))):
            with pytest.raises(NotInPositiveCone):
                fn(u, lam, params)


def test_one_w_u_per_evaluated_point(params, grid, estimate, lam, monkeypatch):
    # every evaluation is followed by one projection (initial ray,
    # backtracking trial, the final iterate's t): the projected point reuses
    # its evaluation, and the defect and the residual reuse the iterate's w_u
    calls = {"w_u": 0, "roots": 0}
    w_u, roots = functionals.FunctionalWorkspace.w_u, solver.nehari_roots

    def counted_w_u(self, *args):
        calls["w_u"] += 1
        return w_u(self, *args)

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
        # G u is scaled by t with u and matches a fresh product to rounding,
        # entry by entry on the scale |G| |u| of the terms it sums
        terms = dsbmv(2, 1.0, np.abs(ws.Gb), np.abs(scaled.u))
        assert np.all(np.abs(scaled.Gu - ws.apply_G(scaled.u)) <= 1e-14 * terms)
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


def _counted_sample_profile(monkeypatch):
    sigmas = []

    def counted(family, scale, grid, beta=None):
        sigmas.append(scale)
        return nl.sample_profile(family, scale, grid, beta)

    monkeypatch.setattr(solver, "sample_profile", counted)
    return sigmas


def test_initial_ray_samples_no_gaussian_when_init_hits(params, grid, estimate, lam,
                                                         monkeypatch):
    sigmas = _counted_sample_profile(monkeypatch)
    ws = workspace(grid, params)
    for branch in (Branch.NPLUS, Branch.NMINUS):
        ev = solver._initial_ray(ws, lam, branch, estimate.minimizer, grid, params)
        assert ev.u == pytest.approx(project_to_nehari(estimate.minimizer, lam, branch,
                                                       params).values, rel=1e-12)
    assert sigmas == []


def test_initial_ray_falls_back_in_reinit_order(params, grid, estimate, monkeypatch):
    # lambda above Lambda_n of init and of the Gaussians before the j-th, below
    # the j-th's: it is the first ray that hits, and the ones after it are
    # never sampled
    from neharilab.solver import REINIT_SIGMAS

    def lam_n(u):
        return float(nl.lambda_n(nl.reduced_triple(u, params), params.p, params.q))

    gaussians = [nl.sample_profile("gaussian", s, grid) for s in REINIT_SIGMAS]
    values = [lam_n(estimate.minimizer)] + [lam_n(u) for u in gaussians]
    j = next(k for k in range(1, len(REINIT_SIGMAS)) if values[k + 1] > max(values[:k + 1]))
    assert j < len(REINIT_SIGMAS) - 1
    lam = 0.5 * (max(values[:j + 1]) + values[j + 1])
    sigmas = _counted_sample_profile(monkeypatch)
    ws = workspace(grid, params)
    ev = solver._initial_ray(ws, lam, Branch.NPLUS, estimate.minimizer, grid, params)
    assert sigmas == list(REINIT_SIGMAS[:j + 1])
    hit = project_to_nehari(gaussians[j], lam, Branch.NPLUS, params)
    assert ev.u == pytest.approx(hit.values, rel=1e-12)
    # no init: the Gaussians alone, in the same order
    sigmas.clear()
    solver._initial_ray(ws, lam, Branch.NPLUS, None, grid, params)
    assert sigmas == list(REINIT_SIGMAS[:j + 1])


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


def test_nonstrict_returns_diagnostics_on_cap(params, grid, estimate, lam):
    res = minimize_on_branch(lam, Branch.NPLUS, estimate.minimizer, params, grid=grid,
                             opts=SolverOptions(tol=1e-15, max_iters=3))
    assert res.converged is False
    assert res.iterations >= 1
    assert np.isfinite(res.weak_residual)


# --- backtracking -------------------------------------------------------------------

def test_line_search_halves_to_the_first_accepted_length():
    # attempt sees s, s/2, s/4, ... with the target ARMIJO s slope; the first
    # length it accepts comes back with its point and value, and after
    # `tries` refusals the search gives up
    seen = []

    def attempt(s, target):
        seen.append((s, target))
        return ("point", -s) if s <= 0.25 else None

    assert solver.line_search(attempt, 2.0, 3.0, 10) == ("point", -0.25, 0.25)
    assert seen == [(s, solver.ARMIJO * s * 3.0) for s in (2.0, 1.0, 0.5, 0.25)]
    seen.clear()
    assert solver.line_search(attempt, 2.0, 3.0, 3) is None
    assert [s for s, _ in seen] == [2.0, 1.0, 0.5]


def _spied_to_branch(monkeypatch, miss=lambda k: False):
    """Record (point handed in, point returned) for each solver._to_branch
    call, copied around its in-place scaling; call k misses when miss(k)."""
    calls, to_branch = [], solver._to_branch

    def spy(params, ev, lam, branch):
        before = ev.u.copy()
        if miss(len(calls)):
            calls.append((before, None))
            raise RayMissesNehari("a miss on purpose")
        out = to_branch(params, ev, lam, branch)
        calls.append((before, out.u.copy()))
        return out

    monkeypatch.setattr(solver, "_to_branch", spy)
    return calls


def test_backtracking_halves_past_a_trial_clipped_to_zero(params, grid, estimate, lam,
                                                          monkeypatch):
    # along x = 4 u the trials s = 1, 1/2, 1/4 clip to zero everywhere: they
    # are skipped unevaluated, and the first trial evaluated is u - u / 2
    calls = _spied_to_branch(monkeypatch)
    monkeypatch.setattr(functionals.FunctionalWorkspace, "solve_shifted",
                        lambda self, shift, r: 4.0 * calls[0][1])
    minimize_on_branch(lam, Branch.NPLUS, estimate.minimizer, params, grid=grid,
                       opts=SolverOptions(max_iters=1))
    assert np.array_equal(calls[1][0], 0.5 * calls[0][1])


def test_backtracking_halves_past_a_ray_that_misses(params, grid, estimate, lam, monkeypatch):
    # a trial whose ray carries no Nehari point is skipped as a rejected one
    # is: the next trial takes half the step, and the iteration goes on
    calls = _spied_to_branch(monkeypatch, miss=lambda k: k == 1)
    res = minimize_on_branch(lam, Branch.NPLUS, estimate.minimizer, params, grid=grid,
                             opts=SolverOptions(max_iters=1))
    (_, u), (first, missed), (second, _) = calls[:3]
    assert missed is None and res.iterations == 1
    pos = first > 0.0   # so second > 0 there too
    half = 0.5 * (u[pos] - first[pos])
    assert np.all(np.abs(u[pos] - second[pos] - half) <= 1e-15 * (u[pos] + np.abs(first[pos])))


def test_no_accepted_step_ends_the_solve_at_its_start(params, grid, estimate, lam,
                                                      monkeypatch):
    # when no trial of a step is accepted the backtracking gives up after
    # BACKTRACK_MAX trials, and the solve returns its start, unconverged
    calls = _spied_to_branch(monkeypatch, miss=lambda k: k > 0)
    res = minimize_on_branch(lam, Branch.NMINUS, estimate.minimizer, params, grid=grid)
    assert len(calls) == 1 + solver.BACKTRACK_MAX
    assert res.iterations == 0 and res.energy_history == [res.energy]
    assert not res.converged
    assert np.array_equal(res.solution.values, calls[0][1])


# --- N- Newton-Krylov step ---------------------------------------------------------

@pytest.mark.parametrize("mu", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("p", [2.0, 3.5])
def test_branch_hessian_matches_defect_difference(grid, mu, p):
    # On directions tangent to N- at u ((Hu).v = 0) the rank-one term
    # vanishes and H_hat v is the derivative of the weak gradient J'; along
    # u itself H_hat must vanish.  The floored nodes are left out: there the
    # defect depends on u only through the floor FLOOR_FACTOR * max(u).
    # alpha = 0.2 keeps p = 3.5 inside the exponent window at mu = 2.
    prm = nl.validate(dataclasses.replace(nl.ProblemParams(), alpha=0.2, mu=mu, p=p))
    ws = workspace(grid, prm)
    gauss = nl.sample_profile("gaussian", 1.0, grid)
    lam = 0.5 * float(nl.lambda_n(nl.reduced_triple(gauss, prm), p, prm.q))
    u = project_to_nehari(gauss, lam, Branch.NMINUS, prm).values
    ev = ws.evaluate(u)
    hu = ws.hessian(ev, ws.singular_diag(u, lam * (1.0 - prm.q)))(u)
    hess = solver._branch_hessian(ws, ev, ws.singular_diag(u, lam * (1.0 - prm.q)))

    def gradient(vals):
        return ws.defect(ws.evaluate(vals), lam)[0]

    assert u @ hu < 0.0   # N-: the ray direction carries negative curvature
    assert np.max(np.abs(hess(u))) <= 1e-12 * np.max(np.abs(hu))
    live = ws.floored(u) == u
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
    diag = ws.singular_diag(u, lam * (1.0 - prm.q))
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
