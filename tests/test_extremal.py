import dataclasses
import tracemalloc

import numpy as np
import pytest

import neharilab as nl
from neharilab import extremal, functionals, solver
from neharilab.errors import EmptyFamily, GridError, ProfileNotInX, UnsupportedDimension
from neharilab.extremal import (
    DEFAULT_FAMILIES,
    DEFAULT_SIGMAS,
    KKT_TOL,
    DescentOptions,
    estimate_lambda_star,
    family_sweep,
    refine_descent,
)
from neharilab.fibering import lambda_e, lambda_n, scale_triple
from neharilab.functionals import workspace
from neharilab.params import B_FORMS, critical_exponents, gamma3_window, gamma4_floor
from neharilab.solver import truncated_pcg

from oracles import lattice_values, loop_family_sweep


def test_family_sweep_pinned_gaussian_lattice(params, grid):
    # single gaussian family over sigma in {0.5, 1, 2}: the least of the three
    # profiles' values; pinned as a regression fixture (R=16, M=128, g=2)
    lattice = ([("gaussian", None)], [0.5, 1.0, 2.0], grid, params)
    val, best = family_sweep(*lattice)
    values = [v for v, _ in lattice_values(*lattice)]
    assert len(values) == 3
    assert val == min(values)
    assert val == pytest.approx(1.7390513300045138, rel=1e-9)


def test_family_sweep_scale_invariance(params, grid):
    # Lambda_n is 0-homogeneous: doubling a profile's amplitude leaves its value
    u = nl.sample_profile("gaussian", 1.0, grid)
    t1 = nl.reduced_triple(u, params)
    t2 = nl.reduced_triple(u.scaled(2.0), params)
    assert float(lambda_n(t2, params.p, params.q)) == pytest.approx(
        float(lambda_n(t1, params.p, params.q)), rel=1e-12
    )


def test_family_sweep_empty_rejected(params, grid):
    with pytest.raises(EmptyFamily):
        family_sweep([], [1.0], grid, params)
    with pytest.raises(EmptyFamily):
        family_sweep([("gaussian", None)], [], grid, params)


def _assert_sweeps_agree(got, want):
    (val, best), (oval, obest) = got, want
    assert np.array_equal(best.values, obest.values)
    assert best.values.base is None   # its own array, not a view of a block
    assert val == oval


@pytest.mark.parametrize("mu, M", [(1.0, 16), (1.0, 128), (1.0, 1024), (1.0, 4096),
                                   (1.5, 256)])
def test_family_sweep_matches_the_per_profile_loop(mu, M):
    # the sweep keeps only the (E, A, B) floats and takes Lambda_n of them in
    # one lambda_n call; mu = 1.5 goes through the dense kernel
    prm = dataclasses.replace(nl.ProblemParams(), mu=mu)
    g = nl.build_radial_grid(20.0, M, 2.0)
    args = (DEFAULT_FAMILIES, DEFAULT_SIGMAS, g, prm)
    _assert_sweeps_agree(family_sweep(*args), loop_family_sweep(*args))


def test_family_sweep_skips_rows_outside_the_cone(params, grid, monkeypatch):
    # the first scale of each family gets a negative node, or a factor 1e-200
    # that keeps it in the cone but underflows E and B to 0
    sample = extremal.sample_profile
    for damage in ("negative-node", "underflowing-B"):
        def first_scale_damaged(family, scale, grid, beta=None):
            u = sample(family, scale, grid, beta=beta)
            if scale == DEFAULT_SIGMAS[0]:
                if damage == "negative-node":
                    u.values[5] = -1e-3
                else:
                    u.values *= 1e-200
            return u

        monkeypatch.setattr(extremal, "sample_profile", first_scale_damaged)
        got = family_sweep(DEFAULT_FAMILIES, DEFAULT_SIGMAS, grid, params)
        _assert_sweeps_agree(got, loop_family_sweep(DEFAULT_FAMILIES, DEFAULT_SIGMAS[1:],
                                                    grid, params))

    def all_zero(family, scale, grid, beta=None):
        return nl.GridFunction(grid, np.zeros(grid.size))

    monkeypatch.setattr(extremal, "sample_profile", all_zero)
    with pytest.raises(EmptyFamily, match="positive cone"):
        family_sweep(DEFAULT_FAMILIES, DEFAULT_SIGMAS, grid, params)


def test_family_sweep_on_a_grid_no_profile_survives_names_the_grid(params):
    # at R = 1e61, M = 64 the first node is 6.1e56: every gaussian is 0 at
    # every node, and every inverse_poly's B underflows to 0 while E and A
    # stay positive; this once ended in a bare ZeroB from lambda_n
    g = nl.build_radial_grid(1e61, 64)
    E, A, B = workspace(g, params).evaluate(
        nl.sample_profile("inverse_poly", 1.0, g, beta=1.5).values).triple.as_tuple()
    assert E > 0.0 and A > 0.0 and B == 0.0
    message = r"on the grid R = 1e\+61, M = 64, first node 6.1e\+56$"
    with pytest.raises(EmptyFamily, match=message):
        family_sweep(DEFAULT_FAMILIES, DEFAULT_SIGMAS, g, params)
    with pytest.raises(EmptyFamily, match=message):
        estimate_lambda_star(params, g)


@pytest.mark.parametrize("sweep", [family_sweep, loop_family_sweep])
def test_family_sweep_refuses_a_cartesian_grid(params, sweep):
    # the energy norm is radial
    cg = nl.build_cartesian_grid(3.0, 8)
    with pytest.raises(UnsupportedDimension, match="radial grids"):
        sweep(DEFAULT_FAMILIES, DEFAULT_SIGMAS, cg, params)
    if sweep is family_sweep:   # refused before a workspace or its FFT kernel is built
        assert cg not in functionals._workspaces


@pytest.mark.parametrize("sweep", [family_sweep, loop_family_sweep])
def test_family_sweep_errors_and_warnings(params, grid, sweep):
    with pytest.raises(EmptyFamily):
        sweep([], [1.0], grid, params)
    with pytest.raises(GridError, match="unknown profile family 'sobolev_bump'"):
        sweep([("gaussian", None), ("sobolev_bump", None)], [1.0], grid, params)
    with pytest.raises(GridError, match="scale must be positive"):
        sweep([("gaussian", None)], [1.0, 0.0], grid, params)
    with pytest.raises(GridError, match="scale must be positive and finite, got nan"):
        sweep([("gaussian", None)], [1.0, np.nan], grid, params)
    with pytest.warns(ProfileNotInX):
        val, _ = sweep([("inverse_poly", 0.4)], [0.5, 1.0], grid, params)
    assert np.isfinite(val)


def _extra_peak(fn, *args):
    fn(*args)   # warm: the workspace, its kernel and every cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("M", [256, 1024, 4096])
def test_family_sweep_memory_is_bounded_by_the_loop(params, M):
    # the sweep keeps three floats per profile and no profile but the one
    # it evaluates
    g = nl.build_radial_grid(20.0, M, 2.0)
    args = (DEFAULT_FAMILIES, DEFAULT_SIGMAS, g, params)
    assert _extra_peak(family_sweep, *args) <= _extra_peak(loop_family_sweep, *args) + 128 * 1024


def test_refine_descent_decreases_from_sweep_winner(params, grid):
    _, start = family_sweep([("gaussian", None)], [0.5, 1.0, 2.0], grid, params)
    start_val = float(lambda_n(nl.reduced_triple(start, params), params.p, params.q))
    val, minimizer, history, _ = refine_descent(start, params)
    assert val <= start_val
    assert history == sorted(history, reverse=True)  # monotone decrease
    assert minimizer.in_positive_cone


def test_refine_descent_multi_start_consistency(params, grid):
    vals = []
    for family, beta, sigma in (("gaussian", None, 1.0), ("inverse_poly", 1.5, 0.7)):
        start = nl.sample_profile(family, sigma, grid, beta=beta)
        val, _, _, _ = refine_descent(start, params)
        vals.append(val)
    assert abs(vals[0] - vals[1]) <= 0.01 * min(vals)


def _admissible_params(rng):
    # each parameter from the inner 90% of its window, given the ones before
    # it; mu = 1 (the O(M) kernel) about a third of the time, b of either form
    def inner(lo, hi):
        return float(lo + (hi - lo) * rng.uniform(0.05, 0.95))

    mu = 1.0 if rng.uniform() < 0.3 else inner(0.0, 3.0)
    alpha = inner(0.0, (3.0 - mu) / 2.0)
    q = inner(0.0, 1.0)
    p = inner(*critical_exponents(3, alpha, mu))
    g4 = gamma4_floor(3, alpha, mu, p, q)
    return nl.ProblemParams(alpha=alpha, mu=mu, p=p, q=q, gamma3=inner(*gamma3_window(3, q)),
                            gamma4=inner(g4, g4 + 2.0), b_form=str(rng.choice(B_FORMS)))


@pytest.mark.parametrize("seed", range(20))
def test_default_lattice_keeps_lambda_star_of_the_wider_one(seed):
    # inverse_poly with beta = 1.0 never won the lattice on sampled admissible
    # sets, so it was dropped: putting it back leaves lambda* bit for bit
    prm = nl.validate(_admissible_params(np.random.default_rng([2025, seed])))
    g = nl.build_radial_grid(20.0, 64, 2.0)
    wider = DEFAULT_FAMILIES + (("inverse_poly", 1.0),)
    assert estimate_lambda_star(prm, g).lambda_star == \
        estimate_lambda_star(prm, g, families=wider).lambda_star


def test_estimate_upper_bound_property(params, grid, estimate):
    # every lattice profile certifies Lambda_n(u) >= reported lambda*
    values = [v for v, _ in lattice_values(DEFAULT_FAMILIES, DEFAULT_SIGMAS, grid, params)]
    assert len(values) == len(DEFAULT_FAMILIES) * len(DEFAULT_SIGMAS)
    for value in values:
        assert value >= estimate.lambda_star - 1e-12 * estimate.lambda_star
    assert estimate.lambda_star > 0.0


def test_estimate_regression_value(estimate):
    # regression fixture on the test grid (R=16, M=128, grading=2)
    assert estimate.lambda_star == pytest.approx(1.16854, rel=1e-3)


def test_lambda_sub_exact_ratio(params, estimate):
    ratio = nl.fibering_constants(params.p, params.q).ratio
    assert estimate.lambda_sub == pytest.approx(ratio * estimate.lambda_star, rel=1e-12)


def test_lambda_e_pointwise_ratio_on_lattice(params, grid):
    # independently minimizing Lambda_e over the same lattice yields
    # ratio * (Lambda_n minimum): the two lattices share argmins
    ratio = nl.fibering_constants(params.p, params.q).ratio
    vals_n, vals_e = [], []
    for sigma in (0.5, 0.7, 1.0, 1.4, 2.0):
        u = nl.sample_profile("gaussian", sigma, grid)
        t = nl.reduced_triple(u, params)
        vals_n.append(float(lambda_n(t, params.p, params.q)))
        vals_e.append(float(lambda_e(t, params.p, params.q)))
        assert vals_e[-1] == pytest.approx(ratio * vals_n[-1], rel=1e-12)
    assert min(vals_e) == pytest.approx(ratio * min(vals_n), rel=1e-10)


def test_descent_zero_gradient_no_move(params, grid, estimate):
    # restarting at the converged minimizer takes at most one step, never
    # raises the value and moves lambda* by no more than rounding
    val0 = float(lambda_n(nl.reduced_triple(estimate.minimizer, params), params.p, params.q))
    val, _, history, _ = refine_descent(estimate.minimizer, params,
                                        DescentOptions(max_iters=40))
    assert len(history) - 1 <= 1
    assert val <= val0
    assert val <= estimate.lambda_star
    assert val == pytest.approx(estimate.lambda_star, rel=1e-12)


# --- Newton-Krylov refinement on the E = 1 sphere ------------------------------

def _kappa_nu(prm):
    """The exponents of log Lambda_n = kappa log E - log A - nu log B + const."""
    p, q = prm.p, prm.q
    return (2 * p - q) / (2 * p - 2), (2 - q) / (2 * p - 2)


@pytest.mark.parametrize("mu", [1.0, 1.5])
def test_log_lambda_n_hessian_matches_gradient_difference(grid, mu):
    # On G-tangent directions v the product is the tangent part of the
    # derivative of grad log Lambda_n; a strictly positive profile keeps every
    # node above the floor of A's gradient
    prm = nl.validate(dataclasses.replace(nl.ProblemParams(), mu=mu))
    ws, (kappa, nu) = workspace(grid, prm), _kappa_nu(prm)
    u = nl.sample_profile("inverse_poly", 0.7, grid, beta=1.5).values
    ev = ws.evaluate(u)
    gA, gB = extremal._log_gradient(ws, ev, kappa, nu)[1:]
    hess = extremal._newton_system(ws, ev, gA, gB, kappa, nu)[0]
    gu = ws.apply_G(u)
    E = float(u @ gu)

    def gradient(vals):
        return extremal._log_gradient(ws, ws.evaluate(vals), kappa, nu)[0]

    eps = 1e-5
    for psi in (np.sin(1.3 * grid.nodes), np.exp(-0.3 * grid.nodes), grid.nodes / (1.0 + grid.nodes)):
        v = psi * u
        v -= (gu @ v) / E * u
        fd = (gradient(u + eps * v) - gradient(u - eps * v)) / (2.0 * eps)
        fd -= (u @ fd) / E * gu   # its tangent part
        hv = hess(v)
        assert np.max(np.abs(fd - hv)) <= 1e-6 * np.max(np.abs(hv))


@pytest.mark.parametrize("case, max_steps", [("test-grid", 7), ("general-256", 15)])
def test_refinement_reaches_kkt_tolerance(params, grid, estimate, case, max_steps):
    # measured: 5 steps on the test grid, 12 at mu = 1.5, p = 3.5, b = 1, M = 256
    if case == "test-grid":
        prm, est = params, estimate
    else:
        prm = nl.validate(dataclasses.replace(nl.ProblemParams(), mu=1.5, p=3.5,
                                              b_form="constant"))
        est = estimate_lambda_star(prm, nl.build_radial_grid(20.0, 256, 2.0))
    assert est.kkt_residual <= KKT_TOL
    assert len(est.descent_values) - 1 <= max_steps
    # the reported residual is that of the returned minimizer
    ws = workspace(est.minimizer.grid, prm)
    g = extremal._log_gradient(ws, ws.evaluate(est.minimizer.values), *_kappa_nu(prm))[0]
    assert np.sqrt(g @ ws.solve_G(g)) == pytest.approx(est.kkt_residual, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("overrides", [{}, {"mu": 1.5, "p": 3.5, "b_form": "constant"}],
                         ids=["default", "general"])
def test_refinement_iterates_stay_positive_and_descend(grid, monkeypatch, overrides):
    # every trial point the refinement evaluates keeps all nodes positive: a
    # step lowers a node to at most FLOOR times its value, never to zero.  In
    # the general case full Newton steps overshoot the tail, where a clip to
    # zero would zero nodes.
    params = nl.validate(dataclasses.replace(nl.ProblemParams(), **overrides))
    start = nl.sample_profile("inverse_poly", 0.7, grid, beta=1.5)
    ws = workspace(grid, params)
    evaluate, smallest = ws.evaluate, []

    def spy(vals):
        smallest.append(float(np.min(vals)))
        return evaluate(vals)

    monkeypatch.setattr(ws, "evaluate", spy)
    val, minimizer, history, kkt = refine_descent(start, params)
    assert len(smallest) >= len(history) > 1   # the start, then every trial
    assert min(smallest) > 0.0
    assert history == sorted(history, reverse=True)   # no accepted step rises
    assert val == history[-1] and kkt <= KKT_TOL
    at_minimizer = float(lambda_n(nl.reduced_triple(minimizer, params), params.p, params.q))
    assert val == pytest.approx(at_minimizer, rel=1e-14)


# mu, p, q, alpha (b = inverse_poly, other parameters default) where two
# rounded values of Lambda_n cannot confirm the last decreases: a test on
# their quotient alone stops at a KKT residual of 3.5e-8 (rounding the
# parameters hides this)
ROUNDING_STALL = {"mu": 1.5384186600273857, "p": 3.4088480231755236,
                  "q": 0.8492518179809778, "alpha": 0.11978813903018636,
                  "b_form": "inverse_poly"}


def test_refinement_converges_where_rounded_values_stall(grid):
    params = nl.validate(dataclasses.replace(nl.ProblemParams(), **ROUNDING_STALL))
    est = estimate_lambda_star(params, grid)
    assert est.kkt_residual <= KKT_TOL
    assert est.descent_values == sorted(est.descent_values, reverse=True)


def _step_to(ws, u, v):
    """The evaluations of u and of v scaled to E = 1, and log(Lambda_n(u) /
    Lambda_n(v)) from the two rounded values."""
    prm = ws.params
    ev = ws.evaluate(u / np.sqrt(ws.norm_sq(u)))
    trial = ws.evaluate(v / np.sqrt(ws.norm_sq(v)))
    quotient = np.log(float(lambda_n(ev.triple, prm.p, prm.q))
                      / float(lambda_n(trial.triple, prm.p, prm.q)))
    return ev, trial, quotient


@pytest.mark.parametrize("mu", [1.0, 1.5])
def test_difference_form_decrease_matches_the_quotient(grid, mu):
    # a step of relative size 1e-3 from a profile far from the minimizer:
    # the quotient of two rounded values resolves it to ~1e-12
    params = nl.validate(dataclasses.replace(nl.ProblemParams(), mu=mu))
    ws, (kappa, nu) = workspace(grid, params), _kappa_nu(params)
    u = nl.sample_profile("inverse_poly", 0.7, grid, beta=1.5).values
    ev, trial, quotient = _step_to(ws, u, u * (1.0 + 1e-3 * np.sin(1.3 * grid.nodes)))
    decrease = extremal._log_decrease(ws, ev, trial, kappa, nu)
    assert decrease == pytest.approx(quotient, rel=1e-8)


def test_difference_form_resolves_a_decrease_below_rounding(params, grid, estimate):
    # At the converged minimizer (KKT residual ~5e-9) the Newton step's
    # predicted decrease, slope / 2 for any CG iterate, is far below the
    # rounding of log Lambda_n, and the quotient of two rounded values cannot
    # resolve it; the difference form recovers it
    ws, (kappa, nu) = workspace(grid, params), _kappa_nu(params)
    u = estimate.minimizer.values / np.sqrt(ws.norm_sq(estimate.minimizer.values))
    ev = ws.evaluate(u)
    g, gA, gB = extremal._log_gradient(ws, ev, kappa, nu)
    hess, precondition = extremal._newton_system(ws, ev, gA, gB, kappa, nu)
    x, slope, newton = truncated_pcg(hess, precondition, g, extremal._kkt(ws, g))
    assert newton and 0.0 < extremal.ARMIJO * slope < extremal.ROUNDING
    ev, trial, quotient = _step_to(ws, u, np.maximum(u - x, extremal.FLOOR * u))
    decrease = extremal._log_decrease(ws, ev, trial, kappa, nu)
    assert decrease > 0.0
    assert decrease == pytest.approx(0.5 * slope, rel=1e-4)
    # the quotient moves in steps of ~1e-16, so not even within a factor 2
    assert not 0.5 * decrease < quotient < 2.0 * decrease


def test_evaluated_points_need_no_further_G_product(params, grid, estimate, monkeypatch):
    # evaluate forms G u once per point; the weak gradient, H u, grad log
    # Lambda_n, the difference form's dE and both tangent projections read it
    ws, (kappa, nu) = workspace(grid, params), _kappa_nu(params)
    u = estimate.minimizer.values
    ev, trial = ws.evaluate(u.copy()), ws.evaluate(1.01 * u)
    dsbmv, calls = functionals.dsbmv, []

    def counted(*args, **kwargs):
        calls.append(args)
        return dsbmv(*args, **kwargs)

    monkeypatch.setattr(functionals, "dsbmv", counted)
    ws.defect(ev, 0.5 * estimate.lambda_star)
    solver._hessian_along_u(ws, ev, ws.singular_diag(u, 0.5))
    g, gA, gB = extremal._log_gradient(ws, ev, kappa, nu)
    extremal._log_decrease(ws, ev, trial, kappa, nu)
    hess, precondition = extremal._newton_system(ws, ev, gA, gB, kappa, nu)
    precondition(g, np.empty_like(g))
    assert calls == []
    # a Hessian product applies G once, to its argument (ws.hessian's
    # weighted G v carries the 2 kappa G v / E part), not to u for its projection
    v = np.sin(grid.nodes) * u
    hess(v)
    assert len(calls) == 1 and calls[0][3] is v


def test_start_on_the_sphere_is_not_rescaled(params, grid, estimate):
    # a start with E = 1 to rounding is taken as it is, so a restart reads
    # the value its own evaluation gives; one off the sphere is scaled onto it
    ws = workspace(grid, params)
    on = estimate.minimizer.values * (1.0 + 1e-14)
    assert ws.norm_sq(on) != 1.0
    val, minimizer, history, _ = refine_descent(nl.GridFunction(grid, on), params,
                                                DescentOptions(max_iters=0))
    assert history == [val] and np.array_equal(minimizer.values, on)
    assert val == float(lambda_n(ws.evaluate(on).triple, params.p, params.q))
    val2, minimizer, _, _ = refine_descent(nl.GridFunction(grid, 2.0 * on), params,
                                           DescentOptions(max_iters=0))
    assert np.array_equal(minimizer.values, 2.0 * on / np.sqrt(ws.norm_sq(2.0 * on)))
    assert val2 == pytest.approx(val, rel=1e-14)


@pytest.mark.parametrize("overrides", [{}, {"mu": 1.5, "p": 3.5, "b_form": "constant"}],
                         ids=["default", "general"])
def test_refinement_below_rounding_never_raises_the_value(params, grid, estimate,
                                                          monkeypatch, overrides):
    # With no tolerance, a restart from the minimizer keeps stepping where the
    # predicted decrease of log Lambda_n is below rounding, so evaluations
    # cannot confirm it: a step is taken there only if it does not raise the
    # value, and the residual is reported where the iteration stops
    if overrides:
        params = nl.validate(dataclasses.replace(nl.ProblemParams(), **overrides))
        estimate = estimate_lambda_star(params, grid)
    monkeypatch.setattr(extremal, "KKT_TOL", 0.0)
    val, minimizer, history, kkt = refine_descent(estimate.minimizer, params,
                                                  DescentOptions(max_iters=30))
    assert len(history) > 1   # steps were taken below rounding
    assert history == sorted(history, reverse=True)
    assert val == history[-1] <= estimate.lambda_star
    ws = workspace(grid, params)
    g = extremal._log_gradient(ws, ws.evaluate(minimizer.values), *_kappa_nu(params))[0]
    assert np.sqrt(g @ ws.solve_G(g)) == pytest.approx(kkt, rel=1e-6, abs=1e-14)


def test_grid_refinement_shrinking_delta(params):
    opts = DescentOptions(max_iters=120)
    vals = []
    for M in (64, 128, 256):
        g = nl.build_radial_grid(16.0, M, 2.0)
        est = estimate_lambda_star(params, g, opts=opts)
        vals.append(est.lambda_star)
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    assert d2 < d1  # refinement delta shrinks
