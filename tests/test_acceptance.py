"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance and runtime budget and prints one
PASS line with the measured numbers (visible under `pytest -s`).  Criteria
1 - 5 exercise the exact fibering algebra against independent oracles;
6 - 10 run the full numerical stack on the default configuration
(radial R = 20, M = 256, grading 2).
"""

import time

import numpy as np
import pytest

import neharilab as nl
from neharilab import fibering as fib
from neharilab import sweep as sw
from neharilab.extremal import estimate_lambda_star
from neharilab.fibering import Branch
from neharilab.functionals import ReducedTriple, workspace
from neharilab.solver import project_to_nehari, solve_pair, strong_form_defect

from oracles import maximize_q_n, random_exponents, random_triples


def _report(num, name, detail, elapsed, budget):
    print(f"ACCEPTANCE {num:02d} PASS  {name}: {detail}  [{elapsed:.2f} s < {budget:.0f} s]")


@pytest.fixture(scope="module")
def acc_params():
    return nl.validate(nl.ProblemParams())


@pytest.fixture(scope="module")
def acc_grid():
    return nl.build_radial_grid(20.0, 256, 2.0)


@pytest.fixture(scope="module")
def acc_estimate(acc_params, acc_grid):
    return estimate_lambda_star(acc_params, acc_grid)


def test_criterion_01_fibering_closed_forms():
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_t, worst_l = 0.0, 0.0
    for _ in range(1000):
        E, A, B = 10.0 ** rng.uniform(-3, 3, 3)
        p = rng.uniform(1.2, 4.0)
        q = rng.uniform(0.05, 0.95)
        triple = ReducedTriple(E, A, B)
        t_star, q_max = maximize_q_n(E, A, B, p, q, decades=30, coarse=1000)
        t_closed = float(fib.t_max_n(triple, p, q))
        l_closed = float(fib.lambda_n(triple, p, q))
        worst_t = max(worst_t, abs(t_closed - t_star) / t_star)
        worst_l = max(worst_l, abs(l_closed - q_max) / q_max)
    elapsed = time.perf_counter() - start
    assert worst_t <= 1e-6
    assert worst_l <= 1e-8
    assert elapsed < budget
    _report(1, "fibering closed forms",
            f"max t_n err {worst_t:.2e} (tol 1e-6), max Lambda_n err {worst_l:.2e} (tol 1e-8)",
            elapsed, budget)


def test_criterion_02_quotient_identity():
    budget = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    n = 100_000
    tr = random_triples(rng, n)
    ps, qs = random_exponents(rng, n)
    ts = 10.0 ** rng.uniform(-2, 2, n)
    qn = fib.q_n(ts, tr, ps, qs)
    qe = fib.q_e(ts, tr, ps, qs)
    qep = fib.q_e_prime(ts, tr, ps, qs)
    scale = (ts ** (2 - qs) * tr.E + ts ** (2 * ps - qs) * tr.B) / tr.A
    worst = float(np.max(np.abs(qn - qe - ts / qs * qep) / scale))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < budget
    _report(2, "identity Q_n - Q_e = (t/q) Q_e'",
            f"max residual {worst:.2e} over {n} samples (tol 1e-10)", elapsed, budget)


def test_criterion_03_constant_ratio():
    budget = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    inside = True
    for _ in range(10_000):
        p = rng.uniform(1.05, 4.8)
        q = rng.uniform(0.02, 0.98)
        c = nl.fibering_constants(p, q)
        closed = q * p ** ((2 - q) / (2 * p - 2)) / 2.0
        worst = max(worst, abs(c.ratio - closed) / closed)
        inside = inside and (0.0 < c.ratio < 1.0)
    ref = nl.fibering_constants(2.0, 0.5).ratio
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert inside
    assert ref == pytest.approx(2.0**0.75 / 4.0, rel=1e-13)
    assert ref == pytest.approx(0.420448, rel=1e-5)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(3, "constant ratio",
            f"max identity err {worst:.2e} (tol 1e-12), ratio(2, 0.5) = {ref:.6f} in (0, 1)",
            elapsed, budget)


def test_criterion_04_two_root_structure():
    budget = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_res = 0.0
    for _ in range(250):
        tr = ReducedTriple(*(10.0 ** rng.uniform(-3, 3, 3)))
        p = rng.uniform(1.2, 4.0)
        q = rng.uniform(0.05, 0.95)
        Ln = float(fib.lambda_n(tr, p, q))
        lam = 0.5 * Ln
        roots = fib.nehari_roots(tr, lam, p, q)
        assert isinstance(roots, fib.TwoRoots)
        assert roots.t_plus < roots.t_n < roots.t_minus
        assert fib.phi_second(roots.t_plus, tr, lam, p, q) > 0.0
        assert fib.phi_second(roots.t_minus, tr, lam, p, q) < 0.0
        tangent = fib.nehari_roots(tr, Ln, p, q)
        assert isinstance(tangent, fib.DoubleRoot)
        rep = fib.degenerate_relations_check(fib.normalize_degenerate(tr, p, q), p, q)
        worst_res = max(worst_res, rep.residual_A, rep.residual_B)
    elapsed = time.perf_counter() - start
    assert worst_res <= 1e-10
    assert elapsed < budget
    _report(4, "two-root structure",
            f"t+ < t_n < t- with phi'' signs on 250 triples; "
            f"max degenerate residual {worst_res:.2e} (tol 1e-10)", elapsed, budget)


def test_criterion_05_monotonicity_and_derivative(acc_params):
    budget = 5.0
    start = time.perf_counter()
    tr = ReducedTriple(E=1.3, A=0.7, B=2.1)
    Ln = float(fib.lambda_n(tr, acc_params.p, acc_params.q))
    lams = np.linspace(0.05, 0.95, 32) * Ln
    tps, tms = [], []
    for lam in lams:
        roots = fib.nehari_roots(tr, float(lam), acc_params.p, acc_params.q)
        tps.append(roots.t_plus)
        tms.append(roots.t_minus)
    assert np.all(np.diff(tps) > 0.0)
    assert np.all(np.diff(tms) < 0.0)
    worst = 0.0
    for frac in (0.25, 0.5, 0.75):
        rep = sw.dJ_dlambda_check(tr, frac * Ln, acc_params)
        worst = max(worst, rep.rel_err_plus, rep.rel_err_minus)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5
    assert elapsed < budget
    _report(5, "monotone roots and dJ/dlambda",
            f"t+ strictly up, t- strictly down on 32-point grid; "
            f"max dJ/dlambda err {worst:.2e} (tol 1e-5)", elapsed, budget)


def test_criterion_06_engine_agreement():
    # gaussian profile with b = 1, alpha = 0.25, mu = 1, p = 2; the box is
    # sized to the profile (f = u^p is ~1e-11 of its peak at |x| = 3.5)
    budget = 60.0
    start = time.perf_counter()
    import dataclasses

    prm = dataclasses.replace(nl.ProblemParams(), b_form="constant")
    rgrid = nl.build_radial_grid(20.0, 512, 2.0)
    u_rad = nl.sample_profile("gaussian", 1.0, rgrid)
    B_rad = nl.steinweiss_B_radial(u_rad, prm)
    gaps = []
    for m in (12, 16, 20):
        cgrid = nl.build_cartesian_grid(3.5, m)
        u_cart = nl.sample_profile("gaussian", 1.0, cgrid)
        B_dir = nl.steinweiss_B_direct(u_cart, prm)
        gaps.append(abs(B_dir - B_rad) / B_rad)
    elapsed = time.perf_counter() - start
    assert gaps[-1] <= 0.02
    assert gaps[2] < gaps[1] < gaps[0]
    assert elapsed < budget
    _report(6, "engine agreement",
            f"gap at m=20: {gaps[-1]:.3%} (tol 2%), refinement {gaps[0]:.3%} -> "
            f"{gaps[1]:.3%} -> {gaps[2]:.3%}", elapsed, budget)


def test_criterion_07_solver_structure(acc_params, acc_grid, acc_estimate):
    budget = 300.0
    start = time.perf_counter()
    lam = 0.5 * acc_estimate.lambda_star
    plus, minus = solve_pair(lam, acc_params, acc_grid, init=acc_estimate.minimizer)
    elapsed = time.perf_counter() - start
    assert plus.converged and minus.converged
    assert plus.weak_residual <= 1e-4 and minus.weak_residual <= 1e-4
    assert plus.energy < 0.0
    assert plus.energy <= minus.energy
    assert fib.phi_second(1.0, plus.triple, lam, acc_params.p, acc_params.q) > 0.0
    assert fib.phi_second(1.0, minus.triple, lam, acc_params.p, acc_params.q) < 0.0
    assert plus.floored_mass < 0.01 and minus.floored_mass < 0.01
    assert elapsed < budget
    _report(7, "solver structure at lambda = 0.5 lambda*",
            f"residuals {plus.weak_residual:.1e}/{minus.weak_residual:.1e} (tol 1e-4), "
            f"J+ = {plus.energy:.4f} < 0, J+ <= J- = {minus.energy:.4f}, "
            f"floored {plus.floored_mass:.1e}/{minus.floored_mass:.1e}", elapsed, budget)


def test_criterion_08_bound_state_sign_change(acc_params, acc_grid, acc_estimate):
    budget = 900.0
    start = time.perf_counter()
    lams = sw.default_lambda_grid(acc_estimate.lambda_star, points=9,
                                  frac_min=0.25, frac_max=0.6, spacing="linear")
    reference = nl.reduced_triple(acc_estimate.minimizer, acc_params)
    result = sw.run_sweep(lams, acc_params, acc_grid, reference,
                          init=acc_estimate.minimizer)
    rep = sw.sign_change_locator(result.rows, acc_estimate.lambda_star, acc_params)
    elapsed = time.perf_counter() - start
    assert rep.n_sign_changes == 1
    assert rep.within_one_cell
    assert elapsed < budget
    _report(8, "bound-state sign change",
            f"crossing {rep.crossing:.5f} vs ratio*lambda* = {rep.target:.5f} "
            f"(gap {rep.gap:.2e}, cell {rep.cell:.3f}), single crossing", elapsed, budget)


def test_criterion_09_endpoint_probe(acc_params, acc_grid, acc_estimate):
    budget = 900.0
    start = time.perf_counter()
    rep = sw.endpoint_probe(acc_params, acc_grid, acc_estimate.lambda_star, K=6,
                            init=acc_estimate.minimizer)
    elapsed = time.perf_counter() - start
    assert all(rep.converged)
    for seq in (rep.energy_plus, rep.energy_minus):
        assert all(b < a for a, b in zip(seq, seq[1:]))
    for inc in (rep.increments_plus, rep.increments_minus):
        assert all(b < a for a, b in zip(inc, inc[1:]))
    assert all(e < 0.0 for e in rep.energy_plus)
    assert rep.no_collapse
    norms = rep.norms_minus
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(9, "endpoint probe",
            f"increments shrink (last {rep.increments_plus[-1]:.2e}/"
            f"{rep.increments_minus[-1]:.2e}), min ||w|| = {min(norms):.3f} >= "
            f"0.5 median {0.5 * float(np.median(norms)):.3f}", elapsed, budget)


def test_criterion_10_gradient_fidelity(acc_params, acc_grid):
    budget = 120.0
    start = time.perf_counter()
    ws = workspace(acc_grid, acc_params)
    rng = np.random.default_rng(1010)
    r = acc_grid.nodes
    worst = 0.0
    for _ in range(10):
        c = rng.uniform(0.4, 2.0)
        amp = rng.uniform(0.5, 2.0)
        shift = rng.uniform(0.5, 2.5)
        u = nl.GridFunction(acc_grid, amp * np.exp(-(r / c) ** 2)
                            + 0.3 * amp * np.exp(-(((r - shift) / 1.2) ** 2)))
        lam = 0.5 * float(fib.lambda_n(nl.reduced_triple(u, acc_params),
                                       acc_params.p, acc_params.q))
        branch = Branch.NPLUS if rng.uniform() < 0.5 else Branch.NMINUS
        proj = project_to_nehari(u, lam, branch, acc_params)
        g = strong_form_defect(proj, lam, acc_params)
        psi = 1.0 + 0.5 * np.sin(rng.uniform(0.5, 2.0) * r)
        pairing = ws.space_integral(g * psi * proj.values)
        eps = 1e-5

        def reduced(vals):
            pr = project_to_nehari(nl.GridFunction(acc_grid, vals), lam, branch, acc_params)
            return nl.energy(pr, lam, acc_params)

        fd = (reduced(proj.values * (1 + eps * psi))
              - reduced(proj.values * (1 - eps * psi))) / (2 * eps)
        worst = max(worst, abs(pairing - fd) / abs(fd))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < budget
    _report(10, "envelope gradient fidelity",
            f"max rel err vs reduced-energy finite differences {worst:.2e} "
            f"(tol 1e-4) over 10 profiles", elapsed, budget)
