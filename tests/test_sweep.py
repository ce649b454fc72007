import dataclasses

import numpy as np
import pytest

import neharilab as nl
from neharilab import solver
from neharilab import sweep as sw
from neharilab.errors import NoSignChange, RayMissesNehari
from neharilab.fibering import lambda_n


@pytest.fixture(scope="module")
def reference(params, estimate):
    return nl.reduced_triple(estimate.minimizer, params)


@pytest.fixture(scope="module")
def sweep_result(params, grid, estimate, reference):
    lams = sw.default_lambda_grid(estimate.lambda_star, points=9,
                                  frac_min=0.2, frac_max=0.65, spacing="linear")
    return sw.run_sweep(lams, params, grid, reference, init=estimate.minimizer)


def test_lambda_grid_shapes():
    g_lin = sw.default_lambda_grid(1.0, points=8, spacing="linear")
    assert len(g_lin) == 8 and np.all(np.diff(g_lin) > 0)
    g_geo = sw.default_lambda_grid(1.0, points=8, spacing="geometric")
    # geometric spacing clusters toward lambda*
    assert np.diff(g_geo)[-1] < np.diff(g_geo)[0]
    g_auto = sw.default_lambda_grid(1.0, points=9, spacing="auto")
    assert len(g_auto) == 9 and np.all(np.diff(g_auto) > 0)
    with pytest.raises(ValueError):
        sw.default_lambda_grid(1.0, frac_min=0.9, frac_max=0.1)


def test_default_auto_grid_is_unchanged():
    # linear from 0.15 below 0.5, geometric in 1 - frac from 0.5 to 0.85
    ref = np.concatenate([np.linspace(0.15, 0.5, 4, endpoint=False),
                          1.0 - np.exp(np.linspace(np.log(0.5), np.log(0.15), 5))])
    assert np.array_equal(sw.default_lambda_grid(1.0), ref)


@pytest.mark.parametrize("window", [(0.6, 0.85), (0.15, 0.4), (0.5, 0.9), (0.1, 0.5)])
@pytest.mark.parametrize("points", [2, 3, 9])
def test_auto_grid_stays_inside_its_window(window, points):
    frac = sw.default_lambda_grid(1.0, points=points, frac_min=window[0],
                                  frac_max=window[1], spacing="auto")
    assert len(frac) == points and np.all(np.diff(frac) > 0)
    assert frac[0] == window[0] and frac[-1] == window[1]
    assert window[0] <= frac.min() and frac.max() <= window[1]


@pytest.mark.parametrize("spacing", ["linear", "geometric"])
@pytest.mark.parametrize("points", [2, 3, 9])
def test_every_spacing_ends_at_its_window(spacing, points):
    # 1 - exp(log(1 - 0.15)) is not 0.15 in floating point
    frac = sw.default_lambda_grid(1.0, points=points, spacing=spacing)
    assert len(frac) == points and np.all(np.diff(frac) > 0)
    assert frac[0] == 0.15 and frac[-1] == 0.85


def test_rows_sorted_and_converged(sweep_result):
    lams = [r.lam for r in sweep_result.rows]
    assert lams == sorted(lams)
    assert len(sweep_result.converged_rows()) == len(sweep_result.rows)
    for r in sweep_result.rows:
        assert r.residual_plus <= 1e-4 and r.residual_minus <= 1e-4


def test_all_ground_states_negative(sweep_result):
    for r in sweep_result.rows:
        assert r.energy_plus < 0.0


def test_fixed_profile_root_monotonicity(sweep_result):
    tp = [r.t_plus for r in sweep_result.rows]
    tm = [r.t_minus for r in sweep_result.rows]
    assert np.all(np.diff(tp) > 0.0)
    assert np.all(np.diff(tm) < 0.0)


def test_solver_energies_decreasing(sweep_result):
    rows = sweep_result.converged_rows()
    ep = [r.energy_plus for r in rows]
    em = [r.energy_minus for r in rows]
    assert np.all(np.diff(ep) < 0.0)
    assert np.all(np.diff(em) < 0.0)


def test_bound_state_norm_no_collapse_across_sweep(sweep_result):
    norms = [r.norm_minus for r in sweep_result.converged_rows()]
    assert min(norms) >= 0.5 * float(np.median(norms))


def test_wide_window_sweep_ground_states_negative(params, grid, estimate, reference):
    # 8-point grid spanning (0.1, 0.9) lambda*: every converged ground state
    # has negative energy
    lams = sw.default_lambda_grid(estimate.lambda_star, points=8,
                                  frac_min=0.1, frac_max=0.9, spacing="linear")
    res = sw.run_sweep(lams, params, grid, reference, init=estimate.minimizer)
    conv = res.converged_rows()
    assert len(conv) == 8
    assert all(r.energy_plus < 0.0 for r in conv)


# --- continuation ------------------------------------------------------------------

def test_continued_rows_match_cold_solves(params, grid, estimate, sweep_result, endpoint):
    # each row, continued from the rows below, lands on the solutions a cold
    # solve from the lambda* minimizer finds
    rows = [(r.lam, r.energy_plus, r.energy_minus) for r in sweep_result.rows]
    rows += zip(endpoint.lambdas, endpoint.energy_plus, endpoint.energy_minus)
    for lam, ep, em in rows:
        plus, minus = solver.solve_pair(lam, params, grid, init=estimate.minimizer)
        assert ep == pytest.approx(plus.energy, rel=1e-6)
        assert em == pytest.approx(minus.energy, rel=1e-6)


def _branch_iterations(monkeypatch):
    counts = {"Nplus": 0, "Nminus": 0}
    minimize = solver.minimize_on_branch

    def counted(*args, **kwargs):
        result = minimize(*args, **kwargs)
        counts[result.branch.value] += result.iterations
        return result

    monkeypatch.setattr(solver, "minimize_on_branch", counted)
    return counts


def test_default_sweep_takes_fewer_iterations_than_cold_starts(params, grid, estimate,
                                                               reference, monkeypatch):
    lams = sw.default_lambda_grid(estimate.lambda_star)
    counts = _branch_iterations(monkeypatch)
    res = sw.run_sweep(lams, params, grid, reference, init=estimate.minimizer)
    assert len(res.converged_rows()) == len(lams)
    continued = dict(counts)
    counts.update(Nplus=0, Nminus=0)
    for lam in lams:
        solver.solve_pair(float(lam), params, grid, init=estimate.minimizer)
    assert continued["Nplus"] < counts["Nplus"]
    assert continued["Nminus"] < counts["Nminus"]


def test_unconverged_row_is_not_a_predictor_base(params, grid, estimate, reference,
                                                 monkeypatch):
    # row 3 is reported unconverged with a corrupted solution: row 4 must
    # extrapolate from rows 1 and 2, as row 3 did
    starts, results = [], []

    def solve(lam, *args, init=None, **kwargs):
        pair = solver.solve_pair(lam, *args, init=init, **kwargs)
        if len(starts) == 2:
            pair = tuple(dataclasses.replace(r, converged=False, solution=r.solution.scaled(3.0))
                         for r in pair)
        starts.append(init)
        results.append(pair)
        return pair

    monkeypatch.setattr(sw, "solve_pair", solve)
    lams = estimate.lambda_star * np.array([0.3, 0.4, 0.45, 0.5])
    res = sw.run_sweep(lams, params, grid, reference, init=estimate.minimizer)
    assert [r.converged_minus for r in res.rows] == [True, True, False, True]
    assert starts[0] is estimate.minimizer
    assert starts[1][0] is results[0][0].solution and starts[1][1] is results[0][1].solution
    for row in (2, 3):
        f = (lams[row] - lams[1]) / (lams[1] - lams[0])
        for start, r0, r1 in zip(starts[row], results[0], results[1]):
            u0, u1 = r0.solution.values, r1.solution.values
            np.testing.assert_array_equal(start.values, np.clip(u1 + f * (u1 - u0), 0.0, None))


# --- sign change -------------------------------------------------------------------

def test_sign_change_location(params, estimate, sweep_result):
    rep = sw.sign_change_locator(sweep_result.rows, estimate.lambda_star, params)
    assert rep.n_sign_changes == 1
    assert rep.within_one_cell
    ratio = nl.fibering_constants(params.p, params.q).ratio
    assert rep.target == pytest.approx(ratio * estimate.lambda_star, rel=1e-12)
    # rows left of the crossing have positive bound-state energy, right negative
    for r in sweep_result.converged_rows():
        if r.lam < rep.crossing:
            assert r.energy_minus > 0.0
        elif r.lam > rep.crossing:
            assert r.energy_minus < 0.0


def test_sign_change_refinement_shrinks_bracket(params, grid, estimate, reference):
    coarse = sw.run_sweep(
        sw.default_lambda_grid(estimate.lambda_star, points=5, frac_min=0.3,
                               frac_max=0.55, spacing="linear"),
        params, grid, reference, init=estimate.minimizer)
    fine = sw.run_sweep(
        sw.default_lambda_grid(estimate.lambda_star, points=9, frac_min=0.3,
                               frac_max=0.55, spacing="linear"),
        params, grid, reference, init=estimate.minimizer)
    rc = sw.sign_change_locator(coarse.rows, estimate.lambda_star, params)
    rf = sw.sign_change_locator(fine.rows, estimate.lambda_star, params)
    assert rf.cell < rc.cell


def test_row_failures_recorded_not_fatal(params, grid, estimate, reference):
    # a lambda above every sampled ray cannot be solved; the row is recorded
    # as unconverged instead of aborting the sweep
    from neharilab.solver import REINIT_SIGMAS

    sampled = [estimate.minimizer] + [
        nl.sample_profile("gaussian", s, grid) for s in REINIT_SIGMAS
    ]
    lam_big = 2.0 * max(
        float(lambda_n(nl.reduced_triple(u, params), params.p, params.q)) for u in sampled
    )
    lams = np.array([0.5 * estimate.lambda_star, lam_big])
    res = sw.run_sweep(lams, params, grid, reference, init=estimate.minimizer)
    assert len(res.rows) == 2
    assert res.rows[0].converged_plus and res.rows[0].converged_minus
    assert not res.rows[1].converged_plus and not res.rows[1].converged_minus
    assert np.isnan(res.rows[1].energy_plus)
    assert len(res.converged_rows()) == 1


def test_no_sign_change_outside_window(params, grid, estimate, reference):
    lams = sw.default_lambda_grid(estimate.lambda_star, points=3, frac_min=0.55,
                                  frac_max=0.8, spacing="linear")
    res = sw.run_sweep(lams, params, grid, reference, init=estimate.minimizer)
    with pytest.raises(NoSignChange):
        sw.sign_change_locator(res.rows, estimate.lambda_star, params)


# --- endpoint probe -------------------------------------------------------------------

@pytest.fixture(scope="module")
def endpoint(params, grid, estimate):
    return sw.endpoint_probe(params, grid, estimate.lambda_star, K=6,
                             init=estimate.minimizer)


def test_endpoint_all_converged(endpoint):
    assert all(endpoint.converged)


def test_endpoint_increments_shrink(endpoint):
    for seq in (endpoint.increments_plus, endpoint.increments_minus):
        assert all(b < a for a, b in zip(seq, seq[1:]))


def test_endpoint_energies_decreasing(endpoint):
    assert all(b < a for a, b in zip(endpoint.energy_plus, endpoint.energy_plus[1:]))
    assert all(b < a for a, b in zip(endpoint.energy_minus, endpoint.energy_minus[1:]))


def test_endpoint_ground_state_negative(endpoint):
    assert all(e < 0.0 for e in endpoint.energy_plus)


def test_endpoint_no_collapse(endpoint):
    assert endpoint.no_collapse
    norms = endpoint.norms_minus
    assert min(norms) >= 0.5 * float(np.median(norms))


def test_endpoint_probe_is_the_sweep_ladder(params, grid, estimate, reference, endpoint):
    # one loop builds both ladders: on the probe's lambdas a sweep gives the
    # same columns bit for bit, and adds the reference ray's roots
    swept = sw.run_sweep(endpoint.lambdas, params, grid, reference, init=estimate.minimizer)
    for column in ("lambdas", "energy_plus", "energy_minus", "norms_minus", "converged"):
        assert getattr(swept, column) == getattr(endpoint, column), column
    assert all(np.isnan(r.t_plus) and np.isnan(r.t_minus) for r in endpoint.rows)
    assert not any(np.isnan(r.t_plus) or np.isnan(r.t_minus) for r in swept.rows)


# --- CSV -------------------------------------------------------------------------------

def test_csv_format_and_determinism(tmp_path, sweep_result):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sw.write_rows(sweep_result.rows, p1)
    sw.write_rows(sweep_result.rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == sw.CSV_HEADER
    assert len(lines) == len(sweep_result.rows) + 1
    first = lines[1].split(",")
    assert len(first) == 10
    assert first[8] in ("0", "1") and first[9] in ("0", "1")
    assert float(first[0]) == pytest.approx(sweep_result.rows[0].lam, rel=1e-16)


def test_csv_golden_lines(tmp_path, monkeypatch):
    # bytes written before the columns were read off SweepRow's fields: the
    # first row of the default sweep, and a row where every sampled ray
    # misses the Nehari set, with the roots of the ray (E, A, B) = (1, 1, 1)
    def missed(*args, **kwargs):
        raise RayMissesNehari("every sampled ray misses the Nehari set")

    monkeypatch.setattr(sw, "solve_pair", missed)
    rows = [sw.SweepRow(0.1740231493899153, -1.097578117863544, 4.960208536109617,
                        0.7429717885424433, 5.6357680867618685, 5.364881913878429,
                        5.4882997201571766e-05, 9.2667028170314e-06, True, True)]
    ray = nl.ReducedTriple(E=1.0, A=1.0, B=1.0)
    rows += sw.run_sweep([0.25], nl.ProblemParams(), None, ray).rows
    path = tmp_path / "rows.csv"
    sw.write_rows(rows, path)
    assert path.read_bytes() == (
        b"lambda,energy_plus,energy_minus,t_plus,t_minus,norm_minus,"
        b"residual_plus,residual_minus,converged_plus,converged_minus\n"
        b"0.17402314938991531,-1.097578117863544,4.9602085361096169,0.74297178854244328,"
        b"5.6357680867618685,5.3648819138784294,5.4882997201571766e-05,"
        b"9.2667028170314005e-06,1,1\n"
        b"0.25,nan,nan,0.46792375489693599,0.81097730589415762,nan,nan,nan,0,0\n")
