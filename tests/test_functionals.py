import dataclasses
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

import neharilab as nl
from neharilab.errors import GridTooLarge, NotInPositiveCone, UnsupportedDimension
from neharilab import functionals
from neharilab.functionals import energy_from_triple, workspace

from oracles import (
    axis_w_u,
    broadcast_dense_kernel,
    cancellation_free_kernel,
    dense_energy_operator,
    dense_newton_kernel,
    dense_w_u,
    direct_pair_sum_w_u,
    full_box_kernel_hat,
    full_box_w_u,
    gaussian_B_closed_form,
    gaussian_B_fourier,
    hfft_box_kernel_octant,
    unfold_octant,
)


@pytest.fixture(scope="module")
def smooth(grid):
    r = grid.nodes
    return nl.GridFunction(grid, np.exp(-(r / 1.3) ** 2) + 0.4 * np.exp(-((r - 1.2) / 1.1) ** 2))


# --- norm ----------------------------------------------------------------------

def test_norm_zero_function(grid, params):
    assert workspace(grid, params).norm_sq(np.zeros(grid.M)) == 0.0


def test_norm_homogeneity(grid, params, gaussian):
    ws = workspace(grid, params)
    base = ws.norm_sq(gaussian.values)
    assert ws.norm_sq(3.0 * gaussian.values) == pytest.approx(9.0 * base, rel=1e-12)


def test_norm_gaussian_oracle(params):
    # u = e^{-r^2/2}, V = 1 + r^2: ||u||^2 = 4 pi^{3/2} (gaussian moments)
    g = nl.build_radial_grid(12.0, 512, 2.0)
    u = np.exp(-g.nodes**2 / 2.0)
    assert workspace(g, params).norm_sq(u) == pytest.approx(4.0 * np.pi**1.5, rel=5e-3)


def test_cartesian_energy_norm_unsupported(params):
    # the box carries the direct B engine only; G is the one energy operator
    u = nl.sample_profile("gaussian", 1.0, nl.build_cartesian_grid(3.0, 8))
    with pytest.raises(UnsupportedDimension):
        workspace(u.grid, params)
    with pytest.raises(UnsupportedDimension):
        nl.reduced_triple(u, params)


# --- banded energy operator ------------------------------------------------------

@pytest.mark.parametrize("M", [64, 256])
def test_energy_operator_bands_match_dense_oracle(params, M):
    g = nl.build_radial_grid(20.0, M, 2.0)
    ws = workspace(g, params)
    G = dense_energy_operator(g, params.v_values(g.nodes))
    # the central difference couples nodes i -/+ 1: nothing beyond offset 2,
    # and the band between holds G[0, 1] only
    assert not np.any(np.triu(G, 3))
    assert np.flatnonzero(np.diagonal(G, 1)).tolist() == [0]
    for band, ref in ((ws.G0, np.diagonal(G)), (ws.G2, np.diagonal(G, 2))):
        assert band.shape == ref.shape
        assert np.all(np.abs(band - ref) <= 1e-14 * np.abs(ref))
    assert abs(ws.G01 - G[0, 1]) <= 1e-14 * abs(G[0, 1])


def _chain_order(M):
    """The nodes along the odd-even chain: odd ones descending, then even ones."""
    return np.concatenate([np.arange(1, M, 2)[::-1], np.arange(0, M, 2)])


@pytest.mark.parametrize("M", [63, 64, 65, 256])
def test_energy_operator_is_tridiagonal_along_the_chain(params, M):
    # the factor rests on this: the first off-diagonal band holds G[0, 1]
    # only, so G couples i to i -/+ 2 and 0 to 1, a path through every node
    g = nl.build_radial_grid(20.0, M, 2.0)
    G = dense_energy_operator(g, params.v_values(g.nodes))
    assert np.flatnonzero(np.diagonal(G, 1)).tolist() == [0]
    chain = _chain_order(M)
    assert sorted(chain.tolist()) == list(range(M))
    G = G[np.ix_(chain, chain)]
    assert not np.any(np.triu(G, 2))
    assert np.all(np.diagonal(G, 1) < 0.0)   # every link of the path couples


@pytest.mark.parametrize("M", [64, 256, 63, 65, 1024])
def test_banded_operations_match_dense_linear_algebra(params, rng, M):
    g = nl.build_radial_grid(20.0, M, 2.0)
    ws = workspace(g, params)
    G = dense_energy_operator(g, params.v_values(g.nodes))
    u = rng.uniform(0.0, 1.0, M)
    Gu = G @ u
    np.testing.assert_allclose(ws.apply_G(u), Gu, rtol=0, atol=1e-14 * np.max(np.abs(Gu)))
    assert ws.norm_sq(u) == pytest.approx(u @ Gu, rel=1e-13)
    z = np.linalg.solve(G, u)
    np.testing.assert_allclose(ws.solve_G(u), z, rtol=0, atol=1e-12 * np.max(np.abs(z)))
    shift = rng.uniform(0.0, 1.0, M) * np.diagonal(G)
    z = np.linalg.solve(G + np.diag(shift), u)
    np.testing.assert_allclose(ws.solve_shifted(shift, u), z, rtol=0,
                               atol=1e-12 * np.max(np.abs(z)))
    # factor(shift, scale): scale G + diag(shift), solved into out; r is kept
    scale = 2.7
    z = np.linalg.solve(scale * G + np.diag(shift), u)
    solve = ws.factor(shift, scale)
    r, out = u.copy(), np.empty(M)
    np.testing.assert_allclose(solve(r, out), z, rtol=0, atol=1e-12 * np.max(np.abs(z)))
    np.testing.assert_allclose(out, z, rtol=0, atol=1e-12 * np.max(np.abs(z)))
    assert np.array_equal(r, u)
    # apply_G(v, alpha, y) = alpha G v, written over y
    y = rng.uniform(-1.0, 1.0, M)
    ref = -0.6 * Gu
    got = ws.apply_G(u, -0.6, y)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))
    np.testing.assert_allclose(y, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))
    np.testing.assert_allclose(ws.apply_G(u, 3.0), 3.0 * Gu, rtol=0,
                               atol=3e-14 * np.max(np.abs(Gu)))


def test_factor_refuses_a_shift_that_is_not_spd(params):
    g = nl.build_radial_grid(20.0, 64, 2.0)
    ws = workspace(g, params)
    shift = -2.0 * ws.G0   # every diagonal entry of G + diag(shift) negative
    with pytest.raises(np.linalg.LinAlgError):
        ws.factor(shift)
    with pytest.raises(np.linalg.LinAlgError):
        ws.solve_shifted(shift, np.ones(g.M))
    with pytest.raises(np.linalg.LinAlgError):
        ws.factor(np.zeros(g.M), -1.0)


@pytest.mark.parametrize("M", [63, 64])
def test_factor_refuses_one_negative_pivot_anywhere_on_the_chain(params, M):
    # LAPACK dpttrf reports a failed pivot inside the chain and a last pivot
    # that completes but is not positive alike: both are LinAlgError
    g = nl.build_radial_grid(20.0, M, 2.0)
    ws = workspace(g, params)
    chain = _chain_order(M)
    for node in (chain[0], 1, 0, chain[-1]):
        shift = np.zeros(M)
        shift[node] = -2.0 * ws.G0[node]
        with pytest.raises(np.linalg.LinAlgError):
            ws.factor(shift)
    ws.factor(np.zeros(M))   # G itself is SPD


def test_kernel_apply_is_built_once(params, grid):
    ws = workspace(grid, params)
    assert ws.kernel() is ws.kernel()


def _count_w_u_and_norm_sq(monkeypatch):
    calls = {"w_u": 0, "norm_sq": 0}
    for name in calls:
        method = getattr(functionals.FunctionalWorkspace, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(functionals.FunctionalWorkspace, name, counted)
    return calls


def test_evaluate_calls_w_u_and_norm_sq_once(params, grid, gaussian, monkeypatch):
    # the tracer times w_u and norm_sq as layers of their own: evaluate must
    # call them through the workspace, not inline them
    calls = _count_w_u_and_norm_sq(monkeypatch)
    ev = workspace(grid, params).evaluate(gaussian.values)
    assert calls == {"w_u": 1, "norm_sq": 1}
    assert ev.triple.B > 0.0


def test_evaluation_carries_G_u(params, grid, gaussian):
    ws = workspace(grid, params)
    ev = ws.evaluate(gaussian.values)
    Gu = ws.apply_G(ev.u)
    assert np.max(np.abs(ev.Gu - Gu)) <= 1e-14 * np.max(np.abs(Gu))
    assert ev.triple.E == float(ev.u @ ev.Gu)


def test_workspace_cache_does_not_keep_grid_alive(params):
    g = nl.build_radial_grid(10.0, 32, 2.0)
    ws = workspace(g, params)
    assert ws.grid.kind == "radial" and ws.grid.nodes is g.nodes
    entries = len(functionals._workspaces)
    ref = weakref.ref(g)
    del g
    assert ref() is None
    assert len(functionals._workspaces) == entries - 1


def test_workspace_cache_keys_on_the_problem_by_value(params):
    g = nl.build_radial_grid(10.0, 32, 2.0)
    ws = workspace(g, params)
    assert workspace(g, dataclasses.replace(params)) is ws
    assert workspace(g, dataclasses.replace(params, mu=1.5)) is not ws
    assert len(functionals._workspaces[g]) == 2


# --- A(u) ----------------------------------------------------------------------

def test_weight_a_homogeneity_exact(grid, params, gaussian):
    ws = workspace(grid, params)
    A = ws.evaluate(gaussian.values).triple.A
    A3 = ws.evaluate(3.0 * gaussian.values).triple.A
    assert A3 == pytest.approx(3.0**params.q * A, rel=1e-12)
    assert ws.evaluate(np.zeros(grid.M)).triple.A == 0.0


def test_weight_a_adaptive_quadrature_oracle():
    prm = dataclasses.replace(nl.ProblemParams(), gamma3=1.2)
    g = nl.build_radial_grid(16.0, 256, 2.0)
    A = workspace(g, prm).evaluate(nl.sample_profile("gaussian", 1.0, g).values).triple.A
    oracle = 4 * np.pi * scipy_integrate.quad(
        lambda r: (1 + r * r) ** -1.2 * np.exp(-r * r * 0.5) * r * r,
        0.0, g.R, epsabs=1e-13, epsrel=1e-12,
    )[0]
    assert A == pytest.approx(oracle, rel=1e-6)


# --- B(u): engines ----------------------------------------------------------------

def test_B_radial_homogeneity_exact(params, gaussian):
    B = nl.steinweiss_B_radial(gaussian, params)
    B2 = nl.steinweiss_B_radial(gaussian.scaled(2.0), params)
    assert B2 == pytest.approx(2.0 ** (2 * params.p) * B, rel=1e-12)


def test_B_radial_against_dblquad_oracle(params):
    # mu = 1 collapses the angular kernel to 2/max(r, s)
    def f(r):
        return (1 + r * r) ** -1.0 * np.exp(-2.0 * r * r)

    val, _ = scipy_integrate.dblquad(
        lambda s, r: f(r) * f(s) * (r * s) ** (2 - 0.25) * 2.0 / np.maximum(r, s),
        0.0, 12.0, 0.0, 12.0, epsabs=1e-12, epsrel=1e-10,
    )
    oracle = 8 * np.pi**2 * val
    g = nl.build_radial_grid(12.0, 256, 2.0)
    u = nl.sample_profile("gaussian", 1.0, g)
    assert nl.steinweiss_B_radial(u, params) == pytest.approx(oracle, rel=5e-4)


def test_B_direct_symmetric_and_zero(params):
    cg = nl.build_cartesian_grid(3.0, 8)
    assert nl.steinweiss_B_direct(nl.GridFunction(cg, np.zeros(cg.size)), params) == 0.0
    # the kernel depends on |x|, |y|, |x - y| only, so B is mirror-invariant;
    # use an off-center profile so the check is not vacuous
    center = np.array([0.4, -0.2, 0.1])
    vals = np.exp(-np.linalg.norm(cg.points - center, axis=1) ** 2)
    m = cg.m
    flipped = vals.reshape(m, m, m)[::-1, ::-1, ::-1].reshape(-1)
    B1 = nl.steinweiss_B_direct(nl.GridFunction(cg, vals), params)
    B2 = nl.steinweiss_B_direct(nl.GridFunction(cg, flipped), params)
    assert B1 > 0.0
    assert B2 == pytest.approx(B1, rel=1e-12)


def test_B_direct_refinement_monotone(params):
    vals = []
    for m in (8, 12, 16):
        cg = nl.build_cartesian_grid(3.5, m)
        u = nl.sample_profile("gaussian", 1.0, cg)
        vals.append(nl.steinweiss_B_direct(u, params))
    increments = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert increments[1] < increments[0]


def test_B_direct_fft_size_cap_names_the_cost():
    # a w_u holds the (m+1)^3 kernel octant, the (m, 2m, m+1) complex spectrum,
    # one (2m, ceil(m/4), m+1) chunk and two m^3 arrays: 27.2 MB at m = 76,
    # 29.5 MB at m = 78, past the 29 MB cap; the box itself is refused
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge) as info:
            nl.build_cartesian_grid(3.0, 78)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20   # refused before any box or FFT array is allocated
    msg = str(info.value)
    assert "m = 78" in msg and "29.5 MB" in msg and "29 MB" in msg and "m <= 76" in msg
    assert "(2m, 20, m+1) chunk" in msg
    assert functionals._box_fft_mb(76) == 27.2
    assert nl.build_cartesian_grid(3.0, 76).m == 76


def test_B_direct_peak_stays_within_the_stated_footprint(params):
    # a whole steinweiss_B_direct call on a fresh box builds the kernel octant,
    # forms the density and r^-a and runs the convolution; its tracemalloc
    # peak is the figure the GridTooLarge message would state, neither
    # exceeded nor a loose overcount, at the default box and at the largest
    # box under the cap, and the call keeps nothing
    for m in (24, 76):
        cg = nl.build_cartesian_grid(3.0, m)
        u = nl.sample_profile("gaussian", 1.0, cg)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nl.steinweiss_B_direct(u, params)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stated = functionals._box_fft_mb(m)
        assert stated <= functionals._BOX_FFT_MAX_MB
        assert 0.85 * stated * 2**20 < peak - base <= stated * 2**20, m
        assert current - base < 0.01 * 2**20, m


def test_workspace_refuses_a_box(params):
    # the box feeds the direct engine alone, which keeps no workspace: a, V
    # and G are radial, and workspace() is where a box is refused
    cg = nl.build_cartesian_grid(3.0, 8)
    with pytest.raises(UnsupportedDimension, match="radial grids"):
        workspace(cg, params)
    assert cg not in functionals._workspaces


@pytest.mark.parametrize("m", [26, 32])
def test_B_direct_computes_at_m_26_and_32(params, m):
    cg = nl.build_cartesian_grid(3.0, m)
    wu, _ = functionals._box_w_u(nl.sample_profile("gaussian", 1.0, cg).values, cg, params)
    assert np.all(wu > 0.0) and np.all(np.isfinite(wu))


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("mu,alpha", [(1.0, 0.25), (1.0, 0.01), (1.5, 0.1), (1.5, 0.7),
                                      (2.0, 0.4), (2.5, 0.2), (2.5, 0.01)])
def test_B_direct_fft_matches_pair_sum(m, mu, alpha):
    prm = dataclasses.replace(nl.ProblemParams(), mu=mu, alpha=alpha)
    cg = nl.build_cartesian_grid(3.0, m)
    rng = np.random.default_rng(m)
    profiles = {
        # off-center, so the mirror symmetry of the box does not hide a
        # wrong lag sign
        "gaussian": np.exp(-np.linalg.norm(cg.points - [0.7, -0.4, 0.2], axis=1) ** 2),
        "random": rng.uniform(0.05, 1.0, cg.size),
    }
    oracles = direct_pair_sum_w_u(np.column_stack(list(profiles.values())), cg, prm)
    b = prm.b_values(cg.radii)
    for (name, u), oracle in zip(profiles.items(), oracles.T):
        wu, _ = functionals._box_w_u(u, cg, prm)
        assert np.max(np.abs(wu - oracle) / oracle) <= 1e-13, name
        B = nl.steinweiss_B_direct(nl.GridFunction(cg, u), prm)
        B_oracle = cg.h**3 * np.sum(b * u**prm.p * oracle)
        assert B == pytest.approx(B_oracle, rel=1e-13, abs=0.0), name


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("mu", [0.5, 1.5, 2.0, 2.5])
def test_octant_hat_and_axis_transforms_match_whole_box_fft(m, mu):
    prm = dataclasses.replace(nl.ProblemParams(), mu=mu)
    cg = nl.build_cartesian_grid(3.0, m)
    hat, ref = functionals._box_kernel_hat(cg, mu), full_box_kernel_hat(cg, mu)
    assert hat.shape == (m + 1,) * 3
    assert np.max(np.abs(unfold_octant(hat) - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the unscaled irfft of a real octant is hfft without its conjugate copy
    assert np.array_equal(hat, hfft_box_kernel_octant(cg, mu))
    u = np.random.default_rng(m).uniform(0.05, 1.0, cg.size)
    oracle = full_box_w_u(u, cg, prm)
    assert np.max(np.abs(functionals._box_w_u(u, cg, prm)[0] - oracle) / oracle) <= 1e-13


# at m = 10 and 26 (not multiples of 4) a ceil(2m/8)-wide chunk would straddle
# k1 = m, so it is split there and the run below m ends in a short chunk
@pytest.mark.parametrize("m", [8, 10, 16, 24, 26, 40])
@pytest.mark.parametrize("mu", [0.5, 1.5, 2.0, 2.5])
def test_in_place_spectrum_is_the_axis_by_axis_convolution_bit_for_bit(m, mu):
    prm = dataclasses.replace(nl.ProblemParams(), mu=mu)
    cg = nl.build_cartesian_grid(3.0, m)
    # a random profile has no mirror symmetry to hide a wrong lag or block
    u = np.random.default_rng(m).uniform(0.05, 1.0, cg.size)
    hat = unfold_octant(functionals._box_kernel_hat(cg, mu))
    assert np.array_equal(functionals._box_w_u(u, cg, prm)[0], axis_w_u(u, cg, prm, hat))


def _relative_errors(engine, grids, mu, alpha=0.0):
    """Relative errors of B(e^(-r^2)) at b = 1, p = 2 against its closed form
    at alpha = 0 and its Fourier form otherwise, one per grid."""
    prm = nl.ProblemParams(alpha=alpha, choquard=True, b_form="constant", mu=mu, p=2.0)
    exact = (gaussian_B_closed_form(mu, prm.p) if alpha == 0.0
             else gaussian_B_fourier(mu, prm.p, alpha))
    return [(engine(nl.sample_profile("gaussian", 1.0, g), prm) - exact) / exact for g in grids]


def _observed_orders(engine, grids, mu, alpha=0.0):
    """log2 of the ratios of successive relative errors, grids halving h."""
    errors = _relative_errors(engine, grids, mu, alpha)
    return [math.log2(abs(a / b)) for a, b in zip(errors, errors[1:])]


def _radial_ladder(*nodes):
    return [nl.build_radial_grid(20.0, M, 2.0) for M in nodes]


def test_gaussian_B_closed_form_value():
    assert gaussian_B_closed_form(1.0, 2.0) == pytest.approx(4.3733546, rel=1e-7)


@pytest.mark.parametrize("p", [2.0, 3.5])
@pytest.mark.parametrize("mu", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_gaussian_B_fourier_form_is_the_closed_form_at_alpha_0(mu, p):
    # measured: within 7.1e-14 (mu = 0.5), 4.5e-16 elsewhere
    assert gaussian_B_fourier(mu, p, 0.0) == pytest.approx(gaussian_B_closed_form(mu, p),
                                                           rel=1e-12, abs=0.0)


_POINT_KERNEL_ORDER = pytest.mark.xfail(
    strict=True, reason="both engines sample the kernel at points and converge at "
    "order 3 - mu (ROADMAP items 3 and 7)")
_RADIAL_MU = [0.5, 1.0] + [pytest.param(mu, marks=_POINT_KERNEL_ORDER) for mu in (1.5, 2.0, 2.5)]


def _positive_alpha(mu):
    """alpha = 0.25, or 0.2 at mu = 2.5, where 2 alpha + mu < 3 needs alpha < 0.25."""
    return 0.2 if mu == 2.5 else 0.25


@pytest.mark.parametrize("mu", _RADIAL_MU)
def test_B_radial_converges_at_order_two_to_the_closed_form(mu):
    # measured at M = 256 ... 2048: 2.62, 2.55, 2.52 at mu = 0.5; 2.02, 2.01,
    # 2.00 at mu = 1; 3 - mu above (1.50, 1.00, 0.50)
    grids = _radial_ladder(256, 512, 1024, 2048)
    assert min(_observed_orders(nl.steinweiss_B_radial, grids, mu)) >= 1.9


@pytest.mark.parametrize("mu", _RADIAL_MU)
def test_B_radial_converges_at_order_two_to_the_fourier_form(mu):
    # r^-alpha on both sides of the kernel; measured at M = 256 ... 2048:
    # 2.65, 2.56, 2.52 at mu = 0.5; 2.03, 2.01, 2.00 at mu = 1; 3 - mu above
    grids = _radial_ladder(256, 512, 1024, 2048)
    assert min(_observed_orders(nl.steinweiss_B_radial, grids, mu, _positive_alpha(mu))) >= 1.9


# the largest |relative error| of B at M = 2048 measured at alpha = 0 and at
# _positive_alpha(mu), rounded up: -8.65e-8, -1.85e-6, -3.63e-5, -6.20e-4 and
# -7.93e-3, the point kernel's O(h^(3 - mu)) error from mu = 1.5 on
_FINEST_ERROR = {0.5: 9e-8, 1.0: 1.9e-6, 1.5: 3.7e-5, 2.0: 6.3e-4, 2.5: 8.0e-3}


@pytest.mark.parametrize("positive", [False, True], ids=["alpha-0", "alpha-positive"])
@pytest.mark.parametrize("mu", sorted(_FINEST_ERROR))
def test_B_radial_value_at_the_finest_grid(mu, positive):
    alpha = _positive_alpha(mu) if positive else 0.0
    [error] = _relative_errors(nl.steinweiss_B_radial, _radial_ladder(2048), mu, alpha)
    assert abs(error) <= _FINEST_ERROR[mu]


@pytest.mark.parametrize("mu", [1.0, 1.5, 2.0, 2.5])
def test_B_radial_weight_b_is_a_rescaled_profile(mu):
    # b enters B only through the density b|u|^p on both sides of the kernel,
    # so B_b(u) = B_1(b^(1/p) u) (measured: ratio - 1 = 0.0 at each mu); the
    # Fourier form has b = 1 and cannot see b
    prm = nl.ProblemParams(alpha=_positive_alpha(mu), mu=mu, p=2.6, b_form="inverse_poly")
    grid = nl.build_radial_grid(20.0, 256, 2.0)
    u = nl.sample_profile("gaussian", 1.0, grid)
    scaled = nl.GridFunction(grid, prm.b_values(grid.nodes) ** (1.0 / prm.p) * u.values)
    B_1 = nl.steinweiss_B_radial(scaled, dataclasses.replace(prm, b_form="constant"))
    assert nl.steinweiss_B_radial(u, prm) == pytest.approx(B_1, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("mu", [1.0, pytest.param(1.5, marks=_POINT_KERNEL_ORDER)])
def test_B_direct_converges_at_order_two_to_the_closed_form(mu):
    # measured at mu = 1: 1.90, 1.98
    grids = [nl.build_cartesian_grid(3.0, m) for m in (16, 32, 64)]
    assert min(_observed_orders(nl.steinweiss_B_direct, grids, mu)) >= 1.85


def test_engine_agreement_moderate_grids(params):
    rg = nl.build_radial_grid(12.0, 256, 2.0)
    ur = nl.sample_profile("gaussian", 1.0, rg)
    B_rad = nl.steinweiss_B_radial(ur, params)
    cg = nl.build_cartesian_grid(3.5, 16)
    uc = nl.sample_profile("gaussian", 1.0, cg)
    B_dir = nl.steinweiss_B_direct(uc, params)
    assert B_dir == pytest.approx(B_rad, rel=0.05)


def test_radial_kernel_log_branch_consistency(params):
    # mu = 2 must be the limit of nearby mu values (log kernel, no 0/0 branch)
    g = nl.build_radial_grid(10.0, 128, 2.0)
    u = nl.sample_profile("gaussian", 1.0, g)
    vals = []
    for mu in (1.999, 2.0, 2.001):
        prm = dataclasses.replace(nl.ProblemParams(), mu=mu, alpha=0.25)
        vals.append(nl.steinweiss_B_radial(u, prm))
    assert vals[1] == pytest.approx(0.5 * (vals[0] + vals[2]), rel=1e-4)


def test_kernel_domain_guard(grid):
    # unreachable after validation, but the engine guards mu >= N anyway
    from neharilab.errors import KernelDomain

    bad = dataclasses.replace(nl.ProblemParams(), mu=3.2)
    u = nl.sample_profile("gaussian", 1.0, grid)
    with pytest.raises(KernelDomain):
        nl.steinweiss_B_radial(u, bad)


def test_radial_engine_requires_three_dimensions():
    g4 = nl.build_radial_grid(10.0, 64, 2.0, dim=4)
    u = nl.sample_profile("gaussian", 1.0, g4)
    with pytest.raises(UnsupportedDimension):
        nl.steinweiss_B_radial(u, nl.ProblemParams(N=4))


def test_engines_reject_wrong_grid_kind(grid, params):
    cg = nl.build_cartesian_grid(3.0, 8)
    with pytest.raises(UnsupportedDimension):
        nl.steinweiss_B_direct(nl.sample_profile("gaussian", 1.0, grid), params)
    with pytest.raises(UnsupportedDimension):
        nl.steinweiss_B_radial(nl.sample_profile("gaussian", 1.0, cg), params)


def test_kernel_positive_across_mu_range(grid):
    # w_u must stay nonnegative for every kernel exponent, including the
    # analytically integrated diagonal cells
    u = nl.sample_profile("gaussian", 1.0, grid)
    for mu in (0.3, 1.0, 1.9, 2.0, 2.1, 2.5, 2.9):
        prm = dataclasses.replace(nl.ProblemParams(), mu=mu, alpha=0.01)
        wu = workspace(grid, prm).w_u(u.values)
        assert np.all(wu > 0.0)
        assert np.all(np.isfinite(wu))


@pytest.mark.parametrize("mu,alpha", [(2.0, 0.4), (2.5, 0.2)])
def test_engine_agreement_singular_kernels(mu, alpha):
    # the analytic diagonal cells matter most for mu >= 2; both engines must
    # still approach the same value, if more slowly than at mu = 1
    prm = dataclasses.replace(nl.ProblemParams(), mu=mu, alpha=alpha, b_form="constant")
    rg = nl.build_radial_grid(12.0, 512, 2.0)
    B_rad = nl.steinweiss_B_radial(nl.sample_profile("gaussian", 1.0, rg), prm)
    gaps = []
    for m in (8, 12, 16):
        cg = nl.build_cartesian_grid(3.0, m)
        B_dir = nl.steinweiss_B_direct(nl.sample_profile("gaussian", 1.0, cg), prm)
        gaps.append(abs(B_dir - B_rad) / B_rad)
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[-1] < 0.08


def test_stein_weiss_ratio_stability(params):
    # B(u) <= C ||b u^p||_r^2 with r = 2N/(2N - 2a - mu): the measured constant
    # stays within +-10% across grid refinements for the gaussian family
    r_exp = 2 * 3 / (2 * 3 - 2 * params.alpha - params.mu)
    ratios = []
    for M in (128, 256, 512):
        g = nl.build_radial_grid(12.0, M, 2.0)
        u = nl.sample_profile("gaussian", 1.0, g)
        ws = workspace(g, params)
        B = nl.steinweiss_B_radial(u, params)
        f = ws.b * u.values**params.p
        norm_r = ws.space_integral(np.abs(f) ** r_exp) ** (1.0 / r_exp)
        ratios.append(B / norm_r**2)
    mid = np.median(ratios)
    assert max(ratios) <= 1.1 * mid and min(ratios) >= 0.9 * mid


# --- nonlocal potential and D -----------------------------------------------------

def _newton_profiles(g, rng):
    r = g.nodes
    return {
        "gaussian": np.exp(-r * r / 2.0),
        "random": rng.uniform(0.1, 1.0, g.M),
        "zero_tail": np.where(r < 3.0, np.cos(np.pi * r / 6.0), 0.0),
    }


@pytest.mark.parametrize("M", [256, 2048])
def test_newton_w_u_matches_dense_oracle(rng, M):
    # mu = 1: the two running sums against 2/max(r, s) as a dense matrix
    g = nl.build_radial_grid(20.0, M, 2.0)
    K = dense_newton_kernel(g)
    for alpha in (0.01, 0.25, 0.45):
        prm = dataclasses.replace(nl.ProblemParams(), alpha=alpha)
        ws = workspace(g, prm)
        for name, u in _newton_profiles(g, rng).items():
            ref = dense_w_u(u, g, prm, K)
            err = np.max(np.abs(ws.w_u(u) - ref) / ref)
            assert err <= 1e-13, (alpha, name, err)


@pytest.mark.parametrize("M", [256, 4096])
def test_newton_apply_in_place_is_bit_identical(rng, M):
    # the in-place exclusive running sums keep the operation order of the
    # plain expression, so w_u does not move by a single bit
    r = nl.build_radial_grid(20.0, M, 2.0).nodes
    cells = rng.uniform(0.0, 2.0, M) / r
    for h in (rng.uniform(0.0, 1.0, M), rng.standard_normal(M) * np.exp(-r)):
        below = np.concatenate(([0.0], np.cumsum(h[:-1])))
        t = h / r
        above = np.concatenate((np.cumsum(t[:0:-1])[::-1], [0.0]))
        plain = 2.0 * (below / r + above) + cells * h
        assert np.array_equal(functionals._apply_newton(r, cells, h), plain)


def test_newton_w_u_continuous_with_dense_kernel(rng):
    # the dense general-mu kernel on either side of mu = 1 checks the
    # Newton path, its diagonal cells included
    g = nl.build_radial_grid(20.0, 256, 2.0)
    for u in _newton_profiles(g, rng).values():
        at_one = workspace(g, nl.ProblemParams()).w_u(u)
        for mu in (1.0 - 1e-7, 1.0 + 1e-7):
            near = workspace(g, dataclasses.replace(nl.ProblemParams(), mu=mu)).w_u(u)
            assert np.max(np.abs(near - at_one) / at_one) <= 1e-6


def test_newton_workspace_stores_no_matrix(params):
    g = nl.build_radial_grid(20.0, 512, 2.0)
    ws = workspace(g, params)
    ws.w_u(np.exp(-g.nodes**2))
    ws.cho()
    assert ws._K.shape == (g.M,)
    # the factor is a tuple of arrays, (d, e) along the chain
    arrays = [a for v in vars(ws).values() for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert arrays and all(a.size <= 3 * g.M for a in arrays)
    assert [a.size for a in ws.cho()] == [g.M, g.M - 1]


def test_workspace_holds_eleven_vectors_at_mu_1(params):
    # a, b, r^-a, 2 pi r^-a, omega w a, omega w b, G's two bands, the kernel's
    # diagonal cells and the (d, e) factor: 11 M-vectors less 3 entries.  A
    # coefficient vector added without another one dropped fails here
    M = 1024
    g = nl.build_radial_grid(20.0, M, 2.0)
    ws = workspace(g, params)
    ws.evaluate(np.exp(-g.nodes**2))
    ws.cho()
    nbytes = sum(a.nbytes for v in vars(ws).values()
                 for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray))
    assert nbytes <= 11 * M * 8


def test_newton_w_u_memory_is_linear(params):
    # the dense M x M kernel alone would take 512 MB here
    g = nl.build_radial_grid(20.0, 8192, 2.0)
    u = np.exp(-g.nodes**2)
    tracemalloc.start()
    try:
        wu = workspace(g, params).w_u(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(wu > 0.0) and np.all(np.isfinite(wu))
    assert peak < 10 * 2**20


def _kernel_blocks(M):
    """Masks of K's strictly upper triangle inside and outside the build's
    diagonal row blocks."""
    i, j = np.indices((M, M))
    step = functionals._KERNEL_ROW_BLOCK // 2
    inside = i // step == j // step
    return (j > i) & inside, (j > i) & ~inside


@pytest.mark.parametrize("M", [16, 100, 513])
@pytest.mark.parametrize("mu", [0.5, 1.5, 2.0, 2.5])
def test_dense_kernel_matches_broadcast_formula(mu, M, rng):
    # 100 and 513 rows leave a partial last row block
    g = nl.build_radial_grid(20.0, M, 2.0)
    ws = functionals.FunctionalWorkspace(g, dataclasses.replace(nl.ProblemParams(), mu=mu))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no RuntimeWarning leaves the build
        apply = ws.kernel()
    K = broadcast_dense_kernel(g, mu)
    # dsymv reads the upper triangle of the F-ordered view K.T, which is the
    # lower triangle of K: the build fills only that, bit for bit
    assert np.array_equal(np.tril(ws._K), np.tril(K))
    # above the diagonal: the mirrored values inside the diagonal row
    # blocks, zeros outside them
    inside, outside = _kernel_blocks(M)
    assert np.array_equal(ws._K[inside], K[inside])
    assert np.all(ws._K[outside] == 0.0)
    h = rng.random(M)
    assert np.max(np.abs(apply(h) - K @ h)) <= 1e-13 * np.max(np.abs(K @ h))


@pytest.mark.parametrize("M", [16, 100, 513])
@pytest.mark.parametrize("mu", [0.5, 1.5, 2.0, 2.5])
def test_dense_apply_reads_only_the_built_triangle(mu, M, rng):
    # the zeros above the diagonal blocks are never read: NaN there leaves
    # every bit of the apply in place
    g = nl.build_radial_grid(20.0, M, 2.0)
    ws = functionals.FunctionalWorkspace(g, dataclasses.replace(nl.ProblemParams(), mu=mu))
    apply = ws.kernel()
    h = rng.random(M)
    before = apply(h)
    ws._K[_kernel_blocks(M)[1]] = np.nan
    assert np.array_equal(apply(h), before)


@pytest.mark.xfail(strict=True, reason="the point kernel's (r+s)^e - |r-s|^e cancels as mu -> 2; "
                   "ROADMAP item 3 replaces it by a cancellation-free rule")
@pytest.mark.parametrize("mu", [2.0 - 1e-10, 2.0 + 1e-10, 2.0 - 1e-12, 2.0 + 1e-12])
def test_dense_kernel_free_of_cancellation_near_mu_2(mu):
    # at M = 256 today's entries are 12-21% off at mu = 2 -/+ 1e-10 and
    # 10-26 times off at mu = 2 -/+ 1e-12; the log branch starts at 1e-13
    g = nl.build_radial_grid(20.0, 256, 2.0)
    ws = functionals.FunctionalWorkspace(g, dataclasses.replace(nl.ProblemParams(), mu=mu))
    ws.kernel()
    low = np.tril_indices(g.M, -1)
    ratio = ws._K[low] / cancellation_free_kernel(g, mu)[low]
    assert np.max(np.abs(ratio - 1.0)) <= 1e-8


def test_dense_kernel_build_holds_one_matrix():
    # the matrix plus one 64-row block of scratch, the cap message's account;
    # numpy's iterator buffers for the broadcast products take ~130 KB at any M
    g = nl.build_radial_grid(20.0, 1024, 2.0)
    ws = functionals.FunctionalWorkspace(g, dataclasses.replace(nl.ProblemParams(), mu=1.5))
    tracemalloc.start()
    try:
        ws.kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws._K.shape == (1024, 1024)
    block = functionals._KERNEL_ROW_BLOCK * g.M * 8
    assert peak <= ws._K.nbytes + block + 256 * 2**10


def test_dense_apply_makes_no_copy(rng):
    # a C-ordered matrix handed to dsymv would be copied whole (8 MB here)
    g = nl.build_radial_grid(20.0, 1024, 2.0)
    ws = functionals.FunctionalWorkspace(g, dataclasses.replace(nl.ProblemParams(), mu=1.5))
    apply = ws.kernel()
    h = rng.random(g.M)
    tracemalloc.start()
    try:
        apply(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ws._K.nbytes / 4


def test_dense_kernel_size_cap_names_the_cost():
    g = nl.build_radial_grid(20.0, 4097, 2.0)
    prm = dataclasses.replace(nl.ProblemParams(), mu=1.5)
    ws = workspace(g, prm)
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge) as info:
            ws.w_u(np.exp(-g.nodes**2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20   # refused before any matrix is allocated
    msg = str(info.value)
    assert "M = 4097" in msg and "mu = 1.5" in msg and "128 MB" in msg
    assert "64-row block of 2.0 MB" in msg
    assert "mu = 1 needs no matrix" in msg


def test_nonlocal_potential_zero_and_homogeneity(params, gaussian):
    ws = workspace(gaussian.grid, params)
    wu = ws.w_u(gaussian.values)
    assert np.all(wu >= 0.0) and np.all(np.isfinite(wu))
    wu2 = ws.w_u(2.0 * gaussian.values)
    assert wu2 == pytest.approx(2.0**params.p * wu, rel=1e-12)
    assert np.all(ws.w_u(np.zeros(gaussian.grid.M)) == 0.0)


def test_nonlocal_selfconsistency_exact(params, gaussian):
    # integrating b u^p w_u reproduces B(u) (same-engine algebraic identity)
    ws = workspace(gaussian.grid, params)
    wu = ws.w_u(gaussian.values)
    val = ws.space_integral(ws.b * gaussian.values**params.p * wu)
    assert val == pytest.approx(nl.steinweiss_B_radial(gaussian, params), rel=1e-10)


def test_D_uu_equals_B_exactly(params, smooth):
    # the nonlocal term of the weak gradient, g_B/(2p), paired with u is B(u)
    ws = workspace(smooth.grid, params)
    ev = ws.evaluate(smooth.values)
    D = ws.grad_B(ev) @ ev.u / (2.0 * params.p)
    assert D == pytest.approx(ev.triple.B, rel=1e-13)


# --- H -----------------------------------------------------------------------------

def test_H_uu_equals_A(params, grid):
    # the singular term of the weak gradient paired with u is lambda A(u):
    # u^(q-1) u = u^q on the slowly decaying profile, which stays far above
    # the 1e-10 floor.  At lambda = 1e6 that term carries the pairing (E and
    # B are 1e-5 of it), so the tolerance bounds H(u, u) - A(u) itself
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0)
    assert np.min(u.values) > 1e-10 * np.max(u.values)
    ws = workspace(grid, params)
    ev = ws.evaluate(u.values)
    lam = 1e6
    t = ev.triple
    assert ws.defect(ev, lam)[0] @ u.values == pytest.approx(
        t.E - lam * t.A - t.B, rel=1e-13
    )


# --- floor ---------------------------------------------------------------------------

def test_floored_fraction_zero_for_slowly_decaying_profile(params, grid):
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0)
    assert nl.functionals.floored_fraction(u, params) == 0.0


def test_floored_fraction_counts_dead_tail(params, grid):
    vals = np.where(grid.nodes < 2.0, 1.0, 0.0)
    frac = nl.functionals.floored_fraction(nl.GridFunction(grid, vals), params)
    # dead tail carries 1 - (2/16)^3 of the ball volume (up to cell rounding)
    assert frac == pytest.approx(1.0 - 2.0**3 / 16.0**3, rel=1e-3)


# --- energy and defect --------------------------------------------------------------

def test_energy_reference_arithmetic():
    triple = nl.ReducedTriple(E=1.0, A=1.0, B=1.0)
    prm = nl.ProblemParams()
    val = energy_from_triple(triple, 0.1, prm)
    assert val == pytest.approx(0.5 - 0.2 - 0.25, abs=1e-15)


def test_energy_decreasing_in_lambda(params, smooth):
    triple = nl.reduced_triple(smooth, params)
    assert energy_from_triple(triple, 0.3, params) < energy_from_triple(triple, 0.1, params)


def test_reduced_triple_requires_cone(grid, params):
    with pytest.raises(NotInPositiveCone):
        nl.reduced_triple(nl.GridFunction(grid, np.zeros(grid.M)), params)


def test_reduced_triple_scaling_map(params, smooth):
    t = nl.reduced_triple(smooth, params)
    t2 = nl.reduced_triple(smooth.scaled(1.7), params)
    s, p, q = 1.7, params.p, params.q
    assert t2.E == pytest.approx(s**2 * t.E, rel=1e-12)
    assert t2.A == pytest.approx(s**q * t.A, rel=1e-12)
    assert t2.B == pytest.approx(s ** (2 * p) * t.B, rel=1e-12)


def test_gaussian_reference_triple_pinned(params, grid, gaussian):
    # regression fixture (R=16, M=128, grading=2), first computed by this suite
    # and cross-checked against the quadrature / dblquad oracles above
    t = nl.reduced_triple(gaussian, params)
    assert t.E == pytest.approx(9.339060926158215, rel=1e-9)
    assert t.A == pytest.approx(4.166271650351211, rel=1e-9)
    assert t.B == pytest.approx(2.662359250741199, rel=1e-9)


def test_gradient_action_nehari_defect(params, grid):
    # floor inactive on the slowly decaying profile, so the singular term
    # paired with u is A(u) exactly and J'(u) . u is the literal Nehari defect
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0)
    assert np.min(u.values) > 1e-10 * np.max(u.values)
    ws = workspace(grid, params)
    ev = ws.evaluate(u.values)
    lam = 0.3
    val = ws.defect(ev, lam)[0] @ u.values
    t = ev.triple
    assert val == pytest.approx(t.E - lam * t.A - t.B, rel=1e-12)


@pytest.mark.parametrize("mu,overrides", [
    (1.0, {}),
    (1.5, {"p": 3.5, "b_form": "constant"}),
    (2.0, {"alpha": 0.2}),
], ids=["newton-kernel", "dense-kernel", "log-kernel"])
def test_gradient_action_finite_difference_oracle(grid, mu, overrides):
    # the weak gradient against the central difference of J_lambda, along a
    # direction that keeps u positive and away from the singular floor
    prm = nl.validate(dataclasses.replace(nl.ProblemParams(), mu=mu, **overrides))
    ws = workspace(grid, prm)
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0)
    lam = 0.25
    psi = 1.0 + 0.3 * np.sin(grid.nodes)
    eps = 1e-5
    up = nl.GridFunction(grid, u.values * (1 + eps * psi))
    um = nl.GridFunction(grid, u.values * (1 - eps * psi))
    fd = (energy_from_triple(nl.reduced_triple(up, prm), lam, prm)
          - energy_from_triple(nl.reduced_triple(um, prm), lam, prm)) / (2 * eps)
    grad = ws.defect(ws.evaluate(u.values), lam)[0]
    assert grad @ (psi * u.values) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("mu,overrides", [
    (1.0, {}),
    (1.5, {"p": 3.5, "b_form": "constant"}),
    (2.0, {"alpha": 0.2}),
], ids=["newton-kernel", "dense-kernel", "log-kernel"])
@pytest.mark.parametrize("name", ["A", "B"])
def test_gradient_of_A_and_B_central_difference(grid, mu, overrides, name):
    # grad_A and grad_B each against the central difference of A or B alone,
    # along directions that keep u positive and away from the singular floor
    prm = nl.validate(dataclasses.replace(nl.ProblemParams(), mu=mu, **overrides))
    ws = workspace(grid, prm)
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0).values
    ev = ws.evaluate(u)
    grad = ws.grad_A(u) if name == "A" else ws.grad_B(ev)
    eps = 1e-5
    for psi in (1.0 + 0.3 * np.sin(grid.nodes), np.exp(-0.3 * grid.nodes)):
        v = psi * u
        plus, minus = (getattr(ws.evaluate(u + s * eps * v).triple, name) for s in (1, -1))
        assert grad @ v == pytest.approx((plus - minus) / (2 * eps), rel=1e-8)
