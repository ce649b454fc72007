import dataclasses
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

import neharilab as nl
from neharilab.errors import (
    GridTooLarge,
    NotInPositiveCone,
    SingularMassWarning,
    UnsupportedDimension,
)
from neharilab import functionals
from neharilab.functionals import workspace

from oracles import (
    broadcast_dense_kernel,
    dense_energy_operator,
    dense_newton_kernel,
    dense_w_u,
    direct_pair_sum_w_u,
)


@pytest.fixture(scope="module")
def smooth(grid):
    r = grid.nodes
    return nl.GridFunction(grid, np.exp(-(r / 1.3) ** 2) + 0.4 * np.exp(-((r - 1.2) / 1.1) ** 2))


# --- norm ----------------------------------------------------------------------

def test_norm_zero_function(grid, params):
    assert nl.norm_sq(nl.GridFunction(grid, np.zeros(grid.M)), params) == 0.0


def test_norm_homogeneity(grid, params, gaussian):
    base = nl.norm_sq(gaussian, params)
    assert nl.norm_sq(gaussian.scaled(3.0), params) == pytest.approx(9.0 * base, rel=1e-12)


def test_norm_gaussian_oracle(params):
    # u = e^{-r^2/2}, V = 1 + r^2: ||u||^2 = 4 pi^{3/2} (gaussian moments)
    g = nl.build_radial_grid(12.0, 512, 2.0)
    u = nl.GridFunction(g, np.exp(-g.nodes**2 / 2.0))
    assert nl.norm_sq(u, params) == pytest.approx(4.0 * np.pi**1.5, rel=5e-3)


def test_inner_polarization(grid, params, rng):
    u = nl.GridFunction(grid, rng.uniform(0, 1, grid.M))
    v = nl.GridFunction(grid, rng.uniform(0, 1, grid.M))
    lhs = nl.functionals.inner(u, v, params)
    pol = 0.25 * (
        nl.norm_sq(nl.GridFunction(grid, u.values + v.values), params)
        - nl.norm_sq(nl.GridFunction(grid, u.values - v.values), params)
    )
    assert lhs == pytest.approx(pol, rel=1e-11)


def test_cartesian_energy_norm_unsupported(params):
    # the box carries the direct B engine only; G is the one energy operator
    u = nl.sample_profile("gaussian", 1.0, nl.build_cartesian_grid(3.0, 8))
    with pytest.raises(UnsupportedDimension):
        nl.norm_sq(u, params)
    with pytest.raises(UnsupportedDimension):
        nl.reduced_triple(u, params)


# --- banded energy operator ------------------------------------------------------

def _dense_bands(G):
    """Upper bands of G in the (3, M) layout of scipy's banded Cholesky."""
    M = len(G)
    Gb = np.zeros((3, M))
    for k in range(3):
        Gb[2 - k, k:] = np.diagonal(G, k)
    return Gb


@pytest.mark.parametrize("M", [64, 256])
def test_energy_operator_bands_match_dense_oracle(params, M):
    g = nl.build_radial_grid(20.0, M, 2.0)
    ws = workspace(g, params)
    G = dense_energy_operator(g, ws.V)
    # the central difference couples nodes i -/+ 1: nothing beyond offset 2
    assert not np.any(np.triu(G, 3))
    ref = _dense_bands(G)
    assert np.all(np.abs(ws.Gb - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("M", [64, 256])
def test_banded_operations_match_dense_linear_algebra(params, rng, M):
    g = nl.build_radial_grid(20.0, M, 2.0)
    ws = workspace(g, params)
    G = dense_energy_operator(g, ws.V)
    u, v = rng.uniform(0.0, 1.0, (2, M))
    Gu = G @ u
    np.testing.assert_allclose(ws.apply_G(u), Gu, rtol=0, atol=1e-14 * np.max(np.abs(Gu)))
    assert ws.norm_sq(u) == pytest.approx(u @ Gu, rel=1e-13)
    assert ws.inner(v, u) == pytest.approx(v @ Gu, rel=1e-13)
    z = np.linalg.solve(G, u)
    np.testing.assert_allclose(ws.solve_G(u), z, rtol=0, atol=1e-12 * np.max(np.abs(z)))
    shift = rng.uniform(0.0, 1.0, M) * np.diagonal(G)
    z = np.linalg.solve(G + np.diag(shift), u)
    np.testing.assert_allclose(ws.solve_shifted(shift, u), z, rtol=0,
                               atol=1e-12 * np.max(np.abs(z)))


def test_workspace_cache_does_not_keep_grid_alive(params):
    g = nl.build_radial_grid(10.0, 32, 2.0)
    ws = workspace(g, params)
    assert ws.grid.kind == "radial" and ws.grid.nodes is g.nodes
    entries = len(functionals._workspaces)
    ref = weakref.ref(g)
    del g
    assert ref() is None
    assert len(functionals._workspaces) == entries - 1


# --- A(u) ----------------------------------------------------------------------

def test_weight_a_homogeneity_exact(grid, params, gaussian):
    A = nl.weight_a(gaussian, params)
    A3 = nl.weight_a(gaussian.scaled(3.0), params)
    assert A3 == pytest.approx(3.0**params.q * A, rel=1e-12)
    assert nl.weight_a(nl.GridFunction(grid, np.zeros(grid.M)), params) == 0.0


def test_weight_a_adaptive_quadrature_oracle():
    prm = dataclasses.replace(nl.ProblemParams(), gamma3=1.2)
    g = nl.build_radial_grid(16.0, 256, 2.0)
    A = nl.weight_a(nl.sample_profile("gaussian", 1.0, g), prm)
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


def test_B_direct_fft_size_cap_names_the_cost(params):
    # m = 64 pads to 128^3 = 16 MB per array; m = 66 pads past the cap
    cg = nl.build_cartesian_grid(3.0, 66)
    u = nl.sample_profile("gaussian", 1.0, cg)
    ws = workspace(cg, params)
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge) as info:
            ws.w_u(u.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20   # refused before any FFT array is allocated
    msg = str(info.value)
    assert "m = 66" in msg and "17.5 MB" in msg and "16 MB" in msg


@pytest.mark.parametrize("m", [26, 32])
def test_B_direct_computes_at_m_26_and_32(params, m):
    cg = nl.build_cartesian_grid(3.0, m)
    wu = nl.nonlocal_potential(nl.sample_profile("gaussian", 1.0, cg), params)
    assert np.all(wu.values > 0.0) and np.all(np.isfinite(wu.values))


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
    ws = workspace(cg, prm)
    for (name, u), oracle in zip(profiles.items(), oracles.T):
        wu = ws.w_u(u)
        assert np.max(np.abs(wu - oracle) / oracle) <= 1e-13, name
        B = nl.steinweiss_B_direct(nl.GridFunction(cg, u), prm)
        B_oracle = cg.h**3 * np.sum(ws.b * u**prm.p * oracle)
        assert B == pytest.approx(B_oracle, rel=1e-13, abs=0.0), name


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
        wu = nl.nonlocal_potential(u, prm)
        assert np.all(wu.values > 0.0)
        assert np.all(np.isfinite(wu.values))


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
    # the in-place running sums keep the operation order of the plain
    # expression, so w_u does not move by a single bit
    r = nl.build_radial_grid(20.0, M, 2.0).nodes
    cells = rng.uniform(0.0, 2.0, M) / r
    for h in (rng.uniform(0.0, 1.0, M), rng.standard_normal(M) * np.exp(-r)):
        below = np.cumsum(h) - h
        t = h / r
        above = np.cumsum(t[::-1])[::-1] - t
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
    arrays = [v for v in vars(ws).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.size <= 3 * g.M for a in arrays)


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
    assert np.array_equal(ws._K, K)
    # dsymv reads one triangle of the F-ordered view K.T, which is K only
    # because the build keeps K symmetric bit for bit
    assert np.array_equal(ws._K, ws._K.T)
    h = rng.random(M)
    assert np.max(np.abs(apply(h) - K @ h)) <= 1e-13 * np.max(np.abs(K @ h))


def test_dense_kernel_build_holds_one_matrix():
    # the matrix is built in place; one 64-row block is the only scratch
    g = nl.build_radial_grid(20.0, 1024, 2.0)
    ws = functionals.FunctionalWorkspace(g, dataclasses.replace(nl.ProblemParams(), mu=1.5))
    tracemalloc.start()
    try:
        ws.kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws._K.shape == (1024, 1024)
    assert peak <= 1.25 * ws._K.nbytes


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
    wu = nl.nonlocal_potential(gaussian, params)
    assert np.all(wu.values >= 0.0) and np.all(np.isfinite(wu.values))
    wu2 = nl.nonlocal_potential(gaussian.scaled(2.0), params)
    assert wu2.values == pytest.approx(2.0**params.p * wu.values, rel=1e-12)
    zero = nl.GridFunction(gaussian.grid, np.zeros(gaussian.grid.M))
    assert np.all(nl.nonlocal_potential(zero, params).values == 0.0)


def test_nonlocal_selfconsistency_exact(params, gaussian):
    # integrating b u^p w_u reproduces B(u) (same-engine algebraic identity)
    ws = workspace(gaussian.grid, params)
    wu = nl.nonlocal_potential(gaussian, params)
    val = ws.space_integral(ws.b * gaussian.values**params.p * wu.values)
    assert val == pytest.approx(nl.steinweiss_B_radial(gaussian, params), rel=1e-10)


def test_D_uu_equals_B_exactly(params, smooth):
    D = nl.nonlocal_action(smooth, smooth, params)
    B = nl.steinweiss_B_radial(smooth, params)
    assert D == pytest.approx(B, rel=1e-13)


def test_D_linear_in_phi(params, smooth, grid, rng):
    phi1 = nl.GridFunction(grid, rng.normal(size=grid.M))
    phi2 = nl.GridFunction(grid, rng.normal(size=grid.M))
    combo = nl.GridFunction(grid, 2.0 * phi1.values - 0.7 * phi2.values)
    lhs = nl.nonlocal_action(smooth, combo, params)
    rhs = 2.0 * nl.nonlocal_action(smooth, phi1, params) - 0.7 * nl.nonlocal_action(smooth, phi2, params)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    zero = nl.GridFunction(grid, np.zeros(grid.M))
    assert nl.nonlocal_action(smooth, zero, params) == 0.0


# --- H -----------------------------------------------------------------------------

def test_H_uu_equals_A(params, grid):
    # |u|^{q-2} u * u = |u|^q for positive u; the slowly decaying profile
    # stays far above the 1e-10 floor everywhere, so the identity is exact
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0)
    assert np.min(u.values) > 1e-10 * np.max(u.values)
    assert nl.singular_action(u, u, params) == pytest.approx(
        nl.weight_a(u, params), rel=1e-13
    )


def test_H_zero_phi(params, smooth, grid):
    zero = nl.GridFunction(grid, np.zeros(grid.M))
    assert nl.singular_action(smooth, zero, params) == 0.0


def test_H_adaptive_quadrature_oracle():
    prm = dataclasses.replace(nl.ProblemParams(), gamma3=1.2)
    g = nl.build_radial_grid(16.0, 256, 2.0)
    u = nl.sample_profile("gaussian", 1.0, g)
    phi = nl.GridFunction(g, u.values**2)
    H = nl.singular_action(u, phi, prm)
    oracle = 4 * np.pi * scipy_integrate.quad(
        lambda r: (1 + r * r) ** -1.2 * np.exp(-r * r) ** (0.5 - 1) * np.exp(-r * r) ** 2 * r * r,
        0.0, g.R, epsabs=1e-13, epsrel=1e-12,
    )[0]
    assert H == pytest.approx(oracle, rel=1e-6)


def test_H_floor_domination_warns(grid):
    prm = nl.ProblemParams()
    # plateau-with-dead-tail profile against a non-decaying test function:
    # floored nodes carry a large share of the singular integrand
    vals = np.where(grid.nodes < 2.0, 1.0, 0.0)
    u = nl.GridFunction(grid, vals)
    phi = nl.GridFunction(grid, np.ones(grid.M))
    with pytest.warns(SingularMassWarning):
        nl.singular_action(u, phi, prm)


def test_floored_fraction_zero_for_slowly_decaying_profile(params, grid):
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0)
    assert nl.functionals.floored_fraction(u, params) == 0.0


def test_floored_fraction_counts_dead_tail(params, grid):
    vals = np.where(grid.nodes < 2.0, 1.0, 0.0)
    frac = nl.functionals.floored_fraction(nl.GridFunction(grid, vals), params)
    # dead tail carries 1 - (2/16)^3 of the ball volume (up to cell rounding)
    assert frac == pytest.approx(1.0 - 2.0**3 / 16.0**3, rel=1e-3)


# --- energy and gradient ------------------------------------------------------------

def test_energy_reference_arithmetic():
    triple = nl.ReducedTriple(E=1.0, A=1.0, B=1.0)
    prm = nl.ProblemParams()
    val = nl.functionals.energy_from_triple(triple, 0.1, prm)
    assert val == pytest.approx(0.5 - 0.2 - 0.25, abs=1e-15)


def test_energy_decreasing_in_lambda(params, smooth):
    assert nl.energy(smooth, 0.3, params) < nl.energy(smooth, 0.1, params)


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
    # floor inactive on the slowly decaying profile, so H(u, u) = A(u) exactly
    # and the gradient action at phi = u is the literal Nehari defect
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0)
    t = nl.reduced_triple(u, params)
    lam = 0.3
    val = nl.gradient_action(u, u, lam, params)
    assert val == pytest.approx(t.E - lam * t.A - t.B, rel=1e-12)


@pytest.mark.filterwarnings("ignore::neharilab.errors.SingularMassWarning")
def test_gradient_action_linear_in_phi(params, smooth, grid, rng):
    # random-sign phi against a fast-decaying u legitimately floor-dominates
    # H, which is irrelevant for the linearity being checked here
    phi1 = nl.GridFunction(grid, rng.normal(size=grid.M))
    phi2 = nl.GridFunction(grid, rng.normal(size=grid.M))
    combo = nl.GridFunction(grid, 1.3 * phi1.values + 0.2 * phi2.values)
    lam = 0.2
    lhs = nl.gradient_action(smooth, combo, lam, params)
    rhs = 1.3 * nl.gradient_action(smooth, phi1, lam, params) + 0.2 * nl.gradient_action(
        smooth, phi2, lam, params
    )
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_gradient_action_finite_difference_oracle(params, grid):
    # central difference of J along a direction that keeps u positive and
    # away from the singular floor
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0)
    lam = 0.25
    psi = 1.0 + 0.3 * np.sin(grid.nodes)
    phi = nl.GridFunction(grid, psi * u.values)
    eps = 1e-5
    up = nl.GridFunction(grid, u.values * (1 + eps * psi))
    um = nl.GridFunction(grid, u.values * (1 - eps * psi))
    fd = (nl.energy(up, lam, params) - nl.energy(um, lam, params)) / (2 * eps)
    assert nl.gradient_action(u, phi, lam, params) == pytest.approx(fd, rel=1e-5)
