import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import neharilab as nl
from neharilab.errors import (
    DegenerateGrid,
    GridError,
    LengthMismatch,
    ProfileNotInX,
    SnapshotError,
)

from oracles import loop_radial_grid


def test_radial_nodes_follow_graded_midpoint_formula():
    g = nl.build_radial_grid(20.0, 256, 2.0)
    assert g.nodes[0] == pytest.approx(20.0 * (0.5 / 256) ** 2, rel=1e-15)
    assert g.nodes[0] > 0.0
    i = np.arange(256)
    assert g.nodes == pytest.approx(20.0 * ((i + 0.5) / 256) ** 2, rel=1e-15)
    assert np.all(np.diff(g.nodes) > 0.0)


def test_radial_weights_positive_across_configs():
    for R, M, grading in ((10.0, 64, 1.0), (20.0, 256, 2.0), (12.0, 512, 3.0), (16.0, 128, 1.5)):
        g = nl.build_radial_grid(R, M, grading)
        assert np.all(g.weights > 0.0)


def test_constant_function_mass_exact():
    g = nl.build_radial_grid(10.0, 512, 2.0)
    total = nl.integrate(g, np.ones(g.M))
    assert total == pytest.approx(10.0**3 / 3.0, rel=1e-10)


def test_monomial_exactness_k_le_2():
    g = nl.build_radial_grid(10.0, 512, 2.0)
    for k in range(3):
        exact = 10.0 ** (k + 3) / (k + 3)
        assert nl.integrate(g, g.nodes**k) == pytest.approx(exact, rel=1e-9)


def test_gaussian_moment_oracle():
    # int_0^inf e^{-r^2} r^2 dr = sqrt(pi)/4, tail beyond R=10 is ~1e-44
    g = nl.build_radial_grid(10.0, 512, 2.0)
    val = nl.integrate(g, np.exp(-g.nodes**2))
    assert val == pytest.approx(np.sqrt(np.pi) / 4.0, rel=1e-8)


def test_refinement_convergence_factor():
    prev = None
    diffs = []
    for M in (32, 64, 128, 256, 512):
        g = nl.build_radial_grid(10.0, M, 2.0)
        val = nl.integrate(g, np.exp(-g.nodes**2))
        if prev is not None:
            diffs.append(abs(val - prev))
        prev = val
    for a, b in zip(diffs, diffs[1:]):
        if a > 1e-13 * abs(prev):
            assert b < a / 3.0


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("grading", [1.0, 2.0, 2.7])
@pytest.mark.parametrize("M", [16, 17, 100, 1024])
def test_radial_weights_match_per_cell_loop(M, grading, dim):
    # whole-array weights keep each weight's summation order: bit-identical
    nodes, weights = loop_radial_grid(20.0, M, grading, dim)
    if not np.all(weights > 0.0):
        # the rule itself has a nonpositive weight here (N = 5, grading 2.7)
        with pytest.raises(GridError, match="nonpositive quadrature weight"):
            nl.build_radial_grid(20.0, M, grading, dim)
        return
    g = nl.build_radial_grid(20.0, M, grading, dim)
    assert np.array_equal(g.nodes, nodes)
    assert np.array_equal(g.weights, weights)


@pytest.mark.parametrize("R, grading, name", [
    (float("nan"), 2.0, "R"), (float("inf"), 2.0, "R"), (-float("inf"), 2.0, "R"),
    (20.0, float("nan"), "grading"), (20.0, float("inf"), "grading"),
])
def test_nonfinite_grid_inputs_rejected_by_name(R, grading, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # refused before any arithmetic
        with pytest.raises(GridError, match=f"^{name} must be finite"):
            nl.build_radial_grid(R, 256, grading)


@pytest.mark.parametrize("R", [1e62, 1e300])
def test_radius_whose_cell_moments_overflow_is_named(R):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # refused before numpy overflows
        with pytest.raises(GridError, match=f"^R = {re.escape(str(R))} is too large"):
            nl.build_radial_grid(R, 256)


# the largest R whose R^5 underflows to 0 (N = 3)
LAST_UNDERFLOWING_R = 1.8991135491519597e-65


@pytest.mark.parametrize("R", [1e-200, 1e-70, LAST_UNDERFLOWING_R])
def test_radius_whose_cell_moments_underflow_is_named(R):
    # once blamed on the grading (1e-70, by the head rule) or ended in
    # numpy's invalid-value warning (1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # refused before numpy divides 0 by 0
        with pytest.raises(GridError, match=f"^R = {re.escape(str(R))} is too small"):
            nl.build_radial_grid(R, 64)


def test_underflow_refusal_leaves_every_radius_that_builds():
    # from the next float up the check passes: there the head rule still
    # refuses M = 64, and the smallest radii that build (M = 16, grading 1,
    # from about 2e-64) still build
    assert LAST_UNDERFLOWING_R**5 == 0.0
    above = float(np.nextafter(LAST_UNDERFLOWING_R, 1.0))
    assert above**5 > 0.0
    with pytest.raises(GridError, match="head rule"):
        nl.build_radial_grid(above, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = nl.build_radial_grid(1e-63, 16, 1.0)
    assert (g.weights > 0.0).all()


@pytest.mark.parametrize("R", [1e-9, 1e61])
def test_extreme_radius_with_finite_cell_moments_builds(R):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = nl.build_radial_grid(R, 256)
    assert (g.weights > 0.0).all()
    assert g.weights.sum() == pytest.approx(R**3 / 3.0, rel=1e-12)


@pytest.mark.parametrize("L", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_box_halfwidth_must_be_finite_and_positive(L):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # refused before any arithmetic
        with pytest.raises(GridError, match="^L must be finite and positive"):
            nl.build_cartesian_grid(L, 8)


@pytest.mark.parametrize("dim, grading", [(3, 4.0), (4, 3.0), (5, 2.5)])
def test_grading_beyond_the_head_rule_is_named(dim, grading):
    # inputs that pass validation but leave weight 3 nonpositive: a named
    # limit of the exact-mass head rule, not an internal fault
    with pytest.raises(GridError) as info:
        nl.build_radial_grid(20.0, 256, grading, dim)
    msg = str(info.value)
    assert f"cannot take N = {dim} with grading = {grading}" in msg
    assert "exact-mass head rule" in msg and "node 3" in msg
    assert "internal" not in msg


def test_degenerate_grid_rejected():
    with pytest.raises(DegenerateGrid):
        nl.build_radial_grid(10.0, 8)


def test_higher_dimension_radial_grid():
    # the radial machinery carries arbitrary N >= 3 (the measure is r^(N-1) dr)
    g = nl.build_radial_grid(10.0, 256, 2.0, dim=4)
    assert nl.integrate(g, np.ones(g.M)) == pytest.approx(10.0**4 / 4.0, rel=1e-10)
    assert g.omega == pytest.approx(2 * np.pi**2, rel=1e-14)  # S^3 measure


def test_integrate_is_monotone_under_domination(rng):
    g = nl.build_radial_grid(10.0, 64, 2.0)
    f = rng.uniform(0.0, 1.0, g.M)
    assert nl.integrate(g, f) <= nl.integrate(g, f + 0.5)
    assert nl.integrate(g, np.zeros(g.M)) == 0.0


def test_integrate_length_mismatch():
    g = nl.build_radial_grid(10.0, 64, 2.0)
    with pytest.raises(LengthMismatch):
        nl.integrate(g, np.ones(65))


# --- cartesian -----------------------------------------------------------------

def test_cartesian_construction():
    g = nl.build_cartesian_grid(8.0, 16)
    assert g.h == pytest.approx(1.0)
    assert g.points.shape == (4096, 3)
    assert np.min(np.linalg.norm(g.points, axis=1)) > 0.0


@pytest.mark.parametrize("L,m", [(3.0, 8), (4.55, 24), (1.7, 64)])
def test_cartesian_radii_are_the_norms_of_the_points_bit_for_bit(L, m):
    g = nl.build_cartesian_grid(L, m)
    pts = g.points
    assert pts.shape == (m**3, 3)
    assert np.array_equal(pts[:m, 2], g.axis) and np.all(pts[:m, :2] == g.axis[0])
    assert np.array_equal(g.radii, np.linalg.norm(pts, axis=1))


def test_cartesian_grid_stores_its_axis_not_its_points():
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = nl.build_cartesian_grid(3.0, 64)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.axis.shape == (64,)
    assert peak < 2**20   # the (m^3, 3) points would take 6 MB


def test_cartesian_odd_m_rejected():
    with pytest.raises(GridError):
        nl.build_cartesian_grid(8.0, 15)
    with pytest.raises(DegenerateGrid):
        nl.build_cartesian_grid(8.0, 4)


def test_cartesian_volume_partition():
    g = nl.build_cartesian_grid(8.0, 16)
    assert nl.integrate(g, np.ones(g.size)) == pytest.approx((2 * 8.0) ** 3, rel=1e-13)


def test_cartesian_symmetry_under_axis_permutation():
    g = nl.build_cartesian_grid(4.0, 8)
    pts = {tuple(np.round(p, 12)) for p in g.points}
    for perm in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
        assert {tuple(np.round(p[list(perm)], 12)) for p in g.points} == pts


def test_cartesian_gaussian_integral():
    g = nl.build_cartesian_grid(6.0, 24)
    val = nl.integrate(g, np.exp(-np.linalg.norm(g.points, axis=1) ** 2))
    assert val == pytest.approx(np.pi**1.5, rel=1e-2)


# --- profiles -----------------------------------------------------------------

def test_gaussian_profile_near_origin(grid):
    u = nl.sample_profile("gaussian", 1.0, grid)
    assert u.values[0] == pytest.approx(np.exp(-grid.nodes[0] ** 2), rel=1e-14)


def test_inverse_poly_profile_definition(grid):
    u = nl.sample_profile("inverse_poly", 1.0, grid, beta=1.0)
    assert u.values == pytest.approx((1 + grid.nodes**2) ** -1.0, rel=1e-14)


def test_profile_scaling_composition(grid):
    # the graded grid with half the radius has nodes exactly r_i / 2, so
    # sample(sigma=2) on the full grid must equal sample(sigma=1) there
    half = nl.build_radial_grid(grid.R / 2.0, grid.M, grid.grading)
    assert half.nodes == pytest.approx(grid.nodes / 2.0, rel=1e-15)
    for family, beta in (("gaussian", None), ("inverse_poly", 1.5)):
        u2 = nl.sample_profile(family, 2.0, grid, beta=beta)
        base = nl.sample_profile(family, 1.0, half, beta=beta)
        assert u2.values == pytest.approx(base.values, rel=1e-13, abs=1e-300)


def test_profiles_are_their_closed_forms_bit_for_bit(grid):
    # the formulas as written in the sample_profile docstring, scale by scale
    for sigma in (0.35, 1.0, 4.0):
        r = grid.nodes / sigma
        for family, beta, expected in (("gaussian", None, np.exp(-(r**2))),
                                       ("inverse_poly", 1.0, (1.0 + r**2) ** (-1.0)),
                                       ("inverse_poly", 1.5, (1.0 + r**2) ** (-1.5))):
            u = nl.sample_profile(family, sigma, grid, beta=beta)
            assert np.array_equal(u.values, expected), (family, beta, sigma)


def test_profile_errors(grid):
    with pytest.raises(GridError, match="scale must be positive"):
        nl.sample_profile("gaussian", 0.0, grid)
    # a NaN scale fails every comparison: it is refused by name, not as
    # non-finite values
    for family, beta in (("gaussian", None), ("inverse_poly", 1.5)):
        for scale in (np.nan, np.inf, -np.inf):
            with pytest.raises(GridError, match=f"scale must be positive and finite, got {scale}"):
                nl.sample_profile(family, scale, grid, beta=beta)
    with pytest.raises(GridError, match="needs beta"):
        nl.sample_profile("inverse_poly", 1.0, grid)
    with pytest.raises(GridError, match="unknown profile family"):
        nl.sample_profile("lorentzian", 1.0, grid)


def test_slow_decay_profile_warns(grid):
    with pytest.warns(ProfileNotInX):
        nl.sample_profile("inverse_poly", 1.0, grid, beta=0.4)


def test_positive_cone_membership(grid):
    u = nl.sample_profile("inverse_poly", 2.0, grid, beta=1.5)
    assert u.in_positive_cone
    zero = nl.GridFunction(grid, np.zeros(grid.M))
    assert not zero.in_positive_cone


# --- snapshots -----------------------------------------------------------------

def test_grid_function_shape_checked(grid):
    with pytest.raises(LengthMismatch):
        nl.GridFunction(grid, np.ones(grid.M + 1))
    with pytest.raises(GridError):
        nl.GridFunction(grid, np.full(grid.M, np.nan))


def test_snapshot_roundtrip_bit_exact(tmp_path, grid, params, rng):
    u = nl.GridFunction(grid, rng.uniform(0.0, 1.0, grid.M))
    path = tmp_path / "snap.json"
    nl.save_snapshot(path, u, params=params, extra={"lambda": 0.25})
    loaded, prm_dict, extra = nl.load_snapshot(path)
    assert np.array_equal(loaded.values, u.values)  # bit-exact
    assert loaded.grid.R == grid.R and loaded.grid.M == grid.M
    assert prm_dict["alpha"] == params.alpha
    assert extra["lambda"] == 0.25


def test_snapshot_checksum_detects_corruption(tmp_path, grid):
    u = nl.GridFunction(grid, np.linspace(0.0, 1.0, grid.M))
    path = tmp_path / "snap.json"
    nl.save_snapshot(path, u)
    doc = json.loads(path.read_text())
    doc["values"][3] = doc["values"][3] + 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(SnapshotError):
        nl.load_snapshot(path)


@pytest.mark.parametrize("damage, message", [
    ("truncated", "is not ASCII JSON: "),
    ("array", "unknown snapshot format None"),
    (("grid",), "lacks the key 'grid'"),
    (("grid", "M"), "lacks the key 'M'"),
    (("values",), "lacks the key 'values'"),
    (("checksum",), "lacks the key 'checksum'"),
], ids=["truncated", "array", "grid", "grid.M", "values", "checksum"])
def test_malformed_snapshot_is_named_snapshot_error(tmp_path, grid, damage, message):
    # a damaged file or a key deleted from a good one
    path = tmp_path / "snap.json"
    nl.save_snapshot(path, nl.GridFunction(grid, np.linspace(0.0, 1.0, grid.M)))
    if isinstance(damage, str):
        path.write_text({"truncated": path.read_text()[:100], "array": "[1, 2]\n"}[damage])
    else:
        doc = json.loads(path.read_text())
        *outer, key = damage
        block = doc
        for name in outer:
            block = block[name]
        del block[key]
        path.write_text(json.dumps(doc))
    with pytest.raises(SnapshotError, match=re.escape(message)):
        nl.load_snapshot(path)


def test_snapshots_are_radial_only(tmp_path, grid):
    # a box grid is refused on writing, and a file naming one on reading
    box = nl.build_cartesian_grid(3.0, 8)
    path = tmp_path / "snap.json"
    with pytest.raises(SnapshotError, match="got a cartesian grid"):
        nl.save_snapshot(path, nl.GridFunction(box, np.ones(box.size)))
    assert not path.exists()
    nl.save_snapshot(path, nl.GridFunction(grid, np.linspace(0.0, 1.0, grid.M)))
    doc = json.loads(path.read_text())
    doc["grid"] = {"kind": "cartesian", "L": 3.0, "m": 8}
    path.write_text(json.dumps(doc))
    with pytest.raises(SnapshotError, match="unknown grid kind 'cartesian'"):
        nl.load_snapshot(path)
