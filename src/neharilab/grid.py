"""Discretization of nonnegative radial/Cartesian functions with quadrature.

Radial grids live on a truncated domain [0, R] with graded midpoint nodes

    r_i = R * ((i - 1/2) / M)^grading,   i = 1..M,

so no node ever touches the origin where |x|^(-alpha) is singular.  Weights
approximate the measure r^(N-1) dr by product integration: each cell's exact
moments are paired with the quadratic interpolant through the cell's node and
its neighbours, except on the first few cells where the exact cell mass is
used unchanged (keeps every weight positive without measurable accuracy
loss — those cells carry ~1e-14 of the total mass on graded grids).  The rule
integrates r^k, k <= 2, to machine precision and sums exactly to R^N / N.
The head rule holds up to a grading that falls with N (about 3.59 at N = 3,
2.87 at N = 4, 2.39 at N = 5, the same at every M); beyond it weight 3
turns nonpositive and the build raises GridError saying so.

Cartesian grids are cell-centered cubes in N = 3 used by the direct (FFT
convolution) nonlocal engine; with an even number of points per axis the
origin is never a node.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateGrid,
    GridError,
    LengthMismatch,
    ProfileNotInX,
    SnapshotError,
    UnsupportedDimension,
)
from .params import sphere_area

_MASS_HEAD_CELLS = 4  # leading cells kept at exact cell mass (positivity guard)


@dataclass(eq=False)
class RadialGrid:
    """Graded radial quadrature grid on [0, R] for the measure r^(N-1) dr."""

    nodes: np.ndarray
    weights: np.ndarray
    cell_widths: np.ndarray
    R: float
    M: int
    grading: float
    dim: int
    omega: float  # measure of the unit sphere S^(N-1)

    kind = "radial"

    @property
    def radii(self) -> np.ndarray:
        return self.nodes

    @property
    def size(self) -> int:
        return self.M


@dataclass(eq=False)
class CartesianGrid:
    """Cell-centered cube grid in N = 3, half-width L, m points per axis."""

    L: float
    m: int
    h: float
    points: np.ndarray  # (m^3, 3) cell centers

    kind = "cartesian"

    @property
    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    @property
    def size(self) -> int:
        return self.m**3


@dataclass
class GridFunction:
    """Nodal values of a function on a grid."""

    grid: RadialGrid | CartesianGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise LengthMismatch(
                f"values shape {self.values.shape} does not match grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GridError("grid function values must be finite")

    def scaled(self, s: float) -> "GridFunction":
        return GridFunction(self.grid, s * self.values)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    @property
    def in_positive_cone(self) -> bool:
        return bool(np.all(self.values >= 0.0) and np.any(self.values > 0.0))


def build_radial_grid(R: float, M: int, grading: float = 2.0, dim: int = 3) -> RadialGrid:
    """Build the graded radial grid; M >= 16, R finite and positive, grading
    finite and >= 1."""
    if M < 16:
        raise DegenerateGrid(f"M must be >= 16, got {M}")
    if not (np.isfinite(R) and R > 0.0):
        raise GridError(f"R must be finite and positive, got {R}")
    if not (np.isfinite(grading) and grading >= 1.0):
        raise GridError(f"grading must be finite and >= 1, got {grading}")
    if dim < 3:
        raise UnsupportedDimension(f"dim must be >= 3, got {dim}")

    N = dim
    i = np.arange(M)
    r = R * ((i + 0.5) / M) ** grading
    edges = R * (np.arange(M + 1) / M) ** grading

    def cell_moment(k):  # integral of r^k * r^(N-1) over each cell, exact
        return (edges[1:] ** (k + N) - edges[:-1] ** (k + N)) / (k + N)

    # Cell c >= h pairs its moments with the interpolant through nodes j - 1,
    # j, j + 1, j = min(c, M - 2).  Each weight sums its terms in cell order:
    # from cell k - 1, then k, then k + 1, then the last cell's.
    h = _MASS_HEAD_CELLS
    m0, m1, m2 = cell_moment(0), cell_moment(1), cell_moment(2)
    j = np.minimum(np.arange(h, M), M - 2)
    x0, x1, x2 = r[j - 1], r[j], r[j + 1]

    def lagrange(xa, xb, xc):  # cell integrals of the basis function at xa
        return (m2[h:] - (xb + xc) * m1[h:] + xb * xc * m0[h:]) / ((xa - xb) * (xa - xc))

    left, centre, right = lagrange(x0, x1, x2), lagrange(x1, x0, x2), lagrange(x2, x0, x1)
    w = np.zeros(M)
    w[:h] = m0[:h]
    w[h + 1:] += right[:-1]
    w[h:-1] += centre[:-1]
    w[h - 1:-2] += left[:-1]
    w[-3:] += (left[-1], centre[-1], right[-1])

    if not np.all(w > 0.0):
        # the quadratic of cell h gives node h - 1 a negative term that, on
        # strongly graded grids, outweighs the exact mass of head cell h - 1
        raise GridError(
            f"the exact-mass head rule of the radial quadrature (its first {h} cells) "
            f"cannot take N = {N} with grading = {grading}: it leaves a nonpositive "
            f"quadrature weight at node {int(np.argmin(w))}; lower the grading")
    assert r[0] > 0.0, "no node may sit at the origin"
    return RadialGrid(
        nodes=r,
        weights=w,
        cell_widths=np.diff(edges),
        R=float(R),
        M=int(M),
        grading=float(grading),
        dim=N,
        omega=sphere_area(N),
    )


def build_cartesian_grid(L: float, m: int) -> CartesianGrid:
    """Cell-centered cube [-L, L]^3; m even and >= 8 (no origin node)."""
    if m < 8:
        raise DegenerateGrid(f"m must be >= 8, got {m}")
    if m % 2 != 0:
        raise GridError(f"m must be even so no node sits at the origin, got {m}")
    if L <= 0.0:
        raise GridError(f"L must be positive, got {L}")
    h = 2.0 * L / m
    axis = (np.arange(m) + 0.5) * h - L
    pts = np.array(np.meshgrid(axis, axis, axis, indexing="ij")).reshape(3, -1).T
    assert np.min(np.linalg.norm(pts, axis=1)) > 0.0
    return CartesianGrid(L=float(L), m=int(m), h=h, points=pts)


def integrate(grid, values) -> float:
    """Quadrature sum of nodal values.

    Radial grids integrate against r^(N-1) dr WITHOUT the angular factor
    omega_N (the caller applies it); Cartesian grids return the plain cell sum
    times h^3.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise LengthMismatch(f"{values.shape} vs grid size {grid.size}")
    if grid.kind == "radial":
        return float(grid.weights @ values)
    return float(grid.h**3 * values.sum())


# --- trial profiles ---------------------------------------------------------

PROFILE_FAMILIES = ("gaussian", "sobolev_bump", "inverse_poly")


def sample_profile(family: str, scale: float, grid, beta: float | None = None) -> GridFunction:
    """Sample a nonnegative trial profile u(|x|/scale) on the grid.

    gaussian:        u(r) = exp(-(r/scale)^2)
    sobolev_bump:    u(r) = exp(1 - 1/(1 - (r/scale)^2)) for r < scale, else 0
    inverse_poly:    u(r) = (1 + (r/scale)^2)^(-beta), beta > (N-2)/2
    """
    if scale <= 0.0:
        raise GridError(f"scale must be positive, got {scale}")
    r = grid.radii / scale
    if family == "gaussian":
        vals = np.exp(-(r**2))
    elif family == "sobolev_bump":
        vals = np.zeros_like(r)
        inside = r < 1.0
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
        if not np.any(vals > 0.0):
            raise GridError("bump support contains no grid node; increase scale")
    elif family == "inverse_poly":
        if beta is None:
            raise GridError("inverse_poly profile needs beta")
        dim = grid.dim if grid.kind == "radial" else 3
        if beta <= (dim - 2) / 2.0:
            warnings.warn(
                f"inverse_poly decay beta={beta} <= (N-2)/2: profile leaves the energy "
                "space on the whole space (truncation regularizes it)",
                ProfileNotInX,
                stacklevel=2,
            )
        vals = (1.0 + r**2) ** (-beta)
    else:
        raise GridError(f"unknown profile family {family!r} (supported: {PROFILE_FAMILIES})")
    return GridFunction(grid, vals)


# --- snapshots ---------------------------------------------------------------

SNAPSHOT_FORMAT = "neharilab-snapshot-1"


def _values_checksum(values) -> str:
    payload = ",".join(repr(float(v)) for v in values)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def save_snapshot(path, u: GridFunction, params=None, extra=None) -> None:
    """Write a bit-exact JSON snapshot of a grid function.

    Floats are serialized with shortest round-trip repr, so load_snapshot
    reconstructs the identical doubles; the checksum covers the values array.
    """
    g = u.grid
    if g.kind == "radial":
        grid_block = {"kind": "radial", "R": g.R, "M": g.M, "grading": g.grading, "dim": g.dim}
    else:
        grid_block = {"kind": "cartesian", "L": g.L, "m": g.m}
    doc = {
        "format": SNAPSHOT_FORMAT,
        "params": dict(params.__dict__) if params is not None else None,
        "grid": grid_block,
        "values": [float(v) for v in u.values],
        "extra": extra or {},
        "checksum": _values_checksum(u.values),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_snapshot(path):
    """Read a snapshot; returns (GridFunction, params_dict, extra_dict)."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    if doc.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"unknown snapshot format {doc.get('format')!r}")
    gb = doc["grid"]
    if gb["kind"] == "radial":
        grid = build_radial_grid(gb["R"], gb["M"], gb["grading"], gb.get("dim", 3))
    elif gb["kind"] == "cartesian":
        grid = build_cartesian_grid(gb["L"], gb["m"])
    else:
        raise SnapshotError(f"unknown grid kind {gb['kind']!r}")
    values = np.asarray(doc["values"], dtype=float)
    if _values_checksum(values) != doc["checksum"]:
        raise SnapshotError("snapshot checksum mismatch")
    return GridFunction(grid, values), doc.get("params"), doc.get("extra", {})
