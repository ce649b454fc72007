"""Discretization of nonnegative radial/Cartesian functions with quadrature.

Radial grids live on a truncated domain [0, R] with graded midpoint nodes

    r_i = R * ((i - 1/2) / M)^grading,   i = 1..M,

so no node ever touches the origin where |x|^(-alpha) is singular.  Weights
approximate the measure r^(N-1) dr by product integration: each cell's exact
moments are paired with the quadratic interpolant through the cell's node and
its neighbours, except on the first few cells where the exact cell mass is
used unchanged (keeps every weight positive without measurable accuracy
loss — those cells carry ~1e-14 of the total mass on graded grids).  The rule
integrates r^k, k <= 2, to machine precision and sums exactly to R^N / N
while R^(N+2) is normal (subnormal at N = 3, R = 1e-63: only within 3.0e-6).
The head rule holds up to a grading that falls with N (about 3.59 at N = 3,
2.87 at N = 4, 2.39 at N = 5, the same at every M); beyond it weight 3
turns nonpositive and the build raises GridError saying so.

Cartesian grids are cell-centered cubes in N = 3 used by the direct (FFT
convolution) nonlocal engine; with an even number of points per axis the
origin is never a node.  The builder refuses a box past that engine's
memory cap by name, before any engine work.  A box stores its axis of m
cell centers only; its (m^3, 3) points and its radii are formed when read.
"""

from __future__ import annotations

import hashlib
import json
import math
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
from .functionals import check_box_footprint
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
    axis: np.ndarray  # (m,) cell centers along each axis

    kind = "cartesian"
    dim = 3

    @property
    def points(self) -> np.ndarray:
        """(m^3, 3) cell centers, the last coordinate varying fastest."""
        a = self.axis
        return np.array(np.meshgrid(a, a, a, indexing="ij")).reshape(3, -1).T

    @property
    def radii(self) -> np.ndarray:
        """|x| at the cell centers in the order of points, summed as
        np.linalg.norm(points, axis=1) sums, so equal to it bit for bit."""
        a2 = self.axis**2
        return np.sqrt((a2[:, None, None] + a2[None, :, None]) + a2[None, None, :]).reshape(-1)

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
        if not np.isfinite(self.values).all():
            raise GridError("grid function values must be finite")

    def scaled(self, s: float) -> "GridFunction":
        return GridFunction(self.grid, s * self.values)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    @property
    def in_positive_cone(self) -> bool:
        v = self.values
        return bool((v >= 0.0).all() and (v > 0.0).any())


def build_radial_grid(R: float, M: int, grading: float = 2.0, dim: int = 3) -> RadialGrid:
    """Build the graded radial grid; M >= 16, R finite and positive with
    R^(N+2) finite and nonzero, grading finite and >= 1.  Where R^(N+2) is
    subnormal the r^(N+2) moments have lost precision, and a nonpositive
    weight is blamed on R, not on the grading."""
    if M < 16:
        raise DegenerateGrid(f"M must be >= 16, got {M}")
    if not (np.isfinite(R) and R > 0.0):
        raise GridError(f"R must be finite and positive, got {R}")
    if not (np.isfinite(grading) and grading >= 1.0):
        raise GridError(f"grading must be finite and >= 1, got {grading}")
    if dim < 3:
        raise UnsupportedDimension(f"dim must be >= 3, got {dim}")

    N = dim
    # the largest cell moment's power of R: where it overflows a moment is
    # infinite, and where it underflows to 0 so does every r^(N+2) moment
    try:
        top = float(R) ** (N + 2)
    except OverflowError:
        raise GridError(f"R = {R} is too large: the cell moments r^(k+N), k <= 2, of the "
                        f"radial quadrature overflow at N = {N}") from None
    if top == 0.0:
        raise GridError(f"R = {R} is too small: the cell moments r^(k+N), k <= 2, of the "
                        f"radial quadrature underflow at N = {N}")
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
        if top < np.finfo(float).tiny:
            raise GridError(
                f"R = {R} is too small: the cell moments r^(k+N), k <= 2, of the radial "
                f"quadrature are subnormal at N = {N}, so the rule built on them (the "
                f"exact-mass head rule, then the quadratic one) leaves a nonpositive "
                f"quadrature weight at node {int(np.argmin(w))}")
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
    """Cell-centered cube [-L, L]^3; L finite and positive, m even and >= 8
    (no origin node) and within the direct engine's memory cap, the box's one
    use (GridTooLarge past m = 76)."""
    if m < 8:
        raise DegenerateGrid(f"m must be >= 8, got {m}")
    if m % 2 != 0:
        raise GridError(f"m must be even so no node sits at the origin, got {m}")
    check_box_footprint(m)
    if not (np.isfinite(L) and L > 0.0):
        raise GridError(f"L must be finite and positive, got {L}")
    h = 2.0 * L / m
    axis = (np.arange(m) + 0.5) * h - L
    assert np.min(np.abs(axis)) > 0.0, "no node may sit at the origin"
    return CartesianGrid(L=float(L), m=int(m), h=h, axis=axis)


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

PROFILE_FAMILIES = ("gaussian", "inverse_poly")


def sample_profile(family: str, scale: float, grid, beta: float | None = None) -> GridFunction:
    """Sample a nonnegative trial profile u(|x|/scale) on the grid.

    gaussian:        u(r) = exp(-(r/scale)^2)
    inverse_poly:    u(r) = (1 + (r/scale)^2)^(-beta), beta > (N-2)/2

    The formula is applied in place to x = r/scale, in the order written.
    """
    _check_scale(scale)
    x = grid.radii / scale
    if family == "gaussian":
        x **= 2
        np.negative(x, out=x)
        np.exp(x, out=x)
    elif family == "inverse_poly":
        if beta is None:
            raise GridError("inverse_poly profile needs beta")
        if beta <= (grid.dim - 2) / 2.0:
            warnings.warn(
                f"inverse_poly decay beta={beta} <= (N-2)/2: profile leaves the energy "
                "space on the whole space (truncation regularizes it)",
                ProfileNotInX,
                stacklevel=2,
            )
        x **= 2
        x += 1.0
        x **= -beta
    else:
        raise GridError(f"unknown profile family {family!r} (supported: {PROFILE_FAMILIES})")
    return GridFunction(grid, x)


def _check_scale(scale) -> None:
    if not (math.isfinite(scale) and scale > 0.0):
        raise GridError(f"scale must be positive and finite, got {scale}")


# --- snapshots ---------------------------------------------------------------

SNAPSHOT_FORMAT = "neharilab-snapshot-1"


def _values_checksum(values) -> str:
    payload = ",".join(repr(float(v)) for v in values)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def save_snapshot(path, u: GridFunction, params=None, extra=None) -> None:
    """Write a bit-exact JSON snapshot of a grid function on a radial grid.

    Floats are serialized with shortest round-trip repr, so load_snapshot
    reconstructs the identical doubles; the checksum covers the values array.
    """
    g = u.grid
    if g.kind != "radial":
        raise SnapshotError(f"snapshots hold radial grid functions, got a {g.kind} grid")
    doc = {
        "format": SNAPSHOT_FORMAT,
        "params": dict(params.__dict__) if params is not None else None,
        "grid": {"kind": "radial", "R": g.R, "M": g.M, "grading": g.grading, "dim": g.dim},
        "values": [float(v) for v in u.values],
        "extra": extra or {},
        "checksum": _values_checksum(u.values),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_snapshot(path):
    """Read a snapshot; returns (GridFunction, params_dict, extra_dict).

    A file that is not ASCII JSON, not a snapshot object, or lacks a key
    the grid or the values need raises SnapshotError naming the JSON error,
    the format or the key."""
    with open(path, encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:   # JSONDecodeError, UnicodeDecodeError
            raise SnapshotError(f"snapshot {path} is not ASCII JSON: {err}") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(f"unknown snapshot format {fmt!r}")
    try:
        gb = doc["grid"]
        if gb["kind"] != "radial":
            raise SnapshotError(f"unknown grid kind {gb['kind']!r}")
        grid = build_radial_grid(gb["R"], gb["M"], gb["grading"], gb.get("dim", 3))
        values, checksum = np.asarray(doc["values"], dtype=float), doc["checksum"]
    except KeyError as err:
        raise SnapshotError(f"snapshot {path} lacks the key {err}") from None
    if _values_checksum(values) != checksum:
        raise SnapshotError("snapshot checksum mismatch")
    return GridFunction(grid, values), doc.get("params"), doc.get("extra", {})
