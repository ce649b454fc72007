"""Energy ingredients of the variational problem.

On the truncated radial domain the energy-space norm is

    ||u||^2 = omega_N * int (u'^2 + V u^2) r^(N-1) dr

with central differences (one-sided closure at both ends, hard zero at r = R)
so the discrete inner product is the bilinear form of a symmetric positive
definite matrix G built once per (grid, potential) pair.  G = omega (D^T W D
+ diag(w V)) is pentadiagonal, so it is stored as its three upper bands,
assembled in O(M) and factored by banded Cholesky.  G is the only energy
operator: a Cartesian box is input to the direct B engine alone, and the
norm, the inner product, the reduced triple and the energy raise
UnsupportedDimension on it.

The nonlocal interaction

    B(u) = int int b(y)|u(y)|^p b(x)|u(x)|^p / (|x|^a |x-y|^mu |y|^a) dx dy

has two independent engines in N = 3:

* radial: the angular integral collapses to the closed-form kernel
      k_mu(r, s) = ((r+s)^(2-mu) - |r-s|^(2-mu)) / (r s (2-mu))      (mu != 2)
      k_2(r, s)  = log((r+s)/|r-s|) / (r s)
  giving B = 8 pi^2 II f(r) f(s) r^(2-a) s^(2-a) k_mu(r, s) dr ds with
  f = b u^p.  Diagonal cells integrate the lone singular factor |r-s|^(2-mu)
  analytically over the cell; all smooth factors are frozen at cell centers.
  At mu = 1 the kernel is Newton's k_1(r, s) = 2/max(r, s), so applying it
  to h is 2/r_i times the sum of h_j below i plus the sum of 2 h_j/r_j above
  i, plus the diagonal cell (2r - d/3)/r^2 h_i: two running sums, O(M) time
  and memory.  Any other mu stores the dense M x M matrix (M <= 4096) and
  applies it by BLAS dsymv, which reads one triangle: half the memory traffic
  of a general product.  This relies on the matrix being symmetric bit for
  bit, which the build keeps: r + s, |r - s| and r s commute in IEEE
  arithmetic, so entries (i, j) and (j, i) are the same operations on the
  same operands.
* direct: midpoint pair sum over a Cartesian box with lattice kernel
  h^3 (h|k|)^(-mu) at lag k, computed as one free-space FFT convolution on
  the zero-padded (2m)^3 box (Hockney & Eastwood 1988), O(m^3 log m).  The
  zero-lag entry is the self-cell term 4 pi rho^(3-mu)/(3-mu), rho the
  equal-volume-sphere radius (3 h^3 / 4 pi)^(1/3).

Both engines evaluate B through the nonlocal potential w_u, so the discrete
identity D(u, u) = B(u) holds exactly.

One evaluation per point: FunctionalWorkspace.evaluate computes w_u once and
returns it with (E, A, B); the triple, the energy, the Euler-Lagrange defect
and its weak residual are all read from that record.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, solveh_banded
from scipy.linalg.blas import daxpy, dsbmv, dsymv

from .errors import (
    GridTooLarge,
    KernelDomain,
    LengthMismatch,
    NotInPositiveCone,
    SingularMassWarning,
    UnsupportedDimension,
)
from .grid import GridFunction
from .params import ProblemParams

DEFAULT_FLOOR_FACTOR = 1e-10
# the dense kernel is built in place: the M x M matrix (128 MB at the cap)
# plus one _KERNEL_ROW_BLOCK x M block (2 MB); mu = 1 stores no matrix
_DENSE_KERNEL_MAX_M = 4096
_KERNEL_ROW_BLOCK = 64
_BOX_FFT_MAX_MB = 16  # per padded (2m)^3 float array of the direct engine: m <= 64


@dataclass(frozen=True)
class ReducedTriple:
    """The scalars (E, A, B) = (||u||^2, A(u), B(u)); fields may be arrays."""

    E: float
    A: float
    B: float

    def as_tuple(self):
        return self.E, self.A, self.B


@dataclass(frozen=True)
class Evaluation:
    """A nodal vector u with its nonlocal potential w_u and its (E, A, B)."""

    u: np.ndarray
    w_u: np.ndarray
    triple: ReducedTriple


# --------------------------------------------------------------------------
# workspace: per-(grid, params) cached operators
# --------------------------------------------------------------------------

class FunctionalWorkspace:
    def __init__(self, grid, params: ProblemParams):
        # a weak reference: the grid keys the workspace cache, so a strong one
        # would keep every cached grid alive
        self.grid = weakref.proxy(grid)
        self.params = params
        r = grid.radii
        self.a = params.a_values(r)
        self.b = params.b_values(r)
        self._r_alpha = r ** (-params.alpha)
        if grid.kind == "radial":
            self.V = params.v_values(r)
            self._build_radial_operator()
            # w_u = 2 pi r^-a k(f r^-a w); the products keep this order
            self._w_out = 2.0 * np.pi * self._r_alpha
        self._K = self._box_hat = self._cho = None  # built lazily

    # -- radial operator -----------------------------------------------------

    def _build_radial_operator(self):
        """Upper bands Gb of G: Gb[2 + i - j, j] = G[i, j] for j - 2 <= i <= j.

        Row i of D has entries c_i at two columns, so it adds w_i c_i^2 to
        both diagonal entries and -w_i c_i^2 to the coupling between them.
        """
        g = self.grid
        r, w, M = g.nodes, g.weights, g.M
        Gb = np.zeros((3, M), order="F")  # the layout BLAS and LAPACK take
        main = Gb[2]
        main[:] = w * self.V
        t0 = w[0] / (r[1] - r[0]) ** 2          # row 0: one-sided, columns 0, 1
        main[:2] += t0
        Gb[1, 1] = -t0
        t = w[1:-1] / (r[2:] - r[:-2]) ** 2      # interior rows: columns i -/+ 1
        main[:-2] += t
        main[2:] += t
        Gb[0, 2:] = -t
        main[-1] += w[-1] / (g.R - r[-1]) ** 2  # hard zero at r = R
        Gb *= g.omega
        self.Gb = Gb

    def cho(self):
        if self._cho is None:
            self._cho = cholesky_banded(self.Gb)
        return self._cho

    def solve_G(self, rhs):
        return cho_solve_banded((self.cho(), False), rhs)

    def solve_shifted(self, diag, rhs):
        """Solve (G + diag(diag)) z = rhs; the shift must keep it SPD
        (LinAlgError otherwise)."""
        ab = self.Gb.copy(order="F")
        ab[2] += diag
        return solveh_banded(ab, rhs, overwrite_ab=True)

    # -- kernel ---------------------------------------------------------------

    def kernel(self):
        """The radial kernel operator h -> sum_j k_mu(r_i, r_j) h_j.

        Built once per workspace: at mu = 1 only the diagonal-cell vector is
        stored and the operator is two running sums; otherwise the dense
        matrix is stored and applied by dsymv from its upper triangle.  K is
        symmetric bit for bit (module docstring), so its transpose, the
        F-ordered view that BLAS takes without a copy, is K itself; a build
        that broke the symmetry would make the apply wrong, not slow.
        """
        if self._K is None:
            g, mu = self.grid, self.params.mu
            if g.dim != 3:
                raise UnsupportedDimension("the radial nonlocal kernel is implemented for N = 3")
            if not (0.0 < mu < 3.0):
                raise KernelDomain(f"mu must lie in (0, 3), got {mu}")
            if mu == 1.0:
                r = g.nodes
                self._K = (2.0 * r - g.cell_widths / 3.0) / (r * r)  # diagonal cells of k_1
            else:
                self._K = self._dense_kernel()
        if self._K.ndim == 1:
            return partial(_apply_newton, self.grid.nodes, self._K)
        return partial(dsymv, 1.0, self._K.T)

    def _dense_kernel(self):
        g, mu = self.grid, self.params.mu
        if g.M > _DENSE_KERNEL_MAX_M:
            raise GridTooLarge(
                f"the dense radial kernel for mu = {mu} is limited to M <= "
                f"{_DENSE_KERNEL_MAX_M}, got M = {g.M}: the build holds the "
                f"{g.M**2 * 8 / 2**20:.0f} MB matrix plus one {_KERNEL_ROW_BLOCK}-row "
                f"block of {_KERNEL_ROW_BLOCK * g.M * 8 / 2**20:.1f} MB; mu = 1 needs "
                "no matrix and has no cap")
        r, d = g.nodes, g.cell_widths
        # built in place, one block of rows at a time, in the order of the
        # closed forms: ((r+s)^e - |r-s|^e) / (r s e) and log((r+s)/|r-s|) / (r s)
        K = np.add.outer(r, r)
        buf = np.empty((min(_KERNEL_ROW_BLOCK, g.M), g.M))
        log_kernel = abs(mu - 2.0) <= 1e-13
        e = 2.0 - mu
        with np.errstate(divide="ignore"):  # the diagonal, replaced below
            for i0 in range(0, g.M, _KERNEL_ROW_BLOCK):
                rows = K[i0:i0 + _KERNEL_ROW_BLOCK]
                ri = r[i0:i0 + _KERNEL_ROW_BLOCK, None]
                blk = buf[:len(rows)]
                np.subtract(ri, r, out=blk)
                np.abs(blk, out=blk)
                if log_kernel:
                    rows /= blk
                    np.log(rows, out=rows)
                    np.multiply(ri, r, out=blk)
                else:
                    rows **= e
                    blk **= e
                    rows -= blk
                    np.multiply(ri, r, out=blk)
                    blk *= e
                rows /= blk
        if log_kernel:
            diag = (np.log(2.0 * r / d) + 1.5) / (r * r)
        else:
            diag = ((2.0 * r) ** e - 2.0 * d**e / ((3.0 - mu) * (4.0 - mu))) / (r * r * e)
        np.fill_diagonal(K, diag)
        return K

    # -- integrals ------------------------------------------------------------

    def space_integral(self, vals) -> float:
        """Integral over R^N of a nodal integrand (angular factor included)."""
        g = self.grid
        if g.kind == "radial":
            return float(g.omega * (g.weights @ vals))
        return float(g.h**3 * np.sum(vals))

    def wnorm(self, vals) -> float:
        """Quadrature-weighted L^2 norm of a nodal field."""
        return float(np.sqrt(self.space_integral(np.asarray(vals) ** 2)))

    def norm_sq(self, u_vals) -> float:
        return self.inner(u_vals, u_vals)

    def inner(self, u_vals, phi_vals) -> float:
        if self.grid.kind != "radial":
            raise UnsupportedDimension("the energy norm is implemented on radial grids")
        return float(u_vals @ self.apply_G(phi_vals))

    def apply_G(self, u_vals):
        return dsbmv(2, 1.0, self.Gb, u_vals)

    # -- nonlocal potential ----------------------------------------------------

    def w_u(self, u_vals) -> np.ndarray:
        """w_u(x) = int b(y)|u(y)|^p / (|x|^a |x-y|^mu |y|^a) dy at the nodes."""
        f = self.b * np.abs(u_vals) ** self.params.p
        if self.grid.kind == "radial":
            return self._w_out * self.kernel()(f * self._r_alpha * self.grid.weights)
        return self._w_u_direct(f)

    def _w_u_direct(self, f) -> np.ndarray:
        """Every lag between two nodes is below m per axis, so on the (2m)^3
        box the cyclic convolution wraps nothing: its [:m, :m, :m] block is
        the free-space sum."""
        hat = self._box_kernel_hat()
        m = self.grid.m
        shape, axes = (2 * m,) * 3, (0, 1, 2)
        g = (f * self._r_alpha).reshape(m, m, m)
        conv = np.fft.irfftn(np.fft.rfftn(g, s=shape, axes=axes) * hat, s=shape, axes=axes)
        return self._r_alpha * conv[:m, :m, :m].reshape(-1)

    def _box_kernel_hat(self):
        """rfftn of the lattice kernel on the (2m)^3 lags, built once.  The
        kernel is even in each lag, so only the real part is kept."""
        if self._box_hat is None:
            g, mu = self.grid, self.params.mu
            if not (0.0 < mu < 3.0):
                raise KernelDomain(f"mu must lie in (0, 3), got {mu}")
            n = 2 * g.m
            mb = n**3 * 8 / 2**20
            if mb > _BOX_FFT_MAX_MB:
                raise GridTooLarge(
                    f"the direct engine's zero-padded FFT is limited to "
                    f"{_BOX_FFT_MAX_MB} MB per (2m)^3 array, got m = {g.m} "
                    f"({mb:.1f} MB per array)")
            lag2 = np.minimum(np.arange(n), n - np.arange(n)) ** 2.0
            K = lag2[:, None, None] + lag2[None, :, None] + lag2[None, None, :]
            with np.errstate(divide="ignore"):
                np.power(K, -0.5 * mu, out=K)
            K *= g.h ** (3.0 - mu)
            rho = (3.0 * g.h**3 / (4.0 * np.pi)) ** (1.0 / 3.0)
            K[0, 0, 0] = 4.0 * np.pi * rho ** (3.0 - mu) / (3.0 - mu)
            self._box_hat = np.fft.rfftn(K).real.copy()
        return self._box_hat

    def nonlocal_factor(self, u_vals) -> np.ndarray:
        """b |u|^(p-2) u, the factor of w_u in J'(u)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = self.b * np.abs(u_vals) ** (self.params.p - 2.0) * u_vals
        fac[u_vals == 0.0] = 0.0  # |u|^(p-2) u -> 0 as u -> 0 for p > 1
        return fac

    def hessian(self, ev: "Evaluation", diag):
        """The operator v -> H v, H the Hessian of J_lambda at ev (radial):

            H v = G v + diag v - 2 pi omega p c K(c v),  c = b u^(p-1) r^-a w.

        On entry diag holds the singular part lambda (1-q) omega w a u^(q-2);
        the nonlocal diagonal (p-1) omega w b u^(p-2) w_u is subtracted from it
        in place.  The operator writes into out when given.
        """
        g, p, u = self.grid, self.params.p, ev.u
        with np.errstate(divide="ignore", invalid="ignore"):
            nd = self.b * u ** (p - 2.0) * ev.w_u
        nd[u == 0.0] = 0.0  # as in nonlocal_factor: no nonlocal term off the support
        diag -= (p - 1.0) * g.omega * g.weights * nd
        c = self.b * u ** (p - 1.0) * self._r_alpha * g.weights
        coef = -2.0 * np.pi * g.omega * p
        K = self.kernel()

        def apply(v, out=None):
            # c v is the kernel's input and G v overwrites it (beta = 0), so
            # one apply holds out and the kernel's own buffers at most
            out = np.multiply(c, v, out=out)
            k = K(out)
            k *= c
            out = dsbmv(2, 1.0, self.Gb, v, y=out, overwrite_y=True)
            out = daxpy(k, out, a=coef)
            np.multiply(diag, v, out=k)
            out += k
            return out

        return apply

    # -- one evaluation per point ---------------------------------------------

    def evaluate(self, u_vals) -> Evaluation:
        """w_u(u) and (E, A, B) = (u.Gu, int a|u|^q, int b|u|^p w_u), one w_u."""
        wu = self.w_u(u_vals)
        return Evaluation(u_vals, wu, ReducedTriple(
            E=self.norm_sq(u_vals),
            A=self.space_integral(self.a * np.abs(u_vals) ** self.params.q),
            B=self._B(u_vals, wu),
        ))

    def _B(self, u_vals, wu) -> float:
        """B = int b |u|^p w_u, with w_u = w_u(u) given."""
        return self.space_integral(self.b * np.abs(u_vals) ** self.params.p * wu)

    def defect(self, ev: Evaluation, lam: float,
               floor_factor: float = DEFAULT_FLOOR_FACTOR,
               include_nonlocal: bool = True, source=None):
        """Strong-form Euler-Lagrange defect d at ev and its weak residual.

        d_i = (G u)_i/(omega w_i) - lambda a_i max(u_i, eps)^(q-1)
              - b_i u_i^(p-1) (w_u)_i  [- source_i]

        The residual is the quadrature-weighted norm of d over the largest of
        the term norms, so 1e-4 means the defect is 1e-4 of the dominant
        balance.  Radial grids only.
        """
        g, uv = self.grid, ev.u
        d = self.apply_G(uv) / (g.omega * g.weights)
        scales = [self.wnorm(d)]
        if lam != 0.0:
            sing = np.maximum(uv, floor_factor * float(np.max(uv))) ** (self.params.q - 1.0)
            d = d - lam * self.a * sing
            scales.append(lam * self.wnorm(self.a * sing))
        if include_nonlocal:
            term = self.nonlocal_factor(uv) * ev.w_u
            d = d - term
            scales.append(self.wnorm(term))
        if source is not None:
            source = np.asarray(source, dtype=float)
            d = d - source
            scales.append(self.wnorm(source))
        return d, self.wnorm(d) / max(scales)


_workspaces: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _params_key(params: ProblemParams):
    return (params.alpha, params.mu, params.p, params.q, params.gamma3,
            params.gamma4, params.v_form, params.b_form)


def workspace(grid, params: ProblemParams) -> FunctionalWorkspace:
    """Fetch (or build) the cached operator workspace for (grid, params)."""
    per_grid = _workspaces.setdefault(grid, {})
    key = _params_key(params)
    ws = per_grid.get(key)
    if ws is None:
        ws = FunctionalWorkspace(grid, params)
        per_grid[key] = ws
    return ws


def _apply_newton(r, cells, h):
    """sum_j k_1(r_i, r_j) h_j: 2/r_i times the sum of h below i, plus the
    sum of 2 h_j/r_j above i, plus the diagonal cell.  Computed in place,
    in the order of 2 (below / r + above) + cells h, in three buffers."""
    out = np.cumsum(h)
    out -= h
    out /= r
    t = h / r
    above = np.cumsum(t[::-1])[::-1]
    above -= t
    out += above
    out *= 2.0
    np.multiply(cells, h, out=t)
    out += t
    return out


def _require_cone(u: GridFunction):
    if not u.in_positive_cone:
        raise NotInPositiveCone("function must be nonnegative and not identically zero")


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def norm_sq(u: GridFunction, params: ProblemParams) -> float:
    """Energy-space norm squared ||u||^2 (Dirichlet zero beyond r = R)."""
    return workspace(u.grid, params).norm_sq(u.values)


def inner(u: GridFunction, phi: GridFunction, params: ProblemParams) -> float:
    """Discrete inner product <u, phi>; matches norm_sq by polarization."""
    if phi.grid is not u.grid:
        raise LengthMismatch("u and phi must share a grid")
    return workspace(u.grid, params).inner(u.values, phi.values)


def weight_a(u: GridFunction, params: ProblemParams) -> float:
    """A(u) = int a(x) |u|^q dx."""
    ws = workspace(u.grid, params)
    return ws.space_integral(ws.a * np.abs(u.values) ** params.q)


def nonlocal_potential(u: GridFunction, params: ProblemParams) -> GridFunction:
    """The potential w_u generated by b|u|^p through the weighted kernel."""
    ws = workspace(u.grid, params)
    return GridFunction(u.grid, ws.w_u(u.values))


def _B_by_engine(u: GridFunction, params: ProblemParams, kind: str) -> float:
    if u.grid.kind != kind:
        raise UnsupportedDimension(f"this engine needs a {kind} grid, got {u.grid.kind}")
    ws = workspace(u.grid, params)
    return ws._B(u.values, ws.w_u(u.values))


def steinweiss_B_radial(u: GridFunction, params: ProblemParams) -> float:
    """B(u) on a radial grid via the closed-form angular kernel (N = 3)."""
    return _B_by_engine(u, params, "radial")


def steinweiss_B_direct(u: GridFunction, params: ProblemParams) -> float:
    """B(u) by the midpoint pair sum on a Cartesian box, as one FFT
    convolution (m <= 64)."""
    return _B_by_engine(u, params, "cartesian")


def floored_fraction(u: GridFunction, params: ProblemParams,
                     floor_factor: float = DEFAULT_FLOOR_FACTOR) -> float:
    """Quadrature-mass share of the domain where u < floor."""
    ws = workspace(u.grid, params)
    eps = floor_factor * float(np.max(u.values))
    below = (u.values < eps).astype(float)
    return ws.space_integral(below) / ws.space_integral(np.ones_like(u.values))


def singular_action(u: GridFunction, phi: GridFunction, params: ProblemParams,
                    floor_factor: float = DEFAULT_FLOOR_FACTOR) -> float:
    """H(u, phi) = int a u^(q-1) phi dx with u floored at floor_factor*max(u).

    Emits SingularMassWarning when floored nodes contribute more than 1% of
    the integrand's absolute mass: the evaluation is then floor-dominated
    rather than genuine.  (The plain quadrature-mass share of {u < eps} is
    reported separately by floored_fraction; a fast-decaying trial profile
    can floor most of the domain's volume while contributing nothing to H.)
    """
    _require_cone(u)
    ws = workspace(u.grid, params)
    eps = floor_factor * float(np.max(u.values))
    uf = np.maximum(u.values, eps)
    integrand = ws.a * uf ** (params.q - 1.0) * phi.values
    total_abs = ws.space_integral(np.abs(integrand))
    if total_abs > 0.0:
        floored_share = ws.space_integral(np.abs(integrand) * (u.values < eps)) / total_abs
        if floored_share > 0.01:
            warnings.warn(
                f"floor-dominated evaluation: floored nodes carry {floored_share:.3%} "
                "of the singular integrand",
                SingularMassWarning,
                stacklevel=2,
            )
    return ws.space_integral(integrand)


def nonlocal_action(u: GridFunction, phi: GridFunction, params: ProblemParams) -> float:
    """D(u, phi) = int b |u|^(p-2) u phi w_u dx; D(u, u) = B(u) exactly."""
    ws = workspace(u.grid, params)
    return ws.space_integral(ws.nonlocal_factor(u.values) * ws.w_u(u.values) * phi.values)


def reduced_triple(u: GridFunction, params: ProblemParams) -> ReducedTriple:
    """Bundle (||u||^2, A(u), B(u)); u must lie in the positive cone."""
    _require_cone(u)
    return workspace(u.grid, params).evaluate(u.values).triple


def energy(u: GridFunction, lam: float, params: ProblemParams) -> float:
    """J_lambda(u) = ||u||^2/2 - (lambda/q) A(u) - B(u)/(2p)."""
    return energy_from_triple(reduced_triple(u, params), lam, params)


def energy_from_triple(triple: ReducedTriple, lam: float, params: ProblemParams) -> float:
    return 0.5 * triple.E - lam / params.q * triple.A - triple.B / (2.0 * params.p)


def gradient_action(u: GridFunction, phi: GridFunction, lam: float,
                    params: ProblemParams,
                    floor_factor: float = DEFAULT_FLOOR_FACTOR) -> float:
    """J'_lambda(u)[phi] = <u, phi> - lambda H(u, phi) - D(u, phi)."""
    return (
        inner(u, phi, params)
        - lam * singular_action(u, phi, params, floor_factor)
        - nonlocal_action(u, phi, params)
    )


def strong_form_defect(u: GridFunction, lam: float, params: ProblemParams,
                       floor_factor: float = DEFAULT_FLOOR_FACTOR,
                       include_nonlocal: bool = True,
                       source=None) -> np.ndarray:
    """Nodal Euler-Lagrange defect d with sum_i d_i phi_i w_i = J'(u)[phi].

    At an on-branch point it is also the nodal gradient of the
    branch-reduced energy (envelope theorem).  Radial grids only; see
    FunctionalWorkspace.defect for the formula.
    """
    if u.grid.kind != "radial":
        raise UnsupportedDimension("strong-form defect implemented on radial grids")
    ws = workspace(u.grid, params)
    return ws.defect(ws.evaluate(u.values), lam, floor_factor, include_nonlocal, source)[0]
