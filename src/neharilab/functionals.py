"""Energy ingredients of the variational problem.

On the truncated radial domain the energy-space norm is

    ||u||^2 = omega_N * int (u'^2 + V u^2) r^(N-1) dr

with central differences (one-sided closure at both ends, hard zero at r = R)
so the discrete inner product is the bilinear form of a symmetric positive
definite matrix G built once per (grid, potential) pair.  G = omega (D^T W D
+ diag(w V)) is pentadiagonal, so it is stored as its three upper bands,
assembled in O(M) and applied by BLAS dsbmv.  Its first off-diagonal band
is zero but for G[0, 1]: node i couples only to i -/+ 2, and node 0 to 1.
So along the odd-even chain M-1|M-2, ..., 3, 1, 0, 2, 4, ... (odd nodes
descending, then even ones ascending) G is tridiagonal, and it is factored
there in O(M) by LAPACK's tridiagonal LDL^T, dpttrf, and solved by dpttrs,
both called directly: no BLAS call inside, where the banded Cholesky of a
bandwidth-2 matrix makes two per column.  G is the only energy operator:
FunctionalWorkspace, which holds it, is radial only, and workspace() raises
UnsupportedDimension on a box, the direct engine's input.  Other modules
reach G's bands only through FunctionalWorkspace.apply_G and factor, which
factors scale G + diag(shift) along the chain (a matrix that is not SPD
raises numpy's LinAlgError).  FunctionalWorkspace also holds the only
formulas for the derivatives of (E, A, B): grad_A = q omega w a u_f^(q-1),
grad_B = 2p omega w b u^(p-1) w_u and singular_diag = c omega w a u_f^(q-2),
the singular term evaluated at the floored u_f = max(u, FLOOR_FACTOR max(u))
since it is not differentiable at u = 0.  defect is the weak gradient
J'_lambda(u) = Gu - (lambda/q) grad_A - grad_B/(2p).

The nonlocal interaction

    B(u) = int int b(y)|u(y)|^p b(x)|u(x)|^p / (|x|^a |x-y|^mu |y|^a) dx dy

has two independent engines in N = 3.  The radial one serves every
command.  The direct one serves no command, only the benchmark's crosscheck
stage (perfbench) and its own tests; the tests check the radial engine
against exact values of B, not against the direct one:

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
  of a general product.  The build fills one triangle, the one dsymv reads,
  so it evaluates each pair (r, s) once; dsymv applies the symmetric matrix
  that triangle defines.
* direct: midpoint pair sum over a Cartesian box with lattice kernel
  h^3 (h|k|)^(-mu) at lag k, computed as one free-space FFT convolution on
  the zero-padded (2m)^3 box (Hockney & Eastwood 1988), O(m^3 log m).  The
  zero-lag entry is the self-cell term 4 pi rho^(3-mu)/(3-mu), rho the
  equal-volume-sphere radius (3 h^3 / 4 pi)^(1/3).  The kernel is even in
  every lag, so it is set on the (m+1)^3 octant of lags 0..m only, and so is
  its transform: the DFT of an even sequence of length 2m is the DCT-I of
  its first m+1 entries, taken per axis as an unscaled irfft, and it is even
  in the frequency too, so frequency k reads octant entry min(k, 2m - k).
  The convolution runs one axis at a time, each transform written in place
  through numpy.fft's out= (numpy >= 2.0), in a half-padded (m, 2m, m+1)
  complex spectrum: axis 0 keeps the input's m rows, and its forward
  transform, the kernel product and its inverse are taken a chunk of axis-1
  frequencies at a time in one (2m, c, m+1) buffer, c = ceil(2m /
  _BOX_CHUNKS), whose first m rows go back to the spectrum.  The real
  result is written into the spent half of the spectrum.  The engine keeps
  no workspace and caches nothing; a whole call at m = 76 holds 27.2 MB at
  its peak (_box_fft_mb), the largest box under the cap, and
  build_cartesian_grid refuses a larger one.

Both engines evaluate B through the nonlocal potential w_u, so grad_B . u,
2p int b |u|^p w_u, is 2p B(u) exactly.

One evaluation per point: FunctionalWorkspace.evaluate computes w_u and G u
once for a node vector and returns them with (E, A, B); the triple, the
energy, the weak gradient and its residual are all read from that record.
E is not expanded into band sums of u^2 and shifted products, a form that
cancels and drifts 1e-12 relative at M = 1024.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.blas import daxpy, dsbmv, dsymv
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import (
    GridTooLarge,
    KernelDomain,
    NotInPositiveCone,
    UnsupportedDimension,
)
from .params import ProblemParams

if TYPE_CHECKING:   # grid imports this module for the box's size rule
    from .grid import GridFunction

FLOOR_FACTOR = 1e-10  # the singular term's floor, relative to max(u)
# the dense kernel's build fills the triangle dsymv reads and holds the M x M
# matrix (128 MB at the cap) plus one _KERNEL_ROW_BLOCK x M scratch block (2 MB)
_DENSE_KERNEL_MAX_M = 4096
_KERNEL_ROW_BLOCK = 64
_BOX_FFT_MAX_MB = 29  # the direct engine's peak, _box_fft_mb(m): m <= 76
_BOX_CHUNKS = 8       # the direct engine's axis-0 pass, in chunks of axis-1 frequencies


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
    """A nodal vector u with its nonlocal potential w_u, G u and (E, A, B)."""

    u: np.ndarray
    w_u: np.ndarray
    Gu: np.ndarray
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
        r = grid.nodes
        self.a = params.a_values(r)
        self.b = params.b_values(r)
        self.V = params.v_values(r)
        self._r_alpha = r ** (-params.alpha)
        self._build_radial_operator()
        # w_u = 2 pi r^-a k(f r^-a w); the products keep this order
        self._w_out = 2.0 * np.pi * self._r_alpha
        self._K = self._apply_K = self._cho = None  # built lazily

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

    @staticmethod
    def _to_chain(x, out):
        """x in chain order, written into out: its odd entries descending,
        then its even entries ascending (module docstring)."""
        n = len(x) // 2
        out[:n] = x[1::2][::-1]
        out[n:] = x[0::2]
        return out

    @staticmethod
    def _chain_solve(d, e, r, out):
        """Solve the system factored along the chain as (d, e) by LAPACK
        dpttrs; r and the solution written into out are in node order."""
        b = FunctionalWorkspace._to_chain(r, np.empty_like(r))
        y = dpttrs(d, e, b, overwrite_b=1)[0]
        n = len(y) // 2
        out[1::2] = y[:n][::-1]
        out[0::2] = y[n:]
        return out

    def _chain_ldl(self, shift, scale):
        """The LDL^T factor (d, e) of scale G + diag(shift) along the chain
        (module docstring) by LAPACK dpttrf; LinAlgError unless SPD.

        Gb[1] is zero but for G[0, 1], so the chain's couplings are Gb[0]
        along the odd nodes, read toward node 1, then G[0, 1], then Gb[0]
        along the even nodes.
        """
        Gb, n = self.Gb, self.grid.M // 2
        d = self._to_chain(Gb[2] * scale + shift, np.empty(self.grid.M))
        e = np.empty(self.grid.M - 1)
        e[:n - 1] = Gb[0, 3::2][::-1]
        e[n - 1] = Gb[1, 1]
        e[n:] = Gb[0, 2::2]
        e *= scale
        d, e, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
        return d, e

    def cho(self):
        """G's factor along the chain, built once."""
        if self._cho is None:
            self._cho = self._chain_ldl(0.0, 1.0)
        return self._cho

    def solve_G(self, rhs):
        return self._chain_solve(*self.cho(), rhs, np.empty_like(rhs))

    def solve_shifted(self, diag, rhs):
        """Solve (G + diag(diag)) z = rhs; the shift must keep it SPD
        (LinAlgError otherwise)."""
        return self.factor(diag)(rhs, np.empty_like(rhs))

    def factor(self, shift, scale=1.0):
        """Factor scale G + diag(shift) once, tridiagonal along the chain
        (LinAlgError unless SPD), and return solve(r, out), which writes the
        solution of that system into out and returns it; r is kept."""
        return partial(self._chain_solve, *self._chain_ldl(shift, scale))

    # -- kernel ---------------------------------------------------------------

    def kernel(self):
        """The radial kernel operator h -> sum_j k_mu(r_i, r_j) h_j.

        Built once per workspace: at mu = 1 only the diagonal-cell vector is
        stored and the operator is two running sums; otherwise the dense
        matrix is stored and applied by dsymv.  dsymv takes the F-ordered
        view K.T without a copy and reads its upper triangle, the lower
        triangle of K (j <= i), which is the one the build fills; the rest of
        K is never read.
        """
        if self._apply_K is None:
            g, mu = self.grid, self.params.mu
            if g.dim != 3:
                raise UnsupportedDimension("the radial nonlocal kernel is implemented for N = 3")
            if not (0.0 < mu < 3.0):
                raise KernelDomain(f"mu must lie in (0, 3), got {mu}")
            if mu == 1.0:
                r = g.nodes
                self._K = (2.0 * r - g.cell_widths / 3.0) / (r * r)  # diagonal cells of k_1
                self._apply_K = partial(_apply_newton, r, self._K)
            else:
                self._K = self._dense_kernel()
                self._apply_K = partial(dsymv, 1.0, self._K.T)
        return self._apply_K

    def _dense_kernel(self):
        g, mu = self.grid, self.params.mu
        if g.M > _DENSE_KERNEL_MAX_M:
            raise GridTooLarge(
                f"the dense radial kernel for mu = {mu} is limited to M <= "
                f"{_DENSE_KERNEL_MAX_M}, got M = {g.M}: the build holds the "
                f"{g.M**2 * 8 / 2**20:.0f} MB matrix plus one {_KERNEL_ROW_BLOCK}-row "
                f"block of {_KERNEL_ROW_BLOCK * g.M * 8 / 2**20:.1f} MB; mu = 1 needs "
                "no matrix and has no cap")
        r, d, M = g.nodes, g.cell_widths, g.M
        # the lower triangle, in the order of the closed forms ((r+s)^e -
        # |r-s|^e) / (r s e) and log((r+s)/|r-s|) / (r s): rows [i0, i1) take
        # columns [0, i1) in two contiguous halves of one row block.  The
        # diagonal blocks' upper halves get the mirrored values (r + s, |r - s|
        # and r s commute); the rest stays zero.
        K = np.zeros((M, M))
        step = _KERNEL_ROW_BLOCK // 2
        buf = np.empty((2, min(step, M) * M))
        log_kernel = abs(mu - 2.0) <= 1e-13
        e = 2.0 - mu
        with np.errstate(divide="ignore"):  # the diagonal, replaced below
            for i0 in range(0, M, step):
                i1 = min(i0 + step, M)
                ri, s = r[i0:i1, None], r[:i1]
                num, den = buf[:, :(i1 - i0) * i1].reshape(2, i1 - i0, i1)
                np.add(ri, s, out=num)
                np.subtract(ri, s, out=den)
                np.abs(den, out=den)
                if log_kernel:
                    num /= den
                    np.log(num, out=num)
                    np.multiply(ri, s, out=den)
                else:
                    num **= e
                    den **= e
                    num -= den
                    np.multiply(ri, s, out=den)
                    den *= e
                np.divide(num, den, out=K[i0:i1, :i1])
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
        return float(g.omega * (vals @ g.weights))

    def norm_sq(self, u_vals, Gu=None) -> float:
        """u.Gu (BLAS dsbmv), with G u written into Gu when it is given."""
        return float(u_vals @ self.apply_G(u_vals, y=Gu))

    def apply_G(self, v, alpha=1.0, y=None):
        """alpha G v (BLAS dsbmv), written into y when it is given."""
        return dsbmv(2, alpha, self.Gb, v, y=y, overwrite_y=y is not None)

    def floored(self, u_vals):
        """max(u, FLOOR_FACTOR max(u)): u as the singular term sees it."""
        return np.maximum(u_vals, FLOOR_FACTOR * u_vals.max())

    # -- nonlocal potential ----------------------------------------------------

    def w_u(self, u_vals, f=None) -> np.ndarray:
        """w_u(x) = int b(y)|u(y)|^p / (|x|^a |x-y|^mu |y|^a) dy at the nodes.
        f is the density b|u|^p when the caller has formed it."""
        if f is None:
            f = self._density(u_vals)
        return self._w_out * self.kernel()(f * self._r_alpha * self.grid.weights)

    def grad_A(self, u_vals):
        """A's gradient g_A = q omega w a u_f^(q-1), u_f = floored(u)."""
        g, q = self.grid, self.params.q
        return g.omega * g.weights * self.a * q * self.floored(u_vals) ** (q - 1.0)

    def grad_B(self, ev: Evaluation):
        """B's gradient g_B = 2p omega w b u^(p-1) w_u at ev (u >= 0)."""
        g, p = self.grid, self.params.p
        return g.omega * g.weights * self.b * (2.0 * p) * ev.u ** (p - 1.0) * ev.w_u

    def singular_diag(self, u_vals, c):
        """c omega w a u_f^(q-2): c = lambda (1-q) gives the singular term of
        J_lambda's Hessian, c = q(1-q)/A that of -log A's."""
        g, q = self.grid, self.params.q
        return g.omega * g.weights * self.a * c * self.floored(u_vals) ** (q - 2.0)

    def hessian(self, ev: "Evaluation", diag, weight=1.0):
        """The operator v -> H v, at weight = 1 the Hessian of J_lambda at ev (radial):

            H v = weight G v + diag v - 2 pi omega p c K(c v),  c = b u^(p-1) r^-a w.

        On entry diag holds the singular part, singular_diag(u, lambda (1-q));
        the nonlocal diagonal (p-1) omega w b u^(p-2) w_u is subtracted from it
        in place.  The operator writes into out when given.
        """
        g, p, u = self.grid, self.params.p, ev.u
        with np.errstate(divide="ignore", invalid="ignore"):
            nd = self.b * u ** (p - 2.0) * ev.w_u
        nd[u == 0.0] = 0.0  # no nonlocal term off the support (u^(p-2) is inf there for p < 2)
        diag -= (p - 1.0) * g.omega * g.weights * nd
        c = self.b * u ** (p - 1.0) * self._r_alpha * g.weights
        coef = -2.0 * np.pi * g.omega * p
        K = self.kernel()

        def apply(v, out=None):
            # c v is the kernel's input and G v overwrites it, so
            # one apply holds out and the kernel's own buffers at most
            out = np.multiply(c, v, out=out)
            k = K(out)
            k *= c
            out = self.apply_G(v, weight, out)
            out = daxpy(k, out, a=coef)
            np.multiply(diag, v, out=k)
            out += k
            return out

        return apply

    # -- one evaluation per point ---------------------------------------------

    def evaluate(self, u_vals) -> Evaluation:
        """w_u(u), G u and (E, A, B) = (u.Gu, int a|u|^q, int b|u|^p w_u):
        one w_u, one G product and one density b|u|^p."""
        f = self._density(u_vals)
        wu = self.w_u(u_vals, f)
        Gu = np.empty_like(u_vals)
        return Evaluation(u_vals, wu, Gu, ReducedTriple(
            E=self.norm_sq(u_vals, Gu),
            A=self.space_integral(self.a * np.abs(u_vals) ** self.params.q),
            B=self.space_integral(f * wu),
        ))

    def _density(self, u_vals):
        """b |u|^p, the nonlocal term's density."""
        return self.b * np.abs(u_vals) ** self.params.p

    def defect(self, ev: Evaluation, lam: float):
        """The weak gradient J'_lambda(u) = Gu - (lambda/q) g_A - g_B/(2p) at
        ev (entry i is J'_lambda(u) along the i-th nodal basis vector where
        the floor is inactive) and its residual: its norm sqrt(sum_i v_i^2 /
        (omega w_i)), dual to the quadrature-weighted one, over the largest
        such norm of its three terms, so 1e-4 means the gradient is 1e-4 of
        the dominant balance.
        """
        quad = self.grid.omega * self.grid.weights
        grad = ev.Gu.copy()   # daxpy below writes into it
        squares = [float(grad @ (grad / quad))]
        c, term = lam / self.params.q, self.grad_A(ev.u)
        squares.append(c * c * float(term @ (term / quad)))
        grad = daxpy(term, grad, a=-c)
        c, term = 0.5 / self.params.p, self.grad_B(ev)
        squares.append(c * c * float(term @ (term / quad)))
        grad = daxpy(term, grad, a=-c)
        return grad, math.sqrt(float(grad @ (grad / quad)) / max(squares))


_workspaces: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def workspace(grid, params: ProblemParams) -> FunctionalWorkspace:
    """Fetch (or build) the cached operator workspace for (grid, params).

    The cache holds the grid weakly and keys each grid's entries on the frozen
    params itself, which hash and compare by value."""
    if grid.kind != "radial":
        raise UnsupportedDimension(f"the workspace is implemented on radial grids, got {grid.kind}")
    per_grid = _workspaces.setdefault(grid, {})
    ws = per_grid.get(params)
    if ws is None:
        ws = per_grid[params] = FunctionalWorkspace(grid, params)
    return ws


def _apply_newton(r, cells, h):
    """sum_j k_1(r_i, r_j) h_j: 2/r_i times the sum of h below i, plus the
    sum of 2 h_j/r_j above i, plus the diagonal cell.  Computed in place,
    in the order of 2 (below / r + above) + cells h, in three buffers."""
    out = np.add.accumulate(h)
    out -= h
    out /= r
    t = h / r
    above = np.add.accumulate(t[::-1])[::-1]
    above -= t
    out += above
    out *= 2.0
    np.multiply(cells, h, out=t)
    out += t
    return out


# --------------------------------------------------------------------------
# the direct engine on a Cartesian box (no workspace, nothing cached)
# --------------------------------------------------------------------------

def _box_kernel_hat(grid, mu):
    """The lattice kernel's real DFT on the (2m)^3 lags: its (m+1)^3 octant
    of frequencies 0..m, built from the octant of lags 0..m (module docstring)."""
    if not (0.0 < mu < 3.0):
        raise KernelDomain(f"mu must lie in (0, 3), got {mu}")
    m = grid.m
    n = 2 * m
    lag2 = np.arange(m + 1) ** 2.0
    K = lag2[:, None, None] + lag2[None, :, None] + lag2[None, None, :]
    with np.errstate(divide="ignore"):
        np.power(K, -0.5 * mu, out=K)
    K *= grid.h ** (3.0 - mu)
    rho = (3.0 * grid.h**3 / (4.0 * np.pi)) ** (1.0 / 3.0)
    K[0, 0, 0] = 4.0 * np.pi * rho ** (3.0 - mu) / (3.0 - mu)
    K = np.fft.irfft(K, n, axis=2, norm="forward")[:, :, :m + 1]
    K = np.fft.irfft(K, n, axis=1, norm="forward")[:, :m + 1]
    # a copy, so the transform's upper half is freed
    return np.fft.irfft(K, n, axis=0, norm="forward")[:m + 1].copy()


def _box_w_u(u_vals, grid, params: ProblemParams):
    """w_u at the box's nodes and the density f = b|u|^p it was formed from.

    Every lag between two nodes is below m per axis, so on the (2m)^3 box
    the cyclic convolution wraps nothing: its [:m, :m, :m] block is the
    free-space sum, taken in one (m, 2m, m+1) complex spectrum t (module
    docstring).  Axis 0 is padded to 2m only in the chunk buffer, a run of
    axis-1 frequencies on one side of k1 = m at a time, so the octant's
    columns are read forward below m and mirrored from m on.  The octant is
    built before any m^3 array, and r^-a is freed for the chunk loop and
    formed again for the output, so the loop's one m^3 array, f, leaves
    room for numpy's buffer of the octant's complex cast in the product,
    and the call peaks at _box_fft_mb."""
    hat = _box_kernel_hat(grid, params.mu)
    r_alpha = grid.radii   # raised to -a in place once b(r) is formed
    f = params.b_values(r_alpha) * np.abs(u_vals) ** params.p
    r_alpha **= -params.alpha
    m = grid.m
    n = 2 * m
    c = _box_chunk(m)
    t = np.empty((m, n, m + 1), dtype=complex)
    np.fft.rfft((f * r_alpha).reshape(m, m, m), n, axis=2, out=t[:, :m])
    del r_alpha
    t[:, m:] = 0.0
    np.fft.fft(t, axis=1, out=t)
    chunk = np.empty((n, c, m + 1), dtype=complex)
    for lo, hi in ((0, m), (m, n)):
        for j0 in range(lo, hi, c):
            j1 = min(j0 + c, hi)
            z = chunk[:, :j1 - j0]
            np.fft.fft(t[:, j0:j1], n, axis=0, out=z)
            cols = slice(j0, j1) if lo == 0 else slice(n - j0, n - j1, -1)
            z[:m + 1] *= hat[:, cols]
            z[m + 1:] *= hat[m - 1:0:-1, cols]
            np.fft.ifft(z, axis=0, out=z)
            t[:, j0:j1] = z[:m]
    del chunk, z, hat
    np.fft.ifft(t, axis=1, out=t)
    conv = t.reshape(m, -1)[:, m * (m + 1):].view(float)[:, :n * m].reshape(m, m, n)
    np.fft.irfft(t[:, :m], n, axis=2, out=conv)
    w = conv[:, :, :m].reshape(-1)   # a copy, so the spectrum can be freed
    del t, conv
    w *= grid.radii ** (-params.alpha)   # on the copy, where numpy buffers no operand
    return w, f


def _box_fft_mb(m):
    """MB held at the peak of a steinweiss_B_direct call, rounded up to
    0.1 MB: the density b|u|^p (m^3 doubles) plus the larger of two phases
    (the octant build comes first, so this bounds it).  Each octant irfft
    after the first holds the real (m+1)^2 2m output of the one before, the
    complex cast of its (m+1)^3 input (a view of that output) and its own
    real output of the same size as the first.  The convolution holds the
    real (m+1)^3 octant, the complex (m, 2m, m+1) spectrum and two more m^3
    arrays: r^-a and the input f r^-a, then one complex (2m, c, m+1) chunk
    buffer (at least m^3 doubles) and the product's ufunc buffer."""
    n = 2 * m
    c = _box_chunk(m)
    build = (m + 1) ** 2 * (2 * n * 8 + (m + 1) * 16)
    convolve = (m + 1) ** 3 * 8 + (m * n + n * c) * (m + 1) * 16 + m**3 * 8
    nbytes = m**3 * 8 + max(build, convolve)
    return math.ceil(nbytes / 2**20 * 10.0) / 10.0


def check_box_footprint(m):
    """Raise GridTooLarge unless the direct engine's peak on an m-box,
    _box_fft_mb(m), is within _BOX_FFT_MAX_MB; m even and >= 8."""
    mb = _box_fft_mb(m)
    if mb > _BOX_FFT_MAX_MB:
        largest = m - 2
        while _box_fft_mb(largest) > _BOX_FFT_MAX_MB:
            largest -= 2
        raise GridTooLarge(
            f"the direct engine's zero-padded FFT is limited to {_BOX_FFT_MAX_MB} MB "
            f"(m <= {largest}), got m = {m}, which needs {mb:.1f} MB: the real "
            "(m+1)^3 kernel octant, the complex (m, 2m, m+1) half-padded spectrum, "
            f"one complex (2m, {_box_chunk(m)}, m+1) chunk and two m^3 arrays")


def _box_chunk(m):
    """c = ceil(2m / _BOX_CHUNKS), the axis-1 frequencies of one chunk of the
    direct engine's axis-0 pass."""
    return -(-2 * m // _BOX_CHUNKS)


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def norm_sq(u: GridFunction, params: ProblemParams) -> float:
    """Energy-space norm squared ||u||^2 (Dirichlet zero beyond r = R)."""
    return workspace(u.grid, params).norm_sq(u.values)


def steinweiss_B_radial(u: GridFunction, params: ProblemParams) -> float:
    """B(u) on a radial grid via the closed-form angular kernel (N = 3)."""
    ws = workspace(u.grid, params)
    f = ws._density(u.values)
    return ws.space_integral(f * ws.w_u(u.values, f))


def steinweiss_B_direct(u: GridFunction, params: ProblemParams) -> float:
    """B(u) by the midpoint pair sum on a Cartesian box, as one FFT
    convolution (m <= 76); nothing is kept after the call."""
    g = u.grid
    if g.kind != "cartesian":
        raise UnsupportedDimension(f"the direct engine needs a cartesian grid, got {g.kind}")
    w, f = _box_w_u(u.values, g, params)
    return float(g.h**3 * np.sum(f * w))


def floored_fraction(u: GridFunction, params: ProblemParams) -> float:
    """Quadrature-mass share of the domain where u lies below its floor."""
    ws = workspace(u.grid, params)
    below = (ws.floored(u.values) > u.values).astype(float)
    return ws.space_integral(below) / ws.space_integral(np.ones_like(u.values))


def reduced_triple(u: GridFunction, params: ProblemParams) -> ReducedTriple:
    """Bundle (||u||^2, A(u), B(u)); u must lie in the positive cone."""
    if not u.in_positive_cone:
        raise NotInPositiveCone("function must be nonnegative and not identically zero")
    return workspace(u.grid, params).evaluate(u.values).triple


def energy(u: GridFunction, lam: float, params: ProblemParams) -> float:
    """J_lambda(u) = ||u||^2/2 - (lambda/q) A(u) - B(u)/(2p)."""
    return energy_from_triple(reduced_triple(u, params), lam, params)


def energy_from_triple(triple: ReducedTriple, lam: float, params: ProblemParams) -> float:
    return 0.5 * triple.E - lam / params.q * triple.A - triple.B / (2.0 * params.p)
