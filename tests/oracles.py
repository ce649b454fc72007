"""Independent oracles used by the test suite.

Each oracle avoids the code path it checks: maximizers come from a log-grid
scan plus golden-section refinement, integrals from adaptive quadrature,
derivatives from central differences, B of a Gaussian from its closed form,
the energy operator from a dense D^T W D product, the quadrature weights
from a per-cell loop and the dense radial kernel from its closed form on
broadcast (M, M) arrays, the direct engine's FFT convolution from the full
(2m)^3 lag array and whole-box transforms or from fresh arrays transformed
one axis at a time, and the lambda* lattice search from one profile at a
time.  The Q_n / Q_e maximizer (maximize_on_ray, q_n_raw) and the random
triple and exponent samplers live in neharilab.invariants, which runs the
invariant battery on them; they are re-exported here.
"""

import math

import numpy as np

from neharilab.errors import EmptyFamily
from neharilab.extremal import SweepEntry
from neharilab.fibering import lambda_n
from neharilab.functionals import reduced_triple
from neharilab.grid import sample_profile
from neharilab.invariants import maximize_on_ray, q_n_raw, random_exponents, random_triples


def bisect_q_n(E, A, B, p, q, lam, lo, hi, iters=200):
    """Plain bisection for Q_n(t) = lam on a bracket where Q_n - lam changes sign."""
    flo = q_n_raw(lo, E, A, B, p, q) - lam
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = q_n_raw(mid, E, A, B, p, q) - lam
        if np.sign(flo) * np.sign(fm) <= 0.0:   # a product of tiny values underflows
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def dense_energy_operator(grid, V):
    """G = omega (D^T W D + diag(w V)) assembled densely from the difference
    matrix D (one-sided closure at r_0, hard zero at r = R)."""
    r, w, M = grid.nodes, grid.weights, grid.M
    D = np.zeros((M, M))
    D[0, 0] = -1.0 / (r[1] - r[0])
    D[0, 1] = 1.0 / (r[1] - r[0])
    idx = np.arange(1, M - 1)
    D[idx, idx - 1] = -1.0 / (r[idx + 1] - r[idx - 1])
    D[idx, idx + 1] = 1.0 / (r[idx + 1] - r[idx - 1])
    D[M - 1, M - 1] = -1.0 / (grid.R - r[M - 1])
    G = grid.omega * (D.T @ (w[:, None] * D) + np.diag(w * V))
    return 0.5 * (G + G.T)


def loop_radial_grid(R, M, grading, dim):
    """Nodes and weights of the graded radial rule, one cell at a time: the
    first four cells keep their exact mass, every other cell adds its
    moments against the quadratic through nodes j - 1, j, j + 1 with
    j = min(c, M - 2).  No positivity check."""
    N = dim
    r = R * ((np.arange(M) + 0.5) / M) ** grading
    edges = R * (np.arange(M + 1) / M) ** grading

    def cell_moment(k):
        return (edges[1:] ** (k + N) - edges[:-1] ** (k + N)) / (k + N)

    m0, m1, m2 = cell_moment(0), cell_moment(1), cell_moment(2)
    w = np.zeros(M)
    for c in range(M):
        if c < 4:
            w[c] += m0[c]
            continue
        j = min(max(c, 1), M - 2)
        x0, x1, x2 = r[j - 1], r[j], r[j + 1]
        for xa, xb, xc, idx in ((x0, x1, x2, j - 1), (x1, x0, x2, j), (x2, x0, x1, j + 1)):
            w[idx] += (m2[c] - (xb + xc) * m1[c] + xb * xc * m0[c]) / ((xa - xb) * (xa - xc))
    return r, w


def broadcast_dense_kernel(grid, mu):
    """The mu != 1 radial kernel from its closed form on broadcast (M, M)
    arrays, with the analytic diagonal cells."""
    r, d = grid.nodes, grid.cell_widths
    rr, ss = r[:, None], r[None, :]
    if abs(mu - 2.0) > 1e-13:
        e = 2.0 - mu
        with np.errstate(divide="ignore"):
            K = ((rr + ss) ** e - np.abs(rr - ss) ** e) / (rr * ss * e)
        diag = ((2.0 * r) ** e - 2.0 * d**e / ((3.0 - mu) * (4.0 - mu))) / (r * r * e)
    else:
        with np.errstate(divide="ignore"):
            K = np.log((rr + ss) / np.abs(rr - ss)) / (rr * ss)
        diag = (np.log(2.0 * r / d) + 1.5) / (r * r)
    np.fill_diagonal(K, diag)
    return K


def cancellation_free_kernel(grid, mu):
    """The mu != 1, 2 radial kernel off the diagonal in a form free of the
    cancellation of (r+s)^e - |r-s|^e as e -> 0:
    |r-s|^e expm1(e log1p(2 min(r, s)/|r-s|)) / (e r s).  Diagonal: NaN."""
    r = grid.nodes
    rr, ss = r[:, None], r[None, :]
    e = 2.0 - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.abs(rr - ss)
        K = d**e * np.expm1(e * np.log1p(2.0 * np.minimum(rr, ss) / d)) / (e * rr * ss)
    np.fill_diagonal(K, np.nan)
    return K


def dense_newton_kernel(grid):
    """The mu = 1 radial kernel as a dense matrix: Newton's 2/max(r, s) off
    the diagonal and the analytic diagonal cells (2r - d/3)/r^2."""
    r = grid.nodes
    K = 2.0 / np.maximum(r[:, None], r[None, :])
    np.fill_diagonal(K, (2.0 * r - grid.cell_widths / 3.0) / (r * r))
    return K


def dense_w_u(u_vals, grid, params, K):
    """w_u = 2 pi r^-a K (b u^p r^-a w) by a dense matrix-vector product."""
    r = grid.nodes
    f = params.b_values(r) * np.abs(u_vals) ** params.p
    return 2.0 * np.pi * r ** -params.alpha * (K @ (f * r ** -params.alpha * grid.weights))


def direct_pair_sum_w_u(u_vals, grid, params):
    """w_u on a Cartesian box by the O(m^6) midpoint pair sum: h^3 |x-y|^-mu
    off the diagonal plus the self-cell term 4 pi rho^(3-mu)/(3-mu), with rho
    the radius of the sphere of volume h^3.  u_vals is one profile or one
    profile per column.  Dense rows; use at m <= 16."""
    X, h, mu = grid.points, grid.h, params.mu
    rad = grid.radii
    r_alpha = rad ** -params.alpha
    gv = ((params.b_values(rad) * r_alpha) * (np.abs(u_vals).T ** params.p)).T
    out = np.empty(gv.shape)
    block = 256
    for s0 in range(0, len(gv), block):
        rows = np.arange(s0, min(s0 + block, len(gv)))
        d = np.linalg.norm(X[rows, None, :] - X[None, :, :], axis=2)
        with np.errstate(divide="ignore"):
            K = d ** -mu
        K[np.arange(len(rows)), rows] = 0.0
        out[rows] = K @ gv * h**3
    rho = (3.0 * h**3 / (4.0 * np.pi)) ** (1.0 / 3.0)
    out += gv * 4.0 * np.pi * rho ** (3.0 - mu) / (3.0 - mu)
    return (r_alpha * out.T).T


def gaussian_B_closed_form(mu, p):
    """B(u) of u = exp(-r^2) in N = 3 at alpha = 0 and b = 1, in closed form:
    with s = (x + y)/2 and z = x - y, |x|^2 + |y|^2 = 2|s|^2 + |z|^2/2, so B
    is a Gaussian integral in s times a Gamma integral in z,

        B = (pi/p)^3 (2/p)^(-mu/2) Gamma((3 - mu)/2) / Gamma(3/2)."""
    return ((math.pi / p) ** 3 * (2.0 / p) ** (-mu / 2.0)
            * math.gamma((3.0 - mu) / 2.0) / math.gamma(1.5))


def full_box_kernel_hat(grid, mu):
    """rfftn of the direct engine's lattice kernel on the full (2m)^3 lag
    array (lag min(k, 2m - k) per axis), real part: the kernel is even."""
    n = 2 * grid.m
    lag2 = np.minimum(np.arange(n), n - np.arange(n)) ** 2.0
    K = lag2[:, None, None] + lag2[None, :, None] + lag2[None, None, :]
    with np.errstate(divide="ignore"):
        K = K ** (-0.5 * mu) * grid.h ** (3.0 - mu)
    rho = (3.0 * grid.h**3 / (4.0 * np.pi)) ** (1.0 / 3.0)
    K[0, 0, 0] = 4.0 * np.pi * rho ** (3.0 - mu) / (3.0 - mu)
    return np.fft.rfftn(K).real


def unfold_octant(octant):
    """The (2m, 2m, m+1) rfftn layout of a kernel transform kept as its
    (m+1)^3 octant: frequency k on axes 0 and 1 reads entry min(k, 2m - k)."""
    m = octant.shape[0] - 1
    k = np.arange(2 * m)
    mirror = np.minimum(k, 2 * m - k)
    return octant[mirror][:, mirror]


def hfft_box_kernel_octant(grid, mu):
    """The (m+1)^3 octant of the lattice kernel's transform taken per axis by
    np.fft.hfft over the octant of lags 0..m (the DCT-I of an even sequence),
    axis 1 transformed over all 2m frequencies before its octant is kept."""
    m, n = grid.m, 2 * grid.m
    lag2 = np.arange(m + 1) ** 2.0
    K = lag2[:, None, None] + lag2[None, :, None] + lag2[None, None, :]
    with np.errstate(divide="ignore"):
        K = K ** (-0.5 * mu) * grid.h ** (3.0 - mu)
    rho = (3.0 * grid.h**3 / (4.0 * np.pi)) ** (1.0 / 3.0)
    K[0, 0, 0] = 4.0 * np.pi * rho ** (3.0 - mu) / (3.0 - mu)
    K = np.fft.hfft(K, n, axis=2)[:, :, :m + 1]
    K = np.fft.hfft(K, n, axis=1)
    return np.fft.hfft(K, n, axis=0)[:m + 1, :m + 1]


def full_box_w_u(u_vals, grid, params):
    """w_u on a Cartesian box by one zero-padded whole-box rfftn / irfftn
    convolution with full_box_kernel_hat."""
    m = grid.m
    shape, axes = (2 * m,) * 3, (0, 1, 2)
    r_alpha = grid.radii ** -params.alpha
    f = params.b_values(grid.radii) * np.abs(u_vals) ** params.p * r_alpha
    hat = full_box_kernel_hat(grid, params.mu)
    conv = np.fft.irfftn(np.fft.rfftn(f.reshape(m, m, m), s=shape, axes=axes) * hat,
                         s=shape, axes=axes)
    return r_alpha * conv[:m, :m, :m].reshape(-1)


def axis_w_u(u_vals, grid, params, hat):
    """w_u on a Cartesian box by the zero-padded convolution with the kernel
    transform hat, one axis at a time, each transform into a fresh array:
    the forward ones pad each axis to 2m, the inverse ones keep the first m
    entries of the axis they invert."""
    m, n = grid.m, 2 * grid.m
    r = grid.radii
    r_alpha = r ** (-params.alpha)
    f = params.b_values(r) * np.abs(u_vals) ** params.p
    z = np.fft.rfft((f * r_alpha).reshape(m, m, m), n, axis=2)
    z = np.fft.fft(z, n, axis=1)
    z = np.fft.fft(z, n, axis=0)
    z *= hat
    z = np.fft.ifft(z, axis=0)[:m]
    z = np.fft.ifft(z, axis=1)[:, :m]
    conv = np.fft.irfft(z, n, axis=2)[:, :, :m]
    return r_alpha * conv.reshape(-1)


def loop_family_sweep(families, sigmas, grid, params):
    """The family x scale lattice one profile at a time: sample it, skip it
    outside the positive cone, else take Lambda_n of its reduced triple; the
    first minimum wins.  Returns (best_value, best_profile, trace)."""
    families, sigmas = list(families), list(sigmas)
    if not families or not sigmas:
        raise EmptyFamily("family sweep needs at least one family and one scale")
    best_val, best_u, trace = np.inf, None, []
    for fam, beta in families:
        for sigma in sigmas:
            u = sample_profile(fam, sigma, grid, beta=beta)
            if not u.in_positive_cone:
                continue
            val = float(lambda_n(reduced_triple(u, params), params.p, params.q))
            trace.append(SweepEntry(family=fam, beta=beta, sigma=sigma, value=val))
            if val < best_val:
                best_val, best_u = val, u
    if best_u is None:
        raise EmptyFamily("no lattice profile lies in the positive cone")
    return best_val, best_u, trace
