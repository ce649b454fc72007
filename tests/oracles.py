"""Independent oracles used by the test suite.

Each oracle avoids the code path it checks: maximizers come from a log-grid
scan plus golden-section refinement, integrals from adaptive quadrature,
derivatives from central differences, and the energy operator from a dense
D^T W D product.  The Q_n / Q_e maximizer (maximize_on_ray, q_n_raw) and the
random triple and exponent samplers live in neharilab.invariants, which runs
the invariant battery on them; they are re-exported here.
"""

import numpy as np

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
