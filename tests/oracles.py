"""Independent oracles used by the test suite.

Each oracle avoids the code path it checks: maximizers come from a log-grid
scan plus golden-section refinement, integrals from adaptive quadrature,
derivatives from central differences, and the energy operator from a dense
D^T W D product.
"""

import numpy as np

from neharilab.functionals import ReducedTriple


def q_n_raw(t, E, A, B, p, q):
    # t^(2-q) (E - t^(2p-2) B) / A: for p near 1 the two terms nearly cancel
    # at t_n, and the exact exponent 2p-2 keeps the rounding of 2p-q (times
    # |ln t|) out of that difference
    return t ** (2 - q) * (E - t ** (2 * p - 2) * B) / A


def maximize_q_n(E, A, B, p, q, decades=35, coarse=1400, iters=120):
    """argmax/max of Q_n by log-grid scan + golden-section refinement."""
    ts = np.logspace(-decades, decades, coarse)
    vals = q_n_raw(ts, E, A, B, p, q)
    k = int(np.argmax(vals))
    lo = np.log(ts[max(k - 1, 0)])
    hi = np.log(ts[min(k + 1, coarse - 1)])
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iters):
        m1 = hi - inv_phi * (hi - lo)
        m2 = lo + inv_phi * (hi - lo)
        if q_n_raw(np.exp(m1), E, A, B, p, q) >= q_n_raw(np.exp(m2), E, A, B, p, q):
            hi = m2
        else:
            lo = m1
    t_star = np.exp(0.5 * (lo + hi))
    return t_star, q_n_raw(t_star, E, A, B, p, q)


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


def random_triples(rng, n, decades=3.0):
    return ReducedTriple(
        E=10.0 ** rng.uniform(-decades, decades, n),
        A=10.0 ** rng.uniform(-decades, decades, n),
        B=10.0 ** rng.uniform(-decades, decades, n),
    )


def random_exponents(rng, n, p_lo=1.15, p_hi=4.5, q_lo=0.05, q_hi=0.95):
    return rng.uniform(p_lo, p_hi, n), rng.uniform(q_lo, q_hi, n)


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
