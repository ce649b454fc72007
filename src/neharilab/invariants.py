"""The invariant battery: each exact fibering identity, checked once.

An entry check(params, grid, rng) -> (ok, detail) is named after what it
checks.  `neharilab invariants` runs BATTERY through run_invariants, the
acceptance suite each entry at several seeds through run_check.  Random rays
draw their own (p, q); other entries use params.  The oracle maximizes Q_n and
Q_e as written out from their definitions, not through the closed forms."""

from __future__ import annotations

import numpy as np

from . import fibering as fib
from .errors import NehariLabError
from .functionals import ReducedTriple
from .params import fibering_constants
from .sweep import dJ_dlambda_check

_FIXED = ReducedTriple(E=1.3, A=0.7, B=2.1)
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def q_n_raw(t, E, A, B, p, q):
    # factored: near t_n for p near 1 the exact exponent 2p-2 carries the cancellation
    return t ** (2 - q) * (E - t ** (2 * p - 2) * B) / A


def q_e_raw(t, E, A, B, p, q):
    return q * t ** (2 - q) * (E / 2.0 - t ** (2 * p - 2) * B / (2 * p)) / A


def maximize_on_ray(f, decades=35, coarse=1400, iters=120):
    """argmax and max of a unimodal t -> f(t) on t > 0: a log-grid scan of [10^-decades,
    10^decades], then golden section in ln t; with arrays of rays in f, one per ray."""
    ts = np.logspace(-decades, decades, coarse)
    k = np.argmax(f(ts.reshape((coarse,) + (1,) * np.ndim(f(1.0)))), axis=0)
    lo, hi = np.log(ts[np.maximum(k - 1, 0)]), np.log(ts[np.minimum(k + 1, coarse - 1)])
    for _ in range(iters):
        m1, m2 = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
        left = f(np.exp(m1)) >= f(np.exp(m2))
        lo, hi = np.where(left, lo, m1), np.where(left, m2, hi)
    t_star = np.exp(0.5 * (lo + hi))
    return t_star[()], f(t_star)[()]


def random_triples(rng, n, decades=3.0):
    E, A, B = 10.0 ** rng.uniform(-decades, decades, (3, n))
    return ReducedTriple(E=E, A=A, B=B)


def random_exponents(rng, n, p_lo=1.15, p_hi=4.5, q_lo=0.05, q_hi=0.95):
    return rng.uniform(p_lo, p_hi, n), rng.uniform(q_lo, q_hi, n)


def _random_rays(rng, n, decades=3.0):
    """n random rays (triple, p, q) of floats, p in (1.2, 4) and q in (0.05, 0.95)."""
    tr, (ps, qs) = random_triples(rng, n, decades), random_exponents(rng, n, 1.2, 4.0)
    return [(ReducedTriple(E, A, B), p, q)
            for E, A, B, p, q in zip(*(x.tolist() for x in (*tr.as_tuple(), ps, qs)))]


def _oracle_errors(raw, t_cf, f_cf, rng):
    """Worst relative errors of a closed-form argmax and max on 1000 random rays."""
    rays = _random_rays(rng, 1000)
    E, A, B, p, q = np.array([(*ray.as_tuple(), p, q) for ray, p, q in rays]).T
    t_star, f_max = maximize_on_ray(lambda t: raw(t, E, A, B, p, q), decades=30, coarse=1000)
    return np.max([(abs(float(t_cf(*ray)) / t_o - 1.0), abs(float(f_cf(*ray)) / f_o - 1.0))
                   for ray, t_o, f_o in zip(rays, t_star, f_max)], axis=0)


def constants_ratio_window(params, grid, rng):
    ps, qs = random_exponents(rng, 10_000, 1.05, 4.8, 0.02, 0.98)
    ratios = np.array([fibering_constants(p, q).ratio for p, q in zip(ps, qs)])
    err = float(np.max(np.abs(ratios / (qs * ps ** ((2 - qs) / (2 * ps - 2)) / 2.0) - 1.0)))
    ref_err = abs(fibering_constants(2.0, 0.5).ratio / 2.0**-1.25 - 1.0)   # 2^(3/4) / 4
    return err <= 1e-12 and ref_err <= 1e-13 and np.all((0.0 < ratios) & (ratios < 1.0)), (
        f"ratio = q p^((2-q)/(2p-2))/2 in (0, 1) on 10000 (p, q): max rel err {err:.2e} "
        f"(tol 1e-12); ratio(2, 0.5) = 2^(3/4)/4 to {ref_err:.1e} (tol 1e-13)")


def c_pq_matches_qn_maximum(params, grid, rng):
    t_err, l_err = _oracle_errors(q_n_raw, fib.t_max_n, fib.lambda_n, rng)
    c_pq = fibering_constants(params.p, params.q).c_pq
    _, c_max = maximize_on_ray(lambda t: q_n_raw(t, 1.0, 1.0, 1.0, params.p, params.q))
    c_err = abs(c_pq - c_max) / c_max
    return t_err <= 1e-6 and l_err <= 1e-8 and c_err <= 1e-8, (
        f"vs max Q_n on 1000 random rays: t_n err {t_err:.2e} (tol 1e-6), Lambda_n err "
        f"{l_err:.2e} (tol 1e-8); C_pq err {c_err:.2e} (tol 1e-8) on the unit ray")


def lambda_e_matches_qe_maximum(params, grid, rng):
    t_err, l_err = _oracle_errors(q_e_raw, fib.t_max_e, fib.lambda_e, rng)
    return t_err <= 1e-6 and l_err <= 1e-8, (
        f"vs max Q_e on 1000 random rays: t_e err {t_err:.2e} (tol 1e-6), "
        f"Lambda_e err {l_err:.2e} (tol 1e-8)")


def qn_qe_identity(params, grid, rng):
    tr, (ps, qs) = random_triples(rng, 100_000), random_exponents(rng, 100_000)
    ts = 10.0 ** rng.uniform(-2, 2, 100_000)
    r = fib.q_n(ts, tr, ps, qs) - fib.q_e(ts, tr, ps, qs) - ts / qs * fib.q_e_prime(ts, tr, ps, qs)
    worst = float(np.max(np.abs(r) * tr.A / (ts ** (2 - qs) * tr.E + ts ** (2 * ps - qs) * tr.B)))
    return worst <= 1e-10, f"Q_n - Q_e = (t/q) Q_e', 1e5 samples: residual {worst:.2e} (tol 1e-10)"


def lambda_n_zero_homogeneous(params, grid, rng):
    p, q, tr = params.p, params.q, random_triples(rng, 1000)
    scaled = fib.scale_triple(tr, 10.0 ** rng.uniform(-2, 2, 1000), p, q)
    worst = float(np.max(np.abs(fib.lambda_n(scaled, p, q) / fib.lambda_n(tr, p, q) - 1.0)))
    return worst <= 1e-12, f"Lambda_n(s u) = Lambda_n(u) on 1000 rays: err {worst:.2e} (tol 1e-12)"


def quadrature_exactness(params, grid, rng):
    N, r, w = grid.dim, grid.nodes, grid.weights
    err = max(abs(float(w @ r**k) * (k + N) / grid.R ** (k + N) - 1.0) for k in range(3))
    return err <= 1e-9, f"r^k, k <= 2 at M = {grid.M}: max rel err {err:.2e} (tol 1e-9)"


def two_root_structure(params, grid, rng):
    bad, worst = 0, 0.0
    for ray, p, q in [*_random_rays(rng, 250), (_FIXED, params.p, params.q)]:
        Ln = float(fib.lambda_n(ray, p, q))
        roots = fib.nehari_roots(ray, 0.5 * Ln, p, q)
        bad += not (isinstance(roots, fib.TwoRoots) and roots.t_plus < roots.t_n < roots.t_minus
                    and fib.phi_second(roots.t_plus, ray, 0.5 * Ln, p, q) > 0.0
                    > fib.phi_second(roots.t_minus, ray, 0.5 * Ln, p, q)
                    and [fib.classify(fib.scale_triple(ray, t, p, q), 0.5 * Ln, p, q).value
                         for t in (roots.t_plus, roots.t_minus)] == ["Nplus", "Nminus"]
                    and isinstance(fib.nehari_roots(ray, Ln, p, q), fib.DoubleRoot))
        rep = fib.degenerate_relations_check(fib.normalize_degenerate(ray, p, q), p, q)
        worst = max(worst, rep.residual_A, rep.residual_B)
    return bad == 0 and worst <= 1e-10, (
        f"t_plus < t_n < t_minus, phi'' signs, N+/N- at Lambda_n/2 and a double root at Lambda_n: "
        f"{bad} of 251 rays fail; tangency A, B residual {worst:.2e} (tol 1e-10)")


def monotone_in_lambda(params, grid, rng):
    p, q = params.p, params.q
    Ln = float(fib.lambda_n(_FIXED, p, q))
    roots = [fib.nehari_roots(_FIXED, lam, p, q) for lam in np.linspace(0.05, 0.95, 32) * Ln]
    worst = max(max(rep.rel_err_plus, rep.rel_err_minus) for rep in (
        dJ_dlambda_check(_FIXED, frac * Ln, params) for frac in (0.25, 0.5, 0.75)))
    return (np.all(np.diff([r.t_plus for r in roots]) > 0.0)
            and np.all(np.diff([r.t_minus for r in roots]) < 0.0) and worst <= 1e-5), (
        "t_plus strictly up, t_minus strictly down over 32 lambda in [0.05, 0.95] Lambda_n; "
        f"dJ/dlambda = -t^q A/q on both branches: err {worst:.2e} (tol 1e-5)")


def _signs_agree(x, y, scale):
    tol = 1e-10 * np.asarray(scale)
    return np.all((np.abs(x) <= tol) | (np.abs(y) <= tol) | (np.sign(x) == np.sign(y)))


def rayleigh_equivalences(params, grid, rng):
    """At lambda = 0.7 Lambda_n, sign(Q_n(1) - lambda) = sign(phi'(1)) and sign(Q_e(1) - lambda)
    = sign(J_lambda(u)); at 41 t, Q_n' has the sign of (2-q)E - (2p-q) t^(2p-2) B (phi''
    with lambda eliminated) and Q_e' that of phi'(t) at lambda = Q_e(t)."""
    bad = 0
    for ray, p, q in _random_rays(rng, 100, decades=2.0):
        (E, A, B), lam = ray.as_tuple(), 0.7 * float(fib.lambda_n(ray, p, q))
        ts = float(fib.t_max_n(ray, p, q)) * np.logspace(-2, 2, 41)
        tb, lam_t = ts ** (2 * p - 2) * B, fib.q_e(ts, ray, p, q)
        bad += not (_signs_agree(A * (fib.q_n(1.0, ray, p, q) - lam),
                                 fib.phi_prime(1.0, ray, lam, p, q), max(E, lam * A, B))
                    and _signs_agree(A * (fib.q_e(1.0, ray, p, q) - lam),
                                     q * fib.phi(1.0, ray, lam, p, q), max(E, lam * A, B))
                    and _signs_agree(A * fib.q_n_prime(ts, ray, p, q),
                                     (2 - q) * E - (2 * p - q) * tb, (2 - q) * E + (2 * p - q) * tb)
                    and _signs_agree(A * fib.q_e_prime(ts, ray, p, q),
                                     fib.phi_prime(ts, ray, lam_t, p, q),
                                     ts * E + np.abs(lam_t) * ts ** (q - 1) * A + ts * tb))
    return bad == 0, f"four sign equivalences: {bad} of 100 random rays fail"


BATTERY = (constants_ratio_window, c_pq_matches_qn_maximum, lambda_e_matches_qe_maximum,
           qn_qe_identity, lambda_n_zero_homogeneous, quadrature_exactness, two_root_structure,
           monotone_in_lambda, rayleigh_equivalences)


def run_check(check, params, grid, seed):
    """(ok, detail) of one entry seeded by seed; a library error fails it."""
    try:
        return check(params, grid, np.random.default_rng(seed))
    except NehariLabError as err:
        return False, f"{type(err).__name__}: {err}"


def run_invariants(params, grid, seed):
    """[(name, ok, detail)] for every BATTERY entry, each seeded by seed."""
    return [(check.__name__, *run_check(check, params, grid, seed)) for check in BATTERY]
