"""Exact scalar algebra of the fibering map on a reduced triple (E, A, B).

Everything here is a function of the three scalars E = ||u||^2, A = A(u),
B = B(u) and the exponents (p, q); no grids are involved.  The central
objects:

    phi(t)   = t^2 E/2 - lambda t^q A/q - t^(2p) B/(2p)        (ray energy)
    Q_n(t)   = (t^(2-q) E - t^(2p-q) B) / A                    (Nehari quotient)
    Q_e(t)   = q (t^(2-q) E/2 - t^(2p-q) B/(2p)) / A           (zero-energy quotient)

Q_n is unimodal with maximizer t_n = ((2-q)E / ((2p-q)B))^(1/(2p-2)) and
maximum Lambda_n = C_pq E^((2p-q)/(2p-2)) / (A B^((2-q)/(2p-2))); Q_e peaks at
t_e = p^(1/(2p-2)) t_n with maximum Lambda_e = ratio * Lambda_n.  For
lambda < Lambda_n the equation Q_n(t) = lambda has exactly two roots

    t_plus < t_n < t_minus,

the ray's projections onto the two Nehari branches.  With tau = t/t_n and
rho = lambda/Lambda_n the equation is scale-free:

    Q_n(t_n tau) = Lambda_n h(tau),   h(tau) = kappa tau^(2-q) - nu tau^(2p-q),
    kappa = (2p-q)/(2p-2),  nu = (2-q)/(2p-2),  kappa - nu = h(1) = 1,
    h''(1) = -(2-q)(2p-q),

and each root has a closed-form bracket,

    tau_plus  in [(rho/kappa)^(1/(2-q)), rho^(1/(2-q))],
    tau_minus in [max(1, ((kappa-rho)/nu)^(1/(2p-2))), (kappa/nu)^(1/(2p-2))],

on which nehari_roots runs float Newton with a bisection fallback from
1 -+ sqrt(2(1-rho)/((2-q)(2p-q))).  lambda_n and scale_triple accept numpy
arrays in the triple fields.  The solver, the lambda* search and the sweep
are the callers; the tests check each closed form against an independent
maximizer of Q_n and Q_e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import BadLambda, RootBracketFailure, ZeroA, ZeroB
from .functionals import ReducedTriple
from .params import fibering_constants

ROOT_RTOL = 1e-12        # |Q_n(t) - lambda| <= ROOT_RTOL * Lambda_n
DOUBLE_ROOT_BAND = 1e-12  # |lambda - Lambda_n| <= band * Lambda_n -> tangency
_NEWTON_MAX = 100
_EPS = 2.0**-52           # double-precision machine epsilon


def _positive_finite(x) -> bool:
    if isinstance(x, float):  # numpy float64 too: no array reduction
        return 0.0 < x < math.inf
    x = np.asarray(x)
    return bool(((x > 0.0) & (x < np.inf)).all())  # NaN fails both


def _check_A(triple):
    if not _positive_finite(triple.A):
        raise ZeroA("quotients need finite A > 0")


def _check_B(triple):
    if not (_positive_finite(triple.B) and _positive_finite(triple.E)):
        raise ZeroB("critical points need finite B > 0 and E > 0")


def scale_triple(triple: ReducedTriple, s, p: float, q: float) -> ReducedTriple:
    """Triple of s*u: (E, A, B) -> (s^2 E, s^q A, s^(2p) B)."""
    return ReducedTriple(E=s**2 * triple.E, A=s**q * triple.A, B=s ** (2 * p) * triple.B)


# --- the ray's second derivative and Nehari quotient, checked at the roots ------

def _phi_second(t, triple, lam, p, q):
    return (
        triple.E
        - (q - 1) * lam * t ** (q - 2) * triple.A
        - (2 * p - 1) * t ** (2 * (p - 1)) * triple.B
    )


def _q_n(t, triple, p, q):
    # factored so the exact exponent 2p-2 carries the cancellation near t_n
    return t ** (2 - q) * (triple.E - t ** (2 * p - 2) * triple.B) / triple.A


# --- the closed-form maximum of Q_n -------------------------------------------

def lambda_n(triple: ReducedTriple, p: float, q: float):
    """Lambda_n = max_t Q_n(t), evaluated in log space."""
    _check_A(triple)
    _check_B(triple)
    C = fibering_constants(p, q)
    return C.c_pq * np.exp(
        C.kappa * np.log(np.asarray(triple.E))
        - np.log(np.asarray(triple.A))
        - C.nu * np.log(np.asarray(triple.B))
    )


# --- Nehari roots -------------------------------------------------------------

@dataclass(frozen=True)
class TwoRoots:
    t_plus: float
    t_minus: float
    t_n: float


@dataclass(frozen=True)
class DoubleRoot:
    t_n: float


@dataclass(frozen=True)
class NoRoot:
    t_n: float
    lambda_n: float


RootsResult = Union[TwoRoots, DoubleRoot, NoRoot]


def _exp(x: float) -> float:
    """math.exp, inf where it overflows (as np.exp)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _solve_h(rho, lo, hi, tau, rising, p, q, nu):
    """tau in (lo, hi) with h(tau) = rho (h rising there for N+, falling for N-).

    Float Newton with bisection fallback on h = tau^(2-q) (1 - e),
    e = nu (tau^(2p-2) - 1) by expm1, which forms no difference of the large
    kappa, nu as p -> 1; h' = -(2p-q) tau^(1-q) e.  Stops at h's rounding level.
    """
    if not lo < tau < hi:
        tau = 0.5 * (lo + hi)
    for _ in range(_NEWTON_MAX):
        a = tau ** (2 - q)
        e = nu * math.expm1((2 * p - 2) * math.log(tau))
        g = a * (1.0 - e) - rho
        if abs(g) <= 4.0 * _EPS * a * (1.0 + abs(e)):
            return tau
        if (g < 0.0) == rising:
            lo = tau
        else:
            hi = tau
        if e == 0.0 or not lo < (nxt := tau + g * tau / ((2 * p - q) * a * e)) < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == tau:
            return tau
        tau = nxt
    raise RootBracketFailure(f"Newton iteration for h(tau) = {rho!r} did not settle")


def nehari_roots(triple: ReducedTriple, lam: float, p: float, q: float) -> RootsResult:
    """Solve Q_n(t) = lambda on the ray.

    lambda < Lambda_n: TwoRoots t_n tau with h(tau) = lambda / Lambda_n (module
    docstring), each checked to |Q_n(t) - lambda| <= 1e-12 Lambda_n on Q_n
    itself, with phi''(t_plus) > 0 > phi''(t_minus).  Within the tangency band
    |lambda - Lambda_n| <= 1e-12 Lambda_n: DoubleRoot(t_n).  Above: NoRoot.
    lambda and the triple are validated once, here; nothing below re-checks.
    Lambda_n is that of lambda_n, evaluated in the same log-space order on
    floats by math, and t_n its maximizer ((2-q)E / ((2p-q)B))^(1/(2p-2)).
    """
    if not 0.0 < lam < math.inf:
        raise BadLambda(f"nehari_roots needs finite lambda > 0, got {lam!r}")
    _check_A(triple)
    _check_B(triple)
    E, A, B = float(triple.E), float(triple.A), float(triple.B)
    C = fibering_constants(p, q)
    kappa, nu = C.kappa, C.nu
    Ln = C.c_pq * _exp(kappa * math.log(E) - math.log(A) - nu * math.log(B))
    tn = _exp((math.log((2 - q) * E) - math.log((2 * p - q) * B)) / (2 * p - 2))
    if not (0.0 < tn < math.inf and 0.0 < Ln < math.inf):
        raise RootBracketFailure(f"t_n = {tn!r}, Lambda_n = {Ln!r} are not positive floats")
    if abs(lam - Ln) <= DOUBLE_ROOT_BAND * Ln:
        return DoubleRoot(t_n=tn)
    if lam > Ln:
        return NoRoot(t_n=tn, lambda_n=Ln)

    rho = float(lam) / Ln
    dtau = math.sqrt(2.0 * (1.0 - rho) / ((2 - q) * (2 * p - q)))
    t_plus = tn * _solve_h(rho, (rho / kappa) ** (1 / (2 - q)), rho ** (1 / (2 - q)),
                           1.0 - dtau, True, p, q, nu)
    t_minus = tn * _solve_h(rho, max(1.0, ((kappa - rho) / nu) ** (1 / (2 * p - 2))),
                            (kappa / nu) ** (1 / (2 * p - 2)), 1.0 + dtau, False, p, q, nu)

    tol = ROOT_RTOL * Ln
    try:
        for t in (t_plus, t_minus):
            res = abs(float(_q_n(t, triple, p, q)) - lam)
            if not res <= tol:
                raise RootBracketFailure(f"|Q_n(t) - lambda| = {res:.3e} > {tol:.3e} at t = {t!r}")
        signs_ok = _phi_second(t_plus, triple, lam, p, q) > 0.0 > _phi_second(
            t_minus, triple, lam, p, q)
    except OverflowError as exc:
        raise RootBracketFailure(f"Q_n or phi'' overflows at the roots: {exc}") from exc
    if not signs_ok:
        raise RootBracketFailure("second-derivative signs violated at the refined roots")
    return TwoRoots(t_plus=t_plus, t_minus=t_minus, t_n=tn)


# --- Nehari branches -------------------------------------------------------------

class Branch(Enum):
    NPLUS = "Nplus"
    NMINUS = "Nminus"
