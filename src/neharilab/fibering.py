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

    Q_n(t_n tau) = Lambda_n h(tau),   h(tau) = k1 tau^(2-q) - k2 tau^(2p-q),
    k1 = (2p-q)/(2p-2),  k2 = (2-q)/(2p-2),  k1 - k2 = h(1) = 1,
    h''(1) = -(2-q)(2p-q),

and each root has a closed-form bracket,

    tau_plus  in [(rho/k1)^(1/(2-q)), rho^(1/(2-q))],
    tau_minus in [max(1, ((k1-rho)/k2)^(1/(2p-2))), (k1/k2)^(1/(2p-2))],

on which nehari_roots runs float Newton with a bisection fallback from
1 -+ sqrt(2(1-rho)/((2-q)(2p-q))).  All other functions accept numpy arrays
in the triple fields and in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import NonpositiveT, RootBracketFailure, ZeroA, ZeroB
from .functionals import ReducedTriple
from .params import fibering_constants

ROOT_RTOL = 1e-12        # |Q_n(t) - lambda| <= ROOT_RTOL * Lambda_n
DOUBLE_ROOT_BAND = 1e-12  # |lambda - Lambda_n| <= band * Lambda_n -> tangency
CLASSIFY_RTOL = 1e-9
_NEWTON_MAX = 100
_EPS = 2.0**-52           # double-precision machine epsilon


def _check_t(t):
    if (np.asarray(t) <= 0.0).any():
        raise NonpositiveT("fibering maps are defined for t > 0")


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


# --- fibering map -----------------------------------------------------------

def phi(t, triple: ReducedTriple, lam, p: float, q: float):
    _check_t(t)
    t = np.asarray(t, dtype=float) if not np.isscalar(t) else t
    return t**2 * triple.E / 2.0 - lam * t**q * triple.A / q - t ** (2 * p) * triple.B / (2 * p)


def phi_prime(t, triple: ReducedTriple, lam, p: float, q: float):
    _check_t(t)
    return t * triple.E - lam * t ** (q - 1) * triple.A - t ** (2 * p - 1) * triple.B


def phi_second(t, triple: ReducedTriple, lam, p: float, q: float):
    _check_t(t)
    return _phi_second(t, triple, lam, p, q)


def _phi_second(t, triple, lam, p, q):
    return (
        triple.E
        - (q - 1) * lam * t ** (q - 2) * triple.A
        - (2 * p - 1) * t ** (2 * (p - 1)) * triple.B
    )


# --- nonlinear Rayleigh quotients on the ray ---------------------------------

def q_n(t, triple: ReducedTriple, p: float, q: float):
    _check_t(t)
    _check_A(triple)
    return _q_n(t, triple, p, q)


def _q_n(t, triple, p, q):
    # factored so the exact exponent 2p-2 carries the cancellation near t_n
    return t ** (2 - q) * (triple.E - t ** (2 * p - 2) * triple.B) / triple.A


def q_n_prime(t, triple: ReducedTriple, p: float, q: float):
    _check_t(t)
    _check_A(triple)
    return (
        (2 - q) * t ** (1 - q) * triple.E - (2 * p - q) * t ** (2 * p - q - 1) * triple.B
    ) / triple.A


def q_e(t, triple: ReducedTriple, p: float, q: float):
    _check_t(t)
    _check_A(triple)
    return q * (t ** (2 - q) * triple.E / 2.0 - t ** (2 * p - q) * triple.B / (2 * p)) / triple.A


def q_e_prime(t, triple: ReducedTriple, p: float, q: float):
    _check_t(t)
    _check_A(triple)
    return (
        q
        * ((2 - q) / 2.0 * t ** (1 - q) * triple.E
           - (2 * p - q) / (2 * p) * t ** (2 * p - q - 1) * triple.B)
        / triple.A
    )


# --- closed-form critical points and values ----------------------------------

def t_max_n(triple: ReducedTriple, p: float, q: float):
    """Maximizer of Q_n: ((2-q)E / ((2p-q)B))^(1/(2p-2)), in log space."""
    _check_B(triple)
    return _t_max_n(triple, p, q)


def _t_max_n(triple, p, q):
    return np.exp(
        (np.log((2 - q) * np.asarray(triple.E)) - np.log((2 * p - q) * np.asarray(triple.B)))
        / (2 * p - 2)
    )


def t_max_e(triple: ReducedTriple, p: float, q: float):
    """Maximizer of Q_e: p^(1/(2p-2)) * t_n > t_n."""
    return p ** (1.0 / (2 * p - 2)) * t_max_n(triple, p, q)


def lambda_n(triple: ReducedTriple, p: float, q: float):
    """Lambda_n = max_t Q_n(t), evaluated in log space."""
    _check_A(triple)
    _check_B(triple)
    return _lambda_n(triple, p, q)


def _lambda_n(triple, p, q):
    C = fibering_constants(p, q)
    kappa = (2 * p - q) / (2 * p - 2)
    nu = (2 - q) / (2 * p - 2)
    return C.c_pq * np.exp(
        kappa * np.log(np.asarray(triple.E))
        - np.log(np.asarray(triple.A))
        - nu * np.log(np.asarray(triple.B))
    )


def lambda_e(triple: ReducedTriple, p: float, q: float):
    """Lambda_e = max_t Q_e(t) = ratio * Lambda_n."""
    return fibering_constants(p, q).ratio * lambda_n(triple, p, q)


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


def _solve_h(rho, lo, hi, tau, rising, p, q):
    """tau in (lo, hi) with h(tau) = rho (h rising there for N+, falling for N-).

    Float Newton with bisection fallback on h = tau^(2-q) (1 - e),
    e = k2 (tau^(2p-2) - 1) by expm1, which forms no difference of the large
    k1, k2 as p -> 1; h' = -(2p-q) tau^(1-q) e.  Stops at h's rounding level.
    """
    k2 = (2 - q) / (2 * p - 2)
    if not lo < tau < hi:
        tau = 0.5 * (lo + hi)
    for _ in range(_NEWTON_MAX):
        a = tau ** (2 - q)
        e = k2 * math.expm1((2 * p - 2) * math.log(tau))
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
    """
    if not 0.0 < lam < math.inf:
        raise NonpositiveT(f"nehari_roots needs finite lambda > 0, got {lam!r}")
    _check_A(triple)
    _check_B(triple)
    Ln = float(_lambda_n(triple, p, q))
    tn = float(_t_max_n(triple, p, q))
    if not (0.0 < tn < math.inf and 0.0 < Ln < math.inf):
        raise RootBracketFailure(f"t_n = {tn!r}, Lambda_n = {Ln!r} are not positive floats")
    if abs(lam - Ln) <= DOUBLE_ROOT_BAND * Ln:
        return DoubleRoot(t_n=tn)
    if lam > Ln:
        return NoRoot(t_n=tn, lambda_n=Ln)

    rho = float(lam) / Ln
    k1 = (2 * p - q) / (2 * p - 2)
    k2 = (2 - q) / (2 * p - 2)
    dtau = math.sqrt(2.0 * (1.0 - rho) / ((2 - q) * (2 * p - q)))
    t_plus = tn * _solve_h(rho, (rho / k1) ** (1 / (2 - q)), rho ** (1 / (2 - q)),
                           1.0 - dtau, True, p, q)
    t_minus = tn * _solve_h(rho, max(1.0, ((k1 - rho) / k2) ** (1 / (2 * p - 2))),
                            (k1 / k2) ** (1 / (2 * p - 2)), 1.0 + dtau, False, p, q)

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


# --- Nehari branch classification ----------------------------------------------

class Branch(Enum):
    NPLUS = "Nplus"
    NMINUS = "Nminus"
    NZERO = "Nzero"
    NOT_ON_NEHARI = "NotOnNehari"


def classify(triple: ReducedTriple, lam: float, p: float, q: float,
             rtol: float = CLASSIFY_RTOL) -> Branch:
    """Classify the point t = 1 of the ray by the signs of phi'(1), phi''(1)."""
    scale = max(triple.E, lam * triple.A, triple.B)
    d1 = phi_prime(1.0, triple, lam, p, q)
    d2 = phi_second(1.0, triple, lam, p, q)
    if abs(d1) > rtol * scale:
        return Branch.NOT_ON_NEHARI
    if abs(d2) <= rtol * scale:
        return Branch.NZERO
    return Branch.NPLUS if d2 > 0.0 else Branch.NMINUS


# --- one-stop report ---------------------------------------------------------------

@dataclass(frozen=True)
class FiberingReport:
    t_n: float
    t_e: float
    lambda_n: float
    lambda_e: float
    roots: RootsResult | None
    branch: Branch | None


def fibering_report(triple: ReducedTriple, p: float, q: float,
                    lam: float | None = None) -> FiberingReport:
    """Fibering structure of one triple; roots/branch only when lam is given.

    (p, q) is validated first, so a bad pair raises before anything is computed.
    """
    ratio = fibering_constants(p, q).ratio
    tn = float(t_max_n(triple, p, q))
    te = float(t_max_e(triple, p, q))
    Ln = float(lambda_n(triple, p, q))
    Le = ratio * Ln
    roots = branch = None
    if lam is not None:
        roots = nehari_roots(triple, lam, p, q)
        branch = classify(triple, lam, p, q)
    return FiberingReport(t_n=tn, t_e=te, lambda_n=Ln, lambda_e=Le, roots=roots, branch=branch)
