"""Problem constants, hypothesis validation, and closed-form fibering constants.

The problem is parametrized by the dimension N, the kernel weights (alpha, mu),
the superlinear/singular exponents (p, q), and three analytic potential
families

    a(x) = (1 + |x|^2)^(-gamma3),
    b(x) = (1 + |x|^2)^(-gamma4)   (or b = 1),
    V(x) = 1 + |x|^2.

Admissibility:

    N >= 3,  0 < q < 1,  mu > 0,  alpha > 0,  0 < 2*alpha + mu < N,
    (2N - 2a - mu)/N < p < (2N - 2a - mu)/(N - 2),
    N(2-q)/4 < gamma3 < N/2,
    gamma4 > max(N/(2*zeta1), N/(2*zeta2)),
        zeta1 = 2N / (2N - 2a - mu - (N-2)(p-q)),
        zeta2 = 2N / (2N - 2a - mu - p(N-2)).

Validation is strict-fail: every violated constraint is reported by name and
nothing is clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExponentWindowViolation,
    ParameterValidationError,
    PotentialDecayViolation,
    SingularExponentViolation,
    WeightViolation,
)

B_FORMS = ("inverse_poly", "constant")


@dataclass(frozen=True)
class ProblemParams:
    """Validated-on-demand configuration of the singular nonlocal problem.

    Frozen, so it hashes and compares by value: functionals.workspace keys
    its cache on it."""

    N: int = 3
    alpha: float = 0.25
    mu: float = 1.0
    p: float = 2.0
    q: float = 0.5
    gamma3: float = 1.3
    gamma4: float = 1.0
    b_form: str = "inverse_poly"
    choquard: bool = False       # explicit opt-in for alpha = 0 (pure Choquard kernel)

    # potential families, evaluated on radius arrays
    def a_values(self, r):
        return (1.0 + np.asarray(r) ** 2) ** (-self.gamma3)

    def b_values(self, r):
        r = np.asarray(r)
        if self.b_form == "constant":
            return np.ones_like(r, dtype=float)
        return (1.0 + r**2) ** (-self.gamma4)

    def v_values(self, r):
        return 1.0 + np.asarray(r) ** 2


@dataclass(frozen=True)
class FiberingConstants:
    """Closed-form constants of the two Rayleigh-quotient maxima.

    c_pq       = ((2-q)/(2p-q))^((2-q)/(2p-2)) * (2p-2)/(2p-q)
    c_tilde_pq = q * p^((2-q)/(2p-2)) * ((p-1)/(2p-q)) * ((2-q)/(2p-q))^((2-q)/(2p-2))
    ratio      = c_tilde_pq / c_pq = q * p^((2-q)/(2p-2)) / 2, always in (0, 1)
    kappa      = (2p-q)/(2p-2),  nu = (2-q)/(2p-2): the exponents of E and B in
                 Lambda_n = c_pq E^kappa / (A B^nu); kappa - nu = 1
    """

    c_pq: float
    c_tilde_pq: float
    ratio: float
    kappa: float
    nu: float


def critical_exponents(N: int, alpha: float, mu: float) -> tuple[float, float]:
    """Open admissibility window (lower, upper) for the exponent p."""
    s = 2.0 * N - 2.0 * alpha - mu
    return s / N, s / (N - 2.0)


def gamma3_window(N: int, q: float) -> tuple[float, float]:
    """Admissible decay window for the singular weight a."""
    return N * (2.0 - q) / 4.0, N / 2.0


def gamma4_floor(N: int, alpha: float, mu: float, p: float, q: float) -> float:
    """Lower admissibility bound for the decay of b."""
    s = 2.0 * N - 2.0 * alpha - mu
    zeta1 = 2.0 * N / (s - (N - 2.0) * (p - q))
    zeta2 = 2.0 * N / (s - p * (N - 2.0))
    return max(N / (2.0 * zeta1), N / (2.0 * zeta2))


def fibering_constants(p: float, q: float) -> FiberingConstants:
    """Evaluate the closed-form constants; requires 0 < q < 1 < p."""
    if not (0.0 < q < 1.0 < p):
        raise ParameterValidationError([f"fibering constants need 0 < q < 1 < p, got p={p}, q={q}"])
    kappa = (2.0 * p - q) / (2.0 * p - 2.0)
    nu = (2.0 - q) / (2.0 * p - 2.0)
    c = ((2.0 - q) / (2.0 * p - q)) ** nu * (2.0 * p - 2.0) / (2.0 * p - q)
    ct = q * p**nu * ((p - 1.0) / (2.0 * p - q)) * ((2.0 - q) / (2.0 * p - q)) ** nu
    return FiberingConstants(c_pq=c, c_tilde_pq=ct, ratio=ct / c, kappa=kappa, nu=nu)


def validate(params: ProblemParams) -> ProblemParams:
    """Check every hypothesis; raise with all violated constraints named.

    The raised class corresponds to the first violated group in the order
    weight / singular exponent / exponent window / potential decay.  Returns
    the params unchanged when everything holds.
    """
    weight, singular, window, decay = [], [], [], []

    if params.N < 3 or params.N != int(params.N):
        weight.append(f"N must be an integer >= 3, got {params.N}")
    if params.mu <= 0.0:
        weight.append(f"mu must be positive, got {params.mu}")
    alpha_ok = params.alpha > 0.0 or (params.choquard and params.alpha == 0.0)
    if not alpha_ok:
        weight.append(
            f"alpha must be > 0 (alpha = 0 only with choquard=True), got {params.alpha}"
        )
    if 2.0 * params.alpha + params.mu >= params.N:
        weight.append(
            f"2*alpha + mu = {2 * params.alpha + params.mu} must be < N = {params.N}"
        )

    if not (0.0 < params.q < 1.0):
        singular.append(f"q must lie in (0, 1), got {params.q}")

    if not weight and not singular:
        lo, hi = critical_exponents(params.N, params.alpha, params.mu)
        if not (lo < params.p < hi):
            window.append(f"p = {params.p} outside the open window ({lo}, {hi})")

        g3lo, g3hi = gamma3_window(params.N, params.q)
        if not (g3lo < params.gamma3 < g3hi):
            decay.append(f"gamma3 = {params.gamma3} outside ({g3lo}, {g3hi})")
        if not window and params.b_form == "inverse_poly":
            g4lo = gamma4_floor(params.N, params.alpha, params.mu, params.p, params.q)
            if not (params.gamma4 > g4lo):
                decay.append(f"gamma4 = {params.gamma4} must exceed {g4lo}")

    if params.b_form not in B_FORMS:
        decay.append(f"unsupported b_form {params.b_form!r} (supported: {B_FORMS})")

    violations = weight + singular + window + decay
    if not violations:
        return params
    if weight:
        raise WeightViolation(violations)
    if singular:
        raise SingularExponentViolation(violations)
    if window:
        raise ExponentWindowViolation(violations)
    raise PotentialDecayViolation(violations)


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
