"""Parameter sweeps over lambda.

run_sweep solves both branches at each lambda of a grid and records, per
row, the Nehari roots t_plus/t_minus of one fixed reference ray, computed by
the exact fibering algebra and so free of solver noise.
sign_change_locator finds where the bound-state energy changes sign, to be
compared with lambda_* = ratio * lambda*; endpoint_probe solves on a ladder
approaching lambda*.  The identities these rows are read against (roots
monotone in lambda, dJ/dlambda = -t^q A/q) are checked in invariants.

Both ladders trace the branches u+(lambda) and u-(lambda) by natural-parameter
continuation (Allgower & Georg 1990): each branch's solve starts from a
prediction built from the converged rows below it, the last one's solution
after one such row and the secant extrapolation after two.  The first row,
and every row until one converges, starts from the caller's profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoSignChange, RayMissesNehari
from .fibering import TwoRoots, nehari_roots
from .functionals import ReducedTriple
from .grid import GridFunction
from .params import ProblemParams, fibering_constants
from .solver import SolverOptions, solve_pair

CSV_HEADER = ("lambda,energy_plus,energy_minus,t_plus,t_minus,norm_minus,"
              "residual_plus,residual_minus,converged_plus,converged_minus")


@dataclass
class SweepRow:
    lam: float
    energy_plus: float
    energy_minus: float
    t_plus: float
    t_minus: float
    norm_minus: float
    residual_plus: float
    residual_minus: float
    converged_plus: bool
    converged_minus: bool


@dataclass
class SweepResult:
    rows: list[SweepRow]
    reference_triple: ReducedTriple = field(repr=False, default=None)

    def converged_rows(self) -> list[SweepRow]:
        return [r for r in self.rows if r.converged_plus and r.converged_minus]


def default_lambda_grid(lambda_star: float, points: int = 9,
                        frac_min: float = 0.15, frac_max: float = 0.85,
                        spacing: str = "auto") -> np.ndarray:
    """Lambda grid inside (0, lambda*): linear low end, geometric near the top.

    spacing: "linear", "geometric" (cluster toward lambda*), or "auto"
    (linear below the split, geometric above it; the split is 0.5 when the
    window holds it, its midpoint otherwise, so every fraction stays inside
    [frac_min, frac_max]; two points are the window's ends alone).  Every
    spacing starts at frac_min and ends at frac_max exactly.
    """
    if not (0.0 < frac_min < frac_max < 1.0):
        raise ValueError("need 0 < frac_min < frac_max < 1")
    if points < 2:
        raise ValueError("need at least two points")
    if spacing == "linear":
        frac = np.linspace(frac_min, frac_max, points)
    elif spacing == "geometric":
        # uniform in log(1 - frac): clusters toward lambda*
        frac = 1.0 - np.exp(np.linspace(np.log(1 - frac_min), np.log(1 - frac_max), points))
    elif spacing == "auto":
        nlow = points // 2
        split = 0.5 if frac_min < 0.5 < frac_max else 0.5 * (frac_min + frac_max)
        low = np.linspace(frac_min, split, nlow, endpoint=False)
        high = 1.0 - np.exp(np.linspace(np.log(1 - split), np.log(1 - frac_max), points - nlow))
        frac = np.concatenate([low, high])
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    frac = np.sort(frac)
    # the ends exactly: exp(log(1 - f)) may round off f, and at two points
    # the auto grid's geometric half is the split alone
    frac[0], frac[-1] = frac_min, frac_max
    return lambda_star * frac


def fixed_profile_roots(triple: ReducedTriple, lam: float, params: ProblemParams):
    roots = nehari_roots(triple, lam, params.p, params.q)
    if not isinstance(roots, TwoRoots):
        return np.nan, np.nan
    return roots.t_plus, roots.t_minus


def _predict(bases, lam, grid):
    """Per-branch starts at lam from the converged rows (lam_i, u+_i, u-_i):
    the last row's solutions, or max(u1 + f (u1 - u0), 0) with
    f = (lam - lam1)/(lam1 - lam0) once there are two."""
    lam1, *u1 = bases[-1]
    if len(bases) == 1:
        return tuple(u1)
    lam0, *u0 = bases[-2]
    f = (lam - lam1) / (lam1 - lam0)
    return tuple(GridFunction(grid, np.maximum(b.values + f * (b.values - a.values), 0.0))
                 for a, b in zip(u0, u1))


def _continue(lams, params, grid, init, opts):
    """Yield (lambda, (plus, minus)) per lambda of an increasing ladder, or
    (lambda, None) where every sampled ray misses the Nehari set.  Only rows
    that converge on both branches feed the predictor."""
    bases = []
    for lam in lams:
        start = _predict(bases, lam, grid) if bases else init
        try:
            # through this module's binding, so one call per row can be traced
            pair = solve_pair(lam, params, grid, init=start, opts=opts)
        except RayMissesNehari:
            yield lam, None
            continue
        plus, minus = pair
        if plus.converged and minus.converged:
            bases = bases[-1:] + [(lam, plus.solution, minus.solution)]
        yield lam, pair


def run_sweep(lambda_grid, params: ProblemParams, grid,
              reference_triple: ReducedTriple,
              init=None, opts: SolverOptions | None = None) -> SweepResult:
    """One solve_pair per lambda of a strictly increasing grid, continued
    from the converged rows below it (module docstring); init starts the
    first row.  Per-row failures are recorded, not fatal."""
    lams = np.asarray(lambda_grid, dtype=float)
    if np.any(np.diff(lams) <= 0.0):
        raise ValueError("lambda grid must be strictly increasing")
    rows = []
    for lam, pair in _continue(lams.tolist(), params, grid, init, opts):
        tp, tm = fixed_profile_roots(reference_triple, lam, params)
        if pair is None:
            rows.append(SweepRow(
                lam=lam, energy_plus=np.nan, energy_minus=np.nan,
                t_plus=tp, t_minus=tm, norm_minus=np.nan,
                residual_plus=np.nan, residual_minus=np.nan,
                converged_plus=False, converged_minus=False,
            ))
            continue
        plus, minus = pair
        rows.append(SweepRow(
            lam=lam,
            energy_plus=plus.energy,
            energy_minus=minus.energy,
            t_plus=tp,
            t_minus=tm,
            norm_minus=minus.norm,
            residual_plus=plus.weak_residual,
            residual_minus=minus.weak_residual,
            converged_plus=plus.converged,
            converged_minus=minus.converged,
        ))
    return SweepResult(rows=rows, reference_triple=reference_triple)


def write_rows(rows, path) -> None:
    """Deterministic CSV: fixed header, 17 significant digits, '.' decimals."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fields = [
                format(r.lam, ".17g"),
                format(r.energy_plus, ".17g"),
                format(r.energy_minus, ".17g"),
                format(r.t_plus, ".17g"),
                format(r.t_minus, ".17g"),
                format(r.norm_minus, ".17g"),
                format(r.residual_plus, ".17g"),
                format(r.residual_minus, ".17g"),
                "1" if r.converged_plus else "0",
                "1" if r.converged_minus else "0",
            ]
            fh.write(",".join(fields) + "\n")


# --- sign-change location ---------------------------------------------------------

@dataclass(frozen=True)
class SignChangeReport:
    crossing: float
    target: float           # ratio * lambda*_est
    gap: float              # |crossing - target| / lambda*_est
    cell: float             # local grid spacing at the crossing
    within_one_cell: bool
    n_sign_changes: int


def sign_change_locator(rows, lambda_star_est: float, params: ProblemParams) -> SignChangeReport:
    """Locate the bound-state energy sign change among converged rows.

    Linear interpolation between the bracketing rows; compared against
    lambda_* = ratio * lambda*_est.
    """
    conv = [r for r in rows if r.converged_plus and r.converged_minus]
    conv.sort(key=lambda r: r.lam)
    crossings = []
    for lo, hi in zip(conv, conv[1:]):
        if lo.energy_minus > 0.0 >= hi.energy_minus or lo.energy_minus >= 0.0 > hi.energy_minus:
            frac = lo.energy_minus / (lo.energy_minus - hi.energy_minus)
            crossings.append((lo.lam + frac * (hi.lam - lo.lam), hi.lam - lo.lam))
    if not crossings:
        raise NoSignChange("no bound-state energy sign change inside the sweep window")
    crossing, cell = crossings[0]
    target = fibering_constants(params.p, params.q).ratio * lambda_star_est
    gap = abs(crossing - target) / lambda_star_est
    return SignChangeReport(
        crossing=crossing,
        target=target,
        gap=gap,
        cell=cell,
        within_one_cell=bool(abs(crossing - target) <= cell),
        n_sign_changes=len(crossings),
    )


# --- endpoint probe ----------------------------------------------------------------

@dataclass
class EndpointReport:
    lambdas: list[float]
    energy_plus: list[float]
    energy_minus: list[float]
    norms_minus: list[float]
    converged: list[bool]
    increments_plus: list[float]
    increments_minus: list[float]

    @property
    def no_collapse(self) -> bool:
        norms = [n for n, c in zip(self.norms_minus, self.converged) if c]
        if not norms:
            return False
        return min(norms) >= 0.5 * float(np.median(norms))


def endpoint_probe(params: ProblemParams, grid, lambda_star_est: float,
                   K: int = 6, init=None, opts: SolverOptions | None = None) -> EndpointReport:
    """Solve at lambda_k = (1 - 2^-k) lambda* for k = 1..K, continued from
    the converged rows below (module docstring; init starts k = 1), and
    report the Cauchy-style energy increments and the bound-state norm
    trajectory."""
    lams = [(1.0 - 2.0 ** (-k)) * lambda_star_est for k in range(1, K + 1)]
    ep, em, norms, conv = [], [], [], []
    for _, pair in _continue(lams, params, grid, init, opts):
        if pair is None:
            ep.append(np.nan)
            em.append(np.nan)
            norms.append(np.nan)
            conv.append(False)
            continue
        plus, minus = pair
        ep.append(plus.energy)
        em.append(minus.energy)
        norms.append(minus.norm)
        conv.append(plus.converged and minus.converged)
    inc_p = [abs(b - a) for a, b in zip(ep, ep[1:])]
    inc_m = [abs(b - a) for a, b in zip(em, em[1:])]
    return EndpointReport(
        lambdas=lams,
        energy_plus=ep,
        energy_minus=em,
        norms_minus=norms,
        converged=conv,
        increments_plus=inc_p,
        increments_minus=inc_m,
    )
