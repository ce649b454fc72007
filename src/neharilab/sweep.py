"""Parameter sweeps over lambda: one ladder, one record.

Two ladders of lambda inside (0, lambda*) read the branches off.  run_sweep
solves both branches on a grid across the sweep window, and
sign_change_locator finds where the bound-state energy changes sign there, to
be compared with lambda_* = ratio * lambda*.  endpoint_probe solves at
lambda_k = (1 - 2^-k) lambda*, approaching lambda*.  Both run one loop and
return one record, a SweepResult: one SweepRow per lambda, with column views
(lambdas, energy_plus, ...) over the rows.  A lambda at which every sampled
ray misses the Nehari set gives a NaN, unconverged row, not an error.

A sweep row also holds the Nehari roots t_plus/t_minus of one fixed reference
ray, computed by the exact fibering algebra and so free of solver noise; the
endpoint probe has no reference ray and leaves them NaN.  The identities the
rows are read against (roots monotone in lambda, dJ/dlambda = -t^q A/q) are
checked by the test suite.

Both ladders trace the branches u+(lambda) and u-(lambda) by natural-parameter
continuation (Allgower & Georg 1990): each branch's solve starts from a
prediction built from the converged rows below it, the last one's solution
after one such row and the secant extrapolation after two.  The first row,
and every row until one converges, starts from the caller's profile.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .errors import NoSignChange, RayMissesNehari
from .fibering import TwoRoots, nehari_roots
from .functionals import ReducedTriple
from .grid import GridFunction
from .params import ProblemParams, fibering_constants
from .solver import SolverOptions, solve_pair


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


CSV_HEADER = ",".join("lambda" if f.name == "lam" else f.name for f in fields(SweepRow))


def _column(read):
    return property(lambda self: [read(r) for r in self.rows])


def _increments(values):
    return [abs(b - a) for a, b in zip(values, values[1:])]


@dataclass
class SweepResult:
    rows: list[SweepRow]

    # read-only columns over the rows
    lambdas = _column(lambda r: r.lam)
    energy_plus = _column(lambda r: r.energy_plus)
    energy_minus = _column(lambda r: r.energy_minus)
    norms_minus = _column(lambda r: r.norm_minus)
    converged = _column(lambda r: r.converged_plus and r.converged_minus)
    increments_plus = property(lambda self: _increments(self.energy_plus))
    increments_minus = property(lambda self: _increments(self.energy_minus))

    def converged_rows(self) -> list[SweepRow]:
        return [r for r in self.rows if r.converged_plus and r.converged_minus]

    @property
    def no_collapse(self) -> bool:
        """The converged rows' bound-state norms stay above half their median."""
        norms = [r.norm_minus for r in self.converged_rows()]
        return bool(norms) and min(norms) >= 0.5 * float(np.median(norms))


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


# both branches of a row where every sampled ray misses the Nehari set
_MISSED = SimpleNamespace(energy=np.nan, norm=np.nan, weak_residual=np.nan, converged=False)


def _rows(lams, params, grid, init, opts, reference_triple=None) -> SweepResult:
    """One SweepRow per lambda of an increasing ladder, each solve continued
    from the converged rows below it (module docstring).  Only rows that
    converge on both branches feed the predictor."""
    rows, bases = [], []
    for lam in lams:
        start = _predict(bases, lam, grid) if bases else init
        try:
            # through this module's binding, so one call per row can be traced
            plus, minus = solve_pair(lam, params, grid, init=start, opts=opts)
        except RayMissesNehari:
            plus = minus = _MISSED
        if plus.converged and minus.converged:
            bases = bases[-1:] + [(lam, plus.solution, minus.solution)]
        tp, tm = ((np.nan, np.nan) if reference_triple is None
                  else fixed_profile_roots(reference_triple, lam, params))
        rows.append(SweepRow(lam, plus.energy, minus.energy, tp, tm, minus.norm,
                             plus.weak_residual, minus.weak_residual,
                             plus.converged, minus.converged))
    return SweepResult(rows)


def run_sweep(lambda_grid, params: ProblemParams, grid,
              reference_triple: ReducedTriple,
              init=None, opts: SolverOptions | None = None) -> SweepResult:
    """One solve_pair per lambda of a strictly increasing grid, continued
    from the converged rows below it (module docstring); init starts the
    first row.  Per-row failures are recorded, not fatal."""
    lams = np.asarray(lambda_grid, dtype=float)
    if np.any(np.diff(lams) <= 0.0):
        raise ValueError("lambda grid must be strictly increasing")
    return _rows(lams.tolist(), params, grid, init, opts, reference_triple)


def _cell(value) -> str:
    return ("1" if value else "0") if isinstance(value, bool) else format(value, ".17g")


def write_rows(rows, path) -> None:
    """Deterministic CSV: CSV_HEADER, then each row's fields in order, floats
    to 17 significant digits with '.' decimals, flags as 1/0."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join(_cell(getattr(r, f.name)) for f in fields(SweepRow)) + "\n")


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

def endpoint_probe(params: ProblemParams, grid, lambda_star_est: float,
                   K: int = 6, init=None, opts: SolverOptions | None = None) -> SweepResult:
    """Solve at lambda_k = (1 - 2^-k) lambda* for k = 1..K, continued from
    the converged rows below (module docstring; init starts k = 1).  The
    result's increments_plus/minus are the Cauchy-style energy increments,
    its norms_minus the bound-state norm trajectory."""
    lams = [(1.0 - 2.0 ** (-k)) * lambda_star_est for k in range(1, K + 1)]
    return _rows(lams, params, grid, init, opts)
