"""Command-line frontend.

Subcommands: validate | fibering | lambda-star | solve | sweep | cross-check
| invariants.  Configuration is a sectioned key/value (INI) file read through
one table, `_KEYS`: each value is parsed and checked by its row, a refusal
names `[section] key`, and keys not in the table are ignored.  Flags override
file values.  Exit codes: 0 success, 1 domain error (validation failure, no
convergence, failed invariant, engine disagreement), 2 usage error.  All
numeric output is deterministic given config + seed.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field

from . import fibering, sweep as sweep_mod
from .errors import ConfigError, NehariLabError, NoSignChange
from .extremal import (
    DEFAULT_FAMILIES,
    DEFAULT_SIGMAS,
    DescentOptions,
    estimate_lambda_star,
    r_sensitivity,
)
from .functionals import (
    ReducedTriple,
    reduced_triple,
    steinweiss_B_direct,
    steinweiss_B_radial,
)
from .grid import build_cartesian_grid, build_radial_grid, sample_profile, save_snapshot
from .invariants import run_invariants
from .params import ProblemParams, critical_exponents, fibering_constants, gamma3_window, validate
from .solver import SolverOptions, solution_distance, solve_pair


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass
class RunConfig:
    params: ProblemParams = field(default_factory=ProblemParams)
    R: float = 20.0
    M: int = 256
    grading: float = 2.0
    box_L: float = 3.0
    box_m: int = 24
    solver: SolverOptions = field(default_factory=SolverOptions)
    sweep_points: int = 9
    sweep_frac_min: float = 0.15
    sweep_frac_max: float = 0.85
    sweep_spacing: str = "auto"
    families: tuple = DEFAULT_FAMILIES
    sigmas: tuple = DEFAULT_SIGMAS
    descent: DescentOptions = field(default_factory=DescentOptions)
    output_dir: str = "out"
    seed: int = 12345

    def build_grid(self):
        return build_radial_grid(self.R, self.M, self.grading, self.params.N)


def _families(text: str):
    """'gaussian,inverse_poly:1.5' -> (("gaussian", None), ("inverse_poly", 1.5))."""
    items = (item.partition(":") for item in map(str.strip, text.split(",")) if item)
    return tuple((name.strip(), float(beta) if colon else None) for name, colon, beta in items)


def _boolean(text: str):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def _unless_empty(parse):
    """An empty value leaves the key unset."""
    return lambda text: parse(text) if text else None


_AT_LEAST_ZERO = ("must be >= 0, got {}", lambda n: n >= 0)   # a cap of 0 takes no step

# one row per key: section, key, the RunConfig part it sets (None: RunConfig
# itself), the field, its parser and optionally a check (rule, predicate) whose
# rule takes the value at {}
_KEYS = (
    ("problem", "n", "params", "N", int, ("must be 3, got {}", lambda n: n == 3)),
    ("problem", "alpha", "params", "alpha", float),
    ("problem", "mu", "params", "mu", float),
    ("problem", "p", "params", "p", float),
    ("problem", "q", "params", "q", float),
    ("problem", "gamma3", "params", "gamma3", float),
    ("problem", "gamma4", "params", "gamma4", float),
    ("problem", "b_form", "params", "b_form", str),
    ("problem", "lambda", "params", "lam", _unless_empty(float)),
    ("problem", "choquard", "params", "choquard", _boolean),
    ("grid", "r", None, "R", float),
    ("grid", "m", None, "M", int),
    ("grid", "grading", None, "grading", float),
    ("grid", "l", None, "box_L", float),
    ("grid", "m_axis", None, "box_m", int),
    ("solver", "tol", "solver", "tol", float,
     ("must be finite and positive, got {}", lambda t: math.isfinite(t) and t > 0.0)),
    ("solver", "max_iters", "solver", "max_iters", int, _AT_LEAST_ZERO),
    ("sweep", "points", None, "sweep_points", int),
    ("sweep", "frac_min", None, "sweep_frac_min", float),
    ("sweep", "frac_max", None, "sweep_frac_max", float),
    ("sweep", "spacing", None, "sweep_spacing", str),
    ("extremal", "families", None, "families", _unless_empty(_families),
     ("must name at least one family", bool)),
    ("extremal", "sigmas", None, "sigmas", _unless_empty(lambda t: tuple(map(float, t.split(","))))),
    ("extremal", "descent_iters", "descent", "max_iters", int, _AT_LEAST_ZERO),
    ("output", "dir", None, "output_dir", str),
    ("run", "seed", None, "seed", int, _AT_LEAST_ZERO),
)


def load_config(path: str | None) -> RunConfig:
    """Read the INI config through _KEYS; missing keys keep their defaults."""
    if path is None:
        return RunConfig()
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        ini.read(path)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err
    parts = {None: {}}
    for section, key, part, name, parse, *check in _KEYS:
        text = ini.get(section, key, fallback=None)
        try:
            value = None if text is None else parse(text)
        except ValueError as err:
            raise ConfigError(f"[{section}] {key} cannot be parsed from {text!r}: {err}") from None
        if value is None:      # a missing key, or an empty one that parses to unset
            continue
        for rule, ok in check:
            if not ok(value):
                raise ConfigError(f"[{section}] {key} {rule.format(value)}")
        parts.setdefault(part, {})[name] = value
    cfg = RunConfig(**parts.pop(None))
    return dataclasses.replace(cfg, **{part: dataclasses.replace(getattr(cfg, part), **values)
                                       for part, values in parts.items()})


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _sweep_fractions(cfg: RunConfig):
    """The sweep's lambda / lambda* grid; a window or point count that
    default_lambda_grid refuses is a usage error."""
    try:
        return sweep_mod.default_lambda_grid(
            1.0, points=cfg.sweep_points, frac_min=cfg.sweep_frac_min,
            frac_max=cfg.sweep_frac_max, spacing=cfg.sweep_spacing)
    except ValueError as err:
        raise ConfigError(f"bad sweep grid: {err}") from err


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    prm = validate(cfg.params)
    # the grids every other command builds and the lambda* lattice sampled on
    # the radial one: a bad one fails here by name
    grid = cfg.build_grid()
    build_cartesian_grid(cfg.box_L, cfg.box_m)
    for family, beta in cfg.families:
        for sigma in cfg.sigmas:
            sample_profile(family, sigma, grid, beta=beta)
    _sweep_fractions(cfg)
    lo, hi = critical_exponents(prm.N, prm.alpha, prm.mu)
    g3 = gamma3_window(prm.N, prm.q)
    print(f"valid: p window ({_fmt(lo)}, {_fmt(hi)}), p = {_fmt(prm.p)}")
    print(f"valid: gamma3 window ({_fmt(g3[0])}, {_fmt(g3[1])}), gamma3 = {_fmt(prm.gamma3)}")
    consts = fibering_constants(prm.p, prm.q)
    print(f"constants: C_pq = {_fmt(consts.c_pq)}, ratio = {_fmt(consts.ratio)}")
    return 0


def cmd_fibering(args) -> int:
    try:
        E, A, B = (float(x) for x in args.triple.split(","))
    except ValueError as err:
        raise ConfigError(f"--triple expects E,A,B, got {args.triple!r}") from err
    rep = fibering.fibering_report(ReducedTriple(E=E, A=A, B=B), args.p, args.q, args.lam)
    print(f"t_n = {_fmt(rep.t_n)}")
    print(f"t_e = {_fmt(rep.t_e)}")
    print(f"Lambda_n = {_fmt(rep.lambda_n)}")
    print(f"Lambda_e = {_fmt(rep.lambda_e)}")
    roots = rep.roots
    if roots is not None:
        if isinstance(roots, fibering.TwoRoots):
            print(f"roots: t_plus = {_fmt(roots.t_plus)}, t_minus = {_fmt(roots.t_minus)}")
        elif isinstance(roots, fibering.DoubleRoot):
            print(f"roots: double root at t_n = {_fmt(roots.t_n)}")
        else:
            print("roots: none (lambda above Lambda_n)")
        print(f"branch of t=1: {rep.branch.value}")
    return 0


def _estimate(cfg: RunConfig):
    grid = cfg.build_grid()
    prm = validate(cfg.params)
    est = estimate_lambda_star(prm, grid, families=cfg.families, sigmas=cfg.sigmas,
                               opts=cfg.descent)
    return grid, prm, est


def cmd_lambda_star(args) -> int:
    cfg = load_config(args.config)
    grid, prm, est = _estimate(cfg)
    print(f"lambda_star = {_fmt(est.lambda_star)}")
    print(f"lambda_sub  = {_fmt(est.lambda_sub)}")
    best = min(est.sweep_trace, key=lambda e: e.value)
    print(f"sweep winner: {best.family} sigma={_fmt(best.sigma)} value={_fmt(best.value)}")
    print(f"descent steps: {len(est.descent_values) - 1}, "
          f"kkt residual = {format(est.kkt_residual, '.3e')}")
    if args.r_sweep:
        try:
            radii = [float(x) for x in args.r_sweep.split(",")]
        except ValueError as err:
            raise ConfigError(f"--r-sweep expects comma-separated radii: {err}") from err
        rows = r_sensitivity(prm, radii, cfg.M, cfg.grading,
                             families=cfg.families, sigmas=cfg.sigmas, opts=cfg.descent)
        prev = None
        for R, val in rows:
            delta = "" if prev is None else f"  delta = {_fmt(abs(val - prev))}"
            print(f"R = {_fmt(R)}: lambda_star = {_fmt(val)}{delta}")
            prev = val
    if args.trace_csv:
        est.write_trace_csv(args.trace_csv)
        print(f"trace written: {args.trace_csv}")
    if args.snapshot:
        save_snapshot(args.snapshot, est.minimizer, params=prm,
                      extra={"lambda_star": est.lambda_star})
        print(f"minimizer snapshot written: {args.snapshot}")
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    # precedence: --lambda flag, config [problem] lambda, --lambda-frac of
    # lambda*; the one in effect is checked before the estimate runs, and an
    # absolute lambda against the estimate before any solve: both branches
    # exist only below lambda*
    if args.lam is not None:
        name, value = "--lambda", args.lam
    elif cfg.params.lam is not None:
        name, value = "config lambda", cfg.params.lam
    else:
        name, value = "--lambda-frac", args.lam_frac
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be finite and positive, got {value}")
    if name == "--lambda-frac" and value >= 1.0:
        raise ConfigError(f"--lambda-frac must lie in (0, 1), got {value}: lambda = "
                          "frac * lambda* must stay below the lambda* estimate")
    grid, prm, est = _estimate(cfg)
    lam = value * est.lambda_star if name == "--lambda-frac" else value
    if lam >= est.lambda_star:
        raise ConfigError(f"{name} gives lambda = {lam}, which must lie below the "
                          f"lambda* estimate {_fmt(est.lambda_star)}")
    plus, minus = solve_pair(lam, prm, grid, init=est.minimizer, opts=cfg.solver)
    print(f"lambda = {_fmt(lam)} (lambda_star_est = {_fmt(est.lambda_star)})")
    for tag, res in (("N+", plus), ("N-", minus)):
        print(
            f"{tag}: energy = {_fmt(res.energy)}, residual = {_fmt(res.weak_residual)}, "
            f"iterations = {res.iterations}, converged = {'yes' if res.converged else 'no'}, "
            f"floored_mass = {_fmt(res.floored_mass)}"
        )
    print(f"distance = {_fmt(solution_distance(plus, minus, prm))}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for tag, res in (("plus", plus), ("minus", minus)):
            path = os.path.join(args.out, f"solution_{tag}.json")
            save_snapshot(path, res.solution, params=prm, extra={
                "lambda": res.lam,
                "branch": res.branch.value,
                "energy": res.energy,
                "residual": res.weak_residual,
                "iterations": res.iterations,
            })
        print(f"snapshots written: {args.out}")
    if not (plus.converged and minus.converged):
        print("error: NoConvergence")
        return 1
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    for key in ("points", "frac_min", "frac_max", "spacing"):
        if getattr(args, key) is not None:
            setattr(cfg, f"sweep_{key}", getattr(args, key))
    fracs = _sweep_fractions(cfg)   # a bad flag fails before the estimate runs
    grid, prm, est = _estimate(cfg)
    lams = est.lambda_star * fracs
    ref = reduced_triple(est.minimizer, prm)
    result = sweep_mod.run_sweep(lams, prm, grid, ref, init=est.minimizer, opts=cfg.solver)
    out = args.out or os.path.join(cfg.output_dir, "sweep.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    sweep_mod.write_rows(result.rows, out)
    n_conv = len(result.converged_rows())
    print(f"rows: {len(result.rows)}, converged: {n_conv}")
    print(f"csv written: {out}")
    if n_conv == 0:
        print("bound-state sign change: no converged rows")
    else:
        try:
            rep = sweep_mod.sign_change_locator(result.rows, est.lambda_star, prm)
            print(
                f"bound-state sign change at lambda = {_fmt(rep.crossing)} "
                f"(target ratio*lambda_star = {_fmt(rep.target)}, "
                f"within one cell: {'yes' if rep.within_one_cell else 'no'})"
            )
        except NoSignChange:
            print("bound-state sign change: not bracketed by this window")
    if n_conv < len(result.rows):
        print("error: NoConvergence")
        return 1
    return 0


def cmd_cross_check(args) -> int:
    cfg = load_config(args.config)
    prm = validate(cfg.params)
    for flag, value in (("--sigma", args.sigma), ("--tolerance", args.tolerance)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{flag} must be finite and positive, got {value}")
    sigma = args.sigma
    # box sized to the profile: cfg.box_L is the half-width per unit scale;
    # built first, so a box past the direct engine's cap fails before any work
    L = args.box_l if args.box_l is not None else cfg.box_L * sigma
    m = args.box_m if args.box_m is not None else cfg.box_m
    cgrid = build_cartesian_grid(L, m)
    rgrid = cfg.build_grid()
    u_rad = sample_profile("gaussian", sigma, rgrid)
    B_rad = steinweiss_B_radial(u_rad, prm)
    u_cart = sample_profile("gaussian", sigma, cgrid)
    B_dir = steinweiss_B_direct(u_cart, prm)
    gap = abs(B_rad - B_dir) / B_rad
    print(f"B radial  (M={rgrid.M}) = {_fmt(B_rad)}")
    print(f"B direct  (m={m}, L={_fmt(L)}) = {_fmt(B_dir)}")
    print(f"relative gap = {_fmt(gap)}")
    if gap > args.tolerance:
        print(f"error: engine gap above tolerance {_fmt(args.tolerance)}")
        return 1
    return 0


def cmd_invariants(args) -> int:
    cfg = load_config(args.config)
    prm = validate(cfg.params)
    grid = build_radial_grid(cfg.R, max(cfg.M, 64), cfg.grading, prm.N)
    checks = run_invariants(prm, grid, cfg.seed if args.seed is None else args.seed)
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if failed:
        print(f"error: failed invariants: {', '.join(failed)}")
        return 1
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neharilab",
        description="Nehari-manifold / Rayleigh-quotient numerics for the "
                    "singular nonlocal problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="validate a problem configuration")
    pv.add_argument("--config", required=True)
    pv.set_defaults(func=cmd_validate)

    pf = sub.add_parser("fibering", help="fibering structure of one reduced triple")
    pf.add_argument("--triple", required=True, help="E,A,B")
    pf.add_argument("--p", type=float, required=True)
    pf.add_argument("--q", type=float, required=True)
    pf.add_argument("--lambda", dest="lam", type=float, default=None)
    pf.set_defaults(func=cmd_fibering)

    pl = sub.add_parser("lambda-star", help="estimate the extremal parameters")
    pl.add_argument("--config", default=None)
    pl.add_argument("--trace-csv", default=None)
    pl.add_argument("--snapshot", default=None)
    pl.add_argument("--r-sweep", default=None,
                    help="comma-separated truncation radii for a sensitivity report")
    pl.set_defaults(func=cmd_lambda_star)

    ps = sub.add_parser("solve", help="solve both Nehari branches at one lambda")
    ps.add_argument("--config", default=None)
    ps.add_argument("--lambda", dest="lam", type=float, default=None)
    ps.add_argument("--lambda-frac", dest="lam_frac", type=float, default=0.5)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_solve)

    pw = sub.add_parser("sweep", help="lambda sweep with CSV output")
    pw.add_argument("--config", default=None)
    pw.add_argument("--out", default=None)
    pw.add_argument("--points", type=int, default=None)
    pw.add_argument("--frac-min", type=float, default=None)
    pw.add_argument("--frac-max", type=float, default=None)
    pw.add_argument("--spacing", default=None)
    pw.set_defaults(func=cmd_sweep)

    pc = sub.add_parser("cross-check", help="radial vs direct nonlocal engine")
    pc.add_argument("--config", default=None)
    pc.add_argument("--sigma", type=float, default=1.0)
    pc.add_argument("--box-l", type=float, default=None)
    pc.add_argument("--box-m", type=int, default=None)
    pc.add_argument("--tolerance", type=float, default=0.02)
    pc.set_defaults(func=cmd_cross_check)

    pi = sub.add_parser("invariants", help="run the invariant battery")
    pi.add_argument("--config", default=None)
    pi.add_argument("--seed", type=int, default=None)
    pi.set_defaults(func=cmd_invariants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except NehariLabError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
