"""Command-line frontend.

Subcommands: validate | lambda-star | solve | sweep.
Each command puts its report together from library calls: `lambda-star
--r-sweep` runs the estimate on the config with each listed radius and prints
no line until every number is computed, so a failure leaves no partial report.
Configuration is a sectioned key/value (INI) file read through one table,
`_KEYS`: each value is parsed and checked by its row, a refusal names
`[section] key`, and keys not in the table are ignored.  `[problem] lambda`
is a run value, RunConfig.lam, read by solve only.  The lambda* start lattice
is fixed: no key sets it and no command reports on it.  Flags override file
values.  Output paths and --r-sweep radii are checked before the lambda*
estimate runs: an output file's missing directory is created, and a path that
is a directory or lies under a file, or a radius that is not finite and
positive, is a usage error naming its flag (or `[output] dir`); each radius's
grid is built once, so one the grid builder refuses fails by its GridError.
Exit codes: 0 success, 1 domain error (validation failure, no convergence),
2 usage error.  All numeric output is deterministic given the config.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field

from . import sweep as sweep_mod
from .errors import ConfigError, NehariLabError, NoSignChange
from .extremal import DEFAULT_FAMILIES, DEFAULT_SIGMAS, DescentOptions, estimate_lambda_star
from .functionals import reduced_triple
from .grid import build_radial_grid, save_snapshot
from .params import ProblemParams, critical_exponents, fibering_constants, gamma3_window, validate
from .solver import SolverOptions, solution_distance, solve_pair


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass
class RunConfig:
    params: ProblemParams = field(default_factory=ProblemParams)
    lam: float | None = None     # [problem] lambda: read by solve only
    R: float = 20.0
    M: int = 256
    grading: float = 2.0
    # the direct engine's box, half-width per unit profile scale and points per
    # axis: read only by perfbench's crosscheck stage, set by no key
    box_L: float = 3.0
    box_m: int = 24
    solver: SolverOptions = field(default_factory=SolverOptions)
    sweep_points: int = 9
    sweep_frac_min: float = 0.15
    sweep_frac_max: float = 0.85
    sweep_spacing: str = "auto"
    # the lambda* start lattice, set by no key: _estimate and perfbench pass it
    families: tuple = DEFAULT_FAMILIES
    sigmas: tuple = DEFAULT_SIGMAS
    descent: DescentOptions = field(default_factory=DescentOptions)
    output_dir: str = "out"

    def build_grid(self):
        return build_radial_grid(self.R, self.M, self.grading, self.params.N)


def _boolean(text: str):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


_AT_LEAST_ZERO = ("must be >= 0, got {}", lambda n: n >= 0)   # a cap of 0 takes no step
_FINITE_POSITIVE = ("must be finite and positive, got {}", lambda x: math.isfinite(x) and x > 0.0)

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
    # an empty lambda parses to None, which leaves it unset
    ("problem", "lambda", None, "lam", lambda text: float(text) if text else None,
     _FINITE_POSITIVE),
    ("problem", "choquard", "params", "choquard", _boolean),
    ("grid", "r", None, "R", float),
    ("grid", "m", None, "M", int),
    ("grid", "grading", None, "grading", float),
    ("solver", "tol", "solver", "tol", float, _FINITE_POSITIVE),
    ("solver", "max_iters", "solver", "max_iters", int, _AT_LEAST_ZERO),
    ("sweep", "points", None, "sweep_points", int),
    ("sweep", "frac_min", None, "sweep_frac_min", float),
    ("sweep", "frac_max", None, "sweep_frac_max", float),
    ("sweep", "spacing", None, "sweep_spacing", str),
    ("extremal", "descent_iters", "descent", "max_iters", int, _AT_LEAST_ZERO),
    ("output", "dir", None, "output_dir", str),
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


def _output_file(name: str, path: str) -> str:
    """Make path ready to take a file before any work runs: create its missing
    directories, and refuse, naming the flag or key `name`, a path that is a
    directory, lies under a file or whose directory cannot be made."""
    if os.path.isdir(path):
        raise ConfigError(f"{name}: {path} is a directory, not a file")
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"{name}: {path} lies under a file, not a directory") from None
    except OSError as err:
        raise ConfigError(f"{name}: cannot make the directory of {path}: {err.strerror}") from None
    return path


def _radii(text: str) -> list[float]:
    try:
        radii = [float(x) for x in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"--r-sweep expects comma-separated radii: {err}") from None
    for R in radii:
        if not (math.isfinite(R) and R > 0.0):
            raise ConfigError(f"--r-sweep radii must be finite and positive, got {R}")
    return radii


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
    cfg.build_grid()   # the grid every other command builds: a bad one fails here by name
    _sweep_fractions(cfg)
    lo, hi = critical_exponents(prm.N, prm.alpha, prm.mu)
    g3 = gamma3_window(prm.N, prm.q)
    print(f"valid: p window ({_fmt(lo)}, {_fmt(hi)}), p = {_fmt(prm.p)}")
    print(f"valid: gamma3 window ({_fmt(g3[0])}, {_fmt(g3[1])}), gamma3 = {_fmt(prm.gamma3)}")
    consts = fibering_constants(prm.p, prm.q)
    print(f"constants: C_pq = {_fmt(consts.c_pq)}, ratio = {_fmt(consts.ratio)}")
    return 0


def _estimate(cfg: RunConfig):
    grid = cfg.build_grid()
    prm = validate(cfg.params)
    est = estimate_lambda_star(prm, grid, families=cfg.families, sigmas=cfg.sigmas,
                               opts=cfg.descent)
    return grid, prm, est


def cmd_lambda_star(args) -> int:
    cfg = load_config(args.config)
    # every flag is checked before the estimate runs; each --r-sweep grid is
    # built once to check it, and dropped: a grid keeps its workspace alive
    r_cfgs = [dataclasses.replace(cfg, R=R) for R in _radii(args.r_sweep)] if args.r_sweep else []
    for r_cfg in r_cfgs:
        r_cfg.build_grid()
    if args.snapshot:
        _output_file("--snapshot", args.snapshot)
    # every estimate runs before the first print; the truncation error on
    # [0, R] is reported by the deltas between radii, so only values are kept
    grid, prm, est = _estimate(cfg)
    r_vals = [_estimate(r_cfg)[2].lambda_star for r_cfg in r_cfgs]
    print(f"lambda_star = {_fmt(est.lambda_star)}")
    print(f"lambda_sub  = {_fmt(est.lambda_sub)}")
    print(f"descent steps: {len(est.descent_values) - 1}, "
          f"kkt residual = {format(est.kkt_residual, '.3e')}")
    for k, (r_cfg, val) in enumerate(zip(r_cfgs, r_vals)):
        delta = f"  delta = {_fmt(abs(val - r_vals[k - 1]))}" if k else ""
        print(f"R = {_fmt(r_cfg.R)}: lambda_star = {_fmt(val)}{delta}")
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
    elif cfg.lam is not None:
        name, value = "[problem] lambda", cfg.lam
    else:
        name, value = "--lambda-frac", args.lam_frac
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be finite and positive, got {value}")
    if name == "--lambda-frac" and value >= 1.0:
        raise ConfigError(f"--lambda-frac must lie in (0, 1), got {value}: lambda = "
                          "frac * lambda* must stay below the lambda* estimate")
    outs = {tag: _output_file("--out", os.path.join(args.out, f"solution_{tag}.json"))
            for tag in ("plus", "minus")} if args.out else {}
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
    if outs:
        for tag, res in (("plus", plus), ("minus", minus)):
            save_snapshot(outs[tag], res.solution, params=prm, extra={
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
    # a bad flag or output path fails before the estimate runs
    fracs = _sweep_fractions(cfg)
    out = (_output_file("--out", args.out) if args.out
           else _output_file("[output] dir", os.path.join(cfg.output_dir, "sweep.csv")))
    grid, prm, est = _estimate(cfg)
    lams = est.lambda_star * fracs
    ref = reduced_triple(est.minimizer, prm)
    result = sweep_mod.run_sweep(lams, prm, grid, ref, init=est.minimizer, opts=cfg.solver)
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

    pl = sub.add_parser("lambda-star", help="estimate the extremal parameters")
    pl.add_argument("--config", default=None)
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
