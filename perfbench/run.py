#!/usr/bin/env python3
"""neharilab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It drives the library as the CLI does:
validate -> build_radial_grid -> estimate_lambda_star ->
solve_pair(init=minimizer) -> run_sweep / endpoint_probe /
steinweiss_B_{radial,direct}, checks every answer, and prints as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians of warm repeats).
--trace 1 reports the per-layer metrics from spans recorded by wrapping the
library's functions (see tracer.py), and the tracing overhead.

The run manifest, the answers and the stage timings are printed on the lines
before the result and written, with the spans of a traced run, to
perfbench/out/.
"""

import os

# BLAS threads are pinned before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "neharilab").is_dir():
    # measure the checkout's source, never an installed copy
    sys.exit(f"no neharilab source under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from neharilab import cli, extremal, functionals, solver, sweep  # noqa: E402
from neharilab import grid as grid_mod  # noqa: E402
from neharilab import params as params_mod  # noqa: E402
from neharilab.errors import NoSignChange  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402
from workloads import CONFIG, CROSSCHECK, ENDPOINT, ENDPOINT_K, SWEEP, WORKLOADS, generate  # noqa: E402

MIN_PASSES = 5        # timed passes per run, at least
OUT = HERE / "out"


# --------------------------------------------------------------------------
# one workload pass
# --------------------------------------------------------------------------

def setup(cfg):
    """What every CLI invocation pays: a new grid, validated parameters and
    the workspace with its kernel and Cholesky factor forced."""
    g = grid_mod.build_radial_grid(cfg.R, cfg.M, cfg.grading, cfg.params.N)
    prm = params_mod.validate(cfg.params)
    ws = functionals.workspace(g, prm)
    ws.kernel()
    ws.cho()
    return g, prm


def release(g) -> None:
    # A workspace holds its grid, and the grid is the key of the weak
    # workspace cache, so the entry is never collected: drop it by hand so a
    # sample's dense matrices do not outlive it.
    functionals._workspaces.pop(g, None)


class Pass:
    """Timings, answers and checked operations of one workload pass."""

    def __init__(self, tracer=None):
        self.times: dict[str, float] = {}
        self.answers: dict = {}
        self.ops: list[tuple[str, list[str]]] = []
        self.converged: list[bool] = []   # one per solve_pair, wherever it ran
        self.stage_name = ""
        self._tracer = tracer

    @contextmanager
    def stage(self, name):
        self.stage_name = name
        if self._tracer is not None:
            self._tracer.set_op(name)
        t0 = time.perf_counter()
        yield
        self.times[name] = time.perf_counter() - t0

    def add_pair(self, op, plus, minus, tol):
        self.ops.append((op, checks.pair(plus, minus, tol)))
        self.converged.append(plus.converged and minus.converged)
        return [x for r in (plus, minus)
                for x in (r.energy, r.weak_residual, r.t_at_convergence, r.iterations)]

    @property
    def failed(self) -> int:
        return sum(1 for _, reasons in self.ops if reasons)


def run_pass(w, inputs, cfg, g, prm, tracer=None) -> Pass:
    out = Pass(tracer)
    try:
        _stages(out, w, inputs, cfg, g, prm)
    except Exception as err:  # noqa: BLE001 - an operation that raises fails; later ones need its output
        traceback.print_exc(file=sys.stderr)
        out.ops.append((out.stage_name, [f"raised {type(err).__name__}: {err}"]))
    return out


def _stages(out, w, inputs, cfg, g, prm):
    tol = cfg.solver.tol
    with out.stage("lambda_star"):
        est = extremal.estimate_lambda_star(prm, g, families=cfg.families, sigmas=cfg.sigmas,
                                            opts=cfg.descent)
    out.ops.append(("lambda_star", checks.lambda_star(est, w.lambda_band)))
    out.answers.update(lambda_star=est.lambda_star, lambda_sub=est.lambda_sub,
                       descent_iters=len(est.descent_values) - 1)

    lam = inputs.solve_frac * est.lambda_star
    with out.stage("solve_pair"):
        plus, minus = solver.solve_pair(lam, prm, g, init=est.minimizer, opts=cfg.solver)
    out.answers["solve_pair"] = [lam] + out.add_pair("solve_pair", plus, minus, tol)

    if SWEEP in w.stages:
        lams = sweep.default_lambda_grid(est.lambda_star, points=cfg.sweep_points,
                                         frac_min=cfg.sweep_frac_min,
                                         frac_max=cfg.sweep_frac_max, spacing=cfg.sweep_spacing)
        with out.stage("sweep"):
            ref = functionals.reduced_triple(est.minimizer, prm)
            result = sweep.run_sweep(lams, prm, g, ref, init=est.minimizer, opts=cfg.solver)
            try:
                located = sweep.sign_change_locator(result.rows, est.lambda_star, prm)
            except NoSignChange:
                located = None
        for i, reasons in enumerate(checks.sweep_rows(result, located, tol), 1):
            out.ops.append((f"sweep/row{i}", reasons))
        out.converged += [r.converged_plus and r.converged_minus for r in result.rows]
        out.answers["sweep"] = [[r.lam, r.energy_plus, r.energy_minus, r.t_plus, r.t_minus,
                                 r.residual_plus, r.residual_minus] for r in result.rows]
        out.answers["sign_change"] = None if located is None else located.crossing

    if ENDPOINT in w.stages:
        with out.stage("endpoint"):
            rep = sweep.endpoint_probe(prm, g, est.lambda_star, K=ENDPOINT_K,
                                       init=est.minimizer, opts=cfg.solver)
        for i, reasons in enumerate(checks.endpoint_rows(rep), 1):
            out.ops.append((f"endpoint/row{i}", reasons))
        out.converged += list(rep.converged)
        out.answers["endpoint"] = [list(row) for row in zip(
            rep.lambdas, rep.energy_plus, rep.energy_minus, rep.norms_minus)]

    if CROSSCHECK in w.stages:
        # the radial engine runs on the warm pipeline grid; the CLI's
        # cross-check builds its own, which at M = 256 costs milliseconds
        with out.stage("crosscheck"):
            B_rad = functionals.steinweiss_B_radial(
                grid_mod.sample_profile("gaussian", inputs.sigma, g), prm)
            cgrid = grid_mod.build_cartesian_grid(cfg.box_L * inputs.sigma, cfg.box_m)
            B_dir = functionals.steinweiss_B_direct(
                grid_mod.sample_profile("gaussian", inputs.sigma, cgrid), prm)
        out.ops.append(("crosscheck", checks.crosscheck(B_rad, B_dir)))
        out.answers["crosscheck"] = [B_rad, B_dir]


def fresh_pass(w, inputs, cfg, tracer=None):
    """Setup on a new grid, then one pass on it.

    Returns (setup seconds, wall seconds of both, Pass)."""
    if tracer is not None:
        tracer.set_op("setup")
    t0 = time.perf_counter()
    g, prm = setup(cfg)
    t1 = time.perf_counter()
    p = run_pass(w, inputs, cfg, g, prm, tracer)
    wall = time.perf_counter() - t0
    release(g)
    return t1 - t0, wall, p


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def _summary(values):
    """Median, sample count, extremes, and the highest percentile that has at
    least ten samples beyond it (when there are more than ten)."""
    v, n = sorted(values), len(values)
    out = {"median": _median(v), "n": n, "min": v[0] if v else None, "max": v[-1] if v else None}
    if n > 10:
        out["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": v[n - 11]}
    return out


def end_to_end(w, inputs, cfg, seconds):
    """Medians over the timed passes of setup_s, lambda_star_s, solve_pair_s
    and pass_s (every stage after setup), and peak_mem_mb: tracemalloc's peak
    of the Python and numpy allocations of one fresh pass."""
    passes = [fresh_pass(w, inputs, cfg)[2]]            # warm pass, not timed

    tracemalloc.start()                                 # memory pass, not timed
    passes.append(fresh_pass(w, inputs, cfg)[2])
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    # Every timed pass sets up anew, so set-up samples spread over the run
    # like the pass samples and each pass starts as a CLI invocation does.
    deadline = time.perf_counter() + seconds
    setups, timed = [], []
    while len(timed) < MIN_PASSES or time.perf_counter() < deadline:
        setup_s, _, p = fresh_pass(w, inputs, cfg)
        setups.append(setup_s)
        timed.append(p)
    passes += timed

    stages = {s: [p.times[s] for p in timed if s in p.times] for s in timed[0].times}
    complete = len(w.stages) + 2   # lambda_star and solve_pair, then the workload's own
    pass_s = [sum(p.times.values()) for p in timed if len(p.times) == complete]
    metrics = {
        "setup_s": (_median(setups), "s"),
        "lambda_star_s": (_median(stages.get("lambda_star", [])), "s"),
        "solve_pair_s": (_median(stages.get("solve_pair", [])), "s"),
        "pass_s": (_median(pass_s), "s"),
        "peak_mem_mb": (peak_mb, "MB"),
    }
    details = {"setup_s": _summary(setups), "pass_s": _summary(pass_s),
               "stages_s": {s: _summary(v) for s, v in stages.items()}}
    return passes, metrics, details, None


def workspace_nbytes(ws) -> int:
    """Bytes of the workspace's arrays, the Cholesky factor's included."""
    total = 0
    for v in vars(ws).values():
        for a in (v if isinstance(v, tuple) else (v,)):
            total += a.nbytes if isinstance(a, np.ndarray) else 0
    return total


def per_layer(w, inputs, cfg, seconds):
    """Per span name, the call count of one traced pass and the median over
    traced passes of its summed self time; iteration counts and ratios come
    from the first traced pass.  w_u counts radial applies only (the
    Cartesian one is the direct engine, inside direct_B); projection_hit_frac
    is the share of the solver's nehari_roots calls that find two roots;
    rows_converged_frac covers every solve_pair of the pass (standalone, sweep
    rows, endpoint rows).  stage.*_s are untraced stage medians, 0 where the
    workload does not run the stage."""
    g, prm = setup(cfg)
    workspace_mb = workspace_nbytes(functionals.workspace(g, prm)) / 2**20
    passes = [run_pass(w, inputs, cfg, g, prm)]          # warm pass
    release(g)

    # untraced and traced passes alternate; both set up anew, so the traced
    # ones record the set-up layers and the wall times compare like for like
    deadline = time.perf_counter() + seconds
    plain, traced, tracers = [], [], []
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(fresh_pass(w, inputs, cfg)[1:])
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(fresh_pass(w, inputs, cfg, tracer)[1:])
        finally:
            tracer.restore()
        tracers.append(tracer)
    passes += [p for _, p in plain + traced]

    reference = json.dumps(plain[0][1].answers)
    identical = all(json.dumps(p.answers) == reference for _, p in plain + traced)

    totals = [layer_totals(t.spans) for t in tracers]
    calls = dict(totals[0][0])
    if any(dict(c) != calls for c, _ in totals):
        print("warning: call counts differ between traced passes", file=sys.stderr)

    def self_s(*names):
        return _median([sum(s.get(n, 0.0) for n in names) for _, s in totals])

    def ncalls(*names):
        return sum(calls.get(n, 0) for n in names)

    roots = ("fibering.nehari_roots", "fibering.nehari_roots@solver", "fibering.nehari_roots@sweep")
    spans = tracers[0].spans
    branch_iters = {"Nplus": [], "Nminus": []}
    for s in spans:
        if s.name == "solver.minimize_on_branch" and s.note is not None:
            branch_iters[s.note[0]].append(s.note[1])
    solver_roots = [s.note for s in spans if s.name == "fibering.nehari_roots@solver"]
    converged = traced[0][1].converged
    plain_stages = {st: _median([p.times.get(st, 0.0) for _, p in plain])
                    for st in (SWEEP, ENDPOINT, CROSSCHECK)}

    m = {
        "grid.build.self_s": (self_s("grid.build"), "s"),
        "functionals.workspace_build.self_s": (self_s("functionals.workspace_build"), "s"),
        "functionals.kernel.self_s": (self_s("functionals.kernel"), "s"),
        "functionals.cho.self_s": (self_s("functionals.cho"), "s"),
        "functionals.workspace_mb": (workspace_mb, "MB"),
    }
    for layer in ("solve_shifted", "w_u", "norm_sq", "solve_G"):
        m[f"functionals.{layer}.calls"] = (ncalls(f"functionals.{layer}"), "count")
        m[f"functionals.{layer}.self_s"] = (self_s(f"functionals.{layer}"), "s")
    m.update({
        "functionals.direct_B.self_s": (self_s("functionals.direct_B"), "s"),
        "fibering.nehari_roots.calls": (ncalls(*roots), "count"),
        "fibering.nehari_roots.self_s": (self_s(*roots), "s"),
        "extremal.family_sweep.self_s": (self_s("extremal.family_sweep"), "s"),
        "extremal.refine_descent.self_s": (self_s("extremal.refine_descent"), "s"),
        "extremal.descent_iters": (traced[0][1].answers.get("descent_iters", 0), "count"),
        "solver.minimize_on_branch.self_s": (self_s("solver.minimize_on_branch"), "s"),
        "solver.iters_plus.sum": (sum(branch_iters["Nplus"]), "count"),
        "solver.iters_plus.max": (max(branch_iters["Nplus"], default=0), "count"),
        "solver.iters_minus.sum": (sum(branch_iters["Nminus"]), "count"),
        "solver.iters_minus.max": (max(branch_iters["Nminus"], default=0), "count"),
        "solver.projection_hit_frac": (
            solver_roots.count("TwoRoots") / len(solver_roots) if solver_roots else 0.0, "1"),
        "solver.strong_form_defect.calls": (ncalls("solver.strong_form_defect"), "count"),
        "solver.weak_residual.calls": (ncalls("solver.weak_residual"), "count"),
        "sweep.rows_converged_frac": (sum(converged) / len(converged) if converged else 0.0, "1"),
        "stage.sweep_s": (plain_stages[SWEEP], "s"),
        "stage.endpoint_s": (plain_stages[ENDPOINT], "s"),
        "stage.crosscheck_s": (plain_stages[CROSSCHECK], "s"),
        "trace.overhead_s": (_median([t for t, _ in traced]) - _median([t for t, _ in plain]), "s"),
        "trace.answers_identical": (int(identical), "1"),
    })
    details = {"plain_pass_s": _summary([t for t, _ in plain]),
               "traced_pass_s": _summary([t for t, _ in traced]),
               "spans_per_pass": len(spans), "answers_identical": identical}
    return passes, m, details, tracers


# --------------------------------------------------------------------------
# manifest and output
# --------------------------------------------------------------------------

def git_revision():
    """HEAD of the checkout's own repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [ROOT / CONFIG]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(w, inputs, cfg, args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": dataclasses.asdict(inputs),
        "params": dataclasses.asdict(cfg.params),
        "grid": {"R": cfg.R, "M": cfg.M, "grading": cfg.grading,
                 "box_L_per_sigma": cfg.box_L, "box_m": cfg.box_m},
        "stages": list(w.stages),
        "solver": dataclasses.asdict(cfg.solver),
        "descent": dataclasses.asdict(cfg.descent),
        "families": [list(f) for f in cfg.families],
        "sigmas": list(cfg.sigmas),
        "sweep": {"points": cfg.sweep_points, "frac_min": cfg.sweep_frac_min,
                  "frac_max": cfg.sweep_frac_max, "spacing": cfg.sweep_spacing},
        "endpoint_K": ENDPOINT_K,
        "lambda_band": list(w.lambda_band),
    }


def rusage():
    """Whole-run resource use; sys time and minor faults show the kernel's
    share, which the dense temporaries' page faults make large."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"user_s": ru.ru_utime, "sys_s": ru.ru_stime, "minor_faults": ru.ru_minflt,
            "maxrss_mb": ru.ru_maxrss / 1024}


def write_spans(path, spans):
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op, "note": s.note}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    inputs = generate(w, args.seed)
    cfg = w.run_config(cli.load_config(str(ROOT / CONFIG)))
    run = per_layer if args.trace else end_to_end
    passes, metrics, details, tracers = run(w, inputs, cfg, args.seconds)

    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and details.get("answers_identical", True)
    failures = sorted({f"{op}: {r}" for p in passes for op, reasons in p.ops for r in reasons})

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "manifest": manifest(w, inputs, cfg, args),
        "answers": passes[-1].answers,
        "details": details,
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": failures,
        "rusage": rusage(),
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracers:
        write_spans(stem.with_suffix(".spans.jsonl"), tracers[0].spans)   # first traced pass
    for key in ("manifest", "answers", "details", "failures"):
        print(json.dumps({key: record[key]}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
