"""The benchmark in perfbench/ reaches into the library by name: its tracer
wraps functions and workspace methods where they are looked up, its runner
forces the kernel and the Cholesky factor, drops cache entries, reads the
CLI's RunConfig and calls estimate_lambda_star by keyword, and its workloads
override ProblemParams fields.  These checks fail when a rename or deletion
would break it; they read perfbench/ (the runner and the workloads as
syntax trees) and change nothing there."""

import ast
import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

from neharilab import cli, extremal, functionals, params

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # leave no cache behind in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_target_exists_where_the_tracer_looks():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in _load_tracer().TARGETS
               if not callable(owner.__dict__.get(attr))]
    assert not missing


def test_runner_entry_points_exist():
    assert callable(functionals._workspaces.pop)
    assert callable(functionals.FunctionalWorkspace.__dict__.get("kernel"))
    assert callable(functionals.FunctionalWorkspace.__dict__.get("cho"))


def _perfbench_tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_perfbench_reads_only_run_config_fields():
    # cfg.<attr> reads and dataclasses.replace(cfg, <field>=...) in the runner
    # and the workloads; cfg.params.<attr> is covered by its first step
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    used = set()
    for name in ("run.py", "workloads.py"):
        for node in ast.walk(_perfbench_tree(name)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "cfg"):
                used.add(node.attr)
            elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "dataclasses.replace"
                  and node.args and ast.unparse(node.args[0]) == "cfg"):
                used.update(k.arg for k in node.keywords)
    assert {"params", "M", "solver", "families", "sigmas", "descent", "box_L", "box_m"} <= used
    assert used <= fields, sorted(used - fields)


def test_perfbench_workload_overrides_are_problem_params_fields():
    fields = {f.name for f in dataclasses.fields(params.ProblemParams)}
    overrides = [k.value for node in ast.walk(_perfbench_tree("workloads.py"))
                 if isinstance(node, ast.Call) and ast.unparse(node.func) == "Workload"
                 for kw in node.keywords if kw.arg == "overrides"
                 for k in kw.value.keys]
    assert overrides   # the general-kernel workload overrides mu, p and b_form
    assert set(overrides) <= fields, sorted(set(overrides) - fields)


def test_estimate_lambda_star_accepts_what_perfbench_passes():
    calls = [node for node in ast.walk(_perfbench_tree("run.py"))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "extremal.estimate_lambda_star"]
    assert calls
    accepted = inspect.signature(extremal.estimate_lambda_star).parameters
    for call in calls:
        passed = {kw.arg for kw in call.keywords}
        assert passed == {"families", "sigmas", "opts"}
        assert passed <= set(accepted)
