"""The benchmark in perfbench/ reaches into the library by name: its tracer
wraps functions and workspace methods where they are looked up, and its
runner forces the kernel and the Cholesky factor and drops cache entries.
These checks fail when a rename or deletion would break it; they read
perfbench/ and change nothing there."""

import importlib.util
import sys
from pathlib import Path

from neharilab import functionals

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
