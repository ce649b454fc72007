"""Outside-in tracer: records spans by wrapping the library's functions
where they are looked up, without changing the library.

A module that did `from .fibering import nehari_roots` calls its own binding,
so a function is wrapped in every module that calls it (`solver`, `sweep`
and `fibering` for nehari_roots).  Workspace methods are wrapped on the
class.  Spans stay in memory; `Tracer.install` patches and `restore` puts
every original back.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

from neharilab import extremal, fibering, functionals, grid, solver, sweep

_FW = functionals.FunctionalWorkspace


def _radial_only(ws, *args, **kwargs):
    # the Cartesian w_u is the direct pair sum; its time belongs to direct_B
    return ws.grid.kind != "radial"


def _root_kind(result):
    return type(result).__name__


def _branch_iterations(result):
    return result.branch.value, result.iterations


# (owner, attribute, span name, skip predicate, result note, opens a row)
TARGETS = (
    (grid, "build_radial_grid", "grid.build", None, None, False),
    (grid, "build_cartesian_grid", "grid.build_cartesian", None, None, False),
    (_FW, "__init__", "functionals.workspace_build", None, None, False),
    (_FW, "kernel", "functionals.kernel", None, None, False),
    (_FW, "cho", "functionals.cho", None, None, False),
    (_FW, "solve_G", "functionals.solve_G", None, None, False),
    (_FW, "solve_shifted", "functionals.solve_shifted", None, None, False),
    (_FW, "norm_sq", "functionals.norm_sq", None, None, False),
    (_FW, "w_u", "functionals.w_u", _radial_only, None, False),
    (functionals, "steinweiss_B_radial", "functionals.radial_B", None, None, False),
    (functionals, "steinweiss_B_direct", "functionals.direct_B", None, None, False),
    (functionals, "reduced_triple", "functionals.reduced_triple", None, None, False),
    (extremal, "reduced_triple", "functionals.reduced_triple", None, None, False),
    (fibering, "nehari_roots", "fibering.nehari_roots", None, _root_kind, False),
    (solver, "nehari_roots", "fibering.nehari_roots@solver", None, _root_kind, False),
    (sweep, "nehari_roots", "fibering.nehari_roots@sweep", None, _root_kind, False),
    (extremal, "estimate_lambda_star", "extremal.estimate_lambda_star", None, None, False),
    (extremal, "family_sweep", "extremal.family_sweep", None, None, False),
    (extremal, "refine_descent", "extremal.refine_descent", None, None, False),
    (solver, "solve_pair", "solver.solve_pair", None, None, False),
    (solver, "minimize_on_branch", "solver.minimize_on_branch", None, _branch_iterations,
     False),
    (solver, "strong_form_defect", "solver.strong_form_defect", None, None, False),
    (solver, "weak_residual", "solver.weak_residual", None, None, False),
    (sweep, "solve_pair", "solver.solve_pair@sweep", None, None, True),
    (sweep, "run_sweep", "sweep.run_sweep", None, None, False),
    (sweep, "endpoint_probe", "sweep.endpoint_probe", None, None, False),
    (sweep, "sign_change_locator", "sweep.sign_change_locator", None, None, False),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    op: str          # operation id: benchmark stage, with a row number inside sweeps
    note: object = None   # what the wrapped call returned, where TARGETS asks


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []
        self._rows = 0
        self._originals = []

    def install(self) -> None:
        for owner, attr, name, skip, note, row in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, skip, note, row))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def set_op(self, op: str) -> None:
        self.op, self._rows = op, 0

    def _wrap(self, fn, name, skip, note, opens_row):
        def traced(*args, **kwargs):
            if skip is not None and skip(*args, **kwargs):
                return fn(*args, **kwargs)
            op = self.op
            if opens_row:
                self._rows += 1
                self.op = f"{op}/row{self._rows}"
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.op = op
            if note is not None:
                span.note = note(result)
            return result

        traced.__wrapped__ = fn
        return traced


def layer_totals(spans: list[Span]):
    """Per span name: (call count, summed self time).

    Self time is a span's duration minus that of its direct children; spans
    nest strictly (one thread), so the children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    calls, self_s = defaultdict(int), defaultdict(float)
    for s, c in zip(spans, child):
        calls[s.name] += 1
        self_s[s.name] += (s.end - s.start) - c
    return calls, self_s
