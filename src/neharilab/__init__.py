"""Nehari-manifold / nonlinear-Rayleigh-quotient numerics for a singular
elliptic problem with a double-weighted nonlocal interaction term."""

from .params import ProblemParams, FiberingConstants, critical_exponents, fibering_constants, validate
from .grid import (
    GridFunction,
    RadialGrid,
    CartesianGrid,
    build_radial_grid,
    build_cartesian_grid,
    integrate,
    sample_profile,
    save_snapshot,
    load_snapshot,
)
from .functionals import (
    ReducedTriple,
    energy,
    norm_sq,
    reduced_triple,
    steinweiss_B_direct,
    steinweiss_B_radial,
)
from .fibering import (
    Branch,
    DoubleRoot,
    NoRoot,
    TwoRoots,
    classify,
    lambda_e,
    lambda_n,
    nehari_roots,
    t_max_e,
    t_max_n,
)
from .extremal import (
    ExtremalEstimate,
    estimate_lambda_star,
    family_sweep,
    refine_descent,
)
from .solver import (
    SolveResult,
    SolverOptions,
    minimize_on_branch,
    project_to_nehari,
    solve_pair,
    strong_form_defect,
    weak_residual,
)
from .sweep import (
    SweepRow,
    default_lambda_grid,
    endpoint_probe,
    run_sweep,
    sign_change_locator,
    write_rows,
)

__version__ = "0.1.0"
