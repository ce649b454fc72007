"""Benchmark workloads, their seeded inputs and their lambda* reference bands.

Why each workload was chosen is recorded next to its name in BENCHMARK.json.

Every workload starts from configs/default.ini (R = 20, grading 2, q = 0.5,
alpha = 0.25, gamma3 = 1.3, gamma4 = 1.0) and overrides only what it names.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

CONFIG = "configs/default.ini"

# Stages run after setup; lambda_star and solve_pair run on every workload.
SWEEP, ENDPOINT, CROSSCHECK = "sweep", "endpoint", "crosscheck"
ENDPOINT_K = 6


@dataclass(frozen=True)
class Workload:
    name: str
    M: int
    overrides: dict          # ProblemParams fields replaced on top of the config
    solve_frac: float        # nominal lambda / lambda* of the standalone solve_pair
    stages: tuple            # stages after setup, lambda_star and solve_pair
    ladder: tuple            # lambda* at M = 256, 512, 1024, 2048 (same R, grading)

    @property
    def lambda_band(self) -> tuple[float, float]:
        """lambda* reference band: the M-ladder's range widened by twice its spread.

        The band holds the value at every M of the ladder and its limit, so a
        discretization change that moves lambda* by no more than the
        discretization error already seen passes, while a wrong answer fails.
        """
        lo, hi = min(self.ladder), max(self.ladder)
        return lo - 2.0 * (hi - lo), hi + 2.0 * (hi - lo)

    def run_config(self, cfg):
        """The CLI's RunConfig with this workload's grid size and parameters."""
        return dataclasses.replace(
            cfg, M=self.M, params=dataclasses.replace(cfg.params, **self.overrides)
        )


# lambda* ladders of the current discretization, by estimate_lambda_star with
# the config's families, scales and descent options.
_DEFAULT_LADDER = (1.160154, 1.160314, 1.1603508, 1.1603534)
_GENERAL_LADDER = (0.6466499, 0.6466403, 0.6466657, 0.6466788)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="coarse-pipeline",
            M=256,
            overrides={},
            solve_frac=0.5,
            stages=(SWEEP, CROSSCHECK),
            ladder=_DEFAULT_LADDER,
        ),
        Workload(
            name="refined-newton",
            M=1024,
            overrides={},
            solve_frac=0.5,
            stages=(),
            ladder=_DEFAULT_LADDER,
        ),
        Workload(
            name="general-kernel-endpoint",
            M=512,
            overrides={"mu": 1.5, "p": 3.5, "b_form": "constant"},
            solve_frac=0.9,
            stages=(ENDPOINT,),
            ladder=_GENERAL_LADDER,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """What the seed decides; the library sees only these numbers."""

    solve_frac: float   # lambda / lambda* of the standalone solve_pair
    sigma: float        # Gaussian scale of the cross-check profile


def generate(workload: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    return Inputs(
        solve_frac=float(workload.solve_frac * (1.0 + rng.uniform(-0.02, 0.02))),
        sigma=float(1.0 + rng.uniform(-0.05, 0.05)),
    )
