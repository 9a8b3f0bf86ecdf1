"""Workloads of the uqpc benchmark and the studies behind them.

Imports only the standard library at module level, so that importing it
does not change what a later `import uqpc.cli` costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Method lists the program uses when a config names none.
DEFAULT_METHODS = {
    "variance": ["pc_mc21", "pc_bias", "pc_bias_trim", "var_deconv"],
    "gsa": ["pc_bias", "pc_bias_trim"],
    "response": [],
}


@dataclass(frozen=True)
class Study:
    """One `uqpc run` invocation: a shipped config at a fixed size.

    A workload is a Study whose seed is replaced for every run.
    """

    name: str
    config: str  # relative to the repository root
    repetitions: int
    workers: int = 1
    seed: int = 0

    @property
    def config_path(self) -> Path:
        return ROOT / self.config

    def argv(self, out_dir, workers: int | None = None) -> list[str]:
        """Arguments of `uqpc` for this study writing into out_dir."""
        return [
            "run",
            "--config", str(self.config_path),
            "--out", str(out_dir),
            "--seed", str(self.seed),
            "--workers", str(self.workers if workers is None else workers),
            "--repetitions", str(self.repetitions),
        ]

    def grid(self) -> dict:
        """Study kind, grids, methods and curve resolution from the config."""
        import yaml

        raw = yaml.safe_load(self.config_path.read_text(encoding="utf-8"))
        study = raw["study"]
        kind = study.get("kind", "variance")
        return {
            "kind": kind,
            "n_xi_grid": list(study["n_xi_grid"]),
            "n_eta_grid": list(study["n_eta_grid"]),
            "methods": list(study.get("methods", DEFAULT_METHODS[kind])),
            "response_points": study.get("response_points", 201),
        }

    def cell_repetitions(self) -> int:
        """Repetitions completed by one run: grid cells times repetitions."""
        grid = self.grid()
        return len(grid["n_xi_grid"]) * len(grid["n_eta_grid"]) * self.repetitions

    def check(self, out_dir) -> float:
        """Oracle check of a report directory; returns the worst |z|."""
        import oracle_check

        grid = self.grid()
        return oracle_check.check_study(
            out_dir, self.config_path, grid["kind"], grid["n_xi_grid"], grid["n_eta_grid"],
            grid["methods"], self.repetitions, grid["response_points"],
        )


VARIANCE = "configs/d3_variance.yaml"
GSA = "configs/d3_gsa.yaml"
RESPONSE = "configs/d1_response.yaml"

WORKLOADS = {
    w.name: w
    for w in (
        Study("variance_grid_w1", VARIANCE, repetitions=30),
        # Small runs: the pool's wall time swings by 2x from run to run
        # (NOTES.md), so the window needs many runs for a steady figure.
        Study("variance_grid_w2", VARIANCE, repetitions=5, workers=2),
        Study("gsa_single_history", GSA, repetitions=300),
        Study("response_bands", RESPONSE, repetitions=200),
    )
}


def run_seeds(seed: int, count: int) -> list[int]:
    """CLI seeds of one benchmark run; the same --seed gives the same list."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def traced_studies(seed: int, repetitions: int | None = None) -> list[Study]:
    """The traced pass: one study per config, each at its workload's size.

    The variance grid runs once in process (workers=1) and stands for both
    variance workloads; the worker pool is measured from the CLI instead.
    `repetitions` overrides every size (smoke tests).
    """
    first = run_seeds(seed, 1)[0]
    studies = [
        replace(WORKLOADS["variance_grid_w1"], name="variance_grid"),
        WORKLOADS["gsa_single_history"],
        WORKLOADS["response_bands"],
    ]
    if repetitions is not None:
        studies = [replace(s, repetitions=repetitions) for s in studies]
    return [replace(s, seed=first) for s in studies]
