"""Command line interface: run a study config or print its exact statistics."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .experiments import ConfigError, load_config, run_study, write_report
from .oracle import exact_mean, exact_sobol, exact_variance, quadrature_coefficients
from .polybasis import total_degree_multi_indices

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqpc",
        description=(
            "Polynomial chaos surrogates from under-resolved Monte Carlo "
            "slab-transport runs: repetition studies and exact references."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a study config and write its report files")
    run_p.add_argument("--config", required=True, help="YAML study config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    run_p.add_argument(
        "--repetitions", type=int, default=None, help="override the repetition count"
    )

    oracle_p = sub.add_parser(
        "oracle", help="print exact statistics for the config's problem and basis"
    )
    oracle_p.add_argument("--config", required=True, help="YAML study config")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config, seed=args.seed, repetitions=args.repetitions)
    if args.workers > 1 and not hasattr(os, "fork"):
        raise ConfigError("--workers above 1 needs os.fork, which this platform lacks")
    # Fail on an unusable output path before the study runs, not after.
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    report = run_study(config, workers=args.workers)
    written = write_report(report, args.out)
    print(f"{config.kind} study: {config.repetitions} repetitions, seed {config.master_seed}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_oracle(args) -> int:
    config = load_config(args.config)
    problem = config.problem
    basis = total_degree_multi_indices(problem.d, config.n0)
    beta = quadrature_coefficients(problem, basis)
    first, total = exact_sobol(problem)
    payload = {
        "mean": exact_mean(problem),
        "variance": exact_variance(problem),
        "pc_mean": float(beta[0]),
        "pc_variance": float(np.sum(beta[1:] ** 2 * basis.norms[1:])),
        "n0": config.n0,
        "sobol_first": first.tolist(),
        "sobol_total": total.tolist(),
    }
    print(json.dumps(payload, indent=1))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.workers < 1:
        parser.error("--workers must be >= 1")
    try:
        code = _cmd_run(args) if args.command == "run" else _cmd_oracle(args)
        # A reader that closed stdout early (`| head`) raises here, not at exit.
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's own flush at exit
        # cannot raise again (see the SIGPIPE note in Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
