"""Wall time, system time and minor page faults of `uqpc run`, per config.

    python3 tools/cli_rusage.py --tree A_CHECKOUT [--tree B_CHECKOUT ...] --rounds N

Each round runs every shipped config at --workers 1 and 2 once per source
tree, alternating which tree goes first, so a drift in machine speed hits
every tree alike. A run is a fresh `python -c "uqpc.cli.main()"` subprocess
with PYTHONPATH set to the tree's src/; its figures come from the wait4
rusage of the child, which includes the children it forks and reaps at
--workers above 1. The report files go to a temporary directory. Every
report file is hashed: the run's digest is the sha256 of its sorted (file
name, sha256) pairs, so any changed, added or missing file changes it. A
run whose digest differs between trees or rounds is flagged.

Prints one JSON object: per tree, config and worker count, the median and
quartiles of wall_s, user_s, sys_s, minflt and maxrss_mb over the rounds,
the report digest, and the sha256 of records.csv and gsa.csv where written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIGS = ("d1_oracle", "d1_response", "d3_gsa", "d3_variance")
NAMED = ("records.csv", "gsa.csv")
CLI_CODE = "import sys; from uqpc.cli import main; sys.exit(main())"


def run_once(tree: Path, config: str, workers: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-c", CLI_CODE, "run", "--config",
                str(tree / "configs" / f"{config}.yaml"), "--out", out,
                "--workers", str(workers)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"{' '.join(argv)} failed")
        files = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in Path(out).iterdir()
        }
    return {
        "wall_s": wall,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "minflt": usage.ru_minflt,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "report_digest": report_digest(files),
        "sha256": {name: files[name] for name in NAMED if name in files},
    }


def report_digest(files: dict[str, str]) -> str:
    """sha256 of the sorted (file name, sha256) pairs of a report directory."""
    lines = "".join(f"{name} {digest}\n" for name, digest in sorted(files.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": q[1], "q1": q[0], "q3": q[2], "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="root of a source checkout (repeat to compare)")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    trees = [Path(t).resolve() for t in args.tree]

    runs: dict[tuple[int, str, int], list[dict]] = {}
    for r in range(args.rounds):
        order = trees if r % 2 == 0 else trees[::-1]
        for config in CONFIGS:
            for workers in (1, 2):
                for tree in order:
                    key = (trees.index(tree), config, workers)
                    runs.setdefault(key, []).append(run_once(tree, config, workers))

    result: dict = {}
    mismatches = []
    for (i, config, workers), figures in sorted(runs.items()):
        entry = {
            name: spread([f[name] for f in figures])
            for name in ("wall_s", "user_s", "sys_s", "minflt", "maxrss_mb")
        }
        entry["report_digest"] = figures[0]["report_digest"]
        entry["sha256"] = figures[0]["sha256"]
        reference = runs[(0, config, 1)][0]["report_digest"]
        if any(f["report_digest"] != reference for f in figures):
            mismatches.append(f"{trees[i]} {config} --workers {workers}")
        result.setdefault(str(trees[i]), {})[f"{config}_w{workers}"] = entry
    print(json.dumps({"rounds": args.rounds, "trees": result, "sha256_mismatches": mismatches},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
