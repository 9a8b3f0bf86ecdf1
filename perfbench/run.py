"""Repetition-study benchmark for uqpc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Workloads are listed in perfbench/workloads.py and explained, with every
metric, in perfbench/NOTES.md.

--trace 0 runs `uqpc run` as a subprocess in a closed loop (one run at a
time) for S seconds, checks every run's report files against the
closed-form oracle, and reports the end-to-end metrics: repetitions per
second of CLI wall time, fresh-interpreter set-up time and peak resident
set. --trace 1 runs the traced in-process study (trace_study.py) and one
untraced CLI run per worker count, and reports the per-layer metrics.

Both print a table, then as the last line one JSON object with the keys
correct, attempted, failed and metrics. Every run also writes a result file
with provenance, per-run figures and report fingerprints under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import oracle_check
import workloads
from workloads import ROOT, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

# Every child must end well inside the 180 s a benchmark run may take.
RUN_DEADLINE_S = 165.0
SETUP_SAMPLES = 9

# What the `uqpc` console script does.
CLI_CODE = "import sys; from uqpc.cli import main; sys.exit(main())"
# Fresh-interpreter set-up: import the CLI, then parse the workload's config.
SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
import uqpc.cli
imported = time.perf_counter()
from uqpc.experiments import load_config
load_config(sys.argv[1])
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
"""
PROVENANCE_CODE = """\
import json, platform
import numpy, uqpc
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
except Exception as exc:
    blas = {"error": repr(exc)}
print(json.dumps({"uqpc": uqpc.__version__, "numpy": numpy.__version__,
                  "python": platform.python_version(), "blas": blas}))
"""


@dataclass
class ChildRun:
    """One finished child process: exit code, wall time and rusage."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str = ""
    stderr: str = ""


def child_env() -> dict[str, str]:
    # BLAS thread variables are inherited untouched on purpose (NOTES.md).
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], timeout_s: float) -> ChildRun:
    """Run a child in its own session; wait4 gives the rusage of its tree.

    The rusage of a reaped child includes every descendant it waited for,
    so CPU time and peak RSS cover the worker processes of a pool. On
    timeout the whole session is killed.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with open(WORK_DIR / "stdout.txt", "w+") as out, open(WORK_DIR / "stderr.txt", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT, start_new_session=True
        )
        timer = threading.Timer(max(timeout_s, 1.0), _kill_session, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read(),
            stderr=err.read()[-2000:],
        )


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Tally:
    """Runs attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error)


def run_study_cli(study: workloads.Study, out_dir: Path, deadline: float,
                  workers: int | None = None) -> tuple[ChildRun, dict, str | None]:
    """One `uqpc run`: returns the child, its report fingerprint and any failure."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, "-c", CLI_CODE, *study.argv(out_dir, workers)]
    child = run_child(argv, deadline - time.perf_counter())
    error, prints = None, {}
    if child.returncode != 0:
        error = f"seed {study.seed}: exit {child.returncode}: {child.stderr.strip()[-300:]}"
    else:
        try:
            study.check(out_dir)
            prints = oracle_check.fingerprint(out_dir)
        except (oracle_check.OracleError, OSError, ValueError, KeyError) as exc:
            error = f"seed {study.seed}: {type(exc).__name__}: {exc}"
    shutil.rmtree(out_dir, ignore_errors=True)
    return child, prints, error


def setup_probe(config_path: Path, deadline: float) -> dict:
    """One fresh-interpreter set-up sample: import and config-parse times."""
    argv = [sys.executable, "-c", SETUP_CODE, str(config_path)]
    child = run_child(argv, deadline - time.perf_counter())
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def provenance(workload: workloads.Study, seed: int, deadline: float) -> dict:
    child = run_child([sys.executable, "-c", PROVENANCE_CODE], deadline - time.perf_counter())
    if child.returncode != 0:
        raise RuntimeError(f"cannot import uqpc and numpy: {child.stderr.strip()}")
    info = json.loads(child.stdout.strip().splitlines()[-1])
    config = ROOT / workload.config
    info.update(
        {
            "blas_threads_env": {
                k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            },
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "config": workload.config,
            "config_sha256": hashlib.sha256(config.read_bytes()).hexdigest(),
            "seed": seed,
            "git_commit": git_commit(),
        }
    )
    return info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown (not a git checkout)"


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) with the sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class Outcome:
    """What one benchmark run prints and records."""

    tally: Tally
    metrics: dict[str, tuple[float, str]]
    result: dict
    detail: dict[str, dict] = field(default_factory=dict)
    spans: dict | None = None


def twin_error(study: workloads.Study, prints: dict, deadline: float) -> str | None:
    """Worker-count identity: rerun at --workers 1 and compare report bytes."""
    _, twin, error = run_study_cli(study, WORK_DIR / "twin", deadline, workers=1)
    if error is not None:
        return f"--workers 1 twin: {error}"
    for name in ("records.csv", "summary.json"):
        if twin.get(name) != prints.get(name):
            return f"seed {study.seed}: {name} differs between --workers 1 and {study.workers}"
    return None


def end_to_end(workload: workloads.Study, seed: int, seconds: float) -> Outcome:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    info = provenance(workload, seed, deadline)
    config = ROOT / workload.config
    setup_probe(config, deadline)  # warm-up, not measured

    # Set-up probes are spread over the window, one after each CLI run, so
    # that their median sees the same machine as the throughput.
    tally = Tally()
    runs, setups = [], []
    seeds = workloads.run_seeds(seed, 10_000)
    window_end = time.perf_counter() + seconds
    while not runs or time.perf_counter() < window_end:
        study = replace(workload, seed=seeds[len(runs)])
        child, prints, error = run_study_cli(study, WORK_DIR / workload.name, deadline)
        if error is None and study.workers > 1:
            error = twin_error(study, prints, deadline)
        tally.record(error)
        reps = study.cell_repetitions()
        runs.append({"seed": study.seed, "cell_repetitions": reps,
                     "reps_per_s": reps / child.wall_s, "ok": error is None,
                     "fingerprint": prints, **_figures(child)})
        setups.append(setup_probe(config, deadline))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(config, deadline))

    # Throughput over the whole window: total work over total CLI wall time.
    total_reps = sum(r["cell_repetitions"] for r in runs)
    metrics = {
        "reps_per_s": (total_reps / sum(r["wall_s"] for r in runs), "1/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    detail = {
        "reps_per_s": spread([r["reps_per_s"] for r in runs]),
        "setup_s": spread([s["setup_s"] for s in setups]),
        "peak_rss_mb": spread([r["peak_rss_mb"] for r in runs]),
    }
    result = {"provenance": info, "runs": runs, "setup_samples": setups, "detail": detail}
    return Outcome(tally, metrics, result, detail)


def _figures(child: ChildRun) -> dict:
    return {"wall_s": child.wall_s, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb, "returncode": child.returncode}


def traced(seed: int, repetitions: int | None) -> Outcome:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    info = provenance(WORKLOADS["variance_grid_w1"], seed, deadline)
    config = ROOT / workloads.VARIANCE
    setups = [setup_probe(config, deadline) for _ in range(SETUP_SAMPLES + 1)][1:]

    tally = Tally()
    trace_dir = WORK_DIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    output = trace_dir / "trace.json"
    argv = [sys.executable, str(BENCH_DIR / "trace_study.py"), "--seed", str(seed),
            "--work", str(trace_dir), "--output", str(output)]
    if repetitions is not None:
        argv += ["--repetitions", str(repetitions)]
    child = run_child(argv, deadline - time.perf_counter() - 40.0)
    if child.returncode != 0:
        raise RuntimeError(f"traced run failed: {child.stderr.strip()}")
    trace = json.loads(output.read_text(encoding="utf-8"))
    checks = trace.pop("checks")
    for error in checks["errors"]:
        tally.record(error)
    for _ in range(checks["attempted"] - checks["failed"]):
        tally.record(None)

    # The worker pool, from untraced CLI runs of the same study and seed.
    study = replace(workloads.traced_studies(seed, repetitions)[0], workers=2)
    pool = {}
    for workers in (1, 2):
        child, prints, error = run_study_cli(study, WORK_DIR / "pool", deadline, workers)
        pool[workers] = (child, prints)
        tally.record(error)
    if pool[1][1] != pool[2][1]:
        tally.record(f"seed {study.seed}: report files differ between --workers 1 and 2")

    metrics = {k: (v["value"], v["unit"]) for k, v in trace.pop("metrics").items()}
    metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    metrics["experiments.pool.cpu_s"] = (pool[2][0].cpu_s, "s")
    metrics["experiments.pool.wall_w1_s"] = (pool[1][0].wall_s, "s")
    metrics["experiments.pool.wall_w2_s"] = (pool[2][0].wall_s, "s")
    metrics["experiments.pool.speedup"] = (pool[1][0].wall_s / pool[2][0].wall_s, "1")
    spans = {"span_fields": trace.pop("span_fields"), "spans": trace.pop("spans")}
    result = {
        "provenance": info,
        "setup_samples": setups,
        "traced_run": trace,
        "fingerprints": checks["fingerprints"],
        "pool": {w: {**_figures(c), "fingerprint": p} for w, (c, p) in pool.items()},
    }
    return Outcome(tally, metrics, result, spans=spans)


def print_table(outcome: Outcome) -> None:
    for name, (value, unit) in outcome.metrics.items():
        line = f"{name:64s} {value:14.6g} {unit}"
        s = outcome.detail.get(name)
        if s:
            line += f"   (per run: median {s['median']:.6g}, q1 {s['q1']:.6g}, " \
                    f"q3 {s['q3']:.6g}, n={s['n']})"
        print(line)
    tally = outcome.tally
    print(f"{'failed_frac':64s} {tally.failed / tally.attempted:14.6g} 1"
          f"   ({tally.failed} failed of {tally.attempted} runs)")
    for error in tally.errors[:20]:
        print(f"FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="uqpc repetition-study benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetitions", type=int, default=None,
                        help="override every study's repetitions (smoke tests)")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/uqpc/cli.py", WORKLOADS[args.workload].config)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a uqpc source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            outcome = traced(args.seed, args.repetitions)
        else:
            workload = WORKLOADS[args.workload]
            if args.repetitions is not None:
                workload = replace(workload, repetitions=args.repetitions)
            outcome = end_to_end(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    tally = outcome.tally
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outcome.result.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": outcome.metrics, "tally": asdict(tally),
        "failed_frac": tally.failed / tally.attempted,
    })
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(outcome.result, indent=1),
                                              encoding="utf-8")
    if outcome.spans is not None:
        (RESULTS_DIR / f"{stem}-spans.json").write_text(json.dumps(outcome.spans),
                                                        encoding="utf-8")

    print_table(outcome)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
