"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

A tiny-size smoke run of every mode checks that each metric BENCHMARK.json
names is printed with its unit, and corrupted report files must fail the
oracle check.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle_check  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_REPS = 6


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _check_printed(proc: subprocess.CompletedProcess, expected: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    assert [m["name"] for m in expected] == list(result["metrics"])
    table = lines[:-1]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float) and math.isfinite(printed["value"])
        row = [line.split() for line in table if line.split()[0] == metric["name"]]
        assert row and row[0][2] == metric["unit"], metric["name"]
    assert any(line.split()[0] == "failed_frac" for line in table)
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end_prints_every_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--repetitions", str(TINY_REPS))
    result = _check_printed(proc, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0.0


def test_smoke_traced_prints_every_per_layer_metric():
    proc = _bench("--workload", "variance_grid_w1", "--seed", "3", "--seconds", "0",
                  "--trace", "1", "--repetitions", str(TINY_REPS))
    result = _check_printed(proc, SPEC["per_layer"])
    for metric in SPEC["per_layer"]:
        if metric["unit"] in ("s", "ms") and metric["name"] != "trace.overhead_frac":
            assert result["metrics"][metric["name"]]["value"] > 0.0, metric["name"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _bench("--workload", "variance_grid_w1", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _report(tmp_path, name: str, repetitions: int) -> tuple[workloads.Study, Path]:
    study = replace(workloads.WORKLOADS[name], seed=20260814, repetitions=repetitions)
    out = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from uqpc.cli import main; sys.exit(main())",
         *study.argv(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    study.check(out)  # the clean report passes
    return study, out


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + [edit(row) for row in rows[1:]]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _shift_by_standard_errors(values: list[float], k: float) -> float:
    return k * statistics.stdev(values) / math.sqrt(len(values))


def test_shifted_variance_estimates_fail_the_oracle(tmp_path):
    study, out = _report(tmp_path, "variance_grid_w1", 30)
    path = out / "records.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        cell = [float(r[4]) for r in csv.reader(fh)
                if r[:3] == ["2000", "10", "pc_bias"]]
    shift = _shift_by_standard_errors(cell, 2 * oracle_check.Z_GATE)

    def edit(row):
        if row[:3] == ["2000", "10", "pc_bias"]:
            row[4] = repr(float(row[4]) + shift)
        return row

    _rewrite_csv(path, edit)
    with pytest.raises(oracle_check.OracleError, match="2000x10 pc_bias"):
        study.check(out)


def test_shifted_sobol_indices_fail_the_oracle(tmp_path):
    study, out = _report(tmp_path, "gsa_single_history", 60)
    path = out / "gsa.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        s1 = [float(r[4]) for r in csv.reader(fh) if r[2] == "pc_bias"]
    shift = _shift_by_standard_errors([v for v in s1 if not math.isnan(v)],
                                      2 * oracle_check.Z_GATE)

    def edit(row):
        if row[2] == "pc_bias":
            row[4] = repr(float(row[4]) - shift)
        return row

    _rewrite_csv(path, edit)
    with pytest.raises(oracle_check.OracleError, match="pc_bias s1"):
        study.check(out)


def test_shifted_response_curves_fail_the_oracle(tmp_path):
    study, out = _report(tmp_path, "response_bands", 20)

    def edit(row):
        # Move prediction and band together, so only the mean curve is off.
        return [row[0]] + [repr(float(v) + 0.05) for v in row[1:4]] + [row[4]]

    for sample in range(study.repetitions):
        _rewrite_csv(out / f"response_{sample}.csv", edit)
    with pytest.raises(oracle_check.OracleError, match="build-averaged prediction"):
        study.check(out)


def test_band_that_misses_the_prediction_fails_the_oracle(tmp_path):
    study, out = _report(tmp_path, "response_bands", 20)

    def edit(row):
        row[2] = repr(float(row[1]) + 1.0)  # band_lo above the prediction
        return row

    _rewrite_csv(out / "response_3_trim.csv", edit)
    with pytest.raises(oracle_check.OracleError, match="misses prediction"):
        study.check(out)


def test_missing_report_file_fails_the_oracle(tmp_path):
    study, out = _report(tmp_path, "variance_grid_w1", 30)
    (out / "density_25x1_pc_bias.csv").unlink()
    with pytest.raises(oracle_check.OracleError, match="density"):
        study.check(out)


def test_closed_form_oracle_matches_known_values():
    # One section, sigma ~ U(0.05, 1.95), dx = 1: E[Q] = e^-1 sinh(0.95)/0.95.
    moments = oracle_check.exact_moments([(1.0, 0.95, 1.0)])
    assert moments["mean"] == pytest.approx(math.exp(-1.0) * math.sinh(0.95) / 0.95)
    assert moments["sobol_first"] == pytest.approx([1.0])
    # Identical sections share the first-order indices equally, below 1/d.
    moments = oracle_check.exact_moments([(0.3, 0.29, 1.0)] * 3)
    assert moments["sobol_first"][0] == pytest.approx(moments["sobol_first"][2])
    assert 3 * moments["sobol_first"][0] < 1.0


def test_run_seeds_depend_only_on_the_seed():
    assert workloads.run_seeds(7, 5) == workloads.run_seeds(7, 5)
    assert workloads.run_seeds(7, 5) != workloads.run_seeds(8, 5)


def test_self_time_subtracts_direct_children_only():
    import trace_study

    spans = [
        ["a", 0.0, 10.0, -1, None, "s"],
        ["b", 1.0, 4.0, 0, None, "s"],
        ["c", 2.0, 3.0, 1, None, "s"],
        ["d", 5.0, 6.0, 0, None, "s"],
    ]
    assert trace_study.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
