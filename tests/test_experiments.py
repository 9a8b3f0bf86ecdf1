import contextlib
import io
import json
import os
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from uqpc.cli import main
from uqpc.costmodel import CostModel
from uqpc.experiments import (
    METHODS,
    ConfigError,
    derive_rng,
    emit_density,
    load_config,
    run_study,
    write_report,
)
from uqpc.nisp import load_surrogate, predict, prediction_stddev
from uqpc.oracle import exact_mean, exact_sobol, exact_variance, quadrature_coefficients
from uqpc.polybasis import eval_basis_matrix, total_degree_multi_indices
from uqpc.transport import SlabProblem, transmittance_batch

D1_PROBLEM = """\
problem:
  materials:
    - {sigma0: 1.0, sigmaDelta: 0.95, dx: 1.0}
"""


def write_config(tmp_path, *parts, name="study.yaml"):
    path = tmp_path / name
    path.write_text("".join(textwrap.dedent(p) for p in parts))
    return path


def read_csv(path):
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------------- config


def test_load_config_full(tmp_path):
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 4}
    study:
      kind: variance
      n_xi_grid: [100, 200]
      n_eta_grid: [1, 10]
      repetitions: 7
      methods: [pc_bias, var_deconv]
      bins: 10
    cost: {total: 600.0, xi: 2.0, eta: 1.0}
    seed: 42
    """)
    config = load_config(path)
    assert config.problem.d == 1
    assert config.problem.sigma0 == pytest.approx([1.0])
    assert config.problem.sigma_delta == pytest.approx([0.95])
    assert config.n0 == 4
    assert config.kind == "variance"
    assert config.cells == ((100, 1), (100, 10), (200, 1), (200, 10))
    assert config.repetitions == 7
    assert config.methods == ("pc_bias", "var_deconv")
    assert config.bins == 10
    assert config.cost == CostModel(600.0, 2.0, 1.0)
    assert config.master_seed == 42


def test_load_config_defaults(tmp_path):
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study:
      n_xi_grid: [50]
      n_eta_grid: [1]
    """)
    config = load_config(path)
    assert config.kind == "variance"
    assert config.repetitions == 200
    assert config.methods == tuple(METHODS["variance"])
    assert config.master_seed == 0
    assert config.noise_free is False
    assert config.bins == 40
    assert config.response_points == 201
    assert config.cost is None


def test_load_config_gsa_defaults(tmp_path):
    path = write_config(tmp_path, """\
    problem:
      materials:
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
        - {sigma0: 0.5, sigmaDelta: 0.1, dx: 2.0}
    pce: {n0: 3}
    study:
      kind: gsa
      n_xi_grid: [100]
      n_eta_grid: [1]
    """)
    config = load_config(path)
    assert config.methods == tuple(METHODS["gsa"])
    assert config.problem.sigma0 == pytest.approx([0.3, 0.5])
    assert config.problem.sigma_delta == pytest.approx([0.29, 0.1])
    assert config.problem.dx == pytest.approx([1.0, 2.0])


# An ample sigmaDelta, but a mean of about 1e-304 whose variance underflows
# to 0: the refusal names that cause as well as a zero sigmaDelta.
UNDERFLOW = (
    "problem:\n  materials:\n    - {sigma0: 700, sigmaDelta: 1, dx: 1}\npce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [1]}\n"
)
# A material's range form and the sigmaDelta alias are unknown keys.
REVERSED_RANGE = (
    "problem:\n  materials:\n    - {lo: 0.59, hi: 0.01, dx: 1.0}\npce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [1]}\n"
)
ALIAS = (
    "problem:\n  materials:\n    - {sigma0: 1.0, sigmaDelta: 0.1, sigma_delta: 0.9, dx: 1.0}\n"
    "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n"
)
# A finite cost whose largest cell overflows (1e300 x 1e10 histories), next
# to a result table over the limit: the cost is checked where it is parsed,
# before the memory check.
COST_AND_TABLE = (
    D1_PROBLEM + "pce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [10000000000], repetitions: 100000000}\n"
    "cost: {total: 600.0, xi: 1.0, eta: 1.0e300}\n"
)
# Grid entries past 2**53: a leak count there is not exact in float64, and
# past 2**63 not even an int64; a sample count of 10**309 next to a cost
# model would overflow float() in the realized cost.
N_ETA_PAST_2_53 = (
    D1_PROBLEM + f"pce: {{n0: 2}}\nstudy: {{n_xi_grid: [5], n_eta_grid: [{2**53 + 1}]}}\n"
)
N_XI_WITH_COST = (
    D1_PROBLEM + f"pce: {{n0: 2}}\nstudy: {{n_xi_grid: [{10**309}], n_eta_grid: [1]}}\n"
    "cost: {total: 600.0, xi: 1.0, eta: 1.0}\n"
)
# Bodies whose refusal is matched by message as well.
REJECT_MESSAGES = {
    UNDERFLOW: r"sigmaDelta is 0 .* the exact mean \(1\.16e-304\) .* underflows",
    REVERSED_RANGE: r"unknown key 'lo' in 'problem.materials\[0\]'; allowed: sigma0, sigmaDelta, dx",
    ALIAS: r"unknown key 'sigma_delta' in 'problem.materials\[0\]'",
    COST_AND_TABLE: r"'cost' is out of floating-point range for this grid",
    N_ETA_PAST_2_53: r"'study.n_eta_grid' entries must be <= 2\*\*53, got 9007199254740993",
    N_XI_WITH_COST: r"'study.n_xi_grid' entries must be <= 2\*\*53",
}


@pytest.mark.parametrize("body", [
    "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    D1_PROBLEM + "study: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    D1_PROBLEM + "pce: {n0: 2}\n",
    D1_PROBLEM + "pce: {n0: -1}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {kind: nope, n_xi_grid: [5], n_eta_grid: [1]}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [], n_eta_grid: [1]}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [0], n_eta_grid: [1]}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1], repetitions: 0}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1], methods: [nope]}\n",
    D1_PROBLEM
    + "pce: {n0: 2}\nstudy: {kind: gsa, n_xi_grid: [5], n_eta_grid: [1], methods: [pc_mc21]}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1], noise_free: 3}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\nseed: 1.5\n",
    D1_PROBLEM
    + "pce: {n0: 2}\nstudy: {kind: response, n_xi_grid: [5, 6], n_eta_grid: [1]}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\ncost: {total: 5}\n",
    "problem:\n  materials:\n    - {sigma0: 1.0, dx: 1.0}\npce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    "problem:\n  materials:\n    - {sigma0: 0.3, sigmaDelta: 0.29, dx: -1.0}\npce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    # lo/hi endpoints in the wrong order: 'lo' and 'hi' are unknown keys
    REVERSED_RANGE,
    # values that are not numbers
    "problem:\n  materials:\n    - {sigma0: 0.3, sigmaDelta: 0.29, dx: abc}\npce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    "problem:\n  materials:\n    - {sigma0: null, sigmaDelta: 0.29, dx: 1.0}\npce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    "problem:\n  materials:\n    - {sigma0: 0.3, sigmaDelta: 0.29, dx: [1]}\npce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n"
    "cost: {total: [1], xi: 2.0, eta: 1.0}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\nseed: -1\n",
    # no uncertainty: the output variance is 0
    "problem:\n  materials:\n    - {sigma0: 0.3, sigmaDelta: 0.0, dx: 1.0}\npce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    UNDERFLOW,
    # exact references that overflow to NaN next to an ordinary section
    "problem:\n  materials:\n    - {sigma0: 1.0e200, sigmaDelta: 1.0e200, dx: 1.0e200}\n"
    "    - {sigma0: 1.0, sigmaDelta: 0.5, dx: 1.0}\npce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    # a response build holds the P x P covariance: 6001^2 float64 is 275 MiB
    D1_PROBLEM + "pce: {n0: 6000}\nstudy: {kind: response, n_xi_grid: [5], n_eta_grid: [2]}\n",
    # unknown keys, which would otherwise fall back to their defaults
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1], repetiton: 5}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\nsed: 3\n",
    D1_PROBLEM + "pce: {n0: 2, degree: 3}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n"
    "cost: {total: 600.0, xi: 2.0, eta: 1.0, zeta: 1.0}\n",
    "problem:\n  materials:\n    - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0, sigmadelta: 0.1}\n"
    "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    "problem:\n  sections: 1\n  materials:\n    - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}\n"
    "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    # a response build has no methods to choose
    D1_PROBLEM + "pce: {n0: 2}\n"
    "study: {kind: response, n_xi_grid: [5], n_eta_grid: [2], methods: [pc_bias]}\n",
    # the old range form and sigmaDelta alias, alone or mixed with the one
    # form: 'lo', 'hi' and 'sigma_delta' are unknown keys
    "problem:\n  materials:\n    - {lo: 0.01, hi: 0.59, sigma0: 5.0, sigmaDelta: 0.1,"
    " sigma_delta: 0.2, dx: 1.0}\npce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    "problem:\n  materials:\n    - {lo: 0.01, hi: 0.59, sigma_delta: 0.2, dx: 1.0}\n"
    "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    ALIAS,
    # arrays over the 256 MiB limit: a 5.6 GB response-grid basis, 8 GB of
    # histogram edges
    D1_PROBLEM + "pce: {n0: 6}\n"
    "study: {kind: response, n_xi_grid: [5], n_eta_grid: [2], response_points: 100000000}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1], bins: 1000000000}\n",
    # result tables over the limit, charged their rows and aggregation:
    # 40 GB for variance rows (4 methods per repetition), 2.7 GB
    # for GSA rows (2), and 5 response builds of two 2001^2 covariances each
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1], repetitions: 100000000}\n",
    D1_PROBLEM
    + "pce: {n0: 2}\nstudy: {kind: gsa, n_xi_grid: [5], n_eta_grid: [1], repetitions: 10000000}\n",
    D1_PROBLEM + "pce: {n0: 2000}\n"
    "study: {kind: response, n_xi_grid: [5], n_eta_grid: [2], repetitions: 5}\n",
    COST_AND_TABLE,
    # a repeated grid entry would run its cells twice under one report key
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [25, 25], n_eta_grid: [2]}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [25], n_eta_grid: [1, 4, 1]}\n",
    N_ETA_PAST_2_53,
    D1_PROBLEM + f"pce: {{n0: 2}}\nstudy: {{n_xi_grid: [5], n_eta_grid: [2, {10**30}]}}\n",
    N_XI_WITH_COST,
])
def test_load_config_rejects(tmp_path, body):
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=REJECT_MESSAGES.get(body)):
        load_config(path)


def test_load_config_takes_any_n_eta(tmp_path):
    # A tally draw is one leak count per sample, so n_eta is not bounded by
    # the array limit: 2000 x 100000 uniforms would be 1.6 GB at once.
    path = write_config(
        tmp_path, D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [2000], n_eta_grid: [100000]}\n"
    )
    config = load_config(path)
    assert config.cells == ((2000, 100000),)


def test_study_at_the_largest_n_eta_is_finite(tmp_path):
    # At n_eta = 2**53 a draw costs what it costs at 2, and the tally
    # statistics stay float64 (an int64 K (n_eta - K) would wrap), so the
    # run ends with finite figures and no warning.
    path = write_config(tmp_path, D1_PROBLEM, f"""\
    pce: {{n0: 2}}
    study: {{n_xi_grid: [50], n_eta_grid: [{2**53}], repetitions: 3}}
    """)
    out = tmp_path / "out"
    code, _, _ = run_cli("run", "--config", str(path), "--out", str(out))
    assert code == 0

    def numbers(node):
        if isinstance(node, dict):
            return [x for v in node.values() for x in numbers(v)]
        if isinstance(node, list):
            return [x for v in node for x in numbers(v)]
        return [node] if isinstance(node, float) else []

    values = numbers(json.loads((out / "summary.json").read_text()))
    assert values and np.all(np.isfinite(values))


def test_load_config_nearly_flat_slab(tmp_path):
    # a = sigmaDelta dx = 1e-8: E[Q^2] - E[Q]^2 cancels to 0 in floating
    # point, but the variance is e^{-2 sigma0 dx} (a^2/3 + 4a^4/45 + ...).
    path = write_config(tmp_path, """\
    problem:
      materials:
        - {sigma0: 1.0, sigmaDelta: 1.0e-8, dx: 1.0}
    pce: {n0: 2}
    study: {n_xi_grid: [5], n_eta_grid: [1], repetitions: 2}
    """)
    report = run_study(load_config(path))
    a = 1e-8
    series = np.exp(-2.0) * (a**2 / 3 + 4 * a**4 / 45)
    assert report.summary["exact"]["variance"] == pytest.approx(series, rel=1e-13)
    assert report.summary["exact"]["sobol_first"] == [1.0]


def test_load_config_response_needs_1d(tmp_path):
    path = write_config(tmp_path, """\
    problem:
      materials:
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
    pce: {n0: 2}
    study: {kind: response, n_xi_grid: [5], n_eta_grid: [1]}
    """)
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_io_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")
    bad = write_config(tmp_path, "problem: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_apply_overrides(tmp_path):
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study: {n_xi_grid: [5], n_eta_grid: [1]}
    seed: 9
    """)
    same = load_config(path)
    assert (same.master_seed, same.repetitions) == (9, 200)
    changed = load_config(path, seed=1, repetitions=3)
    assert (changed.master_seed, changed.repetitions) == (1, 3)
    with pytest.raises(ConfigError):
        load_config(path, repetitions=0)
    # 4 methods x 10^8 repetitions: a 40 GB result table
    with pytest.raises(ConfigError):
        load_config(path, repetitions=10**8)


@pytest.mark.parametrize("study, seed", [
    ("", "-1"), ("", "abc"), (", repetitions: -5", "0"), (", repetitions: abc", "0"),
])
def test_overridden_file_value_is_still_checked(tmp_path, study, seed):
    # An override replaces the file's seed or repetitions only once that
    # value has passed its own type and range check.
    path = write_config(tmp_path, D1_PROBLEM, f"""\
    pce: {{n0: 2}}
    study: {{n_xi_grid: [5], n_eta_grid: [1]{study}}}
    seed: {seed}
    """)
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(path, seed=1, repetitions=3)


def test_largest_accepted_repetitions():
    # d3_variance charges each of its 30 cells 400 B per repetition: four
    # 80 B table rows, plus 64 B and two estimate floats to aggregate one
    # method-cell. 22,369 repetitions fit the 256 MiB limit, 22,370 do not.
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "configs" / "d3_variance.yaml"
    assert load_config(path, repetitions=22369).repetitions == 22369
    with pytest.raises(ConfigError, match="result table of 30 cells x 22370 repetitions"):
        load_config(path, repetitions=22370)


# ------------------------------------------------------------ rng and density


def test_derive_rng_streams():
    a = derive_rng(5, 0, 1).random(4)
    b = derive_rng(5, 0, 1).random(4)
    c = derive_rng(5, 0, 2).random(4)
    d = derive_rng(6, 0, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_emit_density_degenerate():
    edges, density = emit_density([0.7, 0.7, 0.7], bins=5)
    assert edges == pytest.approx([0.2, 1.2])
    assert density == pytest.approx([1.0])


def test_emit_density_by_hand():
    edges, density = emit_density([0.0, 1.0], bins=2)
    assert edges == pytest.approx([0.0, 0.5, 1.0])
    assert density == pytest.approx([1.0, 1.0])


def test_emit_density_integrates_to_one(rng):
    values = rng.normal(size=500)
    edges, density = emit_density(values, bins=17)
    widths = np.diff(edges)
    assert float(density @ widths) == pytest.approx(1.0, abs=1e-12)
    assert len(density) == 17


def test_emit_density_errors():
    with pytest.raises(ValueError):
        emit_density([], bins=4)
    with pytest.raises(ValueError):
        emit_density([1.0, 2.0], bins=0)


# ------------------------------------------------------------ variance study


@pytest.fixture(scope="module")
def tiny_variance_config(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    path = write_config(tmp, D1_PROBLEM, """\
    pce: {n0: 2}
    study:
      kind: variance
      n_xi_grid: [50]
      n_eta_grid: [1, 2]
      repetitions: 3
      bins: 4
    cost: {total: 600.0, xi: 2.0, eta: 1.0}
    seed: 7
    """)
    return load_config(path)


def test_variance_study_records(tiny_variance_config, tmp_path):
    report = run_study(tiny_variance_config)
    # var_deconv is undefined at n_eta = 1, so that cell records 3 methods
    assert len(report.records) == 3 * 3 + 4 * 3
    first = report.records[0]
    assert (first.n_xi, first.n_eta, first.method, first.repetition) == (50, 1, "pc_mc21", 0)
    # canonical ordering: cell, then method in config order, then repetition
    keys = [(r.n_xi, r.n_eta, r.method, r.repetition) for r in report.records]
    assert keys == sorted(
        keys, key=lambda k: (k[0], k[1], tiny_variance_config.methods.index(k[2]), k[3])
    )
    write_report(report, tmp_path)
    assert {path.name for path in tmp_path.glob("density_*")} == {
        "density_50x1_pc_mc21.csv", "density_50x1_pc_bias.csv", "density_50x1_pc_bias_trim.csv",
        "density_50x2_pc_mc21.csv", "density_50x2_pc_bias.csv", "density_50x2_pc_bias_trim.csv",
        "density_50x2_var_deconv.csv",
    }


def test_variance_study_summary(tiny_variance_config):
    report = run_study(tiny_variance_config)
    s = report.summary
    assert s["kind"] == "variance"
    assert s["n0"] == 2
    assert s["master_seed"] == 7
    assert s["repetitions"] == 3
    assert s["exact"]["mean"] == pytest.approx(exact_mean(tiny_variance_config.problem))
    assert s["exact"]["variance"] == pytest.approx(exact_variance(tiny_variance_config.problem))
    assert s["cost"] == {"total": 600.0, "xi": 2.0, "eta": 1.0}
    cells = s["cells"]
    assert [(c["n_xi"], c["n_eta"]) for c in cells] == [(50, 1), (50, 2)]
    assert cells[0]["realized_cost"] == pytest.approx(50 * 3.0)
    assert cells[1]["realized_cost"] == pytest.approx(50 * 4.0)
    assert cells[0]["methods"]["var_deconv"] == {"available": False}
    stats = cells[1]["methods"]["var_deconv"]
    assert stats["available"] is True
    ests = [r.estimate for r in report.records
            if r.method == "var_deconv" and r.n_eta == 2]
    assert stats["mean"] == pytest.approx(np.mean(ests))
    assert stats["bias"] == pytest.approx(
        np.mean(ests) - exact_variance(tiny_variance_config.problem)
    )
    errors = np.array(ests) - exact_variance(tiny_variance_config.problem)
    assert stats["mse"] == pytest.approx(np.mean(errors**2))
    assert stats["variance"] == pytest.approx(np.var(ests, ddof=1))
    # mean squared error = bias^2 + (n - 1)/n * repetition variance
    n = len(ests)
    assert stats["mse"] == pytest.approx(stats["bias"] ** 2 + (n - 1) / n * stats["variance"])


def test_variance_study_worker_invariance(tiny_variance_config, tmp_path):
    serial = run_study(tiny_variance_config, workers=1)
    parallel = run_study(tiny_variance_config, workers=2)
    a = [(r.n_xi, r.n_eta, r.method, r.repetition, r.estimate) for r in serial.records]
    b = [(r.n_xi, r.n_eta, r.method, r.repetition, r.estimate) for r in parallel.records]
    assert a == b
    write_report(serial, tmp_path / "serial")
    write_report(parallel, tmp_path / "parallel")
    assert (tmp_path / "serial" / "records.csv").read_bytes() == (
        tmp_path / "parallel" / "records.csv"
    ).read_bytes()


def test_write_report_files(tiny_variance_config, tmp_path):
    report = run_study(tiny_variance_config)
    out = tmp_path / "report"
    written = write_report(report, out)
    assert set(p.name for p in written) == {
        "summary.json", "records.csv",
        "density_50x1_pc_mc21.csv", "density_50x1_pc_bias.csv",
        "density_50x1_pc_bias_trim.csv", "density_50x2_pc_mc21.csv",
        "density_50x2_pc_bias.csv", "density_50x2_pc_bias_trim.csv",
        "density_50x2_var_deconv.csv",
    }
    header, rows = read_csv(out / "records.csv")
    assert header == ["n_xi", "n_eta", "method", "repetition", "estimate"]
    assert len(rows) == len(report.records)
    # full-precision floats round trip exactly
    assert [float(r[4]) for r in rows] == [r.estimate for r in report.records]
    header, rows = read_csv(out / "density_50x2_var_deconv.csv")
    assert header == ["bin_left", "bin_right", "density"]
    assert len(rows) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "variance"


def test_noise_free_study_wiring(tmp_path):
    # noise_free swaps the history tallies for the analytic transmittance;
    # rebuild each repetition from the same derived stream and match exactly
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 6}
    study:
      kind: variance
      n_xi_grid: [2000]
      n_eta_grid: [1, 2]
      repetitions: 2
      methods: [pc_bias, var_deconv]
      noise_free: true
    seed: 13
    """)
    from uqpc.nisp import TrainingData, build_surrogate, pce_variance_unbiased
    from uqpc.transport import sample_parameters

    config = load_config(path)
    report = run_study(config)
    basis = total_degree_multi_indices(1, 6)
    by_key = {(r.n_eta, r.method, r.repetition): r.estimate for r in report.records}
    for i_eta, n_eta in enumerate((1, 2)):
        for rep in range(2):
            rng = derive_rng(13, i_eta, rep)
            xis = sample_parameters(config.problem, 2000, rng)
            qt = transmittance_batch(config.problem, xis)
            sigma2 = np.zeros(2000) if n_eta == 2 else None
            data = TrainingData(xis, qt, sigma2, n_eta)
            s = build_surrogate(data, basis)
            assert by_key[(n_eta, "pc_bias", rep)] == pce_variance_unbiased(s)
            if n_eta == 2:
                # the noise share is exactly zero, so deconvolution degrades
                # to the plain sample variance of the analytic QoI
                assert by_key[(n_eta, "var_deconv", rep)] == np.var(qt, ddof=1)


def test_stream_key_is_the_cell_index(tmp_path):
    # On a grid with two n_xi, every pc_bias record is the fit of the draw
    # from stream (seed, g, r), with g the cell's index in config.cells:
    # the cells run n_eta fastest, so g = i_xi * len(n_eta_grid) + i_eta.
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 3}
    study:
      kind: variance
      n_xi_grid: [30, 20]
      n_eta_grid: [1, 3]
      repetitions: 3
      methods: [pc_bias]
    seed: 29
    """)
    from uqpc.nisp import TrainingData, build_surrogate, pce_variance_unbiased
    from uqpc.transport import sample_parameters, simulate_training_set

    config = load_config(path)
    assert config.cells == ((30, 1), (30, 3), (20, 1), (20, 3))
    report = run_study(config)
    basis = total_degree_multi_indices(1, 3)
    by_key = {(r.n_xi, r.n_eta, r.repetition): r.estimate for r in report.records}
    assert len(by_key) == len(report.records) == 12
    for g, (n_xi, n_eta) in enumerate(config.cells):
        for rep in range(3):
            rng = derive_rng(29, g, rep)
            xis = sample_parameters(config.problem, n_xi, rng)
            data = TrainingData(xis, *simulate_training_set(config.problem, xis, n_eta, rng),
                                n_eta)
            fit = build_surrogate(data, basis, full_covariance=False)
            assert by_key[(n_xi, n_eta, rep)] == pce_variance_unbiased(fit)


def test_mse_decays_with_sample_count(tmp_path):
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 4}
    study:
      kind: variance
      n_xi_grid: [25, 100, 400]
      n_eta_grid: [2]
      repetitions: 60
      methods: [pc_bias]
    seed: 11
    """)
    report = run_study(load_config(path))
    cells = report.summary["cells"]
    mses = [c["methods"]["pc_bias"]["mse"] for c in cells]
    assert mses[0] > mses[1] > mses[2]


# ------------------------------------------------------------------ gsa study


def test_gsa_study_single_dim(tmp_path):
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 3}
    study:
      kind: gsa
      n_xi_grid: [500]
      n_eta_grid: [1]
      repetitions: 3
    seed: 21
    """)
    report = run_study(load_config(path))
    assert len(report.gsa_records) == 2 * 3
    for g in report.gsa_records:
        # one input carries all the variance, exactly
        assert g.first_order.tolist() == [1.0]
        assert g.total.tolist() == [1.0]
    cell = report.summary["cells"][0]
    for method in METHODS["gsa"]:
        stats = cell["methods"][method]
        assert stats["n_defined"] == 3
        assert stats["mean_first"] == [1.0]
        assert stats["mean_total"] == [1.0]
        assert stats["std_first"] == [0.0]


def test_gsa_report_files(tmp_path):
    path = write_config(tmp_path, """\
    problem:
      materials:
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
    pce: {n0: 2}
    study:
      kind: gsa
      n_xi_grid: [200]
      n_eta_grid: [2]
      repetitions: 2
      methods: [pc_bias]
    seed: 23
    """)
    report = run_study(load_config(path))
    out = tmp_path / "gsa_report"
    write_report(report, out)
    header, rows = read_csv(out / "gsa.csv")
    assert header == ["n_xi", "n_eta", "method", "repetition", "s1", "s2", "st1", "st2"]
    assert len(rows) == 2
    g = report.gsa_records[0]
    assert [float(v) for v in rows[0][4:6]] == g.first_order.tolist()
    assert [float(v) for v in rows[0][6:8]] == g.total.tolist()


# -------------------------------------------------------------- response study


def test_response_study(tmp_path):
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 6}
    study:
      kind: response
      n_xi_grid: [200]
      n_eta_grid: [5]
      repetitions: 2
      response_points: 41
    seed: 3
    """)
    config = load_config(path)
    report = run_study(config)
    out = tmp_path / "resp"
    written = write_report(report, out)
    names = set(p.name for p in written)
    assert names == {
        "summary.json",
        "response_0.csv", "response_0_trim.csv",
        "response_1.csv", "response_1_trim.csv",
        "surrogate_0.json", "surrogate_1.json",
    }
    header, rows = read_csv(out / "response_0.csv")
    assert header == ["xi", "predict", "band_lo", "band_hi", "analytic"]
    assert len(rows) == 41
    grid = np.array([float(r[0]) for r in rows])
    assert grid == pytest.approx(np.linspace(-1.0, 1.0, 41))
    analytic = np.array([float(r[4]) for r in rows])
    assert np.array_equal(analytic, transmittance_batch(config.problem, grid[:, None]))
    mid = np.array([float(r[1]) for r in rows])
    lo = np.array([float(r[2]) for r in rows])
    hi = np.array([float(r[3]) for r in rows])
    assert np.all(lo <= mid) and np.all(mid <= hi)
    # the stored surrogate reproduces the untrimmed curve bit for bit
    surrogate = load_surrogate(out / "surrogate_0.json")
    psi = eval_basis_matrix(surrogate.basis, grid[:, None])
    assert np.array_equal(predict(surrogate, psi), mid)
    builds = report.summary["cells"][0]["builds"]
    for b in builds:
        assert b["n_retained_trimmed"] <= b["n_retained_full"]


def test_response_study_worker_invariance(tmp_path):
    # Workers split the builds into chunks; each build still draws from its
    # own stream (seed, 0, s), so every file matches the serial run.
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 4}
    study:
      kind: response
      n_xi_grid: [150]
      n_eta_grid: [3]
      repetitions: 5
      response_points: 21
    seed: 17
    """)
    config = load_config(path)
    files = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        written = write_report(run_study(config, workers=workers), out)
        files[workers] = {p.name: p.read_bytes() for p in written}
    assert len(files[1]) == 1 + 3 * 5
    assert files[1] == files[2]

    from uqpc.nisp import TrainingData, build_surrogate
    from uqpc.transport import sample_parameters, simulate_training_set

    rng = derive_rng(17, 0, 1)
    xis = sample_parameters(config.problem, 150, rng)
    qtilde, sigma2 = simulate_training_set(config.problem, xis, 3, rng)
    fit = build_surrogate(TrainingData(xis, qtilde, sigma2, 3), total_degree_multi_indices(1, 4))
    stored = load_surrogate(tmp_path / "w2" / "surrogate_1.json")
    assert np.array_equal(stored.coefficients, fit.coefficients)
    assert np.array_equal(stored.coefficient_covariance, fit.coefficient_covariance)
    assert np.array_equal(stored.noise_corrected_covariance, fit.noise_corrected_covariance)


def test_forks_and_basis_follow_the_study(tmp_path, monkeypatch):
    # min(workers, repetitions) children: 8 workers for 5 builds fork 5, and
    # a serial run forks none. The study builds its one basis in the parent,
    # before any fork, and every child inherits it.
    import uqpc.experiments as experiments

    forks, bases = [], []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def counted_basis(d, n0):
        bases.append((d, n0))
        return total_degree_multi_indices(d, n0)

    config = load_config(write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 4}
    study: {kind: response, n_xi_grid: [50], n_eta_grid: [3], repetitions: 5,
            response_points: 11}
    """))
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(experiments, "total_degree_multi_indices", counted_basis)
    serial = run_study(config)
    assert forks == [] and bases == [(1, 4)]
    forked = run_study(config, workers=8)
    assert len(forks) == 5
    assert bases == [(1, 4)] * 2
    assert forked.summary == serial.summary
    for a, b in zip(forked.surrogates, serial.surrogates):
        assert np.array_equal(a.coefficient_covariance, b.coefficient_covariance)


def test_shares_split_every_cell():
    # Every repetition of every cell falls in exactly one share, and the
    # shares of a cell differ by at most one repetition. The extra ones
    # rotate from cell to cell, so over the grid the shares stay even.
    from uqpc.experiments import _share

    for repetitions in (1, 2, 3, 5, 7, 30):
        for shares in range(1, min(repetitions, 4) + 1):
            totals = [0] * shares
            for cell in range(12):
                parts = [_share(part, shares, cell, repetitions) for part in range(shares)]
                assert sorted(rep for reps in parts for rep in reps) == list(range(repetitions))
                sizes = [len(reps) for reps in parts]
                assert max(sizes) - min(sizes) <= 1
                totals = [t + n for t, n in zip(totals, sizes)]
            assert totals == [12 * repetitions // shares] * shares
    assert _share(0, 1, 5, 200) == range(200)
    assert [list(_share(part, 2, 1, 5)) for part in (0, 1)] == [[1, 3], [0, 2, 4]]


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_stores_each_share_of_a_cell_once(tmp_path, monkeypatch, workers):
    # A share returns each cell whole, in process as in a forked child:
    # with blocks of one repetition, the grid still stores every (cell,
    # share) once, in grid order, with a row per repetition of the share.
    import uqpc.experiments as experiments
    import uqpc.nisp as nisp
    from uqpc.experiments import _share

    monkeypatch.setattr(nisp, "BLOCK_BYTES", 1)
    config = load_config(write_config(tmp_path, materials_yaml(3), """\
    pce: {n0: 2}
    study: {kind: variance, n_xi_grid: [20, 30], n_eta_grid: [1, 2], repetitions: 5}
    seed: 5
    """))
    stored = []
    experiments._run_grid(config, experiments._method_estimates, workers,
                          lambda cell, at, values: stored.append((cell, range(5)[at], len(values))))
    assert stored == [(cell, reps, len(reps)) for cell in range(4)
                      for reps in (_share(part, workers, cell, 5) for part in range(workers))]
    assert_no_child_left()


@pytest.mark.parametrize("study, repetitions", [
    ("{kind: variance, n_xi_grid: [20, 40], n_eta_grid: [1, 3], bins: 5}", 5),
    ("{kind: variance, n_xi_grid: [30], n_eta_grid: [2], bins: 5}", 2),
    ("{kind: gsa, n_xi_grid: [40, 80], n_eta_grid: [1, 2]}", 7),
    ("{kind: gsa, n_xi_grid: [40], n_eta_grid: [1]}", 1),
    ("{kind: response, n_xi_grid: [60], n_eta_grid: [3], response_points: 11}", 2),
    ("{kind: response, n_xi_grid: [60], n_eta_grid: [3], response_points: 11}", 4),
])
def test_reports_identical_at_any_worker_count(tmp_path, study, repetitions):
    # Every report byte is the same at 1, 2 and 3 workers, with odd
    # repetitions and with fewer repetitions than workers, and a finished
    # run leaves no child behind.
    problem = D1_PROBLEM if "response" in study else materials_yaml(3)
    path = write_config(tmp_path, problem + f"pce: {{n0: 3}}\nstudy: {study}\nseed: 3\n")
    config = load_config(path, repetitions=repetitions)
    files = {}
    for workers in (1, 2, 3):
        written = write_report(run_study(config, workers=workers), tmp_path / f"w{workers}")
        files[workers] = {p.name: p.read_bytes() for p in written}
        assert_no_child_left()
    assert files[1] == files[2] == files[3]


def test_large_child_frames_arrive_whole_and_in_order():
    # Three children send four frames each, every one over a pipe's 64 KiB
    # buffer. The parent reads frame s of every child in turn, so it reads
    # each whole, in order, while the children keep writing.
    import uqpc.experiments as experiments

    def frames(part):
        for step in range(4):
            yield np.full(2**14 + step, 10.0 * part + step)

    got = [frame.tolist() for frame in experiments._in_children(frames, 3, 4)]
    assert got == [[10.0 * part + step] * (2**14 + step) for step in range(4) for part in range(3)]
    assert_no_child_left()


@pytest.mark.parametrize("faulty, sent, message", [
    (1, 1, r"worker process \d+ ended its stream after 1 of 3 frames"),
    (0, 4, r"worker process \d+ sent more than 3 frames"),
])
def test_child_stream_of_the_wrong_length(faulty, sent, message):
    # One child exits 0 after too few or too many of 3 frames; the stream
    # ends in RuntimeError, and the other child, which would sleep for a
    # minute after its frames, is killed, not waited out.
    import time

    import uqpc.experiments as experiments

    def frames(part):
        yield from range(sent if part == faulty else 3)
        if part != faulty:
            time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=message):
        list(experiments._in_children(frames, 2, 3))
    assert time.perf_counter() - start < 30
    assert_no_child_left()


class ShareFailure(Exception):
    pass


def failing_study(tmp_path, monkeypatch, fail):
    # A two-share study whose repetition 0 calls fail() in its child, while
    # the other child would run for a minute unless it is stopped.
    import time

    import uqpc.experiments as experiments

    derive = experiments.derive_rng

    def derive_rng(seed, cell, rep):
        if rep == 0:
            fail()
        elif rep == 1:
            time.sleep(60)
        return derive(seed, cell, rep)

    monkeypatch.setattr(experiments, "derive_rng", derive_rng)
    return load_config(write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study: {n_xi_grid: [20], n_eta_grid: [2], repetitions: 4}
    """))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_exception_reaches_the_caller(tmp_path, monkeypatch):
    # The child's exception arrives with its type and its traceback as a
    # note; the other child is killed and reaped at once.
    import time

    def fail():
        raise ShareFailure("repetition 0")

    config = failing_study(tmp_path, monkeypatch, fail)
    start = time.perf_counter()
    with pytest.raises(ShareFailure, match="repetition 0") as info:
        run_study(config, workers=2)
    assert time.perf_counter() - start < 30
    assert any("raised in worker process" in note for note in info.value.__notes__)
    assert_no_child_left()


def test_child_failure_surfaces_at_its_cell(tmp_path, monkeypatch):
    # Two cells, two shares of two repetitions: share 1 raises at its first
    # cell, (cell, repetition) = (0, 1), and share 0 sleeps in its second
    # cell, (1, 1). The parent reads cell 0 of every share before cell 1,
    # so the failure reaches the caller before share 0 ends its grid.
    import time

    import uqpc.experiments as experiments

    derive = experiments.derive_rng

    def derive_rng(seed, cell, rep):
        if (cell, rep) == (0, 1):
            raise ShareFailure("cell 0")
        if (cell, rep) == (1, 1):
            time.sleep(20)
        return derive(seed, cell, rep)

    monkeypatch.setattr(experiments, "derive_rng", derive_rng)
    config = load_config(write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study: {n_xi_grid: [20], n_eta_grid: [1, 2], repetitions: 2}
    """))
    start = time.perf_counter()
    with pytest.raises(ShareFailure, match="cell 0"):
        run_study(config, workers=2)
    assert time.perf_counter() - start < 5
    assert_no_child_left()


def test_parent_failure_stops_the_children(tmp_path, monkeypatch):
    # The parent fails storing cell 0 while share 0 sleeps in cell 1: the
    # children are killed and reaped before the exception leaves run_study,
    # not when its traceback is dropped.
    import time

    import uqpc.experiments as experiments

    derive = experiments.derive_rng

    def derive_rng(seed, cell, rep):
        if (cell, rep) == (1, 1):
            time.sleep(60)
        return derive(seed, cell, rep)

    def store(report, rows, at, values):
        raise ShareFailure("store")

    monkeypatch.setattr(experiments, "derive_rng", derive_rng)
    monkeypatch.setitem(experiments._STUDIES, "variance", (
        experiments._method_estimates, store, experiments._variance_summary))
    config = load_config(write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study: {n_xi_grid: [20], n_eta_grid: [1, 2], repetitions: 2}
    """))
    start = time.perf_counter()
    with pytest.raises(ShareFailure, match="store") as info:
        run_study(config, workers=2)
    assert time.perf_counter() - start < 30
    assert_no_child_left()
    assert info.tb is not None  # the traceback, and with it run_study's frames, still held


def test_run_study_needs_a_worker(tmp_path, monkeypatch):
    # No worker would run no share and leave the table's estimates
    # unwritten; run_study refuses before it allocates anything.
    import re

    import uqpc.experiments as experiments

    def no_table(config):
        raise AssertionError("allocated a result table")

    config = load_config(write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study: {kind: gsa, n_xi_grid: [20], n_eta_grid: [1], repetitions: 3}
    """))
    monkeypatch.setattr(experiments, "_result_table", no_table)
    # A count that is not an int is refused too: a float or str would fail
    # later with a TypeError, and True would run as 1.
    for workers, refused in ((0, "workers must be >= 1, got 0"),
                             (-1, "workers must be >= 1, got -1"),
                             (2.5, "workers must be an integer, got 2.5"),
                             ("2", "workers must be an integer, got '2'"),
                             (True, "workers must be an integer, got True")):
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            run_study(config, workers=workers)


@pytest.mark.parametrize("changes, workers, refused", [
    # A misspelt method next to var_deconv, a variance method in a GSA
    # study, any method in a response study and a method listed twice.
    ({"methods": ("var_deconv", "pc_bais_trim")}, 1,
     "unknown method 'pc_bais_trim' for kind 'variance'; allowed: "
     "('pc_mc21', 'pc_bias', 'pc_bias_trim', 'var_deconv')"),
    ({"kind": "gsa", "methods": ("pc_mc21",)}, 2,
     "unknown method 'pc_mc21' for kind 'gsa'; allowed: ('pc_bias', 'pc_bias_trim')"),
    ({"kind": "response"}, 1, "unknown method 'pc_bias' for kind 'response'; allowed: ()"),
    ({"methods": ("pc_bias", "pc_bias")}, 2,
     "'study.methods' lists a method twice: ['pc_bias', 'pc_bias']"),
    # Values that once ran, failed deep inside the run or returned NaN.
    ({"repetitions": 0}, 1, "'study.repetitions' must be an integer >= 1, got 0"),
    ({"kind": "nope"}, 1,
     "'study.kind' must be one of ('variance', 'gsa', 'response'), got 'nope'"),
    ({"kind": []}, 1, "'study.kind' must be one of ('variance', 'gsa', 'response'), got []"),
    ({"bins": 0}, 1, "'study.bins' must be an integer >= 1, got 0"),
    ({"response_points": 0}, 1, "'study.response_points' must be an integer >= 1, got 0"),
    ({"n0": -1}, 1, "'pce.n0' must be an integer >= 0, got -1"),
    ({"n0": True}, 1, "'pce.n0' must be an integer >= 0, got True"),
    ({"master_seed": -1}, 2, "'seed' must be an integer >= 0, got -1"),
    ({"cells": ((40, 2), (1, 2))}, 1, "'study.n_xi_grid' entries must be an integer >= 2, got 1"),
    ({"cells": ((40, 0),)}, 1, "'study.n_eta_grid' entries must be an integer >= 1, got 0"),
    ({"cells": ((40, 2), (40, 2))}, 2, "the grid lists a cell twice: (40, 2)"),
    ({"cells": ()}, 1, "the study has no cells"),
    ({"noise_free": "yes"}, 1, "'study.noise_free' must be a boolean"),
    ({"problem": SlabProblem(sigma0=[1.0], sigma_delta=[0.0], dx=[1.0])}, 1,
     "problem has no resolvable uncertainty"),
    ({"problem": SlabProblem(sigma0=[1.0, 0.3], sigma_delta=[0.95, 0.29], dx=[1.0, 1.0]),
      "kind": "response", "methods": ()}, 1,
     "response studies support d=1 problems only"),
    ({"cost": CostModel(600.0, 1.0, 1e300), "cells": ((2**53, 1),)}, 1,
     "'cost' is out of floating-point range for this grid"),
    ({"repetitions": 10**8}, 2, "result table of 1 cells x 100000000 repetitions too large"),
    # A variance or GSA study needs a method, and its methods are a list, not
    # a str; cells may come from any iterable, here one that is too large.
    ({"methods": ()}, 1, "'study.methods' must be a non-empty list, got ()"),
    ({"kind": "gsa", "methods": []}, 2, "'study.methods' must be a non-empty list, got []"),
    ({"methods": "pc_bias"}, 1, "'study.methods' must be a non-empty list, got 'pc_bias'"),
    ({"cells": (c for c in [(40, 2)]), "repetitions": 10**8}, 1,
     "result table of 1 cells x 100000000 repetitions too large"),
], ids=["misspelt", "variance-method-in-gsa", "response", "twice", "repetitions", "kind",
        "unhashable-kind", "bins", "response-points", "n0", "bool-n0", "seed", "n_xi", "n_eta",
        "cell-twice", "no-cells", "noise-free", "no-variance", "response-d2", "cost-range",
        "memory", "no-methods", "no-gsa-methods", "str-methods", "cell-generator"])
def test_run_study_refuses_methods_outside_its_kind(tmp_path, monkeypatch, changes, workers,
                                                    refused):
    # A config built in code is checked as load_config checks a file: a
    # StudyConfig refuses its invalid values, here under replace of a valid
    # one, naming the field before run_study draws or forks anything.
    import re

    import uqpc.experiments as experiments

    def refuse(*args):
        raise AssertionError("drew or forked")

    monkeypatch.setattr(experiments, "derive_rng", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study: {n_xi_grid: [40], n_eta_grid: [2], repetitions: 3, methods: [pc_bias]}
    seed: 1
    """)
    config = load_config(path)
    with pytest.raises(ConfigError, match=re.escape(refused)) as info:
        run_study(replace(config, **changes), workers=workers)
    assert isinstance(info.value, ValueError)
    if "repetitions" in changes:
        # The override is refused with the same message.
        with pytest.raises(ConfigError) as override:
            load_config(path, repetitions=changes["repetitions"])
        assert str(override.value) == str(info.value)


def test_study_config_takes_methods_and_cells_as_sequences(tmp_path):
    # Methods from a list and cells from a generator are kept as tuples, so
    # every later pass over them sees them all.
    config = load_config(write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study: {n_xi_grid: [40], n_eta_grid: [2], repetitions: 2, methods: [pc_bias]}
    """))
    changed = replace(config, methods=["pc_bias", "var_deconv"],
                      cells=(cell for cell in [(25, 2), (25, 1)]))
    assert changed.methods == ("pc_bias", "var_deconv")
    assert changed.cells == ((25, 2), (25, 1))
    cells = run_study(changed).summary["cells"]
    assert [(cell["n_xi"], cell["n_eta"]) for cell in cells] == [(25, 2), (25, 1)]
    assert [list(cell["methods"]) for cell in cells] == [["pc_bias", "var_deconv"]] * 2


@pytest.mark.parametrize("kind, n_eta, methods, calls", [
    ("variance", 2, "[pc_mc21]", (0, 0, 0)),
    ("gsa", 2, "[pc_bias]", (0, 0, 0)),
    # pc_bias's unbiased total is the trim target, then the trimmed fit's.
    ("variance", 1, "[pc_bias, pc_bias_trim]", (5, 0, 10)),
    # One deconvolution for the block of all 5 repetitions.
    ("variance", 2, "[pc_mc21, pc_bias, pc_bias_trim, var_deconv]", (5, 1, 10)),
])
def test_chain_computes_only_what_a_method_reads(tmp_path, monkeypatch, kind, n_eta, methods,
                                                 calls):
    # Calls of trim_expansion, variance_deconvolution and
    # pce_variance_unbiased in a study of 5 repetitions: each runs only
    # where a configured method reads it, and each repetition's unbiased
    # total is computed once.
    import uqpc.experiments as experiments

    names = ("trim_expansion", "variance_deconvolution", "pce_variance_unbiased")
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(experiments, name, counted(name, getattr(experiments, name)))
    config = load_config(write_config(
        tmp_path,
        materials_yaml(3) + "pce: {n0: 2}\n"
        f"study: {{kind: {kind}, n_xi_grid: [40], n_eta_grid: [{n_eta}], repetitions: 5, "
        f"methods: {methods}}}\n",
    ))
    run_study(config)
    assert tuple(counts[name] for name in names) == calls


def test_unpicklable_child_exception_becomes_runtime_error(tmp_path, monkeypatch):
    class LocalFailure(Exception):
        pass

    def fail():
        raise LocalFailure("cannot be pickled by reference")

    config = failing_study(tmp_path, monkeypatch, fail)
    with pytest.raises(RuntimeError, match="LocalFailure: cannot be pickled by reference"):
        run_study(config, workers=2)
    assert_no_child_left()


def test_child_killed_by_a_signal(tmp_path, monkeypatch):
    import signal

    def fail():
        os.kill(os.getpid(), signal.SIGKILL)

    config = failing_study(tmp_path, monkeypatch, fail)
    with pytest.raises(RuntimeError, match=r"worker process \d+ was killed by SIGKILL"):
        run_study(config, workers=2)
    assert_no_child_left()


def test_workers_need_fork(tmp_path, monkeypatch):
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study: {n_xi_grid: [20], n_eta_grid: [2], repetitions: 4}
    """)
    monkeypatch.delattr(os, "fork")
    out = tmp_path / "out"
    code, _, stderr = run_cli("run", "--config", str(path), "--out", str(out), "--workers", "2")
    assert code == 2
    assert "os.fork" in stderr
    assert not out.exists()
    code, _, _ = run_cli("run", "--config", str(path), "--out", str(out), "--workers", "1")
    assert code == 0


# ------------------------------------------------------------ buffer reuse


def materials_yaml(d: int) -> str:
    # d heterogeneous sections.
    return "problem:\n  materials:\n" + "".join(
        f"    - {{sigma0: {0.2 + 0.1 * i:.1f}, sigmaDelta: 0.15, dx: 0.5}}\n" for i in range(d)
    )


@pytest.mark.parametrize("d, n0, n_xi, n_eta", [(1, 4, 60, 2), (3, 6, 400, 1), (10, 3, 300, 2)])
def test_unit_fits_equal_fresh_fits(tmp_path, monkeypatch, d, n0, n_xi, n_eta):
    # The blocks of a work unit fit in the unit's shared buffer. Each
    # repetition must equal an independent fresh fit of its draw, and a
    # block returned early must not change while later blocks reuse it.
    import uqpc.experiments as experiments
    import uqpc.nisp as nisp
    from uqpc.nisp import TrainingData, build_surrogate

    config = load_config(write_config(
        tmp_path,
        materials_yaml(d) + f"pce: {{n0: {n0}}}\n"
        f"study: {{n_xi_grid: [{n_xi}], n_eta_grid: [{n_eta}], repetitions: 5}}\nseed: 41\n",
    ))
    basis = total_degree_multi_indices(d, n0)
    # Blocks of 2, 2 and 1 repetitions.
    monkeypatch.setattr(nisp, "BLOCK_BYTES", 2 * n_xi * 8 * max(
        len(basis.split[0]), (n0 + 1) * d))
    assert nisp.fit_buffers(basis, n_xi, 5).shape[1] == 2 * n_xi
    returned = []

    def estimate(config, data, basis, buffer):
        fit = build_surrogate(data, basis, full_covariance=False, buffer=buffer)
        returned.extend(zip(fit.coefficients.copy(), fit.coefficient_variance.copy()))
        return fit.unstack()

    fits = experiments._cell_chunk(config, estimate, basis, 0, range(5))
    assert len(fits) == 5
    for rep, (fit, (beta, var)) in enumerate(zip(fits, returned)):
        assert np.array_equal(fit.coefficients, beta)
        assert np.array_equal(fit.coefficient_variance, var)
        rng = derive_rng(config.master_seed, 0, rep)
        data = TrainingData(*experiments._draw_training(config, n_xi, n_eta, rng), n_eta)
        fresh = build_surrogate(data, basis, full_covariance=False)
        assert np.array_equal(fit.coefficients, fresh.coefficients)
        assert np.array_equal(fit.coefficient_variance, fresh.coefficient_variance)


def fresh_estimates(config, n_xi: int, n_eta: int, reps) -> np.ndarray:
    # Reference: each repetition drawn from its own stream and fitted alone
    # by build_surrogate, then estimated as the README describes. A row per
    # repetition and a column per config method, as the estimators return
    # them; var_deconv is NaN where it does not apply.
    import uqpc.experiments as experiments
    from uqpc.nisp import (
        TrainingData,
        build_surrogate,
        pce_variance_biased,
        pce_variance_unbiased,
        sobol_indices,
        trim_expansion,
        variance_deconvolution,
    )

    basis = total_degree_multi_indices(config.problem.d, config.n0)
    out = []
    for rep in reps:
        rng = derive_rng(config.master_seed, 0, rep)
        data = TrainingData(*experiments._draw_training(config, n_xi, n_eta, rng), n_eta)
        fit = build_surrogate(data, basis, full_covariance=False)
        deconv = None if data.sigma2eta is None else variance_deconvolution(data)
        target = pce_variance_unbiased(fit) if deconv is None else deconv
        trimmed = trim_expansion(fit, target)
        if config.kind == "variance":
            entry = {"pc_mc21": pce_variance_biased(fit), "pc_bias": pce_variance_unbiased(fit),
                     "pc_bias_trim": pce_variance_unbiased(trimmed),
                     "var_deconv": np.nan if deconv is None else deconv}
        else:
            entry = {}
            for method, surrogate in (("pc_bias", fit), ("pc_bias_trim", trimmed)):
                if surrogate.trimmed_mask[1:].any():
                    entry[method] = sobol_indices(surrogate)
                else:
                    entry[method] = np.full((2, config.problem.d), np.nan)
        out.append([entry[method] for method in config.methods])
    return np.array(out)


@pytest.mark.parametrize("kind, d, n0, n_xi, n_eta, noise_free, methods", [
    ("variance", 1, 5, 40, 1, False, None),
    ("variance", 1, 5, 40, 3, False, None),
    ("variance", 3, 6, 25, 1, False, None),
    ("variance", 3, 6, 60, 2, False, None),
    ("variance", 3, 6, 30, 4, True, None),
    ("variance", 10, 2, 50, 2, False, None),
    ("gsa", 3, 4, 50, 1, False, None),
    ("gsa", 3, 4, 50, 3, False, None),
    ("gsa", 10, 2, 200, 1, False, None),
    ("gsa", 10, 2, 200, 2, True, None),
    # Subsets of the methods: the trim without pc_bias, at n_eta = 1 (whose
    # target is then computed for the trim alone) and n_eta >= 2, and the
    # deconvolution without the trim.
    ("variance", 3, 4, 40, 1, False, "[pc_bias_trim]"),
    ("variance", 3, 4, 40, 3, False, "[pc_bias_trim]"),
    ("variance", 3, 4, 40, 2, False, "[var_deconv, pc_mc21]"),
    ("gsa", 3, 4, 50, 1, False, "[pc_bias_trim]"),
    ("gsa", 3, 4, 50, 3, False, "[pc_bias_trim]"),
])
def test_stacked_estimates_equal_per_repetition_fits(
    tmp_path, monkeypatch, kind, d, n0, n_xi, n_eta, noise_free, methods
):
    # A unit fitted one repetition per block, and the same unit fitted as
    # one block, give every estimate bit for bit as a fresh fit of each
    # repetition alone, for all of a kind's methods and for a subset;
    # records.csv and gsa.csv do not change either.
    import uqpc.experiments as experiments
    import uqpc.nisp as nisp

    reps = 9
    listed = "" if methods is None else f", methods: {methods}"
    config = load_config(write_config(
        tmp_path,
        materials_yaml(d) + f"pce: {{n0: {n0}}}\n"
        f"study: {{kind: {kind}, n_xi_grid: [{n_xi}], n_eta_grid: [{n_eta}], "
        f"repetitions: {reps}, noise_free: {str(noise_free).lower()}{listed}}}\nseed: 23\n",
    ))
    basis = total_degree_multi_indices(d, n0)
    estimate = experiments._STUDIES[kind][0]
    want = fresh_estimates(config, n_xi, n_eta, range(reps))
    files = {}
    for bound, block in ((1, 1), (2**40, reps)):
        monkeypatch.setattr(nisp, "BLOCK_BYTES", bound)
        assert nisp.fit_buffers(basis, n_xi, reps).shape[1] == block * n_xi
        got = experiments._cell_chunk(config, estimate, basis, 0, range(reps))
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        written = write_report(run_study(config), tmp_path / f"block{block}")
        files[block] = {p.name: p.read_bytes() for p in written if p.suffix == ".csv"}
    assert files[1] == files[reps]
    assert ("records.csv" if kind == "variance" else "gsa.csv") in files[1]


def test_variance_unit_memory_is_bounded(tmp_path):
    # One (2000, 100) variance unit needs less extra memory than one draw of
    # all its 2000 x 100 uniforms plus two (28 head terms) x 2000 arrays
    # (its fit buffer is one): a tally draw is one leak count per sample, and
    # a block of such a unit holds one repetition.
    import tracemalloc

    import uqpc.experiments as experiments
    import uqpc.nisp as nisp

    config = load_config(write_config(tmp_path, """\
    problem:
      materials:
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
    pce: {n0: 6}
    study: {n_xi_grid: [2000], n_eta_grid: [100], repetitions: 2}
    """))
    basis = total_degree_multi_indices(3, 6)
    assert nisp.fit_buffers(basis, 2000, 2).shape == (28, 2000)
    estimate = experiments._method_estimates
    experiments._cell_chunk(config, estimate, basis, 0, range(1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        experiments._cell_chunk(config, estimate, basis, 0, range(2))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2000 * 100 + 2 * 28 * 2000 * 8


def test_gsa_csv_independent_of_unit_split(tmp_path):
    # All 10 repetitions of a cell in one work unit at 1 worker,
    # every other one in each of two shares at 2 workers: the fit buffer
    # must carry nothing from one fit to the next.
    path = write_config(tmp_path, """\
    problem:
      materials:
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
        - {sigma0: 0.5, sigmaDelta: 0.2, dx: 0.5}
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
    pce: {n0: 4}
    study:
      kind: gsa
      n_xi_grid: [150, 300]
      n_eta_grid: [1, 2]
      repetitions: 10
    seed: 37
    """)
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        code, _, _ = run_cli("run", "--config", str(path), "--out", str(out),
                             "--workers", str(workers))
        assert code == 0
    assert (tmp_path / "w1" / "gsa.csv").read_bytes() == (tmp_path / "w2" / "gsa.csv").read_bytes()


# -------------------------------------------------------------- report writer


def csv_module_text(header, rows) -> bytes:
    # The reference rendering: the standard library's csv.writer in its
    # default (excel) dialect, encoded as the report files are.
    import csv

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def test_write_csv_matches_csv_module(tmp_path):
    # Non-finite values, signed zero, subnormals, large and inexact floats,
    # ints and every method name render as csv.writer renders them.
    from uqpc.experiments import _column, _write_csv

    floats = [float("nan"), float("inf"), float("-inf"), -0.0, 1e-05, 5e-324, 1e16, 0.1 + 0.2]
    ints = [0, 1, -7, 2000, 10**12, 3, 200, 42]
    methods = list(METHODS["variance"]) + list(METHODS["gsa"]) + ["pc_mc21", "var_deconv"]
    header = ["method", "count", "value"]
    columns = [methods, _column(np.array(ints)), _column(np.array(floats))]
    path = tmp_path / "columns.csv"
    _write_csv(path, header, [columns])
    assert path.read_bytes() == csv_module_text(header, zip(methods, ints, floats))
    # Blocks of rows join into the same file.
    _write_csv(path, header, [[c[:3] for c in columns], [c[3:] for c in columns]])
    assert path.read_bytes() == csv_module_text(header, zip(methods, ints, floats))


def test_records_and_density_csv_match_csv_module(tiny_variance_config, tmp_path, monkeypatch):
    # Blocks of 5 rows split records.csv over several writes.
    import uqpc.experiments as experiments

    monkeypatch.setattr(experiments, "BLOCK_ROWS", 5)
    report = run_study(tiny_variance_config)
    assert len(report.records) > 2 * 5
    out = tmp_path / "report"
    write_report(report, out)
    rows = [(r.n_xi, r.n_eta, r.method, r.repetition, r.estimate) for r in report.records]
    header = ["n_xi", "n_eta", "method", "repetition", "estimate"]
    assert (out / "records.csv").read_bytes() == csv_module_text(header, rows)
    keys = sorted({(r.n_xi, r.n_eta, r.method) for r in report.records})
    assert len(keys) == 7
    for n_xi, n_eta, method in keys:
        cell = report.records[(report.records.n_xi == n_xi) & (report.records.n_eta == n_eta)
                              & (report.records.method == method)]
        edges, density = emit_density(cell.estimate, tiny_variance_config.bins)
        rows = np.column_stack((edges[:-1], edges[1:], density)).tolist()
        text = csv_module_text(["bin_left", "bin_right", "density"], rows)
        assert (out / f"density_{n_xi}x{n_eta}_{method}.csv").read_bytes() == text


def test_gsa_csv_with_undefined_draws_matches_csv_module(tmp_path):
    # Few samples at n0 = 2 make the trim keep only the mean in some draws,
    # whose indices are recorded as NaN.
    path = write_config(tmp_path, """\
    problem:
      materials:
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
        - {sigma0: 0.5, sigmaDelta: 0.2, dx: 0.5}
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
    pce: {n0: 2}
    study:
      kind: gsa
      n_xi_grid: [10, 40]
      n_eta_grid: [1, 2]
      repetitions: 6
    seed: 5
    """)
    report = run_study(load_config(path))
    undefined = [np.isnan(g.first_order).all() for g in report.gsa_records]
    assert any(undefined) and not all(undefined)
    out = tmp_path / "gsa_report"
    write_report(report, out)
    header = ["n_xi", "n_eta", "method", "repetition", "s1", "s2", "s3", "st1", "st2", "st3"]
    rows = (
        [g.n_xi, g.n_eta, g.method, g.repetition] + g.first_order.tolist() + g.total.tolist()
        for g in report.gsa_records
    )
    assert (out / "gsa.csv").read_bytes() == csv_module_text(header, rows)


def test_gsa_draws_with_zero_total_contribution_are_undefined(tmp_path):
    # At n_xi = 40, n_eta = 1 some draws have every tally 0, so every
    # coefficient and variance is 0 and the indices are 0/0. They are
    # recorded as NaN, as mean-only trims are, and the study completes.
    import uqpc.experiments as experiments

    config = load_config(write_config(
        tmp_path,
        materials_yaml(10) + "pce: {n0: 2}\n"
        "study: {kind: gsa, n_xi_grid: [40], n_eta_grid: [1], repetitions: 200}\nseed: 23\n",
    ))
    report = run_study(config)
    zero = [
        not experiments._draw_training(config, 40, 1, derive_rng(23, 0, rep))[1].any()
        for rep in range(200)
    ]
    assert 0 < sum(zero) < 200
    untrimmed = [g for g in report.gsa_records if g.method == "pc_bias"]
    assert [np.isnan(g.first_order).all() for g in untrimmed] == zero
    assert all(np.isfinite(g.total).all() for g, z in zip(untrimmed, zero) if not z)
    assert report.summary["cells"][0]["methods"]["pc_bias"]["n_defined"] == 200 - sum(zero)


@pytest.mark.parametrize("kind, grid, method_cells, repetitions", [
    # 2 x 2 cells; var_deconv has no rows at n_eta = 1.
    ("variance", "n_xi_grid: [20, 30], n_eta_grid: [1, 2]", 14, (100, 400)),
    ("gsa", "n_xi_grid: [20, 30], n_eta_grid: [1, 2]", 8, (100, 400)),
    # One cell, where summarizing and histogramming a method's repetitions
    # weigh most against the table.
    ("variance", "n_xi_grid: [30], n_eta_grid: [2]", 4, (150, 600)),
    ("variance", "n_xi_grid: [30], n_eta_grid: [2], methods: [pc_bias]", 1, (150, 600)),
    ("gsa", "n_xi_grid: [30], n_eta_grid: [2]", 2, (150, 600)),
], ids=["variance", "gsa", "variance-one-cell", "pc_bias-one-cell", "gsa-one-cell"])
def test_result_table_within_its_memory_charge(
    tmp_path, monkeypatch, kind, grid, method_cells, repetitions
):
    # load_config charges a study what it holds per cell and repetition
    # (see _repetition_bytes): a table row per method, the estimates the
    # shares return, and the arrays that aggregate one method's
    # repetitions. Between the two repetition counts the traced peak of a
    # study, and that of writing its report, grows by no more than that
    # charge, and the table a finished study holds stays within it. Blocks
    # of at most two repetitions keep the fit's arrays, and blocks of 64
    # rows the CSV writes' strings, from growing with the repetitions.
    #
    # gc.collect() empties CPython's free list of 1-tuples, and every
    # Generator draw with an array argument leaves one more on it (48 B
    # traced) up to its cap of 2,000, so a study's draws would read as
    # about 48 B per repetition that the study does not hold. The list is
    # filled, untraced, before each measurement.
    import gc
    import tracemalloc

    import uqpc.experiments as experiments
    import uqpc.nisp as nisp

    monkeypatch.setattr(nisp, "BLOCK_BYTES", 2**12)
    monkeypatch.setattr(experiments, "BLOCK_ROWS", 2**6)
    draws, ones = np.random.default_rng(0), np.ones(1)

    def config(repetitions):
        return load_config(write_config(tmp_path, materials_yaml(3), f"""\
        pce: {{n0: 2}}
        study: {{kind: {kind}, {grid}, repetitions: {repetitions}}}
        seed: 43
        """))

    write_report(run_study(config(2)), tmp_path / "first")  # one-off allocations
    name = "records" if kind == "variance" else "gsa_records"
    peaks, charges = [], []
    for reps in repetitions:
        study = config(reps)
        cells = len(study.cells)
        charge = cells * reps * experiments._repetition_bytes(study)
        gc.collect()
        for _ in range(4000):
            draws.binomial(2, ones)
        tracemalloc.start()
        try:
            report = run_study(study)
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            write_report(report, tmp_path / f"out{reps}")
            peaks.append((run_peak, tracemalloc.get_traced_memory()[1]))
            table = getattr(report, name)
            assert len(table) == method_cells * reps
            size = len(table) * table.itemsize
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del table
            setattr(report, name, None)
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < size <= held <= charge
        charges.append(charge)
    for low, high in zip(*peaks):
        assert high - low <= charges[1] - charges[0]


def test_response_study_holds_fits_not_curves(tmp_path):
    # A response report holds per build its fit (two P x P covariances and
    # a few P-vectors) and nothing per grid point: the grid, its basis
    # values and the curves are derived as their files are written.
    # Per-point curves would hold 6 x 2001 floats, 96 kB, per build.
    import gc
    import tracemalloc

    def config(repetitions):
        return load_config(write_config(tmp_path, D1_PROBLEM, f"""\
        pce: {{n0: 6}}
        study: {{kind: response, n_xi_grid: [20], n_eta_grid: [2],
                repetitions: {repetitions}, response_points: 2001}}
        seed: 31
        """))

    run_study(config(2))  # one-off allocations of a first study
    builds, n_terms = 200, 7
    big = config(builds)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_study(big)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(report.surrogates) == builds
    assert held < builds * (2 * n_terms**2 + 32 * n_terms) * 8


def test_response_csv_matches_csv_module(tmp_path):
    # The study's grid and analytic curve are formatted once and shared by
    # every response file, and each build's curves are derived from its fit
    # and trim mask on the study's one grid basis.
    config = load_config(write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 4}
    study: {kind: response, n_xi_grid: [60], n_eta_grid: [2], repetitions: 3,
            response_points: 17}
    seed: 29
    """))
    report = run_study(config)
    grid = np.linspace(-1.0, 1.0, 17)
    psi = eval_basis_matrix(total_degree_multi_indices(1, 4), grid[:, None])
    analytic = transmittance_batch(config.problem, grid[:, None])
    out = tmp_path / "resp"
    write_report(report, out)
    header = ["xi", "predict", "band_lo", "band_hi", "analytic"]
    assert len(report.surrogates) == len(report.trimmed_masks) == 3
    for sample, (surrogate, mask) in enumerate(zip(report.surrogates, report.trimmed_masks)):
        for suffix, fit in (("", surrogate), ("_trim", replace(surrogate, trimmed_mask=mask))):
            mid = predict(fit, psi)
            half = 2.0 * prediction_stddev(fit, psi, use_noise_corrected=True)
            rows = np.column_stack((grid, mid, mid - half, mid + half, analytic)).tolist()
            text = csv_module_text(header, rows)
            assert (out / f"response_{sample}{suffix}.csv").read_bytes() == text


# ------------------------------------------------------------------------ cli


def run_cli(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def test_cli_run(tmp_path):
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study:
      kind: variance
      n_xi_grid: [50]
      n_eta_grid: [2]
      repetitions: 2
      methods: [pc_bias]
    """)
    out = tmp_path / "cli_out"
    code, stdout, _ = run_cli(
        "run", "--config", str(path), "--out", str(out), "--seed", "99"
    )
    assert code == 0
    assert (out / "summary.json").exists()
    assert (out / "records.csv").exists()
    assert "seed 99" in stdout
    assert json.loads((out / "summary.json").read_text())["master_seed"] == 99


def test_cli_oracle(tmp_path):
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 8}
    study: {n_xi_grid: [5], n_eta_grid: [1]}
    """)
    code, stdout, _ = run_cli("oracle", "--config", str(path))
    assert code == 0
    payload = json.loads(stdout)
    assert set(payload) == {
        "mean", "variance", "pc_mean", "pc_variance", "n0", "sobol_first", "sobol_total"
    }
    assert payload["n0"] == 8
    assert payload["mean"] == pytest.approx(np.exp(-1.0) * np.sinh(0.95) / 0.95, rel=1e-14)
    # the payload is the library's exact references, unchanged
    problem = load_config(path).problem
    beta = quadrature_coefficients(problem, total_degree_multi_indices(1, 8))
    first, total = exact_sobol(problem)
    assert (payload["mean"], payload["variance"]) == (exact_mean(problem), exact_variance(problem))
    assert payload["pc_mean"] == beta[0]
    assert (payload["sobol_first"], payload["sobol_total"]) == (first.tolist(), total.tolist())
    assert payload["pc_mean"] == pytest.approx(payload["mean"], abs=1e-12)
    assert payload["pc_variance"] == pytest.approx(payload["variance"], abs=1e-4)
    assert payload["sobol_first"] == [1.0]


@pytest.mark.parametrize("command", ["oracle", "run"])
def test_cli_closed_stdout_exits_without_traceback(tmp_path, command):
    # A reader that closed stdout (`uqpc oracle ... | head -3`) ends the
    # command with exit code 1 and no traceback on stderr.
    import subprocess
    from pathlib import Path

    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study: {n_xi_grid: [20], n_eta_grid: [2], repetitions: 2, methods: [pc_bias]}
    """)
    argv = ["--config", str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "uqpc.cli", command, *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode == 1


def test_cli_config_errors(tmp_path):
    bad = write_config(tmp_path, D1_PROBLEM + "study: {n_xi_grid: [5], n_eta_grid: [1]}\n")
    code, _, stderr = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    assert stderr.startswith("config error:")
    code, _, stderr = run_cli("oracle", "--config", str(tmp_path / "missing.yaml"))
    assert code == 2
    assert "config error" in stderr
    flat = write_config(tmp_path, """\
    problem:
      materials:
        - {sigma0: 1.0, sigmaDelta: 0.0, dx: 1.0}
    pce: {n0: 2}
    study: {n_xi_grid: [5], n_eta_grid: [1]}
    """, name="flat.yaml")
    code, stdout, stderr = run_cli("oracle", "--config", str(flat))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("config error:")
    good = write_config(tmp_path, D1_PROBLEM, "pce: {n0: 2}\n",
                        "study: {n_xi_grid: [5], n_eta_grid: [1]}\n", name="good.yaml")
    out = tmp_path / "negative_seed"
    code, stdout, stderr = run_cli("run", "--config", str(good), "--out", str(out), "--seed", "-1")
    assert (code, stdout) == (2, "")
    assert stderr.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, line", [
    ("--seed", "-1", "seed: 901157"),
    ("--repetitions", "0", "repetitions: 200"),
    # one repetition over the largest that d3_variance's memory charge accepts
    ("--repetitions", "22370", "repetitions: 200"),
])
def test_cli_override_fails_as_the_file_value(tmp_path, flag, value, line):
    # An override takes the place of the file's value before validation, so
    # it fails with the same exit code and config error line.
    from pathlib import Path

    shipped = Path(__file__).resolve().parent.parent / "configs" / "d3_variance.yaml"
    text = shipped.read_text(encoding="utf-8")
    assert text.count(line) == 1
    in_file = tmp_path / "in_file.yaml"
    in_file.write_text(text.replace(line, f"{line.split(':')[0]}: {value}"), encoding="utf-8")
    from_file = run_cli("run", "--config", str(in_file), "--out", str(tmp_path / "file"))
    from_cli = run_cli("run", "--config", str(shipped), "--out", str(tmp_path / "cli"),
                       flag, value)
    code, stdout, stderr = from_cli
    assert (code, stdout) == (2, "")
    assert stderr.startswith("config error:") and stderr.count("\n") == 1
    assert from_cli == from_file
    assert not (tmp_path / "cli").exists()


@pytest.mark.parametrize("problem, study", [
    # one parameter sample leaves the coefficient variances undefined
    (D1_PROBLEM, "study: {n_xi_grid: [50, 1], n_eta_grid: [1]}\n"),
    # a repeated method would duplicate its rows of records.csv
    (D1_PROBLEM, "study: {n_xi_grid: [50], n_eta_grid: [1], methods: [pc_bias, pc_bias]}\n"),
    # a repeated grid entry would duplicate its rows and lose its densities
    (D1_PROBLEM, "study: {n_xi_grid: [25, 25], n_eta_grid: [2]}\n"),
    (D1_PROBLEM, "study: {n_xi_grid: [25], n_eta_grid: [2, 2]}\n"),
    # NaN passes every ordering check of the problem
    ("problem:\n  materials:\n    - {sigma0: .nan, sigmaDelta: 0.5, dx: 1.0}\n",
     "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    # values that are not numbers
    ("problem:\n  materials:\n    - {sigma0: 1.0, sigmaDelta: 0.5, dx: abc}\n",
     "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    ("problem:\n  materials:\n    - {sigma0: null, sigmaDelta: 0.5, dx: 1.0}\n",
     "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    ("problem:\n  materials:\n    - {sigma0: 1.0, sigmaDelta: 0.5, dx: [1]}\n",
     "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    (D1_PROBLEM, "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"
     "cost: {total: [1], xi: 2.0, eta: 1.0}\n"),
    # a negative seed fails in SeedSequence only when the first stream is derived
    (D1_PROBLEM, "study: {n_xi_grid: [50], n_eta_grid: [1]}\nseed: -1\n"),
    # the exact mean and variance overflow to NaN, which the summary would
    # write for every bias and mse
    ("problem:\n  materials:\n    - {sigma0: 1.0e200, sigmaDelta: 1.0e200, dx: 1.0e200}\n"
     "    - {sigma0: 1.0, sigmaDelta: 0.5, dx: 1.0}\n",
     "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    # every sigmaDelta 0: the exact Sobol indices of the summary divide by 0
    ("problem:\n  materials:\n    - {sigma0: 1.0, sigmaDelta: 0.0, dx: 1.0}\n"
     "    - {sigma0: 0.3, sigmaDelta: 0.0, dx: 1.0}\n",
     "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    # d = 20, n0 = 10: about 3e7 basis terms, far past the array limit
    ("problem:\n  materials:\n" + "    - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}\n" * 20,
     "pce: {n0: 10}\nstudy: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    # a misspelt key would silently run the default 200 repetitions
    (D1_PROBLEM, "study: {n_xi_grid: [50], n_eta_grid: [1], repetiton: 5}\n"),
    (D1_PROBLEM, "study: {n_xi_grid: [50], n_eta_grid: [1]}\nseeds: 4\n"),
    ("problem:\n  materials:\n    - {sigma0: 1.0, sigmaDelta: 0.5, dx: 1.0, sigma: 2.0}\n",
     "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    (D1_PROBLEM, "pce: {n0: 2, q: 1}\nstudy: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    (D1_PROBLEM, "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"
     "cost: {total: 600.0, xi: 2.0, eta: 1.0, unit: s}\n"),
    # methods are parsed for a response study but never read
    (D1_PROBLEM, "study: {kind: response, n_xi_grid: [50], n_eta_grid: [2], methods: [pc_bias]}\n"),
    # the old range form and sigmaDelta alias are unknown keys
    ("problem:\n  materials:\n    - {lo: 0.01, hi: 0.59, sigma0: 5.0, sigmaDelta: 0.1,"
     " sigma_delta: 0.2, dx: 1.0}\n", "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    ("problem:\n  materials:\n    - {sigma0: 1.0, sigmaDelta: 0.1, sigma_delta: 0.9, dx: 1.0}\n",
     "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    # a leak count past 2**53 is not exact in float64; past 2**63 the draw
    # would raise OverflowError part-way through the run
    (D1_PROBLEM, f"study: {{n_xi_grid: [50], n_eta_grid: [{2**53 + 1}]}}\n"),
    (D1_PROBLEM, f"study: {{n_xi_grid: [50], n_eta_grid: [{10**30}]}}\n"),
    # a sample count of 10**309 next to a cost model would overflow float()
    # in the realized cost
    (D1_PROBLEM, f"study: {{n_xi_grid: [{10**309}], n_eta_grid: [1]}}\n"
     "cost: {total: 600.0, xi: 1.0, eta: 1.0}\n"),
])
def test_cli_rejects_config_before_running(tmp_path, problem, study):
    pce = "" if "pce:" in study else "pce: {n0: 2}\n"
    path = write_config(tmp_path, problem, pce, study)
    out = tmp_path / "out"
    code, stdout, stderr = run_cli("run", "--config", str(path), "--out", str(out))
    assert code == 2
    assert stderr.startswith("config error:")
    assert stdout == ""
    assert not out.exists()


def test_cli_refuses_repetitions_over_the_result_table_limit(tmp_path):
    path = write_config(tmp_path, D1_PROBLEM, "pce: {n0: 2}\n",
                        "study: {n_xi_grid: [5], n_eta_grid: [1]}\n")
    out = tmp_path / "out"
    code, stdout, stderr = run_cli("run", "--config", str(path), "--out", str(out),
                                   "--repetitions", str(10**8))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("config error: result table")
    assert not out.exists()


@pytest.mark.parametrize("blocker", ["file", "parent_file"])
def test_cli_refuses_unusable_out_before_running(tmp_path, monkeypatch, blocker):
    # An output path that cannot be a directory fails before the study runs.
    import uqpc.cli

    def fail(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(uqpc.cli, "run_study", fail)
    path = write_config(tmp_path, D1_PROBLEM, "pce: {n0: 2}\n",
                        "study: {n_xi_grid: [5], n_eta_grid: [1], repetitions: 2}\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken if blocker == "file" else taken / "out"
    code, stdout, stderr = run_cli("run", "--config", str(path), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("output error:")
    assert taken.read_text() == ""


def test_cli_writes_into_an_existing_out_directory(tmp_path):
    # Creating --out before the study runs still accepts a directory that
    # is already there.
    path = write_config(tmp_path, D1_PROBLEM, "pce: {n0: 2}\n",
                        "study: {n_xi_grid: [5], n_eta_grid: [1], repetitions: 2}\n")
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, stderr = run_cli("run", "--config", str(path), "--out", str(out))
    assert (code, stderr) == (0, "")
    assert (out / "summary.json").is_file()
    assert (out / "records.csv").is_file()


def test_variance_records_independent_of_blas_threads(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = write_config(tmp_path, """\
    problem:
      materials:
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
        - {sigma0: 0.3, sigmaDelta: 0.29, dx: 1.0}
    pce: {n0: 4}
    study:
      kind: variance
      n_xi_grid: [25, 300]
      n_eta_grid: [1, 4]
      repetitions: 3
    seed: 5
    """)
    # A d=10, n0=3 GSA fit at n_xi=2000: a shape where a gemm contraction of
    # the head terms gives different last bits at 1 and 2 BLAS threads.
    gsa_path = write_config(tmp_path, "problem:\n  materials:\n" + "".join(
        f"    - {{sigma0: {0.2 + 0.1 * m:.1f}, sigmaDelta: 0.15, dx: 0.3}}\n" for m in range(10)
    ), """\
    pce: {n0: 3}
    study:
      kind: gsa
      n_xi_grid: [2000]
      n_eta_grid: [1]
      repetitions: 2
    seed: 6
    """, name="gsa.yaml")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for config, report in ((path, "records.csv"), (gsa_path, "gsa.csv")):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"{config.stem}{threads}"
            subprocess.run(
                [sys.executable, "-m", "uqpc.cli", "run", "--config", str(config),
                 "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            outputs.append((out / report).read_bytes())
        assert outputs[0] == outputs[1]


# sha256 of the report files of the shipped configs at a fixed seed and
# repetition count. Every report byte is a pure function of the seed, and
# variance and GSA fits are BLAS-free, so these hold at any worker or
# thread count; a change that moves them changes a random stream or an
# output and must say so. A response build's covariance is a BLAS product
# of its 2000 x 7 basis matrix, a slice of its block's; its digests were the
# same at 1 and 2 BLAS threads and at 1 and 2 workers, and CI compares the
# reports of 8 builds at 1 and 2 BLAS threads. Tallies at n_eta >= 2 are NumPy
# Generator.binomial draws, so the variance and response digests also
# depend on the NumPy version that draws them (recorded with numpy 2.4.6).
# Two entries are not one file: "density_*.csv" digests every density file,
# name then bytes, in sorted order, and "wrote" the CLI's `wrote` lines in
# the order printed, each path relative to --out.
GOLDEN_DIGESTS = {
    ("d1_response.yaml", "4244", "3"): {
        "summary.json": "b5afa163b8d0df6ecef57ec59fe4a01615b0ecab777fe5c7b3a09f5d02ab73a9",
        "response_0.csv": "f5e1d1d1acc9e257b3965324e2d80b9cd305863c147cb7185a2918f795614f0c",
        "response_0_trim.csv": "1b5f66a4492b9710cb73156999fa2fea551b0b4026477b2cfba2ad767174742e",
        "surrogate_0.json": "17d827d082729250b1ddcc63205e3e124b8a681ac98fb9750dfafb5aedcda9cb",
        "wrote": "1a2a3b89c002b507a58fec4a0e0feabf021d0d1a7726fcea79306800a2d4f771",
    },
    ("d3_variance.yaml", "4242", "3"): {
        "records.csv": "8f268e76be2dda672d720e2545b586a6475d1a70d8bcaac61e20f1cb0c0bfac2",
        "summary.json": "fbfe1267776d5e9d3930d53e271fae0ae3ecab343df89b8a03ef40ae22740126",
        "density_*.csv": "c8f588e94bf1a3de0c75aba7da0e6dc19426cc1deab4b885663b472072196c6a",
        "wrote": "e5535e4801c39170dfedddc6d39138e84d48b8d562cfaf872cc69f3daae4f80d",
    },
    ("d3_gsa.yaml", "4243", "8"): {
        "gsa.csv": "e5cf62cbd6dc05a398623554d6a7924ccaaf39e4d6e1f673bfd19637a4d203a1",
        "summary.json": "0fab709ba4f72a5887cbf5e7ff58c04c05e9f23669ff4f347f9ce3dfd0d5f4bd",
    },
}


@pytest.mark.parametrize("config, seed, repetitions", sorted(GOLDEN_DIGESTS))
def test_shipped_config_reports_match_golden_digests(tmp_path, config, seed, repetitions):
    import hashlib
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "configs" / config
    out = tmp_path / "out"
    code, stdout, _ = run_cli("run", "--config", str(path), "--out", str(out),
                              "--seed", seed, "--repetitions", repetitions)
    assert code == 0

    def digest(name):
        if name == "wrote":
            wrote = [Path(line.removeprefix("wrote ")).relative_to(out)
                     for line in stdout.splitlines() if line.startswith("wrote ")]
            return hashlib.sha256("".join(f"{p}\n" for p in wrote).encode()).hexdigest()
        if "*" not in name:
            return hashlib.sha256((out / name).read_bytes()).hexdigest()
        h = hashlib.sha256()
        for file in sorted(out.glob(name)):
            h.update(file.name.encode() + b"\n" + file.read_bytes())
        return h.hexdigest()

    digests = {name: digest(name) for name in GOLDEN_DIGESTS[(config, seed, repetitions)]}
    assert digests == GOLDEN_DIGESTS[(config, seed, repetitions)]


def test_cli_argument_errors(tmp_path):
    path = write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 2}
    study: {n_xi_grid: [5], n_eta_grid: [1]}
    """)
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--config", str(path), "--out", str(tmp_path / "x"), "--workers", "0")
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run_cli()
