import contextlib
import io
import json
import textwrap

import numpy as np
import pytest

from uqpc.cli import main
from uqpc.costmodel import CostModel
from uqpc.experiments import (
    GSA_METHODS,
    METHODS,
    ConfigError,
    apply_overrides,
    derive_rng,
    emit_density,
    load_config,
    run_study,
    write_report,
)
from uqpc.nisp import load_surrogate, predict
from uqpc.oracle import exact_mean, exact_sobol, exact_variance, quadrature_coefficients
from uqpc.polybasis import total_degree_multi_indices
from uqpc.transport import transmittance_batch

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
    assert config.n_xi_grid == (100, 200)
    assert config.n_eta_grid == (1, 10)
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
    assert config.methods == METHODS
    assert config.master_seed == 0
    assert config.noise_free is False
    assert config.bins == 40
    assert config.response_points == 201
    assert config.cost is None


def test_load_config_gsa_defaults(tmp_path):
    path = write_config(tmp_path, """\
    problem:
      materials:
        - {lo: 0.01, hi: 0.59, dx: 1.0}
        - {sigma0: 0.3, sigma_delta: 0.29, dx: 1.0}
    pce: {n0: 3}
    study:
      kind: gsa
      n_xi_grid: [100]
      n_eta_grid: [1]
    """)
    config = load_config(path)
    assert config.methods == GSA_METHODS
    # lo/hi midpoint and half-width spelling
    assert config.problem.sigma0 == pytest.approx([0.3, 0.3])
    assert config.problem.sigma_delta == pytest.approx([0.29, 0.29])


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
    # lo/hi endpoints in the wrong order
    "problem:\n  materials:\n    - {lo: 0.59, hi: 0.01, dx: 1.0}\npce: {n0: 2}\n"
    "study: {n_xi_grid: [5], n_eta_grid: [1]}\n",
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
    # two forms of one material: one of them would be silently dropped
    "problem:\n  materials:\n    - {lo: 0.01, hi: 0.59, sigma0: 5.0, sigmaDelta: 0.1,"
    " sigma_delta: 0.2, dx: 1.0}\npce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    "problem:\n  materials:\n    - {lo: 0.01, hi: 0.59, sigma_delta: 0.2, dx: 1.0}\n"
    "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    "problem:\n  materials:\n    - {sigma0: 1.0, sigmaDelta: 0.1, sigma_delta: 0.9, dx: 1.0}\n"
    "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1]}\n",
    # arrays over the 256 MiB limit: 1.6 GB of uniforms for one tally draw,
    # a 5.6 GB response-grid basis, 8 GB of histogram edges
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [2000], n_eta_grid: [100000]}\n",
    D1_PROBLEM + "pce: {n0: 6}\n"
    "study: {kind: response, n_xi_grid: [5], n_eta_grid: [2], response_points: 100000000}\n",
    D1_PROBLEM + "pce: {n0: 2}\nstudy: {n_xi_grid: [5], n_eta_grid: [1], bins: 1000000000}\n",
])
def test_load_config_rejects(tmp_path, body):
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError):
        load_config(path)


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
    config = load_config(path)
    same = apply_overrides(config)
    assert (same.master_seed, same.repetitions) == (9, 200)
    changed = apply_overrides(config, seed=1, repetitions=3)
    assert (changed.master_seed, changed.repetitions) == (1, 3)
    with pytest.raises(ConfigError):
        apply_overrides(config, repetitions=0)


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
    hist = emit_density([0.7, 0.7, 0.7], bins=5)
    assert hist.edges == pytest.approx([0.2, 1.2])
    assert hist.density == pytest.approx([1.0])


def test_emit_density_by_hand():
    hist = emit_density([0.0, 1.0], bins=2)
    assert hist.edges == pytest.approx([0.0, 0.5, 1.0])
    assert hist.density == pytest.approx([1.0, 1.0])


def test_emit_density_integrates_to_one(rng):
    values = rng.normal(size=500)
    hist = emit_density(values, bins=17)
    widths = np.diff(hist.edges)
    assert float(hist.density @ widths) == pytest.approx(1.0, abs=1e-12)
    assert len(hist.density) == 17


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


def test_variance_study_records(tiny_variance_config):
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
    assert set(report.densities) == {
        (50, 1, "pc_mc21"), (50, 1, "pc_bias"), (50, 1, "pc_bias_trim"),
        (50, 2, "pc_mc21"), (50, 2, "pc_bias"), (50, 2, "pc_bias_trim"),
        (50, 2, "var_deconv"),
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
    for method in GSA_METHODS:
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
    assert np.array_equal(predict(surrogate, grid[:, None]), mid)
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


def test_pool_size_and_basis_follow_the_study(tmp_path, monkeypatch):
    # A fork pool starts all its workers at the first submit, so 8 workers
    # for 5 single-build units would leave 3 idle; and the study's one basis
    # serves every unit. A stand-in executor records the pool size and runs
    # each unit inline.
    import uqpc.experiments as experiments
    from concurrent.futures import Future

    sizes, bases = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    def counted_basis(d, n0):
        bases.append((d, n0))
        return total_degree_multi_indices(d, n0)

    config = load_config(write_config(tmp_path, D1_PROBLEM, """\
    pce: {n0: 4}
    study: {kind: response, n_xi_grid: [50], n_eta_grid: [3], repetitions: 5,
            response_points: 11}
    """))
    serial = run_study(config)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(experiments, "total_degree_multi_indices", counted_basis)
    pooled = run_study(config, workers=8)
    assert sizes == [5]
    assert bases == [(1, 4)]
    assert pooled.summary == serial.summary
    for a, b in zip(pooled.surrogates, serial.surrogates):
        assert np.array_equal(a.coefficient_covariance, b.coefficient_covariance)


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


@pytest.mark.parametrize("problem, study", [
    # one parameter sample leaves the coefficient variances undefined
    (D1_PROBLEM, "study: {n_xi_grid: [50, 1], n_eta_grid: [1]}\n"),
    # a repeated method would duplicate its rows of records.csv
    (D1_PROBLEM, "study: {n_xi_grid: [50], n_eta_grid: [1], methods: [pc_bias, pc_bias]}\n"),
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
    # a material in two forms would lose the values of one
    ("problem:\n  materials:\n    - {lo: 0.01, hi: 0.59, sigma0: 5.0, sigmaDelta: 0.1,"
     " sigma_delta: 0.2, dx: 1.0}\n", "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
    ("problem:\n  materials:\n    - {sigma0: 1.0, sigmaDelta: 0.1, sigma_delta: 0.9, dx: 1.0}\n",
     "study: {n_xi_grid: [50], n_eta_grid: [1]}\n"),
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
