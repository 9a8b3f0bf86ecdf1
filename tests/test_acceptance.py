"""Full-pipeline acceptance checks at desk scale.

Every test prints one machine-readable line, "criterion N: PASS - detail" or
"criterion N: FAIL - detail" (pytest runs with -s, so the lines always show),
then asserts. Statistical gates run on frozen seeds; tolerances were checked
to hold with headroom, and the 3-standard-error gates are self-calibrating.
"""

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from uqpc.cli import main
from uqpc.costmodel import (
    CoefficientMoments,
    CostModel,
    break_even_nested,
    coefficient_variance_model,
    samples_for_budget,
)
from uqpc.experiments import METHODS, StudyConfig, run_study, write_report
from uqpc.nisp import TrainingData, build_surrogate, predict, prediction_stddev
from uqpc.oracle import coefficient_moments_exact, exact_sobol, exact_variance
from uqpc.polybasis import eval_basis_matrix, total_degree_multi_indices
from uqpc.transport import (
    SlabProblem,
    sample_parameters,
    simulate_training_set,
    transmittance_batch,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

D1 = SlabProblem(sigma0=[1.0], sigma_delta=[0.95], dx=[1.0])
D3 = SlabProblem(sigma0=[0.3] * 3, sigma_delta=[0.29] * 3, dx=[1.0] * 3)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def large_sample_study():
    # shared by criteria 4, 5 and 9: d=3, (2000) x (2, 50), 200 repetitions,
    # all four methods
    config = StudyConfig(
        problem=D3,
        n0=6,
        kind="variance",
        cells=((2000, 2), (2000, 50)),
        repetitions=200,
        methods=tuple(METHODS["variance"]),
        cost=None,
        master_seed=901157,
    )
    t0 = time.perf_counter()
    report = run_study(config, workers=2)
    return config, report, time.perf_counter() - t0


def _method_estimates(report, n_eta, method):
    return np.array(
        [r.estimate for r in report.records if r.n_eta == n_eta and r.method == method]
    )


def _z_score(estimates, exact):
    se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    return (estimates.mean() - exact) / se


def test_criterion_1_oracle_closed_forms():
    t0 = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["oracle", "--config", str(CONFIG_DIR / "d1_oracle.yaml")])
    elapsed = time.perf_counter() - t0
    payload = json.loads(out.getvalue())
    mean_cf = math.exp(-1.0) * math.sinh(0.95) / 0.95
    var_cf = math.exp(-2.0) * math.sinh(1.9) / 1.9 - mean_cf**2
    checks = {
        "exit": code == 0,
        "mean": abs(payload["mean"] - mean_cf) <= 1e-12 * mean_cf,
        "variance": abs(payload["variance"] - var_cf) <= 1e-12 * var_cf,
        "pc_mean": abs(payload["pc_mean"] - mean_cf) <= 1e-12,
        "pc_variance": abs(payload["pc_variance"] - var_cf) <= 1e-6,
        "runtime": elapsed < 1.0,
    }
    failed = [name for name, ok in checks.items() if not ok]
    _report(
        1,
        not failed,
        f"closed forms at n0=12 (mean to 1e-12, variance to 1e-6), {elapsed:.2f}s"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_2_transport_matches_analytic():
    t0 = time.perf_counter()
    n_eta = 10**6
    rng = np.random.default_rng(202601)
    xis = sample_parameters(D3, 10, rng)
    worst = 0.0
    for xi in xis:
        p = float(transmittance_batch(D3, xi[None])[0])
        qtilde, _ = simulate_training_set(D3, xi[None], n_eta, rng)
        se = math.sqrt(p * (1.0 - p) / n_eta)
        worst = max(worst, abs(float(qtilde[0]) - p) / se)
    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst <= 3.0,
        f"10 draws at 1e6 histories, worst |z| = {worst:.2f} (gate 3), {elapsed:.1f}s",
    )


def test_criterion_3_small_sample_bias():
    t0 = time.perf_counter()
    config = StudyConfig(
        problem=D3,
        n0=6,
        kind="variance",
        cells=((25, 1),),
        repetitions=500,
        methods=("pc_mc21", "pc_bias"),
        cost=None,
        master_seed=901157,
    )
    report = run_study(config, workers=2)
    exact = exact_variance(D3)
    z_plugin = _z_score(_method_estimates(report, 1, "pc_mc21"), exact)
    z_corrected = _z_score(_method_estimates(report, 1, "pc_bias"), exact)
    elapsed = time.perf_counter() - t0
    _report(
        3,
        z_plugin > 3.0 and abs(z_corrected) <= 3.0,
        f"plug-in bias z = +{z_plugin:.1f} (needs > 3), corrected z = {z_corrected:+.2f} "
        f"(gate |z| <= 3), {elapsed:.1f}s",
    )


def test_criterion_4_large_sample_agreement(large_sample_study):
    _, report, elapsed = large_sample_study
    exact = exact_variance(D3)
    zs = {
        method: _z_score(_method_estimates(report, 2, method), exact)
        for method in ("pc_bias", "pc_bias_trim", "var_deconv")
    }
    trimmed = np.concatenate(
        [_method_estimates(report, n_eta, "pc_bias_trim") for n_eta in (2, 50)]
    )
    worst = max(abs(z) for z in zs.values())
    _report(
        4,
        worst <= 3.0 and trimmed.min() >= 0.0,
        f"(2000, 2) worst |z| = {worst:.2f} over pc_bias/pc_bias_trim/var_deconv "
        f"(gate 3), min trimmed estimate = {trimmed.min():.2e} (needs >= 0), {elapsed:.1f}s",
    )


def test_criterion_5_mse_ordering(large_sample_study):
    _, report, _ = large_sample_study
    exact = exact_variance(D3)

    def mse_of(n_eta, method):
        est = _method_estimates(report, n_eta, method)
        return float(np.mean((est - exact) ** 2))

    trim_2, deconv_2 = mse_of(2, "pc_bias_trim"), mse_of(2, "var_deconv")
    trim_50, deconv_50 = mse_of(50, "pc_bias_trim"), mse_of(50, "var_deconv")
    under_resolved = trim_2 < deconv_2
    resolved = deconv_50 <= 1.5 * trim_50
    _report(
        5,
        under_resolved and resolved,
        f"n_eta=2: trim {trim_2:.2e} < deconv {deconv_2:.2e}; "
        f"n_eta=50: deconv {deconv_50:.2e} <= 1.5 x trim {trim_50:.2e}",
    )


def test_criterion_6_cost_model():
    t0 = time.perf_counter()
    basis = total_degree_multi_indices(1, 6)
    var_qpsi, noise = coefficient_moments_exact(D1, basis)
    mom = CoefficientMoments(var_qpsi=var_qpsi[0], noise_term=noise[0], b_k=1.0)

    def empirical_variance(cost, n_eta, reps, rng):
        # mean-term estimator: Psi_0 = 1 and b_0 = 1, so beta_0 is the plain
        # average of the per-sample tallies
        n_xi = round(samples_for_budget(cost, n_eta))
        est = np.empty(reps)
        for r in range(reps):
            xis = sample_parameters(D1, n_xi, rng)
            qt, _ = simulate_training_set(D1, xis, n_eta, rng)
            est[r] = qt.mean()
        return float(est.var(ddof=1))

    # equal-budget variance curve against the closed-form model
    cost = CostModel(c_total=2310.0, c_xi=5.0, c_eta=1.0)
    rng = np.random.default_rng(515001)
    worst_rel = 0.0
    for n_eta in (1, 2, 10, 50):
        emp = empirical_variance(cost, n_eta, 3000, rng)
        model = coefficient_variance_model(cost, mom, n_eta)
        worst_rel = max(worst_rel, abs(emp / model - 1.0))
    curve_ok = worst_rel <= 0.10

    # direct-vs-nested winner must flip exactly at the predicted threshold
    rng = np.random.default_rng(515002)
    mismatches = []
    for c_xi, c_total, probes in (
        (0.0, 600.0, (2, 10)),
        (1.0, 1320.0, (2, 10)),
        (5.0, 1320.0, (10, 50)),
    ):
        bcost = CostModel(c_total=c_total, c_xi=c_xi, c_eta=1.0)
        threshold = break_even_nested(bcost, mom)
        emp = {n: empirical_variance(bcost, n, 10_000, rng) for n in (1,) + probes}
        for n_eta in probes:
            if (n_eta > threshold) != (emp[1] < emp[n_eta]):
                mismatches.append((c_xi, n_eta))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        curve_ok and not mismatches,
        f"model curve worst deviation {worst_rel:.1%} (gate 10%); break-even "
        f"directions {'all match' if not mismatches else f'wrong at {mismatches}'}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_prediction_band_calibration():
    t0 = time.perf_counter()
    basis = total_degree_multi_indices(1, 6)
    points = np.array([[-0.96], [-0.44], [-0.36], [-0.28], [-0.20]])
    psi = eval_basis_matrix(basis, points)
    rng = np.random.default_rng(424250)
    reps = 10_000
    preds = np.empty((reps, len(points)))
    stddevs = np.empty_like(preds)
    for r in range(reps):
        xis = sample_parameters(D1, 2000, rng)
        qt, s2 = simulate_training_set(D1, xis, 50, rng)
        s = build_surrogate(TrainingData(xis, qt, s2, 50), basis)
        preds[r] = predict(s, psi)
        stddevs[r] = prediction_stddev(s, psi)
    rel = np.abs(stddevs.mean(axis=0) / preds.std(axis=0, ddof=1) - 1.0)
    elapsed = time.perf_counter() - t0
    _report(
        7,
        bool(np.all(rel <= 0.10)),
        f"reported vs observed prediction stddev, worst mismatch {rel.max():.1%} "
        f"over 5 points (gate 10%), {elapsed:.0f}s",
    )


def test_criterion_8_gsa_symmetry():
    t0 = time.perf_counter()
    config = StudyConfig(
        problem=D3,
        n0=6,
        kind="gsa",
        cells=((2000, 1),),
        repetitions=200,
        methods=("pc_bias_trim",),
        cost=None,
        master_seed=660405,
    )
    report = run_study(config, workers=2)
    firsts = np.array([g.first_order for g in report.gsa_records])
    totals = np.array([g.total for g in report.gsa_records])
    defined = not (np.isnan(firsts).any() or np.isnan(totals).any())
    exact_first, exact_total = exact_sobol(D3)
    mean_f = firsts.mean(axis=0)
    pair = max(
        abs(mean_f[i] - mean_f[j]) for i in range(3) for j in range(i + 1, 3)
    )
    z_f = (mean_f - exact_first) / (firsts.std(axis=0, ddof=1) / math.sqrt(len(firsts)))
    z_t = (totals.mean(axis=0) - exact_total) / (
        totals.std(axis=0, ddof=1) / math.sqrt(len(totals))
    )
    worst_z = max(np.abs(z_f).max(), np.abs(z_t).max())
    elapsed = time.perf_counter() - t0
    _report(
        8,
        defined and pair <= 0.02 and worst_z <= 3.0,
        f"largest pairwise first-order gap {pair:.4f} (gate 0.02), worst |z| vs "
        f"oracle {worst_z:.2f} (gate 3), {elapsed:.1f}s",
    )


def test_criterion_9_worker_count_determinism(large_sample_study, tmp_path):
    config, parallel_report, _ = large_sample_study
    t0 = time.perf_counter()
    serial_report = run_study(config, workers=1)
    write_report(parallel_report, tmp_path / "parallel")
    write_report(serial_report, tmp_path / "serial")
    same = (tmp_path / "parallel" / "records.csv").read_bytes() == (
        tmp_path / "serial" / "records.csv"
    ).read_bytes()
    elapsed = time.perf_counter() - t0
    _report(
        9,
        same,
        f"records.csv byte-identical across 2 vs 1 workers, {elapsed:.1f}s",
    )
