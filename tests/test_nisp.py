import numpy as np
import pytest

from uqpc.nisp import (
    PceSurrogate,
    TrainingData,
    build_surrogate,
    fit_buffers,
    load_surrogate,
    pce_variance_biased,
    pce_variance_unbiased,
    predict,
    prediction_stddev,
    save_surrogate,
    sobol_indices,
    trim_expansion,
    variance_deconvolution,
)
from uqpc.oracle import exact_variance, quadrature_coefficients
from uqpc.polybasis import eval_basis_matrix, total_degree_multi_indices
from uqpc.transport import (
    SlabProblem,
    sample_parameters,
    simulate_training_set,
    transmittance_batch,
)


def make_surrogate(basis, beta, cov=None, noise_cov=None, mask=None, n_xi=100, n_eta=1,
                   var=None):
    # Variances default to the covariance diagonal, as a fit stores them,
    # or to zeros, those of exact coefficients.
    beta = np.asarray(beta, dtype=float)
    if mask is None:
        mask = np.ones(len(basis), dtype=bool)
    if var is None:
        var = np.zeros(beta.shape) if cov is None else np.diag(cov)
    return PceSurrogate(
        basis=basis,
        coefficients=beta,
        coefficient_covariance=cov,
        noise_corrected_covariance=noise_cov,
        trimmed_mask=mask,
        n_xi=n_xi,
        n_eta=n_eta,
        coefficient_variance=var,
    )


# ---------------------------------------------------------------- containers


def test_training_data_validation():
    # Each invalid case has two samples, so it fails on its own check.
    xs = [[0.1], [0.2]]
    with pytest.raises(ValueError, match="does not match"):
        TrainingData(samples=xs, qtilde=[1.0], sigma2eta=None, n_eta=1)
    with pytest.raises(ValueError, match="n_eta must be"):
        TrainingData(samples=xs, qtilde=[1.0, 0.5], sigma2eta=None, n_eta=0)
    with pytest.raises(ValueError, match="sigma2eta required"):
        TrainingData(samples=xs, qtilde=[1.0, 0.5], sigma2eta=None, n_eta=2)
    with pytest.raises(ValueError, match="must be None"):
        TrainingData(samples=xs, qtilde=[1.0, 0.5], sigma2eta=[0.1, 0.1], n_eta=1)
    with pytest.raises(ValueError, match="nonnegative"):
        TrainingData(samples=xs, qtilde=[1.0, 0.5], sigma2eta=[0.1, -0.1], n_eta=2)
    with pytest.raises(ValueError, match="sigma2eta shape"):
        TrainingData(samples=xs, qtilde=[1.0, 0.5], sigma2eta=[0.1, 0.2, 0.3], n_eta=2)
    # A block of no runs, each of five samples.
    with pytest.raises(ValueError, match="at least one run, got 0"):
        TrainingData(samples=np.zeros((0, 5, 2)), qtilde=np.zeros((0, 5)), sigma2eta=None,
                     n_eta=1)
    data = TrainingData(samples=[[0.1, 0.2], [0.3, 0.4]], qtilde=[1.0, 0.0],
                        sigma2eta=[0.1, 0.2], n_eta=4)
    assert data.n_xi == 2
    assert data.d == 2


def test_surrogate_validation():
    basis = total_degree_multi_indices(1, 1)
    with pytest.raises(ValueError):
        make_surrogate(basis, [1.0])
    with pytest.raises(ValueError):
        make_surrogate(basis, [1.0, 2.0], mask=np.array([True]))
    with pytest.raises(ValueError):
        make_surrogate(basis, [1.0, 2.0], mask=np.array([False, True]))
    with pytest.raises(ValueError):
        make_surrogate(basis, [1.0, 2.0], cov=np.zeros((3, 3)), var=np.zeros(2))
    with pytest.raises(ValueError):
        make_surrogate(basis, [1.0, 2.0], var=np.zeros(3))
    s = make_surrogate(basis, [1.0, 2.0], mask=np.array([True, False]))
    assert s.n_retained == 1
    # every surrogate carries its variances, stored as given
    with pytest.raises(TypeError):
        PceSurrogate(basis, [1.0, 2.0], None, None, [True, True], 100, 1)
    with_cov = make_surrogate(basis, [1.0, 2.0], cov=np.array([[0.1, 0.2], [0.2, 0.3]]),
                              var=[0, 1])
    assert with_cov.coefficient_variance.dtype == float
    assert with_cov.coefficient_variance.tolist() == [0.0, 1.0]


def test_block_containers():
    # A block stacks runs (and fits) of one n_xi along a leading axis; its
    # checks cover every run, and unstack returns the runs as views.
    x = np.linspace(-1, 1, 12).reshape(2, 3, 2)
    q = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 1.0]])
    s2 = np.full((2, 3), 0.25)
    block = TrainingData(x, q, s2, 4)
    assert (block.n_xi, block.d) == (3, 2)
    runs = block.unstack()
    assert len(runs) == 2
    assert np.shares_memory(runs[1].qtilde, q)
    assert np.array_equal(runs[1].samples, x[1]) and np.array_equal(runs[1].sigma2eta, s2[1])
    assert [r.sigma2eta for r in TrainingData(x, q, None, 1).unstack()] == [None, None]
    bad_s2 = s2.copy()
    bad_s2[1, 2] = -0.1
    for args in ((x, q[:, :2], s2, 4), (x, q, bad_s2, 4), (x, q, s2[0], 4),
                 (x[None], q[None], None, 1), (x[:0], q[:0], None, 1)):
        with pytest.raises(ValueError):
            TrainingData(*args)
    with pytest.raises(ValueError):
        runs[0].unstack()

    basis = total_degree_multi_indices(1, 1)
    beta = np.array([[1.0, 2.0], [3.0, 4.0]])
    fits = make_surrogate(basis, beta, var=np.full((2, 2), 0.5),
                          mask=np.ones((2, 2), dtype=bool)).unstack()
    assert [f.coefficients.tolist() for f in fits] == beta.tolist()
    assert all(f.coefficient_variance.tolist() == [0.5, 0.5] for f in fits)
    with pytest.raises(ValueError):
        make_surrogate(basis, beta, mask=np.array([[True, True], [False, True]]))
    with pytest.raises(ValueError):
        make_surrogate(basis, beta, mask=np.ones(2, dtype=bool))
    with pytest.raises(ValueError):
        make_surrogate(basis, beta, mask=np.ones((2, 2), dtype=bool), cov=np.eye(2),
                       var=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        make_surrogate(basis, beta, mask=np.ones((2, 2), dtype=bool), var=np.ones(2))
    with pytest.raises(ValueError):
        fits[0].unstack()


# ------------------------------------------------------------------- fitting


def test_coefficients_by_hand():
    # two samples, n0 = 1: beta_0 = mean(qtilde), beta_1 = 3 mean(xi qtilde)
    basis = total_degree_multi_indices(1, 1)
    data = TrainingData(samples=[[-0.5], [0.5]], qtilde=[1.0, 0.0], sigma2eta=None, n_eta=1)
    s = build_surrogate(data, basis, full_covariance=False)
    assert s.coefficients == pytest.approx([0.5, -0.75], abs=1e-15)
    assert s.coefficient_covariance is None
    assert s.noise_corrected_covariance is None
    # see test_covariance_by_hand for the diagonal
    assert s.coefficient_variance == pytest.approx([0.25, 0.5625], abs=1e-15)
    assert s.trimmed_mask.all()
    assert (s.n_xi, s.n_eta) == (2, 1)


def test_covariance_by_hand():
    # rows Psi_k qtilde / b_k are (1, -1.5) and (0, 0); their ddof=1 sample
    # covariance [[0.5, -0.75], [-0.75, 1.125]] divided by n_xi = 2
    basis = total_degree_multi_indices(1, 1)
    data = TrainingData(samples=[[-0.5], [0.5]], qtilde=[1.0, 0.0], sigma2eta=None, n_eta=1)
    cov = build_surrogate(data, basis).coefficient_covariance
    assert cov == pytest.approx(np.array([[0.25, -0.375], [-0.375, 0.5625]]), abs=1e-15)


def test_covariance_needs_two_samples():
    # TrainingData holds the sample floor, so every fit has variances: a
    # run or a block of runs with one sample each is refused up front.
    with pytest.raises(ValueError, match="at least 2 samples per run, got 1"):
        TrainingData(samples=[[0.5]], qtilde=[1.0], sigma2eta=None, n_eta=1)
    with pytest.raises(ValueError, match="at least 2 samples per run, got 1"):
        TrainingData(samples=np.zeros((3, 1, 2)), qtilde=np.ones((3, 1)),
                     sigma2eta=np.zeros((3, 1)), n_eta=2)


def test_covariance_symmetric_psd(rng):
    basis = total_degree_multi_indices(2, 3)
    xis = rng.uniform(-1.0, 1.0, size=(60, 2))
    data = TrainingData(samples=xis, qtilde=rng.random(60), sigma2eta=None, n_eta=1)
    cov = build_surrogate(data, basis).coefficient_covariance
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() > -1e-12


def test_noise_correction_vanishes_without_noise():
    basis = total_degree_multi_indices(1, 2)
    xis = np.linspace(-0.9, 0.9, 7)[:, None]
    qt = np.cos(xis[:, 0])
    noisy = TrainingData(samples=xis, qtilde=qt, sigma2eta=np.zeros(7), n_eta=5)
    clean = TrainingData(samples=xis, qtilde=qt, sigma2eta=None, n_eta=1)
    assert build_surrogate(noisy, basis).noise_corrected_covariance == pytest.approx(
        build_surrogate(clean, basis).coefficient_covariance, abs=1e-15
    )


def test_build_surrogate_field_presence(d1_problem, rng):
    basis = total_degree_multi_indices(1, 2)
    xis = sample_parameters(d1_problem, 30, rng)
    qt, s2 = simulate_training_set(d1_problem, xis, 4, rng)
    s = build_surrogate(TrainingData(xis, qt, s2, 4), basis)
    assert s.coefficient_covariance is not None
    assert s.noise_corrected_covariance is not None
    qt1, s21 = simulate_training_set(d1_problem, xis, 1, rng)
    s1 = build_surrogate(TrainingData(xis, qt1, s21, 1), basis)
    assert s1.coefficient_covariance is not None
    assert s1.noise_corrected_covariance is None
    bare = build_surrogate(TrainingData(xis, qt, s2, 4), basis, full_covariance=False)
    assert bare.coefficient_covariance is None
    assert bare.noise_corrected_covariance is None
    assert bare.coefficient_variance.shape == (len(basis),)
    assert np.array_equal(bare.coefficients, s.coefficients)
    with pytest.raises(ValueError):
        build_surrogate(TrainingData(xis, qt, s2, 4), total_degree_multi_indices(2, 2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_diagonal_fit_matches_full_covariance(d, rng):
    # The diagonal-only path sums squared deviations without BLAS, so it may
    # differ from the gemm diagonal in the last bits only; the full path
    # reads its variances straight off the matrix. The full path assembles
    # the basis matrix from the head terms and the last variable's table,
    # which must give the covariances of eval_basis_matrix bit for bit.
    problem = SlabProblem(sigma0=[0.3] * d, sigma_delta=[0.29] * d, dx=[1.0] * d)
    basis = total_degree_multi_indices(d, 4)
    for n_xi, n_eta in ((25, 1), (400, 2), (2000, 10)):
        xis = sample_parameters(problem, n_xi, rng)
        qt, s2 = simulate_training_set(problem, xis, n_eta, rng)
        data = TrainingData(xis, qt, s2, n_eta)
        full = build_surrogate(data, basis)
        diag = build_surrogate(data, basis, full_covariance=False)
        ref = np.diag(full.coefficient_covariance)
        assert np.array_equal(full.coefficient_variance, ref)
        assert np.array_equal(diag.coefficients, full.coefficients)
        assert np.all(np.abs(diag.coefficient_variance - ref) <= 1e-14 * np.abs(ref))
        psi = eval_basis_matrix(basis, xis)
        dev = psi * (qt[:, None] / basis.norms) - full.coefficients
        cov = dev.T @ dev / ((n_xi - 1) * n_xi)
        assert np.array_equal(full.coefficient_covariance, 0.5 * (cov + cov.T))


def _basis_matrix_fit(data, basis):
    # Reference fit from the explicit n_xi x P basis matrix: coefficients,
    # the scale E|q Psi_k| / b_k of the sums behind them, and centred
    # coefficient variances.
    terms = eval_basis_matrix(basis, data.samples) * (data.qtilde[:, None] / basis.norms)
    beta = terms.mean(axis=0)
    n = data.n_xi
    var = np.sum((terms - beta) ** 2, axis=0) / ((n - 1) * n)
    return beta, np.abs(terms).mean(axis=0), var


TEN_SECTIONS = SlabProblem(
    sigma0=np.linspace(0.2, 1.1, 10), sigma_delta=np.linspace(0.15, 0.5, 10), dx=[0.3] * 10
)


@pytest.mark.parametrize("problem, n0", [("d1", 6), ("d3", 6), ("d10", 3)])
def test_factorized_fit_matches_basis_matrix(problem, n0, d1_problem, d3_problem, rng):
    problem = {"d1": d1_problem, "d3": d3_problem, "d10": TEN_SECTIONS}[problem]
    basis = total_degree_multi_indices(problem.d, n0)
    xis = sample_parameters(problem, 2000, rng)
    qt, s2 = simulate_training_set(problem, xis, 2, rng)
    data = TrainingData(xis, qt, s2, 2)
    fit = build_surrogate(data, basis, full_covariance=False)
    beta, scale, var = _basis_matrix_fit(data, basis)
    assert np.all(np.abs(fit.coefficients - beta) <= 1e-13 * scale)
    assert np.all(np.abs(fit.coefficient_variance - var) <= 1e-13 * var)


@pytest.mark.parametrize("sigma_delta, n_eta", [(1e-8, 1), (0.29, 10)])
def test_factorized_fit_flat_and_noise_free(sigma_delta, n_eta, rng):
    # Noise-free tallies (sigma2eta all 0) of a nearly flat and of an
    # ordinary slab: the mean term's raw second moment would cancel, so its
    # variance must match the centred full path.
    problem = SlabProblem(sigma0=[0.3] * 3, sigma_delta=[sigma_delta] * 3, dx=[1.0] * 3)
    basis = total_degree_multi_indices(3, 6)
    xis = sample_parameters(problem, 2000, rng)
    s2 = None if n_eta == 1 else np.zeros(2000)
    data = TrainingData(xis, transmittance_batch(problem, xis), s2, n_eta)
    full = build_surrogate(data, basis)
    diag = build_surrogate(data, basis, full_covariance=False)
    ref = full.coefficient_variance
    assert np.array_equal(diag.coefficients, full.coefficients)
    assert ref[0] > 0.0
    assert np.all(np.abs(diag.coefficient_variance - ref) <= 1e-13 * ref)


def test_fit_layout_belongs_to_its_basis(d1_problem, d3_problem, rng):
    # Alternating d=3 and d=1 fits in one process, each with a basis object
    # that is dropped right after use, so a later basis often reuses the
    # address of an earlier one: every fit must still match its reference.
    datasets = []
    for problem in (d3_problem, d1_problem):
        xis = sample_parameters(problem, 50, rng)
        qt, s2 = simulate_training_set(problem, xis, 4, rng)
        datasets.append(TrainingData(xis, qt, s2, 4))
    fits = []
    for data in datasets * 20:
        fit = build_surrogate(data, total_degree_multi_indices(data.d, 4),
                              full_covariance=False)
        fits.append((data, fit.coefficients, fit.coefficient_variance))
        del fit
    for data, coefficients, variance in fits:
        beta, scale, var = _basis_matrix_fit(data, total_degree_multi_indices(data.d, 4))
        assert np.all(np.abs(coefficients - beta) <= 1e-13 * scale)
        assert np.all(np.abs(variance - var) <= 1e-13 * var)


def test_block_fit_equals_fits_of_its_runs(d3_problem, rng):
    # One pass over a block of runs gives each run's fit bit for bit; the
    # deconvolution is per run too. Full covariances need one run, and the
    # buffer must hold the block's head values.
    basis = total_degree_multi_indices(3, 4)
    x = sample_parameters(d3_problem, 4 * 30, rng).reshape(4, 30, 3)
    tallies = [simulate_training_set(d3_problem, xi, 3, rng) for xi in x]
    block = TrainingData(x, np.stack([q for q, _ in tallies]),
                         np.stack([s for _, s in tallies]), 3)
    block_fit = build_surrogate(block, basis, full_covariance=False)
    fits = block_fit.unstack()
    # The per-term contributions stack the same way: row r is fit r's.
    assert block_fit.contributions.shape == (4, len(basis))
    for row, fit in zip(block_fit.contributions, fits):
        assert np.array_equal(row, fit.contributions)
    deconv = variance_deconvolution(block)
    assert deconv.shape == (4,)
    for run, fit, dec in zip(block.unstack(), fits, deconv):
        alone = build_surrogate(run, basis, full_covariance=False)
        assert np.array_equal(fit.coefficients, alone.coefficients)
        assert np.array_equal(fit.coefficient_variance, alone.coefficient_variance)
        assert dec == variance_deconvolution(run)
        assert fit.n_xi == 30 and fit.n_eta == 3
    with pytest.raises(ValueError):
        build_surrogate(block, basis)
    # One point short of the block's 4 x 30, and a whole run short.
    head = fit_buffers(basis, 30, 4).shape[0]
    for short in (np.empty((head, 4 * 30 - 1)), fit_buffers(basis, 30, 3)):
        with pytest.raises(ValueError, match="buffer holds fewer"):
            build_surrogate(block, basis, full_covariance=False, buffer=short)
    # A larger buffer serves smaller fits from its leading part.
    big = build_surrogate(block, basis, full_covariance=False, buffer=fit_buffers(basis, 50, 10))
    assert np.array_equal(np.stack([f.coefficients for f in fits]), big.coefficients)


def test_steady_state_fit_allocates_no_head_arrays(d3_problem, rng):
    # With a warmed buffer a fit allocates only Legendre tables and small
    # temporaries, well under two of its (28 head terms) x 2000 arrays.
    import tracemalloc

    basis = total_degree_multi_indices(3, 6)
    xis = sample_parameters(d3_problem, 2000, rng)
    qt, _ = simulate_training_set(d3_problem, xis, 1, rng)
    data = TrainingData(xis, qt, None, 1)
    buffer = fit_buffers(basis, 2000, 1)
    head_array = 28 * 2000 * 8
    assert buffer.shape == (28, 2000) and buffer.nbytes == head_array
    build_surrogate(data, basis, full_covariance=False, buffer=buffer)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_surrogate(data, basis, full_covariance=False, buffer=buffer)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * head_array


# -------------------------------------------------- statistical calibration


def test_coefficients_unbiased_and_covariance_calibrated(d1_problem):
    # 10^4 repetitions at (n_xi, n_eta) = (100, 2): the coefficient estimates
    # must be unbiased against the quadrature projection, and the reported
    # covariance diagonal must match the observed repetition variance.
    basis = total_degree_multi_indices(1, 3)
    exact_beta = quadrature_coefficients(d1_problem, basis)
    rng = np.random.default_rng(31001)
    reps = 10_000
    betas = np.empty((reps, len(basis)))
    diags = np.empty_like(betas)
    for r in range(reps):
        xis = sample_parameters(d1_problem, 100, rng)
        qt, s2 = simulate_training_set(d1_problem, xis, 2, rng)
        s = build_surrogate(TrainingData(xis, qt, s2, 2), basis)
        betas[r] = s.coefficients
        diags[r] = np.diag(s.coefficient_covariance)
    se = betas.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(betas.mean(axis=0) - exact_beta) < 3.0 * se)
    ratio = diags.mean(axis=0) / betas.var(axis=0, ddof=1)
    assert np.all(np.abs(ratio - 1.0) < 0.05)


def test_noise_corrected_diag_matches_noise_free_variance(d1_problem):
    # The corrected diagonal estimates the coefficient variance a noise-free
    # sampler would have; compare against repetitions that use the analytic
    # transmittance as the QoI.
    basis = total_degree_multi_indices(1, 2)
    rng = np.random.default_rng(31002)
    reps = 5_000
    corrected = np.empty((reps, len(basis)))
    plain = np.empty_like(corrected)
    betas_free = np.empty((reps, len(basis)))
    for r in range(reps):
        xis = sample_parameters(d1_problem, 100, rng)
        qt, s2 = simulate_training_set(d1_problem, xis, 10, rng)
        s = build_surrogate(TrainingData(xis, qt, s2, 10), basis)
        corrected[r] = np.diag(s.noise_corrected_covariance)
        plain[r] = np.diag(s.coefficient_covariance)
        free = build_surrogate(
            TrainingData(xis, transmittance_batch(d1_problem, xis), None, 1), basis,
            full_covariance=False,
        )
        betas_free[r] = free.coefficients
    target = betas_free.var(axis=0, ddof=1)
    ratio = corrected.mean(axis=0) / target
    assert np.all(np.abs(ratio - 1.0) < 0.05)
    # the correction must remove a strictly positive noise share
    assert np.all(corrected.mean(axis=0) < plain.mean(axis=0))


def test_squared_coefficient_bias_correction(d1_problem):
    # E[beta_k^2 - Var[beta_k]] = beta_k^2: the identity behind the unbiased
    # variance estimator, checked at the harshest setting n_eta = 1.
    basis = total_degree_multi_indices(1, 2)
    exact_beta = quadrature_coefficients(d1_problem, basis)
    rng = np.random.default_rng(31003)
    reps = 10_000
    stat = np.empty((reps, len(basis)))
    for r in range(reps):
        xis = sample_parameters(d1_problem, 25, rng)
        qt, _ = simulate_training_set(d1_problem, xis, 1, rng)
        s = build_surrogate(TrainingData(xis, qt, None, 1), basis)
        stat[r] = s.coefficients**2 - np.diag(s.coefficient_covariance)
    se = stat.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(stat.mean(axis=0) - exact_beta**2) < 3.0 * se)


def test_variance_estimators_unbiased(d1_problem):
    # both the coefficient-based and the deconvolution estimator must land on
    # the exact output variance within Monte Carlo resolution
    basis = total_degree_multi_indices(1, 6)
    rng = np.random.default_rng(31004)
    reps = 200
    by_pce = np.empty(reps)
    by_deconv = np.empty(reps)
    for r in range(reps):
        xis = sample_parameters(d1_problem, 2000, rng)
        qt, s2 = simulate_training_set(d1_problem, xis, 10, rng)
        data = TrainingData(xis, qt, s2, 10)
        by_pce[r] = pce_variance_unbiased(build_surrogate(data, basis))
        by_deconv[r] = variance_deconvolution(data)
    exact = exact_variance(d1_problem)
    for est in (by_pce, by_deconv):
        se = est.std(ddof=1) / np.sqrt(reps)
        assert abs(est.mean() - exact) < 3.0 * se


def test_noise_corrected_mean_term_constant_qoi():
    # constant QoI: all coefficient variance is inner noise, so the corrected
    # (0, 0) entry must average to zero
    flat = SlabProblem(sigma0=[0.3], sigma_delta=[0.0], dx=[1.0])
    basis = total_degree_multi_indices(1, 1)
    rng = np.random.default_rng(31005)
    reps = 2_000
    entry = np.empty(reps)
    for r in range(reps):
        xis = sample_parameters(flat, 100, rng)
        qt, s2 = simulate_training_set(flat, xis, 10, rng)
        s = build_surrogate(TrainingData(xis, qt, s2, 10), basis)
        entry[r] = s.noise_corrected_covariance[0, 0]
    se = entry.std(ddof=1) / np.sqrt(reps)
    assert abs(entry.mean()) < 3.0 * se


def test_linear_response_recovered():
    # synthetic noise-free data qtilde = xi: beta_1 -> 1 at large n_xi
    basis = total_degree_multi_indices(1, 1)
    rng = np.random.default_rng(31006)
    xis = rng.uniform(-1.0, 1.0, size=(1_000_000, 1))
    s = build_surrogate(TrainingData(xis, xis[:, 0], None, 1), basis, full_covariance=False)
    # Var[3 xi^2] / n gives the standard error of beta_1
    se = np.sqrt(0.8 / xis.shape[0])
    assert abs(s.coefficients[1] - 1.0) < 3.0 * se


# ---------------------------------------------------------------- estimators


def test_moment_estimates_by_hand():
    basis = total_degree_multi_indices(1, 1)
    cov = np.array([[0.01, 0.0], [0.0, 0.03]])
    s = make_surrogate(basis, [0.7, 2.0], cov=cov)
    assert s.coefficients[0] == 0.7  # the expansion mean
    assert pce_variance_biased(s) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert pce_variance_unbiased(s) == pytest.approx((4.0 - 0.03) / 3.0, abs=1e-15)


def test_variance_respects_trim():
    basis = total_degree_multi_indices(1, 2)
    s = make_surrogate(basis, [0.5, 1.0, 2.0], cov=np.zeros((3, 3)),
                       mask=np.array([True, True, False]))
    assert pce_variance_biased(s) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert pce_variance_unbiased(s) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_variance_unbiased_of_exact_coefficients():
    # Exact coefficients carry zero variances: nothing is subtracted.
    basis = total_degree_multi_indices(1, 1)
    s = make_surrogate(basis, [0.5, 1.0], var=np.zeros(2))
    assert pce_variance_unbiased(s) == pce_variance_biased(s) == pytest.approx(1.0 / 3.0)


def test_biased_at_least_unbiased(rng):
    basis = total_degree_multi_indices(2, 2)
    a = rng.normal(size=(6, 6))
    s = make_surrogate(basis, rng.normal(size=6), cov=a @ a.T / 6.0)
    assert pce_variance_biased(s) >= pce_variance_unbiased(s)


def test_variance_deconvolution_by_hand():
    data = TrainingData(samples=[[0.1], [0.2]], qtilde=[0.2, 0.8],
                        sigma2eta=[0.1, 0.3], n_eta=2)
    assert variance_deconvolution(data) == pytest.approx(0.08, abs=1e-15)
    clean = TrainingData(samples=[[0.1], [0.2], [0.3]], qtilde=[0.2, 0.8, 0.5],
                         sigma2eta=np.zeros(3), n_eta=2)
    assert variance_deconvolution(clean) == pytest.approx(
        np.var([0.2, 0.8, 0.5], ddof=1), abs=1e-15
    )


def test_variance_deconvolution_errors():
    single_history = TrainingData(samples=[[0.1], [0.2]], qtilde=[0.2, 0.8],
                                  sigma2eta=None, n_eta=1)
    with pytest.raises(ValueError):
        variance_deconvolution(single_history)


# ------------------------------------------------------------------ trimming


def test_trim_keeps_smallest_sufficient_prefix():
    # contributions 0.2, 0.5, 0.3 by term; target 0.7 keeps the two largest
    basis = total_degree_multi_indices(1, 3)
    beta = np.array([1.0, np.sqrt(0.2 * 3), np.sqrt(0.5 * 5), np.sqrt(0.3 * 7)])
    s = make_surrogate(basis, beta, cov=np.zeros((4, 4)))
    t = trim_expansion(s, 0.7)
    assert t.trimmed_mask.tolist() == [True, False, True, True]
    assert t.n_retained == 3
    assert pce_variance_unbiased(t) == pytest.approx(0.8, abs=1e-12)
    # the untrimmed surrogate is untouched
    assert s.trimmed_mask.all()


def test_trim_unreachable_target_keeps_everything():
    basis = total_degree_multi_indices(1, 3)
    beta = np.array([1.0, np.sqrt(0.2 * 3), np.sqrt(0.5 * 5), np.sqrt(0.3 * 7)])
    s = make_surrogate(basis, beta, cov=np.zeros((4, 4)))
    assert trim_expansion(s, 2.0).trimmed_mask.all()


def test_trim_nonpositive_target_keeps_mean_only():
    basis = total_degree_multi_indices(1, 2)
    s = make_surrogate(basis, [1.0, 0.5, 0.5], cov=np.zeros((3, 3)))
    for target in (0.0, -0.5):
        t = trim_expansion(s, target)
        assert t.trimmed_mask.tolist() == [True, False, False]
        assert pce_variance_unbiased(t) == 0.0


def test_trim_never_keeps_negative_contributions():
    # term 2 has estimator variance above its squared coefficient; even an
    # unreachable target must not pull it back in
    basis = total_degree_multi_indices(1, 2)
    cov = np.diag([0.0, 0.01, 0.05])
    s = make_surrogate(basis, [1.0, 0.6, 0.1], cov=cov)
    t = trim_expansion(s, 1.0)
    assert t.trimmed_mask.tolist() == [True, True, False]
    assert pce_variance_unbiased(t) == pytest.approx(0.35 / 3.0, abs=1e-15)


def test_trimmed_variance_never_negative(rng):
    basis = total_degree_multi_indices(2, 3)
    p1 = len(basis)
    for _ in range(200):
        a = rng.normal(size=(p1, p1))
        s = make_surrogate(basis, rng.normal(size=p1), cov=a @ a.T / p1)
        target = rng.uniform(0.0, 2.0) * pce_variance_biased(s)
        t = trim_expansion(s, target)
        assert t.trimmed_mask[0]
        assert pce_variance_unbiased(t) >= 0.0


def test_trim_errors():
    basis = total_degree_multi_indices(1, 1)
    s = make_surrogate(basis, [1.0, 0.5], cov=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        trim_expansion(s, float("nan"))
    with pytest.raises(ValueError):
        trim_expansion(s, float("inf"))


def _former_trim_mask(surrogate, target):
    # trim_expansion's ranking as written before PceSurrogate.contributions.
    beta, var_beta = surrogate.coefficients, surrogate.coefficient_variance
    contrib = (beta[1:] ** 2 - var_beta[1:]) * surrogate.basis.norms[1:]
    mask = np.eye(1, len(surrogate.basis), dtype=bool)[0]
    order = np.argsort(-contrib, kind="stable")
    cum = np.cumsum(contrib[order])
    goal = min(float(target), float(cum.max()))
    if goal > 0.0:
        mask[1 + order[:int(np.argmax(cum >= goal)) + 1]] = True
    return mask


def _former_unbiased(surrogate):
    mask = surrogate.trimmed_mask.copy()
    mask[0] = False
    beta, var_beta = surrogate.coefficients[mask], surrogate.coefficient_variance[mask]
    return float(np.sum((beta**2 - var_beta) * surrogate.basis.norms[mask]))


@pytest.mark.parametrize("problem", ["d1", "d3"])
def test_estimators_read_contributions_bit_for_bit(problem, d1_problem, d3_problem, rng):
    # The unbiased variance, the trim and the Sobol indices read
    # PceSurrogate.contributions; each equals its former formula bit for
    # bit on diagonal and full fits, untrimmed and trimmed, down to a trim
    # that keeps the mean term only.
    problem = {"d1": d1_problem, "d3": d3_problem}[problem]
    basis = total_degree_multi_indices(problem.d, 4)
    for n_xi, n_eta in ((100, 1), (60, 4)):
        xis = sample_parameters(problem, n_xi, rng)
        qt, s2 = simulate_training_set(problem, xis, n_eta, rng)
        data = TrainingData(xis, qt, s2, n_eta)
        for full in (True, False):
            fit = build_surrogate(data, basis, full_covariance=full)
            assert np.array_equal(
                fit.contributions,
                (fit.coefficients**2 - fit.coefficient_variance) * basis.norms,
            )
            biased = pce_variance_biased(fit)
            for target in (0.3 * biased, 0.6 * biased, 2.0 * biased):
                trimmed = trim_expansion(fit, target)
                assert np.array_equal(trimmed.trimmed_mask, _former_trim_mask(fit, target))
                for name in ("coefficients", "coefficient_variance", "coefficient_covariance",
                             "noise_corrected_covariance"):
                    assert getattr(trimmed, name) is getattr(fit, name)
                for s in (fit, trimmed):
                    assert pce_variance_unbiased(s) == _former_unbiased(s)
                    res = sobol_indices(s)
                    first, total = _sobol_reference(s)
                    assert np.array_equal(res[0], first)
                    assert np.array_equal(res[1], total)
            mean_only = trim_expansion(fit, 0.0)
            assert mean_only.n_retained == 1
            assert np.array_equal(mean_only.trimmed_mask, _former_trim_mask(fit, 0.0))
            assert pce_variance_unbiased(mean_only) == _former_unbiased(mean_only) == 0.0
            assert np.all(np.isnan(sobol_indices(mean_only)))


# ---------------------------------------------------------------- prediction


def test_predict_by_hand():
    basis = total_degree_multi_indices(1, 1)
    s = make_surrogate(basis, [0.0, 1.0])
    batch = predict(s, eval_basis_matrix(basis, np.array([[0.3], [-0.7]])))
    assert batch == pytest.approx([0.3, -0.7], abs=1e-15)
    # basis values come as an (n, P) batch; a lone row or a basis of
    # another size is refused, not guessed at
    for bad in (np.array([1.0, 0.3]), np.ones((2, 3)), np.ones((2, 1))):
        with pytest.raises(ValueError):
            predict(s, bad)


def test_predict_reconstructs_square():
    # xi^2 expands exactly as 1/3 + (2/3) P_2
    basis = total_degree_multi_indices(1, 2)
    s = make_surrogate(basis, [1.0 / 3.0, 0.0, 2.0 / 3.0])
    x = np.linspace(-1.0, 1.0, 11)
    assert predict(s, eval_basis_matrix(basis, x[:, None])) == pytest.approx(x**2, abs=1e-10)


def test_predict_respects_trim():
    basis = total_degree_multi_indices(1, 2)
    s = make_surrogate(basis, [0.25, 10.0, 2.0 / 3.0],
                       mask=np.array([True, False, True]))
    # P_2(0.5) = -0.125
    half = eval_basis_matrix(basis, np.array([[0.5]]))
    assert predict(s, half) == pytest.approx([0.25 + (2.0 / 3.0) * -0.125], abs=1e-14)
    mean_only = make_surrogate(basis, [0.25, 10.0, 10.0],
                               mask=np.array([True, False, False]))
    assert predict(mean_only, half) == pytest.approx([0.25], abs=1e-15)


def test_prediction_stddev_by_hand():
    basis = total_degree_multi_indices(1, 2)
    s = make_surrogate(basis, [0.5, 1.0, 1.0], cov=np.zeros((3, 3)))
    psi = eval_basis_matrix(basis, np.array([[0.5], [0.0]]))
    assert np.array_equal(prediction_stddev(s, psi[:1]), [0.0])
    s = make_surrogate(basis, [0.5, 1.0, 1.0], cov=np.eye(3))
    # psi tail at 0.5 is (0.5, -0.125) and at 0 is (0, -0.5); identity
    # covariance excludes the mean
    out = prediction_stddev(s, psi)
    assert out == pytest.approx([np.sqrt(0.25 + 0.015625), 0.5], abs=1e-14)
    with pytest.raises(ValueError):
        prediction_stddev(s, psi[0])


def test_prediction_stddev_respects_trim():
    basis = total_degree_multi_indices(1, 2)
    s = make_surrogate(basis, [0.5, 1.0, 1.0], cov=np.eye(3),
                       mask=np.array([True, True, False]))
    psi = eval_basis_matrix(basis, np.array([[0.5]]))
    assert prediction_stddev(s, psi) == pytest.approx([0.5], abs=1e-14)


def test_prediction_stddev_clamps_indefinite_form():
    basis = total_degree_multi_indices(1, 1)
    s = make_surrogate(basis, [0.5, 1.0], cov=np.diag([0.0, -1.0]))
    psi = eval_basis_matrix(basis, np.array([[0.5]]))
    assert np.array_equal(prediction_stddev(s, psi), [0.0])


def test_prediction_stddev_covariance_selection(d1_problem, rng):
    basis = total_degree_multi_indices(1, 2)
    xis = sample_parameters(d1_problem, 50, rng)
    qt, s2 = simulate_training_set(d1_problem, xis, 5, rng)
    s = build_surrogate(TrainingData(xis, qt, s2, 5), basis)
    pts = eval_basis_matrix(basis, np.array([[0.3]]))
    plain = prediction_stddev(s, pts)
    corrected = prediction_stddev(s, pts, use_noise_corrected=True)
    assert plain[0] != corrected[0]
    bare = make_surrogate(basis, s.coefficients)
    with pytest.raises(ValueError):
        prediction_stddev(bare, pts)
    no_corr = make_surrogate(basis, s.coefficients, cov=np.eye(3))
    with pytest.raises(ValueError):
        prediction_stddev(no_corr, pts, use_noise_corrected=True)


# ------------------------------------------------------------------- sobol


def test_sobol_by_hand_two_dims():
    # variance shares by term: x1 -> 0.4, x2 -> 0.1, x1^2 -> 0.3,
    # x1 x2 -> 0.08, x2^2 -> 0.12
    basis = total_degree_multi_indices(2, 2)
    shares = {(1, 0): 0.4, (0, 1): 0.1, (2, 0): 0.3, (1, 1): 0.08, (0, 2): 0.12}
    beta = np.zeros(len(basis))
    for k, idx in enumerate(map(tuple, basis.indices)):
        if idx in shares:
            beta[k] = np.sqrt(shares[idx] / basis.norms[k])
    s = make_surrogate(basis, beta, var=np.zeros(len(basis)))
    res = sobol_indices(s)
    assert res[0] == pytest.approx([0.7, 0.22], abs=1e-12)
    assert res[1] == pytest.approx([0.78, 0.3], abs=1e-12)
    # the same variances as the diagonal of a covariance matrix, as a fit stores them
    with_cov = make_surrogate(basis, beta, cov=np.zeros((len(basis),) * 2))
    corr = sobol_indices(with_cov)
    assert np.array_equal(corr[0], res[0])
    assert np.array_equal(corr[1], res[1])


def _sobol_reference(surrogate):
    # The original per-term loop; sobol_indices must reproduce it bit for bit.
    norms = surrogate.basis.norms
    sq = surrogate.coefficients**2 - surrogate.coefficient_variance
    mask = surrogate.trimmed_mask.copy()
    mask[0] = False
    d = surrogate.basis.dimension
    by_group = {}
    for k in np.nonzero(mask)[0]:
        group = tuple(int(j) for j in np.nonzero(surrogate.basis.indices[k])[0])
        by_group[group] = by_group.get(group, 0.0) + float(sq[k] * norms[k])
    denom = sum(by_group.values())
    by_group = {g: v / denom for g, v in by_group.items()}
    first = np.array([by_group.get((i,), 0.0) for i in range(d)])
    total = np.zeros(d)
    for group, share in by_group.items():
        for i in group:
            total[i] += share
    return first, total


def test_sobol_matches_per_term_loop(rng):
    for d, n0 in ((1, 3), (2, 5), (3, 6), (4, 3), (10, 3)):
        basis = total_degree_multi_indices(d, n0)
        p1 = len(basis)
        for _ in range(20):
            mask = rng.random(p1) < 0.6
            mask[0] = True
            mask[1 + rng.integers(p1 - 1)] = True
            s = make_surrogate(basis, rng.normal(size=p1), mask=mask, var=0.1 * rng.random(p1))
            res = sobol_indices(s)
            first, total = _sobol_reference(s)
            assert np.array_equal(res[0], first)
            assert np.array_equal(res[1], total)


def test_sobol_single_dim_is_unity():
    basis = total_degree_multi_indices(1, 3)
    s = make_surrogate(basis, [0.5, 0.4, 0.2, 0.1], var=np.zeros(4))
    res = sobol_indices(s)
    assert res[0] == pytest.approx([1.0], abs=1e-15)
    assert res[1] == pytest.approx([1.0], abs=1e-15)


def test_sobol_additive_closure():
    basis = total_degree_multi_indices(3, 1)
    s = make_surrogate(basis, [0.5, 0.3, 0.2, 0.1], var=np.zeros(4))
    res = sobol_indices(s)
    assert res[0].sum() == pytest.approx(1.0, abs=1e-14)
    assert res[1] == pytest.approx(res[0], abs=1e-15)


def test_sobol_respects_trim():
    basis = total_degree_multi_indices(2, 1)
    s = make_surrogate(basis, [0.5, 2.0, 1.0], mask=np.array([True, False, True]),
                       var=np.zeros(3))
    res = sobol_indices(s)
    assert res[0] == pytest.approx([0.0, 1.0], abs=1e-15)


def test_sobol_undefined_indices_are_nan():
    # 0/0 indices, of a mean-only surrogate or of retained terms whose
    # contributions total exactly 0, are NaN in both rows.
    basis = total_degree_multi_indices(1, 1)
    mean_only = make_surrogate(basis, [0.5, 1.0], mask=np.array([True, False]), var=np.zeros(2))
    zero_tail = make_surrogate(basis, [0.5, 0.0], var=np.zeros(2))
    wide = total_degree_multi_indices(2, 2)
    wide_mean_only = make_surrogate(wide, np.ones(6), mask=np.eye(1, 6, dtype=bool)[0],
                                    var=np.zeros(6))
    cancelling = make_surrogate(wide, [0.5, 1.0, 0.0, 0.0, 0.0, 0.0],
                                var=[0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    for surrogate in (mean_only, zero_tail, wide_mean_only, cancelling):
        res = sobol_indices(surrogate)
        assert res.shape == (2, surrogate.basis.dimension)
        assert np.all(np.isnan(res))


# ------------------------------------------------------------ serialization


def test_surrogate_roundtrip(tmp_path, d1_problem, rng):
    basis = total_degree_multi_indices(1, 3)
    xis = sample_parameters(d1_problem, 40, rng)
    qt, s2 = simulate_training_set(d1_problem, xis, 5, rng)
    s = trim_expansion(build_surrogate(TrainingData(xis, qt, s2, 5), basis), 0.03)
    path = tmp_path / "surrogate.json"
    save_surrogate(s, path)
    back = load_surrogate(path)
    assert np.array_equal(back.coefficients, s.coefficients)
    assert np.array_equal(back.coefficient_covariance, s.coefficient_covariance)
    assert np.array_equal(back.noise_corrected_covariance, s.noise_corrected_covariance)
    assert np.array_equal(back.coefficient_variance, s.coefficient_variance)
    assert np.array_equal(back.trimmed_mask, s.trimmed_mask)
    assert (back.n_xi, back.n_eta) == (s.n_xi, s.n_eta)
    assert np.array_equal(back.basis.indices, s.basis.indices)


def test_surrogate_roundtrip_without_covariance(tmp_path):
    # A bare surrogate of exact coefficients keeps its zero variances.
    basis = total_degree_multi_indices(2, 1)
    s = make_surrogate(basis, [0.5, 0.25, -0.125], var=np.zeros(3))
    path = tmp_path / "bare.json"
    save_surrogate(s, path)
    back = load_surrogate(path)
    assert back.coefficient_covariance is None
    assert back.noise_corrected_covariance is None
    assert back.coefficient_variance.tolist() == [0.0, 0.0, 0.0]
    assert np.array_equal(back.coefficients, s.coefficients)


def test_surrogate_roundtrip_diagonal_only(tmp_path, d3_problem, rng):
    basis = total_degree_multi_indices(3, 3)
    xis = sample_parameters(d3_problem, 60, rng)
    qt, s2 = simulate_training_set(d3_problem, xis, 4, rng)
    s = build_surrogate(TrainingData(xis, qt, s2, 4), basis, full_covariance=False)
    path = tmp_path / "diag.json"
    save_surrogate(s, path)
    back = load_surrogate(path)
    assert back.coefficient_covariance is None
    assert np.array_equal(back.coefficient_variance, s.coefficient_variance)
    assert pce_variance_unbiased(back) == pce_variance_unbiased(s)


def test_save_refuses_a_block(tmp_path, d3_problem, rng):
    # A file holds one fit; a block is refused before the file is opened.
    basis = total_degree_multi_indices(3, 2)
    xis = sample_parameters(d3_problem, 2 * 10, rng)
    qt, s2 = simulate_training_set(d3_problem, xis, 3, rng)
    block = TrainingData(xis.reshape(2, 10, 3), qt.reshape(2, 10), s2.reshape(2, 10), 3)
    fits = build_surrogate(block, basis, full_covariance=False)
    path = tmp_path / "block.json"
    with pytest.raises(ValueError, match=r"unstack\(\)"):
        save_surrogate(fits, path)
    assert not path.exists()
    save_surrogate(fits.unstack()[1], path)
    assert np.array_equal(load_surrogate(path).coefficients, fits.coefficients[1])


def test_load_rejects_tampered_files(tmp_path):
    import json

    basis = total_degree_multi_indices(1, 1)
    s = make_surrogate(basis, [0.5, 0.25])
    path = tmp_path / "surrogate.json"
    save_surrogate(s, path)
    # A top level that is not a JSON object.
    for top in ([1, 2], "uqpc-surrogate-v1", None, 3):
        not_object = tmp_path / "not_object.json"
        not_object.write_text(json.dumps(top))
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_surrogate(not_object)
    payload = json.loads(path.read_text())
    payload["format"] = "something-else"
    bad_tag = tmp_path / "bad_tag.json"
    bad_tag.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_surrogate(bad_tag)
    payload["format"] = "uqpc-surrogate-v1"
    payload["multi_indices"] = [[0], [2]]
    bad_idx = tmp_path / "bad_idx.json"
    bad_idx.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_surrogate(bad_idx)
    payload["multi_indices"] = [[0], [1]]
    # Basis sizes and sample counts that are not whole numbers, or below
    # their floors.
    for key, value in (("n_xi", 0), ("n_xi", -5), ("n_xi", 1), ("n_xi", True),
                       ("n_xi", 7.0), ("n_eta", -3), ("n_eta", 0), ("n_eta", 2.7),
                       ("n_eta", "2"), ("dimension", True), ("dimension", 0),
                       ("dimension", 1.0), ("total_degree", 1.0), ("total_degree", -1),
                       ("total_degree", False)):
        bad_count = tmp_path / "bad_count.json"
        bad_count.write_text(json.dumps({**payload, key: value}))
        with pytest.raises(ValueError, match=key):
            load_surrogate(bad_count)
    # Trim masks whose entries are not JSON booleans.
    for mask in ([1, 0.5], ["no", "no"], [True, 0], None, "yes"):
        bad_mask = tmp_path / "bad_mask.json"
        bad_mask.write_text(json.dumps({**payload, "trimmed_mask": mask}))
        with pytest.raises(ValueError, match="trimmed_mask"):
            load_surrogate(bad_mask)
    # Neither a covariance matrix nor a variance list.
    no_var = tmp_path / "no_var.json"
    no_var.write_text(json.dumps({**payload, "coefficient_variance": None}))
    with pytest.raises(ValueError, match="neither"):
        load_surrogate(no_var)
    no_var.write_text(json.dumps({k: v for k, v in payload.items() if k != "coefficient_variance"}))
    with pytest.raises(ValueError, match="neither"):
        load_surrogate(no_var)
    # A file without one of the fields save_surrogate always writes.
    for key in ("dimension", "total_degree", "multi_indices", "coefficients",
                "coefficient_covariance", "noise_corrected_covariance", "trimmed_mask",
                "n_xi", "n_eta"):
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({k: v for k, v in payload.items() if k != key}))
        with pytest.raises(ValueError, match=key):
            load_surrogate(missing)
    # Coefficients, variances and covariance entries that are not finite,
    # in json's NaN/Infinity spellings.
    cov = [[0.5, 0.0], [0.0, 0.25]]
    for key, value in (("coefficients", [float("nan"), 0.25]),
                       ("coefficients", [0.5, float("-inf")]),
                       ("coefficient_variance", [0.0, float("inf")]),
                       ("coefficient_variance", [float("nan"), 0.0]),
                       ("coefficient_covariance", [[0.5, float("inf")], [0.0, 0.25]]),
                       ("coefficient_covariance", [[float("nan"), 0.0], [0.0, 0.25]]),
                       ("noise_corrected_covariance", [[0.5, 0.0], [0.0, float("inf")]])):
        bad_float = tmp_path / "bad_float.json"
        tampered = {**payload, "coefficient_covariance": cov, key: value}
        if key == "coefficient_variance":
            tampered["coefficient_covariance"] = None
        bad_float.write_text(json.dumps(tampered))
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            load_surrogate(bad_float)
    # The untampered file still loads.
    assert load_surrogate(path).n_xi == s.n_xi


# ---------------------------------------------------------------------- json


@pytest.mark.parametrize("value", [
    0.0, -0.0, 1.5, -1.25, 0.1, 1 / 3, 2.0**70, 1e300, -1e300, 5e-324,
    float("nan"), float("inf"), float("-inf"),
])
def test_surrogate_file_keeps_every_float(tmp_path, value):
    # Coefficients and covariances come back bit for bit, signed zeros and
    # subnormals included. NaN and the infinities are written in json's
    # NaN/Infinity spellings, and a file that holds them is refused.
    import json

    basis = total_degree_multi_indices(1, 1)
    cov = np.array([[value, 0.5], [0.5, value]])
    s = make_surrogate(basis, [1.0, value], cov=cov, noise_cov=2 * cov, n_eta=2)
    path = tmp_path / "surrogate.json"
    save_surrogate(s, path)
    if not np.isfinite(value):
        assert json.dumps(value) in path.read_text(encoding="utf-8")
        with pytest.raises(ValueError, match="must be finite"):
            load_surrogate(path)
        return
    back = load_surrogate(path)
    assert back.coefficients.tobytes() == s.coefficients.tobytes()
    assert back.coefficient_covariance.tobytes() == cov.tobytes()
    assert back.noise_corrected_covariance.tobytes() == (2 * cov).tobytes()
    assert back.coefficient_variance.tobytes() == s.coefficient_variance.tobytes()


def test_save_surrogate_text(tmp_path):
    # The file is json.dumps(payload, indent=1) and a newline; a surrogate
    # without covariance matrices stores its variances on their own.
    basis = total_degree_multi_indices(1, 1)
    s = make_surrogate(basis, [0.5, -0.25], var=[0.125, float("inf")], n_xi=7, n_eta=3)
    path = tmp_path / "surrogate.json"
    save_surrogate(s, path)
    assert path.read_text(encoding="utf-8") == (
        '{\n "format": "uqpc-surrogate-v1",\n "dimension": 1,\n "total_degree": 1,\n'
        ' "multi_indices": [\n  [\n   0\n  ],\n  [\n   1\n  ]\n ],\n'
        ' "coefficients": [\n  0.5,\n  -0.25\n ],\n'
        ' "coefficient_covariance": null,\n "noise_corrected_covariance": null,\n'
        ' "trimmed_mask": [\n  true,\n  true\n ],\n "n_xi": 7,\n "n_eta": 3,\n'
        ' "coefficient_variance": [\n  0.125,\n  Infinity\n ]\n}\n'
    )


def test_report_json_files_match_json_dumps(tmp_path):
    # Every shipped config's summary and surrogate files, at a few
    # repetitions, read back and re-encoded by json.dumps, give the bytes
    # that were written.
    import json
    from pathlib import Path

    from uqpc.experiments import load_config, run_study, write_report

    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    assert len(configs) == 4
    checked = 0
    for path in configs:
        config = load_config(path, repetitions=3)
        for file in write_report(run_study(config), tmp_path / path.stem):
            if file.suffix == ".json":
                text = file.read_text(encoding="utf-8")
                assert text == json.dumps(json.loads(text), indent=1) + "\n"
                checked += 1
    assert checked == 4 + 3
