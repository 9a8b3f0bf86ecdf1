import numpy as np
import pytest

from uqpc.transport import (
    SlabProblem,
    sample_parameters,
    simulate_training_set,
    transmittance_batch,
)


def _depth(problem, xis):
    return -np.log(transmittance_batch(problem, np.atleast_2d(xis)))


def test_problem_validation():
    with pytest.raises(ValueError):
        SlabProblem(sigma0=[1.0], sigma_delta=[0.95], dx=[0.0])
    with pytest.raises(ValueError):
        SlabProblem(sigma0=[1.0], sigma_delta=[-0.1], dx=[1.0])
    with pytest.raises(ValueError):
        SlabProblem(sigma0=[0.5], sigma_delta=[0.6], dx=[1.0])  # goes negative
    with pytest.raises(ValueError):
        SlabProblem(sigma0=[1.0, 1.0], sigma_delta=[0.1], dx=[1.0, 1.0])
    # NaN slips past every ordering check, so finiteness is checked first
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            SlabProblem(sigma0=[bad], sigma_delta=[0.5], dx=[1.0])
        with pytest.raises(ValueError):
            SlabProblem(sigma0=[1.0], sigma_delta=[bad], dx=[1.0])
        with pytest.raises(ValueError):
            SlabProblem(sigma0=[1.0], sigma_delta=[0.5], dx=[bad])


def test_problem_properties(d3_problem):
    assert d3_problem.d == 3


def test_optical_depth(d1_problem, d3_problem):
    # tau(xi) = sum_m (sigma0_m + sigma_delta_m xi_m) dx_m, read back from exp(-tau)
    assert _depth(d1_problem, [[0.0], [-1.0]]) == pytest.approx([1.0, 0.05], abs=1e-15)
    # deterministic limit: sigma_delta = 0
    flat = SlabProblem(sigma0=[0.3] * 3, sigma_delta=[0.0] * 3, dx=[1.0] * 3)
    assert _depth(flat, [[0.0] * 3, [1.0, -1.0, 0.5]]) == pytest.approx([0.9, 0.9], abs=1e-15)
    assert _depth(d3_problem, np.ones(3)) == pytest.approx([1.77], abs=1e-15)


def test_transmittance_batch(d1_problem, d3_problem, rng):
    flat = SlabProblem(sigma0=[0.0], sigma_delta=[0.0], dx=[1.0])
    assert transmittance_batch(flat, np.zeros((1, 1)))[0] == 1.0
    assert transmittance_batch(d1_problem, np.zeros((1, 1)))[0] == pytest.approx(
        np.exp(-1.0), abs=1e-15
    )
    xis = rng.uniform(-1.0, 1.0, (10, 3))
    batch = transmittance_batch(d3_problem, xis)
    assert batch.shape == (10,)
    assert np.all((0.0 < batch) & (batch <= 1.0))
    p = d3_problem
    expected = [np.exp(-np.sum((p.sigma0 + p.sigma_delta * xi) * p.dx)) for xi in xis]
    assert batch == pytest.approx(expected, abs=1e-15)


def test_transmittance_monotone_in_xi(d3_problem):
    xi = np.array([0.1, -0.2, 0.3])
    bumped = xi + 0.05 * np.eye(3)
    batch = transmittance_batch(d3_problem, np.vstack([xi, bumped]))
    assert np.all(batch[1:] < batch[0])


def test_sample_parameters(d3_problem, rng):
    xis = sample_parameters(d3_problem, 1000, rng)
    assert xis.shape == (1000, 3)
    assert np.all(np.abs(xis) <= 1.0)
    again = sample_parameters(d3_problem, 1000, np.random.default_rng(20260814))
    assert np.array_equal(xis, again)
    with pytest.raises(ValueError):
        sample_parameters(d3_problem, 0, rng)


def test_simulate_tally_basic(d1_problem, rng):
    qt, s2 = simulate_training_set(d1_problem, np.zeros((1, 1)), 100, rng)
    assert qt.shape == s2.shape == (1,)
    assert 0.0 <= qt[0] <= 1.0
    assert qt[0] * 100 == pytest.approx(round(qt[0] * 100), abs=1e-9)
    # unbiased Bernoulli sample variance: k successes out of n
    k = round(qt[0] * 100)
    assert s2[0] == pytest.approx(k * (100 - k) / (100 * 99), abs=1e-12)


def test_simulate_no_attenuation(rng):
    clear = SlabProblem(sigma0=[0.0, 0.0], sigma_delta=[0.0, 0.0], dx=[1.0, 1.0])
    qt, s2 = simulate_training_set(clear, np.zeros((1, 2)), 50, rng)
    assert qt[0] == 1.0
    assert s2[0] == 0.0


def test_simulate_law_of_large_numbers(d1_problem):
    xis = np.zeros((1, 1))
    p = transmittance_batch(d1_problem, xis)[0]
    qt, _ = simulate_training_set(d1_problem, xis, 10**6, np.random.default_rng(5))
    se = np.sqrt(p * (1 - p) / 10**6)
    assert abs(qt[0] - p) <= 3 * se


def test_sigma2eta_mean_matches_bernoulli_variance(d1_problem):
    # E[sigma2eta] = p(1-p) for the unbiased divisor.
    rng = np.random.default_rng(6)
    xi = np.array([0.4])
    p = transmittance_batch(d1_problem, xi[None])[0]
    reps, n_eta = 2000, 500
    _, vals = simulate_training_set(d1_problem, np.tile(xi, (reps, 1)), n_eta, rng)
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - p * (1 - p)) <= 3 * se


def test_simulate_reproducible(d3_problem):
    xis = np.array([[0.2, -0.7, 0.5]])
    a = simulate_training_set(d3_problem, xis, 64, np.random.default_rng(77))
    b = simulate_training_set(d3_problem, xis, 64, np.random.default_rng(77))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


@pytest.mark.parametrize("n_eta", [1, 2, 16, 40])
def test_training_set_split_over_calls(d3_problem, n_eta):
    # Samples consume the stream in order: splitting a batch over
    # consecutive calls on one generator gives identical tallies, on the
    # uniform path (n_eta = 1) and on the binomial path alike.
    xis = sample_parameters(d3_problem, 8, np.random.default_rng(1))
    qt, s2 = simulate_training_set(d3_problem, xis, n_eta, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    parts = [simulate_training_set(d3_problem, part, n_eta, rng) for part in (xis[:3], xis[3:])]
    assert np.array_equal(qt, np.concatenate([q for q, _ in parts]))
    if n_eta == 1:
        assert s2 is None and all(s is None for _, s in parts)
    else:
        assert np.array_equal(s2, np.concatenate([s for _, s in parts]))


def test_training_set_single_history(d1_problem, d3_problem, rng):
    qt, s2 = simulate_training_set(d1_problem, np.zeros((1, 1)), 1, rng)
    assert qt[0] in (0.0, 1.0)
    assert s2 is None
    xis = sample_parameters(d3_problem, 5, rng)
    qt, s2 = simulate_training_set(d3_problem, xis, 1, rng)
    assert s2 is None
    assert set(np.unique(qt)) <= {0.0, 1.0}
    with pytest.raises(ValueError):
        simulate_training_set(d3_problem, xis, 0, rng)
    with pytest.raises(ValueError):
        simulate_training_set(d3_problem, xis[:, :2], 4, rng)


@pytest.mark.parametrize("n_eta", [1, 2, 3, 7, 40, 100, 10**6])
def test_tally_statistics_from_counts(d3_problem, n_eta):
    # The statistics come from one leak count per sample: a uniform per
    # sample at n_eta = 1, one binomial draw per sample otherwise, so the
    # same draw can be scored by hand and leaves the generator where the
    # reference leaves it.
    xis = sample_parameters(d3_problem, 400, np.random.default_rng(3))
    p = transmittance_batch(d3_problem, xis)
    rng = np.random.default_rng(4)
    qt, s2 = simulate_training_set(d3_problem, xis, n_eta, rng)
    ref = np.random.default_rng(4)
    if n_eta == 1:
        assert np.array_equal(qt, ref.random(400) < p)
        assert s2 is None
    else:
        k = ref.binomial(n_eta, p)
        assert np.array_equal(qt, k / n_eta)
        assert np.array_equal(s2, k * (n_eta - k) / (n_eta * (n_eta - 1)))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n_eta", [10**10, 2**53, 2**62])
def test_tally_variance_does_not_wrap(d1_problem, n_eta):
    # K (n_eta - K) is past 2**63 here: as an int64 product it would wrap
    # (to 6.55e18 instead of 2.5e19 at n_eta = 1e10, p = 0.5, and negative
    # at 2**62). Taken in float64, sigma2eta stays within 1e-3 of p (1 - p);
    # its sampling error is below 1e-4 relative at these n_eta.
    xis = sample_parameters(d1_problem, 200, np.random.default_rng(7))
    p = transmittance_batch(d1_problem, xis)
    qt, s2 = simulate_training_set(d1_problem, xis, n_eta, np.random.default_rng(8))
    assert np.all(np.abs(qt - p) <= 6 * np.sqrt(p * (1 - p) / n_eta))
    assert np.all(s2 > 0)
    assert np.allclose(s2, p * (1 - p), rtol=1e-3, atol=0)


def _chi2_tail(counts, pmf):
    # Upper-tail probability of Pearson's statistic for observed counts of
    # K = 0 .. n_eta against the exact pmf. Adjacent values of K are merged,
    # left to right, into cells of at least 5 expected draws; the last cell
    # takes the upper tail.
    import mpmath

    expected = pmf * counts.sum()
    edges = [0]
    for k in range(1, len(pmf)):
        if expected[edges[-1]:k].sum() >= 5 and expected[k:].sum() >= 5:
            edges.append(k)
    obs = np.add.reduceat(counts, edges)
    exp = np.add.reduceat(expected, edges)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    df = len(edges) - 1
    return float(mpmath.gammainc(df / 2, stat / 2, mpmath.inf, regularized=True))


@pytest.mark.parametrize("n_eta, seed", [(2, 13), (20, 11), (200, 12)])
def test_leak_count_law_matches_the_per_history_game(d1_problem, n_eta, seed):
    # K from the draw and K from one uniform per history (the analog game,
    # kept here as the reference) both follow Binomial(n_eta, p). At
    # n_eta p = 0.74 and 7.4 NumPy's binomial inverts the cdf, at 73.6 it
    # runs BTPE; n_eta = 2 is the smallest count the binomial path takes.
    # Each sample of 5000 counts passes Pearson's chi-square test against
    # the exact pmf unless its tail probability is below 1e-4: a correct
    # draw fails once in 10^4 seeds, this test (6 checks) at most 6 in 10^4.
    from math import comb

    reps = 5000
    xis = np.zeros((reps, 1))
    p = float(transmittance_batch(d1_problem, xis[:1])[0])
    pmf = np.array([comb(n_eta, k) * p**k * (1 - p) ** (n_eta - k) for k in range(n_eta + 1)])
    qt, _ = simulate_training_set(d1_problem, xis, n_eta, np.random.default_rng(seed))
    drawn = np.rint(qt * n_eta).astype(int)
    per_history = (np.random.default_rng(seed).random((reps, n_eta)) < p).sum(1)
    for k in (drawn, per_history):
        assert _chi2_tail(np.bincount(k, minlength=n_eta + 1), pmf) >= 1e-4


def test_draw_memory_is_bounded_per_sample(d1_problem):
    # A draw holds a few float64 arrays over the samples and nothing over
    # the histories, so its extra peak stays under 64 B per sample (about
    # 41 B measured) at n_eta = 2 and at n_eta = 10**6, where one uniform
    # per history would take 8 MB per sample.
    import tracemalloc

    xis = sample_parameters(d1_problem, 1000, np.random.default_rng(3))
    for n_eta in (2, 10**6):
        rng = np.random.default_rng(4)
        tracemalloc.start()
        try:
            qt, s2 = simulate_training_set(d1_problem, xis, n_eta, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert qt.shape == s2.shape == (1000,)
        assert peak < 64 * 1000
