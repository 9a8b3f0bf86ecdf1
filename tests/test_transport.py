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


def test_training_set_split_over_calls(d3_problem):
    # Histories consume the stream sample-major: splitting a batch over
    # consecutive calls on one generator gives identical tallies.
    xis = sample_parameters(d3_problem, 8, np.random.default_rng(1))
    qt, s2 = simulate_training_set(d3_problem, xis, 16, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    parts = [simulate_training_set(d3_problem, part, 16, rng) for part in (xis[:3], xis[3:])]
    assert np.array_equal(qt, np.concatenate([q for q, _ in parts]))
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
