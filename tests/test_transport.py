import numpy as np
import pytest

from uqpc.transport import (
    HistoryTally,
    SlabProblem,
    analytic_transmittance,
    cross_section,
    sample_parameters,
    simulate_histories,
    simulate_training_set,
    total_optical_depth,
    transmittance_batch,
)


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
    assert d3_problem.length == pytest.approx(3.0)


def test_from_intervals():
    prob = SlabProblem.from_intervals(lo=[0.05], hi=[1.95], dx=[1.0])
    assert prob.sigma0[0] == pytest.approx(1.0, abs=1e-15)
    assert prob.sigma_delta[0] == pytest.approx(0.95, abs=1e-15)
    with pytest.raises(ValueError):
        SlabProblem.from_intervals(lo=[1.0], hi=[0.5], dx=[1.0])


def test_cross_section_endpoints(d1_problem, d3_problem):
    assert cross_section(d1_problem, 0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert cross_section(d1_problem, 0, -1.0) == pytest.approx(0.05, abs=1e-15)
    assert cross_section(d3_problem, 2, 1.0) == pytest.approx(0.59, abs=1e-15)
    with pytest.raises(ValueError):
        cross_section(d1_problem, 1, 0.0)
    with pytest.raises(ValueError):
        cross_section(d1_problem, 0, 1.5)


def test_optical_depth(d1_problem, d3_problem):
    assert total_optical_depth(d1_problem, np.zeros(1)) == pytest.approx(1.0, abs=1e-15)
    # deterministic limit: sigma_delta = 0
    flat = SlabProblem(sigma0=[0.3] * 3, sigma_delta=[0.0] * 3, dx=[1.0] * 3)
    for xi in (np.zeros(3), np.array([1.0, -1.0, 0.5])):
        assert total_optical_depth(flat, xi) == pytest.approx(0.9, abs=1e-15)
    assert total_optical_depth(d3_problem, np.ones(3)) == pytest.approx(1.77, abs=1e-15)
    with pytest.raises(ValueError):
        total_optical_depth(d1_problem, np.array([1.2]))


def test_analytic_transmittance(d1_problem, d3_problem, rng):
    flat = SlabProblem(sigma0=[0.0], sigma_delta=[0.0], dx=[1.0])
    assert analytic_transmittance(flat, np.zeros(1)) == 1.0
    assert analytic_transmittance(d1_problem, np.zeros(1)) == pytest.approx(
        np.exp(-1.0), abs=1e-15
    )
    for _ in range(5):
        xi = rng.uniform(-1.0, 1.0, 3)
        q = analytic_transmittance(d3_problem, xi)
        assert 0.0 < q <= 1.0
        assert q == pytest.approx(np.exp(-total_optical_depth(d3_problem, xi)), abs=1e-15)


def test_transmittance_monotone_in_xi(d3_problem):
    xi = np.array([0.1, -0.2, 0.3])
    base = analytic_transmittance(d3_problem, xi)
    for m in range(3):
        bumped = xi.copy()
        bumped[m] += 0.05
        assert analytic_transmittance(d3_problem, bumped) < base


def test_transmittance_batch(d3_problem, rng):
    xis = rng.uniform(-1.0, 1.0, (10, 3))
    batch = transmittance_batch(d3_problem, xis)
    expected = [analytic_transmittance(d3_problem, xi) for xi in xis]
    assert batch == pytest.approx(expected, abs=1e-15)


def test_sample_parameters(d3_problem, rng):
    xis = sample_parameters(d3_problem, 1000, rng)
    assert xis.shape == (1000, 3)
    assert np.all(np.abs(xis) <= 1.0)
    again = sample_parameters(d3_problem, 1000, np.random.default_rng(20260814))
    assert np.array_equal(xis, again)
    with pytest.raises(ValueError):
        sample_parameters(d3_problem, 0, rng)


def test_simulate_histories_basic(d1_problem, rng):
    tally = simulate_histories(d1_problem, np.zeros(1), 100, rng)
    assert isinstance(tally, HistoryTally)
    assert 0.0 <= tally.qtilde <= 1.0
    assert tally.qtilde * 100 == pytest.approx(round(tally.qtilde * 100), abs=1e-9)
    # unbiased Bernoulli sample variance: k successes out of n
    k = round(tally.qtilde * 100)
    assert tally.sigma2eta == pytest.approx(k * (100 - k) / (100 * 99), abs=1e-12)
    with pytest.raises(ValueError):
        simulate_histories(d1_problem, np.zeros(1), 0, rng)


def test_simulate_histories_single_draw(d1_problem, rng):
    tally = simulate_histories(d1_problem, np.zeros(1), 1, rng)
    assert tally.qtilde in (0.0, 1.0)
    assert tally.sigma2eta is None


def test_simulate_histories_no_attenuation(rng):
    clear = SlabProblem(sigma0=[0.0, 0.0], sigma_delta=[0.0, 0.0], dx=[1.0, 1.0])
    tally = simulate_histories(clear, np.zeros(2), 50, rng)
    assert tally.qtilde == 1.0
    assert tally.sigma2eta == 0.0


def test_simulate_histories_law_of_large_numbers(d1_problem):
    p = analytic_transmittance(d1_problem, np.zeros(1))
    tally = simulate_histories(d1_problem, np.zeros(1), 10**6, np.random.default_rng(5))
    se = np.sqrt(p * (1 - p) / 10**6)
    assert abs(tally.qtilde - p) <= 3 * se


def test_sigma2eta_mean_matches_bernoulli_variance(d1_problem):
    # E[sigma2eta] = p(1-p) for the unbiased divisor.
    rng = np.random.default_rng(6)
    xi = np.array([0.4])
    p = analytic_transmittance(d1_problem, xi)
    reps, n_eta = 2000, 500
    vals = [simulate_histories(d1_problem, xi, n_eta, rng).sigma2eta for _ in range(reps)]
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - p * (1 - p)) <= 3 * se


def test_simulate_histories_reproducible(d3_problem):
    xi = np.array([0.2, -0.7, 0.5])
    a = simulate_histories(d3_problem, xi, 64, np.random.default_rng(77))
    b = simulate_histories(d3_problem, xi, 64, np.random.default_rng(77))
    assert a == b


def test_training_set_matches_per_sample_calls(d3_problem):
    # Batch tally consumes the stream exactly like consecutive single calls.
    xis = sample_parameters(d3_problem, 8, np.random.default_rng(1))
    qt, s2 = simulate_training_set(d3_problem, xis, 16, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    singles = [simulate_histories(d3_problem, xi, 16, rng) for xi in xis]
    assert qt == pytest.approx([t.qtilde for t in singles], abs=1e-15)
    assert s2 == pytest.approx([t.sigma2eta for t in singles], abs=1e-15)


def test_training_set_single_history(d3_problem, rng):
    xis = sample_parameters(d3_problem, 5, rng)
    qt, s2 = simulate_training_set(d3_problem, xis, 1, rng)
    assert s2 is None
    assert set(np.unique(qt)) <= {0.0, 1.0}
    with pytest.raises(ValueError):
        simulate_training_set(d3_problem, xis, 0, rng)
    with pytest.raises(ValueError):
        simulate_training_set(d3_problem, xis[:, :2], 4, rng)
