import math
import time
from decimal import Decimal, localcontext
from itertools import combinations
from pathlib import Path

import mpmath
import numpy as np
import pytest

from uqpc.experiments import load_config
from uqpc.oracle import (
    coefficient_moments_exact,
    exact_mean,
    exact_sobol,
    exact_variance,
    quadrature_coefficients,
    section_moments,
)
from uqpc.polybasis import eval_basis_matrix, gauss_legendre_rule, total_degree_multi_indices
from uqpc.transport import SlabProblem, transmittance_batch

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# Three unequal sections, so no factor or coefficient is repeated.
MIXED_D3 = SlabProblem(sigma0=[0.3, 1.0, 0.7], sigma_delta=[0.29, 0.95, 0.2], dx=[1.0, 0.5, 2.0])


def factor_moment(sigma0, sigma_delta, dx, power):
    # E[g^p] for one section: the mean of the section with sigma0 and
    # sigma_delta scaled by p.
    mu, _ = section_moments(SlabProblem([power * sigma0], [power * sigma_delta], [dx]))
    return float(mu[0])


def test_factor_moment_deterministic_limit():
    mu, r = section_moments(SlabProblem([0.3], [0.0], [1.0]))
    assert mu[0] == pytest.approx(math.exp(-0.3), abs=1e-15)
    assert r[0] == 0.0


def test_factor_moment_closed_form():
    # E[e^{-p Sigma(xi) dx}] = e^{-p sigma0 dx} sinh(p sigma_delta dx)/(p sigma_delta dx)
    m1 = factor_moment(1.0, 0.95, 1.0, 1)
    m2 = factor_moment(1.0, 0.95, 1.0, 2)
    assert m1 == pytest.approx(math.exp(-1.0) * math.sinh(0.95) / 0.95, rel=1e-14)
    assert m2 == pytest.approx(math.exp(-2.0) * math.sinh(1.9) / 1.9, rel=1e-14)
    # r = E[g^2] / E[g]^2 - 1 = a coth(a) - 1
    _, r = section_moments(SlabProblem([1.0], [0.95], [1.0]))
    assert r[0] == pytest.approx(m2 / m1**2 - 1.0, rel=1e-14)
    assert r[0] == pytest.approx(0.95 / math.tanh(0.95) - 1.0, rel=1e-14)


def test_factor_moment_series_branch():
    # sinh(a)/a stays exact near a = 0 without a value jump.
    lo = factor_moment(1.0, 0.99999e-4, 1.0, 1)
    hi = factor_moment(1.0, 1.00001e-4, 1.0, 1)
    assert abs(hi - lo) < 1e-12
    x = 5e-5
    assert factor_moment(1.0, x, 1.0, 1) == pytest.approx(
        math.exp(-1.0) * math.sinh(x) / x, rel=1e-14
    )
    # The series of a coth(a) - 1 hands over to the closed form at a = 0.25.
    a = np.array([0.25 * (1 - 1e-12), 0.25, 0.25 * (1 + 1e-12)])
    _, r = section_moments(SlabProblem(a, a, np.ones(3)))
    assert np.all(np.diff(r) > 0)
    assert r == pytest.approx(a / np.tanh(a) - 1.0, rel=1e-14)


def test_factor_moment_against_quadrature(d1_problem):
    nodes, weights = gauss_legendre_rule(40)
    for power in (1, 2, 3):
        direct = float(weights @ np.exp(-power * (1.0 + 0.95 * nodes)))
        assert factor_moment(1.0, 0.95, 1.0, power) == pytest.approx(direct, rel=1e-13)


def _decimal_variance(sigma0, sigma_delta, dx):
    # prod E[g^2] - (prod E[g])^2 in 60-digit decimal arithmetic.
    with localcontext() as ctx:
        ctx.prec = 60

        def sinhc(x):
            return ((x.exp() - (-x).exp()) / 2) / x if x else Decimal(1)

        m1 = m2 = Decimal(1)
        for s0, sd, h in zip(sigma0, sigma_delta, dx):
            b, a = Decimal(s0) * Decimal(h), Decimal(sd) * Decimal(h)
            m1 *= (-b).exp() * sinhc(a)
            m2 *= (-2 * b).exp() * sinhc(2 * a)
        return m2 - m1 * m1


def test_exact_variance_small_sections():
    # E[Q^2] - E[Q]^2 cancels as a = sigma_delta dx -> 0; the variance must
    # keep full relative precision down to a = 1e-9.
    problems = [SlabProblem([2.0], [a / 1.5], [1.5]) for a in np.geomspace(1e-9, 3.0, 40)]
    problems.append(SlabProblem([2.0, 0.3], [1e-9, 1e-7], [1.0, 1.0]))
    shipped = [load_config(path).problem for path in sorted(CONFIG_DIR.glob("*.yaml"))]
    assert len(shipped) == 4
    problems += shipped
    for problem in problems:
        ref = _decimal_variance(problem.sigma0, problem.sigma_delta, problem.dx)
        err = abs(Decimal(exact_variance(problem)) - ref) / ref
        assert err <= Decimal("1e-13"), (problem.sigma_delta, float(err))


def test_exact_moments_d1(d1_problem):
    mean = math.exp(-1.0) * math.sinh(0.95) / 0.95
    var = math.exp(-2.0) * math.sinh(1.9) / 1.9 - mean**2
    assert exact_mean(d1_problem) == pytest.approx(mean, rel=1e-14)
    assert exact_variance(d1_problem) == pytest.approx(var, rel=1e-13)
    assert exact_variance(d1_problem) == pytest.approx(0.05151162555460076, rel=1e-12)


def test_exact_moments_d3(d3_problem):
    m1 = math.exp(-0.3) * math.sinh(0.29) / 0.29
    m2 = math.exp(-0.6) * math.sinh(0.58) / 0.58
    assert exact_mean(d3_problem) == pytest.approx(m1**3, rel=1e-14)
    assert exact_variance(d3_problem) == pytest.approx(m2**3 - m1**6, rel=1e-13)
    assert exact_variance(d3_problem) == pytest.approx(0.015456695830503048, rel=1e-12)


def test_exact_variance_deterministic_limit():
    flat = SlabProblem(sigma0=[0.3, 0.4], sigma_delta=[0.0, 0.0], dx=[1.0, 1.0])
    assert exact_variance(flat) == pytest.approx(0.0, abs=1e-15)


def test_quadrature_constant_qoi():
    flat = SlabProblem(sigma0=[0.3], sigma_delta=[0.0], dx=[1.0])
    basis = total_degree_multi_indices(1, 4)
    beta = quadrature_coefficients(flat, basis)
    assert beta[0] == pytest.approx(math.exp(-0.3), abs=1e-14)
    assert beta[1:] == pytest.approx(np.zeros(4), abs=1e-14)


def test_quadrature_projection_of_square():
    # xi^2 = 1/3 + (2/3) P_2(xi), so the projection must return (1/3, 0, 2/3).
    basis = total_degree_multi_indices(1, 2)
    nodes, weights = gauss_legendre_rule(4)
    beta = (basis.norms**-1) * ((weights * nodes**2) @ np.column_stack(
        [np.ones_like(nodes), nodes, 0.5 * (3 * nodes**2 - 1)]
    ))
    assert beta == pytest.approx([1.0 / 3.0, 0.0, 2.0 / 3.0], abs=1e-14)


def test_quadrature_coefficients_parseval(d1_problem):
    basis = total_degree_multi_indices(1, 12)
    beta = quadrature_coefficients(d1_problem, basis)
    assert beta[0] == pytest.approx(exact_mean(d1_problem), abs=1e-12)
    tail = float(np.sum(beta[1:] ** 2 * basis.norms[1:]))
    assert tail == pytest.approx(exact_variance(d1_problem), abs=1e-6)
    # variance recovered from below, monotone in the degree
    prev = 0.0
    for n0 in (2, 4, 8, 12):
        b = total_degree_multi_indices(1, n0)
        part = float(np.sum(quadrature_coefficients(d1_problem, b)[1:] ** 2 * b.norms[1:]))
        assert prev <= part + 1e-15
        assert part <= exact_variance(d1_problem) + 1e-12
        prev = part


def test_quadrature_level_doubling(d3_problem):
    basis = total_degree_multi_indices(3, 4)
    a = quadrature_coefficients(d3_problem, basis)
    b = quadrature_coefficients(d3_problem, basis, level=2 * (4 + 2))
    assert np.max(np.abs(a - b)) < 1e-10


def test_quadrature_validation(d1_problem, d3_problem):
    with pytest.raises(ValueError):
        quadrature_coefficients(d1_problem, total_degree_multi_indices(3, 2))
    with pytest.raises(ValueError):
        quadrature_coefficients(d3_problem, total_degree_multi_indices(3, 2), level=0)


def test_exact_sobol_d1(d1_problem):
    first, total = exact_sobol(d1_problem)
    assert first == pytest.approx([1.0], abs=1e-14)
    assert total == pytest.approx([1.0], abs=1e-14)


def test_exact_sobol_d3(d3_problem):
    first, total = exact_sobol(d3_problem)
    # independent reduction through the complement set
    mu = math.exp(-0.3) * math.sinh(0.29) / 0.29
    m2 = math.exp(-0.6) * math.sinh(0.58) / 0.58
    v = m2 - mu**2
    var = exact_variance(d3_problem)
    s1 = v * mu**4 / var
    st1 = 1.0 - (m2**2 - mu**4) * mu**2 / var
    assert first == pytest.approx([s1] * 3, rel=1e-12)
    assert total == pytest.approx([st1] * 3, rel=1e-12)
    assert first[0] == pytest.approx(0.32421117906912744, rel=1e-12)
    assert total[0] == pytest.approx(0.34253947449115646, rel=1e-12)
    assert np.all(first <= total)


def test_exact_sobol_anova_closure(d3_problem):
    # product-structure identity: total variance = prod(v + mu^2) - prod(mu^2)
    mu = math.exp(-0.3) * math.sinh(0.29) / 0.29
    m2 = math.exp(-0.6) * math.sinh(0.58) / 0.58
    assert m2**3 - mu**6 == pytest.approx(exact_variance(d3_problem), abs=1e-12)


def test_exact_sobol_degenerate():
    flat = SlabProblem(sigma0=[0.3], sigma_delta=[0.0], dx=[1.0])
    with pytest.raises(ValueError):
        exact_sobol(flat)


def test_coefficient_moments_exact(d1_problem):
    basis = total_degree_multi_indices(1, 6)
    var_qpsi, noise = coefficient_moments_exact(d1_problem, basis)
    assert var_qpsi.shape == noise.shape == (len(basis),)
    # k = 0: Var[Q Psi_0] = Var[Q]; E[Psi_0^2 p(1-p)] = E[p] - E[p^2]
    assert var_qpsi[0] == pytest.approx(exact_variance(d1_problem), rel=1e-12)
    m1 = factor_moment(1.0, 0.95, 1.0, 1)
    m2 = factor_moment(1.0, 0.95, 1.0, 2)
    assert noise[0] == pytest.approx(m1 - m2, rel=1e-12)
    # k = 1 cross-check by direct quadrature
    nodes, weights = gauss_legendre_rule(30)
    p = np.exp(-(1.0 + 0.95 * nodes))
    qpsi = p * nodes
    var_direct = float(weights @ qpsi**2) - float(weights @ qpsi) ** 2
    noise_direct = float(weights @ (nodes**2 * p * (1 - p)))
    assert var_qpsi[1] == pytest.approx(var_direct, rel=1e-12)
    assert noise[1] == pytest.approx(noise_direct, rel=1e-12)


@pytest.mark.parametrize("n0", [4, 6])
def test_factorized_oracle_matches_tensor_quadrature(n0, tensor_rule):
    basis = total_degree_multi_indices(3, n0)

    def tensor_terms(level):
        nodes, weights = tensor_rule(3, level)
        return weights, transmittance_batch(MIXED_D3, nodes), eval_basis_matrix(basis, nodes)

    weights, q, psi = tensor_terms(n0 + 2)
    ref = psi.T @ (weights * q) / basis.norms
    # A high-degree coefficient is a sum that cancels to far below its
    # terms, so both sides carry rounding of order eps * E[|Q Psi_k|] / b_k.
    scale = np.abs(psi).T @ (weights * q) / basis.norms
    assert np.all(np.abs(quadrature_coefficients(MIXED_D3, basis) - ref) <= 1e-13 * scale)

    weights, q, psi = tensor_terms(n0 + 8)
    var_qpsi, noise = coefficient_moments_exact(MIXED_D3, basis)
    for k in range(len(basis)):
        qpsi = q * psi[:, k]
        var_ref = weights @ qpsi**2 - (weights @ qpsi) ** 2
        noise_ref = weights @ (psi[:, k] ** 2 * q * (1.0 - q))
        assert var_qpsi[k] == pytest.approx(var_ref, rel=1e-13)
        assert noise[k] == pytest.approx(noise_ref, rel=1e-13)


@pytest.mark.parametrize("sigma_delta", [1e-7, 1e-8])
def test_coefficient_moments_nearly_flat(sigma_delta):
    # Var[Q Psi_0] = Var[Q] keeps full relative precision when the section
    # variances are far below the squared means.
    for problem in (
        SlabProblem([1.0], [sigma_delta], [1.0]),
        SlabProblem([1.0, 0.3], [sigma_delta, 0.29], [1.0, 2.0]),
    ):
        basis = total_degree_multi_indices(problem.d, 4)
        var_qpsi, _ = coefficient_moments_exact(problem, basis)
        exact = exact_variance(problem)
        assert abs(var_qpsi[0] - exact) <= 1e-13 * exact


def _noise_moment_references(problem: SlabProblem, basis) -> list:
    # E[Psi_k^2 Q] - E[Psi_k^2 Q^2] for every term k, from 1-d section
    # integrals E[P_n^2 g_m^p] taken by mpmath at 40 digits, so the
    # difference loses nothing that matters.
    with mpmath.workdps(40):
        table = {}
        for m in range(problem.d):
            s0, sd, dx = (mpmath.mpf(float(v[m]))
                          for v in (problem.sigma0, problem.sigma_delta, problem.dx))
            for n in range(basis.total_degree + 1):
                for p in (1, 2):
                    def integrand(x, n=n, p=p):
                        return mpmath.legendre(n, x) ** 2 * mpmath.exp(-p * (s0 + sd * x) * dx)

                    table[m, n, p] = mpmath.quad(integrand, [-1, 1]) / 2
        return [
            mpmath.fprod(table[m, n, 1] for m, n in enumerate(degrees))
            - mpmath.fprod(table[m, n, 2] for m, n in enumerate(degrees))
            for degrees in basis.indices.tolist()
        ]


@pytest.mark.parametrize("problem, n0", [
    (SlabProblem([1e-8], [5e-9], [1.0]), 4),
    (SlabProblem([1e-6], [5e-7], [1.0]), 4),
    (SlabProblem([1e-8, 2e-8], [5e-9, 1e-8], [1.0, 0.5]), 3),
    *[(config.problem, config.n0) for config in (
        load_config(CONFIG_DIR / f"{name}.yaml")
        for name in ("d1_oracle", "d1_response", "d3_gsa", "d3_variance")
    )],
], ids=["transparent-1e-8", "transparent-1e-6", "transparent-d2",
        "d1_oracle", "d1_response", "d3_gsa", "d3_variance"])
def test_coefficient_noise_moment_against_mpmath(problem, n0):
    # E[Psi_k^2 p(1 - p)] for a nearly transparent slab (Q close to 1) is a
    # small difference of two moments near 1; it must keep full precision.
    basis = total_degree_multi_indices(problem.d, n0)
    _, noise = coefficient_moments_exact(problem, basis)
    for k, ref in enumerate(_noise_moment_references(problem, basis)):
        assert abs(noise[k] - ref) <= 1e-13 * ref


def test_coefficient_moments_zero_factor_mean(tensor_rule):
    # The second section is deterministic, so E[g_2 P_n] = 0 for n >= 1 and
    # Var[Q Psi_k] = E[Q^2 Psi_k^2] for every term of positive degree in it.
    problem = SlabProblem([0.3, 0.7], [0.29, 0.0], [1.0, 2.0])
    basis = total_degree_multi_indices(2, 4)
    nodes, weights = tensor_rule(2, 12)
    qpsi = transmittance_batch(problem, nodes)[:, None] * eval_basis_matrix(basis, nodes)
    var_qpsi, _ = coefficient_moments_exact(problem, basis)
    for k in np.flatnonzero(basis.indices[:, 1] > 0):
        assert var_qpsi[k] == pytest.approx(weights @ qpsi[:, k] ** 2, rel=1e-13)


def test_exact_sobol_matches_subset_sum():
    problem = SlabProblem(
        sigma0=[0.3, 1.0, 0.7, 2.0], sigma_delta=[0.29, 0.95, 0.2, 0.01], dx=[1.0, 0.5, 2.0, 1.0]
    )
    b = problem.sigma0 * problem.dx
    a = problem.sigma_delta * problem.dx
    mu = np.exp(-b) * np.sinh(a) / a
    v = np.exp(-2 * b) * np.sinh(2 * a) / (2 * a) - mu**2
    # The partial variance of a group u is prod_{i in u} v_i prod_{i not in u} mu_i^2.
    partial = {}
    for size in range(1, 5):
        for u in combinations(range(4), size):
            in_u = np.isin(np.arange(4), u)
            partial[u] = np.prod(v[in_u]) * np.prod(mu[~in_u] ** 2)
    var = sum(partial.values())
    first_ref = [partial[(i,)] / var for i in range(4)]
    total_ref = [sum(p for u, p in partial.items() if i in u) / var for i in range(4)]
    first, total = exact_sobol(problem)
    assert first == pytest.approx(first_ref, rel=1e-13)
    assert total == pytest.approx(total_ref, rel=1e-13)
    assert exact_variance(problem) == pytest.approx(var, rel=1e-13)


def test_oracle_high_dimension():
    # d = 20 would need a 20**20-node tensor grid; the factorized oracle
    # costs one 1-d table per section, and every one of the 10,626 terms
    # of n0 = 4 comes from indexing those tables.
    rng = np.random.default_rng(12)
    sigma0 = rng.uniform(0.2, 1.0, 20)
    problem = SlabProblem(sigma0, sigma0 * rng.uniform(0.1, 0.9, 20), rng.uniform(0.2, 1.0, 20))
    basis = total_degree_multi_indices(20, 4)
    start = time.perf_counter()
    beta = quadrature_coefficients(problem, basis)
    var_qpsi, noise = coefficient_moments_exact(problem, basis)
    first, total = exact_sobol(problem)
    assert time.perf_counter() - start < 1.0
    assert beta[0] == pytest.approx(exact_mean(problem), rel=1e-12)
    assert float(np.sum(beta[1:] ** 2 * basis.norms[1:])) <= exact_variance(problem)
    assert var_qpsi[0] == pytest.approx(exact_variance(problem), rel=1e-10)
    assert np.all(np.isfinite(var_qpsi)) and np.all(var_qpsi >= 0.0) and np.all(noise > 0.0)
    assert np.all(first > 0) and np.all(first <= total)
