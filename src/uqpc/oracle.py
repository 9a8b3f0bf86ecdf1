"""Exact reference quantities for the slab attenuation problem.

The transmittance factorizes over sections, Q(xi) = prod_m g_m(xi_m) with
g_m(xi) = exp(-Sigma_m(xi) dx_m), so every reference is built from 1-d
section terms: moments and Sobol indices in closed form, Legendre
coefficients and their moments from one Gauss table per section. These are
the verification targets for the sampling estimators.
"""

from __future__ import annotations

import numpy as np

from .polybasis import MultiIndexBasis, gauss_legendre_rule, legendre_table
from .transport import SlabProblem

__all__ = [
    "coefficient_moments_exact",
    "exact_mean",
    "exact_sobol",
    "exact_variance",
    "quadrature_coefficients",
    "section_moments",
]

# a*coth(a) - 1 = sum_n c_n a^(2n), c_n = 2^(2n) B_(2n) / (2n)!. Below
# _SERIES_BELOW these eight terms are exact to ~1e-18 relative (each term is
# about a^2/pi^2 times the last); above it a/tanh(a) - 1 cancels away fewer
# than 50 ulp.
_COTH_SERIES = np.array([1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555,
                         -1382 / 638512875, 4 / 18243225, -3617 / 162820783125])
_SERIES_BELOW = 0.25


def section_moments(problem: SlabProblem) -> tuple[np.ndarray, np.ndarray]:
    """Mean mu_m = E[g_m] and relative variance r_m = Var[g_m] / mu_m^2 per section.

    With a_m = sigma_delta_m dx_m and xi ~ U(-1, 1),
    mu_m = exp(-sigma0_m dx_m) sinh(a_m) / a_m and r_m = a_m coth(a_m) - 1,
    with the a_m -> 0 limits exp(-sigma0_m dx_m) and 0. r_m is taken from
    its Taylor series at small a_m, where the closed form cancels. The p-th
    moment E[g_m^p] is the mean of the problem with sigma0 and sigma_delta
    scaled by p.
    """
    a = problem.sigma_delta * problem.dx
    sinhc = np.divide(np.sinh(a), a, out=np.ones_like(a), where=a > 0)
    mu = np.exp(-problem.sigma0 * problem.dx) * sinhc
    a2 = a * a
    r = a2 * np.polyval(_COTH_SERIES[::-1], a2)
    big = a >= _SERIES_BELOW
    r[big] = a[big] / np.tanh(a[big]) - 1.0
    return mu, r


def exact_mean(problem: SlabProblem) -> float:
    """Exact E[Q]; product of the per-section means."""
    mu, _ = section_moments(problem)
    return float(np.prod(mu))


def exact_variance(problem: SlabProblem) -> float:
    """Exact Var[Q] = prod_m E[g_m^2] - (prod_m E[g_m])^2.

    Evaluated as prod_m mu_m^2 * expm1(sum_m log1p(r_m)), which keeps full
    relative precision however small the section variances are.
    """
    mu, r = section_moments(problem)
    return float(np.prod(mu**2) * np.expm1(np.sum(np.log1p(r))))


def _section_sums(problem: SlabProblem, degrees: np.ndarray, level: int, j: int, factor):
    # E[P_{k_m}^j factor(tau_m)] per section m for every multi-index k in the
    # rows of `degrees`, by the level-point Gauss rule; tau_m is the
    # section's optical depth, so factor = exp(-tau) gives E[P^j g_m].
    nodes, weights = gauss_legendre_rule(level)
    tau = np.outer(problem.sigma_delta * problem.dx, nodes) + (problem.sigma0 * problem.dx)[:, None]
    table = (weights * factor(tau)) @ legendre_table(int(degrees.max()), nodes) ** j
    return table[np.arange(problem.d), degrees]


def quadrature_coefficients(
    problem: SlabProblem, basis: MultiIndexBasis, level: int | None = None
) -> np.ndarray:
    """Expansion coefficients of the exact transmittance by Gauss quadrature.

    beta_k = prod_m E[g_m P_{k_m}] / b_k, each factor from the ``level``-point
    rule of one section (default total_degree + 2). Doubling the level should
    leave every coefficient unchanged to ~1e-10 once converged.
    """
    if basis.dimension != problem.d:
        raise ValueError(f"basis dimension {basis.dimension} != problem dimension {problem.d}")
    if level is None:
        level = basis.total_degree + 2
    sums = _section_sums(problem, basis.indices, level, 1, lambda tau: np.exp(-tau))
    return np.prod(sums, axis=-1) / basis.norms


def exact_sobol(problem: SlabProblem) -> np.ndarray:
    """Exact Sobol indices of the transmittance as one (2, d) array:
    first-order indices in row 0, total indices in row 1.

    For a product of independent factors with relative variances r_i and
    L = sum_j log1p(r_j): S_i = r_i / expm1(L) and
    T_i = r_i exp(L - log1p(r_i)) / expm1(L).
    """
    _, r = section_moments(problem)
    if not np.any(r > 0.0):
        raise ValueError("problem has zero output variance; Sobol indices undefined")
    log1p_r = np.log1p(r)
    total_log = np.sum(log1p_r)
    scale = np.expm1(total_log)
    return np.stack((r / scale, r * np.exp(total_log - log1p_r) / scale))


def _section_factor_moments(
    problem: SlabProblem, n_max: int, level: int
) -> tuple[np.ndarray, np.ndarray]:
    # Mean and variance of each section's factor X_m = g_m P_n by the
    # level-point rule, as (section, degree n <= n_max) tables. With
    # g_m = c_m (1 + h_m), h_m = expm1(-a_m xi) and the exact E[P_n] = [n = 0],
    # the deviation X_m - E[X_m] is summed from terms that keep full relative
    # precision however small a_m is.
    nodes, weights = gauss_legendre_rule(level)
    c = np.exp(-problem.sigma0 * problem.dx)[:, None]
    h = np.expm1(-np.outer(problem.sigma_delta * problem.dx, nodes))
    p = legendre_table(n_max, nodes).T
    is_mean = (np.arange(n_max + 1) == 0)[:, None]
    ph = p * h[:, None, :]
    mean_ph = ph @ weights
    dev = (p - is_mean) + (ph - mean_ph[..., None])
    return c * (is_mean.T + mean_ph), c**2 * (dev**2 @ weights)


def coefficient_moments_exact(
    problem: SlabProblem, basis: MultiIndexBasis, level: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature-exact Var_xi[Q Psi_k] and E_xi[Psi_k^2 sigma_eta^2] for every term k.

    Returns two arrays over the terms of ``basis``. sigma_eta^2(xi) =
    p(1 - p) with p = exp(-tau(xi)) is the per-history Bernoulli variance of
    the analog transport game. These are the inputs the estimator-variance
    cost model needs. Each expectation is a product of per-section
    ``level``-point Gauss sums (default total_degree + 8).
    Q Psi_k is a product of independent section factors X_m with means
    E_m and variances V_m, so Var[Q Psi_k] = prod E[X_m^2] - prod E_m^2 is
    evaluated as prod E[X_m^2] * -expm1(sum log1p(-V_m / E[X_m^2])): no
    difference of near-equal products, and a factor with E_m = 0 needs no
    special case. Likewise E[Psi_k^2 Q] - E[Psi_k^2 Q^2], with
    A_m = E[P_{k_m}^2 g_m] and C_m = E[P_{k_m}^2 g_m (1 - g_m)] (1 - g_m
    taken as -expm1(-tau_m)), is prod A_m * -expm1(sum log1p(-C_m / A_m)),
    accurate also for nearly transparent sections, where Q is close to 1.
    """
    if level is None:
        level = basis.total_degree + 8
    mean, var = _section_factor_moments(problem, basis.total_degree, level)
    sections = np.arange(problem.d)
    mean, var = mean[sections, basis.indices], var[sections, basis.indices]
    second = mean**2 + var
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf where E_m = 0
        log_kept = np.sum(np.log1p(-var / second), axis=1)
    var_qpsi = np.prod(second, axis=1) * -np.expm1(log_kept)
    a = _section_sums(problem, basis.indices, level, 2, lambda tau: np.exp(-tau))
    c = _section_sums(
        problem, basis.indices, level, 2, lambda tau: -np.exp(-tau) * np.expm1(-tau)
    )
    return var_qpsi, np.prod(a, axis=1) * -np.expm1(np.sum(np.log1p(-c / a), axis=1))
