"""Budgeted-sampling analysis for the coefficient estimators.

Models a run as n_xi parameter samples, each costing c_xi to set up plus
c_eta per history, under a fixed total budget. Closed forms answer how the
coefficient estimator variance moves with the histories-per-sample split
and when a single history per sample (the direct approach) wins.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CoefficientMoments",
    "CostModel",
    "break_even_nested",
    "coefficient_variance_model",
    "samples_for_budget",
]


@dataclass(frozen=True)
class CostModel:
    """Total budget and unit costs, all in the same arbitrary cost units."""

    c_total: float
    c_xi: float
    c_eta: float

    def __post_init__(self) -> None:
        if not self.c_total > 0:
            raise ValueError(f"c_total must be > 0, got {self.c_total}")
        if self.c_xi < 0:
            raise ValueError(f"c_xi must be >= 0, got {self.c_xi}")
        if not self.c_eta > 0:
            raise ValueError(f"c_eta must be > 0, got {self.c_eta}")

    def per_sample(self, n_eta: float) -> float:
        """Cost of one parameter sample with n_eta histories: c_xi + c_eta n_eta."""
        if not n_eta > 0:
            raise ValueError(f"n_eta must be > 0, got {n_eta}")
        return self.c_xi + self.c_eta * n_eta


@dataclass(frozen=True)
class CoefficientMoments:
    """Population moments entering one coefficient's estimator variance.

    ``var_qpsi`` is the parametric variance of Q(xi) Psi_k(xi) and
    ``noise_term`` the mean of Psi_k(xi)^2 times the single-history noise
    variance at xi. Supplied by the quadrature oracle in verification or
    estimated from data in practical use.
    """

    var_qpsi: float
    noise_term: float
    b_k: float

    def __post_init__(self) -> None:
        if self.var_qpsi < 0:
            raise ValueError(f"var_qpsi must be >= 0, got {self.var_qpsi}")
        if self.noise_term < 0:
            raise ValueError(f"noise_term must be >= 0, got {self.noise_term}")
        if not self.b_k > 0:
            raise ValueError(f"b_k must be > 0, got {self.b_k}")


def samples_for_budget(cost: CostModel, n_eta: float) -> float:
    """Real-valued sample count that exhausts the budget at a given n_eta."""
    return cost.c_total / cost.per_sample(n_eta)


def coefficient_variance_model(
    cost: CostModel, moments: CoefficientMoments, n_eta: float
) -> float:
    """Model variance of one coefficient estimator at equal total budget.

    (1/b_k^2) (c_xi + c_eta n_eta)/c_total (var_qpsi + noise_term/n_eta):
    the usual 1/n_xi factor with n_xi eliminated through the budget.
    """
    sample_cost = cost.per_sample(n_eta)  # refuses n_eta <= 0 before the division below
    variance = moments.var_qpsi + moments.noise_term / n_eta
    return variance * sample_cost / (cost.c_total * moments.b_k**2)


def break_even_nested(cost: CostModel, moments: CoefficientMoments) -> float:
    """Nested n_eta above which one history per sample is strictly better.

    Threshold (noise_term/var_qpsi) (c_xi/c_eta); at equal budget, the direct
    approach has lower model variance than nested sampling with any n_eta
    strictly above it. Zero re-sampling cost gives threshold 0: direct then
    always wins.
    """
    if moments.var_qpsi == 0.0:
        raise ValueError("var_qpsi = 0: degenerate signal, every split is equivalent noise-wise")
    return (moments.noise_term / moments.var_qpsi) * (cost.c_xi / cost.c_eta)
