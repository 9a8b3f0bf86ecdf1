"""Analog Monte Carlo for a 1D mono-energetic, absorption-only slab.

The slab is an ordered sequence of material sections with uncertain total
cross sections Sigma_m(xi_m) = sigma0_m + sigma_delta_m * xi_m, where
xi_m ~ U(-1, 1). A normally incident unit beam enters at x = 0 and the
quantity of interest is the transmittance: the probability that a particle
crosses the whole slab without being absorbed, exp(-tau(xi)) with tau the
total optical depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SlabProblem",
    "sample_parameters",
    "simulate_training_set",
    "transmittance_batch",
]


@dataclass(frozen=True, eq=False)
class SlabProblem:
    """Slab geometry and cross-section model.

    ``sigma0``, ``sigma_delta`` and ``dx`` are parallel arrays over the
    material sections: mean cross section, half-width of the cross-section
    interval (both 1/cm), and section width (cm). The cross section must
    stay nonnegative over xi in [-1, 1], so sigma0 >= sigma_delta >= 0.
    """

    sigma0: np.ndarray
    sigma_delta: np.ndarray
    dx: np.ndarray

    def __post_init__(self) -> None:
        for name in ("sigma0", "sigma_delta", "dx"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if not (self.sigma0.shape == self.sigma_delta.shape == self.dx.shape) or self.sigma0.ndim != 1:
            raise ValueError("sigma0, sigma_delta and dx must be 1d arrays of equal length")
        if self.sigma0.size == 0:
            raise ValueError("problem needs at least one material section")
        if not all(np.isfinite(a).all() for a in (self.sigma0, self.sigma_delta, self.dx)):
            raise ValueError("sigma0, sigma_delta and dx must be finite")
        if np.any(self.dx <= 0):
            raise ValueError("section widths dx must be positive")
        if np.any(self.sigma_delta < 0):
            raise ValueError("sigma_delta must be nonnegative")
        if np.any(self.sigma0 - self.sigma_delta < 0):
            raise ValueError("cross section goes negative: require sigma0 - sigma_delta >= 0")

    @property
    def d(self) -> int:
        """Number of material sections = dimension of xi."""
        return self.sigma0.size


def transmittance_batch(problem: SlabProblem, xis: np.ndarray) -> np.ndarray:
    """Closed-form transmittance exp(-tau(xi)) for a batch of samples, shape (n,).

    tau(xi) = sum_m Sigma_m(xi_m) dx_m is the optical depth of the whole slab.
    """
    xis = np.asarray(xis, dtype=float)
    tau0 = np.dot(problem.sigma0, problem.dx)
    return np.exp(-(tau0 + xis @ (problem.sigma_delta * problem.dx)))


def sample_parameters(problem: SlabProblem, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n parameter samples from U(-1, 1)^d; returns shape (n, d)."""
    if n < 1:
        raise ValueError("need at least one sample")
    return rng.uniform(-1.0, 1.0, size=(n, problem.d))


# Uniforms drawn per step of a tally draw: 256 KiB, so the draw's memory
# does not grow with n_xi x n_eta.
DRAW_BLOCK = 2**15


def simulate_training_set(
    problem: SlabProblem, xis: np.ndarray, n_eta: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """Score n_eta analog histories at each of a batch of samples.

    Each history draws an optical-depth budget s = -ln(u), u ~ U(0, 1), and
    is tracked through the sections by accumulating their optical
    thicknesses; it leaks at x = L (outcome 1) iff s exceeds the total depth
    tau(xi), else it is absorbed (outcome 0). s > tau is tested as
    u < exp(-tau), which avoids the logarithms without changing any outcome,
    so an outcome is Bernoulli with success probability exp(-tau(xi)).
    Every history consumes exactly one uniform from ``rng``, in sample-major
    order, so splitting a batch over consecutive calls on one generator
    gives the same tallies. The uniforms are drawn and counted in
    consecutive steps of at most DRAW_BLOCK values (whole samples where
    n_eta allows), which keeps that order and bounds the memory of a draw.

    Returns (qtilde, sigma2eta) arrays over the samples: the mean of the 0/1
    outcomes and their unbiased (n_eta - 1 divisor) sample variance, None
    when n_eta == 1. Both follow from the count K of leaked histories:
    qtilde = K / n_eta and sigma2eta = K (n_eta - K) / (n_eta (n_eta - 1)).
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != problem.d:
        raise ValueError(f"samples have shape {xis.shape}, expected (n, {problem.d})")
    if n_eta < 1:
        raise ValueError(f"n_eta must be >= 1, got {n_eta}")
    p = transmittance_batch(problem, xis)[:, None]
    n = xis.shape[0]
    # Whole samples per step, or one sample in several steps when n_eta
    # alone passes DRAW_BLOCK. Every step reuses the same two arrays, so a
    # draw touches no fresh pages after its first step.
    rows, cols = max(1, DRAW_BLOCK // n_eta), min(n_eta, DRAW_BLOCK)
    u = np.empty((min(rows, n), cols))
    leaks = np.empty(u.shape, dtype=bool)
    leaked = np.zeros(n, dtype=np.intp)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        for c in range(0, n_eta, cols):
            step = np.s_[: hi - lo, : min(cols, n_eta - c)]
            np.less(rng.random(out=u[step]), p[lo:hi], out=leaks[step])
            # Row sums of the 0/1 outcomes; einsum adds short rows faster
            # than count_nonzero(axis=1), and integer sums are exact.
            leaked[lo:hi] += np.einsum("ij->i", leaks[step].view(np.uint8), dtype=np.intp)
    qtilde = leaked / n_eta
    if n_eta == 1:
        return qtilde, None
    return qtilde, leaked * (n_eta - leaked) / (n_eta * (n_eta - 1))
