"""Polynomial chaos surrogates from noisy samples by spectral projection.

Coefficients are plain sample means of Psi_k(xi) Qtilde / b_k, so every
estimator here works with under-resolved inner sampling, down to a single
history per parameter sample. The price is estimator noise in the
coefficients; the rest of the module quantifies it (coefficient variances,
and optionally the full covariance with and without the inner-noise share),
corrects for it (unbiased variance, a-posteriori trim, bias-corrected Sobol
indices), and propagates it (pointwise prediction bands).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .polybasis import MultiIndexBasis, eval_basis_matrix, legendre_table, total_degree_multi_indices

__all__ = [
    "PceSurrogate",
    "SobolIndices",
    "TrainingData",
    "build_surrogate",
    "load_surrogate",
    "pce_variance_biased",
    "pce_variance_unbiased",
    "predict",
    "prediction_stddev",
    "save_surrogate",
    "sobol_indices",
    "trim_expansion",
    "variance_deconvolution",
]


@dataclass(frozen=True, eq=False)
class TrainingData:
    """Per-sample QoI estimates from a sampling run.

    ``qtilde[i]`` is the n_eta-history average at ``samples[i]`` and
    ``sigma2eta[i]`` its unbiased per-history variance estimate, available
    only when n_eta >= 2 (None otherwise).
    """

    samples: np.ndarray
    qtilde: np.ndarray
    sigma2eta: np.ndarray | None
    n_eta: int

    def __post_init__(self) -> None:
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        qtilde = np.asarray(self.qtilde, dtype=float)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "qtilde", qtilde)
        if qtilde.ndim != 1 or qtilde.shape[0] != samples.shape[0]:
            raise ValueError(
                f"qtilde shape {qtilde.shape} does not match {samples.shape[0]} samples"
            )
        if samples.shape[0] < 1:
            raise ValueError("need at least one sample")
        if self.n_eta < 1:
            raise ValueError(f"n_eta must be >= 1, got {self.n_eta}")
        if self.n_eta == 1:
            if self.sigma2eta is not None:
                raise ValueError("sigma2eta must be None when n_eta = 1")
        else:
            if self.sigma2eta is None:
                raise ValueError("sigma2eta required when n_eta >= 2")
            s2 = np.asarray(self.sigma2eta, dtype=float)
            object.__setattr__(self, "sigma2eta", s2)
            if s2.shape != qtilde.shape:
                raise ValueError(f"sigma2eta shape {s2.shape} != qtilde shape {qtilde.shape}")
            if np.any(s2 < 0.0):
                raise ValueError("sigma2eta entries must be nonnegative")

    @property
    def n_xi(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True, eq=False)
class PceSurrogate:
    """Fitted expansion plus the uncertainty of its own coefficients.

    ``coefficient_variance[k]`` is the sampling variance Var[beta_k] of the
    coefficient estimators, the only uncertainty the variance, trim and
    Sobol estimators read. ``coefficient_covariance`` is the full sampling
    covariance and ``noise_corrected_covariance`` additionally removes the
    share caused by per-history noise (present only when n_eta >= 2); both
    are optional. When the variances are not given they default to the
    diagonal of ``coefficient_covariance``.
    ``trimmed_mask[k]`` is True for retained terms; the mean term is never
    trimmed.
    """

    basis: MultiIndexBasis
    coefficients: np.ndarray
    coefficient_covariance: np.ndarray | None
    noise_corrected_covariance: np.ndarray | None
    trimmed_mask: np.ndarray
    n_xi: int
    n_eta: int
    coefficient_variance: np.ndarray | None = None

    def __post_init__(self) -> None:
        coefficients = np.asarray(self.coefficients, dtype=float)
        mask = np.asarray(self.trimmed_mask, dtype=bool)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "trimmed_mask", mask)
        p1 = len(self.basis)
        if coefficients.shape != (p1,):
            raise ValueError(f"expected {p1} coefficients, got shape {coefficients.shape}")
        if mask.shape != (p1,):
            raise ValueError(f"expected {p1} mask entries, got shape {mask.shape}")
        if not mask[0]:
            raise ValueError("the mean term must always be retained")
        for name in ("coefficient_covariance", "noise_corrected_covariance"):
            c = getattr(self, name)
            if c is None:
                continue
            c = np.asarray(c, dtype=float)
            object.__setattr__(self, name, c)
            if c.shape != (p1, p1):
                raise ValueError(f"{name} shape {c.shape} != ({p1}, {p1})")
        var = self.coefficient_variance
        if var is None and self.coefficient_covariance is not None:
            var = np.diag(self.coefficient_covariance).copy()
        if var is not None:
            var = np.asarray(var, dtype=float)
            object.__setattr__(self, "coefficient_variance", var)
            if var.shape != (p1,):
                raise ValueError(f"coefficient_variance shape {var.shape} != ({p1},)")

    @property
    def n_retained(self) -> int:
        return int(self.trimmed_mask.sum())


def _check_basis_match(data: TrainingData, basis: MultiIndexBasis) -> None:
    if data.d != basis.dimension:
        raise ValueError(f"sample dimension {data.d} != basis dimension {basis.dimension}")


def _noise_correction(
    data: TrainingData, basis: MultiIndexBasis, psi: np.ndarray
) -> np.ndarray:
    # Estimated share of the coefficient covariance caused by per-history
    # noise: (1/n_xi) mean_i[Psi_k Psi_r sigma2eta_i / n_eta] / (b_k b_r).
    n = data.n_xi
    w = data.sigma2eta / data.n_eta
    m = (psi * w[:, None]).T @ psi / n
    corr = m / (n * np.outer(basis.norms, basis.norms))
    return 0.5 * (corr + corr.T)


def _term_sums(w: np.ndarray, t: np.ndarray, basis: MultiIndexBasis) -> np.ndarray:
    # Sum factorization: term k is Phi_h(xi_head) P_j(xi_last) with
    # (h, j) = (row[k], last[k]), so sum_i w[h, i] t[j, i] sums the product
    # of its two factors over the samples. einsum without `optimize` never
    # calls BLAS, so the sums do not depend on the BLAS thread count.
    _, row, last = basis.split
    return np.einsum("pi,ki->pk", w, t, optimize=False)[row, last]


def build_surrogate(
    data: TrainingData, basis: MultiIndexBasis, full_covariance: bool = True
) -> PceSurrogate:
    """Fit coefficients and their estimator uncertainty in one pass.

    Coefficients are the sample means of Psi_k(xi_i) qtilde_i / b_k; with
    n_xi >= 2, ``coefficient_variance`` holds their estimator variances.
    Both come from the sums of q Psi_k and (q Psi_k)^2 over the samples,
    contracted from the (d - 1)-variable head terms and the last variable's
    Legendre table, so this fit never forms the n_xi x P basis matrix.
    ``full_covariance`` (which needs n_xi >= 2) assembles it from the same
    two factors to build the P x P covariance of the estimators instead,
    whose diagonal is then exactly ``coefficient_variance``, and for
    n_eta >= 2 the noise-corrected covariance: the covariance the same
    estimators would have if every QoI evaluation were noise-free. Its
    entries may dip below their noise-free targets at finite sample counts;
    only the expectation is corrected.
    """
    _check_basis_match(data, basis)
    n = data.n_xi
    if full_covariance and n < 2:
        raise ValueError(f"need at least 2 samples to estimate covariance, got {n}")
    head, row, last = basis.split
    if head is None:
        head_values = np.ones((n, 1))
    else:
        head_values = eval_basis_matrix(head, data.samples[:, :-1])
    table = legendre_table(basis.total_degree, data.samples[:, -1])
    # Degree-major head and last-variable factors: q Phi_h and P_j.
    w = np.multiply(head_values.T, data.qtilde, order="C")
    t = table.T
    coefficients = _term_sums(w, t, basis) / (n * basis.norms)
    cov = noise_cov = var = None
    if full_covariance:
        # np.take keeps the factors C-ordered, as eval_basis_matrix does, so
        # the BLAS products below see the same layout and give the same bits.
        psi = np.take(head_values, row, axis=1) * np.take(table, last, axis=1)
        dev = psi * (data.qtilde[:, None] / basis.norms[None, :]) - coefficients
        cov = dev.T @ dev / ((n - 1) * n)
        cov = 0.5 * (cov + cov.T)
        if data.sigma2eta is not None:
            noise_cov = cov - _noise_correction(data, basis, psi)
    elif n >= 2:
        s2 = _term_sums(w * w, t * t, basis)
        var = (s2 / basis.norms**2 - n * coefficients**2) / ((n - 1) * n)
        # The raw second moment cancels for the mean term of a nearly flat
        # or noise-free response; sum its squared deviations directly.
        dev = data.qtilde - coefficients[0]
        var[0] = np.sum(dev * dev) / ((n - 1) * n)
    return PceSurrogate(
        basis=basis,
        coefficients=coefficients,
        coefficient_covariance=cov,
        noise_corrected_covariance=noise_cov,
        trimmed_mask=np.ones(len(basis), dtype=bool),
        n_xi=n,
        n_eta=data.n_eta,
        coefficient_variance=var,
    )


def _retained_tail(surrogate: PceSurrogate) -> np.ndarray:
    # Boolean index over retained non-mean terms.
    mask = surrogate.trimmed_mask.copy()
    mask[0] = False
    return mask


def pce_variance_biased(surrogate: PceSurrogate) -> float:
    """Plug-in variance: sum of squared retained coefficients times norms.

    Biased upward under noisy coefficients, since E[b^2] = (E[b])^2 + Var[b].
    """
    mask = _retained_tail(surrogate)
    beta = surrogate.coefficients[mask]
    return float(np.sum(beta**2 * surrogate.basis.norms[mask]))


def pce_variance_unbiased(surrogate: PceSurrogate) -> float:
    """Variance with the coefficient estimator variance subtracted per term.

    Sums ((beta_k)^2 - Var[beta_k]) b_k over retained non-mean terms; an
    unbiased estimate of the expansion variance, at the cost of possibly
    negative draws.
    """
    if surrogate.coefficient_variance is None:
        raise ValueError("pce_variance_unbiased requires coefficient_variance")
    mask = _retained_tail(surrogate)
    beta = surrogate.coefficients[mask]
    var_beta = surrogate.coefficient_variance[mask]
    return float(np.sum((beta**2 - var_beta) * surrogate.basis.norms[mask]))


def variance_deconvolution(data: TrainingData) -> float:
    """Parametric-only output variance by subtracting the mean noise share.

    Returns s^2(qtilde) - mean(sigma2eta)/n_eta with s^2 the unbiased sample
    variance; requires n_eta >= 2 so the per-sample noise variance is
    observable. May be negative on individual draws.
    """
    if data.sigma2eta is None:
        raise ValueError("variance deconvolution requires n_eta >= 2")
    if data.n_xi < 2:
        raise ValueError(f"need at least 2 samples, got {data.n_xi}")
    total = float(np.var(data.qtilde, ddof=1))
    noise = float(np.mean(data.sigma2eta)) / data.n_eta
    return total - noise


def trim_expansion(surrogate: PceSurrogate, target_variance: float) -> PceSurrogate:
    """Drop low-value terms until the kept variance first reaches the target.

    Per-term contributions ((beta_k)^2 - Var[beta_k]) b_k for k >= 1 are
    sorted in decreasing order and the smallest prefix whose cumulative sum
    reaches the goal is retained, where the goal is the target capped at the
    sum of the positive contributions (the largest sum any prefix can reach,
    so the crossing always exists and negative contributions are never kept).
    The mean term always survives; a goal <= 0 keeps the mean term only.
    Because the kept sum reaches a positive goal, the trimmed unbiased
    variance is >= 0 for any target >= 0.
    """
    if surrogate.coefficient_variance is None:
        raise ValueError("trim_expansion requires coefficient_variance")
    if not np.isfinite(target_variance):
        raise ValueError(f"target variance must be finite, got {target_variance}")
    norms = surrogate.basis.norms
    beta = surrogate.coefficients
    var_beta = surrogate.coefficient_variance
    contrib = (beta[1:] ** 2 - var_beta[1:]) * norms[1:]
    mask = np.zeros(len(surrogate.basis), dtype=bool)
    mask[0] = True
    if contrib.size:
        order = np.argsort(-contrib, kind="stable")
        cum = np.cumsum(contrib[order])
        # cap at the max prefix sum, not the full sum: a cap at the full sum
        # drags the retained variance below the target whenever noise terms
        # go negative, biasing the trimmed estimator low
        goal = min(float(target_variance), float(cum.max()))
        if goal > 0.0:
            n_keep = int(np.argmax(cum >= goal)) + 1
            mask[1 + order[:n_keep]] = True
    return replace(surrogate, trimmed_mask=mask)


def predict(surrogate: PceSurrogate, xi: np.ndarray) -> np.ndarray:
    """Evaluate the retained expansion at the points xi, shape (n, d)."""
    mask = surrogate.trimmed_mask
    psi = eval_basis_matrix(surrogate.basis, xi)[:, mask]
    return psi @ surrogate.coefficients[mask]


def prediction_stddev(
    surrogate: PceSurrogate, xi: np.ndarray, use_noise_corrected: bool = False
) -> np.ndarray:
    """Coefficient-induced stddev of the expansion at the points xi, shape (n, d).

    Quadratic form of the chosen covariance over retained non-mean terms
    (the mean coefficient shifts every point equally and is excluded from
    the band). Clipped at zero before the square root, since the corrected
    matrix can lose semidefiniteness at finite sample counts.
    """
    cov = (
        surrogate.noise_corrected_covariance
        if use_noise_corrected
        else surrogate.coefficient_covariance
    )
    if cov is None:
        which = "noise_corrected_covariance" if use_noise_corrected else "coefficient_covariance"
        raise ValueError(f"prediction_stddev requires {which}")
    mask = _retained_tail(surrogate)
    psi = eval_basis_matrix(surrogate.basis, xi)[:, mask]
    sub = cov[np.ix_(mask, mask)]
    var = np.einsum("ij,jk,ik->i", psi, sub, psi)
    return np.sqrt(np.maximum(var, 0.0))


@dataclass(frozen=True, eq=False)
class SobolIndices:
    """First-order and total sensitivity indices, one entry per variable."""

    first_order: np.ndarray
    total: np.ndarray


def sobol_indices(surrogate: PceSurrogate) -> SobolIndices:
    """Bias-corrected sensitivity indices from retained expansion terms.

    Each retained non-mean term contributes ((beta_k)^2 - Var[beta_k]) b_k
    to the group of variables it carries nonzero degree in. A group's share
    is its sum over the total; first-order indices are the singleton shares,
    and the total index of variable i sums every group containing i.
    """
    if surrogate.coefficient_variance is None:
        raise ValueError("bias-corrected Sobol indices require coefficient_variance")
    norms = surrogate.basis.norms
    sq = surrogate.coefficients**2 - surrogate.coefficient_variance
    mask = _retained_tail(surrogate)
    if not np.any(mask):
        raise ValueError("no retained non-mean terms; Sobol indices undefined")
    d = surrogate.basis.dimension
    # A term's group code is its row of nonzero flags read as raw bytes.
    # bincount adds the contributions in term order, as a sequential loop
    # would; groups are listed in order of first appearance, and the
    # reductions over axis 0 add them in that order.
    active = surrogate.basis.indices[mask] != 0
    codes = np.ascontiguousarray(active).view(f"V{d}").ravel()
    _, first_term, group_of = np.unique(codes, return_index=True, return_inverse=True)
    sums = np.bincount(group_of, weights=(sq * norms)[mask])
    order = np.argsort(first_term)
    contrib = sums[order]
    denom = sum(contrib.tolist())
    if denom == 0.0:
        raise ValueError("total variance contribution is zero; Sobol indices undefined")
    members = active[first_term[order]]
    shares = np.where(members, (contrib / denom)[:, None], 0.0)
    first = np.add.reduce(shares[members.sum(axis=1) == 1], axis=0)
    return SobolIndices(first_order=first, total=np.add.reduce(shares, axis=0))


SURROGATE_FORMAT = "uqpc-surrogate-v1"


def save_surrogate(surrogate: PceSurrogate, path) -> None:
    """Write the surrogate as self-describing JSON (see README for fields)."""
    payload = {
        "format": SURROGATE_FORMAT,
        "dimension": surrogate.basis.dimension,
        "total_degree": surrogate.basis.total_degree,
        "multi_indices": surrogate.basis.indices.tolist(),
        "coefficients": surrogate.coefficients.tolist(),
        "coefficient_covariance": (
            None
            if surrogate.coefficient_covariance is None
            else surrogate.coefficient_covariance.tolist()
        ),
        "noise_corrected_covariance": (
            None
            if surrogate.noise_corrected_covariance is None
            else surrogate.noise_corrected_covariance.tolist()
        ),
        "trimmed_mask": surrogate.trimmed_mask.tolist(),
        "n_xi": surrogate.n_xi,
        "n_eta": surrogate.n_eta,
    }
    if surrogate.coefficient_covariance is None:
        # A stored matrix carries the variances on its diagonal.
        var = surrogate.coefficient_variance
        payload["coefficient_variance"] = None if var is None else var.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_surrogate(path) -> PceSurrogate:
    """Read a surrogate written by save_surrogate; validates the format tag."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != SURROGATE_FORMAT:
        raise ValueError(f"unrecognized surrogate format: {payload.get('format')!r}")
    basis = total_degree_multi_indices(payload["dimension"], payload["total_degree"])
    stored = np.asarray(payload["multi_indices"], dtype=int)
    if stored.shape != basis.indices.shape or np.any(stored != basis.indices):
        raise ValueError("stored multi-index set does not match its declared dimension/degree")
    cov = payload["coefficient_covariance"]
    noise_cov = payload["noise_corrected_covariance"]
    var = payload.get("coefficient_variance")
    return PceSurrogate(
        basis=basis,
        coefficients=np.asarray(payload["coefficients"], dtype=float),
        coefficient_covariance=None if cov is None else np.asarray(cov, dtype=float),
        noise_corrected_covariance=(
            None if noise_cov is None else np.asarray(noise_cov, dtype=float)
        ),
        trimmed_mask=np.asarray(payload["trimmed_mask"], dtype=bool),
        n_xi=int(payload["n_xi"]),
        n_eta=int(payload["n_eta"]),
        coefficient_variance=None if var is None else np.asarray(var, dtype=float),
    )
