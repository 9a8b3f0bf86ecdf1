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
    "TrainingData",
    "build_surrogate",
    "fit_buffers",
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
    """Per-sample QoI estimates from a sampling run, or a block of runs.

    ``qtilde[i]`` is the n_eta-history average at ``samples[i]`` and
    ``sigma2eta[i]`` its unbiased per-history variance estimate, available
    only when n_eta >= 2 (None otherwise). A block stacks R runs of the same
    n_xi and n_eta along a leading axis: ``samples`` of shape (R, n_xi, d)
    and ``qtilde``, ``sigma2eta`` of shape (R, n_xi). Every check covers the
    whole block. A run needs n_xi >= 2 samples, the fewest from which the
    variances of its estimators can be estimated.
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
        if samples.ndim > 3 or qtilde.shape != samples.shape[:-1]:
            raise ValueError(
                f"qtilde shape {qtilde.shape} does not match samples of shape {samples.shape}"
            )
        if samples.shape[-2] < 2:
            raise ValueError(f"need at least 2 samples per run, got {samples.shape[-2]}")
        if qtilde.size < 1:
            raise ValueError("a block needs at least one run, got 0")
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
        return self.samples.shape[-2]

    @property
    def d(self) -> int:
        return self.samples.shape[-1]

    def unstack(self) -> list[TrainingData]:
        """The runs of a block, one TrainingData each (views of its rows)."""
        if self.qtilde.ndim != 2:
            raise ValueError("unstack needs a block of runs")
        s2 = [None] * len(self.qtilde) if self.sigma2eta is None else self.sigma2eta
        return [TrainingData(x, q, s, self.n_eta) for x, q, s in zip(self.samples, self.qtilde, s2)]


@dataclass(frozen=True, eq=False)
class PceSurrogate:
    """Fitted expansion plus the uncertainty of its own coefficients.

    ``coefficient_variance[k]`` is the sampling variance Var[beta_k] of the
    coefficient estimators, the only uncertainty the variance, trim and
    Sobol estimators read; every surrogate carries it, and exact
    coefficients carry zeros. ``coefficient_covariance`` is the full
    sampling covariance, whose diagonal a fit stores as the variances, and
    ``noise_corrected_covariance`` additionally removes the share caused by
    per-history noise (present only when n_eta >= 2); both are optional.
    ``trimmed_mask[k]`` is True for retained terms; the mean term is never
    trimmed. A block of fits, one per repetition of a TrainingData block,
    stacks ``coefficients``, ``coefficient_variance`` and ``trimmed_mask``
    along a leading axis, carries no covariance matrices, and is read
    through ``unstack``.
    """

    basis: MultiIndexBasis
    coefficients: np.ndarray
    coefficient_covariance: np.ndarray | None
    noise_corrected_covariance: np.ndarray | None
    trimmed_mask: np.ndarray
    n_xi: int
    n_eta: int
    coefficient_variance: np.ndarray

    def __post_init__(self) -> None:
        coefficients = np.asarray(self.coefficients, dtype=float)
        mask = np.asarray(self.trimmed_mask, dtype=bool)
        var = np.asarray(self.coefficient_variance, dtype=float)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "trimmed_mask", mask)
        object.__setattr__(self, "coefficient_variance", var)
        p1 = len(self.basis)
        if coefficients.shape[-1:] != (p1,) or coefficients.ndim > 2:
            raise ValueError(f"expected {p1} coefficients, got shape {coefficients.shape}")
        if mask.shape != coefficients.shape:
            raise ValueError(f"expected {p1} mask entries, got shape {mask.shape}")
        if var.shape != coefficients.shape:
            raise ValueError(f"coefficient_variance shape {var.shape} != {coefficients.shape}")
        first = mask[..., 0]
        if not (first.all() if first.ndim else first):
            raise ValueError("the mean term must always be retained")
        for name in ("coefficient_covariance", "noise_corrected_covariance"):
            c = getattr(self, name)
            if c is None:
                continue
            if coefficients.ndim != 1:
                raise ValueError(f"a block of fits carries no {name}")
            c = np.asarray(c, dtype=float)
            object.__setattr__(self, name, c)
            if c.shape != (p1, p1):
                raise ValueError(f"{name} shape {c.shape} != ({p1}, {p1})")

    @property
    def n_retained(self) -> int:
        return int(self.trimmed_mask.sum())

    @property
    def contributions(self) -> np.ndarray:
        """Per-term variance contributions ((beta_k)^2 - Var[beta_k]) b_k, shaped
        like ``coefficients``; no estimator reads entry 0, the mean term's."""
        return (self.coefficients**2 - self.coefficient_variance) * self.basis.norms

    def unstack(self) -> list[PceSurrogate]:
        """The fits of a block, one PceSurrogate per repetition (views of its rows)."""
        if self.coefficients.ndim != 2:
            raise ValueError("unstack needs a block of fits")
        return [
            PceSurrogate(self.basis, beta, None, None, mask, self.n_xi, self.n_eta, v)
            for beta, mask, v in zip(
                self.coefficients, self.trimmed_mask, self.coefficient_variance
            )
        ]


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
    # (h, j) = (row[k], last[k]), so sum_i w[h, r, i] t[j, r, i] sums the
    # product of its two factors over the samples of repetition r. Only the
    # (h, j) pairs that are terms are contracted: each run of heads of one
    # degree with the last-variable degrees it pairs with (see head_runs).
    # einsum without `optimize` never calls BLAS, so the sums do not depend
    # on the BLAS thread count, and on these C-ordered operands it adds each
    # pair's products in the order of a fit of that repetition alone.
    runs, order = basis.head_runs
    sums = [np.einsum("pri,kri->rpk", w[lo:hi], t[:k], optimize=False) for lo, hi, k in runs]
    return np.concatenate([s.reshape(len(s), -1) for s in sums], axis=1)[:, order]


# Bound on a block's largest arrays: its head-term buffer and the Legendre
# tables of its R x n_xi points. 512 KiB is about the buffer of one fit of
# 2000 samples with the 28 head terms of d = 3, n0 = 6 (448 kB), so a block
# never needs more memory than one such fit, and such a cell fits one
# repetition at a time.
BLOCK_BYTES = 2**19


def fit_buffers(basis: MultiIndexBasis, n_xi: int, repetitions: int) -> np.ndarray:
    """An empty (head terms, R n_xi) array for build_surrogate to work in.

    R is the largest block of at most ``repetitions`` fits of n_xi samples
    whose head terms and last-variable Legendre tables, (n0 + 1) d values
    per point, stay within BLOCK_BYTES, and at least 1; a caller reads R
    off the buffer's shape. Fits with the same basis may share one buffer,
    one fit at a time; each fit overwrites the part it uses.
    """
    h = len(basis.split[0])
    width = max(h, (basis.total_degree + 1) * basis.dimension)
    size = min(repetitions, max(1, BLOCK_BYTES // (8 * n_xi * width)))
    return np.empty((h, size * n_xi))


def build_surrogate(
    data: TrainingData,
    basis: MultiIndexBasis,
    full_covariance: bool = True,
    buffer: np.ndarray | None = None,
) -> PceSurrogate:
    """Fit coefficients and their estimator uncertainty in one pass.

    Coefficients are the sample means of Psi_k(xi_i) qtilde_i / b_k, and
    ``coefficient_variance`` holds their estimator variances. Both come
    from the sums of q Psi_k and (q Psi_k)^2 over the samples, contracted
    from the (d - 1)-variable head terms and the last variable's Legendre
    table, so this fit never forms the n_xi x P basis matrix.
    ``full_covariance`` assembles it from the same two factors to build the
    P x P covariance of the estimators instead, whose diagonal is then
    exactly ``coefficient_variance``, and for n_eta >= 2 the
    noise-corrected covariance: the covariance the same
    estimators would have if every QoI evaluation were noise-free. Its
    entries may dip below their noise-free targets at finite sample counts;
    only the expectation is corrected.

    A block of R training sets is fitted in the same pass: one head-basis
    evaluation over all R n_xi points, one Legendre recurrence for the last
    variable and, per sum, one contraction per run of equal-degree heads
    (MultiIndexBasis.head_runs). It returns a block of R fits,
    each bit for bit the fit of its training set alone; a single training
    set is the R = 1 case. The covariance matrices are built for a single
    training set only.

    The head terms are worked on in ``buffer``, from fit_buffers for this
    basis and at least R n_xi points, allocated per call when not given. A
    repetition loop that passes one buffer to every fit allocates no head
    arrays after the first; the surrogate never refers to the buffer.
    """
    _check_basis_match(data, basis)
    n = data.n_xi
    block = data.qtilde.ndim == 2
    if full_covariance and block:
        raise ValueError("full covariance needs a single training set, not a block")
    samples = data.samples.reshape(-1, n, data.d)
    qtilde = data.qtilde.reshape(-1, n)
    reps, points = len(qtilde), qtilde.size
    head, row, last = basis.split
    h = len(head)
    if buffer is None:
        buffer = np.empty((h, points))
    if buffer.size < h * points:
        raise ValueError(f"buffer holds fewer than the {h} x {points} head values of this fit")
    # Leading part of the buffer: one degree-major row per head term.
    rows = buffer.reshape(-1)[: h * points].reshape(h, points)
    eval_basis_matrix(head, samples[..., :-1].reshape(points, head.dimension), rows)
    # Degree-major Legendre table of the last variable: P_j of repetition
    # r's samples in t[j, r].
    table = legendre_table(basis.total_degree, samples[..., -1].ravel()).T
    t = table.reshape(-1, reps, n)
    cov = noise_cov = psi = None
    if full_covariance:
        # np.take returns C-ordered factors whatever the layout of its input,
        # so the BLAS products below always see the same layout and bits.
        psi = np.take(rows.T, row, axis=1) * np.take(table.T, last, axis=1)
    # Degree-major head factors w = q Phi_h, formed in place over the rows.
    w = np.multiply(rows.reshape(h, reps, n), qtilde, out=rows.reshape(h, reps, n))
    coefficients = _term_sums(w, t, basis) / (n * basis.norms)
    if full_covariance:
        beta = coefficients[0]
        dev = psi * (data.qtilde[:, None] / basis.norms[None, :]) - beta
        cov = dev.T @ dev / ((n - 1) * n)
        cov = 0.5 * (cov + cov.T)
        if data.sigma2eta is not None:
            noise_cov = cov - _noise_correction(data, basis, psi)
        # The variances are the diagonal of cov itself, a read-only view.
        var = np.diag(cov)[None]
    else:
        # w is not read again, so it is squared in place.
        s2 = _term_sums(np.multiply(w, w, out=w), t * t, basis)
        var = (s2 / basis.norms**2 - n * coefficients**2) / ((n - 1) * n)
        # The raw second moment cancels for the mean term of a nearly flat
        # or noise-free response; sum its squared deviations directly.
        dev = qtilde - coefficients[:, :1]
        var[:, 0] = np.sum(dev * dev, axis=1) / ((n - 1) * n)
    if not block:
        coefficients, var = coefficients[0], var[0]
    return PceSurrogate(
        basis=basis,
        coefficients=coefficients,
        coefficient_covariance=cov,
        noise_corrected_covariance=noise_cov,
        trimmed_mask=np.ones(coefficients.shape, dtype=bool),
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

    Sums the contributions ((beta_k)^2 - Var[beta_k]) b_k of the retained
    non-mean terms (PceSurrogate.contributions); an unbiased estimate of
    the expansion variance, at the cost of possibly negative draws.
    """
    return float(np.sum(surrogate.contributions[_retained_tail(surrogate)]))


def variance_deconvolution(data: TrainingData) -> float | np.ndarray:
    """Parametric-only output variance by subtracting the mean noise share.

    Returns s^2(qtilde) - mean(sigma2eta)/n_eta with s^2 the unbiased sample
    variance; requires n_eta >= 2 so the per-sample noise variance is
    observable. May be negative on individual draws. A block of training
    sets gives one estimate per set, as an array, each bit for bit the
    estimate of that set alone; a single set gives an np.float64.
    """
    if data.sigma2eta is None:
        raise ValueError("variance deconvolution requires n_eta >= 2")
    total = np.var(data.qtilde, axis=-1, ddof=1)
    noise = np.mean(data.sigma2eta, axis=-1) / data.n_eta
    return total - noise


def trim_expansion(surrogate: PceSurrogate, target_variance: float) -> PceSurrogate:
    """Drop low-value terms until the kept variance first reaches the target.

    The contributions of the non-mean terms (PceSurrogate.contributions) are
    sorted in decreasing order and the smallest prefix whose cumulative sum
    reaches the goal is retained, where the goal is the target capped at the
    sum of the positive contributions (the largest sum any prefix can reach,
    so the crossing always exists and negative contributions are never kept).
    The mean term always survives; a goal <= 0 keeps the mean term only.
    Because the kept sum reaches a positive goal, the trimmed unbiased
    variance is >= 0 for any target >= 0.
    """
    if not np.isfinite(target_variance):
        raise ValueError(f"target variance must be finite, got {target_variance}")
    contrib = surrogate.contributions[1:]
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


def _basis_values(surrogate: PceSurrogate, psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=float)
    p1 = len(surrogate.basis)
    if psi.ndim != 2 or psi.shape[1] != p1:
        raise ValueError(f"expected basis values of shape (n, {p1}), got shape {psi.shape}")
    return psi


def predict(surrogate: PceSurrogate, psi: np.ndarray) -> np.ndarray:
    """Evaluate the retained expansion at n points, given the basis there.

    ``psi`` is eval_basis_matrix(surrogate.basis, xi) for points xi of shape
    (n, d), so fits of one basis evaluate it once for any number of curves
    on the same points.
    """
    mask = surrogate.trimmed_mask
    return _basis_values(surrogate, psi)[:, mask] @ surrogate.coefficients[mask]


def prediction_stddev(
    surrogate: PceSurrogate, psi: np.ndarray, use_noise_corrected: bool = False
) -> np.ndarray:
    """Coefficient-induced stddev of the expansion at n points, given the
    basis there as in predict.

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
    psi = _basis_values(surrogate, psi)[:, mask]
    sub = cov[np.ix_(mask, mask)]
    var = np.einsum("ij,jk,ik->i", psi, sub, psi)
    return np.sqrt(np.maximum(var, 0.0))


def sobol_indices(surrogate: PceSurrogate) -> np.ndarray:
    """Bias-corrected sensitivity indices from retained expansion terms, as
    one (2, d) array: first-order indices in row 0, total indices in row 1.

    Each retained non-mean term adds its contribution
    (PceSurrogate.contributions) to the group of variables it carries
    nonzero degree in. A group's share is its sum over the total;
    first-order indices are the singleton shares, and the total index of
    variable i sums every group containing i. Where the total is exactly 0,
    which includes the empty sum of a surrogate that retains no non-mean
    term, every index is 0/0 and NaN.
    """
    mask = _retained_tail(surrogate)
    # bincount adds the contributions in term order, as a sequential loop
    # would; groups are listed in order of their first retained term, and
    # the reductions over axis 0 add them in that order.
    labels, flags = surrogate.basis.sobol_groups
    retained = labels[mask]
    sums = np.bincount(retained, weights=surrogate.contributions[mask], minlength=len(flags))
    order = list(dict.fromkeys(retained.tolist()))
    contrib = sums[order]
    denom = sum(contrib.tolist())
    if denom == 0.0:
        return np.full((2, surrogate.basis.dimension), np.nan)
    members = flags[order]
    shares = np.where(members, (contrib / denom)[:, None], 0.0)
    first = np.add.reduce(shares[members.sum(axis=1) == 1], axis=0)
    return np.stack((first, np.add.reduce(shares, axis=0)))


SURROGATE_FORMAT = "uqpc-surrogate-v1"
# Every file's fields; "coefficient_variance" is added where no covariance is.
SURROGATE_KEYS = ("dimension", "total_degree", "multi_indices", "coefficients",
                  "coefficient_covariance", "noise_corrected_covariance", "trimmed_mask",
                  "n_xi", "n_eta")


def save_surrogate(surrogate: PceSurrogate, path) -> None:
    """Write one fit, not a block, as self-describing JSON (see README for fields)."""
    if surrogate.coefficients.ndim != 1:
        raise ValueError("save_surrogate takes one fit, not a block; save each of its unstack()")
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
        payload["coefficient_variance"] = surrogate.coefficient_variance.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=1) + "\n")


def load_surrogate(path) -> PceSurrogate:
    """Read a surrogate written by save_surrogate.

    Validates a JSON object: its format tag, that every SURROGATE_KEYS field
    is there, the basis size (dimension >= 1, total_degree >= 0) and the
    multi-index set, the sample counts (n_xi >= 2, n_eta >= 1, as a fit
    needs), all as whole numbers, a trim mask of booleans only, finite
    coefficients, variances and covariances, and that the file carries the
    variances: on a stored covariance matrix's diagonal, else as their own list.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"stored surrogate must be a JSON object, got {type(payload).__name__}")
    if payload.get("format") != SURROGATE_FORMAT:
        raise ValueError(f"unrecognized surrogate format: {payload.get('format')!r}")
    for key in SURROGATE_KEYS:
        if key not in payload:
            raise ValueError(f"stored surrogate has no {key!r}")
    for name, floor in (("dimension", 1), ("total_degree", 0), ("n_xi", 2), ("n_eta", 1)):
        value = payload[name]
        if not isinstance(value, int) or isinstance(value, bool) or value < floor:
            raise ValueError(f"stored {name} must be an integer >= {floor}, got {value!r}")
    basis = total_degree_multi_indices(payload["dimension"], payload["total_degree"])
    stored = np.asarray(payload["multi_indices"], dtype=int)
    if stored.shape != basis.indices.shape or np.any(stored != basis.indices):
        raise ValueError("stored multi-index set does not match its declared dimension/degree")
    mask = payload["trimmed_mask"]
    if not isinstance(mask, list) or not all(isinstance(flag, bool) for flag in mask):
        raise ValueError("stored trimmed_mask must be a list of booleans")
    floats = {}
    for key in ("coefficients", "coefficient_covariance", "noise_corrected_covariance",
                "coefficient_variance"):
        value = payload.get(key)
        floats[key] = None if value is None else np.asarray(value, dtype=float)
        if value is not None and not np.isfinite(floats[key]).all():
            raise ValueError(f"stored {key} must be finite")
    cov, var = floats["coefficient_covariance"], floats["coefficient_variance"]
    if cov is not None:
        var = np.diag(cov)
    elif var is None:
        raise ValueError("stored surrogate has neither a covariance nor coefficient variances")
    return PceSurrogate(basis, floats["coefficients"], cov, floats["noise_corrected_covariance"],
                        np.asarray(mask, dtype=bool), payload["n_xi"], payload["n_eta"], var)
