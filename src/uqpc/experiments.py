"""Repetition studies over (n_xi, n_eta) grids with deterministic parallelism.

Three study kinds share one config format and one runner, run_study. Each
is a repetition study of (n_xi, n_eta) sampling cells, and differs only in
its per-repetition estimator and in how a cell's repetitions are reported:

- ``variance``: repeated variance estimation per grid cell and method, with
  MSE against the exact value, plus estimator density histograms.
- ``gsa``: repeated Sobol-index estimation (first-order and total).
- ``response``: independent surrogate builds on one grid cell (build s is
  repetition s of cell 0), each emitting the predicted curve with a
  2-stddev coefficient-uncertainty band next to the analytic curve, with and
  without trim.

Randomness: the work unit (grid cell g, repetition r) consumes exactly one
generator, derived as default_rng(SeedSequence(master_seed, spawn_key=(g, r)))
with g = i_xi * len(n_eta_grid) + i_eta. Within a unit the draw order is
fixed (parameter samples first, then histories in sample-major order), so
every record is a pure function of (master_seed, g, r) and the output is
identical for any worker count.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .costmodel import CostModel
from .nisp import (
    PceSurrogate,
    TrainingData,
    build_surrogate,
    pce_variance_biased,
    pce_variance_unbiased,
    predict,
    prediction_stddev,
    save_surrogate,
    sobol_indices,
    trim_expansion,
    variance_deconvolution,
)
from .oracle import exact_mean, exact_sobol, exact_variance
from .polybasis import MultiIndexBasis, basis_count, total_degree_multi_indices
from .transport import (
    SlabProblem,
    sample_parameters,
    simulate_training_set,
    transmittance_batch,
)

__all__ = [
    "ConfigError",
    "DensityHistogram",
    "GsaRecord",
    "Record",
    "ResponseCurve",
    "StudyConfig",
    "StudyReport",
    "derive_rng",
    "emit_density",
    "load_config",
    "run_study",
    "write_report",
]

METHODS = ("pc_mc21", "pc_bias", "pc_bias_trim", "var_deconv")
GSA_METHODS = ("pc_bias", "pc_bias_trim")
STUDY_KINDS = ("variance", "gsa", "response")
STUDY_KEYS = ("kind", "n_xi_grid", "n_eta_grid", "repetitions", "methods", "noise_free",
              "bins", "response_points")
MATERIAL_KEYS = ("sigma0", "sigmaDelta", "sigma_delta", "lo", "hi", "dx")
# Bound on the largest float64 array a study may need: the n_xi x P basis
# matrix, a response build's P x P covariance and response_points x P grid
# basis, the P x d multi-index table, a tally draw's n_xi x n_eta uniforms
# and the histogram edges. Variance and GSA fits never build the basis
# matrix, only n_xi x (head terms) arrays, so for them the bound is
# conservative. A repetition holds a few arrays of this size at once in every
# worker, so a larger config is refused in load_config rather than running
# out of memory part-way through a study.
MAX_ARRAY_BYTES = 2**28


class ConfigError(Exception):
    """Invalid or unreadable study configuration; maps to CLI exit code 2."""


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """Validated study description; see load_config for the file format."""

    problem: SlabProblem
    n0: int
    kind: str
    n_xi_grid: tuple[int, ...]
    n_eta_grid: tuple[int, ...]
    repetitions: int
    methods: tuple[str, ...]
    cost: CostModel | None
    master_seed: int
    noise_free: bool = False
    bins: int = 40
    response_points: int = 201


@dataclass(frozen=True, eq=False)
class Record:
    n_xi: int
    n_eta: int
    method: str
    repetition: int
    estimate: float


@dataclass(frozen=True, eq=False)
class GsaRecord:
    n_xi: int
    n_eta: int
    method: str
    repetition: int
    first_order: np.ndarray
    total: np.ndarray


@dataclass(frozen=True, eq=False)
class DensityHistogram:
    """Equal-width histogram normalized to integrate to 1."""

    edges: np.ndarray
    density: np.ndarray


@dataclass(frozen=True, eq=False)
class ResponseCurve:
    sample_index: int
    trimmed: bool
    xi: np.ndarray
    predict: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    analytic: np.ndarray
    n_retained: int


@dataclass(eq=False)
class StudyReport:
    config: StudyConfig
    summary: dict
    records: list[Record] = field(default_factory=list)
    densities: dict[tuple[int, int, str], DensityHistogram] = field(default_factory=dict)
    gsa_records: list[GsaRecord] = field(default_factory=list)
    response_curves: list[ResponseCurve] = field(default_factory=list)
    surrogates: list[PceSurrogate] = field(default_factory=list)


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """The documented seed derivation: one independent stream per index path."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(path)))


# ---------------------------------------------------------------------------
# Config parsing


def _mapping(value, allowed: tuple[str, ...], context: str) -> dict:
    # A misspelt key would otherwise fall back to its default without a word.
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a mapping")
    unknown = [key for key in value if key not in allowed]
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} in {context}; allowed: {', '.join(allowed)}"
        )
    return value


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing '{key}' in {context}")
    return mapping[key]


def _as_positive_int(value, context: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{context} must be a positive integer, got {value!r}")
    return value


def _as_float(value, context: str) -> float:
    # float() also takes numeric strings such as "1e-3", which YAML 1.1
    # leaves unparsed; anything else that is not a number is refused.
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{context} must be a number, got {value!r}")


def _as_int_grid(value, context: str, minimum: int = 1) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{context} must be a non-empty list of positive integers")
    grid = tuple(_as_positive_int(v, f"{context} entry") for v in value)
    if min(grid) < minimum:
        raise ConfigError(f"{context} entries must be >= {minimum}, got {min(grid)}")
    return grid


def _parse_problem(section) -> SlabProblem:
    section = _mapping(section, ("materials",), "'problem'")
    materials = _require(section, "materials", "'problem'")
    if not isinstance(materials, list) or not materials:
        raise ConfigError("'problem.materials' must be a non-empty list")
    sigma0, sigma_delta, dx = [], [], []
    for pos, mat in enumerate(materials):
        context = f"'problem.materials[{pos}]'"
        _mapping(mat, MATERIAL_KEYS, context)
        dx.append(_as_float(_require(mat, "dx", context), f"{context} dx"))
        # One form per material: a second one would silently lose its values.
        center = [key for key in ("sigma0", "sigmaDelta", "sigma_delta") if key in mat]
        if "lo" in mat or "hi" in mat:
            if center:
                raise ConfigError(f"{context} mixes 'lo'/'hi' with {center[0]!r}; give one form")
            lo = _as_float(_require(mat, "lo", context), f"{context} lo")
            hi = _as_float(_require(mat, "hi", context), f"{context} hi")
            sigma0.append(0.5 * (lo + hi))
            sigma_delta.append(0.5 * (hi - lo))
        else:
            sigma0.append(_as_float(_require(mat, "sigma0", context), f"{context} sigma0"))
            if "sigmaDelta" in mat and "sigma_delta" in mat:
                raise ConfigError(f"{context} gives both 'sigmaDelta' and 'sigma_delta'")
            if "sigmaDelta" in mat:
                sigma_delta.append(_as_float(mat["sigmaDelta"], f"{context} sigmaDelta"))
            elif "sigma_delta" in mat:
                sigma_delta.append(_as_float(mat["sigma_delta"], f"{context} sigma_delta"))
            else:
                raise ConfigError(f"{context} needs 'sigmaDelta' (or 'lo'/'hi')")
    try:
        return SlabProblem(np.array(sigma0), np.array(sigma_delta), np.array(dx))
    except ValueError as exc:
        raise ConfigError(f"invalid problem: {exc}") from exc


def _parse_cost(section) -> CostModel | None:
    if section is None:
        return None
    _mapping(section, ("total", "xi", "eta"), "'cost'")
    try:
        return CostModel(
            c_total=_as_float(_require(section, "total", "'cost'"), "'cost.total'"),
            c_xi=_as_float(_require(section, "xi", "'cost'"), "'cost.xi'"),
            c_eta=_as_float(_require(section, "eta", "'cost'"), "'cost.eta'"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid cost model: {exc}") from exc


def load_config(path) -> StudyConfig:
    """Parse and validate a YAML study config; raises ConfigError on any problem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    _mapping(raw, ("problem", "pce", "study", "cost", "seed"), "config root")

    problem = _parse_problem(_require(raw, "problem", "config"))
    # The exact Sobol indices of the summary divide by the output variance,
    # and a deterministic output leaves a study nothing to estimate.
    if exact_variance(problem) <= 0.0:
        raise ConfigError(
            "problem has no uncertainty: the transmittance variance is 0 "
            "(every sigmaDelta is 0 or too small to resolve)"
        )
    pce = _mapping(_require(raw, "pce", "config"), ("n0",), "'pce'")
    n0 = _require(pce, "n0", "'pce'")
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 0:
        raise ConfigError(f"'pce.n0' must be a nonnegative integer, got {n0!r}")

    study = _mapping(_require(raw, "study", "config"), STUDY_KEYS, "'study'")
    kind = study.get("kind", "variance")
    if kind not in STUDY_KINDS:
        raise ConfigError(f"'study.kind' must be one of {STUDY_KINDS}, got {kind!r}")
    # Coefficient variances need at least two parameter samples.
    n_xi_grid = _as_int_grid(
        _require(study, "n_xi_grid", "'study'"), "'study.n_xi_grid'", minimum=2
    )
    n_eta_grid = _as_int_grid(_require(study, "n_eta_grid", "'study'"), "'study.n_eta_grid'")
    repetitions = _as_positive_int(study.get("repetitions", 200), "'study.repetitions'")
    # Response builds fit, trim and predict; they have no methods to choose.
    allowed = {"variance": METHODS, "gsa": GSA_METHODS, "response": ()}[kind]
    methods_raw = study.get("methods", list(allowed))
    if not allowed and "methods" in study:
        raise ConfigError("'study.methods' does not apply to response studies")
    if not isinstance(methods_raw, list) or (allowed and not methods_raw):
        raise ConfigError("'study.methods' must be a non-empty list")
    for m in methods_raw:
        if m not in allowed:
            raise ConfigError(f"unknown method {m!r} for kind {kind!r}; allowed: {allowed}")
    if len(set(methods_raw)) != len(methods_raw):
        raise ConfigError(f"'study.methods' lists a method twice: {methods_raw}")
    noise_free = study.get("noise_free", False)
    if not isinstance(noise_free, bool):
        raise ConfigError("'study.noise_free' must be a boolean")
    bins = _as_positive_int(study.get("bins", 40), "'study.bins'")
    response_points = _as_positive_int(study.get("response_points", 201), "'study.response_points'")

    n_terms = basis_count(problem.d, n0)
    response = (n_terms, response_points) if kind == "response" else ()
    arrays = (
        (f"basis of {n_terms} terms (d={problem.d}, n0={n0})",
         max(max(n_xi_grid), problem.d, *response), n_terms),
        ("tally draw", 0 if noise_free else max(n_xi_grid), max(n_eta_grid)),
        ("'study.bins' histogram", bins + 1, 1),
    )
    for what, rows, cols in arrays:
        if 8 * rows * cols > MAX_ARRAY_BYTES:
            raise ConfigError(
                f"{what} too large: a {rows} x {cols} float64 array of "
                f"{8 * rows * cols / 2**20:.0f} MiB is over the "
                f"{MAX_ARRAY_BYTES / 2**20:.0f} MiB limit"
            )

    if kind == "response":
        if problem.d != 1:
            raise ConfigError("response studies support d=1 problems only")
        if len(n_xi_grid) != 1 or len(n_eta_grid) != 1:
            raise ConfigError("response studies take exactly one (n_xi, n_eta) grid point")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"'seed' must be a nonnegative integer, got {seed!r}")

    return StudyConfig(
        problem=problem,
        n0=n0,
        kind=kind,
        n_xi_grid=n_xi_grid,
        n_eta_grid=n_eta_grid,
        repetitions=repetitions,
        methods=tuple(methods_raw),
        cost=_parse_cost(raw.get("cost")),
        master_seed=seed,
        noise_free=noise_free,
        bins=bins,
        response_points=response_points,
    )


# ---------------------------------------------------------------------------
# Per-repetition estimation
#
# An estimator maps one repetition's training data and the cell's basis to
# what that study kind records, and fits only what it reads.


def _draw_training(
    config: StudyConfig, n_xi: int, n_eta: int, rng: np.random.Generator
) -> TrainingData:
    problem = config.problem
    xis = sample_parameters(problem, n_xi, rng)
    if config.noise_free:
        qtilde = transmittance_batch(problem, xis)
        sigma2 = np.zeros(n_xi) if n_eta >= 2 else None
    else:
        qtilde, sigma2 = simulate_training_set(problem, xis, n_eta, rng)
    return TrainingData(xis, qtilde, sigma2, n_eta)


def _deconvolution(data: TrainingData, methods) -> float | None:
    # Variance deconvolution is the var_deconv estimate and, where the
    # per-sample noise variance is observable (n_eta >= 2), the trim target
    # of pc_bias_trim; it runs once per repetition, and only if read.
    if data.sigma2eta is None or not {"var_deconv", "pc_bias_trim"} & set(methods):
        return None
    return variance_deconvolution(data)


def _trimmed(surrogate: PceSurrogate, deconv: float | None) -> PceSurrogate:
    # Trim to the noise-corrected variance target: the deconvolution
    # estimate when there is one, the unbiased expansion total otherwise
    # (n_eta = 1).
    target = pce_variance_unbiased(surrogate) if deconv is None else deconv
    return trim_expansion(surrogate, target)


def _variance_estimates(
    config: StudyConfig, data: TrainingData, basis: MultiIndexBasis
) -> dict[str, float]:
    surrogate = build_surrogate(data, basis, full_covariance=False)
    deconv = _deconvolution(data, config.methods)
    out: dict[str, float] = {}
    for method in config.methods:
        if method == "pc_mc21":
            out[method] = pce_variance_biased(surrogate)
        elif method == "pc_bias":
            out[method] = pce_variance_unbiased(surrogate)
        elif method == "pc_bias_trim":
            out[method] = pce_variance_unbiased(_trimmed(surrogate, deconv))
        elif deconv is not None:
            out[method] = deconv
    return out


def _sobol_or_nan(surrogate: PceSurrogate) -> tuple[np.ndarray, np.ndarray]:
    # A draw can trim everything but the mean; its indices are 0/0 and are
    # recorded as NaN instead of aborting the study.
    if not surrogate.trimmed_mask[1:].any():
        nan = np.full(surrogate.basis.dimension, np.nan)
        return nan, nan
    s = sobol_indices(surrogate)
    return s.first_order, s.total


def _gsa_estimates(
    config: StudyConfig, data: TrainingData, basis: MultiIndexBasis
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    surrogate = build_surrogate(data, basis, full_covariance=False)
    deconv = _deconvolution(data, config.methods)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for method in config.methods:
        fit = surrogate if method == "pc_bias" else _trimmed(surrogate, deconv)
        out[method] = _sobol_or_nan(fit)
    return out


def _response_grid(config: StudyConfig) -> np.ndarray:
    return np.linspace(-1.0, 1.0, config.response_points)


def _response_estimates(config: StudyConfig, data: TrainingData, basis: MultiIndexBasis):
    # One surrogate build with its covariances, and for the fit and its
    # trim the predicted curve, the half-width of its 2-stddev band and
    # the number of retained terms.
    surrogate = build_surrogate(data, basis)
    pts = _response_grid(config)[:, None]
    curves = []
    for fit in (surrogate, _trimmed(surrogate, _deconvolution(data, ["pc_bias_trim"]))):
        half = 2.0 * prediction_stddev(fit, pts, use_noise_corrected=data.n_eta >= 2)
        curves.append((predict(fit, pts), half, fit.n_retained))
    return surrogate, curves


# Worker functions are module-level so process pools can pickle them.


def _cell_chunk(
    config: StudyConfig, estimate, basis: MultiIndexBasis, i_xi: int, i_eta: int, reps: range
):
    # One work unit: repetitions `reps` of grid cell (i_xi, i_eta).
    cell = i_xi * len(config.n_eta_grid) + i_eta
    n_xi = config.n_xi_grid[i_xi]
    n_eta = config.n_eta_grid[i_eta]
    out = []
    for rep in reps:
        rng = derive_rng(config.master_seed, cell, rep)
        out.append(estimate(config, _draw_training(config, n_xi, n_eta, rng), basis))
    return i_xi, i_eta, out


# ---------------------------------------------------------------------------
# Study runner


def _rep_chunks(repetitions: int, workers: int) -> list[range]:
    # Small chunks keep the pool busy; chunking never affects results because
    # streams are derived per (cell, repetition).
    size = repetitions if workers <= 1 else max(1, -(-repetitions // (workers * 4)))
    return [range(lo, min(lo + size, repetitions)) for lo in range(0, repetitions, size)]


def _run_grid(config: StudyConfig, estimate, workers: int):
    """Yield (n_xi, n_eta, [estimate by repetition]) per cell, in grid order."""
    basis = total_degree_multi_indices(config.problem.d, config.n0)
    units = [
        (config, estimate, basis, i_xi, i_eta, reps)
        for i_xi in range(len(config.n_xi_grid))
        for i_eta in range(len(config.n_eta_grid))
        for reps in _rep_chunks(config.repetitions, workers)
    ]
    if workers <= 1:
        results = [_cell_chunk(*unit) for unit in units]
    else:
        # A fork pool starts every worker at the first submit: no idle ones.
        with ProcessPoolExecutor(max_workers=min(workers, len(units))) as pool:
            futures = [pool.submit(_cell_chunk, *unit) for unit in units]
            results = [f.result() for f in futures]
    cells: dict[tuple[int, int], list] = {}
    for i_xi, i_eta, estimates in results:
        cells.setdefault((i_xi, i_eta), []).extend(estimates)
    for (i_xi, i_eta), estimates in cells.items():
        yield config.n_xi_grid[i_xi], config.n_eta_grid[i_eta], estimates


def emit_density(values, bins: int) -> DensityHistogram:
    """Equal-width histogram over [min, max], normalized to unit integral.

    A degenerate spread (all values equal) collapses to one unit-width bin
    centered on the value.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one value")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return DensityHistogram(
            edges=np.array([lo - 0.5, lo + 0.5]), density=np.array([1.0])
        )
    density, edges = np.histogram(values, bins=bins, range=(lo, hi), density=True)
    return DensityHistogram(edges=edges, density=density)


def _base_summary(config: StudyConfig) -> dict:
    first, total = exact_sobol(config.problem)
    summary = {
        "kind": config.kind,
        "n0": config.n0,
        "master_seed": config.master_seed,
        "repetitions": config.repetitions,
        "noise_free": config.noise_free,
        "exact": {
            "mean": exact_mean(config.problem),
            "variance": exact_variance(config.problem),
            "sobol_first": first.tolist(),
            "sobol_total": total.tolist(),
        },
    }
    if config.cost is not None:
        summary["cost"] = {
            "total": config.cost.c_total,
            "xi": config.cost.c_xi,
            "eta": config.cost.c_eta,
        }
    return summary


def _variance_cell(report: StudyReport, n_xi: int, n_eta: int, estimates: list) -> dict:
    config = report.config
    exact_var = report.summary["exact"]["variance"]
    methods = {}
    for method in config.methods:
        # Whether a method applies depends on the cell only (var_deconv
        # needs n_eta >= 2), so the first repetition speaks for all.
        if method not in estimates[0]:
            methods[method] = {"available": False}
            continue
        draws = [e[method] for e in estimates]
        report.records.extend(
            Record(n_xi, n_eta, method, rep, est) for rep, est in enumerate(draws)
        )
        report.densities[(n_xi, n_eta, method)] = emit_density(draws, config.bins)
        values = np.array(draws)
        methods[method] = {
            "available": True,
            "mean": float(values.mean()),
            "bias": float(values.mean() - exact_var),
            "mse": float(np.mean((values - exact_var) ** 2)),
            "variance": float(values.var(ddof=1)) if len(values) > 1 else 0.0,
        }
    cost = config.cost
    realized_cost = None if cost is None else n_xi * (cost.c_xi + cost.c_eta * n_eta)
    return {"n_xi": n_xi, "n_eta": n_eta, "realized_cost": realized_cost, "methods": methods}


def _gsa_cell(report: StudyReport, n_xi: int, n_eta: int, estimates: list) -> dict:
    methods = {}
    for method in report.config.methods:
        draws = [e[method] for e in estimates]
        report.gsa_records.extend(
            GsaRecord(n_xi, n_eta, method, rep, first, total)
            for rep, (first, total) in enumerate(draws)
        )
        firsts = np.array([first for first, _ in draws])
        totals = np.array([total for _, total in draws])
        # Summary statistics clamp indices into [0, 1] and skip undefined
        # (NaN) draws; gsa.csv keeps the raw values.
        defined = ~np.isnan(firsts[:, 0])
        n_defined = int(defined.sum())
        cf = np.clip(firsts[defined], 0.0, 1.0)
        ct = np.clip(totals[defined], 0.0, 1.0)
        methods[method] = {
            "n_defined": n_defined,
            "mean_first": cf.mean(axis=0).tolist() if n_defined else None,
            "mean_total": ct.mean(axis=0).tolist() if n_defined else None,
            "std_first": cf.std(axis=0, ddof=1).tolist() if n_defined > 1 else None,
        }
    return {"n_xi": n_xi, "n_eta": n_eta, "methods": methods}


def _response_cell(report: StudyReport, n_xi: int, n_eta: int, estimates: list) -> dict:
    # Repetition s is build s, drawn from stream (master_seed, 0, s).
    config = report.config
    grid = _response_grid(config)
    analytic = transmittance_batch(config.problem, grid[:, None])
    builds = []
    for sample, (surrogate, curves) in enumerate(estimates):
        report.surrogates.append(surrogate)
        report.response_curves.extend(
            ResponseCurve(sample, trimmed, grid, mid, mid - half, mid + half, analytic, kept)
            for trimmed, (mid, half, kept) in zip((False, True), curves)
        )
        (_, _, full), (_, _, trim) = curves
        builds.append({"sample": sample, "n_retained_full": full, "n_retained_trimmed": trim})
    return {"n_xi": n_xi, "n_eta": n_eta, "builds": builds}


# Study kind -> (estimator, cell aggregator). A cell aggregator adds one
# cell's repetitions to the report and returns the cell's summary entry.
_STUDIES = {
    "variance": (_variance_estimates, _variance_cell),
    "gsa": (_gsa_estimates, _gsa_cell),
    "response": (_response_estimates, _response_cell),
}


def run_study(config: StudyConfig, workers: int = 1) -> StudyReport:
    """Run the config's study: each repetition of each grid cell through the
    kind's estimator, then each cell through its aggregator, in grid order."""
    estimate, aggregate = _STUDIES[config.kind]
    report = StudyReport(config=config, summary=_base_summary(config))
    report.summary["cells"] = [
        aggregate(report, n_xi, n_eta, estimates)
        for n_xi, n_eta, estimates in _run_grid(config, estimate, workers)
    ]
    return report


# ---------------------------------------------------------------------------
# File emission


def _write_csv(path: Path, header: list[str], rows) -> None:
    # csv writes a float as its repr, which keeps full precision, so reruns
    # are byte-identical. Rows must hold Python scalars: a numpy float would
    # be written as "np.float64(...)".
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report(report: StudyReport, out_dir) -> list[Path]:
    """Write the report's files into out_dir; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(report.summary, fh, indent=1)
        fh.write("\n")
    written.append(summary_path)

    if report.records:
        path = out / "records.csv"
        _write_csv(
            path,
            ["n_xi", "n_eta", "method", "repetition", "estimate"],
            ((r.n_xi, r.n_eta, r.method, r.repetition, r.estimate) for r in report.records),
        )
        written.append(path)

    for (n_xi, n_eta, method), hist in report.densities.items():
        path = out / f"density_{n_xi}x{n_eta}_{method}.csv"
        _write_csv(
            path,
            ["bin_left", "bin_right", "density"],
            np.column_stack((hist.edges[:-1], hist.edges[1:], hist.density)).tolist(),
        )
        written.append(path)

    if report.gsa_records:
        d = report.config.problem.d
        header = (
            ["n_xi", "n_eta", "method", "repetition"]
            + [f"s{i + 1}" for i in range(d)]
            + [f"st{i + 1}" for i in range(d)]
        )
        path = out / "gsa.csv"
        _write_csv(
            path,
            header,
            (
                [g.n_xi, g.n_eta, g.method, g.repetition]
                + g.first_order.tolist()
                + g.total.tolist()
                for g in report.gsa_records
            ),
        )
        written.append(path)

    for curve in report.response_curves:
        suffix = "_trim" if curve.trimmed else ""
        path = out / f"response_{curve.sample_index}{suffix}.csv"
        columns = (curve.xi, curve.predict, curve.band_lo, curve.band_hi, curve.analytic)
        _write_csv(
            path,
            ["xi", "predict", "band_lo", "band_hi", "analytic"],
            np.column_stack(columns).tolist(),
        )
        written.append(path)

    for index, surrogate in enumerate(report.surrogates):
        path = out / f"surrogate_{index}.json"
        save_surrogate(surrogate, path)
        written.append(path)

    return written


def apply_overrides(
    config: StudyConfig,
    seed: int | None = None,
    repetitions: int | None = None,
) -> StudyConfig:
    """CLI-level overrides of the config file values."""
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
        config = replace(config, master_seed=seed)
    if repetitions is not None:
        if repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
        config = replace(config, repetitions=repetitions)
    return config
