"""Repetition studies over (n_xi, n_eta) grids with deterministic parallelism.

Three study kinds share one config format and runner:

- ``variance``: repeated variance estimation per grid cell and method, with
  MSE against the exact value, plus estimator density histograms.
- ``gsa``: repeated Sobol-index estimation (first-order and total).
- ``response``: independent surrogate builds on one grid cell, each emitting
  the predicted curve with a 2-stddev coefficient-uncertainty band next to
  the analytic curve, with and without trim.

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
from .polybasis import basis_count, total_degree_multi_indices
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
    "run_gsa_study",
    "run_response_study",
    "run_study",
    "run_variance_study",
    "write_report",
]

METHODS = ("pc_mc21", "pc_bias", "pc_bias_trim", "var_deconv")
GSA_METHODS = ("pc_bias", "pc_bias_trim")
STUDY_KINDS = ("variance", "gsa", "response")
# Bound on the largest float64 array a repetition may need: the n_xi x P
# basis matrix and the P x P coefficient covariance of a response build, and
# the P x d multi-index table. Variance and GSA fits never build the basis
# matrix, only n_xi x (head terms) arrays, so for them the bound is
# conservative. A repetition holds a few arrays of this size at once in every
# worker, so a larger basis is refused in load_config rather than running
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
    if not isinstance(section, dict):
        raise ConfigError("'problem' must be a mapping")
    materials = _require(section, "materials", "'problem'")
    if not isinstance(materials, list) or not materials:
        raise ConfigError("'problem.materials' must be a non-empty list")
    sigma0, sigma_delta, dx = [], [], []
    for pos, mat in enumerate(materials):
        context = f"'problem.materials[{pos}]'"
        if not isinstance(mat, dict):
            raise ConfigError(f"{context} must be a mapping")
        dx.append(_as_float(_require(mat, "dx", context), f"{context} dx"))
        if "lo" in mat or "hi" in mat:
            lo = _as_float(_require(mat, "lo", context), f"{context} lo")
            hi = _as_float(_require(mat, "hi", context), f"{context} hi")
            sigma0.append(0.5 * (lo + hi))
            sigma_delta.append(0.5 * (hi - lo))
        else:
            sigma0.append(_as_float(_require(mat, "sigma0", context), f"{context} sigma0"))
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
    if not isinstance(section, dict):
        raise ConfigError("'cost' must be a mapping")
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
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    problem = _parse_problem(_require(raw, "problem", "config"))
    # The exact Sobol indices of the summary divide by the output variance,
    # and a deterministic output leaves a study nothing to estimate.
    if exact_variance(problem) <= 0.0:
        raise ConfigError(
            "problem has no uncertainty: the transmittance variance is 0 "
            "(every sigmaDelta is 0 or too small to resolve)"
        )
    pce = _require(raw, "pce", "config")
    if not isinstance(pce, dict):
        raise ConfigError("'pce' must be a mapping")
    n0 = _require(pce, "n0", "'pce'")
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 0:
        raise ConfigError(f"'pce.n0' must be a nonnegative integer, got {n0!r}")

    study = _require(raw, "study", "config")
    if not isinstance(study, dict):
        raise ConfigError("'study' must be a mapping")
    kind = study.get("kind", "variance")
    if kind not in STUDY_KINDS:
        raise ConfigError(f"'study.kind' must be one of {STUDY_KINDS}, got {kind!r}")
    # Coefficient variances need at least two parameter samples.
    n_xi_grid = _as_int_grid(
        _require(study, "n_xi_grid", "'study'"), "'study.n_xi_grid'", minimum=2
    )
    n_eta_grid = _as_int_grid(_require(study, "n_eta_grid", "'study'"), "'study.n_eta_grid'")
    repetitions = _as_positive_int(study.get("repetitions", 200), "'study.repetitions'")
    methods_raw = study.get("methods", list(METHODS if kind == "variance" else GSA_METHODS))
    if not isinstance(methods_raw, list) or not methods_raw:
        raise ConfigError("'study.methods' must be a non-empty list")
    allowed = GSA_METHODS if kind == "gsa" else METHODS
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
    rows = max(max(n_xi_grid), problem.d, n_terms if kind == "response" else 0)
    if 8 * rows * n_terms > MAX_ARRAY_BYTES:
        raise ConfigError(
            f"basis too large: {n_terms} terms (d={problem.d}, n0={n0}) need a "
            f"{rows} x {n_terms} float64 array of {8 * rows * n_terms / 2**20:.0f} MiB, "
            f"over the {MAX_ARRAY_BYTES / 2**20:.0f} MiB limit"
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


def _trim_target(data: TrainingData, surrogate: PceSurrogate) -> float:
    # Noise-corrected variance target for the trim: deconvolution when the
    # per-sample noise variance is observable, the unbiased expansion total
    # otherwise (n_eta = 1).
    if data.sigma2eta is not None:
        return variance_deconvolution(data)
    return pce_variance_unbiased(surrogate)


def _variance_estimates(
    config: StudyConfig, data: TrainingData, surrogate: PceSurrogate
) -> dict[str, float]:
    out: dict[str, float] = {}
    for method in config.methods:
        if method == "pc_mc21":
            out[method] = pce_variance_biased(surrogate)
        elif method == "pc_bias":
            out[method] = pce_variance_unbiased(surrogate)
        elif method == "pc_bias_trim":
            trimmed = trim_expansion(surrogate, _trim_target(data, surrogate))
            out[method] = pce_variance_unbiased(trimmed)
        elif method == "var_deconv":
            if data.n_eta >= 2:
                out[method] = variance_deconvolution(data)
    return out


def _sobol_or_nan(surrogate: PceSurrogate) -> tuple[np.ndarray, np.ndarray]:
    # A draw can trim everything but the mean; its indices are 0/0 and are
    # recorded as NaN instead of aborting the study.
    if not surrogate.trimmed_mask[1:].any():
        nan = np.full(surrogate.basis.dimension, np.nan)
        return nan, nan
    s = sobol_indices(surrogate, use_unbiased=True)
    return s.first_order, s.total


def _gsa_estimates(
    config: StudyConfig, data: TrainingData, surrogate: PceSurrogate
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for method in config.methods:
        if method == "pc_bias":
            out[method] = _sobol_or_nan(surrogate)
        else:
            trimmed = trim_expansion(surrogate, _trim_target(data, surrogate))
            out[method] = _sobol_or_nan(trimmed)
    return out


# Worker functions are module-level so process pools can pickle them.


def _cell_chunk(config: StudyConfig, estimate, i_xi: int, i_eta: int, reps: range):
    # One work unit: repetitions `reps` of grid cell (i_xi, i_eta), sharing
    # one basis. The estimators read only coefficient variances, so the fit
    # skips the P x P matrices.
    cell = i_xi * len(config.n_eta_grid) + i_eta
    n_xi = config.n_xi_grid[i_xi]
    n_eta = config.n_eta_grid[i_eta]
    basis = total_degree_multi_indices(config.problem.d, config.n0)
    out = []
    for rep in reps:
        rng = derive_rng(config.master_seed, cell, rep)
        data = _draw_training(config, n_xi, n_eta, rng)
        surrogate = build_surrogate(data, basis, full_covariance=False)
        out.append(estimate(config, data, surrogate))
    return i_xi, i_eta, out


def _response_build(config: StudyConfig, sample_index: int):
    n_xi = config.n_xi_grid[0]
    n_eta = config.n_eta_grid[0]
    rng = derive_rng(config.master_seed, 0, sample_index)
    data = _draw_training(config, n_xi, n_eta, rng)
    basis = total_degree_multi_indices(config.problem.d, config.n0)
    surrogate = build_surrogate(data, basis)
    trimmed = trim_expansion(surrogate, _trim_target(data, surrogate))
    grid = np.linspace(-1.0, 1.0, config.response_points)
    pts = grid[:, None]
    analytic = transmittance_batch(config.problem, pts)
    use_corrected = data.n_eta >= 2
    curves = []
    for fit, is_trim in ((surrogate, False), (trimmed, True)):
        mid = predict(fit, pts)
        half = 2.0 * prediction_stddev(fit, pts, use_noise_corrected=use_corrected)
        curves.append(
            ResponseCurve(
                sample_index=sample_index,
                trimmed=is_trim,
                xi=grid,
                predict=mid,
                band_lo=mid - half,
                band_hi=mid + half,
                analytic=analytic,
                n_retained=fit.n_retained,
            )
        )
    return sample_index, surrogate, curves


# ---------------------------------------------------------------------------
# Study runners


def _run_units(units, worker, workers: int):
    if workers <= 1:
        return [worker(*unit) for unit in units]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, *unit) for unit in units]
        return [f.result() for f in futures]


def _rep_chunks(repetitions: int, workers: int) -> list[range]:
    # Small chunks keep the pool busy; chunking never affects results because
    # streams are derived per (cell, repetition).
    size = repetitions if workers <= 1 else max(1, -(-repetitions // (workers * 4)))
    return [range(lo, min(lo + size, repetitions)) for lo in range(0, repetitions, size)]


def _run_grid(config: StudyConfig, estimate, workers: int):
    """Yield (n_xi, n_eta, {method: estimates by repetition}) per cell, in grid order.

    A method the estimator skips in a cell (var_deconv at n_eta = 1) is left
    out of that cell's mapping.
    """
    units = [
        (config, estimate, i_xi, i_eta, reps)
        for i_xi in range(len(config.n_xi_grid))
        for i_eta in range(len(config.n_eta_grid))
        for reps in _rep_chunks(config.repetitions, workers)
    ]
    cells: dict[tuple[int, int], list] = {}
    for i_xi, i_eta, estimates in _run_units(units, _cell_chunk, workers):
        cells.setdefault((i_xi, i_eta), []).extend(estimates)
    for (i_xi, i_eta), estimates in cells.items():
        # Whether a method applies depends on the cell only, so the first
        # repetition speaks for all of them.
        by_method = {m: [e[m] for e in estimates] for m in config.methods if m in estimates[0]}
        yield config.n_xi_grid[i_xi], config.n_eta_grid[i_eta], by_method


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


def _realized_cost(config: StudyConfig, n_xi: int, n_eta: int) -> float | None:
    if config.cost is None:
        return None
    return n_xi * (config.cost.c_xi + config.cost.c_eta * n_eta)


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


def run_variance_study(config: StudyConfig, workers: int = 1) -> StudyReport:
    """Repeated variance estimation over the full (n_xi, n_eta) grid."""
    exact_var = exact_variance(config.problem)
    report = StudyReport(config=config, summary=_base_summary(config))
    cells = []
    for n_xi, n_eta, by_method in _run_grid(config, _variance_estimates, workers):
        methods = {}
        for method in config.methods:
            if method not in by_method:
                methods[method] = {"available": False}
                continue
            estimates = np.array(by_method[method])
            for rep, est in enumerate(estimates):
                report.records.append(Record(n_xi, n_eta, method, rep, float(est)))
            report.densities[(n_xi, n_eta, method)] = emit_density(estimates, config.bins)
            methods[method] = {
                "available": True,
                "mean": float(estimates.mean()),
                "bias": float(estimates.mean() - exact_var),
                "mse": float(np.mean((estimates - exact_var) ** 2)),
                "variance": float(estimates.var(ddof=1)) if len(estimates) > 1 else 0.0,
            }
        cells.append({
            "n_xi": n_xi,
            "n_eta": n_eta,
            "realized_cost": _realized_cost(config, n_xi, n_eta),
            "methods": methods,
        })
    report.summary["cells"] = cells
    return report


def run_gsa_study(config: StudyConfig, workers: int = 1) -> StudyReport:
    """Repeated Sobol-index estimation; one gsa record per method and repetition."""
    report = StudyReport(config=config, summary=_base_summary(config))
    cells = []
    for n_xi, n_eta, by_method in _run_grid(config, _gsa_estimates, workers):
        methods = {}
        for method, draws in by_method.items():
            for rep, (first, total) in enumerate(draws):
                report.gsa_records.append(GsaRecord(n_xi, n_eta, method, rep, first, total))
            firsts = np.array([first for first, _ in draws])
            totals = np.array([total for _, total in draws])
            # Summary statistics clamp indices into [0, 1] and skip
            # undefined (NaN) draws; gsa.csv keeps the raw values.
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
        cells.append({"n_xi": n_xi, "n_eta": n_eta, "methods": methods})
    report.summary["cells"] = cells
    return report


def run_response_study(config: StudyConfig, workers: int = 1) -> StudyReport:
    """Independent surrogate builds, each with trimmed and untrimmed curves."""
    units = [(config, s) for s in range(config.repetitions)]
    results = _run_units(units, _response_build, workers)
    report = StudyReport(config=config, summary=_base_summary(config))
    builds = []
    for sample_index, surrogate, (full, trimmed) in results:
        report.surrogates.append(surrogate)
        report.response_curves.extend((full, trimmed))
        builds.append({
            "sample": sample_index,
            "n_retained_full": full.n_retained,
            "n_retained_trimmed": trimmed.n_retained,
        })
    report.summary["cells"] = [
        {"n_xi": config.n_xi_grid[0], "n_eta": config.n_eta_grid[0], "builds": builds}
    ]
    return report


def run_study(config: StudyConfig, workers: int = 1) -> StudyReport:
    runner = {
        "variance": run_variance_study,
        "gsa": run_gsa_study,
        "response": run_response_study,
    }[config.kind]
    return runner(config, workers=workers)


# ---------------------------------------------------------------------------
# File emission


def _write_csv(path: Path, header: list[str], rows) -> None:
    # repr keeps full float precision so reruns are byte-identical.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])


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
            (
                (r.n_xi, r.n_eta, r.method, r.repetition, r.estimate)
                for r in report.records
            ),
        )
        written.append(path)

    for (n_xi, n_eta, method), hist in report.densities.items():
        path = out / f"density_{n_xi}x{n_eta}_{method}.csv"
        _write_csv(
            path,
            ["bin_left", "bin_right", "density"],
            (
                (float(hist.edges[b]), float(hist.edges[b + 1]), float(hist.density[b]))
                for b in range(len(hist.density))
            ),
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
                + [float(v) for v in g.first_order]
                + [float(v) for v in g.total]
                for g in report.gsa_records
            ),
        )
        written.append(path)

    for curve in report.response_curves:
        suffix = "_trim" if curve.trimmed else ""
        path = out / f"response_{curve.sample_index}{suffix}.csv"
        _write_csv(
            path,
            ["xi", "predict", "band_lo", "band_hi", "analytic"],
            (
                (
                    float(curve.xi[i]),
                    float(curve.predict[i]),
                    float(curve.band_lo[i]),
                    float(curve.band_hi[i]),
                    float(curve.analytic[i]),
                )
                for i in range(len(curve.xi))
            ),
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
