"""Repetition studies over (n_xi, n_eta) grids with deterministic parallelism.

Three study kinds share one config format and one runner, run_study. Each
is a repetition study of (n_xi, n_eta) sampling cells, and differs only in
its per-repetition estimator and in how a cell's repetitions are reported:

- ``variance``: repeated variance estimation per grid cell and method, with
  MSE against the exact value, plus estimator density histograms.
- ``gsa``: repeated Sobol-index estimation (first-order and total).
- ``response``: independent surrogate builds on one grid cell (build s is
  repetition s of cell 0). Each build keeps its fit and its trim, and the
  report derives from them the predicted curve with a 2-stddev
  coefficient-uncertainty band next to the analytic curve, with and
  without trim.

Randomness: the work unit (grid cell g, repetition r) consumes exactly one
generator, derived as default_rng(SeedSequence(master_seed, spawn_key=(g, r)))
with g the cell's index in StudyConfig.cells. Within a unit the draw order is
fixed (parameter samples first, then one leak count per sample), so
every record is a pure function of (master_seed, g, r) and the output is
identical for any worker count.
"""

from __future__ import annotations

import json
import os
import pickle
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import NoReturn

import numpy as np
import yaml

from . import nisp
from .costmodel import CostModel
from .nisp import (
    PceSurrogate,
    TrainingData,
    build_surrogate,
    fit_buffers,
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
# In the order of SlabProblem's fields.
MATERIAL_KEYS = ("sigma0", "sigmaDelta", "dx")
# Bound on the largest float64 array a study may need: the n_xi x P basis
# matrix, a response build's P x P covariance, the response_points x P grid
# basis a response study evaluates once, the P x d multi-index table and the
# histogram edges. A tally draw holds a few n_xi arrays and nothing per
# history, so n_eta does not enter this bound. Variance and GSA fits never
# build the basis matrix, only n_xi x (head terms) arrays, so for them the
# bound is conservative. A repetition holds a few arrays of this size at
# once in every worker, so a larger config is refused in load_config rather
# than running out of memory part-way through a study. The same bound holds
# for what a study holds per repetition until its report is written (see
# _repetition_bytes): the result table and the arrays that aggregate one
# method-cell's repetitions, or a response build's objects (BUILD_BYTES)
# and arrays.
MAX_ARRAY_BYTES = 2**28
BUILD_BYTES = 1024
# The key columns of a result table row: its cell, method and repetition.
ROW_KEYS = [("n_xi", np.int64), ("n_eta", np.int64), ("method", "U12"), ("repetition", np.int64)]


class ConfigError(Exception):
    """Invalid or unreadable study configuration; maps to CLI exit code 2."""


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """Validated study description; see load_config for the file format."""

    problem: SlabProblem
    n0: int
    kind: str
    # (n_xi, n_eta) with n_eta varying fastest; a cell's index is its stream key.
    cells: tuple[tuple[int, int], ...]
    repetitions: int
    methods: tuple[str, ...]
    cost: CostModel | None
    master_seed: int
    noise_free: bool = False
    bins: int = 40
    response_points: int = 201


@dataclass(eq=False)
class StudyReport:
    """A study's results and its summary of them. Variance and GSA
    estimates are rows of a ``np.recarray`` (``records``, ``gsa_records``;
    the other kind's table has no rows), one per (cell, method, repetition)
    in that order. A response study keeps each build's fit (``surrogates``)
    and the retained-term mask of its trim (``trimmed_masks``). Densities
    and response curves are derived from these as their files are written."""

    config: StudyConfig
    summary: dict
    records: np.recarray
    gsa_records: np.recarray
    surrogates: list[PceSurrogate] = field(default_factory=list)
    trimmed_masks: list[np.ndarray] = field(default_factory=list)


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
    # Tallies take leak counts, and the cost model sample counts, as
    # float64, which holds every count up to 2**53 exactly.
    if max(grid) > 2**53:
        raise ConfigError(f"{context} entries must be <= 2**53, got {max(grid)}")
    # A repeated entry would run its cells twice under one report key.
    if len(set(grid)) != len(grid):
        raise ConfigError(f"{context} lists an entry twice: {list(grid)}")
    return grid


def _parse_problem(section) -> SlabProblem:
    section = _mapping(section, ("materials",), "'problem'")
    materials = _require(section, "materials", "'problem'")
    if not isinstance(materials, list) or not materials:
        raise ConfigError("'problem.materials' must be a non-empty list")
    columns = {key: [] for key in MATERIAL_KEYS}
    for pos, mat in enumerate(materials):
        context = f"'problem.materials[{pos}]'"
        _mapping(mat, MATERIAL_KEYS, context)
        for key in ("dx", "sigma0", "sigmaDelta"):
            columns[key].append(_as_float(_require(mat, key, context), f"{context} {key}"))
    try:
        return SlabProblem(*(np.array(columns[key]) for key in MATERIAL_KEYS))
    except ValueError as exc:
        raise ConfigError(f"invalid problem: {exc}") from exc


def _parse_cost(section, cells: tuple[tuple[int, int], ...]) -> CostModel | None:
    if section is None:
        return None
    _mapping(section, ("total", "xi", "eta"), "'cost'")
    try:
        cost = CostModel(
            c_total=_as_float(_require(section, "total", "'cost'"), "'cost.total'"),
            c_xi=_as_float(_require(section, "xi", "'cost'"), "'cost.xi'"),
            c_eta=_as_float(_require(section, "eta", "'cost'"), "'cost.eta'"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid cost model: {exc}") from exc
    # The summary reports the costs and each cell's realized cost.
    if not np.isfinite(
        [cost.c_total, *(n_xi * cost.per_sample(n_eta) for n_xi, n_eta in cells)]
    ).all():
        raise ConfigError(f"'cost' is out of floating-point range for this grid: {cost}")
    return cost


def _check_references(problem: SlabProblem) -> None:
    # The summary compares every estimate with the exact mean and variance,
    # and its exact Sobol indices divide by the variance. Extreme inputs
    # overflow them to inf or NaN, so they are evaluated with floating-point
    # warnings off and refused unless finite; a deterministic output leaves
    # a study nothing to estimate.
    with np.errstate(all="ignore"):
        mean, variance = exact_mean(problem), exact_variance(problem)
        if not (np.isfinite(mean) and np.isfinite(variance)):
            raise ConfigError(
                f"problem is out of floating-point range: the exact transmittance mean "
                f"is {mean} and its variance {variance}"
            )
        if not variance > 0.0:
            raise ConfigError(
                "problem has no resolvable uncertainty: the exact transmittance variance "
                "is 0, because every sigmaDelta is 0 or too small to resolve, or because "
                f"the exact mean ({mean:.3g}) is so small that its variance underflows"
            )
        if not np.isfinite(exact_sobol(problem)).all():
            raise ConfigError(
                "problem is out of floating-point range: its exact Sobol indices are not finite"
            )


def load_config(path, *, seed: int | None = None, repetitions: int | None = None) -> StudyConfig:
    """Parse and validate a YAML study config; raises ConfigError on any problem.

    A given ``seed`` or ``repetitions`` takes the place of the file's
    ``seed`` or ``study.repetitions`` and passes the same checks; the file's
    own value is still checked for type and range.
    """
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
    _check_references(problem)
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
    # An override replaces the file's value once that has passed the
    # same checks.
    file_repetitions = _as_positive_int(study.get("repetitions", 200), "'study.repetitions'")
    repetitions = file_repetitions if repetitions is None else _as_positive_int(
        repetitions, "'study.repetitions'"
    )
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
    noise_free = study.get("noise_free", StudyConfig.noise_free)
    if not isinstance(noise_free, bool):
        raise ConfigError("'study.noise_free' must be a boolean")
    bins = _as_positive_int(study.get("bins", StudyConfig.bins), "'study.bins'")
    response_points = _as_positive_int(
        study.get("response_points", StudyConfig.response_points), "'study.response_points'"
    )

    cells = tuple(product(n_xi_grid, n_eta_grid))
    if kind == "response":
        if problem.d != 1:
            raise ConfigError("response studies support d=1 problems only")
        if len(cells) != 1:
            raise ConfigError("response studies take exactly one (n_xi, n_eta) grid point")

    file_seed = raw.get("seed", 0)
    for value in (file_seed, seed):
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)
                                  or value < 0):
            raise ConfigError(f"'seed' must be a nonnegative integer, got {value!r}")
    seed = file_seed if seed is None else seed

    return _check_memory(StudyConfig(
        problem=problem,
        n0=n0,
        kind=kind,
        cells=cells,
        repetitions=repetitions,
        methods=tuple(methods_raw),
        cost=_parse_cost(raw.get("cost"), cells),
        master_seed=seed,
        noise_free=noise_free,
        bins=bins,
        response_points=response_points,
    ))


def _repetition_bytes(config: StudyConfig) -> int:
    # What a study holds per cell and repetition at its peak.
    n_terms = basis_count(config.problem.d, config.n0)
    if config.kind == "response":
        # A build keeps its two P x P covariances and four P-vectors: its
        # coefficients, their variances and the masks of the fit and its trim.
        return BUILD_BYTES + 8 * (2 * n_terms**2 + 4 * n_terms)
    # A table row per method. After the grid one method-cell at a time is
    # summarized (at most two copies of its floats, as the GSA summary's
    # clipped indices) or histogrammed (np.histogram's index, edge and mask
    # arrays, about 53 B per value); that is charged to every cell. It also
    # covers the estimates the grid holds until they are stored, at most
    # one cell's floats and never at the same time as those arrays.
    row = _row_dtype(config.kind, config.problem.d)
    floats = row.itemsize - np.dtype(ROW_KEYS).itemsize
    return len(config.methods) * row.itemsize + 64 + 2 * floats


def _check_memory(config: StudyConfig) -> StudyConfig:
    # Refuse a study whose arrays or result table would pass MAX_ARRAY_BYTES.
    d = config.problem.d
    n_terms = basis_count(d, config.n0)
    rows = max(*(n_xi for n_xi, _ in config.cells), d)
    if config.kind == "response":
        rows = max(rows, n_terms, config.response_points)
    cells = len(config.cells)
    for what, count, size in (
        (f"basis of {n_terms} terms (d={d}, n0={config.n0})", rows, 8 * n_terms),
        ("'study.bins' histogram", config.bins + 1, 8),
        (f"result table of {cells} cells x {config.repetitions} repetitions",
         cells * config.repetitions, _repetition_bytes(config)),
    ):
        if count * size > MAX_ARRAY_BYTES:
            raise ConfigError(
                f"{what} too large: {count} rows of {size} B are {count * size / 2**20:.0f} "
                f"MiB, over the {MAX_ARRAY_BYTES / 2**20:.0f} MiB limit"
            )
    return config


# ---------------------------------------------------------------------------
# Per-repetition estimation
#
# An estimator maps a block of repetitions' training data (see TrainingData)
# and the cell's basis to one array with a row per repetition, and fits only
# what it reads: variance estimates (k, methods), Sobol indices (k, methods,
# 2, d) and response builds (k, 2) objects, a fit and its trim's mask. Its
# columns are the config's methods at every cell; var_deconv is NaN where it
# does not apply (n_eta = 1), and none of those rows are written. It fits in
# the work unit's buffer (see fit_buffers), which the next block overwrites,
# so nothing it returns may refer to it.


def _draw_training(
    config: StudyConfig, n_xi: int, n_eta: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    # One repetition's samples, then its tallies and (n_eta >= 2) per-sample
    # noise variances from one leak count per sample, drawn from its own
    # generator in that order.
    problem = config.problem
    xis = sample_parameters(problem, n_xi, rng)
    if config.noise_free:
        qtilde = transmittance_batch(problem, xis)
        return xis, qtilde, np.zeros(n_xi) if n_eta >= 2 else None
    return xis, *simulate_training_set(problem, xis, n_eta, rng)


def _deconvolution(data: TrainingData, read: bool) -> list[float] | list[None]:
    # Variance deconvolution is the var_deconv estimate and, where the
    # per-sample noise variance is observable (n_eta >= 2), the trim target
    # of pc_bias_trim and of a response build; it runs once per block, and
    # only if read. Where it is None, the trim target is the unbiased
    # expansion variance (n_eta = 1).
    if data.sigma2eta is None or not read:
        return [None] * len(data.qtilde)
    return variance_deconvolution(data).tolist()


def _trim_target(
    surrogate: PceSurrogate, deconv: float | None, unbiased: float | None = None
) -> float:
    # The noise-corrected variance a trim keeps to: the deconvolution
    # estimate when there is one, the unbiased expansion total otherwise
    # (n_eta = 1), taken from `unbiased` where the caller has it already.
    if deconv is not None:
        return deconv
    return pce_variance_unbiased(surrogate) if unbiased is None else unbiased


def _variance_estimates(
    config: StudyConfig, data: TrainingData, basis: MultiIndexBasis, buffer
) -> np.ndarray:
    # pc_bias is also the trim target where there is no deconvolution, so
    # it is computed once per repetition and read by both methods.
    methods = config.methods
    deconvs = _deconvolution(data, "var_deconv" in methods or "pc_bias_trim" in methods)
    fits = build_surrogate(data, basis, full_covariance=False, buffer=buffer).unstack()
    estimates = np.full((len(fits), len(methods)), np.nan)
    for row, surrogate, deconv in zip(estimates, fits, deconvs):
        unbiased = pce_variance_unbiased(surrogate) if "pc_bias" in methods else None
        for col, method in enumerate(methods):
            if method == "pc_mc21":
                row[col] = pce_variance_biased(surrogate)
            elif method == "pc_bias":
                row[col] = unbiased
            elif method == "pc_bias_trim":
                target = _trim_target(surrogate, deconv, unbiased)
                row[col] = pce_variance_unbiased(trim_expansion(surrogate, target))
            elif deconv is not None:
                row[col] = deconv
    return estimates


def _gsa_estimates(
    config: StudyConfig, data: TrainingData, basis: MultiIndexBasis, buffer
) -> np.ndarray:
    # Sobol indices stay per repetition: the order of their sums is part of
    # their bits. A draw can trim everything but the mean, or its retained
    # terms can contribute exactly 0 in total (all-zero single-history
    # tallies); its indices are 0/0, which sobol_indices gives as NaN.
    deconvs = _deconvolution(data, "pc_bias_trim" in config.methods)
    fits = build_surrogate(data, basis, full_covariance=False, buffer=buffer).unstack()
    estimates = np.full((len(fits), len(config.methods), 2, basis.dimension), np.nan)
    for row, surrogate, deconv in zip(estimates, fits, deconvs):
        for col, method in enumerate(config.methods):
            fit = surrogate
            if method == "pc_bias_trim":
                fit = trim_expansion(surrogate, _trim_target(surrogate, deconv))
            row[col] = sobol_indices(fit)
    return estimates


def _response_estimates(
    config: StudyConfig, data: TrainingData, basis: MultiIndexBasis, buffer
) -> np.ndarray:
    # Per build: one surrogate with its covariances, whose BLAS products
    # are per training set, and the retained-term mask of its trim. Nothing
    # is evaluated on the response grid here; write_report derives the
    # curves of both fits from these.
    estimates = np.empty((len(data.qtilde), 2), dtype=object)
    for row, single, deconv in zip(estimates, data.unstack(), _deconvolution(data, True)):
        surrogate = build_surrogate(single, basis, buffer=buffer)
        trimmed = trim_expansion(surrogate, _trim_target(surrogate, deconv))
        row[0], row[1] = surrogate, trimmed.trimmed_mask
    return estimates


def _cell_chunk(
    config: StudyConfig, estimate, basis: MultiIndexBasis, cell: int, reps: range
) -> np.ndarray:
    # One work unit: repetitions `reps` of grid cell `cell`, fitted
    # in blocks of as many repetitions as its fit buffer holds (see
    # fit_buffers). Each repetition is drawn from its own stream into the
    # block's arrays; the blocks share n_xi and the basis, so every fit
    # reuses the unit's arrays and buffer, and after the first block a fit
    # touches no freshly allocated pages.
    # Returns the unit's estimates in one array, allocated when the first
    # block's come back, with a row per repetition of `reps`.
    n_xi, n_eta = config.cells[cell]
    buffer = fit_buffers(basis, n_xi, len(reps))
    size = buffer.shape[1] // n_xi
    samples = np.empty((size, n_xi, config.problem.d))
    qtilde = np.empty((size, n_xi))
    sigma2 = np.empty((size, n_xi)) if n_eta >= 2 else None
    out = None
    for lo in range(0, len(reps), size):
        block = reps[lo : lo + size]
        for r, rep in enumerate(block):
            rng = derive_rng(config.master_seed, cell, rep)
            samples[r], qtilde[r], s2 = _draw_training(config, n_xi, n_eta, rng)
            if sigma2 is not None:
                sigma2[r] = s2
        k = len(block)
        data = TrainingData(samples[:k], qtilde[:k], None if sigma2 is None else sigma2[:k], n_eta)
        values = np.asarray(estimate(config, data, basis, buffer))
        if out is None:
            out = np.empty((len(reps), *values.shape[1:]), values.dtype)
        out[lo : lo + k] = values
    return out


# ---------------------------------------------------------------------------
# Study runner


def _share(part: int, shares: int, cell: int, repetitions: int) -> range:
    # The repetitions of grid cell `cell` that share `part` of `shares`
    # runs: every shares-th one. Where they do not divide evenly, the
    # extra repetitions go to the shares from `part = cell` on, so they
    # rotate over the shares from cell to cell.
    return range((part - cell) % shares, repetitions, shares)


def _child(task, part: int, pipe) -> NoReturn:
    # Runs in a forked child and never returns: sends one pickled (True,
    # item) frame per item of task(part), flushed as soon as it is made, or
    # (False, exception) once it raises, then ends with os._exit, so the
    # child neither unwinds into the parent's frames nor flushes its stdio
    # buffers or runs its atexit handlers.
    status = 1
    try:
        try:
            for item in task(part):
                pipe.write(pickle.dumps((True, item), pickle.HIGHEST_PROTOCOL))
                pipe.flush()
        except BaseException as exc:
            pipe.write(_pickled_error(exc))
        pipe.close()
        status = 0
    finally:
        os._exit(status)


def _pickled_error(exc: BaseException) -> bytes:
    # The child's exception, carrying its traceback as a note, or a
    # RuntimeError with that traceback if the exception does not survive
    # a pickle round trip.
    import traceback

    text = "".join(traceback.format_exception(exc))
    try:
        exc.add_note(f"raised in worker process {os.getpid()}:\n{text}")
        payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)
        return payload
    except Exception:
        error = RuntimeError(f"worker process {os.getpid()} failed:\n{text}")
        return pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)


def _in_children(task, parts: int, steps: int):
    """Yield item 0 of every generator task(part), part in range(parts),
    then item 1 of each, and so on for `steps` items; each part runs in its
    own forked child, which sends a frame per item as soon as it is made.

    Every child writes in the order the parent reads, so the reads cannot
    deadlock, and a child's exception is re-raised here with its type at
    the step where it arose. A child's stream must end after `steps` frames
    with exit status 0; anything else raises RuntimeError naming the
    worker. However this ends, no child is left running or unreaped.
    """
    import signal

    pids, pipes, reaped = [], [], set()

    def reap(pid: int, fault: str | None = None) -> None:
        # Wait for a child whose stream has ended; unless it ended whole
        # (no fault) and exited with status 0, raise RuntimeError.
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped.add(pid)
        if status < 0:
            fault = f"was killed by {signal.Signals(-status).name}"
        elif status > 0:
            fault = f"exited with status {status}"
        if fault is not None:
            raise RuntimeError(f"worker process {pid} {fault}")

    try:
        for part in range(parts):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            # The with block closes the parent's write end once the child
            # holds its copy, so the parent's read ends at the child's exit.
            with open(write_end, "wb") as pipe:
                pid = os.fork()
                if pid == 0:
                    _child(task, part, pipe)
            pids.append(pid)
        for step in range(steps):
            for pid, pipe in zip(pids, pipes):
                try:
                    ok, item = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    reap(pid, f"ended its stream after {step} of {steps} frames")
                if not ok:
                    raise item
                yield item
        for pid, pipe in zip(pids, pipes):
            # A child blocked on writing an extra frame would never exit.
            if pipe.read(1):
                raise RuntimeError(f"worker process {pid} sent more than {steps} frames")
            reap(pid)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_grid(config: StudyConfig, estimate, workers: int, store) -> None:
    """Call store(cell, at, values) for the grid cells in grid order, with
    `values` a row per repetition of the slice `at` of the cell's
    repetitions, as the estimator returned them.

    The repetitions of every cell are split into N = min(workers,
    repetitions) shares (_share), and a share returns each cell whole as
    it is estimated (_cell_chunk). With N = 1 the share runs in process;
    with N > 1 each share runs in its own forked child, which inherits the
    config and the study's one basis and sends each cell as a frame. Cell
    c of every share is stored before cell c + 1 is taken from any share,
    so the grid holds no more than about one cell's values. Streams are
    derived per (cell, repetition), so the split never affects results.
    """
    basis = total_degree_multi_indices(config.problem.d, config.n0)
    cells = len(config.cells)
    repetitions = config.repetitions
    shares = min(workers, repetitions)

    def run_share(part: int):
        # The share's (cell, at, values), a cell at a time in grid order.
        for cell in range(cells):
            reps = _share(part, shares, cell, repetitions)
            yield cell, slice(reps.start, None, reps.step), _cell_chunk(
                config, estimate, basis, cell, reps)

    frames = run_share(0) if shares == 1 else _in_children(run_share, shares, cells)
    # Closing the frames if store raises kills the children at once.
    with closing(frames):
        for cell, at, values in frames:
            store(cell, at, values)


def emit_density(values, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram over [min, max], normalized to unit integral:
    its bin edges and the density in each bin.

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
        return np.array([lo - 0.5, lo + 0.5]), np.array([1.0])
    density, edges = np.histogram(values, bins=bins, range=(lo, hi), density=True)
    return edges, density


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


def _row_dtype(kind: str, d: int) -> np.dtype:
    # A result table row: the key columns, then the first-order and total
    # Sobol indices of d inputs (GSA) or one variance estimate.
    gsa = [("first_order", np.float64, (d,)), ("total", np.float64, (d,))]
    return np.dtype(ROW_KEYS + (gsa if kind == "gsa" else [("estimate", np.float64)]))


def _result_table(config: StudyConfig) -> tuple[np.recarray, list[dict]]:
    # The study's result table with its key columns filled: a row per (cell,
    # method, repetition) in that order, for each method the cell writes
    # (var_deconv needs n_eta >= 2). Also each grid cell's rows, by method.
    keys = [(cell, n_xi, n_eta, method) for cell, (n_xi, n_eta) in enumerate(config.cells)
            for method in config.methods if method != "var_deconv" or n_eta >= 2]
    reps = config.repetitions
    table = np.recarray(len(keys) * reps, _row_dtype(config.kind, config.problem.d))
    cells = [{} for _ in config.cells]
    for i, (cell, n_xi, n_eta, method) in enumerate(keys):
        rows = cells[cell][method] = table[i * reps : (i + 1) * reps]
        rows.n_xi, rows.n_eta, rows.method, rows.repetition = n_xi, n_eta, method, np.arange(reps)
    return table, cells


def _store_variance(report: StudyReport, rows: dict, at: slice, values) -> None:
    for col, method in enumerate(report.config.methods):
        if method in rows:
            rows[method]["estimate"][at] = values[:, col]


def _store_gsa(report: StudyReport, rows: dict, at: slice, values) -> None:
    for col, method in enumerate(report.config.methods):
        rows[method]["first_order"][at] = values[:, col, 0]
        rows[method]["total"][at] = values[:, col, 1]


def _store_response(report: StudyReport, rows: dict, at: slice, values) -> None:
    # Repetition s is build s, drawn from stream (master_seed, 0, s).
    report.surrogates[at], report.trimmed_masks[at] = list(values[:, 0]), list(values[:, 1])


def _variance_summary(report: StudyReport, n_xi: int, n_eta: int, rows: dict) -> dict:
    config = report.config
    exact_var = report.summary["exact"]["variance"]
    methods = {}
    for method in config.methods:
        if method not in rows:
            methods[method] = {"available": False}
            continue
        values = rows[method].estimate
        methods[method] = {
            "available": True,
            "mean": float(values.mean()),
            "bias": float(values.mean() - exact_var),
            "mse": float(np.mean((values - exact_var) ** 2)),
            "variance": float(values.var(ddof=1)) if len(values) > 1 else 0.0,
        }
    cost = config.cost
    realized_cost = None if cost is None else n_xi * cost.per_sample(n_eta)
    return {"n_xi": n_xi, "n_eta": n_eta, "realized_cost": realized_cost, "methods": methods}


def _gsa_summary(report: StudyReport, n_xi: int, n_eta: int, rows: dict) -> dict:
    methods = {}
    for method in report.config.methods:
        firsts, totals = rows[method].first_order, rows[method].total
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


def _response_summary(report: StudyReport, n_xi: int, n_eta: int, rows: dict) -> dict:
    builds = [{"sample": s, "n_retained_full": fit.n_retained, "n_retained_trimmed": int(m.sum())}
              for s, (fit, m) in enumerate(zip(report.surrogates, report.trimmed_masks))]
    return {"n_xi": n_xi, "n_eta": n_eta, "builds": builds}


# Study kind -> (estimator, store, summarizer). A store puts a share's
# values of one cell (see _run_grid) into the report at the share's
# repetitions `at`: estimates into the cell's table rows by method (see
# _result_table), builds into the report's lists. A summarizer computes a
# cell's summary entry from its filled rows, or the builds, after the grid.
_STUDIES = {
    "variance": (_variance_estimates, _store_variance, _variance_summary),
    "gsa": (_gsa_estimates, _store_gsa, _gsa_summary),
    "response": (_response_estimates, _store_response, _response_summary),
}


def run_study(config: StudyConfig, workers: int = 1) -> StudyReport:
    """Run the config's study: each repetition of each grid cell through the
    kind's estimator, its results stored in the report as each cell's
    shares come back, then each cell summarized from them in grid order.
    The study's result table is allocated once, and the other kind's table
    has no rows."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    estimate, store, summarize = _STUDIES[config.kind]
    d = config.problem.d
    tables = {kind: np.recarray(0, _row_dtype(kind, d)) for kind in ("variance", "gsa")}
    tables[config.kind], cells = _result_table(config)
    builds = config.repetitions if config.kind == "response" else 0
    report = StudyReport(config=config, summary=_base_summary(config),
                         records=tables["variance"], gsa_records=tables["gsa"],
                         surrogates=[None] * builds, trimmed_masks=[None] * builds)
    _run_grid(config, estimate, workers,
              lambda cell, at, values: store(report, cells[cell], at, values))
    report.summary["cells"] = [
        summarize(report, n_xi, n_eta, rows)
        for (n_xi, n_eta), rows in zip(config.cells, cells)
    ]
    return report


# ---------------------------------------------------------------------------
# File emission


# Rows of records.csv and gsa.csv formatted per write. A formatted row costs
# a few hundred bytes, so a table is never held as strings in full.
BLOCK_ROWS = 1024


def _column(values) -> list[str]:
    # A float's str is its repr, the shortest string that reads back to the
    # same float, so reruns are byte-identical. tolist() turns numpy scalars
    # into Python ones, whose str has no "np.float64(...)" wrapper.
    return list(map(str, np.asarray(values).tolist()))


def _write_csv(path: Path, header: list[str], blocks) -> None:
    # Each block is a list of columns already formatted as strings, and is
    # written in one call. Every field is a number or a method name, so
    # nothing needs quoting; lines end in "\r\n" as in csv's excel dialect.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _table_columns(rows: np.recarray) -> list[list[str]]:
    # A table slice formatted as columns: one per field, and one per entry
    # of a vector field.
    return [_column(c) for name in rows.dtype.names for c in rows[name].reshape(len(rows), -1).T]


def write_report(report: StudyReport, out_dir) -> list[Path]:
    """Write the report's files into out_dir; returns the paths written.

    Each CSV is written column by column, and a value shared by several
    columns or files (density bin edges, the response grid and analytic
    curve) is formatted once. Each density is derived from its (cell,
    method) rows of the result table, and a response build's two curves
    from its fit and trim mask, just before their files are written.
    """
    config = report.config
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report.summary, indent=1) + "\n")
    written.append(summary_path)

    d = config.problem.d
    for name, table, values in (
        ("records.csv", report.records, ["estimate"]),
        ("gsa.csv", report.gsa_records, [f"s{i + 1}" for i in range(d)]
         + [f"st{i + 1}" for i in range(d)]),
    ):
        if len(table):
            path = out / name
            blocks = (_table_columns(table[lo : lo + BLOCK_ROWS])
                      for lo in range(0, len(table), BLOCK_ROWS))
            _write_csv(path, [key for key, _ in ROW_KEYS] + values, blocks)
            written.append(path)

    # A (cell, method)'s repetitions are consecutive rows of the table.
    reps, records = config.repetitions, report.records
    for n_xi, n_eta, method, values in zip(
        records.n_xi[::reps], records.n_eta[::reps], records.method[::reps],
        records.estimate.reshape(-1, reps),
    ):
        path = out / f"density_{n_xi}x{n_eta}_{method}.csv"
        edges, density = map(_column, emit_density(values, config.bins))
        _write_csv(path, ["bin_left", "bin_right", "density"], [[edges[:-1], edges[1:], density]])
        written.append(path)

    if report.surrogates:
        # One grid and its basis values serve every curve of the study. The
        # basis is evaluated through the nisp module, as the fits' are, so a
        # tracer of nisp.eval_basis_matrix sees it (perfbench/trace_study.py).
        points = np.linspace(-1.0, 1.0, config.response_points)[:, None]
        grid = _column(points[:, 0])
        analytic = _column(transmittance_batch(config.problem, points))
        psi = nisp.eval_basis_matrix(report.surrogates[0].basis, points)
        for sample, (surrogate, mask) in enumerate(zip(report.surrogates, report.trimmed_masks)):
            for suffix, fit in (("", surrogate), ("_trim", replace(surrogate, trimmed_mask=mask))):
                mid = predict(fit, psi)
                half = 2.0 * prediction_stddev(fit, psi, use_noise_corrected=fit.n_eta >= 2)
                path = out / f"response_{sample}{suffix}.csv"
                _write_csv(
                    path,
                    ["xi", "predict", "band_lo", "band_hi", "analytic"],
                    [[grid, _column(mid), _column(mid - half), _column(mid + half), analytic]],
                )
                written.append(path)

    for index, surrogate in enumerate(report.surrogates):
        path = out / f"surrogate_{index}.json"
        save_surrogate(surrogate, path)
        written.append(path)

    return written
