"""Checks a `uqpc run` output directory against the closed-form oracle.

Pure Python on purpose: the checks share no code with the program under
test. The slab transmittance is Q(xi) = prod_m g_m(xi_m) with
g_m = exp(-(sigma0_m + sigmaDelta_m xi_m) dx_m) and xi_m ~ U(-1, 1), so the
mean, the variance and the first-order Sobol indices have closed forms built
from the 1-D moments E[g_m] and E[g_m^2].

Statistical gates compare a mean over repetitions with its exact value in
units of the standard error of that mean (z = (mean - exact) / (sd / sqrt(R))).
Z_GATE is loose on purpose: a correct program must never trip it at any
seed, while an estimate shifted by Z_GATE standard errors must.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import yaml

Z_GATE = 7.0
# Below this many values the t statistic's tails are too heavy for a gate
# that must never trip; such reports get the structural checks only.
MIN_GATE_VALUES = 20
# The summary's exact values are computed by the program; they must agree
# with the closed forms below to rounding.
EXACT_RTOL = 1e-9


class OracleError(Exception):
    """An output that a correct program cannot produce."""


def slab_materials(config_path) -> list[tuple[float, float, float]]:
    """(sigma0, sigmaDelta, dx) per section, read from a study config."""
    raw = yaml.safe_load(Path(config_path).read_text(encoding="utf-8"))
    out = []
    for mat in raw["problem"]["materials"]:
        if "lo" in mat:
            s0 = 0.5 * (mat["lo"] + mat["hi"])
            sd = 0.5 * (mat["hi"] - mat["lo"])
        else:
            s0 = mat["sigma0"]
            sd = mat.get("sigmaDelta", mat.get("sigma_delta"))
        out.append((float(s0), float(sd), float(mat["dx"])))
    return out


def _factor_moment(s0: float, sd: float, dx: float, power: int) -> float:
    # E[exp(-power (s0 + sd xi) dx)] for xi ~ U(-1, 1).
    a = power * sd * dx
    shrink = math.sinh(a) / a if a != 0.0 else 1.0
    return math.exp(-power * s0 * dx) * shrink


def exact_moments(materials) -> dict:
    mu = [_factor_moment(*m, 1) for m in materials]
    sq = [_factor_moment(*m, 2) for m in materials]
    mean = math.prod(mu)
    variance = math.prod(sq) - mean**2
    first = []
    for i in range(len(materials)):
        others = math.prod(mu[j] ** 2 for j in range(len(materials)) if j != i)
        first.append((sq[i] - mu[i] ** 2) * others / variance)
    return {"mean": mean, "variance": variance, "sobol_first": first}


def transmittance(materials, xi: float) -> float:
    """Closed-form transmittance of a one-section slab at parameter xi."""
    (s0, sd, dx), = materials
    return math.exp(-(s0 + sd * xi) * dx)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=EXACT_RTOL, abs_tol=1e-15)


def _z_gate(values: list[float], exact: float, label: str) -> float:
    """Return |z| of the mean of values against exact; raise past the gate."""
    n = len(values)
    if n < MIN_GATE_VALUES:
        return 0.0
    mean = math.fsum(values) / n
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    if sd == 0.0:
        if mean != exact:
            raise OracleError(f"{label}: constant estimate {mean!r} != exact {exact!r}")
        return 0.0
    z = abs(mean - exact) / (sd / math.sqrt(n))
    if not z <= Z_GATE:
        raise OracleError(f"{label}: |z| = {z:.2f} > {Z_GATE} (mean {mean!r}, exact {exact!r})")
    return z


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.is_file():
        raise OracleError(f"missing report file {path.name}")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise OracleError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _finite(text: str, label: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise OracleError(f"{label}: non-finite value {text}")
    return value


def _summary(out_dir: Path, materials, kind: str, repetitions: int) -> dict:
    path = out_dir / "summary.json"
    if not path.is_file():
        raise OracleError("missing report file summary.json")
    summary = json.loads(path.read_text(encoding="utf-8"))
    if summary.get("kind") != kind or summary.get("repetitions") != repetitions:
        raise OracleError(
            f"summary.json describes kind {summary.get('kind')!r} with "
            f"{summary.get('repetitions')} repetitions, expected {kind!r} with {repetitions}"
        )
    exact = exact_moments(materials)
    for key in ("mean", "variance"):
        if not _close(summary["exact"][key], exact[key]):
            raise OracleError(
                f"summary exact {key} {summary['exact'][key]!r} != closed form {exact[key]!r}"
            )
    for i, (got, want) in enumerate(zip(summary["exact"]["sobol_first"], exact["sobol_first"])):
        if not _close(got, want):
            raise OracleError(f"summary exact sobol_first[{i}] {got!r} != closed form {want!r}")
    return summary


def check_variance(out_dir, materials, n_xi_grid, n_eta_grid, methods, repetitions) -> float:
    """Variance study: every record finite, unbiased methods within the gate."""
    out_dir = Path(out_dir)
    summary = _summary(out_dir, materials, "variance", repetitions)
    exact_var = summary["exact"]["variance"]
    header, rows = _read_csv(out_dir / "records.csv")
    if header != ["n_xi", "n_eta", "method", "repetition", "estimate"]:
        raise OracleError(f"records.csv header {header}")
    cells: dict[tuple[int, int, str], list[float]] = {}
    for n_xi, n_eta, method, _rep, est in rows:
        label = f"records.csv {n_xi}x{n_eta} {method}"
        cells.setdefault((int(n_xi), int(n_eta), method), []).append(_finite(est, label))
    worst = 0.0
    for n_xi in n_xi_grid:
        for n_eta in n_eta_grid:
            for method in methods:
                available = method != "var_deconv" or n_eta >= 2
                values = cells.get((n_xi, n_eta, method))
                if not available:
                    if values:
                        raise OracleError(f"{method} reported at n_eta={n_eta}")
                    continue
                if values is None or len(values) != repetitions:
                    got = 0 if values is None else len(values)
                    raise OracleError(
                        f"cell {n_xi}x{n_eta} {method}: {got} records, expected {repetitions}"
                    )
                if not (out_dir / f"density_{n_xi}x{n_eta}_{method}.csv").is_file():
                    raise OracleError(f"missing density file for {n_xi}x{n_eta} {method}")
                if method in ("pc_bias", "var_deconv"):
                    label = f"cell {n_xi}x{n_eta} {method}"
                    worst = max(worst, _z_gate(values, exact_var, label))
    return worst


def check_gsa(out_dir, materials, n_xi_grid, n_eta_grid, methods, repetitions) -> float:
    """GSA study: mean pc_bias first-order indices within the gate."""
    out_dir = Path(out_dir)
    summary = _summary(out_dir, materials, "gsa", repetitions)
    first_exact = summary["exact"]["sobol_first"]
    d = len(materials)
    header, rows = _read_csv(out_dir / "gsa.csv")
    expected = ["n_xi", "n_eta", "method", "repetition"]
    expected += [f"s{i + 1}" for i in range(d)] + [f"st{i + 1}" for i in range(d)]
    if header != expected:
        raise OracleError(f"gsa.csv header {header}")
    counts: dict[tuple[int, int, str], int] = {}
    firsts: dict[tuple[int, int], list[list[float]]] = {}
    for row in rows:
        key = (int(row[0]), int(row[1]), row[2])
        counts[key] = counts.get(key, 0) + 1
        values = [float(v) for v in row[4:]]
        if all(math.isnan(v) for v in values):
            continue  # a draw that trimmed every term; recorded as undefined
        for v in values:
            if not math.isfinite(v):
                raise OracleError(f"gsa.csv {key}: partly non-finite row {row}")
        if row[2] == "pc_bias":
            firsts.setdefault(key[:2], []).append(values[:d])
    worst = 0.0
    for n_xi in n_xi_grid:
        for n_eta in n_eta_grid:
            for method in methods:
                if counts.get((n_xi, n_eta, method), 0) != repetitions:
                    raise OracleError(f"cell {n_xi}x{n_eta} {method}: wrong record count")
            if "pc_bias" not in methods:
                continue
            defined = firsts.get((n_xi, n_eta), [])
            if 2 * len(defined) < repetitions:
                raise OracleError(
                    f"cell {n_xi}x{n_eta}: only {len(defined)} of {repetitions} defined"
                )
            for i in range(d):
                label = f"cell {n_xi}x{n_eta} pc_bias s{i + 1}"
                column = [v[i] for v in defined]
                worst = max(worst, _z_gate(column, first_exact[i], label))
    return worst


def check_response(out_dir, materials, repetitions, response_points) -> float:
    """Response study: finite values, ordered bands, mean curve near analytic."""
    out_dir = Path(out_dir)
    _summary(out_dir, materials, "response", repetitions)
    header_want = ["xi", "predict", "band_lo", "band_hi", "analytic"]
    curves: list[list[float]] = []
    grid: list[float] | None = None
    for sample in range(repetitions):
        for suffix in ("", "_trim"):
            name = f"response_{sample}{suffix}.csv"
            header, rows = _read_csv(out_dir / name)
            if header != header_want or len(rows) != response_points:
                raise OracleError(f"{name}: header {header}, {len(rows)} rows")
            predict = []
            for row in rows:
                xi, mid, lo, hi, analytic = (_finite(v, name) for v in row)
                if not lo <= mid <= hi:
                    raise OracleError(f"{name}: band [{lo}, {hi}] misses prediction {mid}")
                if not math.isclose(analytic, transmittance(materials, xi), rel_tol=1e-12):
                    raise OracleError(f"{name}: analytic {analytic} wrong at xi={xi}")
                predict.append(mid)
            if suffix == "":
                curves.append(predict)
                if grid is None:
                    grid = [float(row[0]) for row in rows]
        surrogate = out_dir / f"surrogate_{sample}.json"
        if not surrogate.is_file():
            raise OracleError(f"missing report file {surrogate.name}")
        payload = json.loads(surrogate.read_text(encoding="utf-8"))
        if payload.get("format") != "uqpc-surrogate-v1":
            raise OracleError(f"{surrogate.name}: format {payload.get('format')!r}")
    worst = 0.0
    for j, xi in enumerate(grid):
        column = [curve[j] for curve in curves]
        label = f"build-averaged prediction at xi={xi}"
        worst = max(worst, _z_gate(column, transmittance(materials, xi), label))
    return worst


def check_study(out_dir, config_path, kind, n_xi_grid, n_eta_grid, methods,
                repetitions, response_points=201) -> float:
    """Dispatch on study kind; returns the worst |z| seen, raises OracleError."""
    materials = slab_materials(config_path)
    if kind == "variance":
        return check_variance(out_dir, materials, n_xi_grid, n_eta_grid, methods, repetitions)
    if kind == "gsa":
        return check_gsa(out_dir, materials, n_xi_grid, n_eta_grid, methods, repetitions)
    return check_response(out_dir, materials, repetitions, response_points)


def fingerprint(out_dir) -> dict[str, str]:
    """sha256 of summary.json, records.csv and gsa.csv, plus one over every file."""
    out_dir = Path(out_dir)
    digests = {}
    combined = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        combined.update(f"{path.name} {digest}\n".encode())
        if path.name in ("summary.json", "records.csv", "gsa.csv"):
            digests[path.name] = digest
    digests["all_files"] = combined.hexdigest()
    return digests
