"""Traced in-process run of the studies behind the benchmark workloads.

run.py starts this script in a fresh interpreter for `--trace 1`:

    python3 perfbench/trace_study.py --seed N --work DIR --output FILE

It runs each study through `uqpc.cli.main` four times, untraced and traced
in the order U T T U, after a short untraced warm-up. A traced pass wraps
the public functions of every layer by replacing the module attributes
through which `uqpc.cli`, `uqpc.experiments`, `uqpc.nisp` and
`uqpc.transport` call them; nothing in the package changes. Spans are kept
in memory and written to FILE at the end together with the per-layer
metrics, which come from the last traced pass.

A span is [name, start_s, end_s, parent, cell_tag, study]. `parent` indexes
the span list (-1 for a root). The cell tag "c<n_xi>x<n_eta>" is read off the
call arguments of simulate_training_set and build_surrogate; other spans
inherit their parent's tag.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import workloads

# (module, attribute, span name): every call the run path makes across a
# layer boundary. transport.transmittance_batch is wrapped twice because
# experiments calls it directly and simulate_training_set calls it inside
# the transport module.
WRAPS = [
    ("uqpc.cli", "load_config", "experiments.load_config"),
    ("uqpc.cli", "run_study", "experiments.run_study"),
    ("uqpc.cli", "write_report", "experiments.write_report"),
    ("uqpc.experiments", "derive_rng", "experiments.derive_rng"),
    ("uqpc.experiments", "emit_density", "experiments.emit_density"),
    ("uqpc.experiments", "sample_parameters", "transport.sample_parameters"),
    ("uqpc.experiments", "simulate_training_set", "transport.simulate_training_set"),
    ("uqpc.experiments", "transmittance_batch", "transport.transmittance_batch"),
    ("uqpc.transport", "transmittance_batch", "transport.transmittance_batch"),
    ("uqpc.experiments", "total_degree_multi_indices", "polybasis.total_degree_multi_indices"),
    ("uqpc.nisp", "eval_basis_matrix", "polybasis.eval_basis_matrix"),
    ("uqpc.experiments", "build_surrogate", "nisp.build_surrogate"),
    ("uqpc.experiments", "trim_expansion", "nisp.trim_expansion"),
    ("uqpc.experiments", "pce_variance_biased", "nisp.estimators"),
    ("uqpc.experiments", "pce_variance_unbiased", "nisp.estimators"),
    ("uqpc.experiments", "variance_deconvolution", "nisp.estimators"),
    ("uqpc.experiments", "sobol_indices", "nisp.sobol_indices"),
    ("uqpc.experiments", "predict", "nisp.predict"),
    ("uqpc.experiments", "prediction_stddev", "nisp.prediction_stddev"),
    ("uqpc.experiments", "save_surrogate", "nisp.save_surrogate"),
    ("uqpc.experiments", "exact_mean", "oracle.exact"),
    ("uqpc.experiments", "exact_variance", "oracle.exact"),
    ("uqpc.experiments", "exact_sobol", "oracle.exact"),
]

# Spans whose self time is also reported per study.
KEY_SPANS = (
    "transport.simulate_training_set",
    "polybasis.eval_basis_matrix",
    "polybasis.total_degree_multi_indices",
    "nisp.build_surrogate",
)

# Fixed cells of the variance grid reported per repetition.
TAGGED_SPANS = ("transport.simulate_training_set", "polybasis.eval_basis_matrix",
                "nisp.build_surrogate")
TAGGED_CELLS = ("c25x1", "c2000x2", "c2000x100")


def _cell(n_xi: int, n_eta: int) -> str:
    return f"c{n_xi}x{n_eta}"


def _tag_simulate(problem, xis, n_eta, rng):
    return _cell(len(xis), n_eta)


def _tag_build(data, *args, **kwargs):
    return _cell(data.n_xi, data.n_eta)


TAGGERS = {
    "transport.simulate_training_set": _tag_simulate,
    "nisp.build_surrogate": _tag_build,
}


class Tracer:
    """Spans and counters of one traced pass, held in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.study = ""
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn):
        tagger = TAGGERS.get(name)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if tagger is not None:
                tag = tagger(*args, **kwargs)
            else:
                tag = spans[parent][4] if parent >= 0 else None
            span = [name, 0.0, 0.0, parent, tag, self.study]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _count_simulate(tracer, args, result):
    tracer.count("histories", len(args[1]) * args[2])


def _count_basis(tracer, args, result):
    points = len(args[1])
    tracer.count("points", points)
    tracer.count("bytes_computed", points * len(args[0]) * 8)


def _count_build(tracer, args, result):
    p = len(result.basis)
    for cov in (result.coefficient_covariance, result.noise_corrected_covariance):
        if cov is not None:
            tracer.count("cov_entries", p * p)


def _count_trim(tracer, args, result):
    tracer.count("trim_kept", result.n_retained - 1)
    tracer.count("trim_candidates", len(result.basis) - 1)


def _count_write(tracer, args, result):
    report = args[0]
    tracer.count("files", len(result))
    tracer.count("bytes", sum(Path(p).stat().st_size for p in result))
    for record in report.gsa_records:
        tracer.count("gsa_records", 1)
        tracer.count("gsa_undefined", int(math.isnan(record.first_order[0])))


COUNTERS = {
    "transport.simulate_training_set": _count_simulate,
    "polybasis.eval_basis_matrix": _count_basis,
    "nisp.build_surrogate": _count_build,
    "nisp.trim_expansion": _count_trim,
    "experiments.write_report": _count_write,
}


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, tag, study in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, repetitions: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass over every study."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    by_study: dict[tuple[str, str], float] = {}
    by_tag: dict[tuple[str, str], float] = {}
    for span, own in zip(spans, selfs):
        name, start, end, _parent, tag, study = span
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        by_study[(study, name)] = by_study.get((study, name), 0.0) + own
        if study == "variance_grid":
            by_tag[(name, tag)] = by_tag.get((name, tag), 0.0) + own

    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    sim = "transport.simulate_training_set"
    put(f"{sim}.calls", calls[sim], "count")
    put(f"{sim}.self_s", self_s[sim], "s")
    put(f"{sim}.histories", counts["histories"], "count")
    put("transport.histories_per_s", counts["histories"] / incl_s[sim], "1/s")
    put("transport.sample_parameters.self_s", self_s["transport.sample_parameters"], "s")
    put("transport.transmittance_batch.self_s", self_s["transport.transmittance_batch"], "s")

    basis = "polybasis.eval_basis_matrix"
    put(f"{basis}.calls", calls[basis], "count")
    put(f"{basis}.self_s", self_s[basis], "s")
    put(f"{basis}.points", counts["points"], "count")
    put(f"{basis}.bytes_computed", counts["bytes_computed"], "B")
    multi = "polybasis.total_degree_multi_indices"
    put(f"{multi}.calls", calls[multi], "count")
    put(f"{multi}.self_s", self_s[multi], "s")

    put("nisp.build_surrogate.calls", calls["nisp.build_surrogate"], "count")
    put("nisp.build_surrogate.self_s", self_s["nisp.build_surrogate"], "s")
    put("nisp.cov_entries", counts["cov_entries"], "count")
    put("nisp.trim_expansion.self_s", self_s["nisp.trim_expansion"], "s")
    put("nisp.trim_expansion.kept_frac", counts["trim_kept"] / counts["trim_candidates"], "1")
    put("nisp.estimators.self_s", self_s["nisp.estimators"], "s")
    put("nisp.sobol_indices.self_s", self_s["nisp.sobol_indices"], "s")
    put("nisp.sobol_indices.undefined_frac",
        counts["gsa_undefined"] / counts["gsa_records"], "1")
    for fn in ("predict", "prediction_stddev", "save_surrogate"):
        put(f"nisp.{fn}.self_s", self_s[f"nisp.{fn}"], "s")

    put("experiments.derive_rng.calls", calls["experiments.derive_rng"], "count")
    put("experiments.derive_rng.self_s", self_s["experiments.derive_rng"], "s")
    put("experiments.run_study.self_s", self_s["experiments.run_study"], "s")
    put("experiments.emit_density.calls", calls["experiments.emit_density"], "count")
    put("experiments.emit_density.self_s", self_s["experiments.emit_density"], "s")
    put("experiments.write_report.s", incl_s["experiments.write_report"], "s")
    put("experiments.write_report.files", counts["files"], "count")
    put("experiments.write_report.bytes", counts["bytes"], "B")
    put("experiments.load_config.s", incl_s["experiments.load_config"], "s")
    put("oracle.exact.self_s", self_s["oracle.exact"], "s")

    reps = repetitions["variance_grid"]
    for name in TAGGED_SPANS:
        for cell in TAGGED_CELLS:
            put(f"{name}.self_ms_per_rep.{cell}", 1e3 * by_tag[(name, cell)] / reps, "ms")
    for study in repetitions:
        for name in KEY_SPANS:
            put(f"{study}.{name}.self_s", by_study[(study, name)], "s")
        put(f"{study}.experiments.write_report.s",
            by_study[(study, "experiments.write_report")], "s")
    return out


def _run_cli(cli, study, out: Path) -> float:
    shutil.rmtree(out, ignore_errors=True)
    argv = study.argv(out)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"uqpc {' '.join(argv)} exited with {code}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for report files")
    parser.add_argument("--output", required=True, help="JSON file for metrics and spans")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="override every study's repetitions (smoke tests)")
    args = parser.parse_args(argv)

    import oracle_check
    import uqpc.cli as cli

    work = Path(args.work)
    studies = workloads.traced_studies(args.seed, args.repetitions)
    # First calls into numpy, csv and json pay one-off costs; keep them out
    # of both the traced and the untraced figures.
    for study in studies:
        _run_cli(cli, replace(study, repetitions=2), work / "warmup")

    # Untraced and traced passes in the order U T T U, so that a drift in
    # machine speed cancels out of the overhead estimate.
    elapsed = {False: 0.0, True: 0.0}
    checks = {"attempted": 0, "failed": 0, "errors": [], "fingerprints": {}}
    tracer = None
    for traced in (False, True, True, False):
        if traced:
            tracer = Tracer()
        for study in studies:
            out = work / study.name
            if traced:
                tracer.study = study.name
                tracer.install()
            try:
                elapsed[traced] += _run_cli(cli, study, out)
            finally:
                if traced:
                    tracer.uninstall()
            checks["attempted"] += 1
            try:
                study.check(out)
                prints = oracle_check.fingerprint(out)
                # Tracing must not change a single output byte.
                if checks["fingerprints"].setdefault(study.name, prints) != prints:
                    raise oracle_check.OracleError("report files differ between passes")
            except oracle_check.OracleError as exc:
                checks["failed"] += 1
                checks["errors"].append(f"{study.name} seed {study.seed}: {exc}")
            shutil.rmtree(out, ignore_errors=True)

    metrics = layer_metrics(tracer, {s.name: s.repetitions for s in studies})
    metrics["trace.overhead_frac"] = (elapsed[True] / elapsed[False] - 1.0, "1")
    payload = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": checks,
        "untraced_s": elapsed[False],
        "traced_s": elapsed[True],
        "span_fields": ["name", "start_s", "end_s", "parent", "cell_tag", "study"],
        "spans": tracer.spans,
    }
    Path(args.output).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
