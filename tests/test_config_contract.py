"""Property test of the config contract of `uqpc run`.

Whatever a config holds, `cli.main` either runs the study (exit 0, every
number in summary.json finite) or refuses it (exit 2, "config error:" on
stderr). It never raises, and with the suite's warnings-as-errors a numeric
RuntimeWarning on the way counts as raising. The configs are the shipped
ones shrunk to tiny grids, then mutated: numeric extremes, "nan" and "inf"
strings, booleans, huge integers, wrong types and missing keys. The search
is derandomized, so every run tries the same examples.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from uqpc.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.name for p in CONFIGS.glob("*.yaml"))

# Small enough that a run takes milliseconds.
TINY = {
    "variance": {"n_xi_grid": [4, 7], "n_eta_grid": [1, 3], "repetitions": 2},
    "gsa": {"n_xi_grid": [6], "n_eta_grid": [1, 2], "repetitions": 3},
    "response": {"n_xi_grid": [6], "n_eta_grid": [2], "repetitions": 2, "response_points": 5},
}

# Where a mutation writes. A path whose parent the config lacks, or whose
# parent is not a container, leaves the config as it is.
NUMBER_PATHS = [
    ("problem", "materials", 0, "sigma0"),
    ("problem", "materials", 0, "sigmaDelta"),
    ("problem", "materials", 0, "dx"),
    ("problem", "materials", -1, "sigma0"),
    ("problem", "materials", -1, "sigmaDelta"),
    ("problem", "materials", -1, "dx"),
    ("pce", "n0"),
    ("study", "n_xi_grid", 0),
    ("study", "n_eta_grid", -1),
    ("study", "repetitions"),
    ("study", "bins"),
    ("study", "response_points"),
    ("cost", "total"),
    ("cost", "xi"),
    ("cost", "eta"),
    ("seed",),
]
PATHS = NUMBER_PATHS + [
    ("problem",),
    ("problem", "materials"),
    ("problem", "materials", 0),
    ("problem", "materials", -1),
    ("pce",),
    ("study",),
    ("study", "kind"),
    ("study", "n_xi_grid"),
    ("study", "n_eta_grid"),
    ("study", "methods"),
    ("study", "methods", 0),
    ("study", "noise_free"),
    ("cost",),
]

# Numeric extremes, "nan" and "inf" strings, booleans and huge integers,
# and ordinary values that keep many mutated configs runnable.
NUMBERS = [
    0, -0.0, -1, 1e-300, 1e300, -1e300, "nan", "inf", "-inf", "1e-3",
    float("nan"), float("inf"), float("-inf"),
    True, False, 2**53, 2**53 + 1, 2**63, 10**30,
    1, 2, 3, 0.3, 0.5, 1.5, 40.0, 700.0,
]
DELETE = object()
# Wrong types and missing keys.
VALUES = NUMBERS + [
    DELETE, None, "abc", [], {}, [3, 5], {"a": 1}, "variance", "gsa", "response", "pc_bias",
]


def _base(name: str) -> dict:
    config = yaml.safe_load((CONFIGS / name).read_text(encoding="utf-8"))
    # A copy, so that a mutation of a grid list does not leak into TINY.
    config["study"].update(copy.deepcopy(TINY[config["study"].get("kind", "variance")]))
    # No shipped config has a cost model; one gives the mutations its keys.
    config["cost"] = {"total": 600.0, "xi": 2.0, "eta": 1.0}
    return config


def _mutate(config: dict, path: tuple, value) -> None:
    *parents, key = path
    node = config
    for step in parents:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError):
            return
    if not isinstance(node, (dict, list)) or (
        isinstance(node, list) and not (isinstance(key, int) and node)
    ):
        return
    if value is not DELETE:
        node[key] = copy.deepcopy(value)
    elif isinstance(node, list) or key in node:
        del node[key]


def _numbers(node):
    if isinstance(node, dict):
        return [x for v in node.values() for x in _numbers(v)]
    if isinstance(node, list):
        return [x for v in node for x in _numbers(v)]
    return [node] if isinstance(node, float) else []


def check_contract(name: str, mutations: list) -> None:
    config = _base(name)
    for path, value in mutations:
        _mutate(config, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", "--config", str(path), "--out", str(out)])
        if code == 2:
            assert stderr.getvalue().startswith("config error: "), stderr.getvalue()
            return
        assert code == 0, (code, stderr.getvalue())
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert all(math.isfinite(x) for x in _numbers(summary)), summary


MUTATION = st.one_of(
    st.tuples(st.sampled_from(NUMBER_PATHS), st.sampled_from(NUMBERS)),
    st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES)),
)


# 300 examples take about 5 s on a 2-core Xeon.
@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(SHIPPED),
    mutations=st.lists(MUTATION, min_size=1, max_size=2, unique_by=lambda m: m[0]),
)
# Configs that once ran to a summary with NaN or Infinity: a cost that is
# not finite, or whose realized cost overflows.
@example(name="d3_variance.yaml", mutations=[(("cost", "xi"), "nan")])
@example(name="d1_response.yaml", mutations=[(("cost", "total"), float("inf"))])
@example(name="d1_oracle.yaml", mutations=[(("cost", "eta"), 1e300),
                                           (("study", "n_eta_grid", -1), 2**53)])
# Extremes that run: a one-term basis, one repetition, a one-point response
# grid, a 100-bit seed, the largest n_eta, and a mean of about 1e-304 that
# is refused.
@example(name="d3_gsa.yaml", mutations=[(("pce", "n0"), 0)])
@example(name="d3_variance.yaml", mutations=[(("study", "repetitions"), 1)])
@example(name="d1_response.yaml", mutations=[(("study", "response_points"), 1)])
@example(name="d3_gsa.yaml", mutations=[(("seed",), 10**30)])
@example(name="d3_variance.yaml", mutations=[(("study", "n_eta_grid", -1), 2**53)])
@example(name="d1_oracle.yaml", mutations=[(("problem", "materials", 0, "sigma0"), 700.0),
                                           (("problem", "materials", 0, "sigmaDelta"), 1)])
# A kind that is not a string, which once raised TypeError when looked up.
@example(name="d3_variance.yaml", mutations=[(("study", "kind"), [])])
@example(name="d3_gsa.yaml", mutations=[(("study", "kind"), {"a": 1})])
@example(name="d1_response.yaml", mutations=[(("study", "kind"), [3, 5])])
def test_cli_runs_or_refuses_any_config(name, mutations):
    check_contract(name, mutations)


def test_legal_but_empty_config_runs(tmp_path):
    # A section that almost no history crosses (E[p] about 5e-47) is a
    # valid config and is not refused: every tally is 0, so every variance
    # estimate is 0.0 and every GSA draw is undefined (NaN in gsa.csv,
    # n_defined 0, null means). Both studies exit 0, and every other number
    # in summary.json is finite.
    for name, table in (("d3_variance.yaml", "records.csv"), ("d3_gsa.yaml", "gsa.csv")):
        config = _base(name)
        config["problem"]["materials"][-1] = {"sigma0": 400, "sigmaDelta": 300, "dx": 1}
        path = tmp_path / name
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        out = tmp_path / name.removesuffix(".yaml")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / table).read_text(encoding="utf-8").splitlines()[1:]
        values = {value for line in lines for value in line.split(",")[4:]}
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert lines and values == ({"0.0"} if table == "records.csv" else {"nan"})
        if table == "gsa.csv":
            for cell in summary["cells"]:
                for stats in cell["methods"].values():
                    assert stats == {"n_defined": 0, "mean_first": None, "mean_total": None,
                                     "std_first": None}
        assert all(math.isfinite(x) for x in _numbers(summary)), summary
