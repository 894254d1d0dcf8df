"""One rule for every integer the API takes: ``samplers._integer``, and for a
count ``samplers._count`` on top of it. Each entry point refuses a bool or a
float with a TypeError naming its argument, a count below 1 with a
ValueError, and an index or code outside its range with a ValueError."""

import ast
from pathlib import Path

import numpy as np
import pytest

import tvpdr
from tvpdr import (
    BacktestPlan,
    MacroDataset,
    ModelSpec,
    PosteriorDraws,
    assemble_design,
    build_threshold_grid,
    cdf_derivative,
    conditional_cdf,
    expanding_window_backtest,
    forecast_predictive,
    pit_uniformity_band,
)
from tvpdr.data import apply_transform, inflation
from tvpdr.samplers import sample_truncated_mvn, stream_generator

GRID = build_threshold_grid(-1.0, 1.0, 0.5)
DRAWS = PosteriorDraws(grid=GRID, beta=np.zeros((2, GRID.n, 4, 2)),
                       sigma2=np.ones((2, GRID.n, 2)), seed=0, stream=0,
                       spec_hash="a" * 64, data_hash="b" * 64)
DATES = tuple(f"{2000 + q // 4}Q{q % 4 + 1}" for q in range(12))
DATA = MacroDataset(dates=DATES, series={"pi": np.arange(12.0), "u": np.ones(12)}, codes={},
                    target="pi", horizon=1)
SPEC = ModelSpec(d=2, grid=GRID, iterations=2, burnin=1)
COUNTS = {"d": 2, "iterations": 2, "burnin": 1, "truncation_sweeps": 1}
ROW = np.array([1.0, 0.5])

# name, how a call takes the value
COUNT_ENTRIES = {
    "ModelSpec.d": ("d", lambda v: ModelSpec(grid=GRID, **{**COUNTS, "d": v})),
    "ModelSpec.truncation_sweeps": (
        "truncation_sweeps", lambda v: ModelSpec(grid=GRID, **{**COUNTS, "truncation_sweeps": v})),
    "BacktestPlan.refit_every": ("refit_every", lambda v: BacktestPlan("2000Q1", "2001Q1",
                                                                       refit_every=v)),
    "BacktestPlan.lag": ("lag", lambda v: BacktestPlan("2000Q1", "2001Q1", lag=v)),
    "workers": ("workers", lambda v: expanding_window_backtest(
        BacktestPlan("2000Q1", "2001Q1"), SPEC, DATA, ["u"], workers=v)),
    "sweeps": ("sweeps", lambda v: sample_truncated_mvn(
        np.ones(2), np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2), np.full(2, 0.5),
        sweeps=v, gen=stream_generator(0))),
    "pit_uniformity_band": ("n", lambda v: pit_uniformity_band(v)),
    "forecast_predictive": ("steps", lambda v: forecast_predictive(DRAWS, ROW, steps=v)),
    "MacroDataset.horizon": ("horizon", lambda v: MacroDataset(
        dates=DATES, series=DATA.series, codes={}, target="pi", horizon=v)),
    "inflation": ("horizon", lambda v: inflation(np.arange(1.0, 9.0), v)),
    "assemble_design": ("lag", lambda v: assemble_design(DATA, ["u"], lag=v)),
}

# name, how a call takes the value, the values just outside its range
INDEX_ENTRIES = {
    "conditional_cdf.t": ("t", lambda v: conditional_cdf(DRAWS, ROW, v), (-1, DRAWS.n_obs)),
    "cdf_derivative.t": ("t", lambda v: cdf_derivative(DRAWS, ROW, v, 0), (-1, DRAWS.n_obs)),
    "cdf_derivative.j": ("j", lambda v: cdf_derivative(DRAWS, ROW, 0, v),
                         (-1, DRAWS.n_thresholds)),
    "apply_transform.code": ("code", lambda v: apply_transform(np.ones(4), v), (0, 7)),
}
ENTRIES = {**COUNT_ENTRIES, **INDEX_ENTRIES}


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
def test_a_bool_or_a_float_is_a_type_error_naming_the_argument(entry, bad):
    name, call = ENTRIES[entry][:2]
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("entry", list(COUNT_ENTRIES))
def test_a_count_below_one_is_a_value_error(entry):
    name, call = COUNT_ENTRIES[entry]
    for bad in (0, np.int64(0)):
        with pytest.raises(ValueError, match=rf"^{name} must be a positive integer, got 0$"):
            call(bad)


@pytest.mark.parametrize("entry", list(INDEX_ENTRIES))
def test_an_index_outside_its_range_is_a_value_error(entry):
    _, call, outside = INDEX_ENTRIES[entry]
    for bad in outside:
        with pytest.raises(ValueError, match=rf" {bad} "):
            call(bad)
    call(np.int64(outside[0] + 1))  # the first in range


def test_the_bool_refusal_is_written_once():
    # a second hand-written integer check drifts from the rule: it let a bool
    # through, or raised another exception type, for one argument or another
    found = []
    for source in sorted(Path(tvpdr.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        owners = {node: f"{source.stem}.{fn.name}" for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    found.append(owners.get(node, f"{source.stem}:{node.lineno}"))
    assert found == ["samplers._integer"]
