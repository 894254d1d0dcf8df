"""PIT, quantile scores, the uniformity band, and the expanding backtest."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from tvpdr.data import MacroDataset, format_quarter, parse_quarter
from tvpdr.distribution import PREDICTIVE_DRAW, ConditionalCdf, build_threshold_grid
from tvpdr.evaluation import (
    BacktestPlan,
    expanding_window_backtest,
    pit,
    pit_uniformity_band,
    quantile_score,
)
from tvpdr.model import ModelSpec
from tvpdr.samplers import RngHandle

from reference import KS95_N100


def test_pit_uses_interpolated_cdf():
    grid = build_threshold_grid(0.0, 1.0, 0.5)
    cdf = ConditionalCdf(grid=grid, values=np.array([0.2, 0.5, 0.8]),
                         x=np.ones(1), time_index=0)
    assert np.isclose(pit(cdf, 0.25), 0.35)
    assert pit(cdf, -2.0) == 0.0
    assert pit(cdf, 9.0) == 1.0


def test_quantile_score_variants():
    # standard pinball loss, spelled out both sides of the quantile
    assert np.isclose(quantile_score(2.0, 1.0, 0.95), (2.0 - 1.0) * 0.95)
    assert np.isclose(quantile_score(0.5, 1.0, 0.95), (0.5 - 1.0) * (0.95 - 1.0))
    assert np.isclose(quantile_score(2.0, 1.0, 0.05), (2.0 - 1.0) * 0.05)
    # the verbatim variant keeps only the below-quantile arm
    assert quantile_score(2.0, 1.0, 0.95, "one_sided") == 0.0
    assert np.isclose(quantile_score(0.5, 1.0, 0.95, "one_sided"), -0.5)
    with pytest.raises(ValueError):
        quantile_score(1.0, 1.0, 0.5, variant="nonsense")


def test_pit_uniformity_band_near_asymptotic():
    band = pit_uniformity_band(100, level=0.95, rng=RngHandle(5), sims=20000)
    assert abs(band - KS95_N100) < 0.01
    # reproducible under the same handle, monotone in the level
    again = pit_uniformity_band(100, level=0.95, rng=RngHandle(5), sims=20000)
    assert band == again
    wider = pit_uniformity_band(100, level=0.99, rng=RngHandle(5), sims=20000)
    assert wider > band
    with pytest.raises(ValueError):
        pit_uniformity_band(0)
    with pytest.raises(ValueError):
        pit_uniformity_band(10, level=1.0)


def test_backtest_plan_validation():
    plan = BacktestPlan("1980Q1", "2000Q1", taus=(0.95, 0.05))
    assert plan.taus == (0.05, 0.95)  # stored sorted
    with pytest.raises(ValueError):
        BacktestPlan("2000Q1", "1990Q1")
    with pytest.raises(ValueError):
        BacktestPlan("1980Q1", "2000Q1", horizon=0)
    with pytest.raises(ValueError):
        BacktestPlan("1980Q1", "2000Q1", refit_every=0)
    with pytest.raises(ValueError):
        BacktestPlan("1980Q1", "2000Q1", taus=(0.0, 0.5))
    with pytest.raises(ValueError):
        BacktestPlan("1980Q1", "2000Q1", score_variant="weird")


def synthetic_dataset(n=90, seed=0):
    """Random-walk-parameter outcome plus a covariate, packaged as a dataset.

    Prices are built so the inflation transform reconstructs the outcome
    exactly: P_t = P_{t-1} exp(y_t / 400).
    """
    rng = np.random.default_rng(seed)
    level = 2.0 + np.cumsum(rng.normal(0.0, 0.1, n))
    u = np.cumsum(rng.normal(0.0, 0.3, n))
    y = level + 0.4 * u + rng.normal(0.0, 0.5, n)
    prices = np.empty(n)
    prices[0] = 100.0
    for t in range(1, n):
        prices[t] = prices[t - 1] * np.exp(y[t] / 400.0)
    start = parse_quarter("1980Q1")
    dates = tuple(format_quarter(start + k) for k in range(n))
    ds = MacroDataset(dates=dates, series={"P": prices, "u": u},
                      codes={"P": 1, "u": 1}).with_inflation("P", 1)
    return ds


def fast_spec(ds, step=0.5):
    from tvpdr.data import assemble_design

    aligned = assemble_design(ds, ["infl_P_1q", "u"], lag=1)
    grid = build_threshold_grid(float(aligned.y.min()), float(aligned.y.max()), step)
    return ModelSpec(d=3, grid=grid, iterations=30, burnin=10, monotone=False, seed=2)


def test_backtest_records_and_summary(tmp_path):
    ds = synthetic_dataset()
    spec = fast_spec(ds)
    plan = BacktestPlan("1980Q1", "1998Q1", refit_every=4)
    out = tmp_path / "records.tsv"
    res = expanding_window_backtest(plan, spec, ds, ["infl_P_1q", "u"],
                                    RngHandle(3), out_path=str(out))
    assert res.failures == []
    assert len(res.records) > 10
    # origins start at the initial window end and outcomes trail by one
    assert parse_quarter(res.records[0].origin) >= parse_quarter("1998Q1")
    for rec in res.records:
        assert parse_quarter(rec.date) == parse_quarter(rec.origin) + 1
        assert 0.0 <= rec.pit <= 1.0
        assert set(rec.quantiles) == {0.05, 0.95}
        assert rec.quantiles[0.05] <= rec.quantiles[0.95]
        assert rec.cdf.shape == (spec.grid.n,)
    # file rows line up with the records
    lines = out.read_text().strip().split("\n")
    assert len(lines) == len(res.records) + 1
    assert lines[0].startswith("date\trealized\tpit\tqs_05\tqs_95\tcdf_")


def test_backtest_resume_and_parallel_are_byte_identical(tmp_path):
    ds = synthetic_dataset(seed=1)
    spec = fast_spec(ds)
    plan = BacktestPlan("1980Q1", "2001Q1", refit_every=3)
    cov = ["infl_P_1q", "u"]

    full = tmp_path / "full.tsv"
    expanding_window_backtest(plan, spec, ds, cov, RngHandle(4), out_path=str(full))

    # simulate a crash part way through, with a torn final line
    torn = tmp_path / "torn.tsv"
    lines = full.read_text().split("\n")
    torn.write_text("\n".join(lines[:5]) + "\n" + lines[5][:17])
    (tmp_path / "torn.tsv.meta").write_bytes((tmp_path / "full.tsv.meta").read_bytes())
    resumed = expanding_window_backtest(plan, spec, ds, cov, RngHandle(4),
                                        out_path=str(torn))
    assert torn.read_bytes() == full.read_bytes()
    # the resumed call recomputes whole refit blocks but returns only rows
    # it appended or re-verified deterministically
    assert all(r.date for r in resumed.records)

    par = tmp_path / "par.tsv"
    expanding_window_backtest(plan, spec, ds, cov, RngHandle(4),
                              out_path=str(par), workers=3)
    assert par.read_bytes() == full.read_bytes()


def test_backtest_resume_refuses_other_provenance(tmp_path):
    # a records file resumes only under the sidecar it was written with
    ds = synthetic_dataset(seed=1)
    spec = fast_spec(ds)
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=4)
    cov = ["infl_P_1q", "u"]
    out = tmp_path / "records.tsv"
    sidecar = tmp_path / "records.tsv.meta"
    expanding_window_backtest(plan, spec, ds, cov, RngHandle(4), out_path=str(out))
    records, meta = out.read_bytes(), sidecar.read_bytes()
    stored = json.loads(meta)
    assert list(stored) == sorted(stored) and "workers" not in meta.decode()
    assert stored["seed"] == 4 and stored["covariates"] == cov
    assert stored["spec_hash"] == spec.spec_hash() and stored["plan.refit_every"] == 4

    other = synthetic_dataset(seed=1)
    other.series["infl_P_1q"][40] += 0.25
    mismatches = [
        (dict(rng=RngHandle(5)), "seed"),
        (dict(spec=replace(spec, iterations=31)), "spec_hash"),
        (dict(plan=replace(plan, refit_every=2)), "plan.refit_every"),
        (dict(data=other), "data_hash"),
    ]
    for change, key in mismatches:
        args = dict(plan=plan, spec=spec, data=ds, covariates=cov, rng=RngHandle(4)) | change
        with pytest.raises(ValueError, match=rf"different {key}; refusing to resume"):
            expanding_window_backtest(**args, out_path=str(out))
        assert out.read_bytes() == records and sidecar.read_bytes() == meta

    sidecar.unlink()
    with pytest.raises(ValueError, match="refusing to resume"):
        expanding_window_backtest(plan, spec, ds, cov, RngHandle(4), out_path=str(out))
    assert out.read_bytes() == records

    # the sidecar does not depend on the worker count, and a matching resume runs
    par = tmp_path / "par.tsv"
    expanding_window_backtest(plan, spec, ds, cov, RngHandle(4), out_path=str(par), workers=2)
    assert (tmp_path / "par.tsv.meta").read_bytes() == meta
    expanding_window_backtest(plan, spec, ds, cov, RngHandle(4), out_path=str(par))
    assert par.read_bytes() == records


def test_backtest_resume_refuses_records_of_another_predictive_draw(tmp_path):
    # records written before the sidecar named the predictive draw came
    # from another estimator; appending new rows under them is refused
    ds = synthetic_dataset(seed=1)
    spec = fast_spec(ds)
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=4)
    cov = ["infl_P_1q", "u"]
    out = tmp_path / "records.tsv"
    sidecar = tmp_path / "records.tsv.meta"
    expanding_window_backtest(plan, spec, ds, cov, RngHandle(4), out_path=str(out))
    stored = json.loads(sidecar.read_text(encoding="utf-8"))
    assert stored["predictive"] == PREDICTIVE_DRAW

    del stored["predictive"]  # the sidecar as earlier versions wrote it
    sidecar.write_text(json.dumps(stored, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    lines = out.read_text(encoding="utf-8").split("\n")
    out.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")  # an unfinished run
    records, meta = out.read_bytes(), sidecar.read_bytes()
    with pytest.raises(ValueError, match="different predictive; refusing to resume"):
        expanding_window_backtest(plan, spec, ds, cov, RngHandle(4), out_path=str(out))
    assert out.read_bytes() == records and sidecar.read_bytes() == meta


def test_backtest_layout_mismatch_refuses(tmp_path):
    ds = synthetic_dataset(seed=2)
    spec = fast_spec(ds)
    plan = BacktestPlan("1980Q1", "2001Q1")
    out = tmp_path / "other.tsv"
    out.write_text("date\tsomething\n")
    with pytest.raises(ValueError, match="different layout"):
        expanding_window_backtest(plan, spec, ds, ["infl_P_1q", "u"],
                                  RngHandle(5), out_path=str(out))


def test_backtest_validates_window_and_horizon():
    ds = synthetic_dataset(seed=3)
    spec = fast_spec(ds)
    with pytest.raises(ValueError, match="horizon"):
        expanding_window_backtest(BacktestPlan("1980Q1", "2000Q1", horizon=2),
                                  spec, ds, ["infl_P_1q", "u"], RngHandle(6))
    with pytest.raises(ValueError, match="at least 8"):
        expanding_window_backtest(BacktestPlan("1980Q1", "1981Q1"),
                                  spec, ds, ["infl_P_1q", "u"], RngHandle(6))
    with pytest.raises(ValueError, match="origins"):
        expanding_window_backtest(BacktestPlan("1980Q1", "2090Q1"),
                                  spec, ds, ["infl_P_1q", "u"], RngHandle(6))
    with pytest.raises(TypeError):
        expanding_window_backtest(BacktestPlan("1980Q1", "2000Q1"),
                                  spec, ds, ["infl_P_1q", "u"], rng=None)


def test_backtest_failed_refit_is_recorded_not_fatal(monkeypatch, capsys):
    # if one refit blows up, its origins land in failures with a diagnostic
    # and every other block still produces records
    import tvpdr.evaluation as ev

    ds = synthetic_dataset(seed=4)
    spec = fast_spec(ds)
    # 9 origins from 2000Q1 in blocks of 4, 4 and 1; kill the second block
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=4)

    real = ev.run_gibbs
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ValueError("synthetic refit explosion")
        return real(*args, **kwargs)

    monkeypatch.setattr(ev, "run_gibbs", flaky)
    res = expanding_window_backtest(plan, spec, ds, ["infl_P_1q", "u"], RngHandle(7))
    assert len(res.failures) == 4  # the whole second block is skipped
    assert all("synthetic refit explosion" in msg for _, msg in res.failures)
    assert len(res.records) > 0
    recorded_dates = {r.origin for r in res.records}
    assert not recorded_dates & {d for d, _ in res.failures}
    assert "refit skipped" in capsys.readouterr().err


def test_backtest_keeps_only_the_last_quarter_of_each_path(tmp_path, monkeypatch):
    # a block's forecasts read only the final quarter of each kept path, so
    # that is all it keeps: the records equal a whole-path run's, and one
    # block peaks far below the whole-path buffer
    import tracemalloc

    import tvpdr.evaluation as ev

    ds = synthetic_dataset(seed=5)
    spec = replace(fast_spec(ds), iterations=510, burnin=10)
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=100)  # one block
    cov = ["infl_P_1q", "u"]
    real = ev.run_gibbs
    fits = []

    def spy(spec_fit, data, rng, **kwargs):
        fits.append((spec_fit.grid.n, len(data[0]), kwargs))
        return real(spec_fit, data, rng, **kwargs)

    monkeypatch.setattr(ev, "run_gibbs", spy)
    lean_out = tmp_path / "lean.tsv"
    tracemalloc.start()
    try:
        lean = expanding_window_backtest(plan, spec, ds, cov, RngHandle(9),
                                         out_path=str(lean_out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (k, t_len, kwargs), = fits
    assert "buffers" in kwargs
    whole_bytes = (spec.iterations - spec.burnin) * k * t_len * spec.d * 8
    assert peak < whole_bytes / 10

    monkeypatch.setattr(ev, "run_gibbs", lambda spec_fit, data, rng, **kwargs:
                        real(spec_fit, data, rng))
    whole_out = tmp_path / "whole.tsv"
    whole = expanding_window_backtest(plan, spec, ds, cov, RngHandle(9),
                                      out_path=str(whole_out))
    assert lean_out.read_bytes() == whole_out.read_bytes()
    assert len(lean.records) == len(whole.records) > 1
    for a, b in zip(lean.records, whole.records):
        assert (a.pit, a.quantiles, a.scores) == (b.pit, b.quantiles, b.scores)
        assert np.array_equal(a.cdf, b.cdf)
