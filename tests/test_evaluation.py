"""PIT, quantile scores, the uniformity band, and the expanding backtest."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from tvpdr.data import MacroDataset, assemble_design, format_quarter, parse_quarter
from tvpdr.distribution import PREDICTIVE_DRAW, ConditionalCdf, build_threshold_grid
from tvpdr.evaluation import (
    BacktestPlan,
    expanding_window_backtest,
    pit,
    pit_uniformity_band,
    quantile_score,
    read_records,
    _tsv_columns,
)
from tvpdr.model import ModelSpec
from tvpdr.samplers import DRAW_SCHEME, stream_generator

from reference import KS95_N100, KSTWO_PPF, frozen_pit_uniformity_band


def test_pit_uses_interpolated_cdf():
    grid = build_threshold_grid(0.0, 1.0, 0.5)
    cdf = ConditionalCdf(grid=grid, values=np.array([0.2, 0.5, 0.8]))
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


@pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("n", [1, 2, 7, 20, 100, 400])
def test_pit_band_is_the_exact_kolmogorov_quantile(n, level):
    exact = KSTWO_PPF[n, level]
    band = pit_uniformity_band(n, level)
    assert abs(band - exact) <= (3e-6 if level >= 0.95 else 3e-4) * exact
    if n <= 2:
        assert band == pytest.approx(exact, rel=1e-15)


def test_pit_uniformity_band_near_asymptotic():
    band = pit_uniformity_band(100, level=0.95)
    assert abs(band - KS95_N100) < 0.01
    # within Monte Carlo error of the simulated band it replaced; a one-sided
    # quantile at 1 - level (0.1207 here) lies well outside
    simulated = frozen_pit_uniformity_band(100, 0.95, stream_generator(5), 20000)
    assert abs(band - simulated) < 0.0025
    # deterministic, monotone in the level
    assert pit_uniformity_band(100, 0.95) == band
    assert pit_uniformity_band(100, level=0.99) > band
    with pytest.raises(ValueError):
        pit_uniformity_band(0)
    with pytest.raises(ValueError):
        pit_uniformity_band(10, level=1.0)
    for n in (100.0, 7.5, True, "100"):
        with pytest.raises(TypeError, match="n must be an integer"):
            pit_uniformity_band(n)


def test_backtest_plan_validation():
    plan = BacktestPlan("1980Q1", "2000Q1", taus=(0.95, 0.05))
    assert plan.taus == (0.05, 0.95)  # stored sorted
    with pytest.raises(ValueError):
        BacktestPlan("2000Q1", "1990Q1")
    with pytest.raises(ValueError):
        BacktestPlan("1980Q1", "2000Q1", refit_every=0)
    with pytest.raises(ValueError):
        BacktestPlan("1980Q1", "2000Q1", taus=(0.0, 0.5))


@pytest.mark.parametrize("field", ["refit_every", "lag"])
def test_backtest_plan_counts_are_integers(field):
    # refit_every=2.5, lag=1.5 and refit_every=True were all accepted
    for bad in (2.0, 2.5, True, "2"):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            BacktestPlan("1980Q1", "2000Q1", **{field: bad})
    plan = BacktestPlan("1980Q1", "2000Q1", **{field: np.int64(2)})
    assert type(getattr(plan, field)) is int and getattr(plan, field) == 2


@pytest.mark.parametrize("taus, names", [((0.02, 0.02), "0.02 and 0.02"),
                                          ((0.05, 0.05), "0.05 and 0.05"),
                                          ((0.001, 0.5, 0.001), "0.001 and 0.001")])
def test_backtest_plan_refuses_taus_that_share_a_records_column(taus, names):
    # a repeated tau would write its q_ column twice; distinct taus never
    # share one (test_score_columns_are_named_by_the_repr_of_tau)
    with pytest.raises(ValueError, match=f"taus {names} share the records column q_0"):
        BacktestPlan("1980Q1", "2000Q1", taus=taus)


def test_score_columns_are_named_by_the_repr_of_tau():
    # whole-percent names gave 0.125 the suffix 12, and 0.001 and 0.002 both 00
    plan = BacktestPlan("1980Q1", "2000Q1", taus=(0.125, 0.002, 0.001, 0.02, 0.025))
    grid = build_threshold_grid(0.0, 1.0, 0.5)
    assert _tsv_columns(plan.taus, grid) == [
        "date", "realized", "pit", "q_0.001", "q_0.002", "q_0.02", "q_0.025", "q_0.125",
        "cdf_0.0", "cdf_0.5", "cdf_1.0"]


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


def fast_spec(ds, step=0.5, seed=2):
    from tvpdr.data import assemble_design

    aligned = assemble_design(ds, ["infl_P_1q", "u"], lag=1)
    grid = build_threshold_grid(float(aligned.y.min()), float(aligned.y.max()), step)
    return ModelSpec(d=3, grid=grid, iterations=30, burnin=10, monotone=False, seed=seed)


def test_backtest_records_and_summary(tmp_path):
    ds = synthetic_dataset()
    spec = fast_spec(ds, seed=3)
    plan = BacktestPlan("1980Q1", "1998Q1", refit_every=4)
    out = tmp_path / "records.tsv"
    res = expanding_window_backtest(plan, spec, ds, ["infl_P_1q", "u"], out_path=str(out))
    assert res.failures == []
    assert len(res.records) > 10
    # one record per origin from the initial window end, each dated one
    # quarter past its origin
    aligned = assemble_design(ds, ["infl_P_1q", "u"], lag=1)
    origins = [o for o in map(parse_quarter, aligned.origin_dates)
               if o >= parse_quarter("1998Q1")]
    assert [parse_quarter(rec.date) for rec in res.records] == [o + 1 for o in origins]
    for rec in res.records:
        assert 0.0 <= rec.pit <= 1.0
        assert set(rec.quantiles) == {0.05, 0.95}
        assert rec.quantiles[0.05] <= rec.quantiles[0.95]
        assert quantile_score(rec.realized, rec.quantiles[0.95], 0.95) >= 0.0
        assert rec.cdf.shape == (spec.grid.n,)
    # file rows line up with the records, and read back to the same forecasts
    lines = out.read_text().strip().split("\n")
    assert len(lines) == len(res.records) + 1
    assert lines[0].startswith("date\trealized\tpit\tq_0.05\tq_0.95\tcdf_")
    _, back = read_records(out.read_bytes(), "records.tsv")
    assert ([(r.date, r.realized, r.pit, r.quantiles) for r in back]
            == [(r.date, r.realized, r.pit, r.quantiles) for r in res.records])


def forecasts(result):
    """What a summary reads of each record, in order."""
    return [(r.date, r.realized, r.pit, r.quantiles) for r in result.records]


def test_backtest_resume_and_parallel_are_byte_identical(tmp_path):
    ds = synthetic_dataset(seed=1)
    spec = fast_spec(ds, seed=4)
    plan = BacktestPlan("1980Q1", "2001Q1", refit_every=3)
    cov = ["infl_P_1q", "u"]

    full = tmp_path / "full.tsv"
    whole = forecasts(expanding_window_backtest(plan, spec, ds, cov, out_path=str(full)))

    # simulate a crash part way through, torn at three points: part way
    # through a row; inside the last cell, where the row still has every
    # cell; and after the header, before its newline
    text = full.read_text()
    lines = text.split("\n")
    assert len(lines[-2].rsplit("\t", 1)[1]) >= 2  # so text[:-2] ends inside it
    tears = ["\n".join(lines[:5]) + "\n" + lines[5][:17], text[:-2], lines[0]]
    for n, head in enumerate(tears):
        torn = tmp_path / f"torn{n}.tsv"
        torn.write_text(head)
        (tmp_path / f"torn{n}.tsv.meta").write_bytes((tmp_path / "full.tsv.meta").read_bytes())
        # the result is the file: the rows read back, then the new ones; a
        # rerun with nothing left to do returns them all too
        for run in ("resume", "rerun"):
            resumed = expanding_window_backtest(plan, spec, ds, cov, out_path=str(torn))
            assert torn.read_bytes() == full.read_bytes(), f"tear {n}"
            assert forecasts(resumed) == whole, f"tear {n} {run}"

    par = tmp_path / "par.tsv"
    expanding_window_backtest(plan, spec, ds, cov, out_path=str(par), workers=3)
    assert par.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("lag", [1, 2])
def test_backtest_forecasts_each_origin_its_distance_past_the_fit(monkeypatch, lag):
    # a block trains through row block[0] - offset, so origin i of the block
    # lies i - block[0] + offset random-walk steps past the fit's last state
    import tvpdr.evaluation as ev

    ds = synthetic_dataset(seed=4)
    spec = fast_spec(ds, seed=7)
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=4, lag=lag)
    real, steps = ev.forecast_predictive, []

    def spy(draws, x_next, **kwargs):
        steps.append(kwargs["steps"])
        return real(draws, x_next, **kwargs)

    monkeypatch.setattr(ev, "forecast_predictive", spy)
    res = expanding_window_backtest(plan, spec, ds, ["infl_P_1q", "u"])
    offset = lag
    assert len(steps) == len(res.records) == 9 - (lag - 1)
    assert steps == [offset + j % 4 for j in range(len(steps))]


def test_read_records_keeps_only_terminated_rows(tmp_path):
    ds = synthetic_dataset(seed=1)
    spec = fast_spec(ds, seed=4)
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=4)
    out = tmp_path / "records.tsv"
    res = expanding_window_backtest(plan, spec, ds, ["infl_P_1q", "u"], out_path=str(out))
    text = out.read_bytes()
    grid, rows = read_records(text, "records.tsv")
    assert np.array_equal(grid.points, spec.grid.points)
    assert [(r.date, r.realized, r.pit, r.quantiles) for r in rows] == forecasts(res)
    for back, rec in zip(rows, res.records):
        assert np.array_equal(back.cdf, [float(format(v, ".12g")) for v in rec.cdf])
    # torn inside a row, inside the last cell, and after the header
    tears = [(text[: text.rfind(b"\t")], len(rows) - 1), (text[:-2], len(rows) - 1),
             (text[: text.find(b"\n")], 0)]
    for torn, complete in tears:
        assert [r.date for r in read_records(torn, "torn")[1]] == [r.date for r in rows[:complete]]
    for bogus in (b"", b"a\tb\n1\t2\n", b"date\trealized\tpit\tqs_0.05\n",
                  b"date\trealized\tpit\tcdf_0.5\tqs_0.05\n"):
        with pytest.raises(ValueError, match="bogus: not a backtest records file"):
            read_records(bogus, "bogus")


def test_backtest_refuses_a_worker_count_below_one(tmp_path):
    # refused before any work, and before a records file or its sidecar is
    # written
    ds = synthetic_dataset(seed=1)
    spec = fast_spec(ds, seed=4)
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=4)
    out = tmp_path / "records.tsv"
    cov = ["infl_P_1q", "u"]
    for workers in (0, -3):
        with pytest.raises(ValueError, match=rf"workers must be a positive integer, got {workers}"):
            expanding_window_backtest(plan, spec, ds, cov, out_path=str(out), workers=workers)
    # a count that is no integer, even 2.0 or True, as every count of a plan or spec
    for workers in (2.0, True):
        with pytest.raises(TypeError, match=rf"workers must be an integer, got {workers}"):
            expanding_window_backtest(plan, spec, ds, cov, out_path=str(out), workers=workers)
    assert list(tmp_path.iterdir()) == []


def test_backtest_resume_refuses_other_provenance(tmp_path):
    # a records file resumes only under the sidecar it was written with
    ds = synthetic_dataset(seed=1)
    spec = fast_spec(ds, seed=4)
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=4)
    cov = ["infl_P_1q", "u"]
    out = tmp_path / "records.tsv"
    sidecar = tmp_path / "records.tsv.meta"
    expanding_window_backtest(plan, spec, ds, cov, out_path=str(out))
    records, meta = out.read_bytes(), sidecar.read_bytes()
    stored = json.loads(meta)
    assert list(stored) == sorted(stored) and "workers" not in meta.decode()
    assert stored["seed"] == 4 and stored["covariates"] == cov
    assert stored["spec_hash"] == spec.spec_hash() and stored["plan.refit_every"] == 4

    other = synthetic_dataset(seed=1)
    other.series["infl_P_1q"][40] += 0.25
    mismatches = [
        (dict(spec=replace(spec, seed=5)), "seed"),
        (dict(spec=replace(spec, iterations=31)), "spec_hash"),
        (dict(plan=replace(plan, refit_every=2)), "plan.refit_every"),
        (dict(data=other), "data_hash"),
    ]
    for change, key in mismatches:
        args = dict(plan=plan, spec=spec, data=ds, covariates=cov) | change
        with pytest.raises(ValueError, match=rf"different {key}; refusing to resume"):
            expanding_window_backtest(**args, out_path=str(out))
        assert out.read_bytes() == records and sidecar.read_bytes() == meta

    sidecar.unlink()
    with pytest.raises(ValueError, match="refusing to resume"):
        expanding_window_backtest(plan, spec, ds, cov, out_path=str(out))
    assert out.read_bytes() == records

    # the sidecar does not depend on the worker count, and a matching resume runs
    par = tmp_path / "par.tsv"
    expanding_window_backtest(plan, spec, ds, cov, out_path=str(par), workers=2)
    assert (tmp_path / "par.tsv.meta").read_bytes() == meta
    expanding_window_backtest(plan, spec, ds, cov, out_path=str(par))
    assert par.read_bytes() == records


def _resume_under_a_changed_sidecar_key(tmp_path, key, want, stored_value, monotone=False):
    """Write records, set ``key`` of their sidecar to ``stored_value`` (None
    deletes it), cut the last rows as a crash would, and check that a resume
    is refused, naming ``key``, without touching either file."""
    ds = synthetic_dataset(seed=1)
    spec = replace(fast_spec(ds, seed=4), monotone=monotone)
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=4)
    cov = ["infl_P_1q", "u"]
    out = tmp_path / "records.tsv"
    sidecar = tmp_path / "records.tsv.meta"
    expanding_window_backtest(plan, spec, ds, cov, out_path=str(out))
    stored = json.loads(sidecar.read_text(encoding="utf-8"))
    assert stored[key] == want

    del stored[key]  # the sidecar as earlier versions wrote it
    if stored_value is not None:
        stored[key] = stored_value
    sidecar.write_text(json.dumps(stored, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    lines = out.read_text(encoding="utf-8").split("\n")
    out.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")  # an unfinished run
    records, meta = out.read_bytes(), sidecar.read_bytes()
    with pytest.raises(ValueError, match=f"different {key}; refusing to resume"):
        expanding_window_backtest(plan, spec, ds, cov, out_path=str(out))
    assert out.read_bytes() == records and sidecar.read_bytes() == meta


@pytest.mark.parametrize("stored_predictive", [None, "one innovation per kept draw"],
                         ids=["missing", "simulated"])
def test_backtest_resume_refuses_records_of_another_predictive_draw(tmp_path,
                                                                    stored_predictive):
    # records written before the sidecar named the predictive draw, or
    # while the curve was simulated with one innovation per kept draw, came
    # from another estimator; appending new rows under them is refused
    _resume_under_a_changed_sidecar_key(tmp_path, "predictive", PREDICTIVE_DRAW,
                                        stored_predictive)


@pytest.mark.parametrize("stored_draws",
                         [None, "Philox streams; truncated normals by inversion"],
                         ids=["missing", "philox"])
def test_backtest_resume_refuses_records_of_another_draw_scheme(tmp_path, stored_draws):
    # records written before the sidecar named the draw scheme came from
    # Philox streams and another truncated-normal draw: the same spec and
    # seed drew other numbers, so new rows are not appended under them
    assert "SFC64" in DRAW_SCHEME
    _resume_under_a_changed_sidecar_key(tmp_path, "draws", DRAW_SCHEME, stored_draws)


# What the sidecar named when every fit drew from one stream
ONE_LANE_SCHEME = "SFC64 streams; truncated normals: one normal proposal, inversion for the misses"


def test_monotone_backtest_resume_refuses_records_drawn_in_one_lane(tmp_path):
    # a monotone fit draws each colour in two lanes on two streams, so the
    # records of a monotone backtest written before the lanes came from
    # other draws
    assert DRAW_SCHEME.startswith(ONE_LANE_SCHEME) and DRAW_SCHEME != ONE_LANE_SCHEME
    _resume_under_a_changed_sidecar_key(tmp_path, "draws", DRAW_SCHEME, ONE_LANE_SCHEME,
                                        monotone=True)


def test_unconstrained_backtest_resume_refuses_records_drawn_in_one_lane(tmp_path):
    # an unconstrained fit draws its thresholds in two lanes too, so its
    # records written from one stream are refused as well
    _resume_under_a_changed_sidecar_key(tmp_path, "draws", DRAW_SCHEME, ONE_LANE_SCHEME)


def test_backtest_layout_mismatch_refuses(tmp_path):
    ds = synthetic_dataset(seed=2)
    spec = fast_spec(ds, seed=5)
    plan = BacktestPlan("1980Q1", "2001Q1")
    out = tmp_path / "other.tsv"
    out.write_text("date\tsomething\n")
    with pytest.raises(ValueError, match="different layout"):
        expanding_window_backtest(plan, spec, ds, ["infl_P_1q", "u"], out_path=str(out))


def test_backtest_resume_refuses_a_broken_row(tmp_path):
    # every complete row is read before the file is touched, so a broken one
    # is named by its line and the torn tail is left where it was
    ds = synthetic_dataset(seed=2)
    spec = fast_spec(ds, seed=5)
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=4)
    out = tmp_path / "records.tsv"
    expanding_window_backtest(plan, spec, ds, ["infl_P_1q", "u"], out_path=str(out))
    lines = out.read_text(encoding="utf-8").split("\n")
    lines[2] = "\t".join(["2000Q3", "0.5", "x"] + lines[2].split("\t")[3:])
    out.write_text("\n".join(lines)[:-5], encoding="utf-8")
    broken = out.read_bytes()
    with pytest.raises(ValueError, match=f"{out}:3: pit 'x' is not a finite number"):
        expanding_window_backtest(plan, spec, ds, ["infl_P_1q", "u"], out_path=str(out))
    assert out.read_bytes() == broken


def test_backtest_validates_window_and_horizon():
    ds = synthetic_dataset(seed=3)
    spec = fast_spec(ds, seed=6)
    with pytest.raises(ValueError, match="at least 8"):
        expanding_window_backtest(BacktestPlan("1980Q1", "1981Q1"),
                                  spec, ds, ["infl_P_1q", "u"])
    with pytest.raises(ValueError, match="origins"):
        expanding_window_backtest(BacktestPlan("1980Q1", "2090Q1"),
                                  spec, ds, ["infl_P_1q", "u"])
    # the seed is the spec's: a positional one is never read as the out path
    with pytest.raises(TypeError, match="positional"):
        expanding_window_backtest(BacktestPlan("1980Q1", "2000Q1"),
                                  spec, ds, ["infl_P_1q", "u"], 6)
    # the horizon is the dataset's: origins lie that many quarters before
    # their outcomes
    ds2 = ds.with_inflation("P", 2)
    res = expanding_window_backtest(BacktestPlan("1980Q1", "2000Q1", refit_every=9),
                                    spec, ds2, ["infl_P_1q", "u"])
    aligned = assemble_design(ds2, ["infl_P_1q", "u"], lag=1)
    origins = [o for o in map(parse_quarter, aligned.origin_dates)
               if o >= parse_quarter("2000Q1")]
    assert res.records
    assert [parse_quarter(r.date) for r in res.records] == [o + 2 for o in origins]


def test_backtest_failed_refit_is_recorded_not_fatal(monkeypatch, capsys):
    # if one refit blows up, its origins land in failures with a diagnostic
    # and every other block still produces records
    import tvpdr.evaluation as ev

    ds = synthetic_dataset(seed=4)
    spec = fast_spec(ds, seed=7)
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
    res = expanding_window_backtest(plan, spec, ds, ["infl_P_1q", "u"])
    assert len(res.failures) == 4  # the whole second block is skipped
    assert all("synthetic refit explosion" in msg for _, msg in res.failures)
    assert len(res.records) > 0
    aligned = assemble_design(ds, ["infl_P_1q", "u"], lag=1)
    outcome_of = dict(zip(aligned.origin_dates, aligned.outcome_dates))
    assert not {r.date for r in res.records} & {outcome_of[d] for d, _ in res.failures}
    assert "refit skipped" in capsys.readouterr().err


def test_backtest_keeps_only_the_last_quarter_of_each_path(tmp_path, monkeypatch):
    # a block's forecasts read only the final quarter of each kept path, so
    # that is all it keeps: the records equal a whole-path run's, and one
    # block peaks far below the whole-path buffer
    import tracemalloc

    import tvpdr.evaluation as ev

    ds = synthetic_dataset(seed=5)
    spec = replace(fast_spec(ds, seed=9), iterations=510, burnin=10)
    plan = BacktestPlan("1980Q1", "2000Q1", refit_every=100)  # one block
    cov = ["infl_P_1q", "u"]
    real = ev.run_gibbs
    fits = []

    def spy(spec_fit, data, **kwargs):
        fits.append((spec_fit.grid.n, len(data[0]), kwargs))
        return real(spec_fit, data, **kwargs)

    monkeypatch.setattr(ev, "run_gibbs", spy)
    lean_out = tmp_path / "lean.tsv"
    tracemalloc.start()
    try:
        lean = expanding_window_backtest(plan, spec, ds, cov, out_path=str(lean_out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (k, t_len, kwargs), = fits
    assert "buffers" in kwargs
    whole_bytes = (spec.iterations - spec.burnin) * k * t_len * spec.d * 8
    assert peak < whole_bytes / 10

    monkeypatch.setattr(ev, "run_gibbs", lambda spec_fit, data, stream, **kwargs:
                        real(spec_fit, data, stream=stream))
    whole_out = tmp_path / "whole.tsv"
    whole = expanding_window_backtest(plan, spec, ds, cov, out_path=str(whole_out))
    assert lean_out.read_bytes() == whole_out.read_bytes()
    assert len(lean.records) == len(whole.records) > 1
    for a, b in zip(lean.records, whole.records):
        assert (a.pit, a.quantiles) == (b.pit, b.quantiles)
        assert ([quantile_score(a.realized, a.quantiles[t], t) for t in plan.taus]
                == [quantile_score(b.realized, b.quantiles[t], t) for t in plan.taus])
        assert np.array_equal(a.cdf, b.cdf)
