"""End-to-end command line checks on a small synthetic quarterly file."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tvpdr.model
from tvpdr.cli import COMMANDS, _build_spec, build_parser, main
from tvpdr.data import assemble_design, load_csv
from tvpdr.distribution import (build_threshold_grid, cdf_interpolate, conditional_cdf,
                                forecast_predictive)
from tvpdr.evaluation import SCORE_VARIANTS, BacktestPlan, quantile_score, read_records
from tvpdr.model import ModelSpec
from tvpdr.risk import deflation_risk, distribution_mean, excess_inflation_risk
from tvpdr.store import load_estimate


def write_csv(path, n=64, seed=0, bump=0.0):
    """Quarterly price level and an activity covariate, deterministic."""
    rng = np.random.default_rng(seed)
    y = 2.0 + 0.8 * rng.standard_normal(n).cumsum() * 0.2 + rng.standard_normal(n)
    u = 5.0 + rng.standard_normal(n).cumsum() * 0.3
    u[6] += bump  # an interior row, so the aligned design changes
    prices = np.empty(n)
    prices[0] = 100.0
    for t in range(1, n):
        prices[t] = prices[t - 1] * np.exp(y[t] / 400.0)
    dates = [f"{1990 + i // 4}Q{i % 4 + 1}" for i in range(n)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,P,u\n")
        for i in range(n):
            fh.write(f"{dates[i]},{float(prices[i])!r},{float(u[i])!r}\n")
    return dates


DATA_ARGS = ["--price-column", "P", "--horizon", "1", "--covariates", "infl_P_1q,u"]
FAST_MODEL = ["--iters", "40", "--burnin", "10", "--monotone", "off",
              "--grid-step", "0.5", "--seed", "3"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    rows = [line.split("\t") for line in text.strip().split("\n")]
    return rows


@pytest.fixture
def estimate_dir(tmp_path, capsys):
    csv = str(tmp_path / "macro.csv")
    write_csv(csv)
    out = str(tmp_path / "est")
    code, stdout, _ = run(capsys, ["estimate", "--data", csv, *DATA_ARGS,
                                   *FAST_MODEL, "--out", out])
    assert code == 0
    return csv, out, stdout


def test_estimate_reports_run_summary(estimate_dir):
    _, _, stdout = estimate_dir
    table = dict(parse_table(stdout))
    assert int(table["observations"]) > 50
    assert int(table["kept_draws"]) == 30
    assert len(table["data_hash"]) == 64
    assert ".." in table["sample"]


def test_forecast_quantiles_are_ordered(estimate_dir, capsys):
    csv, est, _ = estimate_dir
    code, stdout, _ = run(capsys, ["forecast", "--data", csv, *DATA_ARGS,
                                   "--estimate", est, "--taus", "0.05,0.5,0.95"])
    assert code == 0
    rows = parse_table(stdout)
    assert rows[0] == ["statistic", "value", "censored"]
    values = {r[0]: float(r[1]) for r in rows[1:]}
    assert values["q0.05"] <= values["q0.5"] <= values["q0.95"]
    assert np.isfinite(values["mean"])


def test_forecast_rejects_unknown_date(estimate_dir, capsys):
    csv, est, _ = estimate_dir
    code, _, stderr = run(capsys, ["forecast", "--data", csv, *DATA_ARGS,
                                   "--estimate", est, "--date", "2050Q1"])
    assert code == 1
    assert "no aligned row at 2050Q1" in stderr


def test_risk_table(estimate_dir, capsys):
    csv, est, _ = estimate_dir
    code, stdout, _ = run(capsys, ["risk", "--data", csv, *DATA_ARGS,
                                   "--estimate", est, "--alpha", "1", "--gamma", "1",
                                   "--probes", "3,4"])
    assert code == 0
    table = dict(parse_table(stdout)[1:])
    mass = float(table["target_range_mass"])
    assert 0.0 <= mass <= 1.0
    assert float(table["deflation_risk(target=1,alpha=1)"]) <= 0.0
    assert float(table["excess_inflation_risk(target=3,gamma=1)"]) >= 0.0
    assert float(table["p_above_3"]) >= float(table["p_above_4"])


@pytest.mark.parametrize("bad", [["--lower", "3", "--upper", "1"], ["--alpha", "-1"],
                                 ["--gamma", "-1"], ["--alpha", "nan"], ["--alpha", "inf"],
                                 ["--gamma", "nan"], ["--gamma", "inf"], ["--probes", "3,nan"]],
                         ids=["targets", "alpha", "gamma", "alpha-nan", "alpha-inf",
                              "gamma-nan", "gamma-inf", "probe-nan"])
def test_risk_refuses_bad_targets_and_exponents(estimate_dir, capsys, bad):
    csv, est, _ = estimate_dir
    code, stdout, stderr = run(capsys, ["risk", "--data", csv, *DATA_ARGS,
                                        "--estimate", est, *bad])
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("bad, message", [
    (["--delta=nan"], "shift delta must be finite, got nan for 'u'"),
    (["--delta=inf"], "shift delta must be finite, got inf for 'u'"),
    (["--delta=-inf"], "shift delta must be finite, got -inf for 'u'"),
    (["--delta=1", "--probes", "3,nan"], "cannot read a CDF at NaN; a probe must be a number"),
], ids=["delta-nan", "delta-inf", "delta-minus-inf", "probe-nan"])
def test_counterfactual_refuses_a_non_finite_delta_or_a_nan_probe(estimate_dir, capsys, bad,
                                                                  message):
    # a non-finite shift is refused by name, not blamed on the data as a missing row
    csv, est, _ = estimate_dir
    code, stdout, stderr = run(capsys, [
        "counterfactual", "--data", csv, *DATA_ARGS, "--estimate", est, "--variable", "u",
        "--start", "1995Q1", "--end", "1996Q4", *bad,
    ])
    assert code == 1 and stdout == ""
    assert stderr == f"error: {message}\n"


def test_target_column_round_trip(estimate_dir, tmp_path, capsys):
    # --target reads an outcome column the file carries; holding the price
    # route's inflation, it gives that route's aligned data and draws
    csv, est, stdout = estimate_dir
    ds = load_csv(csv).with_inflation("P", 1)
    own = str(tmp_path / "own.csv")
    with open(own, "w", encoding="utf-8") as fh:
        fh.write("date,pi,u\n")
        for date, pi, u in zip(ds.dates, ds.series["infl_P_1q"], ds.series["u"]):
            fh.write(f"{date},{'' if np.isnan(pi) else repr(float(pi))},{float(u)!r}\n")
    target_args = ["--target", "pi", "--horizon", "1", "--covariates", "pi,u"]
    est_own = str(tmp_path / "est_own")
    code, own_stdout, _ = run(capsys, ["estimate", "--data", own, *target_args, *FAST_MODEL,
                                       "--out", est_own])
    assert code == 0
    assert dict(parse_table(own_stdout))["data_hash"] == dict(parse_table(stdout))["data_hash"]
    for read in (["risk", "--alpha", "1", "--gamma", "1"], ["forecast"]):
        code, got, _ = run(capsys, [*read, "--data", own, *target_args, "--estimate", est_own])
        assert code == 0
        code, want, _ = run(capsys, [*read, "--data", csv, *DATA_ARGS, "--estimate", est])
        assert code == 0 and got == want

    code, stdout, stderr = run(capsys, ["risk", "--data", own, "--target", "nope",
                                        "--covariates", "u", "--estimate", est_own])
    assert code == 1 and stdout == ""
    assert stderr == f"error: target column 'nope' not in {own}\n"


def test_predictive_risk_conditions_on_the_given_date(estimate_dir, capsys):
    # risk --predictive uses the row at --date, as forecast --date does
    csv, est, _ = estimate_dir
    aligned = assemble_design(load_csv(csv).with_inflation("P", 1), ["infl_P_1q", "u"])
    draws = load_estimate(est)
    row = len(aligned.y) - 6
    date = aligned.origin_dates[row]
    base = ["risk", "--data", csv, *DATA_ARGS, "--estimate", est, "--predictive",
            "--alpha", "1", "--gamma", "1", "--probes", "3"]
    code, at_date, _ = run(capsys, base + ["--date", date])
    assert code == 0
    code, at_last, _ = run(capsys, base)
    assert code == 0
    assert at_date != at_last

    pred = forecast_predictive(draws, aligned.x[row])
    want = {
        "deflation_risk(target=1,alpha=1)": deflation_risk(pred, 1.0, 1.0),
        "excess_inflation_risk(target=3,gamma=1)": excess_inflation_risk(pred, 3.0, 1.0),
        "mean": distribution_mean(pred),
        "p_above_3": 1.0 - float(cdf_interpolate(pred, 3.0)),
    }
    table = dict(parse_table(at_date)[1:])
    assert {k: table[k] for k in want} == {k: format(v, ".6g") for k, v in want.items()}


def test_predictive_reads_ignore_seed_and_stream(estimate_dir, capsys):
    # the predictive curve is exact, so --seed/--stream parse but change nothing
    csv, est, _ = estimate_dir
    read = ["--data", csv, *DATA_ARGS, "--estimate", est]
    for argv in (["forecast", *read], ["risk", *read, "--predictive", "--probes", "3"]):
        outs = set()
        for seed, stream in (("0", "0"), ("5", "2")):
            code, stdout, _ = run(capsys, [*argv, "--seed", seed, "--stream", stream])
            assert code == 0
            outs.add(stdout)
        assert len(outs) == 1, argv[0]


def test_counterfactual_moves_the_distribution(estimate_dir, capsys):
    csv, est, _ = estimate_dir
    code, stdout, _ = run(capsys, [
        "counterfactual", "--data", csv, *DATA_ARGS, "--estimate", est,
        "--variable", "u", "--delta", "4.0",
        "--start", "1990Q1", "--end", "2005Q4", "--probes", "3",
    ])
    assert code == 0
    rows = parse_table(stdout)
    assert rows[0] == ["statistic", "baseline", "counterfactual"]
    mean_row = {r[0]: r[1:] for r in rows}["mean"]
    assert float(mean_row[0]) != float(mean_row[1])


def test_failed_estimate_removes_its_temp_blobs(estimate_dir, capsys, monkeypatch):
    csv, est, _ = estimate_dir
    before = load_estimate(est)
    beta, sigma2 = np.array(before.beta), np.array(before.sigma2)
    real = tvpdr.model._draw_sigma2
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 20:  # a kept iteration: draws are already streaming
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(tvpdr.model, "_draw_sigma2", failing)
    code, _, stderr = run(capsys, ["estimate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
                                   "--seed", "4", "--out", est])
    assert code == 1
    assert stderr.startswith("error: ") and "injected" in stderr
    assert not [name for name in os.listdir(est) if name.endswith(".partial")]
    after = load_estimate(est)
    assert np.array_equal(after.beta.view(np.int64), beta.view(np.int64))
    assert np.array_equal(after.sigma2.view(np.int64), sigma2.view(np.int64))


def test_stale_estimate_is_refused_after_data_edit(estimate_dir, capsys, tmp_path):
    csv, est, _ = estimate_dir
    write_csv(csv, bump=0.25)  # revise one observation in place
    code, _, stderr = run(capsys, ["forecast", "--data", csv, *DATA_ARGS,
                                   "--estimate", est])
    assert code == 1
    assert "fit to different data" in stderr


@pytest.mark.parametrize("line, value", [("link=probit", "link=logit"),
                                         ("design_transform=identity", "design_transform=cubic")])
def test_reads_refuse_an_unknown_link_or_design_transform(estimate_dir, capsys, line, value):
    csv, est, _ = estimate_dir
    manifest = Path(est, "MANIFEST")
    manifest.write_text(manifest.read_text(encoding="utf-8").replace(line, value),
                        encoding="utf-8")
    common = ["--data", csv, *DATA_ARGS, "--estimate", est]
    for argv in (["forecast", *common], ["risk", *common],
                 ["counterfactual", *common, "--variable", "u", "--delta", "1.0",
                  "--start", "1995Q1", "--end", "2000Q2"]):
        code, stdout, stderr = run(capsys, argv)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error:") and value.split("=")[1] in stderr


@pytest.mark.parametrize("key", ["seed", "stream", "spec_hash", "data_hash"])
def test_reads_refuse_a_manifest_without_a_provenance_key(estimate_dir, capsys, key):
    csv, est, _ = estimate_dir
    manifest = Path(est, "MANIFEST")
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(ln for ln in lines if not ln.startswith(key + "=")),
                        encoding="utf-8")
    code, stdout, stderr = run(capsys, ["forecast", "--data", csv, *DATA_ARGS,
                                        "--estimate", est])
    assert code == 1 and stdout == ""
    assert stderr.startswith("error:") and key in stderr


def test_reads_take_the_design_transform_from_the_estimate(tmp_path, capsys):
    csv = str(tmp_path / "macro.csv")
    write_csv(csv)
    est = str(tmp_path / "est")
    code, _, _ = run(capsys, ["estimate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
                              "--design-transform", "quadratic", "--out", est])
    assert code == 0
    draws = load_estimate(est)
    assert draws.design_transform == "quadratic" and draws.d == 5

    common = ["--data", csv, *DATA_ARGS, "--estimate", est]
    code, stdout, _ = run(capsys, ["risk", *common, "--date", "2000Q2"])
    assert code == 0
    aligned = assemble_design(load_csv(csv).with_inflation("P", 1), ("infl_P_1q", "u"), lag=1)
    t = aligned.origin_dates.index("2000Q2")
    want = distribution_mean(conditional_cdf(draws, aligned.x[t], t))
    assert dict(parse_table(stdout)[1:])["mean"] == format(want, ".6g")

    code, _, _ = run(capsys, ["forecast", *common])
    assert code == 0
    code, _, _ = run(capsys, ["counterfactual", *common, "--variable", "u", "--delta", "1.0",
                              "--start", "1995Q1", "--end", "2000Q2", "--date", "2000Q2"])
    assert code == 0
    with pytest.raises(SystemExit) as exc:  # the stored transform is the only source
        main(["forecast", *common, "--design-transform", "identity"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_evaluate_then_plotdata_round_trip(tmp_path, capsys):
    csv = str(tmp_path / "macro.csv")
    dates = write_csv(csv)
    records = str(tmp_path / "records.tsv")
    code, stdout, _ = run(capsys, [
        "evaluate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
        "--initial-start", dates[0], "--initial-end", dates[-10],
        "--refit-every", "4", "--taus", "0.05,0.95", "--out", records,
    ])
    assert code == 0
    table = dict(parse_table(stdout))
    n_records = int(table["records"])
    assert n_records >= 8
    assert int(table["failures"]) == 0
    assert 0.0 <= float(table["coverage_0.05"]) <= 1.0
    assert float(table["mean_score_0.95"]) >= 0.0

    code, stdout, _ = run(capsys, ["plotdata", "--records", records,
                                   "--taus", "0.05,0.5,0.95"])
    assert code == 0
    rows = parse_table(stdout)
    assert rows[0] == ["date", "series", "value"]
    body = rows[1:]
    assert len(body) == n_records * 5  # realized, pit, three quantiles
    series = {r[1] for r in body}
    assert series == {"realized", "pit", "q0.05", "q0.5", "q0.95"}
    by_date = {}
    for date, name, value in body:
        by_date.setdefault(date, {})[name] = float(value)
    for vals in by_date.values():
        assert vals["q0.05"] <= vals["q0.5"] <= vals["q0.95"]
        assert 0.0 <= vals["pit"] <= 1.0


def test_plotdata_reads_only_complete_rows_of_torn_records(tmp_path, capsys):
    # a run killed mid-write leaves an unterminated last row; plotdata, like
    # a resume, reads only the rows whose newline was written
    csv = str(tmp_path / "macro.csv")
    dates = write_csv(csv)
    records = tmp_path / "records.tsv"
    code, _, _ = run(capsys, ["evaluate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
                              "--initial-start", dates[0], "--initial-end", dates[-10],
                              "--out", str(records)])
    assert code == 0
    text = records.read_bytes()
    complete = text[: text.rstrip(b"\n").rfind(b"\n") + 1]
    records.write_bytes(complete)
    code, want, _ = run(capsys, ["plotdata", "--records", str(records)])
    assert code == 0 and want.count("\trealized\t") == complete.count(b"\n") - 1
    for torn in (text[: len(complete) + 17], text[:-2]):  # mid-row; inside the last cell
        records.write_bytes(torn)
        code, got, stderr = run(capsys, ["plotdata", "--records", str(records)])
        assert (code, got, stderr) == (0, want, "")


def test_evaluate_refuses_a_worker_count_below_one(tmp_path, capsys):
    csv = str(tmp_path / "macro.csv")
    dates = write_csv(csv)
    argv = ["evaluate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
            "--initial-start", dates[0], "--initial-end", dates[-10],
            "--out", str(tmp_path / "r.tsv")]
    for workers in ("0", "-3"):
        code, stdout, stderr = run(capsys, [*argv, "--workers", workers])
        assert code == 1 and stdout == ""
        assert stderr == f"error: workers must be a positive integer, got {workers}\n"
    assert not os.path.exists(tmp_path / "r.tsv")


def test_evaluate_refuses_taus_that_share_a_records_column(tmp_path, capsys):
    # quantile columns are named by repr(tau), so only a repeated tau clashes:
    # 0.02 and 0.025 get columns of their own
    csv = str(tmp_path / "macro.csv")
    dates = write_csv(csv)
    argv = ["evaluate", "--data", csv, *DATA_ARGS, *FAST_MODEL, "--initial-start", dates[0],
            "--initial-end", dates[-3], "--out", str(tmp_path / "r.tsv")]
    code, stdout, stderr = run(capsys, [*argv, "--taus", "0.05,0.02,0.05"])
    assert code == 1 and stdout == ""
    assert stderr == "error: taus 0.05 and 0.05 share the records column q_0.05\n"
    assert not os.path.exists(tmp_path / "r.tsv")
    code, stdout, stderr = run(capsys, [*argv, "--taus", "0.02,0.025"])
    assert code == 0 and stderr == ""
    header = (tmp_path / "r.tsv").read_text().split("\n")[0].split("\t")
    assert header[:5] == ["date", "realized", "pit", "q_0.02", "q_0.025"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_resumed_evaluate_prints_the_summary_of_the_whole_file(tmp_path, capsys, workers):
    # a run torn before its end, then a rerun with nothing left to do, both
    # print what the uninterrupted run printed and leave its file
    csv = str(tmp_path / "macro.csv")
    dates = write_csv(csv)
    argv = ["evaluate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
            "--initial-start", dates[0], "--initial-end", dates[-10], "--refit-every", "4",
            "--workers", workers]
    full, torn = tmp_path / "full.tsv", tmp_path / "torn.tsv"
    code, want, _ = run(capsys, [*argv, "--out", str(full)])
    assert code == 0 and dict(parse_table(want))["records"] == "9"
    torn.write_bytes(full.read_bytes()[:-4])
    (tmp_path / "torn.tsv.meta").write_bytes((tmp_path / "full.tsv.meta").read_bytes())
    for _ in ("resume", "rerun"):
        assert run(capsys, [*argv, "--out", str(torn)]) == (0, want, "")
        assert torn.read_bytes() == full.read_bytes()


def test_the_variant_picks_only_the_printed_score(tmp_path, capsys):
    # the records hold forecasts, not scores, so both variants write the same
    # file, and a resume may switch the variant: it scores the whole file
    csv = str(tmp_path / "macro.csv")
    dates = write_csv(csv)
    argv = ["evaluate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
            "--initial-start", dates[0], "--initial-end", dates[-10], "--refit-every", "4"]
    printed = {}
    for variant in SCORE_VARIANTS:
        code, printed[variant], _ = run(capsys, [*argv, "--variant", variant,
                                                 "--out", str(tmp_path / f"{variant}.tsv")])
        assert code == 0
    standard, one_sided = (tmp_path / f"{v}.tsv" for v in SCORE_VARIANTS)
    assert standard.read_bytes() == one_sided.read_bytes()
    assert (tmp_path / "standard.tsv.meta").read_bytes() == (
        tmp_path / "one_sided.tsv.meta").read_bytes()
    assert printed["standard"] != printed["one_sided"]

    whole = standard.read_bytes()
    standard.write_bytes(whole[:-4])
    code, stdout, stderr = run(capsys, [*argv, "--variant", "one_sided", "--out", str(standard)])
    assert (code, stdout, stderr) == (0, printed["one_sided"], "")
    assert standard.read_bytes() == whole
    _, records = read_records(whole, "standard.tsv")
    table = dict(parse_table(stdout))
    for tau in (0.05, 0.95):
        score = np.mean([quantile_score(r.realized, r.quantiles[tau], tau, "one_sided")
                         for r in records])
        assert table[f"mean_score_{tau:g}"] == format(float(score), ".6g")


def test_estimate_refuses_a_grid_of_too_many_thresholds(tmp_path, capsys):
    # refused before the grid is allocated; at a 1e-9 step that was 48 GiB
    csv = str(tmp_path / "macro.csv")
    write_csv(csv)
    code, stdout, stderr = run(capsys, ["estimate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
                                        "--grid-step", "1e-9", "--out", str(tmp_path / "est")])
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: grid step 1e-09 over [") and "more than 10000" in stderr
    assert stderr.count("\n") == 1 and not (tmp_path / "est").exists()


def test_evaluate_creates_the_directory_of_its_records(tmp_path, capsys):
    # as estimate --out does, but only once every argument has been checked
    csv = str(tmp_path / "macro.csv")
    dates = write_csv(csv)
    out = tmp_path / "runs" / "a" / "records.tsv"
    argv = ["evaluate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
            "--initial-start", dates[0], "--initial-end", dates[-10], "--out", str(out)]
    code, stdout, stderr = run(capsys, [*argv, "--workers", "0"])
    assert code == 1 and stdout == "" and "workers must be a positive integer" in stderr
    assert not (tmp_path / "runs").exists()
    code, stdout, stderr = run(capsys, argv)
    assert code == 0 and stderr == ""
    assert dict(parse_table(stdout))["records"] == "9"
    assert sorted(os.listdir(out.parent)) == ["records.tsv", "records.tsv.meta"]
    assert len(out.read_text(encoding="utf-8").split("\n")) == 1 + 9 + 1


def test_evaluate_aligns_with_the_lag(tmp_path, capsys):
    csv = str(tmp_path / "macro.csv")
    dates = write_csv(csv)
    origin = dates[-10]

    def evaluate(lag, out):
        return run(capsys, ["evaluate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
                            "--lag", str(lag), "--initial-start", dates[0],
                            "--initial-end", origin, "--refit-every", "4",
                            "--taus", "0.05,0.95", "--out", out])

    def body(path):
        with open(path, encoding="utf-8") as fh:
            return [line.split("\t") for line in fh.read().split("\n")[1:] if line]

    lag1, lag2 = str(tmp_path / "lag1.tsv"), str(tmp_path / "lag2.tsv")
    assert evaluate(1, lag1)[0] == 0
    assert evaluate(2, lag2)[0] == 0
    assert body(lag1) != body(lag2)
    aligned = assemble_design(load_csv(csv).with_inflation("P", 1), ["infl_P_1q", "u"], lag=2)
    want = [out for org, out in zip(aligned.origin_dates, aligned.outcome_dates) if org >= origin]
    assert [row[0] for row in body(lag2)] == want

    # a resume under another lag is refused, and so is one whose sidecar
    # predates the lag key
    before = Path(lag1).read_bytes()
    code, _, stderr = evaluate(2, lag1)
    assert code == 1 and "plan.lag" in stderr and "refusing to resume" in stderr
    meta = json.loads(Path(lag1 + ".meta").read_text(encoding="utf-8"))
    del meta["plan.lag"]
    with open(lag1 + ".meta", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    code, _, stderr = evaluate(1, lag1)
    assert code == 1 and "different plan.lag;" in stderr
    assert Path(lag1).read_bytes() == before


@pytest.mark.parametrize("last_cdf, taus, message", [
    ("0.9", "0.5,1.5", "tau must lie strictly inside (0, 1)"),
    ("nine", "0.5", "{records}:3: cdf_1.0 'nine' is not a finite number"),
], ids=["tau", "cell"])
def test_plotdata_fails_before_writing_a_line(tmp_path, capsys, last_cdf, taus, message):
    # a tau outside (0, 1), or a cell that is no number in the second row,
    # used to fail after the first row's lines were out, leaving a partial file
    records = tmp_path / "r.tsv"
    records.write_text("date\trealized\tpit\tqs_0.05\tcdf_0.0\tcdf_1.0\n"
                       "2000Q1\t0.5\t0.4\t0.1\t0.3\t0.9\n"
                       f"2000Q2\t0.5\t0.4\t0.1\t0.3\t{last_cdf}\n", encoding="utf-8")
    tidy = tmp_path / "f"
    for out in (["--out", str(tidy)], []):
        code, stdout, stderr = run(capsys, ["plotdata", "--records", str(records),
                                            "--taus", taus, *out])
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {message.format(records=records)}\n"
    assert not tidy.exists()
    records.write_text("date\trealized\tpit\tcdf_0.0\n", encoding="utf-8")  # no rows
    code, stdout, stderr = run(capsys, ["plotdata", "--records", str(records), "--taus", "1.5"])
    assert (code, stdout, stderr) == (1, "", "error: tau must lie strictly inside (0, 1)\n")


@pytest.mark.parametrize("route", [["--price-column", "P"], ["--target", "pi"]])
@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_every_path_refuses_a_horizon_below_one(tmp_path, capsys, route, horizon):
    # the dataset owns the horizon: at 0 the target met same-quarter
    # covariates, and at -1 the fit died in a numpy broadcast
    csv = tmp_path / "m.csv"
    dates = write_csv(csv)
    ds = load_csv(csv).with_inflation("P", 1)
    with open(csv, "w", encoding="utf-8") as fh:
        fh.write("date,P,pi,u\n")
        for row in zip(dates, *(ds.series[name] for name in ("P", "infl_P_1q", "u"))):
            fh.write(",".join([row[0]] + ["" if np.isnan(v) else repr(float(v))
                                          for v in row[1:]]) + "\n")
    data = ["--data", str(csv), *route, "--horizon", horizon, "--covariates", "u"]
    est = tmp_path / "est"
    for argv in (["estimate", *data, *FAST_MODEL, "--out", str(est)],
                 ["forecast", *data, "--estimate", str(est)],
                 ["evaluate", *data, *FAST_MODEL, "--initial-start", dates[0],
                  "--initial-end", dates[-10], "--out", str(tmp_path / "r.tsv")]):
        code, stdout, stderr = run(capsys, argv)
        assert (code, stdout) == (1, ""), argv[0]
        assert stderr == f"error: horizon must be a positive integer, got {horizon}\n", argv[0]
    assert sorted(os.listdir(tmp_path)) == ["m.csv"]


@pytest.mark.parametrize("row, message", [
    ("2000Q2\t0.5\t0.4\t0.1\t0.3\tnine", "cdf_1.0 'nine' is not a finite number"),
    ("2000Q2\t0.5", "expected 6 cells, got 2"),
    ("2000Q2\t0.5\t0.4\t0.1\t0.3\tnan", "cdf_1.0 'nan' is not a finite number"),
    ("2000Q2\t0.5\t0.4\t0.1\t0.3", "expected 6 cells, got 5"),
], ids=["word", "two-cells", "nan", "one-short"])
def test_plotdata_refuses_a_broken_row(tmp_path, capsys, row, message):
    # a row one cell short was read from the wrong columns, and a nan CDF
    # printed zero quantiles; every broken row is named by file and line
    records = tmp_path / "r.tsv"
    records.write_text("date\trealized\tpit\tq_0.05\tcdf_0.0\tcdf_1.0\n"
                       f"2000Q1\t0.5\t0.4\t0.1\t0.3\t0.9\n{row}\n", encoding="utf-8")
    code, stdout, stderr = run(capsys, ["plotdata", "--records", str(records)])
    assert (code, stdout, stderr) == (1, "", f"error: {records}:3: {message}\n")


@pytest.mark.parametrize("header, message", [
    ("q_x\tcdf_0.0\tcdf_1.0", "column 'q_x' does not name a finite number"),
    ("q_0.5\tcdf_0.0\tcdf_a", "column 'cdf_a' does not name a finite number"),
    ("q_0.5\tcdf_1.0\tcdf_0.0", "cdf_ columns: grid points must be strictly increasing"),
    ("cdf_0.0\tcdf_1.0\tcdf_3.0", "cdf_ columns: grid spacing is not uniform"),
], ids=["tau", "threshold", "order", "spacing"])
def test_plotdata_refuses_a_broken_header(tmp_path, capsys, header, message):
    # a header cell that names no number, or thresholds out of order, used
    # to exit with only a float() or grid error naming neither file nor column
    records = tmp_path / "r.tsv"
    records.write_text(f"date\trealized\tpit\t{header}\n2000Q1\t0.5\t0.4\t0.1\t0.3\t0.9\n",
                       encoding="utf-8")
    code, stdout, stderr = run(capsys, ["plotdata", "--records", str(records)])
    assert (code, stdout, stderr) == (1, "", f"error: {records}: {message}\n")


def test_plotdata_rejects_foreign_files(tmp_path, capsys):
    bogus = tmp_path / "notes.tsv"
    bogus.write_text("a\tb\n1\t2\n", encoding="utf-8")
    code, _, stderr = run(capsys, ["plotdata", "--records", str(bogus)])
    assert code == 1
    assert "not a backtest records file" in stderr


def test_missing_target_definition(tmp_path, capsys):
    csv = str(tmp_path / "macro.csv")
    write_csv(csv)
    code, _, stderr = run(capsys, [
        "forecast", "--data", csv, "--covariates", "u",
        "--estimate", str(tmp_path / "nowhere"),
    ])
    assert code == 1
    assert "need --price-column or --target" in stderr


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_counterfactual_refuses_a_variable_outside_the_covariates(estimate_dir, capsys):
    # P is in the data, but the design reads infl_P_1q, computed at load:
    # shifting P would print the baseline twice
    csv, est, _ = estimate_dir
    code, stdout, stderr = run(capsys, [
        "counterfactual", "--data", csv, *DATA_ARGS, "--estimate", est,
        "--variable", "P", "--delta", "4.0", "--start", "1990Q1", "--end", "2005Q4",
    ])
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: ") and "'P'" in stderr and "infl_P_1q,u" in stderr


# one representative argv per command, every option given where it has one
DISPATCH_ARGV = {
    "estimate": ["estimate", "--data", "m.csv", *DATA_ARGS, *FAST_MODEL, "--lag", "2",
                 "--schema", "s.txt", "--design-transform", "quadratic", "--sweeps", "3",
                 "--grid-min", "-1", "--grid-max", "6", "--out", "est"],
    "forecast": ["forecast", "--data", "m.csv", *DATA_ARGS, "--estimate", "est",
                 "--date", "2000Q1", "--taus", "0.1,0.9", "--seed", "4", "--stream", "2"],
    "risk": ["risk", "--data", "m.csv", "--target", "y", "--covariates", "u",
             "--estimate", "est", "--predictive", "--lower", "0.5", "--upper", "2.5",
             "--alpha", "1", "--gamma", "2", "--probes", "3,4", "--seed", "1"],
    "counterfactual": ["counterfactual", "--data", "m.csv", *DATA_ARGS, "--estimate", "est",
                       "--variable", "u", "--delta", "-1.5", "--start", "1995Q1",
                       "--end", "1996Q4", "--date", "1996Q4", "--probes", "2"],
    "evaluate": ["evaluate", "--data", "m.csv", *DATA_ARGS, *FAST_MODEL,
                 "--initial-start", "1990Q1", "--initial-end", "2000Q1", "--refit-every", "4",
                 "--taus", "0.05,0.5", "--variant", "one_sided", "--out", "r.tsv",
                 "--workers", "2"],
    "plotdata": ["plotdata", "--records", "r.tsv", "--taus", "0.5", "--out", "tidy.tsv"],
}


def test_commands_without_model_options_take_the_library_defaults():
    argv = ["--data", "m.csv", "--target", "y", "--covariates", "u"]
    args = build_parser("estimate").parse_args(["estimate", *argv, "--out", "est"])
    aligned = SimpleNamespace(y=np.array([0.0, 1.0]), x=np.ones((2, 2)))
    spec = _build_spec(args, aligned)
    want = ModelSpec(d=2, grid=build_threshold_grid(0.0, 1.0, 0.1))
    assert spec.grid.canonical() == want.grid.canonical()
    assert all(getattr(spec, f.name) == getattr(want, f.name)
               for f in dataclasses.fields(ModelSpec) if f.name != "grid")

    args = build_parser("evaluate").parse_args(
        ["evaluate", *argv, "--initial-start", "1990Q1", "--initial-end", "2000Q1"])
    plan = BacktestPlan(initial_start="1990Q1", initial_end="2000Q1")
    assert (args.refit_every, args.taus, args.variant) == (
        plan.refit_every, plan.taus, SCORE_VARIANTS[0])


def test_the_invoked_command_parser_parses_as_the_full_parser(capsys):
    assert list(DISPATCH_ARGV) == list(COMMANDS)

    def parsed(parser, argv):
        ns = vars(parser.parse_args(argv))
        return {**ns, "func": ns["func"].__name__}

    for name, argv in DISPATCH_ARGV.items():
        assert parsed(build_parser(name), argv) == parsed(build_parser(), argv), name

    # an unrecognized argument is reported against the top-level usage,
    # which lists every command either way
    argv = DISPATCH_ARGV["plotdata"] + ["--no-such-flag"]
    errors = []
    for parser in (build_parser("plotdata"), build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "unrecognized arguments: --no-such-flag" in errors[0]
    assert "{" + ",".join(COMMANDS) + "}" in errors[0]


def test_main_builds_only_the_invoked_command(tmp_path, capsys, monkeypatch):
    built = []
    for name, (help_text, add_options) in list(COMMANDS.items()):
        def counted(p, name=name, add_options=add_options):
            built.append(name)
            add_options(p)
        monkeypatch.setitem(COMMANDS, name, (help_text, counted))

    code, _, _ = run(capsys, ["plotdata", "--records", str(tmp_path / "none.tsv")])
    assert code == 1 and built == ["plotdata"]
    built.clear()
    with pytest.raises(SystemExit):
        main([])
    assert built == list(COMMANDS)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [[], ["nosuch"]])
def test_a_missing_or_unknown_command_names_all_six(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(name in err for name in COMMANDS), err


@pytest.mark.parametrize("argv", [["-h"], ["forecast", "-h"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tvpdr")
    if argv == ["-h"]:
        assert all(name in out for name in COMMANDS)


def test_evaluate_help_says_its_grid_edges_set_only_the_report_grid(capsys):
    note = ("sets only the records' report grid (the cdf_ columns): each refit fits on its "
            "own training range at --grid-step")
    for command, says in (("evaluate", True), ("estimate", False)):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        out = " ".join(capsys.readouterr().out.split())
        assert (out.count(note) == 2) == says, out


# Run in a fresh interpreter: each read command in turn, failing if it has
# loaded a fit-only module, then an estimate, which must load LAPACK.
FRESH_READS = """
import json, sys
from tvpdr.cli import main

FIT_ONLY = ("scipy.linalg", "concurrent.futures.process")
reads, estimate = json.loads(sys.argv[1])
for argv in reads:
    code = main(argv)
    loaded = [m for m in FIT_ONLY if m in sys.modules]
    if code != 0 or loaded:
        sys.exit(f"{argv[0]}: exit {code}, loaded {loaded}")
assert main(estimate) == 0
assert "scipy.linalg" in sys.modules
"""


def test_read_commands_load_no_fit_only_module(estimate_dir, capsys, tmp_path):
    csv, est, _ = estimate_dir
    records = str(tmp_path / "records.tsv")
    code, _, _ = run(capsys, ["evaluate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
                              "--initial-start", "1990Q1", "--initial-end", "2005Q1",
                              "--refit-every", "4", "--out", records])
    assert code == 0
    read = ["--data", csv, *DATA_ARGS, "--estimate", est]
    reads = [
        ["forecast", *read],
        ["risk", *read, "--probes", "3"],
        ["risk", *read, "--predictive", "--probes", "3"],
        ["counterfactual", *read, "--variable", "u", "--delta", "1.0",
         "--start", "1990Q1", "--end", "2005Q4", "--probes", "3"],
        ["plotdata", "--records", records],
    ]
    estimate = ["estimate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
                "--out", str(tmp_path / "fresh")]
    src = str(Path(tvpdr.model.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", FRESH_READS, json.dumps([reads, estimate])],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


# Run one CLI command in a fresh interpreter on the given CPUs, with one
# fault injected into the path draws of one lane, then report the exit
# code, whether a child process is left and the CPU time of the reaped
# ones. ``-X dev -W error`` makes any warning, a fork from a process with
# threads included, an error.
LANE_RUN = """
import json, os, resource, signal, sys
import tvpdr.model
from tvpdr.cli import main

cpus, fault, argv = json.loads(sys.argv[1])
os.sched_setaffinity(0, cpus)
real = tvpdr.model._draw_paths
calls = [0, 0]

def faulty(*args):
    if not fault:
        return real(*args)
    # on two CPUs each process draws one lane, from the lane's generator; a
    # helper counts on from its parent, which draws lane 0 only
    lane = len(args[4].bit_generator.seed_seq.spawn_key) - 1
    calls[lane] += 1
    # monotone: iteration 1, even colour; unconstrained: iteration 2
    if fault["lane"] == lane and calls[lane] == 3:
        if fault["kind"] == "leftover":
            raise tvpdr.model.MonotonicityError("injected leftover", path=1)
        if fault["kind"] == "die":
            os.kill(os.getpid(), signal.SIGKILL)
        raise KeyboardInterrupt
    return real(*args)

tvpdr.model._draw_paths = faulty
try:
    code = main(argv)
except KeyboardInterrupt:
    code = "interrupted"
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"code": code, "left": left, "children_cpu": usage.ru_utime + usage.ru_stime}))
"""

# K = 9 thresholds. Monotone: the even colour (5) and its lanes {0, 2, 4}
# and {6, 8} have odd sizes; unconstrained: one colour, lanes {0..4} and
# {5..8}. Each refit of the backtest builds its own grid.
LANE_FIT = ["--iters", "12", "--burnin", "4", "--grid-min", "0.5", "--grid-max", "4.5",
            "--grid-step", "0.5", "--seed", "8"]
LANE_COMMANDS = {
    "estimate": ["estimate", "--monotone", "on"],
    "estimate-unconstrained": ["estimate", "--monotone", "off"],
    "evaluate": ["evaluate", "--monotone", "off", "--initial-start", "1990Q1",
                 "--initial-end", "2000Q1", "--refit-every", "4"],
}


def _lane_run(tmp_path, command, out, cpus, fault=None, options=()):
    csv = str(tmp_path / "macro.csv")
    if not os.path.exists(csv):
        write_csv(csv)
    name, *mode = LANE_COMMANDS[command]
    target = tmp_path / out / "records.tsv" if name == "evaluate" else tmp_path / out
    argv = [name, "--data", csv, *DATA_ARGS, *LANE_FIT, *mode, *options, "--out", str(target)]
    src = str(Path(tvpdr.model.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", LANE_RUN,
                           json.dumps([sorted(cpus), fault, argv])],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *printed, report = proc.stdout.strip().split("\n")
    return json.loads(report), printed, proc.stderr


def _two_cpus():
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2 or sys.platform != "linux":
        pytest.skip("needs Linux and two usable CPUs")
    return cpus[:2]


def _same_with_and_without_the_lane_helper(tmp_path, command):
    # a helper forks only on two CPUs and outside evaluate's process pool,
    # whose fits draw their lanes in turn
    cpus = _two_cpus()
    runs = {"two": (cpus, ()), "one": (cpus[:1], ())}
    if command == "evaluate":
        runs["pool"] = (cpus, ("--workers", "2"))
    got = {out: _lane_run(tmp_path, command, out, on, options=options)
           for out, (on, options) in runs.items()}
    summary = 0 if command == "evaluate" else 1  # an estimate's first line is its path
    for out, (report, printed, stderr) in got.items():
        assert report["code"] == 0 and not report["left"] and stderr == ""
        assert (report["children_cpu"] > 0.0) == (out != "one")
        assert printed[summary:] == got["one"][1][summary:]
    names = sorted(os.listdir(tmp_path / "two"))
    assert names == (["records.tsv", "records.tsv.meta"] if command == "evaluate"
                     else sorted(os.listdir(tmp_path / "one")))
    for out in runs:
        assert sorted(os.listdir(tmp_path / out)) == names
        for name in names:
            assert (tmp_path / out / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    return got["two"][1]


def test_monotone_estimate_is_the_same_with_and_without_the_lane_helper(tmp_path):
    printed = _same_with_and_without_the_lane_helper(tmp_path, "estimate")
    assert dict(parse_table("\n".join(printed)))["thresholds"] == "9"
    assert "beta.f64" in os.listdir(tmp_path / "two")


@pytest.mark.parametrize("command", ["estimate-unconstrained", "evaluate"])
def test_unconstrained_fits_are_the_same_with_and_without_the_lane_helper(tmp_path, command):
    printed = dict(parse_table("\n".join(
        _same_with_and_without_the_lane_helper(tmp_path, command))))
    if command == "evaluate":
        assert printed["failures"] == "0" and int(printed["records"]) > 8
    else:
        assert printed["thresholds"] == "9"


@pytest.mark.parametrize("fault", [{"lane": 1, "kind": "leftover"}, {"lane": 1, "kind": "die"},
                                   {"lane": 0, "kind": "interrupt"},
                                   {"lane": 1, "kind": "leftover", "command": "evaluate"}],
                         ids=["lane1-error", "lane1-dies", "lane0-interrupt",
                              "evaluate-lane1-error"])
def test_a_failing_lane_stops_the_fit_and_leaves_no_process(tmp_path, fault):
    cpus = _two_cpus()
    command = fault.get("command", "estimate")
    got, printed, stderr = _lane_run(tmp_path, command, "est", cpus, fault)
    assert not got["left"] and got["children_cpu"] > 0.0
    if command == "evaluate":
        # every refit's helper fails in iteration 2, at path 1 of its upper
        # lane, which is at least threshold 2; the block's rows are skipped
        table = dict(parse_table("\n".join(printed)))
        assert got["code"] == 0 and table["records"] == "0"
        lines = stderr.splitlines()
        assert len(lines) == int(table["failures"]) > 8
        for line in lines:
            m = re.fullmatch(r"refit skipped at \S+: refit failed: iteration 2, threshold "
                             r"(\d+) \(y=\S+\): injected leftover", line)
            assert m and int(m[1]) >= 2, line
        return
    assert printed == []
    if fault["kind"] == "leftover":
        # path 1 of the even colour's upper lane {6, 8} is threshold 8, y = 4.5
        assert got["code"] == 1
        assert stderr.startswith("error: iteration 1, threshold 8 (y=4.5): injected leftover")
    elif fault["kind"] == "die":
        assert got["code"] == 1 and "lane process exited" in stderr
    else:
        assert got["code"] == "interrupted" and stderr == ""
    assert not [name for name in os.listdir(tmp_path / "est") if name.endswith(".partial")]


# Two lane processes on one CPU, which ``run_gibbs`` is told it has two of,
# against one process told it has one: each wait yields the CPU to the
# other, and the barrier must still hand every colour over whole, in either
# mode.
ONE_CPU_LANES = """
import json, os, resource, sys
import numpy as np
import tvpdr.model
from tvpdr.distribution import build_threshold_grid
from tvpdr.model import ModelSpec, run_gibbs

os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])

def fit(spec, cpus):
    tvpdr.model._usable_cpus = lambda: cpus
    return run_gibbs(spec, (y, x))

rng = np.random.default_rng(3)
x = np.column_stack([np.ones(60), rng.standard_normal(60)])
y = rng.standard_normal(60) + 0.5 * x[:, 1]
same = []
for monotone in (True, False):
    spec = ModelSpec(d=2, grid=build_threshold_grid(-1.5, 1.5, 0.25), iterations=40, burnin=10,
                     monotone=monotone, seed=13)
    alone, lanes = (fit(spec, cpus) for cpus in (1, 2))
    same.append(bool(np.array_equal(alone.beta, lanes.beta)
                     and np.array_equal(alone.sigma2, lanes.sigma2)))
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"same": same, "forked": usage.ru_utime + usage.ru_stime > 0.0}))
"""


@pytest.mark.parametrize("files, quota", [
    ({"cpu.max": "max 100000\n"}, None), ({"cpu.max": "150000 100000\n"}, 1),
    ({"cpu.max": "400000 100000\n"}, 4), ({"cpu.max": "50000 100000\n"}, 0),
    ({"quota": "-1\n", "period": "100000\n"}, None),
    ({"quota": "200000\n", "period": "100000\n"}, 2), ({}, None)],
    ids=["v2-none", "v2-1.5", "v2-4", "v2-0.5", "v1-none", "v1-2", "no-files"])
def test_a_cgroup_cpu_quota_caps_the_usable_cpus(tmp_path, monkeypatch, files, quota):
    # an affinity mask of three CPUs under a quota of fewer: a fit forks its
    # lane helper only where two whole CPUs of quota are left
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(tvpdr.model, "_CPU_QUOTA_FILES", (
        (str(tmp_path / "cpu.max"),), (str(tmp_path / "quota"), str(tmp_path / "period"))))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert tvpdr.model._quota_cpus() == quota
    assert tvpdr.model._usable_cpus() == (3 if quota is None else max(1, min(3, quota)))


def _one_thread_env():
    """The environment of a fresh interpreter on this checkout whose BLAS
    runs one thread, so that the process runs one OS thread."""
    src = str(Path(tvpdr.model.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1")


@pytest.mark.skipif(sys.platform != "linux", reason="lane helpers fork on Linux only")
def test_lane_processes_sharing_one_cpu_draw_the_same_fit():
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", ONE_CPU_LANES],
                          env=_one_thread_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"same": [True, True], "forked": True}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
@pytest.mark.parametrize("monotone", [True, False])
def test_a_refused_fork_draws_the_fit_in_one_process(monkeypatch, monotone):
    # a fit that may fork, whose fork the system refuses (out of processes
    # or memory), draws each colour as one batch, as an unforked fit does,
    # and closes the pipes it opened for the helper
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(40), rng.standard_normal(40)])
    y = rng.standard_normal(40) + 0.5 * x[:, 1]
    spec = ModelSpec(d=2, grid=build_threshold_grid(-1.0, 1.0, 0.25), iterations=12, burnin=4,
                     monotone=monotone, seed=21)
    monkeypatch.setattr(tvpdr.model, "_may_fork", lambda: False)
    alone = tvpdr.model.run_gibbs(spec, (y, x))
    tries = []

    def refuse():
        tries.append(1)
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(tvpdr.model, "_may_fork", lambda: True)
    monkeypatch.setattr(os, "fork", refuse)
    fds = sorted(os.listdir("/proc/self/fd"))
    refused = tvpdr.model.run_gibbs(spec, (y, x))
    assert sorted(os.listdir("/proc/self/fd")) == fds and tries == [1]
    assert np.array_equal(refused.beta, alone.beta)
    assert np.array_equal(refused.sigma2, alone.sigma2)


# ``_may_fork`` in this one-thread process and in a process pool's worker,
# under each start method.
POOL_WORKER_FORK = """
import json, multiprocessing, os, sys
from concurrent.futures import ProcessPoolExecutor
import tvpdr.model

os.sched_setaffinity(0, json.loads(sys.argv[1]))
got = {"parent": tvpdr.model._may_fork()}
for method in ("fork", "forkserver", "spawn"):
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        got[method] = pool.submit(tvpdr.model._may_fork).result()
print(json.dumps(got))
"""


def test_pool_workers_never_fork_a_lane_helper():
    # the pool's workers share the CPUs already, so a fit in one draws
    # alone; a spawned or forkserver worker runs one thread on two CPUs, so
    # only its being a worker tells it
    cpus = _two_cpus()
    proc = subprocess.run([sys.executable, "-c", POOL_WORKER_FORK, json.dumps(cpus)],
                          env=_one_thread_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"parent": True, "fork": False, "forkserver": False,
                                       "spawn": False}
