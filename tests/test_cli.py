"""End-to-end command line checks on a small synthetic quarterly file."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import tvpdr.model
from tvpdr.cli import COMMANDS, build_parser, main
from tvpdr.data import assemble_design, load_csv
from tvpdr.distribution import cdf_interpolate, conditional_cdf, forecast_predictive
from tvpdr.model import PROBIT, apply_design_transform
from tvpdr.risk import deflation_risk, distribution_mean, excess_inflation_risk
from tvpdr.samplers import RngHandle
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


def test_predictive_risk_conditions_on_the_given_date(estimate_dir, capsys):
    # risk --predictive uses the row at --date, as forecast --date does
    csv, est, _ = estimate_dir
    aligned = assemble_design(load_csv(csv).with_inflation("P", 1), ["infl_P_1q", "u"])
    draws = load_estimate(est)
    x_design = apply_design_transform(aligned.x, draws.design_transform)
    row = len(aligned.y) - 6
    date = aligned.origin_dates[row]
    base = ["risk", "--data", csv, *DATA_ARGS, "--estimate", est, "--predictive",
            "--seed", "5", "--stream", "2", "--alpha", "1", "--gamma", "1", "--probes", "3"]
    code, at_date, _ = run(capsys, base + ["--date", date])
    assert code == 0
    code, at_last, _ = run(capsys, base)
    assert code == 0
    assert at_date != at_last

    pred = forecast_predictive(draws, x_design[row], RngHandle(5, stream=2), PROBIT)
    want = {
        "deflation_risk(target=1,alpha=1)": deflation_risk(pred, 1.0, 1.0),
        "excess_inflation_risk(target=3,gamma=1)": excess_inflation_risk(pred, 3.0, 1.0),
        "mean": distribution_mean(pred),
        "p_above_3": 1.0 - float(cdf_interpolate(pred, 3.0)),
    }
    table = dict(parse_table(at_date)[1:])
    assert {k: table[k] for k in want} == {k: format(v, ".6g") for k, v in want.items()}


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
    real = tvpdr.model.draw_sigma2
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 20:  # a kept iteration: draws are already streaming
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(tvpdr.model, "draw_sigma2", failing)
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
    x = apply_design_transform(aligned.x, "quadratic")[t]
    want = distribution_mean(conditional_cdf(draws, x, t, PROBIT))
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
