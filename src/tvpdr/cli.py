"""Command line front end.

Subcommands mirror the workflow: ``estimate`` fits and stores draws,
``forecast`` and ``risk`` read a stored estimate back against the same
data file, ``counterfactual`` contrasts shifted covariate paths,
``evaluate`` runs the expanding-window backtest, and ``plotdata`` turns a
records file into tidy series for plotting. Everything prints TSV so the
output drops straight into standard tooling.

Exit codes: 0 success, 1 domain errors (bad data, mismatched hashes, a
failed Gibbs update), 2 usage errors from the argument parser.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from .data import assemble_design, load_csv, load_schema
from .distribution import (
    build_threshold_grid,
    cdf_interpolate,
    conditional_cdf,
    forecast_predictive,
    quantile_from_cdf,
    ConditionalCdf,
    ThresholdGrid,
)
from .evaluation import (
    BacktestPlan,
    expanding_window_backtest,
    pit_uniformity_band,
    SCORE_VARIANTS,
)
from .model import LINKS, EstimationError, ModelSpec, apply_design_transform, hash_data, run_gibbs
from .risk import (
    DEFAULT_PROBES,
    RiskSpec,
    compare_distributions,
    deflation_risk,
    distribution_mean,
    excess_inflation_risk,
)
from .samplers import RngHandle
from .store import StoreError, _discard_partials, draw_buffers, load_estimate, save_estimate

__all__ = ["main"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def _print_rows(rows, out=None):
    out = out or sys.stdout
    for row in rows:
        out.write("\t".join(_fmt(c) for c in row) + "\n")


def _comma_floats(text: str):
    try:
        return tuple(float(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _comma_names(text: str):
    names = tuple(t.strip() for t in text.split(",") if t.strip() != "")
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated list of column names")
    return names


def _add_data_options(p: argparse.ArgumentParser):
    g = p.add_argument_group("data")
    g.add_argument("--data", required=True, help="quarterly CSV, first column 'date'")
    g.add_argument("--schema", help="transform-code schema file (name=<code> lines)")
    g.add_argument("--price-column", help="price level column; inflation becomes the target")
    g.add_argument("--target", help="use an existing column as the target instead")
    g.add_argument("--horizon", type=int, default=1, help="forecast horizon in quarters")
    g.add_argument("--covariates", required=True, type=_comma_names,
                   help="comma-separated covariate columns (intercept is implicit)")
    g.add_argument("--lag", type=int, default=1, help="covariate lag, 1 = one quarter back")


def _add_model_options(p: argparse.ArgumentParser):
    g = p.add_argument_group("model")
    g.add_argument("--iters", type=int, default=10000, help="total Gibbs iterations")
    g.add_argument("--burnin", type=int, default=5000, help="discarded initial iterations")
    g.add_argument("--monotone", choices=("on", "off"), default="on",
                   help="enforce ordering across thresholds inside the sampler")
    g.add_argument("--grid-step", type=float, default=0.1, help="threshold spacing")
    g.add_argument("--grid-min", type=float, help="lowest threshold (default: sample min)")
    g.add_argument("--grid-max", type=float, help="highest threshold (default: sample max)")
    g.add_argument("--design-transform", choices=("identity", "quadratic"), default="identity")
    g.add_argument("--sweeps", type=int, default=5, help="truncated Gibbs sweeps per threshold")
    g.add_argument("--seed", type=int, default=0)


def _load_dataset(args):
    schema = load_schema(args.schema) if args.schema else None
    ds = load_csv(args.data, schema)
    if args.price_column:
        return ds.with_inflation(args.price_column, args.horizon)
    if args.target:
        if args.target not in ds.series:
            raise ValueError(f"target column {args.target!r} not in {args.data}")
        return replace(ds, target=args.target, horizon=int(args.horizon))
    raise ValueError("need --price-column or --target to define the outcome")


def _aligned_design(args, dataset, transform):
    aligned = assemble_design(dataset, args.covariates, lag=args.lag)
    return aligned, apply_design_transform(aligned.x, transform)


def _row(aligned, date) -> int:
    """Aligned row of an origin quarter; the last row when no date is given."""
    if not date:
        return len(aligned.y) - 1
    if date not in aligned.origin_dates:
        raise ValueError(f"no aligned row at {date}")
    return aligned.origin_dates.index(date)


def _build_spec(args, aligned, x_design) -> ModelSpec:
    lo = args.grid_min if args.grid_min is not None else float(aligned.y.min())
    hi = args.grid_max if args.grid_max is not None else float(aligned.y.max())
    grid = build_threshold_grid(lo, hi, args.grid_step)
    return ModelSpec(
        d=x_design.shape[1],
        grid=grid,
        design_transform=args.design_transform,
        iterations=args.iters,
        burnin=args.burnin,
        monotone=args.monotone == "on",
        truncation_sweeps=args.sweeps,
        seed=args.seed,
    )


def _load_for_reading(args):
    """Dataset, aligned rows, design and stored draws for a read command.

    The draws are refused unless they were fit to this exact aligned data,
    and the design transform is the one stored with them.
    """
    ds = _load_dataset(args)
    aligned = assemble_design(ds, args.covariates, lag=args.lag)
    draws = load_estimate(args.estimate, expect_data_hash=hash_data(aligned.y, aligned.x))
    return ds, aligned, apply_design_transform(aligned.x, draws.design_transform), draws


def _cmd_estimate(args) -> int:
    ds = _load_dataset(args)
    aligned, x_design = _aligned_design(args, ds, args.design_transform)
    spec = _build_spec(args, aligned, x_design)
    try:
        draws = run_gibbs(spec, (aligned.y, aligned.x), RngHandle(args.seed),
                          buffers=partial(draw_buffers, args.out))
        save_estimate(args.out, draws)
    except BaseException:
        # the temp blobs are the full kept-draw size and never load
        _discard_partials(args.out)
        raise
    _print_rows([
        ("estimate", args.out),
        ("observations", draws.n_obs),
        ("thresholds", draws.n_thresholds),
        ("kept_draws", draws.kept),
        ("sample", f"{aligned.origin_dates[0]}..{aligned.origin_dates[-1]}"),
        ("data_hash", draws.data_hash),
    ])
    return 0


def _cmd_forecast(args) -> int:
    _, aligned, x_design, draws = _load_for_reading(args)
    pred = forecast_predictive(draws, x_design[_row(aligned, args.date)],
                               RngHandle(args.seed, stream=args.stream), LINKS[draws.link])
    rows = [("statistic", "value", "censored")]
    for tau in args.taus:
        q = quantile_from_cdf(pred, tau)
        rows.append((f"q{tau:g}", float(q), "yes" if q.censored else "no"))
    rows.append(("mean", distribution_mean(pred), "no"))
    _print_rows(rows)
    return 0


def _conditioning_cdf(args, aligned, x_design, draws) -> ConditionalCdf:
    link = LINKS[draws.link]
    t = _row(aligned, args.date)
    if args.predictive:
        return forecast_predictive(
            draws, x_design[t], RngHandle(args.seed, stream=args.stream), link
        )
    return conditional_cdf(draws, x_design[t], t, link)


def _cmd_risk(args) -> int:
    _, aligned, x_design, draws = _load_for_reading(args)
    cdf = _conditioning_cdf(args, aligned, x_design, draws)
    spec = RiskSpec(lower_target=args.lower, upper_target=args.upper,
                    alpha=args.alpha, gamma=args.gamma)
    dr = deflation_risk(cdf, spec.lower_target, spec.alpha)
    eir = excess_inflation_risk(cdf, spec.upper_target, spec.gamma)
    dr0 = deflation_risk(cdf, spec.lower_target, 0.0)
    eir0 = excess_inflation_risk(cdf, spec.upper_target, 0.0)
    rows = [
        ("measure", "value"),
        (f"deflation_risk(target={spec.lower_target:g},alpha={spec.alpha:g})", dr),
        (f"excess_inflation_risk(target={spec.upper_target:g},gamma={spec.gamma:g})", eir),
        ("target_range_mass", 1.0 + dr0 - eir0),
        ("mean", distribution_mean(cdf)),
    ]
    for probe in args.probes:
        rows.append((f"p_above_{probe:g}", 1.0 - float(cdf_interpolate(cdf, probe))))
    _print_rows(rows)
    return 0


def _cmd_counterfactual(args) -> int:
    # derived columns (ugap, inflation) are computed at load and never
    # recomputed, so only a covariate column itself carries a shift
    if args.variable not in args.covariates:
        raise ValueError(f"--variable {args.variable!r} is not one of the covariates "
                         f"({','.join(args.covariates)}); shifting it would leave the "
                         "design unchanged")
    ds, aligned, x_design, draws = _load_for_reading(args)
    link = LINKS[draws.link]
    shifted = ds.with_shift(args.variable, args.delta, (args.start, args.end))
    aligned_s, x_design_s = _aligned_design(args, shifted, draws.design_transform)
    if aligned_s.origin_dates != aligned.origin_dates:
        raise ValueError("shifted dataset no longer aligns with the baseline sample")
    t = _row(aligned, args.date)
    base = conditional_cdf(draws, x_design[t], t, link)
    counter = conditional_cdf(draws, x_design_s[t], t, link)
    table = compare_distributions(base, counter, probes=args.probes)
    rows = [("statistic",) + tuple(r.label for r in table)]
    rows.append(("mean",) + tuple(r.mean for r in table))
    for probe in args.probes:
        rows.append((f"p_above_{probe:g}",) + tuple(r.exceedance[probe] for r in table))
    _print_rows(rows)
    return 0


def _cmd_evaluate(args) -> int:
    ds = _load_dataset(args)
    aligned, x_design = _aligned_design(args, ds, args.design_transform)
    spec = _build_spec(args, aligned, x_design)
    plan = BacktestPlan(
        initial_start=args.initial_start,
        initial_end=args.initial_end,
        horizon=args.horizon,
        refit_every=args.refit_every,
        taus=args.taus,
        score_variant=args.variant,
        lag=args.lag,
    )
    result = expanding_window_backtest(
        plan, spec, ds, args.covariates, RngHandle(args.seed),
        out_path=args.out, workers=args.workers,
    )
    rows = [("records", len(result.records)), ("failures", len(result.failures))]
    if result.records:
        pits = np.array([r.pit for r in result.records])
        rows.append(("mean_pit", float(pits.mean())))
        rows.append(("pit_band_95", pit_uniformity_band(len(pits), 0.95, RngHandle(args.seed))))
        for tau in plan.taus:
            hits = np.array([r.realized <= r.quantiles[tau] for r in result.records])
            score = np.array([r.scores[tau] for r in result.records])
            rows.append((f"coverage_{tau:g}", float(hits.mean())))
            rows.append((f"mean_score_{tau:g}", float(score.mean())))
    _print_rows(rows)
    return 0


def _cmd_plotdata(args) -> int:
    with open(args.records, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines:
        raise ValueError(f"{args.records}: empty records file")
    header = lines[0].split("\t")
    if header[:3] != ["date", "realized", "pit"]:
        raise ValueError(f"{args.records}: not a backtest records file")
    cdf_cols = [i for i, name in enumerate(header) if name.startswith("cdf_")]
    if not cdf_cols:
        raise ValueError(f"{args.records}: no cdf_* columns to rebuild curves from")
    points = np.array([float(header[i][4:]) for i in cdf_cols])
    step = float(points[1] - points[0]) if points.size > 1 else 1.0
    grid = ThresholdGrid(points=points, min_value=float(points[0]),
                         max_value=float(points[-1]), step=step)

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write("date\tseries\tvalue\n")
        for ln in lines[1:]:
            cells = ln.split("\t")
            date = cells[0]
            values = np.array([float(cells[i]) for i in cdf_cols])
            cdf = ConditionalCdf(grid=grid, values=np.maximum.accumulate(values),
                                 x=np.zeros(1), time_index=date)
            out.write(f"{date}\trealized\t{_fmt(float(cells[1]))}\n")
            out.write(f"{date}\tpit\t{_fmt(float(cells[2]))}\n")
            for tau in args.taus:
                q = quantile_from_cdf(cdf, tau)
                out.write(f"{date}\tq{tau:g}\t{_fmt(float(q))}\n")
    finally:
        if args.out:
            out.close()
    return 0


def _estimate_options(p: argparse.ArgumentParser):
    _add_data_options(p)
    _add_model_options(p)
    p.add_argument("--out", required=True, help="estimate directory to write")
    p.set_defaults(func=_cmd_estimate)


def _forecast_options(p: argparse.ArgumentParser):
    _add_data_options(p)
    p.add_argument("--estimate", required=True, help="directory written by estimate")
    p.add_argument("--date", help="forecast origin quarter (default: last aligned row)")
    p.add_argument("--taus", type=_comma_floats, default=(0.05, 0.5, 0.95))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=_cmd_forecast)


def _risk_options(p: argparse.ArgumentParser):
    _add_data_options(p)
    p.add_argument("--estimate", required=True)
    p.add_argument("--date", help="conditioning quarter (default: last aligned row)")
    p.add_argument("--predictive", action="store_true",
                   help="use the one-step-ahead curve from the --date row instead of "
                        "that quarter's in-sample curve")
    p.add_argument("--lower", type=float, default=1.0)
    p.add_argument("--upper", type=float, default=3.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--probes", type=_comma_floats, default=DEFAULT_PROBES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=_cmd_risk)


def _counterfactual_options(p: argparse.ArgumentParser):
    _add_data_options(p)
    p.add_argument("--estimate", required=True)
    p.add_argument("--variable", required=True, help="series to shift")
    p.add_argument("--delta", type=float, required=True, help="amount added to the series")
    p.add_argument("--start", required=True, help="first shifted quarter")
    p.add_argument("--end", required=True, help="last shifted quarter")
    p.add_argument("--date", help="conditioning quarter (default: last aligned row)")
    p.add_argument("--probes", type=_comma_floats, default=DEFAULT_PROBES)
    p.set_defaults(func=_cmd_counterfactual)


def _evaluate_options(p: argparse.ArgumentParser):
    _add_data_options(p)
    _add_model_options(p)
    p.add_argument("--initial-start", required=True, help="first training quarter")
    p.add_argument("--initial-end", required=True, help="first forecast origin quarter")
    p.add_argument("--refit-every", type=int, default=1)
    p.add_argument("--taus", type=_comma_floats, default=(0.05, 0.95))
    p.add_argument("--variant", choices=SCORE_VARIANTS, default="standard")
    p.add_argument("--out", help="records TSV, appended to and resumed from")
    p.add_argument("--workers", type=int, help="refit blocks in parallel (or TVPDR_THREADS)")
    p.set_defaults(func=_cmd_evaluate)


def _plotdata_options(p: argparse.ArgumentParser):
    p.add_argument("--records", required=True, help="TSV written by evaluate")
    p.add_argument("--taus", type=_comma_floats, default=(0.05, 0.5, 0.95))
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_plotdata)


# name -> (help, function adding the command's options and its handler)
COMMANDS = {
    "estimate": ("fit the model and store the draws", _estimate_options),
    "forecast": ("one-step-ahead predictive distribution", _forecast_options),
    "risk": ("target-range risk measures from a stored estimate", _risk_options),
    "counterfactual": ("same draws, shifted covariate path", _counterfactual_options),
    "evaluate": ("expanding-window out-of-sample backtest", _evaluate_options),
    "plotdata": ("tidy plotting series from a records file", _plotdata_options),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The tvpdr parser; with ``command`` only that subcommand's parser is built.

    Either parser turns that command's argv into the same namespace and
    prints the same usage errors.
    """
    parser = argparse.ArgumentParser(
        prog="tvpdr",
        description="Time-varying-parameter distributional regression for inflation risk.",
    )
    # an unrecognized-arguments error prints the top-level usage, which lists
    # every command even when only one subparser exists
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_text, add_options = COMMANDS[name]
        add_options(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a process runs one command: building the other five parsers is waste
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, StoreError, OSError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
