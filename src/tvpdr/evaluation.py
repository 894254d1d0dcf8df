"""Out-of-sample evaluation: PIT, quantile scores, expanding-window backtest.

The backtest walks forecast origins in calendar order, refitting every few
origins and forecasting one step ahead from each origin's own covariates.
Every origin draws from its own named random stream, so records do not
depend on which origins ran before them; that is what makes the record file
resumable after a crash and identical under parallel execution. A sidecar
next to the records file names what they were computed from, so a resume
with another spec, seed, data, covariate set, plan or predictive draw is
refused.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import MacroDataset, assemble_design, parse_quarter
from .distribution import (
    PREDICTIVE_DRAW,
    ThresholdGrid,
    build_threshold_grid,
    cdf_interpolate,
    forecast_predictive,
    quantile_from_cdf,
)
from .model import LINKS, ModelSpec, apply_design_transform, hash_data, run_gibbs
from .samplers import RngHandle

__all__ = [
    "BacktestPlan",
    "BacktestRecord",
    "BacktestResult",
    "pit",
    "pit_uniformity_band",
    "quantile_score",
    "expanding_window_backtest",
]

SCORE_VARIANTS = ("standard", "one_sided")

# Forecast streams live far away from refit streams so the two families can
# never collide however many origins there are.
_FORECAST_STREAM_BASE = 2**32


def pit(cdf, realization: float) -> float:
    """Probability integral transform: the CDF at the realized value.

    Linear between thresholds with the boundary extension, hence 0 below
    one step under the grid and 1 above one step over it.
    """
    return float(cdf_interpolate(cdf, float(realization)))


def pit_uniformity_band(n: int, level: float = 0.95, rng=None, sims: int = 10000) -> float:
    """Half-width of the sup-norm band for a uniform PIT ECDF with n points.

    Simulates ``sims`` iid-uniform samples of size n and returns the
    ``level`` quantile of the Kolmogorov statistic, i.e. the constant band
    around the 45-degree line. For n = 100 at the 95% level this lands near
    0.134 (the asymptotic value is 1.3581 / sqrt(n)).
    """
    if n < 1:
        raise ValueError("need at least one evaluation point")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be inside (0, 1)")
    handle = rng if rng is not None else RngHandle(0)
    gen = handle.rng if isinstance(handle, RngHandle) else handle
    u = gen.random((sims, n))
    u.sort(axis=1)
    i = np.arange(1, n + 1)
    upper = (i / n - u).max(axis=1)
    lower = (u - (i - 1) / n).max(axis=1)
    stat = np.maximum(upper, lower)
    return float(np.quantile(stat, level))


def quantile_score(realization: float, qhat: float, tau: float, variant: str = "standard") -> float:
    """Pinball loss of a tau-quantile forecast, or the one-sided variant.

    ``standard`` is (y - q)(tau - 1{y <= q}); ``one_sided`` keeps the
    asymmetric form (y - q) 1{y <= q} exactly as sometimes printed, which is
    not a proper score but is reported for comparability.
    """
    if variant not in SCORE_VARIANTS:
        raise ValueError(f"unknown quantile score variant {variant!r}")
    hit = 1.0 if realization <= qhat else 0.0
    if variant == "one_sided":
        return float((realization - qhat) * hit)
    return float((realization - qhat) * (tau - hit))


@dataclass(frozen=True)
class BacktestPlan:
    """Evaluation design: window, refit cadence, and scored quantiles.

    ``lag`` is the covariate lag the rows are aligned with, as in
    ``assemble_design``.
    """

    initial_start: str
    initial_end: str
    horizon: int = 1
    refit_every: int = 1
    taus: tuple = (0.05, 0.95)
    score_variant: str = "standard"
    lag: int = 1

    def __post_init__(self):
        if parse_quarter(self.initial_start) >= parse_quarter(self.initial_end):
            raise ValueError("initial window must start before it ends")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        if self.lag < 1:
            raise ValueError("lag must be >= 1")
        taus = tuple(sorted(float(t) for t in self.taus))
        if not taus or any(not 0.0 < t < 1.0 for t in taus):
            raise ValueError("taus must be a non-empty set inside (0, 1)")
        object.__setattr__(self, "taus", taus)
        if self.score_variant not in SCORE_VARIANTS:
            raise ValueError(f"unknown quantile score variant {self.score_variant!r}")


@dataclass
class BacktestRecord:
    """One scored forecast origin."""

    origin: str
    date: str
    realized: float
    pit: float
    quantiles: dict
    scores: dict
    cdf: np.ndarray  # on the report grid


@dataclass
class BacktestResult:
    records: list
    failures: list          # (origin date, message) for skipped refits
    report_grid: ThresholdGrid
    taus: tuple


def _tsv_columns(taus, grid: ThresholdGrid):
    cols = ["date", "realized", "pit"]
    cols += [f"qs_{int(round(100 * t)):02d}" for t in taus]
    # repr round-trips exactly, so plot tooling can rebuild the grid from the header
    cols += [f"cdf_{float(y)!r}" for y in grid.points]
    return cols


def _record_row(rec: BacktestRecord, taus) -> list:
    vals = [rec.date, format(rec.realized, ".12g"), format(rec.pit, ".12g")]
    vals += [format(rec.scores[t], ".12g") for t in taus]
    vals += [format(v, ".12g") for v in rec.cdf]
    return vals


def _records_meta(plan: BacktestPlan, spec: ModelSpec, aligned, covariates, seed: int) -> str:
    """Sidecar text: everything the records depend on, as sorted JSON.

    The worker count is left out, since records are identical for any.
    """
    meta = {
        "covariates": list(covariates),
        "data_hash": hash_data(aligned.y, aligned.x),
        "predictive": PREDICTIVE_DRAW,
        "seed": seed,
        "spec_hash": spec.spec_hash(),
        **{f"plan.{name}": value for name, value in asdict(plan).items()},
    }
    return json.dumps(meta, sort_keys=True, indent=1) + "\n"


def _check_meta(out_path, meta: str):
    """Refuse to resume records whose sidecar is missing or differs from ``meta``."""
    meta_path = out_path + ".meta"
    try:
        with open(meta_path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{out_path}: no {meta_path} saying what these records were "
                         "computed from; refusing to resume") from None
    except json.JSONDecodeError:
        raise ValueError(f"{meta_path}: unreadable records sidecar") from None
    if not isinstance(stored, dict):
        raise ValueError(f"{meta_path}: unreadable records sidecar")
    want = json.loads(meta)
    differ = sorted(k for k in want.keys() | stored.keys() if want.get(k) != stored.get(k))
    if differ:
        raise ValueError(f"{out_path}: existing records were computed with a different "
                         f"{', '.join(differ)}; refusing to resume")


def _load_done(out_path, expected_header: list, meta: str) -> set:
    """Dates already recorded; trims any torn trailing row from a crash.

    The layout and the sidecar are checked before anything is rewritten.
    """
    if not os.path.exists(out_path):
        return set()
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0].split("\t") != expected_header:
        raise ValueError(f"{out_path}: existing records use a different layout")
    _check_meta(out_path, meta)
    rows = [ln for ln in lines[1:] if ln]
    good = [ln for ln in rows if len(ln.split("\t")) == len(expected_header)]
    if len(good) != len(rows) or (lines and lines[-1] != ""):
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(expected_header) + "\n")
            for ln in good:
                fh.write(ln + "\n")
    return {ln.split("\t", 1)[0] for ln in good}


def _last_quarter(kept: int, k: int, t_len: int, d: int):
    """``run_gibbs`` buffers for the final quarter of each kept path only:
    a block's forecasts read nothing else."""
    return np.empty((kept, k, 1, d)), np.empty((kept, k, d))


def _run_block(payload) -> tuple:
    """Fit once, forecast each origin in the block. Top level so it pickles."""
    (spec, y, x_raw, x_design, train_lo, train_hi, origin_rows, origin_dates,
     outcome_dates, report_points, taus, variant, seed, block_stream) = payload
    link = LINKS[spec.link]
    records, failures = [], []
    y_train = y[train_lo : train_hi + 1]
    x_train = x_raw[train_lo : train_hi + 1]
    try:
        grid = build_threshold_grid(float(y_train.min()), float(y_train.max()), spec.grid.step)
        spec_fit = replace(spec, grid=grid)
        draws = run_gibbs(spec_fit, (y_train, x_train), RngHandle(seed, stream=block_stream),
                          buffers=_last_quarter)
    except Exception as exc:
        for i in origin_rows:
            failures.append((origin_dates[i], f"refit failed: {exc}"))
        return records, failures
    for i in origin_rows:
        pred = forecast_predictive(
            draws, x_design[i], RngHandle(seed, stream=_FORECAST_STREAM_BASE + i), link
        )
        quantiles = {t: float(quantile_from_cdf(pred, t)) for t in taus}
        scores = {t: quantile_score(float(y[i]), quantiles[t], t, variant) for t in taus}
        records.append(
            BacktestRecord(
                origin=origin_dates[i],
                date=outcome_dates[i],
                realized=float(y[i]),
                pit=pit(pred, float(y[i])),
                quantiles=quantiles,
                scores=scores,
                cdf=np.asarray(cdf_interpolate(pred, report_points)),
            )
        )
    return records, failures


def expanding_window_backtest(
    plan: BacktestPlan,
    spec: ModelSpec,
    data: MacroDataset,
    covariates,
    rng,
    out_path=None,
    workers: int | None = None,
) -> BacktestResult:
    """Walk origins from the end of the initial window to the sample's edge.

    Each refit re-estimates from scratch on all rows whose outcome was known
    at the origin (expanding, fixed start), with the threshold grid rebuilt
    from that training sample's range at the template's step. Records are
    appended to ``out_path`` as they complete; rerunning with an existing
    file skips finished origins, so an interrupted run resumes where it
    stopped and ends with the identical file. A fresh file gets the sidecar
    ``out_path + ".meta"``: sorted JSON with the spec hash, the hash of the
    aligned (y, x), the seed, the covariates, the plan and the predictive
    draw scheme (``distribution.PREDICTIVE_DRAW``). A resume whose
    sidecar is missing or differs is refused with a ValueError naming the
    keys that differ. ``workers`` above 1 (default from TVPDR_THREADS) fans
    refit blocks out to processes; per-origin streams keep the output
    byte-identical either way.
    """
    if isinstance(rng, RngHandle):
        seed = int(rng.seed)
    elif isinstance(rng, (int, np.integer)):
        seed = int(rng)
    else:
        raise TypeError("rng must be an RngHandle or an integer seed")
    if plan.horizon != data.horizon:
        raise ValueError(f"plan horizon {plan.horizon} != dataset horizon {data.horizon}")

    aligned = assemble_design(data, covariates, lag=plan.lag)
    x_design = apply_design_transform(aligned.x, spec.design_transform)
    if x_design.shape[1] != spec.d:
        raise ValueError(f"design has {x_design.shape[1]} columns, spec says {spec.d}")

    origin_q = np.array([parse_quarter(d) for d in aligned.origin_dates])
    start_q = parse_quarter(plan.initial_start)
    end_q = parse_quarter(plan.initial_end)
    candidates = np.nonzero(origin_q >= start_q)[0]
    if candidates.size == 0:
        raise ValueError("initial window start is after every aligned row")
    train_lo = int(candidates[0])
    origins = [int(i) for i in np.nonzero(origin_q >= end_q)[0]]
    if not origins:
        raise ValueError("no forecast origins at or after the initial window end")
    first_train_len = origins[0] - aligned.offset - train_lo + 1
    if first_train_len < 8:
        raise ValueError(
            f"initial window holds {max(first_train_len, 0)} observations; need at least 8"
        )

    columns = _tsv_columns(plan.taus, spec.grid)
    done = set()
    sink = None
    if out_path is not None:
        out_path = os.fspath(out_path)
        meta = _records_meta(plan, spec, aligned, covariates, seed)
        done = _load_done(out_path, columns, meta)
        fresh = not os.path.exists(out_path)
        if fresh:  # the sidecar goes first, so records never exist without one
            with open(out_path + ".meta", "w", encoding="utf-8") as fh:
                fh.write(meta)
        sink = open(out_path, "a", encoding="utf-8")
        if fresh:
            sink.write("\t".join(columns) + "\n")
            sink.flush()

    blocks = [origins[b : b + plan.refit_every] for b in range(0, len(origins), plan.refit_every)]
    payloads = []
    for bi, block in enumerate(blocks):
        if all(aligned.outcome_dates[i] in done for i in block):
            continue
        payloads.append((
            spec, aligned.y, aligned.x, x_design, train_lo, block[0] - aligned.offset,
            block, aligned.origin_dates, aligned.outcome_dates, spec.grid.points,
            plan.taus, plan.score_variant, seed, 1 + bi,
        ))

    if workers is None:
        workers = int(os.environ.get("TVPDR_THREADS", "1") or 1)
    workers = max(1, workers)

    records, failures = [], []

    def _consume(block_records, block_failures):
        for msg in block_failures:
            failures.append(msg)
            print(f"refit skipped at {msg[0]}: {msg[1]}", file=sys.stderr)
        for rec in block_records:
            records.append(rec)
            if sink is not None and rec.date not in done:
                sink.write("\t".join(_record_row(rec, plan.taus)) + "\n")
                sink.flush()

    try:
        if workers == 1 or len(payloads) <= 1:
            for payload in payloads:
                _consume(*_run_block(payload))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_block, p) for p in payloads]
                for fut in futures:  # submission order keeps the file deterministic
                    _consume(*fut.result())
    finally:
        if sink is not None:
            sink.close()

    records.sort(key=lambda r: parse_quarter(r.origin))
    return BacktestResult(records=records, failures=failures, report_grid=spec.grid, taus=plan.taus)
