"""Out-of-sample evaluation: PIT, quantile scores, expanding-window backtest.

The PIT uniformity band is the exact Kolmogorov quantile in closed form
(Miller 1956), so an evaluation's printed band has no seed and no Monte
Carlo error.

The backtest walks forecast origins in calendar order, refitting every few
origins and forecasting each origin from its own covariates, as many steps
past the fit's last state as the origin lies beyond it.
Every refit block draws from its own named stream of the spec's seed and
the predictive curve takes no random numbers, so records do not depend on
which blocks ran before them; that is what makes the record file
resumable after a crash and identical under parallel execution. A sidecar
next to the records file names what they were computed from, so a resume
with another spec, seed, data, covariate set, plan, draw scheme or
predictive scheme is refused.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np
from scipy.special import smirnovi

from .data import MacroDataset, assemble_design, parse_quarter
from .distribution import (
    PREDICTIVE_DRAW,
    ThresholdGrid,
    apply_design_transform,
    build_threshold_grid,
    cdf_interpolate,
    forecast_predictive,
    quantile_from_cdf,
)
from .model import ModelSpec, hash_data, run_gibbs
from .samplers import DRAW_SCHEME, _count

__all__ = [
    "BacktestPlan",
    "BacktestRecord",
    "BacktestResult",
    "pit",
    "pit_uniformity_band",
    "quantile_score",
    "expanding_window_backtest",
    "read_records",
]

SCORE_VARIANTS = ("standard", "one_sided")


def pit(cdf, realization: float) -> float:
    """Probability integral transform: the CDF at the realized value.

    Linear between thresholds with the boundary extension, hence 0 below
    one step under the grid and 1 above one step over it.
    """
    return float(cdf_interpolate(cdf, float(realization)))


def pit_uniformity_band(n: int, level: float = 0.95) -> float:
    """Half-width of the sup-norm band for a uniform PIT ECDF with n points.

    The ``level`` quantile of the two-sided Kolmogorov statistic D_n, i.e.
    the constant band around the 45-degree line. Following Miller (1956,
    JASA 51:111-121) it is the exact one-sided (Birnbaum-Tingey) point at
    (1 - level) / 2, which ``scipy.special.smirnovi`` inverts directly:
    nothing is simulated, so the band needs no seed. Against the exact
    two-sided quantile (``scipy.stats.kstwo.ppf``) the relative error is 0
    at n <= 2 and, over n = 1...2000, at most 2.2e-4 at level 0.8, 2.1e-5
    at 0.9, 2.1e-6 at 0.95 and 3.6e-6 at 0.99 (there the exact tail
    probability at the band is 0.01 to double precision, so that gap is
    the ppf's own). For n = 100 at the 95% level the band is 0.134028 (the
    asymptotic value is 1.3581 / sqrt(n)). ``n`` must be a positive
    integer count.
    """
    n = _count("n", n)
    if not 0.0 < level < 1.0:
        raise ValueError("level must be inside (0, 1)")
    return float(smirnovi(n, (1.0 - level) / 2.0))


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
    ``assemble_design``. ``refit_every`` and ``lag`` are counts (``samplers._count``):
    a bool or a float is refused, and a numpy integer is stored as a plain int.
    """

    initial_start: str
    initial_end: str
    refit_every: int = 1
    taus: tuple = (0.05, 0.95)
    lag: int = 1

    def __post_init__(self):
        if parse_quarter(self.initial_start) >= parse_quarter(self.initial_end):
            raise ValueError("initial window must start before it ends")
        for name in ("refit_every", "lag"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        taus = tuple(sorted(float(t) for t in self.taus))
        if not taus or any(not 0.0 < t < 1.0 for t in taus):
            raise ValueError("taus must be a non-empty set inside (0, 1)")
        for lo, hi in zip(taus, taus[1:]):  # sorted, so a repeated tau is adjacent
            if lo == hi:
                raise ValueError(f"taus {lo:g} and {hi:g} share the records column "
                                 f"{_tau_column(hi)}")
        object.__setattr__(self, "taus", taus)


@dataclass
class BacktestRecord:
    """One forecast origin: its outcome and the forecast every score reads."""

    date: str
    realized: float
    pit: float
    quantiles: dict         # tau -> quantile forecast
    cdf: np.ndarray  # on the report grid


@dataclass
class BacktestResult:
    records: list
    failures: list          # (origin date, message) for skipped refits


def _tau_column(tau: float) -> str:
    # repr round-trips exactly, as the cdf_ columns do: distinct taus never share a name
    return f"q_{tau!r}"


def _tsv_columns(taus, grid: ThresholdGrid):
    # repr round-trips exactly, so plot tooling can rebuild the grid from the header
    return ["date", "realized", "pit", *map(_tau_column, taus),
            *(f"cdf_{float(y)!r}" for y in grid.points)]


def _record_row(rec: BacktestRecord, taus) -> list:
    # repr of a Python float (not of a numpy scalar) reads back to the same bits
    exact = (rec.realized, rec.pit, *(rec.quantiles[t] for t in taus))
    return [rec.date, *(repr(float(v)) for v in exact), *(format(v, ".12g") for v in rec.cdf)]


def _column_number(name, col: str) -> float:
    """The finite number a ``q_`` or ``cdf_`` header cell names."""
    try:
        value = float(col.partition("_")[2])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name}: column {col!r} does not name a finite number")
    return value


def read_records(data: bytes, name) -> tuple:
    """The grid the trailing ``cdf_`` columns name and a record per row whose
    newline was written, from a records file's bytes; the unterminated tail a
    crash leaves is no row. Quantiles come from the ``q_`` columns (the ``qs_``
    scores of older files are dropped). A row of another width than the header,
    or with a cell after the date that is no finite number, is refused as
    ``name:line: ...``, and a header whose ``q_``/``cdf_`` columns are not
    finite numbers rising evenly as ``name: ...``."""
    lines = data.decode("utf-8").split("\n")
    header = lines[0].split("\t")
    n = sum(col.startswith("cdf_") for col in header)
    if header[:3] != ["date", "realized", "pit"] or not n or not all(
            col.startswith("cdf_") for col in header[-n:]):
        raise ValueError(f"{name}: not a backtest records file")
    points = np.array([_column_number(name, col) for col in header[-n:]])
    step = float(points[1] - points[0]) if n > 1 else 1.0
    try:
        grid = ThresholdGrid(points=points, min_value=float(points[0]),
                             max_value=float(points[-1]), step=step)
    except ValueError as err:  # thresholds out of order or unevenly spaced
        raise ValueError(f"{name}: cdf_ columns: {err}") from None
    taus = {j: _column_number(name, col) for j, col in enumerate(header) if col.startswith("q_")}
    records = []
    for line_no, line in enumerate(lines[1:-1], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ValueError(f"{name}:{line_no}: expected {len(header)} cells, got {len(cells)}")
        values = [cells[0]]
        for col, cell in zip(header[1:], cells[1:]):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{name}:{line_no}: {col} {cell!r} is not a finite number")
            values.append(value)
        records.append(BacktestRecord(date=cells[0], realized=values[1], pit=values[2],
                                      quantiles={tau: values[j] for j, tau in taus.items()},
                                      cdf=np.array(values[-n:])))
    return grid, records


def _records_meta(plan: BacktestPlan, spec: ModelSpec, aligned, covariates) -> str:
    """Sidecar text: everything the records depend on, as sorted JSON.

    The worker count is left out, since records are identical for any.
    """
    meta = {
        "covariates": list(covariates),
        "data_hash": hash_data(aligned.y, aligned.x),
        "draws": DRAW_SCHEME,
        "predictive": PREDICTIVE_DRAW,
        "seed": spec.seed,
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


def _load_done(out_path, expected_header: list, meta: str) -> list:
    """The records already written; cuts the unterminated tail a crash leaves.

    A row counts only once its newline is written. The layout, the sidecar
    and every complete row are checked before the file is touched.
    """
    if not os.path.exists(out_path):
        return []
    with open(out_path, "r+b") as fh:
        text = fh.read()
        if text.split(b"\n", 1)[0] != "\t".join(expected_header).encode():
            raise ValueError(f"{out_path}: existing records use a different layout")
        _check_meta(out_path, meta)
        done = read_records(text, out_path)[1]
        complete = text.rfind(b"\n") + 1
        if not complete:  # the header lost its newline: give it back
            fh.write(b"\n")
        elif complete < len(text):
            fh.truncate(complete)
    return done


def _last_quarter(kept: int, k: int, t_len: int, d: int):
    """``run_gibbs`` buffers for the final quarter of each kept path only:
    a block's forecasts read nothing else."""
    return np.empty((kept, k, 1, d)), np.empty((kept, k, d))


def _run_block(spec: ModelSpec, aligned, train_lo: int, plan: BacktestPlan, job) -> tuple:
    """Fit once on stream ``job[0]`` of ``spec.seed``, forecast each origin
    of block ``job[1]``.

    Top level so it pickles. Training rows run from ``train_lo`` to
    ``last``, the last row whose outcome was known at the block's first
    origin; beta_T is that row's state, and origin i lies i - last steps on.
    """
    stream, block = job
    last = block[0] - aligned.offset
    train = slice(train_lo, last + 1)
    y_train = aligned.y[train]
    try:
        grid = build_threshold_grid(float(y_train.min()), float(y_train.max()), spec.grid.step)
        draws = run_gibbs(replace(spec, grid=grid), (y_train, aligned.x[train]),
                          stream=stream, buffers=_last_quarter)
    except Exception as exc:
        return [], [(aligned.origin_dates[i], f"refit failed: {exc}") for i in block]
    records = []
    for i in block:
        realized = float(aligned.y[i])
        pred = forecast_predictive(draws, aligned.x[i], steps=i - last)
        records.append(
            BacktestRecord(
                date=aligned.outcome_dates[i],
                realized=realized,
                pit=pit(pred, realized),
                quantiles={t: float(quantile_from_cdf(pred, t)) for t in plan.taus},
                cdf=np.asarray(cdf_interpolate(pred, spec.grid.points)),
            )
        )
    return records, []


def expanding_window_backtest(
    plan: BacktestPlan,
    spec: ModelSpec,
    data: MacroDataset,
    covariates,
    *,
    out_path=None,
    workers: int = 1,
) -> BacktestResult:
    """Walk origins from the end of the initial window to the sample's edge.

    Refit block b draws on stream 1 + b of ``spec.seed``; the forecast
    horizon is ``data.horizon``.

    Each refit re-estimates from scratch on all rows whose outcome was known
    at the origin (expanding, fixed start), with the threshold grid rebuilt
    from that training sample's range at the template's step. Records are
    appended to ``out_path``, whose directory is created if missing, in
    origin order as they complete. Rerunning with an existing file skips the
    refit blocks whose rows all ended with a newline, so an interrupted run
    resumes where it stopped and ends with the identical file. With
    ``out_path`` the result holds every record of that file, in file order:
    the rows read back, then the new ones. A fresh file gets the sidecar
    ``out_path + ".meta"``: sorted JSON with the spec hash, the hash of the
    aligned (y, x), ``spec.seed``, the covariates, the plan, the draw
    scheme (``samplers.DRAW_SCHEME``) and the predictive scheme
    (``distribution.PREDICTIVE_DRAW``). A resume whose sidecar is missing or
    differs is refused with a ValueError naming the keys that differ.
    ``workers`` above 1 fans refit blocks out to processes, whose fits draw
    each colour as one batch; otherwise the blocks run here, and each fit
    may fork a lane helper (``run_gibbs``). Per-block streams keep the
    output byte-identical either way. The process pool is imported only
    then. A worker count that is not an integer (TypeError) or is below 1
    (ValueError) is refused before anything is written.
    """
    workers = _count("workers", workers)

    aligned = assemble_design(data, covariates, lag=plan.lag)
    width = apply_design_transform(aligned.x[:1], spec.design_transform).shape[1]
    if width != spec.d:
        raise ValueError(f"design has {width} columns, spec says {spec.d}")

    origin_q = np.array([parse_quarter(d) for d in aligned.origin_dates])
    candidates = np.nonzero(origin_q >= parse_quarter(plan.initial_start))[0]
    if candidates.size == 0:
        raise ValueError("initial window start is after every aligned row")
    train_lo = int(candidates[0])
    origins = [int(i) for i in np.nonzero(origin_q >= parse_quarter(plan.initial_end))[0]]
    if not origins:
        raise ValueError("no forecast origins at or after the initial window end")
    first_train_len = origins[0] - aligned.offset - train_lo + 1
    if first_train_len < 8:
        raise ValueError(
            f"initial window holds {max(first_train_len, 0)} observations; need at least 8"
        )

    blocks = [origins[b : b + plan.refit_every] for b in range(0, len(origins), plan.refit_every)]
    records, failures = [], []
    with ExitStack() as stack:
        sink = None
        if out_path is not None:
            out_path = os.fspath(out_path)
            columns = _tsv_columns(plan.taus, spec.grid)
            meta = _records_meta(plan, spec, aligned, covariates)
            records = _load_done(out_path, columns, meta)
            if not os.path.exists(out_path):  # the sidecar first: records never lack one
                os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
                with open(out_path + ".meta", "w", encoding="utf-8") as fh:
                    fh.write(meta)
                with open(out_path, "w", encoding="utf-8") as fh:
                    fh.write("\t".join(columns) + "\n")
            sink = stack.enter_context(open(out_path, "a", encoding="utf-8"))

        done = {rec.date for rec in records}
        jobs = [(1 + b, block) for b, block in enumerate(blocks)
                if not all(aligned.outcome_dates[i] in done for i in block)]
        pool = workers > 1 and len(jobs) > 1
        run = partial(_run_block, spec, aligned, train_lo, plan)
        results = map(run, jobs)
        if pool:
            from concurrent.futures import ProcessPoolExecutor

            # map yields in submission order, which keeps the file deterministic
            results = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map(run, jobs)
        for block_records, block_failures in results:
            for origin, msg in block_failures:
                print(f"refit skipped at {origin}: {msg}", file=sys.stderr)
            failures += block_failures
            # a re-run block's rows that the file holds are neither written nor returned twice
            new = [rec for rec in block_records if rec.date not in done]
            records += new
            if sink is not None:
                sink.writelines("\t".join(_record_row(rec, plan.taus)) + "\n" for rec in new)
                sink.flush()
    return BacktestResult(records=records, failures=failures)
