"""Quarterly macro data: CSV ingestion, transforms, and model alignment.

Series come in as named columns against a contiguous quarterly date axis.
Each column carries a transform code (1 level, 2 first difference, 3 second
difference, 4 log, 5 log first difference, 6 log second difference); the
annualized h-quarter inflation rate of a price index and the unemployment
gap are computed columns, not ingested ones. All trimming from differencing
shows up as leading missing values, so alignment can demand complete rows.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace

import numpy as np

from .samplers import _count, _integer

__all__ = [
    "QuarterAxis",
    "MacroDataset",
    "AlignedDesign",
    "parse_quarter",
    "format_quarter",
    "apply_transform",
    "inflation",
    "load_csv",
    "load_schema",
    "assemble_design",
]

_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")

TRANSFORM_CODES = (1, 2, 3, 4, 5, 6)


def parse_quarter(label: str) -> int:
    """Quarter label YYYYQn to a consecutive integer index."""
    m = _QUARTER_RE.match(label.strip())
    if not m:
        raise ValueError(f"malformed quarter label {label!r} (want e.g. 1984Q3)")
    return 4 * int(m.group(1)) + int(m.group(2)) - 1


def format_quarter(index: int) -> str:
    return f"{index // 4:04d}Q{index % 4 + 1}"


class QuarterAxis(tuple):
    """Quarter labels checked to be consecutive: ``MacroDataset`` wraps the
    axis it checked and ``load_csv`` the labels its row loop checked, so a
    dataset derived by ``replace()`` keeps its parent's axis unparsed."""

    __slots__ = ()


def apply_transform(values: np.ndarray, code: int, name: str = "series") -> np.ndarray:
    """Apply one transform code; differencing leaves leading NaNs in place."""
    x, code = np.asarray(values, dtype=np.float64), _integer("code", code)
    if code not in TRANSFORM_CODES:
        raise ValueError(f"unknown transform code {code} for {name}")
    if code in (4, 5, 6):
        if np.any(x[np.isfinite(x)] <= 0.0):
            raise ValueError(f"log transform of non-positive values in {name}")
        x = np.log(x)  # NaN passes through
    order = {1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 2}[code]
    for _ in range(order):
        out = np.full_like(x, np.nan)
        out[1:] = x[1:] - x[:-1]
        x = out
    return x


def inflation(prices: np.ndarray, horizon: int) -> np.ndarray:
    """Annualized h-quarter log inflation (400/h) ln(P_t / P_{t-h}).

    The first h entries are NaN; prices must be positive where observed.
    """
    horizon = _count("horizon", horizon)
    p = np.asarray(prices, dtype=np.float64)
    if np.any(p[np.isfinite(p)] <= 0.0):
        raise ValueError("price index must be strictly positive")
    out = np.full_like(p, np.nan)
    out[horizon:] = (400.0 / horizon) * (np.log(p[horizon:]) - np.log(p[:-horizon]))
    return out


@dataclass
class MacroDataset:
    """Named quarterly series on one contiguous date axis. NaN = missing."""

    dates: tuple
    series: dict
    codes: dict
    target: str | None = None
    horizon: int | None = None

    def __post_init__(self):
        if self.horizon is not None:  # replace() checks a new horizon here too
            self.horizon = _count("horizon", self.horizon)
        if not isinstance(self.dates, QuarterAxis):  # a bad axis raises every time
            idx = [parse_quarter(d) for d in self.dates]
            for a, b, lbl in zip(idx, idx[1:], self.dates[1:]):
                if b != a + 1:
                    raise ValueError(f"date axis has a gap or disorder before {lbl}")
            self.dates = QuarterAxis(self.dates)
        n = len(self.dates)
        for name, vals in self.series.items():
            if np.asarray(vals).shape != (n,):
                raise ValueError(f"series {name} does not span the date axis")

    @property
    def n(self) -> int:
        return len(self.dates)

    def index_of(self, label: str) -> int:
        offset = parse_quarter(label) - parse_quarter(self.dates[0])
        if not 0 <= offset < self.n:
            raise ValueError(f"quarter {label} outside the sample "
                             f"{self.dates[0]}..{self.dates[-1]}")
        return offset

    def transformed(self, name: str) -> np.ndarray:
        if name not in self.series:
            raise ValueError(f"unknown series {name!r}")
        return apply_transform(self.series[name], self.codes.get(name, 1), name)

    def with_inflation(self, price_column: str, horizon: int) -> "MacroDataset":
        """Add the computed inflation ``infl_<price>_<horizon>q`` and mark it as the target."""
        if price_column not in self.series:
            raise ValueError(f"unknown price series {price_column!r}")
        name = f"infl_{price_column}_{horizon}q"
        series = dict(self.series)
        codes = dict(self.codes)
        series[name] = inflation(self.series[price_column], horizon)
        codes[name] = 1
        return replace(self, series=series, codes=codes, target=name, horizon=horizon)

    def with_unemployment_gap(self) -> "MacroDataset":
        """Add ``ugap``, UNRATE - NROU, as a computed column."""
        for col in ("UNRATE", "NROU"):
            if col not in self.series:
                raise ValueError(f"unknown series {col!r}")
        series = dict(self.series)
        codes = dict(self.codes)
        series["ugap"] = np.asarray(self.series["UNRATE"], dtype=np.float64) - np.asarray(
            self.series["NROU"], dtype=np.float64
        )
        codes["ugap"] = 1
        return replace(self, series=series, codes=codes)

    def with_shift(self, variable: str, delta: float, periods) -> "MacroDataset":
        """Copy with ``variable`` shifted by delta over inclusive period range."""
        if variable not in self.series:
            raise ValueError(f"unknown series {variable!r}")
        if not np.isfinite(delta):
            raise ValueError(f"shift delta must be finite, got {delta} for {variable!r}")
        start, end = periods
        i0 = self.index_of(start)
        i1 = self.index_of(end)
        if i1 < i0:
            raise ValueError(f"period range {start}..{end} is reversed")
        series = dict(self.series)
        shifted = np.array(self.series[variable], dtype=np.float64, copy=True)
        shifted[i0 : i1 + 1] += float(delta)
        series[variable] = shifted
        return replace(self, series=series)


def load_schema(path) -> dict:
    """Transform-code schema: UTF-8 lines ``name=<code>``, # comments allowed."""
    schema = {}
    with open(path, encoding="utf-8-sig") as fh:  # drops a byte-order mark
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected name=<code>")
            name, _, code = line.partition("=")
            name = name.strip()
            try:
                codeval = int(code.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: transform code must be an integer") from None
            if codeval not in TRANSFORM_CODES:
                raise ValueError(f"{path}:{lineno}: transform code {codeval} out of range 1..6")
            if name in schema:
                raise ValueError(f"{path}:{lineno}: duplicate schema entry {name!r}")
            schema[name] = codeval
    return schema


def load_csv(path, schema: dict | None = None) -> MacroDataset:
    """Read a quarterly CSV: first column ``date`` as YYYYQn, then series.

    Empty cells are missing values. Dates must be strictly increasing and
    contiguous. Columns missing from the schema default to transform code 1;
    schema entries that name absent columns are an error. When both UNRATE
    and NROU are present, the computed unemployment gap column ``ugap`` is
    added automatically.
    """
    schema = dict(schema or {})
    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[0].strip().lower() != "date":
            raise ValueError(f"{path}: first column must be 'date'")
        names = [h.strip() for h in header[1:]]
        if len(set(names)) != len(names):
            dupe = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"{path}: duplicate column {dupe!r}")
        dates = []
        prev = None  # quarter index of the previous row
        columns = [[] for _ in names]
        for rowno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names) + 1:
                raise ValueError(f"{path}:{rowno}: expected {len(names) + 1} cells, got {len(row)}")
            label = row[0].strip()
            idx = parse_quarter(label)
            if prev is not None and idx <= prev:
                raise ValueError(f"{path}:{rowno}: dates out of order at {label}")
            if prev is not None and idx != prev + 1:
                raise ValueError(f"{path}:{rowno}: missing quarter before {label}")
            dates.append(label)
            prev = idx
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                if not cell:
                    columns[j].append(np.nan)
                    continue
                try:
                    columns[j].append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{rowno}: non-numeric value {cell!r} in column {names[j]}"
                    ) from None
        if not dates:
            raise ValueError(f"{path}: no data rows")

    for key in schema:
        if key not in names:
            raise ValueError(f"schema references absent column {key!r}")
    series = {n: np.asarray(col, dtype=np.float64) for n, col in zip(names, columns)}
    codes = {n: schema.get(n, 1) for n in names}
    data = MacroDataset(dates=QuarterAxis(dates), series=series, codes=codes)  # checked above
    if "UNRATE" in series and "NROU" in series:
        data = data.with_unemployment_gap()
    return data


@dataclass
class AlignedDesign:
    """Model-ready rows: y holds the target realized ``offset`` quarters
    after the covariates in the same row."""

    y: np.ndarray
    x: np.ndarray              # (T, 1 + len(covariates)), intercept first
    origin_dates: tuple
    outcome_dates: tuple
    offset: int


def assemble_design(dataset: MacroDataset, covariates, lag: int = 1) -> AlignedDesign:
    """Pair transformed covariates at t with the target at t + offset.

    ``offset`` is horizon + (lag - 1): the target is the h-quarter-ahead
    inflation rate, and lag > 1 pushes the covariates further back. Rows
    where any required value is missing are dropped from the front; interior
    gaps are an error because the state equation indexes rows as consecutive
    quarters.
    """
    if dataset.target is None or dataset.horizon is None:
        raise ValueError("dataset has no inflation target; call with_inflation first")
    offset = dataset.horizon + (_count("lag", lag) - 1)
    n = dataset.n

    cols = [dataset.transformed(c) for c in covariates]
    tgt = dataset.series[dataset.target]

    ok = np.ones(n - offset if n > offset else 0, dtype=bool)
    if ok.size == 0:
        raise ValueError("sample too short for the requested horizon and lag")
    for c in cols:
        ok &= np.isfinite(c[: n - offset])
    ok &= np.isfinite(tgt[offset:])
    if not ok.any():
        raise ValueError("no complete aligned rows")
    first = int(np.argmax(ok))
    if not ok[first:].all():
        gap = first + int(np.argmin(ok[first:]))
        raise ValueError(
            f"interior missing data breaks the quarterly clock at {dataset.dates[gap]}"
        )

    x = np.column_stack([np.ones(n - offset - first)] + [c[first : n - offset] for c in cols])
    return AlignedDesign(
        y=tgt[first + offset :].copy(),
        x=np.ascontiguousarray(x),
        origin_dates=dataset.dates[first : n - offset],
        outcome_dates=dataset.dates[first + offset :],
        offset=offset,
    )
