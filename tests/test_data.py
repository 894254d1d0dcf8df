"""Quarter labels, transform codes, CSV ingestion, design alignment."""

from dataclasses import replace

import numpy as np
import pytest

import tvpdr.data
from tvpdr.data import (
    MacroDataset,
    QuarterAxis,
    apply_transform,
    assemble_design,
    format_quarter,
    inflation,
    load_csv,
    load_schema,
    parse_quarter,
)


def test_quarter_labels_round_trip():
    assert parse_quarter("1990Q1") == 4 * 1990
    assert parse_quarter("1990Q4") - parse_quarter("1990Q1") == 3
    assert parse_quarter("1991Q1") - parse_quarter("1990Q4") == 1
    for label in ("1959Q2", "2024Q4", "0001Q1"):
        assert format_quarter(parse_quarter(label)) == label
    for bad in ("1990q1", "1990Q5", "1990Q0", "199Q1", "1990-Q1"):
        with pytest.raises(ValueError):
            parse_quarter(bad)


def test_transform_codes():
    v = np.array([1.0, 2.0, 4.0, 8.0])
    assert np.array_equal(apply_transform(v, 1), v)
    d1 = apply_transform(v, 2)
    assert np.isnan(d1[0]) and np.allclose(d1[1:], [1.0, 2.0, 4.0])
    d2 = apply_transform(v, 3)
    assert np.all(np.isnan(d2[:2])) and np.allclose(d2[2:], [1.0, 2.0])
    lg = apply_transform(v, 4)
    assert np.allclose(lg, np.log(v))
    dl = apply_transform(v, 5)
    assert np.isnan(dl[0]) and np.allclose(dl[1:], np.log(2.0))
    ddl = apply_transform(v, 6)
    assert np.all(np.isnan(ddl[:2])) and np.allclose(ddl[2:], 0.0)
    with pytest.raises(ValueError):
        apply_transform(v, 7)
    with pytest.raises(ValueError, match="non-positive"):
        apply_transform(np.array([1.0, -1.0]), 5, "prices")


def test_inflation_annualized_log_difference():
    p = np.array([100.0, 101.0, 102.0, 103.0])
    pi1 = inflation(p, 1)
    assert np.isnan(pi1[0])
    assert np.allclose(pi1[1:], 400.0 * np.diff(np.log(p)))
    pi2 = inflation(p, 2)
    assert np.all(np.isnan(pi2[:2]))
    assert np.allclose(pi2[2:], 200.0 * (np.log(p[2:]) - np.log(p[:-2])))
    # a price level that doubles every quarter at horizon 4
    p2 = 100.0 * 2.0 ** np.arange(6)
    assert np.allclose(inflation(p2, 4)[4:], 100.0 * 4.0 * np.log(2.0))


def make_dates(start="2000Q1", n=12):
    i = parse_quarter(start)
    return tuple(format_quarter(i + k) for k in range(n))


def test_dataset_validates_axis():
    with pytest.raises(ValueError, match="gap"):
        MacroDataset(dates=("2000Q1", "2000Q3"), series={}, codes={})
    with pytest.raises(ValueError, match="span"):
        MacroDataset(dates=make_dates(n=3), series={"a": np.zeros(2)}, codes={})


def test_dataset_is_the_one_owner_of_the_horizon():
    # a horizon below 1 would pair the target with same-quarter or later
    # covariates; the dataset refuses it however it is set, replace() included
    ds = MacroDataset(dates=make_dates(n=6), series={"pi": np.arange(6.0)}, codes={})
    for bad, error, message in ((0, ValueError, "must be a positive integer, got 0"),
                                (-1, ValueError, "must be a positive integer, got -1"),
                                (True, TypeError, "must be an integer, got True"),
                                (1.5, TypeError, "must be an integer, got 1.5"),
                                ("1", TypeError, "must be an integer, got '1'")):
        with pytest.raises(error, match=f"horizon {message}"):
            MacroDataset(dates=ds.dates, series=ds.series, codes={}, target="pi", horizon=bad)
        with pytest.raises(error, match=f"horizon {message}"):
            replace(ds, target="pi", horizon=bad)
    assert replace(ds, target="pi", horizon=np.int64(2)).horizon == 2
    assert type(replace(ds, horizon=np.int64(2)).horizon) is int
    assert replace(ds, horizon=None).horizon is None


def test_axis_validation_fires_on_every_construction():
    # a good axis is validated once and reused; a bad one must raise every
    # time, also right after a good axis of the same length was accepted
    good = make_dates(n=4)
    gapped = good[:2] + (format_quarter(parse_quarter(good[2]) + 1),) + good[3:]
    disordered = (good[1], good[0]) + good[2:]
    for _ in range(2):
        MacroDataset(dates=good, series={"a": np.zeros(4)}, codes={})
        for bad, where in ((gapped, gapped[2]), (disordered, disordered[1])):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"gap or disorder before {where}"):
                    MacroDataset(dates=bad, series={"a": np.zeros(4)}, codes={})
    # a remembered axis still has its series checked against it
    with pytest.raises(ValueError, match="span"):
        MacroDataset(dates=good, series={"a": np.zeros(3)}, codes={})


def test_a_checked_axis_is_typed_and_passed_on(tmp_path, monkeypatch):
    # MacroDataset and load_csv wrap the axis they checked; derived datasets
    # take it as it is, and nothing parses a checked axis again
    ds = MacroDataset(dates=list(make_dates(n=4)), series={"P": np.arange(1.0, 5.0)},
                      codes={})
    assert isinstance(ds.dates, QuarterAxis) and ds.dates == make_dates(n=4)
    (tmp_path / "m.csv").write_text("date,P\n2000Q1,1\n2000Q2,2\n2000Q3,3\n")
    loaded = load_csv(tmp_path / "m.csv")
    assert isinstance(loaded.dates, QuarterAxis)

    parsed = []
    real = tvpdr.data.parse_quarter
    monkeypatch.setattr(tvpdr.data, "parse_quarter", lambda s: parsed.append(s) or real(s))
    derived = ds.with_inflation("P", 1).with_shift("P", 1.0, ("2000Q2", "2000Q3"))
    assert derived.dates is ds.dates and parsed == ["2000Q2", "2000Q1", "2000Q3", "2000Q1"]
    aligned = assemble_design(derived, ["P"])
    assert aligned.origin_dates == make_dates(n=3) and type(aligned.origin_dates) is tuple
    assert aligned.outcome_dates == make_dates(n=4)[1:]
    assert len(parsed) == 4  # the four index_of labels of with_shift


def test_with_inflation_and_gap_columns():
    n = 12
    ds = MacroDataset(
        dates=make_dates(n=n),
        series={"P": 100.0 * 1.005 ** np.arange(n),
                "UNRATE": np.linspace(6.0, 4.0, n),
                "NROU": np.full(n, 4.5)},
        codes={"P": 1, "UNRATE": 1, "NROU": 1},
    )
    ds2 = ds.with_inflation("P", 1)
    assert ds2.target == "infl_P_1q" and ds2.horizon == 1
    assert np.isclose(ds2.series["infl_P_1q"][1], 400.0 * np.log(1.005))
    ds3 = ds2.with_unemployment_gap()
    assert np.allclose(ds3.series["ugap"], ds2.series["UNRATE"] - 4.5)
    # shifting is inclusive of both endpoints and leaves the rest alone
    ds4 = ds3.with_shift("ugap", -5.0, ("2000Q3", "2000Q4"))
    assert np.allclose(ds4.series["ugap"][2:4], ds3.series["ugap"][2:4] - 5.0)
    assert np.allclose(ds4.series["ugap"][:2], ds3.series["ugap"][:2])
    assert np.allclose(ds4.series["ugap"][4:], ds3.series["ugap"][4:])
    # exact float arithmetic on the shifted values
    base = ds3.series["ugap"][2]
    assert ds4.series["ugap"][2] == base + (-5.0)
    # a non-finite shift is refused by name, before it can drop rows
    for delta in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"shift delta must be finite, got {delta} for 'ugap'"):
            ds3.with_shift("ugap", delta, ("2000Q3", "2000Q4"))


def test_csv_round_trip(tmp_path):
    csv = tmp_path / "macro.csv"
    csv.write_text(
        "date,PCEPI,UNRATE,NROU\n"
        "2001Q1,100.0,5.0,4.8\n"
        "2001Q2,100.5,5.1,4.8\n"
        "2001Q3,101.2,5.3,4.9\n"
        "2001Q4,,5.4,4.9\n"
    )
    ds = load_csv(csv)
    assert ds.dates == ("2001Q1", "2001Q2", "2001Q3", "2001Q4")
    assert np.isnan(ds.series["PCEPI"][3])
    # UNRATE and NROU both present: the gap column appears automatically
    assert "ugap" in ds.series
    assert np.isclose(ds.series["ugap"][0], 0.2)


def test_csv_error_reporting(tmp_path):
    bad_order = tmp_path / "a.csv"
    bad_order.write_text("date,x\n2001Q1,1\n2001Q3,2\n")
    with pytest.raises(ValueError, match="2001Q3"):
        load_csv(bad_order)

    # the row number is the file's line number, header included
    backwards = tmp_path / "a2.csv"
    backwards.write_text("date,x\n2001Q1,1\n2001Q2,2\n2001Q1,3\n")
    with pytest.raises(ValueError, match=r"a2.csv:4: dates out of order at 2001Q1"):
        load_csv(backwards)
    repeated = tmp_path / "a3.csv"
    repeated.write_text("date,x\n2001Q1,1\n2001Q1,2\n")
    with pytest.raises(ValueError, match=r"a3.csv:3: dates out of order at 2001Q1"):
        load_csv(repeated)
    with pytest.raises(ValueError, match=r"a.csv:3: missing quarter before 2001Q3"):
        load_csv(bad_order)
    # the error repeats on a second load, and a good file still loads
    with pytest.raises(ValueError, match=r"a.csv:3: missing quarter"):
        load_csv(bad_order)
    good = tmp_path / "a4.csv"
    good.write_text("date,x\n2001Q1,1\n2001Q2,2\n2001Q3,3\n")
    assert load_csv(good).dates == ("2001Q1", "2001Q2", "2001Q3")

    bad_cell = tmp_path / "b.csv"
    bad_cell.write_text("date,x\n2001Q1,1\n2001Q2,oops\n")
    with pytest.raises(ValueError, match="x"):
        load_csv(bad_cell)

    dup = tmp_path / "c.csv"
    dup.write_text("date,x,x\n2001Q1,1,2\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_csv(dup)

    not_date = tmp_path / "d.csv"
    not_date.write_text("quarter,x\n2001Q1,1\n")
    with pytest.raises(ValueError, match="date"):
        load_csv(not_date)

    for text, message in [
        ("", r"e.csv: empty file"),
        ("date,x\n", r"e.csv: no data rows"),
        ("date,x\n\n  ,  \n", r"e.csv: no data rows"),  # blank rows hold no quarter
        ("date,x,y\n2001Q1,1,2\n2001Q2,3\n", r"e.csv:3: expected 3 cells, got 2"),
        ("date,x\n2001Q1,1\n2001Q2,2,3\n", r"e.csv:3: expected 2 cells, got 3"),
        # blank rows are skipped, and the line numbers still count them
        ("date,x\n\n2001Q1,1\n , \n2001Q2,2\n\n2001Q4,4\n",
         r"e.csv:7: missing quarter before 2001Q4"),
    ]:
        (tmp_path / "e.csv").write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(tmp_path / "e.csv")
    (tmp_path / "e.csv").write_text("date,x\n\n2001Q1,1\n , \n2001Q2,2\n\n")
    ds = load_csv(tmp_path / "e.csv")
    assert ds.dates == ("2001Q1", "2001Q2") and np.array_equal(ds.series["x"], [1.0, 2.0])


def test_csv_with_a_byte_order_mark(tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
    csv = tmp_path / "excel.csv"
    csv.write_text("\ufeffdate,u,P\n2001Q1,5.0,100\n2001Q2,5.1,101\n", encoding="utf-8")
    ds = load_csv(csv, {"u": 2})
    assert ds.dates == ("2001Q1", "2001Q2") and list(ds.series) == ["u", "P"]
    assert ds.codes == {"u": 2, "P": 1}


def test_schema_with_a_byte_order_mark(tmp_path):
    sch = tmp_path / "schema.txt"
    sch.write_text("\ufeffu=2\nP=5\n", encoding="utf-8")
    assert load_schema(sch) == {"u": 2, "P": 5}


def test_schema_parsing(tmp_path):
    sch = tmp_path / "schema.txt"
    sch.write_text("# codes\nPCEPI = 5\nUNRATE=1\n\n")
    schema = load_schema(sch)
    assert schema == {"PCEPI": 5, "UNRATE": 1}

    bad = tmp_path / "bad.txt"
    bad.write_text("PCEPI=9\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        load_schema(bad)
    for text, message in [
        ("PCEPI=5\nUNRATE 1\n", r"bad.txt:2: expected name=<code>"),
        ("# codes\nPCEPI=five\n", r"bad.txt:2: transform code must be an integer"),
        ("PCEPI=2.5\n", r"bad.txt:1: transform code must be an integer"),
        ("PCEPI=5\n\nPCEPI = 2\n", r"bad.txt:3: duplicate schema entry 'PCEPI'"),
    ]:
        bad.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_schema(bad)

    csv = tmp_path / "macro.csv"
    csv.write_text("date,x\n2001Q1,1\n")
    with pytest.raises(ValueError, match="absent column"):
        load_csv(csv, {"nope": 1})


def test_assemble_design_alignment():
    # spelled-out example: 10 quarters, horizon 1, lag 1 gives 9 rows and
    # the target in row t is the outcome dated one quarter after the origin
    n = 10
    ds = MacroDataset(
        dates=make_dates("2010Q1", n),
        series={"P": 100.0 + np.arange(n, dtype=float), "u": np.arange(n, dtype=float)},
        codes={"P": 1, "u": 1},
    ).with_inflation("P", 1)
    aligned = assemble_design(ds, ["infl_P_1q", "u"], lag=1)
    assert aligned.offset == 1
    assert len(aligned.y) == 8  # one quarter lost to inflation, one to lead
    assert aligned.origin_dates[0] == "2010Q2"
    assert aligned.outcome_dates[0] == "2010Q3"
    assert aligned.x.shape == (8, 3)
    assert np.all(aligned.x[:, 0] == 1.0)
    # origin-dated covariates: the target column at the origin quarter
    assert np.isclose(aligned.x[0, 1], ds.series["infl_P_1q"][1])
    assert np.isclose(aligned.y[0], ds.series["infl_P_1q"][2])

    # horizon 2 plus lag 2 drops three leading quarters
    ds2 = MacroDataset(
        dates=make_dates("2010Q1", n),
        series={"P": 100.0 * 1.01 ** np.arange(n), "u": np.arange(n, dtype=float)},
        codes={"P": 1, "u": 1},
    ).with_inflation("P", 2)
    aligned2 = assemble_design(ds2, ["u"], lag=2)
    assert aligned2.offset == 3
    assert aligned2.origin_dates[0] == "2010Q1"
    assert aligned2.outcome_dates[0] == "2010Q4"


def test_assemble_design_interior_gap_is_an_error():
    n = 10
    u = np.arange(n, dtype=float)
    u[5] = np.nan
    ds = MacroDataset(
        dates=make_dates("2010Q1", n),
        series={"P": 100.0 + np.arange(n, dtype=float), "u": u},
        codes={"P": 1, "u": 1},
    ).with_inflation("P", 1)
    with pytest.raises(ValueError, match="interior missing"):
        assemble_design(ds, ["u"])
    with pytest.raises(ValueError, match="no inflation target"):
        assemble_design(
            MacroDataset(dates=make_dates(n=4), series={"u": np.zeros(4)}, codes={}),
            ["u"],
        )
