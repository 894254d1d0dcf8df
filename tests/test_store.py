"""Estimate directories: round trips, determinism, and refusal paths."""

import os

import numpy as np
import pytest

from tvpdr import (
    ModelSpec,
    PosteriorDraws,
    StoreError,
    ThresholdGrid,
    build_threshold_grid,
    hash_data,
    load_estimate,
    read_manifest,
    run_gibbs,
    save_estimate,
)


def make_draws(seed=0, kept=7, k=3, t_len=11, d=2):
    rng = np.random.default_rng(seed)
    grid = build_threshold_grid(-1.0, 1.0, 1.0) if k == 3 else ThresholdGrid(
        points=np.arange(k, dtype=float), min_value=0.0, max_value=float(k - 1), step=1.0
    )
    return PosteriorDraws(
        grid=grid,
        beta=rng.standard_normal((kept, k, t_len, d)),
        sigma2=rng.gamma(2.0, 0.1, size=(kept, k, d)),
        seed=seed,
        stream=0,
        spec_hash="a" * 64,
        data_hash="b" * 64,
    )


def read_all_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_round_trip_is_exact(tmp_path):
    draws = make_draws(seed=3)
    where = str(tmp_path / "est")
    save_estimate(where, draws)

    back = load_estimate(where)
    np.testing.assert_array_equal(back.beta, draws.beta)
    np.testing.assert_array_equal(back.sigma2, draws.sigma2)
    np.testing.assert_array_equal(back.grid.points, draws.grid.points)
    assert back.grid.step == draws.grid.step
    assert back.seed == draws.seed
    assert back.stream == draws.stream
    assert back.spec_hash == draws.spec_hash
    assert back.data_hash == draws.data_hash
    assert back.link == "probit"
    assert back.design_transform == "identity"


def test_round_trip_from_a_real_run(tmp_path):
    rng = np.random.default_rng(11)
    t_len, d = 12, 2
    x = np.column_stack([np.ones(t_len), rng.standard_normal(t_len)])
    y = rng.standard_normal(t_len)
    grid = build_threshold_grid(-1.0, 1.0, 1.0)
    spec = ModelSpec(d=d, grid=grid, iterations=8, burnin=3, monotone=False, seed=5)
    draws = run_gibbs(spec, (y, x))

    where = str(tmp_path / "est")
    save_estimate(where, draws)
    back = load_estimate(where, expect_data_hash=hash_data(y, x))
    np.testing.assert_array_equal(back.beta, draws.beta)
    np.testing.assert_array_equal(back.sigma2, draws.sigma2)
    assert back.spec_hash == spec.spec_hash()


def test_resave_is_byte_identical(tmp_path):
    draws = make_draws(seed=9)
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    save_estimate(a, draws)
    save_estimate(b, draws)
    assert read_all_bytes(a) == read_all_bytes(b)


def test_manifest_is_sorted_and_timestamp_free(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    with open(os.path.join(where, "MANIFEST"), encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    keys = [line.split("=", 1)[0] for line in lines]
    assert keys == sorted(keys)
    # nothing in the directory should depend on when it was written
    assert not any("time" in k or "date" in k for k in keys)
    man = read_manifest(where)
    assert man["format"] == "tvpdr-estimate-1"
    assert int(man["kept"]) == 7


def test_wrong_data_hash_is_refused(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    with pytest.raises(StoreError, match="fit to different data"):
        load_estimate(where, expect_data_hash="c" * 64)
    # the stored hash itself passes
    load_estimate(where, expect_data_hash="b" * 64)


def test_missing_manifest(tmp_path):
    with pytest.raises(StoreError, match="no MANIFEST"):
        load_estimate(str(tmp_path))


def test_unsupported_format_tag(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    text = open(name, encoding="utf-8").read()
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text.replace("tvpdr-estimate-1", "tvpdr-estimate-9"))
    with pytest.raises(StoreError, match="unsupported format"):
        load_estimate(where)


def test_corrupt_manifest_values(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    text = open(name, encoding="utf-8").read()
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text.replace("kept=7", "kept=seven"))
    with pytest.raises(StoreError, match="missing or corrupt"):
        load_estimate(where)

    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text + "not a key value line\n")
    with pytest.raises(StoreError, match="expected key=value"):
        load_estimate(where)


def test_grid_file_problems(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "grid.tsv")

    text = open(name, encoding="utf-8").read()
    os.remove(name)
    with pytest.raises(StoreError, match="grid.tsv is missing"):
        load_estimate(where)

    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text.replace("index\tthreshold", "idx\ty"))
    with pytest.raises(StoreError, match="unexpected header"):
        load_estimate(where)

    lines = text.splitlines()
    with open(name, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")  # drop the last threshold row
    with pytest.raises(StoreError, match="manifest says 3"):
        load_estimate(where)


def test_blob_problems(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())

    blob = os.path.join(where, "beta_1.f64")
    data = open(blob, "rb").read()
    os.remove(blob)
    with pytest.raises(StoreError, match="draw file is missing"):
        load_estimate(where)

    with open(blob, "wb") as fh:
        fh.write(data[:-8])  # one float64 short
    with pytest.raises(StoreError, match="manifest implies"):
        load_estimate(where)


def test_resave_smaller_grid_removes_stale_blobs(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws(seed=1, k=5))
    small = make_draws(seed=2, k=3)
    save_estimate(where, small)
    blobs = [f"{kind}_{j}.f64" for j in range(3) for kind in ("beta", "sigma2")]
    assert sorted(os.listdir(where)) == sorted(["MANIFEST", "grid.tsv", *blobs])
    back = load_estimate(where)
    np.testing.assert_array_equal(back.beta, small.beta)
