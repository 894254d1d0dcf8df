"""Estimate directories: round trips, determinism, crash safety, refusal paths."""

import os
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import tvpdr.model
from tvpdr import (
    EstimationError,
    ModelSpec,
    PosteriorDraws,
    RngHandle,
    StoreError,
    ThresholdGrid,
    build_threshold_grid,
    cdf_derivative,
    conditional_cdf,
    draw_buffers,
    forecast_predictive,
    hash_data,
    load_estimate,
    read_manifest,
    run_gibbs,
    save_estimate,
)
from tvpdr.model import PROBIT


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
    assert man["format"] == "tvpdr-estimate-2"
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
    text = Path(name).read_text(encoding="utf-8")
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text.replace("tvpdr-estimate-2", "tvpdr-estimate-9"))
    with pytest.raises(StoreError, match="unsupported format"):
        load_estimate(where)


def test_corrupt_manifest_values(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    text = Path(name).read_text(encoding="utf-8")
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

    text = Path(name).read_text(encoding="utf-8")
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

    for name in ("beta.f64", "sigma2.f64"):
        blob = os.path.join(where, name)
        data = Path(blob).read_bytes()
        os.remove(blob)
        with pytest.raises(StoreError, match="draw file is missing"):
            load_estimate(where)

        with open(blob, "wb") as fh:
            fh.write(data[:-8])  # one float64 short
        with pytest.raises(StoreError, match="manifest implies"):
            load_estimate(where)

        # a map would accept a longer file, so its size is checked first
        with open(blob, "wb") as fh:
            fh.write(data + data[:8])
        with pytest.raises(StoreError, match="manifest implies"):
            load_estimate(where)

        with open(blob, "wb") as fh:
            fh.write(data)
        load_estimate(where)


def test_resave_smaller_grid_removes_stale_blobs(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws(seed=1, k=5))
    small = make_draws(seed=2, k=3)
    save_estimate(where, small)
    assert sorted(os.listdir(where)) == ["MANIFEST", "beta.f64", "grid.tsv", "sigma2.f64"]
    back = load_estimate(where)
    np.testing.assert_array_equal(back.beta, small.beta)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def small_fit(seed=11, iterations=8, burnin=3):
    rng = np.random.default_rng(seed)
    t_len = 12
    x = np.column_stack([np.ones(t_len), rng.standard_normal(t_len)])
    y = rng.standard_normal(t_len)
    grid = build_threshold_grid(-1.0, 1.0, 0.5)
    spec = ModelSpec(d=2, grid=grid, iterations=iterations, burnin=burnin, seed=seed)
    return spec, (y, x)


def test_v1_directory_is_refused_with_a_refit_hint(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    text = Path(name).read_text(encoding="utf-8")
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text.replace("tvpdr-estimate-2", "tvpdr-estimate-1"))
    with pytest.raises(StoreError, match="tvpdr-estimate-1.*refit"):
        load_estimate(where)


def test_resave_over_a_v1_directory_leaves_no_per_threshold_blobs(tmp_path):
    where = tmp_path / "est"
    where.mkdir()
    (where / "MANIFEST").write_text("format=tvpdr-estimate-1\n", encoding="utf-8")
    for j in range(5):
        for kind in ("beta", "sigma2"):
            (where / f"{kind}_{j}.f64").write_bytes(b"\0" * 8)
    draws = make_draws(seed=4)
    save_estimate(str(where), draws)
    assert sorted(os.listdir(where)) == ["MANIFEST", "beta.f64", "grid.tsv", "sigma2.f64"]
    assert same_bits(load_estimate(str(where)).beta, draws.beta)


def test_loaded_beta_is_a_read_only_view(tmp_path):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    back = load_estimate(where)
    for arr in (back.beta, back.sigma2):
        assert type(arr) is np.ndarray
        assert not arr.flags.writeable
        assert not arr.flags.owndata
    # one time index is one contiguous slab of the blob
    assert back.beta[:, :, 4, :].flags.c_contiguous
    with pytest.raises(ValueError):
        back.beta[0, 0, 0, 0] = 1.0


def test_loaded_estimate_survives_a_save_into_its_path(tmp_path):
    # blobs are replaced by rename, never truncated or rewritten in place:
    # truncating the mapped file to the second, pages-smaller estimate would
    # raise SIGBUS on the reads below
    where = str(tmp_path / "est")
    first = make_draws(seed=1, kept=40)
    save_estimate(where, first)
    mapped = load_estimate(where)
    second = make_draws(seed=2, kept=3)
    save_estimate(where, second)
    assert same_bits(mapped.beta, first.beta)
    assert same_bits(mapped.sigma2, first.sigma2)
    assert same_bits(load_estimate(where).beta, second.beta)


@pytest.mark.parametrize("fail_at", ["copy", 0, 1, 2, 3])
def test_failed_save_never_loads_mixed_draws(tmp_path, monkeypatch, fail_at):
    # same shapes and hashes on both sides, so only the draws tell them apart
    where = str(tmp_path / "est")
    old = make_draws(seed=1)
    new = make_draws(seed=2)
    save_estimate(where, old)
    calls = {"copy": 0, "replace": 0}
    real_copyto, real_replace = np.copyto, os.replace

    def copyto(*args, **kwargs):
        calls["copy"] += 1
        if fail_at == "copy" and calls["copy"] == 3:
            raise OSError("disk full")
        return real_copyto(*args, **kwargs)

    def replace(*args, **kwargs):
        if calls["replace"] == fail_at:
            raise OSError("disk full")
        calls["replace"] += 1
        return real_replace(*args, **kwargs)

    monkeypatch.setattr(np, "copyto", copyto)
    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        save_estimate(where, new)
    monkeypatch.undo()

    try:
        back = load_estimate(where)
    except StoreError:
        return
    whole = [same_bits(back.beta, d.beta) and same_bits(back.sigma2, d.sigma2)
             for d in (old, new)]
    assert any(whole), "a failed save left a directory that loads mixed draws"


def test_fit_crashing_mid_sampling_keeps_the_previous_estimate(tmp_path, monkeypatch):
    where = str(tmp_path / "est")
    spec, data = small_fit()
    previous = run_gibbs(spec, data, RngHandle(1))
    save_estimate(where, previous)

    real = tvpdr.model.draw_sigma2
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 9:  # a kept iteration: draws are already streaming
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(tvpdr.model, "draw_sigma2", failing)
    with pytest.raises(EstimationError, match="injected"):
        run_gibbs(spec, data, RngHandle(2), buffers=partial(draw_buffers, where))
    back = load_estimate(where, expect_data_hash=hash_data(*data))
    assert same_bits(back.beta, previous.beta)
    assert same_bits(back.sigma2, previous.sigma2)


def test_streamed_fit_equals_the_in_memory_fit(tmp_path):
    spec, data = small_fit()
    in_memory = run_gibbs(spec, data, RngHandle(6))
    streamed_dir, written_dir = str(tmp_path / "streamed"), str(tmp_path / "written")
    streamed = run_gibbs(spec, data, RngHandle(6), buffers=partial(draw_buffers, streamed_dir))
    assert same_bits(streamed.beta, in_memory.beta)
    assert same_bits(streamed.sigma2, in_memory.sigma2)

    save_estimate(streamed_dir, streamed)  # flush and rename, no copy
    save_estimate(written_dir, in_memory)  # slab by slab through one buffer
    assert read_all_bytes(streamed_dir) == read_all_bytes(written_dir)
    back = load_estimate(streamed_dir)
    assert same_bits(back.beta, in_memory.beta)
    assert same_bits(back.sigma2, in_memory.sigma2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_reads_on_loaded_draws_equal_in_memory_reads_bitwise(tmp_path, d):
    # einsum's summation order follows memory layout, and a loaded beta is
    # time-major rather than iteration-major
    rng = np.random.default_rng(d)
    kept, k, t_len = 37, 6, 9
    draws = make_draws(seed=d, kept=kept, k=k, t_len=t_len, d=d)
    where = str(tmp_path / "est")
    save_estimate(where, draws)
    back = load_estimate(where)
    design = np.column_stack([np.ones(t_len), rng.standard_normal((t_len, d - 1))])
    for t in range(t_len):
        a = conditional_cdf(draws, design[t], t, PROBIT)
        b = conditional_cdf(back, design[t], t, PROBIT)
        assert same_bits(a.values, b.values), t
        for j in (0, k // 2, k - 1):
            assert same_bits(cdf_derivative(draws, design[t], t, j, PROBIT),
                             cdf_derivative(back, design[t], t, j, PROBIT)), (t, j)
    a = forecast_predictive(draws, design[-1], RngHandle(5, stream=2), PROBIT)
    b = forecast_predictive(back, design[-1], RngHandle(5, stream=2), PROBIT)
    assert same_bits(a.values, b.values)
