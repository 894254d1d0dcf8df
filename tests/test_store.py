"""Estimate directories: round trips, determinism, crash safety, refusal paths."""

import contextlib
import gc
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import tvpdr.model
import tvpdr.store
from tvpdr import (
    EstimationError,
    ModelSpec,
    PosteriorDraws,
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
    assert read_manifest(where)["link"] == "probit"
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


def test_manifest_and_grid_text_are_pinned(tmp_path):
    # the on-disk format, literally: a renamed key, a changed value or a
    # different float spelling (repr round-trips) shows up here
    grid = build_threshold_grid(-0.2, 0.1, 0.1)
    draws = PosteriorDraws(grid=grid, beta=np.zeros((2, grid.n, 5, 3)),
                           sigma2=np.ones((2, grid.n, 3)), seed=5, stream=2,
                           spec_hash="a" * 64, data_hash="b" * 64,
                           design_transform="quadratic")
    where = tmp_path / "est"
    save_estimate(str(where), draws)
    assert sorted(os.listdir(where)) == ["MANIFEST", "beta.f64", "grid.tsv", "sigma2.f64"]
    assert (where / "MANIFEST").read_text(encoding="utf-8") == (
        "d=3\n"
        f"data_hash={'b' * 64}\n"
        "design_transform=quadratic\n"
        "format=tvpdr-estimate-2\n"
        "grid_max=0.1\n"
        "grid_min=-0.2\n"
        "grid_step=0.1\n"
        "kept=2\n"
        "link=probit\n"
        "n_obs=5\n"
        "n_thresholds=4\n"
        "seed=5\n"
        f"spec_hash={'a' * 64}\n"
        "stream=2\n"
    )
    assert (where / "grid.tsv").read_text(encoding="utf-8") == (
        "index\tthreshold\n"
        "0\t-0.2\n"
        "1\t-0.1\n"
        "2\t0.0\n"
        "3\t0.10000000000000003\n"
    )


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


@pytest.mark.parametrize("key", ["seed", "stream", "spec_hash", "data_hash"])
def test_manifest_without_a_provenance_key_is_a_store_error(tmp_path, key):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    lines = Path(name).read_text(encoding="utf-8").splitlines(keepends=True)
    Path(name).write_text("".join(ln for ln in lines if not ln.startswith(key + "=")),
                          encoding="utf-8")
    for expect in (None, "b" * 64):
        with pytest.raises(StoreError, match=f"missing or corrupt: '{key}'"):
            load_estimate(where, expect_data_hash=expect)


@pytest.mark.parametrize("line, value", [("seed=0", "seed=1.5"), ("stream=0", "stream=two")])
def test_non_integer_seed_or_stream_is_a_store_error(tmp_path, line, value):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    text = Path(name).read_text(encoding="utf-8")
    assert line + "\n" in text
    Path(name).write_text(text.replace(line + "\n", value + "\n"), encoding="utf-8")
    with pytest.raises(StoreError, match="missing or corrupt"):
        load_estimate(where)


@pytest.mark.parametrize("line, value", [("seed=0", "seed=-7"), ("seed=0", f"seed={2**70}"),
                                         ("stream=0", "stream=-1"),
                                         ("stream=0", f"stream={2**64}")])
def test_seed_or_stream_outside_the_seed_rule_is_a_store_error(tmp_path, line, value):
    # a seed no fit could have drawn from loaded as if one had
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    text = Path(name).read_text(encoding="utf-8")
    assert line + "\n" in text
    Path(name).write_text(text.replace(line + "\n", value + "\n"), encoding="utf-8")
    key, got = value.split("=")
    with pytest.raises(StoreError, match=rf"missing or corrupt: {key} must lie in \[0, 2\*\*64\), "
                                         rf"got {got}$"):
        load_estimate(where)


@pytest.mark.parametrize("line, value", [("link=probit", "link=logit"),
                                         ("design_transform=identity", "design_transform=cubic")])
def test_unknown_link_or_design_transform_is_refused(tmp_path, line, value):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    text = Path(name).read_text(encoding="utf-8")
    assert line in text
    Path(name).write_text(text.replace(line, value), encoding="utf-8")
    shown = value.split("=")[1]
    with pytest.raises(StoreError, match=f"est: unknown .*'{shown}'"):
        load_estimate(where)


@pytest.mark.parametrize("key", ["grid_step", "grid_min", "grid_max"])
def test_non_finite_grid_parameter_is_a_store_error(tmp_path, key):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    text = Path(name).read_text(encoding="utf-8")
    line = next(ln for ln in text.splitlines() if ln.startswith(key + "="))
    Path(name).write_text(text.replace(line + "\n", f"{key}=nan\n"), encoding="utf-8")
    with pytest.raises(StoreError, match=re.escape(f"{name}: {key}=nan must be finite")):
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


@pytest.mark.parametrize("row, shown", [
    ("x\t0.0", r"grid\.tsv:3: rows must be"),
    ("1\tzero", r"grid\.tsv:3: threshold 'zero' is not a finite number"),
    ("1\tnan", r"grid\.tsv:3: threshold 'nan' is not a finite number"),
    ("1\t0.25", r"grid\.tsv: grid spacing is not uniform"),
], ids=["index", "threshold", "nan", "spacing"])
def test_malformed_grid_row_is_a_store_error_naming_the_file(tmp_path, row, shown):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "grid.tsv")
    text = Path(name).read_text(encoding="utf-8")
    assert "\n1\t0.0\n" in text
    Path(name).write_text(text.replace("\n1\t0.0\n", f"\n{row}\n"), encoding="utf-8")
    with pytest.raises(StoreError, match=shown):
        load_estimate(where)


@pytest.mark.parametrize("line, value", [("kept=7", "kept=0"), ("kept=7", "kept=-1"),
                                         ("n_thresholds=3", "n_thresholds=0"),
                                         ("n_obs=11", "n_obs=0"), ("d=2", "d=0")])
def test_non_positive_count_is_refused_before_mapping(tmp_path, line, value):
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    text = Path(name).read_text(encoding="utf-8")
    assert line + "\n" in text
    Path(name).write_text(text.replace(line + "\n", value + "\n"), encoding="utf-8")
    for blob in ("beta.f64", "sigma2.f64"):  # blobs that match a zero count
        Path(where, blob).write_bytes(b"")
    with pytest.raises(StoreError, match=rf"MANIFEST: {value} must be positive"):
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
    # the format-1 reader is gone: the generic refusal names the format
    where = str(tmp_path / "est")
    save_estimate(where, make_draws())
    name = os.path.join(where, "MANIFEST")
    text = Path(name).read_text(encoding="utf-8")
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text.replace("tvpdr-estimate-2", "tvpdr-estimate-1"))
    with pytest.raises(StoreError, match="unsupported format 'tvpdr-estimate-1'"):
        load_estimate(where)


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
    real_pwrite, real_replace = os.pwrite, os.replace

    def pwrite(*args, **kwargs):
        # the writer's third positioned write: beta.f64 is part written
        calls["copy"] += 1
        if fail_at == "copy" and calls["copy"] == 3:
            raise OSError("disk full")
        return real_pwrite(*args, **kwargs)

    def replace(*args, **kwargs):
        if calls["replace"] == fail_at:
            raise OSError("disk full")
        calls["replace"] += 1
        return real_replace(*args, **kwargs)

    monkeypatch.setattr(os, "pwrite", pwrite)
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
    previous = run_gibbs(replace(spec, seed=1), data)
    save_estimate(where, previous)

    real = tvpdr.model._draw_sigma2
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        # K = 5: a batch per colour, two variance draws an iteration
        if len(calls) == 9:  # iteration 4, kept: draws are already streaming
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(tvpdr.model, "_draw_sigma2", failing)
    with pytest.raises(EstimationError, match="iteration 4, .*injected"):
        run_gibbs(replace(spec, seed=2), data, buffers=partial(draw_buffers, where))
    back = load_estimate(where, expect_data_hash=hash_data(*data))
    assert same_bits(back.beta, previous.beta)
    assert same_bits(back.sigma2, previous.sigma2)


def test_streamed_fit_equals_the_in_memory_fit(tmp_path):
    spec, data = small_fit()
    spec = replace(spec, seed=6)
    in_memory = run_gibbs(spec, data)
    streamed_dir, written_dir = str(tmp_path / "streamed"), str(tmp_path / "written")
    streamed = run_gibbs(spec, data, buffers=partial(draw_buffers, streamed_dir))
    assert same_bits(streamed.beta, in_memory.beta)
    assert same_bits(streamed.sigma2, in_memory.sigma2)

    save_estimate(streamed_dir, streamed)  # flush and rename, no copy
    save_estimate(written_dir, in_memory)  # through a writer, a block at a time
    assert read_all_bytes(streamed_dir) == read_all_bytes(written_dir)
    back = load_estimate(streamed_dir)
    assert same_bits(back.beta, in_memory.beta)
    assert same_bits(back.sigma2, in_memory.sigma2)


def _blocks_of(monkeypatch, spec, t_len, draws):
    """Make a streamed fit's beta block hold ``draws`` kept draws."""
    monkeypatch.setattr(tvpdr.store, "_BLOCK_BYTES", draws * 8 * spec.grid.n * t_len * spec.d)


def test_streamed_fit_in_blocks_that_do_not_divide_kept_saves_the_same_bytes(
        tmp_path, monkeypatch):
    spec, data = small_fit(iterations=10, burnin=3)  # 7 kept draws
    spec = replace(spec, seed=6)
    _blocks_of(monkeypatch, spec, 12, 3)             # written as 3 + 3 + 1
    in_memory = run_gibbs(spec, data)
    streamed_dir, written_dir = str(tmp_path / "streamed"), str(tmp_path / "written")
    writers = []

    def spy(*shape):
        writers.extend(draw_buffers(streamed_dir, *shape))
        return writers

    streamed = run_gibbs(spec, data, buffers=spy)
    assert writers[0]._block is None and writers[0].shape[0] == 7
    assert same_bits(streamed.beta, in_memory.beta)
    assert same_bits(streamed.sigma2, in_memory.sigma2)
    save_estimate(streamed_dir, streamed)

    # the in-memory save goes through the same writer, in the same blocks
    blocks = []

    class Spy(tvpdr.store._DrawWriter):
        def _write(self):
            blocks.append((os.path.basename(self.name), self._count - self._start))
            super()._write()

    monkeypatch.setattr(tvpdr.store, "_DrawWriter", Spy)
    save_estimate(written_dir, in_memory)
    assert [n for name, n in blocks if name == "beta.f64.partial"] == [3, 3, 1]
    assert read_all_bytes(streamed_dir) == read_all_bytes(written_dir)


@pytest.mark.parametrize("block_draws", [None, 3])
def test_draw_writer_block_never_exceeds_its_constant(tmp_path, monkeypatch, block_draws):
    kept, k, t_len, d = 600, 65, 160, 3  # the paper's shape
    if block_draws is not None:
        monkeypatch.setattr(tvpdr.store, "_BLOCK_BYTES", block_draws * 8 * k * t_len * d)
    beta, sigma2 = draw_buffers(str(tmp_path), kept, k, t_len, d)
    for writer in (beta, sigma2):
        assert 0 < writer._block.nbytes <= tvpdr.store._BLOCK_BYTES
    assert beta._block.shape[1] == (block_draws or tvpdr.store._BLOCK_BYTES // (8 * k * t_len * d))
    with pytest.raises(IndexError, match="out of order"):
        beta[1] = np.zeros((k, t_len, d))


def _open_paths() -> list:
    """Files this process holds open or mapped (empty where /proc is missing)."""
    if not os.path.isdir("/proc/self/fd"):
        return []
    held = []
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):
            held.append(os.readlink(f"/proc/self/fd/{fd}"))
    with open("/proc/self/maps", encoding="utf-8") as fh:
        held.extend(line.split(None, 5)[-1].strip() for line in fh)
    return held


def test_fit_crashing_mid_block_holds_no_file_and_keeps_the_previous_estimate(
        tmp_path, monkeypatch):
    where = str(tmp_path / "est")
    spec, data = small_fit(iterations=10, burnin=3)
    previous = run_gibbs(replace(spec, seed=1), data)
    save_estimate(where, previous)
    _blocks_of(monkeypatch, spec, 12, 3)

    real = tvpdr.model._draw_sigma2
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        # K = 5: a batch per colour, two variance draws an iteration
        if len(calls) == 15:  # iteration 7: kept draws 0-2 are written, 3 waits in the block
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(tvpdr.model, "_draw_sigma2", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="iteration 7, .*injected"):
            run_gibbs(replace(spec, seed=2), data, buffers=partial(draw_buffers, where))
        held = [name for name in _open_paths() if name.endswith(".partial")]
        gc.collect()
    assert held == []
    assert os.path.getsize(os.path.join(where, "beta.f64.partial")) == previous.beta.nbytes
    back = load_estimate(where, expect_data_hash=hash_data(*data))
    assert same_bits(back.beta, previous.beta)
    assert same_bits(back.sigma2, previous.sigma2)


def _max_rss_bytes(argv, env) -> int:
    """Peak RSS of a fresh interpreter that imports the CLI and runs ``argv``."""
    child = ("import resource, sys\n"
             "from tvpdr.cli import main\n"
             "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
             "sys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", child, *argv], env=env, check=True,
                          capture_output=True, text=True, timeout=600)
    return int(done.stdout.split()[-1]) * (1 if sys.platform == "darwin" else 1024)


@pytest.mark.slow
def test_estimate_peak_rss_does_not_grow_with_the_kept_draws(tmp_path):
    # 600 kept draws of a T = 160, K ~ 58, d = 3 fit: beta.f64 is ~130 MB,
    # and a fit that holds it all in RAM peaks that far above the import
    pytest.importorskip("resource")
    rng = np.random.default_rng(12)
    n = 162
    infl = 2.5 + 1.2 * rng.standard_normal(n)
    u = 5.0 + np.cumsum(0.3 * rng.standard_normal(n))
    prices = 100.0 * np.exp(np.cumsum(infl / 400.0))
    csv = tmp_path / "macro.csv"
    csv.write_text("date,P,u\n" + "".join(
        f"{1960 + i // 4}Q{i % 4 + 1},{float(prices[i])!r},{float(u[i])!r}\n" for i in range(n)),
        encoding="utf-8")
    out = tmp_path / "est"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(tvpdr.model.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    base = _max_rss_bytes([], env)
    peak = _max_rss_bytes(["estimate", "--data", str(csv), "--price-column", "P",
                           "--horizon", "1", "--covariates", "infl_P_1q,u",
                           "--iters", "700", "--burnin", "100", "--monotone", "off",
                           "--grid-step", "0.1", "--seed", "5", "--out", str(out)], env)
    blob = os.path.getsize(out / "beta.f64")
    assert blob > 100e6, blob
    assert peak - base < 0.25 * blob, (peak - base, blob)


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
        a = conditional_cdf(draws, design[t], t)
        b = conditional_cdf(back, design[t], t)
        assert same_bits(a.values, b.values), t
        for j in (0, k // 2, k - 1):
            assert same_bits(cdf_derivative(draws, design[t], t, j),
                             cdf_derivative(back, design[t], t, j)), (t, j)
    a = forecast_predictive(draws, design[-1])
    b = forecast_predictive(back, design[-1])
    assert same_bits(a.values, b.values)
