"""On-disk estimate directories: raw draws plus a plain-text manifest.

An estimate is a directory, not a single file, so the heavy arrays stay as
flat little-endian float64 blobs one threshold apiece while everything a
consumer needs to trust them (hashes, seed, shapes, grid) sits in MANIFEST
as sorted key=value lines. Nothing in the directory depends on wall-clock
time, so refitting with the same spec, data and seed reproduces every byte.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .distribution import ThresholdGrid
from .model import PosteriorDraws

__all__ = ["save_estimate", "load_estimate", "read_manifest", "StoreError"]

FORMAT_TAG = "tvpdr-estimate-1"
_BLOB = re.compile(r"(?:beta|sigma2)_(\d+)\.f64")


class StoreError(ValueError):
    """A directory that is not, or no longer, a usable estimate."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def save_estimate(path: str, draws: PosteriorDraws) -> None:
    """Write MANIFEST, grid.tsv and one beta/sigma2 blob per threshold.

    Re-saving into an estimate directory removes the blobs of thresholds
    beyond the new grid, so no draws of an older, larger grid stay behind.
    """
    os.makedirs(path, exist_ok=True)
    manifest = {
        "format": FORMAT_TAG,
        "spec_hash": draws.spec_hash,
        "data_hash": draws.data_hash,
        "seed": draws.seed,
        "stream": draws.stream,
        "kept": draws.kept,
        "n_thresholds": draws.n_thresholds,
        "n_obs": draws.n_obs,
        "d": draws.d,
        "link": draws.link,
        "design_transform": draws.design_transform,
        "grid_min": float(draws.grid.min_value),
        "grid_max": float(draws.grid.max_value),
        "grid_step": float(draws.grid.step),
    }
    with open(os.path.join(path, "MANIFEST"), "w", encoding="utf-8") as fh:
        for key in sorted(manifest):
            fh.write(f"{key}={_fmt(manifest[key])}\n")
    with open(os.path.join(path, "grid.tsv"), "w", encoding="utf-8") as fh:
        fh.write("index\tthreshold\n")
        for j, y in enumerate(draws.grid.points):
            fh.write(f"{j}\t{_fmt(float(y))}\n")
    for j in range(draws.n_thresholds):
        # C order over (kept, T, d): iteration-major, time-major, coefficient-minor
        with open(os.path.join(path, f"beta_{j}.f64"), "wb") as fh:
            fh.write(np.ascontiguousarray(draws.beta[:, j], dtype="<f8").tobytes())
        with open(os.path.join(path, f"sigma2_{j}.f64"), "wb") as fh:
            fh.write(np.ascontiguousarray(draws.sigma2[:, j], dtype="<f8").tobytes())
    for name in os.listdir(path):
        stale = _BLOB.fullmatch(name)
        if stale and int(stale.group(1)) >= draws.n_thresholds:
            os.remove(os.path.join(path, name))


def read_manifest(path: str) -> dict:
    name = os.path.join(path, "MANIFEST")
    if not os.path.exists(name):
        raise StoreError(f"{path}: no MANIFEST, not an estimate directory")
    out = {}
    with open(name, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "=" not in line:
                raise StoreError(f"{name}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key] = value
    if out.get("format") != FORMAT_TAG:
        raise StoreError(f"{path}: unsupported format {out.get('format')!r}")
    return out


def load_estimate(path: str, expect_data_hash: str | None = None) -> PosteriorDraws:
    """Read an estimate directory back into PosteriorDraws.

    Shapes come from the manifest and every blob must match them exactly.
    Pass ``expect_data_hash`` (from hashing the data you are about to use)
    to refuse an estimate that was fit to something else.
    """
    man = read_manifest(path)
    try:
        kept = int(man["kept"])
        k = int(man["n_thresholds"])
        t_len = int(man["n_obs"])
        d = int(man["d"])
        grid_min = float(man["grid_min"])
        grid_max = float(man["grid_max"])
        grid_step = float(man["grid_step"])
    except (KeyError, ValueError) as exc:
        raise StoreError(f"{path}: manifest is missing or corrupt: {exc}") from exc
    if expect_data_hash is not None and man["data_hash"] != expect_data_hash:
        raise StoreError(
            f"{path}: estimate was fit to different data "
            f"(stored {man['data_hash'][:12]}..., given {expect_data_hash[:12]}...)"
        )

    grid_name = os.path.join(path, "grid.tsv")
    if not os.path.exists(grid_name):
        raise StoreError(f"{path}: grid.tsv is missing")
    points = []
    with open(grid_name, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "index\tthreshold":
            raise StoreError(f"{grid_name}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split("\t")
            if len(cells) != 2 or int(cells[0]) != lineno - 2:
                raise StoreError(f"{grid_name}:{lineno}: rows must be 'index\\tthreshold' in order")
            points.append(float(cells[1]))
    if len(points) != k:
        raise StoreError(f"{path}: grid.tsv has {len(points)} rows, manifest says {k}")
    grid = ThresholdGrid(points=np.array(points), min_value=grid_min,
                         max_value=grid_max, step=grid_step)

    beta = np.empty((kept, k, t_len, d))
    sigma2 = np.empty((kept, k, d))
    for j in range(k):
        beta[:, j] = _read_blob(os.path.join(path, f"beta_{j}.f64"), (kept, t_len, d))
        sigma2[:, j] = _read_blob(os.path.join(path, f"sigma2_{j}.f64"), (kept, d))

    return PosteriorDraws(
        grid=grid,
        beta=beta,
        sigma2=sigma2,
        seed=int(man["seed"]),
        stream=int(man["stream"]),
        spec_hash=man["spec_hash"],
        data_hash=man["data_hash"],
        design_transform=man["design_transform"],
        link=man["link"],
    )


def _read_blob(name: str, shape: tuple) -> np.ndarray:
    if not os.path.exists(name):
        raise StoreError(f"{name}: draw file is missing")
    raw = np.fromfile(name, dtype="<f8")
    want = int(np.prod(shape))
    if raw.size != want:
        raise StoreError(f"{name}: holds {raw.size} values, manifest implies {want}")
    return raw.reshape(shape)
