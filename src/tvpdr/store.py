"""On-disk estimate directories: two raw draw blobs plus a plain-text manifest.

An estimate is a directory. MANIFEST holds everything a consumer needs to
trust the draws (hashes, seed, shapes, grid, design transform) as sorted
key=value lines, grid.tsv lists the thresholds, and the draws are two flat
little-endian float64 blobs:

- ``beta.f64`` is C-ordered (T, kept, K, d). It is time-major, so every
  draw at one quarter is one contiguous slab.
- ``sigma2.f64`` is C-ordered (kept, K, d).

``load_estimate`` maps both blobs read-only and hands ``beta`` back as its
(kept, K, T, d) view, so a query at one quarter reads one slab from disk
rather than the whole estimate. ``draw_buffers`` gives a fit writable maps of
temp blobs inside the destination, so kept draws stream to disk as they are
drawn and never sit in RAM; ``save_estimate`` then only flushes and renames
them.

A save never rewrites a blob in place. Each is written under a temp name and
moved over the old one, so a reader that has the previous estimate mapped
keeps its draws. The old MANIFEST goes first and the new one is written
last: a save that dies midway leaves a directory that refuses to load, never
one that mixes draws. Nothing in the directory depends on wall-clock time,
so refitting with the same spec, data and seed reproduces every byte.
"""

from __future__ import annotations

import contextlib
import math
import os
import re

import numpy as np

from .distribution import ThresholdGrid
from .model import PosteriorDraws

__all__ = ["save_estimate", "load_estimate", "read_manifest", "draw_buffers", "StoreError"]

FORMAT_TAG = "tvpdr-estimate-2"
_V1_TAG = "tvpdr-estimate-1"
_V1_BLOB = re.compile(r"(?:beta|sigma2)_\d+\.f64")
_PARTIAL = ".partial"


class StoreError(ValueError):
    """A directory that is not, or no longer, a usable estimate."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def draw_buffers(path: str, kept: int, k: int, t_len: int, d: int):
    """Writable (kept, K, T, d) and (kept, K, d) arrays backed by temp blobs in ``path``.

    Pass ``functools.partial(draw_buffers, path)`` as ``run_gibbs``'s
    ``buffers`` to stream kept draws to disk; ``save_estimate(path, draws)``
    then moves these blobs into place without copying them. Until that save,
    nothing a reader of ``path`` loads is touched, so a fit that fails leaves
    the previous estimate as it was.
    """
    os.makedirs(path, exist_ok=True)
    beta = np.memmap(os.path.join(path, "beta.f64" + _PARTIAL), dtype="<f8", mode="w+",
                     shape=(t_len, kept, k, d))
    sigma2 = np.memmap(os.path.join(path, "sigma2.f64" + _PARTIAL), dtype="<f8", mode="w+",
                       shape=(kept, k, d))
    return beta.transpose(1, 2, 0, 3), sigma2


def _is_buffer(disk: np.ndarray, partial: str) -> bool:
    """True when ``disk`` is the whole writable map of the temp blob ``partial``."""
    return (isinstance(disk, np.memmap) and disk.filename == os.path.abspath(partial)
            and disk.flags.c_contiguous and disk.flags.writeable and disk.dtype == "<f8"
            and os.path.isfile(partial) and os.path.getsize(partial) == disk.nbytes)


def _put_blob(path: str, name: str, disk: np.ndarray) -> None:
    """Store ``disk`` (already in the blob's axis order) as ``name``, by rename.

    A buffer from ``draw_buffers`` is flushed and renamed. Any other array is
    written slab by slab along its first axis through one reused buffer.
    """
    final = os.path.join(path, name)
    partial = final + _PARTIAL
    if _is_buffer(disk, partial):
        disk.flush()
    else:
        buf = np.empty(disk.shape[1:], dtype="<f8")
        with open(partial, "wb") as fh:
            for slab in disk:
                np.copyto(buf, slab)
                fh.write(buf)
    os.replace(partial, final)


def _discard_partials(path: str) -> None:
    """Remove the temp files that a failed fit or save left in ``path``."""
    for name in os.listdir(path) if os.path.isdir(path) else ():
        if name.endswith(_PARTIAL):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(path, name))


def _put_text(path: str, name: str, text: str) -> None:
    final = os.path.join(path, name)
    with open(final + _PARTIAL, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(final + _PARTIAL, final)


def save_estimate(path: str, draws: PosteriorDraws) -> None:
    """Write the two draw blobs, grid.tsv and, last, MANIFEST.

    Blobs of the per-threshold layout of older versions are removed, so a
    re-save over such a directory leaves only this version's files.
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
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(path, "MANIFEST"))
    _put_blob(path, "beta.f64", draws.beta.transpose(2, 0, 1, 3))
    _put_blob(path, "sigma2.f64", draws.sigma2)
    _put_text(path, "grid.tsv", "index\tthreshold\n" + "".join(
        f"{j}\t{_fmt(float(y))}\n" for j, y in enumerate(draws.grid.points)))
    for name in os.listdir(path):
        if _V1_BLOB.fullmatch(name):
            os.remove(os.path.join(path, name))
    _put_text(path, "MANIFEST", "".join(f"{key}={_fmt(manifest[key])}\n"
                                        for key in sorted(manifest)))


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
    if out.get("format") == _V1_TAG:
        raise StoreError(f"{path}: format {_V1_TAG} (one blob per threshold) is no longer "
                         "read; refit the estimate with `tvpdr estimate`")
    if out.get("format") != FORMAT_TAG:
        raise StoreError(f"{path}: unsupported format {out.get('format')!r}")
    return out


def load_estimate(path: str, expect_data_hash: str | None = None) -> PosteriorDraws:
    """Map an estimate directory back into PosteriorDraws.

    Shapes come from the manifest and every blob must match them exactly.
    ``beta`` and ``sigma2`` are read-only views of the mapped blobs, so only
    the parts a caller reads are loaded. Pass ``expect_data_hash`` (from
    hashing the data you are about to use) to refuse an estimate that was
    fit to something else.
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

    return PosteriorDraws(
        grid=grid,
        beta=_map_blob(os.path.join(path, "beta.f64"), (t_len, kept, k, d)).transpose(1, 2, 0, 3),
        sigma2=_map_blob(os.path.join(path, "sigma2.f64"), (kept, k, d)),
        seed=int(man["seed"]),
        stream=int(man["stream"]),
        spec_hash=man["spec_hash"],
        data_hash=man["data_hash"],
        design_transform=man["design_transform"],
        link=man["link"],
    )


def _map_blob(name: str, shape: tuple) -> np.ndarray:
    """Read-only plain-ndarray view of a blob whose size must match ``shape``.

    The size is checked on the open file before mapping, because a map
    accepts a file longer than the shape it is asked for.
    """
    try:
        fh = open(name, "rb")
    except FileNotFoundError:
        raise StoreError(f"{name}: draw file is missing") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        want = math.prod(shape)
        if size != 8 * want:
            raise StoreError(f"{name}: holds {size} bytes, manifest implies {want} float64 values")
        return np.memmap(fh, dtype="<f8", mode="r", shape=shape).view(np.ndarray)
