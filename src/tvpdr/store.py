"""On-disk estimate directories: two raw draw blobs plus a plain-text manifest.

An estimate is a directory. MANIFEST holds everything a consumer needs to
trust the draws (hashes, seed, shapes, grid, link, design transform) as sorted
key=value lines, grid.tsv lists the thresholds, and the draws are two flat
little-endian float64 blobs:

- ``beta.f64`` is C-ordered (T, kept, K, d). It is time-major, so every
  draw at one quarter is one contiguous slab.
- ``sigma2.f64`` is C-ordered (kept, K, d).

``load_estimate`` maps both blobs read-only and hands ``beta`` back as its
(kept, K, T, d) view, so a query at one quarter reads one slab from disk
rather than the whole estimate. ``draw_buffers`` gives a fit one writer per
temp blob inside the destination. A writer copies each kept draw into one
time-major block of at most ``_BLOCK_BYTES`` and, when the block fills or the
last draw is in, writes it with one positioned write per quarter; once the
fit ends it hands back a read-only map of the blob. So a fit holds one block
of draws in RAM, not all of them, and ``save_estimate`` then only syncs and
renames the blobs. Draws that live in memory are saved through the same
writer, so there is one code path that lays a blob out.

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
import mmap
import os

import numpy as np

from .distribution import DESIGN_TRANSFORMS, ThresholdGrid
from .model import LINKS, PosteriorDraws
from .samplers import _uint64

__all__ = ["save_estimate", "load_estimate", "read_manifest", "draw_buffers", "StoreError"]

FORMAT_TAG = "tvpdr-estimate-2"
_PARTIAL = ".partial"
# A streamed fit holds at most this many bytes of kept draws in RAM (or one
# draw, when a single draw is larger).
_BLOCK_BYTES = 4 << 20


class StoreError(ValueError):
    """A directory that is not, or no longer, a usable estimate."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def draw_buffers(path: str, kept: int, k: int, t_len: int, d: int):
    """Writers of the (kept, K, T, d) and (kept, K, d) kept draws into temp blobs in ``path``.

    Pass ``functools.partial(draw_buffers, path)`` as ``run_gibbs``'s
    ``buffers`` to stream kept draws to disk; ``save_estimate(path, draws)``
    then moves these blobs into place without copying them. Until that save,
    nothing a reader of ``path`` loads is touched, so a fit that fails leaves
    the previous estimate as it was.
    """
    os.makedirs(path, exist_ok=True)
    return (_DrawWriter(os.path.join(path, "beta.f64" + _PARTIAL), (kept, k, t_len, d)),
            _DrawWriter(os.path.join(path, "sigma2.f64" + _PARTIAL), (kept, k, d)))


class _DrawWriter:
    """Takes kept draws in order and writes them, a block at a time, to a blob.

    The blob is C-ordered (Q, kept, K, d), Q = 1 for draws without a time
    axis. ``writer[i] = draw`` copies draw i, shaped as one row of ``shape``,
    into a (Q, B, K, d) block. A full block, and the last one at ``finish()``,
    goes out as one positioned write per quarter, each a contiguous run of B
    draws. The block holds as many draws as fit in ``_BLOCK_BYTES``, and at
    least one. The file is opened only for those writes, so a fit that dies
    between them holds no descriptor.
    """

    def __init__(self, name: str, shape: tuple):
        self.name = name
        self.shape = shape
        kept, k, d = shape[0], shape[1], shape[-1]
        quarters = shape[2] if len(shape) == 4 else 1
        draw_bytes = 8 * quarters * k * d
        rows = max(1, min(kept, _BLOCK_BYTES // draw_bytes))
        # An anonymous map, not malloc: freeing a malloc'd block this large
        # raises glibc's mmap and trim thresholds, and the heap then keeps the
        # process's later temporaries resident.
        self._block = np.frombuffer(mmap.mmap(-1, draw_bytes * rows)).reshape(quarters, rows, k, d)
        self._start = self._count = 0  # first draw in the block, draws taken
        with open(name, "wb") as fh:
            fh.truncate(draw_bytes * kept)

    def __setitem__(self, i: int, draw) -> None:
        if i != self._count:
            raise IndexError(f"kept draw {i} out of order, expected {self._count}")
        q, _, k, d = self._block.shape
        self._block[:, i - self._start] = np.reshape(draw, (k, q, d)).transpose(1, 0, 2)
        self._count += 1
        if self._count - self._start == self._block.shape[1]:
            self._write()

    def _write(self) -> None:
        q, _, k, d = self._block.shape
        rows = self._count - self._start
        with open(self.name, "r+b") as fh:
            for t in range(q):
                data = memoryview(self._block[t, :rows]).cast("B")
                offset = 8 * (t * self.shape[0] + self._start) * k * d
                while data:
                    done = os.pwrite(fh.fileno(), data, offset)
                    data, offset = data[done:], offset + done
        self._start = self._count

    def finish(self) -> np.ndarray:
        """Write what the block still holds; return a read-only map of the blob
        in ``shape``'s axis order, loaded from disk only where it is read."""
        if self._count != self.shape[0]:
            raise ValueError(f"{self.name}: {self._count} of {self.shape[0]} kept draws written")
        if self._count > self._start:
            self._write()
        self._block = None
        return _kept_major(np.memmap(self.name, dtype="<f8", mode="r"), self.shape)


def _kept_major(blob: np.ndarray, shape: tuple) -> np.ndarray:
    """The view in ``shape``, (kept, K, Q, d) or (kept, K, d), of a blob whose
    flat C order is time-major (Q, kept, K, d), Q = 1 without a time axis."""
    kept, k, d = shape[0], shape[1], shape[-1]
    quarters = shape[2] if len(shape) == 4 else 1
    return blob.reshape(quarters, kept, k, d).transpose(1, 2, 0, 3).reshape(shape)


def _is_buffer(draws: np.ndarray, partial: str) -> bool:
    """True when ``draws`` is what ``_DrawWriter.finish()`` returned for the
    temp blob ``partial``: a map of the whole file in its kept-major view."""
    if not (isinstance(draws, np.memmap) and draws.filename == os.path.abspath(partial)
            and draws.dtype == "<f8" and os.path.isfile(partial)
            and os.path.getsize(partial) == draws.nbytes):
        return False
    kept, k, d = draws.shape[0], draws.shape[1], draws.shape[-1]
    # _kept_major's strides: kept, K, the time-major quarter if any, d
    want = (8 * k * d, 8 * d) + (8 * kept * k * d,) * (draws.ndim - 3) + (8,)
    return all(n == 1 or s == w for n, s, w in zip(draws.shape, draws.strides, want))


def _put_blob(path: str, name: str, draws: np.ndarray) -> None:
    """Store kept draws, (kept, K, Q, d) or (kept, K, d), as ``name``, by rename.

    A blob that a fit streamed through ``draw_buffers`` is synced to disk and
    renamed. Draws that live in memory are written to the temp blob by a
    ``_DrawWriter``, a block at a time, and renamed without a sync.
    """
    final = os.path.join(path, name)
    partial = final + _PARTIAL
    if _is_buffer(draws, partial):
        with open(partial, "rb") as fh:
            os.fsync(fh.fileno())
    else:
        writer = _DrawWriter(partial, draws.shape)
        for i, draw in enumerate(draws):
            writer[i] = draw
        writer.finish()
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
    """Write the two draw blobs, grid.tsv and, last, MANIFEST."""
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
        "link": "probit",
        "design_transform": draws.design_transform,
        "grid_min": float(draws.grid.min_value),
        "grid_max": float(draws.grid.max_value),
        "grid_step": float(draws.grid.step),
    }
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(path, "MANIFEST"))
    _put_blob(path, "beta.f64", draws.beta)
    _put_blob(path, "sigma2.f64", draws.sigma2)
    _put_text(path, "grid.tsv", "index\tthreshold\n" + "".join(
        f"{j}\t{_fmt(float(y))}\n" for j, y in enumerate(draws.grid.points)))
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
        seed = _uint64("seed", int(man["seed"]))
        stream = _uint64("stream", int(man["stream"]))
        spec_hash, data_hash = man["spec_hash"], man["data_hash"]
    except (KeyError, ValueError) as exc:
        raise StoreError(f"{path}: manifest is missing or corrupt: {exc}") from exc
    manifest = os.path.join(path, "MANIFEST")
    for key, count in (("kept", kept), ("n_thresholds", k), ("n_obs", t_len), ("d", d)):
        if count < 1:
            raise StoreError(f"{manifest}: {key}={count} must be positive")
    for key, value in (("grid_min", grid_min), ("grid_max", grid_max), ("grid_step", grid_step)):
        if not math.isfinite(value):
            raise StoreError(f"{manifest}: {key}={man[key]} must be finite")
    for key, known in (("link", LINKS), ("design_transform", DESIGN_TRANSFORMS)):
        if man.get(key) not in known:
            raise StoreError(f"{path}: unknown {key.replace('_', ' ')} {man.get(key)!r}")
    if expect_data_hash is not None and data_hash != expect_data_hash:
        raise StoreError(
            f"{path}: estimate was fit to different data "
            f"(stored {data_hash[:12]}..., given {expect_data_hash[:12]}...)"
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
            if len(cells) != 2 or cells[0] != str(lineno - 2):
                raise StoreError(f"{grid_name}:{lineno}: rows must be 'index\\tthreshold' in order")
            try:
                point = float(cells[1])
            except ValueError:
                point = math.nan
            if not math.isfinite(point):
                raise StoreError(f"{grid_name}:{lineno}: threshold {cells[1]!r} is not a finite number")
            points.append(point)
    if len(points) != k:
        raise StoreError(f"{path}: grid.tsv has {len(points)} rows, manifest says {k}")
    try:
        grid = ThresholdGrid(points=np.array(points), min_value=grid_min,
                             max_value=grid_max, step=grid_step)
    except ValueError as exc:
        raise StoreError(f"{grid_name}: {exc}") from None

    return PosteriorDraws(
        grid=grid,
        beta=_kept_major(_map_blob(os.path.join(path, "beta.f64"), (t_len, kept, k, d)),
                         (kept, k, t_len, d)),
        sigma2=_map_blob(os.path.join(path, "sigma2.f64"), (kept, k, d)),
        seed=seed,
        stream=stream,
        spec_hash=spec_hash,
        data_hash=data_hash,
        design_transform=man["design_transform"],
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
