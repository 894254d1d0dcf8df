"""Time-varying-parameter distributional regression, probit link.

The conditional CDF of the outcome at each threshold y on a grid is modeled
as Phi(g(x_t)' beta_{y,t}) with the coefficient path beta_{y,:} following
a random walk. Estimation is Gibbs: latent-utility augmentation per
observation, a precision-based joint draw of each threshold's path, inverse
gamma updates for the innovation variances, and, in monotone mode, a
marginal/conditional split of each path so the T intercepts can be drawn
inside the box that keeps fitted CDF values ordered across thresholds.
Thresholds update in batches along a leading threshold axis: every draw
below accepts one path or a stack of B paths, and stacked paths share one
block-diagonal banded system.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import mmap
import os
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .banded import (FIRST_STATE_VARIANCE, NotPositiveDefiniteError, _StackedPrecision,
                     add_prior_diagonal, walk_diagonal)
from .distribution import (DESIGN_TRANSFORMS, PROBIT, LinkFunction, ThresholdGrid,
                           apply_design_transform)
from .samplers import (_count, _draw, _gaussian_precision, _integer, _Lanes, _part,
                       _truncated_mvn, _uint64, stream_generator)

__all__ = [
    "LINKS",
    "ModelSpec",
    "GibbsState",
    "PosteriorDraws",
    "MonotonicityError",
    "EstimationError",
    "fitted_values",
    "draw_latent",
    "draw_beta_unconstrained",
    "draw_sigma2",
    "draw_beta_monotone",
    "initial_state",
    "run_gibbs",
]

class MonotonicityError(RuntimeError):
    """Neighbor threshold paths cross, or a fit cannot be put inside its box.

    ``path`` is the offending threshold's position along the leading axis
    of a batched draw (0 for a single path).
    """

    def __init__(self, message: str, path: int = 0):
        super().__init__(message)
        self.path = int(path)


class EstimationError(RuntimeError):
    """A Gibbs update failed; message carries iteration and threshold."""


# Stored estimates name their link; this is the only one there is.
LINKS = {"probit": PROBIT}


# ``fitted_values``'s einsum; ``run_gibbs`` runs it on contiguous operands
# straight into the state's fits.
_FITS = "td,...td->...t"


def fitted_values(design: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """g(x_t)' beta_t for every t; ``beta`` may carry a leading threshold axis.

    This einsum is the one accumulation order used everywhere the ordering
    constraint is produced or checked, so monotonicity comparisons are exact
    in floating point rather than within some tolerance. Its summation order
    follows memory layout, so both operands are made C-contiguous: a batched
    call then equals the per-threshold calls bit for bit.
    """
    return np.einsum(_FITS, np.ascontiguousarray(design), np.ascontiguousarray(beta))


@dataclass(frozen=True)
class ModelSpec:
    """Everything that defines one estimation run except the data.

    The link is not a setting: every latent is N(fit, 1) truncated at 0, so
    the model is probit (``distribution.PROBIT``) by construction. The priors:
    beta_1 ~ N(0, V I) with V = ``banded.FIRST_STATE_VARIANCE``, increments
    N(0, diag sigma2), and every sigma2_j ~ IG(``ig_prior_nu``, ``ig_prior_s``).
    The counts ``d``, ``iterations``, ``burnin`` and ``truncation_sweeps``
    are integers: a bool or a float is refused, even 2.0, and a numpy
    integer is stored as a plain int, so one model has one spec hash.
    """

    d: int
    grid: ThresholdGrid
    design_transform: str = "identity"
    iterations: int = 10000
    burnin: int = 5000
    monotone: bool = True
    truncation_sweeps: int = 5
    ig_prior_nu: float = 3.0
    ig_prior_s: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name, rule in (("d", _count), ("iterations", _integer), ("burnin", _integer),
                           ("truncation_sweeps", _count)):
            object.__setattr__(self, name, rule(name, getattr(self, name)))
        if self.design_transform not in DESIGN_TRANSFORMS:
            raise ValueError(f"unknown design transform {self.design_transform!r}")
        if self.burnin < 0 or self.iterations <= self.burnin:
            raise ValueError("need iterations > burnin >= 0")
        for name, value in (("ig_prior_nu", self.ig_prior_nu), ("ig_prior_s", self.ig_prior_s)):
            if np.ndim(value) != 0 or not value > 0.0:
                raise ValueError(f"{name} must be one positive number")
        object.__setattr__(self, "seed", _uint64("seed", self.seed))  # a JSON-serialisable int

    def canonical(self) -> dict:
        return {
            "d": self.d,
            "grid": self.grid.canonical(),
            "design_transform": self.design_transform,
            "iterations": self.iterations,
            "burnin": self.burnin,
            "monotone": self.monotone,
            "truncation_sweeps": self.truncation_sweeps,
            "ig_prior_nu": float(self.ig_prior_nu),
            "ig_prior_s": float(self.ig_prior_s),
            "first_state_variance": FIRST_STATE_VARIANCE,
        }

    def spec_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def hash_data(y: np.ndarray, x: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(y, dtype="<f8").tobytes())
    h.update(repr(np.asarray(x).shape).encode())
    h.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass
class GibbsState:
    """Mutable sampler state: one path and variance vector per threshold.

    ``fitted`` is ``fitted_values(design, beta)``, the fits the draws
    exchange: ``run_gibbs`` refreshes a batch's rows whenever it draws the
    batch's paths, in both modes, and the next latent draw and the
    neighbors' ordering boxes read them from here.
    """

    beta: np.ndarray    # (K, T, d)
    sigma2: np.ndarray  # (K, d)
    fitted: np.ndarray  # (K, T)


@dataclass(eq=False)
class PosteriorDraws:
    """Kept draws, iteration-major, plus enough metadata to reproduce them.

    ``beta`` is indexed (kept, K, T, d) whatever its memory layout: a loaded
    estimate's is a read-only view of its time-major blob. A fit whose
    buffers keep only the last Q quarters of each path has (kept, K, Q, d),
    and ``n_obs`` is then Q. The draws are of the probit model, so the
    readers in ``distribution`` need nothing but the draws to turn them
    into curves.
    """

    grid: ThresholdGrid
    beta: np.ndarray    # (kept, K, T, d)
    sigma2: np.ndarray  # (kept, K, d)
    seed: int
    stream: int
    spec_hash: str
    data_hash: str
    design_transform: str = "identity"

    @property
    def kept(self) -> int:
        return self.beta.shape[0]

    @property
    def n_thresholds(self) -> int:
        return self.beta.shape[1]

    @property
    def n_obs(self) -> int:
        return self.beta.shape[2]

    @property
    def d(self) -> int:
        return self.beta.shape[3]


def _latent_box(threshold, y: np.ndarray) -> tuple:
    """Bounds of the latents and their one-ulp-inside clamps: (0, inf) where
    y_t <= threshold, (-inf, 0) elsewhere; (B, T) for B thresholds."""
    below = y <= np.asarray(threshold)[..., None]
    lower, upper = np.where(below, 0.0, -np.inf), np.where(below, np.inf, 0.0)
    return lower, upper, np.nextafter(lower, np.inf), np.nextafter(upper, -np.inf)


def _draw_latent(fits: np.ndarray, box: tuple, gen: np.random.Generator) -> np.ndarray:
    """``draw_latent``'s core: ``box`` is ``_latent_box(threshold, y)``,
    which depends only on the data and the thresholds, so a sampler builds
    it once per fit. Checks only that the fits are finite."""
    if not np.isfinite(fits).all():
        raise ValueError("latent draw needs finite fitted values")
    return _draw(fits, 1.0, *box, gen)


def draw_latent(threshold, y: np.ndarray, fits: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Latent utilities: one-sided truncated normals around the fits.

    ``fits`` is g(x_t)' beta_t, ``fitted_values(design, beta)`` of the
    current path; ``run_gibbs`` passes the state's fits. Observations with
    y_t <= threshold draw from N(fit, 1) on (0, inf), the rest on
    (-inf, 0), so the sign always reproduces the indicator. With B
    thresholds and fits (B, T) this is one (B, T) draw from ``gen``, the
    numpy Generator of the fit, ``stream_generator(spec.seed, stream)`` in
    ``run_gibbs``. The draws are those of ``sample_truncated_normal`` with
    these bounds, through its unchecked core: the fit is checked here, the
    bounds are valid by construction, and their clamps are moved one ulp
    inside as that draw moves them. A non-finite fit raises ValueError.
    """
    return _draw_latent(np.asarray(fits, dtype=np.float64), _latent_box(threshold, y), gen)


def _draw_paths(design, precision: _StackedPrecision, latent, sigma2, gen: np.random.Generator,
                out: np.ndarray) -> np.ndarray:
    """``draw_beta_unconstrained``'s core, on per-fit buffers.

    ``precision`` is the per-fit ``_StackedPrecision`` of ``design``, for at
    least B paths, and ``out`` a C-contiguous (B, T, d) float64 buffer. It
    receives X'z, entry (b, t, j) g_tj z_bt, filled one coefficient at a
    time along the long axes, and then the draw, in place; the precision is
    factored in place. Returns ``out``. Checks only what depends on the
    draws: positive variances, a finite X'z and the pivots.
    """
    for j in range(design.shape[1]):
        np.multiply(latent, design[:, j], out=out[..., j])
    _gaussian_precision(precision(sigma2), out.reshape(-1), gen)
    return out


def draw_beta_unconstrained(design, latent, sigma2, gen: np.random.Generator) -> np.ndarray:
    """Joint draw of one threshold's path from N(K^{-1} X'z, K^{-1}).

    With latents (B, T) and variances (B, d) the B paths come from one
    stacked block-diagonal system and the result is (B, T, d). The
    precision is ``assemble_precision(design, sigma2)``; nothing reads it
    after the draw, so it is factored in place.
    """
    design = np.asarray(design, dtype=np.float64)
    latent = np.asarray(latent, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    precision = _StackedPrecision(design, len(np.atleast_2d(latent)))
    t_len, d = design.shape
    if latent.ndim not in (1, 2) or latent.shape[-1] != t_len:
        raise ValueError(f"latent has shape {latent.shape}, expected ({t_len},) or (B, {t_len})")
    if sigma2.shape != latent.shape[:-1] + (d,):
        raise ValueError(f"sigma2 has shape {sigma2.shape}, expected {latent.shape[:-1] + (d,)}")
    return _draw_paths(design, precision, latent, sigma2.reshape(-1, d), gen,
                       np.empty(latent.shape + (d,)))


def _draw_sigma2(beta, nu: float, s: float, gen: np.random.Generator, increments: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """``draw_sigma2``'s core, on per-fit buffers: ``increments``
    (..., T - 1, d) receives the squared increments and ``out`` (..., d) the
    variances, which it returns. The prior and the shapes are checked once
    per fit."""
    t_len, d = beta.shape[-2:]
    sq = np.square(np.subtract(beta[..., 1:, :], beta[..., :-1, :], out=increments), out=increments)
    # For d > 1, np.sum(axis=-2) adds over t in sequence through a strided
    # pass; einsum adds in the same order along rows, so the sums are equal
    # bit for bit. At d = 1 the t axis is contiguous and np.sum's pairwise
    # order is kept.
    rss = np.sum(sq, axis=-2) if d == 1 else np.einsum("...td->...d", sq)
    rss *= 0.5
    rss += s
    scale = np.divide(1.0, rss, out=rss)
    # ``gen.gamma(shape, scale)`` is ``scale * gen.standard_gamma(shape)``,
    # draw for draw, without the broadcast of a per-draw scale
    draw = gen.standard_gamma(nu + 0.5 * (t_len - 1), size=scale.shape)
    return np.divide(1.0, np.multiply(draw, scale, out=draw), out=out)


def draw_sigma2(beta, nu: float, s: float, gen: np.random.Generator) -> np.ndarray:
    """Conjugate inverse gamma update of the innovation variances.

    One prior IG(nu, s) for every coefficient: shape nu + (T-1)/2 and scale
    s + sum of squared increments / 2 per coefficient. The first state's
    prior N(0, V) does not involve sigma2, so beta_1 stays out of the sum
    and the update is exact. Paths (B, T, d) give variances (B, d).
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim not in (2, 3) or beta.shape[-2] < 2:
        raise ValueError("beta must be (T, d) or (B, T, d) with T >= 2")
    if np.ndim(nu) != 0 or np.ndim(s) != 0 or not (nu > 0.0 and s > 0.0):
        raise ValueError("prior parameters must be two positive numbers")
    t_len, d = beta.shape[-2:]
    return _draw_sigma2(beta, nu, s, gen, np.empty(beta.shape[:-2] + (t_len - 1, d)),
                        np.empty(beta.shape[:-2] + (d,)))


def _tridiag_submatrix(diag, off, keep):
    """(diag, off) of the kept coordinates of a tridiagonal system: two kept
    coordinates that were not adjacent do not couple."""
    idx = np.nonzero(keep)[0]
    sub_off = np.zeros(idx.size)
    sub_off[:-1] = np.where(idx[1:] == idx[:-1] + 1, off[idx[:-1]], 0.0)
    return diag[idx], sub_off


def _intercept_system(design, latent, sigma2, rest):
    """The intercepts' tridiagonal system given ``rest``, the paths with
    each intercept replaced by its pinned value or 0: (B, T) arrays diag,
    off and rhs, the intercept rows of the joint precision K and of
    X'z - K rest. The intercepts' conditional is N(K_11^{-1} rhs, K_11^{-1})
    with K_11 the tridiagonal (diag, off), so rhs is the canonical rhs the
    truncated sweep reads its conditional means from; nothing solves for
    the mean. With an intercept column of ones, diag_t is 1 plus the prior's
    diagonal (``add_prior_diagonal``) and off_t is -1 / sigma2_0, 0 at the end.
    K rest adds, in order, the intercept's own term, the slopes j = 1..d-1,
    the previous and the next intercept: a band product over subdiagonals
    0..d, each adding its lower then its upper term, without its exact-zero
    terms, so every entry equals the joint system's bit for bit.
    """
    inv = 1.0 / sigma2[:, 0]
    diag = np.ones(latent.shape)
    add_prior_diagonal(diag, inv, walk_diagonal(latent.shape[-1]))
    off = np.zeros_like(diag)
    off[:, :-1] = -inv[:, None]
    acc = diag * rest[..., 0]
    for j in range(1, design.shape[1]):
        acc += design[:, j] * rest[..., j]
    acc[:, 1:] += off[:, :-1] * rest[:, :-1, 0]
    acc[:, :-1] += off[:, :-1] * rest[:, 1:, 0]
    return diag, off, latent - acc


def _repair_ordering(beta, design, lower, upper):
    """Nudge intercepts so recomputed fits land inside [lower, upper].

    Truncation operates on the intercept, but the ordering is checked on the
    recomputed inner product, whose rounding can differ by an ulp. Each
    round moves every offending intercept by its fit's error and, where that
    step is below the fit's resolution, by one fit-scale ulp. An intercept
    of larger magnitude absorbs that nudge; it steps by one of its own ulps
    toward the box instead. With continuous data this almost never runs. A
    fit still outside its box after the cap (an exact hit of a degenerate
    box may be unrepresentable) raises MonotonicityError: left in place it
    would be an ordering crossing.
    Returns the paths and their fits.
    """
    for _ in range(64):
        fits = fitted_values(design, beta)
        row, t = np.nonzero(~((fits >= lower) & (fits <= upper)))
        if row.size == 0:
            return beta, fits
        ft = fits[row, t]
        step = np.where(ft < lower[row, t], lower[row, t], upper[row, t]) - ft
        beta[row, t, 0] += step
        stuck = fitted_values(design[t], beta[row, t]) == ft
        row, t, toward = row[stuck], t[stuck], np.copysign(np.inf, step[stuck])
        held = beta[row, t, 0]
        nudged = held + np.copysign(np.spacing(np.abs(ft[stuck])), toward)
        beta[row, t, 0] = np.where(nudged == held, np.nextafter(held, toward), nudged)
    fits = fitted_values(design, beta)
    row, t = np.argwhere(~((fits >= lower) & (fits <= upper)))[0]
    raise MonotonicityError(
        f"fit {fits[row, t]:.17g} stays outside its ordering box [{lower[row, t]:.17g}, "
        f"{upper[row, t]:.17g}] at t={t} after 64 repair steps", path=row)


def _draw_monotone(lo_path, up_path, design, precision: _StackedPrecision, latent, sigma2,
                   current, gen: np.random.Generator, sweeps: int, out: np.ndarray) -> tuple:
    """``draw_beta_monotone``'s core, on per-fit buffers.

    Neighbor paths, latents and variances are stacked, (B, T) and (B, d),
    ``current`` is (B, T, d), and ``precision`` and ``out`` are the joint
    draw's per-fit buffers (``_draw_paths``); the paths are drawn into
    ``out``. The design's intercept column is checked once per fit.
    Returns the paths and their fits.
    """
    beta = _draw_paths(design, precision, latent, sigma2, gen, out)

    if not (np.isfinite(lo_path).any() or np.isfinite(up_path).any()):
        return beta, fitted_values(design, beta)
    if np.any(lo_path > up_path):
        row, t = np.argwhere(lo_path > up_path)[0]
        raise MonotonicityError(f"neighbor threshold paths cross at t={t}: lower "
                                f"{lo_path[row, t]:.6g} > upper {up_path[row, t]:.6g}", path=row)

    # box on the intercepts given the non-intercept block
    rest = beta.copy()
    rest[..., 0] = 0.0
    base = fitted_values(design, rest)
    lo = (lo_path - base).ravel()
    up = (up_path - base).ravel()
    pinned = np.isfinite(lo) & (lo >= up)
    free = ~pinned

    # Conditional of the free intercepts given the rest and the pinned ones:
    # precision K_ff and canonical rhs (X'z - K rest)_f with the pinned
    # values placed in rest. The intercept block of K is tridiagonal, since
    # only the random-walk prior couples neighboring intercepts, and it is
    # zero across path boundaries.
    rest[..., 0] = np.where(pinned, lo, 0.0).reshape(lo_path.shape)
    x1 = rest[..., 0].ravel()
    if free.any():
        diag, off, rhs = _intercept_system(design, latent, sigma2, rest)
        diag_f, off_f = _tridiag_submatrix(diag.ravel(), off.ravel(), free)
        lo_f, up_f = lo[free], up[free]
        init = np.clip(np.asarray(current, dtype=np.float64)[..., 0].ravel()[free], lo_f, up_f)
        x1[free] = _truncated_mvn(diag_f, off_f, rhs.ravel()[free], lo_f, up_f, init, sweeps,
                                  _part(gen, free, free.size))

    beta[..., 0] = x1.reshape(lo_path.shape)
    return _repair_ordering(beta, design, lo_path, up_path)


def draw_beta_monotone(
    lower_path,
    upper_path,
    design,
    latent,
    sigma2,
    current,
    gen: np.random.Generator,
    sweeps: int = ModelSpec.truncation_sweeps,
) -> tuple[np.ndarray, np.ndarray]:
    """Path draw for one threshold under the fitted-value ordering box.

    The non-intercept block comes from its unconstrained marginal posterior
    (taken from one ``draw_beta_unconstrained`` draw), then the T intercepts
    are drawn from their exact Gaussian conditional truncated to the box

        lower_path - c_t  <=  beta_{t,1}  <=  upper_path - c_t,

    where c_t is the non-intercept part of the fitted value. ``lower_path``
    and ``upper_path`` are the neighboring thresholds' fitted paths, or None
    when unbounded on that side; infinite entries leave that side open. The
    intercept column of ``design`` must be identically one, otherwise the
    box above would not be the constraint.

    With latents (B, T), variances (B, d) and neighbor paths (B, T) the B
    thresholds are drawn together from one stacked block-diagonal system,
    and their intercepts from one stacked tridiagonal system whose blocks
    never couple. A MonotonicityError's ``path`` names the offending one.
    ``current`` holds the threshold's current paths, shaped like the
    result; the intercept sweep continues the chain from their intercepts,
    clipped into the new box, which makes the update a Gibbs step.

    The joint draw factors in place; it is the only factorization here. The
    intercept step builds the intercepts' tridiagonal precision and
    canonical rhs from sigma2_0, the latents and the drawn slopes.
    Intercepts whose box is a single point are pinned to it; the free ones
    are drawn by ``sweeps`` two-colour sweeps of ``sample_truncated_mvn``,
    which reads each conditional mean from that precision and rhs;
    ``sweeps`` is a positive integer, and a bool or a float raises
    TypeError. Returns the paths and their fits, which the ordering check
    computes anyway.
    """
    design = np.asarray(design, dtype=np.float64)
    d = design.shape[1]
    if not np.all(design[:, 0] == 1.0):
        raise ValueError("monotone updates require a leading intercept column of ones")
    latent = np.asarray(latent, dtype=np.float64)
    single = latent.ndim == 1
    if np.shape(current) != latent.shape + (d,):
        raise ValueError("current paths must have one (T, d) path per threshold drawn")
    lo_path = np.full(latent.shape, -np.inf) if lower_path is None else lower_path
    up_path = np.full(latent.shape, np.inf) if upper_path is None else upper_path
    lo_path, up_path = (np.asarray(p, dtype=np.float64) for p in (lo_path, up_path))
    if lo_path.shape != latent.shape or up_path.shape != latent.shape:
        raise ValueError("neighbor paths must have one entry per time point")
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if sigma2.shape != latent.shape[:-1] + (d,):
        raise ValueError(f"sigma2 has shape {sigma2.shape}, expected {latent.shape[:-1] + (d,)}")
    sweeps = _count("sweeps", sweeps)
    lo_path, up_path, latent = (np.atleast_2d(a) for a in (lo_path, up_path, latent))
    beta, fits = _draw_monotone(lo_path, up_path, design, _StackedPrecision(design, len(latent)),
                                latent, sigma2.reshape(-1, d), current, gen, sweeps,
                                np.empty(latent.shape + (d,)))
    return (beta[0], fits[0]) if single else (beta, fits)


def initial_state(y: np.ndarray, grid: ThresholdGrid, t_len: int, d: int, link: LinkFunction) -> GibbsState:
    """Deterministic start: intercepts at ``link.inverse`` (a fit passes
    ``PROBIT``) of a smoothed empirical CDF (strictly increasing across
    thresholds), zero slopes, sigma2 = 0.01. ``fitted`` holds the
    intercepts, the fits of a design whose first column is ones; a sampler
    that knows its design sets it to ``fitted_values(design, beta)``."""
    k = grid.n
    counts = (np.asarray(y)[None, :] <= grid.points[:, None]).sum(axis=1)
    p = (counts + (np.arange(k) + 1.0) / (k + 1.0)) / (len(y) + 1.0)
    beta = np.zeros((k, t_len, d))
    beta[:, :, 0] = link.inverse(p)[:, None]
    sigma2 = np.full((k, d), 0.01)
    fitted = np.broadcast_to(link.inverse(p)[:, None], (k, t_len)).copy()
    return GibbsState(beta=beta, sigma2=sigma2, fitted=fitted)


def _in_memory(kept: int, k: int, t_len: int, d: int):
    return np.empty((kept, k, t_len, d)), np.empty((kept, k, d))


def _shared(a: np.ndarray) -> np.ndarray:
    """A float64 copy of ``a`` in anonymous shared memory: a process forked
    afterwards writes these pages, not copies of them."""
    out = np.frombuffer(mmap.mmap(-1, a.nbytes), count=a.size).reshape(a.shape)
    out[...] = a
    return out


def _lanes(rows: range) -> tuple:
    """A colour's two lanes: its lower half, one threshold larger when the
    colour's size is odd, and its upper half."""
    half = len(rows) - len(rows) // 2
    return rows[:half], rows[half:]


# A cgroup's CPU quota, v2 then v1, read at the mount root, where a container
# sees its own group: "quota period", or the quota and the period in two files.
_CPU_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


def _quota_cpus():
    """Whole CPUs of the cgroup CPU quota, or None where none is set or readable."""
    for files in _CPU_QUOTA_FILES:
        try:
            quota, period = " ".join(Path(f).read_text() for f in files).split()
            return None if quota in ("max", "-1") else int(quota) // int(period)
        except (OSError, ValueError):
            continue
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one,
    capped by the whole CPUs of its cgroup's quota, which the mask does not
    show. A fit's lanes in two processes both spin while they wait for each
    other, so on a quota of fewer than two CPUs they would throttle each
    other."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    quota = _quota_cpus()
    return cpus if quota is None else max(1, min(cpus, quota))


def _may_fork() -> bool:
    """True on Linux, in a process that runs one OS thread, may use two CPUs
    (``_usable_cpus``) and is no multiprocessing worker, whose pool shares
    the CPUs already: forking a process that runs more threads (BLAS
    threads, say) can deadlock the child, and two lane processes on one CPU
    only take turns."""
    mp = sys.modules.get("multiprocessing")
    try:
        return (sys.platform == "linux" and not (mp and mp.parent_process())
                and len(os.listdir("/proc/self/task")) == 1 and _usable_cpus() >= 2)
    except OSError:  # no /proc to count them
        return False


class _Handoff:
    """One process's ends of the two pipes between a fit's lane processes.

    Each colour ends in a barrier: a process posts once its lane of the
    colour is in and waits for the other's post. Reads do not block; a wait
    polls with ``os.sched_yield()``, so the waiting process keeps its CPU
    instead of sleeping until the post wakes it. A post is b"."; b"!" and
    a message report a failed lane; end of file means the other process is
    gone.
    """

    def __init__(self, read: int, write: int):
        self.read, self.write = read, write

    def post(self) -> None:
        os.write(self.write, b".")

    def fail(self, message: str) -> None:
        # one write of at most PIPE_BUF bytes lands whole
        os.write(self.write, b"!" + message.encode()[:4000])

    def _read(self, size: int) -> bytes:
        while True:
            try:
                return os.read(self.read, size)
            except BlockingIOError:
                os.sched_yield()

    def wait(self) -> None:
        got = self._read(1)
        if got == b".":
            return
        if got == b"!":
            parts = []
            while part := self._read(4096):  # to end of file: the sender exits
                parts.append(part)
            raise EstimationError(b"".join(parts).decode(errors="replace"))
        raise EstimationError("the other lane process exited before its lane was drawn")

    def close(self) -> None:
        os.close(self.read)
        os.close(self.write)


@contextlib.contextmanager
def _lane_helper(draw):
    """Fork a helper that runs ``draw(handoff)`` and leaves through
    ``os._exit``; yield this process's ``_Handoff``, or None when the system
    refuses the fork. The helper is killed if the block raises and reaped
    in every case, so it never outlives the block.

    The helper ignores SIGINT (its parent takes ^C and stops it), runs no
    garbage collection, so no finalizer of its parent's objects runs twice,
    and writes to /dev/null in place of stdout and stderr. A failed lane's
    EstimationError goes to the parent as its message.
    """
    # the first path draw imports LAPACK; imported here it is shared, not
    # imported again in each process after the fork
    from scipy.linalg import lapack  # noqa: F401
    down, up = os.pipe(), os.pipe()  # parent to helper, helper to parent
    os.set_blocking(down[0], False)
    os.set_blocking(up[0], False)
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: this process draws alone
        for fd in (*down, *up):
            os.close(fd)
        yield None
        return
    if not pid:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            gc.disable()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            os.close(null)
            os.close(down[1])
            os.close(up[0])
            handoff = _Handoff(down[0], up[1])
            try:
                draw(handoff)
                code = 0
            except EstimationError as exc:
                handoff.fail(str(exc))
            finally:
                handoff.close()
        finally:
            os._exit(code)
    os.close(down[0])
    os.close(up[1])
    handoff = _Handoff(up[0], down[1])
    try:
        yield handoff
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        handoff.close()
        with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored: reaped already
            os.waitpid(pid, 0)


def run_gibbs(spec: ModelSpec, data, *, stream: int = 0, buffers=_in_memory) -> PosteriorDraws:
    """Full Gibbs pass over thresholds and iterations.

    ``data`` is (y, x): outcomes of length T and raw design rows (T, d0)
    with an intercept first; the spec's design transform maps them to the
    model design. The result records the spec's seed and ``stream``.
    Thresholds update in batches: one latent draw, one path draw (monotone
    or not) and one variance draw on each stacked batch. The draws exchange
    fits: after every batch ``state.fitted`` holds ``fitted_values(design,
    state.beta)``, and the next latent draw of a batch reads its fits from
    there instead of recomputing them. Unconstrained mode is one colour of
    all K thresholds, which are independent given the data.

    In monotone mode a threshold sees the others only through its
    neighbors' fits, which bound it below and above, so all even thresholds
    update given the odd ones, then all odd ones given the even ones: a
    red-black systematic-scan Gibbs sampler that leaves every kept
    iteration exactly ordered across the whole grid. Given the other
    colour, the thresholds of a colour are independent.

    In either mode each colour splits into two fixed lanes (``_lanes``),
    each drawn from its own ``stream_generator(spec.seed, stream, lane)``.
    Where ``_may_fork`` allows it (Linux, one OS thread, two usable CPUs,
    not a multiprocessing worker), one helper process is forked per fit
    (``_lane_helper``) and draws lane 1 of every colour while this process
    draws lane 0, each lane one batch; the two meet at the end of each
    colour (``_Handoff``). Otherwise, a refused fork included, this process
    draws each colour as one batch whose draws ``samplers._Lanes`` takes
    from the two lanes' streams, lane by lane. With a helper the state's
    paths, variances and fits live in shared memory, and a lane's draws
    depend only on its stream and the state, so the draws are the same
    either way. No helper outlives the call: it is reaped on success and
    killed on any exception, and a helper that dies fails the fit with
    EstimationError.

    What does not change within a fit is built and checked once, before
    the first iteration: the likelihood band X'X, the walk diagonal, each
    batch's latent bounds, the band storage, which every path draw refills
    and factors in place, the buffer the paths are drawn into and the
    variance draw's increment buffer. Each process builds them for the
    batches it draws, after the fork, and its batches take turns with one
    set of buffers, sized for the largest. Batches are strided views of the
    state. An unconstrained batch is a run of contiguous rows of it, so its
    paths are drawn straight into the state, and its fits and variances are
    written there too. In monotone mode the fits the ordering check
    computes become the state's fits, and so the neighbors' bounds,
    directly. Per batch, only
    what depends on the draws is checked: finite fits and X'z, positive
    variances and positive finite pivots. The draws are those of calling
    the public draws batch by batch, which run the same cores on buffers of
    their own.

    ``buffers(kept, K, T, d)`` returns the (kept, K, Q, d) and (kept, K, d)
    targets that receive the kept draws, one ``target[i] = draw`` per kept
    iteration in order, and give the result's ``beta`` and ``sigma2``. A
    target is a writable array, or a writer whose ``finish()`` returns the
    array once every draw is in. Q is T for whole paths; a smaller Q keeps
    only the last Q quarters of each path, which is all a one-step forecast
    reads. The default keeps whole paths in memory; ``store.draw_buffers``
    streams them to disk a block of draws at a time. Only this process
    writes them.
    """
    y, x_raw = data
    y = np.asarray(y, dtype=np.float64)
    x_raw = np.atleast_2d(np.asarray(x_raw, dtype=np.float64))
    if y.ndim != 1 or x_raw.shape[0] != y.size:
        raise ValueError("data must be (y, x) with matching lengths")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x_raw))):
        raise ValueError("estimation data must be free of missing values")
    design = np.ascontiguousarray(apply_design_transform(x_raw, spec.design_transform))
    t_len, d = design.shape
    if d != spec.d:
        raise ValueError(f"design has {d} columns after transform, spec says {spec.d}")
    if t_len < 2:
        raise ValueError("need at least two time points")
    if spec.monotone and not np.all(design[:, 0] == 1.0):
        raise ValueError("monotone estimation requires an intercept column of ones")

    grid = spec.grid
    k = grid.n

    state = initial_state(y, grid, t_len, d, PROBIT)
    kept = spec.iterations - spec.burnin
    out_beta, out_sigma2 = buffers(kept, k, t_len, d)
    quarters = out_beta.shape[2]
    if out_beta.shape != (kept, k, quarters, d) or not 1 <= quarters <= t_len:
        raise ValueError(f"buffers gave beta of shape {out_beta.shape} for "
                         f"{(kept, k, t_len, d)}")

    # each lane of a colour draws from its own stream, whichever process draws it
    gens = [stream_generator(spec.seed, stream, lane) for lane in range(2)]
    colours = [range(c, k, 2) for c in range(min(k, 2))] if spec.monotone else [range(k)]
    fork = any(len(rows) > 1 for rows in colours) and _may_fork()  # some lane 1 not empty
    # Rows 1..K of ``bounds`` are the fits, with open bounds beyond the ends
    # of the grid, so a batch's neighbor fits are strided views of it. With
    # a helper the state lives in shared memory, which the helper writes too.
    bounds = np.vstack([np.full(t_len, -np.inf), fitted_values(design, state.beta),
                        np.full(t_len, np.inf)])
    if fork:
        bounds, state.beta, state.sigma2 = (_shared(a) for a in (bounds, state.beta, state.sigma2))
    state.fitted = bounds[1:-1]
    nu, s = spec.ig_prior_nu, spec.ig_prior_s

    def workspace(lane):
        """Each colour's batch that one process draws, lane 0 or 1 on its
        own stream or, for ``lane`` None, the whole colour. The batches take
        turns with one band storage, one path buffer and one increment
        buffer, whose leading rows serve a smaller batch."""
        if lane is None:
            drawn = [(rows, _Lanes(gens, len(_lanes(rows)[0]), len(rows))) for rows in colours]
        else:
            drawn = [(_lanes(rows)[lane], gens[lane]) for rows in colours]
        size = max(len(rows) for rows, _ in drawn)
        precision = _StackedPrecision(design, size)
        paths = np.empty((size, t_len, d)) if spec.monotone else None
        increments = np.empty((size, t_len - 1, d))
        work = []
        for rows, gen in drawn:
            batch = slice(rows.start, rows.start + rows.step * len(rows), rows.step)
            if spec.monotone:
                neighbors = (bounds[batch], bounds[batch.start + 2 : batch.stop + 2 : 2])
                into = paths[: len(rows)]
            else:  # an unconstrained batch is contiguous rows of the state
                neighbors, into = (), state.beta[batch]
            work.append((batch, rows, _latent_box(grid.points[batch], y), precision, into,
                         increments[: len(rows)], neighbors, gen))
        return work

    def update(it, batch, rows, box, precision, into, inc, neighbors, gen):
        if not rows:
            return
        try:
            latent = _draw_latent(state.fitted[batch], box, gen)
            if spec.monotone:
                beta, fits = _draw_monotone(
                    *neighbors, design, precision, latent, state.sigma2[batch],
                    state.beta[batch], gen, spec.truncation_sweeps, into)
                state.beta[batch] = beta
                state.fitted[batch] = fits
            else:  # ``into`` is the batch's rows of state.beta
                beta = _draw_paths(design, precision, latent, state.sigma2[batch], gen, into)
                np.einsum(_FITS, design, beta, out=state.fitted[batch])
            _draw_sigma2(beta, nu, s, gen, inc, out=state.sigma2[batch])
        except Exception as exc:
            row = exc.row // (t_len * d) if isinstance(exc, NotPositiveDefiniteError) else 0
            j = rows[exc.path if isinstance(exc, MonotonicityError) else row]
            raise EstimationError(
                f"iteration {it}, threshold {j} (y={grid.points[j]:.6g}): {exc}"
            ) from exc

    def draw_lane_1(handoff):
        work = workspace(1)
        for it in range(spec.iterations):
            for batch in work:
                update(it, *batch)
                handoff.post()
                handoff.wait()

    with (_lane_helper(draw_lane_1) if fork else contextlib.nullcontext()) as handoff:
        work = workspace(0 if handoff else None)
        for it in range(spec.iterations):
            for c, batch in enumerate(work):
                update(it, *batch)
                if handoff:
                    handoff.wait()
                # the helper writes the state again only after the post below
                if c == len(work) - 1 and it >= spec.burnin:
                    out_beta[it - spec.burnin] = state.beta[:, t_len - quarters :]
                    out_sigma2[it - spec.burnin] = state.sigma2
                if handoff:
                    handoff.post()

    beta, sigma2 = (out if isinstance(out, np.ndarray) else out.finish()
                    for out in (out_beta, out_sigma2))
    return PosteriorDraws(
        grid=grid,
        beta=beta,
        sigma2=sigma2,
        seed=spec.seed,
        stream=int(stream),
        spec_hash=spec.spec_hash(),
        data_hash=hash_data(y, x_raw),
        design_transform=spec.design_transform,
    )
