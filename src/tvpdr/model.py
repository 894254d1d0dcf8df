"""Time-varying-parameter distributional regression, probit link.

The conditional CDF of the outcome at each threshold y on a grid is modeled
as Lambda(g(x_t)' beta_{y,t}) with the coefficient path beta_{y,:} following
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

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .banded import (BandedMatrix, NotPositiveDefiniteError, assemble_precision,
                     cholesky_banded, likelihood_band, solve_banded)
from .distribution import ThresholdGrid
from .samplers import (RngHandle, _draw, as_generator, sample_gaussian_precision,
                       sample_truncated_mvn)

__all__ = [
    "LinkFunction",
    "PROBIT",
    "LINKS",
    "DESIGN_TRANSFORMS",
    "apply_design_transform",
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

# The latents' bounds 0 and +-inf moved one ulp inside.
_TINY = np.nextafter(0.0, 1.0)
_HUGE = np.finfo(np.float64).max


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


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class LinkFunction:
    """CDF link Lambda with its density and inverse."""

    kind: str
    cdf: callable
    pdf: callable
    inverse: callable


PROBIT = LinkFunction(kind="probit", cdf=ndtr, pdf=_phi, inverse=ndtri)

LINKS = {"probit": PROBIT}


def _transform_identity(x: np.ndarray) -> np.ndarray:
    return x


def _transform_quadratic(x: np.ndarray) -> np.ndarray:
    # squares of the non-intercept columns appended on the right
    return np.hstack([x, x[:, 1:] ** 2])


DESIGN_TRANSFORMS = {
    "identity": _transform_identity,
    "quadratic": _transform_quadratic,
}


def apply_design_transform(x: np.ndarray, name: str) -> np.ndarray:
    """Map raw design rows (intercept first) through a named expansion g."""
    try:
        fn = DESIGN_TRANSFORMS[name]
    except KeyError:
        raise ValueError(f"unknown design transform {name!r}") from None
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return fn(x)


def fitted_values(design: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """g(x_t)' beta_t for every t; ``beta`` may carry a leading threshold axis.

    This einsum is the one accumulation order used everywhere the ordering
    constraint is produced or checked, so monotonicity comparisons are exact
    in floating point rather than within some tolerance. Its summation order
    follows memory layout, so both operands are made C-contiguous: a batched
    call then equals the per-threshold calls bit for bit.
    """
    return np.einsum("td,...td->...t", np.ascontiguousarray(design), np.ascontiguousarray(beta))


@dataclass(frozen=True)
class ModelSpec:
    """Everything that defines one estimation run except the data and rng."""

    d: int
    grid: ThresholdGrid
    design_transform: str = "identity"
    link: str = "probit"
    iterations: int = 10000
    burnin: int = 5000
    monotone: bool = True
    truncation_sweeps: int = 5
    include_initial_state_in_ig: bool = False
    ridge_scale: float = 0.0
    ig_prior_nu: float = 3.0
    ig_prior_s: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.link not in LINKS:
            raise ValueError(f"unsupported link {self.link!r} (probit only)")
        if self.design_transform not in DESIGN_TRANSFORMS:
            raise ValueError(f"unknown design transform {self.design_transform!r}")
        if self.burnin < 0 or self.iterations <= self.burnin:
            raise ValueError("need iterations > burnin >= 0")
        if self.truncation_sweeps < 1:
            raise ValueError("truncation_sweeps must be >= 1")
        if self.ridge_scale < 0.0:
            raise ValueError("ridge_scale must be >= 0")
        nu, s = self.prior_arrays()
        if not (np.all(nu > 0.0) and np.all(s > 0.0)):
            raise ValueError("inverse gamma prior parameters must be positive")

    def prior_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        nu = np.broadcast_to(np.asarray(self.ig_prior_nu, dtype=np.float64), (self.d,))
        s = np.broadcast_to(np.asarray(self.ig_prior_s, dtype=np.float64), (self.d,))
        return np.array(nu), np.array(s)

    def link_function(self) -> LinkFunction:
        return LINKS[self.link]

    def canonical(self) -> dict:
        nu, s = self.prior_arrays()
        return {
            "d": self.d,
            "grid": self.grid.canonical(),
            "design_transform": self.design_transform,
            "link": self.link,
            "iterations": self.iterations,
            "burnin": self.burnin,
            "monotone": self.monotone,
            "truncation_sweeps": self.truncation_sweeps,
            "include_initial_state_in_ig": self.include_initial_state_in_ig,
            "ridge_scale": self.ridge_scale,
            "ig_prior_nu": nu.tolist(),
            "ig_prior_s": s.tolist(),
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
    """Mutable sampler state: one path and variance vector per threshold."""

    beta: np.ndarray    # (K, T, d)
    sigma2: np.ndarray  # (K, d)
    fitted: np.ndarray  # (K, T), always fitted_values of beta


@dataclass(eq=False)
class PosteriorDraws:
    """Kept draws, iteration-major, plus enough metadata to reproduce them.

    ``beta`` is indexed (kept, K, T, d) whatever its memory layout: a loaded
    estimate's is a read-only view of its time-major blob. A fit whose
    buffers keep only the last Q quarters of each path has (kept, K, Q, d),
    and ``n_obs`` is then Q.
    """

    grid: ThresholdGrid
    beta: np.ndarray    # (kept, K, T, d)
    sigma2: np.ndarray  # (kept, K, d)
    seed: int
    stream: int
    spec_hash: str
    data_hash: str
    design_transform: str = "identity"
    link: str = "probit"

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
    return (np.where(below, 0.0, -np.inf), np.where(below, np.inf, 0.0),
            np.where(below, _TINY, -_HUGE), np.where(below, _HUGE, -_TINY))


def draw_latent(threshold, y: np.ndarray, design: np.ndarray, beta: np.ndarray, rng,
                box=None) -> np.ndarray:
    """Latent utilities: one-sided truncated normals around the fitted index.

    Observations with y_t <= threshold draw from N(fit, 1) on (0, inf), the
    rest on (-inf, 0), so the sign always reproduces the indicator. With B
    thresholds and paths (B, T, d) this is one (B, T) draw. The draws are
    those of ``sample_truncated_normal`` with these bounds, through its
    unchecked core: the fit is checked here, the bounds are valid by
    construction, and their one-ulp-inside clamps are the constants
    +-5e-324 and +-max-float, not per-call ``nextafter`` arrays. A
    non-finite fit raises ValueError.

    The bounds depend only on the data and the thresholds, so a sampler
    builds them once per fit, as ``_latent_box(threshold, y)``, and passes
    them as ``box``; the draws are the same.
    """
    mean = fitted_values(design, beta)
    if not np.isfinite(mean).all():
        raise ValueError("latent draw needs finite fitted values")
    if box is None:
        box = _latent_box(threshold, y)
    return _draw(mean, 1.0, *box, as_generator(rng))


def _likelihood_rhs(design: np.ndarray, latent: np.ndarray) -> np.ndarray:
    """X'z of one path or a stack of them, flattened: entry (b, t, j) is
    g_tj z_bt, filled one coefficient at a time along the long axes."""
    rhs = np.empty(latent.shape + design.shape[1:])
    for j in range(design.shape[1]):
        np.multiply(latent, design[:, j], out=rhs[..., j])
    return rhs.ravel()


def draw_beta_unconstrained(design, latent, sigma2, rng, ridge_scale: float = 0.0,
                            likelihood=None, out=None) -> np.ndarray:
    """Joint draw of one threshold's path from N(K^{-1} X'z, K^{-1}).

    With latents (B, T) and variances (B, d) the B paths come from one
    stacked block-diagonal system and the result is (B, T, d). Nothing
    reads the precision after the draw, so it is factored in place.
    ``likelihood`` and ``out`` go to ``assemble_precision``: the per-fit
    X'X band and the band storage to reuse.
    """
    design = np.asarray(design, dtype=np.float64)
    latent = np.asarray(latent, dtype=np.float64)
    precision = assemble_precision(design, sigma2, ridge_scale, likelihood=likelihood, out=out)
    b = _likelihood_rhs(design, latent)
    return sample_gaussian_precision(precision, b, rng, overwrite=True).reshape(
        latent.shape + design.shape[1:])


def draw_sigma2(beta, nu, s, rng, include_initial: bool = False) -> np.ndarray:
    """Conjugate inverse gamma update of the innovation variances.

    Shape nu + (T-1)/2 and scale S + sum of squared increments / 2 per
    coefficient. With ``include_initial`` the initial condition joins the
    sum of squares and the shape becomes nu + T/2. Paths (B, T, d) give
    variances (B, d).
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim not in (2, 3) or beta.shape[-2] < 2:
        raise ValueError("beta must be (T, d) or (B, T, d) with T >= 2")
    t_len, d = beta.shape[-2:]
    nu, s = (np.asarray(p, dtype=np.float64) for p in (nu, s))
    nu, s = (p if p.shape == (d,) else np.broadcast_to(p, (d,)) for p in (nu, s))
    if not ((nu > 0.0).all() and (s > 0.0).all()):
        raise ValueError("prior parameters must be positive")
    sq = np.square(np.diff(beta, axis=-2))
    # For d > 1, np.sum(axis=-2) adds over t in sequence through a strided
    # pass; einsum adds in the same order along rows, so the sums are equal
    # bit for bit. At d = 1 the t axis is contiguous and np.sum's pairwise
    # order is kept.
    rss = np.sum(sq, axis=-2) if d == 1 else np.einsum("...td->...d", sq)
    if include_initial:
        shape = nu + 0.5 * t_len
        scale = s + 0.5 * (rss + beta[..., 0, :] ** 2)
    else:
        shape = nu + 0.5 * (t_len - 1)
        scale = s + 0.5 * rss
    gen = as_generator(rng)
    return 1.0 / gen.gamma(shape, 1.0 / scale)


def _tridiag_submatrix(diag, off, keep):
    """Banded matrix for the kept coordinates of a tridiagonal system."""
    idx = np.nonzero(keep)[0]
    n = idx.size
    sub_diag = diag[idx]
    if n == 1:
        return BandedMatrix(dim=1, bandwidth=0, diagonals=sub_diag[None, :].copy())
    adjacent = idx[1:] == idx[:-1] + 1
    sub_off = np.where(adjacent, off[idx[:-1]], 0.0)
    bands = np.vstack([sub_diag, np.append(sub_off, 0.0)])
    return BandedMatrix(dim=n, bandwidth=1, diagonals=bands)


def _stride_rows_matvec(precision: BandedMatrix, x: np.ndarray, d: int) -> np.ndarray:
    """(precision @ x) at rows 0, d, 2d, ...: the intercepts of stacked paths.

    Each row adds its 2*bandwidth + 1 terms in ``BandedMatrix.matvec``'s
    order (self, -1, +1, ..., -k, +k), so every entry equals the full
    product's bit for bit. Needs bandwidth <= d, so only the first row has
    no left neighbours; the last row has no right neighbour at offset d.
    """
    bands, dim = precision.diagonals, precision.dim
    y = bands[0, ::d] * x[::d]
    for k in range(1, precision.bandwidth + 1):
        y[1:] += bands[k, d - k : dim - k : d] * x[d - k : dim - k : d]
        right = bands[k, : dim - k : d] * x[k::d]
        y[: right.size] += right
    return y


def _repair_ordering(beta, design, lower, upper):
    """Nudge intercepts so recomputed fits land inside [lower, upper].

    Truncation operates on the intercept, but the ordering is checked on the
    recomputed inner product, whose rounding can differ by an ulp. Each
    round moves every offending intercept by its fit's error and, where that
    step is below the fit's resolution, by one fit-scale ulp. With
    continuous data this almost never runs. A fit still outside its box
    after the cap (an exact hit of a degenerate box may be unrepresentable)
    raises MonotonicityError: left in place it would be an ordering crossing.
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
        beta[row[stuck], t[stuck], 0] += np.copysign(np.spacing(np.abs(ft[stuck])), step[stuck])
    fits = fitted_values(design, beta)
    row, t = np.argwhere(~((fits >= lower) & (fits <= upper)))[0]
    raise MonotonicityError(
        f"fit {fits[row, t]:.17g} stays outside its ordering box [{lower[row, t]:.17g}, "
        f"{upper[row, t]:.17g}] at t={t} after 64 repair steps", path=row)


def draw_beta_monotone(
    lower_path,
    upper_path,
    design,
    latent,
    sigma2,
    rng,
    sweeps: int = 5,
    warm_start=None,
    ridge_scale: float = 0.0,
    likelihood=None,
    out=None,
    fitted_out=None,
) -> np.ndarray:
    """Path draw for one threshold under the fitted-value ordering box.

    The non-intercept block comes from its unconstrained marginal posterior
    (taken from one joint precision-based draw), then the T intercepts are
    drawn from their exact Gaussian conditional truncated to the box

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

    ``likelihood`` and ``out`` go to ``assemble_precision``: the per-fit
    X'X band and the band storage to reuse. The intercept step reads the
    precision after the joint draw, so that draw factors a copy. Given
    ``fitted_out``, an array shaped like ``latent``, the fits of the
    returned paths are written into it: the ordering check computes them
    anyway.
    """
    gen = as_generator(rng)
    design = np.asarray(design, dtype=np.float64)
    d = design.shape[1]
    if not np.all(design[:, 0] == 1.0):
        raise ValueError("monotone updates require a leading intercept column of ones")
    latent = np.asarray(latent, dtype=np.float64)
    single = latent.ndim == 1
    lo_path = np.full(latent.shape, -np.inf) if lower_path is None else lower_path
    up_path = np.full(latent.shape, np.inf) if upper_path is None else upper_path
    lo_path, up_path = (np.asarray(p, dtype=np.float64) for p in (lo_path, up_path))
    if lo_path.shape != latent.shape or up_path.shape != latent.shape:
        raise ValueError("neighbor paths must have one entry per time point")
    lo_path, up_path, latent = (np.atleast_2d(a) for a in (lo_path, up_path, latent))

    precision = assemble_precision(design, sigma2, ridge_scale, likelihood=likelihood, out=out)
    b = _likelihood_rhs(design, latent)
    beta = sample_gaussian_precision(precision, b, gen).reshape(latent.shape + (d,))

    if not (np.isfinite(lo_path).any() or np.isfinite(up_path).any()):
        if fitted_out is not None:
            fitted_out[...] = fitted_values(design, beta).reshape(np.shape(fitted_out))
        return beta[0] if single else beta
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
    # precision K_ff and mean K_ff^{-1} (b - K rest)_f with the pinned values
    # placed in rest. The intercept block of K is tridiagonal, since only the
    # random-walk prior couples neighboring intercepts, and it is zero across
    # path boundaries.
    rest[..., 0] = np.where(pinned, lo, 0.0).reshape(lo_path.shape)
    x1 = rest[..., 0].ravel()
    if free.any():
        rhs = (b[::d] - _stride_rows_matvec(precision, rest.ravel(), d))[free]
        k_ff = _tridiag_submatrix(precision.diagonals[0, ::d], precision.diagonals[d, ::d], free)
        mean_f = solve_banded(cholesky_banded(k_ff), rhs, mode="full")
        start = beta if warm_start is None else np.asarray(warm_start, dtype=np.float64)
        init = np.clip(start[..., 0].ravel()[free], lo[free], up[free])
        x1[free] = sample_truncated_mvn(k_ff, mean_f, lo[free], up[free], init, sweeps, gen)

    beta[..., 0] = x1.reshape(lo_path.shape)
    beta, fits = _repair_ordering(beta, design, lo_path, up_path)
    if fitted_out is not None:
        fitted_out[...] = fits.reshape(np.shape(fitted_out))
    return beta[0] if single else beta


def initial_state(y: np.ndarray, grid: ThresholdGrid, t_len: int, d: int, link: LinkFunction) -> GibbsState:
    """Deterministic start: intercepts at Lambda^{-1} of a smoothed empirical
    CDF (strictly increasing across thresholds), zero slopes, sigma2 = 0.01."""
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


def run_gibbs(spec: ModelSpec, data, rng=None, buffers=_in_memory) -> PosteriorDraws:
    """Full Gibbs pass over thresholds and iterations.

    ``data`` is (y, x): outcomes of length T and raw design rows (T, d0)
    with an intercept first; the spec's design transform maps them to the
    model design. Thresholds update in batches: one latent draw, one path
    draw (monotone or not) and one variance draw on each stacked batch. In
    monotone mode a threshold sees the others only through its neighbors'
    fits, which bound it below and above, so all even thresholds update
    given the odd ones, then all odd ones given the even ones: a red-black
    systematic-scan Gibbs sampler that leaves every kept iteration exactly
    ordered across the whole grid. Unconstrained mode is one batch of all K.

    What does not change within a fit is built once, before the first
    iteration: the likelihood band X'X, each batch's latent bounds, and the
    band storage, which every path draw refills in place. Batches
    are strided views of the state, and in monotone mode the fits the
    ordering check computes become the neighbors' bounds directly. The
    draws are those of calling the public draws batch by batch.

    ``buffers(kept, K, T, d)`` returns the writable (kept, K, Q, d) and
    (kept, K, d) arrays that receive the kept draws and become the result's
    ``beta`` and ``sigma2``. Q is T for whole paths; a smaller Q keeps only
    the last Q quarters of each path, which is all a one-step forecast
    reads. The default keeps whole paths in memory; ``store.draw_buffers``
    streams them to disk.
    """
    y, x_raw = data
    y = np.asarray(y, dtype=np.float64)
    x_raw = np.atleast_2d(np.asarray(x_raw, dtype=np.float64))
    if y.ndim != 1 or x_raw.shape[0] != y.size:
        raise ValueError("data must be (y, x) with matching lengths")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x_raw))):
        raise ValueError("estimation data must be free of missing values")
    design = apply_design_transform(x_raw, spec.design_transform)
    t_len, d = design.shape
    if d != spec.d:
        raise ValueError(f"design has {d} columns after transform, spec says {spec.d}")
    if t_len < 2:
        raise ValueError("need at least two time points")
    if spec.monotone and not np.all(design[:, 0] == 1.0):
        raise ValueError("monotone estimation requires an intercept column of ones")

    if rng is None:
        rng = RngHandle(spec.seed)
    handle = rng if isinstance(rng, RngHandle) else None
    gen = as_generator(rng)
    link = spec.link_function()
    nu, s = spec.prior_arrays()
    grid = spec.grid
    k = grid.n

    state = initial_state(y, grid, t_len, d, link)
    kept = spec.iterations - spec.burnin
    out_beta, out_sigma2 = buffers(kept, k, t_len, d)
    quarters = out_beta.shape[2]
    if out_beta.shape != (kept, k, quarters, d) or not 1 <= quarters <= t_len:
        raise ValueError(f"buffers gave beta of shape {out_beta.shape} for "
                         f"{(kept, k, t_len, d)}")

    # Per-fit workspace. Rows 1..K of ``bounds`` are the fits, with open
    # bounds beyond the ends of the grid, so a batch's neighbor fits are
    # strided views of it. The batches take turns with one band storage:
    # its leading columns are Fortran-ordered storage for a smaller batch.
    bounds = np.vstack([np.full(t_len, -np.inf), state.fitted, np.full(t_len, np.inf)])
    state.fitted = bounds[1:-1]
    likelihood = likelihood_band(design)
    colors = [slice(c, k, 2) for c in range(min(k, 2))] if spec.monotone else [slice(0, k)]
    storage = np.empty((d + 1, len(range(k)[colors[0]]) * t_len * d), order="F")
    work = []
    for batch in colors:
        rows = range(k)[batch]
        neighbors = (bounds[batch], bounds[batch.start + 2 : k + 2 : 2]) if spec.monotone else ()
        work.append((batch, rows, _latent_box(grid.points[batch], y),
                     storage[:, : len(rows) * t_len * d], neighbors))

    for it in range(spec.iterations):
        for batch, rows, box, storage, neighbors in work:
            try:
                latent = draw_latent(grid.points[batch], y, design, state.beta[batch], gen,
                                     box=box)
                if spec.monotone:
                    beta = draw_beta_monotone(
                        *neighbors, design, latent, state.sigma2[batch], gen,
                        sweeps=spec.truncation_sweeps, warm_start=state.beta[batch],
                        ridge_scale=spec.ridge_scale, likelihood=likelihood, out=storage,
                        fitted_out=state.fitted[batch],
                    )
                else:
                    beta = draw_beta_unconstrained(
                        design, latent, state.sigma2[batch], gen, ridge_scale=spec.ridge_scale,
                        likelihood=likelihood, out=storage,
                    )
                state.beta[batch] = beta
                state.sigma2[batch] = draw_sigma2(
                    beta, nu, s, gen, include_initial=spec.include_initial_state_in_ig,
                )
            except Exception as exc:
                row = exc.row // (t_len * d) if isinstance(exc, NotPositiveDefiniteError) else 0
                j = rows[exc.path if isinstance(exc, MonotonicityError) else row]
                raise EstimationError(
                    f"iteration {it}, threshold {j} (y={grid.points[j]:.6g}): {exc}"
                ) from exc
        if it >= spec.burnin:
            out_beta[it - spec.burnin] = state.beta[:, t_len - quarters :]
            out_sigma2[it - spec.burnin] = state.sigma2

    return PosteriorDraws(
        grid=grid,
        beta=out_beta,
        sigma2=out_sigma2,
        seed=int(handle.seed) if handle is not None else int(spec.seed),
        stream=int(handle.stream) if handle is not None else 0,
        spec_hash=spec.spec_hash(),
        data_hash=hash_data(y, x_raw),
        design_transform=spec.design_transform,
        link=spec.link,
    )
