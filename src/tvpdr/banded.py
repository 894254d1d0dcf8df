"""Banded symmetric positive definite linear algebra.

The Gibbs updates for the state paths work on precision matrices that are
block tridiagonal with small dense blocks. Every function here takes and
returns such a matrix, or its banded Cholesky factor, as the LAPACK lower
band array itself: an n x n matrix A of bandwidth d is the (d + 1, n) array
with ``band[k, j] == A[j + k, j]`` for ``j < n - k``, the last k entries of
row k unused. Nothing here knows about the model; it is plain linear algebra.

``scipy.linalg`` is imported inside ``_factor`` and ``_solve``, the in-place
cores of ``cholesky_banded`` and ``solve_banded`` and its only callers, so a
process that only reads a stored estimate never loads LAPACK.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "cholesky_banded",
    "solve_banded",
    "likelihood_band",
    "FIRST_STATE_VARIANCE",
    "walk_diagonal",
    "add_prior_diagonal",
    "assemble_precision",
]

# V of the first state's prior beta_1 ~ N(0, V I_d), independent of sigma2.
FIRST_STATE_VARIANCE = 10.0


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive or non-finite pivot. ``row`` is the 0-based offender."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"matrix is not positive definite at row {row}")


def _factor(band: np.ndarray) -> np.ndarray:
    """``cholesky_banded`` on a Fortran-ordered float64 band, in place.

    The band's storage becomes the factor's and the precision is consumed.
    The pivot checks are those of ``cholesky_banded``.
    """
    from scipy.linalg import lapack

    factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefiniteError(row=info - 1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded Cholesky")
    finite = np.isfinite(factor[0])
    if not finite.all():
        raise NotPositiveDefiniteError(row=int(np.argmin(finite)))
    return factor


def cholesky_banded(band: np.ndarray) -> np.ndarray:
    """Banded Cholesky ``P = L L'`` with L in the same band layout.

    The factor is a Fortran-ordered copy, the order the triangular solves
    take, and keeps ``band``'s unused tail entries as they were; ``band``
    itself is left as it was. A draw that owns its band storage factors it
    in place instead (``samplers.sample_gaussian_precision``'s core); both
    give the same factor bit for bit.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot is not positive or not finite (LAPACK passes a NaN pivot;
        a NaN or inf anywhere in the band reaches the diagonal). No jitter.
    """
    return _factor(np.array(band, dtype=np.float64, order="F"))


def _solve(factor: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``solve_banded`` in place: ``x``, a contiguous float64 vector of the
    factor's dimension, is overwritten by the solution and returned."""
    from scipy.linalg import lapack

    x, info = lapack.dtbtrs(factor, x, uplo=b"L", trans=b"T" if transpose else b"N",
                            overwrite_b=1)
    if info != 0:
        raise ValueError(f"band solve failed with info={info}")
    return x


def solve_banded(factor: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``L x = rhs``, or ``L' x = rhs`` with ``transpose``, for L = ``cholesky_banded(...)``."""
    if rhs.shape != (factor.shape[1],):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({factor.shape[1]},)")
    return _solve(factor, np.array(rhs, dtype=np.float64), transpose)


def likelihood_band(design: np.ndarray) -> np.ndarray:
    """The likelihood part X'X of one path's precision, in band order.

    Returns (T, d, d + 1): entry [t, j, k] is (g_t g_t')[j + k, j] for
    j + k < d and zero otherwise, the band entries of the precision's
    column (t, j) side by side. This is the column-major order of LAPACK
    band storage, so it is copied into each path of a stacked precision as
    is. It depends on the design only, so a sampler builds it once per fit.
    """
    design = np.asarray(design, dtype=np.float64)
    if design.ndim != 2:
        raise ValueError("design must be a (T, d) array")
    t_len, d = design.shape
    band = np.zeros((t_len, d, d + 1))
    for k in range(d):
        band[:, : d - k, k] = design[:, k:] * design[:, : d - k]
    return band


def walk_diagonal(t_len: int) -> np.ndarray:
    """Diagonal (1, 2, ..., 2, 1) of D'D, D the (T - 1) x T first-difference
    matrix of the random walk: the end states touch one difference, every
    interior state two. Off the diagonal D'D is -1."""
    walk = np.full(t_len, 2.0)
    walk[[0, -1]] = 1.0
    return walk


def add_prior_diagonal(diag: np.ndarray, inv: np.ndarray, walk: np.ndarray) -> None:
    """Add the prior precision's diagonal to ``diag`` (..., T) in place:
    walk_t * inv with ``inv`` (...) = 1/sigma2 and ``walk`` =
    ``walk_diagonal(T)``, then 1/V at t = 0 for beta_1 ~ N(0, V). The joint
    precision and the intercepts' system both add it here, so their entries
    agree bit for bit."""
    diag += np.multiply.outer(inv, walk)
    diag[..., 0] += 1.0 / FIRST_STATE_VARIANCE


class _StackedPrecision:
    """The stacked precision of up to B paths on one design, reassembled in place.

    What does not change within a fit is built and checked once, here: the
    likelihood band X'X (``likelihood_band``), the walk diagonal and the
    Fortran-ordered (d + 1, B*T*d) band storage. Calling it with variances
    (B', d), B' <= B, writes ``assemble_precision(design, sigma2)`` into the
    storage's leading B'*T*d columns, themselves Fortran-ordered storage,
    and returns them. Every entry there is rewritten, so the storage may
    hold the previous call's factor; a call checks only that the variances
    are positive.
    """

    def __init__(self, design: np.ndarray, n_paths: int):
        self.likelihood = likelihood_band(design)
        t_len, d = design.shape
        if t_len < 2:
            raise ValueError("state path needs at least two time points")
        self.walk = walk_diagonal(t_len)
        self.band = np.empty((d + 1, n_paths * t_len * d), order="F")
        # cols[b, t, j, k] = K_b[(t, j) + k, (t, j)], a view of the band storage
        self._cols = self.band.T.reshape(n_paths, t_len, d, d + 1)

    def __call__(self, sigma2: np.ndarray) -> np.ndarray:
        if not (sigma2 > 0.0).all():
            raise ValueError("innovation variances must be strictly positive")
        inv = 1.0 / sigma2
        cols = self._cols[: len(inv)]
        cols[...] = self.likelihood
        # The prior: ``add_prior_diagonal`` on the diagonal and -1/sigma2
        # off it, both written as (B', d, T) views, so the long time axis
        # is the inner loop.
        diag = cols[..., 0]
        add_prior_diagonal(diag.transpose(0, 2, 1), inv, self.walk)
        cols[:, :-1, :, -1].transpose(0, 2, 1)[...] = -inv[:, :, None]
        return self.band[:, : diag.size]


def assemble_precision(design: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Posterior precision of one stacked state path, or of B of them.

    For T design rows g(x_t)' of width d and innovation variances sigma2
    (one per coefficient), builds

        K = X'X + (D'D) kron diag(1/sigma2) + (e_1 e_1') kron I_d / V

    where X = diag(g(x_1)', ..., g(x_T)'), D is the first-difference
    matrix of the random walk and the last term is the first state's prior
    N(0, V I_d).
    K is block tridiagonal with d x d blocks. Its bandwidth is d, not the
    2d-1 of a general block tridiagonal matrix: the blocks off the block
    diagonal are diagonal, diag(-1/sigma2), so the farthest nonzero in row
    (t+1, j) is K[(t+1, j), (t, j)], exactly d places left of the diagonal.
    The banded Cholesky factor has no fill outside that band. Within-band
    zeros are stored and not exploited.

    With ``sigma2`` of shape (B, d) the result is the block-diagonal stack
    of the B precisions, dim B*T*d with the same bandwidth: each path's band
    storage ends in zeros, so every coupling across a path boundary is
    exactly zero and one factorization serves all B paths.

    The band storage is Fortran-ordered, LAPACK's own layout, so a draw
    factors it without a transposing copy. Per fit, only the random-walk
    prior changes between calls, so a sampler builds the storage once and
    reassembles it in place for each batch's variances; this function is
    that assembly on storage of its own.
    """
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    precision = _StackedPrecision(np.asarray(design, dtype=np.float64), len(np.atleast_2d(sigma2)))
    d = precision.likelihood.shape[1]
    if sigma2.ndim not in (1, 2) or sigma2.shape[-1] != d:
        raise ValueError(f"sigma2 has shape {sigma2.shape}, expected ({d},) or (B, {d})")
    return precision(sigma2.reshape(-1, d))
