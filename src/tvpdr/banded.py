"""Banded symmetric positive definite linear algebra.

The Gibbs updates for the state paths work on precision matrices that are
block tridiagonal with small dense blocks. Every function here takes and
returns such a matrix, or its banded Cholesky factor, as the LAPACK lower
band array itself: an n x n matrix A of bandwidth d is the (d + 1, n) array
with ``band[k, j] == A[j + k, j]`` for ``j < n - k``, the last k entries of
row k unused. Nothing here knows about the model; it is plain linear algebra.

``scipy.linalg`` is imported inside ``cholesky_banded`` and ``solve_banded``,
its only callers, so a process that only reads a stored estimate never
loads LAPACK.
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


def cholesky_banded(band: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Banded Cholesky ``P = L L'`` with L in the same band layout.

    The factor is Fortran-ordered, the order the triangular solves take,
    and keeps ``band``'s unused tail entries as they were. A Fortran-ordered
    ``band`` (what ``assemble_precision`` returns) is handed to LAPACK
    without a transposing copy; with ``overwrite`` it is factored in place,
    its storage becomes the factor's and the precision is consumed. A
    C-ordered band is copied either way and left as it was; both orders give
    the same factor bit for bit.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot is not positive or not finite (LAPACK passes a NaN pivot;
        a NaN or inf anywhere in the band reaches the diagonal). No jitter.
    """
    from scipy.linalg import lapack

    factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=overwrite)
    if info > 0:
        raise NotPositiveDefiniteError(row=info - 1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded Cholesky")
    finite = np.isfinite(factor[0])
    if not finite.all():
        raise NotPositiveDefiniteError(row=int(np.argmin(finite)))
    return factor


def solve_banded(factor: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``L x = rhs``, or ``L' x = rhs`` with ``transpose``, for L = ``cholesky_banded(...)``."""
    if rhs.shape != (factor.shape[1],):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({factor.shape[1]},)")

    from scipy.linalg import lapack

    x, info = lapack.dtbtrs(factor, rhs, uplo=b"L", trans=b"T" if transpose else b"N")
    if info != 0:
        raise ValueError(f"band solve failed with info={info}")
    return x


def likelihood_band(design: np.ndarray) -> np.ndarray:
    """The likelihood part X'X of one path's precision, in band order.

    Returns (T, d, d + 1): entry [t, j, k] is (g_t g_t')[j + k, j] for
    j + k < d and zero otherwise, the band entries of the precision's
    column (t, j) side by side. This is the column-major order of LAPACK
    band storage, so it is copied into each path of a stacked precision as
    is. It depends on the design only: build it once per fit and pass it
    to every ``assemble_precision`` call.
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


def add_prior_diagonal(diag: np.ndarray, inv: np.ndarray) -> None:
    """Add the prior precision's diagonal to ``diag`` (..., T) in place:
    walk_t * inv with ``inv`` (...) = 1/sigma2, then 1/V at t = 0 for
    beta_1 ~ N(0, V). The joint precision and the intercepts' system both
    add it here, so their entries agree bit for bit."""
    diag += np.multiply.outer(inv, walk_diagonal(diag.shape[-1]))
    diag[..., 0] += 1.0 / FIRST_STATE_VARIANCE


def assemble_precision(
    design: np.ndarray,
    sigma2: np.ndarray,
    likelihood: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
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

    The band storage is Fortran-ordered, LAPACK's own layout, so
    ``cholesky_banded`` takes it without a transposing copy. Per fit, only
    the random-walk prior changes between calls: a sampler builds X'X once
    with ``likelihood_band(design)`` and passes it as ``likelihood``, and
    passes ``out``, a Fortran-ordered (d + 1, B*T*d) array allocated once,
    to receive the storage. Every entry of ``out`` is rewritten, so it may
    hold a factor from the previous call. The values are the same with or
    without either argument.
    """
    design = np.asarray(design, dtype=np.float64)
    if design.ndim != 2:
        raise ValueError("design must be a (T, d) array")
    t_len, d = design.shape
    if t_len < 2:
        raise ValueError("state path needs at least two time points")
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if sigma2.ndim not in (1, 2) or sigma2.shape[-1] != d:
        raise ValueError(f"sigma2 has shape {sigma2.shape}, expected ({d},) or (B, {d})")
    if not (sigma2 > 0.0).all():
        raise ValueError("innovation variances must be strictly positive")
    if likelihood is None:
        likelihood = likelihood_band(design)
    elif likelihood.shape != (t_len, d, d + 1):
        raise ValueError(f"likelihood band has shape {likelihood.shape}, "
                         f"expected ({t_len}, {d}, {d + 1})")

    inv = 1.0 / sigma2.reshape(-1, d)
    n_paths = inv.shape[0]
    shape = (d + 1, n_paths * t_len * d)
    if out is None:
        out = np.empty(shape, order="F")
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.f_contiguous:
        raise ValueError(f"out must be a Fortran-ordered float64 array of shape {shape}")
    # cols[b, t, j, k] = K_b[(t, j) + k, (t, j)], a view of the band storage
    cols = out.T.reshape(n_paths, t_len, d, d + 1)
    cols[...] = likelihood

    # Prior part: ``add_prior_diagonal`` on the diagonal and -1/sigma2 off
    # it. Both bands are written as (B, d, T) views, so the long time axis
    # is the inner loop.
    add_prior_diagonal(cols[..., 0].transpose(0, 2, 1), inv)
    cols[:, :-1, :, d].transpose(0, 2, 1)[...] = -inv[:, :, None]

    return out
