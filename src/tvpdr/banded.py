"""Banded symmetric positive definite linear algebra.

The Gibbs updates for the state paths work on precision matrices that are
block tridiagonal with small dense blocks, so everything here is stored in
LAPACK lower band layout and factorized with the banded Cholesky routines.
Nothing in this module knows about the model; it is plain linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "BandedMatrix",
    "NotPositiveDefiniteError",
    "cholesky_banded",
    "solve_banded",
    "likelihood_band",
    "assemble_precision",
]


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot. ``row`` is the 0-based offender."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"matrix is not positive definite at row {row}")


@dataclass
class BandedMatrix:
    """Lower band storage of a symmetric (or lower triangular) band matrix.

    ``diagonals`` has shape ``(bandwidth + 1, dim)``; row ``k`` holds the
    k-th subdiagonal aligned to the left, ``diagonals[k, j] == A[j + k, j]``
    for ``j <= dim - 1 - k``. Trailing entries of each row are unused and
    kept at zero. This is exactly the LAPACK ``uplo='L'`` band layout.
    """

    dim: int
    bandwidth: int
    diagonals: np.ndarray

    def __post_init__(self):
        self.diagonals = np.asarray(self.diagonals, dtype=np.float64)
        if self.diagonals.shape != (self.bandwidth + 1, self.dim):
            raise ValueError(
                f"band storage shape {self.diagonals.shape} does not match "
                f"dim={self.dim}, bandwidth={self.bandwidth}"
            )
        if not 0 <= self.bandwidth < self.dim:
            raise ValueError(f"bandwidth {self.bandwidth} out of range for dim {self.dim}")

    def to_dense(self) -> np.ndarray:
        """Expand to a dense symmetric matrix (small problems and tests)."""
        a = np.zeros((self.dim, self.dim))
        for k in range(self.bandwidth + 1):
            vals = self.diagonals[k, : self.dim - k]
            idx = np.arange(self.dim - k)
            a[idx + k, idx] = vals
            if k > 0:
                a[idx, idx + k] = vals
        return a

    def to_dense_lower(self) -> np.ndarray:
        """Expand to a dense lower-triangular matrix (for Cholesky factors)."""
        a = np.zeros((self.dim, self.dim))
        for k in range(self.bandwidth + 1):
            idx = np.arange(self.dim - k)
            a[idx + k, idx] = self.diagonals[k, : self.dim - k]
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Symmetric band matrix times vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"vector has shape {x.shape}, expected ({self.dim},)")
        y = self.diagonals[0] * x
        for k in range(1, self.bandwidth + 1):
            band = self.diagonals[k, : self.dim - k]
            y[k:] += band * x[: self.dim - k]
            y[: self.dim - k] += band * x[k:]
        return y

    @classmethod
    def from_dense(cls, a: np.ndarray, bandwidth: int) -> "BandedMatrix":
        a = np.asarray(a, dtype=np.float64)
        dim = a.shape[0]
        diagonals = np.zeros((bandwidth + 1, dim))
        for k in range(bandwidth + 1):
            diagonals[k, : dim - k] = np.diagonal(a, offset=-k)
        return cls(dim=dim, bandwidth=bandwidth, diagonals=diagonals)


def cholesky_banded(precision: BandedMatrix, overwrite: bool = False) -> BandedMatrix:
    """Banded Cholesky ``P = L L'`` with L in the same band layout.

    The factor is Fortran-ordered, the order the triangular solves take.
    A Fortran-ordered ``precision`` (what ``assemble_precision`` returns) is
    handed to LAPACK without a transposing copy; with ``overwrite`` it is
    factored in place, its storage becomes the factor's and the precision
    is consumed. A C-ordered precision is copied either way and left as it
    was; both orders give the same factor bit for bit.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot is not positive. No jitter is applied here; callers that
        want a ridge must add it to the diagonal themselves before calling.
    """
    factor, info = lapack.dpbtrf(precision.diagonals, lower=1, overwrite_ab=overwrite)
    if info > 0:
        raise NotPositiveDefiniteError(row=info - 1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded Cholesky")
    # dpbtrf leaves junk in the unused tail of each band row; zero it so
    # factors compare cleanly and to_dense stays honest.
    for k in range(1, precision.bandwidth + 1):
        factor[k, precision.dim - k :] = 0.0
    return BandedMatrix(dim=precision.dim, bandwidth=precision.bandwidth, diagonals=factor)


def solve_banded(factor: BandedMatrix, rhs: np.ndarray, mode: str = "full") -> np.ndarray:
    """Triangular solves against a banded Cholesky factor.

    mode
        ``"forward"``  solves ``L x = rhs``,
        ``"backward"`` solves ``L' x = rhs``,
        ``"full"``     solves ``L L' x = rhs`` (i.e. the original system).

    ``rhs`` may be a vector or a ``(dim, m)`` matrix of stacked columns.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    squeeze = rhs.ndim == 1
    b = rhs[:, None] if squeeze else rhs
    if b.shape[0] != factor.dim:
        raise ValueError(f"rhs has leading dim {b.shape[0]}, expected {factor.dim}")
    if mode not in ("full", "forward", "backward"):
        raise ValueError(f"unknown solve mode {mode!r}")

    x = b
    if mode in ("full", "forward"):
        x, info = lapack.dtbtrs(factor.diagonals, x, uplo=b"L", trans=b"N")
        if info != 0:
            raise ValueError(f"forward band solve failed with info={info}")
    if mode in ("full", "backward"):
        x, info = lapack.dtbtrs(factor.diagonals, x, uplo=b"L", trans=b"T")
        if info != 0:
            raise ValueError(f"backward band solve failed with info={info}")
    return x[:, 0] if squeeze else x


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


def assemble_precision(
    design: np.ndarray,
    sigma2: np.ndarray,
    ridge_scale: float = 0.0,
    likelihood: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> BandedMatrix:
    """Posterior precision of one stacked state path, or of B of them.

    For T design rows g(x_t)' of width d and innovation variances sigma2
    (one per coefficient), builds

        K = X'X + H' (I_T kron diag(sigma2))^{-1} H

    where X = diag(g(x_1)', ..., g(x_T)') and H is the random-walk
    differencing operator, so H'Omega^{-1}H = (D'D) kron diag(1/sigma2)
    with D the first-difference matrix including the initial condition.
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

    ``ridge_scale`` > 0 adds ridge_scale * max(diag K) to the diagonal,
    each path's own maximum. This is opt-in; the recommended value when a
    model is genuinely on the edge of positive definiteness is 1e-8.

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

    # Random-walk prior part: (D'D) kron diag(1/sigma2). D'D is tridiagonal
    # with diagonal (2, ..., 2, 1) and -1 off the diagonal: the first block
    # gets 1 from the initial condition beta_1 ~ N(0, Sigma) plus 1 from the
    # first difference, every interior block touches two differences, and
    # the last block touches only one. Both bands are written as (B, d, T)
    # views, so the long time axis is the inner loop.
    walk = np.full(t_len, 2.0)
    walk[-1] = 1.0
    diag = cols[..., 0].transpose(0, 2, 1)
    diag += np.multiply.outer(inv, walk)
    cols[:, :-1, :, d].transpose(0, 2, 1)[...] = -inv[:, :, None]

    if ridge_scale > 0.0:
        diag += ridge_scale * diag.max(axis=(1, 2), keepdims=True)

    return BandedMatrix(dim=shape[1], bandwidth=d, diagonals=out)
