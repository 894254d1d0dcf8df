"""Band storage, banded Cholesky and solves against dense numpy routes."""

import numpy as np
import pytest

from tvpdr.banded import (
    BandedMatrix,
    NotPositiveDefiniteError,
    assemble_precision,
    cholesky_banded,
    likelihood_band,
    solve_banded,
)
from tvpdr.model import draw_beta_unconstrained
from tvpdr.samplers import RngHandle, sample_gaussian_precision

from reference import dense_precision, frozen_assemble_bands


def random_spd_band(rng, dim, bandwidth):
    """SPD matrix with exact band structure, via B B' + shift on a banded B."""
    b = np.zeros((dim, dim))
    for k in range(bandwidth + 1):
        idx = np.arange(dim - k)
        b[idx + k, idx] = rng.normal(size=dim - k)
    a = b @ b.T + dim * np.eye(dim)
    # B B' has the same bandwidth as B
    return a


def test_band_storage_round_trip():
    rng = np.random.default_rng(0)
    a = random_spd_band(rng, 12, 3)
    banded = BandedMatrix.from_dense(a, 3)
    assert np.allclose(banded.to_dense(), a)
    assert banded.diagonals.shape == (4, 12)
    # trailing positions of each subdiagonal row stay zero
    assert banded.diagonals[3, -3:].tolist() == [0.0, 0.0, 0.0]


def test_band_storage_validates_shape():
    with pytest.raises(ValueError):
        BandedMatrix(dim=5, bandwidth=2, diagonals=np.zeros((2, 5)))
    with pytest.raises(ValueError):
        BandedMatrix(dim=3, bandwidth=3, diagonals=np.zeros((4, 3)))


def test_matvec_matches_dense():
    rng = np.random.default_rng(1)
    for dim, bw in [(5, 1), (9, 3), (20, 4)]:
        a = random_spd_band(rng, dim, bw)
        banded = BandedMatrix.from_dense(a, bw)
        x = rng.normal(size=dim)
        assert np.allclose(banded.matvec(x), a @ x, rtol=1e-12, atol=1e-12)


def test_cholesky_matches_dense():
    rng = np.random.default_rng(2)
    a = random_spd_band(rng, 15, 2)
    factor = cholesky_banded(BandedMatrix.from_dense(a, 2))
    dense_l = np.linalg.cholesky(a)
    assert np.allclose(factor.to_dense_lower(), dense_l, rtol=1e-12, atol=1e-12)


def test_cholesky_reports_failing_row():
    # leading 2x2 block is fine, third pivot goes negative
    a = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_banded(BandedMatrix.from_dense(a, 1))
    assert err.value.row == 2
    assert "row 2" in str(err.value)


def test_solve_modes_match_dense():
    rng = np.random.default_rng(3)
    a = random_spd_band(rng, 14, 3)
    banded = BandedMatrix.from_dense(a, 3)
    factor = cholesky_banded(banded)
    l = np.linalg.cholesky(a)
    rhs = rng.normal(size=14)
    assert np.allclose(solve_banded(factor, rhs, mode="full"), np.linalg.solve(a, rhs))
    assert np.allclose(solve_banded(factor, rhs, mode="forward"), np.linalg.solve(l, rhs))
    assert np.allclose(solve_banded(factor, rhs, mode="backward"), np.linalg.solve(l.T, rhs))
    # matrix right-hand sides solve column by column
    rhs2 = rng.normal(size=(14, 4))
    assert np.allclose(solve_banded(factor, rhs2, mode="full"), np.linalg.solve(a, rhs2))
    with pytest.raises(ValueError):
        solve_banded(factor, rhs, mode="sideways")


def test_assemble_precision_matches_dense_kron():
    rng = np.random.default_rng(4)
    for t_len, d in [(2, 1), (6, 1), (5, 2), (8, 3), (4, 4)]:
        design = rng.normal(size=(t_len, d))
        sigma2 = rng.uniform(0.1, 2.0, size=d)
        banded = assemble_precision(design, sigma2)
        assert banded.bandwidth == d
        dense = dense_precision(design, sigma2)
        assert np.allclose(banded.to_dense(), dense, rtol=1e-12, atol=1e-12)


def test_assemble_precision_prior_corners():
    # with a zero design the matrix is exactly (D'D) kron diag(1/sigma2);
    # T=2, d=1, sigma2=1 gives [[2, -1], [-1, 1]]
    k = assemble_precision(np.zeros((2, 1)), np.array([1.0]))
    assert np.allclose(k.to_dense(), np.array([[2.0, -1.0], [-1.0, 1.0]]))


def test_assemble_precision_validates():
    with pytest.raises(ValueError):
        assemble_precision(np.ones((1, 2)), np.ones(2))  # one time point
    with pytest.raises(ValueError):
        assemble_precision(np.ones((5, 2)), np.ones(3))  # sigma2 width
    with pytest.raises(ValueError):
        assemble_precision(np.ones((5, 2)), np.array([1.0, 0.0]))  # zero variance


def test_ridge_scale_moves_diagonal_only():
    rng = np.random.default_rng(5)
    design = rng.normal(size=(6, 2))
    sigma2 = np.array([0.5, 1.5])
    plain = assemble_precision(design, sigma2)
    ridged = assemble_precision(design, sigma2, ridge_scale=1e-8)
    shift = 1e-8 * plain.diagonals[0].max()
    assert np.allclose(ridged.diagonals[0], plain.diagonals[0] + shift)
    assert np.allclose(ridged.diagonals[1:], plain.diagonals[1:])


def test_band_storage_contract():
    # the storage is Fortran-ordered and holds, bit for bit, the values of
    # the dense kron formula and of the C-ordered assembly it replaced; it
    # factors to the C-ordered copy's factor; a draw that consumes it in
    # place equals one from an untouched copy
    rng = np.random.default_rng(6)
    for t_len, d, n_paths in [(2, 1, 1), (7, 1, 3), (6, 2, 4), (9, 3, 2), (5, 4, 3)]:
        design = rng.normal(size=(t_len, d))
        sigma2 = rng.uniform(0.05, 2.0, size=(n_paths, d))
        like = likelihood_band(design)
        for ridge in (0.0, 1e-6):
            precision = assemble_precision(design, sigma2, ridge)
            assert precision.diagonals.flags.f_contiguous
            assert np.array_equal(precision.diagonals, frozen_assemble_bands(design, sigma2, ridge))
            dim = precision.dim
            storage = np.full((d + 1, dim), np.nan, order="F")
            reused = assemble_precision(design, sigma2, ridge, likelihood=like, out=storage)
            assert reused.diagonals is storage
            assert np.array_equal(storage, precision.diagonals)
            if ridge == 0.0:
                dense = np.zeros((dim, dim))
                for b in range(n_paths):
                    span = slice(b * t_len * d, (b + 1) * t_len * d)
                    dense[span, span] = dense_precision(design, sigma2[b])
                assert np.array_equal(precision.to_dense(), dense)

            c_copy = BandedMatrix(dim, d, np.ascontiguousarray(precision.diagonals))
            assert np.array_equal(cholesky_banded(precision).diagonals,
                                  cholesky_banded(c_copy).diagonals)
            assert np.array_equal(precision.diagonals, c_copy.diagonals)  # neither consumed

            b_vec = rng.normal(size=dim)
            untouched = BandedMatrix(dim, d, precision.diagonals.copy(order="F"))
            want = sample_gaussian_precision(untouched, b_vec, RngHandle(7))
            got = sample_gaussian_precision(precision, b_vec, RngHandle(7), overwrite=True)
            assert np.array_equal(got, want)
            assert np.array_equal(precision.diagonals, cholesky_banded(untouched).diagonals)

        latent = rng.normal(size=(n_paths, t_len))
        plain = draw_beta_unconstrained(design, latent, sigma2, RngHandle(8))
        storage = np.empty((d + 1, n_paths * t_len * d), order="F")
        for _ in range(2):  # the second call refills storage that holds a factor
            reused = draw_beta_unconstrained(design, latent, sigma2, RngHandle(8),
                                             likelihood=like, out=storage)
            assert np.array_equal(reused, plain)


def test_assemble_precision_validates_its_workspace():
    design = np.ones((5, 2))
    with pytest.raises(ValueError, match="likelihood band"):
        assemble_precision(design, np.ones(2), likelihood=np.zeros((5, 2, 2)))
    with pytest.raises(ValueError, match="Fortran"):
        assemble_precision(design, np.ones(2), out=np.zeros((3, 10)))
    with pytest.raises(ValueError, match="Fortran"):
        assemble_precision(design, np.ones((2, 2)), out=np.zeros((3, 10), order="F"))
