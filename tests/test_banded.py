"""Band arrays, banded Cholesky and solves against dense numpy routes."""

import numpy as np
import pytest

from tvpdr.banded import (
    FIRST_STATE_VARIANCE,
    NotPositiveDefiniteError,
    _factor,
    _StackedPrecision,
    assemble_precision,
    cholesky_banded,
    solve_banded,
)
from tvpdr.model import _draw_paths, draw_beta_unconstrained
from tvpdr.samplers import _gaussian_precision, sample_gaussian_precision, stream_generator

from reference import (band_to_dense, dense_precision, dense_to_band, frozen_assemble_bands,
                       frozen_band_matvec)


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
    # the reference conversions and band matvec the other tests lean on
    rng = np.random.default_rng(0)
    a = random_spd_band(rng, 12, 3)
    band = dense_to_band(a, 3)
    assert np.allclose(band_to_dense(band), a)
    assert band.shape == (4, 12)
    # trailing positions of each subdiagonal row stay zero
    assert band[3, -3:].tolist() == [0.0, 0.0, 0.0]
    x = rng.normal(size=12)
    assert np.allclose(frozen_band_matvec(band, x), a @ x, rtol=1e-12, atol=1e-12)


def test_cholesky_matches_dense():
    rng = np.random.default_rng(2)
    a = random_spd_band(rng, 15, 2)
    factor = cholesky_banded(dense_to_band(a, 2))
    dense_l = np.linalg.cholesky(a)
    assert np.allclose(band_to_dense(factor, lower=True), dense_l, rtol=1e-12, atol=1e-12)


def test_cholesky_reports_failing_row():
    # leading 2x2 block is fine, third pivot goes negative
    a = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_banded(dense_to_band(a, 1))
    assert err.value.row == 2
    assert "row 2" in str(err.value)


def test_solve_modes_match_dense():
    rng = np.random.default_rng(3)
    a = random_spd_band(rng, 14, 3)
    factor = cholesky_banded(dense_to_band(a, 3))
    l = np.linalg.cholesky(a)
    rhs = rng.normal(size=14)
    assert np.allclose(solve_banded(factor, rhs), np.linalg.solve(l, rhs))
    assert np.allclose(solve_banded(factor, rhs, transpose=True), np.linalg.solve(l.T, rhs))
    with pytest.raises(ValueError, match=r"rhs has shape \(15,\), expected \(14,\)"):
        solve_banded(factor, rng.normal(size=15))


def test_assemble_precision_matches_dense_kron():
    rng = np.random.default_rng(4)
    for t_len, d in [(2, 1), (6, 1), (5, 2), (8, 3), (4, 4)]:
        design = rng.normal(size=(t_len, d))
        sigma2 = rng.uniform(0.1, 2.0, size=d)
        band = assemble_precision(design, sigma2)
        assert band.shape == (d + 1, t_len * d)
        dense = dense_precision(design, sigma2)
        assert np.allclose(band_to_dense(band), dense, rtol=1e-12, atol=1e-12)


def test_assemble_precision_prior_corners():
    # with a zero design the matrix is exactly the prior's precision,
    # (D'D) kron diag(1/sigma2) plus 1/V at the first state of every
    # coefficient: T=2, d=1, sigma2=1 gives [[1 + 1/V, -1], [-1, 1]], and
    # T=3, d=2, sigma2=(1, 1/2) the walk diagonals (1, 2, 1) and (2, 4, 2)
    k = assemble_precision(np.zeros((2, 1)), np.array([1.0]))
    assert np.array_equal(band_to_dense(k), np.array([[1.0 + 1.0 / FIRST_STATE_VARIANCE, -1.0],
                                                      [-1.0, 1.0]]))
    k = assemble_precision(np.zeros((3, 2)), np.array([1.0, 0.5]))
    first = 1.0 / FIRST_STATE_VARIANCE
    assert np.array_equal(k[0], [1.0 + first, 2.0 + first, 2.0, 4.0, 1.0, 2.0])
    assert np.array_equal(k[2], [-1.0, -2.0, -1.0, -2.0, 0.0, 0.0])


def test_assemble_precision_validates():
    with pytest.raises(ValueError):
        assemble_precision(np.ones((1, 2)), np.ones(2))  # one time point
    with pytest.raises(ValueError):
        assemble_precision(np.ones((5, 2)), np.ones(3))  # sigma2 width
    with pytest.raises(ValueError):
        assemble_precision(np.ones((5, 2)), np.array([1.0, 0.0]))  # zero variance


def test_band_storage_contract():
    # the storage is Fortran-ordered and holds, bit for bit, the values of
    # the dense kron formula and of the C-ordered assembly it replaced; it
    # factors to the C-ordered copy's factor; per-fit storage, reassembled
    # in place over a factor and sized for more paths than drawn, equals a
    # fresh assembly; draws that consume it in place equal the public draws
    rng = np.random.default_rng(6)
    for t_len, d, n_paths in [(2, 1, 1), (7, 1, 3), (6, 2, 4), (9, 3, 2), (5, 4, 3)]:
        design = rng.normal(size=(t_len, d))
        sigma2 = rng.uniform(0.05, 2.0, size=(n_paths, d))
        precision = assemble_precision(design, sigma2)
        assert precision.flags.f_contiguous
        assert np.array_equal(precision, frozen_assemble_bands(design, sigma2))
        dim = precision.shape[1]
        per_fit = _StackedPrecision(design, n_paths + 1)
        per_fit.band[...] = np.nan
        for _ in range(2):  # the second call refills storage that holds a factor
            reused = per_fit(sigma2)
            assert reused.flags.f_contiguous and np.shares_memory(reused, per_fit.band)
            assert np.array_equal(reused, precision)
            _factor(reused)
        dense = np.zeros((dim, dim))
        for b in range(n_paths):
            span = slice(b * t_len * d, (b + 1) * t_len * d)
            dense[span, span] = dense_precision(design, sigma2[b])
        assert np.array_equal(band_to_dense(precision), dense)

        c_copy = np.ascontiguousarray(precision)
        assert np.array_equal(cholesky_banded(precision), cholesky_banded(c_copy))
        assert np.array_equal(precision, c_copy)  # neither consumed

        b_vec = rng.normal(size=dim)
        want = sample_gaussian_precision(precision, b_vec, stream_generator(7))
        assert np.array_equal(precision, c_copy)  # the public draw works on copies
        in_place = b_vec.copy()
        got = _gaussian_precision(per_fit(sigma2), in_place, stream_generator(7))
        assert np.shares_memory(got, in_place) and np.array_equal(got, want)
        assert np.array_equal(per_fit.band[:, :dim], cholesky_banded(precision))

        latent = rng.normal(size=(n_paths, t_len))
        plain = draw_beta_unconstrained(design, latent, sigma2, stream_generator(8))
        out = np.empty((n_paths, t_len, d))
        for _ in range(2):  # the second call refills storage that holds a factor
            reused = _draw_paths(design, per_fit, latent, sigma2, stream_generator(8), out)
            assert reused is out and np.array_equal(out, plain)


def test_non_finite_input_raises_instead_of_drawing_nan():
    # dpbtrf reports success on a NaN band, so without the package's own
    # checks a NaN design entry or latent comes back as an all-NaN path
    rng = np.random.default_rng(9)
    t_len, d = 8, 2
    design, latent, sigma2 = rng.normal(size=(t_len, d)), rng.normal(size=t_len), np.ones(d)
    nan_design, nan_latent = design.copy(), latent.copy()
    nan_design[3, 1] = nan_latent[5] = np.nan
    with pytest.raises(ValueError):
        draw_beta_unconstrained(nan_design, latent, sigma2, stream_generator(1))
    with pytest.raises(ValueError, match="rhs must be finite"):
        draw_beta_unconstrained(design, nan_latent, sigma2, stream_generator(1))

    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_banded(assemble_precision(nan_design, sigma2))
    assert err.value.row == 3 * d + 1  # state (3, 1), the first diagonal the NaN reaches
    band = assemble_precision(design, sigma2)
    band[1, 6] = np.inf
    with pytest.raises(NotPositiveDefiniteError):
        sample_gaussian_precision(band, np.zeros(t_len * d), stream_generator(1))
