"""Random stream handling and the three sampling primitives.

Distributional checks use moderate draw counts and 4+ sigma tolerances so
they are deterministic in practice under the pinned seeds.
"""

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr

from tvpdr.banded import BandedMatrix, assemble_precision
from tvpdr.samplers import (
    RngHandle,
    as_generator,
    sample_gaussian_precision,
    sample_truncated_mvn,
    sample_truncated_normal,
)

from reference import (
    HALF_NORMAL_MEAN,
    UNIT_BOX_COORD_MEAN,
    frozen_truncated_normal,
    kolmogorov_distance,
)


def test_rng_handle_reproducible_and_stream_separated():
    a = RngHandle(123).rng.standard_normal(5)
    b = RngHandle(123).rng.standard_normal(5)
    assert np.array_equal(a, b)
    c = RngHandle(123, stream=1).rng.standard_normal(5)
    assert not np.array_equal(a, c)
    # the handle caches its generator: consecutive use advances one stream
    h = RngHandle(7)
    first = h.rng.standard_normal(3)
    second = h.rng.standard_normal(3)
    assert not np.array_equal(first, second)


def test_rng_handle_validates_range():
    with pytest.raises(ValueError):
        RngHandle(-1)
    with pytest.raises(ValueError):
        RngHandle(0, stream=2**64)
    with pytest.raises(TypeError):
        as_generator(object())


def test_truncated_normal_half_normal_mean():
    rng = RngHandle(11)
    z = sample_truncated_normal(0.0, 1.0, np.zeros(1_000_000), np.inf, rng)
    assert abs(z.mean() - HALF_NORMAL_MEAN) < 3e-3
    assert z.min() > 0.0


def test_truncated_normal_within_bounds_and_scalar():
    rng = RngHandle(12)
    x = sample_truncated_normal(1.0, 2.0, -0.5, 0.5, rng)
    assert isinstance(x, float)
    assert -0.5 < x < 0.5
    lo = np.array([-1.0, 0.0, 5.0])
    hi = np.array([0.0, 2.0, 5.1])
    y = sample_truncated_normal(np.zeros(3), 1.0, lo, hi, rng)
    assert y.shape == (3,)
    assert np.all((y > lo) & (y < hi))


def test_truncated_normal_ks_against_exact_cdf():
    # mid-region interval, exact truncated CDF via normal CDF ratios
    rng = RngHandle(13)
    a, b = -0.7, 1.3
    z = sample_truncated_normal(0.0, 1.0, np.full(200_000, a), b, rng)
    fa, fb = ndtr(a), ndtr(b)
    dist = kolmogorov_distance(z, lambda t: (ndtr(t) - fa) / (fb - fa))
    assert dist < 0.005


def test_truncated_normal_deep_tail_regions():
    rng = RngHandle(14)
    # wide right tail: mean must match the inverse Mills ratio at the cut
    z = sample_truncated_normal(0.0, 1.0, np.full(100_000, 6.0), np.inf, rng)
    assert np.all(z > 6.0)
    mills = np.exp(-18.0) / np.sqrt(2.0 * np.pi) / ndtr(-6.0)
    assert abs(z.mean() - mills) < 0.005
    # narrow sliver nine sigmas out still lands inside
    w = sample_truncated_normal(0.0, 1.0, np.full(10_000, 9.0), 9.0005, rng)
    assert np.all((w > 9.0) & (w < 9.0005))
    # left tail mirrors the right
    v = sample_truncated_normal(0.0, 1.0, -np.inf, np.full(50_000, -5.5), rng)
    assert np.all(v < -5.5)


@pytest.mark.parametrize("a", [12.0, 20.0, 25.0, 40.0])
def test_truncated_normal_far_tails(a):
    # inversion reaches 30 sd; a = 40 still goes through rejection
    z = sample_truncated_normal(0.0, 1.0, np.full(100_000, a), np.inf, RngHandle(22))
    assert np.all(z > a)
    mills = np.exp(-0.5 * a * a - log_ndtr(-a)) / np.sqrt(2.0 * np.pi)
    assert abs(z.mean() - mills) < 5.0 * z.std() / np.sqrt(z.size)
    # the left tail mirrors the right, draw for draw
    v = sample_truncated_normal(0.0, 1.0, -np.inf, np.full(100_000, -a), RngHandle(22))
    assert np.array_equal(v, -z)
    # a sliver 1e-4 wide stays strictly inside and is not piled on a bound
    w = sample_truncated_normal(0.0, 1.0, np.full(10_000, a), a + 1e-4, RngHandle(23))
    assert np.all((w > a) & (w < a + 1e-4))
    assert abs((w - a).mean() / 1e-4 - 0.5) < 0.02


def _within_4_sd(rs, n):
    """Bounds whose finite ends all lie within +-4 sd: two-sided, one-sided
    either way, open both ways, and intervals left of, across and right of 0."""
    mean, sd = rs.normal(0.0, 2.0, n), np.exp(rs.normal(0.0, 0.5, n))
    a = rs.uniform(-3.9, 3.8, n)
    b = np.minimum(a + np.abs(rs.normal(0.0, rs.choice([1e-3, 1.0, 3.0], n))) + 1e-9, 3.9)
    a[rs.random(n) < 0.2] = -np.inf
    b[rs.random(n) < 0.2] = np.inf
    return mean, sd, mean + sd * a, mean + sd * b


@pytest.mark.parametrize("case", ["mixed", "scalar", "broadcast"])
def test_truncated_normal_matches_the_frozen_kernel_within_4_sd(case):
    rs = np.random.default_rng(24)
    if case == "mixed":
        calls = [_within_4_sd(rs, n) for n in (1, 2, 7, 160, 5000)]
    elif case == "scalar":
        calls = [(0.3, 1.2, -0.5, 2.0), (0.0, 1.0, 1.5, np.inf), (0.0, 1.0, -np.inf, -2.0),
                 (-1.0, 2.0, -np.inf, np.inf), (0.0, 1.0, 0.0, 3.0)]
    else:
        lo = np.array([-1.0, 0.0, 2.5])
        calls = [(np.zeros((4, 3)), 1.0, lo, np.inf), (rs.normal(size=(2, 1)), 0.5, -np.inf, 0.0),
                 (0.0, np.array([[1.0], [2.0]]), lo, lo + 0.25), (np.zeros(5), 1.0, 0.0, np.inf)]
    for args in calls:
        seed = int(rs.integers(2**32))
        new_gen, old_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        new = sample_truncated_normal(*args, new_gen)
        old = frozen_truncated_normal(*args, old_gen)
        assert type(new) is type(old)
        assert np.array_equal(np.asarray(new).view(np.int64), np.asarray(old).view(np.int64))
        assert new_gen.random() == old_gen.random()


def test_truncated_normal_rejects_bad_input():
    rng = RngHandle(15)
    with pytest.raises(ValueError, match="empty truncation interval"):
        sample_truncated_normal(0.0, 1.0, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_truncated_normal(np.nan, 1.0, 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_truncated_normal(0.0, 0.0, 0.0, 1.0, rng)


def test_gaussian_precision_sampler_moments():
    # small random-walk precision; compare to dense mean/cov at 200k draws
    rng = np.random.default_rng(16)
    design = rng.normal(size=(4, 1))
    prec = assemble_precision(design, np.array([0.8]))
    dense = prec.to_dense()
    cov = np.linalg.inv(dense)
    b = rng.normal(size=4)
    mu = cov @ b
    handle = RngHandle(17)
    draws = np.stack([sample_gaussian_precision(prec, b, handle) for _ in range(60_000)])
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 4.0 * se)
    sample_cov = np.cov(draws.T)
    assert np.allclose(sample_cov, cov, rtol=0.05, atol=0.01)


def test_truncated_mvn_unit_box_coordinate_mean():
    # N(0, I2) truncated to [0,1]^2: coordinates are independent, each with
    # mean (phi(0) - phi(1)) / (Phi(1) - Phi(0))
    prec = BandedMatrix(dim=2, bandwidth=1, diagonals=np.array([[1.0, 1.0], [0.0, 0.0]]))
    handle = RngHandle(18)
    n = 25_000
    out = np.empty((n, 2))
    x = np.full(2, 0.5)
    for i in range(n):
        x = sample_truncated_mvn(prec, np.zeros(2), np.zeros(2), np.ones(2), x, 2, handle)
        out[i] = x
    assert np.all((out > 0.0) & (out < 1.0))
    assert np.all(np.abs(out.mean(axis=0) - UNIT_BOX_COORD_MEAN) < 7e-3)


def test_truncated_mvn_tracks_correlated_target():
    # strong correlation: check the Gibbs chain's marginal means against a
    # long rejection-sampled reference from the same truncated Gaussian
    rho = 0.8
    cov = np.array([[1.0, rho], [rho, 1.0]])
    prec_dense = np.linalg.inv(cov)
    prec = BandedMatrix.from_dense(prec_dense, 1)
    lo, hi = np.array([-0.5, 0.0]), np.array([1.5, 2.0])

    gen = np.random.default_rng(19)
    raw = gen.multivariate_normal(np.zeros(2), cov, size=400_000)
    keep = raw[np.all((raw > lo) & (raw < hi), axis=1)]

    handle = RngHandle(20)
    n = 30_000
    out = np.empty((n, 2))
    x = np.array([0.5, 1.0])
    for i in range(n):
        x = sample_truncated_mvn(prec, np.zeros(2), lo, hi, x, 3, handle)
        out[i] = x
    assert np.all(np.abs(out.mean(axis=0) - keep.mean(axis=0)) < 0.015)
    assert np.all(np.abs(out.std(axis=0) - keep.std(axis=0)) < 0.015)


def test_truncated_mvn_validates():
    prec = BandedMatrix(dim=2, bandwidth=0, diagonals=np.ones((1, 2)))
    handle = RngHandle(21)
    with pytest.raises(ValueError, match="empty truncation box at coordinate 1"):
        sample_truncated_mvn(prec, np.zeros(2), np.array([0.0, 1.0]),
                             np.array([1.0, 1.0]), np.full(2, 0.5), 1, handle)
    with pytest.raises(ValueError, match="outside the truncation box"):
        sample_truncated_mvn(prec, np.zeros(2), np.zeros(2), np.ones(2),
                             np.array([0.5, 2.0]), 1, handle)
    with pytest.raises(ValueError, match="sweeps"):
        sample_truncated_mvn(prec, np.zeros(2), np.zeros(2), np.ones(2),
                             np.full(2, 0.5), 0, handle)
