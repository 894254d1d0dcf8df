"""Random streams and the three sampling primitives.

Distributional checks use moderate draw counts and 4+ sigma tolerances so
they are deterministic in practice under the pinned seeds.
"""

from functools import partial

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr

from tvpdr.banded import assemble_precision
from tvpdr.model import draw_beta_monotone
from tvpdr.samplers import (
    _truncated_std_normal,
    sample_gaussian_precision,
    sample_truncated_mvn,
    sample_truncated_normal,
    stream_generator,
)

from reference import (
    HALF_NORMAL_MEAN,
    UNIT_BOX_COORD_MEAN,
    band_to_dense,
    frozen_mirrored_std_normal,
    frozen_truncated_mvn,
    frozen_truncated_std_normal,
    kolmogorov_distance,
    truncated_normal_cdf,
)


def test_stream_generator_reproducible_and_stream_separated():
    a = stream_generator(123).standard_normal(5)
    b = stream_generator(123).standard_normal(5)
    assert np.array_equal(a, b)
    c = stream_generator(123, 1).standard_normal(5)
    assert not np.array_equal(a, c)
    # each call starts the stream afresh; one generator advances through it
    gen = stream_generator(7)
    first = gen.standard_normal(3)
    second = gen.standard_normal(3)
    assert not np.array_equal(first, second)
    assert np.array_equal(stream_generator(7).standard_normal(3), first)


@pytest.mark.parametrize("seed, stream", [(0, 0), (123, 1), (2**64 - 1, 3),
                                          (np.uint64(2**64 - 1), np.int32(3)),
                                          (np.int64(123), np.uint8(1))])
def test_stream_generator_is_sfc64_on_the_seed_sequence_spawn_key(seed, stream):
    # the scheme DRAW_SCHEME names; its output is the same on every platform
    want = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(int(seed), spawn_key=(int(stream),))))
    got = stream_generator(seed, stream)
    assert type(got.bit_generator) is np.random.SFC64
    expected = want.random(8), want.standard_normal(8)
    assert np.array_equal(got.random(8), expected[0])
    assert np.array_equal(got.standard_normal(8), expected[1])
    if stream == 0:  # the default stream
        assert np.array_equal(stream_generator(seed).random(8), expected[0])


def test_stream_generator_validates_range():
    with pytest.raises(ValueError):
        stream_generator(-1)
    with pytest.raises(ValueError):
        stream_generator(0, 2**64)
    # ModelSpec.seed's rule: a bool, float or string is no seed or stream,
    # not a stand-in for the integer it rounds or converts to
    for bad in (1.5, True, "3", np.float64(2.0)):
        with pytest.raises(TypeError, match="seed must be an integer"):
            stream_generator(bad)
    for bad in (2.7, False, "1"):
        with pytest.raises(TypeError, match="stream must be an integer"):
            stream_generator(0, bad)


@pytest.mark.parametrize("seed, stream, lane", [(0, 0, 1), (123, 4, 1), (2**64 - 1, 3, 2),
                                                (np.int64(9), np.uint8(2), np.int32(1))])
def test_stream_generator_lanes_are_sub_streams_on_the_spawn_key(seed, stream, lane):
    # lane 0 is the stream itself; lane l >= 1 is spawn key (stream, l)
    want = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(int(seed), spawn_key=(int(stream), int(lane)))))
    got = stream_generator(seed, stream, lane)
    assert np.array_equal(got.random(8), want.random(8))
    assert np.array_equal(stream_generator(seed, stream, 0).random(8),
                          stream_generator(seed, stream).random(8))
    assert not np.array_equal(stream_generator(seed, stream, lane).random(8),
                              stream_generator(seed, stream).random(8))
    with pytest.raises(TypeError, match="lane must be an integer"):
        stream_generator(seed, stream, True)
    with pytest.raises(ValueError, match="lane must lie in"):
        stream_generator(seed, stream, -1)


def test_truncated_normal_half_normal_mean():
    rng = stream_generator(11)
    z = sample_truncated_normal(0.0, 1.0, np.zeros(1_000_000), np.inf, rng)
    assert abs(z.mean() - HALF_NORMAL_MEAN) < 3e-3
    assert z.min() > 0.0


def test_truncated_normal_within_bounds_and_scalar():
    rng = stream_generator(12)
    x = sample_truncated_normal(1.0, 2.0, -0.5, 0.5, rng)
    assert isinstance(x, float)
    assert -0.5 < x < 0.5
    lo = np.array([-1.0, 0.0, 5.0])
    hi = np.array([0.0, 2.0, 5.1])
    y = sample_truncated_normal(np.zeros(3), 1.0, lo, hi, rng)
    assert y.shape == (3,)
    assert np.all((y > lo) & (y < hi))


# (mean, sd, lower, upper): proposals kept always, mostly, half the time,
# rarely and never; one-sided either way; inverted within 30 sd and drawn
# by rejection beyond
LAW_BOXES = [
    (0.0, 1.0, -0.7, 1.3), (0.3, 1.0, -np.inf, np.inf), (0.0, 2.0, -6.0, 6.0),
    (1.0, 0.5, 1.0, np.inf), (0.0, 1.0, 0.1, 0.2), (2.0, 0.1, 2.5, 2.6),
    (0.0, 1.0, -np.inf, -2.0), (-1.0, 1.0, 4.0, 6.0), (0.0, 1.0, 29.0, np.inf),
    (5.0, 3.0, -np.inf, -88.0), (0.0, 1.0, -40.0, -39.9),
]


def test_truncated_normal_ks_against_exact_cdf():
    # One call holds every box, interleaved, so accepted proposals and
    # inverted misses both land in their own slots. Keeping a proposal
    # outside its box, or redrawing a miss from the untruncated normal,
    # piles draws on the clamps and fails here.
    n = 200_000
    mean, sd, lower, upper = (np.tile(col, n) for col in np.array(LAW_BOXES).T)
    draws = sample_truncated_normal(mean, sd, lower, upper, stream_generator(13))
    assert np.all((draws > lower) & (draws < upper))
    for j, box in enumerate(LAW_BOXES):
        z = draws[j :: len(LAW_BOXES)]
        assert np.sqrt(n) * kolmogorov_distance(z, truncated_normal_cdf(*box)) < 1.95, box


def test_truncated_normal_deep_tail_regions():
    rng = stream_generator(14)
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
    z = sample_truncated_normal(0.0, 1.0, np.full(100_000, a), np.inf, stream_generator(22))
    assert np.all(z > a)
    mills = np.exp(-0.5 * a * a - log_ndtr(-a)) / np.sqrt(2.0 * np.pi)
    assert abs(z.mean() - mills) < 5.0 * z.std() / np.sqrt(z.size)
    # the left tail mirrors the right, draw for draw
    v = sample_truncated_normal(0.0, 1.0, -np.inf, np.full(100_000, -a), stream_generator(22))
    assert np.array_equal(v, -z)
    # a sliver 1e-4 wide stays strictly inside and is not piled on a bound
    w = sample_truncated_normal(0.0, 1.0, np.full(10_000, a), a + 1e-4, stream_generator(23))
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
    # the inversion core behind the proposal: bit for bit the frozen mirrored
    # kernel, and within 4 sd the frozen kernel before mirroring too; the
    # public draw has the broadcast shape, a float for all-scalar input
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
    for mean, sd, lower, upper in calls:
        a, b = np.broadcast_arrays(np.subtract(lower, mean) / sd, np.subtract(upper, mean) / sd)
        draw = sample_truncated_normal(mean, sd, lower, upper, stream_generator(1))
        assert np.shape(draw) == a.shape and (type(draw) is float) == (a.ndim == 0)
        a, b = a.ravel(), b.ravel()
        seed = int(rs.integers(2**32))
        new_gen = np.random.default_rng(seed)
        new = _truncated_std_normal(a, b, new_gen)
        for frozen in (frozen_mirrored_std_normal, frozen_truncated_std_normal):
            old_gen = np.random.default_rng(seed)
            old = frozen(a, b, old_gen)
            assert np.array_equal(new.view(np.int64), old.view(np.int64))
            assert old_gen.bit_generator.state == new_gen.bit_generator.state


def test_truncated_normal_rejects_bad_input():
    rng = stream_generator(15)
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
    dense = band_to_dense(prec)
    cov = np.linalg.inv(dense)
    b = rng.normal(size=4)
    mu = cov @ b
    gen = stream_generator(17)
    draws = np.stack([sample_gaussian_precision(prec, b, gen) for _ in range(60_000)])
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 4.0 * se)
    sample_cov = np.cov(draws.T)
    assert np.allclose(sample_cov, cov, rtol=0.05, atol=0.01)


def test_truncated_mvn_unit_box_coordinate_mean():
    # N(0, I2) truncated to [0,1]^2: coordinates are independent, each with
    # mean (phi(0) - phi(1)) / (Phi(1) - Phi(0))
    gen = stream_generator(18)
    n = 25_000
    out = np.empty((n, 2))
    x = np.full(2, 0.5)
    for i in range(n):
        x = sample_truncated_mvn(np.ones(2), np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2),
                                 x, 2, gen)
        out[i] = x
    assert np.all((out > 0.0) & (out < 1.0))
    assert np.all(np.abs(out.mean(axis=0) - UNIT_BOX_COORD_MEAN) < 7e-3)


def test_truncated_mvn_tracks_correlated_target():
    # strong correlation: check the Gibbs chain's marginal means against a
    # long rejection-sampled reference from the same truncated Gaussian
    rho = 0.8
    cov = np.array([[1.0, rho], [rho, 1.0]])
    prec_dense = np.linalg.inv(cov)
    diag, off = np.diag(prec_dense), np.array([prec_dense[0, 1], np.nan])
    lo, hi = np.array([-0.5, 0.0]), np.array([1.5, 2.0])

    gen = np.random.default_rng(19)
    raw = gen.multivariate_normal(np.zeros(2), cov, size=400_000)
    keep = raw[np.all((raw > lo) & (raw < hi), axis=1)]

    gen = stream_generator(20)
    n = 30_000
    out = np.empty((n, 2))
    x = np.array([0.5, 1.0])
    for i in range(n):
        x = sample_truncated_mvn(diag, off, np.zeros(2), lo, hi, x, 3, gen)
        out[i] = x
    assert np.all(np.abs(out.mean(axis=0) - keep.mean(axis=0)) < 0.015)
    assert np.all(np.abs(out.std(axis=0) - keep.std(axis=0)) < 0.015)


def _box_problem(rs, n):
    """Diagonally dominant tridiagonal precision with junk in the unused
    ``off[-1]``, an rhs, its mean K^{-1} rhs from a dense solve, a box around
    the mean with open sides, slivers and boxes 1000 sd out, and an init
    inside it."""
    off = rs.normal(0.0, 0.4, n)
    off[-1] = rs.choice([np.inf, np.nan, 7.0])  # unused: must be ignored
    diag = rs.uniform(0.5, 3.0, n) + 2 * 0.4 * 5.0  # above every |N(0, 0.4)| pair here
    rhs = rs.normal(0.0, 4.0, n)
    dense = np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)
    mean = np.linalg.solve(dense, rhs)
    lower = mean + rs.normal(0.0, 2.0, n) - 1.0
    upper = lower + np.abs(rs.normal(size=n)) * rs.choice([1e-3, 1.0, 5.0], n) + 1e-9
    lower[rs.random(n) < 0.2] = -np.inf
    upper[rs.random(n) < 0.2] = np.inf
    far = rs.random(n) < 0.15
    sign = rs.choice([-1.0, 1.0], n)
    edge = sign * 1000.0
    width = np.where(rs.random(n) < 0.5, np.inf, 0.5)
    lower[far] = np.where(sign > 0, edge, -edge - width)[far]
    upper[far] = np.where(sign > 0, edge + width, -edge)[far]
    init = np.zeros(n)
    has_lo, has_up = np.isfinite(lower), np.isfinite(upper)
    both = has_lo & has_up
    init[both] = 0.5 * (lower[both] + upper[both])
    init[has_lo & ~has_up] = lower[has_lo & ~has_up] + 0.1
    init[has_up & ~has_lo] = upper[has_up & ~has_lo] - 0.1
    return diag, off, rhs, mean, lower, upper, init


def test_truncated_mvn_matches_the_frozen_sweep():
    # The frozen colour-group sweep, driving the public conditional draw,
    # reads its conditional means from the mean, this kernel from the rhs.
    # They are equal in exact arithmetic, so the draws agree to rounding and
    # consume the same random numbers: the neighbour bookkeeping is right.
    rs = np.random.default_rng(31)
    for n in np.tile([1, 2, 3, 17, 160, 161], 34):
        diag, off, rhs, mean, lower, upper, init = _box_problem(rs, int(n))
        sweeps = int(rs.integers(1, 4))
        seed = int(rs.integers(2**32))
        new_gen, old_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        new = sample_truncated_mvn(diag, off, rhs, lower, upper, init, sweeps, new_gen)
        old = frozen_truncated_mvn(np.vstack([diag, off]), mean, lower, upper, init, sweeps,
                                   old_gen, draw=sample_truncated_normal)
        np.testing.assert_allclose(new, old, rtol=1e-10, atol=0.0)
        assert new_gen.random() == old_gen.random()
        assert np.all((new > lower) & (new < upper))


@pytest.mark.parametrize("sweeps, error", [(True, TypeError), (2.0, TypeError), (0, ValueError)],
                         ids=["bool", "float", "zero"])
@pytest.mark.parametrize("draw", ["sample_truncated_mvn", "draw_beta_monotone"])
def test_sweeps_must_be_a_positive_integer(draw, sweeps, error):
    # True ran one sweep and 2.0 died in range() without naming its argument
    gen = stream_generator(22)
    if draw == "sample_truncated_mvn":
        call = partial(sample_truncated_mvn, np.ones(2), np.zeros(2), np.zeros(2), np.zeros(2),
                       np.ones(2), np.full(2, 0.5))
    else:
        x = np.ones((4, 1))
        call = partial(draw_beta_monotone, np.full(4, -1.0), np.full(4, 1.0), x, np.zeros(4),
                       np.array([0.3]), np.zeros((4, 1)))
    with pytest.raises(error, match="sweeps must be"):
        call(sweeps=sweeps, gen=gen)


def test_truncated_mvn_validates():
    diag, off, rhs, box = np.ones(2), np.zeros(2), np.zeros(2), (np.zeros(2), np.ones(2))
    gen = stream_generator(21)
    with pytest.raises(ValueError, match="empty truncation box at coordinate 1"):
        sample_truncated_mvn(diag, off, rhs, np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                             np.full(2, 0.5), 1, gen)
    with pytest.raises(ValueError, match="outside the truncation box"):
        sample_truncated_mvn(diag, off, rhs, *box, np.array([0.5, 2.0]), 1, gen)
    with pytest.raises(ValueError, match="sweeps"):
        sample_truncated_mvn(diag, off, rhs, *box, np.full(2, 0.5), 0, gen)
    with pytest.raises(ValueError, match=r"off has shape \(1,\), expected \(2,\)"):
        sample_truncated_mvn(diag, np.zeros(1), rhs, *box, np.full(2, 0.5), 1, gen)
    # checked once per call, before any draw
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="rhs must be finite"):
            sample_truncated_mvn(diag, off, np.array([0.0, bad]), *box, np.full(2, 0.5), 1,
                                 gen)
    for bad in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="precision diagonal must be finite and positive"):
            sample_truncated_mvn(np.array([1.0, bad]), off, rhs, *box, np.full(2, 0.5), 1,
                                 gen)
    # and per sweep, a conditional mean that overflows
    with pytest.raises(ValueError, match="conditional mean is not finite"), \
            np.errstate(over="ignore"):
        sample_truncated_mvn(np.array([1e-300, 1.0]), np.array([1e300, 0.0]), rhs, *box,
                             np.full(2, 0.5), 1, gen)
