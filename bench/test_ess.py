"""ESS estimator against AR(1) chains of known ESS n (1 - rho) / (1 + rho)."""

import numpy as np
from scipy.signal import lfilter

from ess import ess


def ar1(rho, n, chains, rng):
    noise = rng.standard_normal((n, chains))
    start = noise[0] / np.sqrt(1.0 - rho * rho)  # stationary from the first draw
    noise[0] = start
    return lfilter([1.0], [1.0, -rho], noise, axis=0)


def test_ess_matches_ar1_theory():
    rng = np.random.default_rng(11)
    n = 20000
    for rho in (0.0, 0.5, 0.9, -0.3):
        got = ess(ar1(rho, n, 8, rng))
        want = n * (1.0 - rho) / (1.0 + rho)
        assert got.shape == (8,)
        assert abs(np.mean(got) / want - 1.0) < 0.1, (rho, np.mean(got), want)


def test_ess_shapes_and_constant_chains():
    rng = np.random.default_rng(12)
    draws = rng.standard_normal((500, 3, 4))
    draws[:, 1, 2] = 7.0
    out = ess(draws)
    assert out.shape == (3, 4)
    assert np.isnan(out[1, 2])
    assert np.all(np.isfinite(np.delete(out.ravel(), 6)))
