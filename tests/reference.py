"""Slow, independent reference implementations used only by the tests.

Everything here is written against dense numpy/scipy primitives in the most
literal way possible so it shares no code path with the package: dense
precision assembly via kron, a one-threshold Gibbs sampler on top of
scipy.stats.truncnorm and numpy.linalg, a single-site sequential-scan
monotone Gibbs sampler, analytic distribution facts, and a batch-means Monte
Carlo standard error.
"""

from __future__ import annotations

import numpy as np
from scipy import stats
from scipy.special import gammainc, ndtr


def dense_precision(design: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Literal K = X'X + (D'D) kron diag(1/sigma2) as a dense matrix."""
    design = np.asarray(design, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    t_len, d = design.shape
    xtx = np.zeros((t_len * d, t_len * d))
    for t in range(t_len):
        g = design[t]
        xtx[t * d : (t + 1) * d, t * d : (t + 1) * d] = np.outer(g, g)
    dtd = 2.0 * np.eye(t_len)
    dtd[-1, -1] = 1.0
    for t in range(t_len - 1):
        dtd[t, t + 1] = -1.0
        dtd[t + 1, t] = -1.0
    return xtx + np.kron(dtd, np.diag(1.0 / sigma2))


def dense_gibbs_reference(
    y: np.ndarray,
    design: np.ndarray,
    threshold: float,
    nu: float,
    s: float,
    iterations: int,
    burnin: int,
    rng: np.random.Generator,
):
    """Unconstrained single-threshold Gibbs written with dense linear algebra.

    Latents via scipy.stats.truncnorm, state path via numpy Cholesky of the
    dense precision, variances via the inverse-gamma conjugate update. The
    draw sequence differs from the package sampler; agreement is checked on
    posterior moments, never draw by draw.
    """
    y = np.asarray(y, dtype=np.float64)
    design = np.asarray(design, dtype=np.float64)
    t_len, d = design.shape
    below = y <= threshold

    beta = np.zeros((t_len, d))
    sigma2 = np.full(d, 0.01)
    kept_beta = np.empty((iterations - burnin, t_len, d))
    kept_sigma2 = np.empty((iterations - burnin, d))

    for it in range(iterations):
        fit = np.sum(design * beta, axis=1)
        a = np.where(below, -fit, -np.inf)
        b = np.where(below, np.inf, -fit)
        z = stats.truncnorm.rvs(a, b, loc=fit, scale=1.0, random_state=rng)

        k = dense_precision(design, sigma2)
        rhs = (design * z[:, None]).reshape(-1)
        chol = np.linalg.cholesky(k)
        mu = np.linalg.solve(k, rhs)
        noise = np.linalg.solve(chol.T, rng.standard_normal(t_len * d))
        beta = (mu + noise).reshape(t_len, d)

        diff2 = np.sum(np.diff(beta, axis=0) ** 2, axis=0)
        shape = nu + 0.5 * (t_len - 1)
        scale = s + 0.5 * diff2
        sigma2 = scale / rng.gamma(shape, 1.0, size=d)

        if it >= burnin:
            kept_beta[it - burnin] = beta
            kept_sigma2[it - burnin] = sigma2
    return kept_beta, kept_sigma2


def dense_monotone_gibbs_reference(
    y: np.ndarray,
    thresholds,
    nu: float,
    s: float,
    iterations: int,
    burnin: int,
    chains: int,
    rng: np.random.Generator,
):
    """Sequential-scan monotone Gibbs for intercept-only paths (d = 1).

    Thresholds in grid order, one at a time: latents via scipy.stats.truncnorm,
    then every path point beta_{j,t} in turn from its exact univariate full
    conditional under the dense precision, truncated to
    [beta_{j-1,t}, beta_{j+1,t}] (open at the grid ends), then the variance
    by the inverse-gamma update. Single-site and literal: it shares neither
    the red-black threshold order nor any banded code with the package.
    ``chains`` independent chains run side by side, vectorized across chains
    only, so their means give a Monte Carlo error free of autocorrelation
    estimates. Returns the kept paths, (chains, kept, K, T).
    """
    y = np.asarray(y, dtype=np.float64)
    t_len, k = y.size, len(thresholds)
    dtd = dense_precision(np.zeros((t_len, 1)), np.ones(1))
    xtx = dense_precision(np.ones((t_len, 1)), np.ones(1)) - dtd
    beta = np.tile(np.linspace(-1.0, 1.0, k)[None, :, None], (chains, 1, t_len))
    sigma2 = np.full((chains, k), 0.01)
    kept = np.empty((chains, iterations - burnin, k, t_len))
    open_end = np.full((chains, t_len), np.inf)

    for it in range(iterations):
        for j in range(k):
            below = y <= thresholds[j]
            fit = beta[:, j]
            a = np.where(below, -fit, -np.inf)
            b = np.where(below, np.inf, -fit)
            z = stats.truncnorm.rvs(a, b, loc=fit, scale=1.0, random_state=rng)

            prec = xtx + dtd / sigma2[:, j, None, None]  # (chains, T, T)
            lower = beta[:, j - 1] if j > 0 else -open_end
            upper = beta[:, j + 1] if j < k - 1 else open_end
            for t in range(t_len):
                ktt = prec[:, t, t]
                others = np.einsum("cs,cs->c", prec[:, t], beta[:, j]) - ktt * beta[:, j, t]
                m = (z[:, t] - others) / ktt
                sd = 1.0 / np.sqrt(ktt)
                beta[:, j, t] = stats.truncnorm.rvs((lower[:, t] - m) / sd, (upper[:, t] - m) / sd,
                                                    loc=m, scale=sd, random_state=rng)

            rss = np.sum(np.diff(beta[:, j], axis=1) ** 2, axis=1)
            sigma2[:, j] = (s + 0.5 * rss) / rng.gamma(nu + 0.5 * (t_len - 1), size=chains)
        if it >= burnin:
            kept[:, it - burnin] = beta
    return kept


def batch_means_se(chain: np.ndarray, n_batches: int = 25) -> float:
    """Monte Carlo standard error of the chain mean by batch means."""
    chain = np.asarray(chain, dtype=np.float64).ravel()
    n = chain.size // n_batches * n_batches
    batches = chain[:n].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / np.sqrt(n_batches))


def inverse_gamma_cdf(x, shape: float, scale: float):
    """IG(shape, scale) distribution function, via the gamma of 1/x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = 1.0 - gammainc(shape, scale / x[pos])
    return out


def kolmogorov_distance(samples: np.ndarray, cdf) -> float:
    """sup_x |ECDF(x) - cdf(x)| over the sample points."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    f = cdf(s)
    i = np.arange(1, n + 1)
    return float(max((i / n - f).max(), (f - (i - 1) / n).max()))


def probit_mixture_cdf(a: float, b: float) -> float:
    """E[Phi(a + b Z)] for standard normal Z, i.e. Phi(a / sqrt(1 + b^2))."""
    return float(ndtr(a / np.sqrt(1.0 + b * b)))


# Frozen oracle values, each computed once from an independent route and
# pinned here so a regression cannot silently move them.

# mean of |N(0,1)| = sqrt(2/pi); 1e6-draw MC agrees to 3 decimal places
HALF_NORMAL_MEAN = 0.7978845608028654

# E[X1] for N(0, I2) truncated to the unit box, X1 in [0, 1]:
# (phi(0) - phi(1)) / (Phi(1) - Phi(0))
UNIT_BOX_COORD_MEAN = 0.45986222928642656

# KS 95% critical value, asymptotic 1.3580986 / sqrt(n) at n = 100
KS95_N100 = 0.13580986393225505

# standard normal density at zero
PHI0 = 0.3989422804014327
