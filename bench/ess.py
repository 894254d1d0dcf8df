"""Effective sample size of MCMC output.

FFT autocorrelation with Geyer's (1992) initial monotone positive sequence
estimator, vectorised over independent chains stored as columns.
"""

from __future__ import annotations

import numpy as np


def ess(draws) -> np.ndarray:
    """ESS of each column of ``draws`` (n, ...); NaN for a constant column.

    tau = -1 + 2 * sum_k P_k with P_k = rho_{2k} + rho_{2k+1}, summed while
    P_k > 0 and forced non-increasing, and ESS = n / tau. An AR(1) chain
    with coefficient rho has ESS n (1 - rho) / (1 + rho).
    """
    x = np.asarray(draws, dtype=np.float64)
    n = x.shape[0]
    if n < 4:
        raise ValueError("need at least 4 draws")
    flat = x.reshape(n, -1)
    centered = flat - flat.mean(axis=0)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, size, axis=0)
    acov = np.fft.irfft(spec * spec.conj(), size, axis=0)[:n]
    out = np.full(flat.shape[1], np.nan)
    live = np.ptp(flat, axis=0) > 0.0
    rho = acov[:, live] / acov[0, live]
    pairs = rho[: n - n % 2].reshape(n // 2, 2, -1).sum(axis=1)
    positive = np.cumprod(pairs > 0.0, axis=0).astype(bool)
    monotone = np.minimum.accumulate(np.where(positive, pairs, np.inf), axis=0)
    tau = -1.0 + 2.0 * np.where(positive, monotone, 0.0).sum(axis=0)
    out[live] = n / tau
    return out.reshape(x.shape[1:])
