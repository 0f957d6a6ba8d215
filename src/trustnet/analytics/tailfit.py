"""Maximum-likelihood tail fitting and model comparison.

Given a degree histogram and a threshold k_min, the tail sample is every
degree observation with k >= k_min, treated as integer-binned data: the
probability a model assigns to degree k is its continuous CDF mass over
[k - 1/2, k + 1/2), anchored at x0 = k_min - 1/2. Three candidate tails
are compared on the same sample:

    power law     F(x) = 1 - (x/x0)^(1-gamma)
    exponential   F(x) = 1 - exp(-lam (x - x0))       (its binned form is
                  geometric, whose maximum-likelihood rate is closed-form)
    log-normal    Phi((ln x - mu)/sigma), truncated below x0

The reported exponent estimate is the standard closed-form
gamma_hat = 1 + n / sum ln(k_i / x0); the log-normal parameters are found
numerically (Nelder-Mead on the binned likelihood). best_model is the
label with the highest binned log-likelihood.

numpy and scipy are imported inside fit_heavy_tail, so only the commands that
fit a tail (analyze, sweep) pay their import time of most of a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InsufficientTailError

MIN_TAIL_SIZE = 10


@dataclass(frozen=True)
class PowerLawFit:
    """Tail-fit result and the three-way model comparison."""

    k_min: int
    gamma: float
    loglik_powerlaw: float
    loglik_exponential: float
    loglik_lognormal: float
    best_model: str
    tail_sample_size: int
    lognormal_mu: float
    lognormal_sigma: float


def fit_heavy_tail(histogram: dict[int, int], k_min: int = 10) -> PowerLawFit:
    """Fit the three tail models to all observations with k >= k_min."""
    import numpy as np
    from scipy.optimize import minimize
    from scipy.special import ndtr

    tail = sorted(
        (int(k), int(count))
        for k, count in histogram.items()
        if k >= k_min and count > 0
    )
    n = sum(count for _, count in tail)
    if n < MIN_TAIL_SIZE:
        raise InsufficientTailError(
            f"tail holds {n} observations at k_min={k_min}; need {MIN_TAIL_SIZE}"
        )
    ks = np.array([k for k, _ in tail], dtype=float)
    counts = np.array([count for _, count in tail], dtype=float)

    def binned_loglik(masses) -> float:
        """Sum of count * ln(bin probability); -inf if any bin gets no mass."""
        if np.any(masses <= 0.0):
            return -math.inf
        return float(counts @ np.log(masses))

    x0 = k_min - 0.5
    log_x0 = math.log(x0)
    log_ks = np.log(ks)
    s1 = float(counts @ log_ks)
    mean = float(counts @ ks) / n
    # bin edges, with the lowest bin clipped at the tail threshold x0
    lo = np.maximum(ks - 0.5, x0)
    hi = ks + 0.5
    log_lo = np.log(lo)
    log_hi = np.log(hi)

    # power law: closed-form exponent, scored on the binned likelihood
    gamma = 1.0 + n / (s1 - n * log_x0)
    power_masses = (lo / x0) ** (1.0 - gamma) - (hi / x0) ** (1.0 - gamma)
    loglik_pl = binned_loglik(power_masses)

    # exponential: binned over unit bins it is geometric on (k - k_min)
    # with success 1 - q; the discrete MLE is q_hat = m / (m + 1)
    excess_mean = mean - k_min
    if excess_mean <= 0.0:
        exp_masses = np.where(ks == k_min, 1.0, 0.0)
    else:
        q = excess_mean / (excess_mean + 1.0)
        exp_masses = (1.0 - q) * q ** (ks - k_min)
    loglik_exp = binned_loglik(exp_masses)

    # truncated log-normal: Nelder-Mead over (mu, ln sigma) on binned masses
    mu0 = s1 / n
    var0 = max(float(counts @ log_ks**2) / n - mu0 * mu0, 1e-12)
    sigma0 = math.sqrt(var0) + 1e-3

    def lognormal_loglik(mu: float, sigma: float) -> float:
        if sigma <= 0.0 or not math.isfinite(sigma):
            return -math.inf
        tail_mass = 1.0 - ndtr((log_x0 - mu) / sigma)
        if tail_mass <= 0.0:
            return -math.inf
        masses = (ndtr((log_hi - mu) / sigma) - ndtr((log_lo - mu) / sigma)) / tail_mass
        return binned_loglik(masses)

    def negative(params) -> float:
        mu, log_sigma = params
        value = lognormal_loglik(mu, math.exp(log_sigma))
        # keep the simplex finite so the optimizer can step out of dead zones
        return 1e300 if value == -math.inf else -value

    result = minimize(
        negative,
        x0=[mu0, math.log(sigma0)],
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000},
    )
    mu_hat, log_sigma_hat = result.x
    sigma_hat = math.exp(log_sigma_hat)
    loglik_ln = lognormal_loglik(mu_hat, sigma_hat)

    scores = {
        "power-law": loglik_pl,
        "exponential": loglik_exp,
        "log-normal": loglik_ln,
    }
    best_model = max(scores, key=lambda name: scores[name])
    return PowerLawFit(
        k_min=k_min,
        gamma=gamma,
        loglik_powerlaw=loglik_pl,
        loglik_exponential=loglik_exp,
        loglik_lognormal=loglik_ln,
        best_model=best_model,
        tail_sample_size=n,
        lognormal_mu=mu_hat,
        lognormal_sigma=sigma_hat,
    )
