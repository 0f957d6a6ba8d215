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

The fit uses only the math module; sums are math.fsum. Phi(x) is
0.5 erfc(-x / sqrt 2), and the Nelder-Mead simplex (Nelder & Mead 1965) is
a port of scipy's non-adaptive one: the initial simplex steps +5 % from the
start, or 0.00025 for a zero coordinate; the reflection, expansion,
contraction and shrink coefficients are 1, 2, 0.5 and 0.5; it stops when
the simplex spans at most XATOL in every coordinate and FATOL in value, or
after MAXITER iterations.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from ..errors import ConfigInvalidError, InsufficientTailError

MIN_TAIL_SIZE = 10

# Nelder-Mead stopping rule
XATOL = 1e-6
FATOL = 1e-8
MAXITER = 2000


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


def ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _nelder_mead(
    func: Callable[[list[float]], float], x0: list[float]
) -> list[float]:
    """The vertex of lowest func that the simplex from x0 converges to.

    The simplex is a list of (value, vertex) pairs kept in ascending value
    by a stable sort, as numpy's argsort orders a few vertices.
    """
    n = len(x0)
    vertices = [list(x0)]
    for k in range(n):
        vertex = list(x0)
        vertex[k] = 1.05 * vertex[k] if vertex[k] != 0 else 0.00025
        vertices.append(vertex)
    simplex = sorted(((func(x), x) for x in vertices), key=lambda v: v[0])
    for _ in range(1, MAXITER):
        f_best, best = simplex[0]
        f_worst, worst = simplex[-1]
        if (
            max(abs(a - b) for _, x in simplex[1:] for a, b in zip(x, best)) <= XATOL
            and max(abs(f_best - f) for f, _ in simplex[1:]) <= FATOL
        ):
            break
        centroid = [sum(column) / n for column in zip(*(x for _, x in simplex[:-1]))]

        def along(t: float) -> tuple[float, list[float]]:
            """(value, point) at (1 + t) centroid - t worst: t = 1 reflects,
            2 expands, 0.5 contracts outside and -0.5 inside."""
            x = [(1 + t) * c - t * w for c, w in zip(centroid, worst)]
            return func(x), x

        reflected = along(1)
        if reflected[0] < f_best:
            expanded = along(2)
            simplex[-1] = expanded if expanded[0] < reflected[0] else reflected
        elif reflected[0] < simplex[-2][0]:
            simplex[-1] = reflected
        else:
            if reflected[0] < f_worst:
                contracted = along(0.5)
                accept = contracted[0] <= reflected[0]
            else:
                contracted = along(-0.5)
                accept = contracted[0] < f_worst
            if accept:
                simplex[-1] = contracted
            else:  # shrink every vertex halfway towards the best one
                for j in range(1, n + 1):
                    x = [b + 0.5 * (a - b) for a, b in zip(simplex[j][1], best)]
                    simplex[j] = (func(x), x)
        simplex.sort(key=lambda v: v[0])
    return simplex[0][1]


def fit_heavy_tail(histogram: dict[int, int], k_min: int = 10) -> PowerLawFit:
    """Fit the three tail models to all observations with k >= k_min >= 1."""
    if k_min < 1:  # the lowest bin starts at k_min - 0.5, whose log is taken
        raise ConfigInvalidError(f"k_min must be at least 1, got {k_min}")
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
    ks = [k for k, _ in tail]
    counts = [count for _, count in tail]

    def binned_loglik(masses: list[float]) -> float:
        """Sum of count * ln(bin probability); -inf if any bin gets no mass."""
        if any(mass <= 0.0 for mass in masses):
            return -math.inf
        return math.fsum(c * math.log(m) for c, m in zip(counts, masses))

    x0 = k_min - 0.5
    log_x0 = math.log(x0)
    log_ks = [math.log(k) for k in ks]
    s1 = math.fsum(c * lk for c, lk in zip(counts, log_ks))
    mean = sum(c * k for c, k in zip(counts, ks)) / n
    # bin edges, with the lowest bin clipped at the tail threshold x0
    lo = [max(k - 0.5, x0) for k in ks]
    hi = [k + 0.5 for k in ks]
    log_lo = [math.log(x) for x in lo]
    log_hi = [math.log(x) for x in hi]

    # power law: closed-form exponent, scored on the binned likelihood
    gamma = 1.0 + n / (s1 - n * log_x0)
    power_masses = [
        (a / x0) ** (1.0 - gamma) - (b / x0) ** (1.0 - gamma) for a, b in zip(lo, hi)
    ]
    loglik_pl = binned_loglik(power_masses)

    # exponential: binned over unit bins it is geometric on (k - k_min)
    # with success 1 - q; the discrete MLE is q_hat = m / (m + 1)
    excess_mean = mean - k_min
    if excess_mean <= 0.0:
        exp_masses = [1.0 if k == k_min else 0.0 for k in ks]
    else:
        q = excess_mean / (excess_mean + 1.0)
        exp_masses = [(1.0 - q) * q ** (k - k_min) for k in ks]
    loglik_exp = binned_loglik(exp_masses)

    # truncated log-normal: Nelder-Mead over (mu, ln sigma) on binned masses
    mu0 = s1 / n
    second_moment = math.fsum(c * lk * lk for c, lk in zip(counts, log_ks)) / n
    var0 = max(second_moment - mu0 * mu0, 1e-12)
    sigma0 = math.sqrt(var0) + 1e-3

    def lognormal_loglik(mu: float, sigma: float) -> float:
        if sigma <= 0.0 or not math.isfinite(sigma):
            return -math.inf
        tail_mass = 1.0 - ndtr((log_x0 - mu) / sigma)
        if tail_mass <= 0.0:
            return -math.inf
        masses = [
            (ndtr((b - mu) / sigma) - ndtr((a - mu) / sigma)) / tail_mass
            for a, b in zip(log_lo, log_hi)
        ]
        return binned_loglik(masses)

    def negative(params: list[float]) -> float:
        mu, log_sigma = params
        value = lognormal_loglik(mu, math.exp(log_sigma))
        # keep the simplex finite so the optimizer can step out of dead zones
        return 1e300 if value == -math.inf else -value

    mu_hat, log_sigma_hat = _nelder_mead(negative, [mu0, math.log(sigma0)])
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
