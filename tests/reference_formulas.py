"""Hand-transcribed closed forms for every named bound.

These are written directly from the printed statements of each result,
independently of the production kernel, so the kernel-identity tests
compare two separately coded routes to the same number. Do not refactor
them to call into sdpfeas.
"""

import math

import numpy as np
from scipy.stats import binom


def mu_r(l, p, t):
    return math.exp(l * p * (math.exp(-t) - 1.0))


def inv_mu_r(l, p, t):
    # the printed reliability corollaries write 1/mu_r as exp(lp(1 - e^-t))
    return math.exp(l * p * (1.0 - math.exp(-t)))


def exact_expected_reliability_x(l, p, t):
    # E[exp(-X t)] for X ~ Binomial(l, p), the product of l module terms
    return (1.0 + p * math.expm1(-t)) ** l


# -- hazard-side bounds, expectation l*p ------------------------------------

def thm1_weibull_hazard(l, p, K, m, t):
    mu = l * p
    return math.exp(-((mu - K * t**m) ** 2) / (2.0 * mu))


def cor1_nld_hazard(l, p, K, t):
    mu = l * p
    return math.exp(-((math.sqrt(t) * mu - K) ** 2) / (2.0 * mu * t))


def cor3_ld_hazard(l, p, K, m, t):
    mu = l * p
    return math.exp(-((mu - K + m * t) ** 2) / (2.0 * mu))


def cor5_nli_hazard(l, p, K, t):
    mu = l * p
    return math.exp(-((mu - K * t**2) ** 2) / (2.0 * mu))


def cor7_li_hazard(l, p, K, t):
    mu = l * p
    return math.exp(-((mu - K * t) ** 2) / (2.0 * mu))


def cor9_constant_hazard(l, p, lam):
    mu = l * p
    return math.exp(-((mu - lam) ** 2) / (2.0 * mu))


# -- reliability-side bounds, expectation slot mu_r -------------------------

def thm2_weibull_reliability(l, p, K, m, t):
    mu = mu_r(l, p, t)
    return math.exp(-((mu - K * t**m / (m + 1.0)) ** 2) / (2.0 * mu))


def cor2_nld_reliability(l, p, K, t):
    return math.exp(
        -(inv_mu_r(l, p, t) / 2.0) * (mu_r(l, p, t) - 2.0 * K / math.sqrt(t)) ** 2
    )


def cor4_ld_reliability(l, p, K, m, t):
    return math.exp(
        -inv_mu_r(l, p, t) * (2.0 * mu_r(l, p, t) - 2.0 * K + m * t) ** 2 / 8.0
    )


def cor6_nli_reliability(l, p, K, t):
    return math.exp(
        -inv_mu_r(l, p, t) * (3.0 * mu_r(l, p, t) - K * t**2) ** 2 / 18.0
    )


def cor8_li_reliability(l, p, K, t):
    mu = mu_r(l, p, t)
    return math.exp(-((2.0 * mu - K * t) ** 2) / (8.0 * mu))


def cor10_constant_reliability(l, p, lam, t):
    mu = mu_r(l, p, t)
    return math.exp(-((mu - lam) ** 2) / (2.0 * mu))


# -- per-module injection variant -------------------------------------------

def thm3_injected_hazard(l, p, K_hat, m_hat, K, m, t):
    mu = l * p * K_hat * t**m_hat
    return math.exp(-((mu - K * t**m) ** 2) / (2.0 * mu))


def thm4_injected_reliability(l, p, K_hat, m_hat, K, m, t, corrected):
    inner = K_hat * t ** (m_hat + 1.0)
    if corrected:
        inner = -inner
    mu = math.exp(l * p * (math.exp(inner) - 1.0))
    try:
        return math.exp(-((mu - K * t**m / (m + 1.0)) ** 2) / (2.0 * mu))
    except OverflowError:
        # a finite mean past about 1.3e154 squares past the float range;
        # the printed form is then exp(-inf) = 0
        return 0.0


# -- reference sampler -------------------------------------------------------

def sample_binomial(rng, l, p, trials):
    """``trials`` Binomial(l, p) draws by inversion of the CDF, one uniform
    each: each uniform is searched, with no sort, in the cumulative sum of
    scipy's pmf over the whole support [0, l]."""
    cdf = np.cumsum(binom.pmf(np.arange(l + 1), l, p))
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(trials), side="right")
