"""Quantiles and expected shortfall for the stochastic exponential.

The wealth solution factors into a deterministic part, a lognormal
martingale factor and a jump factor.  Everything a downside-risk constraint
needs about the lognormal factor reduces to Gaussian machinery: the lower
quantile, the tail expectation, and the log-tail function F_beta.  Empirical
counterparts (order-statistic quantile, tail mean) live here as well so the
Monte Carlo side uses one convention everywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import OutOfRange

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class RiskKind(str, enum.Enum):
    VAR = "var"
    ES = "es"


class NegJumpMethod(str, enum.Enum):
    OFF = "off"
    PAPER = "paper"
    THINNING = "thinning"


@dataclass(frozen=True)
class RiskSpec:
    """Downside-risk constraint: kind, confidence beta, loss fraction kappa."""

    kind: RiskKind
    beta: float
    kappa: float
    negjump_method: NegJumpMethod = NegJumpMethod.OFF

    def __post_init__(self):
        object.__setattr__(self, "kind", RiskKind(self.kind))
        object.__setattr__(self, "negjump_method",
                           NegJumpMethod(self.negjump_method))
        if not (0.0 < self.beta <= 0.5):
            raise OutOfRange("beta must lie in (0, 1/2]")
        if not (0.0 < self.kappa < 1.0):
            raise OutOfRange("kappa must lie in (0, 1)")


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def normal_quantile(beta: float) -> float:
    """Lower beta-quantile of the standard normal law.

    Rational approximation (scipy's ndtri) refined by one Newton step on the
    CDF, good to well below 1e-10 across beta in [1e-6, 1 - 1e-6].
    """
    if not (0.0 < beta < 1.0):
        raise OutOfRange("beta must lie strictly inside (0, 1)")
    q = float(ndtri(beta))
    q -= (float(ndtr(q)) - beta) / _phi(q)
    return q


def quantile_stoch_exp(y_norm_t: float, beta: float) -> float:
    """Lower beta-quantile of the stochastic exponential with log-variance
    y_norm_t squared: exp(-||y||_t^2 / 2 + q_beta ||y||_t)."""
    if y_norm_t < 0:
        raise OutOfRange("the time-L2 norm of y must be nonnegative")
    q = normal_quantile(beta)
    return float(np.exp(-0.5 * y_norm_t**2 + q * y_norm_t))


def es_stoch_exp(y_norm_t: float, beta: float) -> float:
    """Expected shortfall of the stochastic exponential at level beta.

    Equals (1/beta) * (1 - Phi(|q_beta| + ||y||_t)); reduces to 1 at
    ||y||_t = 0 and decreases strictly in ||y||_t.
    """
    if y_norm_t < 0:
        raise OutOfRange("the time-L2 norm of y must be nonnegative")
    q = normal_quantile(beta)
    return float(ndtr(-(abs(q) + y_norm_t))) / beta


def F_beta(u, beta: float):
    """Log tail ratio F_beta(u) = ln((1 - Phi(u)) / beta).

    Zero at u = |q_beta| and strictly decreasing; computed through
    log_ndtr(-u) so it stays accurate deep in the tail.
    """
    if not (0.0 < beta < 1.0):
        raise OutOfRange("beta must lie strictly inside (0, 1)")
    u_arr = np.asarray(u, dtype=float)
    out = log_ndtr(-u_arr) - math.log(beta)
    return float(out) if np.ndim(u) == 0 else out


# ---------------------------------------------------------------------------
# Empirical counterparts (order-statistic conventions)
# ---------------------------------------------------------------------------

def tail_count(beta: float, n: int) -> int:
    """Order-statistic index ceil(beta * n) used by the lower quantile."""
    if not 0.0 < beta * n <= n:
        raise OutOfRange("beta * n must land inside the sample")
    return math.ceil(beta * n)


def empirical_lower_quantile(sample: np.ndarray, beta: float) -> float:
    """Lower beta-quantile of a sample: the ceil(beta n)-th smallest value."""
    sample = np.asarray(sample, dtype=float)
    k = tail_count(beta, sample.size)
    return float(np.partition(sample, k - 1)[k - 1])


def empirical_shortfall(sample: np.ndarray, beta: float) -> float:
    """Mean of the ceil(beta n) smallest sample values."""
    sample = np.asarray(sample, dtype=float)
    k = tail_count(beta, sample.size)
    return float(np.partition(sample, k - 1)[:k].mean())

