import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import jumpfolio as jf
from jumpfolio.errors import OutOfRange
from jumpfolio.riskmetrics import (
    empirical_lower_quantile,
    empirical_shortfall,
    tail_count,
)


def _mp_quantile(beta: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.findroot(
            lambda x: mpmath.ncdf(x) - mpmath.mpf(beta), -1.0))


def _mp_tail(u: float) -> float:
    with mpmath.workdps(40):
        return float(1 - mpmath.ncdf(u))


# ---------------------------------------------------------------------------
# Gaussian machinery
# ---------------------------------------------------------------------------

def test_normal_quantile_symmetry():
    assert abs(jf.normal_quantile(0.5)) < 1e-14


def test_normal_quantile_against_mpmath():
    assert jf.normal_quantile(0.05) == pytest.approx(_mp_quantile(0.05), abs=1e-8)
    assert jf.normal_quantile(0.05) == pytest.approx(-1.6449, abs=1e-4)


@pytest.mark.parametrize("beta", [1e-6, 1e-4, 0.01, 0.05, 0.3, 0.5, 0.9, 1 - 1e-6])
def test_normal_quantile_roundtrip(beta):
    assert float(ndtr(jf.normal_quantile(beta))) == pytest.approx(beta, abs=1e-10)


def test_normal_quantile_out_of_range():
    with pytest.raises(OutOfRange):
        jf.normal_quantile(0.0)
    with pytest.raises(OutOfRange):
        jf.normal_quantile(1.0)


def test_quantile_stoch_exp_trivials():
    assert jf.quantile_stoch_exp(0.0, 0.05) == 1.0
    s = 0.4
    assert jf.quantile_stoch_exp(s, 0.5) == pytest.approx(
        math.exp(-0.5 * s * s), abs=1e-14)


def test_quantile_stoch_exp_monte_carlo():
    s, beta, n = 0.3, 0.05, 100_000
    rng = np.random.default_rng(5150)
    sample = np.exp(-0.5 * s * s + s * rng.standard_normal(n))
    closed = jf.quantile_stoch_exp(s, beta)
    # exact order-statistic 99% interval around the true quantile
    from scipy.stats import binom
    lo = int(binom.ppf(0.005, n, beta))
    hi = int(binom.ppf(0.995, n, beta)) + 1
    ordered = np.sort(sample)
    assert ordered[lo - 1] <= closed <= ordered[hi - 1]


def test_quantile_stoch_exp_decreasing_in_budget():
    s_grid = np.linspace(0.0, 3.0, 50)
    vals = np.array([jf.quantile_stoch_exp(s, 0.05) for s in s_grid])
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) < 0)


def test_es_stoch_exp_trivials_and_shape():
    assert jf.es_stoch_exp(0.0, 0.05) == pytest.approx(1.0, abs=1e-12)
    s_grid = np.linspace(0.0, 3.0, 50)
    es = np.array([jf.es_stoch_exp(s, 0.05) for s in s_grid])
    assert np.all(np.diff(es) < 0)
    # tail mean never exceeds the tail boundary for this lognormal
    for s in (0.1, 0.3, 0.8):
        assert jf.es_stoch_exp(s, 0.05) <= jf.quantile_stoch_exp(s, 0.05)


def test_es_stoch_exp_monte_carlo():
    s, beta, n = 0.3, 0.05, 200_000
    rng = np.random.default_rng(99)
    sample = np.exp(-0.5 * s * s + s * rng.standard_normal(n))
    est = empirical_shortfall(sample, beta)
    k = tail_count(beta, n)
    tail = np.sort(sample)[:k]
    se = tail.std(ddof=1) / math.sqrt(k)
    assert abs(est - jf.es_stoch_exp(s, beta)) < 3.0 * se


def test_es_equals_integral_of_quantiles():
    # ES identity: ES(s, beta) = (1/beta) int_0^beta q(s, delta) d delta
    s, beta = 0.45, 0.05
    x, w = np.polynomial.legendre.leggauss(2000)
    delta = 0.5 * beta * (x + 1.0)
    weights = 0.5 * beta * w
    integral = sum(wt * jf.quantile_stoch_exp(s, d)
                   for d, wt in zip(delta, weights))
    assert integral / beta == pytest.approx(jf.es_stoch_exp(s, beta), abs=1e-6)


def test_F_beta_values():
    beta = 0.05
    q = abs(jf.normal_quantile(beta))
    assert jf.F_beta(q, beta) == pytest.approx(0.0, abs=1e-10)
    assert jf.F_beta(2.5, beta) == pytest.approx(
        math.log(_mp_tail(2.5) / beta), abs=1e-10)
    u = np.linspace(q, 6.0, 60)
    vals = jf.F_beta(u, beta)
    assert np.all(np.diff(vals) < 0)
    assert np.isfinite(jf.F_beta(40.0, beta))


# ---------------------------------------------------------------------------
# Empirical conventions and monotonicity
# ---------------------------------------------------------------------------

def test_empirical_lower_quantile_convention():
    sample = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    # ceil(0.3 * 5) = 2 -> second smallest
    assert empirical_lower_quantile(sample, 0.3) == 2.0
    assert empirical_shortfall(sample, 0.3) == 1.5


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.01, max_value=0.4))
@settings(max_examples=25, deadline=None)
def test_dominated_pairs_order_quantiles_and_shortfall(seed, beta):
    # Y <= Z pathwise implies both tail measures are ordered the same way
    rng = np.random.default_rng(seed)
    z = np.exp(rng.standard_normal(4000))
    y = z * rng.uniform(0.2, 1.0, size=4000)
    assert empirical_lower_quantile(y, beta) <= empirical_lower_quantile(z, beta)
    assert empirical_shortfall(y, beta) <= empirical_shortfall(z, beta)


def test_risk_spec_validation():
    with pytest.raises(ValueError):
        jf.RiskSpec("var", 0.6, 0.1)
    with pytest.raises(ValueError):
        jf.RiskSpec("var", 0.05, 1.0)
    spec = jf.RiskSpec("es", 0.05, 0.2, "thinning")
    assert spec.kind is jf.RiskKind.ES
    assert spec.negjump_method is jf.NegJumpMethod.THINNING
