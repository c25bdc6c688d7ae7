"""Bad input to the model, spec and strategy constructors, a strategy that
does not fit its model (another grid, node count or asset count), an
ensemble or node statistics from another grid, a NaN level, time, wealth or threshold given to the
level adjustment or the tail statistics, a negative norm or a level outside
(0, 1) given to the closed-form tail functions, and a gamma = 1 radius asked
of a market whose drift equals the rate, raises a typed error.

Every refusal is a JumpfolioError, and the input-check errors ConfigError and
OutOfRange are also ValueErrors, so callers that catch ValueError still work.
A site that raises another type names it as the third item of its row.
"""

import numpy as np
import pytest

import jumpfolio as jf
from jumpfolio.constrained import _ray_radius
from jumpfolio.errors import (
    ConditionViolated,
    ConfigError,
    InvalidStrategy,
    JumpfolioError,
    OutOfRange,
    UnsupportedSupport,
)


def _coeffs(n=3, r=None, mu=None):
    r = np.zeros(n) if r is None else r
    mu = np.zeros((n, 1)) if mu is None else mu
    return jf.CoefficientPath(r, mu, np.full((n, 1, 1), 0.3))


ONE = (jf.JumpDist.degenerate(),)


def _tiny_model(n=3, horizon=1.0):
    return jf.MarketModel(jf.TimeGrid.uniform(horizon, n), _coeffs(n),
                          jf.JumpSpec.none(1))


def _two_asset_model():
    coeffs = jf.CoefficientPath(np.zeros(3), np.full((3, 2), 0.05),
                                np.tile(0.3 * np.eye(2), (3, 1, 1)))
    return jf.MarketModel(jf.TimeGrid.uniform(1.0, 3), coeffs,
                          jf.JumpSpec.none(2))


def _consuming(n=3, horizon=1.0):
    """One riskless asset, consumption at rate 0.1, on its own grid."""
    return jf.Strategy(jf.TimeGrid.uniform(horizon, n), np.zeros((n, 1)),
                       np.zeros((n, 1)), np.full(n, 0.1))


VAR = jf.RiskSpec("var", 0.05, 0.1)
EQUAL = jf.UtilitySpec.equal(0.5)


def _path(value, d=1):
    return np.full((3, d), value)


def _strategy(y, pi, *rest):
    """A Strategy on the grid of _tiny_model."""
    return jf.Strategy(jf.TimeGrid.uniform(1.0, 3), y, pi, *rest)


def _validate(strategy):
    strategy.validate(_tiny_model())


def _node_stats(beta=0.05, thresholds=None, n=3, n_paths=100, seed=1):
    model = _tiny_model(n)
    return jf.simulate_node_stats(model, jf.Strategy.riskless(model), 1.0,
                                  beta, n_paths, seed, thresholds=thresholds)


def _ensemble(n, n_paths=4, seed=1):
    model = _tiny_model(n)
    return jf.simulate(model, jf.Strategy.riskless(model), 1.0, n_paths,
                       seed)


def _profile_at(x):
    return jf.constraint_profile(_node_stats(), _tiny_model(),
                                 jf.RiskSpec("var", 0.05, 0.1), x)


SITES = {
    "grid_too_short": (lambda: jf.TimeGrid(np.array([0.0])),
                       "at least two nodes"),
    "grid_start": (lambda: jf.TimeGrid(np.array([0.1, 0.5])), "start at"),
    "grid_order": (lambda: jf.TimeGrid(np.array([0.0, 0.5, 0.5])),
                   "strictly increasing"),
    "grid_finite": (lambda: jf.TimeGrid(np.array([0.0, np.inf])), "finite"),
    "grid_horizon": (lambda: jf.TimeGrid.uniform(0.0, 5), "horizon"),
    "grid_horizon_inf": (lambda: jf.TimeGrid.uniform(np.inf, 5), "horizon"),
    "atoms_shape": (lambda: jf.JumpDist([0.1, 0.2], [1.0]), "matching"),
    "atoms_finite": (lambda: jf.JumpDist([np.nan], [1.0]), "finite"),
    "weights_sign": (lambda: jf.JumpDist([0.1, 0.2], [1.5, -0.5]),
                     "nonnegative"),
    "masses_positive": (lambda: jf.JumpDist.point_masses([0.1, 0.2],
                                                         [1.0, 0.0]),
                        "positive"),
    "masses_sum": (lambda: jf.JumpDist.point_masses([0.1, 0.2], [0.6, 0.6]),
                   "sum to"),
    "density_sign": (lambda: jf.JumpDist.from_density(
        lambda z: -np.ones_like(z), 0.0, 1.0), "nonnegative"),
    "density_support": (lambda: jf.JumpDist.from_density(
        lambda z: np.full_like(z, 0.5), -1.0, 1.0), "support must lie",
        UnsupportedSupport),
    "density_mass": (lambda: jf.JumpDist.from_density(
        lambda z: 3.0 * np.ones_like(z), 0.0, 1.0), "integrates"),
    "intensity": (lambda: jf.JumpSpec([-1.0], ONE), "intensities"),
    "laws_per_asset": (lambda: jf.JumpSpec([1.0, 1.0], ONE), "one jump-size"),
    "r_shape": (lambda: _coeffs(r=np.zeros((3, 1))), "1-d path"),
    "coeff_shapes": (lambda: _coeffs(mu=np.zeros((2, 1))),
                     "inconsistent shapes"),
    "coeff_finite": (lambda: _coeffs(r=np.array([0.0, np.nan, 0.0])),
                     "finite"),
    "model_length": (lambda: jf.MarketModel(jf.TimeGrid.uniform(1.0, 5),
                                            _coeffs(), jf.JumpSpec.none(1)),
                     "disagree in length"),
    "model_dimension": (lambda: jf.MarketModel(jf.TimeGrid.uniform(1.0, 3),
                                               _coeffs(), jf.JumpSpec.none(2)),
                        "disagree in dimension"),
    "model_squares": (lambda: jf.MarketModel(
        jf.TimeGrid.uniform(1.0, 3), _coeffs(r=np.full(3, 1e300)),
        jf.JumpSpec.none(1)), "float range"),
    "model_jump_squares": (lambda: jf.MarketModel(
        jf.TimeGrid.uniform(1.0, 3), _coeffs(),
        jf.JumpSpec(np.array([1e300]),
                    (jf.JumpDist.point_masses([0.04], [1.0]),))),
        "float range"),
    "gamma_range": (lambda: jf.UtilitySpec(1.5, 0.5), "gamma must lie"),
    "gamma_unequal": (lambda: jf.UtilitySpec(0.3, 0.5).gamma,
                      "equal utilities"),
    "q_linear": (lambda: jf.UtilitySpec.equal(1.0).q, "gamma < 1"),
    "epsilon_time": (lambda: jf.epsilon_t(jf.JumpSpec.none(1), -1.0),
                     "t must be"),
    "epsilon_method": (lambda: jf.epsilon_t(jf.JumpSpec.none(1), 1.0, "off"),
                       "no adjustment method"),
    "beta_hat_epsilon": (lambda: jf.beta_hat(0.1, -0.01), "epsilon must"),
    "epsilon_time_nan": (lambda: jf.epsilon_t(jf.JumpSpec.none(1), np.nan),
                         "t must be"),
    "beta_hat_epsilon_nan": (lambda: jf.beta_hat(0.05, np.nan),
                             "epsilon must"),
    "beta_hat_beta_nan": (lambda: jf.beta_hat(np.nan, 0.01), "beta must"),
    "tail_count_nan": (lambda: jf.riskmetrics.tail_count(np.nan, 10),
                       "inside the sample"),
    "node_stats_beta_nan": (lambda: _node_stats(beta=np.nan),
                            "inside the sample"),
    "node_stats_thresholds": (lambda: _node_stats(thresholds=np.full(3, np.inf)),
                              "thresholds must be finite"),
    "node_stats_paths_float": (lambda: _node_stats(n_paths=2.5),
                               "n_paths must be an integer"),
    "node_stats_paths_bool": (lambda: _node_stats(n_paths=True),
                              "n_paths must be an integer"),
    "node_stats_seed_float": (lambda: _node_stats(seed=1.5),
                              "seed must be an integer"),
    "simulate_paths_float": (lambda: _ensemble(3, n_paths=2.5),
                             "n_paths must be an integer"),
    "simulate_seed_float": (lambda: _ensemble(3, seed=1.5),
                            "seed must be an integer"),
    "simulate_seed_bool": (lambda: _ensemble(3, seed=False),
                           "seed must be an integer"),
    "profile_wealth_nan": (lambda: _profile_at(np.nan), "initial wealth"),
    "strategy_shapes": (lambda: _strategy(_path(0.0), _path(0.0, 2)),
                        "y and pi must both", InvalidStrategy),
    "strategy_v": (lambda: _strategy(_path(0.0), _path(0.0), np.zeros(2)),
                   "v must be an", InvalidStrategy),
    "strategy_V_path": (lambda: _strategy(_path(0.0), _path(0.0),
                                          np.zeros(3), np.zeros(4)),
                        "V_path must have", InvalidStrategy),
    "validate_dimension": (lambda: _validate(_strategy(_path(0.0, 2),
                                                       _path(0.0, 2))),
                           "shapes disagree", InvalidStrategy),
    "fit_cost_nodes": (lambda: jf.cost_function(
        _tiny_model(), EQUAL, _consuming(5), 1.0), "another time grid",
        InvalidStrategy),
    "fit_cost_grid": (lambda: jf.cost_function(
        _tiny_model(), EQUAL, _consuming(horizon=2.0), 1.0),
        "another time grid", InvalidStrategy),
    "fit_cost_assets": (lambda: jf.cost_function(
        _two_asset_model(), EQUAL, _consuming(), 1.0), "shapes disagree",
        InvalidStrategy),
    "fit_slack_nodes": (lambda: jf.slack_path(_consuming(5), _tiny_model(),
                                              VAR),
                        "another time grid", InvalidStrategy),
    "fit_slack_assets": (lambda: jf.slack_path(_consuming(),
                                               _two_asset_model(), VAR),
                         "shapes disagree", InvalidStrategy),
    "fit_simulate_grid": (lambda: jf.simulate(
        _tiny_model(), _consuming(horizon=2.0), 1.0, 4, 1),
        "another time grid", InvalidStrategy),
    "fit_estimate_cost": (lambda: jf.estimate_cost(_ensemble(5), _consuming(),
                                                   EQUAL),
                          "another time grid", InvalidStrategy),
    "fit_profile_node_stats": (lambda: jf.constraint_profile(
        _node_stats(n=5), _tiny_model(), VAR, 1.0), "node count"),
    "validate_consumption": (lambda: _validate(_strategy(
        _path(0.0), _path(0.0), np.array([0.1, -0.1, 0.1]))),
        "consumption rate", InvalidStrategy),
    "validate_y": (lambda: _validate(_strategy(_path(0.1), _path(0.5))),
                   "y != sigma' pi", InvalidStrategy),
    "ray_radius_var": (lambda: _ray_radius(
        _tiny_model(), jf.RiskSpec("var", 0.05, 0.1), False), "theta",
        ConditionViolated),
    "ray_radius_es": (lambda: _ray_radius(
        _tiny_model(), jf.RiskSpec("es", 0.05, 0.1), False), "theta",
        ConditionViolated),
    "quantile_stoch_exp": (lambda: jf.quantile_stoch_exp(-0.1, 0.05),
                           "nonnegative"),
    "es_stoch_exp": (lambda: jf.es_stoch_exp(-0.1, 0.05), "nonnegative"),
    "F_beta": (lambda: jf.F_beta(0.0, 1.5), "beta must"),
    "risk_beta": (lambda: jf.RiskSpec("var", 0.6, 0.1), "beta must"),
    "risk_kappa": (lambda: jf.RiskSpec("var", 0.1, 1.0), "kappa must"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_bad_input_raises_a_typed_value_error(site):
    call, message, *error = SITES[site]
    with pytest.raises(JumpfolioError, match=message) as info:
        call()
    assert isinstance(info.value, error[0] if error else ValueError)


def test_input_errors_are_value_errors():
    assert issubclass(ConfigError, ValueError)
    assert issubclass(OutOfRange, ValueError)
