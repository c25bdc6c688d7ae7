import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jumpfolio as jf
from jumpfolio.errors import MomentDiverges, UnsupportedSupport
from jumpfolio.market import (
    K_transform_path,
    R_path,
    cumtrapz,
    jump_terms_path,
    l2_time_norm,
    sigma_inv_xi_lambda_path,
)

from conftest import make_model, make_model_2d


# ---------------------------------------------------------------------------
# Grid and quadrature
# ---------------------------------------------------------------------------

def test_grid_basics():
    grid = jf.TimeGrid.uniform(2.0, 9)
    assert grid.horizon == 2.0
    assert grid.n == 9


def test_grid_rejects_bad_nodes():
    with pytest.raises(ValueError):
        jf.TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        jf.TimeGrid(np.array([0.1, 0.5, 1.0]))


def test_r_integral_constant():
    model = make_model(r=0.02)
    assert R_path(model)[-1] == pytest.approx(0.02, abs=1e-15)
    assert R_path(model)[0] == 0.0


def test_path_integral_piecewise_linear_vs_riemann():
    grid = jf.TimeGrid.uniform(1.0, 41)
    values = np.abs(grid.nodes - 0.37) + 0.2 * grid.nodes
    # fine-grid Riemann oracle on the piecewise-linear interpolant
    tt = np.linspace(0.0, 1.0, 2_000_001)
    riemann = np.interp(tt, grid.nodes, values).sum() / tt.size
    assert cumtrapz(grid, values)[-1] == pytest.approx(riemann, abs=2e-6)


def test_cumtrapz_vector_shape():
    grid = jf.TimeGrid.uniform(1.0, 5)
    vals = np.ones((3, 5))
    out = cumtrapz(grid, vals)
    assert out.shape == (3, 5)
    assert np.allclose(out[:, -1], 1.0)


# ---------------------------------------------------------------------------
# theta and theta_hat
# ---------------------------------------------------------------------------

def test_theta_zero_when_mu_equals_r():
    model = make_model(mu=0.02, r=0.02)
    assert np.allclose(jf.theta_path(model)[0], 0.0)


def test_theta_scalar_division():
    model = make_model(mu=0.10, r=0.02, sigma=0.20)
    assert jf.theta_path(model)[0, 0] == pytest.approx(0.40, abs=1e-15)


def test_theta_2d_against_adjugate_oracle():
    sigma = np.array([[0.2, 0.05], [0.0, 0.3]])
    model = make_model_2d(mu=(0.10, 0.08), r=0.02, sigma=sigma)
    got = jf.theta_path(model)[3]
    rhs = np.array([0.08, 0.06])
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
    inv = np.array([[sigma[1, 1], -sigma[0, 1]],
                    [-sigma[1, 0], sigma[0, 0]]]) / det
    assert np.max(np.abs(got - inv @ rhs)) < 1e-12


def test_xi_lambda_cases():
    assert np.allclose(make_model(lam=0.0).jumps.xi_lambda, 0.0)
    model = make_model(lam=2.0, jump=jf.JumpDist.point_masses([0.05], [1.0]))
    assert model.jumps.xi_lambda[0] == pytest.approx(0.10, abs=1e-15)
    two = make_model(lam=1.0,
                     jump=jf.JumpDist.point_masses([-0.1, 0.3], [0.5, 0.5]))
    assert two.jumps.xi_lambda[0] == pytest.approx(0.10, abs=1e-15)


def test_theta_hat_reduces_and_shifts():
    no_jump = make_model(lam=0.0)
    assert np.allclose(jf.theta_hat_path(no_jump)[0], jf.theta_path(no_jump)[0])
    model = make_model(mu=0.10, r=0.02, sigma=0.2, lam=1.0,
                       jump=jf.JumpDist.point_masses([0.04], [1.0]))
    assert jf.theta_hat_path(model)[0, 0] == pytest.approx(0.20, abs=1e-14)


def test_theta_hat_identity_2d():
    sigma = np.array([[0.2, 0.05], [0.02, 0.3]])
    dists = (jf.JumpDist.point_masses([0.05, 0.2], [0.7, 0.3]),
             jf.JumpDist.point_masses([-0.1, 0.1], [0.4, 0.6]))
    model = make_model_2d(sigma=sigma, lams=(0.8, 1.3), dists=dists)
    lhs = jf.theta_hat_path(model)
    rhs = jf.theta_path(model) - sigma_inv_xi_lambda_path(model)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# Jump laws and transforms
# ---------------------------------------------------------------------------

def test_jump_dist_validation():
    with pytest.raises(UnsupportedSupport):
        jf.JumpDist.point_masses([-1.0], [1.0])
    with pytest.raises(ValueError):
        jf.JumpDist.point_masses([0.1, 0.2], [0.6, 0.6])
    with pytest.raises(ValueError):
        jf.JumpDist.from_density(lambda z: 3.0 * np.ones_like(z), 0.0, 1.0)


def test_density_support_must_be_finite():
    # an infinite upper bound is refused before the Gauss-Legendre nodes,
    # which it would turn into inf and nan
    with pytest.raises(UnsupportedSupport, match="be finite"):
        jf.JumpDist.from_density(lambda z: np.ones_like(z), -0.1, np.inf)


def test_singular_sigma_rejected():
    from jumpfolio.errors import SingularSigma
    grid = jf.TimeGrid.uniform(1.0, 5)
    with pytest.raises(SingularSigma):
        jf.CoefficientPath.constant(grid, 0.02, [0.05, 0.06],
                                    [[0.2, 0.2], [0.2, 0.2]])


def K_at(jumps, pi, gamma):
    """K_1(pi) of a one-asset jump spec, through the path evaluator."""
    return K_transform_path(jumps, np.array([[pi]]), gamma)[0]


def Q_at(jumps, pi, gamma):
    """Q_1(pi) of a one-asset jump spec, through the solver's kernel."""
    return jump_terms_path(jumps, np.array([[pi]]), gamma)[0][0, 0]


def test_K_transform_rejects_nonpositive_argument():
    jumps = jf.JumpSpec(np.array([1.0]),
                        (jf.JumpDist.point_masses([-0.9], [1.0]),))
    with pytest.raises(UnsupportedSupport):
        K_at(jumps, 20.0, 0.5)
    with pytest.raises(UnsupportedSupport):
        Q_at(jumps, 20.0, 0.5)


def test_density_moments():
    dist = jf.JumpDist.from_density(lambda z: np.full_like(z, 5.0), 0.0, 0.2)
    assert dist.mean == pytest.approx(0.1, abs=1e-12)
    assert dist.w @ dist.z**2 == pytest.approx(0.2**2 / 3.0, abs=1e-12)
    assert dist.negative_mass == 0.0


def test_K_transform_trivial_zeros():
    model = make_model(lam=1.0, jump=jf.JumpDist.point_masses([0.1], [1.0]))
    assert K_at(model.jumps, 0.0, 0.5) == 0.0
    assert K_at(model.jumps, 0.5, 1.0) == pytest.approx(0.0, abs=1e-16)


def test_K_transform_point_mass_bignum_oracle():
    model = make_model(lam=1.0, jump=jf.JumpDist.point_masses([0.1], [1.0]))
    got = K_at(model.jumps, 0.5, 0.5)
    with mpmath.workdps(50):
        expected = float(mpmath.mpf("1.05") ** mpmath.mpf("0.5") - 1
                         - mpmath.mpf("0.025"))
    assert got == pytest.approx(expected, abs=1e-12)


def test_Q_transform_point_mass_bignum_oracle():
    model = make_model(lam=1.0, jump=jf.JumpDist.point_masses([0.1], [1.0]))
    got = Q_at(model.jumps, 0.5, 0.5)
    with mpmath.workdps(50):
        expected = float((mpmath.mpf("1.05") ** mpmath.mpf("-0.5") - 1)
                         * mpmath.mpf("0.1"))
    assert got == pytest.approx(expected, abs=1e-12)
    assert Q_at(model.jumps, 0.0, 0.5) == 0.0
    assert Q_at(model.jumps, 0.7, 1.0) == pytest.approx(0.0, abs=1e-16)


@st.composite
def point_mass_specs(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    z = draw(st.lists(st.floats(min_value=-0.9, max_value=2.0),
                      min_size=m, max_size=m))
    raw = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                        min_size=m, max_size=m))
    p = np.asarray(raw) / np.sum(raw)
    lam = draw(st.floats(min_value=0.1, max_value=3.0))
    return lam, np.asarray(z), p


@given(point_mass_specs(), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_K_transform_concave_in_pi(spec, gamma):
    lam, z, p = spec
    jumps = jf.JumpSpec(np.array([lam]), (jf.JumpDist.point_masses(z, p),))
    pi = np.linspace(0.0, 1.0, 41)
    vals = K_transform_path(jumps, pi[:, None], gamma)
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    assert np.max(second) <= 1e-10


@given(point_mass_specs(), st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_Q_transform_nonpositive_on_nonnegative_support(spec, gamma, pi):
    lam, z, p = spec
    jumps = jf.JumpSpec(np.array([lam]),
                        (jf.JumpDist.point_masses(np.abs(z), p),))
    assert Q_at(jumps, pi, gamma) <= 1e-15


# ---------------------------------------------------------------------------
# Exponential jump moment
# ---------------------------------------------------------------------------

def test_expected_jump_exponential_trivial():
    model = make_model(lam=1.5, jump=jf.JumpDist.point_masses([0.2], [1.0]))
    assert jf.expected_jump_exponential(
        model.jumps, model.grid, lambda t, z: np.zeros_like(z)) == 1.0
    no_jumps = make_model(lam=0.0)
    assert jf.expected_jump_exponential(
        no_jumps.jumps, no_jumps.grid, lambda t, z: z) == 1.0


def test_expected_jump_exponential_closed_form_and_mc():
    lam, z0, pi, gamma = 1.2, 0.15, 0.6, 0.5
    model = make_model(lam=lam, jump=jf.JumpDist.point_masses([z0], [1.0]))
    got = jf.expected_jump_exponential(
        model.jumps, model.grid, lambda t, z: gamma * np.log1p(pi * z))
    expected = np.exp(lam * ((1.0 + pi * z0) ** gamma - 1.0))
    assert got == pytest.approx(expected, rel=1e-12)

    rng = np.random.default_rng(202)
    n = 200_000
    counts = rng.poisson(lam, n)
    sample = np.exp(counts * gamma * np.log1p(pi * z0))
    se = sample.std(ddof=1) / np.sqrt(n)
    assert abs(sample.mean() - got) < 3.0 * se


def test_expected_jump_exponential_diverges():
    model = make_model(lam=1.0, jump=jf.JumpDist.point_masses([0.5], [1.0]))
    with pytest.raises(MomentDiverges):
        jf.expected_jump_exponential(model.jumps, model.grid,
                                     lambda t, z: 1e6 / (t + 1e-9) * z)


def test_l2_time_norm_constant():
    grid = jf.TimeGrid.uniform(4.0, 33)
    assert l2_time_norm(grid, np.full(33, 0.5)) == pytest.approx(1.0, abs=1e-12)
