"""Bit-identity of the equal-gamma allocation on time-varying markets.

The digests pin every output bit of `solve_power_equal` and
`solve_no_consumption` (pi, y, v, the growth rate h*, J* and the
first-order residual) where the coefficients change from node to node:
a drift ramp mu 0.03 -> 0.3, and a two-regime market whose (r, mu, sigma)
jumps once, half-way through the horizon.  Each comes in one asset with
jumps and in two correlated assets with jumps, one of them negative.  The
ramp drives the allocation from the interior onto the bound pi = 1.  A
change to the per-node allocation solve, or to how its answer is laid on
the grid, changes a digest.  The digests hold for the numpy release and
CPU the suite runs on.

The two-regime market also checks the node map: the allocation is solved
once per distinct coefficient sample, so each node must read, bit for
bit, the answer of the constant market of its regime.  Drawn regime
markets check the same up to a few ulps (see
`test_drawn_regime_nodes_match_their_constant_market`).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jumpfolio as jf
from jumpfolio.market import node_map
from jumpfolio.unconstrained import _optimal_allocation

N = 33
RAMP = np.linspace(0.03, 0.3, N)
SWITCH = N // 2 + 1          # first node of the second regime


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _jumps(d):
    if d == 1:
        return jf.JumpSpec(np.array([0.8]),
                           (jf.JumpDist.point_masses([0.03, 0.1], [0.6, 0.4]),))
    return jf.JumpSpec(np.array([1.5, 0.8]),
                       (jf.JumpDist.point_masses([-0.2, 0.1], [0.3, 0.7]),
                        jf.JumpDist.point_masses([0.05], [1.0])))


def ramp_market(d):
    """Drift rising linearly from 0.03 to 0.3 in the first asset."""
    grid = jf.TimeGrid.uniform(1.0, N)
    if d == 1:
        mu, sigma = RAMP[:, None], [[0.3]]
    else:
        mu = np.column_stack([RAMP, np.linspace(0.06, 0.04, N)])
        sigma = [[0.3, 0.05], [0.0, 0.25]]
    coeffs = jf.CoefficientPath(r=np.full(N, 0.02), mu=mu,
                                sigma=np.tile(sigma, (N, 1, 1)))
    return jf.MarketModel(grid, coeffs, _jumps(d))


# (r, mu, sigma) of the two regimes, by dimension
REGIMES = {
    1: ((0.02, [0.06], [[0.3]]), (0.03, [0.15], [[0.2]])),
    2: ((0.02, [0.07, 0.05], [[0.3, 0.05], [0.0, 0.25]]),
        (0.03, [0.12, 0.06], [[0.2, -0.04], [0.1, 0.3]])),
}


def regime_market(d, regime):
    """The constant market of one regime on the two-regime grid."""
    grid = jf.TimeGrid.uniform(1.0, N)
    r, mu, sigma = REGIMES[d][regime]
    return jf.MarketModel(grid, jf.CoefficientPath.constant(grid, r, mu, sigma),
                          _jumps(d))


def two_regime_market(d):
    """The first regime up to mid-horizon, the second from node SWITCH on."""
    first, second = (regime_market(d, k).coeffs for k in (0, 1))
    coeffs = jf.CoefficientPath(
        *(np.concatenate([getattr(first, name)[:SWITCH],
                          getattr(second, name)[SWITCH:]])
          for name in ("r", "mu", "sigma")))
    return jf.MarketModel(jf.TimeGrid.uniform(1.0, N), coeffs, _jumps(d))


MARKETS = {"ramp": ramp_market, "two_regime": two_regime_market}
UTILITY = jf.UtilitySpec.equal(0.5)

# (solve_power_equal, solve_no_consumption)
GOLDEN = {
    ("ramp", 1): (
        "c066b412bde29e6b35a7737447eca887b0d0ba5108214d97986c4c89767fe98e",
        "799e33e3fd8464e2604583dd5940d359d922a615f60fa4e5796ab32335224cac"),
    ("ramp", 2): (
        "359f6427d02677099418414141eee1a7abd2534998766fabd8b1453005f8597e",
        "93e7939572792a3b489dc22d8157fca1c239715bac75821f604727d6af7d7f47"),
    ("two_regime", 1): (
        "a8b9c784888f9a4267dae431be645c9ee7ffbe6df28bde680eb16449abf6262b",
        "f0572d744233fe0eb433269fcfc5f724c774abfdf66f56db8f75c8428a003065"),
    ("two_regime", 2): (
        "2e29e34b2d891a3ac828b7f3b11ffb7413d50bae3fa04225562e2c642daa1817",
        "ebd621f2486632b55d83b348144652d6fa5cd35bf462f0903f73b6ed286f9923"),
}


def solve_digests(market, d):
    model = MARKETS[market](d)
    digests = []
    for solve in (jf.solve_power_equal, jf.solve_no_consumption):
        rep = solve(model, UTILITY, x=1.5)
        digests.append(_digest(
            rep.strategy.pi, rep.strategy.y, rep.strategy.v,
            rep.diagnostics["h_star"],
            np.array([rep.J_star, rep.diagnostics["foc_residual"]])))
    return tuple(digests)


@pytest.mark.parametrize("market", sorted(MARKETS))
@pytest.mark.parametrize("d", (1, 2))
def test_time_varying_allocation_is_bit_identical(market, d):
    assert solve_digests(market, d) == GOLDEN[(market, d)]


# ---------------------------------------------------------------------------
# The allocation is solved once per distinct node and laid back on the grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", (1, 2))
def test_two_regime_nodes_match_their_constant_market(d):
    model = two_regime_market(d)
    first, node = node_map(model)
    assert first.tolist() == [0, SWITCH]
    assert node.tolist() == [0] * SWITCH + [1] * (N - SWITCH)
    _, pi, h, _, diagnostics = _optimal_allocation(model, 0.5)
    regimes = [_optimal_allocation(regime_market(d, k), 0.5) for k in (0, 1)]
    for (_, pi_k, h_k, _, _), part in zip(
            regimes, (slice(None, SWITCH), slice(SWITCH, None))):
        assert pi[part].tobytes() == pi_k[part].tobytes()
        assert h[part].tobytes() == h_k[part].tobytes()
    assert diagnostics["iterations"] == max(
        diag["iterations"] for *_, diag in regimes)


def test_node_map_is_read_only():
    model = two_regime_market(2)
    first, node = node_map(model)
    assert node_map(model)[0] is first
    for kept in (first, node):
        with pytest.raises(ValueError):
            kept[0] = 1
    assert node_map(ramp_market(1))[0].tolist() == list(range(N))
    assert node_map(regime_market(1, 0))[0].tolist() == [0]


def _drawn_regime_market(seed):
    """A market of 2-4 constant regimes on N nodes, in d <= 3 assets with
    jumps that include negative atoms, and the constant market of each
    regime on the same grid."""
    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 4)), int(rng.integers(2, 5))
    grid = jf.TimeGrid.uniform(float(rng.uniform(0.5, 3.0)), N)
    lams, dists = rng.uniform(0.2, 1.5, d), []
    for _ in range(d):
        atoms = rng.uniform(-0.5, 0.4, int(rng.integers(1, 4)))
        atoms[0] = -abs(atoms[0])
        dists.append(jf.JumpDist.point_masses(
            list(atoms), list(rng.dirichlet(np.ones(atoms.size)))))
    jumps = jf.JumpSpec(lams, tuple(dists))
    starts = np.sort(rng.choice(np.arange(1, N), k - 1, replace=False))
    constants = []
    for _ in range(k):
        r = rng.uniform(0.005, 0.05)
        sigma = np.triu(rng.uniform(-0.1, 0.1, (d, d)), 1)
        sigma[np.diag_indices(d)] = rng.uniform(0.1, 0.5, d)
        constants.append(jf.CoefficientPath.constant(
            grid, r, list(r + rng.uniform(-0.05, 0.3, d)), sigma.tolist()))
    regime = np.searchsorted(starts, np.arange(N), side="right")
    coeffs = jf.CoefficientPath(*(
        np.stack([getattr(constants[j], name)[n]
                  for n, j in enumerate(regime)])
        for name in ("r", "mu", "sigma")))
    return (jf.MarketModel(grid, coeffs, jumps), starts, regime,
            [jf.MarketModel(grid, c, jumps) for c in constants])


@given(st.integers(0, 2**32 - 1), st.floats(0.2, 0.8))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
def test_drawn_regime_nodes_match_their_constant_market(seed, gamma):
    """Each node of a drawn regime market reads the answer of the constant
    market of its regime, in pi to 1e-15 and in h* to 1e-14 relative, and
    the batch takes as many iterations as its slowest regime.

    Not bit for bit: `market.jump_terms_path` contracts the atoms with
    `(rows, atoms) @ w`, which numpy rounds one way for a single row (the
    constant market's one distinct node) and another for several (the
    regime market's k), so a node can move by a few ulps with the number
    of nodes that share its Newton batch."""
    model, starts, regime, constants = _drawn_regime_market(seed)
    first, node = node_map(model)
    assert first.tolist() == [0] + starts.tolist()
    assert node.tolist() == regime.tolist()
    _, pi, h, _, diagnostics = _optimal_allocation(model, gamma)
    iterations = []
    for j, constant in enumerate(constants):
        _, pi_j, h_j, _, diag_j = _optimal_allocation(constant, gamma)
        part = regime == j
        np.testing.assert_allclose(pi[part], pi_j[part], rtol=0, atol=1e-15)
        np.testing.assert_allclose(h[part], h_j[part], rtol=1e-14, atol=0)
        iterations.append(diag_j["iterations"])
    assert diagnostics["iterations"] == max(iterations)
