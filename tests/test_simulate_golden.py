"""Bit-identity of seeded simulator output and of the exact cost and slack.

The digests pin every output bit of `simulate` and `simulate_node_stats`
for a few small cases that reach each branch of the draws: several assets with a negative jump atom, a time-varying
allocation and a non-uniform grid; a grid long enough for several groups
of intervals; an asset with no jumps; fewer paths than a typical draw;
an asset whose intensity is positive but draws no jump; and more paths
than one block, so that each group of intervals is two draw tasks.  A
change to the draw order, the task streams or the per-node arithmetic
changes a digest.  The streams are SFC64, one per (block, group) task,
seeded by spawn keys of the seed's SeedSequence, so the digests hold for
the numpy release and CPU the suite runs on: numpy keeps SeedSequence,
SFC64 and its distributions stable within a release, not across every
release.

The same cases, plus a tabulated jump density, also pin `cost_function`
and the transformed VaR and ES slack paths, which share their formulas
with the batched grid oracle.
"""

import hashlib

import numpy as np
import pytest

import jumpfolio as jf
from jumpfolio.market import R_path


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _two_asset_negative_jump():
    grid = jf.TimeGrid(np.array([0.0, 0.05, 0.2, 0.3, 0.55, 0.6, 0.8, 1.0]))
    coeffs = jf.CoefficientPath.constant(grid, 0.02, [0.07, 0.05],
                                         [[0.3, 0.05], [0.0, 0.25]])
    jumps = jf.JumpSpec(np.array([1.5, 0.8]),
                        (jf.JumpDist.point_masses([-0.2, 0.1], [0.3, 0.7]),
                         jf.JumpDist.point_masses([0.05], [1.0])))
    model = jf.MarketModel(grid, coeffs, jumps)
    pi = np.column_stack([np.linspace(0.1, 0.9, grid.n),
                          np.linspace(0.6, 0.2, grid.n)])
    return model, jf.Strategy.from_pi(model, pi, np.full(grid.n, 0.2))


def _long_grid():
    grid = jf.TimeGrid.uniform(1.0, 300)
    coeffs = jf.CoefficientPath.constant(grid, 0.02, [0.06], [[0.3]])
    jumps = jf.JumpSpec(np.array([2.0]),
                        (jf.JumpDist.point_masses([0.03, 0.12], [0.5, 0.5]),))
    model = jf.MarketModel(grid, coeffs, jumps)
    return model, jf.Strategy.from_pi(model, np.full((grid.n, 1), 0.5),
                                      np.full(grid.n, 0.1))


def _one_asset_without_jumps():
    grid = jf.TimeGrid.uniform(2.0, 33)
    coeffs = jf.CoefficientPath.constant(grid, 0.01, [0.05, 0.08],
                                         [[0.2, 0.0], [0.1, 0.3]])
    jumps = jf.JumpSpec(np.array([0.0, 0.7]),
                        (jf.JumpDist.degenerate(),
                         jf.JumpDist.point_masses([0.04], [1.0])))
    model = jf.MarketModel(grid, coeffs, jumps)
    return model, jf.Strategy.from_pi(model, np.full((grid.n, 2), [0.4, 0.7]))


def _rare_jumps():
    model, strategy = _two_asset_negative_jump()
    jumps = jf.JumpSpec(np.array([1e-9, 0.8]), model.jumps.dists)
    model = jf.MarketModel(model.grid, model.coeffs, jumps)
    return model, strategy


CASES = {
    "two_asset_negative_jump": (_two_asset_negative_jump, 4000, 2024),
    "long_grid": (_long_grid, 2000, 5),
    "one_asset_without_jumps": (_one_asset_without_jumps, 3000, 77),
    "seven_paths": (_two_asset_negative_jump, 7, 13),
    "no_jump_drawn": (_rare_jumps, 7, 3),
    "two_blocks": (_two_asset_negative_jump, 300_000, 8),
}

GOLDEN = {
    "no_jump_drawn": (
        "665fdb04a01f08aa6e3bc5ad67b6aea0a17c4cb47de01a77ca840638aaec1ef7",
        "bd381bae299b10459b0726cd305317f842f165c3a7502bfa93aaa9add55753a4"),
    "long_grid": (
        "a3aef76235ef8d64cbb93ced9ab06c911c12ae6738c77ec35597c8827870180c",
        "b3e3cfbe3b69c53fa62c56acbe945df585f0ff67fde9a49c3a7a540578304aff"),
    "one_asset_without_jumps": (
        "1c826811ae0296067cf3b6859345e6343b922c02bc12b23d37c91a31d40c3304",
        "cd59b4e6fb2ce1a5c50df1965b3ed95e5cd5afdaf1407b32a82ca002584f2692"),
    "seven_paths": (
        "abf8a1a1b7e4145a7ae76a6fa90d847d88554a0ba5637fd5d956fc59a43d03f3",
        "3654f3c6ac1e4a225f208ea13849ffd605a88693525a9b0e3bcad990eb0f2163"),
    "two_asset_negative_jump": (
        "f12d747021e7701269814442acb17f04a7aec461944a9514c20dd8220940fedc",
        "b7da6a36496dc9898c8abfcd30feb1b1709108537d964ff15df9e39053ed1080"),
    "two_blocks": (
        "a0537797259f77754e02fcd63346e1573495c6d922b0457f081b8d70b9eeb7fc",
        "0382f2dce538711cf25b7a55197674e00cb4bf86c084438e65ce8d47aa0b7bfb"),
}


def case_digests(name):
    make, n_paths, seed = CASES[name]
    model, strategy = make()
    ens = jf.simulate(model, strategy, 1.5, n_paths, seed)
    thresholds = 0.9 * 1.5 * np.exp(R_path(model))
    stats = jf.simulate_node_stats(model, strategy, 1.5, 0.05, n_paths, seed,
                                   thresholds=thresholds)
    return (_digest(ens.wealth),
            _digest(stats.q_beta, stats.tail_mean, stats.tail_std,
                    stats.mean, stats.below, stats.thresholds))


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_is_bit_identical(name):
    assert case_digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stored_ensemble_counts_the_streamed_below(name):
    # the streamed count that `jumpfolio verify` reads equals the count
    # over the stored ensemble
    make, n_paths, seed = CASES[name]
    model, strategy = make()
    thresholds = 0.9 * 1.5 * np.exp(R_path(model))
    ens = jf.simulate(model, strategy, 1.5, n_paths, seed)
    stats = jf.simulate_node_stats(model, strategy, 1.5, 0.05, n_paths, seed,
                                   thresholds=thresholds)
    below = np.count_nonzero(ens.wealth < thresholds, axis=0)
    assert np.array_equal(below, stats.below)



# ---------------------------------------------------------------------------
# Exact cost and transformed-constraint slack
# ---------------------------------------------------------------------------

def _density_law():
    grid = jf.TimeGrid.uniform(1.0, 129)
    coeffs = jf.CoefficientPath.constant(grid, 0.02, [0.08], [[0.25]])
    law = jf.JumpDist.from_density(lambda z: np.full_like(z, 1.0 / 0.35),
                                   -0.1, 0.25)
    model = jf.MarketModel(grid, coeffs, jf.JumpSpec(np.array([0.2]), (law,)))
    pi = np.linspace(0.2, 0.9, grid.n)[:, None]
    return model, jf.Strategy.from_pi(model, pi, np.linspace(0.1, 0.4, grid.n))


COST_CASES = {name: CASES[name][0] for name in
              ("two_asset_negative_jump", "long_grid",
               "one_asset_without_jumps", "no_jump_drawn")}
COST_CASES["density_law"] = _density_law
UTILITIES = (jf.UtilitySpec.equal(0.5), jf.UtilitySpec(0.4, 0.7),
             jf.UtilitySpec(0.9, 0.2), jf.UtilitySpec(1.0, 1.0))
RISKS = (jf.RiskSpec("var", 0.45, 0.3, "thinning"),
         jf.RiskSpec("es", 0.45, 0.3, "thinning"))

# (cost_function for each utility, x and consumption scale; the VaR and ES
#  slack paths)
GOLDEN_COST = {
    "density_law": (
        "6bd42ce742022c74cd38ab761df4e0e6bec91d5c0966a0bfb929e5d833878afa",
        "b8a14a2bdf71bae374a9cd419b4a9f333726e7da4d1453e3a02497b7b8953261"),
    "long_grid": (
        "56f9ee177e62b0dbd50b38bfd7dc8dad8a43777508e7d559be930b42271f45a3",
        "bcc3290dbedcb6fa6f84674623cc6b20ba538c74573456145456713ade273e35"),
    "no_jump_drawn": (
        "10e6ea0e78ca858ed08ce1d79d95a0b7e9ee331f0b3e24ee92c4eb42c8864685",
        "61555d3603df51bd9e254f5c8600c407d74d9458e61948b6cd993235da87ff2c"),
    "one_asset_without_jumps": (
        "792f4eabc0f7f043f43137df1ed6333b7e906c8be08966f2e6ea1e4ae663261f",
        "a41ee4ce027b1648ed194d143fa54cf4604ca79db889260a996171291b7405a9"),
    "two_asset_negative_jump": (
        "be703e1fc4d7092ebaa1ca1944b0eee2cefd4fafb04242344e0f2090799b115d",
        "373fe55f638d30631efaf7f92e680d386adf1f8bfda4974329c002356106607c"),
}


def cost_digests(name):
    model, strategy = COST_CASES[name]()
    costs = np.array([
        jf.cost_function(model, u, jf.Strategy(strategy.grid, strategy.y,
                                               strategy.pi, c * strategy.v), x)
        for u in UTILITIES for x in (0.5, 1.5, 4.0) for c in (0.5, 1.0, 3.0)])
    slacks = (jf.slack_path(strategy, model, RISKS[0]),
              jf.slack_path(strategy, model, RISKS[1]),
              jf.slack_path(strategy, model, RISKS[0]),
              jf.slack_path(strategy, model, RISKS[1]))
    return _digest(costs), _digest(*slacks)


@pytest.mark.parametrize("name", sorted(COST_CASES))
def test_cost_and_slack_are_bit_identical(name):
    assert cost_digests(name) == GOLDEN_COST[name]
