"""Bit-identity of seeded simulator output.

The digests pin every output bit of `simulate` and `simulate_node_stats`
for a few small cases that reach each branch of the draw and jump
bookkeeping: several assets with a negative jump atom, a time-varying
allocation and a non-uniform grid; a grid too long for 8-bit node keys;
an asset with no jumps; fewer paths than a typical draw block; and an
asset whose intensity is positive but draws no jump.  A change to the
draw order, the jump grouping or the per-node arithmetic changes a
digest.  The digests hold for the numpy version and CPU the
suite runs on (Philox streams are stable within a numpy release).
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
}

GOLDEN = {
    "no_jump_drawn": (
        "9b8c524f00d8a33f1a8a317397b8bbd15ac1131844b853780a369c6d6c99fca3",
        "fc32e5e48ea0ad719fce1c829a5711b0852671ec7850bf06238a4521a3bd4bb4"),
    "long_grid": (
        "cc376c45b846b72556c38566b15c3aee09c373f6c0a681d75ee02315e5399f84",
        "f165e9fd44553241b86b1d0439446b6878be29689811cebdf292a19c83b91a2c"),
    "one_asset_without_jumps": (
        "380b2eb78fa076c733af3c4e72dddda6f914f760d199d75a1deb506922c95dbe",
        "28fdb34c452f263904494e01d8b639e8b0fcc4eaeba27a68b706b93dc9e6c538"),
    "seven_paths": (
        "e480277e848bb4c1e093b80d7dba22b142c5779afb431f765c0a0b26447b1ee2",
        "f818c2443cb30807da3d3f5dd513259deef73b43f4ce62458f4d7403e722260a"),
    "two_asset_negative_jump": (
        "d8378649cc321d11a6df35a1feb59b68540b546913386ecdeb8c204de2773a4e",
        "8bbd8a8400b7d5853789bc1cb876df686277da7a7a5b4856a0ae6fe42dd6a70e"),
}


def case_digests(name):
    make, n_paths, seed = CASES[name]
    model, strategy = make()
    ens = jf.simulate(model, strategy, 1.5, n_paths, seed)
    thresholds = 0.9 * 1.5 * np.exp(R_path(model))
    stats = jf.simulate_node_stats(model, strategy, 1.5, 0.05, n_paths, seed,
                                   thresholds=thresholds)
    return (_digest(ens.wealth, ens.jump_counts),
            _digest(stats.q_beta, stats.tail_mean, stats.tail_std,
                    stats.mean, stats.below, stats.thresholds))


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_is_bit_identical(name):
    assert case_digests(name) == GOLDEN[name]

