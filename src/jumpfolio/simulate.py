"""Exact Monte Carlo simulation of the wealth process and brute-force oracles.

Wealth is simulated through its exponential solution: a deterministic factor
exp(R_t - V_t + (y, theta_hat)_t), the lognormal martingale factor driven by
one Gaussian increment per interval with the same trapezoid variance the
analytic formulas use, and a compound Poisson jump factor with exact jump
times and sizes drawn from the jump law (pi enters each jump at the grid
node left of its time).  For allocations constant in time the simulated law
at the grid nodes therefore matches the closed forms exactly, with no
time-discretization bias between the two sides of a comparison.  For a
time-varying pi the jump factor keeps the left-node convention while the
closed forms integrate lambda pi E[xi] and K_j(pi) by the trapezoid rule,
so the two sides differ by a time-discretization error.

Draw order: one counter-based bit generator (Philox keyed by the seed)
makes, for each asset with a positive intensity in asset order, the
per-path Poisson jump totals, then the uniform jump times, then the jump
sizes; then n_paths standard normals per interval, interval by interval.
One worker thread makes every draw in that order, a few intervals ahead,
while the calling thread groups the jumps and applies each node, so the
draws and every output are bit-identical to a serial loop over the same
stream and reproducible bit for bit from the seed.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .constrained import _SLACK_TOL, _slack, slack_path
from .errors import EmptyFeasibleSet, InvalidStrategy, OutOfRange
from .market import (
    K_transform_path,
    MarketModel,
    R_path,
    UtilitySpec,
    cumtrapz,
    theta_hat_path,
    theta_path,
)
from .negjumps import effective_level
from .riskmetrics import (
    RiskKind,
    RiskSpec,
    empirical_lower_quantile,
    empirical_shortfall,
    tail_count,
)
from .unconstrained import Strategy, _expected_cost, check_initial_wealth

# Standard normals per draw on the worker thread: small ensembles take
# several intervals per draw, so thread hand-offs stay rare.
_NORMALS_PER_DRAW = 1 << 18
# Normal blocks in memory at once: the one being applied plus up to three
# drawn ahead, which lets the worker keep drawing while the jumps of a
# jump-heavy market are grouped.
_BLOCKS = 4
# Largest temporary of grid_oracle in elements: pi rows go in blocks small
# enough that a (rows, scales, nodes) cost array or a (rows, nodes, atoms)
# jump array stays within it, one row at least.
_ORACLE_BLOCK = 1 << 14


@dataclass
class PathEnsemble:
    """Simulated wealth paths on the grid plus per-asset jump totals."""

    grid: object
    x: float
    n_paths: int
    seed: int
    wealth: np.ndarray        # (n_paths, N), all entries positive
    jump_counts: np.ndarray   # (n_paths, d)


def _validated(model: MarketModel, strategy: Strategy, x: float,
               n_paths: int, seed: int) -> None:
    check_initial_wealth(x)
    if n_paths < 1:
        raise OutOfRange(f"n_paths must be at least 1, got {n_paths}")
    if seed < 0:
        raise OutOfRange(f"seed must be nonnegative, got {seed}")
    try:
        strategy.validate(model)
    except InvalidStrategy:
        raise
    except Exception as exc:  # shape errors from mismatched arrays
        raise InvalidStrategy(str(exc)) from exc


def _draw_marks(rng, horizon: float, lam: float, dist, counts: np.ndarray):
    """Draw one asset's jumps: a Poisson total per path over the horizon
    into `counts`, then uniform times and sizes from the law for every
    jump.  Returns (times, sizes)."""
    counts[:] = rng.poisson(lam * horizon, counts.size)
    total = int(counts.sum())
    times = rng.uniform(0.0, horizon, total)
    sizes = rng.choice(dist.z, size=total, p=dist.w)
    return times, sizes


def _file_jumps(grid, pi: np.ndarray, counts: np.ndarray, times, sizes):
    """Group one asset's jumps by the interval they fall in.

    Returns (bounds, path_idx, log_factor): the jumps in interval i, which
    node i + 1 applies, are the slice [bounds[i], bounds[i + 1]), in draw
    order (a stable radix sort on narrow keys), so np.add.at sums a path's
    jumps in the order they were drawn.  pi enters each jump at the grid
    node left of its time.
    """
    n_int = grid.n - 1
    interval = np.searchsorted(grid.nodes, times, side="right")
    interval -= 1
    np.clip(interval, 0, n_int - 1, out=interval)
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(interval, minlength=n_int))))
    factor = pi[interval]
    factor *= sizes
    np.log1p(factor, out=factor)
    order = np.argsort(interval.astype(np.min_scalar_type(n_int - 1)),
                       kind="stable")
    path_idx = np.repeat(
        np.arange(counts.size, dtype=np.min_scalar_type(counts.size - 1)),
        counts)
    return bounds, path_idx[order], factor[order]


def _ahead(pool: ThreadPoolExecutor, draws, depth: int):
    """Yield the results of the zero-argument callables `draws` in order.

    Up to depth - 1 later calls run on `pool` while the caller works on a
    result, so a result must not be used after the next one is requested.
    No result is kept here once yielded, so the caller decides when each
    one is freed.
    """
    pending = deque()
    for draw in draws:
        pending.append(pool.submit(draw))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _march(model: MarketModel, strategy: Strategy, x: float, n_paths: int,
           seed: int, node_callback) -> np.ndarray:
    """Drive n_paths through the grid, calling node_callback(k, log_wealth).

    log_wealth is the (n_paths,) vector of log wealth at node k.  Returns
    the per-asset jump-count totals.  Draw order: per asset with a positive
    intensity one Poisson block, one time block and one size block, then
    one standard normal block per interval (small ensembles take several
    intervals per block, which is the same stream).  One worker thread
    makes every draw, in that order, while this thread groups the jumps
    and applies the nodes.
    """
    grid = model.grid
    n_nodes = grid.n
    det_log = (math.log(x) + R_path(model) - strategy.V
               + cumtrapz(grid, np.sum(strategy.y * theta_hat_path(model),
                                       axis=1)))
    ysq = np.sum(strategy.y**2, axis=1)
    s2 = 0.5 * (ysq[1:] + ysq[:-1]) * grid.dt          # per-interval variance

    rng = np.random.Generator(np.random.Philox(seed))
    active = [j for j in range(model.d) if model.jumps.lambdas[j] > 0.0]
    counts = np.zeros((n_paths, model.d), dtype=np.int64)
    rows = min(n_nodes - 1, max(1, _NORMALS_PER_DRAW // n_paths))
    buffers = [np.empty((rows, n_paths)) for _ in range(_BLOCKS)]

    def draws():
        for j in active:
            yield partial(_draw_marks, rng, grid.horizon,
                          float(model.jumps.lambdas[j]),
                          model.jumps.dists[j], counts[:, j])
        for i, start in enumerate(range(1, n_nodes, rows)):
            block = buffers[i % _BLOCKS][:min(rows, n_nodes - start)]
            yield partial(rng.standard_normal, out=block)

    pool = ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="jumpfolio-draws")
    try:
        results = _ahead(pool, draws(), _BLOCKS)
        jumps = [_file_jumps(grid, strategy.pi[:, j], counts[:, j],
                             *next(results)) for j in active]
        log_w = np.full(n_paths, det_log[0])
        node_callback(0, log_w)
        normals = (z for block in results for z in block)
        for k, z in enumerate(normals, start=1):
            log_w += det_log[k] - det_log[k - 1]
            if s2[k - 1] > 0.0:
                z *= math.sqrt(s2[k - 1])
                log_w += z
                log_w -= 0.5 * s2[k - 1]
            for bounds, path_idx, factor in jumps:
                lo, hi = bounds[k - 1], bounds[k]
                if hi > lo:
                    np.add.at(log_w, path_idx[lo:hi], factor[lo:hi])
            node_callback(k, log_w)
    finally:
        pool.shutdown(cancel_futures=True)
    return counts


def simulate(model: MarketModel, strategy: Strategy, x: float,
             n_paths: int, seed: int) -> PathEnsemble:
    """Simulate the full wealth matrix; deterministic in (model, strategy,
    n_paths, seed)."""
    _validated(model, strategy, x, n_paths, seed)
    if n_paths * model.grid.n > 300_000_000:
        raise OutOfRange("ensemble too large to materialize; "
                         "use simulate_node_stats instead")
    wealth = np.empty((n_paths, model.grid.n))

    def collect(k, log_w):
        np.exp(log_w, out=wealth[:, k])

    counts = _march(model, strategy, x, n_paths, seed, collect)
    return PathEnsemble(grid=model.grid, x=x, n_paths=n_paths, seed=seed,
                        wealth=wealth, jump_counts=counts)


@dataclass
class NodeStats:
    """Per-node tail statistics collected without storing paths."""

    beta: float
    n_paths: int
    q_beta: np.ndarray        # empirical lower beta-quantile of wealth
    tail_mean: np.ndarray     # mean of the ceil(beta n) smallest values
    tail_std: np.ndarray      # spread of that tail slice
    mean: np.ndarray
    below: np.ndarray | None  # counts of wealth strictly under thresholds
    thresholds: np.ndarray | None = None

    def shortfall_standard_error(self) -> np.ndarray:
        """Influence-function standard error of the tail mean per node."""
        k = tail_count(self.beta, self.n_paths)
        frac = k / self.n_paths
        m = self.tail_mean - self.q_beta
        second = frac * (self.tail_std**2 + m**2)
        var_infl = second - (frac * m) ** 2
        return np.sqrt(np.maximum(var_infl, 0.0) / self.n_paths) / self.beta


def simulate_node_stats(model: MarketModel, strategy: Strategy, x: float,
                        beta: float, n_paths: int, seed: int,
                        thresholds: np.ndarray | None = None) -> NodeStats:
    """Stream the ensemble node by node, keeping only tail statistics.

    Memory stays O(n_paths) regardless of the grid size, and the draws are
    bit-identical to simulate() with the same seed.  `thresholds`, one
    wealth level per node, adds the count of paths strictly below it.
    """
    _validated(model, strategy, x, n_paths, seed)
    n_nodes = model.grid.n
    k_tail = tail_count(beta, n_paths)
    if thresholds is not None:
        thresholds = np.asarray(thresholds, dtype=float)
        if thresholds.shape != (n_nodes,):
            raise OutOfRange(f"thresholds must have shape ({n_nodes},), "
                             f"got {thresholds.shape}")
    q = np.empty(n_nodes)
    tail = np.empty(n_nodes)
    spread = np.empty(n_nodes)
    mean = np.empty(n_nodes)
    below = np.empty(n_nodes, dtype=np.int64) if thresholds is not None else None
    w = np.empty(n_paths)

    def collect(k, log_w):
        np.exp(log_w, out=w)
        mean[k] = w.mean()
        if below is not None:
            below[k] = int(np.count_nonzero(w < thresholds[k]))
        w.partition(k_tail - 1)
        q[k] = w[k_tail - 1]
        tail[k] = w[:k_tail].mean()
        spread[k] = w[:k_tail].std()

    _march(model, strategy, x, n_paths, seed, collect)
    return NodeStats(beta=beta, n_paths=n_paths, q_beta=q, tail_mean=tail,
                     tail_std=spread, mean=mean, below=below,
                     thresholds=thresholds)


# ---------------------------------------------------------------------------
# Empirical risk measures and cost
# ---------------------------------------------------------------------------

def empirical_var(ensemble: PathEnsemble, model: MarketModel, x: float,
                  beta: float, t: float) -> float:
    """Empirical downside risk x e^{R_t} - q_beta(X_t) at a grid node."""
    k = model.grid.index_of(t)
    ref = x * math.exp(R_path(model)[k])
    return ref - empirical_lower_quantile(ensemble.wealth[:, k], beta)


def empirical_es(ensemble: PathEnsemble, model: MarketModel, x: float,
                 beta: float, t: float) -> float:
    """Empirical shortfall risk x e^{R_t} - ES_beta(X_t) at a grid node."""
    k = model.grid.index_of(t)
    ref = x * math.exp(R_path(model)[k])
    return ref - empirical_shortfall(ensemble.wealth[:, k], beta)


def estimate_cost(ensemble: PathEnsemble, strategy: Strategy,
                  utility: UtilitySpec) -> tuple:
    """Monte Carlo cost estimate (mean, standard error)."""
    g1, g2 = utility.gamma1, utility.gamma2
    consumption = (strategy.v[None, :] * ensemble.wealth) ** g1
    per_path = (np.trapezoid(consumption, ensemble.grid.nodes, axis=1)
                + ensemble.wealth[:, -1] ** g2)
    n = ensemble.n_paths
    return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(n))


# ---------------------------------------------------------------------------
# Constraint profiles
# ---------------------------------------------------------------------------

def _profile_from_slack(slack: np.ndarray, kappa: float) -> np.ndarray:
    # risk ratio implied by the transformed slack:
    # slack = 0 means the ratio touches 1 exactly
    return (1.0 - (1.0 - kappa) * np.exp(slack)) / kappa


def constraint_profile(source, model: MarketModel, risk: RiskSpec,
                       x: float) -> np.ndarray:
    """Ratio Risk_t / (kappa x e^{R_t}) along the grid; feasible iff <= 1.

    Pass a PathEnsemble for the empirical profile at the original level, a
    NodeStats for its streamed version, or a Strategy for the closed-form
    jump-free profile (the transform the solvers bind against).
    """
    R = R_path(model)
    ref = x * np.exp(R)
    if isinstance(source, Strategy):
        return _profile_from_slack(slack_path(source, model, risk), risk.kappa)
    if isinstance(source, NodeStats):
        if source.beta != risk.beta:
            raise ValueError("NodeStats level differs from the risk spec")
        tail_value = source.q_beta if risk.kind == RiskKind.VAR else source.tail_mean
        return (ref - tail_value) / (risk.kappa * ref)
    ensemble = source
    n_nodes = model.grid.n
    out = np.empty(n_nodes)
    for k in range(n_nodes):
        column = ensemble.wealth[:, k]
        if risk.kind == RiskKind.VAR:
            tail_value = empirical_lower_quantile(column, risk.beta)
        else:
            tail_value = empirical_shortfall(column, risk.beta)
        out[k] = (ref[k] - tail_value) / (risk.kappa * ref[k])
    return out


# ---------------------------------------------------------------------------
# Brute-force optimization oracle
# ---------------------------------------------------------------------------

@dataclass
class GridOracleResult:
    """Best grid candidate of `grid_oracle` and the whole cost table.

    table[i, j] is the exact cost of pi = pi_grid[i] with consumption
    v_scale_grid[j] * v_shape; NaN marks a candidate that fails the risk
    constraint.  strategy is the winning candidate.
    """

    pi: float
    v_scale: float
    J: float
    strategy: Strategy
    n_feasible: int
    table: np.ndarray = field(repr=False, default=None)


def _checked_array(name: str, values, shape: tuple | None = None,
                   unit: bool = False) -> np.ndarray:
    """values as a float array of `shape` (else 1-d and non-empty), with
    finite entries that are nonnegative and, if `unit`, at most 1."""
    values = np.asarray(values, dtype=float)
    if shape is None:
        if values.ndim != 1 or values.size == 0:
            raise OutOfRange(f"{name} must be a non-empty 1-d array, "
                             f"got shape {values.shape}")
    elif values.shape != shape:
        raise OutOfRange(f"{name} must have shape {shape}, "
                         f"got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise OutOfRange(f"{name} must be finite")
    if np.any(values < 0.0) or (unit and np.any(values > 1.0)):
        raise OutOfRange(f"{name} entries must lie in "
                         f"{'[0, 1]' if unit else '[0, inf)'}")
    return values


def grid_oracle(model: MarketModel, utility: UtilitySpec,
                risk: RiskSpec | None, x: float, pi_grid, v_scale_grid,
                v_shape: np.ndarray | None = None) -> GridOracleResult:
    """Exhaustive search over constant allocations and scaled consumption.

    Candidates are pi constant on the grid and v = scale * v_shape (default
    shape 1 / (1 + T - t)).  When a risk spec is given, candidates failing
    the transformed constraint anywhere are discarded; the best survivor by
    exact cost is returned, the first one in pi-major order on a tie.

    pi_grid must be non-empty with entries in [0, 1], v_scale_grid
    non-empty and nonnegative, v_shape an (N,) nonnegative path, all
    finite, and the market must have one asset; bad input raises OutOfRange
    before anything is evaluated.

    The terms of a candidate split into a part that depends on pi only
    (y, its inner products and norm, the jump integrals) and one that
    depends on the scale only (V), so the grid is costed as arrays with
    the kernels of `cost_function` and `slack_path`, bit for bit as calls
    to them would cost each candidate.  pi rows go in blocks that keep
    every temporary within _ORACLE_BLOCK elements.
    """
    if model.d != 1:
        raise OutOfRange("the grid oracle handles one-asset markets, "
                         f"got d = {model.d}")
    check_initial_wealth(x)
    grid = model.grid
    n = grid.n
    if v_shape is None:
        v_shape = 1.0 / (1.0 + grid.horizon - grid.nodes)
    pi_grid = _checked_array("pi_grid", pi_grid, unit=True)
    v_scale_grid = _checked_array("v_scale_grid", v_scale_grid)
    v_shape = _checked_array("v_shape", v_shape, shape=(n,))
    lev = None if risk is None else effective_level(model, risk)

    sigma = model.coeffs.sigma[:, 0, 0]
    theta, theta_hat = theta_path(model)[:, 0], theta_hat_path(model)[:, 0]
    R = R_path(model)
    v = v_scale_grid[:, None] * v_shape                  # (S, N)
    V = cumtrapz(grid, v, axis=-1)
    atoms = model.jumps.dists[0].z.size if model.jumps.lambdas[0] > 0 else 1
    rows = max(1, _ORACLE_BLOCK // (n * max(v_scale_grid.size, atoms)))
    table = np.empty((pi_grid.size, v_scale_grid.size))
    n_feasible = 0
    for start in range(0, pi_grid.size, rows):
        p = pi_grid[start:start + rows]
        pi_paths = np.broadcast_to(p[:, None, None], (p.size, n, 1))
        y = p[:, None] * sigma                           # (rows, N)
        ysq = cumtrapz(grid, y**2, axis=-1)[:, None]     # (rows, 1, N)
        feasible = np.ones((p.size, v_scale_grid.size), dtype=bool)
        if risk is not None:
            ip_hat = cumtrapz(grid, y * theta_hat, axis=-1)[:, None]
            slack = _slack(risk.kind, lev, risk.kappa, np.sqrt(ysq), V, ip_hat)
            feasible = ~(slack.min(axis=-1) < -_SLACK_TOL)
        ip = cumtrapz(grid, y * theta, axis=-1)[:, None]
        jump_integrals = {
            g: cumtrapz(grid, K_transform_path(model.jumps, pi_paths, g),
                        axis=-1)[:, None]
            for g in {utility.gamma1, utility.gamma2}}
        J = _expected_cost(grid, utility, x, R, V, v, ip, ysq,
                           jump_integrals.__getitem__)
        table[start:start + rows] = np.where(feasible, J, np.nan)
        n_feasible += int(np.count_nonzero(feasible))
    if n_feasible == 0:
        raise EmptyFeasibleSet("no grid candidate satisfies the constraint")
    i, j = np.unravel_index(
        np.argmax(np.where(np.isnan(table), -np.inf, table)), table.shape)
    strategy = Strategy.from_pi(model, np.full((n, 1), pi_grid[i]),
                                v_scale_grid[j] * v_shape)
    return GridOracleResult(pi=float(pi_grid[i]), v_scale=float(v_scale_grid[j]),
                            J=float(table[i, j]), strategy=strategy,
                            n_feasible=n_feasible, table=table)
