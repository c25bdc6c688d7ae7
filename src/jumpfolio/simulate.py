"""Exact Monte Carlo simulation of the wealth process and brute-force oracles.

Wealth is simulated through its exponential solution: a deterministic factor
exp(R_t - V_t + (y, theta_hat)_t), the lognormal martingale factor driven by
one Gaussian increment per interval with the same trapezoid variance the
analytic formulas use, and a compound Poisson jump factor with exact jump
times and sizes drawn from the jump law.  pi enters each jump at the jump's
time, interpolated linearly between the grid nodes (the `CoefficientPath`
convention).  For allocations constant in time the simulated law at the
grid nodes therefore matches the closed forms exactly, and for a pi that is
linear between the nodes the node means still match exactly, since the
closed forms integrate lambda pi E[xi] by the trapezoid rule.

Draw order: the ensemble is split into blocks of _BLOCK_PATHS paths, and
the intervals go in groups, one per draw (small ensembles take several
intervals per group).  Each task, block b's share of group g, draws from
its own SFC64 stream, seeded by SeedSequence(seed, spawn_key=(b, g)), so
the stream depends on neither the number of blocks nor the number of
groups.  The streams are not counter-based: SFC64 was chosen over Philox
because it draws a normal about a third cheaper, and the spawn keys keep
the tasks' streams independent.  A task draws its standard normals,
interval by interval, and then, for each asset with a positive intensity
in asset order, one Poisson jump total per interval for the whole block,
then for every jump a uniform path index within the block, a uniform
offset inside its interval and a size from the law (none for a one-atom
law).  By the splitting theorem each path then has independent Poisson
jump counts with uniform jump times, as a per-path draw would.  One pool
of _WORKERS draw threads runs the tasks a few groups ahead, so even a
one-block ensemble draws on every thread, while the calling thread turns
the draws into log-wealth increments and applies each node.  Every task
owns its stream, so every output depends only on the seed, _BLOCK_PATHS
and _NORMALS_PER_DRAW (which sets the intervals per group, and so which
task draws what), not on the worker count or the scheduling: it is
bit-identical to a serial loop over the tasks and reproducible bit for bit
from those three for a given numpy release.

Storage is node-major: `PathEnsemble.wealth` is the transpose of an
(N, n_paths) array, so writing or reading one node is contiguous.  Readers
go node by node in time order: the Monte Carlo cost is accumulated one
node at a time, over the stored rows by `estimate_cost` or inside the
march by `simulate_node_stats`, with the same bits either way.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .constrained import _SLACK_TOL, slack_path
from .errors import EmptyFeasibleSet, InvalidStrategy, OutOfRange
from .market import (
    MarketModel,
    R_path,
    UtilitySpec,
    inner_product_path,
    theta_hat_path,
)
from .riskmetrics import RiskKind, RiskSpec, tail_count
from .unconstrained import Strategy, check_initial_wealth, cost_function

# Paths per block: each (block, group) task draws from its own SFC64 stream,
# spawned from the seed, so the output depends on the seed, this size and
# _NORMALS_PER_DRAW only.
# Every numpy call of a task's draws hands the interpreter lock between the
# draw threads, so blocks are large: a run of up to 2^18 paths is one block,
# whose groups the draw threads take in turn, and 10^6 paths are four.
_BLOCK_PATHS = 1 << 18
# Draw threads in the one pool that runs every task.
_WORKERS = 2
# Standard normals per draw: small ensembles take several intervals per
# group, so thread hand-offs stay rare.  Each group is a stream of its own
# that draws its normals before its jumps, so changing this changes seeded
# output.
_NORMALS_PER_DRAW = 1 << 18
# Normal buffers in memory at once: the group being applied plus up to
# three drawn ahead.
_BUFFERS = 4
# Largest temporary of grid_oracle in elements: pi rows go in blocks small
# enough that a (rows, scales, nodes) cost array or a (rows, nodes, atoms)
# jump array stays within it, one row at least.
_ORACLE_BLOCK = 1 << 16


@dataclass
class PathEnsemble:
    """Simulated wealth paths on the grid.

    `simulate` stores wealth node-major (see the module docstring): a
    node's column is contiguous, a path's row is not."""

    grid: object
    x: float
    n_paths: int
    seed: int
    wealth: np.ndarray   # (n_paths, N), all entries positive


def _validated(model: MarketModel, strategy: Strategy, x: float,
               n_paths: int, seed: int) -> None:
    check_initial_wealth(x)
    for name, value in (("n_paths", n_paths), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise OutOfRange(f"{name} must be an integer, got {value!r}")
    if n_paths < 1:
        raise OutOfRange(f"n_paths must be at least 1, got {n_paths}")
    if seed < 0:
        raise OutOfRange(f"seed must be nonnegative, got {seed}")
    strategy.validate(model)


def _cumulative(w: np.ndarray) -> np.ndarray:
    """Cumulative weights ending at exactly 1, so a uniform in [0, 1)
    always finds its atom."""
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


def _draw_block(rng, normals, jumps) -> list:
    """Draw one block's group of intervals.

    Fills `normals`, the block's (rows, paths) part of a normal buffer,
    with standard normals, one row per interval.  Each entry (lam_dt, pi,
    z, cdf) of `jumps` gives an asset's lambda dt per interval, its pi at
    the rows + 1 nodes around them, and the atoms and cumulative weights
    of its law; a one-atom law draws no sizes.  Returns, per asset,
    (bounds, path, factor): the jumps of row r are the slice [bounds[r],
    bounds[r + 1]), each with its path in the block and its
    log(1 + pi(t) xi).
    """
    rng.standard_normal(out=normals)
    n = normals.shape[1]
    marks = []
    for lam_dt, pi, z, cdf in jumps:
        m = rng.poisson(lam_dt * n)
        total = int(m.sum())
        path = rng.integers(0, n, total)
        offset = rng.random(total)
        size = (z[0] if z.size == 1 else
                z[np.searchsorted(cdf, rng.random(total), side="right")])
        factor = np.repeat(np.diff(pi), m)
        factor *= offset
        factor += np.repeat(pi[:-1], m)
        factor *= size
        np.log1p(factor, out=factor)
        marks.append((np.concatenate(([0], np.cumsum(m))), path, factor))
    return marks


def _ahead(pool, groups, depth: int):
    """Submit the task lists of `groups` to `pool` in order, and yield each
    list's results once they are all in.

    Up to depth - 1 later lists run while the caller works on results, so
    the caller must be done with them when it asks for the next.  A task's
    exception reaches the caller.
    """
    pending = deque()
    for tasks in groups:
        pending.append([pool.submit(task) for task in tasks])
        if len(pending) == depth:
            yield [future.result() for future in pending.popleft()]
    while pending:
        yield [future.result() for future in pending.popleft()]


def _march(model: MarketModel, strategy: Strategy, x: float, n_paths: int,
           seed: int, node_callback) -> None:
    """Drive n_paths through the grid, calling node_callback(k, log_wealth).

    log_wealth is the (n_paths,) vector of log wealth at node k.  The draw
    threads fill each group of intervals, one task per block, each from
    its own stream (see the module docstring), into one of _BUFFERS normal
    buffers, where each block's part is contiguous, and return the jumps.
    This thread turns each block's row into its log-wealth increment z sd
    + shift plus the jumps, adds it and applies the node.
    """
    grid = model.grid
    n_nodes = grid.n
    det_log = (math.log(x) + R_path(model) - strategy.V
               + inner_product_path(grid, strategy.y, theta_hat_path(model)))
    ysq = np.sum(strategy.y**2, axis=1)
    s2 = 0.5 * (ysq[1:] + ysq[:-1]) * grid.dt          # per-interval variance
    sd = np.sqrt(s2)
    shift = np.diff(det_log) - 0.5 * s2

    jumps = [(lam * grid.dt, strategy.pi[:, j], z, _cumulative(w))
             for j, lam, z, w in model.jumps.active]
    rows = min(n_nodes - 1, max(1, _NORMALS_PER_DRAW // n_paths))
    buffers = [np.empty(rows * n_paths) for _ in range(_BUFFERS)]
    blocks = [(b, lo, min(lo + _BLOCK_PATHS, n_paths))
              for b, lo in enumerate(range(0, n_paths, _BLOCK_PATHS))]

    def draw(g, buffer, start, stop, b, lo, hi):
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(b, g))))
        group = [(lam_dt[start - 1:stop - 1], pi[start - 1:stop], z, cdf)
                 for lam_dt, pi, z, cdf in jumps]
        normals = buffer[rows * lo:rows * lo + (stop - start) * (hi - lo)]
        normals = normals.reshape(stop - start, hi - lo)
        return slice(lo, hi), normals, _draw_block(rng, normals, group)

    def groups():
        for g, start in enumerate(range(1, n_nodes, rows)):
            yield [partial(draw, g, buffers[g % _BUFFERS], start,
                           min(start + rows, n_nodes), *block)
                   for block in blocks]

    pool = ThreadPoolExecutor(max_workers=_WORKERS,
                              thread_name_prefix="jumpfolio-draws")
    try:
        log_w = np.full(n_paths, det_log[0])
        node_callback(0, log_w)
        k = 1
        for parts in _ahead(pool, groups(), _BUFFERS):
            for r in range(len(parts[0][1])):
                for paths, normals, marks in parts:
                    inc = normals[r]
                    inc *= sd[k - 1]
                    inc += shift[k - 1]
                    for bounds, path, factor in marks:
                        lo, hi = bounds[r], bounds[r + 1]
                        np.add.at(inc, path[lo:hi], factor[lo:hi])
                    log_w[paths] += inc
                node_callback(k, log_w)
                k += 1
    finally:
        pool.shutdown(cancel_futures=True)


def simulate(model: MarketModel, strategy: Strategy, x: float,
             n_paths: int, seed: int) -> PathEnsemble:
    """Simulate the full wealth matrix; deterministic in (model, strategy,
    n_paths, seed)."""
    _validated(model, strategy, x, n_paths, seed)
    if n_paths * model.grid.n > 300_000_000:
        raise OutOfRange("ensemble too large to materialize; "
                         "use simulate_node_stats instead")
    wealth = np.empty((model.grid.n, n_paths)).T

    def collect(k, log_w):
        np.exp(log_w, out=wealth[:, k])

    _march(model, strategy, x, n_paths, seed, collect)
    return PathEnsemble(grid=model.grid, x=x, n_paths=n_paths, seed=seed,
                        wealth=wealth)


class _PathCost:
    """Each path's Monte Carlo cost, fed the wealth node by node in time
    order: the trapezoid integral of (v W)^gamma1 over the grid plus
    W_T^gamma2.

    Node k adds dt_k (c_k + c_{k-1}) / 2, with c_k = (v_k W_k)^gamma1, to a
    running sum: the operations of np.trapezoid over the node axis of the
    node-major (N, n_paths) matrix, in its order, so the cost is
    bit-identical to it.  (The sum starts from +0, which can change only
    the sign of a zero integral, and adding W_T^gamma2 >= 0 erases that.)
    A v that is zero everywhere skips the integral, whose terms are then
    +-0.  Needs at least 2 paths for the standard error, else raises
    OutOfRange.
    """

    def __init__(self, grid, v: np.ndarray, utility: UtilitySpec,
                 n_paths: int):
        if n_paths < 2:
            raise OutOfRange(f"a cost estimate needs at least 2 paths, "
                             f"got {n_paths}")
        self.dt, self.v, self.utility = grid.dt, v, utility
        self.last, self.consumes = grid.n - 1, bool(np.any(v))
        self.c, self.prev = np.empty(n_paths), np.empty(n_paths)
        self.total = np.zeros(n_paths)

    def add(self, k: int, w: np.ndarray) -> None:
        """Take node k's wealth; k runs 0, 1, ..., N - 1."""
        if self.consumes:
            c = np.multiply(self.v[k], w, out=self.c)
            c **= self.utility.gamma1
            if k:
                # the term takes the buffer of c_{k-1}, which is then free
                term = np.add(c, self.prev, out=self.prev)
                term *= self.dt[k - 1]
                term /= 2.0
                self.total += term
            self.c, self.prev = self.prev, c
        if k == self.last:
            self.total += w ** self.utility.gamma2

    def estimate(self) -> tuple:
        """(mean, standard error) over the paths, after the last node."""
        total = self.total
        return (float(total.mean()),
                float(total.std(ddof=1) / math.sqrt(total.size)))


@dataclass
class NodeStats:
    """Per-node tail statistics collected without storing paths.

    The tail fields are None when the run was given no beta.  cost (Monte
    Carlo mean and standard error, see `estimate_cost`) and terminal_std
    (the sample standard deviation of W_T) are set when the run was given
    a utility."""

    beta: float | None
    n_paths: int
    q_beta: np.ndarray | None     # empirical lower beta-quantile of wealth
    tail_mean: np.ndarray | None  # mean of the ceil(beta n) smallest values
    tail_std: np.ndarray | None   # spread of that tail slice
    mean: np.ndarray
    below: np.ndarray | None  # counts of wealth strictly under thresholds
    thresholds: np.ndarray | None = None
    cost: tuple | None = None
    terminal_std: float | None = None

    def shortfall_standard_error(self) -> np.ndarray:
        """Influence-function standard error of the tail mean per node;
        raises OutOfRange for statistics taken without a beta."""
        if self.beta is None:
            raise OutOfRange("node statistics taken without a beta have no "
                             "tail")
        k = tail_count(self.beta, self.n_paths)
        frac = k / self.n_paths
        m = self.tail_mean - self.q_beta
        second = frac * (self.tail_std**2 + m**2)
        var_infl = second - (frac * m) ** 2
        return np.sqrt(np.maximum(var_infl, 0.0) / self.n_paths) / self.beta


def simulate_node_stats(model: MarketModel, strategy: Strategy, x: float,
                        beta: float | None, n_paths: int, seed: int,
                        thresholds: np.ndarray | None = None,
                        utility: UtilitySpec | None = None) -> NodeStats:
    """Stream the ensemble node by node, keeping only tail statistics.

    Memory stays O(n_paths) regardless of the grid size, and the draws are
    bit-identical to simulate() with the same seed.
    A beta of None skips the tail statistics: q_beta, tail_mean and
    tail_std are None, and no node is partitioned.
    `thresholds`, one finite, nonnegative wealth level per node, adds the
    count of paths strictly below it.  A `utility` adds the Monte Carlo
    cost, bit-identical to `estimate_cost` on simulate()'s ensemble, and
    the standard deviation of terminal wealth; it needs at least 2 paths,
    else raises OutOfRange.
    """
    _validated(model, strategy, x, n_paths, seed)
    n_nodes = model.grid.n
    k_tail = None if beta is None else tail_count(beta, n_paths)
    if thresholds is not None:
        thresholds = _checked_array("thresholds", thresholds, (n_nodes,))
    cost = (None if utility is None
            else _PathCost(model.grid, strategy.v, utility, n_paths))
    q = tail = spread = None
    if k_tail is not None:
        q, tail, spread = (np.empty(n_nodes) for _ in range(3))
    mean = np.empty(n_nodes)
    below = np.empty(n_nodes, dtype=np.int64) if thresholds is not None else None
    terminal_std = None
    w = np.empty(n_paths)

    def collect(k, log_w):
        nonlocal terminal_std
        np.exp(log_w, out=w)
        mean[k] = w.mean()
        if below is not None:
            below[k] = int(np.count_nonzero(w < thresholds[k]))
        if cost is not None:
            # before the partition reorders w
            cost.add(k, w)
            if k == n_nodes - 1:
                terminal_std = float(w.std(ddof=1))
        if k_tail is not None:
            w.partition(k_tail - 1)
            q[k] = w[k_tail - 1]
            tail[k] = w[:k_tail].mean()
            spread[k] = w[:k_tail].std()

    _march(model, strategy, x, n_paths, seed, collect)
    return NodeStats(beta=beta, n_paths=n_paths, q_beta=q, tail_mean=tail,
                     tail_std=spread, mean=mean, below=below,
                     thresholds=thresholds,
                     cost=None if cost is None else cost.estimate(),
                     terminal_std=terminal_std)


# ---------------------------------------------------------------------------
# Cost estimate
# ---------------------------------------------------------------------------

# read by no package code; the benchmark's tracer wraps it by name
def estimate_cost(ensemble: PathEnsemble, strategy: Strategy,
                  utility: UtilitySpec) -> tuple:
    """Monte Carlo cost estimate (mean, standard error).

    Each path's cost is the trapezoid integral of (v W)^gamma1 over the
    grid plus W_T^gamma2, accumulated over the stored node rows in time
    order (see `_PathCost`): bit-identical to np.trapezoid over the node
    axis of the node-major matrix, and to `simulate_node_stats` given the
    utility.  Needs at least 2 paths for the standard error, else raises
    OutOfRange; a stack of candidates, or a strategy on another grid,
    raises InvalidStrategy.
    """
    if strategy.y.ndim != 2 or strategy.v.ndim != 1:
        raise InvalidStrategy("expected one strategy, got a stack")
    strategy.check_fit(ensemble.grid)
    cost = _PathCost(ensemble.grid, strategy.v, utility, ensemble.n_paths)
    for k, w in enumerate(ensemble.wealth.T):
        cost.add(k, w)
    return cost.estimate()


# ---------------------------------------------------------------------------
# Constraint profiles
# ---------------------------------------------------------------------------

def constraint_profile(source, model: MarketModel, risk: RiskSpec,
                       x: float) -> np.ndarray:
    """Ratio Risk_t / (kappa x e^{R_t}) along the grid; feasible iff <= 1.

    Pass a NodeStats for the streamed Monte Carlo profile at the original
    level, or a Strategy for the closed-form jump-free profile (the
    transform the solvers bind against).  Node statistics at another beta
    or of another length raise OutOfRange.
    """
    check_initial_wealth(x)
    if isinstance(source, Strategy):
        # the risk ratio implied by the slack; slack = 0 is a ratio of 1
        slack = slack_path(source, model, risk)
        return (1.0 - (1.0 - risk.kappa) * np.exp(slack)) / risk.kappa
    ref = x * np.exp(R_path(model))
    if source.beta != risk.beta:
        raise OutOfRange("NodeStats level differs from the risk spec")
    if source.q_beta.shape != ref.shape:
        raise OutOfRange("NodeStats and model differ in node count")
    tail_value = source.q_beta if risk.kind == RiskKind.VAR else source.tail_mean
    return (ref - tail_value) / (risk.kappa * ref)


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

    Each block of pi rows is one stack of candidates, its allocation axis
    against the consumption axis, costed by one call each to `slack_path`
    and `cost_function`; blocks keep every temporary within _ORACLE_BLOCK
    elements.
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

    v = v_scale_grid[:, None] * v_shape                  # (S, N)
    atoms = model.jumps.dists[0].z.size if model.jumps.lambdas[0] > 0 else 1
    rows = max(1, _ORACLE_BLOCK // (n * max(v_scale_grid.size, atoms)))
    table = np.empty((pi_grid.size, v_scale_grid.size))
    n_feasible = 0
    for start in range(0, pi_grid.size, rows):
        p = pi_grid[start:start + rows]
        pi = np.broadcast_to(p[:, None, None, None], (p.size, 1, n, 1))
        stack = Strategy.from_pi(model, pi, v)          # (rows, S) candidates
        feasible = np.ones((p.size, v_scale_grid.size), dtype=bool)
        if risk is not None:
            slack = slack_path(stack, model, risk)
            feasible = ~(slack.min(axis=-1) < -_SLACK_TOL)
        J = cost_function(model, utility, stack, x)
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
