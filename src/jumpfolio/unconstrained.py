"""Unconstrained consumption-investment solvers.

Everything rests on the closed form for the power moment of wealth: for a
deterministic strategy (y, v) with pi the wealth fractions,

    E[X_t^g] = x^g exp(A_g(t)),
    A_g(t) = g (R_t - V_t + (y, theta)_t - (1-g)/2 ||y||_t^2)
             + sum_j int_0^t K_j(pi_j(s)) ds,

so the pointwise growth rate to maximize over the allocation box
pi_t in [0, 1]^d is

    h(t; y) = g (r_t + y_t . theta_t) - g(1-g)/2 |y_t|^2 + sum_j K_j(pi_j).

Inside the box the first-order condition in y reads, with eps = sigma_t^{-1},

    theta_t^i + (g - 1) y_t^i + sum_j eps_ij(t) Q_j(pi_t^j) = 0;

a component at a bound satisfies it only where the gradient points out of
the box.  The optimal consumption rate follows from the Bernoulli equation
for the value-function coefficient rho(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConditionViolated,
    InvalidStrategy,
    NoConvergence,
    OutOfRange,
)
from .market import (
    K_transform_path,
    MarketModel,
    R_path,
    TimeGrid,
    UtilitySpec,
    _exp,
    _frozen,
    cumtrapz,
    jump_terms_path,
    l2_time_norm_sq_path,
    node_map,
    theta_path,
    trapz,
)

_BOX_TOL = 1e-10
# Projected Newton allocation solve.  A node is done once each free gradient
# component is below _NEWTON_TOL times the summed magnitude of its terms, a
# few ulps above float resolution at any scale of the coefficients.
_NEWTON_TOL = 1e-14
_MAX_ITER = 50


# ---------------------------------------------------------------------------
# Strategies and solve reports
# ---------------------------------------------------------------------------

def _in_box(pi: np.ndarray) -> bool:
    """Whether every wealth fraction lies in [0, 1], up to _BOX_TOL."""
    return bool(np.all((pi >= -_BOX_TOL) & (pi <= 1.0 + _BOX_TOL)))


def _as_paths(values) -> np.ndarray:
    """values as a float (..., N, d) array; an (N,) path becomes (N, 1)."""
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else values


@dataclass(frozen=True)
class Strategy:
    """Deterministic strategy: allocation paths and consumption rate.

    y is the volatility-scaled allocation sigma_t' pi_t, pi the wealth
    fractions (componentwise in [0, 1], no short selling), v the consumption
    rate, zero if not given.  All paths are sampled on the grid.  Solvers
    that know the consumption integral in closed form may pass it as
    V_path; otherwise V is the trapezoid integral of v.

    The paths are kept as read-only copies (the caller's arrays stay
    writable), so the integrals V and ||y||_t^2, computed on first use and
    kept, cannot go stale.

    A stack of candidates has leading axes, y and pi (..., N, d) and v (...,
    N), that broadcast against each other; `cost_function` and `slack_path`
    take a stack in one call, `validate` and the simulator one strategy.
    """

    grid: TimeGrid
    y: np.ndarray       # (..., N, d)
    pi: np.ndarray      # (..., N, d)
    v: np.ndarray | None = None     # (..., N)
    V_path: np.ndarray | None = None

    def __post_init__(self):
        n = self.grid.n
        y, pi = _frozen(_as_paths(self.y)), _frozen(_as_paths(self.pi))
        v = _frozen(np.zeros(n) if self.v is None else self.v)
        if y.shape != pi.shape or y.shape[-2] != n:
            raise InvalidStrategy("y and pi must both be (..., N, d) paths")
        if v.shape[-1:] != (n,):
            raise InvalidStrategy("v must be an (..., N) path")
        if self.V_path is not None:
            V_path = _frozen(self.V_path)
            if V_path.shape != v.shape:
                raise InvalidStrategy("V_path must have the shape of v")
            object.__setattr__(self, "V_path", V_path)
        try:
            if y.shape[:-2] != v.shape[:-1]:
                np.broadcast_shapes(y.shape[:-2], v.shape[:-1])
        except ValueError as exc:
            raise InvalidStrategy("the candidate axes of pi and v must "
                                  "broadcast") from exc
        for name, value in (("y", y), ("pi", pi), ("v", v)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_pi(cls, model: MarketModel, pi, v=None) -> "Strategy":
        """Strategy with y = sigma' pi; pi may be a stack (..., N, d)."""
        pi = _as_paths(pi)
        y = np.einsum("nji,...nj->...ni", model.coeffs.sigma, pi)
        return cls(model.grid, y, pi, v)

    @classmethod
    def from_y(cls, model: MarketModel, y, v=None) -> "Strategy":
        y = _as_paths(y)
        sigma_t = model.coeffs.sigma.transpose(0, 2, 1)
        pi = np.linalg.solve(sigma_t, y[..., None])[..., 0]
        return cls(model.grid, y, pi, v)

    @classmethod
    def riskless(cls, model: MarketModel) -> "Strategy":
        n, d = model.grid.n, model.d
        return cls(model.grid, np.zeros((n, d)), np.zeros((n, d)))

    @property
    def d(self) -> int:
        return int(self.y.shape[-1])

    @cached_property
    def V(self) -> np.ndarray:
        """Cumulative consumption integral V_t; computed once, read-only."""
        if self.V_path is not None:
            return self.V_path
        return _frozen(cumtrapz(self.grid, self.v))

    @cached_property
    def y_norm_sq(self) -> np.ndarray:
        """Cumulative squared norm ||y||_t^2; computed once, read-only."""
        return _frozen(l2_time_norm_sq_path(self.grid, self.y))

    def y_norm_path(self) -> np.ndarray:
        return np.sqrt(self.y_norm_sq)

    def check_fit(self, grid: TimeGrid, d: int | None = None) -> None:
        """Raise InvalidStrategy unless the strategy lives on grid (the same
        object, else equal nodes) and, where d is given, has d assets."""
        if not grid.same_as(self.grid):
            raise InvalidStrategy("the strategy is on another time grid")
        if d is not None and self.d != d:
            raise InvalidStrategy(f"strategy and model shapes disagree: "
                                  f"{self.d} assets against {d}")

    def validate(self, model: MarketModel) -> None:
        """Check admissibility against a model; raises InvalidStrategy,
        also for a stack of candidates."""
        if self.y.ndim != 2 or self.v.ndim != 1:
            raise InvalidStrategy("expected one strategy, got a stack")
        self.check_fit(model.grid, model.d)
        if not all(np.all(np.isfinite(a)) for a in (self.y, self.pi, self.v)):
            raise InvalidStrategy("y, pi and v must be finite")
        if not _in_box(self.pi):
            raise InvalidStrategy("pi must stay componentwise in [0, 1]")
        if np.any(self.v < -_BOX_TOL):
            raise InvalidStrategy("consumption rate must be nonnegative")
        y_ref = np.einsum("nji,nj->ni", model.coeffs.sigma, self.pi)
        if np.max(np.abs(y_ref - self.y)) > 1e-10:
            raise InvalidStrategy("y != sigma' pi on the grid")


@dataclass
class SolveReport:
    """Solver output: optimal strategy, value J_star, the terminal
    consumption discount chi where the solver has one, and diagnostics,
    which name every other path or curve (the equal-gamma solves give
    h_star, g = exp(int h*) and the value coefficient rho)."""

    strategy: Strategy
    J_star: float
    chi: float | None = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Growth rate and value assembly
# ---------------------------------------------------------------------------

def growth_rate_path(model: MarketModel, gamma: float, y: np.ndarray,
                     pi: np.ndarray) -> np.ndarray:
    """Pointwise growth rate h(t; y) of E[X_t^gamma] for v = 0."""
    c = model.coeffs
    th = theta_path(model)
    drift = np.sum(y * th, axis=1)
    ysq = np.sum(y * y, axis=1)
    return (gamma * (c.r + drift) - 0.5 * gamma * (1.0 - gamma) * ysq
            + K_transform_path(model.jumps, pi, gamma))


def value_terms(grid: TimeGrid, g: np.ndarray, utility: UtilitySpec):
    """Optimal consumption rate v*, value coefficient rho and terminal
    discount chi, all read from one power g^q of g = exp(int h*):

        v*_t   = g^q(t) / (g^q(T) + int_t^T g^q)
        rho(t) = [(g^q(T) + int_t^T g^q) / g^q(t)]^(1/q), which solves
                 rho' + h* rho = (gamma - 1) rho^(gamma/(gamma-1)), rho(T) = 1
        chi    = g^q(T) / (||g||_{q,T}^q + g^q(T)) = exp(-V*_T)

    Raises OutOfRange where g^q leaves the float range: rho or chi not finite.
    """
    q = utility.q
    with np.errstate(all="ignore"):
        gq = np.asarray(g, dtype=float) ** q
        cum = cumtrapz(grid, gq)
        denominator = gq[-1] + (cum[-1] - cum)
        chi = float(gq[-1] / (trapz(grid, gq) + gq[-1]))
        rho = (denominator / gq) ** (1.0 / q)
    if not (math.isfinite(rho.max()) and math.isfinite(chi)):
        raise OutOfRange(f"g^q at q = {q:.6g} leaves the float range")
    return gq / denominator, rho, chi


def check_initial_wealth(x: float) -> None:
    """Raise OutOfRange unless the initial wealth x is positive and finite."""
    if not (np.isfinite(x) and x > 0.0):
        raise OutOfRange(f"initial wealth must be positive and finite, got {x}")


def _power_gamma(utility: UtilitySpec, x: float, solver: str) -> float:
    """The shared gamma of an equal-gamma solve from initial wealth x;
    raises OutOfRange for a bad x and ConditionViolated unless gamma is
    in (0, 1)."""
    check_initial_wealth(x)
    if not (utility.is_equal and utility.gamma1 < 1.0):
        raise ConditionViolated(f"{solver} needs equal gamma in (0, 1)")
    return utility.gamma1


def cost_function(model: MarketModel, utility: UtilitySpec,
                  strategy: Strategy, x: float) -> float | np.ndarray:
    """Exact expected cost of a deterministic strategy.

    J = x^g1 int_0^T v_t^g1 exp(A_g1(t)) dt + x^g2 exp(A_g2(T)) with A_g the
    log power moment exponent; all time integrals by trapezoid on the grid.
    A float for one strategy, an array over the candidate axes for a stack.
    The cumulative integrals of (y, theta) and of sum_j K_j, once per
    distinct gamma, are one stacked cumtrapz; V and ||y||_t^2 are the
    strategy's own.  A strategy that does not fit the model (see
    Strategy.check_fit) raises InvalidStrategy.
    """
    check_initial_wealth(x)
    strategy.check_fit(model.grid, model.d)
    grid = model.grid
    g1, g2 = utility.gamma1, utility.gamma2
    R, V, ysq = R_path(model), strategy.V, strategy.y_norm_sq
    gammas = (g1,) if g1 == g2 else (g1, g2)
    integrands = np.empty((1 + len(gammas),) + strategy.pi.shape[:-1])
    integrands[0] = (strategy.y * theta_path(model)).sum(axis=-1)
    for row, g in zip(integrands[1:], gammas):
        row[...] = K_transform_path(model.jumps, strategy.pi, g)
    ip, *jumps = cumtrapz(grid, integrands)
    jump_integral = dict(zip(gammas, jumps))

    def exponent(g: float, node=slice(None)):
        # in place on the first, full-shape sum; each step is the
        # closed form's own operation, so the bits do not move
        e = R[node] - V[..., node] + ip[..., node]
        e -= 0.5 * (1.0 - g) * ysq[..., node]
        e *= g
        e += jump_integral[g][..., node]
        return e

    integrand = np.exp(exponent(g1))
    integrand *= strategy.v**g1
    cost = x**g1 * trapz(grid, integrand) + x**g2 * np.exp(exponent(g2, -1))
    return float(cost) if cost.ndim == 0 else cost


# ---------------------------------------------------------------------------
# Linear utility
# ---------------------------------------------------------------------------

def solve_linear(model: MarketModel, x: float = 1.0) -> SolveReport:
    """Optimal rule for gamma1 = gamma2 = 1 over the box [0, 1]^d with
    v >= 0: consume nothing and hold pi*_t^j = 1{mu_t^j > r_t}.

    The gamma = 1 cost x exp(R_T - V_T + int pi_t . (mu_t - r_t 1) dt) is
    linear in pi (K vanishes at gamma = 1), so each component sits at the
    bound its excess drift points to, and J* = x exp(R_T + int sum_j
    (mu_t^j - r_t)^+ dt), the integral by trapezoid.  Consuming nothing is
    optimal when the growth rate r_t + sum_j (mu_t^j - r_t)^+ is
    nonnegative at every node, as with r >= 0; a negative growth rate at
    some node raises ConditionViolated.
    """
    check_initial_wealth(x)
    c = model.coeffs
    excess = c.mu - c.r[:, None]
    gains = np.sum(np.maximum(excess, 0.0), axis=1)
    growth = c.r + gains
    k = int(np.argmin(growth))
    if growth[k] < 0.0:
        raise ConditionViolated(
            f"growth rate r + sum (mu - r)^+ = {growth[k]:.6g} < 0 at "
            f"t = {model.grid.nodes[k]:.6g}: consuming nothing is not optimal")
    strategy = Strategy.from_pi(model, (excess > 0.0).astype(float))
    gain = trapz(model.grid, gains)
    J = x * _exp(float(R_path(model)[-1]) + gain, "J*")
    return SolveReport(strategy=strategy, J_star=J)


# ---------------------------------------------------------------------------
# Equal gamma in (0, 1)
# ---------------------------------------------------------------------------

def _optimal_allocation(model: MarketModel, gamma: float):
    """Maximize the growth rate h(t; pi) over the box [0, 1]^d at every node.

    The maximization at a node depends only on its coefficient sample
    (r_t, mu_t, sigma_t) and on the jump law, so the Newton loop below runs
    once per distinct sample of `node_map`, and its pi is laid back on every
    node; y, h* and exp(int h*) are then formed on the full grid.  A
    constant market solves one node, a market that changes at every node
    all N.

    h is strictly concave for gamma < 1.  In units of the gradient
    g = grad_pi h / gamma = (mu - r) - (1 - gamma) sigma sigma' pi + Q(pi),
    projected Newton (Bertsekas 1982) starts from the jump-free optimum
    clipped to the box.  Components at a bound whose gradient points out
    of the box stay there; the others take the full Newton step on their
    block of the Hessian -(1 - gamma) sigma sigma' + diag Q'(pi), clipped
    to the box, until the free gradient passes the relative test of
    _NEWTON_TOL; after _MAX_ITER steps NoConvergence is raised.  All
    distinct nodes step together; a node that passed holds still.  Returns
    y, pi, the growth rate h*, exp(int h*) and the diagnostics foc_residual,
    max |sigma^{-1} P(g)| over nodes at the last iterate (P zeroes the
    components held at a bound), iterations and boundary_clipped.
    OutOfRange is raised where exp(int h*) overflows or underflows to 0.
    """
    c, jumps = model.coeffs, model.jumps
    first, node = node_map(model)
    excess = c.mu[first] - c.r[first, None]
    sigma = c.sigma[first]
    cov = (1.0 - gamma) * sigma @ sigma.transpose(0, 2, 1)
    diag = np.arange(excess.shape[1])

    def evaluate(pi):
        q, dq, q_size = jump_terms_path(jumps, pi, gamma)
        g = excess - np.einsum("nij,nj->ni", cov, pi) + q
        held = ((pi == 0.0) & (g <= 0.0)) | ((pi == 1.0) & (g >= 0.0))
        pg = np.where(held, 0.0, g)
        size = np.abs(excess) + q_size + np.einsum("nij,nj->ni", np.abs(cov), pi)
        done = np.all(np.abs(pg) <= _NEWTON_TOL * size, axis=1)
        return pg, dq, held, done

    pi = np.clip(np.linalg.solve(cov, excess[..., None])[..., 0], 0.0, 1.0)
    pg, dq, held, done = evaluate(pi)
    iterations = 0
    while not np.all(done) and iterations < _MAX_ITER:
        iterations += 1
        # held components and passed nodes become -identity: their step is 0
        free = ~held & ~done[:, None]
        hess = np.where(free[:, :, None] & free[:, None, :], -cov, 0.0)
        hess[:, diag, diag] += np.where(free, dq, -1.0)
        rhs = np.where(free, -pg, 0.0)
        pi = np.clip(pi + np.linalg.solve(hess, rhs[..., None])[..., 0],
                     0.0, 1.0)
        pg, dq, held, done = evaluate(pi)
    kkt = np.einsum("nij,nj->ni", np.linalg.inv(sigma), pg)
    foc_residual = float(np.max(np.abs(kkt)))
    if not np.all(done):
        raise NoConvergence(
            "projected Newton stopped at first-order residual "
            f"{foc_residual:.3e} after {_MAX_ITER} iterations")
    pi = pi[node]
    y = np.einsum("nji,nj->ni", c.sigma, pi)
    h = growth_rate_path(model, gamma, y, pi)
    diagnostics = {
        "foc_residual": foc_residual,
        "iterations": iterations,
        "boundary_clipped": bool(np.any((pi == 0.0) | (pi == 1.0))),
    }
    log_g = cumtrapz(model.grid, h)
    _exp(float(log_g.max()), "g = exp(int h*)")
    if math.exp(float(log_g.min())) == 0.0:    # rho = g(T) / g reads 0/0
        raise OutOfRange(f"g = exp({log_g.min():.6g}) underflows to 0")
    return y, pi, h, np.exp(log_g), diagnostics


def solve_power_equal(model: MarketModel, utility: UtilitySpec,
                      x: float = 1.0) -> SolveReport:
    """Equal-gamma solver in d dimensions: the box-constrained optimal
    allocation at every node, then the optimal consumption rate."""
    gamma = _power_gamma(utility, x, "solve_power_equal")
    y, pi, h, g, diagnostics = _optimal_allocation(model, gamma)
    v_star, rho, chi = value_terms(model.grid, g, utility)
    strategy = Strategy(model.grid, y, pi, v_star)
    diagnostics.update(h_star=h, g=g, rho=rho,
                       J_star_rho0=x**gamma * float(rho[0]))
    return SolveReport(strategy=strategy,
                       J_star=cost_function(model, utility, strategy, x),
                       chi=chi, diagnostics=diagnostics)


solve_power_1d = solve_power_equal  # bench/ reads; ROADMAP item 10
