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

from dataclasses import dataclass, field

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
    cumtrapz,
    inner_product_path,
    jump_terms_path,
    l2_time_norm_sq_path,
    theta_path,
    trapz,
)

_BOX_TOL = 1e-10
# Projected Newton allocation solve.  A node is done once each free gradient
# component is below _NEWTON_TOL times the summed magnitude of its terms, a
# few ulps above float resolution at any scale of the coefficients.
_NEWTON_TOL = 1e-14
_MAX_ITER = 50
_MAX_HALVINGS = 40


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


@dataclass
class Strategy:
    """Deterministic strategy: allocation paths and consumption rate.

    y is the volatility-scaled allocation sigma_t' pi_t, pi the wealth
    fractions (componentwise in [0, 1], no short selling), v the consumption
    rate, zero if not given.  All paths are sampled on the grid.  Solvers
    that know the consumption integral in closed form may pass it as
    V_path; otherwise V is the trapezoid integral of v.

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
        self.y, self.pi = _as_paths(self.y), _as_paths(self.pi)
        self.v = np.zeros(n) if self.v is None else np.asarray(self.v, float)
        if self.y.shape != self.pi.shape or self.y.shape[-2] != n:
            raise InvalidStrategy("y and pi must both be (..., N, d) paths")
        if self.v.shape[-1:] != (n,):
            raise InvalidStrategy("v must be an (..., N) path")
        if self.V_path is not None:
            self.V_path = np.asarray(self.V_path, dtype=float)
            if self.V_path.shape != self.v.shape:
                raise InvalidStrategy("V_path must have the shape of v")
        try:
            np.broadcast_shapes(self.y.shape[:-2], self.v.shape[:-1])
        except ValueError as exc:
            raise InvalidStrategy("the candidate axes of pi and v must "
                                  "broadcast") from exc

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

    @property
    def V(self) -> np.ndarray:
        """Cumulative consumption integral V_t."""
        if self.V_path is not None:
            return self.V_path
        return cumtrapz(self.grid, self.v)

    def y_norm_path(self) -> np.ndarray:
        return np.sqrt(l2_time_norm_sq_path(self.grid, self.y))

    def validate(self, model: MarketModel) -> None:
        """Check admissibility against a model; raises InvalidStrategy,
        also for a stack of candidates."""
        if self.y.ndim != 2 or self.v.ndim != 1:
            raise InvalidStrategy("expected one strategy, got a stack")
        if self.d != model.d or self.grid.n != model.grid.n:
            raise InvalidStrategy("strategy and model shapes disagree")
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
    """Solver output: optimal strategy, value and diagnostics."""

    strategy: Strategy
    J_star: float
    h_star: np.ndarray | None = None
    g: np.ndarray | None = None
    rho: np.ndarray | None = None
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


def _gq_terms(grid: TimeGrid, h_star: np.ndarray, utility: UtilitySpec):
    """q, g^q(t) and g^q(T) + int_t^T g^q with g = exp(int h*)."""
    q = utility.q
    gq = np.exp(cumtrapz(grid, np.asarray(h_star, dtype=float))) ** q
    cum = cumtrapz(grid, gq)
    return q, gq, gq[-1] + (cum[-1] - cum)


def rho_path(grid: TimeGrid, h_star: np.ndarray, utility: UtilitySpec) -> np.ndarray:
    """Value-function coefficient rho(t) from the growth-rate path.

    rho(t) = [(g^q(T) + int_t^T g^q) / g^q(t)]^(1/q) with g = exp(int h*);
    solves rho' + h* rho = (gamma - 1) rho^(gamma/(gamma-1)), rho(T) = 1.
    """
    q, gq, denominator = _gq_terms(grid, h_star, utility)
    return (denominator / gq) ** (1.0 / q)


def v_star_path(grid: TimeGrid, h_star: np.ndarray, utility: UtilitySpec) -> np.ndarray:
    """Optimal consumption rate v*_t = g^q(t) / (g^q(T) + int_t^T g^q)."""
    _, gq, denominator = _gq_terms(grid, h_star, utility)
    return gq / denominator


def chi_value(grid: TimeGrid, g: np.ndarray, utility: UtilitySpec) -> float:
    """Terminal consumption discount chi = g^q(T) / (||g||_{q,T}^q + g^q(T)).

    Equals exp(-V*_T) for the optimal consumption rate.
    """
    q = utility.q
    gq = np.asarray(g, dtype=float) ** q
    return float(gq[-1] / (trapz(grid, gq) + gq[-1]))


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
    A float for one strategy, an array over the candidate axes for a stack;
    sum_j K_j is evaluated once per distinct gamma.
    """
    check_initial_wealth(x)
    grid = model.grid
    g1, g2 = utility.gamma1, utility.gamma2
    R, V = R_path(model), strategy.V
    ip = inner_product_path(grid, strategy.y, theta_path(model))
    ysq = l2_time_norm_sq_path(grid, strategy.y)
    jump_integral = {
        g: cumtrapz(grid, K_transform_path(model.jumps, strategy.pi, g))
        for g in {g1, g2}}

    def exponent(g: float, node=slice(None)):
        return (g * (R[node] - V[..., node] + ip[..., node]
                     - 0.5 * (1.0 - g) * ysq[..., node])
                + jump_integral[g][..., node])

    consumption = np.trapezoid(strategy.v**g1 * np.exp(exponent(g1)),
                               grid.nodes, axis=-1)
    cost = x**g1 * consumption + x**g2 * np.exp(exponent(g2, -1))
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
    J = x * float(np.exp(float(R_path(model)[-1]) + gain))
    return SolveReport(strategy=strategy, J_star=J)


# ---------------------------------------------------------------------------
# Equal gamma in (0, 1)
# ---------------------------------------------------------------------------

def _optimal_allocation(model: MarketModel, gamma: float):
    """Maximize the growth rate h(t; pi) over the box [0, 1]^d at every node.

    h is strictly concave for gamma < 1.  In units of the gradient
    g = grad_pi h / gamma = (mu - r) - (1 - gamma) sigma sigma' pi + Q(pi),
    a projected Newton step (Bertsekas 1982) starts from the jump-free
    optimum clipped to the box.  Components at a bound whose gradient points
    out of the box stay there; the others take the Newton step on their
    block of the Hessian -(1 - gamma) sigma sigma' + diag Q'(pi), and the
    result is clipped to the box.  Each node halves its step until h rises
    or the first-order defect falls: near the optimum a rise of h is below
    float resolution.  Returns y, pi, the growth rate h*, exp(int h*) and
    the diagnostics foc_residual, the largest max |sigma^{-1} P(g)| over
    nodes (P zeroes the components held at a bound), iterations and
    boundary_clipped.
    """
    c, jumps = model.coeffs, model.jumps
    n, d = c.mu.shape
    excess = c.mu - c.r[:, None]
    cov = (1.0 - gamma) * c.sigma @ c.sigma.transpose(0, 2, 1)
    sigma_inv = np.linalg.inv(c.sigma)
    diag = np.arange(d)

    def evaluate(rows, pi):
        k, q, dq, q_size = jump_terms_path(jumps, pi, gamma)
        cov_pi = np.einsum("nij,nj->ni", cov[rows], pi)
        f = np.sum(pi * (excess[rows] - 0.5 * cov_pi), axis=1) + k / gamma
        g = excess[rows] - cov_pi + q
        held = ((pi == 0.0) & (g <= 0.0)) | ((pi == 1.0) & (g >= 0.0))
        pg = np.where(held, 0.0, g)
        size = (np.abs(excess[rows]) + q_size
                + np.einsum("nij,nj->ni", np.abs(cov[rows]), pi))
        done = np.all(np.abs(pg) <= _NEWTON_TOL * size, axis=1)
        kkt = np.einsum("nij,nj->ni", sigma_inv[rows], pg)
        return f, g, dq, held, np.max(np.abs(kkt), axis=1), done

    pi = np.clip(np.linalg.solve(cov, excess[..., None])[..., 0], 0.0, 1.0)
    f, g, dq, held, res, done = evaluate(np.arange(n), pi)
    iterations = 0
    while not np.all(done):
        if iterations == _MAX_ITER:
            raise NoConvergence(
                "projected Newton stopped at first-order residual "
                f"{res.max():.3e} after {_MAX_ITER} iterations")
        iterations += 1
        rows = np.flatnonzero(~done)
        free = ~held[rows]
        # held rows and columns become -identity, so their step is 0
        hess = np.where(free[:, :, None] & free[:, None, :], -cov[rows], 0.0)
        hess[:, diag, diag] += np.where(free, dq[rows], -1.0)
        rhs = np.where(free, -g[rows], 0.0)
        step = np.linalg.solve(hess, rhs[..., None])[..., 0]
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(pi[rows] + alpha * step, 0.0, 1.0)
            new = evaluate(rows, trial)
            # accept where h rose or the first-order residual fell
            ok = (new[0] > f[rows]) | (new[4] < res[rows])
            pi[rows[ok]] = trial[ok]
            for old, value in zip((f, g, dq, held, res, done), new):
                old[rows[ok]] = value[ok]
            rows, step = rows[~ok], step[~ok]
            if rows.size == 0:
                break
            alpha *= 0.5
    y = np.einsum("nji,nj->ni", c.sigma, pi)
    h = growth_rate_path(model, gamma, y, pi)
    diagnostics = {
        "foc_residual": float(res.max()),
        "iterations": iterations,
        "boundary_clipped": bool(np.any((pi == 0.0) | (pi == 1.0))),
    }
    return y, pi, h, np.exp(cumtrapz(model.grid, h)), diagnostics


def solve_power_1d(model: MarketModel, utility: UtilitySpec,
                   x: float = 1.0) -> SolveReport:
    """One-asset entry point to solve_power_equal."""
    if model.d != 1:
        raise ConditionViolated("solve_power_1d needs a one-asset market")
    return solve_power_equal(model, utility, x)


def solve_power_equal(model: MarketModel, utility: UtilitySpec,
                      x: float = 1.0) -> SolveReport:
    """Equal-gamma solver in d dimensions: the box-constrained optimal
    allocation at every node, then the optimal consumption rate."""
    gamma = _power_gamma(utility, x, "solve_power_equal")
    y, pi, h, g, diagnostics = _optimal_allocation(model, gamma)
    grid = model.grid
    rho = rho_path(grid, h, utility)
    strategy = Strategy(grid, y, pi, v_star_path(grid, h, utility))
    diagnostics["J_star_rho0"] = x**gamma * float(rho[0])
    return SolveReport(strategy=strategy,
                       J_star=cost_function(model, utility, strategy, x),
                       h_star=h, g=g, rho=rho, chi=chi_value(grid, g, utility),
                       diagnostics=diagnostics)
