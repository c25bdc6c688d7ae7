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

from .errors import DriftBelowRate, InvalidStrategy, NoConvergence, OutOfRange
from .market import (
    K_transform_path,
    MarketModel,
    Q_transform,
    R_path,
    TimeGrid,
    UtilitySpec,
    cumtrapz,
    jump_terms_path,
    l2_time_norm,
    l2_time_norm_sq_path,
    path_integral,
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

@dataclass
class Strategy:
    """Deterministic strategy: allocation paths and consumption rate.

    y is the volatility-scaled allocation sigma_t' pi_t, pi the wealth
    fractions (componentwise in [0, 1], no short selling), v the consumption
    rate.  All paths are sampled on the grid.  Solvers that know the
    consumption integral in closed form may pass it as V_path; otherwise V
    is the trapezoid integral of v.
    """

    grid: TimeGrid
    y: np.ndarray       # (N, d)
    pi: np.ndarray      # (N, d)
    v: np.ndarray       # (N,)
    V_path: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.y.ndim == 1:
            self.y = self.y[:, None]
        if self.pi.ndim == 1:
            self.pi = self.pi[:, None]
        n = self.grid.n
        if self.y.shape != self.pi.shape or self.y.shape[0] != n:
            raise InvalidStrategy("y and pi must both be (N, d) paths")
        if self.v.shape != (n,):
            raise InvalidStrategy("v must be an (N,) path")
        if self.V_path is not None:
            self.V_path = np.asarray(self.V_path, dtype=float)
            if self.V_path.shape != (n,):
                raise InvalidStrategy("V_path must be an (N,) path")

    @classmethod
    def from_pi(cls, model: MarketModel, pi, v=None) -> "Strategy":
        pi = np.asarray(pi, dtype=float)
        if pi.ndim == 1:
            pi = pi[:, None]
        y = np.einsum("nji,nj->ni", model.coeffs.sigma, pi)
        v = np.zeros(model.grid.n) if v is None else np.asarray(v, dtype=float)
        return cls(model.grid, y, pi, v)

    @classmethod
    def from_y(cls, model: MarketModel, y, v=None) -> "Strategy":
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        sigma_t = model.coeffs.sigma.transpose(0, 2, 1)
        pi = np.linalg.solve(sigma_t, y[..., None])[..., 0]
        v = np.zeros(model.grid.n) if v is None else np.asarray(v, dtype=float)
        return cls(model.grid, y, pi, v)

    @classmethod
    def riskless(cls, model: MarketModel) -> "Strategy":
        n, d = model.grid.n, model.d
        return cls(model.grid, np.zeros((n, d)), np.zeros((n, d)), np.zeros(n))

    @property
    def d(self) -> int:
        return int(self.y.shape[1])

    @property
    def V(self) -> np.ndarray:
        """Cumulative consumption integral V_t."""
        if self.V_path is not None:
            return self.V_path
        return cumtrapz(self.grid, self.v)

    def y_norm_sq_path(self) -> np.ndarray:
        return l2_time_norm_sq_path(self.grid, self.y)

    def y_norm_path(self) -> np.ndarray:
        return np.sqrt(self.y_norm_sq_path())

    def validate(self, model: MarketModel, tol: float = _BOX_TOL) -> None:
        """Check admissibility against a model; raises InvalidStrategy."""
        if self.d != model.d or self.grid.n != model.grid.n:
            raise InvalidStrategy("strategy and model shapes disagree")
        if np.any(self.pi < -tol) or np.any(self.pi > 1.0 + tol):
            raise InvalidStrategy("pi must stay componentwise in [0, 1]")
        if np.any(self.v < -tol):
            raise InvalidStrategy("consumption rate must be nonnegative")
        y_ref = np.einsum("nji,nj->ni", model.coeffs.sigma, self.pi)
        if np.max(np.abs(y_ref - self.y)) > 1e-10:
            raise InvalidStrategy("y != sigma' pi on the grid")


def V_integral(strategy: Strategy, t: float) -> float:
    """Cumulative consumption integral V_t at a grid node."""
    return path_integral(strategy.grid, strategy.v, t)


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


def rho_path(grid: TimeGrid, h_star: np.ndarray, utility: UtilitySpec) -> np.ndarray:
    """Value-function coefficient rho(t) from the growth-rate path.

    rho(t) = [(g^q(T) + int_t^T g^q) / g^q(t)]^(1/q) with g = exp(int h*);
    solves rho' + h* rho = (gamma - 1) rho^(gamma/(gamma-1)), rho(T) = 1.
    """
    q = utility.q
    g = np.exp(cumtrapz(grid, np.asarray(h_star, dtype=float)))
    gq = g**q
    cum = cumtrapz(grid, gq)
    tail = cum[-1] - cum
    return ((gq[-1] + tail) / gq) ** (1.0 / q)


def v_star_path(grid: TimeGrid, h_star: np.ndarray, utility: UtilitySpec) -> np.ndarray:
    """Optimal consumption rate v*_t = g^q(t) / (g^q(T) + int_t^T g^q)."""
    q = utility.q
    g = np.exp(cumtrapz(grid, np.asarray(h_star, dtype=float)))
    gq = g**q
    cum = cumtrapz(grid, gq)
    tail = cum[-1] - cum
    return gq / (gq[-1] + tail)


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


def cost_function(model: MarketModel, utility: UtilitySpec,
                  strategy: Strategy, x: float) -> float:
    """Exact expected cost of a deterministic strategy.

    J = x^g1 int_0^T v_t^g1 exp(A_g1(t)) dt + x^g2 exp(A_g2(T)) with A_g the
    log power moment exponent; all time integrals by trapezoid on the grid.
    """
    check_initial_wealth(x)
    grid = model.grid
    ip = cumtrapz(grid, np.sum(strategy.y * theta_path(model), axis=1))
    ysq = l2_time_norm_sq_path(grid, strategy.y)

    def jump_integral(g: float) -> np.ndarray:
        return cumtrapz(grid, K_transform_path(model.jumps, strategy.pi, g))

    return float(_expected_cost(grid, utility, x, R_path(model), strategy.V,
                                strategy.v, ip, ysq, jump_integral))


def _expected_cost(grid: TimeGrid, utility: UtilitySpec, x: float,
                   R: np.ndarray, V: np.ndarray, v: np.ndarray,
                   ip: np.ndarray, ysq: np.ndarray, jump_integral):
    """Expected cost from the terms of the log power moment A_g.

    R, V, ip = (y, theta)_t and ysq = ||y||_t^2 are cumulative paths, v the
    consumption rate and jump_integral(g) the cumulative integral of
    sum_j K_j(pi_j).  Time runs along the last axis of every array and the
    arrays broadcast over their leading axes, so one call costs a stack of
    candidates; the result has the broadcast leading shape.
    """
    g1, g2 = utility.gamma1, utility.gamma2

    def exponent(g: float, node=slice(None)):
        return (g * (R[node] - V[..., node] + ip[..., node]
                     - 0.5 * (1.0 - g) * ysq[..., node])
                + jump_integral(g)[..., node])

    consumption = np.trapezoid(v**g1 * np.exp(exponent(g1)), grid.nodes,
                               axis=-1)
    terminal = np.exp(exponent(g2, -1))
    return x**g1 * consumption + x**g2 * terminal


# ---------------------------------------------------------------------------
# Linear utility
# ---------------------------------------------------------------------------

def solve_linear(model: MarketModel, x: float = 1.0) -> SolveReport:
    """Optimal rule for gamma1 = gamma2 = 1 (consume nothing, ride the drift).

    Requires mu_t^j >= r_t everywhere.  When the excess drift vanishes in
    time-L2 norm any box allocation is optimal and we return pi = 0;
    otherwise pi*_t = (mu_t - r_t 1) sqrt(T) / ||mu - r 1||_T and
    J* = x exp(R_T + sqrt(T) ||mu - r 1||_T).
    """
    check_initial_wealth(x)
    c = model.coeffs
    excess = c.mu - c.r[:, None]
    if np.any(excess < -1e-12):
        raise DriftBelowRate("mu_t^j < r_t at some node")
    grid = model.grid
    R_T = float(R_path(model)[-1])
    norm = l2_time_norm(grid, excess)
    if norm <= 1e-14:
        strategy = Strategy.riskless(model)
        J = x * float(np.exp(R_T))
        diag = {"excess_norm": norm, "pi_in_box": True}
    else:
        pi = excess * np.sqrt(grid.horizon) / norm
        strategy = Strategy.from_pi(model, pi)
        J = x * float(np.exp(R_T + np.sqrt(grid.horizon) * norm))
        diag = {
            "excess_norm": norm,
            "pi_in_box": bool(np.all((pi >= -_BOX_TOL) & (pi <= 1 + _BOX_TOL))),
        }
    return SolveReport(strategy=strategy, J_star=J, diagnostics=diag)


# ---------------------------------------------------------------------------
# Equal gamma in (0, 1)
# ---------------------------------------------------------------------------

def eta_1d(model: MarketModel, node: int, pi, gamma: float):
    """First-order function of the one-dimensional allocation problem.

    eta(pi) = mu_t - r_t + (gamma - 1) sigma_t^2 pi + Q(pi), the derivative
    (up to the factor gamma) of the growth rate in pi.  Strictly decreasing
    on [0, 1]; an interior optimum is its unique root.
    """
    if model.d != 1:
        raise ValueError("eta_1d is defined for one-asset markets")
    c = model.coeffs
    drift = c.mu[node, 0] - c.r[node]
    sig2 = c.sigma[node, 0, 0] ** 2
    qv = Q_transform(model.jumps, 0, pi, gamma)
    out = drift + (gamma - 1.0) * sig2 * np.asarray(pi, dtype=float) + qv
    return float(out) if np.ndim(pi) == 0 else out


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
    float resolution.  Returns y, pi and the diagnostics foc_residual, the
    largest max |sigma^{-1} P(g)| over nodes (P zeroes the components held
    at a bound), iterations and boundary_clipped.
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
    diagnostics = {
        "foc_residual": float(res.max()),
        "iterations": iterations,
        "boundary_clipped": bool(np.any((pi == 0.0) | (pi == 1.0))),
    }
    return y, pi, diagnostics


def solve_power_1d(model: MarketModel, utility: UtilitySpec,
                   x: float = 1.0) -> SolveReport:
    """One-asset entry point to solve_power_equal."""
    if model.d != 1:
        raise ValueError("solve_power_1d needs a one-asset market")
    return solve_power_equal(model, utility, x)


def solve_power_equal(model: MarketModel, utility: UtilitySpec,
                      x: float = 1.0) -> SolveReport:
    """Equal-gamma solver in d dimensions: the box-constrained optimal
    allocation at every node, then the optimal consumption rate."""
    check_initial_wealth(x)
    gamma = utility.gamma
    if gamma >= 1.0:
        raise ValueError("solve_power_equal needs gamma < 1")
    y, pi, diagnostics = _optimal_allocation(model, gamma)
    grid = model.grid
    h = growth_rate_path(model, gamma, y, pi)
    g = np.exp(cumtrapz(grid, h))
    rho = rho_path(grid, h, utility)
    strategy = Strategy(grid, y, pi, v_star_path(grid, h, utility))
    diagnostics["J_star_rho0"] = x**gamma * float(rho[0])
    return SolveReport(strategy=strategy,
                       J_star=cost_function(model, utility, strategy, x),
                       h_star=h, g=g, rho=rho, chi=chi_value(grid, g, utility),
                       diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Jump versus no-jump comparison
# ---------------------------------------------------------------------------

@dataclass
class MertonComparison:
    """Optimal policies with jumps against the pure-diffusion market."""

    t: np.ndarray
    pi_jump: np.ndarray
    pi_diffusion: np.ndarray
    v_jump: np.ndarray
    v_diffusion: np.ndarray
    report_jump: SolveReport
    report_diffusion: SolveReport

    CSV_HEADER = "t,pi_jump,pi_diffusion,v_jump,v_diffusion"

    def to_csv(self, path) -> None:
        rows = np.column_stack(
            [self.t, self.pi_jump, self.pi_diffusion, self.v_jump, self.v_diffusion]
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for row in rows:
                fh.write(",".join(f"{val:.17g}" for val in row) + "\n")


def compare_merton(model: MarketModel, utility: UtilitySpec) -> MertonComparison:
    """Solve the one-asset problem with jumps and with jumps switched off.

    Positive jump laws pull the allocation down and the consumption rate up
    relative to the pure-diffusion optimum.
    """
    rep_jump = solve_power_1d(model, utility)
    rep_diff = solve_power_1d(model.without_jumps(), utility)
    return MertonComparison(
        t=model.grid.nodes.copy(),
        pi_jump=rep_jump.strategy.pi[:, 0].copy(),
        pi_diffusion=rep_diff.strategy.pi[:, 0].copy(),
        v_jump=rep_jump.strategy.v.copy(),
        v_diffusion=rep_diff.strategy.v.copy(),
        report_jump=rep_jump,
        report_diffusion=rep_diff,
    )
