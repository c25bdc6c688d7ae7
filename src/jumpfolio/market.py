"""Jump-diffusion market primitives on a discrete time grid.

The market holds d risky assets driven by a d-dimensional Brownian motion
plus independent compound Poisson jumps with relative jump sizes above -1,
and a riskless account with deterministic rate r(t).  Coefficient paths are
sampled on a shared time grid; every time integral in the package is a
trapezoid rule on that grid.  Jump-size laws are represented by weighted
atoms: exact probabilities for point masses, Gauss-Legendre nodes times
weights for tabulated densities, so expectations against the jump law reduce
to weighted sums in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    MomentDiverges,
    OffGrid,
    SingularSigma,
    UnsupportedSupport,
)

DET_FLOOR = 1e-12          # |det sigma_t| below this counts as singular
GL_NODES_DEFAULT = 129     # Gauss-Legendre resolution for tabulated densities


# ---------------------------------------------------------------------------
# Time grid and quadrature helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes from 0 to the horizon T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")

    @classmethod
    def uniform(cls, horizon: float, n: int) -> "TimeGrid":
        """Uniform grid with n nodes on [0, horizon]."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return cls(np.linspace(0.0, float(horizon), int(n)))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n(self) -> int:
        return int(self.nodes.size)

    @cached_property
    def dt(self) -> np.ndarray:
        """Interval lengths, shape (n - 1,); computed once, read-only."""
        dt = np.diff(self.nodes)
        dt.flags.writeable = False
        return dt

    def index_of(self, t: float) -> int:
        """Node index of time t; raises OffGrid when t is not a node."""
        hits = np.flatnonzero(np.isclose(self.nodes, t, rtol=1e-12, atol=1e-12))
        if hits.size == 0:
            raise OffGrid(f"t = {t} is not a node of the grid")
        return int(hits[0])


def cumtrapz(grid: TimeGrid, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Cumulative trapezoid integral along the grid, starting at 0.

    Integration runs over `axis` of values, which has length N: the first
    axis by default, so (N,) or (N, ...) paths, or axis=-1 for stacked
    (..., N) paths.  The sums run node by node in time order whatever the
    axis, so each path gets the same bits either way.
    """
    values = np.asarray(values, dtype=float)
    axis = axis % values.ndim
    dt = grid.dt.reshape((-1,) + (1,) * (values.ndim - 1 - axis))
    head = (slice(None),) * axis
    increments = 0.5 * (values[head + (slice(1, None),)]
                        + values[head + (slice(None, -1),)]) * dt
    out = np.zeros(values.shape)
    np.cumsum(increments, axis=axis, out=out[head + (slice(1, None),)])
    return out


def trapz(grid: TimeGrid, values: np.ndarray) -> float:
    return float(np.trapezoid(np.asarray(values, dtype=float), grid.nodes))


def path_integral(grid: TimeGrid, values: np.ndarray, t: float) -> float:
    """Trapezoid integral of a sampled path from 0 up to grid node t."""
    k = grid.index_of(t)
    return float(cumtrapz(grid, values)[k])


def l2_time_norm_sq_path(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Cumulative squared L2-in-time norm: t -> integral of |f_s|^2 ds.

    values is (N,) for scalars or (N, d) for vector paths.
    """
    values = np.asarray(values, dtype=float)
    sq = values**2 if values.ndim == 1 else np.sum(values**2, axis=1)
    return cumtrapz(grid, sq)


def l2_time_norm(grid: TimeGrid, values: np.ndarray) -> float:
    """L2-in-time norm over the whole horizon."""
    return float(np.sqrt(l2_time_norm_sq_path(grid, values)[-1]))


# ---------------------------------------------------------------------------
# Jump-size laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpDist:
    """Jump-size law as weighted atoms (z_i, w_i) with sum(w) = 1.

    Point masses store their probabilities directly; tabulated densities
    store Gauss-Legendre nodes with weights w_i = gl_w_i * pdf(z_i), so any
    expectation E[g(xi)] evaluates as the weighted sum sum_i w_i g(z_i).
    """

    z: np.ndarray
    w: np.ndarray
    kind: str = "points"

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)
        if z.shape != w.shape or z.ndim != 1 or z.size == 0:
            raise ValueError("atoms and weights must be 1-d and matching")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(w))):
            raise ValueError("atoms and weights must be finite")
        if np.any(z <= -1.0):
            raise UnsupportedSupport("jump sizes must satisfy z > -1")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")

    @classmethod
    def point_masses(cls, z, p) -> "JumpDist":
        z = np.asarray(z, dtype=float)
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0):
            raise ValueError("point-mass probabilities must be positive")
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"point-mass probabilities sum to {total}, not 1")
        return cls(z=z, w=p / total, kind="points")

    @classmethod
    def degenerate(cls, z: float = 0.0) -> "JumpDist":
        return cls.point_masses([z], [1.0])

    @classmethod
    def from_density(cls, pdf, lo: float, hi: float,
                     n_nodes: int = GL_NODES_DEFAULT) -> "JumpDist":
        """Tabulate a density on [lo, hi] at Gauss-Legendre nodes."""
        if not (-1.0 < lo < hi):
            raise UnsupportedSupport("density support must lie in (-1, inf)")
        x, gw = np.polynomial.legendre.leggauss(int(n_nodes))
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        z = mid + half * x
        f = np.asarray(pdf(z), dtype=float)
        if np.any(f < 0):
            raise ValueError("density must be nonnegative")
        w = gw * half * f
        mass = w.sum()
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density integrates to {mass}, not 1")
        return cls(z=z, w=w / mass, kind="density")

    @property
    def mean(self) -> float:
        return float(self.w @ self.z)

    @property
    def second_moment(self) -> float:
        return float(self.w @ self.z**2)

    @property
    def negative_mass(self) -> float:
        """Probability of a strictly negative jump size."""
        return float(self.w[self.z < 0].sum())

    @property
    def min_support(self) -> float:
        return float(self.z.min())


@dataclass(frozen=True)
class JumpSpec:
    """Per-asset Poisson intensities and jump-size laws."""

    lambdas: np.ndarray
    dists: tuple

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "dists", tuple(self.dists))
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("intensities must be finite and nonnegative")
        if len(self.dists) != lam.size:
            raise ValueError("one jump-size law per asset is required")

    @classmethod
    def none(cls, d: int) -> "JumpSpec":
        """No jumps in any asset."""
        return cls(np.zeros(d), tuple(JumpDist.degenerate() for _ in range(d)))

    @property
    def d(self) -> int:
        return int(self.lambdas.size)

    @property
    def xi_lambda(self) -> np.ndarray:
        """Compensator vector lambda_j * E[xi_j], shape (d,)."""
        return self.lambdas * np.array([dist.mean for dist in self.dists])

    @property
    def negative_mass(self) -> np.ndarray:
        return np.array([dist.negative_mass for dist in self.dists])

    def has_negative_jumps(self) -> bool:
        """True when some active asset can jump down."""
        return bool(np.any((self.lambdas > 0) & (self.negative_mass > 0)))

    def without_jumps(self) -> "JumpSpec":
        return JumpSpec.none(self.d)


# ---------------------------------------------------------------------------
# Coefficients and the market model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientPath:
    """Sampled riskless rate r, drifts mu and volatility matrices sigma.

    Shapes: r (N,), mu (N, d), sigma (N, d, d).  sigma must be nonsingular
    at every node; |det| below DET_FLOOR is rejected.  Samples are taken at
    face value (piecewise-linear between nodes for quadrature purposes); no
    continuity check is applied to user input.
    """

    r: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if r.ndim != 1:
            raise ValueError("r must be sampled as a 1-d path")
        n = r.size
        if mu.shape != (n, self.d) or sigma.shape != (n, self.d, self.d):
            raise ValueError("inconsistent shapes for r, mu, sigma")
        for arr in (r, mu, sigma):
            if not np.all(np.isfinite(arr)):
                raise ValueError("coefficient paths must be finite")
        dets = np.linalg.det(sigma)
        if np.any(np.abs(dets) < DET_FLOOR):
            raise SingularSigma("sigma_t is singular at some node")

    @classmethod
    def constant(cls, grid: TimeGrid, r: float, mu, sigma) -> "CoefficientPath":
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        n = grid.n
        return cls(
            r=np.full(n, float(r)),
            mu=np.tile(mu, (n, 1)),
            sigma=np.tile(sigma, (n, 1, 1)),
        )

    @property
    def d(self) -> int:
        return int(self.mu.shape[1]) if self.mu.ndim == 2 else 1


@dataclass(frozen=True)
class MarketModel:
    grid: TimeGrid
    coeffs: CoefficientPath
    jumps: JumpSpec

    def __post_init__(self):
        if self.coeffs.r.size != self.grid.n:
            raise ValueError("coefficient paths and grid disagree in length")
        if self.coeffs.d != self.jumps.d:
            raise ValueError("coefficients and jump spec disagree in dimension")

    @property
    def d(self) -> int:
        return self.coeffs.d

    def without_jumps(self) -> "MarketModel":
        return MarketModel(self.grid, self.coeffs, self.jumps.without_jumps())


@dataclass(frozen=True)
class UtilitySpec:
    """Power utilities u -> u^gamma_i with 0 < gamma_i <= 1."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        for g in (self.gamma1, self.gamma2):
            if not (0.0 < g <= 1.0):
                raise ValueError("gamma must lie in (0, 1]")

    @classmethod
    def equal(cls, gamma: float) -> "UtilitySpec":
        return cls(gamma, gamma)

    @property
    def is_equal(self) -> bool:
        return self.gamma1 == self.gamma2

    @property
    def is_linear(self) -> bool:
        return self.gamma1 == 1.0 and self.gamma2 == 1.0

    @property
    def gamma(self) -> float:
        if not self.is_equal:
            raise ValueError("gamma is only defined for equal utilities")
        return self.gamma1

    @property
    def q(self) -> float:
        """Conjugate exponent 1/(1 - gamma) of the shared gamma."""
        g = self.gamma
        if g >= 1.0:
            raise ValueError("q is only defined for gamma < 1")
        return 1.0 / (1.0 - g)


# ---------------------------------------------------------------------------
# Coefficient-derived quantities
# ---------------------------------------------------------------------------

def _solve_node(sigma_k: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(sigma_k, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSigma(str(exc)) from exc


def theta(model: MarketModel, node: int) -> np.ndarray:
    """Market price of risk sigma_t^{-1} (mu_t - r_t 1) at one node."""
    c = model.coeffs
    return _solve_node(c.sigma[node], c.mu[node] - c.r[node])


def theta_path(model: MarketModel) -> np.ndarray:
    """Market price of risk at every node, shape (N, d)."""
    c = model.coeffs
    rhs = c.mu - c.r[:, None]
    try:
        return np.linalg.solve(c.sigma, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSigma(str(exc)) from exc


def xi_lambda(model: MarketModel) -> np.ndarray:
    """Jump compensator vector lambda_j E[xi_j]."""
    return model.jumps.xi_lambda


def theta_hat(model: MarketModel, node: int) -> np.ndarray:
    """Jump-compensated market price of risk at one node."""
    c = model.coeffs
    return _solve_node(c.sigma[node], c.mu[node] - c.r[node] - xi_lambda(model))


def theta_hat_path(model: MarketModel) -> np.ndarray:
    c = model.coeffs
    rhs = c.mu - c.r[:, None] - xi_lambda(model)[None, :]
    try:
        return np.linalg.solve(c.sigma, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSigma(str(exc)) from exc


def sigma_inv_xi_lambda_path(model: MarketModel) -> np.ndarray:
    """sigma_t^{-1} xi_lambda at every node; equals theta - theta_hat."""
    c = model.coeffs
    rhs = np.tile(xi_lambda(model), (model.grid.n, 1))
    try:
        return np.linalg.solve(c.sigma, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSigma(str(exc)) from exc


def R_integral(model: MarketModel, t: float) -> float:
    """Cumulative rate integral R_t = int_0^t r ds at a grid node."""
    return path_integral(model.grid, model.coeffs.r, t)


def R_path(model: MarketModel) -> np.ndarray:
    return cumtrapz(model.grid, model.coeffs.r)


def inner_product_path(grid: TimeGrid, y: np.ndarray, other: np.ndarray,
                       t: float | None = None):
    """Cumulative inner-product integral t -> int_0^t y_s . other_s ds.

    Returns the full path when t is None, else the value at node t.
    """
    y = np.asarray(y, dtype=float)
    other = np.asarray(other, dtype=float)
    prod = y * other if y.ndim == 1 else np.sum(y * other, axis=1)
    path = cumtrapz(grid, prod)
    if t is None:
        return path
    return float(path[grid.index_of(t)])


# ---------------------------------------------------------------------------
# Jump-integral transforms
# ---------------------------------------------------------------------------

def _atoms(jumps: JumpSpec, asset: int):
    dist = jumps.dists[asset]
    return float(jumps.lambdas[asset]), dist.z, dist.w


def K_transform(jumps: JumpSpec, asset: int, pi, gamma: float):
    """Jump term of the power growth rate for one asset.

    K_j(pi) = lambda_j E[(1 + pi xi)^gamma - 1 - gamma pi xi].  Vanishes at
    pi = 0 and at gamma = 1, and is concave in pi on [0, 1].
    """
    lam, z, w = _atoms(jumps, asset)
    pi_arr = np.asarray(pi, dtype=float)
    base = 1.0 + pi_arr[..., None] * z
    if np.any(base <= 0.0):
        raise UnsupportedSupport("1 + pi*z must stay positive on the support")
    vals = (base**gamma - 1.0 - gamma * pi_arr[..., None] * z) @ w
    out = lam * vals
    return float(out) if np.ndim(pi) == 0 else out


def Q_transform(jumps: JumpSpec, asset: int, pi, gamma: float):
    """First-order jump term Q_j(pi) = lambda_j E[((1 + pi xi)^(gamma-1) - 1) xi].

    Nonpositive whenever the support is nonnegative and gamma < 1.
    """
    lam, z, w = _atoms(jumps, asset)
    pi_arr = np.asarray(pi, dtype=float)
    base = 1.0 + pi_arr[..., None] * z
    if np.any(base <= 0.0):
        raise UnsupportedSupport("1 + pi*z must stay positive on the support")
    vals = ((base ** (gamma - 1.0) - 1.0) * z) @ w
    out = lam * vals
    return float(out) if np.ndim(pi) == 0 else out


def K_transform_path(jumps: JumpSpec, pi_path: np.ndarray, gamma: float) -> np.ndarray:
    """Sum over assets of K_j(pi_j) along a (N, d) allocation path, or a
    stack (..., N, d) of them."""
    pi_path = np.asarray(pi_path, dtype=float)
    total = np.zeros(pi_path.shape[:-1])
    for j in range(jumps.d):
        if jumps.lambdas[j] > 0:
            total += K_transform(jumps, j, pi_path[..., j], gamma)
    return total


def jump_terms_path(jumps: JumpSpec, pi: np.ndarray, gamma: float):
    """sum_j K_j(pi_j), Q_j(pi_j) and Q_j'(pi_j) in one pass over the atoms.

    Q_j'(pi) = lambda_j (gamma - 1) E[(1 + pi xi)^(gamma-2) xi^2]; each row
    of the (m, d) array pi is one allocation inside the box.  The fourth
    output, lambda_j E[|xi| ((1 + pi xi)^(gamma-1) + 1)], bounds the terms
    summed into Q_j, which sets the float resolution of Q_j.
    """
    k = np.zeros(pi.shape[0])
    q = np.zeros_like(pi)
    dq = np.zeros_like(pi)
    q_size = np.zeros_like(pi)
    for j in np.flatnonzero(jumps.lambdas > 0):
        lam, z, w = jumps.lambdas[j], jumps.dists[j].z, jumps.dists[j].w
        pz = pi[:, j, None] * z
        base = 1.0 + pz
        power = base**gamma
        slope = power / base                    # (1 + pi z)^(gamma - 1)
        k += lam * ((power - 1.0 - gamma * pz) @ w)
        q[:, j] = lam * (((slope - 1.0) * z) @ w)
        dq[:, j] = lam * (gamma - 1.0) * ((slope / base * z * z) @ w)
        q_size[:, j] = lam * (((slope + 1.0) * np.abs(z)) @ w)
    return k, q, dq, q_size


def expected_jump_exponential(jumps: JumpSpec, grid: TimeGrid, a) -> float:
    """Expectation of exp of the integral of a(t, z) against the jump measure.

    a(t, z) must accept a scalar time and a vector of jump sizes.  Returns
    exp(int_0^T int (e^{a(t,z)} - 1) nu(dz) dt), the closed-form mean of the
    exponential jump functional.
    """
    inner = np.zeros(grid.n)
    for j in range(jumps.d):
        lam, z, w = _atoms(jumps, j)
        if lam == 0:
            continue
        for k, t in enumerate(grid.nodes):
            with np.errstate(over="ignore"):
                vals = np.expm1(np.asarray(a(t, z), dtype=float))
            inner[k] += lam * float(vals @ w)
    if not np.all(np.isfinite(inner)):
        raise MomentDiverges("exponential jump moment is not finite")
    total = trapz(grid, inner)
    if not np.isfinite(total):
        raise MomentDiverges("exponential jump moment is not finite")
    return float(np.exp(total))
