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

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from .errors import (
    ConfigError,
    MomentDiverges,
    OutOfRange,
    SingularSigma,
    UnsupportedSupport,
)

DET_FLOOR = 1e-12          # |det sigma_t| below this counts as singular
GL_NODES_DEFAULT = 129     # Gauss-Legendre resolution for tabulated densities


def _exp(value: float, name: str) -> float:
    """math.exp(value); raises OutOfRange where it overflows a float."""
    try:
        return math.exp(value)
    except OverflowError:
        raise OutOfRange(
            f"{name} = exp({value:.6g}) overflows a float") from None


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy of values, float unless dtype says otherwise; the
    caller's array stays writable."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _real(values, name: str, error=OutOfRange) -> np.ndarray:
    """values as a float array, uncopied where it is one; raises error
    unless they are real numbers (a cast would drop an imaginary part)."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise error(f"{name} must be real numbers, got {values.dtype}")
    return values if values.dtype == float else values.astype(float)


def _node_path(values, name: str) -> np.ndarray:
    """A read-only float copy of a path over the nodes; where its bytes are
    its first sample's repeated, one sample broadcast over them (stride 0)."""
    path = _real(values, name)
    if path.ndim and len(path) and (
            path.tobytes() == path[:1].tobytes() * len(path)):
        return np.broadcast_to(_frozen(path[0]), path.shape)
    return _frozen(path)


def _samples(path: np.ndarray) -> np.ndarray:
    """The samples a path kept by _node_path holds: one, or one per node."""
    return path[:1] if path.ndim and not path.strides[0] else path


# ---------------------------------------------------------------------------
# Time grid and quadrature helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes from 0 to the horizon T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _frozen(_real(self.nodes, "grid nodes"))
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise OutOfRange("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise OutOfRange("grid must start at t = 0")
        if not np.all(np.diff(nodes) > 0):
            raise OutOfRange("grid nodes must be strictly increasing")
        if not np.all(np.isfinite(nodes)):
            raise OutOfRange("grid nodes must be finite")

    @classmethod
    def uniform(cls, horizon: float, n: int) -> "TimeGrid":
        """Uniform grid with n nodes on [0, horizon]."""
        if not 0.0 < horizon < math.inf:
            raise OutOfRange("horizon must be positive and finite")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise OutOfRange(f"n must be an integer, got {n!r}")
        return cls(np.linspace(0.0, float(horizon), n))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n(self) -> int:
        return int(self.nodes.size)

    @cached_property
    def dt(self) -> np.ndarray:
        """Interval lengths, shape (n - 1,); computed once, read-only."""
        return _frozen(np.diff(self.nodes))


def cumtrapz(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral along the grid, starting at 0.

    Integration runs over the last axis of values, which has length N: an
    (N,) path or a stack (..., N) of paths, one integral per path.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape)
    out[..., 0] = 0.0
    steps = np.add(values[..., 1:], values[..., :-1], out=out[..., 1:])
    steps *= 0.5
    steps *= grid.dt
    np.add.accumulate(steps, axis=-1, out=steps)
    return out


def trapz(grid: TimeGrid, values: np.ndarray) -> float | np.ndarray:
    """Trapezoid integral over the last axis of values, which has length N:
    a float for an (N,) path, an array for a stack (..., N).  Bit-identical
    to np.trapezoid on the grid nodes, on the grid's kept interval lengths
    instead of a new np.diff per call."""
    values = np.asarray(values, dtype=float)
    terms = values[..., 1:] + values[..., :-1]
    np.multiply(grid.dt, terms, out=terms)
    terms /= 2.0
    total = np.add.reduce(terms, axis=-1)
    return float(total) if total.ndim == 0 else total


def log_tail_trapz(grid: TimeGrid, log_f: np.ndarray,
                   log_c: float) -> np.ndarray:
    """ln(c + int_t^T f) at every node from ln f and ln c: the trapezoid
    pieces of f summed backward from T in logs, so a small tail keeps its
    digits and neither f nor the sum need be a float."""
    log_f = np.asarray(log_f, dtype=float)
    pieces = np.logaddexp(log_f[1:], log_f[:-1]) + np.log(0.5 * grid.dt)
    return np.logaddexp.accumulate(np.append(pieces, log_c)[::-1])[::-1]


def l2_time_norm_sq_path(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Cumulative squared L2-in-time norm: t -> integral of |f_s|^2 ds.

    values is (N,) for scalars, (N, d) for vector paths or a stack
    (..., N, d) of them.
    """
    return inner_product_path(grid, values, values)


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

    def __post_init__(self):
        z = _frozen(_real(self.z, "jump sizes"))
        w = _frozen(_real(self.w, "atom weights"))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)
        if z.shape != w.shape or z.ndim != 1 or z.size == 0:
            raise ConfigError("atoms and weights must be 1-d and matching")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(w))):
            raise OutOfRange("atoms and weights must be finite")
        if np.any(z <= -1.0):
            raise UnsupportedSupport("jump sizes must satisfy z > -1")
        if np.any(w < 0):
            raise OutOfRange("weights must be nonnegative")

    @classmethod
    def point_masses(cls, z, p) -> "JumpDist":
        p = _real(p, "point-mass probabilities")
        if np.any(p <= 0):
            raise OutOfRange("point-mass probabilities must be positive")
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise OutOfRange(f"point-mass probabilities sum to {total}, not 1")
        return cls(z=z, w=p)

    @classmethod
    def degenerate(cls) -> "JumpDist":
        return cls.point_masses([0.0], [1.0])

    @classmethod
    def from_density(cls, pdf, lo: float, hi: float) -> "JumpDist":
        """Tabulate a density on [lo, hi] at Gauss-Legendre nodes."""
        if not (-1.0 < lo < hi < math.inf):
            raise UnsupportedSupport(
                "density support must lie in (-1, inf) and be finite")
        x, gw = np.polynomial.legendre.leggauss(GL_NODES_DEFAULT)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        z = mid + half * x
        f = _real(pdf(z), "density values")
        if np.any(f < 0):
            raise OutOfRange("density must be nonnegative")
        w = gw * half * f
        mass = w.sum()
        if abs(mass - 1.0) > 1e-8:
            raise OutOfRange(f"density integrates to {mass}, not 1")
        return cls(z=z, w=w / mass)

    @property
    def mean(self) -> float:
        return float(self.w @ self.z)

    @property
    def negative_mass(self) -> float:
        """Probability of a strictly negative jump size."""
        return float(self.w[self.z < 0].sum())


@dataclass(frozen=True)
class JumpSpec:
    """Per-asset Poisson intensities and jump-size laws."""

    lambdas: np.ndarray
    dists: tuple

    def __post_init__(self):
        lam = _frozen(np.atleast_1d(_real(self.lambdas, "intensities")))
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "dists", tuple(self.dists))
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise OutOfRange("intensities must be finite and nonnegative")
        if len(self.dists) != lam.size:
            raise ConfigError("one jump-size law per asset is required")

    @classmethod
    def none(cls, d: int) -> "JumpSpec":
        """No jumps in any asset."""
        return cls(np.zeros(d), tuple(JumpDist.degenerate() for _ in range(d)))

    @property
    def d(self) -> int:
        return int(self.lambdas.size)

    @cached_property
    def xi_lambda(self) -> np.ndarray:
        """Compensator vector lambda_j * E[xi_j], shape (d,); computed once,
        read-only."""
        return _frozen(self.lambdas * np.array([d.mean for d in self.dists]))

    @cached_property
    def negative_mass(self) -> np.ndarray:
        """P(xi_j < 0) per asset, shape (d,); computed once, read-only."""
        return _frozen([dist.negative_mass for dist in self.dists])

    @cached_property
    def active(self) -> tuple:
        """(j, lambda_j, z_j, w_j) for each asset j with lambda_j > 0, in
        asset order; computed once."""
        return tuple((j, lam, dist.z, dist.w) for j, (lam, dist)
                     in enumerate(zip(self.lambdas.tolist(), self.dists))
                     if lam > 0)

    def has_negative_jumps(self) -> bool:
        """True when some active asset can jump down."""
        return bool(np.any((self.lambdas > 0) & (self.negative_mass > 0)))


# ---------------------------------------------------------------------------
# Coefficients and the market model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientPath:
    """Sampled riskless rate r, drifts mu and volatility matrices sigma.

    Shapes: r (N,), mu (N, d), sigma (N, d, d), kept as read-only copies.
    A coefficient whose samples have the same bits at every node keeps one
    sample, broadcast over the nodes, so a constant market holds O(d^2)
    floats; readers see an (N, ...) array either way.  sigma must be
    nonsingular at every node; |det| below DET_FLOOR is rejected.  Samples
    are taken at face value (piecewise-linear between nodes for quadrature
    purposes); no continuity check is applied to user input.
    """

    r: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        r = _node_path(self.r, "r")
        mu = _node_path(self.mu, "mu")
        sigma = _node_path(self.sigma, "sigma")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if r.ndim != 1:
            raise ConfigError("r must be sampled as a 1-d path")
        n = r.size
        if mu.shape != (n, self.d) or sigma.shape != (n, self.d, self.d):
            raise ConfigError("inconsistent shapes for r, mu, sigma")
        for arr in (r, mu, sigma):
            if not np.all(np.isfinite(_samples(arr))):
                raise OutOfRange("coefficient paths must be finite")
        dets = np.linalg.det(_samples(sigma))
        if np.any(np.abs(dets) < DET_FLOOR):
            raise SingularSigma("sigma_t is singular at some node")

    @classmethod
    def constant(cls, grid: TimeGrid, r: float, mu, sigma) -> "CoefficientPath":
        r = _real(r, "r")
        if r.ndim:
            raise OutOfRange("a constant r must be one real number")
        mu = np.atleast_1d(_real(mu, "mu"))
        sigma = np.atleast_2d(_real(sigma, "sigma"))
        n = grid.n
        return cls(r=np.broadcast_to(r, (n,)),
                   mu=np.broadcast_to(mu, (n, *mu.shape)),
                   sigma=np.broadcast_to(sigma, (n, *sigma.shape)))

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
            raise ConfigError("coefficient paths and grid disagree in length")
        if self.coeffs.d != self.jumps.d:
            raise ConfigError("coefficients and jump spec disagree in dimension")
        # the solvers square and sum these rates: refuse them here, before
        # a product or a trapezoid overflows
        c = self.coeffs
        with np.errstate(over="ignore"):
            squares = sum(float(np.vdot(a, a)) for a in
                          (c.r, c.mu, c.sigma, self.jumps.xi_lambda))
        if not math.isfinite(squares):
            raise OutOfRange("the squares of r, mu, sigma and lambda E[xi] "
                             "sum past the float range")

    @property
    def d(self) -> int:
        return self.coeffs.d

    def without_jumps(self) -> "MarketModel":
        return MarketModel(self.grid, self.coeffs, JumpSpec.none(self.d))


@dataclass(frozen=True)
class UtilitySpec:
    """Power utilities u -> u^gamma_i with 0 < gamma_i <= 1."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        for g in (self.gamma1, self.gamma2):
            if isinstance(g, bool) or not (isinstance(g, numbers.Real)
                                           and 0.0 < g <= 1.0):
                raise OutOfRange("gamma must lie in (0, 1]")

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
            raise OutOfRange("gamma is only defined for equal utilities")
        return self.gamma1

    @property
    def q(self) -> float:
        """Conjugate exponent 1/(1 - gamma) of the shared gamma."""
        g = self.gamma
        if g >= 1.0:
            raise OutOfRange("q is only defined for gamma < 1")
        return 1.0 / (1.0 - g)


# ---------------------------------------------------------------------------
# Coefficient-derived quantities
# ---------------------------------------------------------------------------

def _sigma_solve(model: MarketModel, rhs: np.ndarray) -> np.ndarray:
    """sigma_t^{-1} rhs_t at every node for an (N, d) right-hand side."""
    try:
        return np.linalg.solve(model.coeffs.sigma, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSigma(str(exc)) from exc


def _once_per_model(path):
    """Keep path(model, *key) on the model, per key, from the first call
    on; the model's inputs are read-only, so a kept value cannot go stale.
    An array is kept as a read-only float copy, a tuple of arrays as a
    tuple of read-only copies in their own dtypes, any other value as it
    is.  A call that raises keeps nothing."""
    name = path.__name__

    @wraps(path)
    def cached(model: MarketModel, *key):
        kept = model.__dict__.setdefault(name, {})  # frozen: the instance dict
        if key not in kept:
            value = path(model, *key)
            if isinstance(value, tuple):
                value = tuple(_frozen(part, part.dtype) for part in value)
            elif isinstance(value, np.ndarray):
                value = _frozen(value)
            kept[key] = value
        return kept[key]

    return cached


@_once_per_model
def theta_path(model: MarketModel) -> np.ndarray:
    """Market price of risk at every node, shape (N, d)."""
    c = model.coeffs
    return _sigma_solve(model, c.mu - c.r[:, None])


@_once_per_model
def node_map(model: MarketModel) -> tuple:
    """The distinct coefficient samples (r_t, mu_t, sigma_t) of the grid.

    Returns first, the node where each distinct sample first appears, in
    node order, and node, for every node the position in first of the
    sample it equals; first[node] picks an equal sample for every node.
    Samples are equal when their bits are.  A constant market has one
    distinct sample, a market that changes at every node N of them.
    """
    c = model.coeffs
    n = model.grid.n
    # one key per row needs C order, which a stride-0 input may not give
    rows = np.ascontiguousarray(np.concatenate(
        [c.r[:, None], c.mu, c.sigma.reshape(n, -1)], axis=1))
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, node = np.unique(keys[:, 0], return_index=True,
                               return_inverse=True)
    order = np.argsort(first)       # np.unique sorts by key, not by node
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[node]


@_once_per_model
def theta_hat_path(model: MarketModel) -> np.ndarray:
    """Jump-compensated market price of risk at every node, shape (N, d)."""
    c = model.coeffs
    return _sigma_solve(model,
                        c.mu - c.r[:, None] - model.jumps.xi_lambda[None, :])


@_once_per_model
def sigma_inv_xi_lambda_path(model: MarketModel) -> np.ndarray:
    """sigma_t^{-1} xi_lambda at every node; equals theta - theta_hat."""
    return _sigma_solve(model,
                        np.tile(model.jumps.xi_lambda, (model.grid.n, 1)))


@_once_per_model
def R_path(model: MarketModel) -> np.ndarray:
    """Cumulative rate integral R_t = int_0^t r ds at every node."""
    return cumtrapz(model.grid, model.coeffs.r)


def inner_product_path(grid: TimeGrid, y: np.ndarray,
                       other: np.ndarray) -> np.ndarray:
    """Cumulative inner-product integral t -> int_0^t y_s . other_s ds
    of an (N,), (N, d) or stacked (..., N, d) y against other, of y's shape
    or of its last (N,) or (N, d) axes; else raises OutOfRange."""
    y = np.asarray(y, dtype=float)
    other = np.asarray(other, dtype=float)
    node = y.shape[-2:] if y.ndim > 1 else y.shape
    if node[:1] != (grid.n,) or other.shape not in (node, y.shape):
        raise OutOfRange(f"paths of shapes {y.shape} and {other.shape} do "
                         f"not pair on a grid of {grid.n} nodes")
    prod = y * other if y.ndim == 1 else np.add.reduce(y * other, axis=-1)
    return cumtrapz(grid, prod)


# ---------------------------------------------------------------------------
# Jump-integral transforms
# ---------------------------------------------------------------------------

def K_transform_path(jumps: JumpSpec, pi_path: np.ndarray, gamma: float) -> np.ndarray:
    """Jump term sum_j K_j(pi_j) of the power growth rate along a (N, d)
    allocation path, or a stack (..., N, d) of them.

    K_j(pi) = lambda_j E[(1 + pi xi)^gamma - 1 - gamma pi xi].  Vanishes at
    pi = 0 and at gamma = 1, and is concave in pi on [0, 1].
    """
    pi_path = np.asarray(pi_path, dtype=float)
    total = np.zeros(pi_path.shape[:-1])
    for j, lam, z, w in jumps.active:
        # atoms lead so that each product runs along the nodes
        p, z = pi_path[..., None, :, j], z[:, None]
        base = z * p
        base += 1.0
        if np.minimum.reduce(base, axis=None) <= 0.0:
            raise UnsupportedSupport("1 + pi*z must stay positive on the support")
        base **= gamma
        base -= 1.0
        base -= z * (gamma * p)
        total += lam * (np.ascontiguousarray(base.swapaxes(-1, -2)) @ w)
    return total


def jump_terms_path(jumps: JumpSpec, pi: np.ndarray, gamma: float):
    """Q_j(pi_j), Q_j'(pi_j) and a bound on the terms of Q_j in one pass
    over the atoms, each (m, d) for the m allocations that are rows of pi.

    Q_j(pi) = lambda_j E[((1 + pi xi)^(gamma-1) - 1) xi] is nonpositive on
    a nonnegative support when gamma < 1, Q_j'(pi) = lambda_j (gamma - 1)
    E[(1 + pi xi)^(gamma-2) xi^2], and lambda_j E[|xi| ((1 + pi
    xi)^(gamma-1) + 1)] bounds the terms summed into Q_j, which sets the
    float resolution of Q_j.
    """
    q = np.zeros_like(pi)
    dq = np.zeros_like(pi)
    q_size = np.zeros_like(pi)
    for j, lam, z, w in jumps.active:
        pz = pi[:, j, None] * z
        base = 1.0 + pz
        if base.min() <= 0.0:
            raise UnsupportedSupport("1 + pi*z must stay positive on the support")
        power = base**gamma
        slope = power / base                    # (1 + pi z)^(gamma - 1)
        q[:, j] = lam * (((slope - 1.0) * z) @ w)
        dq[:, j] = lam * (gamma - 1.0) * ((slope / base * z * z) @ w)
        q_size[:, j] = lam * (((slope + 1.0) * np.abs(z)) @ w)
    return q, dq, q_size


def expected_jump_exponential(jumps: JumpSpec, grid: TimeGrid, a) -> float:
    """Expectation of exp of the integral of a(t, z) against the jump measure.

    a(t, z) must accept a scalar time and a vector of jump sizes.  Returns
    exp(int_0^T int (e^{a(t,z)} - 1) nu(dz) dt), the closed-form mean of the
    exponential jump functional.
    """
    inner = np.zeros(grid.n)
    for _, lam, z, w in jumps.active:
        for k, t in enumerate(grid.nodes):
            with np.errstate(over="ignore"):
                vals = np.expm1(np.asarray(a(t, z), dtype=float))
            inner[k] += lam * float(vals @ w)
    total = trapz(grid, inner)
    if not np.isfinite(total):
        raise MomentDiverges("exponential jump moment is not finite")
    return float(np.exp(total))
