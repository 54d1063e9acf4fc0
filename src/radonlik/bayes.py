"""Marginal densities, posteriors against the prior, and the predictive
measure as a candidate dominating measure.

The posterior density is taken with respect to the prior itself, so the
carrier factor of whatever base measure produced the likelihood cancels:
posteriors computed from different bases coincide pointwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_jacobi
from scipy.stats import beta as beta_dist

from .likelihood import ModelFamily, SampleSpace, likelihood_curve
from .measures import DominatingMeasure

# Default node count for grid priors; the documented floor is 1024 nodes and
# the default is far above it so that marginal quadrature error stays well
# below the 1e-8 oracle tolerances.
GRID_PRIOR_NODES = 2 ** 18 + 1

ZERO_SET_EPS = 1e-12


class LikelihoodVanishesError(ValueError):
    """Marginal density is zero at x: the likelihood vanishes almost
    everywhere under the prior, so no posterior density exists."""


@dataclass(frozen=True)
class Prior:
    """Prior on a 1-D parameter space as a quadrature rule: integrating against
    it is a weighted sum over `nodes`, and only the constructors choose the
    rule. Posteriors are shown on `thetas`."""

    kind: str                       # "grid" | "beta" | "point"
    nodes: np.ndarray
    weights: np.ndarray             # quadrature weights, summing to 1
    thetas: np.ndarray
    a: float | None = None
    b: float | None = None

    @classmethod
    def from_grid(cls, grid: Sequence[float], density_values: Sequence[float]) -> "Prior":
        grid = np.asarray(grid, dtype=float)
        density = np.asarray(density_values, dtype=float)
        if grid.ndim != 1 or len(grid) < 2 or not np.all(np.diff(grid) > 0) \
                or not np.all(np.isfinite(grid)):
            raise ValueError("prior grid must be finite, strictly increasing, >= 2 nodes")
        if not np.all(np.isfinite(density)) or np.any(density < 0):
            raise ValueError("prior density values must be finite and nonnegative")
        weights = _trapezoid_coefficients(grid) * density
        if weights.sum() <= 0:
            raise ValueError("prior must have positive total mass")
        return cls(kind="grid", nodes=grid, weights=weights / weights.sum(), thetas=grid)

    @classmethod
    def uniform_grid(cls, nodes: int = GRID_PRIOR_NODES) -> "Prior":
        return cls.beta_grid(1.0, 1.0, nodes)

    @classmethod
    def beta_grid(cls, a: float, b: float, nodes: int = GRID_PRIOR_NODES) -> "Prior":
        grid = np.linspace(0.0, 1.0, nodes)
        return cls.from_grid(grid, grid ** (a - 1.0) * (1.0 - grid) ** (b - 1.0))

    @classmethod
    def beta(cls, a: float, b: float) -> "Prior":
        if not (math.isfinite(a) and math.isfinite(b)) or a <= 0 or b <= 0:
            raise ValueError("beta parameters must be finite and positive")
        # theta = (1 + x) / 2 turns the Jacobi weight (1 - x)^(b-1) (1 + x)^(a-1)
        # into a multiple of the Beta(a, b) density; 32 nodes integrate every
        # polynomial of degree below 64 in theta exactly
        with np.errstate(all="ignore"):   # a failed rule raises below
            x, w = roots_jacobi(32, b - 1.0, a - 1.0)
            weights = w / w.sum()
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"beta({a}, {b}) has no finite 32-node Gauss-Jacobi rule: "
                             "its weights overflow")
        return cls(kind="beta", nodes=(1.0 + x) / 2.0, weights=weights,
                   thetas=np.linspace(0.0, 1.0, 1025), a=a, b=b)

    @classmethod
    def point_mass(cls, theta0: float) -> "Prior":
        if not math.isfinite(theta0):
            raise ValueError("point prior location must be finite")
        node = np.array([float(theta0)])
        return cls(kind="point", nodes=node, weights=np.ones(1), thetas=node)

    def density(self, theta):
        """Lebesgue density: exact for the beta label, interpolated on a grid."""
        if self.kind == "beta":
            return beta_dist.pdf(theta, self.a, self.b)
        if self.kind == "grid":
            # only the rule is stored; its weights are density times trapezoid step
            return np.interp(theta, self.nodes,
                             self.weights / _trapezoid_coefficients(self.nodes))
        raise ValueError("point priors have no density")

    def integrate(self, fn: Callable) -> float:
        """Integral of fn (node array to values) against the prior, as a pairwise
        sum: the bits of a BLAS dot would follow the thread count."""
        value = float(np.sum(self.weights * fn(self.nodes)))
        if not math.isfinite(value):
            raise ValueError(f"integral against the prior is {value}: the integrand "
                             "is not finite at the nodes")
        return value

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def _trapezoid_coefficients(grid: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on `grid`: half of each adjacent step."""
    steps = np.diff(grid, prepend=grid[0], append=grid[-1])
    return (steps[:-1] + steps[1:]) / 2.0


@dataclass(frozen=True)
class PosteriorCurve:
    """Posterior density with respect to the prior on a parameter grid."""

    thetas: np.ndarray
    values: np.ndarray
    observation: object
    normalization_residual: float


@dataclass(frozen=True)
class DominanceReport:
    zero_set: tuple
    zero_set_hit: tuple      # per grid theta: does P_theta charge the zero set
    dominated: bool
    support_constant: bool


def _kernel_on_thetas(family: ModelFamily, measure_id: str, x) -> Callable:
    """theta array -> likelihood at x."""
    return lambda thetas: np.exp(family.log_kernel(measure_id, thetas, x))


def marginal_density(family: ModelFamily, measure_id: str, prior: Prior, x) -> float:
    """m(x): the likelihood at x integrated against the prior."""
    return prior.integrate(_kernel_on_thetas(family, measure_id, x))


def posterior(family: ModelFamily, measure_id: str, prior: Prior, x) -> PosteriorCurve:
    """Posterior density against the prior: likelihood over marginal. The kernel
    at the prior's nodes gives the marginal, the residual and, when the display
    grid is the node set, the curve."""
    kernel = _kernel_on_thetas(family, measure_id, x)
    at_nodes = kernel(prior.nodes)
    m = prior.integrate(lambda _: at_nodes)
    if m <= 0.0:
        raise LikelihoodVanishesError(
            f"marginal density is zero at {x!r}: likelihood vanishes almost everywhere "
            "under the prior")
    at_nodes /= m
    residual = abs(prior.integrate(lambda _: at_nodes) - 1.0)
    values = at_nodes if prior.thetas is prior.nodes else kernel(prior.thetas) / m
    return PosteriorCurve(thetas=prior.thetas, values=values, observation=x,
                          normalization_residual=residual)


@dataclass(frozen=True)
class PredictiveMeasure:
    """lambda(A) = integral of the marginal density m over A against the base,
    for the likelihood of `family` under `measure_id`."""

    family: ModelFamily
    measure_id: str
    base: DominatingMeasure
    marginal: Callable            # m: x -> [0, inf)

    def set_mass(self, atoms: Sequence = (), interval: tuple[float, float] | None = None) -> float:
        mass = 0.0
        for atom in atoms:
            mass += self.marginal(atom) * self.base.atom_mass(atom)
        if interval is not None:
            if self.base.region is None:
                raise ValueError("base measure has no continuous part")
            lo = max(interval[0], self.base.region[0])
            hi = min(interval[1], self.base.region[1])
            if hi > lo:
                value, _ = quad(self.marginal, lo, hi, epsabs=1e-11, limit=200)
                mass += self.base.lebesgue_scale * value
        return mass

    def zero_set(self, points: Sequence) -> tuple:
        return tuple(x for x in points if self.marginal(x) <= ZERO_SET_EPS)


def predictive_measure(family: ModelFamily, measure_id: str, prior: Prior,
                       base: DominatingMeasure) -> PredictiveMeasure:
    """The marginal is memoized per x: set masses revisit the same atoms."""
    marginal = functools.cache(lambda x: marginal_density(family, measure_id, prior, x))
    return PredictiveMeasure(family=family, measure_id=measure_id, base=base, marginal=marginal)


def predictive_invariance(lambdas: Sequence[PredictiveMeasure], test_sets: Sequence[dict],
                          tol: float = 1e-8) -> bool:
    """Set masses of the predictive measure agree across base choices: one
    `PredictiveMeasure` per base, so the caller's memos are shared."""
    for spec in test_sets:
        masses = [lam.set_mass(atoms=spec.get("atoms", ()), interval=spec.get("interval"))
                  for lam in lambdas]
        if max(masses) - min(masses) > tol:
            return False
    return True


def dominance_check(lam: PredictiveMeasure) -> DominanceReport:
    """Zero set of the marginal, per-theta mass on it, and support constancy.

    The zero set comes from `lam`'s memoized marginal. Works on the finite
    atom space of its base. Support constancy of the kernels forces
    dominance; that implication is asserted.
    """
    family, measure_id, base = lam.family, lam.measure_id, lam.base
    atoms = base.atoms
    if not atoms:
        raise ValueError("dominance check requires a finite atom space")
    zero_set = lam.zero_set(atoms)
    # likelihood[j, i]: the kernel at the j-th atom and the i-th grid theta
    likelihood = np.exp([likelihood_curve(family, measure_id, x).values for x in atoms])
    on_zero_set = [x in zero_set for x in atoms]
    charge = np.array([base.atom_mass(x) for x in atoms])[on_zero_set] @ likelihood[on_zero_set]
    hits = tuple((charge > 1e-10).tolist())
    supports = likelihood > 0.0
    support_constant = bool(np.all(supports == supports[:, :1]))
    dominated = not any(hits)
    if support_constant and not dominated:
        raise RuntimeError("support constancy must imply dominance; kernel tables are inconsistent")
    return DominanceReport(zero_set=zero_set, zero_set_hit=hits,
                           dominated=dominated, support_constant=support_constant)


# -- small catalog -------------------------------------------------------------

def binomial_family(n: int, theta_grid: Sequence[float]) -> tuple[ModelFamily, dict]:
    """Binomial(n, theta) with kernels against counting and 2 x counting.

    Returns the family plus the named DominatingMeasure objects.
    """
    atoms = tuple(range(n + 1))
    counting = DominatingMeasure.counting("counting", atoms)
    doubled = DominatingMeasure.counting("counting-x2", atoms, weights=(2.0,) * len(atoms))
    family = ModelFamily(theta_grid, SampleSpace(label="binomial", atoms=atoms))

    def log_pmf(thetas, x):
        # comb * t**x * (1-t)**(n-x), in place: the prior grid has 2^18+1 nodes
        t = np.asarray(thetas, dtype=float)
        out = t ** x
        out *= math.comb(n, x)
        tail = 1.0 - t
        tail **= n - x
        out *= tail
        with np.errstate(divide="ignore"):
            return np.log(out, out=out)

    family.register_kernel("counting", log_pmf)
    family.register_kernel("counting-x2", lambda ths, x: log_pmf(ths, x) - math.log(2.0))
    return family, {"counting": counting, "counting-x2": doubled}
