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
from scipy.special import betaln, roots_jacobi, xlog1py, xlogy

from .likelihood import ModelFamily, SampleSpace, likelihood_curve
from .measures import DominatingMeasure

# Node count of the uniform grid prior: its Simpson rule (error h^4) keeps the
# marginal error near 1e-11, far inside the 1e-8 oracle tolerances.
GRID_PRIOR_NODES = 1025

ZERO_SET_EPS = 1e-12


class LikelihoodVanishesError(ValueError):
    """Marginal density is zero at x: the likelihood vanishes almost
    everywhere under the prior, so no posterior density exists."""


def beta_pdf(x, a: float, b: float):
    """Beta(a, b) density: exactly 0 off [0, 1], NaN at NaN, +inf at an end whose
    exponent is negative. It rounds apart from scipy.stats.beta.pdf by some ulp."""
    x = np.asarray(x, dtype=float)
    pdf = np.exp(xlogy(a - 1, x) + xlog1py(b - 1, -x) - betaln(a, b))
    return np.where((x < 0) | (x > 1), 0.0, pdf)[()]


@dataclass(frozen=True)
class Prior:
    """Prior on a 1-D parameter space as a quadrature rule: integrating against
    it is a weighted sum over `nodes`, and only the constructors choose the
    rule. `pdf` is its Lebesgue density, kept apart from the rule. Posteriors
    are shown on `thetas`."""

    kind: str                       # "grid" | "beta" | "point"
    nodes: np.ndarray
    weights: np.ndarray             # quadrature weights, summing to 1
    thetas: np.ndarray
    pdf: Callable | None = None     # None for a point mass

    @classmethod
    def from_grid(cls, grid: Sequence[float], density_values: Sequence[float]) -> "Prior":
        grid = np.asarray(grid, dtype=float)
        density = np.asarray(density_values, dtype=float)
        if grid.ndim != 1 or len(grid) < 2 or not np.all(np.diff(grid) > 0) \
                or not np.all(np.isfinite(grid)):
            raise ValueError("prior grid must be finite, strictly increasing, >= 2 nodes")
        if not np.all(np.isfinite(density)) or np.any(density < 0):
            raise ValueError("prior density values must be finite and nonnegative")
        weights = _simpson_weights(grid) * density
        mass = weights.sum()
        if mass <= 0:
            raise ValueError("prior must have positive total mass")
        return cls(kind="grid", nodes=grid, weights=weights / mass, thetas=grid,
                   pdf=functools.partial(np.interp, xp=grid, fp=density / mass))

    @classmethod
    def uniform_grid(cls) -> "Prior":
        return cls.from_grid(np.linspace(0.0, 1.0, GRID_PRIOR_NODES), np.ones(GRID_PRIOR_NODES))

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
                   thetas=np.linspace(0.0, 1.0, 1025),
                   pdf=functools.partial(beta_pdf, a=a, b=b))

    @classmethod
    def point_mass(cls, theta0: float) -> "Prior":
        if not math.isfinite(theta0):
            raise ValueError("point prior location must be finite")
        node = np.array([float(theta0)])
        return cls(kind="point", nodes=node, weights=np.ones(1), thetas=node)

    def density(self, theta):
        """Lebesgue density: exact for the beta label, interpolated on a grid."""
        if self.pdf is None:
            raise ValueError("point priors have no density")
        return self.pdf(theta)

    def integrate(self, fn: Callable) -> float:
        """Integral of fn (node array to values) against the prior, as a pairwise
        sum: the bits of a BLAS dot would follow the thread count."""
        value = float(np.sum(self.weights * fn(self.nodes)))
        if not math.isfinite(value):
            raise ValueError(f"integral against the prior is {value}: the integrand "
                             "is not finite at the nodes")
        return value


def _simpson_weights(grid: np.ndarray) -> np.ndarray:
    """Composite Simpson weights, one parabola per pair of steps (h0, h1) from the
    left; an odd last step gets trapezoid weights, so 2 nodes give the trapezoid
    rule. Paired steps more than a factor of 2 apart would weigh a node < 0."""
    h = np.diff(grid)
    pairs = len(h) // 2
    h0, h1 = h[:2 * pairs:2], h[1:2 * pairs:2]
    if np.any(2.0 * h0 < h1) or np.any(2.0 * h1 < h0):
        raise ValueError("prior grid steps paired by the Simpson rule must not differ "
                         "by more than a factor of 2")
    span = h0 + h1
    weights = np.zeros(len(grid))
    weights[0:2 * pairs:2] += span * (2.0 * h0 - h1) / (6.0 * h0)
    weights[1:2 * pairs:2] += span ** 3 / (6.0 * h0 * h1)
    weights[2:2 * pairs + 1:2] += span * (2.0 * h1 - h0) / (6.0 * h1)
    if len(h) % 2:
        weights[-2:] += h[-1] / 2.0
    return weights


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

    def set_mass(self, atoms: Sequence) -> float:
        mass = 0.0
        for atom in atoms:
            mass += self.marginal(atom) * self.base.atom_mass(atom)
        return mass

    def zero_set(self, points: Sequence) -> tuple:
        return tuple(x for x in points if self.marginal(x) <= ZERO_SET_EPS)


def predictive_measure(family: ModelFamily, measure_id: str, prior: Prior,
                       base: DominatingMeasure) -> PredictiveMeasure:
    """The marginal is memoized per x: set masses revisit the same atoms."""
    marginal = functools.cache(lambda x: marginal_density(family, measure_id, prior, x))
    return PredictiveMeasure(family=family, measure_id=measure_id, base=base, marginal=marginal)


def predictive_invariance(lambdas: Sequence[PredictiveMeasure], atom_sets: Sequence[Sequence],
                          tol: float) -> bool:
    """Set masses of the predictive measure agree across base choices: one
    `PredictiveMeasure` per base, so the caller's memos are shared."""
    for atoms in atom_sets:
        masses = [lam.set_mass(atoms) for lam in lambdas]
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
        t = np.asarray(thetas, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(math.comb(n, x) * t ** x * (1.0 - t) ** (n - x))

    family.register_kernel("counting", log_pmf)
    family.register_kernel("counting-x2", lambda ths, x: log_pmf(ths, x) - math.log(2.0))
    return family, {"counting": counting, "counting-x2": doubled}
