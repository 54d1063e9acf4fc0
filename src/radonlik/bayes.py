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
    """Prior on a 1-D parameter space: dense grid, beta label, or point mass.

    Grid priors integrate by the trapezoid rule on their own grid; the beta
    label integrates by adaptive quadrature of the exact density; point
    priors evaluate.
    """

    kind: str                       # "grid" | "beta" | "point"
    grid: np.ndarray | None = None
    weights: np.ndarray | None = None   # density values on the grid, mass 1
    a: float | None = None
    b: float | None = None
    point: float | None = None

    @classmethod
    def from_grid(cls, grid: Sequence[float], density_values: Sequence[float]) -> "Prior":
        grid = np.asarray(grid, dtype=float)
        w = np.asarray(density_values, dtype=float)
        if np.any(w < 0):
            raise ValueError("prior density values must be nonnegative")
        total = float(np.trapezoid(w, grid))
        if total <= 0:
            raise ValueError("prior must have positive total mass")
        return cls(kind="grid", grid=grid, weights=w / total)

    @classmethod
    def uniform_grid(cls, lo: float = 0.0, hi: float = 1.0,
                     nodes: int = GRID_PRIOR_NODES) -> "Prior":
        grid = np.linspace(lo, hi, nodes)
        return cls.from_grid(grid, np.ones_like(grid))

    @classmethod
    def beta_grid(cls, a: float, b: float, nodes: int = GRID_PRIOR_NODES) -> "Prior":
        grid = np.linspace(0.0, 1.0, nodes)
        return cls.from_grid(grid, grid ** (a - 1.0) * (1.0 - grid) ** (b - 1.0))

    @classmethod
    def beta(cls, a: float, b: float) -> "Prior":
        if a <= 0 or b <= 0:
            raise ValueError("beta parameters must be positive")
        return cls(kind="beta", a=a, b=b)

    @classmethod
    def point_mass(cls, theta0: float) -> "Prior":
        return cls(kind="point", point=theta0)

    def density(self, theta):
        if self.kind == "grid":
            return np.interp(theta, self.grid, self.weights)
        if self.kind == "beta":
            return beta_dist.pdf(theta, self.a, self.b)
        raise ValueError("point priors have no density")

    def integrate(self, fn: Callable) -> float:
        """Integral of fn against the prior; fn must accept arrays for grids."""
        if self.kind == "grid":
            return float(np.trapezoid(fn(self.grid) * self.weights, self.grid))
        if self.kind == "beta":
            value, _ = quad(lambda th: fn(th) * beta_dist.pdf(th, self.a, self.b),
                            0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=400)
            return value
        return float(fn(self.point))

    def curve_grid(self) -> np.ndarray:
        if self.kind == "grid":
            return self.grid
        if self.kind == "beta":
            return np.linspace(0.0, 1.0, 1025)
        return np.asarray([self.point])

    @property
    def total_mass(self) -> float:
        return self.integrate(lambda th: np.ones_like(np.asarray(th, dtype=float)))


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
    """theta -> likelihood at x, for a theta array or one theta."""
    def fn(thetas):
        out = np.exp(family.log_kernel(measure_id, np.atleast_1d(thetas), x))
        return out if np.ndim(thetas) else float(out[0])
    return fn


def marginal_density(family: ModelFamily, measure_id: str, prior: Prior, x) -> float:
    """m(x): the likelihood at x integrated against the prior."""
    return prior.integrate(_kernel_on_thetas(family, measure_id, x))


def posterior(family: ModelFamily, measure_id: str, prior: Prior, x) -> PosteriorCurve:
    """Posterior density against the prior: likelihood over marginal."""
    m = marginal_density(family, measure_id, prior, x)
    if m <= 0.0:
        raise LikelihoodVanishesError(
            f"marginal density is zero at {x!r}: likelihood vanishes almost everywhere "
            "under the prior")
    thetas = prior.curve_grid()
    kernel = _kernel_on_thetas(family, measure_id, x)
    values = np.atleast_1d(np.asarray(kernel(thetas), dtype=float)) / m
    if prior.kind == "point":
        residual = abs(float(values[0]) - 1.0)
    else:
        residual = abs(prior.integrate(lambda th: kernel(th) / m) - 1.0)
    return PosteriorCurve(thetas=thetas, values=values, observation=x,
                          normalization_residual=residual)


@dataclass(frozen=True)
class PredictiveMeasure:
    """lambda(A) = integral of the marginal density m over A against the base."""

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
    return PredictiveMeasure(base=base, marginal=functools.cache(
        lambda x: marginal_density(family, measure_id, prior, x)))


def predictive_invariance(family: ModelFamily, prior: Prior,
                          bases: Sequence[tuple[str, DominatingMeasure]],
                          test_sets: Sequence[dict], tol: float = 1e-8) -> bool:
    """Set masses of the predictive measure agree across base choices."""
    lambdas = [predictive_measure(family, mid, prior, meas) for mid, meas in bases]
    for spec in test_sets:
        masses = [lam.set_mass(atoms=spec.get("atoms", ()), interval=spec.get("interval"))
                  for lam in lambdas]
        if max(masses) - min(masses) > tol:
            return False
    return True


def dominance_check(family: ModelFamily, measure_id: str, prior: Prior,
                    base: DominatingMeasure) -> DominanceReport:
    """Zero set of the marginal, per-theta mass on it, and support constancy.

    Works on the finite atom space of the base measure. Support constancy of
    the kernels forces dominance; that implication is asserted.
    """
    atoms = base.atoms
    if not atoms:
        raise ValueError("dominance check requires a finite atom space")
    marg = [marginal_density(family, measure_id, prior, x) for x in atoms]
    zero_set = tuple(x for x, m in zip(atoms, marg) if m <= ZERO_SET_EPS)
    # likelihood[x][i]: the kernel at atom x and the i-th grid theta
    likelihood = {x: [math.exp(v) for v in likelihood_curve(family, measure_id, x).values]
                  for x in atoms}
    hits = [sum(likelihood[x][i] * base.atom_mass(x) for x in zero_set) > 1e-10
            for i in range(len(family.theta_grid))]
    supports = [tuple(likelihood[x][i] > 0.0 for x in atoms)
                for i in range(len(family.theta_grid))]
    support_constant = all(s == supports[0] for s in supports)
    dominated = not any(hits)
    if support_constant and not dominated:
        raise RuntimeError("support constancy must imply dominance; kernel tables are inconsistent")
    return DominanceReport(zero_set=zero_set, zero_set_hit=tuple(hits),
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
