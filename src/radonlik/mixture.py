"""Point-mass mixtures: atoms plus continuous components on the real line.

The correct density against counting + Lebesgue keeps the indicator that
silences continuous components at atoms; the naive density drops it. Both
are kept as first-class kernels so the inferential damage of the naive
version can be demonstrated rather than asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import norm

from .likelihood import NEG_INF, LogLikelihoodCurve, ModelFamily, SampleSpace, argmax_indices


@dataclass(frozen=True)
class Component:
    """Continuous mixture component with closed-form density, cdf, sampler."""

    name: str
    region: tuple[float, float]

    def density(self, y):
        raise NotImplementedError

    def cdf(self, y):
        raise NotImplementedError

    def sample(self, rng, size):
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(Component):
    rate: float = 1.0

    def density(self, y):
        return self.rate * np.exp(-self.rate * np.asarray(y, dtype=float))

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(y <= 0.0, 0.0, 1.0 - np.exp(-self.rate * np.maximum(y, 0.0)))

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Uniform(Component):
    def density(self, y):
        lo, hi = self.region
        return np.full_like(np.asarray(y, dtype=float), 1.0 / (hi - lo))

    def cdf(self, y):
        lo, hi = self.region
        return np.clip((np.asarray(y, dtype=float) - lo) / (hi - lo), 0.0, 1.0)

    def sample(self, rng, size):
        lo, hi = self.region
        return rng.uniform(lo, hi, size=size)


@dataclass(frozen=True)
class TruncatedGaussian(Component):
    mu: float = 0.0
    sigma: float = 1.0

    def _z(self):
        lo, hi = self.region
        a = norm.cdf((lo - self.mu) / self.sigma)
        b = norm.cdf((hi - self.mu) / self.sigma)
        return a, b - a

    def density(self, y):
        _, z = self._z()
        return norm.pdf((np.asarray(y, dtype=float) - self.mu) / self.sigma) / (self.sigma * z)

    def cdf(self, y):
        a, z = self._z()
        return np.clip((norm.cdf((np.asarray(y, dtype=float) - self.mu) / self.sigma) - a) / z, 0.0, 1.0)

    def sample(self, rng, size):
        a, z = self._z()
        u = rng.uniform(size=size)
        return self.mu + self.sigma * norm.ppf(a + u * z)


COMPONENT_CATALOG = {
    "exponential": lambda: Exponential(name="exponential", region=(0.0, math.inf), rate=1.0),
    "uniform": lambda: Uniform(name="uniform", region=(0.0, 1.0)),
    "gaussian-truncated": lambda: TruncatedGaussian(name="gaussian-truncated",
                                                    region=(-3.0, 3.0), mu=0.0, sigma=1.0),
}


@dataclass(frozen=True)
class PointMassMixture:
    """Atoms (a_i, p_i) plus continuous components (q_j, f_j on B_j)."""

    atoms: tuple            # ((a_i, p_i), ...)
    components: tuple       # ((q_j, Component), ...)

    def __post_init__(self):
        atom_points = [a for a, _ in self.atoms]
        if len(set(atom_points)) != len(atom_points):
            raise ValueError("atoms must be distinct")
        if any(p <= 0 for _, p in self.atoms):
            raise ValueError("atom masses must be positive")
        if any(q <= 0 for q, _ in self.components):
            raise ValueError("component weights must be positive")
        total = sum(p for _, p in self.atoms) + sum(q for q, _ in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {total}, not 1")

    @property
    def atom_points(self) -> tuple:
        return tuple(a for a, _ in self.atoms)

    def atom_mass(self, y) -> float:
        for a, p in self.atoms:
            if y == a:
                return p
        return 0.0

    def cdf(self, y: float) -> float:
        value = sum(p for a, p in self.atoms if a <= y)
        value += sum(q * float(c.cdf(y)) for q, c in self.components)
        return value

    def interval_mass(self, lo: float, hi: float) -> float:
        """Probability of the closed interval [lo, hi]."""
        mass = sum(p for a, p in self.atoms if lo <= a <= hi)
        mass += sum(q * float(c.cdf(hi) - c.cdf(lo)) for q, c in self.components)
        return mass


def simulate(mix: PointMassMixture, n: int, seed) -> np.ndarray:
    """n i.i.d. draws; atoms hit exactly (bitwise) with their probabilities."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    weights = [p for _, p in mix.atoms] + [q for q, _ in mix.components]
    choice = rng.choice(len(weights), size=n, p=np.asarray(weights) / sum(weights))
    out = np.empty(n, dtype=float)
    n_atoms = len(mix.atoms)
    for i, (a, _) in enumerate(mix.atoms):
        out[choice == i] = a
    for j, (_, comp) in enumerate(mix.components):
        mask = choice == n_atoms + j
        out[mask] = comp.sample(rng, int(mask.sum()))
    return out


def _log_density_curve(mixes: Sequence[PointMassMixture], ys, variant: str,
                       lebesgue_scale: float = 1.0) -> list[float]:
    """Sum of log densities over an i.i.d. sample, one value per mixture.

    `lebesgue_scale` divides the continuous part, matching a kernel taken
    against counting + scale * Lebesgue. Variants: "correct" (atom indicator
    kept), "naive" (indicator dropped), "lebesgue-only" (continuous part
    alone, zero at atoms).

    The sample-only work is done once for the curve: each distinct
    component's density, zeroed off its region (open, or closed for
    "naive"), and each atom's positions in the sample. Per mixture the
    continuous part is then a weighted sum of those arrays, and each atom is
    one index assignment. Since q * 0 = 0, weighting a zeroed array gives
    the bits of weighting inside the region alone.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    masked, positions = {}, {}
    for mix in mixes:
        for _, comp in mix.components:
            if comp not in masked:
                lo, hi = comp.region
                if variant == "naive":
                    inside = (ys >= lo) & (ys <= hi)
                else:
                    inside = (ys > lo) & (ys < hi)
                masked[comp] = np.where(inside, comp.density(ys), 0.0)
        for a, _ in mix.atoms:
            if a not in positions:
                positions[a] = np.flatnonzero(ys == a)
    values = []
    for mix in mixes:
        terms = [q * masked[comp] for q, comp in mix.components]
        dens = sum(terms[1:], terms[0]) if terms else np.zeros_like(ys)
        dens /= lebesgue_scale
        for a, p in mix.atoms:
            here = positions[a]
            if variant == "naive":
                dens[here] += p
            elif variant == "lebesgue-only":
                dens[here] = 0.0
            else:
                dens[here] = p
        if np.any(dens <= 0.0):
            # a NaN draw is in no region and at no atom, so it always lands here
            if np.isnan(ys).any():
                raise ValueError("sample contains NaN")
            values.append(NEG_INF)
        else:
            values.append(float(np.sum(np.log(dens))))
    return values


def grid_mle(mixes: Sequence[PointMassMixture], theta_grid: Sequence[float],
             sample: np.ndarray, variant: str = "correct") -> frozenset[int]:
    """Grid argmax of the sample log density; ties reported as an index set."""
    values = tuple(_log_density_curve(mixes, sample, variant))
    return argmax_indices(LogLikelihoodCurve(variant, "sample", tuple(theta_grid), values))


def mixture_total_mass(mix: PointMassMixture, tail_cap: float = 60.0) -> float:
    """Atom masses plus quadrature of the continuous part of the correct
    density; unbounded regions are capped where the tail is negligible."""
    from scipy.integrate import quad

    mass = sum(p for _, p in mix.atoms)
    for q, comp in mix.components:
        lo, hi = comp.region
        hi_eff = min(hi, lo + tail_cap)
        inner_atoms = [a for a in mix.atom_points if lo < a < hi_eff]
        value, _ = quad(lambda y, c=comp: float(c.density(y)), lo, hi_eff,
                        points=inner_atoms or None, epsabs=1e-10, limit=200)
        mass += q * value
    return mass


def atom_weight_mixture(atom: float, component: Component, p: float) -> PointMassMixture:
    return PointMassMixture(atoms=((atom, p),), components=(((1.0 - p), component),))


def atom_weight_family(atom: float, component: Component, p_grid: Sequence[float]) -> ModelFamily:
    """Family over the atom weight p with kernels for several measure routes.

    Measure ids:
      counting-lebesgue        correct density, counting + Lebesgue
      counting-2lebesgue       correct density, counting + 2 * Lebesgue
      counting-lebesgue-naive  indicator-free density (invalid on purpose)
      lebesgue-only            continuous part alone, 0 at atoms
    Observations are i.i.d. sample arrays.
    """
    mixes = {p: atom_weight_mixture(atom, component, p) for p in p_grid}
    family = ModelFamily(p_grid, SampleSpace(label="iid-sample"))

    def kernel(variant: str, lebesgue_scale: float = 1.0):
        return lambda ps, ys: _log_density_curve([mixes[p] for p in ps], ys, variant,
                                                 lebesgue_scale)

    family.register_kernel("counting-lebesgue", kernel("correct"))
    family.register_kernel("counting-2lebesgue", kernel("correct", lebesgue_scale=2.0))
    family.register_kernel("counting-lebesgue-naive", kernel("naive"))
    family.register_kernel("lebesgue-only", kernel("lebesgue-only"))
    return family
