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
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

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
        a, b = ndtr((np.asarray(self.region) - self.mu) / self.sigma)
        return a, b - a

    def density(self, y):
        _, z = self._z()
        x = (np.asarray(y, dtype=float) - self.mu) / self.sigma
        # the standard normal pdf in the operation order of scipy.stats.norm.pdf
        return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi) / (self.sigma * z)

    def cdf(self, y):
        a, z = self._z()
        return np.clip((ndtr((np.asarray(y, dtype=float) - self.mu) / self.sigma) - a) / z, 0.0, 1.0)

    def sample(self, rng, size):
        a, z = self._z()
        u = rng.uniform(size=size)
        return self.mu + self.sigma * ndtri(a + u * z)


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
        regions = sorted(c.region for _, c in self.components)
        if any(lo <= prev_hi for (_, prev_hi), (lo, _) in zip(regions, regions[1:])):
            raise ValueError("component regions must not overlap, endpoints included")
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


def _in_region(x: np.ndarray, region: tuple, closed: bool) -> np.ndarray:
    lo, hi = region
    return (x >= lo) & (x <= hi) if closed else (x > lo) & (x < hi)


def _log_density_curve(mixes: Sequence[PointMassMixture], ys, variant: str,
                       lebesgue_scale: float = 1.0) -> list[float]:
    """Sum of log densities over an i.i.d. sample, one value per mixture.

    `lebesgue_scale` s divides the continuous part, matching a kernel taken
    against counting + s * Lebesgue. Variants: "correct" (atom indicator
    kept), "naive" (indicator dropped), "lebesgue-only" (continuous part
    alone, zero at atoms).

    Off the atoms a draw lies in at most one component region (open, or
    closed for "naive"), where its log density is log q_j + log f_j(y) -
    log s. So the sample is read once per curve: for each distinct
    component, the count n_j of off-atom draws in its region and their
    sum S_j of log f_j, one `density` call over those draws and the atoms in
    the region; and each atom's count n_a. Each p then costs O(atoms +
    components) scalar work,

        sum_j (n_j log q_j + S_j) - n_off log s + sum_a n_a log d_a,

    with d_a = p at an atom of the mixture ("correct"), p plus the
    continuous density at a over s ("naive", and at an atom of another
    mixture in the curve) or 0 ("lebesgue-only"). A draw off the atoms in
    no region gives -inf. So the "correct" curves at scales s and t differ
    by the theta-free n_off log(t / s) alone.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.isnan(ys).any():
        raise ValueError("sample contains NaN")
    closed = variant == "naive"
    at_atom = np.zeros(ys.shape, dtype=bool)
    atom_counts = {}
    for mix in mixes:
        for a, _ in mix.atoms:
            if a not in atom_counts:
                here = ys == a
                atom_counts[a] = int(np.count_nonzero(here))
                at_atom |= here
    hit = np.array([a for a, n in atom_counts.items() if n], dtype=float)
    n_off = ys.size - sum(atom_counts.values())
    off_ys = ys[~at_atom]
    stats = {}
    for mix in mixes:
        for _, comp in mix.components:
            if comp not in stats:
                inside = off_ys[_in_region(off_ys, comp.region, closed)]
                atoms_inside = hit[_in_region(hit, comp.region, closed)]
                dens = comp.density(np.concatenate((inside, atoms_inside)))
                with np.errstate(divide="ignore"):
                    log_sum = float(np.sum(np.log(dens[:inside.size])))
                at_atoms = dict(zip(atoms_inside.tolist(), dens[inside.size:].tolist()))
                stats[comp] = (inside.size, log_sum, at_atoms)
    log_scale = math.log(lebesgue_scale)
    values = []
    for mix in mixes:
        covered, value = 0, 0.0
        for q, comp in mix.components:
            n, log_sum, _ = stats[comp]
            covered += n
            value += n * math.log(q) + log_sum
        if covered < n_off:
            values.append(NEG_INF)
            continue
        value -= n_off * log_scale
        masses = dict(mix.atoms)
        for a in hit.tolist():
            if a in masses and variant == "correct":
                d = masses[a]
            elif a in masses and variant == "lebesgue-only":
                d = 0.0
            else:
                continuous = sum(q * stats[comp][2].get(a, 0.0) for q, comp in mix.components)
                d = masses.get(a, 0.0) + continuous / lebesgue_scale
            value = value + atom_counts[a] * math.log(d) if d > 0.0 else NEG_INF
        values.append(value)
    return values


def grid_mle(mixes: Sequence[PointMassMixture], theta_grid: Sequence[float],
             sample: np.ndarray, variant: str = "correct") -> frozenset[int]:
    """Grid argmax of the sample log density; ties reported as an index set."""
    values = tuple(_log_density_curve(mixes, sample, variant))
    return argmax_indices(LogLikelihoodCurve(variant, "sample", tuple(theta_grid), values))


def mixture_total_mass(mix: PointMassMixture) -> float:
    """Atom masses plus quadrature of the continuous part of the correct
    density; a region reaches at most 60 past its lower end, where the tail
    of every catalog component is negligible."""
    mass = sum(p for _, p in mix.atoms)
    for q, comp in mix.components:
        lo, hi = comp.region
        hi_eff = min(hi, lo + 60.0)
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
