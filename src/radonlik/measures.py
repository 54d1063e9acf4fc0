"""Named dominating measures and minimal dominating mixtures.

A dominating measure on the real line is counting measure on atoms, scaled
Lebesgue measure on a region, or their sum. Each carries enough payload to
evaluate per-atom masses and closed-ball masses. Measures on structured
spaces (point patterns, paths, i.i.d. samples) are not represented here:
their density kernels are keyed by plain string ids.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class DominatingMeasure:
    """A named base measure: weighted atoms, a scaled Lebesgue region, or both.

    Every kind evaluates atom masses and closed-ball masses. The kind is read
    off the payload, so it cannot contradict it: no region is counting, a
    region alone is lebesgue, a region and atoms is counting_lebesgue_sum.
    """

    id: str
    atoms: tuple = ()
    atom_weights: tuple = ()
    region: tuple[float, float] | None = None
    lebesgue_scale: float = 1.0

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("counting atoms must be distinct")
        if self.atoms and not self.atom_weights:
            object.__setattr__(self, "atom_weights", (1.0,) * len(self.atoms))
        if self.atom_weights and len(self.atom_weights) != len(self.atoms):
            raise ValueError("atom_weights length must match atoms")
        if not all(math.isfinite(w) and w >= 0 for w in self.atom_weights):
            raise ValueError("atom weights must be finite and nonnegative")
        if self.region is not None:
            lo, hi = self.region
            if not hi > lo:
                raise ValueError("region must have strictly positive volume")
        if not (math.isfinite(self.lebesgue_scale) and self.lebesgue_scale > 0):
            raise ValueError("lebesgue_scale must be finite and positive")

    @property
    def kind(self) -> str:
        if self.region is None:
            return "counting"
        return "counting_lebesgue_sum" if self.atoms else "lebesgue"

    # -- constructors ------------------------------------------------------

    @classmethod
    def counting(cls, id: str, atoms: Sequence, weights: Sequence[float] | None = None):
        return cls(id=id, atoms=tuple(atoms),
                   atom_weights=tuple(weights) if weights is not None else ())

    @classmethod
    def lebesgue(cls, id: str, region: tuple[float, float], scale: float = 1.0):
        return cls(id=id, region=region, lebesgue_scale=scale)

    @classmethod
    def counting_lebesgue_sum(cls, id: str, atoms: Sequence, region: tuple[float, float],
                              scale: float = 1.0, weights: Sequence[float] | None = None):
        return cls(id=id, atoms=tuple(atoms),
                   atom_weights=tuple(weights) if weights is not None else (),
                   region=region, lebesgue_scale=scale)

    # -- evaluation --------------------------------------------------------

    def atom_mass(self, atom) -> float:
        """Mass this measure puts on a single point (0 off the atom list)."""
        for a, w in zip(self.atoms, self.atom_weights):
            if a == atom:
                return w
        return 0.0

    def ball_mass(self, center: float, radius: float) -> float:
        """Mass of the closed ball [center - radius, center + radius]."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        total = 0.0
        for a, w in zip(self.atoms, self.atom_weights):
            if abs(a - center) <= radius:
                total += w
        if self.region is not None:
            lo, hi = self.region
            total += self.lebesgue_scale * max(0.0, min(hi, center + radius) - max(lo, center - radius))
        return total

    def atoms_in_ball(self, center: float, radius: float) -> list:
        return [a for a in self.atoms if abs(a - center) <= radius]


@dataclass(frozen=True)
class MixtureMeasure:
    """Countable mixture of family members, Q = sum_i c_i P_{theta_i}.

    Built over a finite discrete family, it carries precomputed atom masses
    so that dominance can be checked atomwise.
    """

    weights: tuple
    thetas: tuple
    atom_masses: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not self.weights:
            raise ValueError("mixture needs at least one component")
        if any(c <= 0 for c in self.weights):
            raise ValueError("mixture weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1 within 1e-12")

    def atom_mass(self, atom) -> float:
        return self.atom_masses.get(atom, 0.0)


def build_minimal_dominating_measure(family, selected_thetas) -> MixtureMeasure:
    """Uniform-weight mixture of the selected family members.

    The family must live on a finite atom space and carry a unit-weight
    counting kernel under the id "counting", so kernel values are atom masses.
    """
    selected = tuple(selected_thetas)
    if not selected:
        raise ValueError("selection must be non-empty")
    atoms = getattr(family.sample_space, "atoms", None)
    if not atoms:
        raise ValueError("minimal dominating mixture requires a finite atom space")
    grid = set(family.theta_grid)
    for theta in selected:
        if theta not in grid:
            raise ValueError(f"theta {theta!r} not on the family grid")
    k = len(selected)
    weights = (1.0 / k,) * k
    masses = {}
    for atom in atoms:
        masses[atom] = sum(w * math.exp(v) for w, v in
                           zip(weights, family.log_kernel("counting", selected, atom)))
    return MixtureMeasure(weights=weights, thetas=selected, atom_masses=masses)


def verify_dominance(candidate, family) -> bool:
    """True iff every atom the candidate misses is null under every grid theta
    of the family's "counting" kernel."""
    atoms = getattr(family.sample_space, "atoms", None)
    if not atoms:
        raise ValueError("dominance check requires a finite atom space")
    for atom in atoms:
        if candidate.atom_mass(atom) > 0.0:
            continue
        if any(math.exp(v) > 0.0 for v in family.log_kernel("counting", family.theta_grid, atom)):
            return False
    return True


def atomwise_abs_continuous(numerator_masses: Mapping, reference_masses: Mapping, atoms) -> bool:
    """Atomwise absolute continuity: reference mass 0 forces numerator mass 0."""
    for atom in atoms:
        if reference_masses.get(atom, 0.0) == 0.0 and numerator_masses.get(atom, 0.0) > 0.0:
            return False
    return True
