"""Model families as density kernels and likelihood-curve machinery.

A model family couples a finite parameter grid with one density kernel per
registered dominating measure. Likelihood curves are log-density values over
the grid at a fixed observation; the proportionality checker verifies that
two curves differ by a parameter-free constant, which is the working test
that two dominating measures lead to the same inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .measures import DominatingMeasure

NEG_INF = float("-inf")


@dataclass(frozen=True)
class SampleSpace:
    """Descriptor of where observations live.

    Scalar spaces carry atoms and/or a 1-D region and support membership
    checks; structured spaces (point patterns, paths) are label-only.
    """

    label: str = "omega"
    atoms: tuple = ()
    region: tuple[float, float] | None = None

    def contains(self, omega) -> bool:
        if not self.atoms and self.region is None:
            return True  # label-only space: no scalar membership test
        if self.atoms and omega in self.atoms:
            return True
        if self.region is not None:
            lo, hi = self.region
            try:
                return lo <= omega <= hi
            except TypeError:
                return False
        return False


class ModelFamily:
    """Parameter grid plus one log-density kernel per dominating-measure id.

    Kernel contract: `register_kernel(measure_id, log_kernel)`, where
    `log_kernel(thetas, omega)` takes a sequence of grid values (a tuple or a
    1-D ndarray) and returns one log density per theta, `-inf` where the
    density vanishes. A likelihood curve is one kernel call over the grid.
    An optional closed-form interval mass function `interval_mass(theta, lo,
    hi)` short-circuits quadrature in neighborhood-mass computations.
    """

    def __init__(self, theta_grid: Sequence, sample_space: SampleSpace | None = None,
                 interval_mass: Callable | None = None):
        self.theta_grid = tuple(theta_grid)
        if not self.theta_grid:
            raise ValueError("theta grid must be non-empty")
        self.sample_space = sample_space if sample_space is not None else SampleSpace()
        self.interval_mass = interval_mass
        self._log_kernels: dict[str, Callable] = {}

    def register_kernel(self, measure_id: str, log_kernel: Callable) -> None:
        self._log_kernels[measure_id] = log_kernel

    def log_kernel(self, measure_id: str, thetas: Sequence, omega) -> np.ndarray:
        """Log densities at omega, one per theta of `thetas`."""
        if measure_id not in self._log_kernels:
            raise KeyError(f"no kernel registered for measure id {measure_id!r}")
        values = np.asarray(self._log_kernels[measure_id](thetas, omega), dtype=float)
        if values.shape != (len(thetas),):
            raise ValueError(f"kernel for {measure_id!r} returned shape {values.shape} "
                             f"for {len(thetas)} thetas")
        return values


@dataclass(frozen=True)
class LogLikelihoodCurve:
    """Log-density over the parameter grid at one observation.

    Values are finite or -inf (a vanishing kernel); NaN and +inf are
    rejected here, so no later comparison has to rank them.
    """

    measure_id: str
    observation_id: str
    thetas: tuple
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.thetas):
            raise ValueError("curve length must equal grid length")
        for theta, v in zip(self.thetas, self.values):
            if math.isnan(v) or v == math.inf:
                raise ValueError(f"log-likelihood {v} at theta {theta!r} under "
                                 f"{self.measure_id!r}: only finite values and -inf are allowed")


@dataclass(frozen=True)
class ProportionalityReport:
    constant_log_ratio: float | None
    max_deviation: float
    passed: bool


def _check_in_sample_space(family: ModelFamily, omega) -> None:
    if not family.sample_space.contains(omega):
        raise ValueError(f"observation {omega!r} outside sample space {family.sample_space.label!r}")


def eval_log_density(family: ModelFamily, measure_id: str, theta, omega) -> float:
    """Log of the registered kernel at one theta; -inf where it vanishes."""
    _check_in_sample_space(family, omega)
    return float(family.log_kernel(measure_id, (theta,), omega)[0])


def likelihood_curve(family: ModelFamily, measure_id: str, omega) -> LogLikelihoodCurve:
    """The kernel over the whole grid at omega, in one kernel call."""
    _check_in_sample_space(family, omega)
    values = family.log_kernel(measure_id, family.theta_grid, omega)
    return LogLikelihoodCurve(measure_id=measure_id, observation_id="obs",
                              thetas=family.theta_grid, values=tuple(values.tolist()))


def check_proportionality(curve1: LogLikelihoodCurve, curve2: LogLikelihoodCurve,
                          tol: float) -> ProportionalityReport:
    """Do the two curves differ by a parameter-free constant?

    The log-ratio is taken over grid points where both curves are finite and
    centered at its median; the check passes when the worst deviation from
    the median is within tol and the -inf patterns of the curves coincide.
    When no grid point has both curves finite, or a log-ratio overflows, the
    ratio is undefined: the report has no constant, an infinite deviation,
    and fails.
    """
    if curve1.thetas != curve2.thetas:
        raise ValueError("curves do not share a theta grid")
    if curve1.observation_id != curve2.observation_id:
        raise ValueError("curves were computed at different observations")
    finite1 = [v != NEG_INF for v in curve1.values]
    finite2 = [v != NEG_INF for v in curve2.values]
    patterns_match = finite1 == finite2
    deltas = [float(a) - float(b)
              for a, b, f1, f2 in zip(curve1.values, curve2.values, finite1, finite2) if f1 and f2]
    if not deltas or not all(map(math.isfinite, deltas)):
        return ProportionalityReport(constant_log_ratio=None,
                                     max_deviation=math.inf, passed=False)
    center = float(np.median(deltas))
    max_dev = max(abs(d - center) for d in deltas)
    return ProportionalityReport(constant_log_ratio=center, max_deviation=max_dev,
                                 passed=patterns_match and max_dev <= tol)


def argmax_indices(curve: LogLikelihoodCurve) -> frozenset[int]:
    """Grid indices where the curve attains its maximum; ties give several.

    Raises ValueError when every value is -inf: no grid point has positive
    likelihood, so there is no maximiser to report.
    """
    top = max(curve.values)
    if top == NEG_INF:
        raise ValueError(f"all grid points give zero likelihood under {curve.measure_id!r}")
    return frozenset(i for i, v in enumerate(curve.values) if v == top)


def argmax_invariance(curve1: LogLikelihoodCurve, curve2: LogLikelihoodCurve) -> bool:
    """True iff both curves attain their maxima on the same grid index set."""
    if curve1.thetas != curve2.thetas:
        raise ValueError("curves do not share a theta grid")
    return argmax_indices(curve1) == argmax_indices(curve2)


def _mass_in_ball(family: ModelFamily, measure: DominatingMeasure, theta,
                  center: float, radius: float) -> float:
    """P_theta mass of a closed 1-D ball, via the registered kernel."""
    if family.interval_mass is not None:
        return family.interval_mass(theta, center - radius, center + radius)
    mass = 0.0
    for atom in measure.atoms_in_ball(center, radius):
        mass += (math.exp(eval_log_density(family, measure.id, theta, atom))
                 * measure.atom_mass(atom))
    if measure.region is not None:
        lo = max(measure.region[0], center - radius)
        hi = min(measure.region[1], center + radius)
        if hi > lo:
            atoms_inside = [a for a in measure.atoms if lo < a < hi]

            def integrand(y):
                return math.exp(eval_log_density(family, measure.id, theta, y))

            value, _ = quad(integrand, lo, hi, points=atoms_inside or None,
                            epsabs=1e-13, limit=200)
            mass += measure.lebesgue_scale * value
    return mass


def neighborhood_density_limit(family: ModelFamily, measure: DominatingMeasure, theta,
                               omega0: float, radii: Sequence[float]) -> list[float]:
    """Shrinking-ball mass ratios P_theta(B(omega0, r)) / nu(B(omega0, r)).

    The sequence of ratios converges to the continuous density version at
    omega0 (or to the atom mass at an atom of the base measure).
    """
    radii = list(radii)
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    ratios = []
    for r in radii:
        denom = measure.ball_mass(omega0, r)
        if denom == 0.0:
            raise ValueError(f"base measure puts no mass on the ball of radius {r} at {omega0}")
        ratios.append(_mass_in_ball(family, measure, theta, omega0, r) / denom)
    return ratios


def finite_family(atoms: Sequence, mass_rows: Sequence[Sequence[float]],
                  theta_grid: Sequence) -> ModelFamily:
    """Finite discrete family from a (grid x atoms) probability mass table,
    its kernel registered under "counting"."""
    atoms = tuple(atoms)
    if len(mass_rows) != len(theta_grid):
        raise ValueError(f"{len(mass_rows)} mass rows for {len(theta_grid)} grid values")
    log_table = {}
    for theta, row in zip(theta_grid, mass_rows):
        row = tuple(row)
        if len(row) != len(atoms):
            raise ValueError("each mass row must cover every atom")
        if not all(math.isfinite(p) and p >= 0 for p in row):
            raise ValueError("masses must be finite and nonnegative")
        total = sum(row)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses for theta {theta!r} sum to {total}, not 1")
        log_table[theta] = {a: math.log(p) if p > 0 else NEG_INF for a, p in zip(atoms, row)}
    family = ModelFamily(theta_grid, SampleSpace(label="atoms", atoms=atoms))
    family.register_kernel("counting",
                           lambda thetas, omega: [log_table[th][omega] for th in thetas])
    return family
