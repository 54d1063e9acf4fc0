"""Inhomogeneous Poisson processes on bounded regions.

Two log-likelihood routes for the same point pattern: against the product of
counting and N-dimensional Lebesgue measure, and against the law of the
unit-rate process. Their difference is the parameter-free constant
-|S| - log N!, which every simulated pattern must reproduce.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .likelihood import ModelFamily, SampleSpace, argmax_indices, likelihood_curve

MEASURE_PRODUCT = "count-location-product"
MEASURE_UNIT_POISSON = "unit-rate-poisson"


@dataclass(frozen=True, eq=False, init=False)
class PointPattern:
    """A realization (N, s_1..s_N) on a bounded box region.

    The region is a tuple of per-dimension (lo, hi) intervals, each finite
    with lo < hi. Locations may be given as an (N, d) array or sequence (1-D
    patterns also as a flat list). The one store is `points`, a read-only
    (N, d) float array; `locations` is a tuple of float tuples derived from it
    on demand. Two patterns are equal when their regions and points are.
    """

    region: tuple
    points: np.ndarray

    def __init__(self, region, locations):
        region = tuple(tuple(map(float, side)) for side in region)
        for lo, hi in region:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"region side {(lo, hi)} must be finite with lo < hi")
        pts = np.array(locations, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, len(region) if pts.size == 0 else 1)
        if pts.ndim != 2 or pts.shape[1] != len(region):
            raise ValueError("location dimension does not match region")
        lo, hi = np.array(region).T
        inside = (pts >= lo) & (pts <= hi)
        if not inside.all():
            if np.isnan(pts).any():
                raise ValueError("location contains NaN")
            bad = pts[~inside.all(axis=1)][0]
            raise ValueError(f"location {tuple(bad.tolist())} outside region {region}")
        pts.flags.writeable = False
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "points", pts)

    def __eq__(self, other):
        if not isinstance(other, PointPattern):
            return NotImplemented
        return self.region == other.region and np.array_equal(self.points, other.points)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.region, self.points.shape, (self.points + 0.0).tobytes()))

    @property
    def locations(self) -> tuple:
        return tuple(map(tuple, self.points.tolist()))

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def volume(self) -> float:
        return float(math.prod(hi - lo for lo, hi in self.region))

    def to_json(self) -> str:
        return json.dumps({"region": [list(side) for side in self.region],
                           "points": self.points.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "PointPattern":
        payload = json.loads(text)
        return cls(region=payload["region"], locations=payload["points"])


@dataclass(frozen=True)
class IntensityModel:
    """theta-indexed intensity on a region, with its integral Lambda(theta).

    `rate(thetas, x)` maps K grid values and an (N, d) float array of points
    to a new (K, N) array of intensities, one row per theta, so that
    theta-free work on the points is done once for the whole grid;
    `cumulative(theta)` is the closed-form Lambda(theta).
    """

    name: str
    region: tuple
    theta_grid: tuple
    rate: Callable                 # (K thetas, (N, d) array) -> (K, N) intensities >= 0
    cumulative: Callable           # theta -> Lambda(theta), in closed form
    max_rate: Callable | None = None     # theta -> sup of the intensity, the thinning bound

    def intensity(self, thetas, points) -> np.ndarray:
        """(K, N) intensities at an (N, d) array of points (or at one point),
        one row per theta of `thetas`."""
        points = np.atleast_2d(points)
        values = self.rate(thetas, points)
        if values.shape != (len(thetas), len(points)):
            raise ValueError(f"rate returned shape {values.shape} for {len(thetas)} thetas "
                             f"and {len(points)} points")
        if not ((values >= 0.0) & (values < math.inf)).all():
            raise ValueError("intensity must be finite and nonnegative")
        return values

    def total(self, theta) -> float:
        """Lambda(theta) = integral of the intensity over the region."""
        return float(self.cumulative(theta))

    @property
    def volume(self) -> float:
        return float(math.prod(hi - lo for lo, hi in self.region))


# proposal rows per intensity call in `thinning_counts`; the counts do not depend on it
_THIN_BLOCK_ROWS = 1 << 16


def _thin(model: IntensityModel, theta, bound: float, rng: np.random.Generator,
          n_prop: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw `n_prop` proposals at rate `bound` and thin them: (locations, keep mask).

    Each proposal's row of `d + 1` uniforms holds its location and then its
    acceptance draw, the order in which a per-proposal loop would draw them.
    """
    d = len(model.region)
    raw = rng.random((n_prop, d + 1))
    lo, hi = np.array(model.region).T
    pts = lo + (hi - lo) * raw[:, :d]
    lam = model.intensity((theta,), pts)[0]
    over = lam > bound
    if over.any():
        i = int(np.argmax(over))
        raise ValueError(f"thinning bound {bound} below intensity {float(lam[i])} "
                         f"at {tuple(pts[i].tolist())}")
    return pts, raw[:, d] < lam / bound


def simulate_thinning(model: IntensityModel, theta, bound: float, seed) -> PointPattern:
    """Thinning sampler (Lewis and Shedler 1979): uniform proposals at rate
    `bound`, kept w.p. rate/bound."""
    rng = np.random.default_rng(seed)
    n_prop = rng.poisson(bound * model.volume)
    pts, keep = _thin(model, theta, bound, rng, n_prop)
    return PointPattern(region=model.region, locations=pts[keep])


def thinning_counts(model: IntensityModel, theta, bound: float, seed,
                    replicates: int) -> np.ndarray:
    """Kept-point counts of `replicates` independent thinned patterns.

    One generator draws every proposal count first, then the proposal rows in
    replicate order, `_THIN_BLOCK_ROWS` rows per intensity call. Uniforms drawn
    in pieces are the bits of one draw, so the counts do not depend on the
    block size. With one replicate the count is `simulate_thinning(...).count`.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.poisson(bound * model.volume, size=replicates)
    ends, total = np.cumsum(sizes), int(sizes.sum())
    counts = np.zeros(replicates, dtype=np.int64)
    for start in range(0, total, _THIN_BLOCK_ROWS):
        stop = min(start + _THIN_BLOCK_ROWS, total)
        _, keep = _thin(model, theta, bound, rng, stop - start)
        # each kept row's replicate: the first whose end lies past the row
        owner = np.searchsorted(ends, np.arange(start, stop)[keep], side="right")
        counts += np.bincount(owner, minlength=replicates)
    return counts


def _log_likelihoods(model: IntensityModel, thetas, pattern: PointPattern,
                     measure_id: str) -> list[float]:
    """Log likelihood at each theta against `measure_id`, from one intensity call.

    Each row's logs are summed pairwise (`np.sum`), whose rounding error grows
    as log N rather than N for a sequential sum; a row where the intensity
    vanishes sums to -inf. The theta's start term is added to its row's sum.
    """
    lam = model.intensity(thetas, pattern.points)
    with np.errstate(divide="ignore"):
        sums = np.log(lam, out=lam).sum(axis=1)
    if measure_id == MEASURE_PRODUCT:
        log_n_factorial = math.lgamma(pattern.count + 1)
        starts = [-log_n_factorial - model.total(theta) for theta in thetas]
    else:
        starts = [-(model.total(theta) - pattern.volume) for theta in thetas]
    return [start + float(s) for start, s in zip(starts, sums)]


def loglik_product_measure(model: IntensityModel, theta, pattern: PointPattern) -> float:
    """Log density against counting x Lebesgue on (N, s_1..s_N)."""
    return _log_likelihoods(model, (theta,), pattern, MEASURE_PRODUCT)[0]


def loglik_jacod(model: IntensityModel, theta, pattern: PointPattern) -> float:
    """Log density against the unit-rate Poisson-process law on the region."""
    return _log_likelihoods(model, (theta,), pattern, MEASURE_UNIT_POISSON)[0]


def mle_intensity(model: IntensityModel, pattern: PointPattern,
                  measure_id: str = MEASURE_PRODUCT) -> frozenset[int]:
    """Grid argmax of the log likelihood against `measure_id`; ties as an index set."""
    return argmax_indices(likelihood_curve(pattern_model_family(model), measure_id, pattern))


def pattern_model_family(model: IntensityModel) -> ModelFamily:
    """Both likelihood routes bundled for curve and proportionality checks."""
    family = ModelFamily(model.theta_grid, SampleSpace(label="point-pattern"))
    for measure_id in (MEASURE_PRODUCT, MEASURE_UNIT_POISSON):
        family.register_kernel(measure_id, lambda ths, pat, _m=measure_id:
                               _log_likelihoods(model, ths, pat, _m))
    return family


def location_density_mass(model: IntensityModel, theta, n: int) -> float:
    """Integral of the conditional location density over S^n (1-D regions).

    The density of locations given N = n factorizes, so the mass is the
    n-th power of a single quadrature; n = 1, 2 supported for desk checks.
    """
    if len(model.region) != 1:
        raise ValueError("1-D regions only")
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    lo, hi = model.region[0]
    total = model.total(theta)
    value, _ = quad(lambda s: model.rate((theta,), np.array([[s]]))[0, 0] / total, lo, hi,
                    epsabs=1e-10, limit=200)
    return value ** n


# -- catalog -----------------------------------------------------------------

def constant_intensity(theta_grid: Sequence[float], region=((0.0, 1.0),)) -> IntensityModel:
    region = tuple(tuple(side) for side in region)
    volume = float(math.prod(hi - lo for lo, hi in region))
    return IntensityModel(name="constant", region=region, theta_grid=tuple(theta_grid),
                          rate=lambda cs, x: np.full((len(cs), len(x)),
                                                    np.asarray(cs, dtype=float)[:, None]),
                          cumulative=lambda c: float(c) * volume,
                          max_rate=lambda c: float(c))


def loglinear_intensity(theta_grid: Sequence[tuple], region=((0.0, 1.0),)) -> IntensityModel:
    """lambda(s) = exp(a + b s) on a 1-D region, theta = (a, b)."""
    (lo, hi), = tuple(tuple(side) for side in region)

    def cumulative(theta):
        a, b = theta
        if b == 0.0:
            return math.exp(a) * (hi - lo)
        return (math.exp(a + b * hi) - math.exp(a + b * lo)) / b

    def rate(thetas, x):
        a, b = np.asarray(thetas, dtype=float).T
        return np.exp(a[:, None] + b[:, None] * x[:, 0])

    def max_rate(theta):
        a, b = theta
        return math.exp(a + max(b * lo, b * hi)) + 1e-9

    return IntensityModel(name="loglinear", region=((lo, hi),), theta_grid=tuple(theta_grid),
                          rate=rate, cumulative=cumulative, max_rate=max_rate)


def sinusoidal_intensity(theta_grid: Sequence[float], region=((0.0, 1.0),)) -> IntensityModel:
    """lambda(s) = c (1 + sin(2 pi s) / 2) on a 1-D region, theta = c."""
    (lo, hi), = tuple(tuple(side) for side in region)
    two_pi = 2.0 * math.pi

    def cumulative(c):
        return c * ((hi - lo) + 0.5 * (math.cos(two_pi * lo) - math.cos(two_pi * hi)) / two_pi)

    return IntensityModel(name="sinusoidal", region=((lo, hi),), theta_grid=tuple(theta_grid),
                          rate=lambda cs, x: (np.asarray(cs, dtype=float)[:, None]
                                              * (1.0 + 0.5 * np.sin(two_pi * x[:, 0]))),
                          cumulative=cumulative,
                          max_rate=lambda c: float(c) * 1.5 + 1e-9)


INTENSITY_CATALOG = {
    "constant": constant_intensity,
    "loglinear": loglinear_intensity,
    "sinusoidal": sinusoidal_intensity,
}
