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

from .likelihood import NEG_INF, ModelFamily, SampleSpace, argmax_indices, likelihood_curve

MEASURE_PRODUCT = "count-location-product"
MEASURE_UNIT_POISSON = "unit-rate-poisson"


@dataclass(frozen=True)
class PointPattern:
    """A realization (N, s_1..s_N) on a bounded box region.

    The region is a tuple of per-dimension (lo, hi) intervals, each finite
    with lo < hi; locations are an (N, d) array (1-D patterns may be built
    from flat lists).
    """

    region: tuple
    locations: tuple

    def __post_init__(self):
        region = tuple(tuple(map(float, side)) for side in self.region)
        for lo, hi in region:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"region side {(lo, hi)} must be finite with lo < hi")
        object.__setattr__(self, "region", region)
        pts = []
        for p in self.locations:
            p = (float(p),) if np.isscalar(p) else tuple(map(float, p))
            if len(p) != len(region):
                raise ValueError("location dimension does not match region")
            for x, (lo, hi) in zip(p, region):
                if not lo <= x <= hi:
                    raise ValueError(f"location {p} outside region {region}")
            pts.append(p)
        object.__setattr__(self, "locations", tuple(pts))

    @property
    def count(self) -> int:
        return len(self.locations)

    @property
    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.region]))

    def to_json(self) -> str:
        return json.dumps({"region": [list(side) for side in self.region],
                           "points": [list(p) for p in self.locations]})

    @classmethod
    def from_json(cls, text: str) -> "PointPattern":
        payload = json.loads(text)
        return cls(region=tuple(tuple(side) for side in payload["region"]),
                   locations=tuple(tuple(p) for p in payload["points"]))


@dataclass(frozen=True)
class IntensityModel:
    """theta-indexed intensity on a region, with its integral Lambda(theta)."""

    name: str
    region: tuple
    theta_grid: tuple
    rate: Callable                 # (theta, point) -> intensity >= 0
    cumulative: Callable | None = None   # closed-form Lambda(theta), if known
    max_rate: Callable | None = None     # theta -> sup of the intensity, the thinning bound

    def intensity(self, theta, point) -> float:
        value = self.rate(theta, point)
        if value < 0:
            raise ValueError("intensity must be nonnegative")
        return value

    def total(self, theta) -> float:
        """Lambda(theta) = integral of the intensity over the region."""
        if self.cumulative is not None:
            return float(self.cumulative(theta))
        if len(self.region) != 1:
            raise ValueError("quadrature fallback only supports 1-D regions")
        lo, hi = self.region[0]
        value, _ = quad(lambda s: self.rate(theta, (s,)), lo, hi, epsabs=1e-10, limit=200)
        return value

    @property
    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.region]))


def simulate_thinning(model: IntensityModel, theta, bound: float, seed) -> PointPattern:
    """Thinning sampler: uniform proposals at rate `bound`, kept w.p. rate/bound."""
    rng = np.random.default_rng(seed)
    volume = model.volume
    n_prop = rng.poisson(bound * volume)
    kept = []
    for _ in range(n_prop):
        point = tuple(rng.uniform(lo, hi) for lo, hi in model.region)
        lam = model.intensity(theta, point)
        if lam > bound:
            raise ValueError(f"thinning bound {bound} below intensity {lam} at {point}")
        if rng.uniform() < lam / bound:
            kept.append(point)
    return PointPattern(region=model.region, locations=tuple(kept))


def loglik_product_measure(model: IntensityModel, theta, pattern: PointPattern) -> float:
    """Log density against counting x Lebesgue on (N, s_1..s_N)."""
    total = model.total(theta)
    value = -math.lgamma(pattern.count + 1) - total
    for point in pattern.locations:
        lam = model.intensity(theta, point)
        if lam == 0.0:
            return NEG_INF
        value += math.log(lam)
    return value


def loglik_jacod(model: IntensityModel, theta, pattern: PointPattern) -> float:
    """Log density against the unit-rate Poisson-process law on the region."""
    total = model.total(theta)
    value = -(total - pattern.volume)
    for point in pattern.locations:
        lam = model.intensity(theta, point)
        if lam == 0.0:
            return NEG_INF
        value += math.log(lam)
    return value


def mle_intensity(model: IntensityModel, pattern: PointPattern,
                  measure_id: str = MEASURE_PRODUCT) -> frozenset[int]:
    """Grid argmax of the log likelihood against `measure_id`; ties as an index set."""
    return argmax_indices(likelihood_curve(pattern_model_family(model), measure_id, pattern))


def pattern_model_family(model: IntensityModel) -> ModelFamily:
    """Both likelihood routes bundled for curve and proportionality checks."""
    family = ModelFamily(model.theta_grid, SampleSpace(label="point-pattern"))
    family.register_kernel(
        MEASURE_PRODUCT, lambda ths, pat: [loglik_product_measure(model, th, pat) for th in ths])
    family.register_kernel(
        MEASURE_UNIT_POISSON, lambda ths, pat: [loglik_jacod(model, th, pat) for th in ths])
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
    value, _ = quad(lambda s: model.rate(theta, (s,)) / total, lo, hi,
                    epsabs=1e-10, limit=200)
    return value ** n


# -- catalog -----------------------------------------------------------------

def constant_intensity(theta_grid: Sequence[float], region=((0.0, 1.0),)) -> IntensityModel:
    region = tuple(tuple(side) for side in region)
    volume = float(np.prod([hi - lo for lo, hi in region]))
    return IntensityModel(name="constant", region=region, theta_grid=tuple(theta_grid),
                          rate=lambda c, s: float(c),
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

    def max_rate(theta):
        a, b = theta
        return math.exp(a + max(b * lo, b * hi)) + 1e-9

    return IntensityModel(name="loglinear", region=((lo, hi),), theta_grid=tuple(theta_grid),
                          rate=lambda th, s: math.exp(th[0] + th[1] * s[0]),
                          cumulative=cumulative, max_rate=max_rate)


def sinusoidal_intensity(theta_grid: Sequence[float], region=((0.0, 1.0),),
                         wobble: float = 0.5) -> IntensityModel:
    """lambda(s) = c (1 + wobble sin(2 pi s)) on a 1-D region, theta = c."""
    (lo, hi), = tuple(tuple(side) for side in region)
    two_pi = 2.0 * math.pi

    def cumulative(c):
        return c * ((hi - lo) + wobble * (math.cos(two_pi * lo) - math.cos(two_pi * hi)) / two_pi)

    return IntensityModel(name="sinusoidal", region=((lo, hi),), theta_grid=tuple(theta_grid),
                          rate=lambda c, s: c * (1.0 + wobble * math.sin(two_pi * s[0])),
                          cumulative=cumulative,
                          max_rate=lambda c: float(c) * (1.0 + abs(wobble)) + 1e-9)


INTENSITY_CATALOG = {
    "constant": constant_intensity,
    "loglinear": loglinear_intensity,
    "sinusoidal": sinusoidal_intensity,
}
