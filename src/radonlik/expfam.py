"""Exponential families: natural form, carrier tilting, base changes.

A family is stored through its natural parameter map, sufficient statistic,
log-partition (closed form or computed by summation/quadrature), and carrier
density h against a named base measure. Re-expressing the family against the
measure with density h (the carrier tilt) or against any other constructible
base changes only h; the natural structure is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import logsumexp

from .likelihood import NEG_INF, ModelFamily, SampleSpace
from .measures import DominatingMeasure

# Exponent guard: linear-domain partial sums above this are treated as divergent.
_MAX_EXPONENT = math.log(1e300)


class DivergentNormalizerError(ArithmeticError):
    """Raised when the normalizer exceeds the overflow guard."""


@dataclass(frozen=True)
class ExponentialFamily:
    """Density exp{eta(theta) . T(omega) - logpart(theta)} h(omega) d(base)."""

    name: str
    natural_param: Callable      # theta -> ndarray of shape (p,)
    sufficient_stat: Callable    # omega -> ndarray of shape (p,)
    carrier: Callable            # h: omega -> [0, inf)
    base: DominatingMeasure
    theta_grid: tuple
    closed_form_logpart: Callable | None = None   # theta -> float, when known
    log_carrier_fn: Callable | None = None        # log h, for products of carriers

    def __post_init__(self):
        object.__setattr__(self, "_logpart_cache", {})

    def log_carrier(self, omega) -> float:
        if self.log_carrier_fn is not None:
            return self.log_carrier_fn(omega)
        h = self.carrier(omega)
        if h < 0:
            raise ValueError("carrier h must be nonnegative")
        return math.log(h) if h > 0 else NEG_INF

    def log_partition(self, theta) -> float:
        """Log normalizer, cached per theta; computed when no closed form."""
        cache = self._logpart_cache
        if theta not in cache:
            if self.closed_form_logpart is not None:
                cache[theta] = float(self.closed_form_logpart(theta))
            else:
                cache[theta] = compute_log_partition(self, theta)
        return cache[theta]


def log_densities(fam: ExponentialFamily, thetas: Sequence, omega) -> np.ndarray:
    """eta(theta) . T(omega) - logpart(theta) + log h(omega) for each theta.

    T(omega) and log h(omega) are taken once for all thetas.
    """
    lh = fam.log_carrier(omega)
    if lh == NEG_INF:
        return np.full(len(thetas), NEG_INF)
    t = np.atleast_1d(np.asarray(fam.sufficient_stat(omega), dtype=float))
    return np.array([
        float(np.atleast_1d(np.asarray(fam.natural_param(theta), dtype=float)) @ t)
        - fam.log_partition(theta) + lh
        for theta in thetas])


def log_density(fam: ExponentialFamily, theta, omega) -> float:
    """The one-theta case of `log_densities`."""
    return float(log_densities(fam, (theta,), omega)[0])


def compute_log_partition(fam: ExponentialFamily, theta) -> float:
    """Normalizer via exact atom sums or adaptive quadrature on a 1-D region.

    Works in log domain; an exponent beyond the linear-domain overflow guard
    signals a divergent normalizer.
    """
    eta = np.atleast_1d(np.asarray(fam.natural_param(theta), dtype=float))

    def exponent(omega) -> float:
        t = np.atleast_1d(np.asarray(fam.sufficient_stat(omega), dtype=float))
        return float(eta @ t) + fam.log_carrier(omega)

    base = fam.base
    if base.kind == "counting":
        exps = [exponent(a) + math.log(w) for a, w in zip(base.atoms, base.atom_weights)
                if w > 0]
        exps = [e for e in exps if e != NEG_INF]
        if not exps:
            raise ValueError("normalizer is zero: carrier vanishes on every atom")
        if max(exps) > _MAX_EXPONENT:
            raise DivergentNormalizerError(f"normalizer exponent {max(exps):.3g} beyond guard")
        return float(logsumexp(exps))
    if base.kind == "lebesgue":
        lo, hi = base.region
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("computed normalizer needs a bounded region")
        probe = np.linspace(lo, hi, 257)
        shift = max(exponent(x) for x in probe)
        if shift > _MAX_EXPONENT:
            raise DivergentNormalizerError(f"normalizer exponent {shift:.3g} beyond guard")

        def integrand(x):
            e = exponent(x)
            return math.exp(e - shift) if e != NEG_INF else 0.0

        value, _ = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400)
        if value <= 0:
            raise ValueError("normalizer is zero on the region")
        return shift + math.log(value) + math.log(base.lebesgue_scale)
    raise ValueError(f"normalizer not computable against base kind {base.kind!r}")


def _with_carrier(fam: ExponentialFamily, name: str, carrier: Callable,
                  base: DominatingMeasure) -> ExponentialFamily:
    """`fam` with a new carrier against a new base. The normalizer is a property
    of the model, not of the base: the copy shares `fam`'s cache and, without
    a closed form, takes `fam.log_partition` as its own."""
    changed = replace(fam, name=name, carrier=carrier, log_carrier_fn=None, base=base)
    object.__setattr__(changed, "_logpart_cache", fam._logpart_cache)
    if fam.closed_form_logpart is None:
        object.__setattr__(changed, "closed_form_logpart", fam.log_partition)
    return changed


def tilt_to_lambda(fam: ExponentialFamily) -> ExponentialFamily:
    """Re-express the family against the measure with density h: the carrier
    drops out of the kernel. Registered under measure id 'lambda-tilt'."""
    if fam.base.kind == "counting":
        weights = tuple(w * fam.carrier(a) for a, w in zip(fam.base.atoms, fam.base.atom_weights))
        tilted_base = DominatingMeasure.counting("lambda-tilt", fam.base.atoms, weights)
    else:
        tilted_base = DominatingMeasure(id="lambda-tilt", kind=fam.base.kind,
                                        region=fam.base.region,
                                        lebesgue_scale=fam.base.lebesgue_scale)
    return _with_carrier(fam, f"{fam.name}-lambda-tilt", lambda omega: 1.0, tilted_base)


def change_dominating_measure(fam: ExponentialFamily, new_base: DominatingMeasure,
                              mixture_density_new: Callable,
                              mixture_density_old: Callable) -> ExponentialFamily:
    """Carrier against a new base via the minimal-mixture route.

    Given q = dQ/d(old base) and s = dQ/d(new base) for a mixture Q that the
    family dominates through, the new carrier is h * s / q. Natural parameter,
    sufficient statistic and normalizer are untouched.
    """

    def new_carrier(omega):
        q = mixture_density_old(omega)
        s = mixture_density_new(omega)
        h = fam.carrier(omega)
        if q == 0.0:
            if s == 0.0 and h == 0.0:
                return 0.0
            raise ZeroDivisionError(
                "mixture density against the old base vanishes at a point of positive new-base mass")
        return h * s / q

    return _with_carrier(fam, f"{fam.name}@{new_base.id}", new_carrier, new_base)


def iid_family(fam: ExponentialFamily, n: int) -> ExponentialFamily:
    """n-fold i.i.d. extension: statistics add, carriers multiply.

    The extension is a density against the n-fold product of `fam.base`;
    it keeps `fam.base` as its base, which stands for that product.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def stat(sample):
        return sum(np.atleast_1d(np.asarray(fam.sufficient_stat(w), dtype=float))
                   for w in sample)

    def log_carrier(sample):
        total = 0.0
        for w in sample:
            lw = fam.log_carrier(w)
            if lw == NEG_INF:
                return NEG_INF
            total += lw
        return total

    if fam.closed_form_logpart is not None:
        logpart = lambda theta: n * fam.closed_form_logpart(theta)
    else:
        logpart = lambda theta: n * fam.log_partition(theta)
    return ExponentialFamily(name=f"{fam.name}-iid{n}", natural_param=fam.natural_param,
                             sufficient_stat=stat,
                             carrier=lambda sample: math.exp(log_carrier(sample)),
                             base=fam.base, theta_grid=fam.theta_grid,
                             closed_form_logpart=logpart, log_carrier_fn=log_carrier)


def as_model_family(base_fam: ExponentialFamily, *named_variants: tuple[str, ExponentialFamily],
                    sample_space: SampleSpace | None = None) -> ModelFamily:
    """Bundle a base family and re-expressed variants into one ModelFamily."""
    space = sample_space if sample_space is not None else SampleSpace(label=base_fam.name)
    model = ModelFamily(base_fam.theta_grid, space)
    for measure_id, variant in (("base", base_fam), *named_variants):
        model.register_kernel(measure_id, lambda ths, w, _v=variant: log_densities(_v, ths, w))
    return model


# -- catalog -----------------------------------------------------------------

def bernoulli_family(theta_grid: Sequence[float]) -> ExponentialFamily:
    """Bernoulli in natural form: eta = logit(theta), T = x, h = 1."""
    base = DominatingMeasure.counting("counting-01", (0, 1))
    return ExponentialFamily(
        name="bernoulli",
        natural_param=lambda th: np.array([math.log(th / (1.0 - th))]),
        sufficient_stat=lambda x: np.array([float(x)]),
        carrier=lambda x: 1.0,
        base=base,
        theta_grid=tuple(theta_grid),
        closed_form_logpart=lambda th: math.log1p(math.exp(math.log(th / (1.0 - th)))),
    )


def poisson_family(theta_grid: Sequence[float], truncation: int | None = None) -> ExponentialFamily:
    """Poisson with eta = log(theta), T = x, h = 1/x!; optionally truncated."""
    k = truncation if truncation is not None else 170
    base = DominatingMeasure.counting(f"counting-0..{k}", tuple(range(k + 1)))
    closed = None
    if truncation is None:
        closed = lambda th: float(th)

    def carrier(x):
        if truncation is not None and x > truncation:
            return 0.0
        return math.exp(-math.lgamma(x + 1))

    return ExponentialFamily(
        name="poisson" if truncation is None else f"poisson-trunc{truncation}",
        natural_param=lambda th: np.array([math.log(th)]),
        sufficient_stat=lambda x: np.array([float(x)]),
        carrier=carrier,
        base=base,
        theta_grid=tuple(theta_grid),
        closed_form_logpart=closed,
    )


def gaussian_known_var_family(theta_grid: Sequence[float], sigma: float = 1.0,
                              halfwidth: float = 40.0) -> ExponentialFamily:
    """Gaussian mean family with known variance on a wide bounded window."""
    s2 = sigma * sigma
    base = DominatingMeasure.lebesgue("lebesgue-window", (-halfwidth, halfwidth))
    return ExponentialFamily(
        name="gaussian-known-var",
        natural_param=lambda th: np.array([th / s2]),
        sufficient_stat=lambda x: np.array([float(x)]),
        carrier=lambda x: math.exp(-x * x / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2),
        base=base,
        theta_grid=tuple(theta_grid),
        closed_form_logpart=lambda th: th * th / (2.0 * s2),
    )


EXPFAM_CATALOG = {
    "bernoulli": bernoulli_family,
    "poisson": poisson_family,
    "gaussian": gaussian_known_var_family,
}
