"""Exponential families: natural form, carrier tilting, base changes.

A family is stored through its natural parameter map, sufficient statistic,
log-partition (closed form or computed by summation/quadrature), and carrier
density h against a named base measure. Re-expressing the family against the
measure with density h (the carrier tilt) or against any other constructible
base changes only h; the natural structure is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

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
    # omega -> what T and log h read, once per kernel call; set by `iid_family`
    _prepare: Callable | None = field(init=False, default=None, repr=False, compare=False)

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

    T(omega) and log h(omega) are taken once for all thetas, and both read
    one `fam._prepare(omega)` when the family has it (an i.i.d. extension,
    which checks each draw). A single draw must not be NaN and, against a
    counting base, must be one of its atoms.
    """
    if fam._prepare is not None:
        omega = fam._prepare(omega)
    else:
        _check_draws(fam.base, [omega])
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
    a closed form, takes `fam.log_partition` as its own. The new carrier reads
    raw draws, so a copy of an i.i.d. extension checks each draw of the raw
    sample against the new base and hands the sample on unchanged."""
    changed = replace(fam, name=name, carrier=carrier, log_carrier_fn=None, base=base)
    object.__setattr__(changed, "_logpart_cache", fam._logpart_cache)
    if fam._prepare is not None:
        object.__setattr__(changed, "_prepare", lambda sample: _checked_sample(base, sample))
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
        tilted_base = DominatingMeasure.lebesgue("lambda-tilt", fam.base.region,
                                                 scale=fam.base.lebesgue_scale)
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


def _check_draws(base: DominatingMeasure, values: list) -> None:
    """Raise on a NaN draw, and on a draw that is not an atom of a counting base
    (naming the first such draw of `values`)."""
    if any(v != v for v in values):
        raise ValueError("draw is NaN")
    if base.kind == "counting":
        off = [v for v in values if v not in base.atoms]
        if off:
            raise ValueError(f"draw {off[0]!r} is not an atom of the counting base {base.id!r}")


def _checked_sample(base: DominatingMeasure, sample):
    """A raw i.i.d. sample, unchanged, once each of its draws passed `_check_draws`."""
    _check_draws(base, np.unique(np.asarray(sample, dtype=float)).tolist())
    return sample


class _Draws(NamedTuple):
    """An i.i.d. sample read once: its distinct values, and each draw's index among them."""
    values: list
    inverse: np.ndarray


def _distinct_draws(base: DominatingMeasure, sample, n: int) -> _Draws:
    """The checked distinct values of an n-draw sample against `base`."""
    draws = np.asarray(sample, dtype=float)
    if draws.shape != (n,):
        raise ValueError(f"sample of shape {draws.shape} for an {n}-draw i.i.d. family")
    values, inverse = np.unique(draws, return_inverse=True)
    values = values.tolist()
    _check_draws(base, values)
    return _Draws(values, inverse)


def _sum_in_draw_order(terms: np.ndarray) -> np.ndarray:
    """0.0 + terms[0] + terms[1] + ... along axis 0, the bits of a Python loop."""
    return np.cumsum(np.concatenate((np.zeros((1, *terms.shape[1:])), terms)), axis=0)[-1]


def iid_family(fam: ExponentialFamily, n: int) -> ExponentialFamily:
    """n-fold i.i.d. extension: statistics add, carriers multiply.

    The extension is a density against the n-fold product of `fam.base`;
    it keeps `fam.base` as its base, which stands for that product. Its
    statistic and log carrier call `fam`'s once per distinct draw and add
    the per-draw terms in draw order. They take a raw sample or its `_Draws`,
    which `log_densities` makes once per kernel call.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def draws(sample) -> _Draws:
        return sample if isinstance(sample, _Draws) else _distinct_draws(fam.base, sample, n)

    def stat(sample):
        values, inverse = draws(sample)
        per_value = np.array([np.atleast_1d(np.asarray(fam.sufficient_stat(w), dtype=float))
                              for w in values])
        return _sum_in_draw_order(per_value[inverse])

    def log_carrier(sample):
        values, inverse = draws(sample)
        per_value = np.array([fam.log_carrier(w) for w in values], dtype=float)
        if (per_value == NEG_INF).any():
            return NEG_INF
        return float(_sum_in_draw_order(per_value[inverse]))

    if fam.closed_form_logpart is not None:
        logpart = lambda theta: n * fam.closed_form_logpart(theta)
    else:
        logpart = lambda theta: n * fam.log_partition(theta)
    iid = ExponentialFamily(name=f"{fam.name}-iid{n}", natural_param=fam.natural_param,
                            sufficient_stat=stat,
                            carrier=lambda sample: math.exp(log_carrier(sample)),
                            base=fam.base, theta_grid=fam.theta_grid,
                            closed_form_logpart=logpart, log_carrier_fn=log_carrier)
    object.__setattr__(iid, "_prepare", draws)
    return iid


def as_model_family(base_fam: ExponentialFamily,
                    *named_variants: tuple[str, ExponentialFamily]) -> ModelFamily:
    """Bundle a base family and re-expressed variants into one ModelFamily."""
    model = ModelFamily(base_fam.theta_grid, SampleSpace(label=base_fam.name))
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


def poisson_family(theta_grid: Sequence[float]) -> ExponentialFamily:
    """Poisson with eta = log(theta), T = x, h = 1/x! on the counts 0..170."""
    return ExponentialFamily(
        name="poisson",
        natural_param=lambda th: np.array([math.log(th)]),
        sufficient_stat=lambda x: np.array([float(x)]),
        carrier=lambda x: math.exp(-math.lgamma(x + 1)),
        base=DominatingMeasure.counting("counting-0..170", tuple(range(171))),
        theta_grid=tuple(theta_grid),
        closed_form_logpart=lambda th: float(th),
    )


def gaussian_known_var_family(theta_grid: Sequence[float]) -> ExponentialFamily:
    """Gaussian mean family with unit variance on the window [-40, 40]."""
    return ExponentialFamily(
        name="gaussian-known-var",
        natural_param=lambda th: np.array([float(th)]),
        sufficient_stat=lambda x: np.array([float(x)]),
        carrier=lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
        base=DominatingMeasure.lebesgue("lebesgue-window", (-40.0, 40.0)),
        theta_grid=tuple(theta_grid),
        closed_form_logpart=lambda th: th * th / 2.0,
    )


EXPFAM_CATALOG = {
    "bernoulli": bernoulli_family,
    "poisson": poisson_family,
    "gaussian": gaussian_known_var_family,
}
