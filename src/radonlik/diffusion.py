"""Diffusion pseudo-likelihood via unit-diffusion transform and bridges.

Distinct diffusion coefficients give mutually singular path laws, so no
likelihood exists on raw paths across theta. The working decomposition keeps
the discrete observations and re-expresses the path between them as bridges
pinned to zero, which are dominated by the standard Brownian-bridge law.
All path-space integrals are trapezoid sums on uniform grids; that is an
implementation device approximating the continuous-time objects.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .likelihood import NEG_INF, LogLikelihoodCurve, ModelFamily, SampleSpace, argmax_indices

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

MEASURE_OBS_BRIDGE = "obs-bridge-product"
MEASURE_OBS_BRIDGE_TILTED = "obs-bridge-tilted"


@dataclass(frozen=True)
class SDESpec:
    """dY = a(Y, theta) dt + sigma(Y, theta) dW on a state interval.

    Closed forms for the space transform, its inverse, the unit-diffusion
    drift, its x-derivative, and the drift integral may be supplied; generic
    quadrature / bracketing routes are used otherwise. sigma must stay
    bounded away from zero on the working interval.
    """

    name: str
    drift: Callable              # a(y, theta)
    sigma: Callable              # sigma(y, theta) > 0
    dsigma_dy: Callable          # d sigma / d y, closed form
    state: tuple[float, float]
    base_point: float
    eta: Callable | None = None          # closed-form transform
    eta_inv: Callable | None = None      # closed-form inverse, vectorized in x
    alpha_fn: Callable | None = None     # closed-form unit-diffusion drift (x, theta)
    dalpha_dx: Callable | None = None    # closed-form d alpha / d x
    drift_integral_fn: Callable | None = None   # closed-form A(u, theta)


@dataclass(frozen=True)
class ObservationSet:
    """Strictly increasing observation times with values, all finite."""

    times: tuple
    values: tuple

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if len(self.times) < 2:
            raise ValueError("need at least two observations")
        if not all(math.isfinite(v) for v in (*self.times, *self.values)):
            raise ValueError("times and values must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1


def observations_from_csv(path) -> ObservationSet:
    """Read (t, y) rows; a leading header row is tolerated."""
    times, values = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                t, y = float(row[0]), float(row[1])
            except ValueError:
                continue  # header
            times.append(t)
            values.append(y)
    return ObservationSet(times=tuple(times), values=tuple(values))


def observations_to_csv(obs: ObservationSet, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        for t, y in zip(obs.times, obs.values):
            writer.writerow([repr(t), repr(y)])


@dataclass(frozen=True)
class TransformedObservations:
    """Observation values pushed through the space transform at one theta.

    The transform is strictly increasing in y (sigma > 0), so the transformed
    values preserve the ordering of ties-free observations; violations signal
    a broken sigma.
    """

    theta: object
    values: tuple

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("need at least two transformed observations")


def transform_observations(spec: "SDESpec", obs: "ObservationSet", theta) -> TransformedObservations:
    x = tuple(lamperti(spec, y, theta) for y in obs.values)
    pairs = sorted(zip(obs.values, x))
    for (y1, x1), (y2, x2) in zip(pairs, pairs[1:]):
        if y1 < y2 and not x1 < x2:
            raise ValueError("space transform is not strictly increasing; check sigma")
    return TransformedObservations(theta=theta, values=x)


@dataclass(frozen=True)
class BridgeSegment:
    """Zero-pinned path values on a uniform grid over one interval."""

    t0: float
    t1: float
    values: np.ndarray   # shape (m + 1,), endpoints exactly 0

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    @property
    def step(self) -> float:
        return (self.t1 - self.t0) / self.n_steps


@dataclass(frozen=True)
class BridgeSet:
    segments: tuple

    def __post_init__(self):
        for seg in self.segments:
            if seg.values[0] != 0.0 or seg.values[-1] != 0.0:
                raise ValueError("bridge segments must start and end at exactly 0")


# -- space transform ----------------------------------------------------------

def lamperti(spec: SDESpec, y_val: float, theta) -> float:
    """Space transform x = integral of 1/sigma from the base point to y."""
    lo, hi = spec.state
    if not lo <= y_val <= hi:
        raise ValueError(f"value {y_val} outside state interval {spec.state}")
    if spec.eta is not None:
        return float(spec.eta(y_val, theta))
    value, _ = quad(lambda u: 1.0 / spec.sigma(u, theta), spec.base_point, y_val,
                    epsabs=1e-12, limit=400)
    return value


def lamperti_derivative(spec: SDESpec, y_val: float, theta) -> float:
    return 1.0 / spec.sigma(y_val, theta)


def invert_lamperti(spec: SDESpec, x_val, theta):
    """Monotone inversion of the transform; closed form when registered."""
    if spec.eta_inv is not None:
        return spec.eta_inv(x_val, theta)
    if np.ndim(x_val) > 0:
        return np.array([invert_lamperti(spec, float(x), theta) for x in np.ravel(x_val)]
                        ).reshape(np.shape(x_val))

    def f(u):
        return lamperti(spec, u, theta) - x_val

    lo, hi = spec.state
    a = b = spec.base_point
    step = 1.0
    while f(a) > 0.0:
        a = max(lo + 1e-12 if math.isfinite(lo) else a - step, a - step)
        step *= 2.0
        if step > 1e12:
            raise ValueError("bracket search failed on the lower side")
    step = 1.0
    while f(b) < 0.0:
        b = min(hi - 1e-12 if math.isfinite(hi) else b + step, b + step)
        step *= 2.0
        if step > 1e12:
            raise ValueError("bracket search failed on the upper side")
    if a == b:
        return a
    return brentq(f, a, b, xtol=1e-12)


def unit_drift(spec: SDESpec, x_val, theta):
    """Drift of the transformed unit-diffusion process at x.

    With u the preimage of x, alpha(x) = a(u)/sigma(u) - sigma'(u)/2; this is
    the standard drift of the unit-diffusion process obtained from the space
    transform.
    """
    if spec.alpha_fn is not None:
        return spec.alpha_fn(x_val, theta)
    u = invert_lamperti(spec, x_val, theta)
    return spec.drift(u, theta) / spec.sigma(u, theta) - 0.5 * spec.dsigma_dy(u, theta)


def unit_drift_derivative(spec: SDESpec, x_val, theta, h: float = 1e-5):
    if spec.dalpha_dx is not None:
        return spec.dalpha_dx(x_val, theta)
    return (unit_drift(spec, x_val + h, theta) - unit_drift(spec, x_val - h, theta)) / (2.0 * h)


def drift_integral(spec: SDESpec, u: float, theta) -> float:
    """A(u) = integral of the unit-diffusion drift from 0 to u."""
    if spec.drift_integral_fn is not None:
        return float(spec.drift_integral_fn(u, theta))
    if u == 0.0:
        return 0.0
    value, _ = quad(lambda z: float(unit_drift(spec, z, theta)), 0.0, u,
                    epsabs=1e-12, limit=400)
    return value


# -- bridges -------------------------------------------------------------------

def remove_linear(values: np.ndarray, x0: float, x1: float) -> np.ndarray:
    """Subtract the endpoint interpolation; exact zeros at matching endpoints."""
    values = np.asarray(values, dtype=float)
    frac = np.linspace(0.0, 1.0, len(values))
    return values - (1.0 - frac) * x0 - frac * x1


def add_linear(values: np.ndarray, x0: float, x1: float) -> np.ndarray:
    """Inverse of remove_linear."""
    values = np.asarray(values, dtype=float)
    frac = np.linspace(0.0, 1.0, len(values))
    return values + (1.0 - frac) * x0 + frac * x1


def sample_brownian_bridge(length: float, step: float, seed) -> np.ndarray:
    """Standard Brownian bridge on a uniform grid; endpoints exactly 0."""
    if length <= 0 or step <= 0:
        raise ValueError("length and step must be positive")
    m = round(length / step)
    if m < 1 or abs(m * step - length) > 1e-12 * max(1.0, length):
        raise ValueError(f"step {step} does not divide interval length {length}")
    rng = np.random.default_rng(seed)
    return _bridge_rows(rng, 1, m, length / m)[0]


def _bridge_rows(rng, rows: int, m: int, dt: float) -> np.ndarray:
    """(rows, m + 1) standard bridges: Brownian paths pinned back to zero."""
    walk = rng.standard_normal(out=np.empty((rows, m)))
    return _pin_walk(walk, math.sqrt(dt), np.linspace(0.0, 1.0, m + 1),
                     np.empty((rows, m + 1)))


def _pin_walk(walk: np.ndarray, scale: float, frac: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Fill `out` (rows, m + 1) with standard bridges from the standard
    normals in `walk` (rows, m), in place.

    `walk` receives the scaled increments and their cumsum; the walk is then
    pinned back to zero, out = walk - frac * walk[:, -1] after a leading
    zero column, with both ends exactly 0.
    """
    np.multiply(walk, scale, out=walk)
    np.cumsum(walk, axis=1, out=walk)
    tail = out[:, 1:]
    np.multiply(frac[1:], walk[:, -1:], out=tail)
    np.subtract(walk, tail, out=tail)
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return out


def sample_bridge_set(times: Sequence[float], n_steps: int, seed) -> BridgeSet:
    """One standard bridge per observation interval, seeded per interval."""
    segments = []
    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        rng = np.random.default_rng([_seed_int(seed), i])
        values = _bridge_rows(rng, 1, n_steps, (t1 - t0) / n_steps)[0]
        segments.append(BridgeSegment(t0=t0, t1=t1, values=values))
    return BridgeSet(segments=tuple(segments))


def _seed_int(seed) -> int:
    return int(seed) if np.isscalar(seed) else int(seed[0])


# -- joint density of observations and bridges ---------------------------------

def obs_bridge_log_density(spec: SDESpec, obs: ObservationSet, bridges: BridgeSet,
                           theta) -> float:
    """Joint log pseudo-density of (observations, zero-pinned bridges).

    Per interval: the transform Jacobian at the right endpoint, the standard
    Gaussian density of the standardized transformed increment, and the
    drift correction exp{A(x_n) - A(x_0) - integral of (alpha^2 + alpha')/2
    along the de-pinned path}, the integral by trapezoid on the bridge grid.
    """
    if len(bridges.segments) != obs.n_intervals:
        raise ValueError("bridge set must cover every observation interval")
    x = transform_observations(spec, obs, theta).values
    value = 0.0
    for i in range(1, len(obs.values)):
        dt = obs.times[i] - obs.times[i - 1]
        z = (x[i] - x[i - 1]) / math.sqrt(dt)
        value += math.log(lamperti_derivative(spec, obs.values[i], theta))
        value += -0.5 * z * z - LOG_SQRT_2PI
    value += drift_integral(spec, x[-1], theta) - drift_integral(spec, x[0], theta)
    for i, seg in enumerate(bridges.segments):
        path = add_linear(seg.values, x[i], x[i + 1])
        alpha = np.asarray(unit_drift(spec, path, theta), dtype=float)
        alpha_prime = np.asarray(unit_drift_derivative(spec, path, theta), dtype=float)
        integrand = 0.5 * (alpha * alpha + alpha_prime)
        value -= float(np.trapezoid(integrand, dx=seg.step))
    return value


def bridge_tilt_log_weight(obs: ObservationSet, bridges: BridgeSet) -> float:
    """A fixed positive theta-free functional of the data and bridges, used
    as the density of an alternative tilted reference measure."""
    total = sum(abs(b - a) for a, b in zip(obs.values, obs.values[1:]))
    for seg in bridges.segments:
        total += 0.5 * float(np.mean(seg.values ** 2))
    return total


def diffusion_model_family(spec: SDESpec, theta_grid: Sequence) -> ModelFamily:
    """Joint kernel and its theta-free tilted variant over (obs, bridges)."""
    family = ModelFamily(theta_grid, SampleSpace(label="obs-and-bridges"))

    def joint(thetas, ob):
        return np.array([obs_bridge_log_density(spec, ob[0], ob[1], th) for th in thetas])

    family.register_kernel(MEASURE_OBS_BRIDGE, joint)
    family.register_kernel(MEASURE_OBS_BRIDGE_TILTED,
                           lambda ths, ob: joint(ths, ob) - bridge_tilt_log_weight(ob[0], ob[1]))
    return family


# -- Monte Carlo transition density --------------------------------------------

# Target size of one row block's (rows, m + 1) buffer in the bridge MC
# pipeline. A chunk is processed in row blocks of this size, so the few
# buffers a block works through stay in L2 instead of streaming through memory.
_BLOCK_BYTES = 512 * 1024

# Rows per accounting chunk: weights are summed per chunk, so the chunk
# size is part of what fixes an estimate's bits.
_CHUNK_ROWS = 2048


def _mc_steps(t: float, step: float, n_replicates: int) -> int:
    """Number of trapezoid steps on [0, t]; checks the replicate floor."""
    if n_replicates < 100:
        raise ValueError("need at least 100 replicates")
    m = round(t / step)
    if m < 1 or abs(m * step - t) > 1e-9 * max(1.0, t):
        raise ValueError(f"step {step} does not divide t {t}")
    return m


def _bridge_weight_sums(spec: SDESpec, ends: tuple, t: float, m: int, n_replicates: int,
                        seed, chunk: int) -> list[tuple[float, float]]:
    """Sums of the drift-correction weights and of their squares, per theta.

    `ends` holds (theta, x0, x1) triples. Every theta is weighed against the
    same pinned Brownian bridges, drawn once from `seed`; a theta's result
    is the one a separate run with that seed gives. Each chunk of `chunk`
    rows goes through the pipeline in row blocks with preallocated buffers:
    draw, scale, cumsum, pin, add the base line, integrand, trapezoid and
    weight. Weights are summed per chunk, in chunk order.

    When there is more than one block, one worker thread draws block j + 1's
    normals into the second of two walk buffers while this thread pins and
    weighs block j (numpy releases the GIL while it fills). Block j's draw is
    collected before block j + 1's is submitted, so the generator is used in
    the same order as inline draws and the result does not depend on
    scheduling. The worker lives for this call only, and a call with a
    single block draws it inline and starts no thread.
    """
    dt = t / m
    scale = math.sqrt(dt)
    frac = np.linspace(0.0, 1.0, m + 1)
    lines = [x0 + frac * (x1 - x0) for _, x0, x1 in ends]
    shifts = [drift_integral(spec, x1, th) - drift_integral(spec, x0, th) for th, x0, x1 in ends]
    width = min(chunk, n_replicates)
    block = max(1, min(width, _BLOCK_BYTES // (8 * (m + 1))))
    chunks = [min(chunk, n_replicates - done) for done in range(0, n_replicates, chunk)]
    sizes = [min(block, rows - lo) for rows in chunks for lo in range(0, rows, block)]
    walks = [np.empty((block, m)) for _ in range(min(2, len(sizes)))]
    bridge = np.empty((block, m + 1))
    path = np.empty((block, m + 1)) if len(ends) > 1 else bridge
    integrand = np.empty((block, m + 1))
    weights = np.empty((len(ends), width))
    totals = [0.0] * len(ends)
    squares = [0.0] * len(ends)
    rng = np.random.default_rng(seed)

    def draw(j):
        return rng.standard_normal(out=walks[j % 2][:sizes[j]])

    j, ahead = 0, None
    with ThreadPoolExecutor(max_workers=1) as pool:   # starts its thread at the first submit
        for rows in chunks:
            for lo in range(0, rows, block):
                walk = draw(j) if ahead is None else ahead.result()
                j += 1
                ahead = pool.submit(draw, j) if j < len(sizes) else None
                b = len(walk)
                _pin_walk(walk, scale, frac, bridge[:b])
                for k, (theta, _, _) in enumerate(ends):
                    p, y, trap, w = path[:b], integrand[:b], walk, weights[k, lo:lo + b]
                    np.add(bridge[:b], lines[k], out=p)
                    alpha = np.asarray(unit_drift(spec, p, theta), dtype=float)
                    alpha_prime = np.asarray(unit_drift_derivative(spec, p, theta), dtype=float)
                    np.multiply(alpha, alpha, out=y)
                    np.add(y, alpha_prime, out=y)
                    np.multiply(y, 0.5, out=y)
                    # np.trapezoid(y, dx=dt, axis=1), operation for operation;
                    # the walk buffer is free once the bridges are pinned
                    np.add(y[:, 1:], y[:, :-1], out=trap)
                    np.multiply(trap, dt, out=trap)
                    np.divide(trap, 2.0, out=trap)
                    np.add.reduce(trap, axis=1, out=w)
                    np.subtract(shifts[k], w, out=w)
                    np.exp(w, out=w)
            for k, w in enumerate(weights[:, :rows]):
                totals[k] += float(np.sum(w))
                squares[k] += float(np.sum(w * w))
    return list(zip(totals, squares))


def _density_from_sums(total: float, total_sq: float, n_replicates: int, t: float,
                       x0: float, x1: float) -> tuple[float, float]:
    """(estimate, standard error): the free Gaussian density times the mean
    weight, and its SE from the sample variance of the weights."""
    mean = total / n_replicates
    var = max(0.0, (total_sq - n_replicates * mean * mean) / (n_replicates - 1))
    z = (x1 - x0) / math.sqrt(t)
    prefactor = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi * t)
    return prefactor * mean, prefactor * math.sqrt(var / n_replicates)


def transition_density_mc(spec: SDESpec, theta, t: float, x0: float, x1: float,
                          n_replicates: int, step: float, seed,
                          chunk: int = _CHUNK_ROWS) -> tuple[float, float]:
    """Transition density of the unit-diffusion process by bridge sampling.

    Returns (estimate, standard error). The estimate is the free Gaussian
    density times the average drift-correction weight along pinned Brownian
    paths from x0 to x1; replicates accumulate in fixed chunk order.
    """
    m = _mc_steps(t, step, n_replicates)
    [(total, total_sq)] = _bridge_weight_sums(spec, ((theta, x0, x1),), t, m, n_replicates,
                                              seed, chunk)
    return _density_from_sums(total, total_sq, n_replicates, t, x0, x1)


def mle_theta(spec: SDESpec, obs: ObservationSet, theta_grid: Sequence,
              n_replicates: int, step_fraction: float, seed) -> tuple[frozenset[int], list[float]]:
    """Grid argmax of the MC observed-data log likelihood.

    Bridge noise is seeded per interval only, so all grid points see common
    random numbers: each interval's bridges are drawn once and shared by
    every theta, and each theta's term equals `transition_density_mc` at
    seed [seed, interval]. step_fraction scales the trapezoid step relative
    to each interval length. Returns (argmax index set, log-likelihood curve).
    """
    theta_grid = tuple(theta_grid)
    if not theta_grid:
        raise ValueError("theta grid must be non-empty")
    x = [transform_observations(spec, obs, theta).values for theta in theta_grid]
    curve = [0.0] * len(theta_grid)
    for i in range(obs.n_intervals):
        live = [k for k, loglik in enumerate(curve) if loglik != NEG_INF]
        if not live:
            break
        dt_i = obs.times[i + 1] - obs.times[i]
        m = _mc_steps(dt_i, dt_i * step_fraction, n_replicates)
        ends = tuple((theta_grid[k], x[k][i], x[k][i + 1]) for k in live)
        sums = _bridge_weight_sums(spec, ends, dt_i, m, n_replicates,
                                   [_seed_int(seed), i], _CHUNK_ROWS)
        for k, (theta, x0, x1), (total, total_sq) in zip(live, ends, sums):
            est, _ = _density_from_sums(total, total_sq, n_replicates, dt_i, x0, x1)
            if est <= 0.0:
                curve[k] = NEG_INF
                continue
            curve[k] += math.log(est)
            curve[k] += math.log(lamperti_derivative(spec, obs.values[i + 1], theta))
    indices = argmax_indices(LogLikelihoodCurve("mc-observed-data", "obs", theta_grid,
                                                tuple(curve)))
    return indices, curve


# -- catalog --------------------------------------------------------------------

def ou_spec(sigma0: float = 1.0) -> SDESpec:
    """Mean-reverting drift -theta y with constant diffusion sigma0."""
    return SDESpec(
        name="ou",
        drift=lambda y, th: -th * y,
        sigma=lambda y, th: sigma0,
        dsigma_dy=lambda y, th: 0.0,
        state=(-math.inf, math.inf),
        base_point=0.0,
        eta=lambda y, th: y / sigma0,
        eta_inv=lambda x, th: sigma0 * x,
        alpha_fn=lambda x, th: -th * x,
        dalpha_dx=lambda x, th: -th + 0.0 * x,
        drift_integral_fn=lambda u, th: -0.5 * th * u * u,
    )


def brownian_drift_spec() -> SDESpec:
    """Constant drift theta with unit diffusion."""
    return SDESpec(
        name="brownian-drift",
        drift=lambda y, th: th,
        sigma=lambda y, th: 1.0,
        dsigma_dy=lambda y, th: 0.0,
        state=(-math.inf, math.inf),
        base_point=0.0,
        eta=lambda y, th: y,
        eta_inv=lambda x, th: x,
        alpha_fn=lambda x, th: th + 0.0 * x,
        dalpha_dx=lambda x, th: 0.0 * x,
        drift_integral_fn=lambda u, th: th * u,
    )


def logistic_spec() -> SDESpec:
    """Logistic-type drift theta y (1 - y) with multiplicative sigma(u) = u."""
    return SDESpec(
        name="logistic",
        drift=lambda y, th: th * y * (1.0 - y),
        sigma=lambda y, th: y,
        dsigma_dy=lambda y, th: 1.0,
        state=(1e-9, math.inf),
        base_point=1.0,
        eta=lambda y, th: math.log(y),
        eta_inv=lambda x, th: np.exp(x),
        alpha_fn=lambda x, th: th * (1.0 - np.exp(x)) - 0.5,
        dalpha_dx=lambda x, th: -th * np.exp(x),
        drift_integral_fn=lambda u, th: th * (u - math.exp(u) + 1.0) - 0.5 * u,
    )


SDE_CATALOG = {
    "ou": ou_spec,
    "brownian-drift": brownian_drift_spec,
    "logistic": logistic_spec,
}


def ou_exact_transition_density(theta: float, t: float, x0: float, x1: float) -> float:
    """Closed-form transition density of the unit-diffusion mean-reverting
    process, the oracle for the MC estimator."""
    mean = x0 * math.exp(-theta * t)
    var = (1.0 - math.exp(-2.0 * theta * t)) / (2.0 * theta)
    z = (x1 - mean) / math.sqrt(var)
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi * var)


def simulate_ou(theta: float, x0: float, times: Sequence[float], seed) -> ObservationSet:
    """Exact sampling along the given times using the transition density."""
    rng = np.random.default_rng(seed)
    values = [float(x0)]
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        mean = values[-1] * math.exp(-theta * dt)
        var = (1.0 - math.exp(-2.0 * theta * dt)) / (2.0 * theta)
        values.append(float(mean + math.sqrt(var) * rng.standard_normal()))
    return ObservationSet(times=tuple(float(t) for t in times), values=tuple(values))
