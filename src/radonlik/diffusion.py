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

from .likelihood import NEG_INF, LogLikelihoodCurve, ModelFamily, SampleSpace, argmax_indices

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

MEASURE_OBS_BRIDGE = "obs-bridge-product"
MEASURE_OBS_BRIDGE_TILTED = "obs-bridge-tilted"


@dataclass(frozen=True)
class SDESpec:
    """dY = a(Y, theta) dt + sigma(Y, theta) dW on a state interval, given by
    the closed forms of its unit-diffusion transform.

    eta is the space transform, an antiderivative of 1/sigma in y, so
    X = eta(Y) has unit diffusion. alpha is the drift of X,
    a(u)/sigma(u) - sigma'(u)/2 at u = eta^-1(x), and A(x) is the integral
    of alpha from 0 to x. sigma must stay bounded away from zero on the
    state interval.
    """

    name: str
    sigma: Callable              # sigma(y, theta) > 0
    state: tuple[float, float]
    eta: Callable                # x = eta(y, theta)
    alpha_fn: Callable           # alpha(x, theta), vectorized in x
    dalpha_dx: Callable          # d alpha / d x, vectorized in x
    drift_integral_fn: Callable  # A(x, theta)


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
    """Read (t, y) rows. Empty rows are skipped and the first non-empty row
    may be a header; any other row that is not two floats raises ValueError
    naming its line."""
    times, values = [], []
    header_allowed = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            try:
                t, y = map(float, row)
            except ValueError:
                if not header_allowed:
                    raise ValueError(f"{path}, line {reader.line_num}: expected two "
                                     f"floats t,y, got {row!r}") from None
            else:
                times.append(t)
                values.append(y)
            header_allowed = False
    return ObservationSet(times=tuple(times), values=tuple(values))


def transform_observations(spec: "SDESpec", obs: "ObservationSet", thetas: Sequence) -> tuple:
    """The observed-data terms of every theta in `thetas`: (x, log_jac).

    x (K, n + 1) holds the observation values pushed through the space
    transform, and log_jac (K, n) the log Jacobian at each interval's right
    end, log_jac[k, i] = log(1 / sigma(y[i + 1], theta_k)). The transform is
    strictly increasing in y (sigma > 0), so it keeps the ordering of the
    values; a violation signals a broken sigma.
    """
    x = np.array([[lamperti(spec, y, theta) for y in obs.values] for theta in thetas])
    log_jac = np.array([[math.log(1.0 / spec.sigma(y, theta)) for y in obs.values[1:]]
                        for theta in thetas])
    order = np.argsort(obs.values, kind="stable")
    rising = np.diff(np.asarray(obs.values)[order]) > 0
    if np.any(rising & ~(np.diff(x[:, order], axis=1) > 0)):
        raise ValueError("space transform is not strictly increasing; check sigma")
    return x, log_jac


@dataclass(frozen=True)
class BridgeSet:
    """Zero-pinned bridge values, one row per observation interval: row i
    holds a bridge on [times[i], times[i + 1]] at m + 1 equally spaced
    points, both ends exactly 0."""

    times: tuple
    values: np.ndarray   # shape (len(times) - 1, m + 1)

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(map(float, self.times)))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("bridge times must be strictly increasing")
        shape = self.values.shape
        if len(shape) != 2 or shape[0] != len(self.times) - 1 or shape[1] < 2:
            raise ValueError("bridge values need shape (len(times) - 1, m + 1), one row per "
                             f"interval with m >= 1; got {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("bridge values must be finite")
        if np.any(self.values[:, [0, -1]] != 0.0):
            raise ValueError("bridge rows must start and end at exactly 0")


# -- space transform ----------------------------------------------------------

def lamperti(spec: SDESpec, y_val: float, theta) -> float:
    """Space transform x = eta(y) of a value in the state interval."""
    lo, hi = spec.state
    if not lo <= y_val <= hi:
        raise ValueError(f"value {y_val} outside state interval {spec.state}")
    return float(spec.eta(y_val, theta))


# -- bridges -------------------------------------------------------------------

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
    values = np.empty((len(times) - 1, n_steps + 1))
    for i, row in enumerate(values):
        rng = np.random.default_rng(_interval_seed(seed, i))
        row[:] = _bridge_rows(rng, 1, n_steps, (times[i + 1] - times[i]) / n_steps)[0]
    return BridgeSet(times=times, values=values)


def _interval_seed(seed, i: int) -> list:
    """Seed of interval i's stream: [seed, i] for an int seed, [*seed, i]
    for a sequence."""
    return [int(seed), i] if np.isscalar(seed) else [*seed, i]


# -- joint density of observations and bridges ---------------------------------

def _drift_corrections(spec: SDESpec, bridge_rows: np.ndarray, ends: Sequence, dt,
                       out: np.ndarray, path: np.ndarray, integrand: np.ndarray,
                       trap: np.ndarray) -> None:
    """Girsanov drift correction: for each (theta, x0, x1) in `ends`, out[k]
    receives, per row of the (rows, m + 1) zero-pinned `bridge_rows`, the
    trapezoid sum with step `dt` of (alpha^2 + alpha')/2 along the row
    de-pinned onto the line x0 + frac * (x1 - x0). x0, x1 and `dt` are
    scalars shared by every row or (rows, 1) columns, one entry per row.
    `path`, `integrand` (rows, m + 1) and `trap` (rows, m) are work buffers;
    `path` may alias `bridge_rows` only for one theta on scratch bridges.
    """
    frac = np.linspace(0.0, 1.0, bridge_rows.shape[1])
    for k, (theta, x0, x1) in enumerate(ends):
        np.add(bridge_rows, x0 + frac * (x1 - x0), out=path)
        # each drift array is freed once used: held to return, glibc gave their
        # pages back to the OS every call (29x the page faults, MC 25% slower)
        np.square(spec.alpha_fn(path, theta), out=integrand)
        np.add(integrand, spec.dalpha_dx(path, theta), out=integrand)
        np.multiply(integrand, 0.5, out=integrand)
        # np.trapezoid(integrand, dx=dt, axis=1), operation for operation
        np.add(integrand[:, 1:], integrand[:, :-1], out=trap)
        np.multiply(trap, dt, out=trap)
        np.divide(trap, 2.0, out=trap)
        np.add.reduce(trap, axis=1, out=out[k])


def obs_bridge_log_density(spec: SDESpec, obs: ObservationSet, bridges: BridgeSet,
                           thetas: Sequence) -> np.ndarray:
    """Joint log pseudo-density of (observations, zero-pinned bridges), one
    value per theta in `thetas`; the bridge rows span the observation intervals.

    Per interval: the transform Jacobian at the right endpoint, the standard
    Gaussian density of the standardized transformed increment, and the
    drift correction exp{A(x_n) - A(x_0) - integral of (alpha^2 + alpha')/2
    along the de-pinned path}, the integral by trapezoid on the bridge grid.
    Terms are added interval by interval.
    """
    if bridges.times != tuple(obs.times):
        raise ValueError("bridge rows must span the observation intervals, one each")
    x, log_jac = transform_observations(spec, obs, thetas)
    dt = np.diff(obs.times)
    z = np.diff(x, axis=1) / np.sqrt(dt)
    gaussian = -0.5 * z * z - LOG_SQRT_2PI
    values = np.zeros(len(thetas))
    for i in range(obs.n_intervals):
        values += log_jac[:, i]
        values += gaussian[:, i]
    values += [spec.drift_integral_fn(xk[-1], theta) - spec.drift_integral_fn(xk[0], theta)
               for theta, xk in zip(thetas, x)]
    rows = bridges.values
    corrections = np.empty((len(thetas), len(rows)))
    _drift_corrections(spec, rows, [(theta, xk[:-1, None], xk[1:, None])
                                    for theta, xk in zip(thetas, x)],
                       (dt / (rows.shape[1] - 1))[:, None], corrections,
                       np.empty_like(rows), np.empty_like(rows), np.empty_like(rows[:, 1:]))
    for column in corrections.T:
        values -= column
    return values


def bridge_tilt_log_weight(obs: ObservationSet, bridges: BridgeSet) -> float:
    """A fixed positive theta-free functional of the data and bridges, used
    as the density of an alternative tilted reference measure."""
    total = sum(abs(b - a) for a, b in zip(obs.values, obs.values[1:]))
    for row in bridges.values:
        total += 0.5 * float(np.mean(row ** 2))
    return total


def diffusion_model_family(spec: SDESpec, theta_grid: Sequence) -> ModelFamily:
    """Joint kernel and its theta-free tilted variant over (obs, bridges)."""
    family = ModelFamily(theta_grid, SampleSpace(label="obs-and-bridges"))

    def joint(thetas, ob):
        return obs_bridge_log_density(spec, ob[0], ob[1], thetas)

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


def _bridge_controls(bridge: np.ndarray, frac: np.ndarray, dt: float, out: np.ndarray,
                     scratch: np.ndarray) -> None:
    """Fill `out` (3, rows) with the theta-free controls of the zero-pinned
    (rows, m + 1) `bridge`: trapz(B), trapz(frac * B), and trapz(B^2) less its
    exact mean dt^2 (m^2 - 1) / 6 under the discrete pinned walk, where
    Var(B_k) = dt k (m - k) / m. All three have mean 0. The end columns are 0,
    so each trapezoid sum is dt times a plain row sum. `scratch` is a
    (rows, m + 1) work buffer.
    """
    m = bridge.shape[1] - 1
    np.add.reduce(bridge, axis=1, out=out[0])
    np.multiply(bridge, frac, out=scratch)
    np.add.reduce(scratch, axis=1, out=out[1])
    np.square(bridge, out=scratch)
    np.add.reduce(scratch, axis=1, out=out[2])
    np.multiply(out, dt, out=out)
    np.subtract(out[2], dt * dt * (m * m - 1) / 6.0, out=out[2])


def _bridge_weight_sums(spec: SDESpec, ends: tuple, t: float, m: int, n_replicates: int,
                        seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sums over the replicates of the drift-correction weight w and of the
    controls c of `_bridge_controls`: (w_sums, c_sums, c_cross), where row k
    of w_sums holds the sums of w, w^2 and w c for theta k, c_sums the sums
    of c and c_cross those of c c^T. There are no controls for m < 3, where
    the three are linearly dependent (for m = 2 the first two are
    proportional).

    `ends` holds (theta, x0, x1) triples. Every theta is weighed against the
    same pinned Brownian bridges, drawn once from `seed`; a theta's result
    is the one a separate run with that seed gives. The controls do not
    depend on theta, so their sums are taken once. Each chunk of `_CHUNK_ROWS`
    rows goes through the pipeline in row blocks with preallocated buffers:
    draw, scale, cumsum, pin, the controls, `_drift_corrections` for every
    theta, and the weights of all thetas at once. Sums are taken per chunk
    with ufunc reductions, in chunk order; a BLAS product would make the bits
    follow the thread count.

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
    shifts = np.array([[spec.drift_integral_fn(x1, th) - spec.drift_integral_fn(x0, th)]
                       for th, x0, x1 in ends])
    p = 3 if m >= 3 else 0
    width = min(_CHUNK_ROWS, n_replicates)
    block = max(1, min(width, _BLOCK_BYTES // (8 * (m + 1))))
    chunks = [min(_CHUNK_ROWS, n_replicates - done)
              for done in range(0, n_replicates, _CHUNK_ROWS)]
    sizes = [min(block, rows - lo) for rows in chunks for lo in range(0, rows, block)]
    walks = [np.empty((block, m)) for _ in range(min(2, len(sizes)))]
    bridge = np.empty((block, m + 1))
    path = np.empty((block, m + 1)) if len(ends) > 1 else bridge
    integrand = np.empty((block, m + 1))
    weights = np.empty((len(ends), width))
    controls = np.empty((p, width))
    w_sums = np.zeros((len(ends), 2 + p))
    c_sums = np.zeros(p)
    c_cross = np.zeros((p, p))
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
                w = weights[:, lo:lo + b]
                _pin_walk(walk, scale, frac, bridge[:b])
                if p:
                    _bridge_controls(bridge[:b], frac, dt, controls[:, lo:lo + b],
                                     integrand[:b])
                # the walk buffer is free once the bridges are pinned
                _drift_corrections(spec, bridge[:b], ends, dt, w, path[:b], integrand[:b], walk)
                np.subtract(shifts, w, out=w)
                np.exp(w, out=w)
            c = controls[:, :rows]
            c_sums += np.sum(c, axis=1)
            c_cross += np.sum(c[:, None] * c, axis=2)
            for k, w in enumerate(weights[:, :rows]):
                w_sums[k, 0] += np.sum(w)
                w_sums[k, 1] += np.sum(w * w)
                w_sums[k, 2:] += np.sum(w * c, axis=1)
    return w_sums, c_sums, c_cross


def _density_from_sums(w_sums: np.ndarray, c_sums: np.ndarray, c_cross: np.ndarray,
                       n_replicates: int, t: float, x0: float,
                       x1: float) -> tuple[float, float]:
    """(estimate, standard error) by regression control variates: the free
    Gaussian density times the mean weight adjusted by the mean-zero controls.

    `w_sums` holds one theta's sums of w, w^2 and w c, and `c_sums` and
    `c_cross` the sums of c and c c^T, over the replicates
    (`_bridge_weight_sums`). The coefficients beta solve the centred normal
    equations of w on the p controls, the estimate is
    mean(w) - beta . mean(c), and the SE comes from the residual variance
    with n - 1 - p degrees of freedom (n - 4 with the three controls). Beta
    is fitted on the same draws, which biases the estimate by O(1/n), small
    beside its O(1/sqrt(n)) SE. With p = 0 this is the plain weight mean
    and its sample SE.
    """
    w_sum, w_sq, w_c = w_sums[0], w_sums[1], w_sums[2:]
    mean_w, mean_c = w_sum / n_replicates, c_sums / n_replicates
    cov_cw = w_c - c_sums * mean_w
    beta = np.linalg.solve(c_cross - np.outer(c_sums, mean_c), cov_cw)
    adjusted = mean_w - np.sum(beta * mean_c)
    var = max(0.0, (w_sq - w_sum * mean_w - np.sum(beta * cov_cw))
              / (n_replicates - 1 - len(c_sums)))
    z = (x1 - x0) / math.sqrt(t)
    prefactor = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi * t)
    return prefactor * float(adjusted), prefactor * math.sqrt(var / n_replicates)


def transition_density_mc(spec: SDESpec, theta, t: float, x0: float, x1: float,
                          n_replicates: int, step: float, seed) -> tuple[float, float]:
    """Transition density of the unit-diffusion process by bridge sampling.

    Returns (estimate, standard error). The estimate is the free Gaussian
    density times the mean drift-correction weight along pinned Brownian
    paths from x0 to x1, adjusted by regression on three theta-free controls
    of the bridges with exact means (`_bridge_controls`, none for fewer than
    3 steps; see `_density_from_sums`); replicates accumulate in fixed chunk
    order.
    """
    m = _mc_steps(t, step, n_replicates)
    [w_sums], c_sums, c_cross = _bridge_weight_sums(spec, ((theta, x0, x1),), t, m,
                                                    n_replicates, seed)
    return _density_from_sums(w_sums, c_sums, c_cross, n_replicates, t, x0, x1)


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
    x, log_jac = transform_observations(spec, obs, theta_grid)
    curve = [0.0] * len(theta_grid)
    for i in range(obs.n_intervals):
        live = [k for k, loglik in enumerate(curve) if loglik != NEG_INF]
        if not live:
            break
        dt_i = obs.times[i + 1] - obs.times[i]
        m = _mc_steps(dt_i, dt_i * step_fraction, n_replicates)
        ends = tuple((theta_grid[k], x[k, i], x[k, i + 1]) for k in live)
        w_sums, c_sums, c_cross = _bridge_weight_sums(spec, ends, dt_i, m, n_replicates,
                                                      _interval_seed(seed, i))
        for k, (_, x0, x1), row in zip(live, ends, w_sums):
            est, _ = _density_from_sums(row, c_sums, c_cross, n_replicates, dt_i, x0, x1)
            if est <= 0.0:
                curve[k] = NEG_INF
                continue
            curve[k] += math.log(est)
            curve[k] += float(log_jac[k, i])
    indices = argmax_indices(LogLikelihoodCurve("mc-observed-data", "obs", theta_grid,
                                                tuple(curve)))
    return indices, curve


# -- catalog --------------------------------------------------------------------

def ou_spec(sigma0: float = 1.0) -> SDESpec:
    """Mean-reverting drift -theta y with constant diffusion sigma0."""
    return SDESpec(
        name="ou",
        sigma=lambda y, th: sigma0,
        state=(-math.inf, math.inf),
        eta=lambda y, th: y / sigma0,
        alpha_fn=lambda x, th: -th * x,
        dalpha_dx=lambda x, th: -th + 0.0 * x,
        drift_integral_fn=lambda u, th: -0.5 * th * u * u,
    )


def brownian_drift_spec() -> SDESpec:
    """Constant drift theta with unit diffusion."""
    return SDESpec(
        name="brownian-drift",
        sigma=lambda y, th: 1.0,
        state=(-math.inf, math.inf),
        eta=lambda y, th: y,
        alpha_fn=lambda x, th: th + 0.0 * x,
        dalpha_dx=lambda x, th: 0.0 * x,
        drift_integral_fn=lambda u, th: th * u,
    )


def logistic_spec() -> SDESpec:
    """Logistic-type drift theta y (1 - y) with multiplicative sigma(u) = u."""
    return SDESpec(
        name="logistic",
        sigma=lambda y, th: y,
        state=(1e-9, math.inf),
        eta=lambda y, th: math.log(y),
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
