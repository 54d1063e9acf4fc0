"""Named experiment suites over the model modules.

Each experiment builds randomized or catalog instances, runs the relevant
checks against their oracles, and returns a Report with the pair of curves
it shows; run_experiment writes report.json and curves.csv from them under
the output directory. Results are pure functions of (config, seed).
"""

from __future__ import annotations

import functools
import math
import time
from pathlib import Path

import numpy as np
from scipy.special import betaln, chdtrc, gammaln, xlogy

from .. import bayes, diffusion, expfam, mixture, poisson
from ..likelihood import (NEG_INF, LogLikelihoodCurve, ModelFamily, argmax_indices,
                          argmax_invariance, check_proportionality, likelihood_curve)
from .config import ConfigError, grid_from_spec, prior_beta_params
from .mcem import mcem_missing_data
from .reporting import Report, emit_curves, write_report_json

# The pair of curves an experiment hands to curves.csv.
Curves = tuple[LogLikelihoodCurve, LogLikelihoodCurve]

# Fixed stream tags so every experiment draws from its own substream family.
_STREAM = {
    "proportionality": 11,
    "mixture": 23,
    "expfam": 31,
    "poisson": 47,
    "diffusion": 59,
    "bayes": 67,
    "mcem": 71,
}


def _rng(seed: int, stream: int, k: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream, int(k)])


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 62))


# ---------------------------------------------------------------------------
# randomized proportionality instances, one builder per model class
# ---------------------------------------------------------------------------

def _mixture_instance(rng: np.random.Generator, sample_size: int):
    names = list(mixture.COMPONENT_CATALOG)
    name = names[int(rng.integers(0, len(names)))]
    comp = mixture.COMPONENT_CATALOG[name]()
    atom = 0.5 if name == "uniform" else 0.0
    count = int(rng.integers(9, 22))
    grid = tuple(np.linspace(float(rng.uniform(0.05, 0.2)), float(rng.uniform(0.75, 0.95)), count))
    p_true = float(rng.uniform(0.15, 0.7))
    sample = mixture.simulate(mixture.atom_weight_mixture(atom, comp, p_true),
                              sample_size, _child_seed(rng))
    family = mixture.atom_weight_family(atom, comp, grid)
    c1 = likelihood_curve(family, "counting-lebesgue", sample)
    c2 = likelihood_curve(family, "counting-2lebesgue", sample)
    return c1, c2


def _expfam_variants(fam):
    """(measure id, family) for the carrier tilt of `fam` and for `fam` against
    three reweightings of its base."""
    variants = [("lambda-tilt", expfam.tilt_to_lambda(fam))]
    if fam.base.kind == "counting":
        atoms = fam.base.atoms
        for alt_name, weight_fn in (
            ("geometric-weighted", lambda i: 0.5 ** (i + 1)),
            ("doubled", lambda i: 2.0),
            ("ramp-weighted", lambda i: 1.0 + i / len(atoms)),
        ):
            weights = tuple(weight_fn(i) for i in range(len(atoms)))
            alt = expfam.DominatingMeasure.counting(alt_name, atoms, weights)
            lookup = dict(zip(atoms, weights))
            variants.append((alt_name, expfam.change_dominating_measure(
                fam, alt,
                mixture_density_new=lambda x, _l=lookup: 1.0 / _l[x],
                mixture_density_old=lambda x: 1.0)))
    else:
        for alt_name, scale in (("lebesgue-x2", 2.0), ("lebesgue-half", 0.5),
                                ("lebesgue-x3", 3.0)):
            alt = expfam.DominatingMeasure.lebesgue(alt_name, fam.base.region, scale=scale)
            variants.append((alt_name, expfam.change_dominating_measure(
                fam, alt, mixture_density_new=lambda x, _s=scale: 1.0 / _s,
                mixture_density_old=lambda x: 1.0)))
    return variants


def _expfam_instance(rng: np.random.Generator, sample_size: int):
    which = int(rng.integers(0, 3))
    count = int(rng.integers(7, 15))
    if which == 0:
        fam = expfam.bernoulli_family(np.linspace(0.1, 0.9, count))
        draws = rng.binomial(1, float(rng.uniform(0.2, 0.8)), size=sample_size)
    elif which == 1:
        fam = expfam.poisson_family(np.linspace(0.4, 6.0, count))
        draws = rng.poisson(float(rng.uniform(0.5, 5.0)), size=sample_size)
    else:
        fam = expfam.gaussian_known_var_family(np.linspace(-2.0, 2.0, count))
        draws = rng.normal(float(rng.uniform(-1.0, 1.0)), 1.0, size=sample_size)
    sample = tuple(float(x) for x in draws)
    ids = ("lambda-tilt", "alt-base")   # the tilt and the first reweighted base
    iid_variants = [(mid, expfam.iid_family(v, sample_size))
                    for mid, (_, v) in zip(ids, _expfam_variants(fam))]
    model = expfam.as_model_family(expfam.iid_family(fam, sample_size), *iid_variants)
    c1 = likelihood_curve(model, "base", sample)
    c2 = likelihood_curve(model, ids[int(rng.integers(0, 2))], sample)
    return c1, c2


def _poisson_instance(rng: np.random.Generator):
    which = int(rng.integers(0, 3))
    count = int(rng.integers(8, 14))
    region = ((0.0, float(rng.uniform(0.8, 2.0))),)
    if which == 0:
        model = poisson.constant_intensity(np.linspace(0.5, 8.0, count), region)
    elif which == 1:
        b = float(rng.uniform(-1.0, 1.0))
        grid = [(float(a), b) for a in np.linspace(-0.5, 1.5, count)]
        model = poisson.loglinear_intensity(grid, region)
    else:
        model = poisson.sinusoidal_intensity(np.linspace(0.5, 6.0, count), region)
    theta_true = model.theta_grid[int(rng.integers(0, count))]
    pattern = poisson.simulate_thinning(model, theta_true, model.max_rate(theta_true),
                                        _child_seed(rng))
    family = poisson.pattern_model_family(model)
    c1 = likelihood_curve(family, poisson.MEASURE_PRODUCT, pattern)
    c2 = likelihood_curve(family, poisson.MEASURE_UNIT_POISSON, pattern)
    expected_gap = -pattern.volume - math.lgamma(pattern.count + 1)
    return c1, c2, expected_gap


def _diffusion_instance(rng: np.random.Generator):
    which = int(rng.integers(0, 3))
    count = int(rng.integers(7, 12))
    if which == 0:
        spec = diffusion.ou_spec(sigma0=float(rng.uniform(0.6, 1.6)))
        values = rng.normal(0.0, 0.8, size=5)
    elif which == 1:
        spec = diffusion.brownian_drift_spec()
        values = rng.normal(0.0, 0.8, size=5)
    else:
        spec = diffusion.logistic_spec()
        values = rng.uniform(0.5, 2.0, size=5)
    grid = tuple(np.linspace(0.25, 2.5, count))
    steps = np.cumsum(rng.uniform(0.3, 0.8, size=4))
    times = (0.0, *map(float, steps))
    obs = diffusion.ObservationSet(times=times, values=tuple(float(v) for v in values))
    bridges = diffusion.sample_bridge_set(obs.times, n_steps=48, seed=_child_seed(rng))
    family = diffusion.diffusion_model_family(spec, grid)
    omega = (obs, bridges)
    c1 = likelihood_curve(family, diffusion.MEASURE_OBS_BRIDGE, omega)
    c2 = likelihood_curve(family, diffusion.MEASURE_OBS_BRIDGE_TILTED, omega)
    return c1, c2


def run_proportionality(config: dict) -> tuple[Report, Curves]:
    seed, tol = config["seed"], config["tol"]
    cfg = config["proportionality"]
    instances, sample_size = cfg["instances"], cfg["sample_size"]
    report = Report(experiment="proportionality", seed=seed, tolerance=tol)
    emitted = None
    classes = {
        "mixture": lambda rng: _mixture_instance(rng, sample_size),
        "expfam": lambda rng: _expfam_instance(rng, sample_size),
        "poisson": lambda rng: _poisson_instance(rng)[:2],
        "diffusion": lambda rng: _diffusion_instance(rng),
    }
    for class_index, (name, build) in enumerate(classes.items()):
        failures = 0
        argmax_failures = 0
        worst = 0.0
        for k in range(instances):
            rng = _rng(seed, _STREAM["proportionality"], class_index * 100000 + k)
            c1, c2 = build(rng)
            result = check_proportionality(c1, c2, tol)
            worst = max(worst, result.max_deviation)
            if not result.passed:
                failures += 1
            if not argmax_invariance(c1, c2):
                argmax_failures += 1
            if name == "poisson" and k == 0:
                emitted = (c1, c2)
        report.add(f"{name}-proportional", failures == 0,
                   instances=instances, failures=failures, worst_deviation=worst)
        report.add(f"{name}-argmax-invariant", argmax_failures == 0,
                   instances=instances, failures=argmax_failures)
    report.metrics["curves_source"] = "first poisson instance"
    return report, emitted


# ---------------------------------------------------------------------------

def run_mixture(config: dict) -> tuple[Report, Curves]:
    seed, tol = config["seed"], config["tol"]
    cfg = config["mixture"]
    report = Report(experiment="mixture", seed=seed, tolerance=tol)
    comp = mixture.COMPONENT_CATALOG[cfg["component"]]()
    atom = float(cfg["atom"])
    p_true = float(cfg["p_true"])
    grid = grid_from_spec(cfg["p_grid"])
    rng = _rng(seed, _STREAM["mixture"])
    sample = mixture.simulate(mixture.atom_weight_mixture(atom, comp, p_true),
                              cfg["n_samples"], _child_seed(rng))
    family = mixture.atom_weight_family(atom, comp, grid)
    c_correct = likelihood_curve(family, "counting-lebesgue", sample)
    c_naive = likelihood_curve(family, "counting-lebesgue-naive", sample)

    best_correct = grid[min(argmax_indices(c_correct))]
    report.add("correct-mle-near-truth", abs(best_correct - p_true) <= 0.05,
               mle=best_correct, p_true=p_true)

    best_naive = grid[min(argmax_indices(c_naive))]
    report.add("naive-mle-reported", abs(best_naive - p_true) > abs(best_correct - p_true),
               mle=best_naive, bias=best_naive - p_true)

    mis = check_proportionality(c_correct, c_naive, tol)
    report.add("naive-kernel-not-proportional", not mis.passed,
               max_deviation=mis.max_deviation)

    c_half = likelihood_curve(family, "counting-2lebesgue", sample)
    prop = check_proportionality(c_correct, c_half, 1e-10)
    report.add("second-measure-proportional", prop.passed and argmax_invariance(c_correct, c_half),
               constant_log_ratio=prop.constant_log_ratio, max_deviation=prop.max_deviation)

    mass_err = 0.0
    for p in (grid[0], grid[len(grid) // 2], grid[-1]):
        mix = mixture.atom_weight_mixture(atom, comp, p)
        mass_err = max(mass_err, abs(mixture.mixture_total_mass(mix) - 1.0))
    report.add("normalization", mass_err <= 1e-6, worst_error=mass_err)
    return report, (c_correct, c_naive)


# ---------------------------------------------------------------------------

def run_expfam(config: dict) -> tuple[Report, Curves]:
    seed, tol = config["seed"], config["tol"]
    cfg = config["expfam"]
    report = Report(experiment="expfam", seed=seed, tolerance=tol)
    sample_size = cfg["sample_size"]
    emitted = None
    for fam_index, name in enumerate(cfg["families"]):
        rng = _rng(seed, _STREAM["expfam"], fam_index)
        if name == "bernoulli":
            fam = expfam.bernoulli_family(np.linspace(0.15, 0.85, 11))
            draws = rng.binomial(1, 0.6, size=sample_size)
            closed = [(th, math.log1p(math.exp(math.log(th / (1 - th)))))
                      for th in (0.2, 0.5, 0.8)]
        elif name == "poisson":
            fam = expfam.poisson_family(np.linspace(0.4, 5.0, 11))
            draws = rng.poisson(2.0, size=sample_size)
            closed = [(th, th) for th in (0.5, 1.0, 3.0)]
        else:
            fam = expfam.gaussian_known_var_family(np.linspace(-2.0, 2.0, 11))
            draws = rng.normal(0.4, 1.0, size=sample_size)
            closed = [(th, th * th / 2.0) for th in (-1.0, 0.2, 1.5)]
        sample = tuple(float(x) for x in draws)

        # the computed normalizer and the family's method, each against the closed form
        xi_err = max(abs(logpart(fam, th) - want) for th, want in closed
                     for logpart in (expfam.compute_log_partition,
                                     expfam.ExponentialFamily.log_partition))
        report.add(f"{name}-normalizer-closed-form", xi_err <= 1e-8, worst_error=xi_err)

        variants = _expfam_variants(fam)
        omega = sample[0]
        gap = (expfam.log_density(fam, fam.theta_grid[3], omega)
               - expfam.log_density(variants[0][1], fam.theta_grid[3], omega))
        report.add(f"{name}-tilt-ratio-is-carrier",
                   abs(gap - fam.log_carrier(omega)) <= 1e-10,
                   log_carrier=fam.log_carrier(omega), gap=gap)

        iid_base = expfam.iid_family(fam, sample_size)
        iid_variants = [(mid, expfam.iid_family(v, sample_size)) for mid, v in variants]
        model = expfam.as_model_family(iid_base, *iid_variants)
        base_curve = likelihood_curve(model, "base", sample)
        worst = 0.0
        all_ok = True
        for mid, _ in iid_variants:
            other = likelihood_curve(model, mid, sample)
            result = check_proportionality(base_curve, other, 1e-10)
            worst = max(worst, result.max_deviation)
            all_ok = all_ok and result.passed and argmax_invariance(base_curve, other)
            if emitted is None:
                emitted = (base_curve, other)
        report.add(f"{name}-base-changes-proportional", all_ok,
                   bases=len(iid_variants), worst_deviation=worst)
    return report, emitted


# ---------------------------------------------------------------------------

def run_poisson(config: dict) -> tuple[Report, Curves]:
    seed, tol = config["seed"], config["tol"]
    cfg = config["poisson"]
    report = Report(experiment="poisson", seed=seed, tolerance=tol)
    region = (tuple(cfg["region"]),)
    grid = grid_from_spec(cfg["grid"])

    # parameter-free kernel gap over randomized patterns
    worst_gap_err = 0.0
    emitted = None
    for k in range(cfg["patterns"]):
        rng = _rng(seed, _STREAM["poisson"], k)
        c1, c2, expected = _poisson_instance(rng)
        deltas = [a - b for a, b in zip(c1.values, c2.values)]
        worst_gap_err = max(worst_gap_err, max(abs(d - expected) for d in deltas))
        if emitted is None:
            emitted = (c1, c2)
    report.add("kernel-gap-identity", worst_gap_err <= 1e-10, patterns=cfg["patterns"],
               worst_error=worst_gap_err)

    # hand-checked constant on S = [0, 1], N = 2
    hand = poisson.constant_intensity((1.0, 2.0), ((0.0, 1.0),))
    pattern = poisson.PointPattern(region=((0.0, 1.0),), locations=(0.3, 0.7))
    gap = (poisson.loglik_product_measure(hand, 1.0, pattern)
           - poisson.loglik_jacod(hand, 1.0, pattern))
    report.add("unit-region-two-points-constant",
               abs(gap - (-1.0 - math.log(2.0))) <= 1e-10, constant=gap)

    # thinning count distribution vs Poisson(Lambda)
    model = poisson.INTENSITY_CATALOG[cfg["intensity"]](grid, region)
    theta_gof = grid[len(grid) // 2]
    bound = model.max_rate(theta_gof)
    rng = _rng(seed, _STREAM["poisson"], 10 ** 6)
    counts = poisson.thinning_counts(model, theta_gof, bound, _child_seed(rng), cfg["replicates"])
    pvalue = _poisson_count_gof(counts, model.total(theta_gof))
    report.add("thinning-count-gof", pvalue >= 0.001, p_value=pvalue,
               mean_count=float(np.mean(counts)), expected=model.total(theta_gof))

    # grid MLE on a homogeneous pattern: argmax at c = N
    hom = poisson.constant_intensity(tuple(np.linspace(1.0, 6.0, 6)), ((0.0, 1.0),))
    three = poisson.PointPattern(region=((0.0, 1.0),), locations=(0.2, 0.5, 0.9))
    idx1 = poisson.mle_intensity(hom, three, poisson.MEASURE_PRODUCT)
    idx2 = poisson.mle_intensity(hom, three, poisson.MEASURE_UNIT_POISSON)
    report.add("homogeneous-mle", idx1 == idx2 == frozenset({2}),
               product=sorted(idx1), unit=sorted(idx2))

    # conditional location density integrates to 1
    norm_err = 0.0
    for n in (1, 2):
        for theta in (grid[0], grid[-1]):
            norm_err = max(norm_err, abs(poisson.location_density_mass(model, theta, n) - 1.0))
    report.add("location-density-normalized", norm_err <= 1e-6, worst_error=norm_err)
    return report, emitted


def _poisson_count_gof(counts: np.ndarray, rate: float) -> float:
    """Chi-square goodness of fit of observed counts vs Poisson(rate),
    pooling bins with expected frequency below 5."""
    n = len(counts)
    top = int(counts.max()) + 1
    observed = np.bincount(counts, minlength=top + 1).astype(float)
    k = np.arange(top + 1)
    expected = np.exp(xlogy(k, rate) - gammaln(k + 1) - rate) * n
    expected[-1] = n - expected[:-1].sum()  # right tail mass
    obs_pool, exp_pool = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_pool.append(acc_o)
            exp_pool.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if exp_pool:
            obs_pool[-1] += acc_o
            exp_pool[-1] += acc_e
        else:
            obs_pool, exp_pool = [acc_o], [acc_e]
    obs, exp = np.array(obs_pool), np.array(exp_pool)
    if abs(obs.sum() - exp.sum()) / min(obs.sum(), exp.sum()) > np.finfo(float).eps ** 0.5:
        raise ValueError("pooled observed and expected counts must have the same total")
    return float(chdtrc(len(obs) - 1, ((obs - exp) ** 2 / exp).sum()))


# ---------------------------------------------------------------------------

def run_diffusion(config: dict) -> tuple[Report, Curves]:
    seed, tol = config["seed"], config["tol"]
    cfg = config["diffusion"]
    report = Report(experiment="diffusion", seed=seed, tolerance=tol)
    spec = diffusion.SDE_CATALOG[cfg["sde"]]()

    # MC transition density vs the closed-form mean-reverting oracle
    ou = diffusion.ou_spec()
    points = ((1.0, 1.0, 0.0, 0.5), (1.0, 1.0, 0.0, 0.0), (1.0, 0.5, 0.3, -0.2),
              (0.5, 1.0, -0.5, 0.5), (1.5, 0.7, 0.2, 0.9))
    worst_rel = 0.0
    worst_z = 0.0
    for j, (theta, t, x0, x1) in enumerate(points):
        est, se = diffusion.transition_density_mc(
            ou, theta, t, x0, x1, cfg["mc_replicates"], cfg["mc_step"],
            seed=[seed, _STREAM["diffusion"], j])
        exact = diffusion.ou_exact_transition_density(theta, t, x0, x1)
        worst_rel = max(worst_rel, abs(est - exact) / exact)
        worst_z = max(worst_z, abs(est - exact) / se)
    report.add("mc-transition-vs-exact", worst_rel < 0.02 and worst_z <= 3.0,
               worst_relative_error=worst_rel, worst_se_multiples=worst_z,
               replicates=cfg["mc_replicates"], step=cfg["mc_step"])

    # zero-drift reduction: joint density collapses to the Gaussian sum
    bm = diffusion.brownian_drift_spec()
    rng = _rng(seed, _STREAM["diffusion"], 10 ** 6)
    if cfg["observations"]:
        obs = diffusion.observations_from_csv(cfg["observations"])
    else:
        obs = diffusion.simulate_ou(1.0, 0.0, tuple(np.linspace(0.0, 2.5, 6)),
                                    _child_seed(rng))
    bridges = diffusion.sample_bridge_set(obs.times, n_steps=64, seed=_child_seed(rng))
    [got] = diffusion.obs_bridge_log_density(bm, obs, bridges, (0.0,))
    want = sum(
        -0.5 * ((obs.values[i] - obs.values[i - 1]) / math.sqrt(obs.times[i] - obs.times[i - 1])) ** 2
        - diffusion.LOG_SQRT_2PI
        for i in range(1, len(obs.values)))
    report.add("zero-drift-gaussian-reduction", abs(got - want) <= 1e-12,
               value=got, expected=want)

    # fixed-bridge proportionality for the configured model
    grid = tuple(np.linspace(0.25, 2.5, 10))
    family = diffusion.diffusion_model_family(spec, grid)
    if spec.name == "logistic":
        obs_prop = diffusion.ObservationSet(times=obs.times,
                                            values=tuple(1.0 + 0.3 * abs(v) for v in obs.values))
    else:
        obs_prop = obs
    omega = (obs_prop, bridges)
    c1 = likelihood_curve(family, diffusion.MEASURE_OBS_BRIDGE, omega)
    c2 = likelihood_curve(family, diffusion.MEASURE_OBS_BRIDGE_TILTED, omega)
    prop = check_proportionality(c1, c2, 1e-10)
    report.add("fixed-bridge-proportional", prop.passed and argmax_invariance(c1, c2),
               constant_log_ratio=prop.constant_log_ratio, max_deviation=prop.max_deviation)

    # trapezoid refinement on the path integral; the base grid is the default
    # step of 1e-3 times the interval scale, where halving is safely inside
    # the stated budget despite the path's quadratic variation
    coarse = diffusion.sample_bridge_set(obs.times, n_steps=1000, seed=_child_seed(rng))
    [value_c] = diffusion.obs_bridge_log_density(ou, obs, coarse, (1.0,))
    [value_f] = diffusion.obs_bridge_log_density(ou, obs, _refine(coarse, 2), (1.0,))
    report.add("trapezoid-refinement", abs(value_f - value_c) < 1e-4,
               change=abs(value_f - value_c))
    return report, (c1, c2)


def _refine(bridges: diffusion.BridgeSet, factor: int) -> diffusion.BridgeSet:
    """Linear interpolation of bridge values onto a grid `factor` times finer.

    Refining the same path isolates the quadrature error of the trapezoid
    rule from bridge sampling noise.
    """
    m = bridges.values.shape[1] - 1
    frac_old = np.linspace(0.0, 1.0, m + 1)
    frac_new = np.linspace(0.0, 1.0, m * factor + 1)
    values = np.array([np.interp(frac_new, frac_old, row) for row in bridges.values])
    values[:, [0, -1]] = 0.0
    return diffusion.BridgeSet(times=bridges.times, values=values)


# ---------------------------------------------------------------------------

def _beta_binomial_closed(n: int, x: int, a: float, b: float) -> float:
    return math.comb(n, x) * math.exp(betaln(x + a, n - x + b) - betaln(a, b))


def _parse_prior(label: str) -> tuple[bayes.Prior, float, float]:
    """The prior named by a config label, with the (a, b) of its Beta oracle."""
    a, b = prior_beta_params(label)
    if label == "uniform-grid":
        return bayes.Prior.uniform_grid(), a, b
    return bayes.Prior.beta(a, b), a, b


def run_bayes(config: dict) -> tuple[Report, Curves]:
    seed, tol = config["seed"], config["tol"]
    cfg = config["bayes"]
    report = Report(experiment="bayes", seed=seed, tolerance=tol)
    priors = [_parse_prior(label) for label in cfg["priors"]]
    thetas = tuple(np.linspace(0.05, 0.95, 10))

    @functools.cache
    def predictive(prior_index: int, n: int) -> dict[str, bayes.PredictiveMeasure]:
        """One memoized predictive measure per base, shared by every check."""
        family, measures = bayes.binomial_family(n, thetas)
        return {mid: bayes.predictive_measure(family, mid, priors[prior_index][0], base)
                for mid, base in measures.items()}

    worst_marg = worst_post = worst_inv = worst_resid = 0.0
    for i, (prior, a, b) in enumerate(priors):
        for n in range(1, cfg["n_max"] + 1):
            lam = predictive(i, n)["counting"]
            family = lam.family
            for x in range(n + 1):
                m = lam.marginal(x)
                worst_marg = max(worst_marg, abs(m - _beta_binomial_closed(n, x, a, b)))
            x_probe = n // 2
            post1 = bayes.posterior(family, "counting", prior, x_probe)
            post2 = bayes.posterior(family, "counting-x2", prior, x_probe)
            worst_inv = max(worst_inv, float(np.max(np.abs(post1.values - post2.values))))
            lebesgue_density = post1.values * prior.density(post1.thetas)
            exact = bayes.beta_pdf(post1.thetas, x_probe + a, n - x_probe + b)
            worst_post = max(worst_post, float(np.max(np.abs(lebesgue_density - exact))))
            worst_resid = max(worst_resid, post1.normalization_residual)
    report.add("beta-binomial-marginals", worst_marg <= 1e-8, worst_error=worst_marg)
    report.add("posterior-vs-conjugate", worst_post <= 1e-8, worst_error=worst_post)
    report.add("posterior-base-invariance", worst_inv <= 1e-8, worst_error=worst_inv)
    report.add("posterior-normalized", worst_resid <= 1e-6, worst_residual=worst_resid)

    # predictive measure: invariance across bases and total mass
    n = cfg["n_max"]
    lams = predictive(0, n)
    lam = lams["counting"]
    atoms = tuple(range(n + 1))
    atom_sets = [(), atoms, atoms[: max(1, n // 2)], atoms[-2:]]
    inv_ok = bayes.predictive_invariance([lam, lams["counting-x2"]], atom_sets, tol=1e-8)
    total = lam.set_mass(atoms)
    report.add("predictive-invariance", inv_ok and abs(total - 1.0) <= 1e-6,
               total_mass=total)

    # dominance reports: full-support binomial vs a point-mass counterexample
    rep = bayes.dominance_check(lam)
    report.add("binomial-dominated", rep.dominated and rep.support_constant,
               zero_set=list(rep.zero_set))
    delta_family, delta_measures = _delta_family()
    rep2 = bayes.dominance_check(bayes.predictive_measure(
        delta_family, "counting", bayes.Prior.point_mass(0.0), delta_measures["counting"]))
    report.add("point-mass-counterexample", (not rep2.dominated) and rep2.zero_set == (1,),
               zero_set=list(rep2.zero_set), hits=list(rep2.zero_set_hit))

    x_emit = n // 2
    c1 = likelihood_curve(lam.family, "counting", x_emit)
    c2 = likelihood_curve(lam.family, "counting-x2", x_emit)
    return report, (c1, c2)


def _delta_family():
    """Two point masses indexed by their location, on atoms {0, 1}."""
    atoms = (0, 1)
    counting = bayes.DominatingMeasure.counting("counting", atoms)
    family = ModelFamily((0.0, 1.0), bayes.SampleSpace(label="delta", atoms=atoms))
    family.register_kernel(
        "counting", lambda ths, x: [0.0 if float(x) == th else NEG_INF for th in ths])
    return family, {"counting": counting}


# ---------------------------------------------------------------------------

def run_mcem(config: dict) -> tuple[Report, Curves]:
    seed, tol = config["seed"], config["tol"]
    cfg = config["mcem"]
    report = Report(experiment="mcem", seed=seed, tolerance=tol)
    result = mcem_missing_data(
        omega1=cfg["omega1"], rho=cfg["rho"], mc_size=cfg["mc_size"],
        iterations=cfg["iterations"], tilt=cfg["tilt"], tilt_tau=cfg["tilt_tau"],
        seed=seed)
    report.add("lebesgue-mle-near-closed-form",
               abs(result.theta_lebesgue - result.closed_form_mle) <= 3.0 * result.se_lebesgue,
               mle=result.theta_lebesgue, closed_form=result.closed_form_mle,
               se=result.se_lebesgue)
    report.add("tilted-mle-near-closed-form",
               abs(result.theta_tilted - result.closed_form_mle) <= 3.0 * result.se_tilted,
               mle=result.theta_tilted, closed_form=result.closed_form_mle,
               se=result.se_tilted)
    report.add("mles-agree", result.difference <= 2.0 * result.combined_se,
               difference=result.difference, combined_se=result.combined_se)
    expect_ks = cfg["tilt"] == "gaussian"
    report.add("samplers-differ", (result.ks_distance > 0.0) == expect_ks,
               ks_distance=result.ks_distance, ess_fraction=result.ess_fraction)

    # marginal likelihood curves under the two references differ by the
    # theta-free tilt margin at the observed coordinate
    log_sqrt_2pi = 0.5 * math.log(2.0 * math.pi)
    grid = tuple(np.linspace(0.0, 2.6, 14))
    omega1 = cfg["omega1"]
    tau = cfg["tilt_tau"]
    base_vals = tuple(-0.5 * (omega1 - th) ** 2 - log_sqrt_2pi for th in grid)
    margin = (-0.5 * (omega1 / tau) ** 2 - math.log(tau) - log_sqrt_2pi
              if cfg["tilt"] == "gaussian" else 0.0)
    c1 = LogLikelihoodCurve("lebesgue", "omega1", grid, base_vals)
    c2 = LogLikelihoodCurve("tilted-lebesgue", "omega1", grid,
                            tuple(v - margin for v in base_vals))
    report.metrics["theta_lebesgue"] = result.theta_lebesgue
    report.metrics["theta_tilted"] = result.theta_tilted
    report.metrics["ks_distance"] = result.ks_distance
    return report, (c1, c2)


# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "proportionality": run_proportionality,
    "mixture": run_mixture,
    "expfam": run_expfam,
    "poisson": run_poisson,
    "diffusion": run_diffusion,
    "bayes": run_bayes,
    "mcem": run_mcem,
}


def run_experiment(name: str, config: dict, out_dir=None) -> Report:
    """Dispatch one named experiment; write report.json and curves.csv."""
    if name == "all":
        return run_all(config, out_dir)
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from "
                          f"{sorted(EXPERIMENTS)} or 'all'")
    start = time.perf_counter()
    report, (curve1, curve2) = EXPERIMENTS[name](config)
    report.runtime_seconds = time.perf_counter() - start
    if out_dir is not None:
        target = Path(out_dir) / name
        write_report_json(report, target / "report.json")
        emit_curves(curve1, curve2, target / "curves.csv")
    return report


def run_all(config: dict, out_dir=None) -> Report:
    start = time.perf_counter()
    summary = Report(experiment="all", seed=config["seed"], tolerance=config["tol"])
    for name in EXPERIMENTS:
        sub = run_experiment(name, config, out_dir)
        summary.add(name, sub.passed, checks=len(sub.checks))
    summary.runtime_seconds = time.perf_counter() - start
    if out_dir is not None:
        write_report_json(summary, Path(out_dir) / "report.json")
    return summary
