"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
from scipy.special import betaln
from scipy.stats import beta as beta_dist
from scipy.stats import norm

from radonlik import (DominatingMeasure, ModelFamily, SampleSpace,
                      atomwise_abs_continuous, build_minimal_dominating_measure,
                      check_proportionality, finite_family, likelihood_curve,
                      neighborhood_density_limit, verify_dominance)
from radonlik.bayes import Prior, binomial_family, marginal_density, posterior
from radonlik.diffusion import ou_exact_transition_density, ou_spec, transition_density_mc
from radonlik.harness import load_config, run_experiment
from radonlik.harness.mcem import mcem_missing_data
from radonlik.mixture import (COMPONENT_CATALOG, atom_weight_family, atom_weight_mixture,
                              grid_mle, simulate)

SEED = 20260810


def _line(number: int, passed: bool, name: str, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{status}] {name}{suffix}", flush=True)


def test_criterion_1_proportionality_suite():
    """Four model classes, 100 randomized instances each, tol 1e-8."""
    config = load_config()
    assert config["proportionality"]["instances"] == 100
    start = time.perf_counter()
    report = run_experiment("proportionality", config)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 600.0
    # the whole run, diffusion included, fits the tighter non-diffusion budget
    ok = ok and elapsed < 60.0
    _line(1, ok, "proportionality suite",
          f"4 classes x 100 instances, {elapsed:.1f}s")
    assert report.passed
    assert elapsed < 600.0 and elapsed < 60.0


def test_criterion_2_poisson_identity():
    """Kernel gap equals -|S| - log N! to 1e-10; hand constant on [0,1], N=2."""
    config = load_config()
    report = run_experiment("poisson", config)
    by_name = {c.name: c for c in report.checks}
    gap = by_name["kernel-gap-identity"]
    hand = by_name["unit-region-two-points-constant"]
    ok = gap.passed and hand.passed
    want = -1.0 - math.log(2.0)
    ok = ok and abs(hand.detail["constant"] - want) <= 1e-10
    _line(2, ok, "poisson kernel-gap identity",
          f"worst error {gap.detail['worst_error']:.2e}, constant {hand.detail['constant']:.6f}")
    assert ok


def test_criterion_3_diffusion_oracle():
    """MC transition density vs closed form: 3 SE and 2% at 5 points."""
    points = ((1.0, 1.0, 0.0, 0.5), (1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.3, -0.2),
              (1.0, 1.0, -0.5, 0.5), (1.0, 1.0, 0.2, 0.9))
    spec = ou_spec()
    start = time.perf_counter()
    worst_rel = worst_z = 0.0
    for j, (theta, t, x0, x1) in enumerate(points):
        est, se = transition_density_mc(spec, theta, t, x0, x1,
                                        n_replicates=10 ** 5, step=1e-3,
                                        seed=[SEED, 3, j])
        exact = ou_exact_transition_density(theta, t, x0, x1)
        worst_rel = max(worst_rel, abs(est - exact) / exact)
        worst_z = max(worst_z, abs(est - exact) / se)
    elapsed = time.perf_counter() - start
    ok = worst_rel < 0.02 and worst_z <= 3.0 and elapsed < 300.0
    _line(3, ok, "diffusion MC oracle",
          f"worst rel {worst_rel:.4f}, worst z {worst_z:.2f}, {elapsed:.0f}s")
    assert ok


def test_criterion_4_bayes_oracle():
    """Beta-binomial marginals, posteriors, and base invariance at 1e-8."""
    worst_marg = worst_post = worst_inv = 0.0
    for prior, a, b in ((Prior.uniform_grid(), 1.0, 1.0), (Prior.beta(2.0, 3.0), 2.0, 3.0)):
        for n in range(1, 11):
            family, _ = binomial_family(n, (0.5,))
            for x in range(n + 1):
                m = marginal_density(family, "counting", prior, x)
                closed = math.comb(n, x) * math.exp(betaln(x + a, n - x + b) - betaln(a, b))
                worst_marg = max(worst_marg, abs(m - closed))
            x = n // 2
            p1 = posterior(family, "counting", prior, x)
            p2 = posterior(family, "counting-x2", prior, x)
            worst_inv = max(worst_inv, float(np.max(np.abs(p1.values - p2.values))))
            lebesgue = p1.values * prior.density(p1.thetas)
            exact = beta_dist.pdf(p1.thetas, x + a, n - x + b)
            worst_post = max(worst_post, float(np.max(np.abs(lebesgue - exact))))
    ok = worst_marg <= 1e-8 and worst_post <= 1e-8 and worst_inv <= 1e-8
    _line(4, ok, "beta-binomial oracle",
          f"marginal {worst_marg:.1e}, posterior {worst_post:.1e}, invariance {worst_inv:.1e}")
    assert ok


def test_criterion_5_shrinking_ball_limit():
    """Ball-mass ratios: Gaussian error decreasing to < 1e-3; atom to p1."""
    target = 0.3989423
    fam = ModelFamily((0.0,), SampleSpace(region=(-30.0, 30.0)))
    fam.register_kernel("lebesgue", lambda ths, y: np.full(len(ths), norm.logpdf(y)))
    nu = DominatingMeasure.lebesgue("lebesgue", (-30.0, 30.0))
    radii = [2.0 ** (-j) for j in range(4, 15)]
    ratios = neighborhood_density_limit(fam, nu, 0.0, 0.0, radii)
    errors = [abs(r - target) for r in ratios]
    monotone = all(b < a for a, b in zip(errors, errors[1:]))

    p1 = 0.3
    mix = atom_weight_mixture(0.0, COMPONENT_CATALOG["exponential"](), p1)
    atom_fam = ModelFamily((p1,), SampleSpace(region=(-1.0, math.inf)),
                           interval_mass=lambda th, lo, hi: mix.interval_mass(lo, hi))
    atom_nu = DominatingMeasure.counting_lebesgue_sum("mixed", (0.0,), (-1.0, math.inf))
    atom_ratios = neighborhood_density_limit(atom_fam, atom_nu, p1, 0.0, radii)
    atom_err = abs(atom_ratios[-1] - p1)

    ok = monotone and errors[-1] < 1e-3 and atom_err < 1e-3
    _line(5, ok, "shrinking-ball density limit",
          f"gaussian final {errors[-1]:.1e} monotone={monotone}, atom final {atom_err:.1e}")
    assert ok


def test_criterion_6_minimal_mixture_suite():
    """200 random finite families: the uniform mixture dominates and is
    dominated atomwise by every tested dominating measure."""
    rng = np.random.default_rng([SEED, 6])
    failures = 0
    for _ in range(200):
        n_atoms = int(rng.integers(2, 11))
        n_members = int(rng.integers(1, 6))
        atoms = tuple(range(n_atoms))
        rows = []
        for _ in range(n_members):
            while True:
                masses = rng.uniform(size=n_atoms) * (rng.uniform(size=n_atoms) > 0.3)
                if masses.sum() > 0:
                    break
            rows.append(tuple(masses / masses.sum()))
        thetas = tuple(f"t{i}" for i in range(n_members))
        fam = finite_family(atoms, rows, thetas)
        q = build_minimal_dominating_measure(fam, thetas)
        if not verify_dominance(q, fam):
            failures += 1
            continue
        union = {a for a, row in zip(atoms, zip(*rows)) if any(m > 0 for m in row)}
        for _ in range(3):
            w = {a: (float(rng.uniform(0.1, 1.0)) if a in union or rng.uniform() < 0.5 else 0.0)
                 for a in atoms}
            if not atomwise_abs_continuous(q.atom_masses, w, atoms):
                failures += 1
    ok = failures == 0
    _line(6, ok, "minimal dominating mixture suite", f"200 families, {failures} failures")
    assert ok


def test_criterion_7_mixture_misspecification():
    """Correct MLE near truth; naive MLE reported; curves not proportional."""
    p_true = 0.3
    comp = COMPONENT_CATALOG["exponential"]()
    grid = tuple(np.linspace(0.05, 0.95, 19))
    sample = simulate(atom_weight_mixture(0.0, comp, p_true), 10 ** 4, seed=[SEED, 7])
    mixes = [atom_weight_mixture(0.0, comp, p) for p in grid]
    best_correct = grid[min(grid_mle(mixes, grid, sample, "correct"))]
    best_naive = grid[min(grid_mle(mixes, grid, sample, "naive"))]
    family = atom_weight_family(0.0, comp, grid)
    c1 = likelihood_curve(family, "counting-lebesgue", sample)
    c2 = likelihood_curve(family, "counting-lebesgue-naive", sample)
    not_proportional = not check_proportionality(c1, c2, 1e-8).passed
    ok = abs(best_correct - p_true) <= 0.05 and not_proportional
    _line(7, ok, "mixture misspecification demo",
          f"correct MLE {best_correct:.2f}, naive MLE {best_naive:.2f} "
          f"(deviation {best_naive - p_true:+.2f}), proportionality rejected={not_proportional}")
    assert ok


def test_criterion_8_mcem_invariance():
    """MC-EM MLEs agree across measures and match the closed-form MLE."""
    result = mcem_missing_data(omega1=1.3, rho=0.5, mc_size=10 ** 4, iterations=20,
                               tilt="gaussian", tilt_tau=2.0, seed=SEED)
    ok = (abs(result.theta_lebesgue - 1.3) <= 3.0 * result.se_lebesgue
          and abs(result.theta_tilted - 1.3) <= 3.0 * result.se_tilted
          and result.difference <= 2.0 * result.combined_se
          and result.ks_distance > 0.0)
    _line(8, ok, "mcem invariance",
          f"mles {result.theta_lebesgue:.4f}/{result.theta_tilted:.4f}, "
          f"diff {result.difference:.4f} <= 2x{result.combined_se:.4f}, "
          f"KS {result.ks_distance:.3f}")
    assert ok


def test_criterion_9_determinism(tmp_path):
    """Every suite rerun with the same seed is byte-identical."""
    config = load_config()
    mismatches = []
    for name in ("proportionality", "mixture", "expfam", "poisson", "diffusion",
                 "bayes", "mcem"):
        run_experiment(name, config, tmp_path / "a")
        run_experiment(name, config, tmp_path / "b")
        for artifact in ("report.json", "curves.csv"):
            a = (tmp_path / "a" / name / artifact).read_bytes()
            b = (tmp_path / "b" / name / artifact).read_bytes()
            if a != b:
                mismatches.append(f"{name}/{artifact}")
    ok = not mismatches
    _line(9, ok, "byte-identical reruns",
          "all suites" if ok else f"mismatch: {', '.join(mismatches)}")
    assert ok
