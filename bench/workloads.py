"""The benchmark's workloads: inputs made from the benchmark seed, the ops
that push them through radonlik's public functions, and each op's oracle.

An op is a pair of callables: `run` does the program's work and is timed;
`check` compares its result with an oracle and is not timed. Ops come in
passes, the workload's unit of work, whose time gives `all_ref`; the work
of a pass does not depend on the seed, only its inputs do.
"""

from __future__ import annotations

import copy
import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Ops call radonlik through module attributes, so that a tracer's rebinding
# reaches them; checks use the names bound here, which it leaves untraced.
from radonlik import diffusion, expfam, likelihood, mixture, poisson
from radonlik.diffusion import ou_exact_transition_density
from radonlik.harness import EXPERIMENTS, experiments
from radonlik.likelihood import argmax_indices, argmax_invariance, check_proportionality

# Tags that keep the workloads' random streams apart.
_LAB, _BRIDGE, _LARGE = 1, 2, 3


def derive_seed(bench_seed: int, *tags: int) -> int:
    """A nonnegative 63-bit seed, a pure function of the benchmark seed."""
    state = np.random.SeedSequence([bench_seed, *tags]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, dict]]


class Workload:
    """Inputs and ops of one workload; see the subclasses.

    `kind_metrics` names the untraced per-kind median times the workload
    reports beside its per-layer metrics. An op with the same inputs as an
    earlier one in the run (a repeated pass, or a traced rerun of an
    untraced pass) must give exactly the same result; `repeats` checks it.
    """

    name: str
    span_prefix = "bench"
    min_passes = 1
    kind_metrics: dict[str, str] = {}

    def __init__(self, bench_seed: int, tmp: Path, config: dict):
        self.seed = bench_seed
        self.tmp = tmp
        self._digests: dict[tuple, bytes] = {}

    def repeats(self, key: tuple, value) -> bool:
        """Only a digest is kept, so memory does not grow with the passes."""
        digest = hashlib.sha256(repr(value).encode()).digest()
        return self._digests.setdefault(key, digest) == digest

    def warm_up(self) -> None:
        """Pay lazy imports and first-call costs before timing."""

    def ops(self, index: int) -> list[Op]:
        raise NotImplementedError


def _scaled_tol(tol: float, *curves) -> float:
    """`tol` relative to the log-likelihood magnitude, never below `tol`.

    For a pattern of 2e4 points each Poisson route adds 2e4 log-intensities,
    one at a time, to a sum near 2e5, where a float64 step is 3e-11; the
    two routes' rounding differs by about 3e-9, above an absolute 1e-10.
    """
    top = max(abs(v) for c in curves for v in c.values if math.isfinite(v))
    return tol * max(1.0, top)


# ---------------------------------------------------------------------------

class LabDefault(Workload):
    """All seven experiments at the default config, as `radonlik all` runs
    them; artifacts go to the run's temp dir. Every pass of a run uses the
    same derived experiment seed, so each pass after the first is also a
    byte-identity check of report.json and curves.csv against the first
    (criterion 9)."""

    name = "lab-default"
    span_prefix = "experiments"
    min_passes = 2
    kind_metrics = {"diffusion_s": "diffusion", "bayes_s": "bayes",
                    "proportionality_s": "proportionality", "poisson_s": "poisson"}

    def __init__(self, bench_seed: int, tmp: Path, config: dict):
        super().__init__(bench_seed, tmp, config)
        self.config = copy.deepcopy(config)
        self.config["seed"] = derive_seed(bench_seed, _LAB)

    def warm_up(self) -> None:
        """One small pass, so lazy imports and first-call costs are paid."""
        small = copy.deepcopy(self.config)
        small["proportionality"]["instances"] = 2
        small["mixture"]["n_samples"] = 200
        small["poisson"].update(patterns=2, replicates=100)
        small["diffusion"]["mc_replicates"] = 200
        small["bayes"]["n_max"] = 1
        small["mcem"].update(mc_size=200, iterations=2)
        out = self.tmp / "warm-up"
        for name in EXPERIMENTS:
            experiments.run_experiment(name, small, out)
        shutil.rmtree(out)

    def ops(self, index: int) -> list[Op]:
        out = self.tmp / f"pass-{index}"
        return [Op(kind=name,
                   run=lambda name=name: experiments.run_experiment(name, self.config, out),
                   check=lambda report, name=name: self._check(name, report, out / name))
                for name in EXPERIMENTS]

    def _check(self, name: str, report, target: Path) -> tuple[bool, dict]:
        artifacts = ((target / "report.json").read_bytes(),
                     (target / "curves.csv").read_bytes())
        shutil.rmtree(target)
        same = self.repeats((name,), artifacts)
        failed_checks = [c.name for c in report.checks if not c.passed]
        return report.passed and same, {"failed_checks": failed_checks, "byte_identical": same}


# ---------------------------------------------------------------------------

class BridgeMC(Workload):
    """Bridge Monte Carlo through `diffusion`, in two kinds of op.

    oracle: one `transition_density_mc` point at the diffusion experiment's
      replicates (2e4) and step (1e-3); chunks of 2048 x 563-938 steps, and
      no draws shared between points.
    mle: one `mle_theta` curve over an 8-point grid on a 20-interval record;
      chunks of 400 x 100 steps, and every grid point reuses the same
      per-interval bridges.

    A pass is four oracle points, at the same (theta, t, x0, x1) in every
    pass but with fresh draws, and four MLE curves on fresh records.
    """

    name = "bridge-mc"
    kind_metrics = {"mle_curve_s": "mle"}

    replicates = 20000
    step = 1e-3
    points = 4
    mle_grid = tuple(np.linspace(0.25, 2.0, 8))
    mle_times = tuple(np.arange(21) * 0.5)
    mle_replicates = 400
    mle_step_fraction = 0.01
    # Every pass draws fresh bridges, so each oracle point is an independent
    # test, and a set of runs makes about a thousand. At 3 SE (two-sided
    # 0.27%) a correct estimator fails a few of them: over 200 points the
    # z-scores had mean 0.05 and SD 0.95, and in other runs single points
    # reached 3.03 and 3.70 SE at relative errors near 0.2%. At 5 SE
    # (two-sided 5.7e-7) the chance of one false alarm in a thousand points
    # stays below 1e-3. With a relative SE near 5e-4, the check still
    # catches a bias of 0.25%.
    max_se_multiples = 5.0

    def __init__(self, bench_seed: int, tmp: Path, config: dict):
        super().__init__(bench_seed, tmp, config)
        rng = np.random.default_rng(derive_seed(bench_seed, _BRIDGE))
        # t sits at the midpoints of `points` strata of [0.5, 1], so the work
        # of a pass (steps per path) does not depend on the seed; theta, x0
        # and x1 are drawn from strata of the diffusion experiment's ranges.
        t = 0.5 + 0.5 * (np.arange(self.points) + 0.5) / self.points
        lo = np.array([0.5, -0.5, -0.2])
        hi = np.array([1.5, 0.3, 0.9])
        strata = np.column_stack([rng.permutation(self.points) for _ in lo])
        drawn = lo + (strata + rng.uniform(size=strata.shape)) / self.points * (hi - lo)
        self.oracle_points = [(float(theta), float(round(tk / self.step) * self.step),
                               float(x0), float(x1))
                              for tk, (theta, x0, x1) in zip(t, drawn)]
        self.ou = diffusion.ou_spec()

    def warm_up(self) -> None:
        diffusion.transition_density_mc(self.ou, 1.0, 0.5, 0.0, 0.5, 200, self.step, seed=0)
        diffusion.mle_theta(self.ou, diffusion.simulate_ou(1.0, 0.0, self.mle_times[:3], 0),
                            self.mle_grid[:2], 100, self.mle_step_fraction, seed=0)

    def ops(self, index: int) -> list[Op]:
        """Every oracle point, each followed by an MLE curve on a fresh record."""
        ops = []
        for point in range(self.points):
            ops.append(self._oracle_op(point, index))
            ops.append(self._mle_op(index * self.points + point))
        return ops

    def _oracle_op(self, point: int, index: int) -> Op:
        theta, t, x0, x1 = self.oracle_points[point]
        mc_seed = derive_seed(self.seed, _BRIDGE, 1, index, point)
        return Op(kind="oracle",
                  run=lambda: diffusion.transition_density_mc(
                      self.ou, theta, t, x0, x1, self.replicates, self.step, seed=mc_seed),
                  check=lambda r: self._check_oracle(r, point, index))

    def _mle_op(self, record: int) -> Op:
        rng = np.random.default_rng(derive_seed(self.seed, _BRIDGE, 2, record))
        obs = diffusion.simulate_ou(float(rng.uniform(0.5, 1.5)), 0.0, self.mle_times,
                                    int(rng.integers(0, 2 ** 62)))
        mle_seed = int(rng.integers(0, 2 ** 62))
        return Op(kind="mle",
                  run=lambda: diffusion.mle_theta(self.ou, obs, self.mle_grid, self.mle_replicates,
                                                  self.mle_step_fraction, seed=mle_seed),
                  check=lambda r: self._check_mle(r, obs, record))

    def _check_oracle(self, result, point: int, index: int) -> tuple[bool, dict]:
        """Within `max_se_multiples` SE and 2% of the closed form; a rerun of
        the same draws must repeat its estimate exactly."""
        est, se = result
        exact = ou_exact_transition_density(*self.oracle_points[point])
        rel = abs(est - exact) / exact
        z = abs(est - exact) / se
        same = self.repeats(("oracle", point, index), result)
        ok = rel < 0.02 and z <= self.max_se_multiples and same
        return ok, {"relative_error": rel, "se_multiples": z, "rse": se / est, "repeatable": same}

    def _check_mle(self, result, obs, record: int) -> tuple[bool, dict]:
        """Argmax within one grid index of the exact-density argmax."""
        idx, curve = result
        exact_curve = [sum(math.log(ou_exact_transition_density(
                           th, obs.times[i + 1] - obs.times[i], obs.values[i], obs.values[i + 1]))
                           for i in range(obs.n_intervals)) for th in self.mle_grid]
        exact_idx = int(np.argmax(exact_curve))
        distance = min(abs(i - exact_idx) for i in idx)
        same = self.repeats(("mle", record), curve)
        return distance <= 1 and same, {"argmax": sorted(idx), "exact_argmax": exact_idx,
                                        "repeatable": same}


# ---------------------------------------------------------------------------

class LargeSample(Workload):
    """Few kernel calls, each on a large observation; no path Monte Carlo.

    mixture: 1e5 draws of an atom-plus-exponential mixture on a 99-point
      p-grid, two measure routes plus `grid_mle`.
    poisson: one thinning pattern of about 2e4 points (sinusoidal
      intensity, so a third of the proposals are rejected) and its two
      likelihood curves on an 11-point grid.
    expfam: 3000 Poisson draws on a 15-point grid, against the counting
      base, the carrier tilt and a geometric-weighted base.

    Proportionality is checked at the lab's 1e-8 and the Poisson gap
    identity at 1e-10; the Poisson checks scale theirs by the magnitude of
    the log-likelihoods (see `_scaled_tol`).
    """

    name = "large-sample"
    kind_metrics = {"mixture_curve_s": "mixture", "poisson_pattern_s": "poisson",
                    "expfam_curve_s": "expfam"}

    mixture_n = 100_000
    p_grid = tuple(np.linspace(0.01, 0.99, 99))
    poisson_points = 20_000
    expfam_n = 3000
    expfam_grid = tuple(np.linspace(0.4, 6.0, 15))
    tol = 1e-8           # the lab's default proportionality tolerance
    gap_tol = 1e-10      # the Poisson gap identity's tolerance

    def __init__(self, bench_seed: int, tmp: Path, config: dict):
        super().__init__(bench_seed, tmp, config)
        self.component = mixture.COMPONENT_CATALOG["exponential"]()
        self.family = mixture.atom_weight_family(0.0, self.component, self.p_grid)
        self.mixes = [mixture.atom_weight_mixture(0.0, self.component, p) for p in self.p_grid]

    def warm_up(self) -> None:
        sample = mixture.simulate(self.mixes[10], 100, 0)
        likelihood.likelihood_curve(self.family, "counting-lebesgue", sample)

    def ops(self, index: int) -> list[Op]:
        rng = np.random.default_rng(derive_seed(self.seed, _LARGE, index))
        return [self._mixture_op(rng, index), self._poisson_op(rng, index),
                self._expfam_op(rng, index)]

    def _mixture_op(self, rng, index: int) -> Op:
        p_true = float(rng.uniform(0.15, 0.7))
        sample_seed = int(rng.integers(0, 2 ** 62))

        def run():
            sample = mixture.simulate(mixture.atom_weight_mixture(0.0, self.component, p_true),
                                      self.mixture_n, sample_seed)
            c1 = likelihood.likelihood_curve(self.family, "counting-lebesgue", sample)
            c2 = likelihood.likelihood_curve(self.family, "counting-2lebesgue", sample)
            mle = mixture.grid_mle(self.mixes, self.p_grid, sample, "correct")
            return c1, c2, mle

        def check(result):
            c1, c2, mle = result
            prop = check_proportionality(c1, c2, self.tol)
            same_mle = mle == argmax_indices(c1)
            same = self.repeats(("mixture", index), (c1.values, c2.values, mle))
            ok = prop.passed and argmax_invariance(c1, c2) and same_mle and same
            return ok, {"max_deviation": prop.max_deviation, "grid_mle_matches_curve": same_mle,
                        "repeatable": same}

        return Op(kind="mixture", run=run, check=check)

    def _poisson_op(self, rng, index: int) -> Op:
        # On [0, 1] the sinusoidal intensity c (1 + sin(2 pi s) / 2) integrates
        # to c, so the pattern holds about `poisson_points` points.
        theta_true = float(self.poisson_points)
        grid = tuple(np.linspace(0.8, 1.2, 11) * theta_true)
        model = poisson.sinusoidal_intensity(grid, ((0.0, 1.0),))
        bound = theta_true * 1.5 + 1e-9
        pattern_seed = int(rng.integers(0, 2 ** 62))

        def run():
            pattern = poisson.simulate_thinning(model, theta_true, bound, pattern_seed)
            family = poisson.pattern_model_family(model)
            c1 = likelihood.likelihood_curve(family, poisson.MEASURE_PRODUCT, pattern)
            c2 = likelihood.likelihood_curve(family, poisson.MEASURE_UNIT_POISSON, pattern)
            return pattern, c1, c2

        def check(result):
            pattern, c1, c2 = result
            expected = -pattern.volume - math.lgamma(pattern.count + 1)
            gap_err = max(abs(a - b - expected) for a, b in zip(c1.values, c2.values))
            prop = check_proportionality(c1, c2, _scaled_tol(self.tol, c1, c2))
            same = self.repeats(("poisson", index), (pattern.locations, c1.values, c2.values))
            ok = (gap_err <= _scaled_tol(self.gap_tol, c1, c2) and prop.passed
                  and argmax_invariance(c1, c2) and same)
            return ok, {"points": pattern.count, "gap_abs_err": gap_err,
                        "max_deviation": prop.max_deviation, "repeatable": same}

        return Op(kind="poisson", run=run, check=check)

    def _expfam_op(self, rng, index: int) -> Op:
        rate = float(rng.uniform(0.5, 5.0))
        draws = tuple(float(x) for x in rng.poisson(rate, size=self.expfam_n))

        def run():
            fam = expfam.poisson_family(self.expfam_grid)
            weights = tuple(0.5 ** (i + 1) for i in range(len(fam.base.atoms)))
            lookup = dict(zip(fam.base.atoms, weights))
            alt = expfam.DominatingMeasure.counting("geometric-weighted", fam.base.atoms, weights)
            changed = expfam.change_dominating_measure(
                fam, alt, mixture_density_new=lambda x: 1.0 / lookup[x],
                mixture_density_old=lambda x: 1.0)
            n = self.expfam_n
            model = expfam.as_model_family(
                expfam.iid_family(fam, n),
                ("lambda-tilt", expfam.iid_family(expfam.tilt_to_lambda(fam), n)),
                ("alt-base", expfam.iid_family(changed, n)))
            return [likelihood.likelihood_curve(model, mid, draws)
                    for mid in ("base", "lambda-tilt", "alt-base")]

        def check(curves):
            base, *others = curves
            devs = []
            ok = True
            for other in others:
                prop = check_proportionality(base, other, self.tol)
                ok = ok and prop.passed and argmax_invariance(base, other)
                devs.append(prop.max_deviation)
            same = self.repeats(("expfam", index), tuple(c.values for c in curves))
            return ok and same, {"max_deviation": max(devs), "repeatable": same}

        return Op(kind="expfam", run=run, check=check)


WORKLOADS = {w.name: w for w in (LabDefault, BridgeMC, LargeSample)}
