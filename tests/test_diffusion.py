"""Space transform, bridges, joint pseudo-density, and the MC oracle."""

import math
import multiprocessing
import sys
import threading
import warnings
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from scipy.integrate import quad

from radonlik import argmax_invariance, check_proportionality, diffusion, likelihood_curve
from radonlik.diffusion import (MEASURE_OBS_BRIDGE, MEASURE_OBS_BRIDGE_TILTED, SDE_CATALOG,
                                BridgeSegment, BridgeSet, ObservationSet, SDESpec,
                                _bridge_rows, _drift_corrections, brownian_drift_spec,
                                diffusion_model_family, lamperti, lamperti_derivative,
                                logistic_spec, mle_theta, obs_bridge_log_density,
                                observations_from_csv, ou_exact_transition_density, ou_spec,
                                sample_bridge_set, simulate_ou, transform_observations,
                                transition_density_mc)
from radonlik.harness import load_config
from radonlik.harness.experiments import run_diffusion

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class Textbook(NamedTuple):
    """A catalog spec's coefficients as a textbook states them."""

    drift: Callable             # a(y, theta)
    dsigma_dy: Callable         # sigma'(y, theta)
    base_point: float           # where eta vanishes
    points: tuple               # values u in the state interval to check at


# The closed forms of each catalog spec, by name, are checked against the
# generic derivation from these at x = eta(u), so no inversion is needed.
REFERENCE = {
    "ou": Textbook(lambda y, th: -th * y, lambda y, th: 0.0, 0.0, (-1.5, -0.2, 0.7, 2.0)),
    "brownian-drift": Textbook(lambda y, th: th, lambda y, th: 0.0, 0.0,
                               (-1.5, -0.2, 0.7, 2.0)),
    "logistic": Textbook(lambda y, th: th * y * (1.0 - y), lambda y, th: 1.0, 1.0,
                         (0.3, 1.0, 2.5)),
}


def reference_eta(spec: SDESpec, u: float, theta) -> float:
    """Integral of 1/sigma from the base point to u, by quadrature."""
    value, _ = quad(lambda y: 1.0 / spec.sigma(y, theta), REFERENCE[spec.name].base_point, u,
                    epsabs=1e-12, limit=400)
    return value


def reference_alpha(spec: SDESpec, u: float, theta) -> float:
    """Unit-diffusion drift at x = eta(u): a(u)/sigma(u) - sigma'(u)/2."""
    book = REFERENCE[spec.name]
    return book.drift(u, theta) / spec.sigma(u, theta) - 0.5 * book.dsigma_dy(u, theta)


def reference_drift_integral(spec: SDESpec, x: float, theta) -> float:
    """Integral of the closed-form alpha from 0 to x, by quadrature."""
    value, _ = quad(lambda z: float(spec.alpha_fn(z, theta)), 0.0, x, epsabs=1e-12, limit=400)
    return value


def central_difference(fn, x: float, theta, h: float = 1e-5) -> float:
    return (fn(x + h, theta) - fn(x - h, theta)) / (2.0 * h)


class TestClosedForms:
    """Every catalog spec's closed forms agree with the generic derivation
    from its textbook a(y), sigma(y) and sigma'(y)."""

    def test_reference_table_covers_the_catalog(self):
        assert REFERENCE.keys() == SDE_CATALOG.keys()

    @pytest.mark.parametrize("name", sorted(SDE_CATALOG))
    def test_catalog_spec_matches_generic_derivation(self, name):
        # the proportionality experiment draws the OU sigma0 from [0.6, 1.6]
        spec = ou_spec(sigma0=1.3) if name == "ou" else SDE_CATALOG[name]()
        for theta in (0.0, 0.7, 2.0):
            for u in REFERENCE[name].points:
                x = lamperti(spec, u, theta)
                assert x == pytest.approx(reference_eta(spec, u, theta), abs=1e-10)
                assert spec.alpha_fn(x, theta) == pytest.approx(
                    reference_alpha(spec, u, theta), abs=1e-10)
                assert spec.dalpha_dx(x, theta) == pytest.approx(
                    central_difference(spec.alpha_fn, x, theta), abs=1e-8)
                assert spec.drift_integral_fn(x, theta) == pytest.approx(
                    reference_drift_integral(spec, x, theta), abs=1e-10)


class TestLamperti:
    def test_unit_sigma_is_identity(self):
        spec = brownian_drift_spec()
        assert lamperti(spec, 1.7, 0.5) == pytest.approx(1.7)

    def test_constant_sigma_is_linear(self):
        spec = ou_spec(sigma0=2.0)
        assert lamperti(spec, 3.0, 1.0) == pytest.approx(1.5)
        assert lamperti_derivative(spec, 3.0, 1.0) == pytest.approx(0.5)
        assert lamperti_derivative(brownian_drift_spec(), 3.0, 1.0) == 1.0

    def test_multiplicative_sigma_gives_log(self):
        spec = logistic_spec()
        assert lamperti(spec, 4.0, 1.0) == pytest.approx(math.log(4.0))
        assert lamperti_derivative(spec, 4.0, 1.0) == pytest.approx(0.25)

    def test_quadrature_route_matches_closed_form(self):
        spec = logistic_spec()
        assert reference_eta(spec, 4.0, 1.0) == pytest.approx(math.log(4.0), abs=1e-10)
        assert lamperti(spec, 4.0, 1.0) == pytest.approx(math.log(4.0), abs=1e-10)

    def test_sigma_derivative_matches_finite_differences(self):
        # the reference table's sigma' is the derivative of the spec's sigma
        for spec in (ou_spec(1.3), logistic_spec()):
            y, th = 1.5, 0.8
            got = REFERENCE[spec.name].dsigma_dy(y, th)
            assert got == pytest.approx(central_difference(spec.sigma, y, th, h=1e-6),
                                        rel=1e-5, abs=1e-7)

    def test_transform_is_strictly_monotone_in_y(self):
        obs = ObservationSet(times=(0.0, 1.0, 2.0), values=(0.5, 2.0, 1.0))
        trans = transform_observations(logistic_spec(), obs, 0.9)
        order_y = np.argsort(obs.values)
        order_x = np.argsort(trans)
        assert np.array_equal(order_y, order_x)


class TestUnitDrift:
    def test_unit_sigma_keeps_raw_drift(self):
        assert brownian_drift_spec().alpha_fn(0.3, 2.0) == pytest.approx(2.0)

    def test_mean_reverting_case(self):
        assert ou_spec().alpha_fn(1.5, 2.0) == pytest.approx(-3.0)

    def test_generic_route_matches_closed_form(self):
        spec, u, theta = logistic_spec(), math.exp(0.6), 1.1
        got = spec.alpha_fn(lamperti(spec, u, theta), theta)
        assert got == pytest.approx(reference_alpha(spec, u, theta), abs=1e-9)

    def test_derivative_central_difference(self):
        spec = logistic_spec()
        want = central_difference(spec.alpha_fn, 0.4, 0.9)
        assert spec.dalpha_dx(0.4, 0.9) == pytest.approx(want, abs=1e-5)


class TestDriftIntegral:
    def test_mean_reverting_closed_form(self):
        assert ou_spec().drift_integral_fn(2.0, 1.0) == pytest.approx(-2.0)

    def test_zero_at_origin(self):
        assert ou_spec().drift_integral_fn(0.0, 1.7) == 0.0

    def test_zero_drift_integral_vanishes(self):
        spec = brownian_drift_spec()
        for u in (-1.0, 0.0, 2.5):
            assert spec.drift_integral_fn(u, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_matches_closed_form(self):
        spec = logistic_spec()
        got = reference_drift_integral(spec, 1.3, 0.8)
        assert got == pytest.approx(spec.drift_integral_fn(1.3, 0.8), abs=1e-9)


class TestBridgeSampling:
    def test_endpoints_exactly_zero(self):
        values = _bridge_rows(np.random.default_rng(0), 3, 8, 0.125)
        assert np.all(values[:, 0] == 0.0) and np.all(values[:, -1] == 0.0)

    def test_step_equal_to_length_leaves_endpoints_only(self):
        (segment,) = sample_bridge_set((0.0, 1.0), 1, seed=1).segments
        assert np.array_equal(segment.values, np.zeros(2))

    def test_seed_reproducibility(self):
        a = sample_bridge_set((0.0, 1.0, 2.0), 8, seed=11).segments
        b = sample_bridge_set((0.0, 1.0, 2.0), 8, seed=11).segments
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_sequence_seeds_keep_every_entry(self):
        times = (0.0, 0.5, 1.25)
        one = sample_bridge_set(times, 8, [7, 1]).segments
        two = sample_bridge_set(times, 8, [7, 2]).segments
        assert not any(np.array_equal(a.values, b.values) for a, b in zip(one, two))
        # an int seed s is the one-entry sequence [s]
        for a, b in zip(sample_bridge_set(times, 8, 7).segments,
                        sample_bridge_set(times, 8, [7]).segments):
            assert np.array_equal(a.values, b.values)
        obs = ObservationSet(times=(0.0, 0.5, 1.0), values=(0.2, 0.1, -0.3))
        _, curve1 = mle_theta(ou_spec(), obs, (0.5, 1.0), 200, 0.05, seed=[4, 1])
        _, curve2 = mle_theta(ou_spec(), obs, (0.5, 1.0), 200, 0.05, seed=[4, 2])
        assert curve1[0] != curve2[0] and curve1[1] != curve2[1]

    def test_midpoint_variance(self):
        # bridge variance at s on [0, T] is s (T - s) / T: 1/4 at the middle
        draws = 10 ** 5
        rows = _bridge_rows(np.random.default_rng(42), draws, 2, 0.5)
        var = float(np.var(rows[:, 1], ddof=1))
        se = 0.25 * math.sqrt(2.0 / (draws - 1))
        assert abs(var - 0.25) <= 3.0 * se

    def test_bridge_set_requires_zero_endpoints(self):
        seg = BridgeSegment(t0=0.0, t1=1.0, values=np.array([0.1, 0.0]))
        with pytest.raises(ValueError):
            BridgeSet(segments=(seg,))

    @pytest.mark.parametrize("t0, t1, values, match", [
        (0.0, 1.0, np.zeros((2, 3)), "1-D"),
        (0.0, 1.0, np.zeros(1), "two entries"),
        (0.0, 1.0, np.array([0.0, math.nan, 0.0]), "finite"),
        (0.0, 1.0, np.array([0.0, math.inf, 0.0]), "finite"),
        (1.0, 1.0, np.zeros(3), "t1 > t0"),
        (1.0, 0.5, np.zeros(3), "t1 > t0"),
    ])
    def test_bad_segment_rejected(self, t0, t1, values, match):
        with pytest.raises(ValueError, match=match):
            BridgeSegment(t0=t0, t1=t1, values=values)


class TestJointDensity:
    def make_obs(self):
        return ObservationSet(times=(0.0, 0.5, 1.0, 1.8), values=(0.0, 0.3, -0.2, 0.5))

    def test_zero_drift_reduces_to_gaussian_sum(self):
        obs = self.make_obs()
        bridges = sample_bridge_set(obs.times, n_steps=40, seed=2)
        spec = brownian_drift_spec()
        [got] = obs_bridge_log_density(spec, obs, bridges, (0.0,))
        want = sum(-0.5 * ((obs.values[i] - obs.values[i - 1])
                           / math.sqrt(obs.times[i] - obs.times[i - 1])) ** 2 - LOG_SQRT_2PI
                   for i in range(1, 4))
        assert got == want

    def test_vanishing_mean_reversion_matches_zero_drift(self):
        obs = self.make_obs()
        bridges = sample_bridge_set(obs.times, n_steps=40, seed=2)
        [flat] = obs_bridge_log_density(brownian_drift_spec(), obs, bridges, (0.0,))
        [nearly] = obs_bridge_log_density(ou_spec(), obs, bridges, (1e-9,))
        assert nearly == pytest.approx(flat, abs=1e-8)

    def test_missing_bridge_segment_rejected(self):
        obs = self.make_obs()
        bridges = sample_bridge_set(obs.times[:-1], n_steps=40, seed=2)
        with pytest.raises(ValueError):
            obs_bridge_log_density(ou_spec(), obs, bridges, (1.0,))

    def test_bridges_on_other_times_rejected(self):
        obs = self.make_obs()
        bridges = sample_bridge_set((0.0, 2.0, 4.0, 9.0), n_steps=40, seed=2)
        with pytest.raises(ValueError, match="observation intervals"):
            obs_bridge_log_density(ou_spec(), obs, bridges, (1.0,))

    @pytest.mark.parametrize("spec, values", [
        (ou_spec(), (0.0, 0.3, -0.2, 0.5)),
        (logistic_spec(), (1.2, 0.7, 1.5, 1.1)),
    ])
    def test_theta_array_equals_one_theta_calls(self, spec, values):
        obs = ObservationSet(times=(0.0, 0.5, 1.0, 1.8), values=values)
        bridges = sample_bridge_set(obs.times, n_steps=8, seed=4)
        thetas = (0.25, 0.9, 2.0)
        got = obs_bridge_log_density(spec, obs, bridges, thetas)
        want = [obs_bridge_log_density(spec, obs, bridges, (th,))[0] for th in thetas]
        assert got.tolist() == want

    def test_drift_correction_is_the_trapezoid_rule(self):
        m, dt, spec = 300, 0.004, logistic_spec()
        rows = _bridge_rows(np.random.default_rng(5), 4, m, dt)
        ends = ((0.7, 0.1, -0.3), (1.9, 0.4, 0.2))
        out = np.empty((2, 4))
        _drift_corrections(spec, rows.copy(), ends, dt, out, np.empty_like(rows),
                           np.empty_like(rows), np.empty((4, m)))
        frac = np.linspace(0.0, 1.0, m + 1)
        for k, (theta, x0, x1) in enumerate(ends):
            for r, bridge in enumerate(rows):
                path = bridge + (x0 + frac * (x1 - x0))
                alpha = spec.alpha_fn(path, theta)
                integrand = 0.5 * (alpha * alpha + spec.dalpha_dx(path, theta))
                assert out[k, r] == np.trapezoid(integrand, dx=dt)

    def test_one_density_call_per_curve(self, monkeypatch):
        obs = self.make_obs()
        bridges = sample_bridge_set(obs.times, n_steps=64, seed=9)
        before = [seg.values.copy() for seg in bridges.segments]
        calls = []
        density = diffusion.obs_bridge_log_density

        def counted(*args):
            calls.append(len(args[3]))
            return density(*args)

        monkeypatch.setattr(diffusion, "obs_bridge_log_density", counted)
        family = diffusion_model_family(logistic_spec(), tuple(np.linspace(0.25, 2.0, 8)))
        positive = ObservationSet(times=obs.times, values=(1.2, 0.7, 1.5, 1.1))
        for measure in (MEASURE_OBS_BRIDGE, MEASURE_OBS_BRIDGE_TILTED):
            likelihood_curve(family, measure, (positive, bridges))
        assert calls == [8, 8]
        assert all(np.array_equal(seg.values, old) for seg, old in zip(bridges.segments, before))

    def test_fixed_bridge_proportionality(self):
        obs = self.make_obs()
        bridges = sample_bridge_set(obs.times, n_steps=64, seed=9)
        family = diffusion_model_family(ou_spec(), tuple(np.linspace(0.25, 2.0, 8)))
        omega = (obs, bridges)
        c1 = likelihood_curve(family, MEASURE_OBS_BRIDGE, omega)
        c2 = likelihood_curve(family, MEASURE_OBS_BRIDGE_TILTED, omega)
        report = check_proportionality(c1, c2, 1e-10)
        assert report.passed and argmax_invariance(c1, c2)


class TestNegativeControls:
    def test_halved_gaussian_increment_fails_zero_drift_check(self, monkeypatch):
        """A halved Gaussian increment term must fail the diffusion
        experiment's `zero-drift-gaussian-reduction` check. At zero drift the
        density sees the transformed values only through the standardized
        increment z, so scaling them by 1/sqrt(2) halves exactly -z^2/2."""
        config = load_config()
        config["diffusion"]["mc_replicates"] = 200

        def outcome():
            report, _ = run_diffusion(config)
            return {c.name: c.passed for c in report.checks}["zero-drift-gaussian-reduction"]

        assert outcome()
        transform = diffusion.transform_observations
        monkeypatch.setattr(diffusion, "transform_observations", lambda spec, obs, theta: tuple(
            x / math.sqrt(2.0) for x in transform(spec, obs, theta)))
        assert not outcome()


def _fixed_bridge_oracle_z(theta: float, t: float, y0: float, y1: float) -> float:
    """z-score of the fixed-bridge Radon-Nikodym estimate of the OU
    transition density against its closed form.

    Over independent Brownian bridges on one interval, exp(joint log
    density) / sqrt(t) has the transition density as its mean: the joint
    density is the Girsanov weight against Brownian-bridge measure times the
    standardized Gaussian increment.
    """
    obs = ObservationSet(times=(0.0, t), values=(y0, y1))
    spec = ou_spec()
    weights = np.array([
        obs_bridge_log_density(spec, obs, sample_bridge_set(obs.times, 48, seed=7000 + k),
                               (theta,))[0]
        for k in range(4000)])
    weights = np.exp(weights) / math.sqrt(t)
    se = float(np.std(weights, ddof=1)) / math.sqrt(len(weights))
    return (float(np.mean(weights)) - ou_exact_transition_density(theta, t, y0, y1)) / se


class TestFixedBridgeOracle:
    """The fixed-bridge density pins the Girsanov term: its bridge average
    is the exact transition density, and a sign flip of the drift
    correction is caught. The proportionality checks cannot see that flip,
    since both kernels share it."""

    POINTS = [(1.0, 0.5, 0.2, -0.1), (1.0, 1.0, 0.0, 0.5), (2.0, 0.25, -0.5, 0.3)]

    @pytest.mark.parametrize("point", POINTS)
    def test_bridge_average_matches_exact_density(self, point):
        assert abs(_fixed_bridge_oracle_z(*point)) <= 3.0

    @pytest.mark.parametrize("point", POINTS)
    def test_sign_flipped_drift_correction_fails(self, monkeypatch, point):
        corrections = diffusion._drift_corrections

        def flipped(*args):
            corrections(*args)
            np.negative(args[4], out=args[4])

        monkeypatch.setattr(diffusion, "_drift_corrections", flipped)
        assert abs(_fixed_bridge_oracle_z(*point)) > 3.0


class TestTransitionDensityMC:
    def test_zero_drift_is_exact_with_zero_variance(self):
        spec = brownian_drift_spec()
        est, se = transition_density_mc(spec, 0.0, 1.0, 0.0, 0.5, 200, 0.05, seed=1)
        want = math.exp(-0.5 * 0.25) / math.sqrt(2.0 * math.pi)
        assert est == pytest.approx(want, abs=1e-14)
        assert se == pytest.approx(0.0, abs=1e-14)

    def test_matches_exact_mean_reverting_density(self):
        est, se = transition_density_mc(ou_spec(), 1.0, 1.0, 0.0, 0.5, 20000, 2e-3, seed=3)
        exact = ou_exact_transition_density(1.0, 1.0, 0.0, 0.5)
        assert abs(est - exact) <= 3.0 * se
        assert abs(est - exact) / exact < 0.02

    def test_symmetric_under_sign_flip(self):
        est1, se1 = transition_density_mc(ou_spec(), 1.0, 1.0, 0.4, -0.3, 20000, 2e-3, seed=5)
        est2, se2 = transition_density_mc(ou_spec(), 1.0, 1.0, -0.4, 0.3, 20000, 2e-3, seed=6)
        assert abs(est1 - est2) <= 3.0 * math.hypot(se1, se2)

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            transition_density_mc(ou_spec(), 1.0, 1.0, 0.0, 0.5, 50, 1e-2, seed=0)


def _plain_estimate(theta: float, t: float, x0: float, x1: float, n: int, m: int,
                    seed) -> tuple[float, float]:
    """The plain bridge-MC estimate for the OU spec, one row at a time: the
    free Gaussian density times the mean Girsanov weight, and its sample SE.
    The bridges are the ones a one-block call draws."""
    dt = t / m
    frac = np.linspace(0.0, 1.0, m + 1)
    bridges = _bridge_rows(np.random.default_rng(seed), n, m, dt)
    weights = []
    for bridge in bridges:
        path = bridge + x0 + frac * (x1 - x0)
        integral = np.trapezoid(0.5 * (theta * theta * path * path - theta), dx=dt)
        weights.append(math.exp(-0.5 * theta * (x1 * x1 - x0 * x0) - integral))
    z = (x1 - x0) / math.sqrt(t)
    prefactor = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi * t)
    return (prefactor * float(np.mean(weights)),
            prefactor * float(np.std(weights, ddof=1)) / math.sqrt(n))


def _oracle_z(point: tuple, n: int, step: float, seed) -> tuple[float, float]:
    """(z-score, relative error) of one OU transition-density estimate."""
    est, se = transition_density_mc(ou_spec(), *point, n, step, seed=seed)
    exact = ou_exact_transition_density(*point)
    return (est - exact) / se, abs(est - exact) / exact


def _calibration_z(points: tuple, n: int, step: float, seeds: int) -> np.ndarray:
    """z-scores over `seeds` independent estimates at each point, one row
    per point."""
    return np.array([[_oracle_z(point, n, step, [31, j, k])[0] for k in range(seeds)]
                     for j, point in enumerate(points)])


class TestControlVariates:
    """The regression control-variate estimator: its controls, its rule for
    fewer than 3 steps, its calibration over seeds, and defects that the
    oracles must catch."""

    # two diffusion-experiment points at the default step; t = 0.5 has the
    # largest discretisation bias measured
    CALIBRATION = ((1.0, 0.5, 0.3, -0.2), (1.5, 0.7, 0.2, 0.9))

    def test_controls_are_the_trapezoid_sums_less_their_means(self):
        m, dt = 40, 0.025
        rows = _bridge_rows(np.random.default_rng(12), 5, m, dt)
        frac = np.linspace(0.0, 1.0, m + 1)
        out = np.empty((3, 5))
        diffusion._bridge_controls(rows, frac, dt, out, np.empty_like(rows))
        mean_sq = dt * dt * (m * m - 1) / 6.0
        for r, bridge in enumerate(rows):
            assert out[0, r] == pytest.approx(np.trapezoid(bridge, dx=dt), rel=1e-12, abs=1e-15)
            assert out[1, r] == pytest.approx(np.trapezoid(frac * bridge, dx=dt),
                                              rel=1e-12, abs=1e-15)
            assert out[2, r] == pytest.approx(np.trapezoid(bridge * bridge, dx=dt) - mean_sq,
                                              rel=1e-12, abs=1e-15)

    def test_control_means_are_exact_for_the_discrete_walk(self):
        # 10 steps, where the continuous-time mean t^2 / 6 of trapz(B^2) is 1% off
        m, dt, n = 10, 0.1, 2 * 10 ** 5
        rows = _bridge_rows(np.random.default_rng(13), n, m, dt)
        out = np.empty((3, n))
        diffusion._bridge_controls(rows, np.linspace(0.0, 1.0, m + 1), dt, out,
                                   np.empty_like(rows))
        se = out.std(axis=1, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(out.mean(axis=1)) <= 3.0 * se)
        assert abs(out[2].mean() + dt * dt / 6.0) > 3.0 * se[2]

    @pytest.mark.parametrize("m", [1, 2])
    def test_fewer_than_three_steps_use_no_controls(self, m):
        point, n = (1.0, 1.0, 0.0, 0.5), 300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, se = transition_density_mc(ou_spec(), *point, n, 1.0 / m, seed=21)
        want_est, want_se = _plain_estimate(*point, n, m, seed=21)
        assert est == pytest.approx(want_est, rel=1e-12)
        assert se == pytest.approx(want_se, rel=1e-9, abs=1e-15)

    def test_z_scores_are_calibrated_over_seeds(self):
        z = _calibration_z(self.CALIBRATION, 1000, 4e-3, 200)
        assert np.all(np.abs(z.mean(axis=1)) <= 0.3), z.mean(axis=1)
        sd = z.std(axis=1, ddof=1)
        assert np.all((sd >= 0.85) & (sd <= 1.2)), sd
        assert np.mean(np.abs(z) > 3.0) <= 0.02

    def test_flipped_coefficients_fail_calibration(self, monkeypatch):
        # any coefficients leave the estimate unbiased, since the controls have
        # mean 0, so only the SE can show the flip: it omits the cross term
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: -solve(a, b))
        z = _calibration_z(self.CALIBRATION, 1000, 4e-3, 200)
        assert np.all(z.std(axis=1, ddof=1) > 1.2)

    def test_continuous_time_control_mean_fails_oracle(self, monkeypatch):
        # 10 steps on [0, 1]: the continuous-time mean t^2 / 6 is dt^2 / 6 too large
        point, n, step, seed = (0.5, 1.0, -0.5, 0.5), 4000, 0.1, [77, 0]
        z, rel = _oracle_z(point, n, step, seed)
        assert abs(z) <= 3.0 and rel < 0.02
        controls = diffusion._bridge_controls

        def continuous_mean(bridge, frac, dt, out, scratch):
            controls(bridge, frac, dt, out, scratch)
            m = bridge.shape[1] - 1
            out[2] += dt * dt * (m * m - 1) / 6.0 - (m * dt) ** 2 / 6.0

        monkeypatch.setattr(diffusion, "_bridge_controls", continuous_mean)
        z, _ = _oracle_z(point, n, step, seed)
        assert abs(z) > 3.0


class TestBridgeMCBits:
    """Golden values of the control-variate estimator, recorded with the
    default block size; every block size, with or without the draw worker
    thread, must reproduce them bit for bit."""

    GOLDEN = {
        # 20000 replicates x 750 steps, as in the diffusion experiment
        "ou": ((ou_spec(), 1.0, 0.75, 0.0, 0.5, 20000, 1e-3), dict(seed=7),
               (0.46399568660795776, 1.2328742938133036e-05)),
        # a ragged last chunk, and 1000 steps so a block is smaller than a chunk
        "ragged-fine": ((ou_spec(), 1.3, 1.0, 0.2, -0.4, 2048 + 37, 1e-3), dict(seed=[5, 2]),
                        (0.500276023912377, 0.00018993052109246588)),
        # a ragged last chunk, and 10 steps so one block holds a whole chunk
        "ragged-coarse": ((ou_spec(), 0.8, 0.5, 0.1, 0.3, 2048 + 37, 0.05), dict(seed=3),
                          (0.6285405496901586, 4.096272962863466e-06)),
        # 70000 steps: one row per block
        "one-row-blocks": ((ou_spec(), 1.0, 1.0, 0.0, 0.5, 300, 1.0 / 70000), dict(seed=4),
                           (0.45420737535828, 0.00032044037648620144)),
        "logistic": ((logistic_spec(), 0.9, 0.6, 0.1, 0.4, 5000, 0.002), dict(seed=8),
                     (0.42790222365355146, 9.466095268323925e-05)),
        "small-chunk": ((brownian_drift_spec(), 0.7, 1.0, 0.0, 1.0, 250, 0.01),
                        dict(seed=9, chunk=100), (0.38138781546052397, 3.289882295849175e-10)),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_values(self, name):
        args, kwargs, want = self.GOLDEN[name]
        assert transition_density_mc(*args, **kwargs) == want

    @pytest.mark.parametrize("block_bytes", [8, 3 * 8 * 1001, 2 ** 19, 2 ** 30])
    def test_block_size_does_not_change_bits(self, monkeypatch, block_bytes):
        monkeypatch.setattr(diffusion, "_BLOCK_BYTES", block_bytes)
        for name in ("ragged-fine", "ragged-coarse", "small-chunk"):
            args, kwargs, want = self.GOLDEN[name]
            assert transition_density_mc(*args, **kwargs) == want

    def test_golden_mle_curve(self):
        obs = simulate_ou(1.0, 0.0, tuple(np.linspace(0.0, 2.5, 6)), 3)
        idx, curve = mle_theta(ou_spec(), obs, (0.5, 1.0, 1.5), 300, 0.02, seed=11)
        assert idx == frozenset({2})
        assert curve == [-7.63866671882546, -7.414498018807215, -7.396590278477803]

    def test_golden_bridges(self):
        assert _bridge_rows(np.random.default_rng(0), 1, 8, 0.125)[0].tolist() == [
            0.0, -0.07999645062542717, -0.25115136954896616, -0.14917656666505114,
            -0.23653757116500063, -0.5503740908761233, -0.5469797297841523,
            -0.21039488908764858, 0.0]
        segments = sample_bridge_set((0.0, 0.5, 1.25), 4, seed=6).segments
        assert [seg.values.tolist() for seg in segments] == [
            [0.0, 0.36010410378208835, 0.9759600857021532, 0.061006557137644, 0.0],
            [0.0, -0.44094832738721385, -0.28586686018356156, 0.30169511165747676, 0.0]]

    @pytest.mark.parametrize("spec, values", [
        (ou_spec(sigma0=1.3), (0.1, -0.4, 0.3, 0.9, 0.2)),
        (logistic_spec(), (1.2, 0.7, 1.5, 1.1, 0.9)),
    ])
    def test_mle_curve_is_sum_of_single_theta_runs(self, spec, values):
        obs = ObservationSet(times=(0.0, 0.4, 1.0, 1.5, 2.3), values=values)
        grid, seed, n, frac = (0.25, 0.9, 2.0), 13, 2048 + 37, 0.02
        _, curve = mle_theta(spec, obs, grid, n, frac, seed=seed)
        want = []
        for theta in grid:
            x = transform_observations(spec, obs, theta)
            loglik = 0.0
            for i in range(obs.n_intervals):
                t = obs.times[i + 1] - obs.times[i]
                est, _ = transition_density_mc(spec, theta, t, x[i], x[i + 1], n, t * frac,
                                               seed=[seed, i])
                loglik += math.log(est)
                loglik += math.log(lamperti_derivative(spec, obs.values[i + 1], theta))
            want.append(loglik)
        assert curve == want

    def test_step_must_divide_t(self):
        with pytest.raises(ValueError, match="does not divide"):
            transition_density_mc(ou_spec(), 1.0, 1.0, 0.0, 0.5, 200, 0.3, seed=0)

    def test_mle_checks_replicates_and_step(self):
        obs = ObservationSet(times=(0.0, 0.5), values=(0.2, 0.1))
        with pytest.raises(ValueError, match="100 replicates"):
            mle_theta(ou_spec(), obs, (0.8,), 99, 0.02, seed=1)
        with pytest.raises(ValueError, match="does not divide"):
            mle_theta(ou_spec(), obs, (0.8,), 200, 0.3, seed=1)


def _counting_spec(spec: SDESpec, threads: list, fail_on: int | None = None) -> SDESpec:
    """`spec` whose drift records the live thread count at each call and
    raises at call number `fail_on` (one call per block and theta)."""
    def alpha_fn(x, theta):
        threads.append(threading.active_count())
        if len(threads) == fail_on:
            raise RuntimeError("drift failed")
        return spec.alpha_fn(x, theta)
    return replace(spec, alpha_fn=alpha_fn)


def _send_estimate(conn, args, kwargs):
    conn.send(transition_density_mc(*args, **kwargs))
    conn.close()


class TestBridgeMCPipeline:
    """The block draws run one block ahead on a single worker thread that
    lives for one call only."""

    GOLDEN = TestBridgeMCBits.GOLDEN

    def test_one_worker_for_many_blocks_none_for_one(self):
        before = threading.active_count()
        threads = []
        args, kwargs, want = self.GOLDEN["ragged-fine"]
        assert transition_density_mc(_counting_spec(args[0], threads), *args[1:], **kwargs) == want
        assert len(threads) > 2 and set(threads) == {before + 1}
        threads.clear()
        obs = ObservationSet(times=(0.0, 0.5, 1.0), values=(0.2, 0.1, -0.3))
        mle_theta(_counting_spec(ou_spec(), threads), obs, (0.5, 1.0), 400, 0.01, seed=3)
        assert len(threads) == 4 and set(threads) == {before}
        assert threading.active_count() == before

    def test_error_in_a_block_propagates_and_stops_the_worker(self):
        before = threading.active_count()
        args, kwargs, _ = self.GOLDEN["ou"]
        threads = []
        with pytest.raises(RuntimeError, match="drift failed"):
            transition_density_mc(_counting_spec(args[0], threads, fail_on=2), *args[1:],
                                  **kwargs)
        assert len(threads) == 2 and threads[0] == before + 1
        assert threading.active_count() == before
        args, kwargs, want = self.GOLDEN["ou"]
        assert transition_density_mc(*args, **kwargs) == want

    def test_concurrent_callers_under_fast_switching(self):
        names = ("ragged-fine", "ragged-coarse", "one-row-blocks")
        results = {}

        def run(name):
            args, kwargs, _ = self.GOLDEN[name]
            results[name] = transition_density_mc(*args, **kwargs)

        callers = [threading.Thread(target=run, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == {name: self.GOLDEN[name][2] for name in names}

    def test_forked_child_repeats_the_parent(self):
        args, kwargs, want = self.GOLDEN["ragged-fine"]
        assert transition_density_mc(*args, **kwargs) == want
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_estimate, args=(send, args, kwargs))
        child.start()
        send.close()
        try:
            assert recv.poll(60), "forked child did not finish"
            assert recv.recv() == want
        finally:
            child.join(5)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0


class TestMLE:
    def test_single_point_grid(self):
        obs = ObservationSet(times=(0.0, 0.5), values=(0.2, 0.1))
        idx, curve = mle_theta(ou_spec(), obs, (0.8,), 200, 0.02, seed=1)
        assert idx == frozenset({0}) and len(curve) == 1

    def test_argmax_close_to_exact_density_argmax(self):
        grid = tuple(np.linspace(0.25, 2.0, 8))
        obs = simulate_ou(1.0, 0.0, tuple(np.arange(51) * 0.5), seed=17)
        exact_curve = [sum(math.log(ou_exact_transition_density(th, 0.5, obs.values[i],
                                                                obs.values[i + 1]))
                           for i in range(50)) for th in grid]
        exact_idx = int(np.argmax(exact_curve))
        idx, _ = mle_theta(ou_spec(), obs, grid, 400, 0.01, seed=23)
        assert min(abs(i - exact_idx) for i in idx) <= 1

    def test_doubling_replicates_keeps_argmax(self):
        grid = tuple(np.linspace(0.25, 2.0, 8))
        obs = simulate_ou(1.0, 0.0, tuple(np.arange(21) * 0.5), seed=29)
        idx1, _ = mle_theta(ou_spec(), obs, grid, 300, 0.01, seed=31)
        idx2, _ = mle_theta(ou_spec(), obs, grid, 600, 0.01, seed=31)
        assert idx1 == idx2


class TestObservationIO:
    def test_csv_round_trip(self, tmp_path):
        obs = simulate_ou(1.0, 0.3, (0.0, 0.4, 1.1), seed=2)
        path = tmp_path / "obs.csv"
        path.write_text("t,y\n" + "".join(f"{t!r},{y!r}\n"
                                           for t, y in zip(obs.times, obs.values)))
        back = observations_from_csv(path)
        assert back.times == obs.times and back.values == obs.values

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            ObservationSet(times=(0.0, 0.0), values=(1.0, 2.0))

    @pytest.mark.parametrize("times, values", [
        ((0.0, 1.0), (0.5, math.inf)),
        ((0.0, 1.0), (-math.inf, 0.5)),
        ((0.0, 1.0), (math.nan, 0.5)),
        ((0.0, math.nan, 2.0), (0.1, 0.2, 0.3)),
        ((0.0, math.inf), (0.1, 0.2)),
    ])
    def test_non_finite_rejected(self, times, values):
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(times=times, values=values)

    def test_non_finite_csv_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,y\n0.0,0.1\n0.5,nan\n1.0,0.3\n")
        with pytest.raises(ValueError, match="finite"):
            observations_from_csv(path)
