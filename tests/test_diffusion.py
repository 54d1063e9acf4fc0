"""Space transform, bridges, joint pseudo-density, and the MC oracle."""

import math
import multiprocessing
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from radonlik import argmax_invariance, check_proportionality, diffusion, likelihood_curve
from radonlik.diffusion import (MEASURE_OBS_BRIDGE, MEASURE_OBS_BRIDGE_TILTED,
                                BridgeSegment, BridgeSet, ObservationSet, SDESpec,
                                _bridge_rows, add_linear, brownian_drift_spec,
                                diffusion_model_family, drift_integral, invert_lamperti,
                                lamperti, lamperti_derivative, logistic_spec, mle_theta,
                                obs_bridge_log_density, observations_from_csv,
                                observations_to_csv, ou_exact_transition_density,
                                ou_spec, remove_linear, sample_bridge_set,
                                sample_brownian_bridge, simulate_ou,
                                transform_observations, transition_density_mc,
                                unit_drift, unit_drift_derivative)

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def generic(spec: SDESpec) -> SDESpec:
    """Strip the closed forms so the quadrature/bracketing paths are used."""
    return replace(spec, eta=None, eta_inv=None, alpha_fn=None, dalpha_dx=None,
                   drift_integral_fn=None)


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
        got = lamperti(generic(spec), 4.0, 1.0)
        assert got == pytest.approx(math.log(4.0), abs=1e-10)

    def test_inversion_round_trip(self):
        spec = generic(logistic_spec())
        x = lamperti(spec, 2.5, 0.7)
        assert invert_lamperti(spec, x, 0.7) == pytest.approx(2.5, abs=1e-9)

    def test_sigma_derivative_matches_finite_differences(self):
        for spec in (ou_spec(1.3), logistic_spec()):
            y, th, h = 1.5, 0.8, 1e-6
            fd = (spec.sigma(y + h, th) - spec.sigma(y - h, th)) / (2 * h)
            got = spec.dsigma_dy(y, th)
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_transform_is_strictly_monotone_in_y(self):
        obs = ObservationSet(times=(0.0, 1.0, 2.0), values=(0.5, 2.0, 1.0))
        trans = transform_observations(logistic_spec(), obs, 0.9)
        order_y = np.argsort(obs.values)
        order_x = np.argsort(trans.values)
        assert np.array_equal(order_y, order_x)


class TestUnitDrift:
    def test_unit_sigma_keeps_raw_drift(self):
        spec = brownian_drift_spec()
        assert unit_drift(spec, 0.3, 2.0) == pytest.approx(2.0)

    def test_mean_reverting_case(self):
        spec = ou_spec()
        assert unit_drift(spec, 1.5, 2.0) == pytest.approx(-3.0)

    def test_zero_drift_multiplicative_sigma(self):
        # a = 0 and sigma(u) = u: the transformed drift is the constant -1/2
        spec = SDESpec(name="gbm0", drift=lambda y, th: 0.0, sigma=lambda y, th: y,
                       dsigma_dy=lambda y, th: 1.0, state=(1e-9, math.inf), base_point=1.0)
        assert unit_drift(spec, 0.4, 1.0) == pytest.approx(-0.5, abs=1e-9)

    def test_generic_route_matches_closed_form(self):
        spec = logistic_spec()
        got = unit_drift(generic(spec), 0.6, 1.1)
        assert got == pytest.approx(spec.alpha_fn(0.6, 1.1), abs=1e-9)

    def test_derivative_central_difference(self):
        spec = logistic_spec()
        got = unit_drift_derivative(generic(spec), 0.4, 0.9)
        assert got == pytest.approx(spec.dalpha_dx(0.4, 0.9), abs=1e-5)


class TestDriftIntegral:
    def test_mean_reverting_closed_form(self):
        assert drift_integral(ou_spec(), 2.0, 1.0) == pytest.approx(-2.0)

    def test_zero_at_origin(self):
        assert drift_integral(ou_spec(), 0.0, 1.7) == 0.0

    def test_zero_drift_integral_vanishes(self):
        spec = SDESpec(name="flat", drift=lambda y, th: 0.0, sigma=lambda y, th: 1.0,
                       dsigma_dy=lambda y, th: 0.0, state=(-math.inf, math.inf),
                       base_point=0.0, eta=lambda y, th: y, eta_inv=lambda x, th: x,
                       alpha_fn=lambda x, th: 0.0 * x, dalpha_dx=lambda x, th: 0.0 * x)
        for u in (-1.0, 0.0, 2.5):
            assert drift_integral(spec, u, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_matches_closed_form(self):
        spec = logistic_spec()
        got = drift_integral(generic(spec), 1.3, 0.8)
        assert got == pytest.approx(spec.drift_integral_fn(1.3, 0.8), abs=1e-9)


class TestBridgeTransform:
    def test_linear_path_maps_to_zero(self):
        x0, x1 = 0.4, 1.2
        path = add_linear(np.zeros(9), x0, x1)
        back = remove_linear(path, x0, x1)
        assert back[0] == 0.0 and back[-1] == 0.0
        assert np.max(np.abs(back)) <= 1e-14

    def test_zero_endpoints_is_identity(self):
        values = np.sin(np.linspace(0.0, 3.0, 11))
        assert np.array_equal(remove_linear(values, 0.0, 0.0), values)

    def test_round_trip_tight(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=33)
        back = remove_linear(add_linear(values, -0.7, 2.2), -0.7, 2.2)
        assert np.max(np.abs(back - values)) <= 1e-14


class TestBridgeSampling:
    def test_endpoints_exactly_zero(self):
        values = sample_brownian_bridge(1.0, 0.125, seed=0)
        assert values[0] == 0.0 and values[-1] == 0.0

    def test_step_equal_to_length_leaves_endpoints_only(self):
        values = sample_brownian_bridge(1.0, 1.0, seed=1)
        assert np.array_equal(values, np.zeros(2))

    def test_step_must_divide_length(self):
        with pytest.raises(ValueError):
            sample_brownian_bridge(1.0, 0.3, seed=0)

    def test_seed_reproducibility(self):
        a = sample_brownian_bridge(2.0, 0.25, seed=11)
        b = sample_brownian_bridge(2.0, 0.25, seed=11)
        assert np.array_equal(a, b)

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


class TestJointDensity:
    def make_obs(self):
        return ObservationSet(times=(0.0, 0.5, 1.0, 1.8), values=(0.0, 0.3, -0.2, 0.5))

    def test_zero_drift_reduces_to_gaussian_sum(self):
        obs = self.make_obs()
        bridges = sample_bridge_set(obs.times, n_steps=40, seed=2)
        spec = brownian_drift_spec()
        got = obs_bridge_log_density(spec, obs, bridges, 0.0)
        want = sum(-0.5 * ((obs.values[i] - obs.values[i - 1])
                           / math.sqrt(obs.times[i] - obs.times[i - 1])) ** 2 - LOG_SQRT_2PI
                   for i in range(1, 4))
        assert got == want

    def test_vanishing_mean_reversion_matches_zero_drift(self):
        obs = self.make_obs()
        bridges = sample_bridge_set(obs.times, n_steps=40, seed=2)
        flat = obs_bridge_log_density(brownian_drift_spec(), obs, bridges, 0.0)
        nearly = obs_bridge_log_density(ou_spec(), obs, bridges, 1e-9)
        assert nearly == pytest.approx(flat, abs=1e-8)

    def test_missing_bridge_segment_rejected(self):
        obs = self.make_obs()
        bridges = sample_bridge_set(obs.times[:-1], n_steps=40, seed=2)
        with pytest.raises(ValueError):
            obs_bridge_log_density(ou_spec(), obs, bridges, 1.0)

    def test_fixed_bridge_proportionality(self):
        obs = self.make_obs()
        bridges = sample_bridge_set(obs.times, n_steps=64, seed=9)
        family = diffusion_model_family(ou_spec(), tuple(np.linspace(0.25, 2.0, 8)))
        omega = (obs, bridges)
        c1 = likelihood_curve(family, MEASURE_OBS_BRIDGE, omega)
        c2 = likelihood_curve(family, MEASURE_OBS_BRIDGE_TILTED, omega)
        report = check_proportionality(c1, c2, 1e-10)
        assert report.passed and argmax_invariance(c1, c2)


class TestTransitionDensityMC:
    def test_zero_drift_is_exact_with_zero_variance(self):
        spec = SDESpec(name="flat", drift=lambda y, th: 0.0, sigma=lambda y, th: 1.0,
                       dsigma_dy=lambda y, th: 0.0, state=(-math.inf, math.inf),
                       base_point=0.0, eta=lambda y, th: y, eta_inv=lambda x, th: x,
                       alpha_fn=lambda x, th: 0.0 * x, dalpha_dx=lambda x, th: 0.0 * x)
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


class TestBridgeMCBits:
    """Golden values recorded from the unblocked chunk loop (one temporary
    per stage, one transition_density_mc call per (theta, interval)); the
    blocked pipeline must reproduce them bit for bit."""

    GOLDEN = {
        # 20000 replicates x 750 steps, as in the diffusion experiment
        "ou": ((ou_spec(), 1.0, 0.75, 0.0, 0.5, 20000, 1e-3), dict(seed=7),
               (0.46421918417083885, 0.00019816417015055182)),
        # a ragged last chunk, and 1000 steps so a block is smaller than a chunk
        "ragged-fine": ((ou_spec(), 1.3, 1.0, 0.2, -0.4, 2048 + 37, 1e-3), dict(seed=[5, 2]),
                        (0.4994296330586883, 0.0013637746551743862)),
        # a ragged last chunk, and 10 steps so one block holds a whole chunk
        "ragged-coarse": ((ou_spec(), 0.8, 0.5, 0.1, 0.3, 2048 + 37, 0.05), dict(seed=3),
                          (0.6285925738130146, 0.0002362576726341813)),
        # 70000 steps: one row per block
        "one-row-blocks": ((ou_spec(), 1.0, 1.0, 0.0, 0.5, 300, 1.0 / 70000), dict(seed=4),
                           (0.4493387301050455, 0.0027276870640693496)),
        "logistic": ((logistic_spec(), 0.9, 0.6, 0.1, 0.4, 5000, 0.002), dict(seed=8),
                     (0.4280926539044677, 0.000536372827163928)),
        "small-chunk": ((brownian_drift_spec(), 0.7, 1.0, 0.0, 1.0, 250, 0.01),
                        dict(seed=9, chunk=100), (0.38138781546052397, 3.27000367098359e-10)),
        "generic": ((generic(ou_spec()), 1.0, 0.5, 0.0, 0.4, 100, 0.125), dict(seed=1),
                    (0.5529402214781868, 0.001267197300170727)),
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
        assert curve == [-7.638974329068154, -7.415677605944247, -7.399053013511613]

    def test_golden_bridges(self):
        assert sample_brownian_bridge(1.0, 0.125, seed=0).tolist() == [
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
            x = transform_observations(spec, obs, theta).values
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
        observations_to_csv(obs, path)
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
