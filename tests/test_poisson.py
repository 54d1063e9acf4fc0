"""Poisson processes: thinning, both likelihood routes, and their gap."""

import json
import math

import numpy as np
import pytest

from radonlik import likelihood_curve
from radonlik.poisson import (MEASURE_PRODUCT, MEASURE_UNIT_POISSON, IntensityModel,
                              PointPattern, constant_intensity, location_density_mass,
                              loglik_jacod, loglik_product_measure, loglinear_intensity,
                              mle_intensity, pattern_model_family, simulate_thinning,
                              sinusoidal_intensity)


@pytest.fixture
def unit_region_pattern():
    return PointPattern(region=((0.0, 1.0),), locations=(0.3, 0.7))


class TestPointPattern:
    def test_locations_must_be_inside(self):
        with pytest.raises(ValueError):
            PointPattern(region=((0.0, 1.0),), locations=(1.5,))

    def test_json_round_trip(self, unit_region_pattern):
        text = unit_region_pattern.to_json()
        back = PointPattern.from_json(text)
        assert back == unit_region_pattern
        payload = json.loads(text)
        assert set(payload) == {"region", "points"}

    @pytest.mark.parametrize("side", [(0.0, math.inf), (1.0, 0.0), (0.5, 0.5),
                                      (0.0, math.nan), (-math.inf, 1.0)])
    def test_bad_region_rejected(self, side):
        with pytest.raises(ValueError, match="region side"):
            PointPattern(region=((0.0, 1.0), side), locations=())

    @pytest.mark.parametrize("side", ["[0.0, Infinity]", "[1.0, 0.0]", "[0.0, NaN]"])
    def test_bad_region_rejected_from_json(self, side):
        with pytest.raises(ValueError, match="region side"):
            PointPattern.from_json(f'{{"region": [{side}], "points": []}}')

    def test_two_dimensional_volume(self):
        pat = PointPattern(region=((0.0, 2.0), (0.0, 3.0)), locations=((1.0, 1.0),))
        assert pat.volume == pytest.approx(6.0)
        assert pat.count == 1


class TestProductMeasureRoute:
    def test_empty_pattern_constant_rate(self):
        model = constant_intensity((2.0,))
        empty = PointPattern(region=((0.0, 1.0),), locations=())
        assert loglik_product_measure(model, 2.0, empty) == pytest.approx(-2.0)

    def test_two_point_hand_values(self, unit_region_pattern):
        model = constant_intensity((1.0, 2.0))
        assert loglik_product_measure(model, 2.0, unit_region_pattern) == pytest.approx(
            math.log(2.0 * math.exp(-2.0)))
        assert loglik_product_measure(model, 1.0, unit_region_pattern) == pytest.approx(
            math.log(math.exp(-1.0) / 2.0))

    def test_curve_matches_hand_values(self, unit_region_pattern):
        family = pattern_model_family(constant_intensity((1.0, 2.0)))
        curve = likelihood_curve(family, MEASURE_PRODUCT, unit_region_pattern)
        assert curve.values == pytest.approx((math.log(math.exp(-1.0) / 2.0),
                                              math.log(2.0 * math.exp(-2.0))))

    def test_zero_intensity_at_point_gives_neg_inf(self, unit_region_pattern):
        model = constant_intensity((0.0,))
        assert loglik_product_measure(model, 0.0, unit_region_pattern) == float("-inf")


class TestUnitPoissonRoute:
    def test_reference_intensity_gives_zero(self, unit_region_pattern):
        model = constant_intensity((1.0,))
        assert loglik_jacod(model, 1.0, unit_region_pattern) == pytest.approx(0.0)

    def test_two_point_hand_value(self, unit_region_pattern):
        model = constant_intensity((2.0,))
        assert loglik_jacod(model, 2.0, unit_region_pattern) == pytest.approx(
            math.log(4.0 * math.exp(-1.0)))

    def test_empty_pattern(self):
        model = constant_intensity((3.0,))
        empty = PointPattern(region=((0.0, 1.0),), locations=())
        assert loglik_jacod(model, 3.0, empty) == pytest.approx(-(3.0 - 1.0))


class TestKernelGap:
    def test_gap_is_theta_free_constant(self, unit_region_pattern):
        model = sinusoidal_intensity(tuple(np.linspace(0.5, 5.0, 9)))
        expected = -unit_region_pattern.volume - math.lgamma(unit_region_pattern.count + 1)
        for theta in model.theta_grid:
            gap = (loglik_product_measure(model, theta, unit_region_pattern)
                   - loglik_jacod(model, theta, unit_region_pattern))
            assert gap == pytest.approx(expected, abs=1e-12)

    def test_random_patterns_proportional_at_tight_tol(self):
        from radonlik import argmax_invariance, check_proportionality
        model = sinusoidal_intensity(tuple(np.linspace(0.5, 5.0, 9)))
        family = pattern_model_family(model)
        for k in range(20):
            pattern = simulate_thinning(model, 3.0, bound=4.6, seed=[13, k])
            c1 = likelihood_curve(family, MEASURE_PRODUCT, pattern)
            c2 = likelihood_curve(family, MEASURE_UNIT_POISSON, pattern)
            assert check_proportionality(c1, c2, 1e-10).passed
            assert argmax_invariance(c1, c2)

    def test_quadrature_total_matches_closed_form(self):
        model = loglinear_intensity(((0.3, 0.8),))
        by_quad = IntensityModel(name="q", region=model.region, theta_grid=model.theta_grid,
                                 rate=model.rate, cumulative=None)
        assert by_quad.total((0.3, 0.8)) == pytest.approx(model.total((0.3, 0.8)), abs=1e-8)


class TestThinning:
    def test_zero_intensity_empty_pattern(self):
        model = constant_intensity((0.0,))
        pattern = simulate_thinning(model, 0.0, bound=1.0, seed=4)
        assert pattern.count == 0

    def test_seed_reproducibility(self):
        model = sinusoidal_intensity((3.0,))
        a = simulate_thinning(model, 3.0, bound=4.6, seed=99)
        b = simulate_thinning(model, 3.0, bound=4.6, seed=99)
        assert a == b

    def test_mean_count_within_three_standard_errors(self):
        model = constant_intensity((5.0,))
        reps = 2000
        counts = [simulate_thinning(model, 5.0, bound=5.0, seed=[8, k]).count
                  for k in range(reps)]
        assert abs(np.mean(counts) - 5.0) <= 3.0 * math.sqrt(5.0 / reps)

    def test_bound_violation_detected(self):
        model = constant_intensity((2.0,))
        with pytest.raises(ValueError):
            # force at least one proposal so the bound check triggers
            for k in range(50):
                simulate_thinning(model, 2.0, bound=1.0, seed=k)

    @pytest.mark.parametrize("model", [
        constant_intensity((0.5, 4.0), ((0.0, 1.5),)),
        loglinear_intensity(((0.2, -0.9), (1.0, 0.6)), ((0.0, 1.5),)),
        sinusoidal_intensity((0.5, 4.0), ((0.0, 1.5),)),
    ], ids=lambda m: m.name)
    def test_max_rate_bounds_intensity(self, model):
        (lo, hi), = model.region
        for theta in model.theta_grid:
            top = max(model.intensity(theta, (s,)) for s in np.linspace(lo, hi, 2001))
            assert top <= model.max_rate(theta) <= top * (1.0 + 1e-5)

    def test_two_dimensional_region(self):
        model = constant_intensity((4.0,), region=((0.0, 1.0), (0.0, 2.0)))
        pattern = simulate_thinning(model, 4.0, bound=4.0, seed=5)
        assert all(len(p) == 2 for p in pattern.locations)


class TestMLE:
    def test_count_matches_rate_on_unit_region(self):
        model = constant_intensity(tuple(np.linspace(1.0, 6.0, 6)))
        pattern = PointPattern(region=((0.0, 1.0),), locations=(0.1, 0.5, 0.8))
        for measure in (MEASURE_PRODUCT, MEASURE_UNIT_POISSON):
            idx = mle_intensity(model, pattern, measure)
            assert idx == frozenset({2})   # c = 3

    def test_empty_pattern_prefers_smallest_rate(self):
        model = constant_intensity((0.5, 1.0, 2.0))
        empty = PointPattern(region=((0.0, 1.0),), locations=())
        assert mle_intensity(model, empty) == frozenset({0})

    def test_unknown_measure_rejected(self, unit_region_pattern):
        with pytest.raises(KeyError):
            mle_intensity(constant_intensity((1.0, 2.0)), unit_region_pattern, "lebesgue")

    def test_argmax_identical_across_kernels(self):
        model = loglinear_intensity(tuple((a, 0.6) for a in np.linspace(-0.5, 1.5, 11)))
        pattern = simulate_thinning(model, (1.0, 0.6), bound=math.exp(1.0 + 0.6), seed=21)
        assert (mle_intensity(model, pattern, MEASURE_PRODUCT)
                == mle_intensity(model, pattern, MEASURE_UNIT_POISSON))


class TestLocationDensity:
    def test_integrates_to_one(self):
        model = sinusoidal_intensity((2.0,))
        for n in (1, 2):
            assert location_density_mass(model, 2.0, n) == pytest.approx(1.0, abs=1e-6)
