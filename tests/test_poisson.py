"""Poisson processes: thinning, both likelihood routes, and their gap."""

import json
import math

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from radonlik import likelihood_curve, poisson
from radonlik.harness.config import grid_from_spec, load_config
from radonlik.harness import experiments
from radonlik.harness.experiments import _poisson_count_gof, run_poisson
from radonlik.poisson import (MEASURE_PRODUCT, MEASURE_UNIT_POISSON, IntensityModel,
                              PointPattern, constant_intensity, location_density_mass,
                              loglik_jacod, loglik_product_measure, loglinear_intensity,
                              mle_intensity, pattern_model_family, simulate_thinning,
                              sinusoidal_intensity, thinning_counts)


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

    @pytest.mark.parametrize("as_array", [False, True], ids=["tuple", "ndarray"])
    @pytest.mark.parametrize("region, locations, message", [
        (((0.0, 1.0),), ((0.3,), (math.nan,)), "NaN"),
        (((0.0, 1.0), (0.0, 2.0)), ((0.5, math.nan),), "NaN"),
        (((0.0, 1.0),), ((0.3,), (1.5,)), "outside region"),
        (((0.0, 1.0), (0.0, 2.0)), ((0.5, 1.0), (0.5, -0.1)), "outside region"),
        (((0.0, 1.0),), ((0.3, 0.4),), "dimension"),
        (((0.0, 1.0), (0.0, 2.0)), (0.3, 0.4), "dimension"),
        (((0.0, 1.0), (0.0, 2.0)), ((0.3, 0.4, 0.5),), "dimension"),
    ], ids=["nan-1d", "nan-2d", "outside-1d", "outside-2d", "too-many-coords",
            "flat-list-in-2d", "three-coords-in-2d"])
    def test_bad_location_rejected(self, region, locations, message, as_array):
        if as_array:
            locations = np.array(locations)
        with pytest.raises(ValueError, match=message):
            PointPattern(region=region, locations=locations)

    def test_array_input_is_held_as_float_tuples(self):
        region = ((0.0, 1.0), (0.0, 2.0))
        as_tuple = PointPattern(region=region, locations=((0.25, 1.5), (1.0, 0.0)))
        as_array = PointPattern(region=region, locations=np.array([[0.25, 1.5], [1, 0]]))
        assert as_array == as_tuple
        assert as_array.locations == ((0.25, 1.5), (1.0, 0.0))
        assert all(type(x) is float for p in as_array.locations for x in p)
        flat = PointPattern(region=((0.0, 1.0),), locations=np.array([0.3, 0.7]))
        assert flat.locations == ((0.3,), (0.7,))
        empty = PointPattern(region=region, locations=np.empty((0, 2)))
        assert empty.locations == () and empty.count == 0


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
        # Lambda(theta) is closed-form only in the package; quadrature of the
        # rate over the region is the cross-check, for every catalog intensity
        models = [constant_intensity((0.5, 4.0), ((0.0, 1.5),)),
                  loglinear_intensity(((0.3, 0.8), (1.0, -0.6), (0.2, 0.0)), ((0.2, 1.7),)),
                  sinusoidal_intensity((0.5, 4.0), ((0.1, 1.4),))]
        for model in models:
            (lo, hi), = model.region
            for theta in model.theta_grid:
                by_quad, _ = quad(lambda s: model.rate((theta,), np.array([[s]]))[0, 0], lo, hi,
                                  epsabs=1e-12, limit=200)
                assert model.total(theta) == pytest.approx(by_quad, rel=1e-10, abs=1e-12)

    def test_cumulative_is_required(self):
        model = constant_intensity((1.0,))
        with pytest.raises(TypeError):
            IntensityModel(name="q", region=model.region, theta_grid=model.theta_grid,
                           rate=model.rate)


def _fixed_rate(values):
    """A model whose rate is `values` at the pattern's points (or NaN elsewhere)."""
    def rate(thetas, x):
        row = np.array(values) if len(x) == len(values) else np.full(len(x), math.nan)
        return np.tile(row, (len(thetas), 1))
    return IntensityModel(name="fixed", region=((0.0, 1.0),), theta_grid=(1.0,), rate=rate,
                          cumulative=lambda theta: 1.0)


class TestBadIntensity:
    """A NaN, infinite or negative intensity fails where it enters."""

    @pytest.mark.parametrize("values", [(0.0, math.nan), (math.nan, 2.0), (1.0, math.inf),
                                        (-1.0, 1.0)])
    @pytest.mark.parametrize("kernel", [loglik_product_measure, loglik_jacod])
    def test_kernels_raise(self, unit_region_pattern, kernel, values):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            kernel(_fixed_rate(values), 1.0, unit_region_pattern)

    def test_all_nan_rate_fails_thinning(self):
        model = _fixed_rate(())
        seed = next(k for k in range(50) if np.random.default_rng(k).poisson(2.0) > 0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate_thinning(model, 1.0, 2.0, seed)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            thinning_counts(model, 1.0, 2.0, 0, 20)


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
        points = np.linspace(lo, hi, 2001)[:, None]
        for theta in model.theta_grid:
            top = model.intensity((theta,), points).max()
            assert top <= model.max_rate(theta) <= top * (1.0 + 1e-5)

    def test_two_dimensional_region(self):
        model = constant_intensity((4.0,), region=((0.0, 1.0), (0.0, 2.0)))
        pattern = simulate_thinning(model, 4.0, bound=4.0, seed=5)
        assert all(len(p) == 2 for p in pattern.locations)


class TestArrayKernelBits:
    """Golden bits of thinning and both kernels: each golden is the repr of the value.

    The thinned locations, recorded with the per-point loop that thinning
    used before it became array code, pin the random stream (the order of
    the location and acceptance draws, and each acceptance comparison); the
    kernel values pin the intensity formulas, `np.log` and the pairwise
    `np.sum` from which the start is added.
    """

    MODELS = {
        "constant": (constant_intensity((1.0, 2.5, 4.0), ((0.0, 1.5),)), 2.5),
        "sinusoidal": (sinusoidal_intensity((1.0, 3.0, 5.0), ((0.0, 1.5),)), 3.0),
        "loglinear": (loglinear_intensity(((0.2, -0.9), (1.0, 0.6), (0.5, 0.0)), ((0.0, 1.5),)),
                      (1.0, 0.6)),
        "constant-2d": (constant_intensity((1.0, 2.0, 3.0), ((0.0, 1.0), (-1.0, 1.0))), 2.0),
    }

    # (model, seed): (locations, product-measure curve, unit-rate curve);
    # seed 60 gives the sinusoidal model an empty pattern
    GOLDEN = {
        ('constant', 0): (
            ((0.02479145329279364,), (1.3691333659165825,)),
            [-2.193147180559945, -2.610565716811635, -3.9205584583201643],
            [0.0, -0.4174185362516898, -1.7274112777602189]),
        ('constant', 1): (
            ((0.6349896734588635,), (0.6137987045537419,), (0.04133866986460255,),
             (0.8072149698289173,)),
            [-4.678053830347945, -3.262890902851325, -3.632876385868383],
            [0.0, 1.4151629274966204, 1.0451774444795623]),
        ('constant', 2): (
            ((0.900150788948481,), (0.28185161004990517,), (0.41245405185905715,)),
            [-3.2917594692280554, -2.79288727360559, -3.632876385868384],
            [0.0, 0.4988721956224653, -0.3411169166403285]),
        ('sinusoidal', 0): (
            ((1.2199053588004087,),),
            [-1.259649005253561, -3.4793466027692417, -6.286830865187042],
            [0.24035099474643912, -1.9793466027692417, -4.786830865187042]),
        ('sinusoidal', 1): (
            ((1.1302696630122098,), (0.4547922439374675,), (0.20106254587074712,),
             (0.3051828610142244,), (1.125547008945079,), (1.44248579049568,),
             (0.8118402833211513,)),
            [-9.121684887918374, -4.749708753425397, -4.492239273247252],
            [0.9034764731470415, 5.275452607640018, 5.532922087818163]),
        ('sinusoidal', 60): (
            (),
            [-1.6591549430918953, -4.977464829275686, -8.295774715459476],
            [-0.15915494309189526, -3.477464829275686, -6.795774715459476]),
        ('loglinear', 0): (
            ((0.061460285904292034,), (1.2237803311822981,), (1.286106414881354,),
             (1.0944831696449162,), (1.2947683835248298,), (0.4495678358060772,),
             (0.04247950671819445,), (1.0059366220404455,)),
            [-15.822622740567546, -5.342141062624178, -9.077684808795441],
            [-3.718019837822297, 6.762461840121071, 3.0269180939498077]),
        ('loglinear', 1): (
            ((1.2415538907306627,), (0.8243905315095892,), (1.1302696630122098,),
             (0.4547922439374675,), (0.20106254587074712,), (0.3051828610142244,),
             (1.125547008945079,)),
            [-12.884975774673526, -4.968169803753799, -7.4982432671156065],
            [-2.8598144136081114, 5.0569915573116155, 2.5269180939498077]),
        ('loglinear', 2): (
            ((1.2213386108914204,), (0.28185161004990517,), (0.843398494170642,),
             (1.4511539287405149,)),
            [-6.80131775290531, -3.5120959337368287, -3.651135736398137],
            [-2.1232639225573644, 1.1659578966111166, 1.0269180939498077]),
        ('constant-2d', 0): (
            ((0.016527635528529094, 0.6265404784005448), (0.6066357757671799, 0.4589931219679968)),
            [-2.693147180559945, -3.3068528194400546, -4.495922603223725],
            [0.0, -0.6137056388801094, -1.8027754226637804]),
        ('constant-2d', 1): (
            ((0.8277025938204418, -0.18160172726167745),
             (0.027559113243068367, 0.5070262173496132),
             (0.32973171649909216, 0.5768574068568086), (0.4534978894806515, -0.7319166055056705),
             (0.20345524067614962, -0.475373319116301)),
            [-6.787491742782047, -5.32175583998232, -5.294430299441498],
            [0.0, 1.4657359027997265, 1.4930614433405491]),
        ('constant-2d', 2): (
            ((0.600100525965654, 0.45712105362358924), (0.05514662733306819, -0.4500612641879238),
             (0.562265662780428, -0.6998754733893278)),
            [-3.7917594692280554, -3.7123179275482197, -4.495922603223726],
            [0.0, 0.07944154167983575, -0.7041631339956709]),
    }

    # 41-point patterns, where a sequential sum or math.exp would move the last bits:
    # (model, theta) at seed 3 -> (count, product-measure curve, unit-rate curve)
    DENSE = {
        "sinusoidal": ((sinusoidal_intensity((20.0, 30.0, 40.0), ((0.0, 1.5),)), 30.0), (
            41,
            [-18.578072233798622, -18.545552232282887, -23.342136692678793],
            [96.95613954766306, 96.9886595491788, 92.1920750887829])),
        "loglinear": ((loglinear_intensity(((3.0, 0.6), (3.5, -0.2), (2.5, 1.0)), ((0.0, 1.5),)),
                       (3.0, 0.6)), (
            41,
            [-17.191742075380574, -21.016817259371578, -16.109884503926992],
            [98.34246970608112, 94.51739452209011, 99.4243272775347])),
    }

    @staticmethod
    def _curves(model, pattern):
        return ([loglik_product_measure(model, th, pattern) for th in model.theta_grid],
                [loglik_jacod(model, th, pattern) for th in model.theta_grid])

    @pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_golden_patterns_and_curves(self, key):
        name, seed = key
        model, theta = self.MODELS[name]
        locations, product, unit = self.GOLDEN[key]
        pattern = simulate_thinning(model, theta, model.max_rate(theta), seed)
        assert repr(pattern.locations) == repr(locations)
        assert repr(self._curves(model, pattern)) == repr((product, unit))

    @pytest.mark.parametrize("name", sorted(DENSE))
    def test_golden_dense_curves(self, name):
        (model, theta), (count, product, unit) = self.DENSE[name]
        pattern = simulate_thinning(model, theta, model.max_rate(theta), 3)
        assert pattern.count == count
        assert repr(self._curves(model, pattern)) == repr((product, unit))

    @pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_curves_match_single_theta_kernels(self, key):
        name, seed = key
        model, theta = self.MODELS[name]
        pattern = simulate_thinning(model, theta, model.max_rate(theta), seed)
        family = pattern_model_family(model)
        curves = [list(likelihood_curve(family, m, pattern).values)
                  for m in (MEASURE_PRODUCT, MEASURE_UNIT_POISSON)]
        assert repr(curves) == repr(list(self._curves(model, pattern)))

    def test_one_intensity_call_per_thinning_and_per_curve(self, monkeypatch):
        calls = []
        original = IntensityModel.intensity

        def counting(model, thetas, points):
            calls.append((len(thetas), len(np.atleast_2d(points))))
            return original(model, thetas, points)

        monkeypatch.setattr(IntensityModel, "intensity", counting)
        model, theta = self.MODELS["sinusoidal"]
        pattern = simulate_thinning(model, theta, model.max_rate(theta), 1)
        assert len(calls) == 1 and calls[0][0] == 1 and calls[0][1] > pattern.count
        calls.clear()
        counting_np = _Counting(np, "sin")
        monkeypatch.setattr(poisson, "np", counting_np)
        family = pattern_model_family(model)
        likelihood_curve(family, MEASURE_PRODUCT, pattern)
        likelihood_curve(family, MEASURE_UNIT_POISSON, pattern)
        assert calls == [(len(model.theta_grid), pattern.count)] * 2
        assert counting_np.calls["sin"] == 2


class TestGridIntensity:
    """One (K, N) intensity array per curve: each row stands alone."""

    PATTERN = PointPattern(region=((0.0, 1.0),), locations=(0.2, 0.6, 0.9))

    @pytest.mark.parametrize("measure_id", [MEASURE_PRODUCT, MEASURE_UNIT_POISSON])
    def test_zero_row_is_neg_inf_in_that_row_only(self, measure_id):
        model = constant_intensity((1.0, 0.0, 2.0))
        curve = likelihood_curve(pattern_model_family(model), measure_id, self.PATTERN)
        kernel = (loglik_product_measure if measure_id == MEASURE_PRODUCT else loglik_jacod)
        assert curve.values[1] == -math.inf
        assert [curve.values[0], curve.values[2]] == [kernel(model, 1.0, self.PATTERN),
                                                      kernel(model, 2.0, self.PATTERN)]
        assert math.isfinite(curve.values[0]) and math.isfinite(curve.values[2])

    @pytest.mark.parametrize("measure_id", [MEASURE_PRODUCT, MEASURE_UNIT_POISSON])
    def test_nan_in_one_row_raises(self, measure_id):
        def rate(thetas, x):
            values = np.tile(np.asarray(thetas, dtype=float)[:, None], (1, len(x)))
            values[values == 2.0] = math.nan
            return values

        model = IntensityModel(name="nan-row", region=((0.0, 1.0),), theta_grid=(1.0, 2.0, 3.0),
                               rate=rate, cumulative=float)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            likelihood_curve(pattern_model_family(model), measure_id, self.PATTERN)

    def test_rate_of_wrong_shape_rejected(self):
        model = IntensityModel(name="one-row", region=((0.0, 1.0),), theta_grid=(1.0, 2.0),
                               rate=lambda thetas, x: np.ones(len(x)), cumulative=float)
        with pytest.raises(ValueError, match="shape"):
            likelihood_curve(pattern_model_family(model), MEASURE_PRODUCT, self.PATTERN)

    @pytest.mark.parametrize("model", [
        constant_intensity((0.5, 4.0), ((0.0, 1.5),)),
        loglinear_intensity(((0.2, -0.9), (1.0, 0.6)), ((0.0, 1.5),)),
        sinusoidal_intensity((0.5, 4.0), ((0.0, 1.5),)),
    ], ids=lambda m: m.name)
    def test_rows_are_the_single_theta_rates(self, model):
        points = np.linspace(0.0, 1.5, 17)[:, None]
        grid = model.intensity(model.theta_grid, points)
        assert grid.shape == (len(model.theta_grid), len(points))
        for row, theta in zip(grid, model.theta_grid):
            assert row.tolist() == model.intensity((theta,), points)[0].tolist()


class _Counting:
    """A module, except that it counts its calls of the named functions."""

    def __init__(self, module, *names):
        self.module = module
        self.calls = dict.fromkeys(names, 0)

    def __getattr__(self, name):
        fn = getattr(self.module, name)
        if name not in self.calls:
            return fn

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted


class TestLargePatternKernels:
    """Both routes on a pattern of about 2e4 points, the size of the benchmark's
    large-sample pattern."""

    MODEL = sinusoidal_intensity(tuple(np.linspace(0.8, 1.2, 11) * 2e4))

    @pytest.fixture(scope="class")
    def pattern(self):
        return simulate_thinning(self.MODEL, 2e4, self.MODEL.max_rate(2e4), 19)

    def _starts(self, theta, pattern):
        total = self.MODEL.total(theta)
        return {loglik_product_measure: -math.lgamma(pattern.count + 1) - total,
                loglik_jacod: -(total - pattern.volume)}

    def test_within_pairwise_bound_of_exact_sum(self, pattern):
        # np.sum adds a block of up to 128 terms as 8 interleaved runs of up
        # to 16 (15 roundings), sums the runs pairwise (3) and adds up to 7
        # leftover terms one by one (7); blocks are combined by halving, in at
        # most ceil(log2 N) levels. Each log is within an ulp (2u relative) of
        # the exact value, here and in the reference (4u), and adding the
        # start rounds once more (1u).
        u = np.finfo(float).eps / 2
        depth = math.ceil(math.log2(pattern.count)) + 15 + 3 + 7 + 4 + 1
        for theta in self.MODEL.theta_grid:
            logs = list(map(math.log, self.MODEL.intensity((theta,), pattern._points)[0].tolist()))
            for kernel, start in self._starts(theta, pattern).items():
                exact = math.fsum([start, *logs])
                scale = abs(start) + math.fsum(map(abs, logs))
                assert abs(kernel(self.MODEL, theta, pattern) - exact) <= depth * u * scale

    def test_gap_identity(self, pattern):
        # the routes share the bits of the log sum, so their gap is off from
        # -|S| - log N! only by the roundings of the starts (lgamma's included),
        # of adding each to the sum and of the difference
        gap = -pattern.volume - math.lgamma(pattern.count + 1)
        for theta in self.MODEL.theta_grid:
            product = loglik_product_measure(self.MODEL, theta, pattern)
            unit = loglik_jacod(self.MODEL, theta, pattern)
            magnitudes = [*self._starts(theta, pattern).values(), product, unit, gap]
            tol = 2 * np.finfo(float).eps * math.fsum(map(abs, magnitudes))
            assert abs((product - unit) - gap) <= tol

    @pytest.mark.parametrize("model, theta", [
        (MODEL, 2e4),
        (loglinear_intensity(((9.0, 1.0), (9.5, 0.5), (8.5, 1.5))), (9.0, 1.0)),
    ], ids=["sinusoidal", "loglinear"])
    def test_no_per_point_math_calls(self, monkeypatch, model, theta):
        pattern = simulate_thinning(model, theta, model.max_rate(theta), 23)
        assert pattern.count > 5000
        counting = _Counting(math, "log", "exp")
        monkeypatch.setattr(poisson, "math", counting)
        family = pattern_model_family(model)
        likelihood_curve(family, MEASURE_PRODUCT, pattern)
        likelihood_curve(family, MEASURE_UNIT_POISSON, pattern)
        # Lambda(theta) may take two exps per theta and route
        assert counting.calls["log"] == 0
        assert counting.calls["exp"] <= 4 * len(model.theta_grid)


def _reference_counts(model, theta, bound, seed, replicates):
    """Per-replicate reference for `thinning_counts`: the same draws (all counts,
    then all rows), sliced replicate by replicate and thinned row by row."""
    rng = np.random.default_rng(seed)
    sizes = rng.poisson(bound * model.volume, size=replicates)
    d = len(model.region)
    raw = rng.random((int(sizes.sum()), d + 1))
    lo, hi = np.array(model.region).T
    counts, start = [], 0
    for size in sizes:
        kept = 0
        for row in raw[start:start + size]:
            kept += bool(row[d] < model.intensity((theta,), lo + (hi - lo) * row[:d])[0, 0] / bound)
        counts.append(kept)
        start += size
    return np.array(counts)


class _SwappedColumns:
    """A generator whose proposal rows come with location and acceptance swapped."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, shape):
        return self.rng.random(shape)[:, ::-1]


class _ShiftedOwners:
    """numpy, except that `searchsorted` hands each row to the previous replicate."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def searchsorted(a, v, side="left"):
        return np.maximum(np.searchsorted(a, v, side=side) - 1, 0)


def _scipy_count_gof(counts, rate):
    """The count GOF on scipy.stats: poisson.pmf and chisquare, with the same
    pooling. Returns (statistic, p-value)."""
    n = len(counts)
    top = int(counts.max()) + 1
    observed = np.bincount(counts, minlength=top + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(top + 1), rate) * n
    expected[-1] = n - expected[:-1].sum()
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
    return tuple(stats.chisquare(obs_pool, exp_pool))


class TestCountGOFOracle:
    """The count GOF's Poisson pmf, Pearson statistic and chi-square tail come
    from scipy.special and keep the bits of scipy.stats."""

    RATES = (0.5, 3.0, 12.0, 40.0)

    def _batches(self, rate):
        rng = np.random.default_rng([77, int(rate * 10)])
        yield np.repeat(np.arange(61), 3)       # every k from 0 to 60
        for size in (20, 300, 2000):
            yield rng.poisson(rate, size)

    @pytest.mark.parametrize("rate", RATES)
    def test_statistic_and_p_value_bits(self, rate, monkeypatch):
        seen = []

        def chdtrc(df, x):
            seen.append((df, x))
            return special.chdtrc(df, x)

        monkeypatch.setattr(experiments, "chdtrc", chdtrc)
        for counts in self._batches(rate):
            stat, pvalue = _scipy_count_gof(counts, rate)
            assert _poisson_count_gof(counts, rate) == pvalue
            assert seen.pop()[1] == stat

    # the two identities the GOF rests on, pinned on the installed scipy
    @pytest.mark.parametrize("rate", RATES)
    def test_pmf_bits(self, rate):
        k = np.arange(61)
        pmf = np.exp(special.xlogy(k, rate) - special.gammaln(k + 1) - rate)
        assert np.array_equal(pmf, stats.poisson.pmf(k, rate))

    def test_chi_square_tail_bits(self):
        x = np.concatenate([[0.0, 1e-300], np.linspace(0.0, 200.0, 2001)[1:], [1e4, np.inf]])
        for df in range(1, 60):
            assert np.array_equal(special.chdtrc(df, x), stats.chi2.sf(x, df))

    def test_lost_mass_raises(self):
        # rate 0 gives a trailing count expected exactly 0 times, which pooling
        # drops; scipy.stats.chisquare raised on the same totals
        counts = np.array([0] * 9 + [1])
        with pytest.raises(ValueError):
            _scipy_count_gof(counts, 0.0)
        with pytest.raises(ValueError, match="same total"):
            _poisson_count_gof(counts, 0.0)


class TestThinningCounts:
    """Batched thinning for the count GOF: one generator for every replicate."""

    SINUSOIDAL = (sinusoidal_intensity((3.0,)), 3.0)       # Lambda = 3 on [0, 1]
    CALIBRATION_SEEDS = [[4242, k] for k in range(400)]
    CALIBRATION_REPLICATES = 2000

    @pytest.mark.parametrize("name", sorted(TestArrayKernelBits.MODELS))
    def test_one_replicate_is_one_simulated_pattern(self, name):
        model, theta = TestArrayKernelBits.MODELS[name]
        bound = model.max_rate(theta)
        for seed in range(40):
            counts = thinning_counts(model, theta, bound, seed, 1)
            assert counts.tolist() == [simulate_thinning(model, theta, bound, seed).count]

    def test_matches_per_replicate_reference(self):
        model, theta = self.SINUSOIDAL
        bound = model.max_rate(theta)
        for seed in (0, 1, 2):
            want = _reference_counts(model, theta, bound, seed, 300)
            assert np.array_equal(thinning_counts(model, theta, bound, seed, 300), want)

    def test_counts_do_not_depend_on_block_size(self, monkeypatch):
        model, theta = TestArrayKernelBits.MODELS["sinusoidal"]
        bound = model.max_rate(theta)
        want = thinning_counts(model, theta, bound, 11, 500)
        for rows in (1, 7):
            monkeypatch.setattr(poisson, "_THIN_BLOCK_ROWS", rows)
            assert np.array_equal(thinning_counts(model, theta, bound, 11, 500), want)

    def test_no_replicates(self):
        model, theta = self.SINUSOIDAL
        assert thinning_counts(model, theta, model.max_rate(theta), 5, 0).tolist() == []

    def test_bound_violation_raises_same_error(self):
        model = constant_intensity((2.0,))
        seed = next(k for k in range(50) if np.random.default_rng(k).poisson(1.0) > 0)
        with pytest.raises(ValueError) as single:
            simulate_thinning(model, 2.0, 1.0, seed)
        with pytest.raises(ValueError) as batched:
            thinning_counts(model, 2.0, 1.0, seed, 1)
        assert str(batched.value) == str(single.value)
        assert str(single.value).startswith("thinning bound 1.0 below intensity 2.0 at (")

    def _calibrated(self):
        """Counts over fixed seeds: mean and variance within 4 SE of Lambda, and
        the share of GOF p-values below 0.05 within 4 SE of 0.05."""
        model, theta = self.SINUSOIDAL
        bound, rate = model.max_rate(theta), model.total(theta)
        batches = [thinning_counts(model, theta, bound, seed, self.CALIBRATION_REPLICATES)
                   for seed in self.CALIBRATION_SEEDS]
        counts = np.concatenate(batches)
        n = len(counts)
        low_share = np.mean([_poisson_count_gof(c, rate) < 0.05 for c in batches])
        k = len(batches)
        return (abs(counts.mean() - rate) <= 4.0 * math.sqrt(rate / n)
                and abs(counts.var() - rate) <= 4.0 * math.sqrt((rate + 2.0 * rate ** 2) / n)
                and abs(low_share - 0.05) <= 4.0 * math.sqrt(0.05 * 0.95 / k))

    def test_calibrated_over_seeds(self):
        assert self._calibrated()

    @pytest.mark.parametrize("defect", ["swap-columns", "shift-owner"])
    def test_defects_fail_reference_or_calibration(self, monkeypatch, defect):
        def passes():
            try:
                self.test_matches_per_replicate_reference()
            except AssertionError:
                return False
            return self._calibrated()

        assert passes()
        if defect == "swap-columns":
            original = poisson._thin
            monkeypatch.setattr(poisson, "_thin", lambda model, theta, bound, rng, n:
                                original(model, theta, bound, _SwappedColumns(rng), n))
        else:
            monkeypatch.setattr(poisson, "np", _ShiftedOwners())
        assert not passes()

    def test_count_gof_makes_one_intensity_call_per_block(self, monkeypatch):
        config = load_config()
        gof = (config["poisson"]["intensity"], grid_from_spec(config["poisson"]["grid"]))
        sizes = []
        original = IntensityModel.intensity

        def counting(model, thetas, points):
            if (model.name, model.theta_grid) == gof:     # only the GOF's model
                sizes.append(len(np.atleast_2d(points)))
            return original(model, thetas, points)

        monkeypatch.setattr(IntensityModel, "intensity", counting)
        run_poisson(config)
        proposals = sum(sizes)
        assert proposals > config["poisson"]["replicates"]
        assert len(sizes) <= math.ceil(proposals / poisson._THIN_BLOCK_ROWS)


class TestNegativeControls:
    """A halved Lambda(theta) must fail the poisson experiment's named checks."""

    CHECKS = ("thinning-count-gof", "homogeneous-mle", "location-density-normalized")

    @staticmethod
    def _outcomes():
        config = load_config()
        config["poisson"].update(patterns=5, replicates=500)
        report, _ = run_poisson(config)
        return {c.name: c.passed for c in report.checks}

    def test_halved_total_fails_named_checks(self, monkeypatch):
        assert all(self._outcomes()[name] for name in self.CHECKS)
        original = IntensityModel.total
        monkeypatch.setattr(IntensityModel, "total", lambda m, th: 0.5 * original(m, th))
        outcomes = self._outcomes()
        assert not any(outcomes[name] for name in self.CHECKS), outcomes


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
