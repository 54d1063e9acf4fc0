"""Likelihood curves, proportionality, and the shrinking-ball estimator."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from radonlik import (DominatingMeasure, LogLikelihoodCurve, ModelFamily, SampleSpace,
                      argmax_indices, argmax_invariance, check_proportionality, eval_log_density,
                      finite_family, likelihood_curve, neighborhood_density_limit,
                      total_mass)

NEG_INF = float("-inf")


def uniform01_family():
    fam = ModelFamily((0.0,), SampleSpace(label="unit", region=(0.0, 1.0)))
    fam.register_kernel("lebesgue", lambda ths, y: np.zeros(len(ths)))
    return fam


def bernoulli_family(thetas=(0.2, 0.5, 0.8)):
    return finite_family((0, 1), [(1.0 - th, th) for th in thetas], thetas)


class TestEvalLogDensity:
    def test_uniform_density_is_one(self):
        assert eval_log_density(uniform01_family(), "lebesgue", 0.0, 0.5) == 0.0

    def test_bernoulli_atom_mass(self):
        fam = bernoulli_family()
        assert eval_log_density(fam, "counting", 0.2, 1) == pytest.approx(math.log(0.2))

    def test_zero_kernel_gives_neg_inf(self):
        fam = finite_family((0, 1), [(1.0, 0.0)], ("d0",))
        assert eval_log_density(fam, "counting", "d0", 1) == NEG_INF

    def test_unknown_measure_id(self):
        with pytest.raises(KeyError):
            eval_log_density(bernoulli_family(), "nope", 0.2, 1)

    def test_outside_sample_space(self):
        with pytest.raises(ValueError):
            eval_log_density(uniform01_family(), "lebesgue", 0.0, 1.5)


class TestLikelihoodCurve:
    def test_bernoulli_curve_values(self):
        curve = likelihood_curve(bernoulli_family(), "counting", 1)
        assert curve.values == pytest.approx((math.log(0.2), math.log(0.5), math.log(0.8)))

    def test_curve_length_matches_grid(self):
        fam = bernoulli_family((0.1, 0.3, 0.6, 0.9))
        curve = likelihood_curve(fam, "counting", 0)
        assert len(curve.values) == len(fam.theta_grid)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogLikelihoodCurve("m", "o", (0.1, 0.2), (1.0,))

    def test_kernel_called_once_per_curve(self):
        calls = []

        def kernel(thetas, omega):
            calls.append(tuple(thetas))
            return [-float(th) * omega for th in thetas]

        fam = ModelFamily((0.5, 1.0, 2.0), SampleSpace(region=(0.0, 10.0)))
        fam.register_kernel("lebesgue", kernel)
        curve = likelihood_curve(fam, "lebesgue", 2.0)
        assert calls == [(0.5, 1.0, 2.0)]
        assert curve.values == (-1.0, -2.0, -4.0)

    def test_sample_space_checked_before_kernel(self):
        fam = ModelFamily((0.0,), SampleSpace(region=(0.0, 1.0)))
        fam.register_kernel("lebesgue", lambda ths, y: pytest.fail("kernel called"))
        with pytest.raises(ValueError, match="outside sample space"):
            likelihood_curve(fam, "lebesgue", 1.5)

    def test_kernel_must_return_one_value_per_theta(self):
        fam = ModelFamily((0.1, 0.2))
        fam.register_kernel("scalar", lambda ths, y: 0.0)
        with pytest.raises(ValueError, match="shape"):
            likelihood_curve(fam, "scalar", 0.0)


class TestProportionality:
    def test_curve_vs_itself(self):
        curve = likelihood_curve(bernoulli_family(), "counting", 1)
        report = check_proportionality(curve, curve, 1e-12)
        assert report.passed and report.constant_log_ratio == 0.0

    def test_constant_shift_passes(self):
        curve = likelihood_curve(bernoulli_family(), "counting", 1)
        report = check_proportionality(curve, curve.shifted(-2.5), 1e-10)
        assert report.passed
        assert report.constant_log_ratio == pytest.approx(2.5)

    def test_theta_dependent_gap_fails(self):
        curve = likelihood_curve(bernoulli_family(), "counting", 1)
        other = LogLikelihoodCurve("m2", curve.observation_id, curve.thetas,
                                   tuple(2 * v for v in curve.values))
        assert not check_proportionality(curve, other, 1e-6).passed

    def test_mismatched_grids_rejected(self):
        c1 = likelihood_curve(bernoulli_family((0.2, 0.5)), "counting", 1)
        c2 = likelihood_curve(bernoulli_family((0.2, 0.6)), "counting", 1)
        with pytest.raises(ValueError):
            check_proportionality(c1, c2, 1e-8)

    def test_all_neg_inf_reports_undefined_and_fails(self):
        c1 = LogLikelihoodCurve("a", "o", (0.1, 0.2), (NEG_INF, NEG_INF))
        c2 = LogLikelihoodCurve("b", "o", (0.1, 0.2), (NEG_INF, NEG_INF))
        report = check_proportionality(c1, c2, 1e-8)
        assert report.constant_log_ratio is None and not report.passed

    def test_mismatched_finiteness_pattern_fails(self):
        c1 = LogLikelihoodCurve("a", "o", (0.1, 0.2, 0.3), (1.0, 2.0, NEG_INF))
        c2 = LogLikelihoodCurve("b", "o", (0.1, 0.2, 0.3), (1.0, 2.0, 3.0))
        assert not check_proportionality(c1, c2, 1e6).passed


class TestArgmaxInvariance:
    def test_proportional_curves_share_argmax(self):
        curve = likelihood_curve(bernoulli_family(), "counting", 1)
        assert argmax_invariance(curve, curve.shifted(17.0))

    def test_negated_unimodal_curve_differs(self):
        c1 = LogLikelihoodCurve("a", "o", (0.1, 0.2, 0.3), (-1.0, 0.0, -1.0))
        c2 = LogLikelihoodCurve("b", "o", (0.1, 0.2, 0.3), (1.0, 0.0, 1.0))
        assert not argmax_invariance(c1, c2)

    def test_ties_compared_as_index_sets(self):
        c1 = LogLikelihoodCurve("a", "o", (0.1, 0.2, 0.3), (0.0, 0.0, -1.0))
        c2 = LogLikelihoodCurve("b", "o", (0.1, 0.2, 0.3), (5.0, 5.0, 4.0))
        c3 = LogLikelihoodCurve("c", "o", (0.1, 0.2, 0.3), (5.0, 4.0, 4.0))
        assert argmax_invariance(c1, c2)
        assert not argmax_invariance(c1, c3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12, unique=True),
       st.floats(-100, 100))
def test_shift_invariance_property(values, shift):
    # values within an ulp of each other can merge into exact ties under a
    # float shift, legitimately changing the argmax set; keep them apart
    assume(min(abs(a - b) for i, a in enumerate(values)
               for b in values[i + 1:]) > 1e-6)
    thetas = tuple(float(i) for i in range(len(values)))
    c1 = LogLikelihoodCurve("a", "o", thetas, tuple(values))
    c2 = LogLikelihoodCurve("b", "o", thetas, tuple(v + shift for v in values))
    report = check_proportionality(c1, c2, 1e-6)
    assert report.passed
    assert argmax_invariance(c1, c2)


class TestNonFinitePolicy:
    @pytest.mark.parametrize("values", [(math.nan, 1.0, 0.0), (1.0, math.nan, 0.0),
                                        (1.0, 0.0, math.nan)])
    def test_nan_rejected_wherever_it_sits(self, values):
        with pytest.raises(ValueError, match="log-likelihood nan"):
            LogLikelihoodCurve("m", "o", (0.1, 0.2, 0.3), values)

    def test_positive_inf_rejected(self):
        with pytest.raises(ValueError, match="log-likelihood inf"):
            LogLikelihoodCurve("m", "o", (0.1, 0.2, 0.3), (1.0, math.inf, 0.0))

    def test_negative_inf_allowed(self):
        curve = LogLikelihoodCurve("m", "o", (0.1, 0.2, 0.3), (NEG_INF, 1.0, NEG_INF))
        assert argmax_indices(curve) == frozenset({1})

    def test_all_negative_inf_has_no_argmax(self):
        curve = LogLikelihoodCurve("m", "o", (0.1, 0.2), (NEG_INF, NEG_INF))
        with pytest.raises(ValueError, match="zero likelihood"):
            argmax_indices(curve)


# small value pool so that ties and non-finite entries come up often
_LOGLIK = st.one_of(st.sampled_from([0.0, -1.0, NEG_INF, math.nan, math.inf]),
                    st.floats(-50, 50))


@settings(max_examples=200, deadline=None)
@given(st.lists(_LOGLIK, min_size=1, max_size=12).flatmap(
    lambda vs: st.tuples(st.just(vs), st.permutations(range(len(vs))))))
def test_argmax_follows_grid_permutation(values_and_order):
    # holds for every curve the constructor accepts
    values, order = values_and_order
    assume(any(v != NEG_INF for v in values))
    thetas = tuple(float(i) for i in range(len(values)))
    try:
        curve = LogLikelihoodCurve("a", "o", thetas, tuple(values))
    except ValueError:
        return
    permuted = LogLikelihoodCurve("a", "o", tuple(thetas[j] for j in order),
                                  tuple(values[j] for j in order))
    # index k of the permuted grid is index order[k] of the original
    assert {order[k] for k in argmax_indices(permuted)} == argmax_indices(curve)


class TestNeighborhoodLimit:
    def test_standard_gaussian_converges_to_density_at_zero(self):
        fam = ModelFamily((0.0,), SampleSpace(region=(-30.0, 30.0)))
        fam.register_kernel("lebesgue", lambda ths, y: np.full(len(ths), norm.logpdf(y)))
        nu = DominatingMeasure.lebesgue("lebesgue", (-30.0, 30.0))
        radii = [2.0 ** (-j) for j in range(4, 15)]
        ratios = neighborhood_density_limit(fam, nu, 0.0, 0.0, radii)
        oracle = [(norm.cdf(r) - norm.cdf(-r)) / (2 * r) for r in radii]
        assert ratios == pytest.approx(oracle, abs=1e-10)
        assert abs(ratios[-1] - norm.pdf(0.0)) < 1e-3

    def test_uniform_ratios_identically_one(self):
        fam = uniform01_family()
        nu = DominatingMeasure.lebesgue("lebesgue", (0.0, 1.0))
        ratios = neighborhood_density_limit(fam, nu, 0.0, 0.5, [0.2, 0.1, 0.05])
        assert ratios == pytest.approx([1.0, 1.0, 1.0])

    def test_atom_ratio_converges_to_atom_mass(self):
        # one atom of mass p1 at 0 plus a unit-rate exponential tail
        p1 = 0.3

        def interval_mass(th, lo, hi):
            mass = p1 if lo <= 0.0 <= hi else 0.0
            return mass + 0.7 * ((1.0 - math.exp(-max(hi, 0.0))) - (1.0 - math.exp(-max(lo, 0.0))))

        fam = ModelFamily((0.0,), SampleSpace(region=(-1.0, math.inf)),
                          interval_mass=interval_mass)
        fam.register_kernel("mixed", lambda ths, y: np.full(
            len(ths), math.log(p1) if y == 0.0 else math.log(0.7) - y if y > 0 else NEG_INF))
        nu = DominatingMeasure.counting_lebesgue_sum("mixed", (0.0,), (-1.0, math.inf))
        radii = [2.0 ** (-j) for j in range(4, 15)]
        ratios = neighborhood_density_limit(fam, nu, 0.0, 0.0, radii)
        assert abs(ratios[-1] - p1) < 1e-3

    def test_zero_base_mass_rejected(self):
        fam = uniform01_family()
        nu = DominatingMeasure.counting("atoms", (0.0,))
        with pytest.raises(ValueError):
            neighborhood_density_limit(fam, nu, 0.0, 5.0, [0.1])

    def test_radii_must_decrease(self):
        fam = uniform01_family()
        nu = DominatingMeasure.lebesgue("lebesgue", (0.0, 1.0))
        with pytest.raises(ValueError):
            neighborhood_density_limit(fam, nu, 0.0, 0.5, [0.1, 0.2])


class TestNormalization:
    def test_bernoulli_masses_sum_to_one(self):
        fam = bernoulli_family()
        nu = DominatingMeasure.counting("counting", (0, 1))
        for th in fam.theta_grid:
            assert total_mass(fam, nu, th) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_kernel_integrates_to_one(self):
        fam = ModelFamily((-1.0, 0.0, 2.0), SampleSpace(region=(-40.0, 40.0)))
        fam.register_kernel("lebesgue", lambda ths, y: norm.logpdf(y - np.asarray(ths)))
        nu = DominatingMeasure.lebesgue("lebesgue", (-40.0, 40.0))
        for th in fam.theta_grid:
            assert total_mass(fam, nu, th) == pytest.approx(1.0, abs=1e-6)
