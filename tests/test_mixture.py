"""Point-mass mixtures: correct vs naive densities and the grid MLE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonlik import argmax_invariance, check_proportionality, likelihood_curve
from radonlik.mixture import (COMPONENT_CATALOG, PointMassMixture,
                              atom_weight_family, atom_weight_mixture, density_correct,
                              density_naive, grid_mle, mixture_total_mass, simulate)


@pytest.fixture
def exp_mix():
    """0.3 point mass at 0 plus 0.7 unit-rate exponential on (0, inf)."""
    return atom_weight_mixture(0.0, COMPONENT_CATALOG["exponential"](), 0.3)


class TestDensities:
    def test_atom_value_is_atom_mass(self, exp_mix):
        assert density_correct(exp_mix, 0.0) == pytest.approx(0.3)

    def test_continuous_value(self, exp_mix):
        assert density_correct(exp_mix, 1.0) == pytest.approx(0.7 * math.exp(-1.0))

    def test_outside_all_supports(self, exp_mix):
        assert density_correct(exp_mix, -1.0) == 0.0
        assert density_naive(exp_mix, -1.0) == 0.0

    def test_naive_adds_continuous_formula_at_atom(self, exp_mix):
        # exponential formula extends to the boundary of its region closure
        assert density_naive(exp_mix, 0.0) == pytest.approx(1.0)

    def test_naive_agrees_off_atoms(self, exp_mix):
        assert density_naive(exp_mix, 1.0) == pytest.approx(density_correct(exp_mix, 1.0))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PointMassMixture(atoms=((0.0, 0.3),),
                             components=((0.6, COMPONENT_CATALOG["exponential"]()),))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.001, 30.0))
def test_densities_agree_everywhere_off_atoms(y):
    mix = atom_weight_mixture(0.0, COMPONENT_CATALOG["exponential"](), 0.3)
    assert density_correct(mix, y) == density_naive(mix, y)


class TestSimulate:
    def test_single_atom_draws_constant(self):
        mix = PointMassMixture(atoms=((2.5, 1.0),), components=())
        sample = simulate(mix, 20, seed=0)
        assert np.all(sample == 2.5)

    def test_atom_frequency_within_binomial_band(self, exp_mix):
        n = 10 ** 4
        sample = simulate(exp_mix, n, seed=7)
        freq = float(np.mean(sample == 0.0))
        assert abs(freq - 0.3) <= 3.0 * math.sqrt(0.3 * 0.7 / n)

    def test_seed_determinism(self, exp_mix):
        a = simulate(exp_mix, 100, seed=123)
        b = simulate(exp_mix, 100, seed=123)
        assert np.array_equal(a, b)

    def test_needs_positive_n(self, exp_mix):
        with pytest.raises(ValueError):
            simulate(exp_mix, 0, seed=1)


class TestGridMLE:
    def test_atom_only_sample_pushes_p_up(self):
        grid = tuple(np.linspace(0.1, 0.9, 9))
        comp = COMPONENT_CATALOG["exponential"]()
        mixes = [atom_weight_mixture(0.0, comp, p) for p in grid]
        sample = np.zeros(50)
        assert grid_mle(mixes, grid, sample, "correct") == frozenset({8})

    def test_consistency_at_desk_scale(self):
        grid = tuple(np.linspace(0.05, 0.95, 19))
        comp = COMPONENT_CATALOG["exponential"]()
        sample = simulate(atom_weight_mixture(0.0, comp, 0.3), 10 ** 4, seed=11)
        mixes = [atom_weight_mixture(0.0, comp, p) for p in grid]
        best = grid[min(grid_mle(mixes, grid, sample, "correct"))]
        assert abs(best - 0.3) <= 0.05

    def test_naive_mle_is_biased_here(self):
        # with a unit-rate exponential, the naive density at the atom is
        # p + (1 - p), so atom draws carry no information and the naive
        # likelihood is maximized at the smallest grid weight
        grid = tuple(np.linspace(0.05, 0.95, 19))
        comp = COMPONENT_CATALOG["exponential"]()
        sample = simulate(atom_weight_mixture(0.0, comp, 0.3), 10 ** 4, seed=11)
        mixes = [atom_weight_mixture(0.0, comp, p) for p in grid]
        assert grid_mle(mixes, grid, sample, "naive") == frozenset({0})

    def test_all_neg_inf_rejected(self):
        comp = COMPONENT_CATALOG["uniform"]()
        grid = (0.2, 0.4)
        mixes = [atom_weight_mixture(0.5, comp, p) for p in grid]
        with pytest.raises(ValueError):
            grid_mle(mixes, grid, np.array([3.0]), "correct")

    def test_nan_in_sample_rejected(self):
        comp = COMPONENT_CATALOG["exponential"]()
        grid = (0.2, 0.4)
        mixes = [atom_weight_mixture(0.0, comp, p) for p in grid]
        with pytest.raises(ValueError, match="NaN"):
            grid_mle(mixes, grid, [0.0, 1.0, math.nan], "correct")
        family = atom_weight_family(0.0, comp, grid)
        for measure_id in ("counting-lebesgue", "counting-2lebesgue",
                           "counting-lebesgue-naive", "lebesgue-only"):
            with pytest.raises(ValueError, match="NaN"):
                likelihood_curve(family, measure_id, np.array([math.nan, 1.0]))


class TestModelFamilyRoutes:
    def test_second_measure_proportional_at_tight_tol(self):
        grid = tuple(np.linspace(0.1, 0.9, 9))
        family = atom_weight_family(0.0, COMPONENT_CATALOG["exponential"](), grid)
        sample = simulate(atom_weight_mixture(0.0, COMPONENT_CATALOG["exponential"](), 0.4),
                          200, seed=3)
        c1 = likelihood_curve(family, "counting-lebesgue", sample)
        c2 = likelihood_curve(family, "counting-2lebesgue", sample)
        report = check_proportionality(c1, c2, 1e-10)
        assert report.passed and argmax_invariance(c1, c2)
        n_continuous = int(np.sum(sample != 0.0))
        assert report.constant_log_ratio == pytest.approx(n_continuous * math.log(2.0))

    def test_naive_fails_on_atomful_sample(self):
        grid = tuple(np.linspace(0.1, 0.9, 9))
        family = atom_weight_family(0.0, COMPONENT_CATALOG["exponential"](), grid)
        sample = np.array([0.0, 0.0, 0.7, 1.3])
        c1 = likelihood_curve(family, "counting-lebesgue", sample)
        c2 = likelihood_curve(family, "counting-lebesgue-naive", sample)
        assert not check_proportionality(c1, c2, 1e-8).passed

    def test_pure_lebesgue_kernel_vanishes_at_atom(self):
        grid = (0.3, 0.6)
        family = atom_weight_family(0.0, COMPONENT_CATALOG["exponential"](), grid)
        curve = likelihood_curve(family, "lebesgue-only", np.array([0.0]))
        assert set(curve.values) == {float("-inf")}


class TestMassConsistency:
    def test_total_mass_one(self):
        for name in COMPONENT_CATALOG:
            comp = COMPONENT_CATALOG[name]()
            atom = 0.5 if name == "uniform" else 0.0
            mix = atom_weight_mixture(atom, comp, 0.3)
            assert mixture_total_mass(mix) == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_plus_atom_matches_cdf_increment(self, exp_mix):
        from scipy.integrate import quad
        eps = 0.25
        cont, _ = quad(lambda y: density_correct(exp_mix, y), -eps, eps,
                       points=[0.0], epsabs=1e-12)
        total = cont + exp_mix.atom_mass(0.0)
        assert total == pytest.approx(exp_mix.interval_mass(-eps, eps), abs=1e-6)

    def test_truncated_gaussian_cdf_increment(self):
        mix = atom_weight_mixture(0.0, COMPONENT_CATALOG["gaussian-truncated"](), 0.25)
        from scipy.integrate import quad
        eps = 0.5
        cont, _ = quad(lambda y: density_correct(mix, y), -eps, eps,
                       points=[0.0], epsabs=1e-12)
        total = cont + mix.atom_mass(0.0)
        assert total == pytest.approx(mix.interval_mass(-eps, eps), abs=1e-6)
