"""Marginals, posteriors, and the predictive measure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaln, roots_jacobi
from scipy.stats import beta as beta_dist

from radonlik import ModelFamily, SampleSpace, finite_family
from radonlik.harness.config import load_config
from radonlik.harness.experiments import run_bayes
from radonlik.bayes import (GRID_PRIOR_NODES, DominatingMeasure, LikelihoodVanishesError, Prior,
                            binomial_family, dominance_check, marginal_density,
                            posterior, predictive_invariance, predictive_measure)


def beta_binomial_closed(n, x, a, b):
    return math.comb(n, x) * math.exp(betaln(x + a, n - x + b) - betaln(a, b))


class TestPrior:
    def test_grid_prior_has_unit_mass(self):
        prior = Prior.uniform_grid()
        assert prior.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_beta_grid_prior_mass(self):
        prior = Prior.beta_grid(2.0, 3.0)
        assert prior.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_beta_label_prior_mass(self):
        prior = Prior.beta(2.0, 3.0)
        assert prior.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_point_prior_integrates_by_evaluation(self):
        prior = Prior.point_mass(0.25)
        assert prior.integrate(lambda th: th * 2) == pytest.approx(0.5)

    @pytest.mark.parametrize("build", [
        lambda: Prior.from_grid([0.0, 0.5, 1.0], [1.0, math.nan, 1.0]),
        lambda: Prior.from_grid([0.0, 0.5, 1.0], [1.0, math.inf, 1.0]),
        lambda: Prior.from_grid([0.0, 0.8, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0]),
        lambda: Prior.from_grid([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0]),
        lambda: Prior.from_grid([0.0, math.nan, 1.0], [1.0, 1.0, 1.0]),
        lambda: Prior.from_grid([0.0, 1.0, math.inf], [1.0, 1.0, 1.0]),
        lambda: Prior.from_grid([0.5], [1.0]),
        lambda: Prior.beta(math.nan, 2.0),
        lambda: Prior.beta(2.0, math.inf),
        lambda: Prior.beta(2000.0, 3.0),
        lambda: Prior.beta(1e4, 1.0),
        lambda: Prior.beta(5e5, 1.0),
        lambda: Prior.point_mass(math.nan),
        lambda: Prior.point_mass(-math.inf),
        lambda: posterior(_constant_family(math.nan), "counting", Prior.beta(2.0, 3.0), 0),
        lambda: posterior(_constant_family(math.inf), "counting", Prior.point_mass(0.5), 0),
        lambda: marginal_density(_constant_family(math.nan), "counting",
                                 Prior.uniform_grid(nodes=1025), 0),
    ], ids=["nan-density", "inf-density", "unsorted-grid", "repeated-node", "nan-node",
            "inf-node", "one-node", "nan-a", "inf-b", "overflowing-rule-2000-3",
            "overflowing-rule-1e4-1", "overflowing-rule-5e5-1", "nan-point", "inf-point",
            "nan-kernel-posterior", "inf-kernel-posterior", "nan-kernel-marginal"])
    def test_bad_input_raises_where_it_enters(self, build):
        with pytest.raises(ValueError) as info:
            build()
        assert not isinstance(info.value, LikelihoodVanishesError)

    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.5, 0.5), (1.0, 1.0)])
    def test_gauss_jacobi_rule_is_exact_for_binomial_kernels(self, a, b):
        assert _worst_marginal_error(Prior.beta(a, b), a, b) <= 1e-14

    def test_swapped_jacobi_exponents_fail_the_marginal_oracle(self, monkeypatch):
        # negative control: the swapped rule integrates against Beta(3, 2), not Beta(2, 3)
        monkeypatch.setattr("radonlik.bayes.roots_jacobi",
                            lambda n, alpha, beta: roots_jacobi(n, beta, alpha))
        assert _worst_marginal_error(Prior.beta(2.0, 3.0), 2.0, 3.0) > 1e-8


def _constant_family(log_value):
    """One-atom family whose log kernel is `log_value` at every theta."""
    fam = ModelFamily((0.5,), SampleSpace(atoms=(0,)))
    fam.register_kernel("counting", lambda ths, x: np.full(len(ths), log_value))
    return fam


def _worst_marginal_error(prior, a, b):
    worst = 0.0
    for n in range(1, 11):
        family, _ = binomial_family(n, (0.5,))
        for x in range(n + 1):
            m = marginal_density(family, "counting", prior, x)
            worst = max(worst, abs(m - beta_binomial_closed(n, x, a, b)))
    return worst


class TestMarginal:
    def test_uniform_prior_binomial_two_is_flat(self):
        family, _ = binomial_family(2, (0.5,))
        prior = Prior.uniform_grid()
        for x in (0, 1, 2):
            m = marginal_density(family, "counting", prior, x)
            assert m == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_point_mass_prior_reduces_to_kernel(self):
        family, _ = binomial_family(3, (0.5,))
        prior = Prior.point_mass(0.4)
        m = marginal_density(family, "counting", prior, 2)
        assert m == pytest.approx(math.comb(3, 2) * 0.4 ** 2 * 0.6)

    def test_zero_marginal_on_unreachable_point(self):
        fam = finite_family((0, 1), [(1.0, 0.0), (0.0, 1.0)], (0.0, 1.0))
        prior = Prior.point_mass(0.0)
        assert marginal_density(fam, "counting", prior, 1) == 0.0

    @pytest.mark.parametrize("prior,a,b", [
        (Prior.uniform_grid(), 1.0, 1.0),
        (Prior.beta(2.0, 3.0), 2.0, 3.0),
        (Prior.beta_grid(2.0, 3.0), 2.0, 3.0),
    ])
    def test_matches_gamma_ratio_closed_form(self, prior, a, b):
        worst = 0.0
        for n in (1, 4, 10):
            family, _ = binomial_family(n, (0.5,))
            for x in range(n + 1):
                m = marginal_density(family, "counting", prior, x)
                worst = max(worst, abs(m - beta_binomial_closed(n, x, a, b)))
        assert worst <= 1e-8


class TestPosterior:
    def test_binomial_two_successes_gives_beta_3_1(self):
        family, _ = binomial_family(2, (0.5,))
        post = posterior(family, "counting", Prior.uniform_grid(), 2)
        # uniform prior: density against the prior equals the Lebesgue density
        assert np.max(np.abs(post.values - 3.0 * post.thetas ** 2)) <= 1e-8
        assert post.normalization_residual <= 1e-6

    def test_binomial_one_success_gives_beta_2_2(self):
        family, _ = binomial_family(2, (0.5,))
        post = posterior(family, "counting", Prior.uniform_grid(), 1)
        assert np.max(np.abs(post.values - 6.0 * post.thetas * (1 - post.thetas))) <= 1e-8

    def test_point_prior_posterior_is_unit(self):
        family, _ = binomial_family(2, (0.5,))
        post = posterior(family, "counting", Prior.point_mass(0.3), 1)
        assert post.values == pytest.approx([1.0])

    def test_beta_prior_conjugacy(self):
        family, _ = binomial_family(5, (0.5,))
        prior = Prior.beta(2.0, 3.0)
        post = posterior(family, "counting", prior, 4)
        lebesgue = post.values * prior.density(post.thetas)
        exact = beta_dist.pdf(post.thetas, 6.0, 4.0)
        assert np.max(np.abs(lebesgue - exact)) <= 1e-8

    @pytest.mark.parametrize("prior,passes", [
        (Prior.uniform_grid(nodes=1025), ["nodes"]),
        (Prior.point_mass(0.3), ["nodes"]),
        (Prior.beta(2.0, 3.0), ["nodes", "thetas"]),
    ], ids=["grid", "point", "beta"])
    def test_one_kernel_pass_per_posterior(self, prior, passes):
        family, _ = binomial_family(4, (0.5,))
        seen = []

        def counted(thetas, x):
            seen.append("nodes" if thetas is prior.nodes else "thetas")
            return family.log_kernel("counting", thetas, x)

        family.register_kernel("counted", counted)
        post = posterior(family, "counted", prior, 3)
        assert seen == passes
        want = posterior(family, "counting", prior, 3)
        assert np.array_equal(post.values, want.values)

    def test_vanishing_likelihood_raises(self):
        fam = finite_family((0, 1), [(1.0, 0.0), (0.0, 1.0)], (0.0, 1.0))
        with pytest.raises(LikelihoodVanishesError):
            posterior(fam, "counting", Prior.point_mass(0.0), 1)

    def test_kernel_matches_pmf_expression_bit_for_bit(self):
        # the kernel builds the pmf in place; the one-expression form is the reference
        t = np.linspace(0.0, 1.0, 1025)
        for n in (1, 4, 10):
            family, _ = binomial_family(n, (0.5,))
            for x in range(n + 1):
                with np.errstate(divide="ignore"):
                    want = np.log(math.comb(n, x) * t ** x * (1.0 - t) ** (n - x))
                assert np.array_equal(family.log_kernel("counting", t, x), want)

    def test_base_invariance_pointwise(self):
        family, _ = binomial_family(6, (0.5,))
        prior = Prior.uniform_grid()
        p1 = posterior(family, "counting", prior, 4)
        p2 = posterior(family, "counting-x2", prior, 4)
        assert np.max(np.abs(p1.values - p2.values)) <= 1e-8


class TestPredictiveMeasure:
    def test_invariance_across_bases(self):
        family, measures = binomial_family(4, (0.5,))
        prior = Prior.uniform_grid()
        sets = [(), (0, 1), tuple(range(5))]
        lambdas = [predictive_measure(family, mid, prior, measures[mid])
                   for mid in ("counting", "counting-x2")]
        assert predictive_invariance(lambdas, sets, tol=1e-8)

    def test_empty_set_mass_zero_and_total_one(self):
        family, measures = binomial_family(4, (0.5,))
        lam = predictive_measure(family, "counting", Prior.uniform_grid(),
                                 measures["counting"])
        assert lam.set_mass(()) == 0.0
        assert lam.set_mass(tuple(range(5))) == pytest.approx(1.0, abs=1e-6)

    def test_marginal_computed_once_per_atom(self, monkeypatch):
        family, measures = binomial_family(4, (0.5,))
        seen = []
        original = marginal_density

        def counting(fam, mid, prior, x):
            seen.append(x)
            return original(fam, mid, prior, x)

        monkeypatch.setattr("radonlik.bayes.marginal_density", counting)
        lam = predictive_measure(family, "counting", Prior.uniform_grid(nodes=1025),
                                 measures["counting"])
        first = lam.set_mass((0, 1, 2))
        assert lam.set_mass(tuple(range(5))) == pytest.approx(1.0, abs=1e-6)
        assert lam.set_mass((0, 1, 2)) == first
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_one_kernel_pass_per_marginal_in_run_bayes(self, monkeypatch):
        """Each (n, x) marginal on the grid prior's nodes is computed once: the
        n_max loop, the invariance check, the total mass and the dominance
        check share one memoized predictive measure per base."""
        calls = []
        original = ModelFamily.log_kernel

        def counting(family, measure_id, thetas, x):
            if len(thetas) == GRID_PRIOR_NODES:
                calls.append(measure_id)
            return original(family, measure_id, thetas, x)

        monkeypatch.setattr(ModelFamily, "log_kernel", counting)
        config = load_config()
        config["bayes"]["priors"] = ["uniform-grid"]
        run_bayes(config)
        n_max = config["bayes"]["n_max"]
        # per n: n + 1 marginals and one pass per posterior at x = n // 2; at
        # n_max the invariance check adds the counting-x2 marginals
        assert calls.count("counting") == sum(n + 2 for n in range(1, n_max + 1))
        assert calls.count("counting-x2") == n_max + (n_max + 1)
        assert len(calls) == sum(n + 3 for n in range(1, n_max + 1)) + n_max + 1


class TestDominance:
    def test_binomial_full_support(self):
        family, measures = binomial_family(2, tuple(np.linspace(0.1, 0.9, 5)))
        rep = dominance_check(predictive_measure(family, "counting", Prior.uniform_grid(),
                                                 measures["counting"]))
        assert rep.support_constant and rep.dominated and rep.zero_set == ()

    def test_point_mass_family_counterexample(self):
        fam = finite_family((0, 1), [(1.0, 0.0), (0.0, 1.0)], (0.0, 1.0))
        base = DominatingMeasure.counting("counting", (0, 1))
        rep = dominance_check(predictive_measure(fam, "counting", Prior.point_mass(0.0), base))
        assert rep.zero_set == (1,)
        assert not rep.dominated
        assert rep.zero_set_hit == (False, True)
        assert not rep.support_constant

    def test_boundary_theta_breaks_support_constancy_not_dominance(self):
        family, measures = binomial_family(2, (0.3, 0.7, 1.0))
        rep = dominance_check(predictive_measure(family, "counting", Prior.uniform_grid(),
                                                 measures["counting"]))
        assert not rep.support_constant
        assert rep.dominated


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(2, 4))
def test_support_constancy_implies_dominance(seed, n_atoms, n_members):
    """Random finite families with a common support pattern are dominated by
    their predictive measure."""
    rng = np.random.default_rng(seed)
    atoms = tuple(range(n_atoms))
    pattern = rng.uniform(size=n_atoms) > 0.3
    if not pattern.any():
        pattern[0] = True
    rows = []
    for _ in range(n_members):
        masses = rng.uniform(0.05, 1.0, size=n_atoms) * pattern
        rows.append(tuple(masses / masses.sum()))
    thetas = tuple(float(i) for i in range(n_members))
    fam = finite_family(atoms, rows, thetas)
    base = DominatingMeasure.counting("counting", atoms)
    weights = rng.uniform(0.2, 1.0, size=n_members)
    prior = Prior.from_grid(np.asarray(thetas), weights)
    rep = dominance_check(predictive_measure(fam, "counting", prior, base))
    assert rep.support_constant
    assert rep.dominated
