"""Exponential families: natural form, normalizers, tilting, base changes."""

import dataclasses
import math

import numpy as np
import pytest

from radonlik import argmax_invariance, check_proportionality, expfam, likelihood_curve
from radonlik.expfam import (EXPFAM_CATALOG, DivergentNormalizerError, DominatingMeasure,
                             ExponentialFamily, as_model_family, bernoulli_family,
                             change_dominating_measure, compute_log_partition,
                             gaussian_known_var_family, iid_family, log_densities,
                             log_density, poisson_family, tilt_to_lambda)
from radonlik.harness import load_config
from radonlik.harness.experiments import _expfam_variants, run_expfam, run_proportionality


def truncated_poisson(theta_grid, k):
    """Poisson with eta = log(theta), T = x and h = 1/x! cut to 0 above k,
    against counting on 0..k+1, so that k+1 is an atom where h vanishes: no
    closed-form normalizer."""
    return ExponentialFamily(
        name=f"poisson-trunc{k}", natural_param=lambda th: np.array([math.log(th)]),
        sufficient_stat=lambda x: np.array([float(x)]),
        carrier=lambda x: math.exp(-math.lgamma(x + 1)) if x <= k else 0.0,
        base=DominatingMeasure.counting(f"counting-0..{k + 1}", tuple(range(k + 2))),
        theta_grid=tuple(theta_grid))


class TestLogDensity:
    def test_poisson_hand_value(self):
        fam = poisson_family((1.0,))
        # eta = 0, T = 2, logpart = 1, h = 1/2
        assert log_density(fam, 1.0, 2) == pytest.approx(-1.0 - math.log(2.0))

    def test_bernoulli_symmetric_point(self):
        fam = bernoulli_family((0.5,))
        assert log_density(fam, 0.5, 0) == pytest.approx(math.log(0.5))
        assert log_density(fam, 0.5, 1) == pytest.approx(math.log(0.5))

    def test_vanishing_carrier_gives_neg_inf(self):
        fam = truncated_poisson((1.0,), 5)
        assert log_density(fam, 1.0, 6) == float("-inf")


class TestLogPartition:
    def test_bernoulli_natural_form_at_half(self):
        fam = bernoulli_family((0.5,))
        assert compute_log_partition(fam, 0.5) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_truncated_poisson_close_to_theta(self):
        fam = truncated_poisson((1.0,), 50)
        assert compute_log_partition(fam, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_single_atom_base_reduces_to_one_term(self):
        base = DominatingMeasure.counting("one", (3.0,))
        fam = ExponentialFamily(
            name="single", natural_param=lambda th: np.array([th]),
            sufficient_stat=lambda x: np.array([x]), carrier=lambda x: 0.5,
            base=base, theta_grid=(1.2,))
        want = 1.2 * 3.0 + math.log(0.5)
        assert compute_log_partition(fam, 1.2) == pytest.approx(want, abs=1e-12)

    def test_gaussian_quadrature_matches_closed_form(self):
        fam = gaussian_known_var_family((0.7,))
        assert compute_log_partition(fam, 0.7) == pytest.approx(0.7 ** 2 / 2, abs=1e-8)

    def test_divergence_guard(self):
        base = DominatingMeasure.counting("two", (0.0, 800.0))
        fam = ExponentialFamily(
            name="explosive", natural_param=lambda th: np.array([th]),
            sufficient_stat=lambda x: np.array([x]), carrier=lambda x: 1.0,
            base=base, theta_grid=(1.0,))
        with pytest.raises(DivergentNormalizerError):
            compute_log_partition(fam, 1.0)

    def test_cache_warm_up(self):
        # the normalizer belongs to the model: a tilted copy fills the cache
        # of the family it came from
        fam = truncated_poisson((0.5, 1.0, 2.0), 60)
        tilted = tilt_to_lambda(fam)
        for th in fam.theta_grid:
            tilted.log_partition(th)
        assert set(fam._logpart_cache) == {0.5, 1.0, 2.0}

    def test_kernel_sums_to_one_against_base(self):
        for fam in (bernoulli_family((0.2, 0.5, 0.8)),
                    truncated_poisson((0.5, 1.0, 3.0), 80)):
            for th in fam.theta_grid:
                total = sum(math.exp(log_density(fam, th, a)) * w
                            for a, w in zip(fam.base.atoms, fam.base.atom_weights))
                assert total == pytest.approx(1.0, abs=1e-6)


class TestTilt:
    def test_poisson_tilted_density(self):
        fam = poisson_family((1.0,))
        tilted = tilt_to_lambda(fam)
        assert math.exp(log_density(tilted, 1.0, 2)) == pytest.approx(math.exp(-1.0))

    def test_unit_carrier_tilt_is_identity(self):
        fam = bernoulli_family((0.3, 0.6))
        tilted = tilt_to_lambda(fam)
        for th in fam.theta_grid:
            for x in (0, 1):
                assert log_density(tilted, th, x) == pytest.approx(log_density(fam, th, x))

    def test_ratio_is_carrier_and_theta_free(self):
        fam = poisson_family((0.5, 1.0, 2.0, 4.0))
        tilted = tilt_to_lambda(fam)
        gaps = [log_density(fam, th, 3) - log_density(tilted, th, 3)
                for th in fam.theta_grid]
        assert all(g == pytest.approx(math.log(1.0 / 6.0), abs=1e-12) for g in gaps)


class TestChangeOfBase:
    def test_identity_change_keeps_carrier(self):
        fam = poisson_family((1.0, 2.0))
        same = change_dominating_measure(fam, fam.base,
                                         mixture_density_new=lambda x: 1.0,
                                         mixture_density_old=lambda x: 1.0)
        for x in (0, 1, 5):
            assert same.carrier(x) == pytest.approx(fam.carrier(x))

    def test_geometric_weighted_base_atomwise_oracle(self):
        fam = poisson_family((0.5, 1.0, 3.0))
        atoms = fam.base.atoms
        weights = tuple(0.5 ** (x + 1) for x in range(len(atoms)))
        mu = DominatingMeasure.counting("geo", atoms, weights)
        lookup = dict(zip(atoms, weights))
        changed = change_dominating_measure(
            fam, mu, mixture_density_new=lambda x: 1.0 / lookup[x],
            mixture_density_old=lambda x: 1.0)
        for x in (0, 1, 4):
            assert changed.carrier(x) == pytest.approx(fam.carrier(x) / lookup[x])
        model = as_model_family(fam, ("mu", changed))
        c1 = likelihood_curve(model, "base", 3)
        c2 = likelihood_curve(model, "mu", 3)
        # base kernel minus new-base kernel is log h - log h_mu = log w_mu(x)
        report = check_proportionality(c1, c2, 1e-10)
        assert report.passed
        assert report.constant_log_ratio == pytest.approx(math.log(lookup[3]), abs=1e-9)

    def test_doubled_measure_halves_carrier(self):
        fam = poisson_family((1.0,))
        doubled = DominatingMeasure.counting("x2", fam.base.atoms,
                                             (2.0,) * len(fam.base.atoms))
        changed = change_dominating_measure(fam, doubled,
                                            mixture_density_new=lambda x: 0.5,
                                            mixture_density_old=lambda x: 1.0)
        assert changed.carrier(2) == pytest.approx(fam.carrier(2) / 2.0)

    def test_vanishing_mixture_density_rejected(self):
        fam = poisson_family((1.0,))
        with pytest.raises(ZeroDivisionError):
            change_dominating_measure(fam, fam.base,
                                      mixture_density_new=lambda x: 1.0,
                                      mixture_density_old=lambda x: 0.0).carrier(2)


class TestLogDensities:
    """The grid routine takes T(omega) and log h(omega) once and must give
    the bits of the per-theta formula."""

    @staticmethod
    def per_theta(fam, theta, omega):
        lh = fam.log_carrier(omega)
        if lh == float("-inf"):
            return lh
        eta = np.atleast_1d(np.asarray(fam.natural_param(theta), dtype=float))
        t = np.atleast_1d(np.asarray(fam.sufficient_stat(omega), dtype=float))
        return float(eta @ t) - fam.log_partition(theta) + lh

    def test_iid_variants_bit_identical(self):
        rng = np.random.default_rng(11)
        fam = poisson_family(tuple(np.linspace(0.4, 6.0, 15)))
        weights = tuple(0.5 ** (x + 1) for x in range(len(fam.base.atoms)))
        lookup = dict(zip(fam.base.atoms, weights))
        alt = DominatingMeasure.counting("geo", fam.base.atoms, weights)
        changed = change_dominating_measure(
            fam, alt, mixture_density_new=lambda x: 1.0 / lookup[x],
            mixture_density_old=lambda x: 1.0)
        sample = tuple(float(x) for x in rng.poisson(2.5, size=200))
        for variant in (fam, tilt_to_lambda(fam), changed):
            iid = iid_family(variant, len(sample))
            got = log_densities(iid, iid.theta_grid, sample)
            want = [self.per_theta(iid, th, sample) for th in iid.theta_grid]
            assert got.tolist() == want
            assert [log_density(iid, th, sample) for th in iid.theta_grid] == want

    def test_vanishing_carrier_gives_neg_inf_everywhere(self):
        fam = truncated_poisson((0.5, 1.0, 2.0), 5)
        assert log_densities(fam, fam.theta_grid, 6).tolist() == [float("-inf")] * 3


def _per_draw_stat(fam, sample):
    """The i.i.d. statistic as a loop over draws: the reference bits."""
    return sum(np.atleast_1d(np.asarray(fam.sufficient_stat(w), dtype=float)) for w in sample)


def _per_draw_log_carrier(fam, sample):
    """The i.i.d. log carrier as a loop over draws: the reference bits."""
    total = 0.0
    for w in sample:
        lw = fam.log_carrier(w)
        if lw == float("-inf"):
            return lw
        total += lw
    return total


def _counted(fn, calls, key):
    def counting(omega):
        calls[key] += 1
        return fn(omega)
    return counting


class TestIIDDistinctDraws:
    """The i.i.d. statistic and log carrier take the scalar family's once per
    distinct draw and add the per-draw terms in draw order."""

    @staticmethod
    def _samples():
        rng = np.random.default_rng(20)
        poisson = tuple(float(x) for x in rng.poisson(2.5, size=3000))
        gaussian = tuple(float(x) for x in rng.normal(0.3, 1.0, size=3000))
        return {"poisson": (poisson_family(tuple(np.linspace(0.4, 6.0, 15))), poisson),
                "gaussian": (gaussian_known_var_family(tuple(np.linspace(-2.0, 2.0, 9))),
                             gaussian),
                "signed-zeros": (gaussian_known_var_family((0.0, 1.0)), (-0.0, 0.0, -0.0))}

    @pytest.mark.parametrize("name", ["poisson", "gaussian", "signed-zeros"])
    def test_bits_of_the_per_draw_loop(self, name):
        fam, sample = self._samples()[name]
        variants = [fam, *(v for mid, v in _expfam_variants(fam)
                           if mid in ("lambda-tilt", "geometric-weighted", "lebesgue-x2"))]
        assert len(variants) == 3       # base, tilt and one reweighted base
        for variant in variants:
            iid = iid_family(variant, len(sample))
            assert repr(iid.sufficient_stat(sample)) == repr(_per_draw_stat(variant, sample))
            assert repr(iid.log_carrier(sample)) == repr(_per_draw_log_carrier(variant, sample))
            got = log_densities(iid, iid.theta_grid, sample)
            want = [TestLogDensities.per_theta(iid, th, sample) for th in iid.theta_grid]
            assert got.tolist() == want

    def test_vanishing_carrier_at_one_draw(self):
        fam = truncated_poisson((0.5, 1.0, 2.0), 5)
        iid = iid_family(fam, 4)
        assert iid.log_carrier((1.0, 6.0, 2.0, 1.0)) == float("-inf")
        assert log_densities(iid, fam.theta_grid, (1.0, 6.0, 2.0, 1.0)).tolist() == [
            float("-inf")] * 3

    def test_one_call_per_distinct_draw(self):
        fam, sample = self._samples()["poisson"]
        calls = {"stat": 0, "carrier": 0}
        counted = dataclasses.replace(
            fam, sufficient_stat=_counted(fam.sufficient_stat, calls, "stat"),
            carrier=_counted(fam.carrier, calls, "carrier"))
        distinct = len(set(sample))
        assert distinct < 30
        model = as_model_family(iid_family(counted, len(sample)))
        likelihood_curve(model, "base", sample)
        assert calls == {"stat": distinct, "carrier": distinct}

    def test_sample_read_once_per_kernel_call(self, monkeypatch):
        """Statistic and log carrier share one `np.unique` of the sample."""
        fam, sample = self._samples()["poisson"]
        reads = []
        distinct_draws = expfam._distinct_draws
        monkeypatch.setattr(expfam, "_distinct_draws",
                            lambda *args: reads.append(1) or distinct_draws(*args))
        iid = iid_family(fam, len(sample))
        log_densities(iid, iid.theta_grid, sample)
        assert len(reads) == 1

    @pytest.mark.parametrize("name, base, as_array", [
        ("gaussian", DominatingMeasure.lebesgue("lebesgue-x2", (-40.0, 40.0), scale=2.0), False),
        ("gaussian", DominatingMeasure.lebesgue("lebesgue-x2", (-40.0, 40.0), scale=2.0), True),
        ("bernoulli", DominatingMeasure.counting("counting-01-x2", (0, 1), (2.0, 2.0)), False),
        ("bernoulli", DominatingMeasure.counting("counting-01-x2", (0, 1), (2.0, 2.0)), True),
    ], ids=["lebesgue-tuple", "lebesgue-array", "counting-tuple", "counting-array"])
    def test_rebased_iid_carrier_reads_the_raw_sample(self, name, base, as_array):
        iid = iid_family(EXPFAM_CATALOG[name]((0.3, 0.6)), 3)
        seen = []
        rebased = change_dominating_measure(iid, base, lambda s: seen.append(s) or 0.5,
                                            lambda s: 1.0)
        sample = (0.0, 1.0, 1.0)
        given = np.array(sample) if as_array else sample
        got = log_densities(rebased, iid.theta_grid, given)
        assert len(seen) == 1 and seen[0] is given
        want = log_densities(iid, iid.theta_grid, sample) + math.log(0.5)
        assert got.tolist() == pytest.approx(want.tolist(), abs=1e-12)

    def test_rebased_iid_checks_draws_against_the_new_base(self):
        iid = iid_family(bernoulli_family((0.3, 0.6)), 3)
        base = DominatingMeasure.counting("counting-01-x2", (0, 1), (2.0, 2.0))
        rebased = change_dominating_measure(iid, base, lambda s: 0.5, lambda s: 1.0)
        with pytest.raises(ValueError, match="draw 2.0 is not an atom of the counting base "
                                             "'counting-01-x2'"):
            log_densities(rebased, iid.theta_grid, np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="draw is NaN"):
            log_densities(rebased, iid.theta_grid, (0.0, math.nan, 1.0))


class TestBadSample:
    """A NaN draw or a sample of the wrong length fails where it enters."""

    @pytest.mark.parametrize("name", sorted(EXPFAM_CATALOG))
    def test_nan_draw_raises(self, name):
        fam = EXPFAM_CATALOG[name]((0.3, 0.6))
        with pytest.raises(ValueError, match="NaN"):
            likelihood_curve(as_model_family(fam), "base", math.nan)
        with pytest.raises(ValueError, match="NaN"):
            likelihood_curve(as_model_family(iid_family(fam, 3)), "base", (1.0, math.nan, 0.0))

    @pytest.mark.parametrize("name, sample", [
        ("bernoulli", (0.0, 1.0, 2.0)),
        ("poisson", (1.0, 0.5, 2.0)),
        ("poisson", (3.5, 1.0, 1.0)),
        ("poisson", (2.0, 0.0, -1.0)),
    ], ids=["bernoulli-2", "poisson-half", "poisson-3.5", "poisson-negative"])
    def test_draw_off_the_base_atoms_raises(self, name, sample):
        """Without the atom check the first three gave finite curves (the
        Bernoulli one with a moved argmax) and the last a bare `math domain
        error`."""
        fam = EXPFAM_CATALOG[name]((0.3, 0.6))
        bad = [x for x in sample if x not in fam.base.atoms][0]
        message = f"draw {bad!r} is not an atom"
        for variant in (fam, *(v for _, v in _expfam_variants(fam))):
            with pytest.raises(ValueError, match=message):
                likelihood_curve(as_model_family(iid_family(variant, len(sample))), "base",
                                 sample)
            with pytest.raises(ValueError, match=message):
                log_density(variant, 0.3, bad)

    @pytest.mark.parametrize("size", [2, 5])
    def test_sample_length_must_be_n(self, size):
        iid = iid_family(poisson_family((0.5, 1.0)), 3)
        with pytest.raises(ValueError, match="3-draw"):
            log_densities(iid, iid.theta_grid, (1.0,) * size)


class TestFactorization:
    def test_equal_sums_pass(self):
        # T(1, 3) = T(2, 2), so the log-density difference is theta-free
        fam = iid_family(poisson_family((0.5, 1.0, 2.0, 3.5)), 2)
        diffs = (log_densities(fam, fam.theta_grid, (1, 3))
                 - log_densities(fam, fam.theta_grid, (2, 2)))
        assert np.ptp(diffs) <= 1e-10


class TestMLEInvariance:
    def test_argmax_same_across_bases(self):
        rng = np.random.default_rng(5)
        fam = poisson_family(tuple(np.linspace(0.4, 6.0, 12)))
        sample = tuple(int(x) for x in rng.poisson(2.5, size=40))
        variants = [("lambda-tilt", tilt_to_lambda(fam))]
        weights = tuple(1.0 + (i % 3) for i in range(len(fam.base.atoms)))
        lookup = dict(zip(fam.base.atoms, weights))
        mu = DominatingMeasure.counting("wiggle", fam.base.atoms, weights)
        variants.append(("wiggle", change_dominating_measure(
            fam, mu, mixture_density_new=lambda x: 1.0 / lookup[x],
            mixture_density_old=lambda x: 1.0)))
        model = as_model_family(iid_family(fam, len(sample)),
                                *[(mid, iid_family(v, len(sample))) for mid, v in variants])
        base = likelihood_curve(model, "base", sample)
        for mid in ("lambda-tilt", "wiggle"):
            assert argmax_invariance(base, likelihood_curve(model, mid, sample))


class TestNegativeControls:
    def test_halved_log_partition_fails_argmax_invariance(self, monkeypatch):
        """A halved log-partition must fail the proportionality experiment's
        `expfam-argmax-invariant` check. Every kernel shares the defect, so
        the curves stay proportional; the check fails on one instance of 100
        only, a symmetric Bernoulli curve whose two tied maxima the defect
        splits by rounding."""

        def outcome():
            report, _ = run_proportionality(load_config())
            return {c.name: c.passed for c in report.checks}["expfam-argmax-invariant"]

        assert outcome()
        original = ExponentialFamily.log_partition
        monkeypatch.setattr(ExponentialFamily, "log_partition",
                            lambda fam, theta: 0.5 * original(fam, theta))
        assert not outcome()

    def test_halved_log_partition_fails_every_normalizer_check(self, monkeypatch):
        """The expfam experiment compares the family's own `log_partition`
        with the closed form, so the halved method fails a named check for
        each family, not only a rounding tie."""

        def outcomes():
            report, _ = run_expfam(load_config())
            return {c.name: c.passed for c in report.checks
                    if c.name.endswith("-normalizer-closed-form")}

        assert outcomes() == dict.fromkeys(
            ("bernoulli-normalizer-closed-form", "poisson-normalizer-closed-form",
             "gaussian-normalizer-closed-form"), True)
        original = ExponentialFamily.log_partition
        monkeypatch.setattr(ExponentialFamily, "log_partition",
                            lambda fam, theta: 0.5 * original(fam, theta))
        assert not any(outcomes().values())
