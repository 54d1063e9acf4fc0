"""Point-mass mixtures: correct vs naive densities and the grid MLE."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonlik import argmax_invariance, check_proportionality, likelihood_curve, mixture
from radonlik.harness.config import load_config
from radonlik.harness.experiments import run_mixture
from radonlik.mixture import (COMPONENT_CATALOG, PointMassMixture, _log_density_curve,
                              atom_weight_family, atom_weight_mixture, grid_mle,
                              mixture_total_mass, simulate)


def density_correct(mix, y):
    """Scalar oracle of the density against counting + Lebesgue: atom mass at
    atoms, else the continuous sum over components whose open region holds y."""
    p = mix.atom_mass(y)
    if p > 0.0:
        return p
    return sum(q * float(c.density(y)) for q, c in mix.components
               if c.region[0] < y < c.region[1])


def density_naive(mix, y):
    """The same sum with the atom indicator dropped: continuous formulas are
    evaluated at atoms inside their region closure. Intentionally invalid."""
    value = mix.atom_mass(y)
    value += sum(q * float(c.density(y)) for q, c in mix.components
                 if c.region[0] <= y <= c.region[1])
    return value


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


MEASURE_IDS = ("counting-lebesgue", "counting-2lebesgue", "counting-lebesgue-naive",
               "lebesgue-only")
VARIANTS = ("correct", "naive", "lebesgue-only")
GOLDEN_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def _golden_case(name):
    """Component, atom and three samples: 12 draws at p = 0.3, which hold the
    atom; the draws plus the region's lower endpoint; the draws off the atom."""
    comp = COMPONENT_CATALOG[name]()
    atom = 0.5 if name == "uniform" else 0.0
    draws = simulate(atom_weight_mixture(atom, comp, 0.3), 12, seed=17)
    samples = {"draws": draws, "edge": np.append(draws, comp.region[0]),
               "off-atom": draws[draws != atom]}
    return comp, atom, samples


class TestScalarOracle:
    @pytest.mark.parametrize("name", sorted(COMPONENT_CATALOG))
    @pytest.mark.parametrize("variant, oracle", [("correct", density_correct),
                                                 ("naive", density_naive)])
    def test_curve_is_sum_of_oracle_log_densities(self, name, variant, oracle):
        comp, atom, samples = _golden_case(name)
        edges = [e for e in comp.region if math.isfinite(e)]
        outside = comp.region[0] - 1.0
        cases = {**samples, "edges": np.append(samples["draws"], edges),
                 "outside": np.append(samples["draws"], outside)}
        mixes = [atom_weight_mixture(atom, comp, p) for p in GOLDEN_GRID]
        for case, ys in cases.items():
            curve = _log_density_curve(mixes, ys, variant)
            for mix, got in zip(mixes, curve):
                dens = [oracle(mix, float(y)) for y in ys]
                if min(dens) == 0.0:
                    assert got == -math.inf, (case, variant)
                else:
                    want = sum(math.log(d) for d in dens)
                    assert got == pytest.approx(want, rel=1e-12), (case, variant)


class TestArrayKernelBits:
    """Bits recorded with the per-mixture kernel that recomputed the
    component density for every p: each golden is the repr of the value."""

    # (component, sample, measure id): curve values over GOLDEN_GRID
    CURVES = {
        ('exponential', 'draws', 'counting-lebesgue'):
            (-12.758195081890605, -10.374261353465414, -11.022736751371156,
             -13.76345279501423, -21.547093391235478),
        ('exponential', 'draws', 'counting-2lebesgue'):
            (-18.303372526370165, -15.919438797944977, -16.56791419585072,
             -19.30863023949379, -27.09227083571505),
        ('exponential', 'draws', 'counting-lebesgue-naive'):
            (-3.5478547099144224, -5.558370136161671, -8.250148029131374,
             -12.3367530192593, -21.125651328604178),
        ('exponential', 'draws', 'lebesgue-only'):
            (-math.inf, -math.inf, -math.inf, -math.inf, -math.inf),
        ('exponential', 'edge', 'counting-lebesgue'):
            (-15.06078017488465, -11.57823415779135, -11.715883931931101,
             -14.120127738952963, -21.652453906893303),
        ('exponential', 'edge', 'counting-2lebesgue'):
            (-20.60595761936421, -17.123411602270913, -17.261061376410662,
             -19.665305183432523, -27.197631351372873),
        ('exponential', 'edge', 'counting-lebesgue-naive'):
            (-3.5478547099144224, -5.558370136161671, -8.250148029131374,
             -12.3367530192593, -21.125651328604178),
        ('exponential', 'edge', 'lebesgue-only'):
            (-math.inf, -math.inf, -math.inf, -math.inf, -math.inf),
        ('exponential', 'off-atom', 'counting-lebesgue'):
            (-3.547854709914422, -5.558370136161672, -8.250148029131374,
             -12.336753019259298, -21.125651328604178),
        ('exponential', 'off-atom', 'counting-2lebesgue'):
            (-9.093032154393985, -11.103547580641234, -13.795325473610937,
             -17.88193046373886, -26.67082877308374),
        ('exponential', 'off-atom', 'counting-lebesgue-naive'):
            (-3.547854709914422, -5.558370136161672, -8.250148029131374,
             -12.336753019259298, -21.125651328604178),
        ('exponential', 'off-atom', 'lebesgue-only'):
            (-3.547854709914422, -5.558370136161672, -8.250148029131374,
             -12.336753019259298, -21.125651328604178),
        ('uniform', 'draws', 'counting-lebesgue'):
            (-10.053224497238793, -7.669290768813603, -8.317766166719343,
             -11.058482210362417, -18.84212280658367),
        ('uniform', 'draws', 'counting-2lebesgue'):
            (-15.598401941718356, -13.214468213293166, -13.862943611198906,
             -16.603659654841977, -24.38730025106323),
        ('uniform', 'draws', 'counting-lebesgue-naive'):
            (-0.8428841252626103, -2.8533995515098596, -5.545177444479562,
             -9.631782434607487, -18.420680743952367),
        ('uniform', 'draws', 'lebesgue-only'):
            (-math.inf, -math.inf, -math.inf, -math.inf, -math.inf),
        ('uniform', 'edge', 'counting-lebesgue'):
            (-math.inf, -math.inf, -math.inf, -math.inf, -math.inf),
        ('uniform', 'edge', 'counting-2lebesgue'):
            (-math.inf, -math.inf, -math.inf, -math.inf, -math.inf),
        ('uniform', 'edge', 'counting-lebesgue-naive'):
            (-0.9482446409204366, -3.210074495448592, -6.238324625039508,
             -10.835755238933423, -20.723265836946414),
        ('uniform', 'edge', 'lebesgue-only'):
            (-math.inf, -math.inf, -math.inf, -math.inf, -math.inf),
        ('uniform', 'off-atom', 'counting-lebesgue'):
            (-0.8428841252626103, -2.8533995515098596, -5.545177444479562,
             -9.631782434607487, -18.420680743952367),
        ('uniform', 'off-atom', 'counting-2lebesgue'):
            (-6.388061569742173, -8.398576995989423, -11.090354888959125,
             -15.176959879087049, -23.96585818843193),
        ('uniform', 'off-atom', 'counting-lebesgue-naive'):
            (-0.8428841252626103, -2.8533995515098596, -5.545177444479562,
             -9.631782434607487, -18.420680743952367),
        ('uniform', 'off-atom', 'lebesgue-only'):
            (-0.8428841252626103, -2.8533995515098596, -5.545177444479562,
             -9.631782434607487, -18.420680743952367),
        ('gaussian-truncated', 'draws', 'counting-lebesgue'):
            (-27.321678117815004, -24.93774438938981, -25.586219787295548,
             -28.32693583093862, -36.110576427159884),
        ('gaussian-truncated', 'draws', 'counting-2lebesgue'):
            (-32.86685556229456, -30.482921833869373, -31.131397231775107,
             -33.87211327541819, -41.65575387163945),
        ('gaussian-truncated', 'draws', 'counting-lebesgue-naive'):
            (-21.217278707374376, -22.30065441843472, -24.24026724439831,
             -27.694007236180532, -35.93662650753075),
        ('gaussian-truncated', 'draws', 'lebesgue-only'):
            (-math.inf, -math.inf, -math.inf, -math.inf, -math.inf),
        ('gaussian-truncated', 'edge', 'counting-lebesgue'):
            (-math.inf, -math.inf, -math.inf, -math.inf, -math.inf),
        ('gaussian-truncated', 'edge', 'counting-2lebesgue'):
            (-math.inf, -math.inf, -math.inf, -math.inf, -math.inf),
        ('gaussian-truncated', 'edge', 'counting-lebesgue-naive'):
            (-26.7388743091514, -28.07356444849265, -30.349649511077452,
             -34.31421512662566, -43.65544668664399),
        ('gaussian-truncated', 'edge', 'lebesgue-only'):
            (-math.inf, -math.inf, -math.inf, -math.inf, -math.inf),
        ('gaussian-truncated', 'off-atom', 'counting-lebesgue'):
            (-18.111337745838817, -20.12185317208607, -22.81363106505577,
             -26.900236055183694, -35.68913436452858),
        ('gaussian-truncated', 'off-atom', 'counting-2lebesgue'):
            (-23.65651519031838, -25.667030616565633, -28.358808509535333,
             -32.44541349966326, -41.23431180900814),
        ('gaussian-truncated', 'off-atom', 'counting-lebesgue-naive'):
            (-18.111337745838817, -20.12185317208607, -22.81363106505577,
             -26.900236055183694, -35.68913436452858),
        ('gaussian-truncated', 'off-atom', 'lebesgue-only'):
            (-18.111337745838817, -20.12185317208607, -22.81363106505577,
             -26.900236055183694, -35.68913436452858),
    }

    # (component, sample): grid_mle index set for correct, naive and
    # lebesgue-only; None where every grid point has zero likelihood
    GRID_MLE = {
        ('exponential', 'draws'): ({1}, {0}, None),
        ('exponential', 'edge'): ({1}, {0}, None),
        ('exponential', 'off-atom'): ({0}, {0}, {0}),
        ('uniform', 'draws'): ({1}, {0}, None),
        ('uniform', 'edge'): (None, {0}, None),
        ('uniform', 'off-atom'): ({0}, {0}, {0}),
        ('gaussian-truncated', 'draws'): ({1}, {0}, None),
        ('gaussian-truncated', 'edge'): (None, {0}, None),
        ('gaussian-truncated', 'off-atom'): ({0}, {0}, {0}),
    }

    @pytest.mark.parametrize("name", sorted(COMPONENT_CATALOG))
    def test_golden_curves(self, name):
        comp, atom, samples = _golden_case(name)
        family = atom_weight_family(atom, comp, GOLDEN_GRID)
        for sample_name, ys in samples.items():
            for measure_id in MEASURE_IDS:
                values = likelihood_curve(family, measure_id, ys).values
                assert repr(values) == repr(self.CURVES[name, sample_name, measure_id]), \
                    (sample_name, measure_id)

    @pytest.mark.parametrize("name", sorted(COMPONENT_CATALOG))
    def test_golden_grid_mle(self, name):
        comp, atom, samples = _golden_case(name)
        mixes = [atom_weight_mixture(atom, comp, p) for p in GOLDEN_GRID]
        for sample_name, ys in samples.items():
            for variant, want in zip(VARIANTS, self.GRID_MLE[name, sample_name]):
                if want is None:
                    with pytest.raises(ValueError, match="zero likelihood"):
                        grid_mle(mixes, GOLDEN_GRID, ys, variant)
                else:
                    assert grid_mle(mixes, GOLDEN_GRID, ys, variant) == want

    def test_component_density_once_per_curve(self, monkeypatch):
        comp, atom, samples = _golden_case("exponential")
        calls = []
        original = type(comp).density
        monkeypatch.setattr(type(comp), "density",
                            lambda self, y: calls.append(1) or original(self, y))
        family = atom_weight_family(atom, comp, GOLDEN_GRID)
        likelihood_curve(family, "counting-lebesgue", samples["draws"])
        mixes = [atom_weight_mixture(atom, comp, p) for p in GOLDEN_GRID]
        grid_mle(mixes, GOLDEN_GRID, samples["draws"], "correct")
        assert len(calls) == 2


class TestNegativeControls:
    def test_unweighted_continuous_part_fails_correct_mle(self, monkeypatch):
        """Leaving the continuous part unweighted by 1 - p must fail the
        mixture experiment's `correct-mle-near-truth` check."""
        config = load_config()
        config["mixture"]["n_samples"] = 2000

        def outcome():
            report, _ = run_mixture(config)
            return {c.name: c.passed for c in report.checks}["correct-mle-near-truth"]

        assert outcome()
        original = mixture._log_density_curve

        def unweighted(mixes, ys, variant, lebesgue_scale=1.0):
            mixes = [SimpleNamespace(atoms=m.atoms,
                                     components=tuple((1.0, c) for _, c in m.components))
                     for m in mixes]
            return original(mixes, ys, variant, lebesgue_scale)

        monkeypatch.setattr(mixture, "_log_density_curve", unweighted)
        assert not outcome()
