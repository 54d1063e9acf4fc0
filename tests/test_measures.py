"""Measures and the minimal dominating mixture."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonlik import (DominatingMeasure, MixtureMeasure, atomwise_abs_continuous,
                      build_minimal_dominating_measure, finite_family, verify_dominance)


def bernoulli_family(thetas=(0.2, 0.5, 0.8)):
    return finite_family((0, 1), [(1.0 - th, th) for th in thetas], thetas)


class TestDominatingMeasure:
    def test_counting_atoms_must_be_distinct(self):
        with pytest.raises(ValueError):
            DominatingMeasure.counting("dup", (0, 0, 1))

    def test_region_needs_positive_volume(self):
        with pytest.raises(ValueError):
            DominatingMeasure.lebesgue("bad", (1.0, 1.0))

    def test_ball_mass_counting(self):
        nu = DominatingMeasure.counting("c", (0.0, 1.0, 2.0))
        assert nu.ball_mass(0.0, 1.0) == 2.0  # closed ball includes the atom at 1
        assert nu.ball_mass(0.5, 0.4) == 0.0

    def test_ball_mass_sum(self):
        nu = DominatingMeasure.counting_lebesgue_sum("s", (0.0,), (-1.0, math.inf))
        r = 0.25
        assert nu.ball_mass(0.0, r) == pytest.approx(1.0 + 2 * r)

    def test_ball_mass_clips_to_region(self):
        nu = DominatingMeasure.lebesgue("l", (0.0, 1.0))
        assert nu.ball_mass(0.0, 0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
    def test_bad_atom_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="atom weights"):
            DominatingMeasure.counting("w", (0, 1), weights=(1.0, weight))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_lebesgue_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="lebesgue_scale"):
            DominatingMeasure.lebesgue("l", (0.0, 1.0), scale=scale)

    @pytest.mark.parametrize("measure, kind", [
        (DominatingMeasure.counting("c", (0, 1)), "counting"),
        (DominatingMeasure.counting("c", ()), "counting"),
        (DominatingMeasure.lebesgue("l", (0.0, 1.0), scale=2.0), "lebesgue"),
        (DominatingMeasure.counting_lebesgue_sum("s", (0.0,), (-1.0, 1.0)),
         "counting_lebesgue_sum"),
    ], ids=["counting", "empty-counting", "lebesgue", "sum"])
    def test_kind_matches_payload(self, measure, kind):
        assert measure.kind == kind

    @pytest.mark.parametrize("kind", ["product", "unit_poisson_law",
                                      "gaussian_bridge_product", "predictive", "lebesgue"])
    def test_kind_argument_rejected(self, kind):
        # the kind is read off the payload; structured spaces key their
        # kernels by plain string ids instead
        with pytest.raises(TypeError):
            DominatingMeasure(id="x", kind=kind)

    def test_contradictory_kind_cannot_be_built(self):
        # a Lebesgue measure holding an atom would count it in its ball masses
        with pytest.raises(TypeError):
            DominatingMeasure(id="x", kind="lebesgue", atoms=(0.0,), region=(0.0, 1.0))
        nu = DominatingMeasure(id="x", atoms=(0.0,), region=(0.0, 1.0))
        assert nu.kind == "counting_lebesgue_sum"
        assert nu.ball_mass(0.0, 0.1) == pytest.approx(1.1)


class TestMinimalDominatingMixture:
    def test_two_bernoullis_hand_sum(self):
        fam = bernoulli_family((0.2, 0.5))
        q = build_minimal_dominating_measure(fam, (0.2, 0.5))
        assert q.atom_mass(1) == pytest.approx(0.35)
        assert q.atom_mass(0) == pytest.approx(0.65)

    def test_single_member_is_that_member(self):
        fam = bernoulli_family((0.2, 0.5))
        q = build_minimal_dominating_measure(fam, (0.2,))
        assert q.atom_mass(1) == pytest.approx(0.2)

    def test_point_mass_pair_symmetric(self):
        fam = finite_family((0, 1), [(1.0, 0.0), (0.0, 1.0)], ("d0", "d1"))
        q = build_minimal_dominating_measure(fam, ("d0", "d1"))
        assert q.atom_mass(0) == pytest.approx(0.5)
        assert q.atom_mass(1) == pytest.approx(0.5)

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -0.5])
    def test_bad_mass_table_rejected(self, mass):
        # a NaN row passes the sum-to-one check, which compares with `>`
        with pytest.raises(ValueError, match="finite and nonnegative"):
            finite_family((0, 1), [(mass, 1.0)], ("t",))

    @pytest.mark.parametrize("rows", [[(0.5, 0.5)], [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0)]],
                             ids=["too-few-rows", "too-many-rows"])
    def test_row_count_must_match_grid(self, rows):
        # rows were paired with grid values by zip: a short table built and then
        # raised KeyError at the first curve, and extra rows were dropped
        with pytest.raises(ValueError, match="2 grid values"):
            finite_family((0, 1), rows, ("a", "b"))

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            build_minimal_dominating_measure(bernoulli_family(), ())

    def test_off_grid_selection_rejected(self):
        with pytest.raises(ValueError):
            build_minimal_dominating_measure(bernoulli_family(), (0.31,))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureMeasure(weights=(0.5, 0.4), thetas=(0.2, 0.5))


class TestVerifyDominance:
    def test_constructed_mixture_dominates(self):
        fam = bernoulli_family()
        q = build_minimal_dominating_measure(fam, fam.theta_grid)
        assert verify_dominance(q, fam)

    def test_counting_dominates_bernoulli(self):
        nu = DominatingMeasure.counting("c", (0, 1))
        assert verify_dominance(nu, bernoulli_family())

    def test_point_mass_fails_against_bernoulli(self):
        delta0 = DominatingMeasure.counting("d0", (0,))
        assert not verify_dominance(delta0, bernoulli_family((0.5,)))


def random_family(rng, n_atoms, n_members):
    """Random finite family with a random zero pattern; rows sum to 1."""
    atoms = tuple(range(n_atoms))
    rows = []
    for _ in range(n_members):
        while True:
            masses = rng.uniform(size=n_atoms) * (rng.uniform(size=n_atoms) > 0.3)
            if masses.sum() > 0:
                break
        rows.append(tuple(masses / masses.sum()))
    thetas = tuple(f"t{i}" for i in range(n_members))
    return finite_family(atoms, rows, thetas), atoms


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 10), st.integers(1, 5))
def test_uniform_mixture_is_minimal_dominating(seed, n_atoms, n_members):
    """The uniform mixture dominates its family and is dominated atomwise by
    any measure dominating the family."""
    rng = np.random.default_rng(seed)
    fam, atoms = random_family(rng, n_atoms, n_members)
    q = build_minimal_dominating_measure(fam, fam.theta_grid)
    assert verify_dominance(q, fam)
    union_support = {a for a in atoms if any(
        fam.log_kernel("counting", fam.theta_grid, a) != float("-inf"))}
    w = {a: (rng.uniform(0.1, 1.0) if a in union_support or rng.uniform() < 0.5 else 0.0)
         for a in atoms}
    assert atomwise_abs_continuous(q.atom_masses, w, atoms)
