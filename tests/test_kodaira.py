import random
import time
from fractions import Fraction
from itertools import permutations
from math import isqrt

import pytest

from mmpkit.errors import (
    CoefficientOutOfRangeError,
    InsufficientSamplesError,
    InvalidInputError,
    NegativeCoefficientError,
)
from mmpkit.kodaira import (
    KappaEstimate,
    PairClass,
    classify_pair_on_curve,
    curve_kappa,
    curve_plurigenus,
    estimate_kappa,
    fano_pair_on_p1_check,
    plane_curve_genus,
    riemann_roch_curve,
)
from mmpkit.surface import adjunction_genus, make_blowup_p2


class TestPlaneCurveGenus:
    def test_low_degrees(self):
        assert plane_curve_genus(1) == 0
        assert plane_curve_genus(2) == 0
        assert plane_curve_genus(3) == 1
        assert plane_curve_genus(4) == 3

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            plane_curve_genus(0)

    def test_range_faults_carry_code_and_field(self):
        # InvalidInputError is a ValueError, so callers catching that still do
        for call, message, code, field in (
            (lambda: plane_curve_genus(0), "degree must be positive", "d_out_of_range", "d"),
            (lambda: curve_kappa(-1), "genus must be nonnegative", "genus_negative", "g"),
            (lambda: curve_plurigenus(-1, 1), "genus must be nonnegative", "genus_negative", "g"),
            (lambda: curve_plurigenus(2, 0), "m must be positive", "m_out_of_range", "m"),
        ):
            with pytest.raises(InvalidInputError) as info:
                call()
            assert (str(info.value), info.value.code, info.value.field) == (message, code, field)

    def test_matches_adjunction_on_plane(self):
        p2 = make_blowup_p2(0)
        for d in range(1, 12):
            assert plane_curve_genus(d) == adjunction_genus(p2, (d,))


class TestCurveKappa:
    def test_trichotomy(self):
        assert curve_kappa(0).is_minus_infinity
        assert curve_kappa(1).value == 0
        assert curve_kappa(5).value == 1


class TestCurvePlurigenus:
    def test_examples(self):
        assert curve_plurigenus(2, 1) == 2
        assert curve_plurigenus(2, 2) == 3
        assert curve_plurigenus(0, 7) == 0
        assert curve_plurigenus(1, 9) == 1

    def test_first_plurigenus_is_genus(self):
        for g in range(0, 10):
            assert curve_plurigenus(g, 1) == g

    def test_riemann_roch_consistency(self):
        # for m >= 2 and g >= 2 the full linear system has no higher
        # cohomology, so P_m equals chi(m K)
        for g in range(2, 21):
            for m in range(2, 16):
                assert curve_plurigenus(g, m) == riemann_roch_curve(m * (2 * g - 2), g)


class TestRiemannRochCurve:
    def test_examples(self):
        assert riemann_roch_curve(0, 0) == 1
        assert riemann_roch_curve(4, 3) == 2
        assert riemann_roch_curve(1, 0) == 2

    def test_canonical_degree(self):
        for g in range(0, 15):
            assert riemann_roch_curve(2 * g - 2, g) == g - 1

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError) as info:
            riemann_roch_curve(0, -1)
        assert (info.value.code, info.value.field) == ("genus_negative", "genus")


class TestEstimateKappa:
    def test_all_zero(self):
        estimate = estimate_kappa([(1, 0), (2, 0), (5, 0), (10, 0)])
        assert estimate.is_minus_infinity

    def test_linear_growth(self):
        estimate = estimate_kappa([(2, 3), (4, 7), (8, 15), (16, 31)], max_dim=1)
        assert estimate.value == 1

    def test_quadratic_growth(self):
        estimate = estimate_kappa([(2, 5), (4, 17), (8, 65), (16, 257)], max_dim=3)
        assert estimate.value == 2

    def test_constant_sequence_is_zero(self):
        estimate = estimate_kappa([(1, 1), (2, 1), (4, 1), (8, 1)])
        assert estimate.value == 0

    def test_str_names_minus_infinity(self):
        assert str(KappaEstimate(None)) == "-inf"
        assert str(KappaEstimate(0)) == "0"

    def test_input_faults_carry_code_and_field(self):
        cases = [
            (([(1, 1), (2, 3)],), {"max_dim": -1}, "max_dim_bad", "max_dim"),
            (([],), {}, "samples_empty", "samples"),
            (([(1, 1), (2,)],), {}, "sample_malformed", "samples[1]"),
            (([(0, 1), (2, 3)],), {}, "sample_bad_m", "samples[0]"),
            (([(1, 1), (2, -3)],), {}, "sample_bad_p", "samples[1]"),
            (([(1, 1), (1, 3)],), {}, "sample_duplicate_m", "samples[1]"),
        ]
        for args, kwargs, code, field in cases:
            with pytest.raises(ValueError) as info:
                estimate_kappa(*args, **kwargs)
            assert (info.value.code, info.value.field) == (code, field)

    def test_sample_order_does_not_matter(self):
        # the window is the last two samples by m: (2, 4) and (3, 9) give 2
        samples = [[1, 5], [2, 4], [3, 9]]
        assert estimate_kappa(samples).value == 2
        for order in permutations(samples):
            assert estimate_kappa(list(order)) == estimate_kappa(samples)

    def test_single_positive_sample_raises(self):
        with pytest.raises(InsufficientSamplesError):
            estimate_kappa([(1, 3), (2, 0)])

    def test_ties_round_half_to_even(self):
        assert estimate_kappa([(1, 1), (4, 8)]).value == 2  # slope 3/2
        assert estimate_kappa([(1, 1), (4, 32)]).value == 2  # slope 5/2
        assert estimate_kappa([(1, 1), (4, 128)]).value == 4  # slope 7/2
        assert estimate_kappa([(1, 1), (4, 2**2001)]).value == 1000  # slope 1000.5
        assert estimate_kappa([(1, 1), (4, 2**2003)]).value == 1002  # slope 1001.5
        # m2/m1 = 8/2 = 4: the tie shows only once the common factor is gone
        assert estimate_kappa([(2, 1), (8, 2**2001)]).value == 1000

    def test_huge_plurigenus_is_exact(self):
        estimate = estimate_kappa([(1, 1), (2, 10**400)], max_dim=2)
        assert estimate.value == 2
        assert estimate.note == "rounded log(" + str(10**400) + "/1) / log(2/1) over window m = 1..2"
        # the unclamped slope is 400 log 10 / log 2 = 1328.77...
        assert estimate_kappa([(1, 1), (2, 10**400)]).value == 1329

    def test_falling_plurigenera_give_one(self):
        # slope log(1/100) / log 2 = -6.6, clamped below by 1
        assert estimate_kappa([(1, 100), (2, 1)]).value == 1
        assert estimate_kappa([(10**50, 100), (10**50 + 1, 1)]).value == 1

    def test_near_ties_are_settled_in_integers(self):
        # p2^2 = 1000 * 1001^(2k+1) would be a tie; it is not a square, so
        # its integer square root lies just below the tie and one more just above
        k = 1000
        p1 = 1000 ** (k + 1)
        root = isqrt(1000 * 1001 ** (2 * k + 1))
        start = time.perf_counter()
        assert estimate_kappa([(1000, p1), (1001, root)]).value == k
        assert estimate_kappa([(1000, p1), (1001, root + 1)]).value == k + 1
        assert time.perf_counter() - start < 2

    def test_large_slopes_and_max_dims_are_quick(self):
        start = time.perf_counter()
        assert estimate_kappa([(1, 1), (2, 3)], max_dim=10**18).value == 2
        assert estimate_kappa([(2, 1), (3, 10**1000)], max_dim=10**18).value == 5679
        assert estimate_kappa([(2, 1), (3, 10**1000)], max_dim=4).value == 4
        # 300 log 10 / log(1001/1000) = 691120.858...
        assert estimate_kappa([(1000, 1), (1001, 10**300)]).value == 691121
        # close sample indices: the slope 2302...8457.097 has 103 digits
        value = estimate_kappa([(10**100, 1), (10**100 + 1, 10**100)]).value
        assert str(value).startswith("2302585092994045684") and str(value).endswith("8457")
        assert len(str(value)) == 103
        assert time.perf_counter() - start < 2

    def test_unclamped_note_without_max_dim(self):
        estimate = estimate_kappa([(2, 5), (4, 17), (8, 65)])
        assert "unclamped" in estimate.note

    def test_matches_curve_kappa(self):
        ms = [1, 2, 4, 8, 16, 32, 64]
        for g in range(0, 21):
            samples = [(m, curve_plurigenus(g, m)) for m in ms]
            estimate = estimate_kappa(samples, max_dim=1)
            expected = curve_kappa(g)
            assert estimate.value == expected.value

    def test_multiple_invariance(self):
        rng = random.Random(77)
        for _ in range(250):
            g = rng.randint(0, 20)
            ms = set(rng.sample(range(1, 65), 4))
            ms.update(2 * x for x in rng.sample(range(1, 33), 3))
            ms.update(3 * x for x in rng.sample(range(1, 22), 3))
            samples = [(m, curve_plurigenus(g, m)) for m in sorted(ms)]
            full = estimate_kappa(samples, max_dim=1)
            for scale in (2, 3):
                sub = [(m, p) for m, p in samples if m % scale == 0]
                scaled = estimate_kappa(sub, max_dim=1)
                assert scaled.value == full.value, (g, scale, sub)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_kappa([])
        with pytest.raises(ValueError):
            estimate_kappa([(1, 1), (1, 2)])
        with pytest.raises(ValueError):
            estimate_kappa([(0, 1)])


class TestPairClassification:
    def test_empty_boundary(self):
        assert classify_pair_on_curve([]) is PairClass.CANONICAL_OR_TERMINAL
        assert classify_pair_on_curve([0, 0]) is PairClass.CANONICAL_OR_TERMINAL

    def test_klt(self):
        assert classify_pair_on_curve([Fraction(1, 2), Fraction(2, 3)]) is PairClass.KLT

    def test_lc(self):
        assert classify_pair_on_curve([1, Fraction(1, 2)]) is PairClass.LC

    def test_not_lc(self):
        assert classify_pair_on_curve([Fraction(3, 2)]) is PairClass.NOT_LC

    def test_negative_rejected(self):
        with pytest.raises(NegativeCoefficientError):
            classify_pair_on_curve([Fraction(-1, 2)])

    def test_monotone_under_appending(self):
        order = {
            PairClass.CANONICAL_OR_TERMINAL: 0,
            PairClass.KLT: 1,
            PairClass.LC: 2,
            PairClass.NOT_LC: 3,
        }
        rng = random.Random(19)
        for _ in range(200):
            coeffs = [Fraction(rng.randint(0, 8), 4) for _ in range(rng.randint(0, 4))]
            extra = Fraction(rng.randint(0, 8), 4)
            before = classify_pair_on_curve(coeffs)
            after = classify_pair_on_curve(coeffs + [extra])
            assert order[after] >= order[before]


class TestFanoPairCheck:
    def test_examples(self):
        assert fano_pair_on_p1_check([]) is True
        assert fano_pair_on_p1_check([1, Fraction(1, 2)]) is True
        assert fano_pair_on_p1_check([1, 1]) is False

    def test_out_of_range_rejected(self):
        with pytest.raises(CoefficientOutOfRangeError):
            fano_pair_on_p1_check([Fraction(3, 2)])
