import random
import time
from fractions import Fraction

import pytest

from helpers import disguise, multiset_minus_one_count, naive_minus_one_classes, naive_mmp_trace
from mmpkit import surface
from mmpkit.errors import (
    DegenerateConeError,
    EmptyCurveListError,
    NonIntegralGenusError,
    NotMinusOneClassError,
    NotRank2Error,
    NotSymmetricError,
    ToolkitError,
    UnboundedSearchError,
    UndeterminedOutcomeError,
)
from mmpkit.linalg import det_bareiss, inertia
from mmpkit.surface import (
    MmpOutcome,
    SurfaceLattice,
    adjunction_genus,
    castelnuovo_contract,
    cone_rays_rank2,
    enumerate_minus_one_classes,
    is_ample_kleiman,
    is_nef,
    make_blowup_p2,
    make_quadric,
    pushforward_class,
    riemann_roch_surface,
    run_classical_mmp,
)

EXPECTED_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


class TestConstructions:
    def test_plane(self):
        p2 = make_blowup_p2(0)
        assert p2.rank == 1
        assert p2.gram == ((1,),)
        assert p2.K == (-3,)

    def test_one_point(self):
        bl1 = make_blowup_p2(1)
        assert bl1.rank == 2
        assert bl1.K == (-3, 1)

    def test_cubic_surface_rank(self):
        assert make_blowup_p2(6).rank == 7

    def test_quadric(self):
        q = make_quadric()
        fibre = (1, 0)
        assert q.pair(fibre, fibre) == 0
        assert q.pair(q.K, fibre) == -2
        assert adjunction_genus(q, fibre) == 0

    def test_gram_must_be_symmetric(self):
        with pytest.raises(NotSymmetricError):
            SurfaceLattice(rank=2, gram=((0, 1), (2, 0)), K=(0, 0))

    def test_curve_parity_enforced(self):
        with pytest.raises(NonIntegralGenusError):
            SurfaceLattice(rank=1, gram=((1,),), K=(0,), curves=((1,),))

    def test_faults_carry_code_and_field(self):
        with pytest.raises(NotSymmetricError) as info:
            SurfaceLattice(rank=3, gram=((1, 0, 0), (0, -1, 5), (0, 4, -1)), K=(0, 0, 0))
        assert (info.value.code, info.value.field) == ("gram_not_symmetric", "gram[1][2]")
        with pytest.raises(NonIntegralGenusError) as info:
            SurfaceLattice(rank=1, gram=((1,),), K=(0,), curves=((1,),))
        assert (info.value.code, info.value.field) == ("curve_parity", "curves")
        with pytest.raises(ValueError) as info:
            SurfaceLattice(rank=2, gram=((0, 1), (1, 0)), K=(0, 0), curves=((1, 0), (1,)))
        assert (info.value.code, info.value.field) == ("curve_length", "curves[1]")
        with pytest.raises(ValueError) as info:
            make_blowup_p2(-1)
        assert (info.value.code, info.value.field) == ("r_out_of_range", "r")

    def test_signature_warning(self):
        s = SurfaceLattice(rank=2, gram=((-1, 0), (0, -1)), K=(0, 0))
        assert s.warnings()
        assert make_quadric().warnings() == ()


class TestAdjunctionGenus:
    def test_line(self):
        assert adjunction_genus(make_blowup_p2(0), (1,)) == 0

    def test_plane_cubic(self):
        assert adjunction_genus(make_blowup_p2(0), (3,)) == 1

    def test_exceptional_curve(self):
        assert adjunction_genus(make_blowup_p2(1), (0, 1)) == 0

    def test_parity_violation(self):
        with pytest.raises(NonIntegralGenusError):
            adjunction_genus(SurfaceLattice(rank=1, gram=((1,),), K=(0,)), (1,))


class TestMinusOneEnumeration:
    def test_small_counts(self):
        for r in range(1, 7):
            assert len(enumerate_minus_one_classes(make_blowup_p2(r))) == EXPECTED_COUNTS[r]

    def test_r1_is_exceptional_only(self):
        assert enumerate_minus_one_classes(make_blowup_p2(1)) == [(0, 1)]

    def test_r2(self):
        assert enumerate_minus_one_classes(make_blowup_p2(2)) == [
            (0, 0, 1),
            (0, 1, 0),
            (1, -1, -1),
        ]

    def test_against_naive_oracle(self):
        for r in range(1, 5):
            assert set(enumerate_minus_one_classes(make_blowup_p2(r))) == naive_minus_one_classes(r)

    def test_against_multiset_count_oracle(self):
        for r in range(1, 9):
            assert len(enumerate_minus_one_classes(make_blowup_p2(r))) == multiset_minus_one_count(r)

    def test_r8_under_five_seconds(self):
        start = time.monotonic()
        classes = enumerate_minus_one_classes(make_blowup_p2(8))
        assert len(classes) == 240
        assert time.monotonic() - start < 5.0

    def test_every_class_is_rational(self):
        s = make_blowup_p2(6)
        for c in enumerate_minus_one_classes(s):
            assert adjunction_genus(s, c) == 0
            assert s.pair(c, c) == -1
            assert s.pair(s.K, c) == -1

    def test_quadric_has_none(self):
        assert enumerate_minus_one_classes(make_quadric()) == []

    def test_r9_requires_bound(self):
        with pytest.raises(UnboundedSearchError):
            enumerate_minus_one_classes(make_blowup_p2(9))

    def test_r9_with_bound_runs(self):
        classes = enumerate_minus_one_classes(make_blowup_p2(9), bound=1)
        assert (0,) * 9 + (1,) in classes

    def test_order_independent_of_curve_list(self):
        rng = random.Random(4)
        s = make_blowup_p2(4)
        base = enumerate_minus_one_classes(s)
        for _ in range(10):
            curves = list(s.curves)
            rng.shuffle(curves)
            shuffled = SurfaceLattice(
                rank=s.rank, gram=s.gram, K=s.K, curves=tuple(curves), label=s.label
            )
            assert enumerate_minus_one_classes(shuffled) == base

    def test_derived_box_is_complete(self):
        # a random unimodular change of basis hides the standard form; the
        # classes must be the standard ones mapped through it, and a box 2
        # wider than the largest coordinate found must reveal nothing new
        rng = random.Random(73)
        for _ in range(60):
            r = rng.randint(1, 4)
            base = make_blowup_p2(r)
            s, to_new = disguise(base, rng)
            assert s.pair(s.K, s.K) == 9 - r
            assert s.warnings() == ()
            found = enumerate_minus_one_classes(s)
            assert len(found) == len(enumerate_minus_one_classes(base))
            assert set(found) == {to_new(c) for c in naive_minus_one_classes(r)}
            if r <= 3:
                widest = max(abs(v) for c in found for v in c)
                wider = enumerate_minus_one_classes(s, bound=widest + 2)
                assert set(wider) == set(found)
        for r in (7, 8):
            base = make_blowup_p2(r)
            s, to_new = disguise(base, rng)
            found = enumerate_minus_one_classes(s)
            assert len(found) == multiset_minus_one_count(r) == EXPECTED_COUNTS[r]
            assert set(found) == {to_new(c) for c in enumerate_minus_one_classes(base)}

    def test_disguised_r7_r8_under_two_seconds(self):
        rng = random.Random(78)
        for r in (7, 8):
            s, _ = disguise(make_blowup_p2(r), rng)
            start = time.monotonic()
            classes = enumerate_minus_one_classes(s)
            assert len(classes) == EXPECTED_COUNTS[r]
            assert time.monotonic() - start < 2.0

    def test_no_class_when_k_pairs_evenly(self):
        # G.K is (4, 2) and (-6, -2): K.x is even, so K.x = -1 has no
        # solution, although E^2 = -1 on the second lattice
        even = SurfaceLattice(rank=2, gram=((2, 1), (1, -2)), K=(2, 0))
        doubled = SurfaceLattice(rank=2, gram=((1, 0), (0, -1)), K=(-6, 2))
        for s in (even, doubled):
            assert s.pair(s.K, s.K) > 0 and s.warnings() == ()
            assert enumerate_minus_one_classes(s) == []
            assert enumerate_minus_one_classes(s, bound=6) == []

    def test_points_inside_the_ellipsoid_are_not_classes(self):
        # K is not characteristic here: (1, 1) and (1, -1) have K.x = -1 and
        # x^2 = 0, so they lie inside the ellipsoid, not on it
        s = SurfaceLattice(rank=2, gram=((1, 0), (0, -1)), K=(-1, 0))
        assert enumerate_minus_one_classes(s) == []
        assert enumerate_minus_one_classes(s, bound=4) == []

    def test_matches_box_scan_on_random_lattices(self):
        # any K, not only canonical classes: inside the box, the search
        # must find exactly what the explicit-bound scan finds
        rng = random.Random(7)
        tested = 0
        while tested < 200:
            n = rng.randint(2, 3)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.randint(-3, 3)
            K = [rng.randint(-4, 4) for _ in range(n)]
            s = SurfaceLattice(rank=n, gram=gram, K=K)
            if s.pair(s.K, s.K) <= 0 or s.warnings():
                continue
            tested += 1
            found = enumerate_minus_one_classes(s)
            assert all(s.pair(x, x) == -1 and s.pair(s.K, x) == -1 for x in found)
            box = enumerate_minus_one_classes(s, bound=5)
            assert set(box) == {x for x in found if max(map(abs, x)) <= 5}

    def test_unit_rank_has_none(self):
        # signature (1, 0) is positive definite, so no class squares to -1
        s = SurfaceLattice(rank=1, gram=((1,),), K=(-1,))
        assert enumerate_minus_one_classes(s) == []


class TestCastelnuovoContract:
    def test_contract_exceptional_recovers_plane(self):
        result = castelnuovo_contract(make_blowup_p2(1), (0, 1))
        assert result.rank == 1
        assert result.gram == ((1,),)
        assert result.K == (-3,)

    def test_contract_line_gives_quadric_lattice(self):
        result = castelnuovo_contract(make_blowup_p2(2), (1, -1, -1))
        assert result.rank == 2
        assert det_bareiss(result.gram) == -1
        assert inertia(result.gram) == (1, 1, 0)
        assert result.pair(result.K, result.K) == 8
        fibres = [
            f
            for f in enumerate_minus_one_fibres(result)
        ]
        assert len(fibres) >= 2

    def test_not_minus_one_rejected(self):
        with pytest.raises(NotMinusOneClassError):
            castelnuovo_contract(make_blowup_p2(1), (1, -1))

    def test_k_transform_orthogonality(self):
        s = make_blowup_p2(3)
        for c in enumerate_minus_one_classes(s):
            assert s.pair(tuple(k - x for k, x in zip(s.K, c)), c) == 0

    def test_pushforward_intersection_identity(self):
        rng = random.Random(31)
        for _ in range(250):
            r = rng.randint(1, 5)
            s = make_blowup_p2(r)
            classes = enumerate_minus_one_classes(s)
            c = rng.choice(classes)
            contracted = castelnuovo_contract(s, c)
            x = tuple(rng.randint(-3, 3) for _ in range(s.rank))
            y = tuple(rng.randint(-3, 3) for _ in range(s.rank))
            x_img = pushforward_class(s, c, x)
            y_img = pushforward_class(s, c, y)
            expected = s.pair(x, y) + s.pair(x, c) * s.pair(y, c)
            assert contracted.pair(x_img, y_img) == expected


def enumerate_minus_one_fibres(s):
    # fibre classes f with f^2 = 0 and K.f = -2 in a small box
    out = []
    for x in range(-4, 5):
        for y in range(-4, 5):
            f = (x, y)
            if s.pair(f, f) == 0 and s.pair(s.K, f) == -2:
                out.append(f)
    return out


class TestClassicalMmp:
    def test_blowup_two_points(self):
        trace = run_classical_mmp(make_blowup_p2(2))
        assert len(trace.steps) == 2
        assert trace.outcome is MmpOutcome.MORI_FIBRE_P2LIKE
        assert trace.final.K == (-3,)

    def test_all_blowup_counts(self):
        for r in range(0, 7):
            trace = run_classical_mmp(make_blowup_p2(r))
            assert len(trace.steps) == r
            assert trace.outcome is MmpOutcome.MORI_FIBRE_P2LIKE
            assert trace.final.rank == 1
            assert trace.final.K == (-3,)
            ranks = [step.rank_before for step in trace.steps] + [trace.final.rank]
            assert ranks == list(range(r + 1, 0, -1))

    def test_quadric(self):
        trace = run_classical_mmp(make_quadric())
        assert len(trace.steps) == 0
        assert trace.outcome is MmpOutcome.MORI_FIBRE_RULED
        assert trace.fibre == (1, 0)
        assert trace.final.pair(trace.final.K, trace.fibre) == -2
        assert adjunction_genus(trace.final, trace.fibre) == 0

    def test_general_type_rank_one(self):
        s = SurfaceLattice(rank=1, gram=((1,),), K=(3,), curves=((1,),), label="general type")
        trace = run_classical_mmp(s)
        assert trace.outcome is MmpOutcome.MINIMAL_MODEL
        assert trace.steps == ()

    def test_terminates_within_rank_steps(self):
        for r in range(0, 7):
            trace = run_classical_mmp(make_blowup_p2(r))
            assert len(trace.steps) <= make_blowup_p2(r).rank - 1 + 1
            for step in trace.steps:
                assert step.rank_after == step.rank_before - 1

    def test_empty_curve_list_minimal_is_conditional(self):
        s = SurfaceLattice(rank=1, gram=((1,),), K=(3,))
        trace = run_classical_mmp(s)
        assert trace.outcome is MmpOutcome.MINIMAL_MODEL
        assert any("conditional" in note for note in trace.notes)

    def test_undetermined_outcome_raises(self):
        # no (-1)-classes (odd self-intersections are impossible on this
        # even lattice), but K is negative on a known non-fibre class
        s = SurfaceLattice(
            rank=2, gram=((2, 0), (0, -2)), K=(2, 0), curves=((-1, 0),)
        )
        with pytest.raises(UndeterminedOutcomeError):
            run_classical_mmp(s)

    def test_plane_like_verdict_follows_a_known_curve(self):
        # a disguised plane blown up in one point whose contraction basis
        # ends as -H; the verdict must not depend on that orientation
        s = SurfaceLattice(
            rank=2, gram=((-5, 1), (1, 0)), K=(4, 11), curves=((1, 2), (-1, -3))
        )
        trace = run_classical_mmp(s)
        assert trace.outcome is MmpOutcome.MORI_FIBRE_P2LIKE
        assert trace.final.pair(trace.final.K, trace.final.K) == 9

    def test_plane_like_rule_at_rank_one(self):
        # no nonzero known curve: K negative on the basis vector
        s = SurfaceLattice(rank=1, gram=((1,),), K=(-3,), curves=())
        assert run_classical_mmp(s).outcome is MmpOutcome.MORI_FIBRE_P2LIKE
        # the plane with its basis vector negated: -e_0 is the known line
        flipped =SurfaceLattice(rank=1, gram=((1,),), K=(3,), curves=((-1,),))
        assert run_classical_mmp(flipped).outcome is MmpOutcome.MORI_FIBRE_P2LIKE
        # a zero class (the image of a multiple of a contracted class) is no curve
        zero = SurfaceLattice(rank=1, gram=((1,),), K=(-3,), curves=((0,),))
        assert run_classical_mmp(zero).outcome is MmpOutcome.MORI_FIBRE_P2LIKE

    def test_rank_one_end_is_plane_like_in_any_basis(self):
        rng = random.Random(2026)
        ended_at_rank_one = 0
        for r in range(1, 9):
            for _ in range(6):
                s, _ = disguise(make_blowup_p2(r), rng)
                cur = s
                while classes := enumerate_minus_one_classes(cur):
                    cur = castelnuovo_contract(cur, classes[0])
                if cur.rank == 1:
                    ended_at_rank_one += 1
                    trace = run_classical_mmp(s)
                    assert trace.outcome is MmpOutcome.MORI_FIBRE_P2LIKE
                    assert len(trace.steps) == r
        assert ended_at_rank_one >= 40

    def test_carried_classes_match_a_fresh_search_per_step(self):
        def result(mmp, s, bound=None):
            try:
                return mmp(s, bound)
            except ToolkitError as e:
                return type(e), e.code

        rng = random.Random(909)
        for k in range(200):
            s, _ = disguise(make_blowup_p2(k % 9), rng, moves=rng.randint(1, 8))
            if k % 2:
                s = SurfaceLattice(rank=s.rank, gram=s.gram, K=s.K)
            assert result(run_classical_mmp, s) == result(naive_mmp_trace, s)
            if k % 9 <= 4:
                for bound in (1, 2):
                    assert result(run_classical_mmp, s, bound) == result(naive_mmp_trace, s, bound)

    def test_searches_once_without_a_bound(self, monkeypatch):
        calls = {"search": 0, "contract": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(surface, "enumerate_minus_one_classes", counted("search", enumerate_minus_one_classes))
        monkeypatch.setattr(surface, "castelnuovo_contract", counted("contract", castelnuovo_contract))
        assert len(run_classical_mmp(make_blowup_p2(8)).steps) == 8
        assert calls == {"search": 1, "contract": 8}
        # a box is taken in each step's own coordinates: one scan per step,
        # and one more that finds nothing
        calls.update(search=0, contract=0)
        assert len(run_classical_mmp(make_blowup_p2(3), bound=1).steps) == 3
        assert calls == {"search": 4, "contract": 3}

    def test_ruled_above_rank_two_is_flagged_heuristic(self):
        # quadric-like fibre inside a rank-3 lattice
        s = SurfaceLattice(
            rank=3,
            gram=((0, 1, 0), (1, 0, 0), (0, 0, -2)),
            K=(-2, -2, 0),
            curves=((1, 0, 0),),
        )
        trace = run_classical_mmp(s)
        assert trace.outcome is MmpOutcome.MORI_FIBRE_RULED
        assert any("heuristic" in note for note in trace.notes)


class TestConeRays:
    def test_quadric(self):
        assert cone_rays_rank2(make_quadric()) == ((0, 1), (1, 0))

    def test_blowup_with_line_transform(self):
        bl1 = make_blowup_p2(1)
        s = SurfaceLattice(rank=2, gram=bl1.gram, K=bl1.K, curves=((0, 1), (1, -1)))
        assert cone_rays_rank2(s) == ((0, 1), (1, -1))

    def test_interior_class_ignored(self):
        q = make_quadric()
        s = SurfaceLattice(rank=2, gram=q.gram, K=q.K, curves=((1, 0), (1, 1), (0, 1)))
        assert cone_rays_rank2(s) == ((0, 1), (1, 0))

    def test_rank_guard(self):
        with pytest.raises(NotRank2Error):
            cone_rays_rank2(make_blowup_p2(2))

    def test_empty_curves(self):
        q = make_quadric()
        with pytest.raises(EmptyCurveListError):
            cone_rays_rank2(SurfaceLattice(rank=2, gram=q.gram, K=q.K))

    def test_opposite_directions_rejected(self):
        q = make_quadric()
        s = SurfaceLattice(rank=2, gram=q.gram, K=q.K, curves=((1, 0), (-1, 0)))
        with pytest.raises(DegenerateConeError):
            cone_rays_rank2(s)

    def test_half_plane_rejected(self):
        q = make_quadric()
        s = SurfaceLattice(
            rank=2, gram=q.gram, K=q.K, curves=((1, 0), (0, 1), (-1, -1))
        )
        with pytest.raises(DegenerateConeError):
            cone_rays_rank2(s)

    def test_single_direction_collapses(self):
        q = make_quadric()
        s = SurfaceLattice(rank=2, gram=q.gram, K=q.K, curves=((2, 0), (1, 0)))
        assert cone_rays_rank2(s) == ((1, 0), (1, 0))


class TestNefAndAmple:
    def test_quadric_examples(self):
        q = make_quadric()
        assert is_nef(q, (1, 1)) is True
        assert is_ample_kleiman(q, (1, 1)) is True
        assert is_nef(q, (1, 0)) is True
        assert is_ample_kleiman(q, (1, 0)) is False

    def test_canonical_not_nef_on_blowup(self):
        bl1 = make_blowup_p2(1)
        assert is_nef(bl1, bl1.K) is False

    def test_ample_implies_nef(self):
        rng = random.Random(91)
        q = make_quadric()
        bl2 = make_blowup_p2(2)
        for _ in range(200):
            s = rng.choice([q, bl2])
            d = tuple(rng.randint(-3, 3) for _ in range(s.rank))
            if is_ample_kleiman(s, d):
                assert is_nef(s, d)


class TestDivisorLength:
    @pytest.mark.parametrize("divisor", [(1,), (1, 0, 0)])
    def test_wrong_length_is_rejected_not_truncated(self, divisor):
        q = make_quadric()
        checks = (
            lambda: is_nef(q, divisor),
            lambda: is_ample_kleiman(q, divisor),
            lambda: riemann_roch_surface(q, divisor, 1),
        )
        for check in checks:
            with pytest.raises(ValueError) as info:
                check()
            assert (info.value.code, info.value.field) == ("divisor_length", "divisor")

    def test_length_is_checked_before_the_curve_list(self):
        s = SurfaceLattice(rank=2, gram=((0, 1), (1, 0)), K=(-2, -2))
        with pytest.raises(ValueError) as info:
            is_nef(s, (1,))
        assert info.value.code == "divisor_length"


class TestRiemannRochSurface:
    def test_zero_divisor(self):
        assert riemann_roch_surface(make_quadric(), (0, 0), 5) == 5

    def test_plane_line(self):
        assert riemann_roch_surface(make_blowup_p2(0), (1,), 1) == 3

    def test_plane_cubic(self):
        assert riemann_roch_surface(make_blowup_p2(0), (3,), 1) == 10

    def test_non_integral_flagged(self):
        # inconsistent lattice data: D.(D-K) odd makes chi non-integral
        s = SurfaceLattice(rank=1, gram=((1,),), K=(0,))
        value = riemann_roch_surface(s, (1,), 0)
        assert value == Fraction(1, 2)
