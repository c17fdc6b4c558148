import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, gcd, prod
from pathlib import Path

import pytest

from helpers import (
    CLASS_CHAIN_ORDER,
    CONE_BOX,
    fraction_discrepancy,
    mat_vec,
    naive_is_strongly_convex,
    naive_points_at_or_below_one,
    random_cone,
    random_q_gorenstein_cone,
    random_unimodular,
    reference_functional,
    reference_solve,
)
from mmpkit import linalg, toric
from mmpkit.dualgraph import DualGraph, Vertex, discrepancies
from mmpkit.errors import (
    NotFullDimensionalError,
    NotInConeError,
    NotPrimitiveError,
    NotQGorensteinError,
    NotStronglyConvexError,
    ToolkitError,
)
from mmpkit.linalg import dot, matrix_rank
from mmpkit.toric import (
    Cone,
    ConeClass,
    classify_cone,
    cone_from_rays,
    facets,
    lattice_points_at_or_below_one,
    q_gorenstein_functional,
    toric_discrepancy,
)

GOLDEN = Path(__file__).parent / "golden"
ODP_RAYS = [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]


def quotient_cone(a, q=1):
    """Rank-2 cone with rays (0,1) and (a,-q)."""
    return cone_from_rays([[0, 1], [a, -q]])


def count_runs(monkeypatch):
    """The list that collects one entry per run of the toric walk: each run
    takes the min of one list, the steps left in the row and to each wrap."""
    runs = []

    def counted(*args, _min=min):
        if len(args) == 1 and isinstance(args[0], list):
            runs.append(args[0])
        return _min(*args)

    monkeypatch.setattr(toric, "min", counted, raising=False)
    return runs


def count_dots(monkeypatch):
    """The Counter of linalg.dot calls by vector length, from here on."""
    calls = Counter()

    def counted(u, v, _dot=linalg.dot):
        calls[len(u)] += 1
        return _dot(u, v)

    monkeypatch.setattr(linalg, "dot", counted)
    return calls


def row_runs(det, steps, nums, length):
    """One row of the walk, stepped one coset at a time and split into runs
    after each step on which a numerator wraps: per run, the sums of the
    numerators at its cosets."""
    runs = [[]]
    for t in range(length):
        runs[-1].append(sum(nums))
        wrapped = any(n + s >= det for n, s in zip(nums, steps))
        nums = [(n + s) % det for n, s in zip(nums, steps)]
        if wrapped and t + 1 < length:
            runs.append([])
    return runs


def facets_error(cone):
    """The class of the error facets raises on the cone, or None."""
    try:
        facets(cone)
    except (NotStronglyConvexError, NotFullDimensionalError) as error:
        return type(error)
    return None


def unimodular_image(rng, cone):
    """The cone mapped through a random g in GL(d, Z), its rays shuffled, and g."""
    g, _ = random_unimodular(rng, cone.rank)
    rays = [mat_vec(g, ray) for ray in cone.rays]
    rng.shuffle(rays)
    return cone_from_rays(rays), g


class TestConeValidation:
    def test_non_primitive_ray_rejected(self):
        with pytest.raises(NotPrimitiveError):
            cone_from_rays([[2, 4], [0, 1]])

    def test_zero_ray_rejected(self):
        with pytest.raises(NotPrimitiveError):
            cone_from_rays([[0, 0], [0, 1]])

    def test_duplicate_ray_rejected(self):
        with pytest.raises(ValueError):
            cone_from_rays([[1, 0], [1, 0]])

    def test_faults_carry_code_and_field(self):
        with pytest.raises(NotPrimitiveError) as info:
            Cone(rank=2, rays=((2, 4), (0, 1)))
        assert (info.value.code, info.value.field) == ("ray_not_primitive", "rays[0]")
        with pytest.raises(ValueError) as info:
            Cone(rank=2, rays=((0, 1), (1, 0, 0)))
        assert (info.value.code, info.value.field) == ("rank_mismatch", "rays[1]")
        with pytest.raises(ValueError) as info:
            toric_discrepancy(quotient_cone(3), (1, 0, 0))
        assert (info.value.code, info.value.field) == ("point_length", "point")
        with pytest.raises(ValueError) as info:
            cone_from_rays([])
        assert (info.value.code, info.value.field) == ("wrong_type", "rays")


class TestFacets:
    def test_first_quadrant(self):
        assert facets(cone_from_rays([[1, 0], [0, 1]])) == ((0, 1), (1, 0))

    def test_quotient_cone(self):
        # brute-force confirmation that the half-space description matches
        # cone membership on a box
        cone = quotient_cone(3)
        hs = facets(cone)
        assert set(hs) == {(1, 0), (1, 3)}
        for x in range(-5, 6):
            for y in range(-5, 6):
                in_halfspaces = all(h[0] * x + h[1] * y >= 0 for h in hs)
                # membership oracle: x*(0,1) + y*(3,-1) with nonnegative
                # rational weights
                w2 = Fraction(x, 3)
                w1 = Fraction(y) + w2
                in_cone = w1 >= 0 and w2 >= 0
                assert in_halfspaces == in_cone

    def test_line_is_rejected(self):
        with pytest.raises(NotStronglyConvexError):
            facets(cone_from_rays([[1, 0], [-1, 0]]))

    def test_not_full_dimensional(self):
        with pytest.raises(NotFullDimensionalError):
            facets(Cone(rank=3, rays=((1, 0, 0), (0, 1, 0))))

    def test_odp_square_cone(self):
        hs = facets(cone_from_rays(ODP_RAYS))
        assert set(hs) == {(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)}


class TestSupportFunctional:
    def test_quotient_cone_a3(self):
        assert q_gorenstein_functional(quotient_cone(3)) == (Fraction(2, 3), 1)

    def test_smooth(self):
        assert q_gorenstein_functional(cone_from_rays([[1, 0], [0, 1]])) == (1, 1)

    def test_odp(self):
        assert q_gorenstein_functional(cone_from_rays(ODP_RAYS)) == (0, 0, 1)

    def test_inconsistent_returns_none(self):
        # rays of a cone whose canonical class is not Q-Cartier
        rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, -1]]
        cone = cone_from_rays(rays)
        assert q_gorenstein_functional(cone) is None
        assert classify_cone(cone).kind is ConeClass.NOT_Q_GORENSTEIN

    def test_generators_sit_on_level_one(self):
        for a in range(1, 13):
            cone = quotient_cone(a)
            m = q_gorenstein_functional(cone)
            for ray in cone.rays:
                assert sum(c * x for c, x in zip(m, ray)) == 1

    def test_matches_gauss_jordan(self):
        # seeded cones of rank 1-4: lower-dimensional ones and ones with a line
        # (random_cone), Q-Gorenstein ones (random_q_gorenstein_cone) and random
        # rays, simplicial or not.  On a full-dimensional cone m is the
        # Gauss-Jordan solution of rays . m = 1, or None when there is none; a
        # lower-dimensional cone gets None, also where rays . m = 1 has solutions
        rng = random.Random(5)
        seen = Counter()
        for k in range(1200):
            d, source = 1 + k // 3 % 4, k % 3
            if source == 0:
                cone = random_cone(rng, d)
            elif source == 1:
                cone = random_q_gorenstein_cone(rng, d, rng.randint(0, 2) if d > 1 else 0)
            else:
                rays = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(d, d + 2))]
                cone = cone_from_rays(sorted({linalg.primitive(r) for r in rays if any(r)}) or [[1] * d])
            m = q_gorenstein_functional(cone)
            if matrix_rank(cone.rays) < d:
                assert m is None, cone.rays
                seen["lower"] += 1
                seen["lower, consistent"] += reference_solve(cone.rays, [1] * len(cone.rays)) is not None
                continue
            assert m == reference_functional(cone), cone.rays
            assert m is None or all(type(x) is Fraction for x in m), cone.rays
            simplicial = len(cone.rays) == d
            seen["m" if m else "no m", "simplicial" if simplicial else "not simplicial"] += 1
            seen["rank", d] += 1
        assert seen["no m", "simplicial"] == 0, seen  # d independent rays always have one
        wanted = ("lower", "lower, consistent", ("m", "simplicial"), ("m", "not simplicial"), ("no m", "not simplicial"))
        assert min(seen[key] for key in wanted) >= 50, seen
        assert min(seen["rank", d] for d in range(1, 5)) >= 50, seen


class TestLatticePoints:
    def test_smooth_cone_only_generators(self):
        cone = cone_from_rays([[1, 0], [0, 1]])
        assert lattice_points_at_or_below_one(cone) == [(0, 1), (1, 0)]

    def test_quotient_cone_a3(self):
        cone = quotient_cone(3)
        assert lattice_points_at_or_below_one(cone) == [(0, 1), (1, 0), (3, -1)]

    def test_odp_only_generators(self):
        cone = cone_from_rays(ODP_RAYS)
        points = lattice_points_at_or_below_one(cone)
        assert points == sorted(tuple(r) for r in ODP_RAYS)

    def test_pyramid_with_interior_generator(self):
        # (1,1,1) is a generator inside the cone on the other four
        result = classify_cone(cone_from_rays([[0, 0, 1], [2, 0, 1], [0, 2, 1], [2, 2, 1], [1, 1, 1]]))
        assert result.kind is ConeClass.CANONICAL
        assert result.points_at_or_below_one == tuple((x, y, 1) for x in range(3) for y in range(3))

    def test_thin_smooth_cone(self):
        # its bounding box has 2 * 10^6 cells, but it has one coset
        rays = [(1, 0, 0), (0, 1, 0), (1000, 1000, 1)]
        start = time.perf_counter()
        result = classify_cone(cone_from_rays(rays))
        assert time.perf_counter() - start < 2
        assert result.kind is ConeClass.SMOOTH
        assert result.points_at_or_below_one == tuple(sorted(rays))

    def test_line_or_lower_dimension_raises_as_facets_does(self):
        for rays, error, code in (
            ([[1, 0], [-1, 0]], NotStronglyConvexError, "not_strongly_convex"),
            ([[1, 0, 0], [-1, 0, 0]], NotStronglyConvexError, "not_strongly_convex"),
            ([[1, 0, 0], [0, 1, 0]], NotFullDimensionalError, "not_full_dimensional"),
        ):
            with pytest.raises(error) as info:
                lattice_points_at_or_below_one(cone_from_rays(rays))
            assert (info.value.code, info.value.field) == (code, None)

    def test_no_support_functional_raises(self):
        rays = json.loads((GOLDEN / "cone_not_qgor.json").read_text())["rays"]
        with pytest.raises(NotQGorensteinError) as info:
            lattice_points_at_or_below_one(cone_from_rays(rays))
        assert (info.value.code, info.value.field) == ("not_q_gorenstein", None)
        # on seeded valid cones it raises exactly when there is no functional
        rng = random.Random(31)
        seen = Counter()
        for k in range(900):
            cone = random_cone(rng, 2 + k % 3)
            if not naive_is_strongly_convex(cone) or matrix_rank(cone.rays) < cone.rank:
                continue
            try:
                lattice_points_at_or_below_one(cone)
                raised = False
            except NotQGorensteinError:
                raised = True
            assert raised == (reference_functional(cone) is None), cone.rays
            seen[raised] += 1
        assert min(seen[True], seen[False]) >= 20

    def test_matches_box_scan(self):
        # seeded cones of rank 1-4 and every golden cone with a support
        # functional; the box scan in tests/helpers.py is the oracle
        rng = random.Random(29)
        # (rank, rays beyond the rank, count)
        plan = [(1, 0, 8)] + [(2, e, 50) for e in range(4)] + [(3, e, 40) for e in range(3)]
        plan += [(4, e, 40) for e in range(2)]
        cones = [random_q_gorenstein_cone(rng, r, e) for r, e, count in plan for _ in range(count)]
        cones += [cone_from_rays(json.loads(p.read_text())["rays"]) for p in sorted(GOLDEN.glob("cone_*.json"))]
        for cone in cones:
            m = reference_functional(cone)
            if m is not None:
                points = lattice_points_at_or_below_one(cone)
                assert points == naive_points_at_or_below_one(cone, m), cone.rays
                # a simplicial cone's list skips the de-duplication, so it must have none to drop
                assert len(cone.rays) > cone.rank or len(set(points)) == len(points), cone.rays
        non_simplicial = [c for c in cones if len(c.rays) > c.rank]
        assert len(cones) >= 400 and len(non_simplicial) >= 250
        # a ray is not extremal when the facets through it span less than a hyperplane
        inner = 0
        for cone in non_simplicial:
            hs = facets(cone)
            inner += any(matrix_rank([h for h in hs if dot(h, r) == 0]) < cone.rank - 1 for r in cone.rays)
        assert inner >= 150

    def test_walk_matches_box_scan(self, monkeypatch):
        # the walk steps the longest side k of each Hermite box and carries the
        # numerators a_i.z mod |det S| in runs between wraps; these cones reach
        # every shape of box, adjugate and run that the walk treats differently
        rng = random.Random(43)
        cones = [random_q_gorenstein_cone(rng, 2 + k % 3, k % 4 if k % 3 else 0) for k in range(150)]
        cones += [
            cone_from_rays(rays)
            for rays in (
                [[1, 0, 0], [1, 2, 0], [1, 0, 2]],  # Z/2 x Z/2
                [[1, 0, 0, 0], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]],  # (Z/2)^3
                [[1, 0, 0], [1, 3, 0], [1, 0, 3], [1, 3, 3]],  # non-simplicial, (Z/3)^2 boxes
                [[1, 5], [2, 7]],  # adjugate rows (-7, 2), (5, -1) for |det S| = 3
                [[1, 7], [2, 9]],  # adjugate entry 7 > |det S| = 5
                [[2, 1, 0], [0, 1, 0], [1, 1, 6]],
                [[1, 0, 0], [0, 1, 0], [-1, -1, 301]],
                [[-2, 1, 1], [-1, -3, 2], [3, 0, 2]],  # a run length read as a floor, not a ceiling, is 0 here
            )
        ]
        cones += [quotient_cone(a) for a in [*range(1, 41), 97, 256, 1000, 2310, 4999, 5000]]
        # Hermite box a x a: rows that end while the sum of the numerators is still at most |det S|
        cones += [cone_from_rays([[a, -1], [a, a - 1]]) for a in range(3, 9)]
        runs = count_runs(monkeypatch)
        seen = Counter()
        for cone in cones:
            m = reference_functional(cone)
            runs.clear()
            assert lattice_points_at_or_below_one(cone) == naive_points_at_or_below_one(cone, m), cone.rays
            walked = len(runs)
            d = cone.rank
            seen["non-simplicial"] += len(cone.rays) > d
            hs = facets(cone)  # a ray is not extremal when the facets through it span less than a hyperplane
            seen["ray not extremal"] += any(matrix_rank([h for h in hs if dot(h, r) == 0]) < d - 1 for r in cone.rays)
            for rays in combinations(cone.rays, d):
                diagonal = [col[k] for k, col in enumerate(linalg.column_hermite_form(rays))]
                det = prod(diagonal)
                if not det:
                    seen["dependent"] += 1
                    continue
                adj = [linalg.cross_normal(rays[:i] + rays[i + 1 :], d) for i in range(d)]
                adj = [a if dot(a, s) > 0 else tuple(-x for x in a) for a, s in zip(adj, rays)]
                seen["non-cyclic"] += sum(h > 1 for h in diagonal) > 1
                seen["longest side not last"] += diagonal.index(max(diagonal)) < d - 1
                seen["adjugate entry < 0"] += any(x < 0 for a in adj for x in a)
                seen["adjugate entry > det"] += any(x > det for a in adj for x in a)
                if det == 1:
                    continue  # its one coset is 0, so the walk takes no run
                k = diagonal.index(max(diagonal))
                steps = [a[k] % det for a in adj]
                seen["zero step"] += 0 in steps
                for z in product(*map(range, diagonal[:k] + [1] + diagonal[k + 1 :])):
                    row = row_runs(det, steps, [dot(a, z) % det for a in adj], diagonal[k])
                    walked -= len(row)
                    seen["row of several runs"] += len(row) > 1
                    seen["every step wraps"] += diagonal[k] > 1 and len(row) == diagonal[k]
                    for sums in row:
                        seen["run starts at sum 0"] += sums[0] == 0
                        seen["run starts above det"] += sums[0] > det
                        # the hits 0 < sum <= det end with the run, not where the sum passes det
                        seen["hits clipped by the run"] += 0 < sums[-1] and sums[-1] + sum(steps) <= det
            assert walked == 0, cone.rays  # the walk takes as many runs as the step-by-step split
        assert min(seen.values()) >= 10, seen

    def test_walk_seeds_each_row_once(self, monkeypatch):
        # (0,1),(20000,-1) has Hermite diagonal (20000, 1): one row of 20000
        # cosets, walked from one seed, so no coset costs a dot product.  The
        # functional is memoised first, as classify_cone leaves it for the walk
        calls = count_dots(monkeypatch)
        q_gorenstein_functional(quotient_cone(20000))
        calls.clear()
        points = lattice_points_at_or_below_one(quotient_cone(20000))
        assert points == [(0, 1)] + [(x, 0) for x in range(1, 10001)] + [(20000, -1)]
        # 2 adjugate signs; 1 row x 2 numerators; no facets pass on a valid cone
        assert calls == Counter({2: 2 + 1 * 2})
        # (1,0,0),(1,2,0),(1,0,2): diagonal (1, 2, 2), walked along k = 1, so 2 rows of 2 cosets
        cone = cone_from_rays([[1, 0, 0], [1, 2, 0], [1, 0, 2]])
        q_gorenstein_functional(cone)
        calls.clear()
        lattice_points_at_or_below_one(cone)
        assert calls == Counter({3: 3 + 2 * 3})

    def test_cone_op_finds_the_functional_once(self, monkeypatch):
        # classify_cone then toric_discrepancy, as the CLI and the bench call them:
        # m is found once, in q_gorenstein_functional, and both walk and discrepancy
        # read it from the memo.  Were it found again each time, they read 22 and 38
        calls = count_dots(monkeypatch)
        for rays, v, dots in [
            ([[0, 1], [20000, -1]], (1, 0), 15),
            ([[1, 0, 0], [1, 2, 0], [1, 0, 2]], (1, 1, 1), 28),
        ]:
            q_gorenstein_functional.cache_clear()
            calls.clear()
            cone = cone_from_rays(rays)
            classify_cone(cone)
            toric_discrepancy(cone, v)
            assert sum(calls.values()) == dots, rays

    def test_walk_adds_a_row_without_wraps_in_one_run(self, monkeypatch):
        # (0,1),(20000,-1): steps (1, 1) never wrap in the row of 20000 cosets,
        # so its 10000 extra points are added as one range
        runs = count_runs(monkeypatch)
        points = lattice_points_at_or_below_one(quotient_cone(20000))
        assert len(points) == 10002 and len(runs) == 1


class TestClassification:
    def test_smooth(self):
        result = classify_cone(cone_from_rays([[1, 0], [0, 1]]))
        assert result.kind is ConeClass.SMOOTH
        assert result.q_factorial is True
        assert result.gorenstein_index == 1

    def test_odp_terminal_not_simplicial(self):
        result = classify_cone(cone_from_rays(ODP_RAYS))
        assert result.kind is ConeClass.TERMINAL
        assert result.q_factorial is False

    def test_surface_quotient_family(self):
        assert classify_cone(quotient_cone(2)).kind is ConeClass.CANONICAL
        assert classify_cone(quotient_cone(3)).kind is ConeClass.KLT_ONLY
        assert classify_cone(quotient_cone(3)).gorenstein_index == 3

    def test_terminal_iff_only_generators(self):
        for rays in ([[1, 0], [0, 1]], ODP_RAYS, [[0, 1], [2, -1]], [[0, 1], [5, -1]]):
            cone = cone_from_rays(rays)
            result = classify_cone(cone)
            if result.kind is ConeClass.NOT_Q_GORENSTEIN:
                continue
            only_generators = set(result.points_at_or_below_one) == set(cone.rays)
            chain_pos = CLASS_CHAIN_ORDER[result.kind]
            assert only_generators == (chain_pos <= CLASS_CHAIN_ORDER[ConeClass.TERMINAL])

    def test_chain_respected(self):
        # anything classified smooth also passes the terminal criterion, and
        # terminal implies every extra point sits strictly above level one
        for rays in ([[1, 0], [0, 1]], ODP_RAYS, [[1, 0, 0], [0, 1, 0], [1, 1, 2]]):
            cone = cone_from_rays(rays)
            result = classify_cone(cone)
            if result.kind is ConeClass.NOT_Q_GORENSTEIN:
                continue
            if CLASS_CHAIN_ORDER[result.kind] <= 1:
                assert set(result.points_at_or_below_one) == set(cone.rays)

    def test_validates_once(self, monkeypatch):
        calls = []

        def counted(cone):
            calls.append(cone)
            return facets(cone)

        monkeypatch.setattr(toric, "facets", counted)
        # a cone with m has no line and its first independent d rays span: facets only names errors
        for name, kind, passes in (("cone_odp", ConeClass.TERMINAL, 0), ("cone_not_qgor", ConeClass.NOT_Q_GORENSTEIN, 1)):
            calls.clear()
            cone = cone_from_rays(json.loads((GOLDEN / f"{name}.json").read_text())["rays"])
            assert classify_cone(cone).kind is kind
            assert calls == [cone] * passes

    def test_random_rank2_family(self):
        rng = random.Random(13)
        seen = 0
        while seen < 100:
            a = rng.randint(2, 12)
            q = rng.randint(1, a - 1)
            if gcd(a, q) != 1:
                continue
            cone = quotient_cone(a, q)
            result = classify_cone(cone)
            assert result.kind is not ConeClass.NOT_Q_GORENSTEIN
            assert result.kind is not ConeClass.SMOOTH
            # surfaces are terminal only when smooth
            assert result.kind in (ConeClass.CANONICAL, ConeClass.KLT_ONLY)
            # chain consistency on every classified input: the class is
            # exactly as good as the level-one point data allows
            m = result.support_functional
            extras = [p for p in result.points_at_or_below_one if p not in set(cone.rays)]
            levels = [sum(c * x for c, x in zip(m, p)) for p in extras]
            if result.kind is ConeClass.CANONICAL:
                assert levels and all(v == 1 for v in levels)
            else:
                assert any(v < 1 for v in levels)
            seen += 1


class TestSmoothness:
    """A cone is smooth when its rays are a basis of the lattice: it is
    simplicial and every unit vector is an integer combination of its rays."""

    def test_smooth_iff_rays_are_a_lattice_basis(self):
        # the cone on the primitive rows of a random nonsingular matrix
        rng = random.Random(59)
        verdicts = Counter()
        while sum(verdicts.values()) < 120:
            d = rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if linalg.det_bareiss(a) == 0:
                continue
            rays = [[x // gcd(*row) for x in row] for row in a]
            columns = [list(col) for col in zip(*rays)]
            units = ([int(i == j) for j in range(d)] for i in range(d))
            basis = all(x.denominator == 1 for e in units for x in linalg.solve_exact(columns, e))
            smooth = classify_cone(cone_from_rays(rays)).kind is ConeClass.SMOOTH
            assert smooth == basis, rays
            verdicts[smooth] += 1
        assert min(verdicts[True], verdicts[False]) >= 20, verdicts

    def test_ray_order_and_signs_do_not_matter(self):
        # half of these ray matrices have determinant -1
        for rays in permutations([(1, 0, 0), (1, 1, 0), (0, 2, 1)]):
            for signs in product((1, -1), repeat=3):
                signed = [[s * x for x in ray] for s, ray in zip(signs, rays)]
                result = classify_cone(cone_from_rays(signed))
                assert (result.kind, result.q_factorial) == (ConeClass.SMOOTH, True), signed

    def test_smooth_proper_faces_do_not_make_the_cone_smooth(self):
        # each proper face spans a saturated sublattice, but the rays have index
        # 2 or 3; the lowest nonzero box point sits at level 1, 3/2 and 5/3
        for rays, index, kind in (
            ([[1, 0], [1, 2]], 2, ConeClass.CANONICAL),
            ([[1, 0, 0], [0, 1, 0], [1, 1, 2]], 2, ConeClass.TERMINAL),
            ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 3]], 3, ConeClass.TERMINAL),
        ):
            assert abs(linalg.det_bareiss(rays)) == index
            result = classify_cone(cone_from_rays(rays))
            assert (result.kind, result.q_factorial) == (kind, True), rays

    def test_non_simplicial_is_never_smooth(self):
        # many of these cones have rank rays forming a lattice basis
        rng = random.Random(61)
        unimodular_subsets = 0
        for k in range(60):
            rank = 2 + k % 2
            cone = random_q_gorenstein_cone(rng, rank, extra=1 + k % 2)
            result = classify_cone(cone)
            assert (result.kind is ConeClass.SMOOTH, result.q_factorial) == (False, False), cone.rays
            if any(abs(linalg.det_bareiss(sub)) == 1 for sub in combinations(cone.rays, rank)):
                unimodular_subsets += 1
        assert unimodular_subsets >= 10, unimodular_subsets


class TestToricDiscrepancy:
    def test_quotient_a3(self):
        assert toric_discrepancy(quotient_cone(3), (1, 0)) == Fraction(-1, 3)

    def test_smooth_corner(self):
        assert toric_discrepancy(cone_from_rays([[1, 0], [0, 1]]), (1, 1)) == 1

    def test_odp_point(self):
        assert toric_discrepancy(cone_from_rays(ODP_RAYS), (1, 1, 2)) == 1

    def test_errors(self):
        cone = quotient_cone(3)
        with pytest.raises(NotInConeError):
            toric_discrepancy(cone, (-1, 0))
        with pytest.raises(NotPrimitiveError):
            toric_discrepancy(cone, (2, 0))
        bad = cone_from_rays([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, -1]])
        with pytest.raises(NotQGorensteinError):
            toric_discrepancy(bad, (1, 1, 0))

    def test_classification_carries_m_minus_one_at_each_point(self):
        rng = random.Random(71)
        kinds = Counter()
        cones = [random_q_gorenstein_cone(rng, 2 + k % 3, extra=k % 2) for k in range(120)]
        cones += [random_q_gorenstein_cone(rng, 4, extra=k % 3) for k in range(24)]
        cones += [quotient_cone(a) for a in [*range(1, 13), 600, 4000, 20000]]
        for k, cone in enumerate(cones):
            result = classify_cone(cone)
            m, points = result.support_functional, result.points_at_or_below_one
            expected = tuple(fraction_discrepancy(m, p) for p in points)
            assert result.discrepancies == expected, cone.rays
            assert all(type(value) is Fraction for value in result.discrepancies), cone.rays
            # the verdict from the oracle: no extra point is terminal (or smooth), all at 0 canonical
            extras = [value for p, value in zip(points, expected) if p not in cone.rays]
            verdict = ConeClass.TERMINAL if not extras else ConeClass.KLT_ONLY if any(extras) else ConeClass.CANONICAL
            assert result.kind == verdict or (result.kind, verdict) == (ConeClass.SMOOTH, ConeClass.TERMINAL), cone.rays
            primitive = [(p, value) for p, value in zip(points, result.discrepancies) if gcd(*p) == 1]
            # every primitive point on the 120 small cones, about 20 on the added ones
            for p, value in primitive[:: 1 if k < 120 else max(1, len(primitive) // 20)]:
                assert value == toric_discrepancy(cone, p), (cone.rays, p)
            kinds[result.kind] += 1
        assert min(kinds[kind] for kind in (ConeClass.TERMINAL, ConeClass.CANONICAL, ConeClass.KLT_ONLY)) >= 10, kinds
        bad = cone_from_rays([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, -1]])
        assert classify_cone(bad).kind is ConeClass.NOT_Q_GORENSTEIN
        assert classify_cone(bad).discrepancies == ()

    def test_cross_oracle_with_dual_graph(self):
        # the same singularity computed along two independent code paths
        for a in range(1, 13):
            toric_value = toric_discrepancy(quotient_cone(a), (1, 0))
            graph = DualGraph(vertices=(Vertex(genus=0, self_int=-a),), edges=())
            graph_value = discrepancies(graph).discrepancies[0]
            assert toric_value == graph_value == Fraction(a - 2, -a)


class TestStrongConvexity:
    def test_halfplane_detected(self):
        with pytest.raises(NotStronglyConvexError):
            facets(cone_from_rays([[1, 0], [-1, 1], [0, -1]]))

    def test_strictly_convex(self):
        assert facets(cone_from_rays([[1, 0], [1, 5]])) == ((0, 1), (5, -1))

    def test_matches_caratheodory_scan(self):
        # seeded cones of rank 1-4, many lower-dimensional or with a line; the
        # Caratheodory scan in tests/helpers.py is the oracle, and facets must
        # raise for a line first, then for a lower dimension
        rng = random.Random(31)
        seen = {"line": 0, "lower": 0, "valid": 0, "rank 1": 0}
        for k in range(480):
            cone = random_cone(rng, 1 + k % 4)
            convex = naive_is_strongly_convex(cone)
            lower = matrix_rank(cone.rays) < cone.rank
            expected = NotStronglyConvexError if not convex else NotFullDimensionalError if lower else None
            assert facets_error(cone) is expected, cone.rays
            seen["line" if not convex else "lower" if lower else "valid"] += 1
            seen["rank 1"] += cone.rank == 1
        assert min(seen.values()) >= 60, seen

    def test_one_normals_pass_and_a_complement_only_for_rays_that_span_less(self, monkeypatch):
        # on a valid cone with n rays the rank of the rays says the complement
        # is empty, so facets builds none, crosses each (d-1)-subset of the rays
        # once and takes the rank of the normals; rays of rank r < d build the
        # complement once, and facets crosses the (d-1)-subsets of the rays and
        # its d - r vectors before it raises
        calls = Counter()
        for name in ("integer_kernel", "cross_normal", "matrix_rank"):

            def counted(*args, _name=name, _fn=getattr(linalg, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(linalg, name, counted)
        rng = random.Random(37)
        for k in range(40):
            d = 1 + k % 4
            cone = random_q_gorenstein_cone(rng, d, k % 3 if d > 1 else 0)
            calls.clear()
            facets(cone)
            n = len(cone.rays)
            assert calls == Counter(cross_normal=comb(n, d - 1), matrix_rank=2), cone.rays
        seen = Counter()
        for k in range(120):
            cone = random_cone(rng, 2 + k % 3)
            d, rank, n = cone.rank, matrix_rank(cone.rays), len(cone.rays)
            if rank == d:
                continue
            calls.clear()
            assert facets_error(cone) is not None, cone.rays
            assert calls == Counter(integer_kernel=1, cross_normal=comb(n + d - rank, d - 1), matrix_rank=2), cone.rays
            seen[d] += 1
        assert min(seen[d] for d in (2, 3, 4)) >= 10, seen

    def test_not_full_dimensional_message(self):
        # seeded strongly convex cones whose rays span a space of dimension
        # 1-4, inside Z^2 to Z^5; the dimension is matrix_rank of the rays
        rng = random.Random(41)
        seen = Counter()
        for k in range(400):
            cone = random_cone(rng, 2 + k % 4)
            rank = matrix_rank(cone.rays)
            if rank == cone.rank or not naive_is_strongly_convex(cone):
                continue
            with pytest.raises(NotFullDimensionalError) as info:
                facets(cone)
            assert str(info.value) == f"rays span a space of dimension {rank} < {cone.rank}"
            assert (info.value.code, info.value.field) == ("not_full_dimensional", None)
            seen[rank] += 1
        assert min(seen[rank] for rank in range(1, 5)) >= 5, seen


class TestErrorOrder:
    def test_errors_match_the_oracle(self):
        # seeded cones of rank 1-3 on 1-5 rays: lower-dimensional ones and ones with a
        # line (random_cone), valid ones (random_q_gorenstein_cone), valid cones of one
        # rank less in the hyperplane x_d = 0, and rays drawn at random, often without m.
        # The Caratheodory scan, the rank and whether m exists name the error each
        # entry point raises: a line, then the dimension, then no m
        rng = random.Random(59)
        seen = Counter()
        for k in range(1000):
            d, source = 1 + k // 4 % 3, k % 4
            if source == 0:
                cone = random_cone(rng, d)
            elif source == 1 and d > 1:
                cone = random_q_gorenstein_cone(rng, d, rng.randint(0, 2))
            elif source == 2 and d > 1:
                flat = random_q_gorenstein_cone(rng, d - 1, rng.randint(0, 2) if d > 2 else 0)
                cone = cone_from_rays([ray + (0,) for ray in flat.rays])
            else:
                rays = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, 5))]
                cone = cone_from_rays(sorted({linalg.primitive(r) for r in rays if any(r)}) or [[1] * d])
            if len(cone.rays) > 5:
                continue
            m = reference_functional(cone)
            if not naive_is_strongly_convex(cone):
                expected = NotStronglyConvexError
            elif matrix_rank(cone.rays) < d:
                expected = NotFullDimensionalError
            else:
                expected = NotQGorensteinError if m is None else None
            simplicial = "simplicial" if len(cone.rays) == d else "fewer rays" if len(cone.rays) < d else "not simplicial"
            seen[expected.__name__ if expected else "valid", simplicial] += 1

            def outcome(call):
                try:
                    return call()
                except (NotStronglyConvexError, NotFullDimensionalError, NotQGorensteinError) as error:
                    return type(error)

            points = outcome(lambda: lattice_points_at_or_below_one(cone))
            assert (points if isinstance(points, type) else None) is expected, cone.rays
            result = outcome(lambda: classify_cone(cone))
            if expected is NotQGorensteinError:
                assert (result.kind, result.points_at_or_below_one) == (ConeClass.NOT_Q_GORENSTEIN, ()), cone.rays
            elif expected is None:
                assert (result.support_functional, result.points_at_or_below_one) == (m, tuple(points)), cone.rays
            else:
                assert result is expected, cone.rays
            v = linalg.primitive([sum(col) for col in zip(*cone.rays)]) if expected is None else cone.rays[0]
            value = outcome(lambda: toric_discrepancy(cone, v))
            assert value == (expected or fraction_discrepancy(m, v)), (cone.rays, v)
        for key in (
            ("NotStronglyConvexError", "simplicial"),
            ("NotStronglyConvexError", "not simplicial"),
            ("NotFullDimensionalError", "fewer rays"),
            ("NotFullDimensionalError", "simplicial"),
            ("NotFullDimensionalError", "not simplicial"),
            ("NotQGorensteinError", "not simplicial"),
            ("valid", "simplicial"),
            ("valid", "not simplicial"),
        ):
            assert seen[key] >= 10, seen


class TestFunctionalMemo:
    """q_gorenstein_functional is memoised on its last cone, and the walk takes
    its proof that a cone is valid from it: whatever cone the memo holds, each
    entry point answers as it does with the memo cleared."""

    def test_answers_do_not_depend_on_the_memo(self):
        # seeded cones of rank 2-4: valid ones, with and without extra rays, ones
        # with a line or of a lower dimension (random_cone), and rays drawn at
        # random, often without m.  Before each call the memo is primed with the
        # same cone, an equal one built separately, its rays permuted, or another
        # cone, by one of the four entry points
        rng = random.Random(71)
        pool = []
        for k in range(120):
            d, source = 2 + k % 3, k // 3 % 4
            if source == 0:
                cone = random_cone(rng, d)
            elif source == 1:
                cone = random_q_gorenstein_cone(rng, d, rng.randint(0, 2))
            elif source == 2:
                flat = random_q_gorenstein_cone(rng, d - 1, rng.randint(0, 1) if d > 2 else 0)
                cone = cone_from_rays([ray + (0,) for ray in flat.rays])
            else:
                rays = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d + 2)]
                cone = cone_from_rays(sorted({linalg.primitive(r) for r in rays if any(r)}) or [[1] * d])
            if len(cone.rays) <= 6:
                pool.append(cone)

        def point(cone):
            total = [sum(col) for col in zip(*cone.rays)]
            return linalg.primitive(total) if any(total) else cone.rays[0]

        calls = {
            "functional": q_gorenstein_functional,
            "walk": lattice_points_at_or_below_one,
            "classify": classify_cone,
            "discrepancy": lambda cone: toric_discrepancy(cone, point(cone)),
        }

        def outcome(call, cone):
            try:
                return call(cone)
            except ToolkitError as error:
                return type(error), error.code, str(error), error.field

        seen = Counter()
        for _ in range(1000):
            cone = rng.choice(pool)
            name = rng.choice(sorted(calls))
            q_gorenstein_functional.cache_clear()
            expected = outcome(calls[name], cone)
            primer = rng.choice(["same", "equal", "permuted", "other"])
            rays = list(cone.rays)
            if primer == "equal":
                other = cone_from_rays(rays)
            elif primer == "permuted":
                rng.shuffle(rays)
                other = cone_from_rays(rays)
            else:
                other = cone if primer == "same" else rng.choice(pool)
            q_gorenstein_functional.cache_clear()
            outcome(calls[rng.choice(sorted(calls))], other)
            hits = q_gorenstein_functional.cache_info().hits
            assert outcome(calls[name], cone) == expected, (name, primer, cone.rays, other.rays)
            memo = "hit" if q_gorenstein_functional.cache_info().hits > hits else "miss"
            verdict = expected[0].__name__ if isinstance(expected, tuple) and isinstance(expected[0], type) else "answer"
            seen[name, verdict] += 1
            seen[cone.rank, memo] += 1
        assert min(seen[d, memo] for d in (2, 3, 4) for memo in ("hit", "miss")) >= 50, seen
        for name in ("walk", "classify", "discrepancy"):
            for verdict in ("NotStronglyConvexError", "NotFullDimensionalError", "answer"):
                assert seen[name, verdict] >= 10, seen
        assert min(seen[name, "NotQGorensteinError"] for name in ("walk", "discrepancy")) >= 20, seen


class TestUnimodularInvariance:
    """A cone and its rays are classified up to GL(d, Z) and the order of the
    rays: mapping them through a random unimodular g and shuffling them must
    carry every answer along."""

    def test_classification_follows_the_map(self):
        rng = random.Random(43)
        kinds = Counter()
        for k in range(80):
            d = 1 + k % 4
            cone = random_q_gorenstein_cone(rng, d, rng.randint(0, 2) if d > 1 else 0)
            image, g = unimodular_image(rng, cone)
            before, after = classify_cone(cone), classify_cone(image)
            assert (after.kind, after.q_factorial, after.gorenstein_index) == (
                before.kind,
                before.q_factorial,
                before.gorenstein_index,
            ), cone.rays
            assert len(facets(image)) == len(facets(cone)), cone.rays
            expected = tuple(sorted(mat_vec(g, p) for p in before.points_at_or_below_one))
            assert after.points_at_or_below_one == expected, cone.rays
            kinds[before.kind] += 1
        assert len(kinds) == 4, kinds

    def test_unimodular_images_of_the_orthant_are_smooth(self):
        # the columns of g in GL(d, Z) are a lattice basis
        rng = random.Random(53)
        for k in range(80):
            g, _ = random_unimodular(rng, 1 + k % 4, moves=rng.randint(0, 8))
            rays = list(zip(*g))
            result = classify_cone(cone_from_rays(rays))
            assert (result.kind, result.q_factorial, result.gorenstein_index) == (ConeClass.SMOOTH, True, 1), rays
            assert result.points_at_or_below_one == tuple(sorted(rays)), rays

    def test_facets_error_follows_the_map(self):
        rng = random.Random(47)
        seen = Counter()
        for k in range(300):
            cone = random_cone(rng, 1 + k % 4)
            image, _ = unimodular_image(rng, cone)
            raised = facets_error(cone)
            assert facets_error(image) is raised, cone.rays
            seen[raised] += 1
        assert len(seen) == 3 and min(seen.values()) >= 30, seen


class TestRankOne:
    def test_facets(self):
        assert facets(cone_from_rays([[1]])) == ((1,),)
        assert facets(cone_from_rays([[-1]])) == ((-1,),)

    def test_classify(self):
        result = classify_cone(cone_from_rays([[1]]))
        assert result.kind is ConeClass.SMOOTH
        assert result.gorenstein_index == 1

    def test_line(self):
        cone = cone_from_rays([[1], [-1]])
        with pytest.raises(NotStronglyConvexError):
            facets(cone)
        with pytest.raises(NotStronglyConvexError):
            classify_cone(cone)

    def test_generator_refuses_what_it_cannot_draw(self):
        # in rank 1 at most one primitive point lies on w.x = k > 0; in rank 2
        # the box has fewer points than the rays asked for
        rng = random.Random(3)
        assert len(random_q_gorenstein_cone(rng, 1).rays) == 1
        with pytest.raises(ValueError):
            random_q_gorenstein_cone(rng, 1, extra=1)
        with pytest.raises(ValueError):
            random_q_gorenstein_cone(rng, 2, extra=(2 * CONE_BOX[2] + 1) ** 2)


def continued_fraction_chain(a, q):
    """Self-intersection chain of the minimal resolution of the quotient
    cone with rays (0,1), (a,-q): a/q = b1 - 1/(b2 - 1/(...)), b_i >= 2."""
    bs = []
    num, den = a, q
    while den > 0:
        b = -(-num // den)  # ceiling
        bs.append(b)
        num, den = den, b * den - num
    return bs


def resolution_rays(a, q):
    """Boundary rays of the subdivided cone, from v0=(0,1) to (a,-q)."""
    bs = continued_fraction_chain(a, q)
    rays = [(0, 1), (1, 0)]
    for b in bs:
        prev, cur = rays[-2], rays[-1]
        rays.append((b * cur[0] - prev[0], b * cur[1] - prev[1]))
    return bs, rays


class TestHirzebruchJungCrossOracle:
    def test_resolution_rays_close_up(self):
        for a, q in [(3, 1), (3, 2), (5, 2), (7, 3), (11, 4), (12, 5)]:
            bs, rays = resolution_rays(a, q)
            assert rays[-1] == (a, -q)
            assert all(b >= 2 for b in bs)

    def test_discrepancies_match_vertexwise(self):
        # the toric discrepancy at each interior subdivision ray equals the
        # dual-graph discrepancy of the corresponding exceptional curve in
        # the continued-fraction chain; two fully independent code paths
        rng = random.Random(67)
        drawn = []
        while len(drawn) < 60:
            a = rng.randint(2, 14)
            q = rng.randint(1, a - 1)
            if gcd(a, q) == 1:
                drawn.append((a, q))
        # long chains: a/(a-1) is A_{a-1}, and a/(a-2) for odd a is (a-3)/2
        # (-2)-curves then one (-3)-curve
        long_chains = [(a, a - 1) for a in range(15, 61)] + [(a, a - 2) for a in range(15, 60, 2)]
        for a, q in drawn + long_chains:
            bs, rays = resolution_rays(a, q)
            cone = quotient_cone(a, q)
            chain = DualGraph(
                vertices=tuple(Vertex(genus=0, self_int=-b) for b in bs),
                edges=tuple((i, i + 1, 1) for i in range(len(bs) - 1)),
            )
            report = discrepancies(chain)
            for vertex_idx, ray in enumerate(rays[1:-1]):
                toric_value = toric_discrepancy(cone, ray)
                assert toric_value == report.discrepancies[vertex_idx], (a, q)
            # classification agreement: canonical exactly when the chain is
            # the Du Val A-type (all b_i = 2), klt otherwise
            toric_kind = classify_cone(cone).kind
            from mmpkit.dualgraph import SingularityClass

            if all(b == 2 for b in bs):
                assert toric_kind is ConeClass.CANONICAL
                assert report.singularity_class is SingularityClass.CANONICAL
            else:
                assert toric_kind is ConeClass.KLT_ONLY
                assert report.singularity_class is SingularityClass.KLT
