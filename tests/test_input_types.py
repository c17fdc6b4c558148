"""One rule for integer input across the library: an int that is not a bool,
in a list or tuple.  A rational slot also takes a Fraction, and a vertex
slot takes only a Vertex.  Anything else is InvalidInputError with code
wrong_type on the exact field; nothing is converted."""

from fractions import Fraction

import pytest

from mmpkit import linalg
from mmpkit.dualgraph import (
    Boundary,
    BoundaryComponent,
    BoundaryPoint,
    DualGraph,
    EdgePoint,
    FreePoint,
    Vertex,
    blowup_vertex,
    discrepancies,
)
from mmpkit.errors import InvalidInputError
from mmpkit.kodaira import (
    classify_pair_on_curve,
    curve_kappa,
    curve_plurigenus,
    estimate_kappa,
    fano_pair_on_p1_check,
    plane_curve_genus,
    riemann_roch_curve,
)
from mmpkit.surface import (
    SurfaceLattice,
    adjunction_genus,
    castelnuovo_contract,
    enumerate_minus_one_classes,
    is_ample_kleiman,
    is_nef,
    make_blowup_p2,
    make_quadric,
    pushforward_class,
    riemann_roch_surface,
)
from mmpkit.toric import Cone, classify_cone, cone_from_rays, toric_discrepancy

A3 = Cone(rank=2, rays=((0, 1), (3, -1)))
QUADRIC = make_quadric()
BL1 = make_blowup_p2(1)
V = Vertex(genus=0, self_int=-2)
CHAIN = DualGraph(vertices=(V, V), edges=((0, 1, 1),))
HALF = Fraction(1, 2)


def _surface(**changes):
    return SurfaceLattice(**{"rank": 2, "gram": ((0, 1), (1, 0)), "K": (-2, -2), "curves": ((1, 0),)} | changes)


# (entry point with x in an integer slot, field)
INT_SLOTS = {
    "Cone.rank": (lambda x: Cone(rank=x, rays=((0, 1), (3, -1))), "rank"),
    "Cone.rays": (lambda x: Cone(rank=2, rays=((0, 1), (3, x))), "rays[1][1]"),
    "cone_from_rays": (lambda x: cone_from_rays([[x, 1], [3, -1]]), "rays[0][0]"),
    "toric_discrepancy": (lambda x: toric_discrepancy(A3, (x, 0)), "point[0]"),
    "SurfaceLattice.rank": (lambda x: _surface(rank=x), "rank"),
    "SurfaceLattice.gram": (lambda x: _surface(gram=((0, 1), (1, x))), "gram[1][1]"),
    "SurfaceLattice.K": (lambda x: _surface(K=(-2, x)), "K[1]"),
    "SurfaceLattice.curves": (lambda x: _surface(curves=((1, 0), (x, 1))), "curves[1][0]"),
    "make_blowup_p2": (lambda x: make_blowup_p2(x), "r"),
    "adjunction_genus": (lambda x: adjunction_genus(QUADRIC, (1, x)), "c[1]"),
    "pushforward_class.c": (lambda x: pushforward_class(BL1, (0, x), (1, 0)), "c[1]"),
    "pushforward_class.x": (lambda x: pushforward_class(BL1, (0, 1), (x, 0)), "x[0]"),
    "castelnuovo_contract": (lambda x: castelnuovo_contract(BL1, (x, 1)), "c[0]"),
    "enumerate_minus_one_classes": (lambda x: enumerate_minus_one_classes(BL1, bound=x), "bound"),
    "is_nef": (lambda x: is_nef(QUADRIC, (x, 0)), "divisor[0]"),
    "is_ample_kleiman": (lambda x: is_ample_kleiman(QUADRIC, (1, x)), "divisor[1]"),
    "riemann_roch_surface.divisor": (lambda x: riemann_roch_surface(QUADRIC, (x, 1), 1), "divisor[0]"),
    "riemann_roch_surface.chi0": (lambda x: riemann_roch_surface(QUADRIC, (1, 1), x), "chi0"),
    "Vertex.genus": (lambda x: Vertex(genus=x, self_int=-2), "genus"),
    "Vertex.self_int": (lambda x: Vertex(genus=0, self_int=x), "self_int"),
    "DualGraph.edges": (lambda x: DualGraph(vertices=(V, V), edges=((0, 1, x),)), "edges[0][2]"),
    "BoundaryComponent.meets": (lambda x: BoundaryComponent(coeff=HALF, meets=((0, x),)), "meets[0][1]"),
    "FreePoint": (lambda x: blowup_vertex(CHAIN, None, FreePoint(vertex=x)), "vertex"),
    "EdgePoint": (lambda x: blowup_vertex(CHAIN, None, EdgePoint(i=0, j=x)), "j"),
    "BoundaryPoint": (lambda x: blowup_vertex(CHAIN, None, BoundaryPoint(vertex=0, component=x)), "component"),
    "estimate_kappa.samples": (lambda x: estimate_kappa([[1, 1], [x, 4]]), "samples[1][0]"),
    "estimate_kappa.max_dim": (lambda x: estimate_kappa([[1, 1], [2, 4]], max_dim=x), "max_dim"),
    "riemann_roch_curve.deg": (lambda x: riemann_roch_curve(x, 1), "deg"),
    "riemann_roch_curve.genus": (lambda x: riemann_roch_curve(1, x), "genus"),
    "plane_curve_genus": (lambda x: plane_curve_genus(x), "d"),
    "curve_kappa": (lambda x: curve_kappa(x), "g"),
    "curve_plurigenus": (lambda x: curve_plurigenus(2, x), "m"),
    "primitive": (lambda x: linalg.primitive((x, 2)), "v[0]"),
    "integer_kernel": (lambda x: linalg.integer_kernel([[x, 1]]), "a[0][0]"),
}

# (entry point with x in a list slot, field)
LIST_SLOTS = {
    "Cone.rays": (lambda x: Cone(rank=2, rays=x), "rays"),
    "Cone.ray": (lambda x: Cone(rank=2, rays=((0, 1), x)), "rays[1]"),
    "cone_from_rays": (lambda x: cone_from_rays(x), "rays"),
    "toric_discrepancy": (lambda x: toric_discrepancy(A3, x), "point"),
    "SurfaceLattice.gram": (lambda x: _surface(gram=x), "gram"),
    "SurfaceLattice.gram_row": (lambda x: _surface(gram=((0, 1), x)), "gram[1]"),
    "SurfaceLattice.K": (lambda x: _surface(K=x), "K"),
    "SurfaceLattice.curves": (lambda x: _surface(curves=x), "curves"),
    "SurfaceLattice.curve": (lambda x: _surface(curves=(x,)), "curves[0]"),
    "adjunction_genus": (lambda x: adjunction_genus(QUADRIC, x), "c"),
    "pushforward_class.c": (lambda x: pushforward_class(BL1, x, (1, 0)), "c"),
    "pushforward_class.x": (lambda x: pushforward_class(BL1, (0, 1), x), "x"),
    "castelnuovo_contract": (lambda x: castelnuovo_contract(BL1, x), "c"),
    "is_nef": (lambda x: is_nef(QUADRIC, x), "divisor"),
    "is_ample_kleiman": (lambda x: is_ample_kleiman(QUADRIC, x), "divisor"),
    "riemann_roch_surface": (lambda x: riemann_roch_surface(QUADRIC, x, 1), "divisor"),
    "DualGraph.vertices": (lambda x: DualGraph(vertices=x, edges=()), "vertices"),
    "DualGraph.vertex": (lambda x: DualGraph(vertices=(V, x), edges=()), "vertices[1]"),
    "DualGraph.edges": (lambda x: DualGraph(vertices=(V, V), edges=x), "edges"),
    "DualGraph.edge": (lambda x: DualGraph(vertices=(V, V), edges=(x,)), "edges[0]"),
    "BoundaryComponent.meets": (lambda x: BoundaryComponent(coeff=HALF, meets=x), "meets"),
    "BoundaryComponent.meet": (lambda x: BoundaryComponent(coeff=HALF, meets=(x,)), "meets[0]"),
    "Boundary.components": (lambda x: Boundary(x), "components"),
    "Boundary.component": (lambda x: discrepancies(CHAIN, Boundary((x,))), "components[0]"),
    "estimate_kappa.samples": (lambda x: estimate_kappa(x), "samples"),
    "estimate_kappa.sample": (lambda x: estimate_kappa([[1, 1], x]), "samples[1]"),
    "classify_pair_on_curve": (lambda x: classify_pair_on_curve(x), "coeffs"),
    "fano_pair_on_p1_check": (lambda x: fano_pair_on_p1_check(x), "coeffs"),
    "primitive": (lambda x: linalg.primitive(x), "v"),
    "integer_kernel": (lambda x: linalg.integer_kernel(x), "a"),
    "integer_kernel.row": (lambda x: linalg.integer_kernel([[1, 2], x]), "a[1]"),
}

# (entry point with x in a rational slot, field)
RATIONAL_SLOTS = {
    "BoundaryComponent.coeff": (lambda x: BoundaryComponent(coeff=x), "coeff"),
    "classify_pair_on_curve": (lambda x: classify_pair_on_curve([HALF, x]), "coeffs[1]"),
    "fano_pair_on_p1_check": (lambda x: fano_pair_on_p1_check([x]), "coeffs[0]"),
}


def _fault(call):
    with pytest.raises(InvalidInputError) as info:
        call()
    return info.value.code, info.value.field


# a float, a bool and a numeric string: none is an int, though int() takes each
@pytest.mark.parametrize("bad", [2.5, True, "1"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("name", INT_SLOTS)
def test_integer_slot_rejects_non_int(name, bad):
    call, field = INT_SLOTS[name]
    assert _fault(lambda: call(bad)) == ("wrong_type", field)


# a string of digits is iterable, and still no list of integers
@pytest.mark.parametrize("bad", [5, "12", None], ids=["int", "string", "none"])
@pytest.mark.parametrize("name", LIST_SLOTS)
def test_list_slot_rejects_non_list(name, bad):
    call, field = LIST_SLOTS[name]
    assert _fault(lambda: call(bad)) == ("wrong_type", field)


# Fraction() takes each of these, the float as its binary value
@pytest.mark.parametrize("bad", [0.1, True, "1/2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("name", RATIONAL_SLOTS)
def test_rational_slot_rejects_non_rational(name, bad):
    call, field = RATIONAL_SLOTS[name]
    assert _fault(lambda: call(bad)) == ("wrong_type", field)


def test_label_must_be_a_string():
    assert _fault(lambda: _surface(label=5)) == ("wrong_type", "label")


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: classify_cone(Cone(rank=2, rays=((0, 1), (2.9, -1)))), "rays[1][0]"),
        (lambda: estimate_kappa([[1, 1], [2, 4.9]]), "samples[1][1]"),
        (lambda: is_nef(make_quadric(), (1.9, 0.5)), "divisor[0]"),
        (lambda: discrepancies(DualGraph(vertices=(Vertex(genus=0, self_int=-2.5),), edges=())), "self_int"),
        (lambda: DualGraph(vertices=(V, V), edges=((0, 1, 1.5),)), "edges[0][2]"),
    ],
    ids=["classify_cone", "estimate_kappa", "is_nef", "discrepancies", "edges"],
)
def test_float_inputs_name_their_field(call, field):
    assert _fault(call) == ("wrong_type", field)


def test_accepted_values_are_kept_as_given():
    assert linalg.as_int(-7, "x") == -7
    assert linalg.as_vector([1, 2], "v") == (1, 2)
    assert linalg.as_rows([(1, 2), [3, 4]], "rows") == ((1, 2), (3, 4))
    assert Cone(rank=2, rays=[[0, 1], [3, -1]]) == A3
    assert linalg.as_fraction(HALF, "x") == HALF
    assert type(linalg.as_fraction(-7, "x")) is Fraction
