"""mmpkit: exact-arithmetic toolkit for surface singularities, toric
cones, and the classical surface minimal model program.

``import mmpkit`` loads no layer.  The one hook here (PEP 562 module
``__getattr__``) loads a layer when it is first named: ``mmpkit.toric``
imports that layer and what it uses, and the import binds it here; a
public name loads its home layer the same way and is read from it, never
cached, so patching the home module's binding patches ``mmpkit.<name>``.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it, in the order of __all__
_HOMES = {
    "Boundary": "dualgraph",
    "BoundaryComponent": "dualgraph",
    "BoundaryPoint": "dualgraph",
    "Cone": "toric",
    "ConeClass": "toric",
    "DiscrepancyReport": "dualgraph",
    "DualGraph": "dualgraph",
    "EdgePoint": "dualgraph",
    "FreePoint": "dualgraph",
    "KappaEstimate": "kodaira",
    "MmpOutcome": "surface",
    "MmpStep": "surface",
    "MmpTrace": "surface",
    "PairClass": "kodaira",
    "SingularityClass": "dualgraph",
    "SurfaceLattice": "surface",
    "ToricClassification": "toric",
    "Vertex": "dualgraph",
    "adjunction_genus": "surface",
    "blowup_vertex": "dualgraph",
    "castelnuovo_contract": "surface",
    "check_contractible": "dualgraph",
    "classify_cone": "toric",
    "classify_pair_on_curve": "kodaira",
    "cone_from_rays": "toric",
    "cone_rays_rank2": "surface",
    "curve_kappa": "kodaira",
    "curve_plurigenus": "kodaira",
    "detect_du_val": "dualgraph",
    "discrepancies": "dualgraph",
    "enumerate_minus_one_classes": "surface",
    "estimate_kappa": "kodaira",
    "facets": "toric",
    "fano_pair_on_p1_check": "kodaira",
    "integer_kernel": "linalg",
    "is_ample_kleiman": "surface",
    "is_negative_definite": "linalg",
    "is_nef": "surface",
    "lattice_points_at_or_below_one": "toric",
    "make_blowup_p2": "surface",
    "make_quadric": "surface",
    "plane_curve_genus": "kodaira",
    "primitive": "linalg",
    "pushforward_class": "surface",
    "q_gorenstein_functional": "toric",
    "riemann_roch_curve": "kodaira",
    "riemann_roch_surface": "surface",
    "run_classical_mmp": "surface",
    "solve_exact": "linalg",
    "toric_discrepancy": "toric",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _HOMES.values():
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
