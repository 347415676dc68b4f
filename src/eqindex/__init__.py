"""Exact Burnside-ring invariants of finite group actions.

Subgroup lattices with their Moebius functions, the Burnside ring with its
table of marks and reductions, equivariant / orbifold Euler characteristics
of finite G-complexes, radial and GSV index assembly from fixed-point data,
and the full invertible-polynomial pipeline with Berglund-Huebsch duality
checks.  All arithmetic is exact.

`import eqindex` loads no submodule.  Each name in `__all__` is imported
from its submodule on first access (PEP 562) and then kept here, so
`eqindex.r_k` is `eqindex.burnside.r_k`, and a caller pays only for the
layers it uses: `group info` on the command line never loads `invertible`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "burnside": (
        "BurnsideElement", "ClassFunction", "TableOfMarks", "basis_element",
        "cardinality", "induce", "marks_vector", "multiply", "one",
        "permutation_character", "r_k", "restrict", "table_of_marks", "zero"),
    "errors": (
        "EqIndexError", "GroupBuildError", "InconsistentDataError",
        "InputError", "IntegralityError", "InvalidPolynomialError",
        "NotASubgroupError", "OrderBoundError", "PairingError",
        "RegularityError"),
    "groups": (
        "FiniteGroup", "Subgroup", "SubgroupLattice", "build_group",
        "cyclic_group", "diagonal_group", "normalizer", "perm_group",
        "trivial_group"),
    "gspace": (
        "GSimplicialComplex", "StratifiedGData", "barycentric_subdivide",
        "build_complex", "chi_G_simplicial", "chi_G_stratified",
        "chi_k_direct", "fixed_subcomplex"),
    "indices": (
        "FixedSetIndexData", "PoincareHopfReport", "SingularOrbitDatum",
        "fixed_indices_from_index", "gsv_assemble_from_dims",
        "gsv_from_radial", "index_from_strata", "index_from_fixed_indices",
        "induce_orbit_index", "poincare_hopf_check"),
    "invertible": (
        "Atom", "DualityReport", "InvertiblePolynomial", "chi_G_milnor",
        "duality_check", "index_df", "milnor_number", "pairing",
        "restrict_to", "symmetry_group", "transpose", "validate"),
}

# exported name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
