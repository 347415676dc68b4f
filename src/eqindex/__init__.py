"""Exact Burnside-ring invariants of finite group actions.

Subgroup lattices with their Moebius functions, the Burnside ring with its
table of marks and reductions, equivariant / orbifold Euler characteristics
of finite G-complexes, radial and GSV index assembly from fixed-point data,
and the full invertible-polynomial pipeline with Berglund-Huebsch duality
checks.  All arithmetic is exact.
"""

from .burnside import (BurnsideElement, ClassFunction, TableOfMarks,
                       basis_element, cardinality, induce, marks_vector,
                       multiply, one, permutation_character, r_k, restrict,
                       table_of_marks, zero)
from .errors import (EqIndexError, GroupBuildError, InconsistentDataError,
                     InputError, IntegralityError, InvalidPolynomialError,
                     NotASubgroupError, OrderBoundError, PairingError,
                     RegularityError)
from .groups import (FiniteGroup, Subgroup, SubgroupLattice, build_group,
                     cyclic_group, diagonal_group, normalizer, perm_group,
                     trivial_group)
from .gspace import (GSimplicialComplex, StratifiedGData,
                     barycentric_subdivide, build_complex, chi_G_simplicial,
                     chi_G_stratified, chi_k_direct, chi_orbifold_direct,
                     fixed_subcomplex)
from .indices import (FixedSetIndexData, PoincareHopfReport,
                      SingularOrbitDatum, StratumIndexData, equivariant_milnor,
                      fixed_indices_from_index, gsv_assemble_from_dims,
                      gsv_from_radial, higher_order_index, index_from_strata,
                      index_from_quotient, index_from_fixed_indices,
                      induce_orbit_index, poincare_hopf_check)
from .invertible import (Atom, DualityReport, InvertiblePolynomial,
                         chi_G_milnor, duality_check, fixed_locus, index_df,
                         milnor_number, pairing, restrict_to, symmetry_group,
                         transpose, validate)

__version__ = "0.1.0"
