#!/usr/bin/env python3
"""Walk through the full pipeline on three small invertible polynomials.

For each polynomial: block decomposition, weights, Milnor number, diagonal
symmetry group, equivariant Euler characteristic of the Milnor fibre, the
index of df, its reductions, and the duality report against the transpose.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eqindex import (chi_G_milnor, duality_check, index_df,  # noqa: E402
                     milnor_number, symmetry_group, transpose, validate)
from eqindex.burnside import cardinality, r_k  # noqa: E402

EXAMPLES = [
    ("x^2 + y^3", [[2, 0], [0, 3]]),
    ("x^2 y + y^3", [[2, 1], [0, 3]]),
    ("x^2 + x y^3", [[2, 0], [1, 3]]),
]


def describe(name, matrix):
    print(f"== {name} ==")
    f = validate(matrix)
    print(f"  blocks: {[(a.kind, a.exponents) for a in f.atoms]}")
    print(f"  weights: {tuple(str(q) for q in f.weights)}   mu = {milnor_number(f)}")
    group = symmetry_group(f)
    lat = group.lattice()
    print(f"  |G_f| = {group.order}, subgroup orders "
          f"{[s.order for s in lat.subgroups]}")
    chi = chi_G_milnor(f, group)
    ind = index_df(f, group)
    print(f"  chi^G(M_f)   = {chi}")
    print(f"  ind_rad(df)  = {ind}")
    print(f"  |ind| = {cardinality(ind)}   r_0 = {r_k(ind, 0)}   "
          f"r_1 = {r_k(ind, 1)}")
    rep = duality_check(f)
    print(f"  dual matrix {transpose(f).E}: r_0 {rep.orbit_index} vs "
          f"{rep.dual_orbit_index}, subgroup pairs all match: {rep.all_match}")
    for p in rep.pairs:
        mark = "" if p.matches else "   <-- sign-flagged"
        print(f"    H={p.subgroup_label} (|H|={p.subgroup_order})  "
              f"H^T={p.dual_label} (|H^T|={p.dual_order})  "
              f"r_1: {p.orbifold_index} vs {p.dual_orbifold_index}{mark}")
    print()


def main():
    for name, matrix in EXAMPLES:
        describe(name, matrix)


if __name__ == "__main__":
    main()
