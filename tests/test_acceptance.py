"""Acceptance suite: one test per criterion, printed one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
checks are exact (integer equality); the stated time budgets are asserted
with the measured values included in the printed line.
"""

import math
import time

from eqindex import (SingularOrbitDatum, chi_G_milnor, duality_check,
                     fixed_indices_from_index, gsv_from_radial, index_df,
                     index_from_fixed_indices, poincare_hopf_check,
                     symmetry_group, validate)
from eqindex.burnside import (basis_element, cardinality, marks_vector, one,
                              r_k, restrict)
from eqindex.gspace import chi_G_simplicial, chi_k_direct, fixed_subcomplex
from eqindex.indices import FixedSetIndexData
from eqindex.invertible import milnor_number, transpose

from complex_suite import suite
from groups_pool import abelian_names, pool, random_elements
from invertible_family import duality_family, mu_oracle_family
from oracles import (cyclotomic_trace, jacobian_basis, milnor_number_jacobian,
                     r_k_coset_oracle)

POOL_NAMES = ["Z2", "Z6", "Z2xZ2", "S3", "D4"]

GROUND_TRUTH = [
    # (E, coefficients of ind_rad(df) in canonical class order, cardinality)
    ([[2, 0], [0, 3]], (1, -1, -1, 1), 2),
    ([[2, 1], [0, 3]], (1, -1, 0, 1), 4),
    ([[2, 0], [1, 3]], (1, 0, -1, 1), 5),
]


def _line(num, name, detail):
    print(f"ACCEPTANCE {num} [{name}] PASS ({detail})")


def test_criterion_1_ring_axioms_and_marks():
    t0 = time.time()
    for name in POOL_NAMES:
        g = pool()[name]
        elems = random_elements(g, 200, seed=101)
        for i, a in enumerate(elems):
            b = elems[(i + 7) % 200]
            c = elems[(i + 13) % 200]
            ab = a * b
            assert ab == b * a
            assert (ab) * c == a * (b * c)
            assert a * (b + c) == ab + a * c
            assert one(g) * a == a
            va, vb, vab = marks_vector(a), marks_vector(b), marks_vector(ab)
            assert vab == tuple(x * y for x, y in zip(va, vb))
    dt = time.time() - t0
    assert dt < 10.0
    _line(1, "burnside-ring-axioms", f"5 groups x 200 elements, {dt:.1f}s")


def test_criterion_2_moebius_round_trip():
    t0 = time.time()
    for name in POOL_NAMES:
        g = pool()[name]
        for b in random_elements(g, 200, seed=103):
            data = fixed_indices_from_index(b)
            # both flavors are inverted and compared inside
            assert index_from_fixed_indices(data) == b
            # and the subgroup flavor alone must agree
            sub_only = FixedSetIndexData(g, data.per_subgroup, None)
            assert index_from_fixed_indices(sub_only) == b
    dt = time.time() - t0
    assert dt < 10.0
    _line(2, "moebius-round-trip", f"5 groups x 200 elements, {dt:.1f}s")


def test_criterion_3_mark_identity_on_simplicial_suite():
    complexes = suite()
    assert len(complexes) >= 10
    checks = 0
    for name, x in complexes:
        chi = chi_G_simplicial(x)
        mv = marks_vector(chi)
        lat = x.group.lattice()
        for i, sub in enumerate(lat.subgroups):
            assert fixed_subcomplex(x, sub).euler_characteristic() == \
                mv[lat.class_of[i]], (name, lat.labels[i])
            checks += 1
    _line(3, "mark-identity", f"{len(complexes)} complexes, {checks} subgroup checks")


def test_criterion_4_higher_order_consistency():
    checks = 0
    for name, x in suite():
        chi = chi_G_simplicial(x)
        lat = x.group.lattice()
        for k in (0, 1, 2):
            assert chi_k_direct(x, k) == r_k(chi, k), (name, k)
            # chi_k_direct and r_k share commuting_class_counts; the oracle
            # enumerates commuting tuples on cosets by itself
            oracle = sum(a * r_k_coset_oracle(
                x.group, lat.subgroups[lat.representatives[c]].members, k)
                for c, a in enumerate(chi.coeffs) if a)
            assert chi_k_direct(x, k) == oracle, (name, k)
            checks += 1
    for name in abelian_names():
        g = pool()[name]
        lat = g.lattice()
        for c in range(lat.num_classes):
            for k in (0, 1, 2):
                assert r_k(basis_element(g, c), k) == lat.class_order(c) ** k
                checks += 1
    _line(4, "r_k-consistency", f"{checks} comparisons, k in {{0,1,2}}")


def test_criterion_5_invertible_ground_truth():
    for E, coeffs, card in GROUND_TRUTH:
        t0 = time.time()
        f = validate(E)
        diag = symmetry_group(f)
        ind = index_df(f, diag)
        dt = time.time() - t0
        assert ind.coeffs == coeffs
        assert cardinality(ind) == card
        # oracle confirmations: mu from the Jacobian ideal, chi from marks
        assert cardinality(ind) == milnor_number_jacobian(f.E)
        mv = marks_vector(chi_G_milnor(f, diag))
        assert mv[0] == 1 + (-1) ** (f.n - 1) * milnor_number_jacobian(f.E)
        assert dt < 1.0
    _line(5, "invertible-ground-truth", "3 fixtures, oracle-confirmed")


def test_criterion_6_milnor_oracle_equality():
    t0 = time.time()
    family = mu_oracle_family()
    for f in family:
        assert milnor_number(f) == milnor_number_jacobian(f.E), f.E
    dt = time.time() - t0
    _line(6, "milnor-orlik-vs-jacobian", f"{len(family)} fixtures, {dt:.1f}s")


def test_criterion_7_duality_suite():
    t0 = time.time()
    family = duality_family(60, 3)
    flagged = 0
    pair_checks = 0
    for f in family:
        rep = duality_check(f)
        assert rep.orbit_match, f.E
        for p in rep.pairs:
            pair_checks += 1
            if f.n % 2 == 0:
                # the verbatim orbifold-index coincidence
                assert p.matches, (f.E, p.subgroup_label)
            else:
                # odd dimension: the theorem gives coincidence up to the
                # sign (-1)^n; pairs that differ by the sign are counted
                assert p.sign_matches, (f.E, p.subgroup_label)
                if not p.matches:
                    flagged += 1
    dt = time.time() - t0
    assert dt < 120.0
    _line(7, "berglund-huebsch-duality",
          f"{len(family)} fixtures, {pair_checks} subgroup pairs, "
          f"{flagged} odd-dimension pairs flagged sign-only, {dt:.1f}s")


def test_criterion_8_restriction_compatibility():
    t0 = time.time()
    family = duality_family(60, 3)
    checks = 0
    for f in family:
        diag = symmetry_group(f)
        ind = index_df(f, diag)
        for sub in diag.lattice().subgroups:
            assert restrict(ind, sub) == \
                index_df(f, sub.as_group()), (f.E, sub.order)
            checks += 1
    dt = time.time() - t0
    _line(8, "restriction-compatibility",
          f"{len(family)} fixtures, {checks} subgroups, {dt:.1f}s")


def test_criterion_9_poincare_hopf():
    # sphere with a half-turn: two fixed points of local index 1
    z2 = pool()["Z2"]
    whole = z2.lattice().subgroups[-1]
    chi = 2 * one(z2)
    orbits = [SingularOrbitDatum(whole, one(whole.as_group())),
              SingularOrbitDatum(whole, one(whole.as_group()))]
    assert poincare_hopf_check(chi, orbits).passed

    passes = 0
    for name, x in suite():
        g = x.group
        lat = g.lattice()
        chi = chi_G_simplicial(x)
        data = []
        done = set()
        for s in x.sorted_simplices():
            if s in done:
                continue
            orbit = {x.image(e, s) for e in g.elements()}
            done |= orbit
            stab = lat.subgroups[lat.subgroup_index(
                frozenset(e for e in g.elements() if x.image(e, s) == s))]
            data.append(SingularOrbitDatum(
                stab, (-1) ** (len(s) - 1) * one(stab.as_group())))
        assert poincare_hopf_check(chi, data).passed, name
        passes += 1
        # a deliberately corrupted index must be detected
        corrupted = chi + basis_element(g, 0)
        rep = poincare_hopf_check(corrupted, data)
        assert not rep.passed and not rep.discrepancy.is_zero(), name
    _line(9, "poincare-hopf-checker",
          f"rotation model + {passes} orbit-type decompositions + corruption")


def test_criterion_10_gsv_relation():
    family = duality_family(60, 3)
    for f in family:
        diag = symmetry_group(f)
        chi = chi_G_milnor(f, diag)
        chibar = chi - one(diag)
        ind = index_df(f, diag)
        # ind_rad(df) + reduced chi of the fibre vanishes (df case)
        assert gsv_from_radial(ind, chibar).is_zero(), f.E
        # for the radial field the GSV index is the full chi^G of the fibre
        assert gsv_from_radial(one(diag), chibar) == chi, f.E
    _line(10, "gsv-radial-relation", f"{len(family)} fixtures")


def test_criterion_11_equivariant_saito_duality():
    # Ebeling and Gusein-Zade, "Saito duality between Burnside rings for
    # invertible polynomials": [G_f/H] -> [G_{f~}/H^T] carries index_df(f)
    # to (-1)^n index_df(f~).  G_{f~}'s side is read from its own lattice.
    t0 = time.time()
    family = duality_family(60, 3)
    pairs = unsigned_failures = 0
    for f in family:
        ft = f if f.E == tuple(zip(*f.E)) else transpose(f)
        gf, gft = symmetry_group(f), symmetry_group(ft)
        ind, dual_ind = index_df(f, gf), index_df(ft, gft)
        lat, dual_lat = gf.lattice(), gft.lattice()
        unsigned = False
        for p in duality_check(f).pairs:
            a = ind.coeffs[lat.class_index_by_label(p.subgroup_label)]
            a_dual = dual_ind.coeffs[dual_lat.class_index_by_label(p.dual_label)]
            assert a_dual == (-1) ** f.n * a, (f.E, p.subgroup_label)
            unsigned |= a_dual != a
            pairs += 1
        unsigned_failures += unsigned
    dt = time.time() - t0
    # without the sign the check must fail somewhere, or it shows nothing
    assert unsigned_failures > 0
    _line(11, "equivariant-saito-duality",
          f"{len(family)} fixtures, {pairs} subgroup pairs, "
          f"{unsigned_failures} fixtures fail without the sign, {dt:.1f}s")


def test_criterion_12_wall_character():
    # Wall, "A note on symmetry of singularities": chi(V_f^g) = 1 +
    # (-1)^(n-1) tr(g | Omega_f).  Omega_f has the basis x^e dx over the
    # standard monomials e of the Jacobian ideal (Buchberger, in the
    # oracles), and g with phases k/den acts on x^e dx by zeta_den^(sum
    # k_j (e_j + 1)); the trace is taken exactly.  The left side is the
    # mark of chi^G(M_f) at <g>, the value the table of marks inverts.
    t0 = time.time()
    family = duality_family(24, 3)
    pairs = 0
    for f in family:
        gf = symmetry_group(f)
        lat = gf.lattice()
        marks = marks_vector(chi_G_milnor(f, gf))
        basis = jacobian_basis(f.E)
        for g, key in enumerate(gf.keys):
            # g has order o = den / gcd(den, key): its phases are multiples
            # of 1/o, so zeta_den^s is zeta_o^(s / (den / o))
            step = math.gcd(gf.denominator, *key)
            order = gf.denominator // step
            counts = [0] * order
            for e in basis:
                s = sum(k * (x + 1) for k, x in zip(key, e))
                counts[s // step % order] += 1
            chi = marks[lat.class_of[lat.cyclic_of[g]]]
            assert chi == 1 + (-1) ** (f.n - 1) * cyclotomic_trace(counts), \
                (f.E, key)
            pairs += 1
    dt = time.time() - t0
    assert pairs == 5840 and dt < 3.0
    _line(12, "wall-character",
          f"{len(family)} fixtures, {pairs} (fixture, element) pairs, "
          f"{dt:.1f}s")
