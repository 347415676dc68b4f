import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqindex import (IntegralityError, NotASubgroupError, build_group,
                     cyclic_group, perm_group)
from eqindex.burnside import (BurnsideElement, ClassFunction,
                              basis_element, cardinality,
                              commuting_class_counts, element_from_marks,
                              induce, marks_vector,
                              multiply, one, permutation_character, r_k,
                              restrict, table_of_marks)
from eqindex.gspace import GSimplicialComplex, build_complex, chi_k_direct
from eqindex.indices import fixed_indices_from_index, index_from_fixed_indices
from eqindex.invertible import index_df, symmetry_group, validate
from eqindex.jsonio import lattice_to_json

from complex_suite import suite
from groups_pool import abelian_names, larger, pool, random_elements
from invertible_family import duality_family
from oracles import (burnside_product_oracle, commuting_counts_oracle,
                     commuting_tuples_oracle,
                     expanded_lattice, induce_conjugacy_oracle,
                     marks_coset_oracle, marks_inversion_oracle,
                     r_k_coset_oracle,
                     restrict_coset_oracle)

POOL_NAMES = ["Z2", "Z6", "Z2xZ2", "S3", "D4"]


def _class_by_order(group, order, nth=0):
    lat = group.lattice()
    found = [c for c in range(lat.num_classes) if lat.class_order(c) == order]
    return found[nth]


# -- table of marks --------------------------------------------------------------

def test_marks_z2():
    z2 = pool()["Z2"]
    assert table_of_marks(z2).matrix == [[2, 0], [1, 1]]


def test_marks_s3_diagonal_and_trivial_column():
    s3 = pool()["S3"]
    m = table_of_marks(s3)
    lat = s3.lattice()
    for c in range(lat.num_classes):
        i = lat.representatives[c]
        assert m.matrix[c][c] == lat.normalizer_order(i) // lat.class_order(c)
        assert m.matrix[c][0] == s3.order // lat.class_order(c)
    # m([Z2],[Z2]) = |N|/|H| = 2/2 = 1
    assert m.matrix[1][1] == 1


def test_marks_triangular_wrt_zeta():
    for g in pool().values():
        lat = g.lattice()
        zeta_conj = expanded_lattice(lat).zeta_conj
        m = table_of_marks(g).matrix
        for k in range(lat.num_classes):
            for h in range(lat.num_classes):
                if m[k][h] != 0:
                    assert zeta_conj[h][k] == 1


def test_marks_match_coset_oracle():
    for g in [*pool().values(), *larger().values()]:
        assert table_of_marks(g).matrix == marks_coset_oracle(g), g


# -- ring operations --------------------------------------------------------------

def test_one_is_identity():
    for g in pool().values():
        for b in random_elements(g, 10, seed=5):
            assert one(g) * b == b


def test_multiply_z2_free_square():
    z2 = pool()["Z2"]
    b = basis_element(z2, 0)  # [G/e]
    assert (b * b).coeffs == (2, 0)


def test_multiply_s3_z2_square():
    s3 = pool()["S3"]
    b = basis_element(s3, 1)  # [G/Z2]
    assert (b * b).coeffs == (1, 1, 0, 0)


def test_multiply_matches_orbit_oracle_on_all_basis_pairs():
    for g in pool().values():
        nc = g.lattice().num_classes
        for i in range(nc):
            for j in range(nc):
                got = multiply(basis_element(g, i), basis_element(g, j))
                want = burnside_product_oracle(g, i, j)
                assert got == want, (g, i, j)


def test_non_integral_marks_vector_is_hard_error():
    z2 = pool()["Z2"]
    with pytest.raises(IntegralityError):
        element_from_marks(z2, [1, 0])  # 1 point moved freely: impossible


@pytest.mark.parametrize("marks", [[1], [6, 0, 0, 0, 5]])
def test_marks_vector_of_the_wrong_length_is_value_error(marks):
    # S3 has four classes: a short vector ran out of marks and a long one
    # lost its last mark
    s3 = pool()["S3"]
    assert s3.lattice().num_classes == 4
    with pytest.raises(ValueError, match="^mark vector has wrong length$"):
        element_from_marks(s3, marks)


def _inversion_groups():
    """The pool, S4, A5 and S5, and every G_f of duality_family(24, 3),
    built afresh, with each of its subgroups as a group."""
    yield from pool().values()
    yield from larger().values()
    for f in duality_family(24, 3):
        gf = symmetry_group(validate(f.E))
        yield gf
        for sub in gf.lattice().subgroups:
            yield sub.as_group()


def test_inversion_and_cardinality_match_the_dense_oracle_table():
    # oracles: back substitution over the dense table of counted fixed
    # cosets, which reads no row of the stored table, and the mark at the
    # trivial subgroup
    rng = random.Random(83)
    checked = moved = 0
    for g in _inversion_groups():
        nc = g.lattice().num_classes
        dense = marks_coset_oracle(g)
        # a mark moved by 1 at a class with |N_G(K):K| > 1 leaves the ring
        # there, whatever the marks above it
        off = [c for c in range(nc) if dense[c][c] > 1]
        for b in [basis_element(g, c) for c in range(nc)] + \
                random_elements(g, 50, seed=rng.randrange(10**6)):
            marks = marks_vector(b)
            assert marks_inversion_oracle(dense, marks) == list(b.coeffs) \
                and element_from_marks(g, marks) == b, (g, b)
            assert cardinality(b) == marks[0]
            checked += 1
            if off:
                c = rng.choice(off)
                bad = [m + (h == c) for h, m in enumerate(marks)]
                assert marks_inversion_oracle(dense, bad) is None
                with pytest.raises(IntegralityError):
                    element_from_marks(g, bad)
                moved += 1
    assert checked > 100000 and moved > 100000


@pytest.mark.parametrize("coeffs", [
    [1.5, 0, 0, 2.9],  # was truncated to (1, 0, 0, 2)
    [True, 0, 0, 0],
    [Fraction(1), 0, 0, 0],
    ["1", 0, 0, 0],
])
def test_non_integer_coefficients_are_hard_errors(coeffs):
    with pytest.raises(IntegralityError):
        BurnsideElement(cyclic_group(6), coeffs)


@pytest.mark.parametrize("operation", [
    lambda b: b * 0.5,
    lambda b: b * Fraction(1, 2),
    lambda b: b * None,
    lambda b: b * True,
    lambda b: True * b,
    lambda b: b + 1,
    lambda b: b - 1,
    lambda b: b + None,
], ids=["times 0.5", "times Fraction", "times None", "times True",
        "True times", "plus 1", "minus 1", "plus None"])
def test_operands_that_are_not_coefficients_are_type_errors(operation):
    # were "Burnside elements belong to different groups" or accepted
    b = basis_element(pool()["S3"], 1)
    with pytest.raises(TypeError):
        operation(b)


def test_scalars_and_elements_of_other_groups():
    s3, z6 = pool()["S3"], cyclic_group(6)
    b = basis_element(s3, 1)
    assert (b * 3).coeffs == (3 * b).coeffs == (0, 3, 0, 0)
    for operation in (lambda c: b + c, lambda c: b - c, lambda c: b * c):
        with pytest.raises(ValueError, match="different groups"):
            operation(basis_element(z6, 1))


def test_hashing_an_element_builds_no_table():
    # a hash of the group's fingerprint would build its |G|^2 table: 10^6
    # entries for G_f = Z/1000
    f = validate([[1000]])
    g = symmetry_group(f)
    b = index_df(f, g)
    assert hash(b) == hash(index_df(f, g))
    assert "table" not in g.__dict__


def test_equal_elements_over_equal_groups_hash_alike():
    for build in (lambda: perm_group(3, [[1, 0, 2], [1, 2, 0]]),
                  lambda: cyclic_group(6)):
        g, h = build(), build()
        assert g is not h
        nc = g.lattice().num_classes
        elements = [basis_element(k, c) for k in (g, h) for c in range(nc)]
        for c in range(nc):
            assert elements[c] == elements[nc + c]
            assert hash(elements[c]) == hash(elements[nc + c])
        assert len(set(elements)) == nc


def test_elements_over_different_groups_of_one_order_stay_unequal():
    # the hash reads the order and the coefficients, so these collide
    pairs = [(cyclic_group(6), pool()["S3"]),
             (cyclic_group(4), perm_group(4, [[1, 2, 3, 0]]))]
    for g, h in pairs:
        for c in range(g.lattice().num_classes):
            a, b = basis_element(g, c), basis_element(h, c)
            assert a.coeffs == b.coeffs and a != b and len({a, b}) == 2


def test_cardinality():
    s3 = pool()["S3"]
    assert cardinality(one(s3)) == 1
    assert cardinality(basis_element(s3, 2)) == 2  # [S3/Z3]
    z6 = pool()["Z6"]
    lat = z6.lattice()
    b = one(z6) + basis_element(z6, 0) - basis_element(z6, 1)
    assert cardinality(b) == 1 + 6 - 3


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(POOL_NAMES), st.data())
def test_ring_axioms(name, data):
    g = pool()[name]
    nc = g.lattice().num_classes
    vec = st.lists(st.integers(-5, 5), min_size=nc, max_size=nc)
    a = BurnsideElement(g, data.draw(vec))
    b = BurnsideElement(g, data.draw(vec))
    c = BurnsideElement(g, data.draw(vec))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert one(g) * a == a


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(POOL_NAMES), st.data())
def test_mark_homomorphism_and_cardinality_multiplicative(name, data):
    g = pool()[name]
    nc = g.lattice().num_classes
    vec = st.lists(st.integers(-5, 5), min_size=nc, max_size=nc)
    a = BurnsideElement(g, data.draw(vec))
    b = BurnsideElement(g, data.draw(vec))
    va, vb, vab = marks_vector(a), marks_vector(b), marks_vector(a * b)
    assert vab == tuple(x * y for x, y in zip(va, vb))
    assert cardinality(a * b) == cardinality(a) * cardinality(b)
    assert cardinality(a) == va[0]  # mark at the trivial subgroup


# -- restriction and induction ----------------------------------------------------

def test_restrict_to_whole_group_is_identity():
    z6 = pool()["Z6"]
    whole = z6.lattice().subgroups[-1]
    for b in random_elements(z6, 5, seed=7):
        r = restrict(b, whole)
        assert r.coeffs == b.coeffs


def test_restrict_z6_z3_to_z2():
    z6 = pool()["Z6"]
    lat = z6.lattice()
    z2 = lat.subgroups[1]
    b = basis_element(z6, 2)  # [Z6/Z3]
    r = restrict(b, z2)
    assert r.coeffs == (1, 0)  # [Z2/e]


def test_restrict_s3_z2_to_z3():
    s3 = pool()["S3"]
    lat = s3.lattice()
    z3 = lat.subgroups[4]
    assert z3.order == 3
    b = basis_element(s3, 1)  # [S3/Z2]
    r = restrict(b, z3)
    assert r.coeffs == (1, 0)  # [Z3/e]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(POOL_NAMES), st.data())
def test_restrict_is_ring_homomorphism(name, data):
    g = pool()[name]
    lat = g.lattice()
    nc = lat.num_classes
    vec = st.lists(st.integers(-3, 3), min_size=nc, max_size=nc)
    a = BurnsideElement(g, data.draw(vec))
    b = BurnsideElement(g, data.draw(vec))
    sub = lat.subgroups[data.draw(st.integers(0, len(lat.subgroups) - 1))]
    assert restrict(a * b, sub) == multiply(restrict(a, sub), restrict(b, sub))
    assert restrict(a + b, sub) == restrict(a, sub) + restrict(b, sub)


def test_restrict_matches_coset_oracle():
    groups = [*pool().values(), larger()["S4"], larger()["A5"]]
    groups += [symmetry_group(f) for f in duality_family(24, 3)[::3]]
    for g in groups:
        lat = g.lattice()
        for sub in lat.subgroups:
            for c in range(lat.num_classes):
                b = basis_element(g, c)
                assert restrict(b, sub) == restrict_coset_oracle(b, sub), \
                    (g, c, sub)


def test_stored_class_map_matches_oracles():
    """restrict and induce read the child-to-parent class map that the
    subgroup group's lattice stores; the first call, the second and calls
    with an equal group rebuilt from the same presentation agree with the
    oracles, and a target that is not the parent is still refused."""
    presentations = [g.presentation for g in
                     (*pool().values(), larger()["S4"], larger()["A5"])]
    for p in presentations:
        g, equal = build_group(p), build_group(p)  # nothing stored yet
        assert equal is not g and equal.same_group(g)
        foreign = [build_group(q) for q in presentations if q is not p]
        lat = g.lattice()
        for sub in lat.subgroups:
            child = sub.as_group()
            nc = child.lattice().num_classes
            restricted = [restrict_coset_oracle(basis_element(g, c), sub)
                          for c in range(lat.num_classes)]
            induced = [induce_conjugacy_oracle(basis_element(child, c), g)
                       for c in range(nc)]
            for target in (g, g, equal):
                for c in range(lat.num_classes):
                    assert restrict(basis_element(target, c), sub) == \
                        restricted[c], (p, sub, c)
                for c in range(nc):
                    assert induce(basis_element(child, c), target) == \
                        induced[c], (p, sub, c)
            for other in foreign:
                if not child.same_group(other):
                    with pytest.raises(NotASubgroupError):
                        induce(basis_element(child, 0), other)


def test_induce_examples():
    z6 = pool()["Z6"]
    lat = z6.lattice()
    z2 = lat.subgroups[1]
    child = z2.as_group()
    # I(Z2/e) = [Z6/e]
    assert induce(basis_element(child, 0), z6).coeffs == (1, 0, 0, 0)
    # I(Z2/Z2) = [Z6/Z2]
    assert induce(basis_element(child, 1), z6).coeffs == (0, 1, 0, 0)
    s3 = pool()["S3"]
    z2s = s3.lattice().subgroups[1]
    ch = z2s.as_group()
    assert induce(basis_element(ch, 1), s3).coeffs == (0, 1, 0, 0)


def test_induce_from_whole_group_is_identity():
    s3 = pool()["S3"]
    for b in random_elements(s3, 5, seed=9):
        assert induce(b, s3) == b


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(POOL_NAMES), st.data())
def test_induce_is_additive(name, data):
    g = pool()[name]
    lat = g.lattice()
    sub = lat.subgroups[data.draw(st.integers(0, len(lat.subgroups) - 1))]
    child = sub.as_group()
    nc = child.lattice().num_classes
    vec = st.lists(st.integers(-3, 3), min_size=nc, max_size=nc)
    a = BurnsideElement(child, data.draw(vec))
    b = BurnsideElement(child, data.draw(vec))
    assert induce(a + b, g) == induce(a, g) + induce(b, g)


# -- reductions r_k ---------------------------------------------------------------

def test_r0_of_basis_elements_is_one():
    for g in pool().values():
        for c in range(g.lattice().num_classes):
            assert r_k(basis_element(g, c), 0) == 1


def test_r0_is_the_burnside_lemma_orbit_count():
    # the coset oracle averages fixed cosets over G (Burnside's lemma), so
    # with k = 0 it counts the orbits of each basis G-set
    for seed, name in enumerate(POOL_NAMES):
        g = pool()[name]
        lat = g.lattice()
        orbits = [r_k_coset_oracle(
                      g, lat.subgroups[lat.representatives[c]].members, 0)
                  for c in range(lat.num_classes)]
        for b in random_elements(g, 10, seed=seed):
            assert r_k(b, 0) == sum(a * o for a, o in zip(b.coeffs, orbits))


def test_abelian_r_k_is_subgroup_order_power():
    for name in abelian_names():
        g = pool()[name]
        lat = g.lattice()
        for c in range(lat.num_classes):
            for k in range(4):
                assert r_k(basis_element(g, c), k) == lat.class_order(c) ** k


def test_r1_s3_z3_fixture():
    s3 = pool()["S3"]
    assert r_k(basis_element(s3, 2), 1) == 3


def test_r_k_matches_coset_oracle():
    for name in ["Z6", "S3", "D4"]:
        g = pool()[name]
        lat = g.lattice()
        for c in range(lat.num_classes):
            members = lat.subgroups[lat.representatives[c]].members
            for k in (0, 1, 2):
                assert r_k(basis_element(g, c), k) == \
                    r_k_coset_oracle(g, members, k)


def test_commuting_class_counts_match_tuple_oracle():
    # Z2^4: four disjoint transpositions (2i 2i+1)
    z2_4 = perm_group(8, [[j ^ 1 if j // 2 == i else j for j in range(8)]
                          for i in range(4)])
    cases = [(g, k) for g in pool().values() for k in range(4)]
    cases += [(larger()[n], k) for n in ("S4", "A5") for k in range(3)]
    cases += [(larger()["S5"], k) for k in range(2)] + [(z2_4, 3)]
    cases += [(symmetry_group(f), k)
              for f in duality_family(24, 3)[::9] for k in range(3)]
    assert len(cases) == 155
    for g, k in cases:
        assert list(commuting_class_counts(g, k)) == \
            commuting_counts_oracle(g, k), (g, k)


def test_commuting_class_counts_sum_to_element_and_pair_counts():
    # independent of the lattice: the 1-tuples number |G|, and the commuting
    # pairs |G| times the number of conjugacy classes (|C_G(g)| summed over g)
    groups = list(pool().values()) + list(larger().values())
    groups += [symmetry_group(f) for f in duality_family(24, 3)]
    for g in groups:
        assert sum(commuting_class_counts(g, 0)) == g.order, g
        assert sum(commuting_class_counts(g, 1)) == \
            g.order * len(g.element_conjugacy_classes()), g


@pytest.mark.parametrize("degree, k, total", [(5, 3, 24720), (6, 2, 66240)],
                         ids=["S5-k3", "S6-k2"])
def test_commuting_counts_past_the_old_tuple_bound(degree, k, total):
    # |G|^(k+1) > 10**8: Hall's phi enumerates no tuples, so only k is capped
    g = perm_group(degree, [[1, 0] + list(range(2, degree)),
                            list(range(1, degree)) + [0]])
    assert g.order ** (k + 1) > 10**8
    assert sum(commuting_class_counts(g, k)) == total == \
        commuting_tuples_oracle(g.table, range(g.order), k + 1)


def test_abelian_r3_past_the_old_tuple_bound():
    # Z/12 x Z/12: 144^4 > 10**8; every 4-tuple commutes, so [G/H] has
    # |H|^3 fixed points on average
    g = build_group({"kind": "diagonal",
                     "phases": [[[1, 12], 0], [0, [1, 12]]]})
    lat = g.lattice()
    assert g.order == 144 and len(lat.subgroups) == 90
    for i, sub in enumerate(lat.subgroups):
        assert r_k(basis_element(g, lat.class_of[i]), 3) == sub.order ** 3


def test_k_that_is_not_an_int_is_a_value_error_and_is_not_stored():
    # 2.0 == 2 as a dict key: a float k that reached the per-group cache
    # would make every later count at k = 2 a float
    s3 = perm_group(3, [[1, 0, 2], [1, 2, 0]])
    b = basis_element(s3, 0)
    point = build_complex(s3, [0], [[0]])
    for k in (1.5, 2.0, True, "1"):
        for fn, arg in ((r_k, b), (commuting_class_counts, s3),
                        (chi_k_direct, point)):
            with pytest.raises(ValueError, match="^k must be an integer"):
                fn(arg, k)
    counts = commuting_class_counts(s3, 2)
    assert list(counts) == commuting_counts_oracle(s3, 2)
    assert {type(c) for c in counts} == {int}
    assert type(r_k(b, 2)) is int and r_k(b, 2) == 1
    assert type(chi_k_direct(point, 2)) is int


@pytest.mark.parametrize("degree, gens", [
    (4, [[1, 0, 2, 3], [1, 2, 3, 0]]),
    (5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]),
], ids=["S4", "A5"])
def test_ring_operations_read_no_normalizer(degree, gens):
    # a mark needs only |N_G(K):K| = |G:K| / |[K]|, so neither the group's
    # lattice nor those of its subgroup groups search for normalizers; the
    # group is built here, since other tests read normalizers of the pool's
    g = perm_group(degree, gens)
    lat = g.lattice()
    b = random_elements(g, 1, seed=11)[0]
    table_of_marks(g)
    multiply(b, b)
    for sub in lat.subgroups:
        child = sub.as_group()
        induce(restrict(b, sub), g)
        assert "normalizers" not in vars(child.lattice()), sub
    assert "normalizers" not in vars(lat)


def test_commuting_counts_of_a_diagonal_group_build_no_table(monkeypatch):
    # an abelian group needs no commutator check, so neither r_k nor its
    # lattice reads the Cayley table of a diagonal group
    from eqindex import groups
    calls = []
    real = groups._canonical_table
    monkeypatch.setattr(groups, "_canonical_table",
                        lambda *args: calls.append(args) or real(*args))
    g = build_group({"kind": "diagonal", "phases": [[[1, 4], 0], [0, [1, 6]]]})
    for k in range(1, 3):
        # every (k+1)-tuple commutes, and [G/G] has one fixed point
        assert r_k(one(g), k) == g.order ** k
    assert calls == [] and "table" not in vars(g)


@pytest.mark.parametrize("degree, gens, name", [
    # Z2^4: four disjoint transpositions (2i 2i+1)
    (8, [[j ^ 1 if j // 2 == i else j for j in range(8)] for i in range(4)],
     "octahedron-klein-product"),
    (4, [[1, 0, 2, 3], [1, 2, 3, 0]], "square-dihedral4-subdivided"),
], ids=["Z2^4-and-Klein-complex", "S4-and-D4-complex"])
def test_counts_and_inversions_build_no_moebius_rows(monkeypatch, degree,
                                                     gens, name):
    # commuting counts and the class-poset inversion solve along the
    # lattice rows: on fresh groups only `lattice_to_json` builds Moebius
    # rows; chi_k_direct runs on the complex's own group (Klein four,
    # abelian; D4, not), the other calls on the group of the id
    from eqindex import groups
    calls = []
    real = groups._moebius_rows
    monkeypatch.setattr(groups, "_moebius_rows",
                        lambda up: calls.append(len(up)) or real(up))
    g = perm_group(degree, gens)
    x = dict(suite())[name]
    fresh = GSimplicialComplex(
        build_group(x.group.presentation), x.vertices, x.simplices,
        {pos: x.action[e] for pos, e in enumerate(x.group.generators)})
    for b in [one(g)] + random_elements(g, 3, seed=24):
        for k in range(3):
            r_k(b, k)
        data = fixed_indices_from_index(b)
        assert data.per_class is not None
        assert index_from_fixed_indices(data) == b
    assert [chi_k_direct(fresh, k) for k in range(3)] == \
        [chi_k_direct(x, k) for k in range(3)]
    assert calls == []
    lattice_to_json(g)
    assert len(calls) == (1 if g.is_abelian else 2)  # mu, and class_mu


# -- permutation character ---------------------------------------------------------

def test_character_of_one_is_constant_one():
    for g in pool().values():
        cf = permutation_character(one(g))
        assert all(v == 1 for v in cf.values)


def test_character_s3_z2():
    s3 = pool()["S3"]
    cf = permutation_character(basis_element(s3, 1))
    # classes: identity, transpositions, 3-cycles
    sizes = [len(c) for c in s3.element_conjugacy_classes()]
    assert sorted(zip(sizes, cf.values)) == [(1, 3), (2, 0), (3, 1)]


def test_character_regular_representation():
    z6 = pool()["Z6"]
    cf = permutation_character(basis_element(z6, 0))
    assert cf.values == (6, 0, 0, 0, 0, 0)


def test_character_injective_on_cyclic_groups():
    for n in range(2, 13):
        g = cyclic_group(n)
        lat = g.lattice()
        chars = [permutation_character(basis_element(g, c)).values
                 for c in range(lat.num_classes)]
        # linear independence over Q via exact elimination
        rows = [[Fraction(v) for v in row] for row in chars]
        rank = 0
        cols = len(rows[0])
        for col in range(cols):
            piv = next((r for r in range(rank, len(rows))
                        if rows[r][col] != 0), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            pv = rows[rank][col]
            for r in range(len(rows)):
                if r != rank and rows[r][col] != 0:
                    f = rows[r][col] / pv
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
            rank += 1
        assert rank == lat.num_classes


def test_vectors_of_the_wrong_length_and_foreign_subgroups_are_rejected():
    s3, z6 = pool()["S3"], pool()["Z6"]
    with pytest.raises(ValueError, match="^coefficient vector has wrong length$"):
        BurnsideElement(s3, [1, 0])
    with pytest.raises(ValueError, match="^value vector has wrong length$"):
        ClassFunction(s3, [1])
    with pytest.raises(NotASubgroupError, match="^subgroup belongs to a different"):
        restrict(one(s3), z6.lattice().subgroups[1])
