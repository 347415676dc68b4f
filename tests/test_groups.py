import copy
import math
import pickle
import random
import time

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from eqindex import (GroupBuildError, NotASubgroupError, OrderBoundError,
                     Subgroup, build_group, cyclic_group, diagonal_group,
                     normalizer, perm_group, trivial_group)

from eqindex import groups
from eqindex.burnside import (BurnsideElement, commuting_class_counts,
                              table_of_marks)
from eqindex.invertible import symmetry_group, transpose, validate

from groups_pool import abelian_names, larger, pool
from invertible_family import duality_family
from oracles import (closure_oracle, expanded_lattice, leq_oracle,
                     marks_coset_oracle, moebius_oracle,
                     parent_classes_oracle, subgroup_lattice_oracle,
                     zeta_conj_oracle)
from s6_corpus import S6_CORPUS


def test_cyclic_closure_from_3cycle():
    g = perm_group(3, [[1, 2, 0]])
    assert g.order == 3


def test_symmetric_group_on_3_points():
    g = perm_group(3, [[1, 0, 2], [1, 2, 0]])
    assert g.order == 6
    assert not g.is_abelian


def test_diagonal_phase_generator_order_6():
    g = diagonal_group([[Fraction(-1, 6), Fraction(1, 3)]])
    assert g.order == 6
    assert g.is_abelian


def test_identity_and_inverses():
    for g in pool().values():
        e = g.identity
        for i in g.elements():
            assert g.mul(i, e) == i == g.mul(e, i)
            assert g.mul(i, g.inverse[i]) == e
            assert g.mul(g.inverse[i], i) == e


def test_closure_property():
    for g in pool().values():
        els = set(g.elements())
        for a in g.elements():
            for b in g.elements():
                assert g.mul(a, b) in els


def test_non_invertible_generator_rejected():
    with pytest.raises(GroupBuildError):
        perm_group(3, [[0, 0, 1]])


def test_order_bound_enforced():
    with pytest.raises(OrderBoundError):
        diagonal_group([[Fraction(1, 2001)]])
    # the bound is inclusive: multiples are walked while m |H| <= MAX_ORDER
    assert diagonal_group([[Fraction(1, 2000)]]).order == 2000


def _enumerated_diagonal(g):
    """The generic breadth-first walk on g's generators, composing integer
    phase vectors as tuples."""
    d = g.denominator
    return groups._enumerate(
        (0,) * len(g.keys[0]), g.generator_keys,
        lambda a, b: tuple((x + y) % d for x, y in zip(a, b)))


def _assert_lazy_table_matches_the_walk(g):
    """A fresh diagonal group has no table or inverses until they are first
    read; then its table, identity and id are those of the generic walk,
    and the inverse of each key is its negative."""
    assert "table" not in vars(g) and "inverse" not in vars(g)
    keys, table, identity = _enumerated_diagonal(g)
    eager = groups.FiniteGroup(keys, table, identity, g.presentation,
                               g.generator_keys, denominator=g.denominator)
    assert (g.keys, g.table, g.identity) == (keys, table, identity)
    assert [g.keys[i] for i in g.inverse] == \
        [tuple(-x % g.denominator for x in k) for k in keys]
    assert g.fingerprint == eager.fingerprint


def test_diagonal_cosets_match_the_generic_walk():
    # a repeated generator and one already in the subgroup before it
    redundant = diagonal_group([
        [Fraction(1, 4), Fraction(1, 6)], [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 6)], [0, Fraction(1, 2)]])
    assert redundant.order == 24
    # fresh polynomials, so that no group has been read before
    symmetry_groups = [symmetry_group(h) for f in duality_family(60, 3)
                       for h in (validate(f.E), transpose(f))]
    for g in symmetry_groups + [redundant]:
        _assert_lazy_table_matches_the_walk(g)


def test_lazy_diagonal_tables_match_the_eager_walk():
    # the symmetry groups of duality_family(60, 3) are checked above
    fresh = [build_group(g.presentation) for g in pool().values()
             if g.denominator is not None]
    fresh += [diagonal_group([[]]), diagonal_group([[Fraction(1, 2000)]])]
    for g in fresh:
        _assert_lazy_table_matches_the_walk(g)


def test_zero_dimensional_diagonal_group_is_trivial():
    # with no coordinates there are no columns: the identity () must be a
    # known element before any multiple is formed, since keys zipped from
    # zero columns are no keys at all and a walk that waited for m g to
    # show up among them would never stop
    g = diagonal_group([[]])
    assert g.order == 1 and g.keys == [()] and g.table == [[0]]


@pytest.mark.parametrize("phases", [
    [[Fraction(1, 999983)]],
    [[Fraction(1, 1000003)]],
    [[Fraction(1, 10**30), Fraction(1, 3)]],
    [[Fraction(1, 50), 0], [0, Fraction(1, 41)]],
])
def test_diagonal_order_bound_rejects_at_once(phases):
    # the walk for a generator stops after MAX_ORDER // |H| multiples: an
    # unbounded walk would form all 999983 multiples of 1/999983, and 1/41
    # must be rejected against |H| = 50, since 41 alone is within the bound;
    # the same walk bounds a phase's denominator
    start = time.perf_counter()
    with pytest.raises(OrderBoundError):
        diagonal_group(phases)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("presentation, field", [
    # each was truncated: degree 3, image 1, phase 1/4, entry 0
    ({"kind": "perm", "degree": 3.5, "generators": [[1, 2, 0]]}, "degree"),
    ({"kind": "perm", "degree": "3", "generators": [[1, 2, 0]]}, "degree"),
    ({"kind": "perm", "degree": 3, "generators": [[1.0, 2, 0]]},
     "permutation image"),
    ({"kind": "diagonal", "phases": [[(1.5, 4)]]}, "phase numerator"),
    ({"kind": "diagonal", "phases": [[(1, 4.0)]]}, "phase denominator"),
    ({"kind": "table", "table": [[0, 1], [1, 0.9]]}, "table entry"),
])
def test_build_group_rejects_non_integers(presentation, field):
    with pytest.raises(GroupBuildError, match=field):
        build_group(presentation)


@pytest.mark.parametrize("presentation, field", [
    # each raised ZeroDivisionError, KeyError, TypeError or ValueError
    ({"kind": "diagonal", "phases": [[(1, 0)]]}, "zero denominator"),
    ({"kind": "diagonal"}, "phases"),
    ({"kind": "perm", "generators": [[1, 0]]}, "degree"),
    ({"kind": "perm", "degree": 2}, "generators"),
    ({"kind": "table"}, "table"),
    ({"kind": "diagonal", "phases": 5}, "phases"),
    ({"kind": "diagonal", "phases": [5]}, "phase vector"),
    ({"kind": "diagonal", "phases": [[None]]}, "phase"),
    ({"kind": "perm", "degree": 2, "generators": [5]}, "generator"),
    ({"kind": "table", "table": [5]}, "table row"),
    ({"kind": "diagonal", "phases": [["x"]]}, "phase"),
    # each was accepted: as 1/2, 1/2 and 1/2
    ({"kind": "diagonal", "phases": [["1/2"]]}, "phase"),
    ({"kind": "diagonal", "phases": [[0.5]]}, "phase"),
    ({"kind": "diagonal", "phases": [[(1, 2, 3)]]}, "phase"),
    # not a dict at all
    ([1], "^presentation must be a dict"),
    (None, "^presentation must be a dict"),
])
def test_build_group_rejects_malformed_presentations(presentation, field):
    with pytest.raises(GroupBuildError, match=field):
        build_group(presentation)


def test_build_group_accepts_every_phase_form():
    # an int, a Fraction, and a pair of ints as a tuple or a list
    g = diagonal_group([[1, Fraction(1, 2), (1, 3), [-1, 6]]])
    assert g.order == 6 and g.denominator == 6


def test_bad_table_rejected():
    with pytest.raises(GroupBuildError):
        build_group({"kind": "table", "table": [[0, 1], [0, 1]]})
    # a Latin square that is not associative
    rps = [[0, 1, 2, 3, 4],
           [1, 2, 3, 4, 0],
           [2, 3, 4, 0, 1],
           [3, 4, 0, 1, 2],
           [4, 0, 1, 2, 3]]
    rps[1][1], rps[1][2] = rps[1][2], rps[1][1]
    rps[2][1], rps[2][2] = rps[2][2], rps[2][1]
    with pytest.raises(GroupBuildError):
        build_group({"kind": "table", "table": rps})


def _switched_cyclic_table(n):
    """Z/n (n even) with one intercalate switched: rows 1 and 1 + n/2 meet
    columns 2 and 2 + n/2 in a 2x2 Latin subsquare, and swapping its two
    symbols keeps a Latin square with identity 0 that is no longer a group
    (two group tables of the same order differ in more than four cells)."""
    h = n // 2
    t = [[(x + y) % n for y in range(n)] for x in range(n)]
    t[1][2], t[1][2 + h] = t[1][2 + h], t[1][2]
    t[1 + h][2], t[1 + h][2 + h] = t[1 + h][2 + h], t[1 + h][2]
    return t


def test_non_associative_table_above_order_64_rejected():
    # a sample of triples can miss the few bad ones: at order 176 the
    # 5000 triples of random.Random(0) do
    t = _switched_cyclic_table(176)
    assert any(t[t[a][b]][c] != t[a][t[b][c]]
               for a in (1, 89) for b in range(176) for c in range(176))
    with pytest.raises(GroupBuildError):
        build_group({"kind": "table", "table": t})
    # the unswitched table is the cyclic group
    z = build_group({"kind": "table",
                     "table": [[(x + y) % 176 for y in range(176)]
                               for x in range(176)]})
    assert z.order == 176 and z.is_abelian


def _direct_table(elements, compose):
    """The table of the listed elements (in group index order), each product
    composed and looked up."""
    index = {x: i for i, x in enumerate(elements)}
    return [[index[compose(a, b)] for b in elements] for a in elements]


def test_perm_tables_match_direct_composition():
    compose = lambda a, b: tuple(a[x] for x in b)
    s4 = perm_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    a5 = perm_group(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]])
    assert (s4.order, a5.order) == (24, 60)
    for g in (s4, a5, pool()["D4"], pool()["S3"]):
        assert g.table == _direct_table(g.keys, compose)


def test_diagonal_tables_match_direct_composition():
    # phases composed as Fractions mod 1, independent of the integer keys
    from invertible_family import duality_family
    from eqindex import symmetry_group
    compose = lambda a, b: tuple((x + y) % 1 for x, y in zip(a, b))
    groups = [cyclic_group(6), diagonal_group([[Fraction(1, 2), 0],
                                               [0, Fraction(1, 3)]])]
    groups += [symmetry_group(f) for f in duality_family(24, 3)[::9]]
    for g in groups:
        phases = [g.phases(i) for i in g.elements()]
        assert g.table == _direct_table(phases, compose)


def test_ids_are_pinned():
    # literal ids: a diagonal group's id hashes its phases as Fractions
    z6 = cyclic_group(6)
    assert z6.fingerprint == "G6-8d4588526e"
    assert [s.as_group().fingerprint for s in z6.lattice().subgroups] == \
        ["G1-17bd330ce7", "G2-4b1f7ec94a", "G3-1d1d2725ac", "G6-8d4588526e"]
    assert diagonal_group([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) \
        .fingerprint == "G6-7616eab582"


def test_diagonal_keys_are_integers_over_the_denominator():
    g = diagonal_group([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert g.denominator == 6
    assert g.keys == sorted((3 * i, 2 * j) for i in range(2) for j in range(3))
    assert g.generator_keys == [(3, 0), (0, 2)]
    assert g.phases(g.index[(3, 4)]) == (Fraction(1, 2), Fraction(2, 3))
    assert g.element_repr(g.index[(3, 4)]) == [[1, 2], [2, 3]]
    assert g.is_abelian
    # a table group with the same table is another group
    t = build_group({"kind": "table", "table": g.table})
    assert not t.same_group(g) and t.denominator is None
    with pytest.raises(TypeError):
        t.phases(0)


def test_equal_diagonal_groups_compare_without_tables(monkeypatch):
    # keys over one denominator fix the group law, so neither table is built
    def forbidden(*args):
        raise AssertionError("a Cayley table was built")

    monkeypatch.setattr(groups, "_canonical_table", forbidden)
    phases = [[Fraction(1, 4), 0, Fraction(1, 2)], [0, Fraction(1, 3), 0]]
    g, h = diagonal_group(phases), diagonal_group(phases)
    assert g is not h and g.same_group(h) and h.same_group(g)
    coeffs = range(g.lattice().num_classes)
    assert BurnsideElement(g, coeffs) == BurnsideElement(h, coeffs)
    assert BurnsideElement(g, coeffs) != BurnsideElement(h, [0] * len(coeffs))
    assert not g.same_group(diagonal_group(phases[:1]))


# -- lattices ------------------------------------------------------------------

def test_z6_lattice_is_divisor_lattice():
    lat = cyclic_group(6).lattice()
    assert [s.order for s in lat.subgroups] == [1, 2, 3, 6]
    assert lat.num_classes == 4
    assert all(len(c) == 1 for c in lat.classes)


def test_s3_lattice():
    lat = pool()["S3"].lattice()
    assert len(lat.subgroups) == 6
    assert [s.order for s in lat.subgroups] == [1, 2, 2, 2, 3, 6]
    assert lat.num_classes == 4
    assert [len(c) for c in lat.classes] == [1, 3, 1, 1]


def test_s3_moebius_to_top():
    mu_sub = expanded_lattice(pool()["S3"].lattice()).mu_sub
    # mu'(e, e)=1, three mu'(e, Z2)=-1, mu'(e, Z3)=-1, forcing 3 at the top
    assert mu_sub[0][0] == 1
    assert mu_sub[0][1] == mu_sub[0][2] == mu_sub[0][3] == -1
    assert mu_sub[0][4] == -1
    assert mu_sub[0][5] == 3


def test_moebius_delta_identity_on_sub_poset():
    for g in pool().values():
        lat = expanded_lattice(g.lattice())
        ns = len(lat.leq)
        for h in range(ns):
            for l in range(ns):
                if not lat.leq[h][l]:
                    continue
                total = sum(lat.mu_sub[h][k] for k in range(ns)
                            if lat.leq[h][k] and lat.leq[k][l])
                assert total == (1 if h == l else 0)


def test_moebius_delta_identity_on_conj_poset():
    for g in pool().values():
        lat = expanded_lattice(g.lattice())
        nc = len(lat.zeta_conj)
        for a in range(nc):
            for b in range(nc):
                if not lat.zeta_conj[a][b]:
                    continue
                total = sum(lat.mu_conj[a][k] for k in range(nc)
                            if lat.zeta_conj[a][k] and lat.zeta_conj[k][b])
                assert total == (1 if a == b else 0)


def test_class_size_is_index_of_normalizer():
    for g in pool().values():
        lat = g.lattice()
        for c, cls in enumerate(lat.classes):
            i = lat.representatives[c]
            assert len(cls) == g.order // lat.normalizer_order(i)


def _diagonal_power(n, rank):
    """(Z/n)^rank as a diagonal group."""
    return diagonal_group([[Fraction(1, n) if i == j else 0
                            for j in range(rank)] for i in range(rank)])


def _q8():
    """The quaternion group in its regular permutation representation."""
    return perm_group(8, [[1, 3, 5, 6, 2, 7, 0, 4], [2, 4, 3, 7, 6, 1, 5, 0]])


def _s4_z2():
    """S4 x Z/2 of degree 6: S4 on the points 0..3, Z/2 swapping 4 and 5."""
    return perm_group(6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5],
                          [0, 1, 2, 3, 5, 4]])


# group -> (builder, number of subgroups); the diagonal ones are walked on
# translation rows built from their keys, the others on table rows
ORACLE_GROUPS = {
    "Z2": (lambda: pool()["Z2"], 2),
    "Z6": (lambda: pool()["Z6"], 4),
    "Z2xZ2": (lambda: pool()["Z2xZ2"], 5),
    "S3": (lambda: pool()["S3"], 6),
    "D4": (lambda: pool()["D4"], 10),
    "Q8": (_q8, 6),
    "S4": (lambda: perm_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]]), 30),
    "S4xZ2": (_s4_z2, 98),
    "A5": (lambda: perm_group(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]), 59),
    "S5": (lambda: perm_group(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]), 156),
    "Z2^5": (lambda: _diagonal_power(2, 5), 374),
    "Z6^3": (lambda: _diagonal_power(6, 3), 448),
    "Z10xZ50": (lambda: diagonal_group([[Fraction(1, 10), 0],
                                        [0, Fraction(1, 50)]]), 70),
}


def _assert_lattice_matches_oracle(group):
    lat = group.lattice()
    members, labels, mu_sub, class_of = subgroup_lattice_oracle(group)
    assert [s.members for s in lat.subgroups] == members
    assert lat.labels == labels
    assert expanded_lattice(lat).mu_sub == mu_sub
    assert lat.class_of == class_of
    assert lat.up == _nonzero(leq_oracle(lat))


@pytest.mark.parametrize("name", list(ORACLE_GROUPS))
def test_lattice_matches_all_pairs_oracle(name):
    build, count = ORACLE_GROUPS[name]
    group = build()
    _assert_lattice_matches_oracle(group)
    assert len(group.lattice().subgroups) == count


def test_up_set_rows_share_one_int_per_subgroup():
    # ints above 256 are not cached by Python: an index made afresh for each
    # row entry costs 28 bytes per comparable pair
    lat = _diagonal_power(2, 5).lattice()
    assert len(lat.up) == 374
    assert len({id(i) for row in lat.up for i in row}) == len(lat.up)


def _s4_s3():
    """S4 x S3 of degree 7: S4 on the points 0..3, S3 on 4..6."""
    return perm_group(7, [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 0, 4, 5, 6],
                          [0, 1, 2, 3, 5, 4, 6], [0, 1, 2, 3, 5, 6, 4]])


@pytest.mark.parametrize("build, subgroups, classes, max_joins", [
    (ORACLE_GROUPS["A5"][0], 59, 9, 190),
    (ORACLE_GROUPS["S5"][0], 156, 19, 540),
    (_s4_s3, 372, 70, 2000),
], ids=["A5", "S5", "S4xS3"])
def test_one_prime_step_walk_bounds_the_joins(monkeypatch, build, subgroups,
                                              classes, max_joins):
    # a non-abelian group is walked by prime steps too, joining only one
    # subgroup per class and only with elements whose p-th power it contains
    group = build()
    calls = []
    join = groups._join
    monkeypatch.setattr(groups, "_join",
                        lambda *args: calls.append(1) or join(*args))
    lat = group.lattice()
    assert (len(lat.subgroups), lat.num_classes) == (subgroups, classes)
    assert len(calls) <= max_joins


def test_classes_are_orbits_under_generators(monkeypatch):
    # S5's classes are found by conjugating with its two generators, not
    # with all 120 elements, and so are those of its subgroup groups
    group = ORACLE_GROUPS["S5"][0]()
    calls = []
    conj = groups.FiniteGroup.conj
    monkeypatch.setattr(groups.FiniteGroup, "conj",
                        lambda *args: calls.append(1) or conj(*args))
    lat = group.lattice()
    assert lat.num_classes == 19 and len(calls) <= 1500
    calls.clear()
    for s in lat.subgroups:
        s.as_group().lattice()
    assert len(calls) <= 5200


def test_q8_is_the_quaternion_group():
    g = _q8()
    involutions = [i for i in g.elements()
                   if i != g.identity and g.mul(i, i) == g.identity]
    assert g.order == 8 and not g.is_abelian and len(involutions) == 1


def test_lattice_matches_all_pairs_oracle_on_symmetry_groups():
    from invertible_family import duality_family
    from eqindex import symmetry_group
    for f in duality_family(24, 3):
        _assert_lattice_matches_oracle(symmetry_group(f))


def test_lattice_records_cyclic_subgroups_and_generators():
    for name in ("S4", "Z6^3"):
        group = ORACLE_GROUPS[name][0]()
        lat = group.lattice()
        for g in group.elements():
            assert lat.subgroups[lat.cyclic_of[g]].members == \
                closure_oracle(group.table, group.identity, [g])
        # the recorded generators generate each subgroup: `is_abelian` of
        # a subgroup group and the abelian test of the commuting counts
        # read them alone
        for s, gens in zip(lat.subgroups, lat.generators):
            assert closure_oracle(group.table, group.identity, gens) == \
                s.members


def _cycle(n):
    """Z/n as the permutation group of degree n generated by an n-cycle."""
    return perm_group(n, [[(i + 1) % n for i in range(n)]])


# presentation -> the cyclic groups built in it
CYCLIC_GROUPS = {
    "diagonal": lambda: [cyclic_group(n) for n in range(1, 61)],
    "perm": lambda: [_cycle(n) for n in range(1, 11)],
    "table": lambda: [_relabeled(cyclic_group(6), 6)[0]],
    # x^2 y + y^2 z + z^3 and x^3 y + y^5: Z/12 and Z/15
    "chain G_f": lambda: [symmetry_group(validate(E)) for E in (
        [[2, 1, 0], [0, 2, 1], [0, 0, 3]], [[3, 1], [0, 5]])],
}


@pytest.mark.parametrize("kind", list(CYCLIC_GROUPS))
def test_cyclic_lattices_are_their_cyclic_subgroups(monkeypatch, kind):
    # a cyclic group takes no prime-step walk: its subgroups are its cyclic
    # subgroups, each recording one generator (the trivial one none), and
    # the lattice is the all-pairs oracle's, normalizers brute force
    def forbidden(*args):
        raise AssertionError("a cyclic group was walked")

    monkeypatch.setattr(groups, "_prime_step_joins", forbidden)
    for group in CYCLIC_GROUPS[kind]():
        lat = group.lattice()
        _assert_lattice_matches_oracle(group)
        assert lat.classes == [[i] for i in range(len(lat.subgroups))]
        _assert_normalizers_are_brute_force(group)
        n = group.order
        assert [s.order for s in lat.subgroups] == \
            [d for d in range(1, n + 1) if n % d == 0]
        for s, gens in zip(lat.subgroups, lat.generators):
            assert len(gens) == (s.order > 1)
            assert closure_oracle(group.table, group.identity, gens) == \
                s.members


def test_non_cyclic_abelian_group_still_walks(monkeypatch):
    # Z/2 x Z/6 has no element of order 12, so it is walked by prime steps
    calls = []
    walk = groups._prime_step_joins
    monkeypatch.setattr(groups, "_prime_step_joins",
                        lambda *args: calls.append(args[0]) or walk(*args))
    group = diagonal_group([[Fraction(1, 2), 0], [0, Fraction(1, 6)]])
    _assert_lattice_matches_oracle(group)
    assert calls == [group] and len(group.lattice().subgroups) == 10
    for s, gens in zip(group.lattice().subgroups, group.lattice().generators):
        assert closure_oracle(group.table, group.identity, gens) == s.members


def test_down_sets_are_the_transpose_of_the_up_sets():
    for name in ("S4", "Z2xZ2", "Z6^3"):
        lat = ORACLE_GROUPS[name][0]().lattice()
        members = [s.members for s in lat.subgroups]
        assert lat.down == [[i for i, s in enumerate(members) if s <= t]
                            for t in members], name


def _solver_groups():
    """The pool, S4, A5 and S5, the S6 corpus and every G_f of
    duality_family(24, 3), the last two built afresh."""
    yield from pool().items()
    yield from larger().items()
    for label, _, gens, *_ in S6_CORPUS:
        yield label, perm_group(6, gens)
    for f in duality_family(24, 3):
        yield f.E, symmetry_group(validate(f.E))


def test_solve_rows_inverts_the_zeta_sums_along_every_poset():
    # oracle: the zeta sums y[i] = sum of x[j] over j in rows[i], written
    # out; solving along the up-sets from the top down, the down-sets from
    # the bottom up and the class up-sets from the top down gives back y
    rng = random.Random(89)
    solved = 0
    for name, g in _solver_groups():
        lat = g.lattice()
        for rows, top_down in ((lat.up, True), (lat.down, False),
                               (lat.class_up, True)):
            n = len(rows)
            visit = range(n - 1, -1, -1) if top_down else range(n)
            for _ in range(3):
                y = [rng.randint(-10**6, 10**6) for _ in range(n)]
                x = groups.solve_rows(rows, y, visit)
                assert [sum(x[j] for j in row) for row in rows] == y, name
                solved += 1
    assert solved > 1000


def _assert_slice_matches_a_fresh_enumeration(child, fresh_parent):
    """The lattice of the subgroup group `child`, read from its parent's,
    against the lattice of a parentless `table` presentation of it; the
    parent classes are looked up in `fresh_parent`'s lattice, a parentless
    group equal to the parent.  Returns the parentless child."""
    fresh = build_group({"kind": "table", "table": child.table})
    lat, ref = child.lattice(), fresh.lattice()
    assert [s.members for s in lat.subgroups] == \
        [s.members for s in ref.subgroups]
    # renumbered, the child's member sets are the parent's down[H], in order
    plat = child.parent.lattice()
    assert [frozenset(map(child.parent_index.__getitem__, s.members))
            for s in lat.subgroups] == [
        plat.subgroups[i].members
        for i in plat.down[plat.subgroup_index(child.parent_index)]]
    for name in ("labels", "up", "class_of", "normalizers", "class_up",
                 "mu", "class_mu"):
        assert getattr(lat, name) == getattr(ref, name), name
    for s, gens in zip(lat.subgroups, lat.generators):
        assert closure_oracle(child.table, child.identity, gens) == s.members
    assert lat.parent_classes == parent_classes_oracle(
        child.parent_index, fresh_parent.lattice(),
        [ref.subgroups[r].members for r in ref.representatives])
    return fresh


def test_subgroup_lattices_are_slices_of_the_parent_lattice():
    # every subgroup group and every subgroup group of those (every parent
    # here has order <= 60) against a fresh enumeration of the same table
    parents = [*pool().values(), larger()["S4"], larger()["A5"], _s4_z2()]
    parents += [symmetry_group(f) for f in duality_family(24, 3)[::6]]
    count = 0
    for parent in parents:
        assert parent.lattice().parent_classes is None
        for sub in parent.lattice().subgroups:
            child = sub.as_group()
            fresh = _assert_slice_matches_a_fresh_enumeration(child, parent)
            for grand in child.lattice().subgroups:
                _assert_slice_matches_a_fresh_enumeration(grand.as_group(),
                                                          fresh)
                count += 1
            count += 1
    assert count == 2913


def test_is_abelian_from_generators_matches_the_table_scan():
    # is_abelian tests pairs of generators; a subgroup group waits for its
    # table until is_abelian (or anything else) reads it
    def scan(g):
        t = g.table
        return all(t[i][j] == t[j][i] for i in g.elements()
                   for j in g.elements())

    checked = [*pool().values(), *larger().values(), _s4_z2()]
    for parent in (ORACLE_GROUPS["S4"][0](),
                   perm_group(4, [[1, 2, 3, 0], [0, 3, 2, 1]])):
        for s in parent.lattice().subgroups:
            child = s.as_group()
            assert "table" not in vars(child)
            checked.append(child)
    for g in checked:
        assert g.is_abelian == scan(g), g
    assert {g.is_abelian for g in checked} == {True, False}


def test_join_of_a_subgroup_and_an_element_matches_the_closure_oracle():
    # seeded with the recorded generators of A, g need not centralize A
    for name in ("D4", "Q8", "S4", "A5"):
        group = ORACLE_GROUPS[name][0]()
        lat = group.lattice()
        for h, gens in zip(lat.subgroups, lat.generators):
            for g in group.elements():
                assert groups._join(group.table, h.members, gens + (g,)) == \
                    closure_oracle(group.table, group.identity,
                                   h.members | {g}), (name, h.order, g)
    # in an abelian group every g centralizes A, so g alone extends it
    abelian = [pool()[name] for name in abelian_names()]
    abelian += [symmetry_group(f) for f in duality_family(24, 3)[::9]]
    for group in abelian:
        for h in group.lattice().subgroups:
            for g in group.elements():
                assert groups._join(group.table, h.members, (g,)) == \
                    closure_oracle(group.table, group.identity,
                                   h.members | {g}), (group, h.order, g)


def test_element_indices_are_checked_at_the_entry_points():
    z6 = cyclic_group(6)
    for bad in (7, -1, 6, True, 1.0, "1", None):
        with pytest.raises(NotASubgroupError):
            Subgroup(z6, [0, bad])
        with pytest.raises(NotASubgroupError):
            z6.closure([bad])
    # -1 would read the last element, 0 again in the trivial group
    with pytest.raises(NotASubgroupError):
        Subgroup(trivial_group(), [0, -1])
    assert z6.closure([]) == {z6.identity}
    assert Subgroup(z6, [0, 3]).order == 2


def test_z8_cubed_has_802_subgroups():
    assert len(_diagonal_power(8, 3).lattice().subgroups) == 802


def test_z12_cubed_has_3612_subgroups():
    assert len(_diagonal_power(12, 3).lattice().subgroups) == 3612


def test_z10_squared_times_z20_has_1728_subgroups():
    group = diagonal_group([[Fraction(1, 10), 0, 0], [0, Fraction(1, 10), 0],
                            [0, 0, Fraction(1, 20)]])
    assert group.order == groups.MAX_ORDER
    assert len(group.lattice().subgroups) == 1728


def _nonzero(matrix, value=False):
    """The non-zero entries of each row of a dense matrix, as the ascending
    column indices or (with `value`) as (column, entry) pairs."""
    return [[(j, x) if value else j for j, x in enumerate(row) if x]
            for row in matrix]


def _row_groups():
    """(name, group) over the pool groups, S4, A5, S5, S4 x Z/2, (Z/2)^4 and
    every ninth symmetry group of duality_family(24, 3)."""
    yield from {**pool(), **larger()}.items()
    yield "S4xZ2", _s4_z2()
    yield "Z2^4", _diagonal_power(2, 4)
    for i, f in enumerate(duality_family(24, 3)[::9]):
        yield f"G_f #{9 * i}", symmetry_group(f)


def test_stored_rows_match_dense_oracles():
    # up-sets, Moebius rows and the table of marks, stored sparse, against
    # dense inclusion, the dense Moebius recursion and counted fixed cosets
    for name, group in _row_groups():
        lat = group.lattice()
        leq = leq_oracle(lat)
        zeta_conj = zeta_conj_oracle(lat, leq)
        assert lat.up == _nonzero(leq), name
        assert lat.mu == _nonzero(moebius_oracle(leq), value=True), name
        assert lat.class_up == _nonzero(zeta_conj), name
        assert lat.class_mu == _nonzero(moebius_oracle(zeta_conj),
                                        value=True), name
        marks = marks_coset_oracle(group)
        tom = table_of_marks(group)
        # each class below [K] listed once per conjugate of K above it:
        # multiplicity times the diagonal is the counted mark
        assert [sorted(row) for row in tom.rows] == tom.rows, name
        assert [row[-1] for row in tom.rows] == list(range(len(marks))), name
        assert [[tom.diagonal[k] * row.count(h) for h in range(len(marks))]
                for k, row in enumerate(tom.rows)] == marks, name
        assert tom.diagonal == [row[k] for k, row in enumerate(marks)], name
        assert tom.matrix == marks, name
        assert (tom.rows is lat.down) == group.is_abelian, name


def _relabeled(group, seed):
    """`group` rebuilt as a `table` presentation whose element pi[i] is the
    group's element i, for a seeded random permutation pi; and pi."""
    pi = list(range(group.order))
    random.Random(seed).shuffle(pi)
    table = [[0] * group.order for _ in pi]
    for i, row in enumerate(group.table):
        for j, x in enumerate(row):
            table[pi[i]][pi[j]] = pi[x]
    return build_group({"kind": "table", "table": table}), pi


def _z4_z6_diagonal():
    return diagonal_group([[Fraction(1, 4), 0], [0, Fraction(1, 6)]])


RELABELED_GROUPS = {
    "S4": ORACLE_GROUPS["S4"][0],
    "A5": ORACLE_GROUPS["A5"][0],
    "S4xZ2": _s4_z2,
    "D4": lambda: pool()["D4"],
    "Z6^2": lambda: _diagonal_power(6, 2),
    "Z2^4": lambda: _diagonal_power(2, 4),
    # one abelian group in all three presentations: a 4-cycle and a 6-cycle
    # on disjoint points, and a seeded relabeling as a table
    "Z4xZ6 diagonal": _z4_z6_diagonal,
    "Z4xZ6 perm": lambda: perm_group(10, [[1, 2, 3, 0, 4, 5, 6, 7, 8, 9],
                                          [0, 1, 2, 3, 5, 6, 7, 8, 9, 4]]),
    "Z4xZ6 table": lambda: _relabeled(_z4_z6_diagonal(), 7)[0],
}


@pytest.mark.parametrize("name", list(RELABELED_GROUPS))
def test_relabeled_table_presentation_has_the_same_lattice(name):
    # a presentation-independent check: every lattice and Burnside-ring
    # datum of the relabeled table is the original's, mapped through pi
    group = RELABELED_GROUPS[name]()
    lat = group.lattice()
    ns, nc = len(lat.subgroups), lat.num_classes
    marks = table_of_marks(group).matrix
    counts = [commuting_class_counts(group, k) for k in range(3)]
    for seed in range(3):
        other, pi = _relabeled(group, seed)
        olat = other.lattice()
        # sigma maps subgroups and tau classes of `group` onto those of `other`
        sigma = [olat.subgroup_index(frozenset(pi[m] for m in s.members))
                 for s in lat.subgroups]
        assert sorted(sigma) == list(range(len(olat.subgroups))), seed
        tau = [olat.class_of[sigma[r]] for r in lat.representatives]
        assert sorted(tau) == list(range(olat.num_classes)), seed
        assert [olat.class_of[sigma[i]] for i in range(ns)] == \
            [tau[c] for c in lat.class_of], seed
        assert [olat.normalizers[sigma[i]] for i in range(ns)] == \
            [sigma[j] for j in lat.normalizers], seed
        for i, row in enumerate(lat.mu):
            assert sorted(olat.mu[sigma[i]]) == \
                sorted((sigma[j], m) for j, m in row), seed
        for c, row in enumerate(lat.class_mu):
            assert sorted(olat.class_mu[tau[c]]) == \
                sorted((tau[b], m) for b, m in row), seed
        omarks = table_of_marks(other).matrix
        assert [[omarks[tau[k]][tau[h]] for h in range(nc)]
                for k in range(nc)] == marks, seed
        for k in range(3):
            ocounts = commuting_class_counts(other, k)
            assert [ocounts[tau[c]] for c in range(nc)] == list(counts[k]), \
                (seed, k)


def test_lattice_construction_is_deterministic():
    a = perm_group(4, [[1, 2, 3, 0], [0, 3, 2, 1]])
    b = perm_group(4, [[1, 2, 3, 0], [0, 3, 2, 1]])
    la, lb = a.lattice(), b.lattice()
    assert a.keys == b.keys and a.table == b.table
    assert [s.members for s in la.subgroups] == \
           [s.members for s in lb.subgroups]
    assert la.labels == lb.labels
    da, db = expanded_lattice(la), expanded_lattice(lb)
    assert da.mu_sub == db.mu_sub and da.mu_conj == db.mu_conj
    assert a.fingerprint == b.fingerprint


# -- normalizers ---------------------------------------------------------------

def test_normalizer_of_whole_group_and_trivial():
    for g in pool().values():
        lat = g.lattice()
        whole = lat.subgroups[-1]
        triv = lat.subgroups[0]
        assert normalizer(g, whole).members == whole.members
        assert normalizer(g, triv).members == whole.members


def test_normalizer_of_order2_in_s3_is_itself():
    s3 = pool()["S3"]
    lat = s3.lattice()
    h = lat.subgroups[1]
    assert h.order == 2
    assert normalizer(s3, h).members == h.members


def _assert_normalizers_are_brute_force(g):
    lat = g.lattice()
    for i, s in enumerate(lat.subgroups):
        n = lat.subgroups[lat.normalizers[i]]
        assert s.members <= n.members
        assert n.members == {
            x for x in g.elements()
            if frozenset(g.conj(m, x) for m in s.members) == s.members}


def test_normalizer_contains_and_normalizes():
    for g in [*pool().values(), *larger().values()]:
        _assert_normalizers_are_brute_force(g)


@pytest.mark.parametrize("label, order, gens, subgroups, classes, normalizers",
                         S6_CORPUS, ids=[entry[0] for entry in S6_CORPUS])
def test_s6_corpus(label, order, gens, subgroups, classes, normalizers):
    # S6's class representatives as fresh groups, against the counts their
    # lattices had when the corpus was written; the two of order 120 (S5
    # and its transitive twin) skip the all-pairs oracle, which is slow
    group = perm_group(6, gens)
    lat = group.lattice()
    assert group.order == order
    assert (len(lat.subgroups), lat.num_classes) == (subgroups, classes)
    assert [lat.normalizer_order(r) for r in lat.representatives] == \
        normalizers
    _assert_normalizers_are_brute_force(group)
    if order < 120:
        _assert_lattice_matches_oracle(group)


def test_subgroup_validation():
    s3 = pool()["S3"]
    with pytest.raises(NotASubgroupError):
        Subgroup(s3, [1, 2])  # misses the identity / not closed


def test_subgroup_is_the_lattice_entry():
    # one object per subgroup: the constructor looks the member set up
    for name in ("Z2", "Z6", "Z2xZ2", "S3", "D4", "S4", "A5"):
        g = ORACLE_GROUPS[name][0]()
        lat = g.lattice()
        for i, h in enumerate(lat.subgroups):
            sub = Subgroup(g, sorted(h.members, reverse=True))
            assert sub is h, (name, i)
            assert sub.as_group() is h.as_group(), (name, i)


def test_subgroup_lookup_builds_no_table():
    # Z/2000's lattice reads key multiples; a closure scan read 4M products
    g = cyclic_group(2000)
    assert Subgroup(g, range(2000)) is g.lattice().subgroups[-1]
    assert "table" not in vars(g)


def test_copies_and_pickles_of_subgroups():
    g = ORACLE_GROUPS["S3"][0]()
    h = g.lattice().subgroups[1]
    assert copy.copy(h) is h and copy.copy(h) == h
    # a deep copy or a pickle copies the parent, and is its lattice's entry
    for twin in (copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert twin != h and twin.members == h.members
        assert twin.parent is not g and twin.parent.same_group(g)
        assert twin.parent.lattice().subgroups[1] is twin
        assert Subgroup(twin.parent, h.members) is twin
    h.as_group()
    for twin in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        lat = twin.lattice()
        assert all(s.parent is twin for s in lat.subgroups)
        assert [s.members for s in lat.subgroups] == \
            [s.members for s in g.lattice().subgroups]
        assert Subgroup(twin, h.members) is lat.subgroups[1] != h


def test_subgroup_as_group_inherits_keys():
    z6 = cyclic_group(6)
    lat = z6.lattice()
    h = lat.subgroups[1]  # order 2
    child = h.as_group()
    assert child.order == 2
    assert child.keys == [z6.keys[i] for i in sorted(h.members)]
    assert child.denominator == z6.denominator
    assert child.parent is z6


def test_subgroup_as_group_records_a_small_generating_set():
    for name, g in {**pool(), **larger()}.items():
        for h in g.lattice().subgroups:
            gens = [g.index[k] for k in h.as_group().generator_keys]
            assert len(gens) <= math.log2(h.order) + 1, (name, h.order)
            # words in the generators, grown in the parent's table until closed
            reached = {g.identity}
            while True:
                grown = reached | {g.mul(a, s) for a in reached for s in gens}
                if grown == reached:
                    break
                reached = grown
            assert reached == h.members, (name, h.order)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["Z2", "Z6", "Z2xZ2", "S3", "D4"]), st.data())
def test_conjugate_of_subgroup_is_subgroup_in_same_class(name, data):
    g = pool()[name]
    lat = g.lattice()
    i = data.draw(st.integers(0, len(lat.subgroups) - 1))
    x = data.draw(st.integers(0, g.order - 1))
    img = frozenset(g.conj(m, x) for m in lat.subgroups[i].members)
    j = lat.subgroup_index(img)
    assert lat.class_of[j] == lat.class_of[i]


def test_trivial_group():
    t = trivial_group()
    assert t.order == 1
    assert t.lattice().num_classes == 1


def test_lookups_outside_the_lattice_are_not_subgroups():
    s3, z6 = pool()["S3"], pool()["Z6"]
    lat = s3.lattice()
    with pytest.raises(NotASubgroupError, match="^member set is not a subgroup$"):
        lat.subgroup_index(frozenset(range(4)))
    with pytest.raises(NotASubgroupError, match="^unknown subgroup label 'H4_0'$"):
        lat.subgroup_by_label("H4_0")
    with pytest.raises(NotASubgroupError, match="^subgroup belongs to a different"):
        normalizer(s3, z6.lattice().subgroups[1])
