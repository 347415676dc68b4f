import random

import pytest
from hypothesis import given, settings, strategies as st

from eqindex import (InconsistentDataError, OrderBoundError, RegularityError,
                     StratifiedGData, barycentric_subdivide, build_complex,
                     chi_G_simplicial, chi_G_stratified, chi_k_direct,
                     cyclic_group, fixed_subcomplex, perm_group,
                     trivial_group)
from eqindex.burnside import cardinality, marks_vector, one, r_k
from eqindex import gspace
from eqindex.gspace import GSimplicialComplex

from complex_suite import suite

NAMES = [name for name, _ in suite()]


def by_name(name):
    return dict(suite())[name]


# -- stratified model -------------------------------------------------------------

def test_chi_stratified_point():
    g = cyclic_group(6)
    d = StratifiedGData(g, [(3, 1)])  # single stratum [G/G], chi = 1
    assert chi_G_stratified(d) == one(g)
    assert chi_G_stratified(d, reduced=True).is_zero()


def test_chi_stratified_milnor_fibre_shape():
    g = cyclic_group(6)
    # chi(V/G) values -1, 1, 1 on classes e, Z2, Z3
    d = StratifiedGData(g, [(0, -1), (1, 1), (2, 1)])
    assert chi_G_stratified(d).coeffs == (-1, 1, 1, 0)


def test_chi_stratified_empty():
    g = cyclic_group(6)
    assert chi_G_stratified(StratifiedGData(g, [])).is_zero()


@pytest.mark.parametrize("strata, field", [
    ([(1.5, 2.9)], "class index"),  # was read as class 1 with chi 2
    ([(1, 2.9)], "stratum"),
    ([("1", 2)], "class index"),
    ([(1, True)], "stratum"),
])
def test_chi_stratified_rejects_non_integers(strata, field):
    with pytest.raises(InconsistentDataError, match=field):
        chi_G_stratified(StratifiedGData(cyclic_group(6), strata))


# -- simplicial fixtures -----------------------------------------------------------

def test_triangle_rotation_is_zero():
    chi = chi_G_simplicial(by_name("triangle-rot3"))
    assert chi.is_zero()


def test_square_diag_reflection():
    chi = chi_G_simplicial(by_name("square-diag-reflection"))
    assert chi.coeffs == (-1, 2)  # 2[G/G] - [G/e]


def test_square_edge_reflection_subdivided():
    chi = chi_G_simplicial(by_name("square-edge-reflection-subdivided"))
    assert chi.coeffs == (-1, 2)


def test_square_antipodal_free():
    assert chi_G_simplicial(by_name("square-antipodal")).is_zero()


def test_octahedron_pi_rotation():
    chi = chi_G_simplicial(by_name("octahedron-pi-rotation"))
    assert chi.coeffs == (0, 2)  # 2[G/G]


def test_octahedron_antipodal():
    chi = chi_G_simplicial(by_name("octahedron-antipodal"))
    assert chi.coeffs == (1, 0)  # [G/e]


def test_octahedron_rot4():
    x = by_name("octahedron-rot4")
    chi = chi_G_simplicial(x)
    lat = x.group.lattice()
    assert chi.coeffs[-1] == 2
    assert cardinality(chi) == 2


def test_octahedron_klein_product_action():
    x = by_name("octahedron-klein-product")
    chi = chi_G_simplicial(x)
    # -[G/e] + [G/Za] + [G/Zb] + [G/Zc]
    assert chi.coeffs == (-1, 1, 1, 1, 0)


def test_hexagon_dihedral():
    x = by_name("hexagon-dihedral3")
    chi = chi_G_simplicial(x)
    # 2[G/Z2] - [G/e] over D3; classes are e, [Z2], Z3, G
    assert chi.coeffs == (-1, 2, 0, 0)


def test_trivial_action_reduces_to_euler_characteristic():
    x = by_name("point-trivial")
    assert chi_G_simplicial(x).coeffs == (1,)
    for name in NAMES:
        c = by_name(name)
        assert cardinality(chi_G_simplicial(c)) == c.euler_characteristic()


def test_disjoint_union_additivity():
    z2 = perm_group(2, [[1, 0]])
    tri2 = by_name("two-triangles-swapped")
    assert chi_G_simplicial(tri2).is_zero()
    # one triangle fixed pointwise + one swapped pair decomposes additively
    a = build_complex(z2, range(3), [[0, 1], [1, 2], [0, 2]], {})
    b = by_name("two-triangles-swapped")
    union = build_complex(
        z2, range(9),
        [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [6, 7], [7, 8], [6, 8]],
        {0: {0: 0, 1: 1, 2: 2, 3: 6, 4: 7, 5: 8, 6: 3, 7: 4, 8: 5}})
    assert chi_G_simplicial(union) == chi_G_simplicial(a) + chi_G_simplicial(b)


# -- the central mark identity -------------------------------------------------------

def test_mark_identity_on_suite_all_subgroups():
    for name, x in suite():
        chi = chi_G_simplicial(x)
        mv = marks_vector(chi)
        lat = x.group.lattice()
        for i, sub in enumerate(lat.subgroups):
            got = fixed_subcomplex(x, sub).euler_characteristic()
            assert got == mv[lat.class_of[i]], (name, lat.labels[i])


def test_fixed_subcomplex_examples():
    x = by_name("square-diag-reflection")
    lat = x.group.lattice()
    assert fixed_subcomplex(x, lat.subgroups[0]).euler_characteristic() == 0
    fixed = fixed_subcomplex(x, lat.subgroups[1])
    assert sorted(fixed.vertices) == [0, 2]
    assert fixed.euler_characteristic() == 2
    free = by_name("square-antipodal")
    assert fixed_subcomplex(free, free.group.lattice().subgroups[1]).simplices == frozenset()


# -- consistency of the reductions ----------------------------------------------------

def test_r_k_consistency_on_suite():
    for name, x in suite():
        chi = chi_G_simplicial(x)
        for k in (0, 1, 2):
            assert chi_k_direct(x, k) == r_k(chi, k), (name, k)


def test_chi_k_direct_builds_no_complex_or_group(monkeypatch):
    def forbidden(*args):
        raise AssertionError("called from chi_k_direct")

    expected = {(name, k): r_k(chi_G_simplicial(x), k)
                for name, x in suite() for k in (0, 1, 2)}
    for name in ("fixed_subcomplex", "trivial_group"):
        monkeypatch.setattr(gspace, name, forbidden)
    for name, x in suite():
        for k in (0, 1, 2):
            assert chi_k_direct(x, k) == expected[name, k], (name, k)


def test_orbifold_fixture_square_reflection():
    x = by_name("square-diag-reflection")
    assert chi_k_direct(x, 0) == 1
    assert chi_k_direct(x, 1) == 3  # the orbifold Euler characteristic


# -- regularity and subdivision --------------------------------------------------------

def test_irregular_action_raises():
    z2 = perm_group(2, [[1, 0]])
    edge = build_complex(z2, [0, 1], [[0, 1]], {0: {0: 1, 1: 0}})
    assert not edge.is_regular()
    with pytest.raises(RegularityError):
        chi_G_simplicial(edge)
    with pytest.raises(RegularityError):
        fixed_subcomplex(edge, z2.lattice().subgroups[1])


def test_subdivision_repairs_edge_swap():
    z2 = perm_group(2, [[1, 0]])
    edge = build_complex(z2, [0, 1], [[0, 1]], {0: {0: 1, 1: 0}})
    sub = barycentric_subdivide(edge)
    assert sub.is_regular()
    assert len(sub.vertices) == 3
    assert chi_G_simplicial(sub).coeffs == (0, 1)  # [G/G]: a fixed midpoint


def test_subdivision_of_point():
    t = trivial_group()
    pt = build_complex(t, [0], [[0]], {})
    sub = barycentric_subdivide(pt)
    assert len(sub.vertices) == 1
    assert sub.euler_characteristic() == 1


def test_subdivision_counts_chains():
    x = by_name("triangle-rot3")
    sub = barycentric_subdivide(x)
    # 3 vertices + 3 edges become 6 vertices; each edge splits in two
    assert len(sub.vertices) == 6
    assert len([s for s in sub.simplices if len(s) == 2]) == 6


def test_chi_invariant_under_subdivision():
    for name, x in suite():
        sub = barycentric_subdivide(x)
        assert chi_G_simplicial(sub) == chi_G_simplicial(x), name


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(NAMES))
def test_suite_regularity_and_bonus_subdivision_regular(name):
    x = by_name(name)
    assert x.is_regular()
    assert barycentric_subdivide(x).is_regular()


def test_inconsistent_generator_images_rejected():
    from eqindex import InconsistentDataError
    z2 = perm_group(2, [[1, 0]])
    message = "^generator images do not define a group action$"
    with pytest.raises(InconsistentDataError, match=message):
        # an order-2 generator cannot act by a 3-cycle
        build_complex(z2, [0, 1, 2], [[0, 1], [1, 2], [0, 2]],
                      {0: {0: 1, 1: 2, 2: 0}})
    # two generator positions name one element, with different images
    twice = perm_group(2, [[1, 0], [1, 0]])
    with pytest.raises(InconsistentDataError, match=message):
        build_complex(twice, [0, 1], [[0], [1]], {0: {0: 1, 1: 0}})


def _copy(x):
    return GSimplicialComplex(
        x.group, x.vertices, x.simplices,
        {pos: x.action[g] for pos, g in enumerate(x.group.generators)})


class _CountedSimplices(frozenset):
    """A simplex set that counts the passes made over it."""
    passes = 0

    def __iter__(self):
        _CountedSimplices.passes += 1
        return super().__iter__()


def test_chi_k_direct_scans_regularity_at_most_once():
    def fresh():
        y = _copy(by_name("square-dihedral4-subdivided"))
        y.simplices = _CountedSimplices(y.simplices)
        return y

    _CountedSimplices.passes = 0
    assert fresh().is_regular()
    scan = _CountedSimplices.passes  # passes of one regularity scan
    x = fresh()
    assert x.group.lattice().num_classes > 1
    _CountedSimplices.passes = 0
    chi_k_direct(x, 1)
    # one scan, then one pass for chi(X^H) of every class at once
    assert _CountedSimplices.passes <= scan + 1
    _CountedSimplices.passes = 0
    for k in range(4):
        chi_k_direct(x, k)
    assert _CountedSimplices.passes == 0


def _call(x, k):
    """chi_G_simplicial(x) for k None, else chi_k_direct(x, k)."""
    return chi_G_simplicial(x) if k is None else chi_k_direct(x, k)


def test_stored_complex_data_does_not_change_results():
    rng = random.Random(16)
    for name, x in suite():
        for y in (x, barycentric_subdivide(x)):
            calls = [None, 0, 1, 2, 3]
            expected = {k: _call(_copy(y), k) for k in calls}
            once = _copy(y)
            for _ in range(2):
                rng.shuffle(calls)
                for k in calls:
                    assert _call(once, k) == expected[k], (name, k)
            # errors are checked on every call, never stored
            with pytest.raises(OrderBoundError):
                chi_k_direct(once, 4)
            with pytest.raises(ValueError):
                chi_k_direct(once, -1)


def test_regularity_errors_are_not_stored():
    z2 = perm_group(2, [[1, 0]])
    edge = build_complex(z2, [0, 1], [[0, 1]], {0: {0: 1, 1: 0}})
    for _ in range(2):
        with pytest.raises(RegularityError):
            chi_G_simplicial(edge)
        with pytest.raises(RegularityError):
            chi_k_direct(edge, 1)


def test_reduction_order_bound():
    x = by_name("triangle-rot3")
    with pytest.raises(OrderBoundError):
        chi_k_direct(x, 4)


@pytest.mark.parametrize("c", [-1, 4])
def test_stratum_class_index_out_of_range_is_rejected(c):
    # Z6 has four classes
    with pytest.raises(InconsistentDataError, match=f"^unknown class index {c}$"):
        StratifiedGData(cyclic_group(6), [(c, 1)])


@pytest.mark.parametrize("simplex, shown", [
    ([0, 9], "[0, 9]"),
    ([1, "a"], "['a', 1]"),  # mixed types are shown in repr order
])
def test_simplex_with_unknown_vertices_is_rejected(simplex, shown):
    with pytest.raises(InconsistentDataError) as exc:
        build_complex(cyclic_group(2), [0, 1], [[0], simplex])
    assert str(exc.value) == f"simplex {shown} uses unknown vertices"


@pytest.mark.parametrize("moved", [{0: 0, 1: 0}, {0: 1, 2: 0}])
def test_action_maps_that_are_not_vertex_permutations_are_rejected(moved):
    with pytest.raises(InconsistentDataError,
                       match="^action maps are not vertex permutations$"):
        GSimplicialComplex(cyclic_group(2), [0, 1], [[0], [1]], {0: moved})


def test_images_keyed_by_element_are_rejected():
    # keys 1 and 2 name the elements g and g^2 of Z/3, not generator
    # positions: read as one map per element, both acting as (0 1 2), they
    # would be no homomorphism, and chi^G would count six points for three
    z3 = cyclic_group(3)
    rot = {0: 1, 1: 2, 2: 0}
    action = {z3.identity: {0: 0, 1: 1, 2: 2}, 1: rot, 2: rot}
    with pytest.raises(InconsistentDataError,
                       match="^no generator at position [12]$"):
        GSimplicialComplex(z3, range(3), [[0], [1], [2]], action)


def test_images_at_a_position_past_the_generators_are_rejected():
    # Z/2 has one generator, so position 3 names none
    with pytest.raises(InconsistentDataError,
                       match="^no generator at position 3$"):
        build_complex(perm_group(2, [[1, 0]]), [0, 1], [[0], [1]],
                      {3: {0: 1, 1: 0}})


def test_generator_image_missing_a_vertex_is_rejected():
    # an image must map every vertex, or its extension has no value there
    with pytest.raises(InconsistentDataError,
                       match="^action maps are not vertex permutations$"):
        build_complex(perm_group(2, [[1, 0]]), [0, 1], [[0], [1]],
                      {0: {0: 1}})


def _composed(p, q):
    """The vertex map p o q: first q, then p."""
    return {v: p[q[v]] for v in q}


def _induced(x, g):
    """The map that g induces on the simplices of x, as sorted tuples."""
    return {tuple(sorted(s)): tuple(sorted(x.action[g][v] for v in s))
            for s in x.simplices}


def test_action_is_a_homomorphism_and_subdivision_induces_it():
    for name, x in suite():
        sub = barycentric_subdivide(x)
        for y in (x, sub):
            group = y.group
            for g in group.elements():
                for h in group.elements():
                    assert y.action[group.mul(g, h)] == \
                        _composed(y.action[g], y.action[h]), (name, g, h)
        for g in x.group.elements():
            assert sub.action[g] == _induced(x, g), (name, g)
