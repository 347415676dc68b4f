import random

import pytest
from hypothesis import given, settings, strategies as st

from eqindex import (FixedSetIndexData, InconsistentDataError,
                     IntegralityError, NotASubgroupError, SingularOrbitDatum,
                     StratifiedGData, fixed_indices_from_index,
                     gsv_assemble_from_dims, gsv_from_radial,
                     index_from_strata, index_from_fixed_indices,
                     induce_orbit_index, poincare_hopf_check, trivial_group)
from eqindex.burnside import (BurnsideElement, basis_element, cardinality,
                              marks_vector, one, r_k, zero)
from eqindex.gspace import chi_G_simplicial, chi_G_stratified

from complex_suite import suite
from groups_pool import larger, pool, random_elements
from oracles import expanded_lattice, fixed_data_sub_moebius_oracle

POOL_NAMES = ["Z2", "Z6", "Z2xZ2", "S3", "D4"]


# -- stratum assembly ---------------------------------------------------------------

def test_index_from_strata_trivial_group():
    t = trivial_group()
    d = StratifiedGData(t, [(0, 7)])
    assert index_from_strata(d).coeffs == (7,)


def test_index_from_strata_z6_chain_example():
    z6 = pool()["Z6"]
    d = StratifiedGData(z6, [(3, 1), (0, 6), (1, -3)])
    assert index_from_strata(d).coeffs == (1, -1, 0, 1)


def test_index_from_strata_empty_and_nonintegral():
    z6 = pool()["Z6"]
    assert index_from_strata(StratifiedGData(z6, [])).is_zero()
    with pytest.raises(IntegralityError):
        index_from_strata(StratifiedGData(z6, [(0, 5)]))  # 5 not divisible by 6


def test_index_from_strata_rejects_non_integer_totals():
    # 6.7 was truncated to 6, giving [G/e]
    with pytest.raises(InconsistentDataError, match="stratum"):
        index_from_strata(StratifiedGData(pool()["Z6"], [(0, 6.7)]))


def test_index_from_strata_cardinality_is_total_index():
    z6 = pool()["Z6"]
    d = StratifiedGData(z6, [(3, 2), (0, 12), (2, -4)])
    assert cardinality(index_from_strata(d)) == 2 + 12 - 4


def test_index_from_quotient():
    # indices on quotient strata sum like Euler characteristics
    z6 = pool()["Z6"]
    assert chi_G_stratified(StratifiedGData(z6, [(3, 1)])) == one(z6)
    assert chi_G_stratified(StratifiedGData(
        z6, [(0, -1), (1, 1), (2, 1)])).coeffs == (-1, 1, 1, 0)
    assert chi_G_stratified(StratifiedGData(z6, [])).is_zero()


# -- forward evaluation of fixed-set indices -------------------------------------------

def test_fixed_indices_of_one():
    for g in pool().values():
        d = fixed_indices_from_index(one(g))
        assert all(v == 1 for v in d.per_subgroup.values())
        assert all(v == 1 for v in d.per_class.values())


def test_fixed_indices_of_free_orbit():
    z6 = pool()["Z6"]
    d = fixed_indices_from_index(basis_element(z6, 0))
    lat = z6.lattice()
    for i, s in enumerate(lat.subgroups):
        assert d.per_subgroup[i] == (6 if s.order == 1 else 0)


def test_fixed_indices_s3_z2_basis():
    s3 = pool()["S3"]
    lat = s3.lattice()
    d = fixed_indices_from_index(basis_element(s3, 1))
    assert d.per_subgroup[1] == 1   # |N(Z2)|/|Z2| = 1
    assert d.per_class[1] == 3      # |G|/|Z2| = 3


def test_per_subgroup_formula_equals_marks_on_nonabelian_groups():
    # the subgroup-poset forward formula must agree with the marks pairing
    for name in ["S3", "D4"]:
        g = pool()[name]
        lat = g.lattice()
        zeta_conj = expanded_lattice(lat).zeta_conj
        for b in random_elements(g, 25, seed=13):
            d = fixed_indices_from_index(b)
            mv = marks_vector(b)
            for i in range(len(lat.subgroups)):
                assert d.per_subgroup[i] == mv[lat.class_of[i]]
            for c in range(lat.num_classes):
                total = sum(b.coeffs[k] * (g.order // lat.class_order(k))
                            for k in range(lat.num_classes)
                            if zeta_conj[c][k])
                assert d.per_class[c] == total


# -- Moebius inversion round trips ------------------------------------------------------

def test_round_trip_identity():
    for name in POOL_NAMES:
        g = pool()[name]
        for b in random_elements(g, 50, seed=17):
            assert index_from_fixed_indices(fixed_indices_from_index(b)) == b


def test_fixed_indices_are_not_re_checked(monkeypatch):
    # the values are computed integral and class-constant, so building the
    # record runs none of FixedSetIndexData's checks; the round trip still
    # holds, and the class-poset inversion reads the unchecked per_class
    from eqindex import indices
    calls = []
    real = indices._int
    monkeypatch.setattr(indices, "_int",
                        lambda *args: calls.append(args) or real(*args))
    for g in [*pool().values(), larger()["S4"]]:
        for b in random_elements(g, 5, seed=3):
            data = fixed_indices_from_index(b)
            assert calls == [], g
            assert index_from_fixed_indices(data) == b


def test_inversion_without_per_class_data():
    z6 = pool()["Z6"]
    for b in random_elements(z6, 10, seed=19):
        d = fixed_indices_from_index(b)
        d2 = FixedSetIndexData(z6, d.per_subgroup, None)
        assert index_from_fixed_indices(d2) == b


def test_all_ones_inverts_to_one():
    for g in pool().values():
        ns = len(g.lattice().subgroups)
        d = FixedSetIndexData(g, {i: 1 for i in range(ns)})
        assert index_from_fixed_indices(d) == one(g)


def test_inversion_flavors_disagreement_detected():
    # a per-class value moved by one below the top class moves that class's
    # coefficient by |H|/|G|, and a moved top value moves the coefficient of
    # each maximal class [M] by -|M|/|G|, never an integer; the per-class data
    # of another element inverts to that element, which the marks contradict
    groups = {**pool(), "S4": larger()["S4"], "A5": larger()["A5"]}
    for name, g in groups.items():
        b, other = random_elements(g, 2, seed=24)
        assert b != other, name
        d = fixed_indices_from_index(b)
        for c in range(g.lattice().num_classes):
            per_class = {**d.per_class, c: d.per_class[c] + 1}
            with pytest.raises(IntegralityError, match="^class-poset "
                               "inversion produced a non-integer coefficient$"):
                index_from_fixed_indices(
                    FixedSetIndexData(g, d.per_subgroup, per_class))
        per_class = fixed_indices_from_index(other).per_class
        with pytest.raises(InconsistentDataError, match="^the two Moebius "
                           "inversions disagree; input data is inconsistent$"):
            index_from_fixed_indices(
                FixedSetIndexData(g, d.per_subgroup, per_class))


def test_inversion_nonintegral_input_detected():
    z2 = pool()["Z2"]
    # ind(V^e) = 1, ind(V^G) = 0 gives a_e = 1/2: inconsistent
    with pytest.raises(IntegralityError):
        index_from_fixed_indices(FixedSetIndexData(z2, {0: 1, 1: 0}))


def test_class_constancy_enforced():
    s3 = pool()["S3"]
    ns = len(s3.lattice().subgroups)
    per = {i: 0 for i in range(ns)}
    per[1] = 1  # one order-2 subgroup differs from its conjugates
    with pytest.raises(InconsistentDataError):
        FixedSetIndexData(s3, per)


def _oracle_outcome(group, values):
    """The element the Sub(G) Moebius oracle inverts `values` to, or
    IntegralityError when it has a non-integral coefficient."""
    coeffs = fixed_data_sub_moebius_oracle(group, values)
    if any(c.denominator != 1 for c in coeffs):
        return IntegralityError
    return BurnsideElement(group, [c.numerator for c in coeffs])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IntegralityError:
        return IntegralityError


def _oracle_cases():
    """(group, element) over every basis element and five random elements
    of the pool groups, S4, A5 and S5."""
    for name, g in {**pool(), **larger()}.items():
        nc = g.lattice().num_classes
        for b in [basis_element(g, c) for c in range(nc)] + \
                random_elements(g, 5, seed=31):
            yield g, b


def test_inversion_matches_sub_moebius_oracle():
    for g, b in _oracle_cases():
        ns = len(g.lattice().subgroups)
        per_subgroup = fixed_indices_from_index(b).per_subgroup
        expected = _oracle_outcome(g, [per_subgroup[i] for i in range(ns)])
        assert expected == b
        assert index_from_fixed_indices(
            FixedSetIndexData(g, per_subgroup)) == expected


def test_inversion_failures_match_sub_moebius_oracle():
    # the marks of random elements, half of them with one class value moved:
    # the library must raise exactly when the oracle is non-integral
    rng = random.Random(37)
    outcomes = set()
    for name, g in {**pool(), **larger()}.items():
        lat = g.lattice()
        for b in random_elements(g, 10, seed=43):
            per_class = list(marks_vector(b))
            if rng.random() < 0.5:
                per_class[rng.randrange(lat.num_classes)] += rng.randint(1, 3)
            values = [per_class[c] for c in lat.class_of]
            expected = _oracle_outcome(g, values)
            got = _outcome(index_from_fixed_indices,
                           FixedSetIndexData(g, dict(enumerate(values))))
            assert got == expected, name
            outcomes.add(expected is IntegralityError)
    assert outcomes == {True, False}


def test_gsv_assembly_matches_sub_moebius_oracle():
    # dims from the fixed-set indices of each element, on fixed spaces of
    # random class-constant dimension: the subgroups with n_K <= k drop out,
    # so the assembled element is integral or not as the oracle says
    rng = random.Random(41)
    for g, b in _oracle_cases():
        lat = g.lattice()
        ns = len(lat.subgroups)
        fwd = fixed_indices_from_index(b).per_subgroup
        for k in (0, 1):
            n_class = [rng.randrange(k + 3) for _ in range(lat.num_classes)]
            fixed_dims = {i: n_class[c] for i, c in enumerate(lat.class_of)}
            dims = {i: (-1) ** (fixed_dims[i] - k) * fwd[i]
                    for i in range(ns) if fixed_dims[i] > k}
            values = [fwd[i] if fixed_dims[i] > k else 0 for i in range(ns)]
            assert _outcome(gsv_assemble_from_dims, g, dims, fixed_dims, k) \
                == _oracle_outcome(g, values)


# -- induced orbit indices and Poincare-Hopf ---------------------------------------------

def test_induce_orbit_index_examples():
    z6 = pool()["Z6"]
    lat = z6.lattice()
    whole = lat.subgroups[-1]
    datum = SingularOrbitDatum(whole, one(whole.as_group()))
    assert induce_orbit_index(datum, z6) == one(z6)

    triv = lat.subgroups[0]
    tg = triv.as_group()
    datum = SingularOrbitDatum(triv, 3 * one(tg))
    assert induce_orbit_index(datum, z6).coeffs == (3, 0, 0, 0)

    z2 = lat.subgroups[1]
    ch = z2.as_group()
    datum = SingularOrbitDatum(z2, basis_element(ch, 1))  # [Z2/Z2]
    assert induce_orbit_index(datum, z6).coeffs == (0, 1, 0, 0)


def test_poincare_hopf_sphere_with_rotation():
    z2 = pool()["Z2"]
    lat = z2.lattice()
    whole = lat.subgroups[-1]
    chi = 2 * one(z2)
    orbits = [SingularOrbitDatum(whole, one(whole.as_group())),
              SingularOrbitDatum(whole, one(whole.as_group()))]
    rep = poincare_hopf_check(chi, orbits)
    assert rep.passed and rep.discrepancy.is_zero()


def test_poincare_hopf_detects_wrong_data():
    z2 = pool()["Z2"]
    lat = z2.lattice()
    triv = lat.subgroups[0]
    chi = basis_element(z2, 0)  # chi^G of the antipodal sphere: [G/e]
    orbits = [SingularOrbitDatum(triv, 2 * one(triv.as_group()))]
    rep = poincare_hopf_check(chi, orbits)
    assert not rep.passed
    assert rep.discrepancy.coeffs == (1, 0)


def test_poincare_hopf_empty():
    z2 = pool()["Z2"]
    rep = poincare_hopf_check(zero(z2), [])
    assert rep.passed


def test_poincare_hopf_from_orbit_type_decompositions():
    # every suite complex: one orbit datum per simplex orbit
    for name, x in suite():
        g = x.group
        lat = g.lattice()
        chi = chi_G_simplicial(x)
        orbits = []
        done = set()
        for s in x.sorted_simplices():
            if s in done:
                continue
            orbit = {x.image(e, s) for e in g.elements()}
            done |= orbit
            stab = frozenset(e for e in g.elements() if x.image(e, s) == s)
            sub = lat.subgroups[lat.subgroup_index(stab)]
            sign = (-1) ** (len(s) - 1)
            orbits.append(SingularOrbitDatum(sub, sign * one(sub.as_group())))
        rep = poincare_hopf_check(chi, orbits)
        assert rep.passed, name
        # corrupt one datum: discrepancy must be nonzero
        bad = orbits + [SingularOrbitDatum(lat.subgroups[0],
                                           one(lat.subgroups[0].as_group()))]
        rep2 = poincare_hopf_check(chi, bad)
        assert not rep2.passed and not rep2.discrepancy.is_zero()


# -- GSV assembly -------------------------------------------------------------------------

def test_gsv_from_radial_examples():
    z6 = pool()["Z6"]
    ind = BurnsideElement(z6, (1, -1, 0, 1))
    chibar = BurnsideElement(z6, (-1, 1, 0, -1))
    assert gsv_from_radial(ind, chibar).is_zero()
    chi = BurnsideElement(z6, (-1, 1, 0, 0))  # a chi^G(M) with chi^G - 1 reduced
    assert gsv_from_radial(one(z6), chi - one(z6)) == chi
    assert gsv_from_radial(ind, zero(z6)) == ind


def test_gsv_assemble_trivial_group():
    t = trivial_group()
    out = gsv_assemble_from_dims(t, {0: 5}, {0: 2}, 0)
    assert out.coeffs == (5,)


def test_gsv_assemble_all_zero():
    z2 = pool()["Z2"]
    assert gsv_assemble_from_dims(z2, {0: 0, 1: 0}, {0: 2, 1: 1}, 1).is_zero()


def test_gsv_assemble_z2_small_cases():
    z2 = pool()["Z2"]
    # n_e = 2, n_{Z2} = 1, k = 1: the Z2 term has dim Fix <= k and drops out;
    # a_e = (1/2) mu'(e,e) (-1)^(2-1) d0 = -d0/2, a_{Z2} = 0
    out = gsv_assemble_from_dims(z2, {0: 4, 1: 2}, {0: 2, 1: 1}, 1)
    assert out.coeffs == (-2, 0)
    # with n_{Z2} = 2 both terms contribute:
    # a_{Z2} = (-1)^(2-1) d1 = -2, a_e = (1/2)(-d0 + d1) = -1
    out = gsv_assemble_from_dims(z2, {0: 4, 1: 2}, {0: 2, 1: 2}, 1)
    assert out.coeffs == (-1, -2)


@pytest.mark.parametrize("dims, fixed_dims, field", [
    ({0: 4.9, 1: 2.2}, {0: 2, 1: 2}, "^dims value"),  # was (-1, -2)
    ({0: 4, 1: "2"}, {0: 2, 1: 2}, "^dims value"),
    ({0: 4, 1: 2}, {0: 2, 1: 2.0}, "^fixed_dims value"),
])
def test_gsv_assemble_rejects_non_integers(dims, fixed_dims, field):
    with pytest.raises(InconsistentDataError, match=field):
        gsv_assemble_from_dims(pool()["Z2"], dims, fixed_dims, 1)


@pytest.mark.parametrize("k", [True, 0.5, "1", None])
def test_gsv_assemble_rejects_a_k_that_is_not_an_int(k):
    with pytest.raises(ValueError, match="^k must be an integer"):
        gsv_assemble_from_dims(pool()["Z2"], {0: 4, 1: 2}, {0: 2, 1: 2}, k)


@pytest.mark.parametrize("k", [-1, -5])
def test_gsv_assemble_rejects_a_negative_k(k):
    # k is a reduction order, k >= 0, as for commuting_class_counts
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        gsv_assemble_from_dims(pool()["Z2"], {0: 4, 1: 2}, {0: 2, 1: 2}, k)


def test_fixed_set_index_data_rejects_non_integers():
    z2 = pool()["Z2"]
    with pytest.raises(InconsistentDataError, match="^per_subgroup must"):
        FixedSetIndexData(z2, {0: 2, 1: 0.5})
    with pytest.raises(InconsistentDataError, match="^per_class must"):
        FixedSetIndexData(z2, {0: 2, 1: 0}, {0: 2.0, 1: 0})


def test_gsv_assemble_missing_entry():
    z2 = pool()["Z2"]
    with pytest.raises(InconsistentDataError):
        gsv_assemble_from_dims(z2, {1: 2}, {0: 2, 1: 1}, 1)


def test_gsv_assemble_rejects_data_not_constant_on_conjugacy_classes():
    # the three conjugate Z2's of S3 carry fixed-set indices 1, 3 and -1
    s3 = pool()["S3"]
    fixed_dims = {0: 3, 1: 2, 2: 2, 3: 2, 4: 1, 5: 1}
    dims = {0: -3, 1: 1, 2: 3, 3: -1, 4: 0, 5: 0}
    with pytest.raises(InconsistentDataError):
        gsv_assemble_from_dims(s3, dims, fixed_dims, 0)


def test_gsv_assemble_round_trip_against_forward_formula():
    # dims generated from a known element must reassemble to that element,
    # for any choice of fixed-space dimensions above the threshold
    rng = random.Random(23)
    for name in POOL_NAMES:
        g = pool()[name]
        lat = g.lattice()
        ns = len(lat.subgroups)
        for b in random_elements(g, 10, seed=29):
            k = rng.choice([0, 1])
            fixed_dims = {}
            for c, cls in enumerate(lat.classes):
                nk = k + 1 + rng.randrange(3)
                for i in cls:
                    fixed_dims[i] = nk
            fwd = fixed_indices_from_index(b).per_subgroup
            dims = {i: (-1) ** (fixed_dims[i] - k) * fwd[i] for i in range(ns)}
            assert gsv_assemble_from_dims(g, dims, fixed_dims, k) == b


# -- higher-order indices ------------------------------------------------------------------

def test_higher_order_index():
    # ind^{G,(k)} = r_k(ind^G); k = 1 is the orbifold index
    z6 = pool()["Z6"]
    b = BurnsideElement(z6, (1, -1, 0, 1))
    assert r_k(b, 0) == 1
    assert r_k(b, 1) == 6 - 2 + 1
    assert r_k(zero(z6), 1) == 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(POOL_NAMES), st.data())
def test_round_trip_property(name, data):
    g = pool()[name]
    nc = g.lattice().num_classes
    vec = st.lists(st.integers(-6, 6), min_size=nc, max_size=nc)
    b = BurnsideElement(g, data.draw(vec))
    assert index_from_fixed_indices(fixed_indices_from_index(b)) == b


def test_an_orbit_datum_over_the_wrong_groups_is_rejected():
    s3, z6 = pool()["S3"], pool()["Z6"]
    foreign = z6.lattice().subgroups[1]
    with pytest.raises(NotASubgroupError, match="^orbit isotropy is not"):
        induce_orbit_index(
            SingularOrbitDatum(foreign, one(foreign.as_group())), s3)
    sub = s3.lattice().subgroups[1]
    with pytest.raises(InconsistentDataError, match="^local index is not"):
        induce_orbit_index(SingularOrbitDatum(sub, one(z6)), s3)


def test_gsv_assemble_rejects_missing_fixed_dims():
    with pytest.raises(InconsistentDataError,
                       match="^fixed-space dimension missing"):
        gsv_assemble_from_dims(pool()["Z2"], {0: 4, 1: 2}, {0: 2}, 1)
