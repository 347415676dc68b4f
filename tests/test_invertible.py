import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqindex import (IntegralityError, InvalidPolynomialError,
                     NotASubgroupError, OrderBoundError, PairingError,
                     chi_G_milnor, duality_check, index_df, milnor_number,
                     pairing, restrict_to, symmetry_group, transpose,
                     validate)
from eqindex.burnside import cardinality, marks_vector, one, r_k, restrict
from eqindex import burnside, groups, invertible
from eqindex.groups import build_group, diagonal_group
from eqindex.invertible import (InvertiblePolynomial, _fixed_chi,
                                _fixed_loci, _locus_mask, _orbifold_indices,
                                check_perfect_pairing, det_int, pairing_matrix,
                                solve_exact)

from invertible_family import (_atoms_upto, _loop_canonical, atom_det,
                               duality_family, mu_oracle_family)
from oracles import (chi_G_exact_isotropy_oracle, fixed_locus,
                     milnor_number_jacobian, orbifold_indices_oracle)

FERMAT = validate([[2, 0], [0, 3]])        # x^2 + y^3
CHAIN = validate([[2, 1], [0, 3]])         # x^2 y + y^3
DUAL_CHAIN = validate([[2, 0], [1, 3]])    # x^2 + x y^3


# -- validation ----------------------------------------------------------------

def test_validate_fermat_pair():
    assert [a.kind for a in FERMAT.atoms] == ["fermat", "fermat"]
    assert FERMAT.weights == (Fraction(1, 2), Fraction(1, 3))
    assert FERMAT.det == 6


def test_validate_chain():
    assert [a.kind for a in CHAIN.atoms] == ["chain"]
    assert CHAIN.atoms[0].variables == (0, 1)
    assert CHAIN.atoms[0].exponents == (2, 3)
    assert CHAIN.weights == (Fraction(1, 3), Fraction(1, 3))


def test_validate_smooth_single_variable():
    f = validate([[1]])
    assert f.atoms[0].kind == "fermat"
    assert f.weights == (Fraction(1),)
    assert milnor_number(f) == 0


def test_validate_loop():
    f = validate([[2, 1], [1, 2]])
    assert [a.kind for a in f.atoms] == ["loop"]
    assert f.det == 3


def test_validate_with_row_swap():
    # y^2 + x^3: the first pivot is zero, so elimination swaps rows
    f = validate([[0, 2], [3, 0]])
    assert f.det == -6
    assert f.weights == (Fraction(1, 3), Fraction(1, 2))


def test_validate_rejects_singular_matrix():
    with pytest.raises(InvalidPolynomialError):
        validate([[1, 1], [1, 1]])


def test_validate_rejects_non_atom_shapes():
    with pytest.raises(InvalidPolynomialError):
        validate([[2, 1, 1], [0, 2, 0], [0, 0, 2]])  # three-variable monomial
    with pytest.raises(InvalidPolynomialError):
        validate([[2, 2], [0, 3]])  # tail exponent 2


@pytest.mark.parametrize("matrix", [
    [[2.7, 0], [0, 3]],  # was read as x^2 + y^3
    [[2, 0], [0, "3"]],
    [[True, 0], [0, 3]],
])
def test_validate_rejects_non_integer_exponents(matrix):
    with pytest.raises(InvalidPolynomialError, match="exponent"):
        validate(matrix)


def test_validate_reads_the_shape_before_it_eliminates(monkeypatch):
    # a singular matrix of atom shape still reaches the elimination
    with pytest.raises(InvalidPolynomialError, match="determinant zero$"):
        validate([[1, 1], [1, 1]])

    def no_elimination(*args):
        raise AssertionError("eliminated a matrix of the wrong shape")
    monkeypatch.setattr(invertible, "_fraction_free_solve", no_elimination)
    # a dense 250 x 250 matrix of 0..3 once took 20 s of elimination before
    # its first row was read; a singular one reports its shape too
    rng = random.Random(250)
    dense = [[rng.randrange(4) for _ in range(250)] for _ in range(250)]
    for E in (dense, [[0]]):
        start = time.perf_counter()
        with pytest.raises(InvalidPolynomialError,
                           match="^monomial 0 does not have"):
            validate(E)
        assert time.perf_counter() - start < 1


def test_validate_rejects_zero_weight():
    # x z + z y + y: decomposes combinatorially but the weights leave (0, 1]
    with pytest.raises(InvalidPolynomialError):
        validate([[1, 0, 1], [0, 1, 1], [0, 1, 0]])


def _first_pick_oracle(options):
    """The first pick, in `itertools.product` order, of one reading per row
    with distinct heads and distinct tails (None aside)."""
    for pick in itertools.product(*options):
        heads = [h for h, _ in pick]
        tails = [t for _, t in pick if t is not None]
        if len(set(heads)) == len(heads) and len(set(tails)) == len(tails):
            return list(pick)
    return None


def test_head_search_takes_the_first_pick_in_row_order():
    rng = random.Random(33)
    outcomes = Counter()
    for _ in range(600):
        n = rng.randint(1, 6)
        options = [[(rng.randrange(n), rng.choice([None, *range(n)]))
                    for _ in range(rng.randint(1, 2))] for _ in range(n)]
        pick = invertible._assign_heads(options, n)
        assert pick == _first_pick_oracle(options), options
        outcomes[pick is None] += 1
    assert outcomes[True] and outcomes[False]
    assert invertible._assign_heads([], 0) == []


@pytest.mark.parametrize("n, closing", [
    (1100, [(1099, None)]),        # x1 x2 + ... + x_{n-1} x_n + x_n^2
    (1101, [(0, 1100), (1100, 0)]),  # x1 x2 + ... + x_n x1, n odd
])
def test_head_search_needs_no_recursion_on_long_atoms(n, closing):
    # one reading per row, far past the interpreter's recursion limit
    options = [[(i, i + 1), (i + 1, i)] for i in range(n - 1)] + [closing]
    assert invertible._assign_heads(options, n) == \
        [(i, i + 1) for i in range(n - 1)] + [closing[-1]]


# -- determinants -----------------------------------------------------------------

def _det_cofactor(m):
    """Laplace expansion along the first row: an independent reference."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j]
               * _det_cofactor([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_det_int_matches_cofactor_expansion():
    rng = random.Random(7)
    cases = [[], [[0, 1], [1, 0]], [[0, 0], [0, 5]], [[1, 2], [2, 4]],
             [[0, 2, 1], [3, 0, 0], [1, 1, 1]]]
    for _ in range(300):
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            m[0][0] = 0
        cases.append(m)
    for m in cases:
        assert det_int(m) == _det_cofactor(m), m


def _solve_fraction(m, columns):
    """Gauss-Jordan over Fraction: an independent reference for solve_exact."""
    n = len(m)
    aug = [[Fraction(x) for x in m[r]] + [Fraction(c[r]) for c in columns]
           for r in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [[aug[r][n + k] for r in range(n)] for k in range(len(columns))]


def test_solve_exact_matches_fraction_gauss_jordan():
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            m[0][0] = 0
        if _det_cofactor(m) == 0:
            continue
        columns = [[rng.randint(-9, 9) for _ in range(n)]
                   for _ in range(rng.randint(1, 3))]
        assert solve_exact(m, columns) == _solve_fraction(m, columns), m
        checked += 1


def test_solve_exact_rejects_singular_matrices():
    for m in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 5]],
              [[1, 2, 3], [4, 5, 6], [7, 8, 9]]):
        with pytest.raises(InvalidPolynomialError):
            solve_exact(m, [[1] * len(m)])


# -- Milnor numbers ----------------------------------------------------------------

def test_milnor_numbers_of_named_fixtures():
    assert milnor_number(FERMAT) == 2
    assert milnor_number(CHAIN) == 4
    assert milnor_number(DUAL_CHAIN) == 5


def test_milnor_empty_polynomial_is_one():
    assert milnor_number(validate([])) == 1


def test_milnor_matches_jacobian_oracle_on_named_fixtures():
    for f in (FERMAT, CHAIN, DUAL_CHAIN):
        assert milnor_number(f) == milnor_number_jacobian(f.E)


def test_milnor_matches_jacobian_oracle_on_family():
    for f in mu_oracle_family():
        assert milnor_number(f) == milnor_number_jacobian(f.E), f.E


def test_milnor_product_must_be_a_non_negative_integer():
    for weights in ((Fraction(2, 3),), (Fraction(-1, 2),),
                    (Fraction(1, 3), Fraction(3, 4))):
        f = InvertiblePolynomial(E=(), atoms=(), weights=weights, det=1,
                                 adjugate=())
        with pytest.raises(InvalidPolynomialError):
            milnor_number(f)


# -- symmetry groups ----------------------------------------------------------------

def test_symmetry_group_fermat_pair():
    g = symmetry_group(FERMAT)
    assert g.order == 6
    phases = {g.phases(i) for i in range(6)}
    assert (Fraction(1, 2), Fraction(0)) in phases
    assert (Fraction(0), Fraction(1, 3)) in phases


def test_symmetry_group_chain_is_cyclic_6():
    g = symmetry_group(CHAIN)
    assert g.order == 6
    gen = (Fraction(5, 6), Fraction(1, 3))  # -1/6 mod 1 = 5/6
    assert gen in {g.phases(i) for i in range(6)}


def test_symmetry_group_dual_chain():
    g = symmetry_group(DUAL_CHAIN)
    assert g.order == 6
    assert (Fraction(1, 2), Fraction(5, 6)) in {g.phases(i) for i in range(6)}


def test_symmetry_group_order_bound():
    with pytest.raises(OrderBoundError):
        symmetry_group(validate([[2023]]))


def test_symmetry_group_matches_fraction_inverse_route():
    # G_f from adj(E) / |det E| in integers against build_group on the
    # Fraction columns of E^-1; edge cases: det -4, denominator 2 while
    # |det| is 4, order 1
    edges = [validate(E) for E in ([[1, 2], [2, 0]], [[2, 0], [0, 2]], [[1]])]
    for f in edges + list(duality_family(24, 3)):
        g = symmetry_group(f)
        identity = [[int(r == c) for r in range(f.n)] for c in range(f.n)]
        h = build_group({"kind": "diagonal",
                         "phases": solve_exact(f.E, identity)})
        assert g.keys == h.keys, f.E
        assert g.denominator == h.denominator, f.E
        assert g.generator_keys == h.generator_keys, f.E
        assert g.presentation == h.presentation, f.E
        assert g.fingerprint == h.fingerprint, f.E
    assert [symmetry_group(f).denominator for f in edges] == [4, 2, 1]
    assert [symmetry_group(f).order for f in edges] == [4, 4, 1]


# -- transpose -----------------------------------------------------------------------

def test_transpose_examples():
    assert transpose(FERMAT).E == FERMAT.E
    assert transpose(CHAIN).E == DUAL_CHAIN.E
    assert transpose(transpose(CHAIN)).E == CHAIN.E


def test_transpose_of_head_one_chain_is_degenerate():
    f = validate([[1, 1], [0, 2]])  # x y + y^2: a valid germ
    assert milnor_number(f) == 1
    # but its dual x + x y^2 is not weighted-homogeneous with positive weights
    with pytest.raises(InvalidPolynomialError,
                       match=r"^weight 0 outside \(0, 1\]; not an invertible "
                             r"polynomial germ$"):
        transpose(f)


def test_stored_adjugate_and_transpose_match_independent_routes():
    cases = list(duality_family(24, 3)) + [validate([[1, 2], [2, 0]]),
                                           validate([[1]])]
    assert cases[-2].det == -4
    for f in cases:
        identity = [[int(r == c) for r in range(f.n)] for c in range(f.n)]
        assert [[Fraction(x, f.det) for x in col] for col in f.adjugate] \
            == _solve_fraction(f.E, identity), f.E
        # transpose reuses det E and adj(E)^T; validate eliminates E^T anew
        ft, expected = transpose(f), validate(tuple(zip(*f.E)))
        for name in ("E", "atoms", "weights", "det", "adjugate"):
            assert getattr(ft, name) == getattr(expected, name), (f.E, name)
        g, h = symmetry_group(ft), symmetry_group(expected)
        for name in ("keys", "denominator", "generator_keys", "fingerprint"):
            assert getattr(g, name) == getattr(h, name), (f.E, name)


# -- pairing & dual subgroups ----------------------------------------------------------

def test_pairing_bilinear_and_zero_on_identity():
    gf = symmetry_group(CHAIN)
    gft = symmetry_group(DUAL_CHAIN)
    zero_f = gf.phases(gf.identity)
    for j in range(gft.order):
        assert pairing(CHAIN, zero_f, gft.phases(j)) == 0
    a = (Fraction(5, 6), Fraction(1, 3))
    b = (Fraction(1, 2), Fraction(5, 6))
    v = pairing(CHAIN, a, b)
    # additivity in each slot
    a2 = tuple((x + x) % 1 for x in a)
    assert pairing(CHAIN, a2, b) == (v + v) % 1
    assert v.denominator <= 6 and 6 % v.denominator == 0


def test_pairing_rejects_non_members():
    with pytest.raises(PairingError):
        pairing(CHAIN, (Fraction(1, 5), Fraction(0)), (Fraction(0), Fraction(0)))


@pytest.mark.parametrize("bad", [0.5, "1/2", None, True, False])
def test_pairing_rejects_phases_that_are_not_int_or_fraction(bad):
    f = validate([[2, 1], [0, 2]])
    for a, b in (((bad, 0), (0, 0)), ((0, 0), (0, bad))):
        with pytest.raises(PairingError, match=f"got {bad!r}$"):
            pairing(f, a, b)
    assert pairing(f, (Fraction(1, 4), Fraction(1, 2)), (1, 0)) == 0


@pytest.mark.parametrize("bad", [1, None])
def test_pairing_rejects_phase_vectors_that_are_not_sequences(bad):
    f = validate([[2, 1], [0, 2]])
    for name, a, b in (("a", bad, (0, 0)), ("b", (0, 0), bad)):
        with pytest.raises(PairingError, match=f"^{name} must be a list"):
            pairing(f, a, b)


def test_polynomial_without_adjugate_is_rejected_at_construction():
    with pytest.raises(TypeError, match="adjugate"):
        InvertiblePolynomial(E=((2,),), atoms=(), weights=(), det=2)


def test_pairing_is_perfect_on_family_sample():
    for f in duality_family(24, 3)[::7]:
        gf = symmetry_group(f)
        gft = symmetry_group(transpose(f))
        check_perfect_pairing(f, gf, gft)


def test_pairing_matrix_entries_are_the_pairings():
    # both run one pairing routine; this pins their reductions against
    # each other, since only the matrix reduces a whole row at once
    checked = 0
    for f in duality_family(24, 3)[::6]:
        gf = symmetry_group(f)
        gft = symmetry_group(transpose(f))
        den, num = pairing_matrix(f, gf, gft)
        assert den == gft.denominator
        assert len(num) == gf.order
        for i, row in enumerate(num):
            assert len(row) == gft.order
            for j, v in enumerate(row):
                assert 0 <= v < den
                assert Fraction(v, den) == pairing(f, gf.phases(i),
                                                   gft.phases(j)), (f.E, i, j)
                checked += 1
    assert checked > 1000


def test_dual_subgroup_examples():
    gf = symmetry_group(CHAIN)
    gft = symmetry_group(DUAL_CHAIN)
    annihilator = check_perfect_pairing(CHAIN, gf, gft)
    lat = gf.lattice()
    triv = lat.subgroups[0]
    whole = lat.subgroups[-1]
    assert len(annihilator(triv.members)) == 6
    assert len(annihilator(whole.members)) == 1
    h2 = lat.subgroups[1]
    assert h2.order == 2
    assert len(annihilator(h2.members)) == 3


def test_dual_subgroup_involution_and_order_product():
    for f in duality_family(20, 2):
        ft = transpose(f)
        gf, gft = symmetry_group(f), symmetry_group(ft)
        annihilator = check_perfect_pairing(f, gf, gft)
        annihilator_back = check_perfect_pairing(ft, gft, gf)
        lat = gf.lattice()
        for sub in lat.subgroups:
            dual = annihilator(sub.members)
            assert sub.order * len(dual) == gf.order
            back = annihilator_back(dual)
            assert back == sub.members


def _zero_set(f, gf, gft, members):
    """{b in G_{f~} : a^T E^T b = 0 mod 1 for every a in H}, in Fractions over
    every member of H."""
    n = f.n
    zeros = set()
    for j in range(gft.order):
        b = gft.phases(j)
        etb = [sum(f.E[r][i] * b[r] for r in range(n)) for i in range(n)]
        if all(sum(x * y for x, y in zip(gf.phases(m), etb)) % 1 == 0
               for m in members):
            zeros.add(j)
    return frozenset(zeros)


def test_annihilators_match_fraction_zero_sets():
    for f in duality_family(24, 3)[::5]:
        gf, gft = symmetry_group(f), symmetry_group(transpose(f))
        lat, dual_lat = gf.lattice(), gft.lattice()
        annihilator = check_perfect_pairing(f, gf, gft)
        report = duality_check(f)
        for i, sub in enumerate(lat.subgroups):
            expected = _zero_set(f, gf, gft, sub.members)
            assert annihilator(sub.members) == expected
            pair = report.pairs[i]
            assert pair.subgroup_label == lat.labels[i]
            assert pair.dual_label == \
                dual_lat.labels[dual_lat.subgroup_index(expected)]


def test_degenerate_pairing_is_rejected():
    # x^2 + y^2 with G_f cut down to <(1/2, 0)> and G_{f~} to <(0, 1/2)>:
    # equal orders, every b a symmetry of the transpose, but <a, b> = 0
    f = validate([[2, 0], [0, 2]])
    half = Fraction(1, 2)
    gf = diagonal_group([[half, 0]])
    gft = diagonal_group([[0, half]])
    with pytest.raises(PairingError):
        check_perfect_pairing(f, gf, gft)


def test_pairing_rejects_groups_that_are_not_symmetries():
    gf, gft = symmetry_group(CHAIN), symmetry_group(DUAL_CHAIN)
    # (1/6, 0) generates a group of order 6 that does not preserve the
    # transpose x^2 + x y^3, nor x^2 y + y^3 itself
    z6 = diagonal_group([[Fraction(1, 6), 0]])
    with pytest.raises(PairingError):
        check_perfect_pairing(CHAIN, gf, z6)
    with pytest.raises(PairingError):
        check_perfect_pairing(CHAIN, z6, gft)


def test_annihilator_of_non_subgroup_is_pairing_error():
    gf, gft = symmetry_group(CHAIN), symmetry_group(DUAL_CHAIN)
    g = gf
    order3 = next(i for i in g.elements()
                  if i != g.identity and g.mul(i, g.mul(i, i)) == g.identity)
    # {e, a} with a of order 3 is not a subgroup, so it has no recorded
    # generators to annihilate
    annihilator = check_perfect_pairing(CHAIN, gf, gft)
    with pytest.raises(PairingError):
        annihilator({g.identity, order3})


# -- fixed loci and restriction ----------------------------------------------------------

def test_fixed_locus_examples():
    gf = symmetry_group(CHAIN)
    lat = gf.lattice()
    assert fixed_locus(gf, lat.subgroups[0].members) == frozenset({0, 1})
    z2 = lat.subgroups[1]
    assert fixed_locus(gf, z2.members) == frozenset({1})
    z3 = lat.subgroups[2]
    assert z3.order == 3
    assert fixed_locus(gf, z3.members) == frozenset()


def test_locus_masks_match_the_key_oracle():
    # G_f and G_{f~}, and the subgroup groups of every third G_f, whose
    # keys are the parent's
    family = duality_family(24, 3)
    children = [sub.as_group() for f in family[::3]
                for sub in symmetry_group(f).lattice().subgroups]
    checked = 0
    for gf in [g for f in family
               for g in (symmetry_group(f), symmetry_group(transpose(f)))] \
            + children:
        lat = gf.lattice()
        for sub, gens in zip(lat.subgroups, lat.generators):
            expected = sum(1 << j for j in fixed_locus(gf, sub.members))
            assert _locus_mask(gf, sub.members) == expected, \
                (gf.keys, sub.members)
            # Fix K is the intersection of Fix g over generators of K
            assert _locus_mask(gf, gens) == expected, \
                (gf.keys, sub.members, gens)
            checked += 1
    assert len(children) > 500 and checked > 2000


def test_restrict_to_examples():
    assert restrict_to(CHAIN, {0, 1}).E == CHAIN.E
    assert restrict_to(CHAIN, {1}).E == ((3,),)
    assert restrict_to(FERMAT, {0}).E == ((2,),)
    assert restrict_to(FERMAT, frozenset()).E == ()


def test_restrict_to_non_fixed_locus_is_hard_error():
    with pytest.raises(InvalidPolynomialError):
        restrict_to(CHAIN, {0})  # x-axis is not a fixed locus of the chain


def test_fixed_entry_weight_product_matches_restriction():
    # oracle: restrict f to the locus, validate it again and take its own
    # Milnor product; every fixed locus of every subgroup, both sides
    loci = 0
    for f in duality_family(60, 3)[::4]:
        for g in (f, transpose(f)):
            diag = symmetry_group(g)
            seen = {fixed_locus(diag, sub.members)
                    for sub in diag.lattice().subgroups}
            for locus in seen - {frozenset()}:
                expected = milnor_number(restrict_to(g, locus))
                chi = _fixed_chi(g, sum(1 << j for j in locus))
                assert chi == 1 + (-1) ** (len(locus) - 1) * expected, \
                    (g.E, locus)
                loci += 1
    assert loci > 1500


def test_fixed_entry_of_non_fixed_locus_is_hard_error():
    with pytest.raises(InvalidPolynomialError, match="^restriction is not"):
        _fixed_chi(CHAIN, 0b01)  # the x-axis


def test_fixed_chi_matches_restriction_on_every_coordinate_set():
    # every non-empty coordinate set of f and f~ over duality_family(24, 3):
    # where the monomials inside it (found here from E) are square, chi
    # from the integer table against f restricted, validated again and its
    # own Milnor number; elsewhere both raise
    square = 0
    for f in duality_family(24, 3):
        for g in (validate(f.E), transpose(f)):
            for mask in range(1, 1 << g.n):
                locus = [j for j in range(g.n) if mask >> j & 1]
                inside = [row for row in g.E
                          if all(mask >> j & 1 for j, v in enumerate(row) if v)]
                if len(inside) != len(locus):
                    for fn, arg in ((_fixed_chi, mask), (restrict_to, locus)):
                        with pytest.raises(InvalidPolynomialError,
                                           match="^restriction is not"):
                            fn(g, arg)
                    continue
                expected = milnor_number(restrict_to(g, locus))
                assert _fixed_chi(g, mask) == \
                    1 + (-1) ** (len(locus) - 1) * expected, (g.E, locus)
                square += 1
    assert square > 1000


def _fixed_marks(f, gf):
    """chi(M_f^H) for every subgroup H of G_f, read as the mark of
    chi^G(M_f) at H's class."""
    mv = marks_vector(chi_G_milnor(f, gf))
    return [mv[c] for c in gf.lattice().class_of]


def _chi_by_restriction(f, gf, members):
    """chi(M_f^H) from f restricted to H's fixed locus and validated again:
    0 on an empty locus, else 1 + (-1)^(m-1) mu(f^L) on an m-dimensional
    one.  Independent of chi^G(M_f) and its marks."""
    locus = fixed_locus(gf, members)
    if not locus:
        return 0
    return 1 + (-1) ** (len(locus) - 1) * milnor_number(restrict_to(f, locus))


def test_chi_milnor_fixed_examples():
    gf = symmetry_group(CHAIN)
    chi = _fixed_marks(CHAIN, gf)
    assert chi[-1] == 0
    assert chi[1] == 3
    assert chi[0] == 1 - 4


# -- equivariant Euler characteristic and the index of df ----------------------------------

def test_chi_G_milnor_fermat_pair():
    gf = symmetry_group(FERMAT)
    chi = chi_G_milnor(FERMAT, gf)
    assert chi.coeffs == (-1, 1, 1, 0)
    assert cardinality(chi) == -1


def test_chi_G_milnor_chain():
    gf = symmetry_group(CHAIN)
    assert chi_G_milnor(CHAIN, gf).coeffs == (-1, 1, 0, 0)


def test_chi_G_milnor_rejects_non_symmetry_group():
    # z -> (e^{2 pi i/5} x, y) does not preserve x^2 y + y^3
    diag = diagonal_group([(Fraction(1, 5), Fraction(0))])
    with pytest.raises(PairingError):
        chi_G_milnor(CHAIN, diag)


def test_chi_G_milnor_dual_chain():
    gf = symmetry_group(DUAL_CHAIN)
    assert chi_G_milnor(DUAL_CHAIN, gf).coeffs == (-1, 0, 1, 0)


def test_index_df_ground_truth():
    for f, coeffs, card in [
        (FERMAT, (1, -1, -1, 1), 2),
        (CHAIN, (1, -1, 0, 1), 4),
        (DUAL_CHAIN, (1, 0, -1, 1), 5),
    ]:
        gf = symmetry_group(f)
        ind = index_df(f, gf)
        assert ind.coeffs == coeffs
        assert cardinality(ind) == card


def test_index_df_trivial_group_reduction():
    gf = symmetry_group(CHAIN)
    triv = gf.lattice().subgroups[0]
    ind = index_df(CHAIN, triv.as_group())
    assert ind.coeffs == (4,)  # (-1)^n mu for n = 2


def test_milnor_data_invariants():
    # chi(M_f^H) is 0 on an empty fixed locus and 1 + (-1)^(m-1) mu(f^L) on
    # an m-dimensional one; the cardinality of chi^G(M_f) is chi(M_f)
    for f in (FERMAT, CHAIN, DUAL_CHAIN):
        gf = symmetry_group(f)
        lat = gf.lattice()
        fixed = _fixed_marks(f, gf)
        for i, sub in enumerate(lat.subgroups):
            locus = fixed_locus(gf, sub.members)
            chi = fixed[i]
            if not locus:
                assert chi == 0
            else:
                m = len(locus)
                assert chi == 1 + (-1) ** (m - 1) * \
                    milnor_number(restrict_to(f, locus))
        assert cardinality(chi_G_milnor(f, gf)) == fixed[0]


def test_mark_identity_for_chi_G_milnor():
    for f in duality_family(30, 2):
        gf = symmetry_group(f)
        lat = gf.lattice()
        mv = marks_vector(chi_G_milnor(f, gf))
        for i, sub in enumerate(lat.subgroups):
            assert mv[lat.class_of[i]] == \
                _chi_by_restriction(f, gf, sub.members)


def test_chi_G_milnor_matches_exact_isotropy_oracle():
    for f in duality_family(24, 3)[::3]:
        gf = symmetry_group(f)
        chi_fixed = [_chi_by_restriction(f, gf, s.members)
                     for s in gf.lattice().subgroups]
        assert chi_G_milnor(f, gf) == \
            chi_G_exact_isotropy_oracle(gf, chi_fixed), f.E


def test_index_cardinality_is_signed_milnor_number():
    for f in duality_family(30, 3):
        gf = symmetry_group(f)
        ind = index_df(f, gf)
        mu = milnor_number(f)
        assert cardinality(ind) == (-1) ** f.n * mu
        assert cardinality(ind) == \
            1 - _chi_by_restriction(f, gf, frozenset([gf.identity]))


def test_restriction_compatibility_named_fixtures():
    for f in (FERMAT, CHAIN, DUAL_CHAIN):
        gf = symmetry_group(f)
        ind = index_df(f, gf)
        for sub in gf.lattice().subgroups:
            sub_ind = index_df(f, sub.as_group())
            assert restrict(ind, sub) == sub_ind


# -- duality ---------------------------------------------------------------------------------

def test_duality_family_sizes():
    assert [len(duality_family(*args))
            for args in ((60, 3), (24, 3), (20, 2))] == [1452, 378, 98]


@pytest.mark.parametrize("max_det, max_size", [(24, 3), (30, 4), (12, 5)])
def test_pruned_atoms_are_the_product_scan(max_det, max_size):
    # the scan of every exponent tuple up to max_det, written out
    scanned = [("fermat", (a,)) for a in range(1, max_det + 1)]
    for size in range(2, max_size + 1):
        for exps in itertools.product(range(1, max_det + 1), repeat=size):
            if math.prod(exps) <= max_det:
                scanned.append(("chain", exps))
            det = atom_det("loop", exps)
            if det and abs(det) <= max_det and exps == _loop_canonical(exps):
                scanned.append(("loop", exps))
    assert sorted(_atoms_upto(max_det, max_size)) == sorted(scanned)


def test_duality_check_chain_fixture():
    rep = duality_check(CHAIN)
    assert rep.orbit_index == 1 and rep.dual_orbit_index == 1
    by_orders = {(p.subgroup_order, p.dual_order): p for p in rep.pairs}
    assert by_orders[(6, 1)].orbifold_index == 5
    assert by_orders[(6, 1)].dual_orbifold_index == 5
    assert by_orders[(1, 6)].orbifold_index == 4
    assert by_orders[(1, 6)].dual_orbifold_index == 4
    assert rep.all_match


def test_duality_r0_example_values():
    rep = duality_check(CHAIN)
    # 1 + 1 - 1 on each side
    assert rep.orbit_index == 1 == rep.dual_orbit_index


def test_duality_bound():
    # G_f's own bound, MAX_ORDER = 2000, is the duality check's
    with pytest.raises(OrderBoundError):
        duality_check(validate([[2001]]))


def test_duality_size_error_comes_before_the_transposes():
    # x y + y^2001: |det E| = 2001, and its transpose x + x y^2001 gives y
    # the weight 0
    f = validate([[1, 1], [0, 2001]])
    with pytest.raises(InvalidPolynomialError, match="weight"):
        transpose(f)
    with pytest.raises(OrderBoundError):
        duality_check(f)


@pytest.mark.parametrize("matrix", [
    [[501]],
    [[6, 0], [0, 284]],
    [[2, 1], [0, 300]],
    [[2, 1], [0, 1000]],
    [[40, 1], [1, 45]],
    [[10, 0, 0], [0, 10, 0], [0, 0, 10]],  # (Z/10)^3, 1024 subgroups
    [[2, 1, 0], [0, 40, 0], [0, 0, 12]],
], ids=["fermat-501", "fermats-1704", "chain-600", "chain-2000", "loop-1799",
        "fermats-1000", "chain-fermat-960"])
def test_duality_holds_between_the_old_and_the_order_bound(matrix):
    # criterion 7's assertions on 500 < |det E| <= 2000: MAX_ORDER alone
    # bounds the duality check
    f = validate(matrix)
    assert 500 < abs(f.det) <= 2000
    start = time.perf_counter()
    rep = duality_check(f)
    assert time.perf_counter() - start < 10.0
    assert rep.orbit_match and rep.all_sign_match
    assert len(rep.pairs) == len(symmetry_group(f).lattice().subgroups)
    if f.n % 2 == 0:
        assert rep.all_match


def test_duality_sign_phenomenon_on_one_variable():
    # for odd n the orbifold indices coincide only up to the sign (-1)^n
    rep = duality_check(validate([[3]]))
    assert rep.orbit_match
    assert not rep.all_match
    assert rep.all_sign_match
    flagged = rep.flagged_pairs
    assert flagged
    for p in flagged:
        assert p.orbifold_index == -p.dual_orbifold_index


def test_dual_labels_match_the_dual_lattice():
    # duality_check ranks the annihilators instead of building G_{f~}'s
    # lattice; the lattice lookup is the oracle
    for f in duality_family(60, 3):
        rep = duality_check(f)
        gf, gft = symmetry_group(f), symmetry_group(transpose(f))
        annihilator = check_perfect_pairing(f, gf, gft)
        lat, dual_lat = gf.lattice(), gft.lattice()
        for p in rep.pairs:
            members = lat.subgroup_by_label(p.subgroup_label).members
            di = dual_lat.subgroup_index(annihilator(members))
            assert p.dual_label == dual_lat.labels[di]
            assert p.dual_order == dual_lat.subgroups[di].order


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(duality_family(36, 2)))
def test_duality_even_dimension_matches_verbatim(f):
    rep = duality_check(f)
    assert rep.orbit_match
    assert rep.all_sign_match
    if f.n % 2 == 0:
        assert rep.all_match


def test_duality_orbifold_indices_match_burnside_route():
    # oracle: r_1 of the index of df over each subgroup, rebuilt as its own
    # group with its own lattice and commuting-pair counts
    pairs = 0
    for f in duality_family(24, 3)[::3]:
        rep = duality_check(f)
        ft = transpose(f)
        gf, gft = symmetry_group(f), symmetry_group(ft)
        assert rep.orbit_index == r_k(index_df(f, gf), 0)
        assert rep.dual_orbit_index == r_k(index_df(ft, gft), 0)
        for p in rep.pairs:
            for g, poly, label, v in (
                    (gf, f, p.subgroup_label, p.orbifold_index),
                    (gft, ft, p.dual_label, p.dual_orbifold_index)):
                sub = g.lattice().subgroup_by_label(label)
                assert v == r_k(index_df(
                    poly, sub.as_group()), 1), (f.E, label)
            pairs += 1
    assert pairs > 500


def test_duality_orbifold_indices_match_the_mask_pair_oracle():
    # oracle: Burnside's lemma over the elements and pairs of every H and
    # H^T, counted by fixed-coordinate masks read from the keys
    for f in duality_family(60, 3):
        rep = duality_check(f)
        ft = transpose(f)
        gf, gft = symmetry_group(f), symmetry_group(ft)
        annihilator = check_perfect_pairing(f, gf, gft)
        members = [s.members for s in gf.lattice().subgroups]
        for poly, g, sets, r0, v in (
                (f, gf, members, rep.orbit_index,
                 [p.orbifold_index for p in rep.pairs]),
                (ft, gft, list(map(annihilator, members)),
                 rep.dual_orbit_index,
                 [p.dual_orbifold_index for p in rep.pairs])):
            assert (r0, v) == orbifold_indices_oracle(
                poly, g, sets, _fixed_chi), f.E


def _mask(coords) -> int:
    return sum(1 << j for j in coords)


def test_dual_loci_are_read_from_the_columns_of_the_inverse():
    # Fix K^T = {j : rho_j in K} for the columns rho_j of E^{-1}, against
    # the coordinates where every key of the annihilator of K is 0
    checked = 0
    for f in duality_family(60, 3):
        gf, gft = symmetry_group(f), symmetry_group(transpose(f))
        annihilator = check_perfect_pairing(f, gf, gft)
        loci, dual_loci = _fixed_loci(gf)
        for sub, locus, dual_locus in zip(gf.lattice().subgroups, loci,
                                          dual_loci):
            assert locus == _mask(fixed_locus(gf, sub.members))
            assert dual_locus == _mask(fixed_locus(
                gft, annihilator(sub.members))), (f.E, sub.members)
            checked += 1
    assert checked > 10000


def test_non_integral_orbit_count_is_integrality_error(monkeypatch):
    # x^3 over Z/3: r_0 = 1 - (chi(M_f) + 2 chi(empty)) / 3 = 1 - 3/3; a
    # chi(M_f) one too large makes the orbit count 4/3.  Only f's chi, then
    # only f~'s, is moved, so each side's check is met on its own.
    f = validate([[3]])
    pair = (f, transpose(f))
    g = symmetry_group(f)
    assert _orbifold_indices(*pair, g)[0] == 0
    real = invertible._fixed_chi
    for moved in pair:
        def off_by_one(poly, mask, moved=moved):
            return real(poly, mask) + (poly is moved and bool(mask))

        monkeypatch.setattr(invertible, "_fixed_chi", off_by_one)
        with pytest.raises(IntegralityError, match="^orbit count"):
            _orbifold_indices(*pair, g)


def test_duality_check_reads_fixed_loci_without_restricting(monkeypatch):
    def forbidden(*args):
        raise AssertionError("called from duality_check")

    for module, name in ((invertible, "restrict_to"),
                         (invertible, "chi_G_milnor"),
                         (invertible, "element_from_marks"),
                         (invertible, "one"), (burnside, "table_of_marks")):
        monkeypatch.setattr(module, name, forbidden)
    assert duality_check(CHAIN).all_match


def _is_cyclic(group) -> bool:
    """Whether a diagonal group has an element of order |G|: a key whose
    multiples reach the group's order before they return to 0."""
    den = group.denominator
    return any(den // math.gcd(den, *k) == group.order for k in group.keys)


def _count_locus_tables(monkeypatch, counts):
    """Count, under "_locus_table", the integer tables built: the calls of
    `invertible._locus_table` on a polynomial that has none yet."""
    real = invertible._locus_table

    def counted(f):
        counts["_locus_table"] += f._locus_table is None
        return real(f)
    monkeypatch.setattr(invertible, "_locus_table", counted)


def test_duality_pipeline_builds_two_groups_one_lattice_no_table(monkeypatch):
    counts = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("_canonical_table", "_moebius_rows", "SubgroupLattice",
                 "_cyclic_subgroups", "_prime_step_joins", "_up_sets"):
        count(groups, name)
    count(invertible, "diagonal_group_from_integers")
    count(invertible, "_fraction_free_solve")
    _count_locus_tables(monkeypatch, counts)
    # x^2 y + y^2 z + z^3 (G_f = Z/12) and x^2 y + y^2 + z^2 (Z/4 x Z/2)
    for E, walks in (([[2, 1, 0], [0, 2, 1], [0, 0, 3]], 0),
                     ([[2, 1, 0], [0, 2, 0], [0, 0, 2]], 1)):
        counts.clear()
        f = validate(E)
        report = duality_check(f)
        ind = index_df(f, symmetry_group(f))
        # one elimination for f and f~; G_f and G_{f~}, G_f's lattice (its
        # cyclic subgroups and up-sets, and a prime-step walk only when G_f
        # is not cyclic) and one integer locus table for each of f and f~,
        # each built once (G_{f~}'s loci are read from G_f); no Cayley
        # table of either group and no Moebius rows
        assert _is_cyclic(symmetry_group(f)) == (walks == 0)
        assert counts == Counter({"_fraction_free_solve": 1,
                                  "diagonal_group_from_integers": 2,
                                  "SubgroupLattice": 1, "_cyclic_subgroups": 1,
                                  "_prime_step_joins": walks, "_up_sets": 1,
                                  "_locus_table": 2}), E
        assert counts["_canonical_table"] == counts["_moebius_rows"] == 0
        assert report.all_sign_match and \
            cardinality(ind) == (-1) ** f.n * milnor_number(f)
    assert symmetry_group(f) is symmetry_group(f)
    assert symmetry_group(validate(f.E)) is not symmetry_group(validate(f.E))


def test_duality_pipeline_builds_only_what_it_reads(monkeypatch):
    # one duality-sweep operation per fixture, each started afresh:
    # validate -> duality_check -> cardinality(index_df).  One table of
    # marks, G_f's, whose rows are the down-sets of its lattice; a
    # symmetric E is its own transpose, with one diagonal group;
    # annihilators only for subgroups whose order another one shares, and
    # pairing rows only for the recorded generators they and G_f read
    counts, annihilated, rows = Counter(), [], []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    count(burnside, "TableOfMarks")
    count(invertible, "transpose")
    count(invertible, "diagonal_group_from_integers")
    real_pairing, real_image = (invertible.check_perfect_pairing,
                                invertible._integral_image)

    def recording(*args):
        annihilator = real_pairing(*args)
        return lambda members: annihilated.append(frozenset(members)) or \
            annihilator(members)

    def image(matrix, vec, den):
        rows.append((matrix, tuple(vec)))
        return real_image(matrix, vec, den)
    monkeypatch.setattr(invertible, "check_perfect_pairing", recording)
    monkeypatch.setattr(invertible, "_integral_image", image)
    quadric = validate([[2 * (i == j) for j in range(3)] for i in range(3)])
    fixtures = [*duality_family(24, 3)[::6], quadric]
    kinds = Counter()
    for E in (f.E for f in fixtures):
        counts.clear()
        del annihilated[:], rows[:]
        f = validate(E)
        report = duality_check(f)
        paired = [vec for matrix, vec in rows if matrix is f.E]
        card = cardinality(index_df(f, symmetry_group(f)))
        assert report.all_sign_match
        assert card == (-1) ** f.n * milnor_number(f)
        symmetric = E == tuple(zip(*E))
        assert counts == Counter({"TableOfMarks": 1,
                                  "transpose": 1 - symmetric,
                                  "diagonal_group_from_integers":
                                      2 - symmetric}), E
        gf = symmetry_group(f)
        lat = gf.lattice()
        assert burnside.table_of_marks(gf).rows is lat.down
        orders = Counter(s.order for s in lat.subgroups)
        tied = [s.members for s in lat.subgroups if orders[s.order] > 1]
        assert sorted(annihilated, key=sorted) == sorted(tied, key=sorted)
        read = {c for i in [len(lat.subgroups) - 1] + list(map(
            lat.subgroup_index, tied)) for c in lat.generators[i]}
        assert sorted(paired) == sorted(gf.keys[c] for c in read), E
        if _is_cyclic(gf):
            assert paired == [gf.keys[c] for c in lat.generators[-1]]
        kinds[symmetric, _is_cyclic(gf), bool(tied)] += 1
    # (Z/2)^3: the orders 2 and 4 tie, seven subgroups each
    assert len(annihilated) == 14 and orders == Counter({1: 1, 2: 7, 4: 7,
                                                         8: 1})
    assert {(True, True, False), (True, False, True), (False, True, False),
            (False, False, True)} <= set(kinds)


def test_duality_sweep_evaluates_each_locus_once(monkeypatch):
    # one duality-sweep operation per fixture, started afresh: validate ->
    # duality_check -> index_df.  chi(M_f^L) is kept in f's locus table,
    # so each distinct non-empty locus of f and of f~ costs one Milnor
    # product (the empty locus none), though G_f's side of the check and
    # chi^G(M_f) both read f's loci; a symmetric E is its own dual, and its
    # dual loci are loci of f
    products = []
    real = invertible._milnor_product
    monkeypatch.setattr(invertible, "_milnor_product", lambda factors: (
        products.append(factors) or real(factors)))
    quadric = validate([[2 * (i == j) for j in range(3)] for i in range(3)])
    for E in [f.E for f in duality_family(24, 3)] + [quadric.E]:
        del products[:]
        f = validate(E)
        duality_check(f)
        index_df(f, symmetry_group(f))
        loci, dual_loci = ({L for L in side if L}
                           for side in _fixed_loci(symmetry_group(f)))
        want = len(loci | dual_loci) if E == tuple(zip(*E)) else \
            len(loci) + len(dual_loci)
        assert len(products) == want, E


def test_restricting_index_df_builds_no_table_and_no_moebius_rows(
        monkeypatch):
    # criterion 8's loop: restriction to every subgroup reads the marks of
    # G_f and of each subgroup group.  Each G_f lists its cyclic subgroups
    # once, and is walked by prime steps once unless it is cyclic; each
    # subgroup group's subgroups are read off G_f's lattice with no walk of
    # its own; every lattice, G_f's or a subgroup group's, builds its
    # up-sets in one pass; the loci of every group read one integer table
    # per f; no Cayley table and no Moebius row is built
    calls = []
    for owner, name in ((groups, "SubgroupLattice"),
                        (groups, "_cyclic_subgroups"),
                        (groups, "_prime_step_joins"),
                        (groups, "_up_sets"),
                        (groups, "_canonical_table"),
                        (groups, "_moebius_rows")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, fn=fn:
                            calls.append((name, args[0])) or fn(*args))
    tables = Counter()
    _count_locus_tables(monkeypatch, tables)
    walked, checked = [], 0
    for f in duality_family(24, 3)[::6]:
        f = validate(f.E)  # a fresh G_f, with nothing built on it yet
        gf = symmetry_group(f)
        ind = index_df(f, gf)
        for sub in gf.lattice().subgroups:
            assert restrict(ind, sub) == index_df(f, sub.as_group()), \
                (f.E, sub.members)
            checked += 1
        walked.append(gf)
    assert checked > 20
    assert [g for n, g in calls if n == "_cyclic_subgroups"] == walked
    non_cyclic = [g for g in walked if not _is_cyclic(g)]
    assert 0 < len(non_cyclic) < len(walked)
    assert [g for n, g in calls if n == "_prime_step_joins"] == non_cyclic
    lattices = [n for n, _ in calls].count("SubgroupLattice")
    assert lattices == len(walked) + checked
    assert [n for n, _ in calls].count("_up_sets") == lattices
    # no table, no Moebius rows
    assert len(calls) == 2 * lattices + len(walked) + len(non_cyclic)
    assert tables["_locus_table"] == len(walked)


@pytest.mark.parametrize("matrix, error", [
    ([], InvalidPolynomialError), ([[2001]], OrderBoundError)])
def test_symmetry_group_errors_are_raised_on_every_call(matrix, error):
    f = validate(matrix)
    for _ in range(2):
        with pytest.raises(error):
            symmetry_group(f)


def test_non_integral_orbifold_index_is_integrality_error(monkeypatch):
    # x^2 + y^2 over (Z/2)^2, whose elements fix {0, 1}, {1}, {0} and no
    # coordinate: moving chi by +1 at {1} and by -1 at {0} keeps the orbit
    # count, but the pair sum over the Z/2 fixing {1} becomes odd.  Only
    # f's chi, then only f~'s, is moved, so each side's check is met on its
    # own.
    f = validate([[2, 0], [0, 2]])
    pair = (f, transpose(f))
    g = symmetry_group(f)
    assert _orbifold_indices(*pair, g)[0] == 0
    real = invertible._fixed_chi
    for moved in pair:
        def shifted(poly, mask, moved=moved):
            return real(poly, mask) + (
                {0b10: 1, 0b01: -1}.get(mask, 0) if poly is moved else 0)

        monkeypatch.setattr(invertible, "_fixed_chi", shifted)
        with pytest.raises(IntegralityError, match="^orbifold Euler"):
            _orbifold_indices(*pair, g)


@pytest.mark.parametrize("matrix, message", [
    ([[2, 0], [3]], "^exponent matrix must be square$"),
    ([[2, 0], [0, -3]], "^exponents must be non-negative$"),
    # det -1, but both monomials read z_0 as their head
    ([[2, 1], [3, 1]], "^matrix is not a disjoint union"),
    # not a list of rows
    (5, "^exponent matrix must be a list of rows$"),
    ([5], "^exponent matrix must be a list of rows$"),
    ([[2], 3], "^exponent matrix must be a list of rows$"),
])
def test_validate_rejects_malformed_matrices(matrix, message):
    with pytest.raises(InvalidPolynomialError, match=message):
        validate(matrix)


def test_pairing_rejects_a_phase_vector_of_the_wrong_length():
    f = validate([[2, 1], [0, 2]])
    with pytest.raises(PairingError, match="^phase vector has wrong dimension$"):
        pairing(f, (Fraction(1, 2),), (0, 0))


def test_milnor_data_and_pairings_need_matching_diagonal_groups():
    f = validate([[2, 0], [0, 3]])
    s3 = build_group({"kind": "perm", "degree": 3,
                      "generators": [[1, 0, 2], [1, 2, 0]]})
    with pytest.raises(NotASubgroupError, match="^not a diagonal group"):
        chi_G_milnor(f, s3)
    with pytest.raises(PairingError, match="^dual symmetry groups have"):
        check_perfect_pairing(f, symmetry_group(f),
                              symmetry_group(validate([[2]])))
