"""Invertible polynomials with diagonal symmetry groups.

An invertible polynomial is n monomials in n variables with a nonsingular
exponent matrix E (row i encodes the monomial prod_j z_j^{E_ij}); only the
standard Fermat/chain/loop block shapes are accepted, which guarantees that
restricting to the fixed subspace of any diagonal symmetry subgroup stays
invertible.

`validate` runs the one fraction-free elimination of a dual pair (det E,
adj(E), weights adj(E) 1 / det E), `transpose` reuses it through
adj(E^T) = adj(E)^T (the duality check takes f itself as its dual when E
is symmetric), and `symmetry_group` returns G_f, read from adj(E), as
a plain diagonal `FiniteGroup` (integer vectors over its denominator; n is
the length of a key).  A phase vector a is a symmetry of f exactly when E a
is integral, and the duality pairing of a in G_f with b in G_{f~} is
    <a, b> = (E a) . b mod 1.

Milnor numbers come from the weighted-homogeneous product formula
prod(1/q_i - 1); the equivariant Euler characteristic of the Milnor fibre is
the Burnside element whose mark at K is chi(M_f^K), inverted through the
table of marks, and the index of df is [G/G] - chi^G(M_f).  A fixed locus
L holds every chain variable together with its tail, so the monomials of f
inside L keep f's weight equations and
    chi(M_f^L) = 1 + (-1)^(|L|-1) prod_{i in L} (1/q_i - 1)
over f's own weights q_i (0 for empty L), without restricting f.  Loci
are coordinate bitmasks, each distinct one evaluated once per polynomial: a
subgroup's locus is read from the keys of its recorded generators (a
coordinate is fixed where every key is 0), and chi from an integer table
kept on f (per row of E its support, per weight p/r the pair (r - p, p),
and chi per locus already read).

The duality check needs the orbifold indices of df over G_f, over its dual
and over every subgroup H.  Restriction from G to H keeps marks, the mark of
chi^H(M_f) at K is chi(M_f^K), and Fix <g, h> = Fix g & Fix h; so Burnside's
lemma, over the pairs of H grouped by the subgroup K they generate, gives
    r_0 = 1 - (sum over K of phi_1(K) chi(M_f^{Fix K})) / |G|     (H = G),
    r_1 = |H| - (sum over K <= H of phi_2(K) chi(M_f^{Fix K})) / |H|,
with P. Hall's phi_k(K), the k-tuples of K that generate K; both sides run
one routine.  G_{f~} needs no lattice and no keys read: K -> K^T reverses
inclusion and |K^T| = |G| / |K|, so the dual side reads G_f's lattice
reversed, and Fix K^T = {j : rho_j in K} for the columns
rho_j = E^{-1} e_j that generate G_f, since <rho_j, b> = b_j.  The same
order reversal ranks the duals for their labels, so an annihilator H^T is
built only where H shares its order with another subgroup.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .burnside import BurnsideElement, element_from_marks, one
from .errors import (IntegralityError, InvalidPolynomialError,
                     NotASubgroupError, OrderBoundError, PairingError, _int)
from .groups import (MAX_ORDER, FiniteGroup, diagonal_group_from_integers,
                     canonical_label, over_common_denominator, solve_rows)


# -- exact linear algebra -----------------------------------------------------

def _fraction_free_solve(matrix, rhs_columns):
    """(det M, columns of adj(M) B) for an integer matrix M and integer
    columns of B, or (0, None) when M is singular; M X = B exactly when
    X = columns / det M.

    Fraction-free Gauss-Jordan (Bareiss) on [M | B]: every row but the pivot
    row is eliminated at each step, and after step k every entry right of
    the pivot column in the rows not yet pivoted is a (k+2)-minor of the
    input, so the division by the previous pivot stays exact.  At the end
    [M | B] has become [d I | d X] with d = +-det M, the sign flipped by
    each row swap.
    """
    n = len(matrix)
    aug = [[operator.index(x) for x in matrix[r]]
           + [operator.index(col[r]) for col in rhs_columns] for r in range(n)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            aug[k], aug[pivot] = aug[pivot], aug[k]
            sign = -sign
        row_k = aug[k]
        p = row_k[k]
        for i in range(n):
            if i != k:
                row_i = aug[i]
                f = row_i[k]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(row_i, row_k)]
        prev = p
    return sign * prev, [[sign * aug[r][n + k] for r in range(n)]
                         for k in range(len(rhs_columns))]


def det_int(matrix) -> int:
    """Exact determinant of a square integer matrix; see
    `_fraction_free_solve`."""
    return _fraction_free_solve(matrix, [])[0]


def solve_exact(matrix, rhs_columns):
    """Solve M X = B over the rationals for an integer matrix M and integer
    columns of B, given as sequences; see `_fraction_free_solve`.  Only the
    final X = adj(M) B / det M is a fraction."""
    d, columns = _fraction_free_solve(matrix, rhs_columns)
    if columns is None:
        raise InvalidPolynomialError("matrix is singular")
    return [[Fraction(x, d) for x in col] for col in columns]


# -- polynomial shape ---------------------------------------------------------

class Atom(NamedTuple):
    """One block of the Fermat/chain/loop decomposition.

    `variables` lists column indices in atom order; `exponents[i]` is the
    power of variables[i] in its own monomial.
    """
    kind: str
    variables: tuple
    exponents: tuple


class InvertiblePolynomial:
    """`adjugate` holds the columns of adj(E): E^{-1} = adjugate / det."""
    __slots__ = ("E", "atoms", "weights", "det", "adjugate", "_symmetry_group",
                 "_locus_table")

    def __init__(self, E, atoms, weights, det, adjugate):
        self.E, self.atoms, self.weights, self.det = E, atoms, weights, det
        self.adjugate = adjugate
        self._symmetry_group = None
        self._locus_table = None

    @property
    def n(self) -> int:
        return len(self.E)


def validate(matrix) -> InvertiblePolynomial:
    """Check an exponent matrix and decompose it into Fermat/chain/loop atoms.

    Rejects anything that is not a disjoint union of the three standard
    shapes, read first from E's support, and any matrix whose weight system
    leaves (0, 1].  The one fraction-free elimination of the dual pair runs
    in between, on [E | I]: det E, adj(E) and the weights adj(E) 1 / det E.
    """
    if not isinstance(matrix, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in matrix):
        raise InvalidPolynomialError("exponent matrix must be a list of rows")
    E = tuple(tuple(_int(x, "exponent", InvalidPolynomialError) for x in row)
              for row in matrix)
    n = len(E)
    if any(len(row) != n for row in E):
        raise InvalidPolynomialError("exponent matrix must be square")
    if any(x < 0 for row in E for x in row):
        raise InvalidPolynomialError("exponents must be non-negative")
    atoms = _atoms(E)
    d, adj = _fraction_free_solve(
        E, [[int(r == c) for r in range(n)] for c in range(n)])
    if d == 0:
        raise InvalidPolynomialError("exponent matrix has determinant zero")
    return _weighted(E, atoms, d, tuple(map(tuple, adj)))


def _atoms(E) -> tuple:
    """The Fermat/chain/loop atoms of E, read from its support, sorted by
    first variable; InvalidPolynomialError if E has another shape."""
    n = len(E)
    # each monomial is z_h^a (head only) or z_h^a z_t (head and a tail of
    # exponent one); collect the possible (head, tail) readings per row
    options = []
    for i, row in enumerate(E):
        support = [j for j, v in enumerate(row) if v]
        opts = []
        if len(support) == 1:
            opts.append((support[0], None))
        elif len(support) == 2:
            j, l = support
            if row[l] == 1:
                opts.append((j, l))
            if row[j] == 1:
                opts.append((l, j))
        if not opts:
            raise InvalidPolynomialError(
                f"monomial {i} does not have Fermat/chain/loop shape")
        options.append(opts)

    assignment = _assign_heads(options, n)
    if assignment is None:
        raise InvalidPolynomialError(
            "matrix is not a disjoint union of Fermat/chain/loop atoms")

    head_row = {head: i for i, (head, _) in enumerate(assignment)}
    out_edge = {head: tail for head, tail in assignment}
    tails = {tail for _, tail in assignment if tail is not None}
    atoms = []
    visited = set()
    # chains and Fermat atoms start at the variables that are nobody's tail
    # and run to a head without one; what remains are loops, each entered at
    # its smallest variable and closed on returning to it
    for start in sorted(range(n), key=tails.__contains__):
        if start in visited:
            continue
        path = [start]
        nxt = out_edge[start]
        while nxt is not None and nxt != start:
            path.append(nxt)
            nxt = out_edge[nxt]
        visited.update(path)
        kind = "loop" if nxt == start else "chain" if path[1:] else "fermat"
        atoms.append(Atom(kind, tuple(path),
                          tuple(E[head_row[v]][v] for v in path)))
    return tuple(sorted(atoms, key=lambda a: a.variables[0]))


def _weighted(E, atoms, d, adjugate) -> InvertiblePolynomial:
    """f from E, its atoms, d = det E != 0 and adj(E), weights checked."""
    # q = s/d over the row sums s of adj(E); 0 < q <= 1 iff 0 < s d <= d^2
    sums = [sum(row) for row in zip(*adjugate)]
    for s in sums:
        if not 0 < s * d <= d * d:
            raise InvalidPolynomialError(
                f"weight {Fraction(s, d)} outside (0, 1]; "
                "not an invertible polynomial germ")
    weights = tuple(Fraction(s, d) for s in sums)
    return InvertiblePolynomial(E=E, atoms=atoms, weights=weights,
                                det=d, adjugate=adjugate)


def _assign_heads(options, n):
    """Pick one (head, tail) reading per row so heads are a bijection onto the
    variables and no variable is the tail of two rows: the first such pick,
    depth first over the rows in order and each row's options in order.
    The search keeps an explicit stack, one iterator over the options not
    yet tried per row reached, so a chain of any length needs no
    recursion."""
    heads, tails, stack = [], [], []
    while len(heads) < n:
        if len(stack) == len(heads):  # row len(heads) reached afresh
            stack.append(iter(options[len(heads)]))
        for head, tail in stack[-1]:
            if head not in heads and (tail is None or tail not in tails):
                heads.append(head)
                tails.append(tail)
                break
        else:  # row len(heads) is stuck: undo the row before it
            stack.pop()
            if not heads:
                return None
            heads.pop()
            tails.pop()
    return list(zip(heads, tails))


def _locus_table(f: InvertiblePolynomial) -> tuple:
    """(supports, factors, chis), built once per f and kept on it: per row
    of E the bitmask of the variables of its monomial, per weight q = p/r
    the pair (r - p, p) of `_milnor_product`, and chi(M_f^L) per locus
    bitmask L, stored by `_fixed_chi` on its first read of L."""
    if f._locus_table is None:
        f._locus_table = (
            tuple(sum(1 << j for j, v in enumerate(row) if v) for row in f.E),
            tuple((q.denominator - q.numerator, q.numerator)
                  for q in f.weights), {})
    return f._locus_table


def _milnor_product(factors) -> int:
    """prod(1/q - 1) over weights q = p/r given as the pairs (r - p, p), in
    integers: prod(r - p) over prod(p), which must be a non-negative
    integer."""
    num = den = 1
    for a, p in factors:
        num *= a
        den *= p
    mu, rem = divmod(num, den)
    if rem or mu < 0:
        raise InvalidPolynomialError(
            "Milnor product is not a non-negative integer")
    return mu


def milnor_number(f: InvertiblePolynomial) -> int:
    """Milnor number via the weighted-homogeneous product prod(1/q_i - 1)."""
    return _milnor_product(_locus_table(f)[1])


def transpose(f: InvertiblePolynomial) -> InvertiblePolynomial:
    """The dual polynomial, from E^T, det E and adj(E^T) = adj(E)^T: no
    elimination, but the same shape decomposition and weight checks."""
    E = tuple(zip(*f.E))
    return _weighted(E, _atoms(E), f.det, tuple(zip(*f.adjugate)))


# -- the diagonal symmetry group ----------------------------------------------

def symmetry_group(f: InvertiblePolynomial) -> FiniteGroup:
    """G_f as a diagonal group, generated by the columns of
    E^{-1} = adj(E) / det E mod 1, as integer vectors over |det E| (reduced
    by their common gcd); order |det E|.  adj(E) is the one `validate`
    stored on f.  Built once per f and kept on it."""
    if f._symmetry_group is not None:
        return f._symmetry_group
    if f.n == 0:
        raise InvalidPolynomialError("empty polynomial has no ambient space")
    if abs(f.det) > MAX_ORDER:
        raise OrderBoundError(
            f"symmetry group order {abs(f.det)} exceeds {MAX_ORDER}")
    d, cols = f.det, f.adjugate
    if d < 0:
        d, cols = -d, [[-x for x in col] for col in cols]
    group = diagonal_group_from_integers(cols, d)
    if group.order != abs(f.det):
        raise IntegralityError("symmetry group order does not match |det E|")
    f._symmetry_group = group
    return group


def _integral_image(matrix, vec, den) -> list:
    """matrix . (vec / den) as an integer vector.

    A phase vector phi is a symmetry of the polynomial with exponent matrix
    M exactly when M phi is integral, so anything else is a PairingError.
    """
    if len(vec) != len(matrix):
        raise PairingError("phase vector has wrong dimension")
    out = []
    for row in matrix:
        s = sum(map(operator.mul, row, vec))
        if s % den:
            raise PairingError("phase vector is not a symmetry of the polynomial")
        out.append(s // den)
    return out


def _check_symmetries(matrix, group: FiniteGroup) -> None:
    """Every element of a diagonal group is a symmetry of the polynomial
    with exponent matrix `matrix`.  M phi in Z^n is additive in phi, so the
    symmetries form a subgroup and checking the generators is complete."""
    if group.denominator is None:
        raise NotASubgroupError("not a diagonal group: no phase vectors")
    for g in group.generator_keys:
        _integral_image(matrix, g, group.denominator)


def _pairing_sums(f: InvertiblePolynomial, a, den_a, b_cols, count) -> list:
    """(E a) . b, unreduced, for an integer row a over `den_a` (a symmetry
    of f) and `count` integer rows b, given by their columns `b_cols`:
    <a, b> = (E a) . b mod 1 is this sum mod the denominator of b, and E a
    is an integer vector exactly when a is a symmetry of f."""
    sums = [0] * count
    for x, col in zip(_integral_image(f.E, a, den_a), b_cols):
        if x:
            sums = [v + x * y for v, y in zip(sums, col)]
    return sums


def pairing(f: InvertiblePolynomial, a, b) -> Fraction:
    """The duality pairing <a, b> = (E a) . b mod 1 for a in G_f, b in
    G_{f~}; b must be a symmetry of the transpose (E^T b integral).  a and
    b are lists or tuples of phases, ints (not bools) or Fractions; anything
    else is a PairingError."""
    for name, v in (("a", a), ("b", b)):
        if not isinstance(v, (list, tuple)):
            raise PairingError(f"{name} must be a list or a tuple, got {v!r}")
    for x in (*a, *b):
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise PairingError(f"phase must be an int or a Fraction, got {x!r}")
    den_a, a_rows = over_common_denominator([a])
    den_b, b_rows = over_common_denominator([b])
    _integral_image(tuple(zip(*f.E)), b_rows[0], den_b)
    (s,) = _pairing_sums(f, a_rows[0], den_a, zip(*b_rows), 1)
    return Fraction(s % den_b, den_b)


def pairing_matrix(f: InvertiblePolynomial, gf: FiniteGroup, gft: FiniteGroup):
    """All pairings at once as `(den, num)`: <a_i, b_j> = num[i][j] / den,
    with 0 <= num[i][j] < den, the denominator of G_{f~}."""
    _check_symmetries(tuple(zip(*f.E)), gft)
    den, cols = gft.denominator, list(zip(*gft.keys))
    return den, [[v % den for v in _pairing_sums(
        f, a, gf.denominator, cols, gft.order)] for a in gf.keys]


def check_perfect_pairing(f: InvertiblePolynomial, gf: FiniteGroup,
                          gft: FiniteGroup):
    """The induced map G_{f~} -> Hom(G_f, Q/Z) must be injective.

    Returns the annihilator map, member set of a subgroup H of G_f ->
    H^T = {b : <a, b> = 0 for every a in H}, which enforces
    |H| |H^T| = |G_f|; for H = G_f this is non-degeneracy, checked here.
    The pairing is additive in a, so H^T is the intersection of ann(c) over
    the generators c that G_f's lattice records for H.  ann(c) is computed
    on the first annihilator that reads c, as the zeros mod den of
    `_pairing_sums` over the key columns of G_{f~}.  A member set that is
    not a subgroup of G_f is a PairingError.  G_{f~} is checked to consist
    of symmetries of the transpose.
    """
    if gf.order != gft.order:
        raise PairingError("dual symmetry groups have different orders")
    _check_symmetries(tuple(zip(*f.E)), gft)
    lat = gf.lattice()
    den, cols = gft.denominator, list(zip(*gft.keys))
    zeros = {}

    def zero_set(c) -> frozenset:  # ann(c), from c's pairing row
        if c not in zeros:
            zeros[c] = frozenset(j for j, v in enumerate(_pairing_sums(
                f, gf.keys[c], gf.denominator, cols, gft.order)) if not v % den)
        return zeros[c]
    everything = frozenset(range(gft.order))

    def annihilator(members) -> frozenset:
        i = lat.member_index.get(frozenset(members))
        if i is None:
            raise PairingError("member set is not a subgroup of G_f")
        ann = everything.intersection(*map(zero_set, lat.generators[i]))
        if len(ann) * lat.subgroups[i].order != gf.order:
            raise PairingError(
                "pairing is degenerate: annihilator order violates |H| |H^T| = |G|")
        return ann

    annihilator(gf.elements())
    return annihilator


# -- fixed loci and Milnor fibre data ------------------------------------------

def _locus_mask(group: FiniteGroup, ids) -> int:
    """The bitmask of the coordinates fixed by every listed element of a
    diagonal group, those where each of their keys is 0; all of them when
    none is listed."""
    moved = 0
    for i in ids:
        for j, x in enumerate(group.keys[i]):
            if x:
                moved |= 1 << j
    return ~moved & ((1 << len(group.keys[0])) - 1)


def _fixed_loci(group: FiniteGroup) -> tuple:
    """The bitmasks of Fix K and of Fix K^T for each subgroup K of G_f: the
    AND over K's recorded generators, and {j : rho_j in K} for the j-th
    generator key rho_j of G_f, the K in the up-set of <rho_j>.
    `chi_G_milnor`, which also runs on subgroup groups, reads the first."""
    lat = group.lattice()
    dual = [0] * len(lat.up)
    for j, g in enumerate(group.generator_keys):
        for k in lat.up[lat.cyclic_of[group.index[g]]]:
            dual[k] |= 1 << j
    return [_locus_mask(group, gens) for gens in lat.generators], dual


def restrict_to(f: InvertiblePolynomial, coords) -> InvertiblePolynomial:
    """Restrict to the coordinate subspace `coords` (a fixed locus).

    Keeps the monomials supported inside the subspace; the block structure
    guarantees the result is square and invertible, so anything else is a
    hard error.
    """
    cols = sorted(coords)
    mask = sum(1 << j for j in set(cols) if j in range(f.n))
    return validate(tuple(tuple(f.E[i][j] for j in cols)
                          for i in _fixed_rows(f, mask, len(cols))))


def _fixed_rows(f: InvertiblePolynomial, mask: int, size: int) -> list:
    """The monomials (rows of E) supported inside the coordinate bitmask
    `mask`; there must be `size` of them, one per coordinate."""
    rows = [i for i, s in enumerate(_locus_table(f)[0]) if not s & ~mask]
    if len(rows) != size:
        raise InvalidPolynomialError(
            "restriction is not square; the coordinate set is not a fixed locus")
    return rows


def _fixed_chi(f: InvertiblePolynomial, mask: int) -> int:
    """chi of the Milnor fibre of f restricted to the fixed locus whose
    coordinate bitmask is `mask`.

    Empty locus gives 0; otherwise the fibre of an isolated m-variable
    singularity is a wedge of mu spheres of dimension m-1.  A fixed locus
    holds every chain variable together with its tail, so the restricted
    monomials are square (anything else is a hard error) and satisfy the
    same weight equations: mu(f^L) = prod_{i in L} (1/q_i - 1) over f's own
    weights, and `restrict_to` is never needed.  Both are read from f's
    `_locus_table`, which keeps the value, so each locus is evaluated once
    per f; a mask that is no locus raises on every call and is not kept.
    """
    _, factors, chis = _locus_table(f)
    chi = chis.get(mask)
    if chi is None:
        locus = [factors[j] for j in range(len(factors)) if mask >> j & 1]
        chi = 0
        if locus:
            _fixed_rows(f, mask, len(locus))
            chi = 1 + (-1) ** (len(locus) - 1) * _milnor_product(locus)
        chis[mask] = chi
    return chi


def chi_G_milnor(f: InvertiblePolynomial, group: FiniteGroup) -> BurnsideElement:
    """chi^G(M_f) over a diagonal symmetry group, from its marks: the mark
    at K is chi(M_f^K), read at each class representative from the loci of
    `_fixed_loci` (Fix K is the intersection of Fix g over any generating
    set), and inverted through the table of marks.  A mark vector outside
    the Burnside ring is an IntegralityError."""
    _check_symmetries(f.E, group)
    loci = _fixed_loci(group)[0]
    return element_from_marks(group, [
        _fixed_chi(f, loci[r]) for r in group.lattice().representatives])


def index_df(f: InvertiblePolynomial, group: FiniteGroup) -> BurnsideElement:
    """ind_rad^G(df) = -reduced chi^G(M_f) = [G/G] - chi^G(M_f)."""
    return one(group) - chi_G_milnor(f, group)


# -- duality report -------------------------------------------------------------

class DualityPair(NamedTuple):
    subgroup_label: str
    subgroup_order: int
    dual_label: str
    dual_order: int
    orbifold_index: int
    dual_orbifold_index: int
    dimension: int

    @property
    def matches(self) -> bool:
        """Verbatim coincidence of the two orbifold indices."""
        return self.orbifold_index == self.dual_orbifold_index

    @property
    def sign_matches(self) -> bool:
        """Coincidence up to the global sign (-1)^n.

        This is the theorem (Ebeling and Gusein-Zade, "Orbifold Euler
        characteristics for dual invertible polynomials"): the orbifold
        indices of dual pairs satisfy v = (-1)^n v_dual, so for even n they
        coincide verbatim and for odd n one is minus the other.
        """
        return self.orbifold_index == \
            (-1) ** self.dimension * self.dual_orbifold_index


class DualityReport(NamedTuple):
    E: tuple
    dual_E: tuple
    orbit_index: int          # r_0 of the index of df over the full G_f
    dual_orbit_index: int     # r_0 on the dual side
    pairs: list

    @property
    def orbit_match(self) -> bool:
        return self.orbit_index == self.dual_orbit_index

    @property
    def all_match(self) -> bool:
        return self.orbit_match and all(p.matches for p in self.pairs)

    @property
    def all_sign_match(self) -> bool:
        return self.orbit_match and all(p.sign_matches for p in self.pairs)

    @property
    def flagged_pairs(self) -> list:
        return [p for p in self.pairs if not p.matches]


def _orbifold_indices(f: InvertiblePolynomial, ft: InvertiblePolynomial,
                      group: FiniteGroup) -> tuple:
    """(r_0, v, r_0~, v~): r_0 of ind(df) over G = G_f and v[i], its r_1 over
    the i-th subgroup H, and the same of ind(df~) over G_{f~} and H^T.  The
    subgroups of K^T are the L^T for L in up[K], so G_{f~}'s side reads the
    up-sets from the top down where G_f's reads the down-sets bottom up."""
    lat = group.lattice()
    orders = [s.order for s in lat.subgroups]
    loci, dual_loci = _fixed_loci(group)
    w = [_fixed_chi(f, L) for L in loci]
    dual_w = [_fixed_chi(ft, L) for L in dual_loci]
    visit = range(len(orders))
    return (*_orbifold_side(lat.down, orders, w, visit, group.order),
            *_orbifold_side(lat.up, [group.order // h for h in orders],
                            dual_w, visit[::-1], group.order))


def _orbifold_side(rows, orders, w, visit, order: int) -> tuple:
    """(r_0, [r_1 over each K]) by the phi sums of the module docstring, over
    a group of order `order` whose K has order orders[K], subgroups rows[K]
    (visited bottom up in `visit`) and mark w[K] = chi(M_f^{Fix K}):
    phi_k solves |K|^k = sum over L in rows[K] of phi_k(L)."""
    phi1 = solve_rows(rows, orders, visit)
    phi2 = solve_rows(rows, [q * q for q in orders], visit)
    total = sum(map(operator.mul, phi1, w))
    if total % order:
        raise IntegralityError(
            "orbit count of the Milnor fibre is not an integer")
    terms = list(map(operator.mul, phi2, w))
    sums = [sum(map(terms.__getitem__, row)) for row in rows]
    if any(t % h for t, h in zip(sums, orders)):
        raise IntegralityError(
            "orbifold Euler characteristic of the Milnor fibre is not an integer")
    return 1 - total // order, [h - t // h for t, h in zip(sums, orders)]


def duality_check(f: InvertiblePolynomial) -> DualityReport:
    """Berglund-Huebsch duality consistency: r_0 equality of the df-indices of
    f and its transpose, and r_1 equality across every dual subgroup pair.

    A symmetric E is its own dual: f~ = f and G_{f~} = G_f.  G_f is built
    first, so a |det E| past MAX_ORDER is its OrderBoundError; an invalid
    transpose is an InvalidPolynomialError naming E^T.  H -> H^T is a
    bijection onto Sub(G_{f~}) with |H^T| = |G:H|, so in G_{f~}'s canonical
    order (by order, then sorted member ids) the duals of larger H come
    first, and H^T is built only to rank H among subgroups of its order.
    """
    gf = symmetry_group(f)
    if f.E == tuple(zip(*f.E)):
        ft = f
    else:
        try:
            ft = transpose(f)
        except InvalidPolynomialError as exc:
            raise InvalidPolynomialError(f"transpose E^T: {exc}") from None
    annihilator = check_perfect_pairing(f, gf, symmetry_group(ft))
    lat = gf.lattice()
    subs = lat.subgroups
    ties = Counter(s.order for s in subs)
    ranked = sorted(range(len(subs)), key=lambda i: (
        -subs[i].order, sorted(annihilator(subs[i].members))
        if ties[subs[i].order] > 1 else []))
    rank = {i: r for r, i in enumerate(ranked)}
    r0, v, r0_dual, v_dual = _orbifold_indices(f, ft, gf)
    pairs = [DualityPair(
        subgroup_label=lat.labels[i], subgroup_order=s.order,
        dual_label=canonical_label(gf.order // s.order, rank[i]),
        dual_order=gf.order // s.order,
        orbifold_index=v[i], dual_orbifold_index=v_dual[i], dimension=f.n)
        for i, s in enumerate(subs)]
    return DualityReport(E=f.E, dual_E=ft.E, orbit_index=r0,
                         dual_orbit_index=r0_dual, pairs=pairs)
