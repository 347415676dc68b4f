"""Invertible polynomials with diagonal symmetry groups.

An invertible polynomial is n monomials in n variables with a nonsingular
exponent matrix E (row i encodes the monomial prod_j z_j^{E_ij}); only the
standard Fermat/chain/loop block shapes are accepted, which guarantees that
restricting to the fixed subspace of any diagonal symmetry subgroup stays
invertible.

Milnor numbers come from the weighted-homogeneous product formula
prod(1/q_i - 1); the equivariant Euler characteristic of the Milnor fibre is
the Burnside element whose mark at K is chi(M_f^K), and the index of df is
[G/G] - chi^G(M_f).  A fixed locus L holds every chain variable together
with its tail, so the monomials of f inside L keep f's weight equations and
    chi(M_f^L) = 1 + (-1)^(|L|-1) prod_{i in L} (1/q_i - 1)
over f's own weights q_i (0 for empty L), without restricting f.

The duality check needs the orbifold indices of df over G_f, over its dual
and over every subgroup H.  Restriction from G to H keeps marks, the mark of
chi^H(M_f) at K is chi(M_f^K), and Fix <g, h> = Fix g & Fix h; so with c_a
elements of H whose fixed-coordinate bitmask is a, Burnside's lemma gives
    r_0 = 1 - (sum_a c_a chi(M_f^a)) / |G|          (H = G),
    r_1 = |H| - (sum_{a,b} c_a c_b chi(M_f^{a & b})) / |H|,
read off at most 2^n fixed loci without rebuilding H as a group.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .burnside import BurnsideElement, element_from_marks, one
from .errors import (IntegralityError, InvalidPolynomialError,
                     NotASubgroupError, OrderBoundError, PairingError)
from .groups import FiniteGroup, Subgroup, diagonal_group_from_integers

SYMMETRY_ORDER_BOUND = 2000
DUALITY_ORDER_BOUND = 500


# -- exact linear algebra -----------------------------------------------------

def det_int(matrix) -> int:
    """Exact determinant of a square integer matrix by fraction-free (Bareiss)
    elimination.

    After step k every entry below and right of the pivot is a (k+2)-minor of
    the input, so the division by the previous pivot is exact and every
    intermediate stays an integer; a row swap flips the sign.
    """
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * mk[k] - mi[k] * mk[j]) // prev
        prev = mk[k]
    return sign * m[n - 1][n - 1]


def _fraction_free_solve(matrix, rhs_columns):
    """(d, columns of adj(M) B up to the sign of d) with M X = B exactly
    when X = columns / d, for an integer matrix M and integer columns of B.

    Fraction-free Gauss-Jordan (Bareiss) on [M | B]: every row but the pivot
    row is eliminated at each step, the division by the previous pivot stays
    exact, and at the end [M | B] has become [d I | d X] with d = +-det M.
    """
    n = len(matrix)
    width = len(rhs_columns)
    aug = [[operator.index(x) for x in matrix[r]]
           + [operator.index(col[r]) for col in rhs_columns] for r in range(n)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k]), None)
        if pivot is None:
            raise InvalidPolynomialError("matrix is singular")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        row_k = aug[k]
        p = row_k[k]
        for i in range(n):
            if i != k:
                row_i = aug[i]
                f = row_i[k]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(row_i, row_k)]
        prev = p
    return prev, [[aug[r][n + k] for r in range(n)] for k in range(width)]


def solve_exact(matrix, rhs_columns):
    """Solve M X = B over the rationals for an integer matrix M and integer
    columns of B, given as sequences; see `_fraction_free_solve`.  Only the
    final X = adj(M) B / det M is a fraction."""
    d, columns = _fraction_free_solve(matrix, rhs_columns)
    return [[Fraction(x, d) for x in col] for col in columns]


# -- polynomial shape ---------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """One block of the Fermat/chain/loop decomposition.

    `variables` lists column indices in atom order; `exponents[i]` is the
    power of variables[i] in its own monomial.
    """
    kind: str
    variables: tuple
    exponents: tuple


@dataclass(frozen=True)
class InvertiblePolynomial:
    E: tuple
    atoms: tuple
    weights: tuple
    det: int

    @property
    def n(self) -> int:
        return len(self.E)

    def monomials(self):
        return [tuple(row) for row in self.E]


def validate(matrix) -> InvertiblePolynomial:
    """Check an exponent matrix and decompose it into Fermat/chain/loop atoms.

    Rejects anything that is not a disjoint union of the three standard
    shapes, and any matrix whose weight system leaves (0, 1].
    """
    E = tuple(tuple(int(x) for x in row) for row in matrix)
    n = len(E)
    if n == 0:
        return InvertiblePolynomial(E=(), atoms=(), weights=(), det=1)
    if any(len(row) != n for row in E):
        raise InvalidPolynomialError("exponent matrix must be square")
    if any(x < 0 for row in E for x in row):
        raise InvalidPolynomialError("exponents must be non-negative")
    d = det_int(E)
    if d == 0:
        raise InvalidPolynomialError("exponent matrix has determinant zero")

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
    # chains start at variables that are nobody's tail
    for start in range(n):
        if start in visited or start in tails:
            continue
        path = [start]
        visited.add(start)
        while out_edge[path[-1]] is not None:
            nxt = out_edge[path[-1]]
            path.append(nxt)
            visited.add(nxt)
        kind = "fermat" if len(path) == 1 else "chain"
        atoms.append(Atom(kind, tuple(path),
                          tuple(E[head_row[v]][v] for v in path)))
    # what remains are loops; start each at its smallest variable
    for start in range(n):
        if start in visited:
            continue
        cycle = [start]
        visited.add(start)
        nxt = out_edge[start]
        while nxt != start:
            cycle.append(nxt)
            visited.add(nxt)
            nxt = out_edge[nxt]
        atoms.append(Atom("loop", tuple(cycle),
                          tuple(E[head_row[v]][v] for v in cycle)))
    atoms.sort(key=lambda a: a.variables[0])

    ones = [1] * n
    weights = tuple(solve_exact(E, [ones])[0])
    for q in weights:
        if not 0 < q <= 1:
            raise InvalidPolynomialError(
                f"weight {q} outside (0, 1]; not an invertible polynomial germ")
    return InvertiblePolynomial(E=E, atoms=tuple(atoms), weights=weights, det=d)


def _assign_heads(options, n):
    """Pick one (head, tail) reading per row so heads are a bijection onto the
    variables and no variable is the tail of two rows."""

    def rec(i, heads_used, tails_used, acc):
        if i == n:
            return list(acc)
        for head, tail in options[i]:
            if head in heads_used:
                continue
            if tail is not None and tail in tails_used:
                continue
            heads_used.add(head)
            if tail is not None:
                tails_used.add(tail)
            found = rec(i + 1, heads_used, tails_used, acc + [(head, tail)])
            heads_used.discard(head)
            if tail is not None:
                tails_used.discard(tail)
            if found is not None:
                return found
        return None

    return rec(0, set(), set(), [])


def _milnor_product(weights) -> int:
    """prod(1/q - 1) over the weights q = p/r, in integers: prod(r - p) over
    prod(p), which must be a non-negative integer."""
    num = den = 1
    for q in weights:
        num *= q.denominator - q.numerator
        den *= q.numerator
    mu, rem = divmod(num, den)
    if rem or mu < 0:
        raise InvalidPolynomialError(
            "Milnor product is not a non-negative integer")
    return mu


def milnor_number(f: InvertiblePolynomial) -> int:
    """Milnor number via the weighted-homogeneous product prod(1/q_i - 1)."""
    return _milnor_product(f.weights)


def transpose(f: InvertiblePolynomial) -> InvertiblePolynomial:
    """The dual polynomial: transpose the exponent matrix."""
    n = f.n
    return validate(tuple(tuple(f.E[j][i] for j in range(n)) for i in range(n)))


# -- the diagonal symmetry group ----------------------------------------------

@dataclass(frozen=True)
class DiagonalGroup:
    """A finite group of diagonal scalings: integer phase vectors over the
    group's denominator."""
    group: FiniteGroup
    dimension: int

    def phases(self, i: int) -> tuple:
        return self.group.phases(i)

    @property
    def order(self) -> int:
        return self.group.order

    @cached_property
    def fixed_masks(self) -> list:
        """Per element, the bitmask of the coordinates it acts trivially on."""
        return [sum(1 << j for j, p in enumerate(k) if p == 0)
                for k in self.group.keys]


def symmetry_group(f: InvertiblePolynomial) -> DiagonalGroup:
    """G_f, generated by the columns of E^{-1} = adj(E) / det E mod 1, as
    integer vectors over |det E| (reduced by their common gcd); order
    |det E|."""
    if f.n == 0:
        raise InvalidPolynomialError("empty polynomial has no ambient space")
    if abs(f.det) > SYMMETRY_ORDER_BOUND:
        raise OrderBoundError(
            f"symmetry group order {abs(f.det)} exceeds {SYMMETRY_ORDER_BOUND}")
    identity_cols = [[1 if r == c else 0 for r in range(f.n)]
                     for c in range(f.n)]
    d, cols = _fraction_free_solve(f.E, identity_cols)
    if d < 0:
        d, cols = -d, [[-x for x in col] for col in cols]
    group = diagonal_group_from_integers(cols, d)
    if group.order != abs(f.det):
        raise IntegralityError("symmetry group order does not match |det E|")
    return DiagonalGroup(group, f.n)


def _as_integers(phase_vectors):
    """Fraction phase vectors as integer numerators over their least common
    denominator."""
    den = math.lcm(*(p.denominator for v in phase_vectors for p in v))
    return den, [[p.numerator * (den // p.denominator) for p in v]
                 for v in phase_vectors]


def _integral_image(matrix, vec, den) -> list:
    """matrix . (vec / den) as an integer vector.

    A phase vector phi is a symmetry of the polynomial with exponent matrix
    M exactly when M phi is integral, so anything else is a PairingError.
    """
    if len(vec) != len(matrix):
        raise PairingError("phase vector has wrong dimension")
    out = []
    for row in matrix:
        s = sum(m * v for m, v in zip(row, vec))
        if s % den:
            raise PairingError("phase vector is not a symmetry of the polynomial")
        out.append(s // den)
    return out


def _pairing_numerators(f: InvertiblePolynomial, a_rows, den, b_rows, den_b):
    """<a, b> * den for integer rows a over `den` and integer rows b over
    `den_b`, the phase vectors of G_{f~}.

    <a, b> = a^T (E^T b) mod 1, and E^T b is an integer vector exactly when
    b is a symmetry of the transpose.
    """
    et = tuple(zip(*f.E))
    images = [_integral_image(et, b, den_b) for b in b_rows]
    return [[sum(x * y for x, y in zip(a, w)) % den for w in images]
            for a in a_rows]


def pairing(f: InvertiblePolynomial, a, b) -> Fraction:
    """The duality pairing <a, b> = a^T E^T b mod 1 for a in G_f, b in G_{f~}."""
    den, a_rows = _as_integers([a])
    _integral_image(f.E, a_rows[0], den)
    den_b, b_rows = _as_integers([b])
    return Fraction(_pairing_numerators(f, a_rows, den, b_rows, den_b)[0][0],
                    den)


def pairing_matrix(f: InvertiblePolynomial, gf: DiagonalGroup,
                   gft: DiagonalGroup):
    """All pairings at once as `(den, num)`: <a_i, b_j> = num[i][j] / den,
    with 0 <= num[i][j] < den.

    Membership of G_f is guaranteed by construction and not checked here;
    that of G_{f~} is, since each E^T b must be integral.
    """
    den = gf.group.denominator
    return den, _pairing_numerators(f, gf.group.keys, den, gft.group.keys,
                                    gft.group.denominator)


def check_perfect_pairing(f: InvertiblePolynomial, gf: DiagonalGroup,
                          gft: DiagonalGroup):
    """The induced map G_{f~} -> Hom(G_f, Q/Z) must be injective.

    Returns the annihilator map, member set H of G_f -> H^T = {b : <a, b> = 0
    for every a in H}, which enforces |H| |H^T| = |G_f|; for H = G_f this is
    non-degeneracy, checked here.  The pairing is additive in a, so H^T is the
    intersection of ann(c) over the cyclic subgroups <c> <= H, and one row of
    pairings per cyclic generator c of G_f is all that is computed: with
    u_c = E c / den_c, an integer vector, <c, b> = 0 exactly when
    u_c . b = 0 mod den_b.  Each generator of G_{f~} is checked to be a
    symmetry of the transpose (E^T b integral), which is complete because
    that condition is additive in b.
    """
    if gf.order != gft.order:
        raise PairingError("dual symmetry groups have different orders")
    dual = gft.group
    et = tuple(zip(*f.E))
    for b in dual.generator_keys:
        _integral_image(et, b, dual.denominator)
    lat = gf.group.lattice()
    keys, den = gf.group.keys, gf.group.denominator
    zeros = {}
    for s, c in lat.cyclic_generators.items():
        u = _integral_image(f.E, keys[c], den)
        zeros[s] = frozenset(
            j for j, b in enumerate(dual.keys)
            if not sum(x * y for x, y in zip(u, b)) % dual.denominator)
    everything = frozenset(range(gft.order))

    def annihilator(members) -> frozenset:
        members = frozenset(members)
        ann = everything.intersection(
            *(zeros[s] for s in {lat.cyclic_of[m] for m in members}))
        if len(ann) * len(members) != gf.order:
            raise PairingError(
                "pairing is degenerate: annihilator order violates |H| |H^T| = |G|")
        return ann

    annihilator(gf.group.elements())
    return annihilator


def dual_subgroup(f: InvertiblePolynomial, gf: DiagonalGroup,
                  members, gft: DiagonalGroup) -> Subgroup:
    """H^T: the annihilator of H under the pairing; |H| * |H^T| = |G_f|."""
    return Subgroup(gft.group, check_perfect_pairing(f, gf, gft)(members))


# -- fixed loci and Milnor fibre data ------------------------------------------

def fixed_locus(diag: DiagonalGroup, members) -> frozenset:
    """Coordinates on which every element of the subgroup acts trivially."""
    mask = (1 << diag.dimension) - 1
    masks = diag.fixed_masks
    for i in members:
        mask &= masks[i]
    return frozenset(j for j in range(diag.dimension) if mask >> j & 1)


def restrict_to(f: InvertiblePolynomial, coords) -> InvertiblePolynomial:
    """Restrict to the coordinate subspace `coords` (a fixed locus).

    Keeps the monomials supported inside the subspace; the block structure
    guarantees the result is square and invertible, so anything else is a
    hard error.
    """
    cols = sorted(coords)
    sub = tuple(tuple(f.E[i][j] for j in cols) for i in _fixed_rows(f, cols))
    return validate(sub)


def _fixed_rows(f: InvertiblePolynomial, coords) -> list:
    """The monomials (rows of E) supported inside the coordinate set; there
    must be as many as coordinates."""
    colset = set(coords)
    rows = [i for i, row in enumerate(f.E)
            if all(j in colset for j, v in enumerate(row) if v)]
    if len(rows) != len(coords):
        raise InvalidPolynomialError(
            "restriction is not square; the coordinate set is not a fixed locus")
    return rows


@dataclass(frozen=True)
class FixedMilnorEntry:
    locus: frozenset
    mu: int
    chi: int


def _fixed_entry(f: InvertiblePolynomial, locus: frozenset) -> FixedMilnorEntry:
    """Milnor number and fibre chi of f restricted to a fixed locus.

    Empty locus gives 0; otherwise the fibre of an isolated m-variable
    singularity is a wedge of mu spheres of dimension m-1.  A fixed locus
    holds every chain variable together with its tail, so the restricted
    monomials are square (anything else is a hard error) and satisfy the
    same weight equations: mu(f^L) = prod_{i in L} (1/q_i - 1) over f's own
    weights, and `restrict_to` is never needed.
    """
    if not locus:
        return FixedMilnorEntry(locus=locus, mu=0, chi=0)
    _fixed_rows(f, locus)
    mu = _milnor_product(f.weights[i] for i in locus)
    return FixedMilnorEntry(locus=locus, mu=mu,
                            chi=1 + (-1) ** (len(locus) - 1) * mu)


def chi_milnor_fixed(f: InvertiblePolynomial, diag: DiagonalGroup,
                     members) -> int:
    """chi of the Milnor fibre of f restricted to the fixed locus of H."""
    return _fixed_entry(f, fixed_locus(diag, members)).chi


@dataclass
class MilnorData:
    """Per-subgroup fixed-locus Milnor data plus the assembled chi^G(M_f)."""
    diag: DiagonalGroup
    per_subgroup: dict  # subgroup index -> FixedMilnorEntry
    chi_g: BurnsideElement


def _fixed_entries(f: InvertiblePolynomial, diag: DiagonalGroup) -> dict:
    """Subgroup index -> FixedMilnorEntry; each of the at most 2^n distinct
    loci is restricted to once."""
    by_locus = {}
    entries = {}
    for i, sub in enumerate(diag.group.lattice().subgroups):
        locus = fixed_locus(diag, sub.members)
        if locus not in by_locus:
            by_locus[locus] = _fixed_entry(f, locus)
        entries[i] = by_locus[locus]
    return entries


def milnor_data(f: InvertiblePolynomial, diag: DiagonalGroup) -> MilnorData:
    """chi^G(M_f) over a diagonal symmetry group, from its marks: the mark
    at K is chi(M_f^K).  A mark vector outside the image of the Burnside
    ring is an IntegralityError."""
    group = diag.group
    if group.denominator is None:
        raise NotASubgroupError("not a diagonal group: no phase vectors")
    # E phi in Z^n is additive, so the symmetries of f form a subgroup and
    # checking the generators shows that every element is one
    for g in group.generator_keys:
        _integral_image(f.E, g, group.denominator)
    entries = _fixed_entries(f, diag)
    marks = [entries[r].chi for r in group.lattice().representatives]
    return MilnorData(diag=diag, per_subgroup=entries,
                      chi_g=element_from_marks(group, marks))


def chi_G_milnor(f: InvertiblePolynomial, diag: DiagonalGroup) -> BurnsideElement:
    """chi^G(M_f) over a diagonal symmetry group; see `milnor_data`."""
    return milnor_data(f, diag).chi_g


def index_df(f: InvertiblePolynomial, diag: DiagonalGroup) -> BurnsideElement:
    """ind_rad^G(df) = -reduced chi^G(M_f) = [G/G] - chi^G(M_f)."""
    return one(diag.group) - chi_G_milnor(f, diag)


# -- duality report -------------------------------------------------------------

@dataclass
class DualityPair:
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


@dataclass
class DualityReport:
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


def _orbifold_indices(f: InvertiblePolynomial, diag: DiagonalGroup,
                      member_sets) -> tuple:
    """r_0 of ind^G(df), and r_1 of ind^H(df) for each member set H, by the
    mask formulas of the module docstring.

    chi(M_f^L) is computed once per distinct mask L; a non-integral average
    is an IntegralityError.
    """
    group = diag.group
    # E phi in Z^n is additive: checking the generators covers every element
    for g in group.generator_keys:
        _integral_image(f.E, g, group.denominator)
    n = diag.dimension
    chi_of = {}

    def chi(mask):
        c = chi_of.get(mask)
        if c is None:
            locus = frozenset(j for j in range(n) if mask >> j & 1)
            c = chi_of[mask] = _fixed_entry(f, locus).chi
        return c

    masks = diag.fixed_masks
    total = sum(c * chi(a) for a, c in Counter(masks).items())
    if total % group.order:
        raise IntegralityError(
            "orbit count of the Milnor fibre is not an integer")
    r0 = 1 - total // group.order
    values = []
    for members in member_sets:
        counts = Counter(masks[m] for m in members)
        total = sum(ca * cb * chi(a & b)
                    for a, ca in counts.items() for b, cb in counts.items())
        h = len(members)
        if total % h:
            raise IntegralityError(
                "orbifold Euler characteristic of the Milnor fibre is not an integer")
        values.append(h - total // h)
    return r0, values


def duality_check(f: InvertiblePolynomial) -> DualityReport:
    """Berglund-Huebsch duality consistency: r_0 equality of the df-indices of
    f and its transpose, and r_1 equality across every dual subgroup pair."""
    if abs(f.det) > DUALITY_ORDER_BOUND:
        raise OrderBoundError(
            f"duality check limited to |det E| <= {DUALITY_ORDER_BOUND}")
    ft = transpose(f)
    gf = symmetry_group(f)
    gft = symmetry_group(ft)
    annihilator = check_perfect_pairing(f, gf, gft)
    lat = gf.group.lattice()
    dual_lat = gft.group.lattice()
    dual_of = [dual_lat.subgroup_index(annihilator(sub.members))
               for sub in lat.subgroups]
    r0, v = _orbifold_indices(f, gf, [s.members for s in lat.subgroups])
    r0_dual, v_dual = _orbifold_indices(
        ft, gft, [dual_lat.subgroups[di].members for di in dual_of])
    pairs = []
    for i, di in enumerate(dual_of):
        pairs.append(DualityPair(
            subgroup_label=lat.labels[i], subgroup_order=lat.subgroups[i].order,
            dual_label=dual_lat.labels[di], dual_order=dual_lat.subgroups[di].order,
            orbifold_index=v[i], dual_orbifold_index=v_dual[i],
            dimension=f.n))
    return DualityReport(E=f.E, dual_E=ft.E, orbit_index=r0,
                         dual_orbit_index=r0_dual, pairs=pairs)
