"""The Burnside ring B(G) of a finite group.

Elements are integer vectors over the conjugacy classes of subgroups in the
canonical lattice order.  Every map is read from the subgroup lattice:

  * marks: mark(G/K, H) = |N_G(K):K| * #{K' in [K] : H <= K'}, since gK is
    fixed by H exactly when H <= gKg^-1 and each conjugate of K comes from
    |N_G(K):K| cosets (for abelian G, |G:K| [H <= K]);
  * products: multiply the mark vectors componentwise, then invert the
    triangular table of marks, the one inversion of the package (every
    ring operation, the fixed-set indices and chi^G(M_f) go through it);
  * cardinality: the mark at the trivial subgroup, sum of a_K |G:K|;
  * restriction to H: the marks at each K <= H are those of b at K's class
    in G, inverted over the table of marks of H;
  * induction from H: [H/K] -> [G/K], through the same class map, the
    `parent_classes` of H's lattice;
  * commuting-tuple counts: pairwise-commuting tuples lie in an abelian
    subgroup A, and P. Hall's phi_{k+1}(A), the (k+1)-tuples of A that
    generate A, solves |A|^(k+1) = sum over B <= A of phi_{k+1}(B): one
    `solve_rows` along the down-sets, from the bottom up.

The tests check marks, restriction and the counts against brute-force
oracles.  Any non-integral coefficient on the way back is a hard error --
integrality is a theorem, so a violation means a bug or inconsistent input.
"""

from __future__ import annotations

from .errors import IntegralityError, NotASubgroupError, OrderBoundError, _int
from .groups import FiniteGroup, Subgroup, commuting, expand, solve_rows


class BurnsideElement:
    """An element of B(G): one integer coefficient per class [G/H]."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs):
        coeffs = tuple(coeffs)
        if not set(map(type, coeffs)) <= {int}:  # bools are not coefficients
            raise IntegralityError("Burnside coefficients must be integers")
        if len(coeffs) != group.lattice().num_classes:
            raise ValueError("coefficient vector has wrong length")
        self.group = group
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # an operand that is neither a Burnside element nor an int (bools are
    # not coefficients) gets NotImplemented, so Python raises TypeError
    def _check(self, other):
        if not other.group.same_group(self.group):
            raise ValueError("Burnside elements belong to different groups")

    def __add__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        self._check(other)
        return BurnsideElement(self.group,
                               [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        self._check(other)
        return BurnsideElement(self.group,
                               [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BurnsideElement(self.group, [-a for a in self.coeffs])

    def __rmul__(self, k):
        if isinstance(k, int) and not isinstance(k, bool):
            return BurnsideElement(self.group, [k * a for a in self.coeffs])
        return NotImplemented

    def __mul__(self, other):
        if not isinstance(other, BurnsideElement):
            return self.__rmul__(other)
        self._check(other)
        return multiply(self, other)

    def __eq__(self, other):
        return (isinstance(other, BurnsideElement)
                and other.group.same_group(self.group)
                and other.coeffs == self.coeffs)

    def __hash__(self):  # equal groups have equal orders; no table is built
        return hash((self.group.order, self.coeffs))

    def __repr__(self):
        lat = self.group.lattice()
        terms = []
        for c, a in enumerate(self.coeffs):
            if a == 0:
                continue
            label = lat.class_labels[c]
            if a == 1:
                terms.append(f"[G/{label}]")
            elif a == -1:
                terms.append(f"-[G/{label}]")
            else:
                terms.append(f"{a}[G/{label}]")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"B({self.group.fingerprint}): {body}"


def zero(group: FiniteGroup) -> BurnsideElement:
    return BurnsideElement(group, [0] * group.lattice().num_classes)


def one(group: FiniteGroup) -> BurnsideElement:
    """[G/G], the multiplicative identity."""
    return basis_element(group, group.lattice().num_classes - 1)


def basis_element(group: FiniteGroup, class_index: int) -> BurnsideElement:
    coeffs = [0] * group.lattice().num_classes
    coeffs[class_index] = 1
    return BurnsideElement(group, coeffs)


class TableOfMarks:
    """marks[k][h] = |(G/K)^H| = |N_G(K):K| * #{K' in [K] : H <= K'}, over
    conjugacy classes in canonical order.  `diagonal[k]` is |N_G(K):K| =
    |G:K| / |[K]| (orbit-stabilizer), and `rows[k]` lists the classes h
    below [K], each repeated #{K' in [K] : H <= K'} times, ascending and
    ending at k: the mark is the diagonal times the multiplicity.  One pass
    over the up-sets of the class representatives appends the rows; for
    an abelian group, whose classes are single subgroups, they are the
    very lists `down` of its lattice.
    """

    def __init__(self, group: FiniteGroup):
        lat = group.lattice()
        self.diagonal = [group.order // (len(cls) * q)
                         for cls, q in zip(lat.classes, lat.class_orders)]
        if group.is_abelian:
            self.rows = lat.down
        else:
            self.rows = [[] for _ in lat.classes]
            for h, r in enumerate(lat.representatives):
                for j in lat.up[r]:
                    self.rows[lat.class_of[j]].append(h)
        self.group = group

    @property
    def matrix(self) -> list:
        """The dense table marks[k][h], written out from the rows on each
        read (for output; the ring operations walk the rows)."""
        return expand([[(h, d) for h in row]
                       for row, d in zip(self.rows, self.diagonal)],
                      len(self.rows))


def table_of_marks(group: FiniteGroup) -> TableOfMarks:
    if group._marks is None:
        group._marks = TableOfMarks(group)
    return group._marks


def marks_vector(b: BurnsideElement) -> tuple:
    """mark(b, [H]) for every class [H], i.e. the fixed-point counts."""
    tom = table_of_marks(b.group)
    out = [0] * len(tom.rows)
    for a, row, d in zip(b.coeffs, tom.rows, tom.diagonal):
        if a:
            a *= d
            for h in row:
                out[h] += a
    return tuple(out)


def element_from_marks(group: FiniteGroup, marks) -> BurnsideElement:
    """Invert the triangular table of marks; must land in integers.

    Back substitution from the top class down: once the coefficient a_K is
    known, a_K times row K is subtracted from the marks still to be solved.
    """
    tom = table_of_marks(group)
    rest = list(marks)
    if len(rest) != len(tom.diagonal):
        raise ValueError("mark vector has wrong length")
    out = [0] * len(rest)
    for k in range(len(out) - 1, -1, -1):
        d = tom.diagonal[k]
        a, r = divmod(rest[k], d)
        if r:
            raise IntegralityError(
                "mark vector is not in the image of the Burnside ring")
        if a:
            out[k] = a
            a *= d
            for h in tom.rows[k]:  # ends at h = k, not read again
                rest[h] -= a
    return BurnsideElement(group, out)


def multiply(b1: BurnsideElement, b2: BurnsideElement) -> BurnsideElement:
    b1._check(b2)
    v1 = marks_vector(b1)
    v2 = marks_vector(b2)
    return element_from_marks(b1.group, [a * b for a, b in zip(v1, v2)])


def cardinality(b: BurnsideElement) -> int:
    """|A|: the underlying number of points, the mark at the trivial
    subgroup; [G/K] has |G:K| of them, read from the class orders."""
    order = b.group.order
    return sum(a * (order // q) for a, q
               in zip(b.coeffs, b.group.lattice().class_orders) if a)


def restrict(b: BurnsideElement, sub: Subgroup) -> BurnsideElement:
    """R^G_H: the same G-set viewed as an H-set, over ConjSub(H).

    Its mark at K <= H is the mark of b at K, read at K's class in G.
    """
    group = b.group
    if not sub.parent.same_group(group):
        raise NotASubgroupError("subgroup belongs to a different group")
    child = sub.as_group()
    marks = marks_vector(b)
    return element_from_marks(
        child, [marks[p] for p in child.lattice().parent_classes])


def induce(b: BurnsideElement, group: FiniteGroup) -> BurnsideElement:
    """I^G_H: [H/K] -> [G/K]; additive, not multiplicative."""
    child = b.group
    if child.same_group(group):
        return BurnsideElement(group, b.coeffs)
    if child.parent is None or not child.parent.same_group(group):
        raise NotASubgroupError("element's group is not a subgroup of the target")
    out = [0] * group.lattice().num_classes
    for a, p in zip(b.coeffs, child.lattice().parent_classes):
        out[p] += a
    return BurnsideElement(group, out)


def commuting_class_counts(group: FiniteGroup, k: int) -> tuple:
    """Number of pairwise-commuting (k+1)-tuples whose generated subgroup lies
    in each conjugacy class.  Cached per group and k; a k that is not an
    int (a bool, a float, a string) is a ValueError, as a negative k is.

    Each abelian A (its recorded generators commute pairwise; every A, when
    G is abelian) adds Hall's phi_{k+1}(A).
    """
    if _int(k, "k", ValueError) in group._tuple_counts:
        return group._tuple_counts[k]
    if k < 0:
        raise ValueError("k must be >= 0")
    # kept so that outputs do not change; a bound on the work is ROADMAP item 8
    if k > 3:
        raise OrderBoundError("commuting-tuple enumeration out of bounds")
    lat = group.lattice()
    phi = solve_rows(lat.down, [s.order ** (k + 1) for s in lat.subgroups],
                     range(len(lat.down)))
    counts = [0] * lat.num_classes
    for a, gens in enumerate(lat.generators):
        if group.is_abelian or commuting(group.table, gens):
            counts[lat.class_of[a]] += phi[a]
    result = tuple(counts)
    group._tuple_counts[k] = result
    return result


def r_k(b: BurnsideElement, k: int) -> int:
    """The reduction r_G^(k): averaged fixed-point count over commuting
    (k+1)-tuples.  r_0 counts orbits, so it is the sum of the coefficients
    (r_0 [G/H] = 1); r_1 is the orbifold reduction.  Any k == 0 is checked
    here, any other by `commuting_class_counts`."""
    if k == 0:
        _int(k, "k", ValueError)
        return sum(b.coeffs)
    counts = commuting_class_counts(b.group, k)
    mv = marks_vector(b)
    total = sum(c * v for c, v in zip(counts, mv))
    if total % b.group.order:
        raise IntegralityError("higher-order reduction is not an integer")
    return total // b.group.order


class ClassFunction:
    """A function on conjugacy classes of group elements."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values):
        values = tuple(values)
        if len(values) != len(group.element_conjugacy_classes()):
            raise ValueError("value vector has wrong length")
        self.group = group
        self.values = values

    def at_element(self, g: int):
        for cls, v in zip(self.group.element_conjugacy_classes(), self.values):
            if g in cls:
                return v
        raise ValueError("element out of range")

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and other.group.same_group(self.group)
                and other.values == self.values)

    def __repr__(self):
        return f"ClassFunction({self.values})"


def permutation_character(b: BurnsideElement) -> ClassFunction:
    """Trace of the permutation action: value at g is the number of points of
    the virtual G-set fixed by g."""
    group = b.group
    lat = group.lattice()
    mv = marks_vector(b)
    return ClassFunction(group, [mv[lat.class_of[lat.cyclic_of[cls[0]]]]
                                 for cls in group.element_conjugacy_classes()])
