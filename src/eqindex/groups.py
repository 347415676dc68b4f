"""Exact finite-group machinery.

Groups are built from one of three presentations (permutation generators,
diagonal rational-phase generators, or an explicit multiplication table) and
fully enumerated at construction time.  Element keys are sorted into a
canonical order, so subgroup lattices, conjugacy classes and every Burnside
coefficient downstream are deterministic across runs.

No floating point anywhere: phases are `fractions.Fraction` reduced mod 1.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GroupBuildError, NotASubgroupError, OrderBoundError

MAX_ORDER = 2000
MAX_PERM_DEGREE = 16
MAX_PHASE_DENOMINATOR = 10**6


def _bfs_closure(identity, generators, compose, bound):
    """Enumerate the group generated by `generators` under `compose`."""
    elems = {identity}
    frontier = [identity]
    for g in generators:
        if g not in elems:
            elems.add(g)
            frontier.append(g)
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                c = compose(a, g)
                if c not in elems:
                    if len(elems) >= bound:
                        raise OrderBoundError(
                            f"generated order exceeds the bound {bound}")
                    elems.add(c)
                    new.append(c)
        frontier = new
    return elems


def _cayley_table(keys, index, identity, generators, compose):
    """The multiplication table by row translation.

    Only the generator rows are composed.  Every other element c = a * g is
    reached from the identity by right multiplication (breadth first), and
    its row is the row of a read through the row of g, since
    (a g) x = a (g x): |G|^2 list lookups instead of |G|^2 compositions.
    """
    gen_rows = {index[g]: [index[compose(g, k)] for k in keys]
                for g in generators}
    rows = [None] * len(keys)
    e = index[identity]
    rows[e] = list(range(len(keys)))
    frontier = [e]
    while frontier:
        new = []
        for a in frontier:
            row_a = rows[a]
            for g, row_g in gen_rows.items():
                c = row_a[g]
                if rows[c] is None:
                    rows[c] = [row_a[x] for x in row_g]
                    new.append(c)
        frontier = new
    return rows


class FiniteGroup:
    """A finite group with a canonical element order and full product table.

    Elements are referred to by index into `keys`.  `table[i][j]` is the index
    of the product keys[i] * keys[j]; for permutations the product is
    "apply j first, then i".
    """

    def __init__(self, keys, table, identity, presentation, generator_keys,
                 parent=None, parent_index=None):
        self.keys = list(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.table = table
        self.identity = identity
        self.presentation = presentation
        self.generator_keys = list(generator_keys)
        self.parent = parent
        self.parent_index = parent_index
        self.order = len(self.keys)
        try:
            self.inverse = [row.index(identity) for row in self.table]
        except ValueError:
            raise GroupBuildError("some element has no inverse") from None
        self._lattice = None
        self._marks = None
        self._element_classes = None
        self._tuple_counts = {}
        self._fingerprint = None
        self._abelian = None

    # -- basic structure ---------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def conj(self, x: int, g: int) -> int:
        """g^{-1} x g."""
        return self.table[self.table[self.inverse[g]][x]][g]

    def elements(self):
        return range(self.order)

    @property
    def generators(self) -> list[int]:
        return [self.index[k] for k in self.generator_keys]

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self.table
            self._abelian = all(t[i][j] == t[j][i]
                                for i in range(self.order)
                                for j in range(i + 1, self.order))
        return self._abelian

    def closure(self, seed: Iterable[int]) -> frozenset:
        """The subgroup generated by the element indices in `seed`."""
        members = {self.identity}
        gens = [s for s in seed]
        frontier = list(members)
        for s in gens:
            if s not in members:
                members.add(s)
                frontier.append(s)
        while frontier:
            new = []
            for a in frontier:
                row = self.table[a]
                for g in gens:
                    c = row[g]
                    if c not in members:
                        members.add(c)
                        new.append(c)
            frontier = new
        return frozenset(members)

    def element_conjugacy_classes(self) -> list[list[int]]:
        """Conjugacy classes of elements, each sorted, ordered by smallest member."""
        if self._element_classes is None:
            seen = [False] * self.order
            classes = []
            for i in range(self.order):
                if seen[i]:
                    continue
                orbit = sorted({self.conj(i, g) for g in range(self.order)})
                for j in orbit:
                    seen[j] = True
                classes.append(orbit)
            self._element_classes = classes
        return self._element_classes

    def element_repr(self, i: int):
        """JSON-able canonical representation of an element."""
        k = self.keys[i]
        if isinstance(k, tuple) and k and isinstance(k[0], Fraction):
            return [[q.numerator, q.denominator] for q in k]
        if isinstance(k, tuple):
            return list(k)
        return k

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            h = hashlib.sha1()
            h.update(repr(self.keys).encode())
            h.update(repr(self.table).encode())
            self._fingerprint = f"G{self.order}-{h.hexdigest()[:10]}"
        return self._fingerprint

    def same_group(self, other: "FiniteGroup") -> bool:
        if self is other:
            return True
        return self.keys == other.keys and self.table == other.table

    def lattice(self) -> "SubgroupLattice":
        if self._lattice is None:
            self._lattice = SubgroupLattice(self)
        return self._lattice

    def is_subgroup(self, members: Iterable[int]) -> bool:
        ms = frozenset(members)
        if self.identity not in ms:
            return False
        return all(self.table[a][b] in ms for a in ms for b in ms)

    def __repr__(self):
        kind = self.presentation.get("kind", "?")
        return f"<FiniteGroup order={self.order} kind={kind}>"


class Subgroup:
    """A subgroup of a parent group, stored as a frozenset of element indices."""

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        self.parent = parent
        self.members = frozenset(members)
        if not parent.is_subgroup(self.members):
            raise NotASubgroupError("member set is not a subgroup")
        self._group = None

    @classmethod
    def _known(cls, parent: FiniteGroup, members: frozenset) -> "Subgroup":
        """A member set that is a subgroup by construction; not re-checked."""
        sub = cls.__new__(cls)
        sub.parent = parent
        sub.members = members
        sub._group = None
        return sub

    @property
    def order(self) -> int:
        return len(self.members)

    def member_tuple(self) -> tuple:
        return tuple(sorted(self.members))

    def as_group(self) -> FiniteGroup:
        """This subgroup as a standalone group.

        Element keys are inherited from the parent (so phase vectors stay
        phase vectors) and the canonical order is the parent's, restricted.
        """
        if self._group is None:
            idxs = sorted(self.members)
            child_of = {p: c for c, p in enumerate(idxs)}
            keys = [self.parent.keys[p] for p in idxs]
            table = [[child_of[self.parent.table[a][b]] for b in idxs]
                     for a in idxs]
            self._group = FiniteGroup(
                keys, table, child_of[self.parent.identity],
                {"kind": "table", "derived": "subgroup"},
                keys, parent=self.parent, parent_index=idxs)
        return self._group

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.members == self.members)

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __repr__(self):
        return f"<Subgroup order={self.order} of {self.parent!r}>"


class SubgroupLattice:
    """All subgroups of a group, their conjugacy classes, normalizers, and the
    Moebius functions of both posets (Sub G and ConjSub G).

    Subgroups are enumerated from the cyclic subgroups: every subgroup is a
    join of cyclic ones, so each known subgroup A is joined only with the
    cyclic subgroups C that neither contain A nor lie in A.  They are then
    sorted canonically (by order, then by sorted member ids); the
    representative of each conjugacy class is its minimal subgroup.

    `cyclic_of[g]` is the index of <g>, and `cyclic_generators` maps the
    index of each cyclic subgroup to one generator of it.
    """

    def __init__(self, group: FiniteGroup):
        if group.order > MAX_ORDER:
            raise OrderBoundError(
                f"subgroup enumeration limited to order {MAX_ORDER}")
        self.group = group
        abelian = group.is_abelian
        cyclic_of, cyclics = _cyclic_subgroups(group)
        subs = set(cyclics.values())
        work = list(subs)
        while work:
            a = work.pop()
            for g, c in cyclics.items():
                if c <= a or a <= c:
                    continue
                j = _coset_join(group.table, a, g) if abelian \
                    else group.closure(a | {g})
                if j not in subs:
                    subs.add(j)
                    work.append(j)
        order_key = lambda m: (len(m), tuple(sorted(m)))
        canonical = sorted(subs, key=order_key)
        self.subgroups = [Subgroup._known(group, m) for m in canonical]
        self.member_index = {s.members: i for i, s in enumerate(self.subgroups)}
        self.cyclic_of = [self.member_index[c] for c in cyclic_of]
        self.cyclic_generators = {self.member_index[c]: g
                                  for g, c in cyclics.items()}
        ns = len(self.subgroups)
        self.leq = [[s.members <= t.members for t in self.subgroups]
                    for s in self.subgroups]

        # conjugacy classes of subgroups and normalizers
        if abelian:
            self.classes = [[i] for i in range(ns)]
            self.class_of = list(range(ns))
            self.normalizers = [ns - 1] * ns
        else:
            self.class_of = [-1] * ns
            self.classes = []
            for i in range(ns):
                if self.class_of[i] >= 0:
                    continue
                orbit = set()
                for g in group.elements():
                    img = frozenset(group.conj(m, g)
                                    for m in self.subgroups[i].members)
                    orbit.add(self.member_index[img])
                cls = sorted(orbit)
                c = len(self.classes)
                self.classes.append(cls)
                for j in cls:
                    self.class_of[j] = c
            self.normalizers = []
            for s in self.subgroups:
                nm = frozenset(
                    g for g in group.elements()
                    if frozenset(group.conj(m, g) for m in s.members) == s.members)
                self.normalizers.append(self.member_index[nm])
        self.num_classes = len(self.classes)
        self.representatives = [cls[0] for cls in self.classes]

        # Moebius functions of Sub G and ConjSub G (canonical index order
        # extends inclusion); for abelian G every class is one subgroup
        self.mu_sub = _moebius(self.leq)
        nc = self.num_classes
        if abelian:
            self.zeta_conj = [[int(x) for x in row] for row in self.leq]
            self.mu_conj = [list(row) for row in self.mu_sub]
        else:
            self.zeta_conj = [[0] * nc for _ in range(nc)]
            for a in range(nc):
                rep = self.representatives[a]
                for b in range(nc):
                    if any(self.leq[rep][j] for j in self.classes[b]):
                        self.zeta_conj[a][b] = 1
            self.mu_conj = _moebius(self.zeta_conj)

        self.labels = [f"H{s.order}_{i}" for i, s in enumerate(self.subgroups)]
        self.class_labels = [self.labels[r] for r in self.representatives]
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._class_label_index = {lab: c
                                   for c, lab in enumerate(self.class_labels)}

    # -- lookups ------------------------------------------------------------

    def subgroup_index(self, members: frozenset) -> int:
        try:
            return self.member_index[frozenset(members)]
        except KeyError:
            raise NotASubgroupError("member set is not a subgroup") from None

    def class_index_of(self, members: frozenset) -> int:
        return self.class_of[self.subgroup_index(members)]

    def subgroup_by_label(self, label: str) -> Subgroup:
        try:
            return self.subgroups[self._label_index[label]]
        except KeyError:
            raise NotASubgroupError(f"unknown subgroup label {label!r}") from None

    def class_index_by_label(self, label: str) -> int:
        try:
            return self._class_label_index[label]
        except KeyError:
            raise NotASubgroupError(f"unknown class label {label!r}") from None

    def class_order(self, c: int) -> int:
        return self.subgroups[self.representatives[c]].order

    def normalizer_order(self, i: int) -> int:
        return self.subgroups[self.normalizers[i]].order


def _moebius(zeta) -> list:
    """The Moebius function of a finite poset from its zeta matrix, whose
    index order must extend the partial order."""
    n = len(zeta)
    mu = [[0] * n for _ in range(n)]
    for h in range(n):
        above = [k for k in range(h, n) if zeta[h][k]]
        mu_h = mu[h]
        mu_h[h] = 1
        for i in range(1, len(above)):
            l = above[i]
            mu_h[l] = -sum(mu_h[k] for k in above[:i] if zeta[k][l])
    return mu


def _cyclic_subgroups(group: FiniteGroup):
    """Per element its cyclic subgroup, and {generator: members} with one
    generator per cyclic subgroup.

    <g> is found by walking the powers of g along its table row; once <g>
    of order k is known, every g^i with gcd(i, k) = 1 generates the same
    subgroup and is not walked again.
    """
    table, e = group.table, group.identity
    cyclic_of = [None] * group.order
    cyclics = {}
    for g in group.elements():
        if cyclic_of[g] is not None:
            continue
        row = table[g]
        powers = [e]
        x = g
        while x != e:
            powers.append(x)
            x = row[x]
        members = frozenset(powers)
        k = len(powers)
        for i, x in enumerate(powers):
            if math.gcd(i, k) == 1:
                cyclic_of[x] = members
        cyclics[g] = members
    return cyclic_of, cyclics


def _coset_join(table, a: frozenset, g: int) -> frozenset:
    """A + <g> in an abelian group: the cosets A, A + g, A + 2g, ... up to the
    first multiple of g that lies in A, at a cost of |A + <g>|."""
    row = table[g]
    coset = list(a)
    joined = set(a)
    x = g
    while x not in a:
        coset = [row[y] for y in coset]
        joined.update(coset)
        x = row[x]
    return frozenset(joined)


def normalizer(group: FiniteGroup, subgroup: Subgroup) -> Subgroup:
    """N_G(H) = {g in G : g^{-1} H g = H}."""
    if subgroup.parent is not group and not subgroup.parent.same_group(group):
        raise NotASubgroupError("subgroup belongs to a different group")
    lat = group.lattice()
    i = lat.subgroup_index(subgroup.members)
    return lat.subgroups[lat.normalizers[i]]


# -- presentations ----------------------------------------------------------

def _normalize_phase(q) -> Fraction:
    f = Fraction(q) % 1
    if f.denominator > MAX_PHASE_DENOMINATOR:
        raise GroupBuildError(
            f"phase denominator exceeds {MAX_PHASE_DENOMINATOR}")
    return f


def build_group(presentation: dict) -> FiniteGroup:
    """Build a group from a presentation dict.

    Kinds:
      {"kind": "perm", "degree": m, "generators": [[images]...]}
      {"kind": "diagonal", "phases": [[Fraction or (num, den)]...]}
      {"kind": "table", "table": [[...]]}
    """
    kind = presentation.get("kind")
    if kind == "perm":
        return _build_perm(presentation)
    if kind == "diagonal":
        return _build_diagonal(presentation)
    if kind == "table":
        return _build_table(presentation)
    raise GroupBuildError(f"unknown presentation kind: {kind!r}")


def _build_perm(presentation):
    degree = int(presentation["degree"])
    if not 1 <= degree <= MAX_PERM_DEGREE:
        raise GroupBuildError(
            f"permutation degree must be between 1 and {MAX_PERM_DEGREE}")
    gens = []
    for g in presentation["generators"]:
        t = tuple(int(x) for x in g)
        if sorted(t) != list(range(degree)):
            raise GroupBuildError(f"generator {g!r} is not a permutation")
        gens.append(t)
    identity = tuple(range(degree))
    compose = lambda a, b: tuple(a[x] for x in b)
    elems = _bfs_closure(identity, gens, compose, MAX_ORDER)
    keys = sorted(elems)
    index = {k: i for i, k in enumerate(keys)}
    table = _cayley_table(keys, index, identity, gens, compose)
    return FiniteGroup(keys, table, index[identity],
                       {"kind": "perm", "degree": degree,
                        "generators": [list(g) for g in gens]},
                       gens)


def _build_diagonal(presentation):
    raw = presentation["phases"]
    gens = []
    for vec in raw:
        phases = tuple(
            _normalize_phase(Fraction(int(p[0]), int(p[1]))
                             if isinstance(p, (list, tuple)) else p)
            for p in vec)
        gens.append(phases)
    if not gens:
        raise GroupBuildError("diagonal presentation needs >= 1 generator")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise GroupBuildError("phase vectors have inconsistent dimension")
    # enumerate in integer phase space over the common denominator
    denom = 1
    for g in gens:
        for p in g:
            denom = denom * p.denominator // math.gcd(denom, p.denominator)
    int_gens = [tuple(p.numerator * (denom // p.denominator) for p in g)
                for g in gens]
    identity = (0,) * n
    compose = lambda a, b: tuple((x + y) % denom for x, y in zip(a, b))
    elems = _bfs_closure(identity, int_gens, compose, MAX_ORDER)
    int_keys = sorted(elems)
    index = {k: i for i, k in enumerate(int_keys)}
    table = _cayley_table(int_keys, index, identity, int_gens, compose)
    fractions = [Fraction(x, denom) for x in range(denom)]
    keys = [tuple(fractions[x] for x in k) for k in int_keys]
    gen_keys = [tuple(fractions[x] for x in k) for k in int_gens]
    group = FiniteGroup(keys, table, index[identity],
                        {"kind": "diagonal",
                         "phases": [[[p.numerator, p.denominator] for p in g]
                                    for g in gens]},
                        gen_keys)
    group._abelian = True
    return group


def _build_table(presentation):
    table = [[int(x) for x in row] for row in presentation["table"]]
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise GroupBuildError("table must be square and non-empty")
    if n > MAX_ORDER:
        raise OrderBoundError(f"generated order <= {MAX_ORDER} required")
    rng = list(range(n))
    for row in table:
        if sorted(row) != rng:
            raise GroupBuildError("table rows must be permutations (no inverses)")
    for j in rng:
        if sorted(table[i][j] for i in rng) != rng:
            raise GroupBuildError("table columns must be permutations")
    identity = None
    for e in rng:
        if all(table[e][j] == j for j in rng) and \
           all(table[i][e] == i for i in rng):
            identity = e
            break
    if identity is None:
        raise GroupBuildError("table has no identity element")
    _check_associative(table, identity)
    keys = rng
    return FiniteGroup(keys, table, identity,
                       {"kind": "table", "table": table}, keys)


def _check_associative(table, identity):
    """Light's associativity test on a greedily built generating set.

    The elements g with (x g) y = x (g y) for all x, y are closed under
    products, so checking generators is complete.  A generator is taken only
    outside the right-multiplication closure of the earlier ones; while the
    checks pass that closure is a subgroup, so each new generator at least
    doubles it and at most log2(n) + 1 rows of n^2 products are checked.
    """
    gens = []
    reached = {identity}
    for g in range(len(table)):
        if g in reached:
            continue
        row_g = table[g]
        for row_x in table:
            if table[row_x[g]] != [row_x[y] for y in row_g]:
                raise GroupBuildError("table is not associative")
        gens.append(g)
        reached = _bfs_closure(identity, gens, lambda a, b: table[a][b],
                               len(table))


# -- convenience constructors (used all over the tests and scripts) ---------

def cyclic_group(n: int) -> FiniteGroup:
    """Z/n as a diagonal group generated by the phase 1/n."""
    return build_group({"kind": "diagonal", "phases": [[Fraction(1, n)]]})


def perm_group(degree: int, generators: Sequence[Sequence[int]]) -> FiniteGroup:
    return build_group({"kind": "perm", "degree": degree,
                        "generators": [list(g) for g in generators]})


def diagonal_group(phase_vectors) -> FiniteGroup:
    return build_group({"kind": "diagonal", "phases": list(phase_vectors)})


def trivial_group() -> FiniteGroup:
    return build_group({"kind": "table", "table": [[0]]})
