"""Exact finite-group machinery.

Groups are built from one of three presentations (permutation generators,
diagonal rational-phase generators, or an explicit multiplication table);
their keys are enumerated at once and sorted canonically, so lattices,
conjugacy classes and Burnside coefficients are deterministic across runs.
A diagonal group's |G|^2 product table waits for its first read.

No floating point anywhere.  A diagonal group's elements are integer vectors
over one common denominator (the phases x / denominator mod 1); phases as
`fractions.Fraction` appear only at the edges: `FiniteGroup.phases`,
`element_repr` and `fingerprint`.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GroupBuildError, NotASubgroupError, OrderBoundError, _int

MAX_ORDER = 2000
MAX_PERM_DEGREE = 16
MAX_PHASE_DENOMINATOR = 10**6


def _enumerate(identity, generators, compose):
    """The keys in canonical (sorted) order, the multiplication table and the
    index of the identity, from one breadth-first walk.

    The walk reaches every element as c = g * a, a generator times an
    element already found, so its compositions are exactly the entries of
    the generator rows; `_canonical_table` translates them into the table.
    """
    gens = list(dict.fromkeys(generators))
    found = {identity: 0}
    walk = [identity]
    steps = [None]  # per element after the identity: (generator, parent)
    rows = [[] for _ in gens]
    for i, a in enumerate(walk):  # walk grows while it is read
        for k, g in enumerate(gens):
            c = compose(g, a)
            j = found.get(c)
            if j is None:
                if len(walk) >= MAX_ORDER:
                    raise OrderBoundError(
                        f"generated order exceeds the bound {MAX_ORDER}")
                j = found[c] = len(walk)
                walk.append(c)
                steps.append((k, i))
            rows[k].append(j)
    order = sorted(range(len(walk)), key=walk.__getitem__)
    return ([walk[w] for w in order], _canonical_table(order, steps, rows),
            order.index(0))


def _canonical_table(order, steps, rows):
    """The multiplication table of a walk (identity first) in the canonical
    order `order`, the walk indices sorted by key.

    Every element w after the identity was reached as c = g a, where
    steps[w] = (k, a) names the row of g in `rows` (in walk indices) and the
    parent a.  Every row of the table is then a translation, since
    (g a) x = g (a x): the row of c is the row of a read through the row of
    g, |G|^2 list lookups instead of |G|^2 compositions.
    """
    n = len(order)
    pos = [0] * n
    for p, w in enumerate(order):
        pos[w] = p
    gen_rows = []
    for row in rows:
        canon = [0] * n
        for w, x in enumerate(row):
            canon[pos[w]] = pos[x]
        gen_rows.append(canon)
    table = [None] * n
    table[pos[0]] = list(range(n))
    for w in range(1, n):
        k, a = steps[w]
        row_g = gen_rows[k]
        table[pos[w]] = [row_g[y] for y in table[pos[a]]]
    return table


def _closure(table, identity, seed) -> set:
    """The elements reached from the identity by right multiplication with
    the elements of `seed`: in a group, the subgroup they generate."""
    seed = list(seed)
    members = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            row = table[a]
            for g in seed:
                c = row[g]
                if c not in members:
                    members.add(c)
                    new.append(c)
        frontier = new
    return members


def _greedy_generators(table, identity):
    """Yield elements in index order, each outside the right-multiplication
    closure of the ones before it.  While that closure is a subgroup, each
    new element at least doubles it, so at most log2(n) + 1 are yielded and
    together they generate the group."""
    gens = []
    reached = {identity}
    for g in range(len(table)):
        if g not in reached:
            yield g
            gens.append(g)
            reached = _closure(table, identity, gens)


class _OnFirstRead:
    """An attribute computed on its first read, then a plain instance
    attribute: set with setattr, since filling `__dict__` directly (as
    `functools.cached_property` does) slows every later attribute read."""

    def __init__(self, name, build):
        self.name, self.build = name, build

    def __get__(self, obj, owner=None):
        value = self.build(obj)
        setattr(obj, self.name, value)
        return value


class FiniteGroup:
    """A finite group with a canonical element order and a product table.

    Elements are referred to by index into `keys`.  `table[i][j]` is the index
    of the product keys[i] * keys[j]; for permutations the product is
    "apply j first, then i".  A diagonal group has a `denominator`: its keys
    are integer vectors x standing for the phases x / denominator mod 1.
    `table` may be a function that builds it on first use; `inverse` waits too,
    and so do a diagonal group's fixed-coordinate `fixed_masks`.
    """

    table = _OnFirstRead("table", lambda g: g._make_table())
    inverse = _OnFirstRead(
        "inverse", lambda g: [row.index(g.identity) for row in g.table])

    def __init__(self, keys, table, identity, presentation, generator_keys,
                 parent=None, parent_index=None, denominator=None):
        self.keys = list(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        if callable(table):
            self._make_table = table
        else:
            self.table = table
        self.identity = identity
        self.presentation = presentation
        self.generator_keys = list(generator_keys)
        self.parent = parent
        self.parent_index = parent_index
        self.denominator = denominator
        self.order = len(self.keys)
        self._lattice = None
        self._marks = None
        self._element_classes = None
        self._tuple_counts = {}
        self._abelian = True if denominator is not None else None

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
        return frozenset(_closure(self.table, self.identity, seed))

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

    def phases(self, i: int) -> tuple:
        """The phase vector of element i of a diagonal group, as Fractions
        reduced mod 1."""
        if self.denominator is None:
            raise TypeError("only diagonal groups have phase vectors")
        return tuple(Fraction(x, self.denominator) for x in self.keys[i])

    def _fixed_masks(self) -> list:
        """Per element of a diagonal group, the bitmask of the coordinates it
        acts trivially on: the group's `fixed_masks`."""
        return [sum(1 << j for j, x in enumerate(k) if x == 0)
                for k in self.keys]

    fixed_masks = _OnFirstRead("fixed_masks", lambda g: g._fixed_masks())

    def element_repr(self, i: int):
        """JSON-able canonical representation of an element."""
        if self.denominator is not None:
            return [[q.numerator, q.denominator] for q in self.phases(i)]
        k = self.keys[i]
        return list(k) if isinstance(k, tuple) else k

    def _hashed_id(self) -> str:
        """An id hashed from the elements (phase vectors of a diagonal group
        as Fractions) and the table: the group's `fingerprint`."""
        keys = self.keys if self.denominator is None else \
            [self.phases(i) for i in self.elements()]
        h = hashlib.sha1()
        h.update(repr(keys).encode())
        h.update(repr(self.table).encode())
        return f"G{self.order}-{h.hexdigest()[:10]}"

    fingerprint = _OnFirstRead("fingerprint", _hashed_id)

    def same_group(self, other: "FiniteGroup") -> bool:
        if self is other:
            return True
        return (self.denominator == other.denominator
                and self.keys == other.keys and self.table == other.table)

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

        Element keys and the denominator are inherited from the parent (so
        phase vectors stay phase vectors) and the canonical order is the
        parent's, restricted.  The generator keys are a greedy generating
        set of at most log2|H| + 1 elements.
        """
        if self._group is None:
            idxs = sorted(self.members)
            child_of = {p: c for c, p in enumerate(idxs)}
            keys = [self.parent.keys[p] for p in idxs]
            table = [[child_of[self.parent.table[a][b]] for b in idxs]
                     for a in idxs]
            identity = child_of[self.parent.identity]
            gens = [keys[g] for g in _greedy_generators(table, identity)]
            self._group = FiniteGroup(
                keys, table, identity,
                {"kind": "table", "derived": "subgroup"},
                gens, parent=self.parent, parent_index=idxs,
                denominator=self.parent.denominator)
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
    index of each cyclic subgroup to one generator of it.  `leq[i][j]` is 1
    when subgroup i lies in subgroup j and 0 otherwise; for an abelian group
    `zeta_conj` and `mu_conj` are the very lists `leq` and `mu_sub`.
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
        canonical, self.labels = canonical_order(subs)
        self.subgroups = [Subgroup._known(group, m) for m in canonical]
        self.member_index = {s.members: i for i, s in enumerate(self.subgroups)}
        self.cyclic_of = [self.member_index[c] for c in cyclic_of]
        self.cyclic_generators = {self.member_index[c]: g
                                  for g, c in cyclics.items()}
        ns = len(self.subgroups)
        self.leq = [[1 if s.members <= t.members else 0
                     for t in self.subgroups] for s in self.subgroups]

        # conjugacy classes of subgroups and normalizers, by orbit and
        # stabilizer: each class representative R is conjugated by every g
        # once; the images are its class, the g with R^g = R are N(R), and
        # each conjugate R^x has normalizer N(R)^x for the first such x
        if abelian:
            self.classes = [[i] for i in range(ns)]
            self.class_of = list(range(ns))
            self.normalizers = [ns - 1] * ns
        else:
            conj = lambda ms, g: frozenset(group.conj(m, g) for m in ms)
            self.class_of = [-1] * ns
            self.normalizers = [-1] * ns
            self.classes = []
            for i, r in enumerate(self.subgroups):
                if self.class_of[i] >= 0:
                    continue
                first = {}  # conjugate -> the first g that carries R to it
                stab = []
                for g in group.elements():
                    j = self.member_index[conj(r.members, g)]
                    first.setdefault(j, g)
                    if j == i:
                        stab.append(g)
                c = len(self.classes)
                self.classes.append(sorted(first))
                for j, x in first.items():
                    self.class_of[j] = c
                    self.normalizers[j] = self.member_index[conj(stab, x)]
        self.num_classes = len(self.classes)
        self.representatives = [cls[0] for cls in self.classes]

        # Moebius functions of Sub G and ConjSub G (canonical index order
        # extends inclusion); for abelian G every class is one subgroup, so
        # the two posets share one zeta and one Moebius matrix
        self.mu_sub = _moebius(self.leq)
        nc = self.num_classes
        if abelian:
            self.zeta_conj = self.leq
            self.mu_conj = self.mu_sub
        else:
            self.zeta_conj = [[0] * nc for _ in range(nc)]
            for a in range(nc):
                rep = self.representatives[a]
                for b in range(nc):
                    if any(self.leq[rep][j] for j in self.classes[b]):
                        self.zeta_conj[a][b] = 1
            self.mu_conj = _moebius(self.zeta_conj)

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


def canonical_order(member_sets) -> tuple:
    """The member sets (of one group's subgroups) in canonical order, by
    order and then by sorted member ids, and the label H<order>_<i> of the
    i-th: for all the subgroups of a group, the order and the labels of its
    `SubgroupLattice`."""
    canonical = sorted(member_sets, key=lambda m: (len(m), sorted(m)))
    return canonical, [f"H{len(m)}_{i}" for i, m in enumerate(canonical)]


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
    """A<g> for a subgroup A and an element g that centralizes it: the
    cosets A, gA, g^2 A, ... up to the first power of g that lies in A, at a
    cost of |A<g>|.  (When g does not centralize A, the union of these cosets
    need not be a subgroup.)"""
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
    if not subgroup.parent.same_group(group):
        raise NotASubgroupError("subgroup belongs to a different group")
    lat = group.lattice()
    i = lat.subgroup_index(subgroup.members)
    return lat.subgroups[lat.normalizers[i]]


# -- presentations ----------------------------------------------------------

def _list(value, what: str):
    """`value` if it is a list or a tuple, else GroupBuildError naming `what`."""
    if isinstance(value, (list, tuple)):
        return value
    raise GroupBuildError(f"{what} must be a list, got {value!r}")


def _phase(p) -> Fraction:
    """A phase mod 1, given as an int, a Fraction or a pair of ints with a
    non-zero denominator."""
    if isinstance(p, (list, tuple)) and len(p) == 2:
        num = _int(p[0], "phase numerator", GroupBuildError)
        den = _int(p[1], "phase denominator", GroupBuildError)
        if den == 0:
            raise GroupBuildError(f"phase {p!r} has a zero denominator")
        p = Fraction(num, den)
    elif not isinstance(p, Fraction):
        p = _int(p, "phase", GroupBuildError)
    f = Fraction(p) % 1
    if f.denominator > MAX_PHASE_DENOMINATOR:
        raise GroupBuildError(
            f"phase denominator exceeds {MAX_PHASE_DENOMINATOR}")
    return f


def build_group(presentation: dict) -> FiniteGroup:
    """Build a group from a presentation dict.

    Kinds:
      {"kind": "perm", "degree": m, "generators": [[images]...]}
      {"kind": "diagonal", "phases": [[int, Fraction or (num, den)]...]}
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
    degree = _int(presentation.get("degree"), "degree", GroupBuildError)
    if not 1 <= degree <= MAX_PERM_DEGREE:
        raise GroupBuildError(
            f"permutation degree must be between 1 and {MAX_PERM_DEGREE}")
    gens = []
    for g in _list(presentation.get("generators"), "generators"):
        t = tuple(_int(x, "permutation image", GroupBuildError)
                  for x in _list(g, "generator"))
        if sorted(t) != list(range(degree)):
            raise GroupBuildError(f"generator {g!r} is not a permutation")
        gens.append(t)
    keys, table, identity = _enumerate(
        tuple(range(degree)), gens, lambda a, b: tuple(a[x] for x in b))
    return FiniteGroup(keys, table, identity,
                       {"kind": "perm", "degree": degree,
                        "generators": [list(g) for g in gens]},
                       gens)


def _build_diagonal(presentation):
    gens = [tuple(map(_phase, _list(vec, "phase vector")))
            for vec in _list(presentation.get("phases"), "phases")]
    denom = math.lcm(*(p.denominator for g in gens for p in g))
    return diagonal_group_from_integers(
        [[p.numerator * (denom // p.denominator) for p in g] for g in gens],
        denom)


def diagonal_group_from_integers(vectors, denominator: int) -> FiniteGroup:
    """The diagonal group generated by the phase vectors v / denominator
    mod 1, for integer vectors v and a positive integer denominator.

    Entries are reduced mod the denominator and then, with it, by their
    common gcd, so the group's denominator is the least one over which its
    generators are integral (as the lcm of their reduced Fraction phases).
    """
    vecs = [[x % denominator for x in v] for v in vectors]
    if not vecs:
        raise GroupBuildError("diagonal presentation needs >= 1 generator")
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise GroupBuildError("phase vectors have inconsistent dimension")
    g = math.gcd(denominator, *(x for v in vecs for x in v))
    denom = denominator // g
    int_gens = [tuple(x // g for x in v) for v in vecs]
    keys, table, identity = _diagonal_cosets(int_gens, denom)
    phases = [[[x // math.gcd(x, denom), denom // math.gcd(x, denom)]
               for x in v] for v in int_gens]
    return FiniteGroup(keys, table, identity,
                       {"kind": "diagonal", "phases": phases},
                       int_gens, denominator=denom)


def _diagonal_cosets(generators, denom):
    """`_enumerate` for integer vectors added mod `denom`, one coset at a
    time.

    For each generator g in turn, with H the subgroup generated so far, the
    least m with m g in H is found among the first MAX_ORDER // |H|
    multiples (a larger m would exceed the bound); m divides the order of g,
    so only those multiples are formed.  H<g> is H followed by the cosets
    g + H, ..., (m-1) g + H, one comprehension per coordinate column.
    Element w of a new coset is g plus element w - |H|, which is the step
    `_canonical_table` reads.  Only the keys are sorted here (identity
    first); the generator rows and the table wait for the first read.
    """
    n = len(generators[0])
    walk = [(0,) * n]
    found = {walk[0]: 0}
    cols = [[0] for _ in range(n)]
    steps = [None]
    used = []
    for g in dict.fromkeys(generators):
        size = len(walk)
        order = denom // math.gcd(denom, *g)
        for m in range(1, MAX_ORDER // size + 1):
            if order % m == 0 and tuple(m * y % denom for y in g) in found:
                break
        else:
            raise OrderBoundError(
                f"generated order exceeds the bound {MAX_ORDER}")
        if m == 1:
            continue
        for col, y in zip(cols, g):
            col += [(v + c * y) % denom for c in range(1, m) for v in col]
        walk += zip(*(col[size:] for col in cols))
        found.update(zip(walk[size:], range(size, len(walk))))
        steps += [(len(used), w) for w in range(len(walk) - size)]
        used.append(g)
    order = sorted(range(len(walk)), key=walk.__getitem__)

    def table():
        rows = [list(map(found.__getitem__, zip(
            *([(v + y) % denom for v in col] for col, y in zip(cols, g)))))
            for g in used]
        return _canonical_table(order, steps, rows)
    return [walk[w] for w in order], table, 0


def _build_table(presentation):
    table = [[_int(x, "table entry", GroupBuildError)
              for x in _list(row, "table row")]
             for row in _list(presentation.get("table"), "table")]
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
    products, so checking generators is complete.  Each generator of
    `_greedy_generators` is checked before the next is taken; while the
    checks pass the closure is a subgroup, so at most log2(n) + 1 rows of
    n^2 products are checked.
    """
    for g in _greedy_generators(table, identity):
        row_g = table[g]
        for row_x in table:
            if table[row_x[g]] != [row_x[y] for y in row_g]:
                raise GroupBuildError("table is not associative")


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
