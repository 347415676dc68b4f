"""Exact finite-group machinery.

Groups are built from one of three presentations (permutation generators,
diagonal rational-phase generators, or an explicit multiplication table);
their keys are enumerated at once and sorted canonically, so lattices,
conjugacy classes and Burnside coefficients are deterministic across runs.
A diagonal group's |G|^2 product table waits for its first read, and its
subgroup lattice never reads it: cyclic subgroups come from key multiples
and each join from the translation rows of the few elements it adds.
Each group's subgroups are enumerated once, by prime steps up from the
trivial subgroup (extending one subgroup per conjugacy class, each class the
member sets of an orbit under the generators), as the cyclic subgroups of a
cyclic group or, for a subgroup group, as its parent's down-set in the
parent's order; every lattice reads its up-sets off its cyclic subgroups,
and every subgroup generated by elements (`closure`, each join of that
walk, Light's associativity test) comes from one coset walk, `_join`.

No floating point anywhere.  A diagonal group's elements are integer vectors
over one common denominator (the phases x / denominator mod 1); phases as
`fractions.Fraction` appear only at the edges: `FiniteGroup.phases`,
`element_repr` and `fingerprint`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GroupBuildError, NotASubgroupError, OrderBoundError, _int

MAX_ORDER = 2000
MAX_PERM_DEGREE = 16


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


def _join(table, base, gens) -> frozenset:
    """The subgroup generated by the subgroup A = `base` and the elements
    `gens`, provided `gens` generate A too or each of them centralizes A:
    Dimino's coset walk (G. Butler, *Fundamental Algorithms for Permutation
    Groups*, 1991).  Only the rows `table[s]` of the s in `gens` are read.

    Each new left coset s xA is the image of a known coset under the row of
    s, and is new exactly when the image of one of its elements is.  The
    union of the cosets ends closed under left multiplication by `gens`,
    and by A under either half of the contract, so it is the join: one row
    lookup per element and one membership test per coset and generator.
    """
    members = set(base)
    cosets = [[*base]]
    for coset in cosets:  # cosets grows while it is read
        for s in gens:
            row = table[s]
            if row[coset[0]] not in members:
                image = [row[y] for y in coset]
                members.update(image)
                cosets.append(image)
    return frozenset(members)


def commuting(table, ids) -> bool:
    """Whether the elements `ids` (say, generators) commute pairwise."""
    return all(table[a][b] == table[b][a] for a in ids for b in ids)


class _OnFirstRead:
    """An attribute computed on its first read, then a plain instance
    attribute.  Instances keep attributes inline, under keys their class
    shares, unless `__dict__` is filled directly (as `cached_property` does)
    or a key is first set once a few dozen instances exist; either slows all
    later reads.  So values are set with setattr, keys at class creation."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name
        setattr(object.__new__(owner), name, None)

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
    `table` may be a function that builds it on first use; `inverse` and
    `is_abelian`, read from the `generator_keys` (which generate the
    group), wait too.
    """

    table = _OnFirstRead(lambda g: g._make_table())
    inverse = _OnFirstRead(
        lambda g: [row.index(g.identity) for row in g.table])
    is_abelian = _OnFirstRead(
        lambda g: g.denominator is not None or commuting(g.table, g.generators))

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

    # -- basic structure ---------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def conj(self, x: int, g: int) -> int:
        """g^{-1} x g."""
        return self.table[self.table[self.inverse[g]][x]][g]

    def elements(self):
        return range(self.order)

    @property
    def generators(self) -> list[int]:
        return [self.index[k] for k in self.generator_keys]

    def closure(self, seed: Iterable[int]) -> frozenset:
        """The subgroup generated by the element indices in `seed`."""
        return _join(self.table, (self.identity,), self._element_ids(seed))

    def _element_ids(self, ids: Iterable[int]) -> tuple:
        """`ids` as a tuple of ints in range(order), else NotASubgroupError."""
        ids, valid = tuple(ids), range(self.order)
        for i in ids:
            if _int(i, "element index", NotASubgroupError) not in valid:
                raise NotASubgroupError(f"element index {i} out of range")
        return ids

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

    def element_repr(self, i: int):
        """JSON-able canonical representation of an element."""
        if self.denominator is not None:
            return [[q.numerator, q.denominator] for q in self.phases(i)]
        k = self.keys[i]
        return list(k) if isinstance(k, tuple) else k

    def _hashed_id(self) -> str:
        """An id hashed from the elements (phase vectors of a diagonal group
        as Fractions) and the table: the group's `fingerprint`."""
        try:  # the built-in module, so that no CLI child loads OpenSSL
            from _sha1 import sha1
        except ImportError:
            from hashlib import sha1
        keys = self.keys if self.denominator is None else \
            [self.phases(i) for i in self.elements()]
        h = sha1()
        h.update(repr(keys).encode())
        h.update(repr(self.table).encode())
        return f"G{self.order}-{h.hexdigest()[:10]}"

    fingerprint = _OnFirstRead(_hashed_id)

    def same_group(self, other: "FiniteGroup") -> bool:
        # keys over one denominator fix the law: tables only without one
        return self is other or (
            self.denominator == other.denominator and self.keys == other.keys
            and (self.denominator is not None or self.table == other.table))

    def lattice(self) -> "SubgroupLattice":
        if self._lattice is None:
            self._lattice = SubgroupLattice(self)
        return self._lattice

    def __repr__(self):
        kind = self.presentation.get("kind", "?")
        return f"<FiniteGroup order={self.order} kind={kind}>"


class Subgroup:
    """A subgroup of a parent group, stored as a frozenset of element
    indices: one object per subgroup, the parent lattice's entry, which
    `Subgroup(parent, members)` looks up.  Equality is identity."""

    def __new__(cls, parent: FiniteGroup, members: Iterable[int]):
        lat = parent.lattice()
        return lat.subgroups[lat.subgroup_index(parent._element_ids(members))]

    @classmethod
    def _known(cls, parent: FiniteGroup, members: frozenset) -> "Subgroup":
        """A member set that is a subgroup by construction; not re-checked."""
        sub = object.__new__(cls)
        sub.parent = parent
        sub.members = members
        sub._group = None
        return sub

    def __copy__(self):
        return self

    def __reduce__(self):
        # the parent as state, so a copied parent's lattice holds this copy
        return Subgroup._known, (None, self.members), {"parent": self.parent}

    @property
    def order(self) -> int:
        return len(self.members)

    def as_group(self) -> FiniteGroup:
        """This subgroup as a standalone group.

        Element keys and the denominator are inherited from the parent (so
        phase vectors stay phase vectors) and the canonical order is the
        parent's, restricted.  The generator keys are those the parent's
        lattice recorded for this subgroup (`SubgroupLattice.generators`),
        at most log2|H| + 1 of them, and one when the parent is cyclic.
        The table waits for its first read, so a diagonal subgroup group is
        just its keys.
        """
        if self._group is None:
            parent = self.parent
            lat = parent.lattice()
            gens = lat.generators[lat.subgroup_index(self.members)]
            idxs = sorted(self.members)
            child_of = {p: c for c, p in enumerate(idxs)}
            self._group = FiniteGroup(
                [parent.keys[p] for p in idxs],
                lambda: [[child_of[row[b]] for b in idxs]
                         for row in map(parent.table.__getitem__, idxs)],
                child_of[parent.identity],
                {"kind": "table", "derived": "subgroup"},
                [parent.keys[g] for g in gens], parent=parent,
                parent_index=idxs, denominator=parent.denominator)
        return self._group

    def __repr__(self):
        return f"<Subgroup order={self.order} of {self.parent!r}>"


class SubgroupLattice:
    """All subgroups of a group, their conjugacy classes, normalizers, and the
    Moebius functions of both posets (Sub G and ConjSub G).

    Subgroups come from one walk by prime steps up from the trivial
    subgroup (`_prime_step_joins`), or, for a cyclic group, are its cyclic
    subgroups with no walk; these are sorted canonically (by order, then
    by sorted member ids).  For a subgroup group H they are the parent's
    row `down[H]` in its order, which the sorted `parent_index` keeps
    canonical.  A non-abelian group's conjugacy classes are orbits of
    member sets under its generators, from the walk or on the down-set
    (`_class_orbit`); each class's representative is its minimal
    subgroup.  `normalizers[i]` is the index of N(H) for the i-th H,
    searched in `up[i]`.
    `parent_classes[c]` is the parent's class of class c's representative
    (None without a parent), the map of `restrict`/`induce`.

    `generators[i]` are the generators of the join that first produced
    subgroup i, or of a conjugate of it: at most log2|H| + 1, since each
    join at least doubles.  In a cyclic group each subgroup records one
    generator (the trivial subgroup none).  `cyclic_of[g]` is the index
    of <g>.

    Both posets are stored as sparse rows, never as square matrices, since
    few pairs are comparable and fewer have a non-zero Moebius value:
    `up[i]` lists, ascending, the subgroups that contain subgroup i (i
    first; one `_up_sets` pass over `cyclic_of`), its transpose `down[i]`
    those that subgroup i contains (i last), and `mu[i]` the pairs
    (j, mu(i, j)) with mu(i, j) != 0.  `class_up` and `class_mu` are the
    same rows over ConjSub G, where [H] <= [K] when H lies in a conjugate
    of K; for an abelian group, whose classes are single subgroups, they
    are the very lists `up` and `mu`.
    Computations read only the up-sets (`class_up` for the class-poset
    inversion) and the class sizes (|N_G(K):K| = |G:K| / |[K]|), and
    `down` for Hall's phi and the lattices of subgroup groups; `mu`,
    `class_mu` and `normalizers` are for output.  So these five wait for
    their first read.
    `class_orders[c]` is the order of class c.
    """

    mu = _OnFirstRead(lambda lat: _moebius_rows(lat.up))
    down = _OnFirstRead(lambda lat: _transpose(lat.up))
    class_up = _OnFirstRead(lambda lat: (
        lat.up if lat.group.is_abelian else
        [sorted({lat.class_of[j] for j in lat.up[r]})
         for r in lat.representatives]))
    class_mu = _OnFirstRead(lambda lat: (
        lat.mu if lat.group.is_abelian else _moebius_rows(lat.class_up)))

    def __init__(self, group: FiniteGroup):
        if group.order > MAX_ORDER:
            raise OrderBoundError(
                f"subgroup enumeration limited to order {MAX_ORDER}")
        self.group = group
        if group.parent is None:
            cyclic_of, cyclics = _cyclic_subgroups(group)
            if any(len(powers) == group.order for powers in cyclics.values()):
                # a cyclic group: its subgroups are its cyclic subgroups,
                # each generated by the one element that listed it
                gens = {cyclic_of[g]: (g,) for g in cyclics}
                gens[cyclic_of[group.identity]] = ()
            else:
                gens, orbits = _prime_step_joins(group, cyclic_of, cyclics)
            canonical = sorted(gens, key=lambda m: (len(m), sorted(m)))
        else:  # H's down-set in the parent's lattice, renumbered; the
            # renumbering is increasing, so the parent's order is canonical
            plat = group.parent.lattice()
            child_of = {p: c for c, p in enumerate(group.parent_index)}
            down = plat.down[plat.subgroup_index(group.parent_index)]
            sets = {i: frozenset(map(child_of.get, plat.subgroups[i].members))
                    for i in down}
            gens = {sets[i]: tuple(map(child_of.get, plat.generators[i]))
                    for i in down}
            cyclic_of = [sets[plat.cyclic_of[p]] for p in group.parent_index]
            canonical = list(gens)
        self.labels = [canonical_label(len(m), i)
                       for i, m in enumerate(canonical)]
        self.generators = [gens[m] for m in canonical]
        self.subgroups = [Subgroup._known(group, m) for m in canonical]
        self.member_index = {s.members: i for i, s in enumerate(self.subgroups)}
        self.cyclic_of = [self.member_index[c] for c in cyclic_of]
        self.up = _up_sets(canonical, self.cyclic_of, self.generators)
        if group.is_abelian:
            orbits = [[m] for m in canonical]
        elif group.parent is not None:  # orbits under H's recorded generators
            orbits, covered = [], set()
            for m in canonical:
                if m not in covered:
                    orbits.append(_class_orbit(group, group.generators, m,
                                               gens))
                    covered.update(orbits[-1])
        # classes by least member: disjoint sorted lists sort by their heads
        self.classes = sorted(sorted(map(self.member_index.__getitem__, o))
                              for o in orbits)
        self.class_of = [0] * len(canonical)
        for c, cls in enumerate(self.classes):
            for i in cls:
                self.class_of[i] = c
        self.num_classes = len(self.classes)
        self.representatives = [cls[0] for cls in self.classes]
        self.class_orders = [self.subgroups[r].order
                             for r in self.representatives]
        self.class_labels = [self.labels[r] for r in self.representatives]
        self.parent_classes = None if group.parent is None else [
            plat.class_of[down[r]] for r in self.representatives]
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._class_label_index = {lab: c
                                   for c, lab in enumerate(self.class_labels)}

    def _normalizers(self) -> list:
        """N(H) for every H: the top subgroup if G is abelian, else the one
        in up[H] of order |G| / |[H]| whose generators normalize H's."""
        group, subs, gens = self.group, self.subgroups, self.generators
        if group.is_abelian:
            return [len(subs) - 1] * len(subs)
        sizes = [len(self.classes[c]) for c in self.class_of]
        return [next(k for k in self.up[i]
                     if subs[k].order * sizes[i] == group.order and all(
                         group.conj(h, s) in subs[i].members
                         for s in gens[k] for h in gens[i]))
                for i in range(len(subs))]

    normalizers = _OnFirstRead(_normalizers)

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
        return self.class_orders[c]

    def normalizer_order(self, i: int) -> int:
        return self.subgroups[self.normalizers[i]].order


def canonical_label(order: int, i: int) -> str:
    """The label of the i-th subgroup in canonical order, of that order."""
    return f"H{order}_{i}"


def expand(rows, n: int) -> list:
    """The dense n x n matrix whose entry (i, j) sums the v of the pairs
    (j, v) in `rows[i]`: the sparse rows of a lattice or a table of marks
    (which may repeat a column) written out for output only."""
    out = []
    for row in rows:
        dense = [0] * n
        for j, v in row:
            dense[j] += v
        out.append(dense)
    return out


def solve_rows(rows, values, visit) -> list:
    """The x with values[i] = sum of x[j] over j in rows[i]: each x[i], in
    the order `visit`, is values[i] less the x already final in rows[i]
    (x[i] itself is still 0 there).  Along the up-sets of a poset from the
    top down, or along its down-sets from the bottom up, this is Moebius
    inversion."""
    x = [0] * len(values)
    for i in visit:
        x[i] = values[i] - sum(map(x.__getitem__, rows[i]))
    return x


def _up_sets(member_sets, cyclic_of, generators) -> list:
    """Per subgroup, in an order that extends inclusion, the ascending list
    of the subgroups that contain it, given their member sets, `cyclic_of`
    (per element the index of the cyclic subgroup it generates) and a
    generating set of each.

    S <= T exactly when T holds every generator g of S, that is when T
    contains <g>: with U_c the bitmask of the subgroups that contain the
    cyclic subgroup c, the up-set of S is the AND of U_<g> over the
    generators g of S (every subgroup for the trivial one), read out
    lowest bit first.
    """
    masks = [0] * len(member_sets)  # c -> U_c
    for i, members in enumerate(member_sets):
        bit = 1 << i
        for m in members:
            masks[cyclic_of[m]] |= bit
    ids = list(range(len(member_sets)))  # one int object per index
    every = (1 << len(member_sets)) - 1
    up = []
    for gens in generators:
        mask = every
        for g in gens:
            mask &= masks[cyclic_of[g]]
        bits = bin(mask)[:1:-1]  # bit i at position i
        row = []
        i = bits.find("1")
        while i >= 0:
            row.append(ids[i])
            i = bits.find("1", i + 1)
        up.append(row)
    return up


def _transpose(up) -> list:
    """Per element of a poset, the ascending list of the elements below it
    (itself last), given the ascending up-sets `up`."""
    down = [[] for _ in up]
    for i, row in enumerate(up):
        for k in row:
            down[k].append(i)
    return down


def _moebius_rows(up) -> list:
    """The Moebius function of a finite poset as sparse rows: per element h,
    the pairs (k, mu(h, k)) with mu(h, k) != 0, ascending in k.  `up[h]` is
    the ascending up-set of h, starting at h; the index order must extend
    the partial order.

    mu(h, l) = -sum of mu(h, k) over h <= k < l, so each non-zero mu(h, k),
    once final, is pushed forward onto the sums of the l above k.
    """
    rows = []
    for h, up_h in enumerate(up):
        pushed = dict.fromkeys(up_h, 0)
        pushed[h] = -1  # so that mu(h, h) = 1
        row = []
        for k in up_h:
            m = -pushed[k]
            if m:
                row.append((k, m))
                for l in up[k]:
                    pushed[l] += m
        rows.append(row)
    return rows


def _cyclic_subgroups(group: FiniteGroup):
    """Per element its cyclic subgroup (a member set), and {g: powers} with
    one generator g per cyclic subgroup and powers[i] = g^i.

    The powers of g are its key multiples i k mod den in a diagonal group,
    and are walked along its table row otherwise; once <g> of order k is
    known, every g^i with gcd(i, k) = 1 generates the same subgroup and is
    not walked again.
    """
    e = group.identity
    if group.denominator is None:
        table = group.table

        def powers_of(g):
            row, powers, x = table[g], [e], g
            while x != e:
                powers.append(x)
                x = row[x]
            return powers
    else:
        den, index = group.denominator, group.index

        def powers_of(g):
            k = group.keys[g]
            multiples = range(1, den // math.gcd(den, *k))
            return [e, *map(index.__getitem__, zip(
                *([i * y % den for i in multiples] for y in k)))]
    cyclic_of = [None] * group.order
    cyclics = {}
    for g in group.elements():
        if cyclic_of[g] is not None:
            continue
        powers = cyclics[g] = powers_of(g)
        members = frozenset(powers)
        k = len(powers)
        for i, x in enumerate(powers):
            if math.gcd(i, k) == 1:
                cyclic_of[x] = members
    return cyclic_of, cyclics


def _prime_step_joins(group: FiniteGroup, cyclic_of, cyclics) -> tuple:
    """{members: generators} for every subgroup, walked up from the trivial
    subgroup by prime steps, and the classes as `_class_orbit`s (none for
    an abelian group, whose classes are single subgroups).

    A known A is joined with each recorded generator g of prime-power order
    p^k with g not in A and g^p in A.  A g inside an earlier join J from A
    with |J| = p |A| is skipped: J covers A, so by Lagrange <A, g> = J.
    This reaches every subgroup H != 1 from a maximal subgroup A of H: H
    is generated by its prime-power elements, so some p-element lies
    outside A, one g of least order has g^p in A, and H = <A, g>; the
    recorded generator of <g> meets the same condition.  A new join's class
    is recorded at once and only the join is extended: if that was R = A^y
    in A's class, then H^y = <R, g'> for the recorded generator g' of
    <g^y>, and H's class is reached.  In an abelian
    group every step is a cover, and g centralizes A, so `_join` needs g
    alone; otherwise it is given the generators of A and g.  A diagonal
    group's joins read the translation rows of the step generators, built
    from the key columns (`_translation`).
    """
    steps = []  # (g, g^p, p) per recorded generator g of prime-power order
    for g, powers in cyclics.items():
        order = len(powers)
        p = next((d for d in range(2, order + 1) if order % d == 0), 0)
        if p and pow(p, order, order) == 0:  # order is a power of p
            steps.append((g, powers[p % order], p))
    if group.denominator is None:
        rows = group.table
    else:
        cols = list(zip(*group.keys))
        rows = {g: _translation(cols, group.index, group.keys[g],
                                group.denominator) for g, _, _ in steps}
    abelian = group.is_abelian
    trivial = cyclic_of[group.identity]
    gens = {trivial: ()}
    orbits = [] if abelian else [[trivial]]
    conjugators = () if abelian else _irredundant(
        group.table, group.identity, group.generators)
    work = [trivial]
    while work:
        a = work.pop()
        covered = set(a)
        for g, gp, p in steps:
            if g in covered or gp not in a:
                continue
            c = _join(rows, a, (g,) if abelian else gens[a] + (g,))
            if len(c) == p * len(a):
                covered.update(c)
            if c in gens:
                continue
            gens[c] = gens[a] + (g,)
            work.append(c)
            if not abelian:  # c's class, which c alone is to extend
                orbits.append(_class_orbit(group, conjugators, c, gens))
    return gens, orbits


def _irredundant(table, identity, generators) -> tuple:
    """The `generators` outside the join of those kept before them, which
    generate what all of them do: in a group, each join at least doubles,
    so at most log2|G| + 1 are kept."""
    kept, reached = (), (identity,)
    for s in generators:
        if s not in reached:
            kept += (s,)
            reached = _join(table, reached, kept)
    return kept


def _class_orbit(group: FiniteGroup, conjugators, members, gens) -> list:
    """The class of the subgroup R = `members` as the member sets of its
    orbit under the `conjugators`, which generate the group.  `gens` maps
    subgroups to their generators and gains those of each conjugate it
    lacks.  A known conjugate that holds the images of another's generators
    is their join, so only a new one's members are conjugated."""
    conj, orbit = group.conj, [members]
    for m in orbit:  # orbit grows while it is read
        for s in conjugators:
            images = tuple(conj(h, s) for h in gens[m])
            if not any(k.issuperset(images) for k in orbit):
                c = frozenset(conj(y, s) for y in m)
                gens.setdefault(c, images)
                orbit.append(c)
    return orbit


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
    return Fraction(p) % 1


def build_group(presentation: dict) -> FiniteGroup:
    """Build a group from a presentation dict.

    Kinds:
      {"kind": "perm", "degree": m, "generators": [[images]...]}
      {"kind": "diagonal", "phases": [[int, Fraction or (num, den)]...]}
      {"kind": "table", "table": [[...]]}
    """
    if not isinstance(presentation, dict):
        raise GroupBuildError(
            f"presentation must be a dict, got {presentation!r}")
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
    den, vectors = over_common_denominator(
        [tuple(map(_phase, _list(vec, "phase vector")))
         for vec in _list(presentation.get("phases"), "phases")])
    return diagonal_group_from_integers(vectors, den)


def over_common_denominator(phase_vectors) -> tuple:
    """(den, rows): phase vectors of ints or Fractions as integer numerators
    over their least common denominator."""
    den = math.lcm(*(p.denominator for v in phase_vectors for p in v))
    return den, [[p.numerator * (den // p.denominator) for p in v]
                 for v in phase_vectors]


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
    first); the steps, the generator rows and the table wait for the first
    read.
    """
    n = len(generators[0])
    walk = [(0,) * n]
    found = {walk[0]: 0}
    cols = [[0] for _ in range(n)]
    used = []  # (g, the number of elements its cosets added)
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
        used.append((g, len(walk) - size))
    order = sorted(range(len(walk)), key=walk.__getitem__)

    def table():
        steps = [None]
        for k, (_, added) in enumerate(used):
            steps += [(k, w) for w in range(added)]
        rows = [_translation(cols, found, g, denom) for g, _ in used]
        return _canonical_table(order, steps, rows)
    return [walk[w] for w in order], table, 0


def _translation(cols, index, g, denom) -> list:
    """The row of g in the table of a diagonal group: the index of x + g mod
    `denom` for every element x, read from the key columns `cols` with one
    comprehension per coordinate and looked up in `index` (key -> index)."""
    return list(map(index.__getitem__, zip(
        *([(v + y) % denom for v in col] for col, y in zip(cols, g)))))


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
    products, so checking generators is complete: every element is reached
    by `_irredundant` as a product of the kept ones.  Those up to the first
    that fails generate groups, so at most log2(n) + 1 rows of n^2 products
    are checked.
    """
    for g in _irredundant(table, identity, range(len(table))):
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
