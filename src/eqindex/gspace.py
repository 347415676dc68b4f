"""Finite models of G-spaces and their equivariant Euler characteristics.

Two models: `StratifiedGData` records one integer per orbit-type stratum
(chi of its quotient, or an index total); `GSimplicialComplex` is a finite
simplicial complex with a simplicial group action, from which everything is
computed combinatorially.

Fixed-point computations need the action to be *regular* (a simplex fixed
setwise is fixed vertexwise); one barycentric subdivision always repairs an
irregular action.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_, mul
from typing import Optional

from .burnside import BurnsideElement, commuting_class_counts, one
from .errors import (InconsistentDataError, IntegralityError, RegularityError,
                     _int)
from .groups import FiniteGroup, Subgroup, trivial_group


class StratifiedGData:
    """Orbit-type strata with one integer each: chi(V_i/G), or an index.

    `strata` is a sequence of (class_index, integer) pairs; class indices
    refer to ConjSub(G) in the canonical lattice order.
    """

    def __init__(self, group: FiniteGroup, strata):
        self.group = group
        nc = group.lattice().num_classes
        entries = []
        for c, chi in strata:
            c = _int(c, "class index", InconsistentDataError)
            if not 0 <= c < nc:
                raise InconsistentDataError(f"unknown class index {c}")
            entries.append((c, _int(chi, "stratum", InconsistentDataError)))
        self.strata = tuple(entries)


def chi_G_stratified(data: StratifiedGData, reduced: bool = False) -> BurnsideElement:
    """chi^G = sum over strata of chi(V_i/G) [G/H_i]; reduced subtracts [G/G]."""
    lat = data.group.lattice()
    coeffs = [0] * lat.num_classes
    for c, chi in data.strata:
        coeffs[c] += chi
    out = BurnsideElement(data.group, coeffs)
    if reduced:
        out = out - one(data.group)
    return out


class GSimplicialComplex:
    """A finite simplicial complex with a simplicial action of a finite group.

    `generator_images` maps a generator position (int) to a vertex->vertex
    dict; omitted generators and the trivial group act identically.  The
    images extend along the Cayley graph, and `action[g]` maps each vertex
    to its image under the element with index g.  Checks, in order: known
    positions, vertex permutations, relations, known simplex vertices,
    simplex preservation.
    """

    def __init__(self, group: FiniteGroup, vertices, simplices,
                 generator_images: Optional[dict] = None):
        self.group = group
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        images = generator_images or {}
        gens = group.generators
        for pos in images:
            if pos not in range(len(gens)):
                raise InconsistentDataError(f"no generator at position {pos!r}")
        identity_map = {v: v for v in self.vertices}
        # one map per generator position: two positions may name one element
        maps = [identity_map if images.get(pos) is None else images[pos]
                for pos in range(len(gens))]
        if any(m.keys() != vset or set(m.values()) != vset for m in maps):
            raise InconsistentDataError("action maps are not vertex permutations")
        # extend along the Cayley graph: rho(g*e) = rho(g) o rho(e).  The
        # extension is well-defined only if the images respect all relations,
        # so an edge that reaches an element already mapped must agree with it
        action = {group.identity: identity_map}
        walk = [group.identity]
        for e in walk:  # grows while it is read
            pe = action[e]
            for g, pg in zip(gens, maps):
                f = group.mul(g, e)
                pf = action.get(f)
                if pf is None:
                    action[f] = {v: pg[pe[v]] for v in self.vertices}
                    walk.append(f)
                elif any(pf[v] != pg[pe[v]] for v in self.vertices):
                    raise InconsistentDataError(
                        "generator images do not define a group action")
        if len(action) != group.order:
            raise InconsistentDataError("generators do not generate the group")
        self.action = action
        closed = {frozenset([v]) for v in self.vertices}
        for s in simplices:
            fs = frozenset(s)
            if not fs <= vset:
                try:
                    shown = sorted(s)
                except TypeError:  # vertices of mixed types do not compare
                    shown = sorted(s, key=repr)
                raise InconsistentDataError(
                    f"simplex {shown} uses unknown vertices")
            closed.update(frozenset(face) for k in range(1, len(fs) + 1)
                          for face in combinations(fs, k))
        self.simplices = frozenset(closed)
        self._regular = self._fixed_chis = self._orbit_coeffs = None
        if any(frozenset(m[v] for v in s) not in self.simplices
               for m in maps for s in self.simplices):
            raise InconsistentDataError("action does not preserve simplices")

    # -- basic operations ---------------------------------------------------

    def image(self, g: int, simplex: frozenset) -> frozenset:
        m = self.action[g]
        return frozenset(m[v] for v in simplex)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)

    def is_regular(self) -> bool:
        """Whether every simplex fixed setwise is fixed vertexwise; scanned
        once per complex and then stored."""
        if self._regular is None:
            self._regular = all(
                frozenset(m[v] for v in s) != s or all(m[v] == v for v in s)
                for m in (self.action[g] for g in self.group.elements())
                for s in self.simplices)
        return self._regular

    def fixed_euler_characteristics(self) -> tuple:
        """chi(X^H) for one H per conjugacy class, in canonical class order,
        X^H being the simplices H fixes vertexwise.  One pass over the
        simplices sums (-1)^dim by vertexwise stabilizer (the AND of its
        vertices' stabilizer bitmasks over the group's elements); H fixes a
        simplex when H's member mask lies inside that stabilizer.  Computed
        once per complex and then stored."""
        if self._fixed_chis is None:
            elements = self.group.elements()
            stab = {v: sum(1 << g for g in elements if self.action[g][v] == v)
                    for v in self.vertices}
            by_stab = {}
            for s in self.simplices:
                mask = reduce(and_, map(stab.__getitem__, s))
                by_stab[mask] = by_stab.get(mask, 0) + (-1) ** (len(s) - 1)
            lat = self.group.lattice()
            fixed = []
            for r in lat.representatives:
                h = sum(1 << g for g in lat.subgroups[r].members)
                fixed.append(sum(chi for mask, chi in by_stab.items()
                                 if mask & h == h))
            self._fixed_chis = tuple(fixed)
        return self._fixed_chis

    def check_regular(self):
        if not self.is_regular():
            raise RegularityError(
                "a simplex is fixed setwise but not vertexwise; "
                "barycentrically subdivide first")

    def sorted_simplices(self):
        return sorted(self.simplices, key=lambda s: (len(s), tuple(sorted(s))))


def build_complex(group: FiniteGroup, vertices, simplices,
                  generator_images: Optional[dict] = None) -> GSimplicialComplex:
    """Assemble a G-complex from images of the group generators.

    `generator_images` maps a generator position (int) to a vertex->vertex
    dict; omitted generators and the trivial group act identically.
    """
    return GSimplicialComplex(group, vertices, simplices, generator_images)


def chi_G_simplicial(x: GSimplicialComplex) -> BurnsideElement:
    """chi^G(X) = sum over simplex orbits of (-1)^dim [G/Stab].

    The orbit walk runs once per complex and its coefficients are stored;
    regularity is checked on every call.  It does not read the fixed-point
    vector of `fixed_euler_characteristics`, so the two stay independent.
    """
    x.check_regular()
    group = x.group
    if x._orbit_coeffs is None:
        lat = group.lattice()
        coeffs = [0] * lat.num_classes
        done = set()
        for s in x.sorted_simplices():
            if s in done:
                continue
            images = [x.image(g, s) for g in group.elements()]
            done.update(images)
            stab = frozenset(g for g, t in enumerate(images) if t == s)
            coeffs[lat.class_index_of(stab)] += (-1) ** (len(s) - 1)
        x._orbit_coeffs = tuple(coeffs)
    return BurnsideElement(group, x._orbit_coeffs)


def fixed_subcomplex(x: GSimplicialComplex, subgroup) -> GSimplicialComplex:
    """X^H: the subcomplex of simplices fixed vertexwise by all of H.

    Returns a complex with the trivial action.
    """
    x.check_regular()
    members = subgroup.members if isinstance(subgroup, Subgroup) else frozenset(subgroup)
    vs = {v for v in x.vertices if all(x.action[h][v] == v for h in members)}
    simplices = [s for s in x.simplices if s <= vs]
    return GSimplicialComplex(trivial_group(), vs, simplices)


def barycentric_subdivide(x: GSimplicialComplex) -> GSimplicialComplex:
    """First barycentric subdivision with the induced action (always regular).

    New vertices are the simplices of X (as sorted tuples); new simplices are
    the strictly increasing chains.
    """
    old = x.sorted_simplices()
    as_tuple = {s: tuple(sorted(s)) for s in old}
    vertices = [as_tuple[s] for s in old]
    simplices = []
    # chains via DFS over the face relation
    def extend(chain, top):
        simplices.append(frozenset(as_tuple[s] for s in chain))
        for s in old:
            if len(s) > len(top) and top < s:
                extend(chain + [s], s)

    for s in old:
        extend([s], s)
    images = {pos: {as_tuple[s]: tuple(sorted(x.action[g][v] for v in s))
                    for s in old}
              for pos, g in enumerate(x.group.generators)}
    return GSimplicialComplex(x.group, vertices, simplices, images)


def chi_k_direct(x: GSimplicialComplex, k: int) -> int:
    """chi^(k)(X, G) averaged over commuting (k+1)-tuples on fixed
    subcomplexes; k = 1 is the orbifold Euler characteristic.

    Averages chi(X^{<g_0..g_k>}) over all pairwise-commuting tuples; must
    agree with r_k(chi_G_simplicial(X)).  chi(X^H) is counted directly, for
    one representative H per class, by the complex's stored
    `fixed_euler_characteristics` (by regularity, the simplices H fixes
    vertexwise are exactly those it fixes); no fixed subcomplex is built,
    and after the first call no simplex is read.  The tuples per class are
    not enumerated: they are Hall's phi_{k+1} sums of
    `commuting_class_counts`, which `r_k` shares, so only the fixed-simplex
    side is independent of them (the coset oracle in the tests checks both).
    k, the tuple bound, regularity and integrality are checked on every call.
    """
    x.check_regular()
    group = x.group
    counts = commuting_class_counts(group, k)  # checks k and the tuple bound
    total = sum(map(mul, counts, x.fixed_euler_characteristics()))
    if total % group.order:
        raise IntegralityError("averaged fixed-point count is not an integer")
    return total // group.order
