"""Independent oracles used to freeze expected values.

Nothing here shares code with the package paths it checks: the Milnor-number
oracle runs Buchberger on the Jacobian ideal and counts standard monomials,
and the same basis gives traces on Omega_f, reduced exactly modulo a
cyclotomic polynomial;
the Burnside product oracle enumerates orbits on an explicit product G-set;
the marks and restriction oracles count fixed cosets and H-orbits on G/K,
and the inversion oracle back-substitutes over that dense table;
the induction oracle conjugates each K by every element of G; the
parent-class oracle looks each member set up in a parent lattice;
the reduction oracle averages fixed-coset counts over commuting tuples
directly on cosets; the commuting-tuple oracle enumerates every tuple and
closes it, and the lattice oracle joins every pair of subgroups, both
closing by a breadth-first walk of their own; the commuting-total oracle
recurses over centralizers in the Cayley table; the exact-isotropy oracle
assembles chi^G from fixed-point Euler characteristics by Moebius sums, not
through the table of marks; the fixed-locus oracle reads the keys of every
member, where the package reads those of recorded generators; the
orbifold-index oracle counts the elements and pairs of each member set by
fixed-coordinate masks read from the keys, where the package sums Hall's
phi over up-sets; the dense poset oracles
compare member sets pairwise and run the textbook Moebius recursion over
the square zeta matrix, where the lattice stores sparse up-sets and Moebius
rows.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from eqindex.burnside import BurnsideElement


# -- Milnor number via Groebner basis of the Jacobian ideal -------------------

def _key(m):
    return (sum(m), m)


def _lead(poly):
    return max(poly, key=_key)


def _divides(a, b):
    return all(x >= y for x, y in zip(a, b))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _reduce(poly, basis):
    work = dict(poly)
    remainder = {}
    while work:
        lm = _lead(work)
        lc = work[lm]
        for g in basis:
            glm = _lead(g)
            if _divides(lm, glm):
                shift = _mono_sub(lm, glm)
                factor = lc / g[glm]
                for m, c in g.items():
                    mm = _mono_mul(m, shift)
                    work[mm] = work.get(mm, Fraction(0)) - factor * c
                    if work[mm] == 0:
                        del work[mm]
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return remainder


def _spoly(f, g):
    lf, lg = _lead(f), _lead(g)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    out = {}
    for m, c in f.items():
        mm = _mono_mul(m, _mono_sub(lcm, lf))
        out[mm] = out.get(mm, Fraction(0)) + c / f[lf]
    for m, c in g.items():
        mm = _mono_mul(m, _mono_sub(lcm, lg))
        out[mm] = out.get(mm, Fraction(0)) - c / g[lg]
    return {m: c for m, c in out.items() if c != 0}


def _buchberger(gens):
    basis = [dict(g) for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        lf, lg = _lead(basis[i]), _lead(basis[j])
        lcm = tuple(max(a, b) for a, b in zip(lf, lg))
        if lcm == _mono_mul(lf, lg):  # coprime leading terms
            continue
        r = _reduce(_spoly(basis[i], basis[j]), basis)
        if r:
            basis.append(r)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    return basis


def milnor_number_jacobian(E) -> int:
    """dim of C[[z]]/(Jacobian ideal of sum of monomials given by E)."""
    return len(jacobian_basis(E))


def jacobian_basis(E) -> list:
    """The standard monomials (exponent tuples) of the Jacobian ideal of
    the sum of monomials given by E: a basis of its Jacobian algebra, so
    the x^e dx span Omega_f."""
    E = [tuple(row) for row in E]
    n = len(E)
    if n == 0:
        return [()]
    partials = []
    for var in range(n):
        p = {}
        for row in E:
            if row[var] == 0:
                continue
            m = tuple(e - (1 if j == var else 0) for j, e in enumerate(row))
            p[m] = p.get(m, Fraction(0)) + row[var]
        partials.append({m: c for m, c in p.items() if c != 0})
    basis = _buchberger(partials)
    leads = [_lead(g) for g in basis]
    bounds = []
    for var in range(n):
        pure = [lm[var] for lm in leads
                if all(lm[j] == 0 for j in range(n) if j != var)]
        if not pure:
            raise ValueError("Jacobian ideal is not zero-dimensional")
        bounds.append(min(pure))
    return [mono for mono in product(*(range(b) for b in bounds))
            if not any(_divides(mono, lm) for lm in leads)]


# -- exact traces over cyclotomic fields -------------------------------------

@lru_cache(maxsize=None)
def _cyclotomic(order) -> tuple:
    """The coefficients of Phi_order(x), lowest first: x^order - 1 divided
    by Phi_d for every proper divisor d of order."""
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly = _divide_exactly(poly, _cyclotomic(d))
    return tuple(poly)


def _divide_exactly(poly, monic) -> list:
    """poly / monic for coefficient lists, lowest first, when monic (with
    leading coefficient 1) divides poly."""
    quotient = [0] * (len(poly) - len(monic) + 1)
    rest = list(poly)
    for i in reversed(range(len(quotient))):
        c = quotient[i] = rest[i + len(monic) - 1]
        for j, m in enumerate(monic):
            rest[i + j] -= c * m
    assert not any(rest), "inexact cyclotomic division"
    return quotient


def cyclotomic_trace(counts) -> int:
    """sum over a of counts[a] zeta^a for a primitive len(counts)-th root of
    unity zeta, exactly: the remainder of sum counts[a] x^a mod
    Phi_len(counts)(x), which must be a constant, since Phi is the minimal
    polynomial of zeta.  A remainder that is not constant is a ValueError:
    the sum is not rational."""
    phi = _cyclotomic(len(counts))
    rest = list(counts)
    for i in reversed(range(len(phi) - 1, len(rest))):
        c = rest[i]
        for j, m in enumerate(phi):
            rest[i - len(phi) + 1 + j] -= c * m
    if any(rest[1:len(phi) - 1]):
        raise ValueError(f"trace {counts} is not rational")
    return rest[0]


# -- Burnside ring product via orbit enumeration on G-set products ------------

def _coset_reps(group, members):
    rep_of = {}
    for g in range(group.order):
        if g in rep_of:
            continue
        coset = [group.table[g][m] for m in members]
        r = min(coset)
        for x in coset:
            rep_of[x] = r
    return rep_of


def burnside_product_oracle(group, class_a, class_b) -> BurnsideElement:
    """[G/A] * [G/B] as orbits of the diagonal action on (G/A) x (G/B)."""
    lat = group.lattice()
    amem = sorted(lat.subgroups[lat.representatives[class_a]].members)
    bmem = sorted(lat.subgroups[lat.representatives[class_b]].members)
    rep_a = _coset_reps(group, amem)
    rep_b = _coset_reps(group, bmem)
    points = sorted({(rep_a[g], rep_b[h])
                     for g in range(group.order) for h in range(group.order)})
    coeffs = [0] * lat.num_classes
    seen = set()
    for pt in points:
        if pt in seen:
            continue
        orbit = set()
        stab = []
        for g in range(group.order):
            img = (rep_a[group.table[g][pt[0]]], rep_b[group.table[g][pt[1]]])
            orbit.add(img)
            if img == pt:
                stab.append(g)
        seen |= orbit
        coeffs[lat.class_index_of(frozenset(stab))] += 1
    return BurnsideElement(group, coeffs)


def marks_coset_oracle(group) -> list:
    """The table of marks, m[k][h] = |(G/K)^H|, by counting the cosets gK
    with h gK = gK for every h in H, over class representatives K and H."""
    lat = group.lattice()
    reps = [sorted(lat.subgroups[r].members) for r in lat.representatives]
    matrix = []
    for kmembers in reps:
        rep_of = _coset_reps(group, kmembers)
        cosets = sorted(set(rep_of.values()))
        matrix.append([sum(1 for r in cosets
                           if all(rep_of[group.table[h][r]] == r
                                  for h in hmembers))
                       for hmembers in reps])
    return matrix


def marks_inversion_oracle(matrix, marks):
    """The coefficients a with sum over k of a_k matrix[k][h] = marks[h],
    by back substitution over a dense lower-triangular table of marks from
    the top class down, or None when one of them is not an integer."""
    rest = list(marks)
    out = [0] * len(rest)
    for k in reversed(range(len(rest))):
        a, r = divmod(rest[k], matrix[k][k])
        if r:
            return None
        out[k] = a
        for h, m in enumerate(matrix[k]):
            rest[h] -= a * m
    return out


def restrict_coset_oracle(b, sub) -> BurnsideElement:
    """b restricted to the subgroup `sub`, by splitting each G/K into
    H-orbits and classifying each orbit's stabilizer in H."""
    group = b.group
    lat = group.lattice()
    child = sub.as_group()
    child_lat = child.lattice()
    child_of = {p: c for c, p in enumerate(child.parent_index)}
    hmembers = sorted(sub.members)
    coeffs = [0] * child_lat.num_classes
    for k, a in enumerate(b.coeffs):
        if a == 0:
            continue
        rep_of = _coset_reps(
            group, sorted(lat.subgroups[lat.representatives[k]].members))
        seen = set()
        for r in sorted(set(rep_of.values())):
            if r in seen:
                continue
            seen |= {rep_of[group.table[h][r]] for h in hmembers}
            stab = frozenset(child_of[h] for h in hmembers
                             if rep_of[group.table[h][r]] == r)
            coeffs[child_lat.class_index_of(stab)] += a
    return BurnsideElement(child, coeffs)


def induce_conjugacy_oracle(b, group) -> BurnsideElement:
    """b induced from its group, a subgroup group of `group`: [H/K] -> [G/K],
    the class of K in G found by conjugating K by every element of G and
    matching a class representative's member set."""
    child = b.group
    child_lat = child.lattice()
    lat = group.lattice()
    t = group.table
    inverse = [row.index(group.identity) for row in t]
    coeffs = [0] * lat.num_classes
    for c, a in enumerate(b.coeffs):
        if a == 0:
            continue
        members = [child.parent_index[i] for i in
                   child_lat.subgroups[child_lat.representatives[c]].members]
        conjugates = {frozenset(t[t[inverse[g]][m]][g] for m in members)
                      for g in range(group.order)}
        (k,) = [k for k, r in enumerate(lat.representatives)
                if lat.subgroups[r].members in conjugates]
        coeffs[k] += a
    return BurnsideElement(group, coeffs)


def parent_classes_oracle(parent_index, parent_lattice, members) -> list:
    """The class in `parent_lattice` of each member set in `members` (ids of
    a subgroup group whose element i is element parent_index[i] of the
    parent), by mapping each set through `parent_index` and looking it up."""
    return [parent_lattice.class_index_of(frozenset(parent_index[i]
                                                    for i in ms))
            for ms in members]


def r_k_coset_oracle(group, members, k) -> int:
    """chi^(k) of the G-set G/K by direct commuting-tuple enumeration."""
    rep_of = _coset_reps(group, sorted(members))
    reps = sorted(set(rep_of.values()))
    total = 0
    for tup in product(range(group.order), repeat=k + 1):
        ok = all(group.table[a][b] == group.table[b][a]
                 for i, a in enumerate(tup) for b in tup[i + 1:])
        if not ok:
            continue
        total += sum(1 for r in reps
                     if all(rep_of[group.table[g][r]] == r for g in tup))
    assert total % group.order == 0
    return total // group.order


def commuting_counts_oracle(group, k) -> list:
    """Pairwise-commuting (k+1)-tuples per conjugacy class of the subgroup
    they generate, by enumerating all |G|^(k+1) tuples and closing each."""
    table = group.table
    lat = group.lattice()
    classes = {}  # generating set -> class of the subgroup it generates
    counts = [0] * lat.num_classes
    for tup in product(range(group.order), repeat=k + 1):
        if all(table[a][b] == table[b][a]
               for i, a in enumerate(tup) for b in tup[i + 1:]):
            gens = frozenset(tup)
            if gens not in classes:
                classes[gens] = lat.class_index_of(
                    closure_oracle(table, group.identity, gens))
            counts[classes[gens]] += 1
    return counts


def commuting_tuples_oracle(table, elements, m) -> int:
    """|Hom(Z^m, S)| for the subgroup S on `elements`: the m-tuples of
    pairwise commuting elements, by the recursion over centralizers
    |Hom(Z^m, S)| = sum over g in S of |Hom(Z^(m-1), C_S(g))|."""
    if m == 0:
        return 1
    return sum(commuting_tuples_oracle(
        table, [h for h in elements if table[g][h] == table[h][g]], m - 1)
        for g in elements)


# -- subgroup lattice by all-pairs joins ----------------------------------------

def closure_oracle(table, identity, seed) -> frozenset:
    """The elements reached from the identity by right multiplication with
    the elements of `seed`, one breadth-first layer at a time: in a group,
    the subgroup they generate."""
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
    return frozenset(members)


def subgroup_lattice_oracle(group):
    """(member sets, labels, mu_sub, class_of) of Sub G by the all-pairs join.

    Starts from the cyclic subgroups <g> of every element and joins every
    pair of known subgroups (the product set when G is abelian,
    `closure_oracle` otherwise) until nothing new appears.  Uses only
    `group.table`.
    """
    table = group.table
    n = len(table)
    abelian = all(table[i][j] == table[j][i]
                  for i in range(n) for j in range(i + 1, n))
    identity = next(e for e in range(n) if all(table[e][x] == x for x in range(n)))
    subs = {closure_oracle(table, identity, [g]) for g in range(n)}
    work = list(subs)
    while work:
        a = work.pop()
        for b in list(subs):
            if a <= b or b <= a:
                continue
            if abelian:
                j = frozenset(table[x][y] for x in a for y in b)
            else:
                j = closure_oracle(table, identity, a | b)
            if j not in subs:
                subs.add(j)
                work.append(j)
    members = sorted(subs, key=lambda m: (len(m), tuple(sorted(m))))
    index = {m: i for i, m in enumerate(members)}
    ns = len(members)
    leq = [[s <= t for t in members] for s in members]
    mu = [[0] * ns for _ in range(ns)]
    for h in range(ns):
        mu[h][h] = 1
        for l in range(h + 1, ns):
            if leq[h][l]:
                mu[h][l] = -sum(mu[h][k] for k in range(h, l)
                                if leq[h][k] and leq[k][l])
    inverse = [table[i].index(identity) for i in range(n)]
    class_of = [-1] * ns
    classes = 0
    for i, m in enumerate(members):
        if class_of[i] >= 0:
            continue
        for g in range(n):
            img = frozenset(table[table[inverse[g]][x]][g] for x in m)
            class_of[index[img]] = classes
        classes += 1
    labels = [f"H{len(m)}_{i}" for i, m in enumerate(members)]
    return members, labels, mu, class_of


# -- fixed loci of diagonal groups ----------------------------------------------

def fixed_locus(group, members) -> frozenset:
    """The coordinates on which every listed element of a diagonal group acts
    trivially: those at which each member's key (its phase numerators over
    the group's denominator) is 0."""
    return frozenset(j for j in range(len(group.keys[0]))
                     if all(group.keys[m][j] == 0 for m in members))


def orbifold_indices_oracle(f, group, member_sets, fixed_chi) -> tuple:
    """r_0 of the index of df over a diagonal group G, and r_1 over each
    member set H, by Burnside's lemma over elements and pairs: with c_a the
    members whose keys vanish exactly on the coordinate mask a,
        r_0 = 1 - (sum over a of c_a chi(a)) / |G|,
        r_1 = |H| - (sum over a, b of c_a c_b chi(a & b)) / |H|,
    where chi(L) = fixed_chi(f, L) is chi of the Milnor fibre on locus L."""
    masks = [sum(1 << j for j, x in enumerate(key) if x == 0)
             for key in group.keys]

    def counts(members):
        c = {}
        for m in members:
            c[masks[m]] = c.get(masks[m], 0) + 1
        return c.items()

    total = sum(c * fixed_chi(f, a) for a, c in counts(group.elements()))
    assert total % group.order == 0
    r0, values = 1 - total // group.order, []
    for members in member_sets:
        pairs = counts(members)
        total = sum(ca * cb * fixed_chi(f, a & b)
                    for a, ca in pairs for b, cb in pairs)
        assert total % len(members) == 0
        values.append(len(members) - total // len(members))
    return r0, values


# -- chi^G from fixed-point Euler characteristics -------------------------------

def chi_G_exact_isotropy_oracle(group, chi_fixed) -> BurnsideElement:
    """chi^G(X) of an abelian G-space X from chi(X^K) for every subgroup K
    (`chi_fixed[k]` for the k-th subgroup of the lattice).

    chi(X^{(K)}) = sum over L >= K of mu(K, L) chi(X^L) counts the points of
    isotropy exactly K, on which G/K acts freely, so [G/K] has coefficient
    |K| chi(X^{(K)}) / |G|.  mu is recomputed here from the inclusions of
    the member sets.
    """
    lat = group.lattice()
    members = [s.members for s in lat.subgroups]
    coeffs = [0] * lat.num_classes
    for k, mk in enumerate(members):
        mu = {}
        for l, ml in enumerate(members):  # the order extends inclusion
            if mk <= ml:
                mu[l] = 1 if l == k else \
                    -sum(v for m, v in mu.items() if members[m] <= ml)
        exact = sum(v * chi_fixed[l] for l, v in mu.items())
        num = len(mk) * exact
        assert num % group.order == 0
        coeffs[lat.class_of[k]] += num // group.order
    return BurnsideElement(group, coeffs)


# -- fixed-set data by Moebius inversion over Sub(G) ----------------------------

def fixed_data_sub_moebius_oracle(group, values) -> list:
    """The coefficients, as Fractions, of the element of B(G) whose fixed-set
    datum on the k-th subgroup is `values[k]`:

        a_[H] = (|H|/|N_G(H)|) sum over K >= H of mu'(H, K) values[K]

    at each class representative H.  Inclusion and mu' are recomputed
    densely from the member sets (`leq_oracle`, `moebius_oracle`); besides
    them it reads only the subgroup and normalizer orders, never the table
    of marks or the lattice's Moebius rows; a non-integral entry means no
    such element exists.
    """
    lat = group.lattice()
    leq = leq_oracle(lat)
    mu = moebius_oracle(leq)
    coeffs = []
    for h in lat.representatives:
        leq_h, mu_h = leq[h], mu[h]
        total = sum(mu_h[k] * v for k, v in enumerate(values) if leq_h[k])
        coeffs.append(Fraction(lat.subgroups[h].order * total,
                               lat.normalizer_order(h)))
    return coeffs


# -- dense posets -----------------------------------------------------------------

def leq_oracle(lat) -> list:
    """leq[i][j] = 1 when subgroup i lies in subgroup j, from the member sets."""
    members = [s.members for s in lat.subgroups]
    return [[1 if s <= t else 0 for t in members] for s in members]


def zeta_conj_oracle(lat, leq) -> list:
    """zeta[a][b] = 1 when the representative of class a lies in some member
    of class b, read from the dense `leq`."""
    return [[1 if any(leq[r][j] for j in cls) else 0 for cls in lat.classes]
            for r in lat.representatives]


def moebius_oracle(zeta) -> list:
    """The Moebius function of a finite poset from its dense zeta matrix,
    whose index order must extend the partial order: mu(h, h) = 1 and
    mu(h, l) = -sum of mu(h, k) over h <= k < l."""
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


class DenseLattice(NamedTuple):
    leq: list
    mu_sub: list
    zeta_conj: list
    mu_conj: list


def _dense(n, rows) -> list:
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in row:
            out[i][j] = v
    return out


def expanded_lattice(lat) -> DenseLattice:
    """The lattice's sparse rows (`up`, `mu`, `class_up`, `class_mu`)
    written out as dense matrices by a loop of its own, so that tests can
    state identities entry by entry."""
    ns, nc = len(lat.subgroups), lat.num_classes
    return DenseLattice(
        _dense(ns, [[(j, 1) for j in up] for up in lat.up]),
        _dense(ns, lat.mu),
        _dense(nc, [[(j, 1) for j in up] for up in lat.class_up]),
        _dense(nc, lat.class_mu))
