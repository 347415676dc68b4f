"""Equivariant radial and GSV index assembly.

Index data enters as integers attached to strata, fixed sets, or singular
orbits; the operations here are the Burnside-ring bookkeeping that turns
such data into an equivariant index and back (quotient-strata indices just
sum, by `gspace.chi_G_stratified`).
Fixed-set data are the marks of the index, so they invert through the table
of marks; class-poset data, when given, are inverted by `groups.solve_rows`
along the up-sets of ConjSub(G) as a cross-check and must agree.  Any
non-integral coefficient is a hard error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .burnside import (BurnsideElement, element_from_marks, induce,
                       marks_vector, zero)
from .errors import (InconsistentDataError, IntegralityError,
                     NotASubgroupError, _int)
from .groups import FiniteGroup, Subgroup, solve_rows

if TYPE_CHECKING:
    from .gspace import StratifiedGData


class FixedSetIndexData:
    """Radial indices on the fixed sets of subgroups.

    `per_subgroup[i]` is ind(X; V^H, 0) for the i-th subgroup in canonical
    order (must be constant on conjugacy classes); `per_class[c]`, when
    given, is ind(X; V^{[H]}, 0) for the c-th conjugacy class.
    """

    def __init__(self, group: FiniteGroup, per_subgroup: dict,
                 per_class: Optional[dict] = None):
        self.group = group
        lat = group.lattice()
        ns = len(lat.subgroups)
        if set(per_subgroup.keys()) != set(range(ns)):
            raise InconsistentDataError(
                "per_subgroup must cover every subgroup exactly once")
        self.per_subgroup = {i: _int(v, "per_subgroup", InconsistentDataError)
                             for i, v in per_subgroup.items()}
        for cls in lat.classes:
            vals = {self.per_subgroup[i] for i in cls}
            if len(vals) > 1:
                raise InconsistentDataError(
                    "fixed-set indices are not constant on conjugacy classes")
        if per_class is not None:
            if set(per_class.keys()) != set(range(lat.num_classes)):
                raise InconsistentDataError(
                    "per_class must cover every conjugacy class exactly once")
            self.per_class = {c: _int(v, "per_class", InconsistentDataError)
                              for c, v in per_class.items()}
        else:
            self.per_class = None


class SingularOrbitDatum(NamedTuple):
    """A singular orbit: its isotropy subgroup and the local index there."""
    isotropy: Subgroup
    local_index: BurnsideElement  # over isotropy.as_group()


class PoincareHopfReport(NamedTuple):
    passed: bool
    discrepancy: BurnsideElement


def index_from_strata(data: StratifiedGData) -> BurnsideElement:
    """ind^G = sum over strata of (|G_i|/|G|) ind(X; V_i, 0) [G/G_i].

    Each stratum's singular points split into orbits isomorphic to [G/G_i],
    so each product must be an integer.
    """
    group = data.group
    lat = group.lattice()
    n = group.order
    coeffs = [0] * lat.num_classes
    for c, ind in data.strata:
        h = lat.class_order(c)
        num = h * ind
        if num % n:
            raise IntegralityError(
                f"stratum index {ind} is not a multiple of the orbit size {n // h}")
        coeffs[c] += num // n
    return BurnsideElement(group, coeffs)


def fixed_indices_from_index(b: BurnsideElement) -> FixedSetIndexData:
    """Forward evaluation: indices on V^H (per subgroup) and V^{[H]} (per class).

    per_subgroup[H] = sum over subgroups K >= H of a_[K] |N_G(K)|/|K|,
    which is the mark of b at [H];
    per_class[[H]]  = sum over classes [K] >= [H] of a_[K] |G|/|K|,
    read along the up-set of [H] in ConjSub(G).  Both are integral and
    class-constant by construction, so the record is not re-checked.
    """
    group = b.group
    lat = group.lattice()
    marks = marks_vector(b)
    n = group.order
    weighted = [a * (n // q) for a, q in zip(b.coeffs, lat.class_orders)]
    data = FixedSetIndexData.__new__(FixedSetIndexData)
    data.group = group
    data.per_subgroup = {h: marks[c] for h, c in enumerate(lat.class_of)}
    data.per_class = {c: sum(map(weighted.__getitem__, up))
                      for c, up in enumerate(lat.class_up)}
    return data


def index_from_fixed_indices(data: FixedSetIndexData) -> BurnsideElement:
    """Invert fixed-set index data back to an element of B(G).

    ind(V^H) is the mark of the index at [H], so the values at the class
    representatives are inverted through the table of marks.  When per-class
    data is present it is inverted independently over ConjSub(G): with
    w_[K] = a_[K] |G|/|K|, ind(V^{[H]}) = w_[H] + sum over [K] > [H] of
    w_[K], one `solve_rows` along the class up-sets from the top class
    down, and a_[H] = (|H|/|G|) w_[H].  The two results must coincide; either
    inversion must be integral.
    """
    group = data.group
    lat = group.lattice()
    try:
        result = element_from_marks(
            group, [data.per_subgroup[r] for r in lat.representatives])
    except IntegralityError:
        raise IntegralityError(
            "subgroup-poset inversion produced a non-integer coefficient") from None
    if data.per_class is not None:
        w = solve_rows(lat.class_up, data.per_class,
                       reversed(range(lat.num_classes)))
        coeffs_conj = []
        for q, total in zip(lat.class_orders, w):
            a, r = divmod(q * total, group.order)
            if r:
                raise IntegralityError(
                    "class-poset inversion produced a non-integer coefficient")
            coeffs_conj.append(a)
        if tuple(coeffs_conj) != result.coeffs:
            raise InconsistentDataError(
                "the two Moebius inversions disagree; input data is inconsistent")
    return result


def induce_orbit_index(datum: SingularOrbitDatum, group: FiniteGroup) -> BurnsideElement:
    """The index contributed by one singular orbit: I^G_{G_p}(local index)."""
    sub = datum.isotropy
    if not sub.parent.same_group(group):
        raise NotASubgroupError("orbit isotropy is not a subgroup of the group")
    local = datum.local_index
    if not local.group.same_group(sub.as_group()):
        raise InconsistentDataError("local index is not over the isotropy subgroup")
    return induce(local, group)


def poincare_hopf_check(chi_g: BurnsideElement, orbits) -> PoincareHopfReport:
    """Compare the sum of induced orbit indices against chi^G(V)."""
    total = zero(chi_g.group)
    for datum in orbits:
        total = total + induce_orbit_index(datum, chi_g.group)
    disc = total - chi_g
    return PoincareHopfReport(passed=disc.is_zero(), discrepancy=disc)


def gsv_from_radial(ind_rad: BurnsideElement,
                    chibar_milnor: BurnsideElement) -> BurnsideElement:
    """ind_GSV^G = ind_rad^G + reduced chi^G of the Milnor fibre."""
    return ind_rad + chibar_milnor


def gsv_assemble_from_dims(group: FiniteGroup, dims: dict, fixed_dims: dict,
                           k: int) -> BurnsideElement:
    """Assemble an equivariant GSV index from module dimensions.

    `fixed_dims[i]` is the dimension n_K of the fixed subspace of the i-th
    subgroup; `dims[i]` is dim Omega_{V^K, omega}, required whenever
    n_K > k.  The index on V^K is (-1)^(n_K - k) dims[K] when n_K > k and 0
    otherwise; these fixed-set values must be constant on conjugacy classes
    and are inverted by `index_from_fixed_indices`.
    """
    if _int(k, "k", ValueError) < 0:
        raise ValueError("k must be >= 0")
    lat = group.lattice()
    ns = len(lat.subgroups)
    if set(fixed_dims.keys()) != set(range(ns)):
        raise InconsistentDataError("fixed-space dimension missing for some subgroup")
    for i in range(ns):
        if _int(fixed_dims[i], "fixed_dims value", InconsistentDataError) > k \
                and i not in dims:
            raise InconsistentDataError(
                f"missing dimension entry for subgroup {lat.labels[i]}")
    values = {kk: 0 if fixed_dims[kk] <= k
              else (-1) ** (fixed_dims[kk] - k)
              * _int(dims[kk], "dims value", InconsistentDataError)
              for kk in range(ns)}
    try:
        return index_from_fixed_indices(FixedSetIndexData(group, values))
    except IntegralityError:
        raise IntegralityError(
            "GSV assembly produced a non-integer coefficient") from None
