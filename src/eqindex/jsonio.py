"""JSON schemas for the external interfaces.

Rationals cross the wire as {"num": int, "den": int} with den > 0 and the
fraction reduced.  Subgroups and conjugacy classes are referenced by their
canonical labels "H<order>_<index-in-canonical-list>".  Serialization is
canonical: fixed key order, zero coefficients omitted.

Only `errors` and `groups` are imported here; a function that builds
another layer's object imports that layer itself, so the CLI loads a layer
only when a subcommand needs it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InputError, NotASubgroupError, _int
from .groups import FiniteGroup, Subgroup, build_group, expand

if TYPE_CHECKING:
    from .burnside import BurnsideElement, ClassFunction
    from .gspace import GSimplicialComplex, StratifiedGData
    from .indices import FixedSetIndexData
    from .invertible import DualityReport, InvertiblePolynomial


def rational_to_json(q) -> dict:
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


def _int_rows(obj, what) -> list:
    """A list of integer lists: an exponent matrix, a table, generators."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InputError(f"{what} must be a list of integer lists")
    return [[_int(x, what) for x in row] for row in obj]


def rational_from_json(obj) -> Fraction:
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        num, den = obj
    elif isinstance(obj, dict) and "num" in obj and "den" in obj:
        num, den = obj["num"], obj["den"]
    else:
        raise InputError(f"not a rational: {obj!r}")
    den = _int(den, "denominator")
    if den == 0:
        raise InputError(f"rational with zero denominator: {obj!r}")
    return Fraction(_int(num, "numerator"), den)


def group_from_json(obj) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise InputError("group presentation must be an object")
    kind = obj.get("kind")
    if kind == "diagonal":
        vectors = obj.get("phases", [])
        if not isinstance(vectors, list) or \
                not all(isinstance(v, list) for v in vectors):
            raise InputError("phases must be a list of phase vectors")
        phases = [[rational_from_json(p) for p in vec] for vec in vectors]
        return build_group({"kind": "diagonal", "phases": phases})
    if kind == "perm":
        return build_group({
            "kind": "perm", "degree": _int(obj.get("degree"), "degree"),
            "generators": _int_rows(obj.get("generators"), "generators")})
    if kind == "table":
        return build_group({"kind": "table",
                            "table": _int_rows(obj.get("table"), "table")})
    raise InputError(f"unknown group presentation kind: {kind!r}")


def group_to_json(group: FiniteGroup) -> dict:
    return dict(group.presentation)


def element_to_json(b: BurnsideElement) -> dict:
    lat = b.group.lattice()
    coeffs = [{"class": lat.class_labels[c], "a": a}
              for c, a in enumerate(b.coeffs) if a != 0]
    return {"group": b.group.fingerprint, "coeffs": coeffs}


def element_from_json(group: FiniteGroup, obj) -> BurnsideElement:
    from .burnside import BurnsideElement
    lat = group.lattice()
    out = [0] * lat.num_classes
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputError("Burnside element must be {'coeffs': [...]}")
    for c, a in _class_entries(group, obj["coeffs"], "a"):
        out[c] += a
    return BurnsideElement(group, out)


def subgroup_from_json(group: FiniteGroup, label) -> Subgroup:
    if not isinstance(label, str):
        raise InputError("subgroup must be referenced by its canonical label")
    lat = group.lattice()  # its own errors pass through
    try:
        return lat.subgroup_by_label(label)
    except NotASubgroupError:
        raise InputError(f"unknown subgroup label {label!r}") from None


def lattice_to_json(group: FiniteGroup) -> dict:
    lat = group.lattice()
    subgroups = []
    for i, s in enumerate(lat.subgroups):
        subgroups.append({
            "label": lat.labels[i],
            "order": s.order,
            "members": [group.element_repr(m) for m in sorted(s.members)],
            "normalizer": lat.labels[lat.normalizers[i]],
            "class": lat.class_labels[lat.class_of[i]],
        })
    classes = [{"label": lat.class_labels[c],
                "size": len(lat.classes[c]),
                "order": lat.class_order(c)}
               for c in range(lat.num_classes)]
    return {
        "group": group.fingerprint,
        "subgroups": subgroups,
        "classes": classes,
        "mu_sub": expand(lat.mu, len(lat.subgroups)),
        "mu_conj": expand(lat.class_mu, lat.num_classes),
        "zeta_conj": expand([[(k, 1) for k in up] for up in lat.class_up],
                            lat.num_classes),
    }


def class_function_to_json(cf: ClassFunction) -> dict:
    group = cf.group
    classes = group.element_conjugacy_classes()
    return {"group": group.fingerprint,
            "values": [{"rep": group.element_repr(cls[0]),
                        "size": len(cls),
                        "value": v}
                       for cls, v in zip(classes, cf.values)]}


def _class_entries(group: FiniteGroup, obj, key) -> list:
    """[(class index, integer)] from [{"class": label, key: integer}, ...]."""
    if not isinstance(obj, list):
        raise InputError(f"expected a list of {{'class', {key!r}}} entries")
    lat = group.lattice()
    entries = []
    for item in obj:
        try:
            entries.append((lat.class_index_by_label(item["class"]),
                            _int(item[key], key)))
        except Exception as exc:
            raise InputError(f"bad entry {item!r}: {exc}") from None
    return entries


def strata_from_json(group: FiniteGroup, obj, key) -> StratifiedGData:
    """Strata from [{"class": label, key: integer}, ...]: key "chi" for
    quotient Euler characteristics, "ind" for stratum indices."""
    from .gspace import StratifiedGData
    return StratifiedGData(group, _class_entries(group, obj, key))


def complex_from_json(group: FiniteGroup, obj) -> GSimplicialComplex:
    from .gspace import build_complex
    try:
        vertices, simplices = obj["vertices"], obj["simplices"]
        if not (isinstance(vertices, list) and isinstance(simplices, list)
                and all(isinstance(s, list) for s in simplices)):
            raise TypeError(
                "vertices, simplices and each simplex must be lists")
        simplices = [frozenset(s) for s in simplices]
        sorted(set(vertices))  # build_complex needs them hashable and ordered
    except Exception as exc:
        raise InputError(f"bad complex payload: {exc}") from None
    seen = set()
    for v in vertices:  # equal values are one vertex: true, 1 and 1.0 too
        if v in seen:
            raise InputError(f"vertex {v!r} repeats an earlier vertex")
        seen.add(v)
    action = obj.get("action")
    action = {} if action is None else action  # absent or null: the identity
    if not isinstance(action, dict):
        raise InputError("complex action must map generator labels to images")
    images = {}
    for label, imgs in action.items():
        digits = label[1:]
        if not (label.startswith("g") and digits.isascii() and digits.isdigit()):
            raise InputError(f"unknown generator label {label!r}")
        # int() refuses thousands of digits; ten already put it out of range
        pos = int(digits.lstrip("0")[:10] or 0)
        if pos >= len(group.generators):
            raise InputError(f"generator label {label!r} out of range")
        if pos in images:
            raise InputError(f"generator label {label!r} repeats g{pos}")
        if not isinstance(imgs, list) or len(imgs) != len(vertices):
            raise InputError(f"action for {label!r} has wrong length")
        if any(v not in vertices for v in imgs):
            raise InputError(f"action for {label!r} leaves the vertex set")
        images[pos] = dict(zip(vertices, imgs))
    return build_complex(group, vertices, simplices, images)


def fixed_indices_from_json(group: FiniteGroup, obj) -> FixedSetIndexData:
    from .indices import FixedSetIndexData
    lat = group.lattice()
    if not isinstance(obj, dict) or not isinstance(obj.get("per_subgroup"), dict):
        raise InputError("fixed-set index data must contain 'per_subgroup'")
    per_subgroup = {}
    for label, v in obj["per_subgroup"].items():
        sub = subgroup_from_json(group, label)
        per_subgroup[lat.subgroup_index(sub.members)] = _int(v, label)
    per_class = None
    if obj.get("per_class") is not None:
        if not isinstance(obj["per_class"], dict):
            raise InputError("'per_class' must map class labels to integers")
        per_class = {}
        for label, v in obj["per_class"].items():
            try:
                c = lat.class_index_by_label(label)
            except Exception:
                raise InputError(f"unknown class label {label!r}") from None
            per_class[c] = _int(v, label)
    return FixedSetIndexData(group, per_subgroup, per_class)


def orbit_data_from_json(group: FiniteGroup, obj) -> list:
    from .indices import SingularOrbitDatum
    if not isinstance(obj, list) or not all(isinstance(i, dict) for i in obj):
        raise InputError("orbits must be a list of objects")
    out = []
    for item in obj:
        sub = subgroup_from_json(group, item.get("isotropy"))
        local = element_from_json(sub.as_group(), item.get("local"))
        out.append(SingularOrbitDatum(isotropy=sub, local_index=local))
    return out


def polynomial_from_json(obj) -> InvertiblePolynomial:
    from .invertible import validate
    if not isinstance(obj, dict) or "E" not in obj:
        raise InputError("polynomial input must be {'E': [[...]]}")
    return validate(_int_rows(obj["E"], "E"))


def polynomial_to_json(f: InvertiblePolynomial) -> dict:
    return {
        "E": [list(row) for row in f.E],
        "det": f.det,
        "blocks": [{"kind": a.kind,
                    "variables": list(a.variables),
                    "exponents": list(a.exponents)} for a in f.atoms],
        "weights": [rational_to_json(q) for q in f.weights],
    }


def duality_report_to_json(report: DualityReport) -> dict:
    return {
        "E": [list(r) for r in report.E],
        "dual_E": [list(r) for r in report.dual_E],
        "orbit_index": {"f": report.orbit_index,
                        "dual": report.dual_orbit_index,
                        "equal": report.orbit_match},
        "pairs": [{"subgroup": p.subgroup_label,
                   "subgroup_order": p.subgroup_order,
                   "dual_subgroup": p.dual_label,
                   "dual_order": p.dual_order,
                   "orbifold_index": p.orbifold_index,
                   "dual_orbifold_index": p.dual_orbifold_index,
                   "equal": p.matches,
                   "equal_up_to_dimension_sign": p.sign_matches}
                  for p in report.pairs],
        "all_match": report.all_match,
        "all_match_up_to_dimension_sign": report.all_sign_match,
    }


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, stable formatting."""
    return json.dumps(obj, sort_keys=True, indent=2)
