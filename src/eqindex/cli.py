"""Batch command-line front end.

Reads one JSON payload (stdin, --in FILE, or an inline JSON argument),
dispatches to the library, and writes canonical JSON or TSV.  Exit codes:
0 success, 1 domain error (with a machine-readable {"error": ...} object),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .errors import EqIndexError, InputError, OrderBoundError


def _read_payload(args):
    if args.inline is not None:
        if args.infile is not None:
            args.usage_error("an inline payload and --in cannot both be given")
        text = args.inline
        source = "<inline>"
    else:
        source = "<stdin>" if args.infile is None else args.infile
        try:
            if args.infile is not None:
                with open(args.infile, "r", encoding="utf-8") as fh:
                    text = fh.read()
            else:
                text = sys.stdin.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {source}: {exc}") from None
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers beyond the int-string digit limit;
        # RecursionError is nesting too deep for the parser
        raise InputError(f"malformed JSON in {source}: {exc}") from None
    if not isinstance(payload, dict):
        raise InputError(f"payload in {source} must be a JSON object")
    return payload


def _flatten(obj, path, lines):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{path}.{key}" if path else str(key), lines)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(item, f"{path}[{i}]", lines)
    else:
        lines.append(f"{path}\t{json.dumps(obj)}")
    return lines


def _emit(args, obj) -> int:
    try:
        text = ("\n".join(_flatten(obj, "", [])) if args.format == "tsv"
                else jsonio.dumps(obj)) + "\n"
    except ValueError as exc:  # re-raised unless past the digit limit
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        raise OrderBoundError(
            f"result holds an integer past the limit of {limit} digits") from None
    if args.outfile is not None:
        try:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.outfile}: {exc}") from None
    else:
        sys.stdout.write(text)
    return 0


def _group(payload):
    if "group" not in payload:
        raise InputError("payload must contain a 'group' presentation")
    return jsonio.group_from_json(payload["group"])


# -- handlers -----------------------------------------------------------------
# each takes the parsed arguments and the payload and returns the object to
# emit, and imports the layers it calls, so a child process loads only those

def cmd_group_info(args, payload):
    group = jsonio.group_from_json(payload)
    return {
        "id": group.fingerprint,
        "order": group.order,
        "abelian": group.is_abelian,
        "elements": [group.element_repr(i) for i in group.elements()],
    }


def cmd_group_lattice(args, payload):
    group = jsonio.group_from_json(payload)
    return jsonio.lattice_to_json(group)


def cmd_burnside_marks(args, payload):
    from . import burnside
    group = _group(payload)
    lat = group.lattice()
    return {
        "group": group.fingerprint,
        "classes": list(lat.class_labels),
        "marks": burnside.table_of_marks(group).matrix,
    }


def cmd_burnside_mul(args, payload):
    from . import burnside
    group = _group(payload)
    a = jsonio.element_from_json(group, payload.get("a"))
    b = jsonio.element_from_json(group, payload.get("b"))
    return jsonio.element_to_json(burnside.multiply(a, b))


def cmd_burnside_restrict(args, payload):
    from . import burnside
    group = _group(payload)
    b = jsonio.element_from_json(group, payload.get("element"))
    sub = jsonio.subgroup_from_json(group, payload.get("subgroup"))
    res = burnside.restrict(b, sub)
    out = jsonio.element_to_json(res)
    out["subgroup"] = payload.get("subgroup")
    return out


def cmd_burnside_induce(args, payload):
    from . import burnside
    group = _group(payload)
    sub = jsonio.subgroup_from_json(group, payload.get("subgroup"))
    b = jsonio.element_from_json(sub.as_group(), payload.get("element"))
    return jsonio.element_to_json(burnside.induce(b, group))


def cmd_burnside_rk(args, payload):
    from .burnside import r_k
    group = _group(payload)
    b = jsonio.element_from_json(group, payload.get("element"))
    return {"k": args.k, "value": r_k(b, args.k)}


def cmd_burnside_char(args, payload):
    from . import burnside
    group = _group(payload)
    b = jsonio.element_from_json(group, payload.get("element"))
    return jsonio.class_function_to_json(burnside.permutation_character(b))


def cmd_euler_strat(args, payload):
    from . import gspace
    group = _group(payload)
    data = jsonio.strata_from_json(group, payload.get("strata", []), "chi")
    chi = gspace.chi_G_stratified(data, reduced=args.reduced)
    return jsonio.element_to_json(chi)


def cmd_euler_simplicial(args, payload):
    from . import gspace
    from .burnside import cardinality
    group = _group(payload)
    x = jsonio.complex_from_json(group, payload.get("complex", {}))
    chi = gspace.chi_G_simplicial(x)
    out = jsonio.element_to_json(chi)
    out["cardinality"] = cardinality(chi)
    return out


def cmd_euler_orbifold(args, payload):
    from . import gspace
    group = _group(payload)
    x = jsonio.complex_from_json(group, payload.get("complex", {}))
    return {"k": args.k, "value": gspace.chi_k_direct(x, args.k)}


def cmd_index_from_strata(args, payload):
    from . import indices
    group = _group(payload)
    data = jsonio.strata_from_json(group, payload.get("entries", []), "ind")
    return jsonio.element_to_json(indices.index_from_strata(data))


def cmd_index_invert(args, payload):
    from . import indices
    group = _group(payload)
    data = jsonio.fixed_indices_from_json(group, payload)
    return jsonio.element_to_json(indices.index_from_fixed_indices(data))


def cmd_index_induce(args, payload):
    from . import indices
    group = _group(payload)
    sub = jsonio.subgroup_from_json(group, payload.get("isotropy"))
    local = jsonio.element_from_json(sub.as_group(), payload.get("local"))
    datum = indices.SingularOrbitDatum(isotropy=sub, local_index=local)
    return jsonio.element_to_json(indices.induce_orbit_index(datum, group))


def cmd_index_ph_check(args, payload):
    from . import indices
    group = _group(payload)
    chi = jsonio.element_from_json(group, payload.get("chi"))
    orbits = jsonio.orbit_data_from_json(group, payload.get("orbits", []))
    report = indices.poincare_hopf_check(chi, orbits)
    return {
        "pass": report.passed,
        "discrepancy": jsonio.element_to_json(report.discrepancy),
    }


def cmd_index_gsv(args, payload):
    from . import indices
    group = _group(payload)
    rad = jsonio.element_from_json(group, payload.get("radial"))
    chibar = jsonio.element_from_json(group, payload.get("chibar"))
    return jsonio.element_to_json(indices.gsv_from_radial(rad, chibar))


def cmd_poly_analyze(args, payload):
    from . import invertible
    f = jsonio.polynomial_from_json(payload)
    out = jsonio.polynomial_to_json(f)
    out["mu"] = invertible.milnor_number(f)
    group = invertible.symmetry_group(f)
    out["group"] = {
        "id": group.fingerprint,
        "order": group.order,
        "generators": [[jsonio.rational_to_json(q) for q in group.phases(g)]
                       for g in group.generators],
    }
    return out


def cmd_poly_index(args, payload):
    from . import invertible
    from .burnside import cardinality, one
    f = jsonio.polynomial_from_json(payload)
    group = invertible.symmetry_group(f)
    chi = invertible.chi_G_milnor(f, group)
    ind = one(group) - chi  # ind_rad(df), as in invertible.index_df
    return {
        "group": group.fingerprint,
        "order": group.order,
        "chi_milnor": jsonio.element_to_json(chi),
        "index": jsonio.element_to_json(ind),
        "cardinality": cardinality(ind),
        "mu": invertible.milnor_number(f),
    }


def cmd_poly_dual_check(args, payload):
    from . import invertible
    f = jsonio.polynomial_from_json(payload)
    report = invertible.duality_check(f)
    return jsonio.duality_report_to_json(report)


# -- parser ---------------------------------------------------------------------

def _add_common(p):
    p.add_argument("inline", nargs="?", default=None,
                   help="inline JSON payload (otherwise stdin or --in)")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE")
    p.add_argument("--out", dest="outfile", default=None, metavar="FILE")
    p.add_argument("--format", choices=("json", "tsv"), default="json")


def nonnegative_int(text) -> int:
    """--k: the reduction order, an integer k >= 0."""
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError("k must be >= 0")
    return k


# group -> (its help, {subcommand: handler}); OPTIONS adds to _add_common's
COMMANDS = {
    "group": ("group construction and lattices", {
        "info": cmd_group_info, "lattice": cmd_group_lattice}),
    "burnside": ("Burnside ring operations", {
        "marks": cmd_burnside_marks, "mul": cmd_burnside_mul,
        "restrict": cmd_burnside_restrict, "induce": cmd_burnside_induce,
        "rk": cmd_burnside_rk, "char": cmd_burnside_char}),
    "euler": ("equivariant Euler characteristics", {
        "strat": cmd_euler_strat, "simplicial": cmd_euler_simplicial,
        "orbifold": cmd_euler_orbifold}),
    "index": ("radial/GSV index assembly", {
        "from-strata": cmd_index_from_strata, "invert": cmd_index_invert,
        "induce": cmd_index_induce, "ph-check": cmd_index_ph_check,
        "gsv": cmd_index_gsv}),
    "poly": ("invertible polynomial pipelines", {
        "analyze": cmd_poly_analyze, "index": cmd_poly_index,
        "dual-check": cmd_poly_dual_check}),
}
OPTIONS = {
    cmd_burnside_rk: {"--k": {"type": nonnegative_int, "default": 0}},
    cmd_euler_strat: {"--reduced": {"action": "store_true"}},
    cmd_euler_orbifold: {"--k": {"type": nonnegative_int, "default": 1}},
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """Every command group's parser, with the subcommand parsers of the
    group argv[0] names, or of every group when it names none (or is none)."""
    groups = COMMANDS.keys() & argv[:1] or COMMANDS
    parser = argparse.ArgumentParser(
        prog="eqindex",
        description="Exact Burnside-ring invariants and equivariant indices")
    top = parser.add_subparsers(dest="command", required=True)
    for name, (text, handlers) in COMMANDS.items():
        sub = top.add_parser(name, help=text).add_subparsers(
            dest="subcommand", required=True)
        if name in groups:
            for subname, func in handlers.items():
                p = sub.add_parser(subname); _add_common(p)
                p.set_defaults(func=func, usage_error=p.error)
                for flag, kwargs in OPTIONS.get(func, {}).items():
                    p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return _emit(args, args.func(args, _read_payload(args)))
    except EqIndexError as exc:
        error = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(jsonio.dumps(error) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
