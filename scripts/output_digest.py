#!/usr/bin/env python3
"""One SHA-256 over the canonical outputs of the duality pipeline.

Hashes, in order:
  * for every fixture of duality_family(60, 3): the `duality_check` report
    as canonical JSON, the symmetry group G_f (keys, denominator, generator
    keys, presentation, id), the coefficients of index_df(f, G_f) and the
    dual group G_{f~} (keys, generator keys, id);
  * the stdout and exit code of `poly analyze`, `poly index` and
    `poly dual-check`, in json and tsv, on every fixture of
    duality_family(24, 3) (run in-process through `cli.main`), and of
    `poly dual-check` on polynomials whose transpose is not a valid germ
    (head-one chains in two and three variables);
  * the stdout and exit code of `group info` and `group lattice` on a few
    diagonal presentations: no coordinates, repeated generators, the order
    bound reached and exceeded; and of `group lattice` on S4 x Z/2 (degree
    6), (Z/2)^4 (degree 8) and S4 x S3 (degree 7) as permutation groups;
  * on Z2, Z6, Z2xZ2, S3, D4, S4 and A5, as canonical JSON: the table of
    marks, the restriction of every basis element to every subgroup, the
    induction of every basis element of every subgroup, and the fixed-set
    indices (`fixed_indices_from_index`) of every basis element;
  * `commuting_class_counts` for k = 0..4 (or the error it raises) on the
    same groups and S5, for k = 0..3 on (Z/2)^4 as a permutation group of
    degree 8, and for k = 0..2 on every ninth symmetry group of
    duality_family(24, 3);
  * `lattice_to_json` of S4, A5 and S5 and of every subgroup of each, as a
    standalone group, then of (Z/6)^3 and of Z/4 x Z/6 as a diagonal, a
    permutation and a (seeded, relabeled) table presentation;
  * on the simplicial suite: `chi_G_simplicial` and `chi_k_direct` for
    k = 0..4 (or the error it raises);
  * on Z2, Z6, Z2xZ2, S3, D4, S4 and A5: `index_from_fixed_indices` on the
    fixed-set indices of every basis element and of five random elements,
    with and without per-class data, and on the same data moved at one
    subgroup class or one per-class entry; `gsv_assemble_from_dims` on
    class-constant dimensions from every basis element for k = 0, 1; and
    `index_from_strata`, quotient-strata indices through `chi_G_stratified`,
    and `chi_G_stratified` (plain and reduced) on fixed entries, among them
    a non-integral stratum index and out-of-range class indices;
  * the stdout and exit code of `index invert`, `index from-strata` and
    `euler strat` on valid, non-integral and inconsistent payloads and on
    unknown class and subgroup labels.
  * a second round on the same objects: `chi_k_direct` for k = 4..0 (or
    the error it raises) and `chi_G_simplicial` on the simplicial suite,
    then every restriction and induction above again.  Values stored on a
    complex or a subgroup group by the first round must not change them;
  * the stdout and exit code of `poly index` and `poly dual-check` on the
    6-variable Fermat quadric E = 2 I_6, G_f = (Z/2)^6 with 2825 subgroups.
  * the stdout, stderr and exit code of the CLI's help and usage errors, at
    80 columns: `--help`, every group's and every subcommand's `--help`, an
    unknown group, an unknown subcommand in each group, a missing command
    and a missing subcommand, and `burnside rk` with `--k -1` and `--k x`.
  * on (Z/2)^5 (degree 10, 374 subgroups) and S4 x Z/2 (degree 6) as
    permutation groups: `commuting_class_counts` for k = 0..2, and
    `index_from_fixed_indices` with per-class data on the fixed-set indices
    of every basis element and of five random elements, as given and with
    one per-class entry moved.
  * on S4 and A5, for every subgroup as a standalone group H: the
    restriction of every basis element of B(H) to every subgroup of H, the
    induction of every basis element of each of those back to H, and
    `lattice_to_json` of every subgroup of H as a standalone group.
  * for every fixture of duality_family(200, 2), up to 90 subgroups per
    G_f: the `duality_check` report as canonical JSON.

Every error is hashed as its kind and its message.

Two source trees whose digests agree produce byte-identical outputs on these
inputs.  Run from anywhere:

    python3 scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from eqindex import (build_group, burnside, cli, gspace,  # noqa: E402
                     indices, jsonio, perm_group)
from eqindex.errors import EqIndexError  # noqa: E402
from eqindex.invertible import (duality_check, index_df,  # noqa: E402
                                symmetry_group, transpose)
from complex_suite import suite  # noqa: E402
from groups_pool import larger, pool, random_elements  # noqa: E402
from invertible_family import duality_family  # noqa: E402


def library_lines():
    for f in duality_family(60, 3):
        yield jsonio.dumps(jsonio.duality_report_to_json(duality_check(f)))
        g = symmetry_group(f)
        yield repr((g.keys, g.denominator, g.generator_keys))
        yield json.dumps(g.presentation, sort_keys=True)
        yield g.fingerprint
        yield repr(index_df(f, g).coeffs)
        gt = symmetry_group(transpose(f))
        yield repr((gt.keys, gt.generator_keys))
        yield gt.fingerprint


def _cli(argv):
    """`cli.main(argv)` in-process: its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{' '.join(argv)} {code}\n{out.getvalue()}"


# x y + y^2 and x y + y z + z^2: valid germs whose transposes have weight 0
INVALID_DUALS = [[[1, 1], [0, 2]], [[1, 1, 0], [0, 1, 1], [0, 0, 2]]]


def cli_lines():
    for f in duality_family(24, 3):
        payload = json.dumps({"E": [list(r) for r in f.E]})
        for sub in ("analyze", "index", "dual-check"):
            for fmt in ("json", "tsv"):
                yield _cli(["poly", sub, payload, "--format", fmt])
    for E in INVALID_DUALS:
        for fmt in ("json", "tsv"):
            yield _cli(["poly", "dual-check", json.dumps({"E": E}),
                        "--format", fmt])


DIAGONAL_PRESENTATIONS = [
    [[]],
    [[[-1, 6], [1, 3]]],
    [[[1, 4], [1, 6]], [[1, 2], [1, 3]], [[1, 4], [1, 6]], [0, [1, 2]]],
    [[[1, 2], 0, [1, 2]], [0, [1, 3], [2, 3]], [[1, 2], [1, 3], [1, 6]]],
    [[[1, 2000]]],
    [[[1, 2001]]],
    [[[1, 999983]]],
    [[[1, 50], 0], [0, [1, 41]]],
]


# S4 x Z/2: S4 on the points 0..3, Z/2 swapping 4 and 5; (Z/2)^4: four
# disjoint transpositions (2i 2i+1); S4 x S3: S4 on 0..3, S3 on 4..6
PERM_PRESENTATIONS = [
    (6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]]),
    (8, [[j ^ 1 if j // 2 == i else j for j in range(8)] for i in range(4)]),
    (7, [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 0, 4, 5, 6],
         [0, 1, 2, 3, 5, 4, 6], [0, 1, 2, 3, 5, 6, 4]]),
]


def group_lines():
    for phases in DIAGONAL_PRESENTATIONS:
        payload = json.dumps({"kind": "diagonal", "phases": phases})
        for sub in ("info", "lattice"):
            yield _cli(["group", sub, payload])
    for degree, gens in PERM_PRESENTATIONS:
        payload = json.dumps({"kind": "perm", "degree": degree,
                              "generators": gens})
        yield _cli(["group", "lattice", payload])


def burnside_groups():
    return {**pool(), "S4": larger()["S4"], "A5": larger()["A5"]}


def restriction_lines(g):
    lat = g.lattice()
    for sub in lat.subgroups:
        child = sub.as_group()
        for c in range(lat.num_classes):
            yield jsonio.dumps(jsonio.element_to_json(
                burnside.restrict(burnside.basis_element(g, c), sub)))
        for c in range(child.lattice().num_classes):
            yield jsonio.dumps(jsonio.element_to_json(
                burnside.induce(burnside.basis_element(child, c), g)))


def burnside_lines():
    for name, g in burnside_groups().items():
        yield jsonio.dumps({"group": name,
                            "marks": burnside.table_of_marks(g).matrix})
        yield from restriction_lines(g)


def fixed_index_lines():
    for g in burnside_groups().values():
        for c in range(g.lattice().num_classes):
            data = indices.fixed_indices_from_index(
                burnside.basis_element(g, c))
            yield jsonio.dumps({"per_subgroup": data.per_subgroup,
                                "per_class": data.per_class})


def _outcome(fn, *args):
    """repr of fn(*args), or the kind and message of the eqindex error it
    raises."""
    try:
        return repr(fn(*args))
    except EqIndexError as exc:
        return f"{type(exc).__name__}: {exc}"


def commuting_lines():
    groups = {**burnside_groups(), "S5": larger()["S5"]}
    for name, g in groups.items():
        for k in range(5):
            yield f"{name} {k} " + _outcome(
                burnside.commuting_class_counts, g, k)
    # (Z/2)^4: four disjoint transpositions (2i 2i+1)
    z2_4 = perm_group(8, [[j ^ 1 if j // 2 == i else j for j in range(8)]
                          for i in range(4)])
    for k in range(4):
        yield f"Z2^4 {k} " + repr(burnside.commuting_class_counts(z2_4, k))
    for f in duality_family(24, 3)[::9]:
        g = symmetry_group(f)
        for k in range(3):
            yield f"{g.fingerprint} {k} " + repr(
                burnside.commuting_class_counts(g, k))


def abelian_groups():
    """(Z/6)^3, and Z/4 x Z/6 as a diagonal group, as a 4-cycle and a 6-cycle
    on disjoint points, and as a table relabeled by a seeded shuffle."""
    z6_3 = build_group({"kind": "diagonal", "phases": [
        [[1, 6] if i == j else 0 for j in range(3)] for i in range(3)]})
    diagonal = build_group({"kind": "diagonal",
                            "phases": [[[1, 4], 0], [0, [1, 6]]]})
    perm = perm_group(10, [[1, 2, 3, 0, 4, 5, 6, 7, 8, 9],
                           [0, 1, 2, 3, 5, 6, 7, 8, 9, 4]])
    pi = list(range(diagonal.order))
    random.Random(7).shuffle(pi)
    table = [[0] * diagonal.order for _ in pi]
    for i, row in enumerate(diagonal.table):
        for j, x in enumerate(row):
            table[pi[i]][pi[j]] = pi[x]
    return [z6_3, diagonal, perm, build_group({"kind": "table",
                                               "table": table})]


def lattice_lines():
    for g in larger().values():
        yield jsonio.dumps(jsonio.lattice_to_json(g))
        for sub in g.lattice().subgroups:
            yield jsonio.dumps(jsonio.lattice_to_json(sub.as_group()))
    for g in abelian_groups():
        yield jsonio.dumps(jsonio.lattice_to_json(g))


def simplicial_lines():
    for name, x in suite():
        yield f"{name} " + repr(gspace.chi_G_simplicial(x).coeffs)
        for k in range(5):
            yield f"{name} {k} " + _outcome(gspace.chi_k_direct, x, k)


def second_round_lines():
    """The same calls again on the same objects: the suite's chi_k_direct
    for k = 4..0 and chi_G_simplicial, then every restriction and
    induction."""
    for name, x in suite():
        for k in range(4, -1, -1):
            yield f"{name} {k} " + _outcome(gspace.chi_k_direct, x, k)
        yield f"{name} " + repr(gspace.chi_G_simplicial(x).coeffs)
    for g in burnside_groups().values():
        yield from restriction_lines(g)


def inversion_lines():
    rng = random.Random(61)
    for name, g in burnside_groups().items():
        lat = g.lattice()
        nc = lat.num_classes
        for b in [burnside.basis_element(g, c) for c in range(nc)] + \
                random_elements(g, 5, seed=59):
            data = indices.fixed_indices_from_index(b)
            moved = rng.randrange(nc)
            per_subgroup = {i: v + (lat.class_of[i] == moved)
                            for i, v in data.per_subgroup.items()}
            per_class = {**data.per_class, moved: data.per_class[moved] + 1}
            for args in ((data.per_subgroup, data.per_class),
                         (data.per_subgroup, None), (per_subgroup, None),
                         (data.per_subgroup, per_class)):
                yield f"{name} " + _outcome(
                    lambda: indices.index_from_fixed_indices(
                        indices.FixedSetIndexData(g, *args)))


def gsv_lines():
    rng = random.Random(67)
    for name, g in burnside_groups().items():
        lat = g.lattice()
        for c in range(lat.num_classes):
            fwd = indices.fixed_indices_from_index(
                burnside.basis_element(g, c)).per_subgroup
            for k in (0, 1):
                n_class = [rng.randrange(k + 3) for _ in range(lat.num_classes)]
                fixed_dims = {i: n_class[d] for i, d in enumerate(lat.class_of)}
                dims = {i: (-1) ** (n - k) * fwd[i]
                        for i, n in fixed_dims.items() if n > k}
                yield f"{name} {c} {k} " + _outcome(
                    indices.gsv_assemble_from_dims, g, dims, fixed_dims, k)


def strata_lines():
    for name, g in burnside_groups().items():
        lat = g.lattice()
        nc = lat.num_classes
        integral = [(c, (c - 2) * (g.order // lat.class_order(c)))
                    for c in range(nc)] + [(nc - 1, 3)]
        for entries in (integral, [], [(0, 1)], [(nc, 1)], [(-1, 1)]):
            yield f"{name} " + _outcome(
                lambda: indices.index_from_strata(
                    gspace.StratifiedGData(g, entries)))
            yield f"{name} " + _outcome(
                lambda: gspace.chi_G_stratified(
                    gspace.StratifiedGData(g, entries)))
            for reduced in (False, True):
                yield f"{name} {reduced} " + _outcome(
                    lambda: gspace.chi_G_stratified(
                        gspace.StratifiedGData(g, entries), reduced))


S3 = {"kind": "perm", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
Z6 = {"kind": "diagonal", "phases": [[[1, 6]]]}
S3_LABELS = ["H1_0", "H2_1", "H2_2", "H2_3", "H3_4", "H6_5"]
Z6_CLASSES = ["H1_0", "H2_1", "H3_2", "H6_3"]


def _invert_payload(group, labels, values, per_class=None):
    out = {"group": group, "per_subgroup": dict(zip(labels, values))}
    if per_class is not None:
        out["per_class"] = per_class
    return out


INDEX_INVERT_PAYLOADS = [
    _invert_payload(Z6, Z6_CLASSES, [6, 0, 0, 0]),
    _invert_payload(Z6, Z6_CLASSES, [6, 0, 0, 0],
                    {"H1_0": 6, "H2_1": 0, "H3_2": 0, "H6_3": 0}),
    _invert_payload(Z6, Z6_CLASSES, [1, 0, 0, 0]),
    _invert_payload(Z6, Z6_CLASSES, [6, 0, 0, 0],
                    {"H1_0": 6, "H2_1": 0, "H3_2": 0, "H6_3": 1}),
    _invert_payload(Z6, Z6_CLASSES, [6, 0, 0, 0],
                    {"H1_0": 6, "H2_1": 0, "H3_2": 0, "H6_3": 6}),
    _invert_payload(Z6, Z6_CLASSES, [6, 0, 0, 0.5]),
    _invert_payload(Z6, Z6_CLASSES + ["H7_4"], [6, 0, 0, 0, 0]),
    _invert_payload(Z6, Z6_CLASSES, [6, 0, 0, 0], {"H9_9": 0}),
    _invert_payload(S3, S3_LABELS, [6, 0, 0, 0, 0, 0]),
    _invert_payload(S3, S3_LABELS, [3, 1, 1, 1, 0, 0]),
    _invert_payload(S3, S3_LABELS, [3, 1, 3, -1, 0, 0]),
    _invert_payload(S3, S3_LABELS, [1, 0, 0, 0, 0, 0]),
    _invert_payload(S3, S3_LABELS, [2, 0, 0, 0, 2, 0]),
]


def index_cli_lines():
    for payload in INDEX_INVERT_PAYLOADS:
        yield _cli(["index", "invert", json.dumps(payload)])
    stratum_cases = [
        (Z6, [("H1_0", 12), ("H3_2", 2), ("H6_3", -1)]),
        (Z6, [("H1_0", 5)]),
        (Z6, [("H2_1", 1)]),
        (Z6, [("H1_0", 1.5)]),
        (Z6, [("H7_9", 1)]),
        (S3, [("H1_0", 6), ("H2_1", 3), ("H6_5", 1)]),
        (S3, [("H2_2", 3)]),
        (S3, [("H3_4", 1)]),
        (S3, [("H4_6", 1)]),
    ]
    for group, pairs in stratum_cases:
        payload = {"group": group,
                   "entries": [{"class": c, "ind": v} for c, v in pairs]}
        yield _cli(["index", "from-strata", json.dumps(payload)])
        payload = {"group": group,
                   "strata": [{"class": c, "chi": v} for c, v in pairs]}
        for extra in ([], ["--reduced"]):
            yield _cli(["euler", "strat", json.dumps(payload)] + extra)


def quadric_lines():
    payload = json.dumps({"E": [[2 * (i == j) for j in range(6)]
                                for i in range(6)]})
    for sub in ("index", "dual-check"):
        yield _cli(["poly", sub, payload])


SUBCOMMANDS = {
    "group": ["info", "lattice"],
    "burnside": ["marks", "mul", "restrict", "induce", "rk", "char"],
    "euler": ["strat", "simplicial", "orbifold"],
    "index": ["from-strata", "invert", "induce", "ph-check", "gsv"],
    "poly": ["analyze", "index", "dual-check"],
}


def _cli_exit(argv):
    """`cli.main(argv)` in-process, returning or exiting: its exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"{' '.join(argv)} {code}\n{out.getvalue()}\0{err.getvalue()}"


def usage_lines():
    # argparse wraps help and usage text to the terminal width
    os.environ["COLUMNS"] = "80"
    yield _cli_exit(["--help"])
    yield _cli_exit(["nope"])
    yield _cli_exit([])
    for group, subs in SUBCOMMANDS.items():
        yield _cli_exit([group, "--help"])
        yield _cli_exit([group, "nope"])
        yield _cli_exit([group])
        for sub in subs:
            yield _cli_exit([group, sub, "--help"])
    for k in ("-1", "x"):
        yield _cli_exit(["burnside", "rk", "--k", k])


# (Z/2)^5: five disjoint transpositions (2i 2i+1)
Z2_5 = (10, [[j ^ 1 if j // 2 == i else j for j in range(10)]
             for i in range(5)])


def poset_lines():
    rng = random.Random(71)
    for degree, gens in (Z2_5, PERM_PRESENTATIONS[0]):
        g = perm_group(degree, gens)
        for k in range(3):
            yield f"{degree} {k} " + repr(
                burnside.commuting_class_counts(g, k))
        nc = g.lattice().num_classes
        for b in [burnside.basis_element(g, c) for c in range(nc)] + \
                random_elements(g, 5, seed=73):
            data = indices.fixed_indices_from_index(b)
            moved = rng.randrange(nc)
            for per_class in (data.per_class, {
                    **data.per_class, moved: data.per_class[moved] + 1}):
                yield f"{degree} " + _outcome(
                    lambda: indices.index_from_fixed_indices(
                        indices.FixedSetIndexData(g, data.per_subgroup,
                                                  per_class)))


def grandchild_lines():
    for g in (larger()["S4"], larger()["A5"]):
        for sub in g.lattice().subgroups:
            child = sub.as_group()
            yield from restriction_lines(child)
            for grand in child.lattice().subgroups:
                yield jsonio.dumps(jsonio.lattice_to_json(grand.as_group()))


def wide_duality_lines():
    for f in duality_family(200, 2):
        yield jsonio.dumps(jsonio.duality_report_to_json(duality_check(f)))


def main():
    h = hashlib.sha256()
    for line in chain(library_lines(), cli_lines(), group_lines(),
                      burnside_lines(), fixed_index_lines(), commuting_lines(),
                      lattice_lines(), simplicial_lines(), inversion_lines(),
                      gsv_lines(), strata_lines(), index_cli_lines(),
                      second_round_lines(), quadric_lines(), usage_lines(),
                      poset_lines(), grandchild_lines(),
                      wide_duality_lines()):
        h.update(line.encode() + b"\0")
    print(h.hexdigest())


if __name__ == "__main__":
    main()
