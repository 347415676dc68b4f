#!/usr/bin/env python3
"""One SHA-256 over the canonical outputs of the duality pipeline.

Hashes, in order:
  * for every fixture of duality_family(60, 3): the `duality_check` report
    as canonical JSON, the symmetry group G_f (keys, denominator, generator
    keys, presentation, id), the coefficients of index_df(f, G_f) and the
    dual group G_{f~} (keys, generator keys, id);
  * the stdout and exit code of `poly analyze`, `poly index` and
    `poly dual-check`, in json and tsv, on every fixture of
    duality_family(24, 3) (run in-process through `cli.main`);
  * the stdout and exit code of `group info` and `group lattice` on a few
    diagonal presentations: no coordinates, repeated generators, the order
    bound reached and exceeded;
  * on Z2, Z6, Z2xZ2, S3, D4, S4 and A5, as canonical JSON: the table of
    marks, the restriction of every basis element to every subgroup, the
    induction of every basis element of every subgroup, and the fixed-set
    indices (`fixed_indices_from_index`) of every basis element;
  * `commuting_class_counts` for k = 0..4 (or the error it raises) on the
    same groups and S5;
  * `lattice_to_json` of S4, A5 and S5 and of every subgroup of each, as a
    standalone group;
  * on the simplicial suite: `chi_G_simplicial` and `chi_k_direct` for
    k = 0..4 (or the error it raises).

Two source trees whose digests agree produce byte-identical outputs on these
inputs.  Run from anywhere:

    python3 scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import json
import sys
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from eqindex import burnside, cli, gspace, indices, jsonio  # noqa: E402
from eqindex.errors import EqIndexError  # noqa: E402
from eqindex.invertible import (duality_check, index_df,  # noqa: E402
                                symmetry_group, transpose)
from complex_suite import suite  # noqa: E402
from groups_pool import larger, pool  # noqa: E402
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


def cli_lines():
    for f in duality_family(24, 3):
        payload = json.dumps({"E": [list(r) for r in f.E]})
        for sub in ("analyze", "index", "dual-check"):
            for fmt in ("json", "tsv"):
                yield _cli(["poly", sub, payload, "--format", fmt])


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


def group_lines():
    for phases in DIAGONAL_PRESENTATIONS:
        payload = json.dumps({"kind": "diagonal", "phases": phases})
        for sub in ("info", "lattice"):
            yield _cli(["group", sub, payload])


def burnside_groups():
    return {**pool(), "S4": larger()["S4"], "A5": larger()["A5"]}


def burnside_lines():
    for name, g in burnside_groups().items():
        yield jsonio.dumps({"group": name,
                            "marks": burnside.table_of_marks(g).matrix})
        lat = g.lattice()
        for sub in lat.subgroups:
            child = sub.as_group()
            for c in range(lat.num_classes):
                yield jsonio.dumps(jsonio.element_to_json(
                    burnside.restrict(burnside.basis_element(g, c), sub)))
            for c in range(child.lattice().num_classes):
                yield jsonio.dumps(jsonio.element_to_json(
                    burnside.induce(burnside.basis_element(child, c), g)))


def fixed_index_lines():
    for g in burnside_groups().values():
        for c in range(g.lattice().num_classes):
            data = indices.fixed_indices_from_index(
                burnside.basis_element(g, c))
            yield jsonio.dumps({"per_subgroup": data.per_subgroup,
                                "per_class": data.per_class})


def _outcome(fn, *args):
    """repr of fn(*args), or the name of the eqindex error it raises."""
    try:
        return repr(fn(*args))
    except EqIndexError as exc:
        return type(exc).__name__


def commuting_lines():
    groups = {**burnside_groups(), "S5": larger()["S5"]}
    for name, g in groups.items():
        for k in range(5):
            yield f"{name} {k} " + _outcome(
                burnside.commuting_class_counts, g, k)


def lattice_lines():
    for g in larger().values():
        yield jsonio.dumps(jsonio.lattice_to_json(g))
        for sub in g.lattice().subgroups:
            yield jsonio.dumps(jsonio.lattice_to_json(sub.as_group()))


def simplicial_lines():
    for name, x in suite():
        yield f"{name} " + repr(gspace.chi_G_simplicial(x).coeffs)
        for k in range(5):
            yield f"{name} {k} " + _outcome(gspace.chi_k_direct, x, k)


def main():
    h = hashlib.sha256()
    for line in chain(library_lines(), cli_lines(), group_lines(),
                      burnside_lines(), fixed_index_lines(), commuting_lines(),
                      lattice_lines(), simplicial_lines()):
        h.update(line.encode() + b"\0")
    print(h.hexdigest())


if __name__ == "__main__":
    main()
