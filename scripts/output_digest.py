#!/usr/bin/env python3
"""One SHA-256 over the canonical outputs of the duality pipeline.

Hashes, in order:
  * for every fixture of duality_family(60, 3): the `duality_check` report
    as canonical JSON, the symmetry group G_f (keys, denominator, generator
    keys, presentation, id) and the coefficients of index_df(f, G_f);
  * the stdout and exit code of `poly analyze`, `poly index` and
    `poly dual-check`, in json and tsv, on every fixture of
    duality_family(24, 3) (run in-process through `cli.main`).

Two source trees whose digests agree produce byte-identical outputs on these
inputs.  Run from anywhere:

    python3 scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from eqindex import cli, jsonio  # noqa: E402
from eqindex.invertible import (duality_check, index_df,  # noqa: E402
                                symmetry_group)
from invertible_family import duality_family  # noqa: E402


def library_lines():
    for f in duality_family(60, 3):
        yield jsonio.dumps(jsonio.duality_report_to_json(duality_check(f)))
        diag = symmetry_group(f)
        g = diag.group
        yield repr((g.keys, g.denominator, g.generator_keys))
        yield json.dumps(g.presentation, sort_keys=True)
        yield g.fingerprint
        yield repr(index_df(f, diag).coeffs)


def cli_lines():
    for f in duality_family(24, 3):
        payload = json.dumps({"E": [list(r) for r in f.E]})
        for sub in ("analyze", "index", "dual-check"):
            for fmt in ("json", "tsv"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["poly", sub, payload, "--format", fmt])
                yield f"{sub} {fmt} {code}\n{out.getvalue()}"


def main():
    h = hashlib.sha256()
    for line in library_lines():
        h.update(line.encode() + b"\0")
    for line in cli_lines():
        h.update(line.encode() + b"\0")
    print(h.hexdigest())


if __name__ == "__main__":
    main()
