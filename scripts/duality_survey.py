#!/usr/bin/env python3
"""Survey Berglund-Huebsch duality over all Fermat/chain/loop combinations.

Enumerates every invertible polynomial in at most --max-vars variables with
|det E| <= --max-det whose transpose is also a valid germ, runs the duality
consistency check, and tabulates how the orbifold-index comparison comes out
per ambient dimension.  Verbatim coincidence holds in even dimension; in odd
dimension the indices agree up to the global sign (-1)^n.

Each fixture is checked on a fresh `validate(f.E)`, so the cached family
keeps no symmetry group or lattice and memory stays flat over the sweep.
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from eqindex.invertible import duality_check, validate  # noqa: E402
from invertible_family import duality_family  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-det", type=int, default=60)
    ap.add_argument("--max-vars", type=int, default=3)
    ap.add_argument("--show-flagged", action="store_true",
                    help="list the fixtures with sign-only pair matches")
    args = ap.parse_args()

    family = duality_family(args.max_det, args.max_vars)
    print(f"{len(family)} fixtures (<= {args.max_vars} variables, "
          f"|det| <= {args.max_det})")
    t0 = time.time()
    per_dim = Counter()
    verbatim = Counter()
    sign_only = Counter()
    bad = []
    for f in family:
        rep = duality_check(validate(f.E))
        per_dim[f.n] += 1
        if not rep.orbit_match or not rep.all_sign_match:
            bad.append(f.E)
            continue
        if rep.all_match:
            verbatim[f.n] += 1
        else:
            sign_only[f.n] += 1
            if args.show_flagged:
                pairs = [(p.subgroup_label, p.orbifold_index,
                          p.dual_orbifold_index) for p in rep.flagged_pairs]
                print(f"  sign-only {f.E}: {pairs}")
    dt = time.time() - t0
    print(f"checked in {dt:.1f}s")
    print(f"{'n':>3} {'fixtures':>9} {'verbatim':>9} {'sign-only':>10}")
    for n in sorted(per_dim):
        print(f"{n:>3} {per_dim[n]:>9} {verbatim[n]:>9} {sign_only[n]:>10}")
    if bad:
        print(f"UNEXPLAINED failures: {bad}")
        return 1
    print("r_0 equality held on every fixture; every subgroup pair matched "
          "verbatim (even n) or up to (-1)^n (odd n).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
