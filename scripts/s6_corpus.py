#!/usr/bin/env python3
"""Write `tests/s6_corpus.py`: S6's non-trivial conjugacy class
representatives of order at most 120, as literal permutation groups.

S6 (1455 subgroups in 56 classes) is built once, here; the tests rebuild
each representative as a fresh permutation group of degree 6 and never
build S6.  Per representative the corpus holds its label in S6's lattice,
its order, the generators S6's lattice recorded for it, and, from the
representative's own lattice, its number of subgroups, its number of
classes and the normalizer order of each class representative, in class
order.  The generators are literal data, so the corpus stays fixed when a
later walk records other generators.  Run from anywhere:

    python3 scripts/s6_corpus.py
"""

import sys
from pathlib import Path
from textwrap import wrap

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from eqindex import perm_group  # noqa: E402

S6 = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
HEADER = '''"""S6's non-trivial conjugacy class representatives of order at most 120.

Written by `scripts/s6_corpus.py`; do not edit.  Per entry: the label in
S6's lattice (S6 generated by (0 1) and (0 1 2 3 4 5)), the order, the
generators as images of 0..5, and from the group's own lattice the number
of subgroups, the number of classes and the normalizer order of each class
representative, in class order.
"""

S6_CORPUS = [
'''


def main():
    s6 = perm_group(6, S6)
    lat = s6.lattice()
    lines = []
    for r in lat.representatives:
        order = lat.subgroups[r].order
        if not 1 < order <= 120:
            continue
        gens = [list(s6.keys[g]) for g in lat.generators[r]]
        sub = perm_group(6, gens).lattice()
        normalizers = [sub.normalizer_order(i) for i in sub.representatives]
        lines.append("\n".join([
            f"    ({lat.labels[r]!r}, {order},",
            *wrap(repr(gens) + ",", 79, initial_indent=" " * 5,
                  subsequent_indent=" " * 6, break_on_hyphens=False),
            f"     {len(sub.subgroups)}, {sub.num_classes},",
            *wrap(repr(normalizers), 77, initial_indent=" " * 5,
                  subsequent_indent=" " * 6)]) + "),\n")
    text = "".join(lines)
    out = ROOT / "tests" / "s6_corpus.py"
    out.write_text(HEADER + text + "]\n")
    print(f"{len(lines)} groups written to {out}")


if __name__ == "__main__":
    main()
