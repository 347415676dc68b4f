"""Enumeration of invertible-polynomial fixtures from Fermat/chain/loop atoms.

`duality_family(max_det, max_vars)` returns every valid invertible polynomial
(up to renaming variables within an atom and reordering atoms) assembled from
atoms in at most `max_vars` variables with |det E| <= max_det.
"""

from functools import lru_cache
from itertools import product

from eqindex.errors import InvalidPolynomialError
from eqindex.invertible import transpose, validate


def atom_det(kind, exps):
    d = 1
    for a in exps:
        d *= a
    if kind == "loop":
        d += 1 if len(exps) % 2 else -1
    return d


def _loop_canonical(exps):
    """Lexicographically minimal under rotation and reflection."""
    k = len(exps)
    variants = []
    for r in range(k):
        rot = exps[r:] + exps[:r]
        variants.append(rot)
        variants.append(tuple(reversed(rot)))
    return min(variants)


def _exponent_tuples(size, max_det):
    """Every tuple of `size` exponents in 1..max_det whose product is at most
    max_det + 1, in lexicographic order: a chain needs |det| = prod <= max_det
    and a loop |det| = prod +- 1 <= max_det, so no other tuple is an atom."""
    def rec(prefix, prod):
        if len(prefix) == size:
            yield prefix
            return
        for e in range(1, min(max_det, (max_det + 1) // prod) + 1):
            yield from rec(prefix + (e,), prod * e)
    return rec((), 1)


def _atoms_upto(max_det, max_size):
    atoms = [("fermat", (a,)) for a in range(1, max_det + 1)]
    for size in range(2, max_size + 1):
        for exps in _exponent_tuples(size, max_det):
            d = 1
            for e in exps:
                d *= e
            if d <= max_det:
                atoms.append(("chain", exps))
            if atom_det("loop", exps) != 0 and \
               abs(atom_det("loop", exps)) <= max_det and \
               exps == _loop_canonical(exps):
                atoms.append(("loop", exps))
    return atoms


def atom_matrix(kind, exps):
    k = len(exps)
    m = [[0] * k for _ in range(k)]
    for i, a in enumerate(exps):
        m[i][i] = a
        if kind == "chain" and i + 1 < k:
            m[i][i + 1] = 1
        elif kind == "loop":
            m[i][(i + 1) % k] = 1
    return m


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                m[offset + i][offset + j] = v
        offset += len(b)
    return m


@lru_cache(maxsize=None)
def duality_family(max_det=60, max_vars=3):
    # (|det|, kind, exps), scanned in order of |det| so that a scan can stop
    # at the first atom whose determinant no longer fits
    atoms = sorted((abs(atom_det(kind, exps)), kind, exps)
                   for kind, exps in _atoms_upto(max_det, max_vars))
    seen = set()
    out = []

    def add(combo):
        combo = tuple(sorted(combo))
        if combo in seen:
            return
        seen.add(combo)
        matrix = block_diagonal([atom_matrix(k, e) for k, e in combo])
        try:
            f = validate(matrix)
            transpose(f)  # duality is defined only when the dual germ is valid
        except InvalidPolynomialError:
            return
        if abs(f.det) <= max_det:
            out.append(f)

    def rec(start, combo, used_vars, det):
        if combo:
            add(combo)
        for i in range(start, len(atoms)):
            d, kind, exps = atoms[i]
            if det * d > max_det:
                break
            size = len(exps)
            if used_vars + size <= max_vars:
                rec(i, combo + [(kind, exps)], used_vars + size, det * d)

    rec(0, [], 0, 1)
    out.sort(key=lambda f: (f.n, abs(f.det), f.E))
    return tuple(out)


@lru_cache(maxsize=None)
def mu_oracle_family():
    """1- and 2-variable fixtures for the Milnor-number cross-check:
    Fermat exponents <= 12, chain/loop entries <= 6."""
    out = []
    for a in range(1, 13):
        out.append(validate([[a]]))
    for a in range(1, 13):
        for b in range(a, 13):
            out.append(validate([[a, 0], [0, b]]))
    for exps in product(range(1, 7), repeat=2):
        for kind in ("chain", "loop"):
            if kind == "loop" and (exps != _loop_canonical(exps)
                                   or atom_det("loop", exps) == 0):
                continue
            try:
                out.append(validate(atom_matrix(kind, exps)))
            except InvalidPolynomialError:
                continue
    return tuple(out)
