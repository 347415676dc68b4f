"""The three benchmark workloads.

A workload is built from a seed by `WORKLOADS[name](seed, root)`; building it
is the set-up the benchmark times.  `cycle(c)` then returns the c-th batch of
operations.  Every batch of one workload has the same composition (the same
fixtures, operation kinds or commands), and the seed changes only the
labels, parameters and order inside it, so that different seeds carry
comparable loads.  An operation is `(run, check)`: `run()` makes the timed
calls into eqindex and returns their outputs, `check(outputs)` compares them
with facts that do not come from the code being measured and returns True
when they hold.

`collect_between_ops` asks the runner to empty the cyclic garbage before
each operation (outside the timed region), so that a heavy operation does
not pay for the garbage of the one before it; otherwise it does so before
each batch.  `speed()` gives the `speed.Speed` that scales the run's times.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from speed import Speed
from tracing import TRACE_MARK


def _rng(seed, *salt):
    return random.Random(":".join(str(x) for x in (seed,) + salt))


class Workload:
    collect_between_ops = False

    def speed(self):
        return Speed()


# -- duality-sweep ----------------------------------------------------------

# every SWEEP_STEP-th fixture of duality_family(60, 3), which is sorted by
# (n, |det|, E): a systematic sample that gives each (n, |det| band) stratum
# its exact share.  A seeded random sample of the same size varied the load
# by several per cent between seeds, because the per-fixture cost is
# heavy-tailed; here the seed relabels variables and orders the batch.
SWEEP_STEP = 12


def _weights(E):
    """Solve E q = 1 over the rationals (independent of eqindex)."""
    n = len(E)
    aug = [[Fraction(x) for x in row] + [Fraction(1)] for row in E]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def milnor_from_weights(E) -> int:
    """mu = prod(1/q_i - 1) for the weight system of E."""
    mu = Fraction(1)
    for q in _weights(E):
        mu *= 1 / q - 1
    return int(mu)


def relabel(E, perm):
    """The same polynomial with variable i renamed perm[i]."""
    n = len(E)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = E[i][j]
    return out


class DualitySweep(Workload):
    collect_between_ops = True

    def __init__(self, seed, root):
        sys.path.insert(0, os.path.join(root, "tests"))
        from invertible_family import duality_family
        from eqindex import invertible
        from eqindex.burnside import cardinality
        self.seed = seed
        self.inv = invertible
        self.cardinality = cardinality
        self.fixtures = [(f.E, milnor_from_weights(f.E))
                         for f in duality_family(60, 3)[::SWEEP_STEP]]

    def cycle(self, c):
        rng = _rng(self.seed, "duality", c)
        ops = []
        for E, mu in self.fixtures:
            perm = list(range(len(E)))
            rng.shuffle(perm)
            ops.append(self._op(relabel(E, perm), mu))
        rng.shuffle(ops)
        return ops

    def _op(self, E, mu):
        inv, cardinality = self.inv, self.cardinality

        def run():
            f = inv.validate(E)
            report = inv.duality_check(f)
            card = cardinality(inv.index_df(f, inv.symmetry_group(f)))
            return report, card

        def check(out):
            report, card = out
            theorem = report.all_match if len(E) % 2 == 0 \
                else report.all_sign_match
            # |ind(df)| = 1 - chi(M_f) = (-1)^n mu
            return report.orbit_match and theorem and bool(report.pairs) \
                and card == (-1) ** len(E) * mu
        return run, check


# -- ring-ops -------------------------------------------------------------------

class RingOps(Workload):
    """Warm-cache Burnside-ring calls over small groups and the simplicial
    suite; every batch uses fresh random elements and subgroups."""

    def __init__(self, seed, root):
        sys.path.insert(0, os.path.join(root, "tests"))
        from complex_suite import suite
        from groups_pool import pool
        from eqindex import burnside, gspace, indices
        from eqindex.groups import perm_group
        self.seed = seed
        self.b, self.gs, self.ix = burnside, gspace, indices
        groups = dict(pool())
        groups["S4"] = perm_group(4, [[1, 2, 3, 0], [1, 0, 2, 3]])
        groups["A5"] = perm_group(5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])
        self.groups = [groups[k] for k in sorted(groups)]
        self.complexes = [x for _, x in suite()]
        self.basis_rk = {}
        for g in self.groups:
            lat = g.lattice()
            burnside.table_of_marks(g)
            for k in (0, 1, 2):
                self.basis_rk[id(g), k] = [
                    burnside.r_k(burnside.basis_element(g, c), k)
                    for c in range(lat.num_classes)]
            for sub in lat.subgroups:
                burnside.table_of_marks(sub.as_group())
        self.chi_k = {}
        for i, x in enumerate(self.complexes):
            chi = gspace.chi_G_simplicial(x)
            for k in (0, 1, 2):
                self.chi_k[i, k] = burnside.r_k(chi, k)
        # one untimed batch fills whatever lazy caches remain
        for run, check in self.cycle(-1):
            check(run())

    def _elem(self, rng, group):
        nc = group.lattice().num_classes
        return self.b.BurnsideElement(
            group, [rng.randint(-2, 2) for _ in range(nc)])

    def cycle(self, c):
        rng = _rng(self.seed, "ring", c)
        ops = []
        for g in self.groups:
            subs = g.lattice().subgroups
            ops += [self._multiply(self._elem(rng, g), self._elem(rng, g))
                    for _ in range(2)]
            ops += [self._rk(self._elem(rng, g), k) for k in (0, 1, 2)]
            ops.append(self._round_trip(self._elem(rng, g)))
            ops.append(self._character(self._elem(rng, g)))
            for _ in range(2):
                ops.append(self._restrict(self._elem(rng, g), rng.choice(subs)))
                sub = rng.choice(subs)
                ops.append(self._induce(self._elem(rng, sub.as_group()), g))
        for i, x in enumerate(self.complexes):
            ops.append(self._simplicial(x))
            ops += [self._chi_k(i, x, k) for k in (0, 1, 2)]
        rng.shuffle(ops)
        return ops

    def _multiply(self, a, b):
        burnside = self.b

        def check(out):
            va, vb = burnside.marks_vector(a), burnside.marks_vector(b)
            return (burnside.multiply(b, a) == out and burnside.marks_vector(out)
                    == tuple(x * y for x, y in zip(va, vb)))
        return (lambda: burnside.multiply(a, b)), check

    def _rk(self, b, k):
        basis = self.basis_rk[id(b.group), k]
        expected = sum(a * v for a, v in zip(b.coeffs, basis))
        return (lambda: self.b.r_k(b, k)), (lambda out: out == expected)

    def _round_trip(self, b):
        ix = self.ix
        return ((lambda: ix.index_from_fixed_indices(
                    ix.fixed_indices_from_index(b))),
                (lambda out: out == b))

    def _character(self, b):
        burnside = self.b

        def check(out):
            return out.at_element(b.group.identity) == burnside.cardinality(b)
        return (lambda: burnside.permutation_character(b)), check

    def _restrict(self, b, sub):
        burnside = self.b
        return ((lambda: burnside.restrict(b, sub)),
                (lambda out: burnside.cardinality(out) == burnside.cardinality(b)))

    def _induce(self, b, group):
        burnside = self.b
        index = group.order // b.group.order

        def check(out):
            return burnside.cardinality(out) == index * burnside.cardinality(b)
        return (lambda: burnside.induce(b, group)), check

    def _simplicial(self, x):
        burnside = self.b
        euler = sum((-1) ** (len(s) - 1) for s in x.simplices)
        return ((lambda: self.gs.chi_G_simplicial(x)),
                (lambda out: burnside.cardinality(out) == euler))

    def _chi_k(self, i, x, k):
        expected = self.chi_k[i, k]
        return (lambda: self.gs.chi_k_direct(x, k)), (lambda out: out == expected)


# -- cli-cold --------------------------------------------------------------------

def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _zn(n):
    return {"kind": "diagonal", "phases": [[[1, n]]]}


def _label(n, d):
    """Canonical label of the order-d subgroup of Z/n: subgroups of a cyclic
    group are one per divisor, sorted by order."""
    return f"H{d}_{_divisors(n).index(d)}"


def _coeffs(pairs):
    return sorted(({"class": c, "a": a} for c, a in pairs),
                  key=lambda t: t["class"])


def _same_coeffs(obj, expected):
    return sorted(obj["coeffs"], key=lambda t: t["class"]) == expected


def cli_commands(rng):
    """One (argv, payload, check) per subcommand, with seeded parameters;
    every expected value is a known fact about Z/n or about Fermat and chain
    polynomials."""
    n = rng.randint(2, 12)
    divs = _divisors(n)
    top = _label(n, n)
    a, b = rng.randint(1, 5), rng.randint(1, 5)
    d = rng.choice(divs)
    m = rng.randint(1, 4)
    p, q = rng.randint(2, 6), rng.randint(2, 6)
    chain = [[rng.randint(2, 4), 1], [0, rng.randint(2, 4)]]
    e_and_g = [("H1_0", a), (top, b)]
    points = m * n
    cone_vertices = list(range(n + 1))
    cone_edges = [[i, n] for i in range(n)]
    return [
        (["group", "info"], _zn(n),
         lambda o: o["order"] == n and o["abelian"] is True
         and len(o["elements"]) == n),
        (["group", "lattice"], _zn(n),
         lambda o: [s["order"] for s in o["subgroups"]] == divs),
        # [G/e] * [G/e] = n [G/e] for Z/n
        (["burnside", "mul"],
         {"group": _zn(n), "a": {"coeffs": [{"class": "H1_0", "a": 1}]},
          "b": {"coeffs": [{"class": "H1_0", "a": 1}]}},
         lambda o: _same_coeffs(o, _coeffs([("H1_0", n)]))),
        # r_0 counts orbits
        (["burnside", "rk", "--k", "0"],
         {"group": _zn(n), "element": {"coeffs": _coeffs(e_and_g)}},
         lambda o: o["value"] == a + b),
        # [G/e] restricted to H of order d is (n/d) [H/e]
        (["burnside", "restrict"],
         {"group": _zn(n), "subgroup": _label(n, d),
          "element": {"coeffs": [{"class": "H1_0", "a": 1}]}},
         lambda o: _same_coeffs(o, _coeffs([("H1_0", n // d)]))),
        # a[G/G] is a points, all fixed; its character is constant
        (["burnside", "char"],
         {"group": _zn(n), "element": {"coeffs": [{"class": top, "a": a}]}},
         lambda o: [v["value"] for v in o["values"]] == [a] * n),
        # m free orbits of points: r_0 = m
        (["euler", "orbifold", "--k", "0"],
         {"group": _zn(n), "complex": {
             "vertices": list(range(points)),
             "simplices": [[v] for v in range(points)],
             "action": {"g0": [(v // n) * n + (v + 1) % n
                               for v in range(points)]}}},
         lambda o: o["value"] == m),
        # the cone over one free orbit: chi^G = [G/G], |X| = 1
        (["euler", "simplicial"],
         {"group": _zn(n), "complex": {
             "vertices": cone_vertices, "simplices": cone_edges,
             "action": {"g0": [(v + 1) % n for v in range(n)] + [n]}}},
         lambda o: o["cardinality"] == 1
         and _same_coeffs(o, _coeffs([(top, 1)]))),
        (["euler", "strat"],
         {"group": _zn(n), "strata": [{"class": c, "chi": x}
                                      for c, x in e_and_g]},
         lambda o: _same_coeffs(o, _coeffs(e_and_g))),
        # stratum index n*a on the free stratum is a [G/e]
        (["index", "from-strata"],
         {"group": _zn(n), "entries": [{"class": "H1_0", "ind": n * a}]},
         lambda o: _same_coeffs(o, _coeffs([("H1_0", a)]))),
        # a [G/e] has index a*n on V^e and 0 on every other fixed set
        (["index", "invert"],
         {"group": _zn(n), "per_subgroup": {
             _label(n, e): (a * n if e == 1 else 0) for e in divs}},
         lambda o: _same_coeffs(o, _coeffs([("H1_0", a)]))),
        (["index", "gsv"],
         {"group": _zn(n), "radial": {"coeffs": [{"class": "H1_0", "a": a}]},
          "chibar": {"coeffs": [{"class": top, "a": b}]}},
         lambda o: _same_coeffs(o, _coeffs(e_and_g))),
        # Fermat x^p + y^q: mu = (p-1)(q-1), G_f = Z/p x Z/q
        (["poly", "analyze"], {"E": [[p, 0], [0, q]]},
         lambda o: o["mu"] == (p - 1) * (q - 1) and o["group"]["order"] == p * q),
        (["poly", "index"], {"E": [[p, 0], [0, q]]},
         lambda o: o["cardinality"] == (p - 1) * (q - 1)),
        (["poly", "dual-check"], {"E": chain},
         lambda o: o["all_match"] is True and o["orbit_index"]["equal"] is True),
    ]


# A child that starts an interpreter without site and imports what the CLI
# needs from the standard library, and its time on the machine described in
# speed.py.  CLI times are scaled by it: they are mostly process start-up
# and imports, which the in-process probe follows poorly (over 10 seeds of
# 20 s it left an interquartile range of 12-20 % on op_p90_ms).
REFERENCE_CHILD = ["-S", "-c", "import argparse, fractions, json"]
REF_CHILD_S = 0.03


class CliCold(Workload):
    """One `python -m eqindex.cli` child per operation, one child at a time."""

    def __init__(self, seed, root, traced=False):
        self.seed = seed
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        if traced:
            self.prefix = [sys.executable,
                           os.path.join(os.path.dirname(__file__), "clitrace.py")]
        else:
            self.prefix = [sys.executable, "-m", "eqindex.cli"]
        self.traces = []
        self.child_s = []
        self.import_s = []
        # one untimed child, which also compiles the package on a fresh tree
        run, check = self._op(*cli_commands(_rng(seed, "cli-warm"))[0])
        if not check(run()):
            raise RuntimeError("cli warm-up command failed its check")
        self.traces.clear()
        self.child_s.clear()
        self.import_s.clear()

    def speed(self):
        return Speed(self._reference_child, REF_CHILD_S, every_s=0.4,
                     bucket_s=1.0)

    def _reference_child(self):
        subprocess.run([sys.executable] + REFERENCE_CHILD, check=True,
                       capture_output=True, cwd=self.root, env=self.env,
                       timeout=60)

    def cycle(self, c):
        ops = [self._op(*cmd) for cmd in cli_commands(_rng(self.seed, "cli", c))]
        _rng(self.seed, "cli-order", c).shuffle(ops)
        return ops

    def _op(self, argv, payload, check):
        text = json.dumps(payload)

        def run():
            t0 = perf_counter()
            proc = subprocess.run(self.prefix + argv, input=text,
                                  capture_output=True, text=True,
                                  cwd=self.root, env=self.env, timeout=60)
            self.child_s.append(perf_counter() - t0)
            if proc.stderr:
                last = proc.stderr.rstrip().rsplit("\n", 1)[-1]
                if last.startswith(TRACE_MARK):
                    trace = json.loads(last[len(TRACE_MARK):])
                    self.import_s.append(trace.pop("import_s"))
                    self.traces.append(trace)
            return proc.returncode, proc.stdout

        def checked(out):
            code, stdout = out
            return code == 0 and check(json.loads(stdout))
        return run, checked


WORKLOADS = {
    "duality-sweep": DualitySweep,
    "ring-ops": RingOps,
    "cli-cold": CliCold,
}
