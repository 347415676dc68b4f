"""Spans around the public boundary functions of eqindex, recorded from outside.

`Tracer.install()` replaces each function in `BOUNDARY` by a wrapper, in every
module that binds the name (several modules import names directly, e.g.
`invertible` binds `r_k`, `one` and `build_group`).  Class entries wrap the
constructor or the method on the class itself.  A wrapper records calls and
self time (its span minus the spans of traced calls made inside it) while
the tracer is on, and is a plain pass-through otherwise, so the benchmark's
own correctness checks are never counted.

Cache hit ratios are observed from outside: a call to a cached function is a
hit when it returns the very object an earlier call with the same arguments
returned.
"""

import functools
import sys
import weakref
from time import perf_counter

# (module, qualified name) of every traced boundary; a class name means its
# constructor.  These names, with `.calls` and `.self_s`, are the per-layer
# metrics (except `groups.FiniteGroup.calls`, reported as `groups.groups_built`).
BOUNDARY = [
    ("groups", "build_group"),
    ("groups", "FiniteGroup"),
    ("groups", "FiniteGroup.lattice"),
    ("groups", "Subgroup.as_group"),
    ("groups", "SubgroupLattice"),
    ("burnside", "TableOfMarks"),
    ("burnside", "table_of_marks"),
    ("burnside", "commuting_class_counts"),
    ("burnside", "marks_vector"),
    ("burnside", "element_from_marks"),
    ("burnside", "multiply"),
    ("burnside", "restrict"),
    ("burnside", "induce"),
    ("burnside", "r_k"),
    ("burnside", "cardinality"),
    ("burnside", "permutation_character"),
    ("gspace", "build_complex"),
    ("gspace", "chi_G_stratified"),
    ("gspace", "chi_G_simplicial"),
    ("gspace", "fixed_subcomplex"),
    ("gspace", "chi_k_direct"),
    ("indices", "fixed_indices_from_index"),
    ("indices", "index_from_fixed_indices"),
    ("indices", "index_from_strata"),
    ("indices", "gsv_from_radial"),
    ("invertible", "validate"),
    ("invertible", "det_int"),
    ("invertible", "solve_exact"),
    ("invertible", "transpose"),
    ("invertible", "milnor_number"),
    ("invertible", "restrict_to"),
    ("invertible", "symmetry_group"),
    ("invertible", "pairing_matrix"),
    ("invertible", "chi_G_milnor"),
    ("invertible", "index_df"),
    ("invertible", "duality_check"),
    ("jsonio", "group_from_json"),
    ("jsonio", "element_from_json"),
    ("jsonio", "element_to_json"),
    ("jsonio", "lattice_to_json"),
    ("jsonio", "complex_from_json"),
    ("jsonio", "polynomial_from_json"),
    ("jsonio", "duality_report_to_json"),
    ("jsonio", "dumps"),
    ("cli", "main"),
]

# prefix of the stderr line on which a traced CLI child reports its spans
TRACE_MARK = "PERFBENCH-TRACE "

# cached boundary -> the traced name whose hit ratio is reported
CACHED = ("groups.FiniteGroup.lattice", "burnside.table_of_marks",
          "burnside.commuting_class_counts")


def span_names():
    return [f"{mod}.{name}" for mod, name in BOUNDARY]


class Tracer:
    def __init__(self):
        self.on = False
        self.stats = {name: [0, 0.0] for name in span_names()}  # calls, self
        self.hits = {name: 0 for name in CACHED}
        self.groups_built = 0
        self.subgroups_enumerated = 0
        self.max_order = 0
        self._stack = []
        self._seen = {name: weakref.WeakKeyDictionary() for name in CACHED}

    def _wrap(self, name, fn, after=None):
        stats = self.stats[name]
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, out)
            return out

        return traced

    def _hit_counter(self, name):
        seen = self._seen[name]
        hits = self.hits

        def after(args, out):
            memo = seen.setdefault(args[0], {})
            rest = args[1:]
            prev = memo.get(rest)
            if prev is not None and (prev() if isinstance(prev, weakref.ref)
                                     else prev) is out:
                hits[name] += 1
            try:
                memo[rest] = weakref.ref(out)
            except TypeError:  # tuples cannot be weakly referenced
                memo[rest] = out
        return after

    def _after_group(self, args, out):
        self.groups_built += 1
        self.max_order = max(self.max_order, args[0].order)

    def _after_lattice(self, args, out):
        self.subgroups_enumerated += len(args[0].subgroups)

    def install(self):
        """Wrap every boundary of the loaded eqindex modules, in every loaded
        module that binds it."""
        special = {"groups.FiniteGroup": self._after_group,
                   "groups.SubgroupLattice": self._after_lattice}
        for name in CACHED:
            special[name] = self._hit_counter(name)
        for mod, qual in BOUNDARY:
            name = f"{mod}.{qual}"
            module = sys.modules.get(f"eqindex.{mod}")
            if module is None:
                continue
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr),
                                                special.get(name)))
                continue
            obj = getattr(module, attr)
            if isinstance(obj, type):
                obj.__init__ = self._wrap(name, obj.__init__, special.get(name))
                continue
            wrapped = self._wrap(name, obj, special.get(name))
            for other in list(sys.modules.values()):
                ns = getattr(other, "__dict__", None)
                if ns is None:
                    continue
                for key, value in list(ns.items()):
                    if value is obj:
                        setattr(other, key, wrapped)

    def snapshot(self) -> dict:
        return {"stats": self.stats, "hits": self.hits,
                "groups_built": self.groups_built,
                "subgroups_enumerated": self.subgroups_enumerated,
                "max_order": self.max_order}


def merge(snapshots) -> dict:
    """Sum the counters of several snapshots (e.g. one per CLI child)."""
    out = Tracer().snapshot()
    for snap in snapshots:
        for name, (calls, self_s) in snap["stats"].items():
            acc = out["stats"][name]
            acc[0] += calls
            acc[1] += self_s
        for name, hits in snap["hits"].items():
            out["hits"][name] += hits
        out["groups_built"] += snap["groups_built"]
        out["subgroups_enumerated"] += snap["subgroups_enumerated"]
        out["max_order"] = max(out["max_order"], snap["max_order"])
    return out
