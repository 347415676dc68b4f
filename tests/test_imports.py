"""The package namespace and the import graph: `import eqindex` loads no
submodule, each exported name resolves on first access to its submodule's
object, and a CLI subcommand loads only the layers it calls."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import eqindex

# the exported names, grouped by the submodule that defines them
EXPORTS = {
    "burnside": [
        "BurnsideElement", "ClassFunction", "TableOfMarks", "basis_element",
        "cardinality", "induce", "marks_vector", "multiply", "one",
        "permutation_character", "r_k", "restrict", "table_of_marks", "zero"],
    "errors": [
        "EqIndexError", "GroupBuildError", "InconsistentDataError",
        "InputError", "IntegralityError", "InvalidPolynomialError",
        "NotASubgroupError", "OrderBoundError", "PairingError",
        "RegularityError"],
    "groups": [
        "FiniteGroup", "Subgroup", "SubgroupLattice", "build_group",
        "cyclic_group", "diagonal_group", "normalizer", "perm_group",
        "trivial_group"],
    "gspace": [
        "GSimplicialComplex", "StratifiedGData", "barycentric_subdivide",
        "build_complex", "chi_G_simplicial", "chi_G_stratified",
        "chi_k_direct", "fixed_subcomplex"],
    "indices": [
        "FixedSetIndexData", "PoincareHopfReport", "SingularOrbitDatum",
        "fixed_indices_from_index", "gsv_assemble_from_dims",
        "gsv_from_radial", "index_from_strata", "index_from_fixed_indices",
        "induce_orbit_index", "poincare_hopf_check"],
    "invertible": [
        "Atom", "DualityReport", "InvertiblePolynomial", "chi_G_milnor",
        "duality_check", "index_df", "milnor_number", "pairing",
        "restrict_to", "symmetry_group", "transpose", "validate"],
}


def test_all_lists_the_exports():
    assert eqindex.__all__ == [n for names in EXPORTS.values() for n in names]
    assert eqindex.__version__ == "0.1.0"


@pytest.mark.parametrize("module", list(EXPORTS))
def test_exported_names_are_the_submodule_objects(module):
    sub = importlib.import_module(f"eqindex.{module}")
    for name in EXPORTS[module]:
        assert getattr(eqindex, name) is getattr(sub, name), name


def test_star_import_binds_every_export():
    ns = {}
    exec("from eqindex import *", ns)
    ns.pop("__builtins__")
    assert sorted(ns) == sorted(eqindex.__all__)
    assert all(ns[name] is getattr(eqindex, name) for name in ns)


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        eqindex.no_such_name
    assert not hasattr(eqindex, "jsonio_dumps")


# -- what a fresh interpreter loads --------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(eqindex.__file__)))

# runs its argv through the CLI, then prints the exit code and sys.modules
CLI_CHILD = """
import json, sys
from eqindex import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

Z6 = {"kind": "diagonal", "phases": [[[1, 6]]]}
LAYERS = ["eqindex.burnside", "eqindex.gspace", "eqindex.indices",
          "eqindex.invertible"]


def child(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_eqindex_loads_no_submodule():
    before, after = child(
        "import json, sys, eqindex\n"
        "before = sorted(sys.modules)\n"
        "r_k = eqindex.r_k\n"
        "after = sorted(sys.modules)\n"
        "assert eqindex.gspace.chi_k_direct is eqindex.chi_k_direct\n"
        "print(json.dumps([before, after]))")
    assert [m for m in before if m.startswith("eqindex.")] == []
    # the first read of a name loads its submodule and what that imports
    assert {"eqindex.burnside", "eqindex.groups"} <= set(after)
    assert {"eqindex.gspace", "eqindex.invertible"}.isdisjoint(after)


# group-info, group-lattice, index-invert and poly-analyze print a group id:
# its SHA-1 comes from the built-in _sha1, so no child loads OpenSSL
@pytest.mark.parametrize("argv, payload, unloaded", [
    (["group", "info"], Z6, LAYERS + ["dataclasses", "_hashlib"]),
    (["group", "lattice"], Z6, LAYERS + ["dataclasses", "_hashlib"]),
    (["burnside", "rk", "--k", "1"],
     {"group": Z6, "element": {"coeffs": [{"class": "H1_0", "a": 1}]}},
     ["eqindex.gspace", "eqindex.indices", "eqindex.invertible", "hashlib",
      "_hashlib"]),
    (["index", "invert"],
     {"group": Z6, "per_subgroup": {"H1_0": 1, "H2_1": 1, "H3_2": 1,
                                    "H6_3": 1}},
     ["eqindex.gspace", "eqindex.invertible", "dataclasses", "_hashlib"]),
    (["poly", "analyze"], {"E": [[2, 1], [0, 3]]},
     ["eqindex.gspace", "eqindex.indices", "dataclasses", "_hashlib"]),
    (["poly", "dual-check"], {"E": [[2, 1], [0, 3]]},
     ["eqindex.gspace", "eqindex.indices", "dataclasses", "hashlib",
      "_hashlib"]),
], ids=["group-info", "group-lattice", "burnside-rk", "index-invert",
        "poly-analyze", "poly-dual-check"])
def test_subcommand_loads_only_its_layers(argv, payload, unloaded):
    code, modules = child(CLI_CHILD, *argv, json.dumps(payload))
    assert code == 0
    assert [m for m in unloaded if m in modules] == []


def test_ids_without_the_builtin_sha1_come_from_hashlib():
    # an interpreter built without _sha1 hashes through hashlib: same ids
    ids, modules = child(
        "import json, sys\n"
        "sys.modules['_sha1'] = None  # import _sha1 raises ImportError\n"
        "from fractions import Fraction\n"
        "from eqindex import cyclic_group, diagonal_group\n"
        "ids = [cyclic_group(6).fingerprint, diagonal_group(\n"
        "    [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]).fingerprint]\n"
        "print(json.dumps([ids, sorted(sys.modules)]))")
    assert ids == ["G6-8d4588526e", "G6-7616eab582"]
    assert "hashlib" in modules
