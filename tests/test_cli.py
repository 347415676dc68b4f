import argparse
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eqindex import cli, jsonio
from eqindex.burnside import basis_element, one
from eqindex.errors import InputError
from eqindex.groups import build_group

S3_PRES = {"kind": "perm", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
Z6_PRES = {"kind": "diagonal", "phases": [[[1, 6]]]}
Z2_PRES = {"kind": "perm", "degree": 2, "generators": [[1, 0]]}


def run(capsys, argv, payload=None):
    argv = list(argv)
    if payload is not None:
        argv.append(json.dumps(payload))
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_group_info(capsys):
    code, out = run(capsys, ["group", "info"], S3_PRES)
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 6
    assert obj["abelian"] is False
    assert len(obj["elements"]) == 6


def test_group_lattice(capsys):
    code, out = run(capsys, ["group", "lattice"], Z6_PRES)
    obj = json.loads(out)
    assert code == 0
    assert [s["order"] for s in obj["subgroups"]] == [1, 2, 3, 6]
    assert obj["classes"][0]["label"] == "H1_0"
    assert obj["mu_sub"][0][3] == 1  # mu'(e, G) on the divisor lattice of 6


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_result_past_the_digit_limit_is_an_error_object(capsys, fmt):
    # a 3000-digit coefficient parses, but its square cannot be printed
    big = {"coeffs": [{"class": "H1_0", "a": int("7" * 3000)}]}
    code, out = run(capsys, ["burnside", "mul", "--format", fmt],
                    {"group": Z2_PRES, "a": big, "b": big})
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "OrderBoundError",
        "message": "result holds an integer past the limit of "
                   f"{sys.get_int_max_str_digits()} digits"}


def test_other_value_errors_still_propagate(monkeypatch):
    def failing(obj):
        raise ValueError("not a digit-limit error")
    monkeypatch.setattr(jsonio, "dumps", failing)
    with pytest.raises(ValueError, match="^not a digit-limit error$"):
        cli.main(["group", "info", json.dumps(Z2_PRES)])


def test_burnside_marks_and_mul(capsys):
    payload = {"group": S3_PRES,
               "a": {"coeffs": [{"class": "H2_1", "a": 1}]},
               "b": {"coeffs": [{"class": "H2_1", "a": 1}]}}
    code, out = run(capsys, ["burnside", "mul"], payload)
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"] == [{"a": 1, "class": "H1_0"}, {"a": 1, "class": "H2_1"}]

    code, out = run(capsys, ["burnside", "marks"], {"group": S3_PRES})
    obj = json.loads(out)
    assert obj["marks"][0] == [6, 0, 0, 0]


def test_burnside_rk(capsys):
    payload = {"group": S3_PRES,
               "element": {"coeffs": [{"class": "H3_4", "a": 1}]}}
    code, out = run(capsys, ["burnside", "rk", "--k", "1"], payload)
    assert code == 0
    assert json.loads(out) == {"k": 1, "value": 3}


def test_burnside_restrict_and_induce(capsys):
    payload = {"group": Z6_PRES, "subgroup": "H2_1",
               "element": {"coeffs": [{"class": "H3_2", "a": 1}]}}
    code, out = run(capsys, ["burnside", "restrict"], payload)
    obj = json.loads(out)
    assert obj["coeffs"] == [{"a": 1, "class": "H1_0"}]

    payload = {"group": Z6_PRES, "subgroup": "H2_1",
               "element": {"coeffs": [{"class": "H2_1", "a": 1}]}}
    code, out = run(capsys, ["burnside", "induce"], payload)
    obj = json.loads(out)
    assert obj["coeffs"] == [{"a": 1, "class": "H2_1"}]


def test_burnside_char(capsys):
    payload = {"group": S3_PRES,
               "element": {"coeffs": [{"class": "H2_1", "a": 1}]}}
    code, out = run(capsys, ["burnside", "char"], payload)
    obj = json.loads(out)
    assert sorted((v["size"], v["value"]) for v in obj["values"]) == \
        [(1, 3), (2, 0), (3, 1)]


def test_euler_strat(capsys):
    payload = {"group": Z6_PRES,
               "strata": [{"class": "H1_0", "chi": -1},
                          {"class": "H2_1", "chi": 1},
                          {"class": "H3_2", "chi": 1}]}
    code, out = run(capsys, ["euler", "strat"], payload)
    obj = json.loads(out)
    assert obj["coeffs"] == [{"a": -1, "class": "H1_0"},
                             {"a": 1, "class": "H2_1"},
                             {"a": 1, "class": "H3_2"}]


def test_euler_simplicial_and_orbifold(capsys):
    z2 = {"kind": "perm", "degree": 2, "generators": [[1, 0]]}
    payload = {"group": z2,
               "complex": {"vertices": [0, 1, 2, 3],
                           "simplices": [[0, 1], [1, 2], [2, 3], [3, 0]],
                           "action": {"g0": [0, 3, 2, 1]}}}
    code, out = run(capsys, ["euler", "simplicial"], payload)
    obj = json.loads(out)
    assert obj["coeffs"] == [{"a": -1, "class": "H1_0"}, {"a": 2, "class": "H2_1"}]
    assert obj["cardinality"] == 0

    code, out = run(capsys, ["euler", "orbifold", "--k", "1"], payload)
    assert json.loads(out) == {"k": 1, "value": 3}


def test_orbifold_k_beyond_the_bound_is_rejected_at_once(capsys):
    hexagon = {"vertices": list(range(6)),
               "simplices": [[i, (i + 1) % 6] for i in range(6)],
               "action": {"g0": [1, 2, 3, 4, 5, 0]}}
    start = time.perf_counter()
    code, out = run(capsys, ["euler", "orbifold", "--k", "1000000000"],
                    {"group": Z6_PRES, "complex": hexagon})
    assert time.perf_counter() - start < 5
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "OrderBoundError"


def test_index_pipeline(capsys):
    payload = {"group": Z6_PRES,
               "entries": [{"class": "H6_3", "ind": 1},
                           {"class": "H1_0", "ind": 6},
                           {"class": "H2_1", "ind": -3}]}
    code, out = run(capsys, ["index", "from-strata"], payload)
    obj = json.loads(out)
    assert obj["coeffs"] == [{"a": 1, "class": "H1_0"},
                             {"a": -1, "class": "H2_1"},
                             {"a": 1, "class": "H6_3"}]

    payload = {"group": Z6_PRES,
               "per_subgroup": {"H1_0": 1, "H2_1": 1, "H3_2": 1, "H6_3": 1}}
    code, out = run(capsys, ["index", "invert"], payload)
    obj = json.loads(out)
    assert obj["coeffs"] == [{"a": 1, "class": "H6_3"}]


def test_index_induce_and_ph_check(capsys):
    payload = {"group": Z6_PRES, "isotropy": "H2_1",
               "local": {"coeffs": [{"class": "H2_1", "a": 1}]}}
    code, out = run(capsys, ["index", "induce"], payload)
    obj = json.loads(out)
    assert obj["coeffs"] == [{"a": 1, "class": "H2_1"}]

    z2 = {"kind": "perm", "degree": 2, "generators": [[1, 0]]}
    payload = {"group": z2,
               "chi": {"coeffs": [{"class": "H2_1", "a": 2}]},
               "orbits": [{"isotropy": "H2_1",
                           "local": {"coeffs": [{"class": "H2_1", "a": 1}]}},
                          {"isotropy": "H2_1",
                           "local": {"coeffs": [{"class": "H2_1", "a": 1}]}}]}
    code, out = run(capsys, ["index", "ph-check"], payload)
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["discrepancy"]["coeffs"] == []


def test_index_gsv(capsys):
    payload = {"group": Z6_PRES,
               "radial": {"coeffs": [{"class": "H6_3", "a": 1},
                                     {"class": "H1_0", "a": 1},
                                     {"class": "H2_1", "a": -1}]},
               "chibar": {"coeffs": [{"class": "H6_3", "a": -1},
                                     {"class": "H1_0", "a": -1},
                                     {"class": "H2_1", "a": 1}]}}
    code, out = run(capsys, ["index", "gsv"], payload)
    obj = json.loads(out)
    assert obj["coeffs"] == []


def test_poly_analyze(capsys):
    code, out = run(capsys, ["poly", "analyze"], {"E": [[2, 1], [0, 3]]})
    obj = json.loads(out)
    assert obj["mu"] == 4
    assert obj["weights"] == [{"den": 3, "num": 1}, {"den": 3, "num": 1}]
    assert obj["group"]["order"] == 6
    assert obj["blocks"][0]["kind"] == "chain"


def test_poly_index(capsys):
    code, out = run(capsys, ["poly", "index"], {"E": [[2, 0], [0, 3]]})
    obj = json.loads(out)
    assert obj["cardinality"] == 2
    assert obj["index"]["coeffs"] == [{"a": 1, "class": "H1_0"},
                                      {"a": -1, "class": "H2_1"},
                                      {"a": -1, "class": "H3_2"},
                                      {"a": 1, "class": "H6_3"}]


def test_poly_dual_check(capsys):
    code, out = run(capsys, ["poly", "dual-check"], {"E": [[2, 1], [0, 3]]})
    obj = json.loads(out)
    assert obj["all_match"] is True
    assert obj["orbit_index"] == {"f": 1, "dual": 1, "equal": True}


def test_dual_check_names_the_transpose_when_only_it_is_invalid(capsys):
    # x y + y^3 is a valid germ; its transpose x + x y^3 has weight 0
    payload = {"E": [[1, 1], [0, 3]]}
    code, out = run(capsys, ["poly", "index"], payload)
    assert code == 0 and json.loads(out)["mu"] == 1
    code, out = run(capsys, ["poly", "dual-check"], payload)
    assert code == 1
    assert json.loads(out) == {"error": {
        "kind": "InvalidPolynomialError",
        "message": "transpose E^T: weight 0 outside (0, 1]; "
                   "not an invertible polynomial germ"}}


def test_output_deterministic(capsys):
    _, out1 = run(capsys, ["poly", "dual-check"], {"E": [[2, 1], [0, 3]]})
    _, out2 = run(capsys, ["poly", "dual-check"], {"E": [[2, 1], [0, 3]]})
    assert out1 == out2
    _, l1 = run(capsys, ["group", "lattice"], S3_PRES)
    _, l2 = run(capsys, ["group", "lattice"], S3_PRES)
    assert l1 == l2


def test_domain_error_is_structured(capsys):
    code, out = run(capsys, ["poly", "analyze"], {"E": [[1, 1], [1, 1]]})
    assert code == 1
    obj = json.loads(out)
    assert obj["error"]["kind"] == "InvalidPolynomialError"


def test_malformed_json_names_source(capsys):
    code = cli.main(["poly", "analyze", "{not json"])
    out = capsys.readouterr().out
    assert code == 1
    obj = json.loads(out)
    assert obj["error"]["kind"] == "InputError"
    assert "<inline>" in obj["error"]["message"]


def test_unknown_label_is_input_error(capsys):
    payload = {"group": Z6_PRES,
               "element": {"coeffs": [{"class": "H5_9", "a": 1}]}}
    code, out = run(capsys, ["burnside", "rk", "--k", "0"], payload)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "InputError"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["burnside", "frobnicate"])
    assert exc.value.code == 2


def test_empty_inline_payload_is_malformed_json(capsys, monkeypatch):
    # '' is the payload: stdin is not read
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"E": [[2]]}'))
    code = cli.main(["poly", "analyze", ""])
    obj = json.loads(capsys.readouterr().out)
    assert code == 1
    assert obj["error"]["kind"] == "InputError"
    assert obj["error"]["message"].startswith("malformed JSON in <inline>")


@pytest.mark.parametrize("argv, message", [
    (["--in", ""], "cannot read : "),
    (['{"E": [[2]]}', "--out", ""], "cannot write : "),
], ids=["in", "out"])
def test_empty_file_path_is_an_input_error(capsys, monkeypatch, argv,
                                           message):
    # '' names no file: stdin and stdout do not stand in for it
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"E": [[2]]}'))
    code = cli.main(["poly", "analyze", *argv])
    obj = json.loads(capsys.readouterr().out)
    assert code == 1
    assert obj["error"]["kind"] == "InputError"
    assert obj["error"]["message"].startswith(message)


@pytest.mark.parametrize("exists", [True, False])
def test_inline_payload_and_in_file_is_a_usage_error(capsys, tmp_path,
                                                     exists):
    path = tmp_path / "payload.json"
    if exists:
        path.write_text('{"E": [[3]]}')
    with pytest.raises(SystemExit) as exc:
        cli.main(["poly", "analyze", '{"E": [[2]]}', "--in", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(
        "error: an inline payload and --in cannot both be given\n")


def test_a_subcommand_builds_the_parsers_of_its_group_only(capsys,
                                                          monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out = run(capsys, ["poly", "index"], {"E": [[2, 0], [0, 3]]})
    assert code == 0 and json.loads(out)["order"] == 6
    # the top level, the 5 groups and poly's 3 subcommands
    assert len(built) == 9
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["nope"])
    assert len(built) == 1 + 5 + 19  # no group named: every parser


MALFORMED = {
    "perm-without-degree": (["group", "info"], {"kind": "perm"}),
    "zero-denominator": (["group", "info"],
                         {"kind": "diagonal", "phases": [[[1, 0]]]}),
    "table-not-a-matrix": (["group", "info"], {"kind": "table", "table": "ab"}),
    "negative-k": (["burnside", "rk", "--k", "-1"],
                   {"group": Z6_PRES, "element": {"coeffs": []}}),
    "coefficient-not-int": (["burnside", "rk"],
                            {"group": Z6_PRES, "element": {
                                "coeffs": [{"class": "H1_0", "a": "x"}]}}),
    "exponent-not-int": (["poly", "index"], {"E": [[2, "a"], [0, 3]]}),
    "exponent-float-or-numeric-string": (["poly", "analyze"],
                                         {"E": [[2.7, 0], [0, "3"]]}),
    "exponent-bool": (["poly", "analyze"], {"E": [[True, 0], [0, 3]]}),
    "phase-bool": (["group", "info"], {"kind": "diagonal", "phases": [[True]]}),
    "payload-not-object": (["poly", "analyze"], [[2, 0], [0, 3]]),
    "image-outside-vertices": (["euler", "simplicial"], {
        "group": Z6_PRES, "complex": {"vertices": [0], "simplices": [[0]],
                                      "action": {"g0": [7]}}}),
    # two generator positions name one element; g1 defaults to the identity
    "duplicate-generator-images": (["euler", "simplicial"], {
        "group": {"kind": "diagonal", "phases": [[[1, 2]], [[1, 2]]]},
        "complex": {"vertices": [0, 1], "simplices": [[0], [1]],
                    "action": {"g0": [1, 0]}}}),
    # the unknown-vertices message once sorted vertices of mixed types
    "simplex-mixed-types": (["euler", "simplicial"], {
        "group": Z6_PRES, "complex": {"vertices": [0, 1],
                                      "simplices": [[0, "a"]]}}),
    # README: "gN" names the N-th generator, in ASCII digits, once
    "generator-label-unicode-digit": (["euler", "simplicial"], {
        "group": {"kind": "diagonal", "phases": [[[1, 2]]]},
        "complex": {"vertices": [0, 1], "simplices": [[0], [1]],
                    "action": {"g\u00b2": [1, 0]}}}),
    "generator-label-twice": (["euler", "simplicial"], {
        "group": {"kind": "diagonal", "phases": [[[1, 2]]]},
        "complex": {"vertices": [0, 1], "simplices": [[0], [1]],
                    "action": {"g0": [1, 0], "g00": [0, 1]}}}),
    "generator-label-over-digit-limit": (["euler", "orbifold"], {
        "group": Z6_PRES, "complex": {"vertices": [0], "simplices": [[0]],
                                      "action": {"g" + "1" * 5000: [0]}}}),
    # vertices, simplices and each simplex are JSON lists; an action is an
    # object, absent or null
    "vertices-string": (["euler", "simplicial"], {
        "group": Z2_PRES, "complex": {"vertices": "ab",
                                      "simplices": [["a"], ["b"]]}}),
    "vertices-object": (["euler", "simplicial"], {
        "group": Z2_PRES, "complex": {"vertices": {"0": 1, "1": 2},
                                      "simplices": [["0"]]}}),
    "simplex-string": (["euler", "simplicial"], {
        "group": Z2_PRES, "complex": {"vertices": ["a", "b"],
                                      "simplices": ["ab"]}}),
    **{f"action-{name}": (["euler", "simplicial"], {
        "group": Z2_PRES, "complex": {"vertices": [0], "simplices": [[0]],
                                      "action": action}})
       for name, action in [("zero", 0), ("empty-string", ""),
                            ("false", False), ("empty-list", [])]},
    "simplex-with-null": (["euler", "orbifold"], {
        "group": Z6_PRES, "complex": {"vertices": [0, 1],
                                      "simplices": [[0, None]]}}),
    "removed-jobs-flag": (["poly", "analyze", "--jobs", "2"], {"E": [[2]]}),
    "removed-verbose-flag": (["poly", "analyze", "-v"], {"E": [[2]]}),
    "out-under-a-file": (["poly", "analyze", "--out",
                          os.path.join(os.devnull, "x.json")], {"E": [[2]]}),
    # a bytes payload is raw file content, read with --in
    "input-not-utf8": (["poly", "analyze"], b'{"E": [[2]]}\xff'),
    "integer-over-digit-limit": (["poly", "analyze"],
                                 b'{"E": [[' + b"7" * 5000 + b']]}'),
    "nesting-too-deep": (["poly", "analyze"],
                         b'{"E": ' + b"[" * 100000 + b"]" * 100000 + b"}"),
}


@pytest.mark.parametrize("argv, payload", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_malformed_input_exits_without_traceback(argv, payload, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if isinstance(payload, bytes):
        path = tmp_path / "payload.json"
        path.write_bytes(payload)
        argv = [*argv, "--in", str(path)]
    else:
        argv = [*argv, json.dumps(payload)]
    proc = subprocess.run(
        [sys.executable, "-m", "eqindex.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode in (1, 2), proc.stdout
    if proc.returncode == 1:
        assert "error" in json.loads(proc.stdout)
    assert "Traceback" not in proc.stderr


def test_tsv_format(capsys):
    code, out = run(capsys, ["burnside", "rk", "--k", "1", "--format", "tsv"],
                    {"group": S3_PRES,
                     "element": {"coeffs": [{"class": "H3_4", "a": 1}]}})
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["value"] == "3"


def test_file_roundtrip(tmp_path, capsys):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps({"E": [[2, 0], [0, 3]]}))
    code = cli.main(["poly", "analyze", "--in", str(src), "--out", str(dst)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(dst.read_text())["mu"] == 2


# -- jsonio round trips -------------------------------------------------------------

def test_element_json_roundtrip():
    g = build_group(S3_PRES)
    b = one(g) + 2 * basis_element(g, 1) - basis_element(g, 0)
    obj = jsonio.element_to_json(b)
    assert [c["class"] for c in obj["coeffs"]] == ["H1_0", "H2_1", "H6_5"]
    assert jsonio.element_from_json(g, obj) == b


def test_rational_json_conventions():
    from fractions import Fraction
    assert jsonio.rational_to_json(Fraction(-4, 6)) == {"num": -2, "den": 3}
    assert jsonio.rational_from_json({"num": 5, "den": 10}) == Fraction(1, 2)
    assert jsonio.rational_from_json(3) == Fraction(3)
    assert jsonio.rational_from_json([6, -4]) == Fraction(-3, 2)
    for bad, message in (("1/2", "not a rational"), (True, "not a rational"),
                         ({"num": 1}, "not a rational"),
                         ([1, 0], "zero denominator")):
        with pytest.raises(InputError, match=message):
            jsonio.rational_from_json(bad)


def test_group_json_roundtrip():
    g = jsonio.group_from_json(Z6_PRES)
    h = jsonio.group_from_json(jsonio.group_to_json(g))
    assert g.same_group(h)


# -- payload-shape fuzzing ------------------------------------------------------------

H2_1 = {"coeffs": [{"class": "H2_1", "a": 1}]}  # [G/H2_1], in S3 and in Z6
CIRCLE = {"vertices": [0, 1, 2, 3], "simplices": [[0, 1], [1, 2], [2, 3], [3, 0]],
          "action": {"g0": [0, 3, 2, 1]}}

# one accepted payload per subcommand, the starting points of the mutations
VALID_PAYLOADS = {
    ("group", "info"): S3_PRES,
    ("group", "lattice"): Z6_PRES,
    ("burnside", "marks"): {"group": S3_PRES},
    ("burnside", "mul"): {"group": S3_PRES, "a": H2_1, "b": H2_1},
    ("burnside", "restrict"): {"group": Z6_PRES, "subgroup": "H2_1",
                               "element": H2_1},
    ("burnside", "induce"): {"group": Z6_PRES, "subgroup": "H2_1",
                             "element": H2_1},
    ("burnside", "rk"): {"group": S3_PRES, "element": H2_1},
    ("burnside", "char"): {"group": S3_PRES, "element": H2_1},
    ("euler", "strat"): {"group": Z6_PRES,
                         "strata": [{"class": "H1_0", "chi": -1},
                                    {"class": "H2_1", "chi": 1}]},
    ("euler", "simplicial"): {"group": Z2_PRES, "complex": CIRCLE},
    ("euler", "orbifold"): {"group": Z2_PRES, "complex": CIRCLE},
    ("index", "from-strata"): {"group": Z6_PRES,
                               "entries": [{"class": "H6_3", "ind": 1},
                                           {"class": "H2_1", "ind": -3}]},
    ("index", "invert"): {"group": Z6_PRES,
                          "per_subgroup": {"H1_0": 1, "H2_1": 1,
                                           "H3_2": 1, "H6_3": 1}},
    ("index", "induce"): {"group": Z6_PRES, "isotropy": "H2_1",
                          "local": H2_1},
    ("index", "ph-check"): {"group": Z2_PRES,
                            "chi": {"coeffs": [{"class": "H2_1", "a": 2}]},
                            "orbits": [{"isotropy": "H2_1", "local": {
                                "coeffs": [{"class": "H2_1", "a": 1}]}}]},
    ("index", "gsv"): {"group": Z6_PRES, "radial": H2_1, "chibar": H2_1},
    ("poly", "analyze"): {"E": [[2, 1], [0, 3]]},
    ("poly", "index"): {"E": [[2, 0], [0, 3]]},
    ("poly", "dual-check"): {"E": [[2, 1], [0, 3]]},
}

# small leaves, so that a mutated payload stays a small computation
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6),
    st.floats(-2, 6, allow_nan=False), st.text(max_size=3),
    st.sampled_from(["H1_0", "H2_1", "H3_2", "perm", "diagonal", "table",
                     "coeffs", "class", "a", "num", "den"]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6)


def _mutate(value, data):
    """Replace one subtree of a JSON value, or drop one key of an object."""
    children = list(value) if isinstance(value, dict) else \
        list(range(len(value))) if isinstance(value, list) else []
    if not children or data.draw(st.integers(0, 3)) == 0:
        return data.draw(JSON_VALUES)
    key = data.draw(st.sampled_from(children))
    out = dict(value) if isinstance(value, dict) else list(value)
    if isinstance(out, dict) and data.draw(st.integers(0, 4)) == 0:
        del out[key]
    else:
        out[key] = _mutate(value[key], data)
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(VALID_PAYLOADS)), st.data())
def test_fuzzed_payloads_exit_cleanly(capsys, command, data):
    payload = _mutate(VALID_PAYLOADS[command], data)
    argv = [*command, json.dumps(payload)]
    if command in (("burnside", "rk"), ("euler", "orbifold")):
        argv += ["--k", str(data.draw(st.integers(-1, 2)))]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2)
    if code in (0, 1):
        obj = json.loads(out)
        assert (code == 1) == ("error" in obj), out


# -- input checks ---------------------------------------------------------------

def _complex(**fields):
    """A Z2 circle payload with some of its complex fields replaced."""
    return {"group": Z2_PRES, "complex": {**CIRCLE, **fields}}


_Z6_LABELS = {"H1_0": 1, "H2_1": 1, "H3_2": 1, "H6_3": 1}

# in-process: (argv, payload, error kind, a fragment of its message), one
# case per input check of jsonio, groups, gspace, indices and invertible
INPUT_CHECKS = {
    "rational-malformed": (["group", "info"], {
        "kind": "diagonal", "phases": [[[1, 2, 3]]]}, "InputError",
        "not a rational"),
    "rational-zero-denominator": (["group", "info"], {
        "kind": "diagonal", "phases": [[{"num": 1, "den": 0}]]}, "InputError",
        "zero denominator"),
    # a phase 1/q generates an element of order q, so MAX_ORDER bounds q
    "phase-denominator-over-bound": (["group", "info"], {
        "kind": "diagonal", "phases": [[[1, 1000003]]]}, "OrderBoundError",
        "generated order exceeds"),
    "phase-vectors-ragged": (["group", "info"], {
        "kind": "diagonal", "phases": [[[1, 2]], [[1, 2], [1, 3]]]},
        "GroupBuildError", "inconsistent dimension"),
    "perm-degree-0": (["group", "info"], {
        "kind": "perm", "degree": 0, "generators": []}, "GroupBuildError",
        "between 1 and"),
    "perm-degree-17": (["group", "info"], {
        "kind": "perm", "degree": 17, "generators": [list(range(17))]},
        "GroupBuildError", "between 1 and"),
    "perm-over-max-order": (["group", "info"], {"kind": "perm", "degree": 7,
                                 "generators": [[1, 0, 2, 3, 4, 5, 6],
                                                [1, 2, 3, 4, 5, 6, 0]]},
                            "OrderBoundError", "generated order exceeds"),
    "table-not-square": (["group", "info"], {
        "kind": "table", "table": [[0, 1]]}, "GroupBuildError",
        "square and non-empty"),
    "table-row-not-a-permutation": (["group", "info"], {
        "kind": "table", "table": [[0, 0], [1, 1]]}, "GroupBuildError",
        "rows must be permutations"),
    # x * y = -x - y mod 3: a Latin square with no identity
    "table-without-identity": (["group", "info"], {
        "kind": "table", "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]},
        "GroupBuildError", "no identity"),
    "unknown-subgroup-label": (["burnside", "restrict"], {
        "group": Z6_PRES, "subgroup": "H5_9", "element": H2_1},
        "InputError", "unknown subgroup label 'H5_9'"),
    "simplex-not-a-list": (["euler", "simplicial"], _complex(simplices=[1]),
                           "InputError", "bad complex payload"),
    "action-not-an-object": (["euler", "simplicial"], _complex(action=[0]),
                             "InputError", "must map generator labels"),
    "generator-label-malformed": (["euler", "simplicial"], _complex(
        action={"h0": [0, 1, 2, 3]}), "InputError", "unknown generator label"),
    "generator-label-out-of-range": (["euler", "simplicial"], _complex(
        action={"g1": [0, 1, 2, 3]}), "InputError", "out of range"),
    "generator-label-repeated": (["euler", "simplicial"], _complex(
        action={"g0": [0, 3, 2, 1], "g00": [0, 3, 2, 1]}), "InputError",
        "repeats g0"),
    "image-outside-vertices": (["euler", "simplicial"], _complex(
        action={"g0": [0, 3, 2, 7]}), "InputError", "leaves the vertex set"),
    "image-repeats-a-vertex": (["euler", "simplicial"], _complex(
        action={"g0": [0, 0, 2, 3]}), "InconsistentDataError",
        "action maps are not vertex permutations"),
    # equal under Python equality: merged into one vertex, then the action
    # read by position against the list that still held both
    "vertex-true-and-1": (["euler", "simplicial"], _complex(
        vertices=[True, 1], simplices=[[1]], action=None), "InputError",
        "vertex 1 repeats an earlier vertex"),
    "vertex-repeated-fixed-by-g0": (["euler", "simplicial"], _complex(
        vertices=[0, 0, 1], simplices=[[0], [1]], action={"g0": [1, 1, 0]}),
        "InputError", "vertex 0 repeats an earlier vertex"),
    "vertex-repeated-moved-by-g0": (["euler", "simplicial"], _complex(
        vertices=[0, 0, 1], simplices=[[0], [1]], action={"g0": [1, 0, 0]}),
        "InputError", "vertex 0 repeats an earlier vertex"),
    # an element of order 3 cannot swap two vertices
    "action-not-a-group-action": (["euler", "simplicial"], {
        "group": {"kind": "diagonal", "phases": [[[1, 3]]]},
        "complex": {"vertices": [0, 1, 2], "simplices": [[0], [1], [2]],
                    "action": {"g0": [1, 0, 2]}}},
        "InconsistentDataError", "generator images do not define a group"),
    "simplex-unknown-vertex": (["euler", "simplicial"], _complex(
        simplices=[[0, 9]]), "InconsistentDataError",
        "simplex [0, 9] uses unknown vertices"),
    "simplex-unknown-vertex-mixed-types": (["euler", "simplicial"], _complex(
        simplices=[[0, "a"]]), "InconsistentDataError", "unknown vertices"),
    "action-not-preserving-simplices": (["euler", "simplicial"], _complex(
        simplices=[[0, 1]], action={"g0": [0, 2, 1, 3]}),
        "InconsistentDataError", "does not preserve simplices"),
    "invert-without-per-subgroup": (["index", "invert"], {
        "group": Z6_PRES}, "InputError", "must contain 'per_subgroup'"),
    "invert-per-class-not-an-object": (["index", "invert"], {
        "group": Z6_PRES, "per_subgroup": _Z6_LABELS, "per_class": [1]},
        "InputError", "'per_class' must map"),
    "invert-per-class-unknown-label": (["index", "invert"], {
        "group": Z6_PRES, "per_subgroup": _Z6_LABELS,
        "per_class": {"H5_9": 1}}, "InputError", "unknown class label"),
    "invert-per-subgroup-not-covering": (["index", "invert"], {
        "group": Z6_PRES, "per_subgroup": {"H1_0": 1}},
        "InconsistentDataError", "per_subgroup must cover"),
    "invert-per-class-not-covering": (["index", "invert"], {
        "group": Z6_PRES, "per_subgroup": _Z6_LABELS,
        "per_class": {"H1_0": 1}}, "InconsistentDataError",
        "per_class must cover"),
    "orbits-not-a-list": (["index", "ph-check"], {
        "group": Z2_PRES, "chi": H2_1, "orbits": 5}, "InputError",
        "orbits must be a list"),
    "exponents-not-square": (["poly", "analyze"], {"E": [[2, 0], [3]]},
                             "InvalidPolynomialError", "must be square"),
    "exponent-negative": (["poly", "analyze"], {"E": [[2, 0], [0, -3]]},
                          "InvalidPolynomialError", "non-negative"),
    # both monomials read z_0 as their head
    "no-head-assignment": (["poly", "analyze"], {"E": [[2, 1], [3, 1]]},
                           "InvalidPolynomialError",
                           "not a disjoint union of Fermat/chain/loop atoms"),
}


@pytest.mark.parametrize("argv, payload, kind, message",
                         list(INPUT_CHECKS.values()), ids=list(INPUT_CHECKS))
def test_input_checks_exit_1_with_their_error_kind(capsys, argv, payload,
                                                   kind, message):
    code, out = run(capsys, argv, payload)
    error = json.loads(out)["error"]
    assert (code, error["kind"]) == (1, kind), error
    assert message in error["message"]


@pytest.mark.parametrize("argv, payload", [
    # a bare int is a rational; 1 is the identity phase
    (["group", "info"], {"kind": "diagonal",
                         "phases": [[{"num": 1, "den": 2}, 1]]}),
    (["group", "info"], {"kind": "table", "table": [[0, 1], [1, 0]]}),
    (["index", "invert"], {"group": Z6_PRES, "per_subgroup": _Z6_LABELS,
                           "per_class": _Z6_LABELS}),
])
def test_bare_int_phases_tables_and_per_class_data_are_accepted(
        capsys, argv, payload):
    code, out = run(capsys, argv, payload)
    assert code == 0 and "error" not in json.loads(out), out


def test_a_lattice_failure_keeps_its_kind_behind_a_subgroup_label(
        capsys, monkeypatch):
    # the lattice fails from the label lookup on, which once reported any
    # failure as an unknown label
    from eqindex.errors import OrderBoundError
    from eqindex.groups import FiniteGroup
    built, lookup, looked_up = FiniteGroup.lattice, jsonio.subgroup_from_json, []

    def subgroup_from_json(group, label):
        looked_up.append(label)
        return lookup(group, label)

    def lattice(self):
        if looked_up:
            raise OrderBoundError("lattice over the bound")
        return built(self)
    monkeypatch.setattr(jsonio, "subgroup_from_json", subgroup_from_json)
    monkeypatch.setattr(FiniteGroup, "lattice", lattice)
    code, out = run(capsys, ["burnside", "restrict"],
                    VALID_PAYLOADS[("burnside", "restrict")])
    assert looked_up == ["H2_1"]
    assert (code, json.loads(out)["error"]) == (1, {
        "kind": "OrderBoundError", "message": "lattice over the bound"})
