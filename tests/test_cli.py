import json
import os
import subprocess
import sys

import pytest

import gforge
from gforge.cli import RunConfig, run
from gforge.errors import PreconditionError

from conftest import DATA_DIR


def run_json(capsys, *argv):
    code = run([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def test_import_loads_no_numpy():
    # every module of the package, imported in a fresh interpreter
    code = ("import importlib, pkgutil, sys, gforge\n"
            "for mod in pkgutil.iter_modules(gforge.__path__):\n"
            "    if mod.name != '__main__':\n"
            "        importlib.import_module('gforge.' + mod.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    src = os.path.dirname(os.path.dirname(gforge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_run_config_validation():
    with pytest.raises(PreconditionError):
        RunConfig("classify", "x.json", budget=0)


def test_validate(capsys):
    code, rep = run_json(capsys, "validate", "--input", path("pauli.json"))
    assert code == 0
    assert rep == {"wellformed": True, "connected": True, "issues": []}


def test_validate_disconnected(capsys, tmp_path):
    doc = json.loads(open(path("pauli.json")).read())
    doc["subgroup"] = [0, 1]
    doc["cocycle"] = {"modulus": 2, "exps": [[0, 0], [0, 0]]}
    f = tmp_path / "disc.json"
    f.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "validate", "--input", str(f))
    assert code == 2 and rep["wellformed"] and not rep["connected"]
    # downstream commands refuse the same input
    code, rep = run_json(capsys, "classify", "--input", str(f))
    assert code == 2 and rep["error"] == "precondition"


def test_invariants_d6(capsys):
    code, rep = run_json(capsys, "invariants", "--input", path("d6.json"))
    assert code == 0
    assert rep["K"] == [0, 3] and rep["S"] == [0, 3] and rep["n"] == 1
    assert sorted(rep["N"]) == list(range(6))
    assert rep["field"]["n"] == 1


def test_invariants_swap(capsys):
    code, rep = run_json(capsys, "invariants", "--input", path("swap.json"))
    assert code == 0
    assert rep["n"] == 3 and rep["sBarImage"] == [1, 2]
    assert len(rep["S"]) == 18
    # minimal field is rational: the full unit group fixes it
    assert rep["field"]["n"] == 3 and sorted(rep["field"]["unit_generators"]) == [1, 2]


def test_classify(capsys):
    code, rep = run_json(capsys, "classify", "--input", path("pauli.json"))
    assert code == 0
    assert rep == {"divisionForm": True, "stronglyVP": True,
                   "essentiallyVP": True}
    code, rep = run_json(capsys, "classify", "--input", path("swap.json"))
    assert rep == {"divisionForm": True, "stronglyVP": False,
                   "essentiallyVP": True}


def test_normalize_and_iso(capsys):
    code, rep = run_json(capsys, "normalize", "--input", path("swap.json"))
    assert code == 0
    assert rep["theta"] == 1
    assert rep["presentation"]["subgroup"] == list(range(0, 18, 2))
    code, rep = run_json(capsys, "iso", "--input", path("swap.json"),
                         "--input2", path("swap_normal.json"))
    assert code == 0 and rep["isomorphic"] is True and rep["theta"] == 1
    code, rep = run_json(capsys, "iso", "--input", path("swap.json"))
    assert code == 2 and rep["error"] == "precondition"


def test_identity_command(capsys):
    code, rep = run_json(capsys, "identity", "--input",
                         path("identity_pauli.json"))
    assert code == 0
    assert rep["isIdentity"] is True and rep["searchSpace"] == 1
    code, rep = run_json(capsys, "identity", "--input",
                         path("identity_zero.json"))
    assert code == 0 and rep["isIdentity"] is True


def test_identity_budget(capsys, tmp_path):
    code, rep = run_json(capsys, "identity", "--input",
                         path("identity_pauli.json"), "--budget", "1")
    assert code == 0  # space is exactly 1
    doc = json.loads(open(path("identity_pauli.json")).read())
    # force a linearized two-variable scan past a unit budget
    doc["polynomial"] = {"vars": [{"id": "x", "degree": 1}],
                         "monomials": [{"coeff": 1, "seq": ["x", "x"]}]}
    f = tmp_path / "sq.json"
    f.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "identity", "--input", str(f))
    assert code == 0 and rep["linearized"] is True


def test_identity_search_mat3_s3(capsys):
    # s_3 on 3x3 matrices graded by C2: 125 assignments, the 8th is nonzero
    code, rep = run_json(capsys, "identity", "--input",
                         path("identity_mat3_s3.json"))
    assert code == 0
    assert rep["isIdentity"] is False and rep["searchSpace"] == 125
    assert rep["checked"] == 8 and rep["linearized"] is False
    assert rep["counterexample"] == [
        {"var": "x1", "h": 0, "i": 0, "j": 0},
        {"var": "x2", "h": 0, "i": 0, "j": 1},
        {"var": "x3", "h": 0, "i": 1, "j": 0}]
    one = {"modulus": 1, "coeffs": [[1, 1]]}
    assert rep["value"] == {"terms": [
        {"h": 0, "i": 0, "j": 0, "coeff": {"modulus": 1, "coeffs": [[2, 1]]}},
        {"h": 0, "i": 1, "j": 1, "coeff": one}]}


def test_identity_linearization_budget(capsys, tmp_path):
    doc = json.loads(open(path("identity_pauli.json")).read())
    doc["polynomial"] = {"vars": [{"id": "x", "degree": 1}],
                         "monomials": [{"coeff": 1, "seq": ["x"] * 8}]}
    f = tmp_path / "x8.json"
    f.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "identity", "--input", str(f), "--budget", "10")
    assert code == 3 and rep == {
        "error": "budget",
        "reason": "linearization needs 40320 monomials, over budget 10"}


def test_witness_command(capsys):
    code, rep = run_json(capsys, "witness", "--input", path("mat3.json"))
    assert code == 0
    assert rep["designated"] == [[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0],
                                 [0, 2, 2]]
    assert rep["z1Length"] == 15 and rep["p1Monomials"] == 120
    assert rep["admissibleCount"] == 24
    assert rep["e0"][0] == [0, 0, 0] and rep["e0"][5] == [0, 0, 2]
    assert all(s[4] == 4 for s in rep["admissible"])
    assert rep["basicValue"]["terms"][0]["h"] == 0


def test_witness_cap(capsys):
    code, rep = run_json(capsys, "witness", "--input", path("d6.json"))
    assert code == 3 and rep["error"] == "budget"
    assert "designated set of size 16" in rep["reason"]


def test_witness_rejects_two_representatives_of_one_coset(capsys, tmp_path):
    # C4 with H = {0, 2}: entries 0 and 2 are distinct members of one coset
    doc = {"group": {"order": 4, "table": [[(a + b) % 4 for b in range(4)]
                                            for a in range(4)]},
           "subgroup": [0, 2],
           "cocycle": {"modulus": 1, "exps": [[0, 0], [0, 0]]},
           "tuple": [0, 1, 2]}
    f = tmp_path / "c4.json"
    f.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "witness", "--input", str(f))
    assert code == 2 and rep == {
        "error": "precondition",
        "reason": "tuple uses two representatives of one coset"}


def test_h2_command(capsys):
    code, rep = run_json(capsys, "h2", "--input", path("h2_z2z2.json"))
    assert code == 0
    assert rep["count"] == 2 and len(rep["classes"]) == 2


def test_h2_cap_message_and_exit_code(capsys, monkeypatch):
    from gforge import twisted
    monkeypatch.setattr(twisted, "prod", lambda diag: 4097)
    code, rep = run_json(capsys, "h2", "--input", path("h2_z2z2.json"))
    assert code == 3 and rep == {
        "error": "budget", "reason": "4097 classes exceed the enumeration cap"}


def test_kform_command(capsys):
    code, rep = run_json(capsys, "kform", "--input", path("pauli.json"))
    assert code == 0
    assert rep["ok"] and rep["kDim"] == 4 and rep["generatorCount"] == 8
    code, rep = run_json(capsys, "kform", "--input", path("swap_normal.json"))
    assert code == 0
    assert rep["ok"] and rep["kDim"] == 36 and rep["generatorCount"] == 15
    assert rep["descentEnforced"] is True


def test_kform_rejects_unfactored(capsys):
    # the raw two-coset tuple is not factored along S
    code, rep = run_json(capsys, "kform", "--input", path("swap.json"))
    assert code == 2 and rep["error"] == "precondition"


def test_parse_errors(capsys, tmp_path):
    code, rep = run_json(capsys, "classify", "--input",
                         str(tmp_path / "missing.json"))
    assert code == 1 and rep["error"] == "parse"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, rep = run_json(capsys, "classify", "--input", str(bad))
    assert code == 1 and rep["error"] == "parse"
    extra = tmp_path / "extra.json"
    doc = json.loads(open(path("pauli.json")).read())
    doc["unexpected"] = 1
    extra.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "classify", "--input", str(extra))
    assert code == 1 and rep["error"] == "parse"


def test_text_mode_and_error_stream(capsys):
    code = run(["classify", "--input", path("pauli.json")])
    out = capsys.readouterr().out
    assert code == 0 and "divisionForm:  True" in out
    code = run(["iso", "--input", path("pauli.json")])
    captured = capsys.readouterr()
    assert code == 2 and "error (precondition)" in captured.err
    assert captured.out == ""


def test_deterministic_reports(capsys):
    outs = []
    for _ in range(2):
        run(["invariants", "--input", path("swap.json"), "--json"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def _write_variant(tmp_path, name, edit):
    doc = json.loads(open(path(name)).read())
    edit(doc)
    f = tmp_path / f"variant-{name}"
    f.write_text(json.dumps(doc))
    return str(f)


@pytest.mark.parametrize("command", ["validate", "invariants"])
def test_zero_cocycle_modulus_is_a_precondition(capsys, tmp_path, command):
    f = _write_variant(tmp_path, "pauli.json",
                       lambda doc: doc["cocycle"].update(modulus=0))
    code, rep = run_json(capsys, command, "--input", f)
    assert code == 2 and rep == {"error": "precondition",
                                 "reason": "modulus must be positive"}


def test_zero_h2_modulus_is_a_precondition(capsys, tmp_path):
    f = _write_variant(tmp_path, "h2_z2z2.json", lambda doc: doc.update(modulus=0))
    code, rep = run_json(capsys, "h2", "--input", f)
    assert code == 2 and rep == {"error": "precondition",
                                 "reason": "modulus must be positive"}
    code = run(["h2", "--input", f])
    assert code == 2
    assert capsys.readouterr().err == "error (precondition): modulus must be positive\n"


def test_ragged_group_table_is_a_precondition(capsys, tmp_path):
    def cut_row(doc):
        doc["group"]["table"][2] = doc["group"]["table"][2][:3]
    f = _write_variant(tmp_path, "pauli.json", cut_row)
    code, rep = run_json(capsys, "validate", "--input", f)
    assert code == 2 and rep == {"error": "precondition",
                                 "reason": "multiplication table must be square"}


def _huge_group_entry(doc):
    doc["group"]["table"][1][1] = 2 ** 70


def _huge_cocycle_modulus(doc):
    doc["cocycle"]["modulus"] = 2 ** 70
    doc["cocycle"]["exps"][1][2] = 2 ** 65


@pytest.mark.parametrize("edit, reason", [
    (_huge_group_entry, "table entries out of range"),
    (_huge_cocycle_modulus, "modulus must be below 2**62"),
], ids=["group-entry", "cocycle-modulus"])
def test_oversized_integers_are_a_precondition(capsys, tmp_path, edit, reason):
    f = _write_variant(tmp_path, "pauli.json", edit)
    code, rep = run_json(capsys, "validate", "--input", f)
    assert code == 2 and rep == {"error": "precondition", "reason": reason}


def test_cohomology_modulus_above_the_echelon_limit(capsys, tmp_path):
    # a random coboundary at modulus 2**40 + 15: the solve at
    # M = 2 * (2**40 + 15) is refused by the echelon's modulus bound
    m = 2 ** 40 + 15
    f = [0, 123456789012, 987654321098, 555555555555]

    def coboundary(doc):
        table = doc["group"]["table"]
        doc["cocycle"] = {"modulus": m, "exps": [
            [(f[i] + f[j] - f[table[i][j]]) % m for j in range(4)] for i in range(4)]}
    path_ = _write_variant(tmp_path, "pauli.json", coboundary)
    code, rep = run_json(capsys, "invariants", "--input", path_)
    assert code == 2 and rep == {"error": "precondition",
                                 "reason": "modulus must be below 2**31"}


def _zero_denominator(doc):
    doc["polynomial"]["monomials"][0]["coeff"] = [1, 0]


def test_identity_zero_denominator_is_a_parse_error(capsys, tmp_path):
    # a bare fraction [1, 0] is refused as the object form's [num, 0] is
    f = _write_variant(tmp_path, "identity_pauli.json", _zero_denominator)
    code, rep = run_json(capsys, "identity", "--input", f)
    assert code == 1 and rep == {"error": "parse", "reason": "scalar: zero denominator"}


@pytest.mark.parametrize("degree", [99, -1])
def test_identity_degree_outside_the_group_is_a_precondition(capsys, tmp_path, degree):
    def set_degree(doc):
        doc["polynomial"]["vars"][1]["degree"] = degree
    f = _write_variant(tmp_path, "identity_pauli.json", set_degree)
    code, rep = run_json(capsys, "identity", "--input", f)
    assert code == 2 and rep == {"error": "precondition",
                                 "reason": f"degree out of range: {degree}"}


def test_console_entry_point(tmp_path):
    # python -m gforge runs cli.main in a fresh interpreter: its stdout and
    # exit code are those of the in-process golden case
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": "src"}

    def gforge_main(*argv):
        return subprocess.run([sys.executable, "-m", "gforge", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
    argv = ["h2", "--input", "tests/data/h2_z2z2.json", "--json"]
    with open(os.path.join(root, "tests", "golden", "h2.json"), encoding="utf-8") as fh:
        golden = next(case for case in json.load(fh) if case["argv"] == argv)
    out = gforge_main(*argv)
    assert (out.returncode, out.stdout, out.stderr) == (0, golden["stdout"], "")
    bad = gforge_main("identity", "--input",
                      _write_variant(tmp_path, "identity_pauli.json", _zero_denominator), "--json")
    assert (bad.returncode, bad.stderr) == (1, "")
    assert json.loads(bad.stdout) == {"error": "parse", "reason": "scalar: zero denominator"}


def _setter(*keys, value):
    """An edit that sets doc[k1]...[kn] = value."""
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return edit


# CLI-reachable input errors of schemas and of the group names check, with
# the command, the corpus file each edits, the exit code and the reason
SCHEMA_ERRORS = {
    "int": ("validate", "pauli.json", _setter("cocycle", "modulus", value="2"), 1,
            "cocycle.modulus: expected an integer, got '2'"),
    "int-list": ("validate", "pauli.json", _setter("subgroup", value=3), 1,
                 "presentation.subgroup: expected a list"),
    "group-name": ("validate", "pauli.json", _setter("group", "name", value=4), 1,
                   "group.name: expected a string"),
    "group-table": ("validate", "pauli.json", _setter("group", "table", value=5), 1,
                    "group.table: expected a list of rows"),
    "group-generators": ("h2", "h2_z2z2.json",
                         _setter("group", value={"generators": 6, "degree": 2}), 1,
                         "group.generators: expected a list"),
    "scalar-coeffs": ("identity", "identity_pauli.json",
                      _setter("polynomial", "monomials", 0, "coeff", "coeffs", value=[[1]]),
                      1, "scalar.coeffs: entries are [num, den]"),
    "cocycle-exps": ("validate", "pauli.json", _setter("cocycle", "exps", value=7), 1,
                     "cocycle.exps: expected a list of rows"),
    "polynomial-lists": ("identity", "identity_pauli.json",
                         _setter("polynomial", "vars", value={}), 1,
                         "polynomial: vars and monomials are lists"),
    "monomial-seq": ("identity", "identity_pauli.json",
                     _setter("polynomial", "monomials", 1, "seq", value=["y", 8]), 1,
                     "polynomial.monomials: seq is a list of ids"),
    "group-names": ("validate", "pauli.json", _setter("group", "names", value=["e"]), 2,
                    "names length must equal group order"),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_ERRORS))
def test_input_errors_have_their_exit_code_and_reason(capsys, tmp_path, case):
    command, name, edit, exit_code, reason = SCHEMA_ERRORS[case]
    code, rep = run_json(capsys, command, "--input", _write_variant(tmp_path, name, edit))
    kind = "parse" if exit_code == 1 else "precondition"
    assert code == exit_code and rep == {"error": kind, "reason": reason}
