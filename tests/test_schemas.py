import json
from fractions import Fraction

import pytest

from gforge.algebra import GradedAlgebra
from gforge.cyclo import CycScalar, as_cyc
from gforge.errors import ParseError
from gforge.groups import from_permutations
from gforge.identities import GradedPolynomial, identity_report
from gforge.presentation import (classify, compute_KNS,
                                 normalize_with_details,
                                 validate_presentation)
from gforge.schemas import (chain_to_json, element_to_json, flags_to_json,
                            group_to_json, identity_report_to_json,
                            normal_form_to_json, parse_element, parse_group,
                            parse_polynomial, parse_presentation,
                            parse_scalar, parse_subfield,
                            polynomial_to_json, presentation_to_json,
                            scalar_to_json, subfield_to_json,
                            validation_to_json)


def test_group_round_trip(p_d6):
    grp = p_d6.group
    doc = group_to_json(grp)
    back = parse_group(doc)
    assert back.order == grp.order
    assert all(back.mul(a, b) == grp.mul(a, b)
               for a in range(6) for b in range(6))
    assert back.names == grp.names


def test_group_from_generators():
    s3 = from_permutations([[1, 0, 2], [1, 2, 0]])
    doc = {"generators": [[1, 0, 2], [1, 2, 0]], "degree": 3}
    back = parse_group(doc)
    assert back.order == s3.order == 6


def test_group_errors():
    with pytest.raises(ParseError):
        parse_group({"order": 3, "table": [[0, 1], [1, 0]]})
    with pytest.raises(ParseError):
        parse_group({"table": [[0, 1], [1, 0]], "extra": 1})
    with pytest.raises(ParseError):
        parse_group({"order": 2})
    with pytest.raises(ParseError):
        parse_group({"table": [[0, 1], [1, 0]], "names": [1, 2]})
    with pytest.raises(ParseError):
        parse_group({"generators": [[1, 0, 2]], "degree": 4})


def test_scalar_forms():
    assert parse_scalar(3) == as_cyc(3)
    assert parse_scalar([1, 2]) == as_cyc(Fraction(1, 2))
    z3 = CycScalar.from_root(3, 1)
    assert parse_scalar(scalar_to_json(z3)) == z3
    mixed = z3 + as_cyc(Fraction(2, 5))
    assert parse_scalar(scalar_to_json(mixed)) == mixed
    with pytest.raises(ParseError):
        parse_scalar(True)
    with pytest.raises(ParseError):
        parse_scalar([1, 2, 3])
    with pytest.raises(ParseError, match="^scalar: zero denominator$"):
        parse_scalar([1, 0])
    with pytest.raises(ParseError):
        parse_scalar({"modulus": 3, "coeffs": [[1, 1]]})  # need phi(3) = 2
    with pytest.raises(ParseError):
        parse_scalar({"modulus": 3, "coeffs": [[1, 0], [0, 1]]})
    with pytest.raises(ParseError):
        parse_scalar({"modulus": 0, "coeffs": []})
    with pytest.raises(ParseError):
        parse_scalar("1")


def test_subfield_round_trip(p_inner):
    chain = compute_KNS(p_inner)
    doc = subfield_to_json(chain.field)
    assert parse_subfield(doc) == chain.field
    with pytest.raises(ParseError):
        parse_subfield({"n": 3})


def test_presentation_round_trip(corpus):
    for p in corpus.values():
        doc = presentation_to_json(p)
        # survives a JSON encode and decode cycle
        back = parse_presentation(json.loads(json.dumps(doc)))
        assert back.sub.elements == p.sub.elements
        assert back.alpha.exps == p.alpha.exps
        assert back.entries == p.entries
        assert compute_KNS(back).n == compute_KNS(p).n
    with pytest.raises(ParseError):
        parse_presentation({"group": group_to_json(p.group)})


def test_polynomial_round_trip():
    p = GradedPolynomial((("x", 1), ("y", 2)),
                         ((1, ("x", "y")), (CycScalar.from_root(4, 1), ("y", "x"))))
    back = parse_polynomial(json.loads(json.dumps(polynomial_to_json(p))))
    assert back == p
    with pytest.raises(ParseError):
        parse_polynomial({"vars": [{"id": "x", "degree": 1}]})
    with pytest.raises(ParseError):
        parse_polynomial({"vars": [{"id": 1, "degree": 1}], "monomials": []})
    with pytest.raises(ParseError):
        parse_polynomial({"vars": [], "monomials": [{"coeff": 1}]})


def test_element_round_trip(algebras):
    a = algebras["pauli"]
    x = a.element({(1, 0, 0): Fraction(2, 3), (2, 0, 0): -1})
    back = parse_element(a, json.loads(json.dumps(element_to_json(x))))
    assert back == x
    with pytest.raises(ParseError):
        parse_element(a, {"terms": [{"h": 0, "i": 0, "j": 0}]})
    # no CLI command reads an element, so this check is reached only here
    with pytest.raises(ParseError, match=r"^element\.terms: expected a list$"):
        parse_element(a, {"terms": {}})


def test_report_serializers(p_pauli, p_d6):
    val = validation_to_json(validate_presentation(p_pauli))
    assert val == {"wellformed": True, "connected": True, "issues": []}
    flags = flags_to_json(classify(p_pauli))
    assert flags == {"divisionForm": True, "stronglyVP": True,
                     "essentiallyVP": True}
    chain = chain_to_json(compute_KNS(p_pauli))
    assert chain["n"] == 2 and chain["sBarImage"] == [1]
    assert set(chain) == {"K", "N", "S", "n", "imageStable", "wordBound",
                          "sCharacters", "sBarImage", "field"}
    nf = normal_form_to_json(normalize_with_details(p_d6))
    assert nf["transversalFactor"] == [0, 3]
    assert set(nf) == {"presentation", "theta", "transversalFactor",
                       "coreFactor", "invariants"}
    json.dumps(nf)


def test_identity_report_serialization(algebras):
    a = algebras["pauli"]
    p_minus = GradedPolynomial((("x", 1), ("y", 2)),
                               ((1, ("x", "y")), (-1, ("y", "x"))))
    doc = identity_report_to_json(identity_report(p_minus, a))
    assert doc["isIdentity"] is False and doc["searchSpace"] == 1
    assert doc["counterexample"] == [{"var": "x", "h": 1, "i": 0, "j": 0},
                                     {"var": "y", "h": 2, "i": 0, "j": 0}]
    assert doc["value"]["terms"]
    json.dumps(doc)
    p_plus = GradedPolynomial((("x", 1), ("y", 2)),
                              ((1, ("x", "y")), (1, ("y", "x"))))
    doc2 = identity_report_to_json(identity_report(p_plus, a))
    assert doc2["isIdentity"] is True and doc2["counterexample"] is None
