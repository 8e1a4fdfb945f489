"""JSON schemas for the package's input and report documents.

Parsers accept plain JSON values (the caller handles file IO) and raise
ParseError on structural problems; semantic violations surface as the
underlying domain errors.  Serializers emit plain JSON values; every
emitted document re-parses under the matching parser.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgElement, GradedAlgebra
from .cyclo import CycScalar, SubfieldDescriptor, phi
from .errors import ParseError
from .groups import Group, SubgroupData, from_permutations
from .identities import GradedPolynomial, IdentityReport
from .presentation import (ClassificationFlags, InvariantChain, NormalForm,
                           Presentation, ValidationReport)
from .twisted import Cocycle, make_cocycle


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _check_keys(obj, where: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")
    for key in required:
        _need(obj, key, where)


def _int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"{where}: expected an integer, got {x!r}")
    return x


def _int_list(x, where: str) -> list[int]:
    if not isinstance(x, list):
        raise ParseError(f"{where}: expected a list")
    return [_int(v, where) for v in x]


# groups: either an explicit table or permutation generators

def parse_group(obj) -> Group:
    _check_keys(obj, "group", (), ("order", "table", "generators", "degree",
                                   "names", "name"))
    names = obj.get("names")
    if names is not None and (not isinstance(names, list)
                              or not all(isinstance(s, str) for s in names)):
        raise ParseError("group.names: expected a list of strings")
    name = obj.get("name", "G")
    if not isinstance(name, str):
        raise ParseError("group.name: expected a string")
    if "table" in obj:
        table = obj["table"]
        if not isinstance(table, list):
            raise ParseError("group.table: expected a list of rows")
        rows = [_int_list(row, "group.table") for row in table]
        if "order" in obj and _int(obj["order"], "group.order") != len(rows):
            raise ParseError("group.order does not match the table size")
        return Group(rows, names=names, name=name)
    if "generators" in obj:
        degree = _int(_need(obj, "degree", "group"), "group.degree")
        gens = obj["generators"]
        if not isinstance(gens, list):
            raise ParseError("group.generators: expected a list")
        perms = [_int_list(g, "group.generators") for g in gens]
        for g in perms:
            if len(g) != degree:
                raise ParseError("group.generators: length must equal degree")
        return from_permutations(perms, names=names, name=name)
    raise ParseError("group: need either a table or generators")


def group_to_json(grp: Group) -> dict:
    return {
        "order": grp.order,
        "table": [[grp.mul(a, b) for b in range(grp.order)]
                  for a in range(grp.order)],
        "names": list(grp.names),
        "name": grp.name,
    }


# scalars and subfields

def parse_scalar(obj) -> CycScalar:
    if isinstance(obj, bool):
        raise ParseError("scalar: expected a number or an object")
    if isinstance(obj, int):
        return CycScalar.from_rational(obj)
    if isinstance(obj, list):
        if len(obj) != 2:
            raise ParseError("scalar: a bare fraction is [num, den]")
        num, den = (_int(x, "scalar") for x in obj)
        if den == 0:
            raise ParseError("scalar: zero denominator")
        return CycScalar.from_rational(Fraction(num, den))
    _check_keys(obj, "scalar", ("modulus", "coeffs"))
    m = _int(obj["modulus"], "scalar.modulus")
    if m < 1:
        raise ParseError("scalar.modulus: must be positive")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) != phi(m):
        raise ParseError(f"scalar.coeffs: need {phi(m)} entries at modulus {m}")
    vals = []
    for entry in coeffs:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError("scalar.coeffs: entries are [num, den]")
        num, den = (_int(x, "scalar.coeffs") for x in entry)
        if den == 0:
            raise ParseError("scalar.coeffs: zero denominator")
        vals.append(Fraction(num, den))
    return CycScalar(m, vals)


def scalar_to_json(x: CycScalar) -> dict:
    return {
        "modulus": x.modulus,
        "coeffs": [[c.numerator, c.denominator] for c in x.coeffs],
    }


def parse_subfield(obj) -> SubfieldDescriptor:
    _check_keys(obj, "subfield", ("n", "unit_generators"))
    n = _int(obj["n"], "subfield.n")
    gens = _int_list(obj["unit_generators"], "subfield.unit_generators")
    return SubfieldDescriptor.from_generators(n, gens)


def subfield_to_json(f: SubfieldDescriptor) -> dict:
    return {"n": f.n, "unit_generators": list(f.units)}


# cocycles and presentations

def parse_cocycle(sub: SubgroupData, obj) -> Cocycle:
    _check_keys(obj, "cocycle", ("modulus", "exps"))
    m = _int(obj["modulus"], "cocycle.modulus")
    exps = obj["exps"]
    if not isinstance(exps, list):
        raise ParseError("cocycle.exps: expected a list of rows")
    rows = [_int_list(row, "cocycle.exps") for row in exps]
    return make_cocycle(sub, m, rows)


def cocycle_to_json(alpha: Cocycle) -> dict:
    return {"modulus": alpha.modulus, "exps": [list(r) for r in alpha.exps]}


def parse_presentation(obj) -> Presentation:
    _check_keys(obj, "presentation", ("group", "subgroup", "cocycle", "tuple"))
    grp = parse_group(obj["group"])
    sub = SubgroupData(grp, _int_list(obj["subgroup"], "presentation.subgroup"))
    alpha = parse_cocycle(sub, obj["cocycle"])
    entries = _int_list(obj["tuple"], "presentation.tuple")
    return Presentation(grp, sub, alpha, entries)


def presentation_to_json(p: Presentation) -> dict:
    return {
        "group": group_to_json(p.group),
        "subgroup": list(p.sub.elements),
        "cocycle": cocycle_to_json(p.alpha),
        "tuple": list(p.entries),
    }


# polynomials and algebra elements

def parse_polynomial(obj) -> GradedPolynomial:
    _check_keys(obj, "polynomial", ("vars", "monomials"))
    if not isinstance(obj["vars"], list) or not isinstance(obj["monomials"], list):
        raise ParseError("polynomial: vars and monomials are lists")
    variables = []
    for v in obj["vars"]:
        _check_keys(v, "polynomial.vars", ("id", "degree"))
        if not isinstance(v["id"], str):
            raise ParseError("polynomial.vars: id must be a string")
        variables.append((v["id"], _int(v["degree"], "polynomial.vars")))
    monomials = []
    for mono in obj["monomials"]:
        _check_keys(mono, "polynomial.monomials", ("coeff", "seq"))
        seq = mono["seq"]
        if not isinstance(seq, list) or not all(isinstance(s, str) for s in seq):
            raise ParseError("polynomial.monomials: seq is a list of ids")
        monomials.append((parse_scalar(mono["coeff"]), tuple(seq)))
    return GradedPolynomial(tuple(variables), tuple(monomials))


def polynomial_to_json(p: GradedPolynomial) -> dict:
    return {
        "vars": [{"id": v, "degree": d} for v, d in p.variables],
        "monomials": [{"coeff": scalar_to_json(c), "seq": list(s)}
                      for c, s in p.monomials],
    }


def parse_element(algebra: GradedAlgebra, obj) -> AlgElement:
    _check_keys(obj, "element", ("terms",))
    if not isinstance(obj["terms"], list):
        raise ParseError("element.terms: expected a list")
    terms = {}
    for t in obj["terms"]:
        _check_keys(t, "element.terms", ("h", "i", "j", "coeff"))
        key = (_int(t["h"], "element.h"), _int(t["i"], "element.i"),
               _int(t["j"], "element.j"))
        coeff = parse_scalar(t["coeff"])
        terms[key] = terms[key] + coeff if key in terms else coeff
    return AlgElement(algebra, terms)


def element_to_json(x: AlgElement) -> dict:
    return {
        "terms": [{"h": h, "i": i, "j": j, "coeff": scalar_to_json(c)}
                  for (h, i, j), c in sorted(x.terms.items())],
    }


# report serializers

def validation_to_json(rep: ValidationReport) -> dict:
    return {
        "wellformed": rep.wellformed,
        "connected": rep.connected,
        "issues": list(rep.issues),
    }


def chain_to_json(chain: InvariantChain) -> dict:
    return {
        "K": list(chain.K),
        "N": list(chain.N),
        "S": list(chain.S),
        "n": chain.n,
        "imageStable": chain.image_stable,
        "wordBound": chain.word_bound,
        "sCharacters": [[s, j] for s, j in chain.s_characters],
        "sBarImage": list(chain.sbar_image),
        "field": subfield_to_json(chain.field),
    }


def flags_to_json(flags: ClassificationFlags) -> dict:
    return {
        "divisionForm": flags.division_form,
        "stronglyVP": flags.strongly_vp,
        "essentiallyVP": flags.essentially_vp,
    }


def normal_form_to_json(nf: NormalForm) -> dict:
    return {
        "presentation": presentation_to_json(nf.presentation),
        "theta": nf.theta,
        "transversalFactor": list(nf.transversal_factor),
        "coreFactor": list(nf.core_factor),
        "invariants": chain_to_json(nf.chain),
    }


def identity_report_to_json(rep: IdentityReport) -> dict:
    counter = None
    if rep.counterexample is not None:
        counter = [{"var": v, "h": h, "i": i, "j": j}
                   for v, (h, i, j) in sorted(rep.counterexample.items())]
    return {
        "isIdentity": rep.identity,
        "searchSpace": rep.search_space,
        "checked": rep.checked,
        "linearized": rep.linearized,
        "counterexample": counter,
        "value": None if rep.value is None else element_to_json(rep.value),
    }
