"""Command-line surface.

Commands take JSON input files and emit a human-readable summary or, with
--json, a deterministic JSON report (sorted keys, fixed indentation).
Exit codes: 0 success, 1 parse error, 2 precondition violation, 3 cap or
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .algebra import GradedAlgebra, build_k_form
from .config import CAPS
from .errors import (BudgetExceeded, CapExceeded, GForgeError, ParseError,
                     PreconditionError)
from .identities import build_witness, evaluate, identity_report, nonvanishing_set
from .presentation import (classify, compute_KNS, iso_witness,
                           normalize_with_details, validate_presentation)
from .groups import SubgroupData
from .twisted import h2_classes
from . import schemas


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: str
    input2: str | None = None
    budget: int | None = None

    def __post_init__(self):
        if self.budget is not None and self.budget < 1:
            raise PreconditionError("budget must be at least 1")


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def _presentation_from(path: str):
    return schemas.parse_presentation(_load(path))


def _require_valid(p):
    if not validate_presentation(p).connected:
        raise PreconditionError("invalid presentation: disconnected grading")
    return p


def _checked_presentation(path: str):
    return _require_valid(_presentation_from(path))


def _triple(t) -> list:
    return [t[0], t[1], t[2]]


def cmd_validate(cfg: RunConfig):
    p = _presentation_from(cfg.input)
    rep = validate_presentation(p)
    report = schemas.validation_to_json(rep)
    code = 0 if rep.connected else 2
    lines = [f"wellformed: {rep.wellformed}", f"connected:  {rep.connected}"]
    return code, report, lines


def cmd_normalize(cfg: RunConfig):
    p = _checked_presentation(cfg.input)
    nf = normalize_with_details(p)
    report = schemas.normal_form_to_json(nf)
    lines = [
        f"theta: {nf.theta}",
        f"tuple: {list(nf.presentation.entries)}",
        f"subgroup: {list(nf.presentation.sub.elements)}",
    ]
    return 0, report, lines


def cmd_invariants(cfg: RunConfig):
    p = _checked_presentation(cfg.input)
    chain = compute_KNS(p)
    report = schemas.chain_to_json(chain)
    field = chain.field
    lines = [
        f"K: {list(chain.K)}",
        f"N: {list(chain.N)}",
        f"S: {list(chain.S)}",
        f"n: {chain.n} (image stable: {chain.image_stable}, word bound {chain.word_bound})",
        f"k: fixed field of Q(zeta_{field.n}) under units {list(field.units)}",
        f"sBar: {list(chain.sbar_image)}",
    ]
    return 0, report, lines


def cmd_classify(cfg: RunConfig):
    p = _checked_presentation(cfg.input)
    flags = classify(p)
    report = schemas.flags_to_json(flags)
    lines = [
        f"divisionForm:  {flags.division_form}",
        f"stronglyVP:    {flags.strongly_vp}",
        f"essentiallyVP: {flags.essentially_vp}",
    ]
    return 0, report, lines


def cmd_iso(cfg: RunConfig):
    if cfg.input2 is None:
        raise PreconditionError("iso needs --input2")
    p1 = _checked_presentation(cfg.input)
    p2 = _checked_presentation(cfg.input2)
    theta = iso_witness(p1, p2)
    report = {"isomorphic": theta is not None, "theta": theta}
    lines = [f"isomorphic: {theta is not None}"]
    if theta is not None:
        lines.append(f"theta: {theta}")
    return 0, report, lines


def cmd_identity(cfg: RunConfig):
    doc = _load(cfg.input)
    schemas._check_keys(doc, "identity input", ("presentation", "polynomial"))
    p = _require_valid(schemas.parse_presentation(doc["presentation"]))
    poly = schemas.parse_polynomial(doc["polynomial"])
    algebra = GradedAlgebra(p)
    result = identity_report(poly, algebra, budget=cfg.budget)
    report = schemas.identity_report_to_json(result)
    lines = [
        f"isIdentity: {result.identity}",
        f"searchSpace: {result.search_space} (checked {result.checked},"
        f" linearized: {result.linearized})",
    ]
    if result.counterexample is not None:
        assign = ", ".join(f"{v} -> {tuple(t)}"
                           for v, t in sorted(result.counterexample.items()))
        lines.append(f"counterexample: {assign}")
    return 0, report, lines


def cmd_witness(cfg: RunConfig):
    p = _checked_presentation(cfg.input)
    algebra = GradedAlgebra(p)
    bundle = build_witness(algebra)
    admissible = sorted(nonvanishing_set(bundle, budget=cfg.budget))
    basic_value = evaluate(bundle.z1, algebra, bundle.basic)
    x_triples = [bundle.e1[pos] for pos in bundle.designated]
    report = {
        "designated": [_triple(t) for t in x_triples],
        "frames": [_triple(bundle.e1[pos]) for pos in bundle.frames],
        "bridges": [_triple(bundle.e1[pos]) for pos in bundle.bridges],
        "e0": [_triple(t) for t in bundle.e0],
        "z1Length": len(bundle.e1),
        "p1Monomials": len(bundle.p1.monomials),
        "basicValue": schemas.element_to_json(basic_value),
        "admissible": [list(s) for s in admissible],
        "admissibleCount": len(admissible),
    }
    lines = [
        f"designated: {[tuple(t) for t in x_triples]}",
        f"walk length: {len(bundle.e1)} ({len(bundle.p1.monomials)} alternated monomials)",
        f"admissible permutations: {len(admissible)} of"
        f" {len(x_triples)}! candidates",
    ]
    return 0, report, lines


def cmd_h2(cfg: RunConfig):
    doc = _load(cfg.input)
    schemas._check_keys(doc, "h2 input", ("group", "subgroup", "modulus"))
    grp = schemas.parse_group(doc["group"])
    sub = SubgroupData(grp, schemas._int_list(doc["subgroup"], "h2.subgroup"))
    modulus = schemas._int(doc["modulus"], "h2.modulus")
    classes = h2_classes(sub, modulus)
    report = {
        "count": len(classes),
        "classes": [schemas.cocycle_to_json(c) for c in classes],
    }
    lines = [f"classes: {len(classes)}"]
    return 0, report, lines


def cmd_kform(cfg: RunConfig):
    p = _checked_presentation(cfg.input)
    res = build_k_form(p)
    rep = res.report
    report = {
        "mode": rep.mode,
        "kDim": rep.k_dim,
        "expectedDim": rep.expected_dim,
        "fSpanFull": rep.f_span_full,
        "slotUnits": list(rep.slot_units),
        "descentEnforced": rep.descent_enforced,
        "ok": rep.ok,
        "field": schemas.subfield_to_json(res.field),
        "generatorCount": len(res.generators),
        "labels": list(res.labels),
    }
    lines = [
        f"mode: {rep.mode} (descent enforced: {rep.descent_enforced})",
        f"k-dim: {rep.k_dim} (expected {rep.expected_dim},"
        f" F-span full: {rep.f_span_full})",
        f"ok: {rep.ok}",
        f"generators: {len(res.generators)}",
    ]
    return 0, report, lines


COMMANDS = {
    "validate": cmd_validate,
    "normalize": cmd_normalize,
    "invariants": cmd_invariants,
    "classify": cmd_classify,
    "iso": cmd_iso,
    "identity": cmd_identity,
    "witness": cmd_witness,
    "h2": cmd_h2,
    "kform": cmd_kform,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gforge",
        description="Exact invariants, classification, and identity checks "
                    "for graded simple algebras given by presentation files.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--input", required=True, help="input JSON file")
    ap.add_argument("--input2", help="second input file (iso)")
    ap.add_argument("--budget", type=int, default=None,
                    help=f"evaluation budget for searches (default {CAPS.budget})")
    ap.add_argument("--json", action="store_true", help="emit a JSON report")
    return ap


def run(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(command=ns.command, input=ns.input, input2=ns.input2,
                        budget=ns.budget)
        code, report, lines = COMMANDS[cfg.command](cfg)
    except ParseError as exc:
        return _fail(ns.json, "parse", str(exc), 1)
    except (CapExceeded, BudgetExceeded) as exc:
        return _fail(ns.json, "budget", str(exc), 3)
    except PreconditionError as exc:
        return _fail(ns.json, "precondition", str(exc), 2)
    if ns.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _fail(as_json: bool, kind: str, reason: str, code: int) -> int:
    if as_json:
        print(json.dumps({"error": kind, "reason": reason}, indent=2,
                         sort_keys=True))
    else:
        print(f"error ({kind}): {reason}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())
