"""Structural caps and work budgets.

Defaults are overridable through the GFORGE_CAPS environment variable,
a JSON object whose keys match the Caps field names, e.g.
  GFORGE_CAPS='{"group_order": 1024, "budget": 50000000}'
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

from .errors import ParseError


@dataclass(frozen=True)
class Caps:
    group_order: int = 512        # largest |G| accepted anywhere
    h2_subgroup: int = 16         # largest |H| for cohomology class enumeration
    algebra_dim: int = 4096       # largest |H| * n^2 for algebra construction
    designated: int = 6           # largest per-block designated set (d_e!)
    word_bound: int = 4           # default word length L for find_primitive_binomial
    budget: int = 10_000_000      # default evaluation budget for the identity oracle


def load_caps(env: str | None = None) -> Caps:
    raw = os.environ.get("GFORGE_CAPS") if env is None else env
    if not raw:
        return Caps()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"GFORGE_CAPS is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("GFORGE_CAPS must be a JSON object")
    allowed = {f.name for f in fields(Caps)}
    unknown = set(data) - allowed
    if unknown:
        raise ParseError(f"GFORGE_CAPS has unknown keys: {sorted(unknown)}")
    for key, value in data.items():
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ParseError(f"GFORGE_CAPS[{key!r}] must be a positive integer")
    return Caps(**data)


CAPS = load_caps()
