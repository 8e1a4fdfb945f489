"""Spans and counters around the public functions of every gforge module.

Two passes, never active together:

* the boundary pass wraps each public function (and the private layer
  functions named in LAYER_PRIVATE) in every gforge namespace that binds it,
  plus the constructors in CONSTRUCTORS. Each call records a span with its
  parent span and the op it belongs to; a layer's self time is its span minus
  the time covered by its child spans.
* the leaf pass counts calls of the hot leaves (Group.mul and CycScalar
  arithmetic) without timing them, so their wrappers do not inflate the self
  times of the boundary pass.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

# Leaves called millions of times; they are counted in the leaf pass only.
HOT = {"phi", "as_cyc", "divisors", "xgcd", "cyclotomic_polynomial"}
LAYER_PRIVATE = {("twisted", "_word_data"), ("algebra", "_span_report")}
# (module, class, method) -> layer name
CONSTRUCTORS = {
    ("twisted", "Cocycle", "__post_init__"): "twisted.Cocycle",
    ("groups", "SubgroupData", "__init__"): "groups.SubgroupData",
    ("algebra", "GradedAlgebra", "__init__"): "algebra.GradedAlgebra",
}
# (class attribute, counter name) pairs of the leaf pass
LEAVES = {
    ("cyclo", "CycScalar"): (("__mul__", "cyclo.mul"), ("__rmul__", "cyclo.mul"),
                             ("__add__", "cyclo.add"), ("__radd__", "cyclo.add"),
                             ("from_root", "cyclo.from_root"),
                             ("inverse", "cyclo.inverse")),
    ("groups", "Group"): (("mul", "groups.mul"),),
}
MAX_SPANS = 100_000


def gforge_modules() -> dict:
    """The loaded gforge package and its modules, by name."""
    return {name: mod for name, mod in sys.modules.items()
            if name == "gforge" or name.startswith("gforge.")}


class _Layer:
    __slots__ = ("calls", "total", "self_time", "setup_self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.setup_self_time = 0.0  # the part spent outside any op
        self.extra = 0


# Work counters read from the arguments or the result of a layer call.
def _rows(args, kwargs, result):
    return len(args[0])


def _term_pairs(args, kwargs, result):
    return len(args[0].terms) * len(args[1].terms)


def _assignments(args, kwargs, result):
    return result.checked


def _closure_rank(args, kwargs, result):
    return result.report.k_dim * result.field.degree_over_q()


EXTRA = {
    "modlinalg.solve_mod": _rows,
    "algebra.multiply": _term_pairs,
    "identities.identity_report": _assignments,
    "algebra.build_k_form": _closure_rank,
}


class Tracer:
    """Installs and removes the wrappers of one pass; keeps its records."""

    def __init__(self):
        self.layers: dict[str, _Layer] = {}
        self.leaf_calls: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = -1
        self.setup_s = 0.0
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # boundary pass

    def _wrap(self, name: str, fn):
        layer = self.layers.setdefault(name, _Layer())
        extra = EXTRA.get(name)
        stack = self._stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, tracer.next_id]
            tracer.next_id += 1
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                layer.calls += 1
                layer.total += dur
                layer.self_time += dur - frame[0]
                if tracer.op_id < 0:
                    layer.setup_self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((frame[1], name, tracer.op_id, parent, t0, t1))
                else:
                    tracer.dropped += 1
            if extra is not None:
                layer.extra += extra(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install_boundaries(self) -> None:
        mods = gforge_modules()
        wrapped: dict[int, object] = {}
        for modname, mod in mods.items():
            short = modname.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                public = not attr.startswith("_") and attr not in HOT
                if public or (short, attr) in LAYER_PRIVATE:
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        for (modname, cls, meth), name in CONSTRUCTORS.items():
            klass = getattr(mods[f"gforge.{modname}"], cls)
            self._patch(klass, meth, self._wrap(name, vars(klass)[meth]))

    # leaf pass

    def install_leaves(self) -> None:
        mods = gforge_modules()
        counts = self.leaf_calls
        for (modname, cls), attrs in LEAVES.items():
            klass = getattr(mods[f"gforge.{modname}"], cls)
            for attr, name in attrs:
                counts.setdefault(name, 0)
                raw = vars(klass)[attr]
                if isinstance(raw, staticmethod):
                    self._patch(klass, attr, staticmethod(
                        _counting(raw.__func__, counts, name)))
                else:
                    self._patch(klass, attr, _counting(raw, counts, name))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # results

    def layer_metrics(self, names) -> dict:
        """Values of the requested `<layer>.<quantity>` metric names."""
        out = {}
        for metric in names:
            layer, _, quantity = metric.rpartition(".")
            rec = self.layers.get(layer)
            if quantity == "calls" and layer in self.leaf_calls:
                out[metric] = self.leaf_calls[layer]
            elif quantity == "calls":
                out[metric] = rec.calls if rec else 0
            elif quantity == "self_ms":
                out[metric] = 1000.0 * rec.self_time if rec else 0.0
            elif quantity in ("rows", "term_pairs"):
                out[metric] = rec.extra if rec else 0
        return out

    def assignments(self) -> tuple[int, float]:
        rec = self.layers.get("identities.identity_report")
        if rec is None:
            return 0, 0.0
        return rec.extra, rec.total

    def shares(self, targets: dict, round_s: float) -> dict:
        """Per group of layers: its self time as a share of the traced set-up
        and of the traced round."""
        out = {}
        for group, layers in targets.items():
            recs = [self.layers[n] for n in layers if n in self.layers]
            setup = sum(r.setup_self_time for r in recs)
            ops = sum(r.self_time for r in recs) - setup
            out[group] = {"setup": setup / self.setup_s if self.setup_s else 0.0,
                          "round": ops / round_s if round_s else 0.0}
        return out

    def write(self, path: str, metrics: dict, shares: dict) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        base = min((s[4] for s in self.spans), default=0.0)
        doc = {
            "metrics": metrics,
            "setup_s": self.setup_s,
            "shares": shares,
            "layers": {n: {"calls": r.calls, "total_ms": 1000.0 * r.total,
                           "self_ms": 1000.0 * r.self_time,
                           "setup_self_ms": 1000.0 * r.setup_self_time,
                           "work": r.extra}
                       for n, r in sorted(self.layers.items())},
            "leaf_calls": self.leaf_calls,
            "span_names": names,
            "span_fields": ["id", "name", "op", "parent", "start_us", "dur_us"],
            "spans": [[sid, index[n], op, parent, round(1e6 * (t0 - base), 1),
                       round(1e6 * (t1 - t0), 1)]
                      for sid, n, op, parent, t0, t1 in self.spans],
            "dropped_spans": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _counting(fn, counts: dict, name: str):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper
