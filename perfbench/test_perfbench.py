"""Tests of the benchmark itself: its checks reject wrong outputs, and every
workload runs to its end at a tiny size.

    python3 -m pytest perfbench -q

They live outside tests/, so the repository's own test run does not collect
them.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import harness  # noqa: E402
from checks import CheckError  # noqa: E402

SEED = 7


def tiny_ops(name: str):
    return harness.set_up(name, SEED, tiny=True)


def first(wl, prefix: str):
    return next(op for op in wl.ops if op.kind.startswith(prefix))


def test_h2_check_rejects_a_class_count_off_by_one():
    op = first(tiny_ops("cohomology"), "h2_classes")
    classes = op.run()
    op.check(classes)
    with pytest.raises(CheckError):
        op.check(classes + classes[-1:])
    if len(classes) > 1:
        with pytest.raises(CheckError):
            op.check(classes[:-1])


def test_identity_check_rejects_a_flipped_verdict():
    for op in tiny_ops("oracle").ops:
        rep = op.run()
        op.check(rep)
        with pytest.raises(CheckError):
            op.check(dataclasses.replace(rep, identity=not rep.identity))


def test_product_check_rejects_a_non_associative_product():
    op = first(tiny_ops("algebra"), "multiply")
    left, right, xo, ox, ab = op.run()
    op.check((left, right, xo, ox, ab))
    with pytest.raises(CheckError):
        op.check((left.scaled(2), right, xo, ox, ab))


def test_orbit_check_rejects_a_normal_form_that_differs_inside_an_orbit():
    wl = tiny_ops("orbit")
    kinds = {}
    for op in wl.ops:
        kinds.setdefault(op.kind, op)
    (_, op1), (_, op2) = list(kinds.items())[:2]
    res1 = op1.run()
    op1.check(res1)
    other_nf = op2.run()[1]
    with pytest.raises(CheckError):
        op1.check((res1[0], other_nf) + res1[2:])


def test_schur_torsion_counts():
    import gforge as g

    c2, c4 = g.cyclic(2), g.cyclic(4)
    c2c4 = g.direct_product(c2, c4)
    c2c2c2 = g.direct_product(g.direct_product(c2, c2), c2)
    assert checks.abelian_invariants(c2c4, range(8)) == [2, 4]
    assert checks.schur_torsion_count(c2c4, range(8), 4) == 2
    assert checks.schur_torsion_count(c2c2c2, range(8), 2) == 8
    assert checks.schur_torsion_count(g.cyclic(12), range(12), 6) == 1
    assert checks.schur_torsion_count(g.dihedral(6), range(12), 2) == 2
    assert checks.schur_torsion_count(g.dihedral(5), range(10), 2) == 1


@pytest.mark.parametrize("name", ["orbit", "cohomology", "algebra", "oracle"])
def test_every_workload_runs_at_a_tiny_size(name):
    values, units, tally, info = harness.run_untraced(name, SEED, 0.0, tiny=True)
    assert tally.failed == 0 and tally.wrong == 0, tally.notes
    assert tally.attempted == info["ops_per_round"] * info["rounds"]
    assert [n for n, _ in units] == [n for n, _ in harness.END_TO_END]
    assert all(values[n] > 0 for n, _ in units)


def test_every_round_gets_a_fresh_import_and_fresh_inputs(monkeypatch):
    builds = []
    real = harness.workloads.build

    def build(*args, **kwargs):
        builds.append((sys.modules["gforge"], real(*args, **kwargs)))
        return builds[-1][1]

    monkeypatch.setattr(harness.workloads, "build", build)
    values, units, tally, info = harness.run_untraced("oracle", SEED, 1.0, tiny=True)
    assert len(builds) == info["rounds"] >= 2
    assert len({id(mod) for mod, _ in builds}) == len(builds)
    assert len({id(wl.ops[0]) for _, wl in builds}) == len(builds)


def test_traced_run_reports_every_layer_metric(tmp_path):
    path = tmp_path / "trace.json"
    values, units, tally, info = harness.run_traced("oracle", SEED, tiny=True,
                                                    trace_path=str(path))
    assert tally.failed == 0 and tally.wrong == 0, tally.notes
    assert set(values) == {n for n, _ in harness.PER_LAYER}
    assert values["identities.identity_report.calls"] > 0
    assert values["cyclo.from_root.calls"] > 0
    assert path.stat().st_size > 0
    assert info["shares"]["oracle"]["round"] > 0.5


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "orbit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
