"""Set-up, timed rounds and metrics of one benchmark run.

`setup_s` is timed in SETUPS fresh processes (cold_setup.py), each from its
start to the end of its set-up: interpreter start, `import gforge` and every
input built from the seed. Its median is reported.

The run then replays the workload's fixed op list in whole rounds, one op
after another, until `seconds` have passed (at least one round). Before each
round, untimed, every gforge module is dropped and imported again and every
input is rebuilt from the seed, and the garbage collector runs. So no cache
or memo of gforge, whether held by a module or by an input object, outlives
a round: each round does the work one fresh process would do after set-up.
The inputs of a round stay alive until the round ends.

Times are normalized to the speed of the host at the moment they are taken.
The shared host this benchmark was written on runs the same Python code up
to 1.9 times slower for spells of ten seconds and more, and no statistic of
raw times within one run removes that. So a fixed pure-Python loop, the
probe (hostspeed.py), runs just before every op, and in each set-up process
before its import and after its build; each time is divided by its probe's
time (for an op, the median of the five probes nearest to it) and
multiplied by PROBE_REF_S, the probe's median time on that host. An op's
time is the median of these over the rounds. Raw times go to the
result file beside the metrics.

Untraced runs report the end-to-end metrics. A traced run reports the
per-layer metrics instead: it sets up and runs one round under the boundary
pass of tracer.py, alternates untraced and traced rounds to price the
tracing, then sets up and runs one more round under the leaf pass.
"""

from __future__ import annotations

import gc
import importlib
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import monotonic, perf_counter

import workloads
from checks import CheckError
from hostspeed import probe_time
from tracer import Tracer, gforge_modules

SETUPS = 5
# the probe's median time on a 2-vCPU Xeon host at 2.0 GHz, Python 3.11
PROBE_REF_S = 1.5e-3
# Probes on each side of an op that its normalizer takes the median of: host
# speed changes over seconds, an op and its neighbours take milliseconds.
PROBE_WINDOW = 2
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
COLD_SETUP = os.path.join(HERE, "cold_setup.py")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("twisted._word_data.calls", "count"), ("twisted._word_data.self_ms", "ms"),
    ("twisted.kernel_preserved.calls", "count"),
    ("twisted.kernel_preserved.self_ms", "ms"),
    ("twisted.normalizes_binomial_structure.calls", "count"),
    ("twisted.normalizes_binomial_structure.self_ms", "ms"),
    ("twisted.image_mu_n.self_ms", "ms"),
    ("twisted.word_cache.entries", "count"),
    ("presentation.compute_KNS.calls", "count"),
    ("presentation.compute_KNS.self_ms", "ms"),
    ("presentation.normalize_with_details.self_ms", "ms"),
    ("presentation.classify.self_ms", "ms"),
    ("presentation.validate_presentation.calls", "count"),
    ("presentation.validate_presentation.self_ms", "ms"),
    ("presentation.apply_move.self_ms", "ms"),
    ("twisted.is_cohomologous.calls", "count"),
    ("twisted.is_cohomologous.self_ms", "ms"),
    ("twisted.h2_classes.self_ms", "ms"),
    ("twisted.Cocycle.calls", "count"), ("twisted.Cocycle.self_ms", "ms"),
    ("twisted.conjugate_cocycle.self_ms", "ms"),
    ("presentation.iso_witness.self_ms", "ms"),
    ("modlinalg.solve_mod.calls", "count"), ("modlinalg.solve_mod.self_ms", "ms"),
    ("modlinalg.solve_mod.rows", "count"),
    ("modlinalg.kernel_mod.calls", "count"), ("modlinalg.kernel_mod.self_ms", "ms"),
    ("modlinalg.snf.self_ms", "ms"),
    ("algebra.multiply.calls", "count"), ("algebra.multiply.self_ms", "ms"),
    ("algebra.multiply.term_pairs", "count"),
    ("algebra._span_report.self_ms", "ms"),
    ("algebra.build_k_form.self_ms", "ms"),
    ("algebra.k_form.rank", "count"),
    ("algebra.GradedAlgebra.self_ms", "ms"),
    ("identities.identity_report.calls", "count"),
    ("identities.identity_report.self_ms", "ms"),
    ("identities.assignments", "count"),
    ("identities.assignments_per_s", "1/s"),
    ("identities.linearize.self_ms", "ms"),
    ("identities.build_m_product.self_ms", "ms"),
    ("twisted.find_primitive_binomial.self_ms", "ms"),
    ("cyclo.mul.calls", "count"), ("cyclo.add.calls", "count"),
    ("cyclo.from_root.calls", "count"), ("cyclo.inverse.calls", "count"),
    ("groups.mul.calls", "count"),
    ("groups.SubgroupData.calls", "count"), ("groups.SubgroupData.self_ms", "ms"),
    ("trace.overhead_s", "s"),
)


# The layers each workload is meant to spend its time in. A traced run reports
# the share of their self time in its set-up and in its round.
TARGETS = {
    "word_scan": ("twisted._word_data", "twisted.kernel_preserved",
                  "twisted.normalizes_binomial_structure", "twisted.image_mu_n"),
    "modlinalg": ("modlinalg.howell_echelon", "modlinalg.kernel_mod",
                  "modlinalg.solve_mod", "modlinalg.snf"),
    "products": ("algebra.multiply", "algebra._span_report"),
    "oracle": ("identities.identity_report",),
}


def fresh_import():
    for name in gforge_modules():
        del sys.modules[name]
    return importlib.import_module("gforge")


def set_up(name: str, seed: int, tiny: bool):
    """A fresh import of gforge and every input rebuilt from the seed."""
    fresh_import()
    return workloads.build(name, seed, tiny)


def cold_setup_time(name: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Seconds from the start of a fresh process to the end of its set-up,
    less the probes it ran, and the median time of those probes."""
    cmd = [sys.executable, COLD_SETUP, name, str(seed)] + (["tiny"] if tiny else [])
    t0 = monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    end, probe_s, probes_total_s = map(float, out.stdout.split()[-3:])
    return end - t0 - probes_total_s, probe_s


def word_cache_entries() -> int:
    cache = getattr(sys.modules.get("gforge.twisted"), "_word_cache", None)
    return len(cache) if isinstance(cache, dict) else 0


class Tally:
    """Ops attempted and failed, and the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def note(self, text: str) -> None:
        if len(self.notes) < 5:
            self.notes.append(text)


def run_round(ops, tally: Tally, tracer: Tracer | None = None):
    """One pass over the op list: (time of each op, time of its probe)."""
    gc.collect()
    times, probes = [], []
    for k, op in enumerate(ops):
        probes.append(probe_time())
        if tracer is not None:
            tracer.op_id = k
        tally.attempted += 1
        t0 = perf_counter()
        try:
            res = op.run()
        except Exception:  # an op that raises is counted, the run goes on
            times.append(perf_counter() - t0)
            tally.failed += 1
            tally.note(f"op {k} ({op.kind}) raised:\n{traceback.format_exc()}")
            continue
        times.append(perf_counter() - t0)
        try:
            op.check(res)
        except CheckError as exc:
            tally.wrong += 1
            tally.note(f"op {k} ({op.kind}) is wrong: {exc}")
    if tracer is not None:
        tracer.op_id = -1
    return times, probes


def op_times(rounds) -> list[float]:
    """Per op: the median over rounds of its probe-normalized time. Each time
    is divided by the median of the 2 * PROBE_WINDOW + 1 probes of its round
    nearest to it, which is steadier than its own probe alone."""
    n = len(rounds[0][0])
    speeds = [[statistics.median(ps[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1])
               for k in range(n)] for _, ps in rounds]
    return [PROBE_REF_S * statistics.median(ts[k] / sp[k]
                                            for (ts, _), sp in zip(rounds, speeds))
            for k in range(n)]


def tail(times: list[float]) -> float:
    """The highest percentile with at least ten ops beyond it (nearest rank)."""
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - 11)]


def run_untraced(name: str, seed: int, seconds: float, tiny: bool = False):
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        raw, speed = cold_setup_time(name, seed, tiny)
        setups.append(PROBE_REF_S * raw / speed)
        raw_setups.append(raw)
    tally = Tally()
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        wl = None  # the last round's inputs go before the next ones are built
        wl = set_up(name, seed, tiny)
        rounds.append(run_round(wl.ops, tally))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = op_times(rounds)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(ops),
        "op_p50_ms": 1000.0 * statistics.median(ops),
        "op_tail_ms": 1000.0 * tail(ops),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    info = {"rounds": len(rounds), "ops_per_round": len(wl.ops),
            "raw_setup_s": raw_setups,
            "raw_round_wall_s": [sum(ts) for ts, _ in rounds],
            "probe_median_s": statistics.median(p for _, ps in rounds for p in ps)}
    return values, END_TO_END, tally, info


def traced_round(name: str, seed: int, tiny: bool, tally: Tally, tracer: Tracer):
    """A fresh import, then set-up and one round under the boundary pass."""
    fresh_import()
    tracer.install_boundaries()
    try:
        t0 = perf_counter()
        wl = workloads.build(name, seed, tiny)
        tracer.setup_s = perf_counter() - t0
        return run_round(wl.ops, tally, tracer)
    finally:
        tracer.uninstall()


def run_traced(name: str, seed: int, tiny: bool = False, trace_path: str | None = None):
    tally = Tally()
    tracer = Tracer()
    traced = [traced_round(name, seed, tiny, tally, tracer)]
    # the price of tracing: two traced rounds against two untraced ones,
    # alternated; only the first traced round counts towards the layers
    plain = [run_round(set_up(name, seed, tiny).ops, tally)]
    traced.append(traced_round(name, seed, tiny, tally, Tracer()))
    plain.append(run_round(set_up(name, seed, tiny).ops, tally))
    fresh_import()
    tracer.install_leaves()
    try:
        run_round(workloads.build(name, seed, tiny).ops, tally)
    finally:
        tracer.uninstall()
    names = [n for n, _ in PER_LAYER]
    values = tracer.layer_metrics(names)
    rank = tracer.layers.get("algebra.build_k_form")
    done, busy = tracer.assignments()
    traced_s, plain_s = sum(op_times(traced)), sum(op_times(plain))
    values.update({
        "twisted.word_cache.entries": word_cache_entries(),
        "algebra.k_form.rank": rank.extra if rank else 0,
        "identities.assignments": done,
        "identities.assignments_per_s": done / busy if busy else 0.0,
        "trace.overhead_s": traced_s - plain_s,
    })
    shares = tracer.shares(TARGETS, sum(traced[0][0]))
    if trace_path is not None:
        tracer.write(trace_path, values, shares)
    info = {"traced_wall_s": traced_s, "untraced_wall_s": plain_s,
            "traced_setup_s": tracer.setup_s,
            "spans": len(tracer.spans), "dropped_spans": tracer.dropped,
            "shares": shares}
    return {n: values[n] for n in names}, PER_LAYER, tally, info
