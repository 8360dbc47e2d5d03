"""Counting benchmark for pbtally.

    python3 perfbench/run.py --workload knapsack --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                     # every workload, one child each

One run builds the workload's instance set from ``--seed`` (see
``workloads.py``), then counts the whole set again and again, serially, in
this one process, until ``--seconds`` have passed and at least
``MIN_SAMPLES`` per-instance times exist. Every count is checked against
its frozen value and every pass must reproduce the first pass's
``SearchStats`` exactly. Times are scaled to the machine's speed at the
moment (``calibrate.py``) and reported as medians.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with spans around every layer entry point
(``tracing.py``), and reports per-layer self times and counts plus the
tracing overhead. Human-readable lines come first; the last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when ``correct`` is false. Per-instance stats, the raw
wall times behind the calibrated ones, and the spans of the first traced
pass go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import _path  # noqa: F401  (puts the checkout's src/ on sys.path)
import numpy as np
import pbtally.formula
from pbtally import MemoryBudgetExceeded, ModelCounter, SolveTimeout

import calibrate
import tracing
from workloads import WORKLOADS, build_instances, load_expected

OUT_DIR = Path(__file__).with_name("out")

#: per-instance times a run collects at least, so ten lie above the 90th percentile
MIN_SAMPLES = 100
#: passes per phase at least, so every median has a middle
MIN_PASSES = 3
#: no new pass starts this long after the first, whatever --seconds says
HARD_STOP_S = 120.0

#: SearchStats fields that must repeat exactly between runs of the same code
FINGERPRINT_FIELDS = ("decisions", "conflicts", "propagations", "cache_hits",
                      "cache_misses", "cache_stores", "cache_evictions",
                      "cache_purged", "peak_depth")

#: span name -> per-layer time metric (self seconds in one pass)
LAYER_TIME_METRICS = {
    "engine.propagate": "engine.propagate_s",
    "engine.backjump": "engine.backjump_s",
    "engine.analyze": "engine.analyze_s",
    "engine.add_learned": "engine.add_learned_s",
    "engine.decide": "engine.decide_s",
    "engine.scope": "engine.scope_s",
    "counter.split": "counter.split_s",
    "counter.pick": "counter.pick_s",
    "counter.run": "counter.self_s",
    "components.encode": "components.encode_s",
    "components.cache_lookup": "components.cache_lookup_s",
    "components.cache_store": "components.cache_store_s",
    "components.cache_purge": "components.cache_purge_s",
    "formula.parse": "formula.parse_s",
}


class Pass:
    """One count of every instance in the set.

    Times are calibrated (see ``calibrate.py``); ``wall_setup_s`` and
    ``wall_solve_s`` are the raw sums and ``speed`` the pass's median
    speed factor.
    """

    def __init__(self):
        self.setup_s = 0.0
        self.solve_s = 0.0
        self.wall_setup_s = 0.0
        self.wall_solve_s = 0.0
        self.samples = []
        self.factors = []
        self.failed = 0
        self.stats = []

    @property
    def speed(self) -> float:
        return statistics.median(self.factors)

    def fingerprint(self) -> list:
        return [None if s is None else [getattr(s, f) for f in FINGERPRINT_FIELDS]
                for s in self.stats]


def count_once(inst):
    """Setup seconds, solve seconds, and the SearchStats (None on failure).

    Setup is ``parse_opb`` plus ``ModelCounter`` construction; solve is
    ``ModelCounter.run``. A timeout, memory-budget stop, exception or wrong
    count is a failure, reported on stderr; it never ends the run.
    """
    t0 = time.perf_counter()
    t1 = None
    result = None
    try:
        counter = ModelCounter(pbtally.formula.parse_opb(inst.text), inst.config)
        t1 = time.perf_counter()
        result = counter.run()
    except (SolveTimeout, MemoryBudgetExceeded) as exc:
        print("perfbench: %s: %s: %s" % (inst.label, type(exc).__name__, exc), file=sys.stderr)
    except Exception:
        print("perfbench: %s raised:" % inst.label, file=sys.stderr)
        traceback.print_exc()
    t2 = time.perf_counter()
    if t1 is None:
        t1 = t2
    if result is not None and result.count != inst.expected:
        print("perfbench: %s: counted %d, expected %d"
              % (inst.label, result.count, inst.expected), file=sys.stderr)
        result = None
    return t1 - t0, t2 - t1, None if result is None else result.stats


def count_pass(instances) -> Pass:
    """Count every instance once, each right after a speed measurement."""
    p = Pass()
    for inst in instances:
        factor = calibrate.speed_factor()
        setup_s, solve_s, stats = count_once(inst)
        p.setup_s += setup_s * factor
        p.solve_s += solve_s * factor
        p.wall_setup_s += setup_s
        p.wall_solve_s += solve_s
        p.samples.append(solve_s * factor)
        p.factors.append(factor)
        p.failed += stats is None
        p.stats.append(stats)
    return p


def run_phase(instances, seconds: float, min_passes: int, started: float,
              on_pass=None) -> list:
    """Count passes until ``seconds`` are spent and ``min_passes`` are done."""
    passes = []
    phase_start = time.perf_counter()
    while True:
        passes.append(count_pass(instances))
        if on_pass is not None:
            on_pass(passes[-1])
        now = time.perf_counter()
        if now - started > HARD_STOP_S:
            break
        if len(passes) >= min_passes and now - phase_start >= seconds:
            break
    return passes


def tail_percentile(samples):
    """The 90th percentile, or the highest one with ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(0, min(math.ceil(0.9 * n) - 1, n - 11))
    return ordered[rank], 100.0 * (rank + 1) / n


def peak_rss_mib() -> float:
    """This process's peak resident set size so far, in MiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibration(passes) -> dict:
    """Raw wall medians and the speed factor behind the calibrated times."""
    return {"calibrate.wall_solve_s": (statistics.median(p.wall_solve_s for p in passes), "s"),
            "calibrate.wall_setup_s": (statistics.median(p.wall_setup_s for p in passes), "s"),
            "calibrate.speed_factor": (statistics.median(p.speed for p in passes), "ratio")}


def heaviest_instance(instances):
    """The instance with the largest frozen cache peak: the same one every seed."""
    return max(instances, key=lambda inst: inst.cache_bytes_peak)


def heap_peak_kib(inst) -> tuple:
    """Peak Python heap of one untimed count of ``inst``, in KiB, and its stats.

    ``tracemalloc`` sees every allocation from parsing to the count, so the
    figure moves with the size of the cache and of the learned-constraint
    store; it slows the count about fivefold, so it runs once per run.
    """
    gc.collect()
    tracemalloc.start()
    try:
        _, _, stats = count_once(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1024, stats


def end_to_end(passes, rss_mib: float, heap_kib: float) -> tuple:
    samples = [s for p in passes for s in p.samples]
    p90, pct = tail_percentile(samples)
    metrics = {
        "solve_s": (statistics.median(p.solve_s for p in passes), "s"),
        "instance_s.p50": (statistics.median(samples), "s"),
        "instance_s.p90": (p90, "s"),
        "setup_s": (statistics.median(p.setup_s for p in passes), "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
        "count_heap_kib": (heap_kib, "KiB"),
    }
    wall = calibration(passes)
    notes = {"solve_s": "wall %.4g s, speed factor %.3g" % (
                 wall["calibrate.wall_solve_s"][0], wall["calibrate.speed_factor"][0]),
             "setup_s": "wall %.4g s" % wall["calibrate.wall_setup_s"][0],
             "instance_s.p50": "n=%d" % len(samples),
             "instance_s.p90": "p%.0f, n=%d" % (pct, len(samples))}
    return metrics, notes


def per_layer(untraced, traced, layer_passes) -> tuple:
    """Per-layer metrics from the traced passes' spans and the search stats."""
    names = tracing.SPAN_NAMES
    metrics = {}
    for span, metric in LAYER_TIME_METRICS.items():
        i = names.index(span)
        metrics[metric] = (statistics.median(lp[0][i] for lp in layer_passes), "s")
    _, calls, tally = layer_passes[0]
    traced_s = statistics.median(p.solve_s for p in traced)
    untraced_s = statistics.median(p.solve_s for p in untraced)
    stats = traced[0].stats
    live = [s for s in stats if s is not None]

    def total(field):
        return sum(getattr(s, field) for s in live)

    def ratio(num, den):
        return num / den if den else 0.0

    split = names.index("counter.split")
    encode = names.index("components.encode")
    lookups = total("cache_hits") + total("cache_misses")
    metrics.update({
        "engine.propagations": (total("propagations"), "count"),
        "engine.conflicts": (total("conflicts"), "count"),
        "engine.learned": (total("learned"), "count"),
        "counter.split_calls": (int(calls[split]), "count"),
        "counter.split_multi_frac": (ratio(tally[split], calls[split]), "ratio"),
        "components.encode_calls": (int(calls[encode]), "count"),
        "components.key_bytes_mean": (ratio(tally[encode], calls[encode]), "B"),
        "components.cache_hit_ratio": (ratio(total("cache_hits"), lookups), "ratio"),
        "components.cache_evictions": (total("cache_evictions"), "count"),
        "components.cache_bytes_peak": (max((s.cache_bytes_peak for s in live), default=0), "B"),
        "components.cache_purged": (total("cache_purged"), "count"),
        "counter.decisions": (total("decisions"), "count"),
        "counter.peak_depth": (max((s.peak_depth for s in live), default=0), "count"),
        "trace.spans": (int(calls.sum()), "count"),
        "trace.overhead_frac": (traced_s / untraced_s - 1, "ratio"),
    })
    metrics.update(calibration(untraced))
    notes = {"trace.overhead_frac": "%.2f us per span" % (
        1e6 * (traced_s - untraced_s) / max(1, calls.sum()))}
    return metrics, notes


def write_out(name: str, seed: int, trace: int, instances, passes, digest, wall,
              spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": trace, "fingerprint": digest,
              "calibration": {m: v for m, (v, _) in wall.items()},
              "instances": [{"label": inst.label, "expected": inst.expected,
                             "stats": None if s is None else s.as_dict()}
                            for inst, s in zip(instances, passes[0].stats)]}
    with open(OUT_DIR / ("%s-seed%d-trace%d.json" % (name, seed, trace)), "w") as handle:
        json.dump(record, handle, indent=1)
    if spans is not None:
        # one file per workload, overwritten: a pass holds about half a million spans
        np.savez(OUT_DIR / ("%s.spans.npz" % name), spans=spans,
                 names=np.array(tracing.SPAN_NAMES),
                 columns=np.array(["id", "name", "start_ns", "end_ns", "parent"]))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    return measure(name, seed, build_instances(WORKLOADS[name], seed, load_expected()),
                   seconds, trace)


def measure(name: str, seed: int, instances, seconds: float, trace: int) -> dict:
    """Count ``instances`` for ``seconds``, print the metrics, return the result."""
    started = time.perf_counter()
    notes = {}
    spans = None
    if trace:
        untraced = run_phase(instances, seconds / 2, MIN_PASSES, started)
        layer_passes = []
        with tracing.Tracer() as tracer:
            def collect(p):
                nonlocal spans
                pass_spans, tally = tracer.take_pass()
                if spans is None:
                    spans = pass_spans
                self_s, calls = tracing.layer_times(pass_spans)
                layer_passes.append((self_s * p.speed, calls, tally))
            traced = run_phase(instances, seconds / 2, MIN_PASSES, started, collect)
        passes = untraced + traced
        metrics, notes = per_layer(untraced, traced, layer_passes)
    else:
        passes = run_phase(instances, seconds,
                           max(MIN_PASSES, math.ceil(MIN_SAMPLES / len(instances))), started)
        rss_mib = peak_rss_mib()  # before tracemalloc adds its own tables
        heaviest = heaviest_instance(instances)
        heap_kib, heap_stats = heap_peak_kib(heaviest)
        metrics, notes = end_to_end(passes, rss_mib, heap_kib)
        notes["count_heap_kib"] = heaviest.label

    attempted = len(instances) * len(passes)
    failed = sum(p.failed for p in passes)
    if not trace:
        attempted += 1
        failed += heap_stats is None
    fingerprint = passes[0].fingerprint()
    repeatable = all(p.fingerprint() == fingerprint for p in passes)
    digest = hashlib.sha256(json.dumps(fingerprint).encode()).hexdigest()[:16]
    write_out(name, seed, trace, instances, passes, digest, calibration(passes), spans)

    print("workload %s  seed %d  trace %d: %d instances x %d passes"
          % (name, seed, trace, len(instances), len(passes)))
    for metric, (value, unit) in metrics.items():
        print("  %-28s %14.6g %-6s %s" % (metric, value, unit, notes.get(metric, "")))
    print("  %-28s %14.6g %-6s %d of %d" % ("failed_frac", failed / attempted, "ratio",
                                            failed, attempted))
    print("  %-28s %14s %-6s %s" % ("search_fingerprint", digest, "",
                                    "same every pass" if repeatable else "CHANGED BETWEEN PASSES"))
    return {"correct": failed == 0 and repeatable, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own fresh child, so peak RSS is that workload's.

    A child that crashes or prints no result counts as one failed attempt
    of its workload, and the other workloads still run.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("perfbench: workload %s exited with code %d and no result"
                  % (name, child.returncode), file=sys.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        else:
            lines = lines[:-1]
        print("\n".join(lines))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"]["%s/%s" % (name, metric)] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
