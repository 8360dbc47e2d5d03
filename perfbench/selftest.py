"""Smoke test of the benchmark itself on a tiny instance set (a few seconds).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import unittest
from pathlib import Path

import _path  # noqa: F401  (puts the checkout's src/ on sys.path)
import pbtally
from pbtally import CounterConfig, brute_count, gen_auction, gen_knapsack, gen_sensor, parse_opb

import run
import tracing
from workloads import WORKLOADS, Instance, reencode

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

TINY_TEXTS = [gen_knapsack(items=9, dims=2, seed=s) for s in range(3)] + [
    gen_sensor(sensors=9, targets=12, cost_aware=True, seed=1),
    gen_auction(bids=10, items=6, revenue_fraction=0.15, seed=2),
]


def tiny_instances(offset: int = 0) -> list:
    return [Instance("tiny#%d" % i, text, brute_count(parse_opb(text)).count + offset,
                     CounterConfig())
            for i, text in enumerate(TINY_TEXTS)]


def measure(instances, trace: int):
    """The run's result and its stdout lines; failure reports on stderr are dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        result = run.measure("selftest", 0, instances, 0.05, trace)
    return result, out.getvalue().splitlines()


class CorruptingCounter(pbtally.ModelCounter):
    """Writes a wrong count into the cache on the first store."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cache.debug_corrupt_after = 0


class SelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.benchmark = json.loads(BENCHMARK_PATH.read_text())

    def assert_metrics_printed(self, trace: int, declared: list) -> None:
        result, lines = measure(tiny_instances(), trace)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {name: m["unit"] for name, m in result["metrics"].items()})
        printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) > 2}
        for metric in declared:
            self.assertEqual(printed.get(metric["name"]), metric["unit"], metric["name"])
        self.assertEqual(printed.get("failed_frac"), "ratio")

    def test_end_to_end_metrics_print_with_units(self):
        self.assert_metrics_printed(0, self.benchmark["end_to_end"])

    def test_per_layer_metrics_print_with_units(self):
        self.assert_metrics_printed(1, self.benchmark["per_layer"])

    def test_corrupted_cache_count_is_a_failure(self):
        original = run.ModelCounter
        run.ModelCounter = CorruptingCounter
        try:
            result, lines = measure(tiny_instances(), 0)
        finally:
            run.ModelCounter = original
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        failed_frac = next(float(line.split()[1]) for line in lines
                           if line.split()[:1] == ["failed_frac"])
        self.assertGreater(failed_frac, 0)

    def test_wrong_frozen_count_is_a_failure(self):
        result, _ = measure(tiny_instances(offset=1), 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_traced_run_restores_every_wrapped_attribute(self):
        before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing.TARGETS]
        with tracing.Tracer():
            for owner, attr, original in before:
                self.assertIsNot(owner.__dict__[attr], original, attr)
        measure(tiny_instances(), 1)
        for owner, attr, original in before:
            self.assertIs(owner.__dict__[attr], original, attr)

    def test_search_fingerprint_repeats(self):
        def fingerprint():
            _, lines = measure(tiny_instances(), 0)
            return next(line.split()[1] for line in lines
                        if line.split()[:1] == ["search_fingerprint"])
        self.assertEqual(fingerprint(), fingerprint())

    def test_reencoding_keeps_the_count(self):
        rng = random.Random(0)
        for text in TINY_TEXTS:
            expected = brute_count(parse_opb(text)).count
            for _ in range(3):
                self.assertEqual(brute_count(parse_opb(reencode(text, rng))).count, expected)

    def test_benchmark_json_names_the_workloads(self):
        self.assertEqual([w["name"] for w in self.benchmark["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
