"""Self-tests for the benchmark's measurement machinery.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import (  # noqa: E402
    Outcomes,
    Tracer,
    compare_layers,
    min_samples_for,
    percentile,
    samples_beyond,
)


class FakeClock:
    """A settable clock: each test advances it by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SpanArithmetic(unittest.TestCase):
    def setUp(self) -> None:
        self.wall = FakeClock()
        self.cpu = FakeClock()
        self.tracer = Tracer(wall=self.wall, cpu=self.cpu)
        self.tracer.enabled = True

    def burn(self, seconds: float) -> None:
        self.wall.now += seconds
        self.cpu.now += seconds

    def test_nested_spans_subtract_children(self) -> None:
        # hash_value -> canonical_bytes: 1 ms of hashing around 3 ms of
        # encoding is 1 ms self time for the hash, 3 ms for the encoding.
        def canonical_bytes(value):
            self.burn(0.003)
            return b"x" * 10

        encode = self.tracer.wrap("encoding.encode", canonical_bytes,
                                  size_of=lambda args, result: len(result))

        def hash_value(value):
            self.burn(0.0005)
            encode(value)
            self.burn(0.0005)
            return b"digest"

        traced_hash = self.tracer.wrap("crypto.hash", hash_value)
        traced_hash({"a": 1})
        totals = self.tracer.totals()
        self.assertAlmostEqual(totals["crypto.hash"].self_cpu, 0.001)
        self.assertAlmostEqual(totals["crypto.hash"].incl_cpu, 0.004)
        self.assertAlmostEqual(totals["encoding.encode"].self_cpu, 0.003)
        self.assertAlmostEqual(totals["encoding.encode"].self_wall, 0.003)
        self.assertEqual(totals["encoding.encode"].size, 10)
        self.assertEqual(totals["crypto.hash"].calls, 1)
        # Self times add up to the outermost span's duration.
        self.assertAlmostEqual(
            sum(t.self_cpu for t in totals.values()), 0.004)

    def test_recursive_spans_count_once_and_keep_self_time(self) -> None:
        calls = []

        def hash_value(depth):
            calls.append(depth)
            self.burn(0.001)
            if depth:
                traced(depth - 1)
            return b"d"

        traced = self.tracer.wrap("crypto.hash", hash_value)
        traced(2)
        totals = self.tracer.totals()
        self.assertEqual(len(calls), 3)
        # One entry into the layer, three spans, 3 ms of self time.
        self.assertEqual(totals["crypto.hash"].calls, 1)
        self.assertAlmostEqual(totals["crypto.hash"].self_cpu, 0.003)
        self.assertEqual(len(self.tracer.spans()), 3)

    def test_inherit_adopts_parent_layer(self) -> None:
        def sign_bytes(data):
            self.burn(0.002)

        sign = self.tracer.wrap("crypto.sign", sign_bytes,
                                inherit=("crypto.tsa",))

        def stamp_digest(digest):
            self.burn(0.001)
            sign(digest)

        stamp = self.tracer.wrap("crypto.tsa", stamp_digest)
        stamp(b"d")
        sign(b"d")
        totals = self.tracer.totals()
        self.assertEqual(totals["crypto.tsa"].calls, 1)
        self.assertAlmostEqual(totals["crypto.tsa"].self_cpu, 0.003)
        self.assertEqual(totals["crypto.sign"].calls, 1)
        self.assertAlmostEqual(totals["crypto.sign"].self_cpu, 0.002)

    def test_disabled_tracer_records_nothing(self) -> None:
        self.tracer.enabled = False
        self.tracer.wrap("x", lambda: self.burn(0.001))()
        self.assertEqual(self.tracer.spans(), [])

    def test_patch_function_reaches_every_importing_module(self) -> None:
        import types

        def original():
            return 1

        modules = [types.ModuleType(f"m{i}") for i in range(3)]
        for module in modules[:2]:
            module.f = original
        modules[2].f = lambda: 2
        self.assertEqual(self.tracer.patch_function(modules, original, "f"),
                         2)
        self.assertIsNot(modules[0].f, original)
        modules[0].f()
        modules[1].f()
        self.assertEqual(self.tracer.totals()["f"].calls, 2)
        self.tracer.unpatch()
        self.assertIs(modules[0].f, original)
        self.assertIs(modules[1].f, original)


class TailRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self) -> None:
        self.assertEqual(samples_beyond(1000, 99.0), 10)
        self.assertEqual(samples_beyond(999, 99.0), 9)
        self.assertEqual(samples_beyond(100, 90.0), 10)
        self.assertEqual(samples_beyond(99, 90.0), 9)
        self.assertEqual(min_samples_for(90.0), 100)

    def test_min_samples_matches_rule(self) -> None:
        for p in (90.0, 95.0, 98.0, 99.0):
            n = min_samples_for(p)
            self.assertGreaterEqual(samples_beyond(n, p), 10)
            self.assertLess(samples_beyond(n - 1, p), 10)

    def test_nearest_rank_percentile(self) -> None:
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50.0), 50)
        self.assertEqual(percentile(values, 99.0), 99)
        self.assertEqual(percentile(values, 100.0), 100)
        self.assertEqual(percentile([5.0], 99.0), 5.0)


class ErrorRate(unittest.TestCase):
    def test_counts_vetoed_unsettled_and_failed_reads(self) -> None:
        outcomes = Outcomes()
        outcomes.update_attempt(done=True, valid=True)
        outcomes.update_attempt(done=True, valid=False)   # vetoed
        outcomes.update_attempt(done=False, valid=None)   # timed out
        for ok in (True, True, True, True, False):        # one failed read
            outcomes.read(ok)
        self.assertEqual(outcomes.attempted, 8)
        self.assertEqual(outcomes.errors, 3)
        self.assertAlmostEqual(outcomes.error_rate, 3 / 8)

    def test_no_attempts_no_errors(self) -> None:
        self.assertEqual(Outcomes().error_rate, 0.0)


class BaselineComparison(unittest.TestCase):
    @staticmethod
    def metrics(**values):
        return {name: {"value": value} for name, value in values.items()}

    def test_marks_a_faster_layer_the_end_to_end_missed(self) -> None:
        old = self.metrics(enc=4.0, sign=1.0, hash=0.5)
        new = self.metrics(enc=2.0, sign=0.98, hash=0.52)
        lines = compare_layers(old, new, 12.0, 11.9, ["enc", "sign", "hash"])
        marked = [line for line in lines if "did not move" in line]
        self.assertEqual(len(marked), 1)
        self.assertTrue(marked[0].startswith("enc 4.000 -> 2.000"))

    def test_no_mark_when_the_end_to_end_follows(self) -> None:
        old = self.metrics(enc=4.0)
        new = self.metrics(enc=2.0)
        lines = compare_layers(old, new, 12.0, 10.5, ["enc"])
        self.assertFalse(any("did not move" in line for line in lines))


if __name__ == "__main__":
    unittest.main()
