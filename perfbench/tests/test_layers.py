"""Self-tests for the per-layer CPU accounting.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from harness import SpanStats  # noqa: E402
from layers import LAYER_SPANS, install, per_layer_metrics  # noqa: E402
from workloads import Phase  # noqa: E402


class RecordingTracer:
    """Stands in for ``Tracer``: notes the span names, patches nothing."""

    def __init__(self) -> None:
        self.names = set()

    def patch_function(self, modules, original, name, **options):
        self.names.add(name)

    def patch_attr(self, cls, attr, name, **options):
        self.names.add(name)


class FakeNetwork:
    def send(self, *args):
        pass


def stats(self_cpu: float, calls: int = 1) -> SpanStats:
    result = SpanStats()
    result.self_cpu = self_cpu
    result.incl_cpu = self_cpu
    result.calls = calls
    return result


class LayerAccounting(unittest.TestCase):
    def test_every_traced_span_is_in_exactly_one_layer(self) -> None:
        tracer = RecordingTracer()
        install(tracer, FakeNetwork())
        claimed = [name for names in LAYER_SPANS.values() for name in names]
        self.assertEqual(len(claimed), len(set(claimed)))
        self.assertEqual(tracer.names, set(claimed))

    def phases(self):
        traced = Phase(wall_s=2.0, cpu_s=1.0, settled=100)
        traced.read_latencies = [0.001] * 50
        untraced = Phase(wall_s=1.5, cpu_s=0.8, settled=100)
        return traced, untraced

    def test_layers_plus_other_add_up_to_process_cpu(self) -> None:
        traced, untraced = self.phases()
        totals = {"crypto.sign": stats(0.3), "encoding.encode": stats(0.2),
                  "core.examine": stats(0.05), "core.read": stats(0.05)}
        values, problems = per_layer_metrics(totals, traced, untraced, 0.0)
        self.assertEqual(problems, [])
        self.assertAlmostEqual(values["crypto.sign.cpu_ms_per_update"], 3.0)
        self.assertAlmostEqual(values["core.cpu_ms_per_update"], 1.0)
        self.assertAlmostEqual(values["other.cpu_ms_per_update"], 4.0)
        layer_cpu = sum(values[metric] for metric in LAYER_SPANS)
        self.assertAlmostEqual(
            layer_cpu + values["other.cpu_ms_per_update"], 10.0)
        self.assertAlmostEqual(values["idle_ms_per_update"], 7.0)
        self.assertAlmostEqual(values["trace.overhead_ratio"], 0.25)

    def test_span_outside_every_layer_is_a_problem(self) -> None:
        traced, untraced = self.phases()
        totals = {"crypto.sign": stats(0.3), "mystery": stats(0.1)}
        _, problems = per_layer_metrics(totals, traced, untraced, 0.0)
        self.assertEqual(problems, ["span mystery: in no layer CPU metric"])

    def test_spans_claiming_more_than_the_process_used(self) -> None:
        traced, untraced = self.phases()
        totals = {"crypto.sign": stats(0.9), "crypto.verify": stats(0.2)}
        values, problems = per_layer_metrics(totals, traced, untraced, 0.0)
        self.assertLess(values["other.cpu_ms_per_update"], 0.0)
        self.assertEqual(len(problems), 1)
        self.assertIn("spans claim", problems[0])


if __name__ == "__main__":
    unittest.main()
