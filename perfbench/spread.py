"""Run-to-run spread of the end-to-end metrics, as the regression gate sees it.

Run every workload of ``BENCHMARK.json`` once per seed, appending each
run's record to a results file::

    python3 perfbench/spread.py run --seeds 1-10 --record perfbench/proof/set1.jsonl

Then report, per workload and end-to-end metric, the median, the
interquartile range as a share of the median (``statistics.quantiles``
with ``n=4``) against the metric's bound, and, given a second set, how
far the second median moved from the first in the worse direction::

    python3 perfbench/spread.py report perfbench/proof/set1.jsonl perfbench/proof/set2.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _seeds(text: str) -> "list[int]":
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run(seeds: "list[int]", record: str) -> int:
    bench = _bench()
    failures = 0
    for seed in seeds:
        for workload in bench["workloads"]:
            started = time.perf_counter()
            done = subprocess.run(
                bench["command"] + [
                    "--workload", workload["name"], "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0",
                    "--record", record],
                cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
            failures += done.returncode != 0
            print(f"{workload['name']} seed {seed}: exit {done.returncode}, "
                  f"{time.perf_counter() - started:.1f} s", flush=True)
    return 1 if failures else 0


def _values(path: str) -> "dict[str, dict[str, list[float]]]":
    """workload -> metric -> values, from the untraced records in *path*."""
    values: "dict[str, dict[str, list[float]]]" = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"] != 0:
                continue
            for name, metric in record["metrics"].items():
                values.setdefault(record["workload"], {}).setdefault(
                    name, []).append(metric["value"])
    return values


def report(paths: "list[str]") -> int:
    metrics = {m["name"]: m for m in _bench()["end_to_end"]}
    sets = [_values(path) for path in paths]
    over = 0
    for workload in sets[0]:
        runs = len(next(iter(sets[0][workload].values())))
        print(f"{workload} ({runs} runs per set)")
        print(f"  {'metric':24s} {'bound':>6s} "
              + " ".join(f"{'median':>12s} {'iqr/med':>8s}" for _ in sets)
              + ("  worse" if len(sets) > 1 else ""))
        for name, spec in metrics.items():
            cells, medians = [], []
            for values in sets:
                series = values[workload][name]
                median = statistics.median(series)
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
                if name != "setup_s" and spread > spec["bound"]:
                    over += 1
                medians.append(median)
                cells.append(f"{median:12.4f} {spread:8.3f}")
            line = f"  {name:24s} {spec['bound']:6.2f} " + " ".join(cells)
            if len(medians) > 1:
                sign = 1.0 if spec["better"] == "lower" else -1.0
                worse = sign * (medians[1] - medians[0]) / medians[0]
                over += worse > spec["bound"]
                line += f"  {worse:+.3f}"
            print(line)
    print(f"{over} figures beyond their bound")
    return 1 if over else 0


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run every workload per seed")
    run_parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4")
    run_parser.add_argument("--record", required=True)
    report_parser = commands.add_parser("report", help="spread per metric")
    report_parser.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(_seeds(args.seeds), os.path.abspath(args.record))
    return report(args.paths[:2])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
