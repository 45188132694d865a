"""Settled-update benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serial_tcp --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` measures an untraced phase and then a traced phase of the
same deployment, and reports the per-layer metrics.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a readable summary.  The full
record, with the environment it was measured in, is appended to
``perfbench/out/results.jsonl`` (or the file given with ``--record``).  The exit code is 1 when an output
check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

from harness import (
    MIN_BEYOND,
    Tracer,
    compare_layers,
    environment,
    percentile,
    samples_beyond,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit with 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}/repro; run from a checkout "
              f"of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _parse(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=os.path.join(OUT, "results.jsonl"),
                        help="results file the run's record is appended to "
                             "(default: perfbench/out/results.jsonl)")
    parser.add_argument("--baseline", default=None,
                        help="results.jsonl to compare per-layer CPU "
                             "against (default: perfbench/out/results.jsonl)")
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, phase, setup_times: "list[float]") -> dict:
    settled = max(phase.settled, 1)
    return {
        "settled_per_s": _metric(phase.settled / phase.wall_s, "1/s"),
        "settle_p50_ms": _metric(
            percentile(phase.settle_latencies, 50.0) * 1000.0, "ms"),
        "settle_tail_ms": _metric(
            percentile(phase.settle_latencies, workload.settle_tail)
            * 1000.0, "ms"),
        "cpu_ms_per_update": _metric(phase.cpu_s * 1000.0 / settled, "ms"),
        "store_bytes_per_update": _metric(phase.store_bytes / settled, "B"),
        "read_p50_ms": _metric(
            percentile(phase.read_latencies, 50.0) * 1000.0, "ms"),
        "read_tail_ms": _metric(
            percentile(phase.read_latencies, workload.read_tail) * 1000.0,
            "ms"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB"),
    }


def _tail_problems(workload, phase) -> "list[str]":
    problems = []
    for label, values, p in (
            ("settle", phase.settle_latencies, workload.settle_tail),
            ("read", phase.read_latencies, workload.read_tail)):
        if samples_beyond(len(values), p) < MIN_BEYOND:
            problems.append(f"{label} tail p{p:g} has only "
                            f"{samples_beyond(len(values), p)} samples "
                            f"beyond it ({len(values)} samples)")
    return problems


def run_untraced(workload, seconds: float):
    """Time the set-ups, measure one phase, check the outputs."""
    from workloads import check_deployment

    setup_times = []
    dep = None
    for keys in range(workload.setup_repeats):
        if dep is not None:
            dep.close()
            dep = None
            gc.collect()
        started = time.perf_counter()
        dep = workload.build(keys)
        workload.warm_up(dep)
        setup_times.append(time.perf_counter() - started)
    try:
        phase = workload.measure(dep, seconds)
        problems = check_deployment(dep) + _tail_problems(workload, phase)
        metrics = end_to_end(workload, phase, setup_times)
        summary = {"setup_times_s": setup_times,
                   "settle_samples": len(phase.settle_latencies),
                   "read_samples": len(phase.read_latencies),
                   "runs": phase.runs, "vetoes": phase.vetoes,
                   "retransmissions": phase.retransmissions,
                   "error_rate": dep.outcomes.error_rate}
        return dep.outcomes, metrics, problems, summary
    finally:
        dep.close()


def run_traced(workload, seconds: float, spans_path: str):
    """Untraced then traced phase on one deployment; per-layer metrics."""
    from layers import install, per_layer_metrics
    from workloads import check_deployment

    dep = workload.build()
    try:
        workload.warm_up(dep)
        count = workload.traced_updates
        untraced = workload.measure(dep, seconds / 2.0, updates=count)
        tracer = Tracer()
        install(tracer, dep.community.runtime.network)
        try:
            tracer.enabled = True
            traced = workload.measure(dep, seconds / 2.0, updates=count)
            tracer.enabled = False
        finally:
            tracer.unpatch()
        problems = check_deployment(dep)
        values, accounting = per_layer_metrics(
            tracer.totals(), traced, untraced, dep.outcomes.error_rate)
        problems.extend(accounting)
        written = tracer.write(spans_path)
        summary = {"spans": written, "spans_file":
                   os.path.relpath(spans_path, ROOT),
                   "traced_updates": traced.settled,
                   "untraced_cpu_ms_per_update":
                       untraced.cpu_s * 1000.0 / max(untraced.settled, 1)}
        return dep.outcomes, values, problems, summary
    finally:
        dep.close()


def _baseline_record(path: str, workload: str, digest: str
                     ) -> "dict | None":
    """Latest traced record for *workload* from another program version."""
    if not os.path.isfile(path):
        return None
    found = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if (record.get("trace") == 1 and record.get("workload") == workload
                    and record["environment"].get("source_digest") != digest):
                found = record
    return found


def main(argv: "list[str]") -> int:
    args = _parse(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    env = environment(ROOT, SRC, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      parameters=workload.parameters())
    if args.trace:
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.tsv")
        outcomes, metrics, problems, summary = run_traced(
            workload, args.seconds, spans_path)
        from layers import PER_LAYER

        metrics = {name: _metric(metrics[name], unit)
                   for name, unit, _ in PER_LAYER}
    else:
        outcomes, metrics, problems, summary = run_untraced(
            workload, args.seconds)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "correct": not problems,
              "problems": problems, "summary": summary,
              "environment": env, "metrics": metrics,
              "attempted": outcomes.attempted, "failed": outcomes.failed,
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    baseline_path = args.baseline or os.path.join(OUT, "results.jsonl")
    baseline = (_baseline_record(baseline_path, args.workload,
                                 env["source_digest"])
                if args.trace else None)
    with open(args.record, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"source {env['source_digest']} commit {env['commit']}")
    print(f"environment: python {env['python']}, {env['cpu_model']}, "
          f"nproc {env['nproc']}")
    print(f"parameters: {json.dumps(env['parameters'], sort_keys=True)}")
    print(f"summary: {json.dumps(summary, sort_keys=True)}")
    print(f"operations: attempted {outcomes.attempted}, vetoed "
          f"{outcomes.vetoed}, unsettled {outcomes.unsettled}, failed reads "
          f"{outcomes.failed_reads}, error_rate {outcomes.error_rate:.4f}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    if baseline is not None:
        print(f"per-layer CPU against {baseline['environment']['source_digest']}"
              f" ({baseline['time']}):")
        from layers import LAYER_SPANS

        for line in compare_layers(
                baseline["metrics"], metrics,
                baseline["summary"]["untraced_cpu_ms_per_update"],
                summary["untraced_cpu_ms_per_update"], list(LAYER_SPANS)):
            print(f"  {line}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems,
                      "attempted": max(outcomes.attempted, 1),
                      "failed": outcomes.failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
