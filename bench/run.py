#!/usr/bin/env python3
"""gaindex benchmark: one command, three workloads, correctness-gated.

    python3 bench/run.py --workload {verify,monotonicity,reduce} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; it measures the source tree the script sits in
(`src/gaindex`) and writes only below that tree's `.bench_out/`.

BENCHMARK.json names the metrics and their units. --trace 0 measures
the end-to-end metrics with tracing off: setup_s (importing gaindex
afresh plus generating the inputs, median of SETUP_REPEATS), wall_s and
cpu_s (median over the run's operations), items_per_s (classes, accepted
operator applications or graphs per second) and peak_rss_mb. --trace 1
alternates untraced and traced operations of the workload, runs every
per-layer probe (see layers.py), reports the tracing overhead and writes
the spans to `.bench_out/`. Either way the outputs are checked against
pinned values (gates.py); the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}, and any failed check
makes the exit code 1. The lines before it give the environment, the corpus settings,
the workload's own names for its rate, the fail ratio, reduce's latency
percentiles and the raw times; `.bench_out/BENCH_*.json` keeps them.

Times are reference-speed seconds, ref_s (harness.SpeedMeter): the
shared CPU's speed varies too much between runs for raw seconds to be
comparable. setup_s is in ref_s too, though its unit reads `s`. The raw
seconds are printed beside them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import corpus
import gates
import layers
from harness import SpeedMeter, Tracer, environment, percentile, span_cost_s
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5


def fresh_import():
    """Import gaindex (and its CLI) from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "gaindex" or m.startswith("gaindex.")]:
        del sys.modules[name]
    gx = importlib.import_module("gaindex")
    importlib.import_module("gaindex.cli")
    return gx


def measure(workload, seconds: float, traced: bool) -> tuple:
    """Closed loop for `seconds`: each operation starts when the last returned.

    Untraced runs trace nothing. Traced runs alternate untraced and traced
    operations, at least one of each: the untraced ones give the end-to-end
    figures, the traced ones the workload's spans.
    Returns (ops, traced flags, workload tracer).
    """
    tracer = Tracer()
    ops, flags = [], []
    t0 = perf_counter()
    while not ops or perf_counter() - t0 < seconds or (traced and len(ops) < 2):
        on = traced and len(ops) % 2 == 1
        ops.append(workload.op(tracer if on else None, f"op{len(ops)}"))
        flags.append(on)
    return ops, flags, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gaindex" / "__init__.py").is_file():
        print(f"error: no gaindex source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for this process and the children it starts, so the speed
    # samples (harness.SpeedMeter) are taken where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment(ROOT)
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        workload = WORKLOADS[args.workload](ROOT, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            with SpeedMeter() as meter:
                gx = fresh_import()
                workload.setup(gx, args.seed)
            setups.append(meter)

        ops, flags, tracer = measure(workload, args.seconds, bool(args.trace))
        checks = ops + workload.finish()
        attempted = sum(op.attempted for op in checks)
        failed = sum(op.failed for op in checks)
        problems = [p for op in checks for p in op.problems]

        plain = [op for op, on in zip(ops, flags) if not on]
        latencies = [x for op in plain for x in op.latencies]
        report = {
            "setup_s": median(m.calibrated for m in setups),
            "wall_s": median(op.calibrated for op in plain),
            "cpu_s": median(op.cpu * op.calibrated / op.wall for op in plain),
            "items_per_s": sum(op.items for op in plain) / sum(op.calibrated for op in plain),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        extra = {
            "raw_setup_s": median(m.wall for m in setups),
            "raw_wall_s": median(op.wall for op in plain),
            "raw_cpu_s": median(op.cpu for op in plain),
            f"{workload.item}_per_s": report["items_per_s"],
            "operations": len(plain),
            "op_wall_s": [op.wall for op in ops],
            "op_calibrated_s": [op.calibrated for op in ops],
            "fail_ratio": failed / attempted,
        }
        if latencies:
            extra.update(latency_samples=len(latencies),
                         latency_p50_ms=_ms(percentile(latencies, 50)),
                         latency_p90_ms=_ms(percentile(latencies, 90)))

        if args.trace:
            probe_paths = corpus.write(
                corpus.make_corpus(args.seed, layers.REDUCE_PROBE_GRAPHS), workdir, "probe")
            probe_paths += corpus.write(
                corpus.make_corpus(gates.GOLDEN_SEED, len(gates.GOLDEN_REDUCE_SHA256)), workdir, "golden")
            with SpeedMeter() as meter:
                probe_tracer = Tracer(meter.clock)
                metrics, probe_problems, probe_checks = layers.probe(
                    gx, ROOT, probe_paths, meter, probe_tracer)
            attempted += probe_checks
            failed += len(probe_problems)
            problems += probe_problems
            # One traced op's spans are too few for its time to differ from
            # an untraced op's by more than the op-to-op spread, so the
            # overhead is the spans per traced op times the measured cost
            # of one span, over the untraced op time.
            spans_per_op = len(tracer.spans) / sum(flags)
            metrics["trace.overhead_pct"] = spans_per_op * span_cost_s() / report["wall_s"] * 100
            extra["spans_per_traced_op"] = spans_per_op
            declared = spec["per_layer"]
        else:
            metrics = report
            declared = spec["end_to_end"]

    env["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "corpus": corpus.parameters(args.seed) if args.workload == "reduce" else None,
        "end_to_end": report, "extra": extra, "problems": problems, "result": result,
    }
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        tracer.write(OUT / f"spans_{tag}_workload.jsonl")
        probe_tracer.write(OUT / f"spans_{tag}_probes.jsonl")

    print(f"# gaindex benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    if record["corpus"]:
        print("# corpus: " + json.dumps(record["corpus"], sort_keys=True))
    for m in spec["end_to_end"]:
        raw = extra.get("raw_" + m["name"])
        print(f"# {m['name']} = {report[m['name']]:.6g} {m['unit']}"
              + ("" if raw is None else f"  (raw {raw:.6g} s)"))
    for name, value in extra.items():
        if not name.startswith(("raw_", "op_")):
            print(f"# {name} = {value}")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"# {m['name']} = {metrics[m['name']]:.6g} {m['unit']}  (moves {layers.MOVES[m['name']]})")
    for p in problems[:20]:
        print(f"# FAIL: {p}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


if __name__ == "__main__":
    sys.exit(main())
