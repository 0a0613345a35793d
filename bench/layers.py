"""Per-layer probes for the traced run.

Every probe calls the public functions of one gaindex module from the
benchmark's own code, inside a span named `<module>.<function>`; the
metrics below are read back from those spans, whose times are in ref_s
(harness.SpeedMeter) like the end-to-end ones. Each traced run, whatever
its workload, runs every probe, so every per-layer metric is reported on
every traced run. BENCHMARK.json names the metrics and their units.

MOVES gives for each metric the end-to-end metric, on the workload, that
it should move: what a change to that layer can save.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import gates
from harness import SpeedMeter, Tracer
from workloads import cli_command, run_cli

MOVES = {
    "enumeration.enumerate_unicyclic_ms.n10": "verify.wall_s, monotonicity.wall_s",
    "enumeration.enumerate_unicyclic_ms.n11": "verify.wall_s",
    "enumeration.enumerate_unicyclic_ms.n12": "verify.wall_s",
    "enumeration.classes.n12": "verify.items_per_s (exactly 5026)",
    "enumeration.verify_bounds_ms.n12": "verify.wall_s",
    "graph.canonical_form_us": "verify.wall_s, monotonicity.wall_s",
    "cli.startup_s": "verify.wall_s, once it is sub-second",
    "enumeration.verify_monotonicity_ms.n10": "monotonicity.items_per_s",
    "enumeration.applications.n10": "monotonicity.items_per_s (exactly 6789)",
    "enumeration.accept_ratio.n10": "monotonicity.items_per_s",
    "transforms.accept_us.n10": "monotonicity.items_per_s",
    "transforms.reject_us.n10": "monotonicity.items_per_s",
    "graph.find_cycle_small_us": "monotonicity.items_per_s",
    "indices.ga_index_small_us": "monotonicity.items_per_s",
    "transforms.reduction_pipeline_ms": "reduce.wall_s, reduce.items_per_s",
    "transforms.steps_per_graph": "reduce.wall_s",
    "transforms.star_transform_us": "reduce.wall_s",
    "transforms.relocate_min_us": "reduce.wall_s",
    "transforms.arc_transform_us": "reduce.wall_s",
    "transforms.finish_two_neighbors_deg2_us": "reduce.wall_s",
    "transforms.finish_one_neighbor_deg2_us": "reduce.wall_s",
    "graph.find_cycle_large_us": "reduce.wall_s",
    "graph.pendant_tree_large_us": "reduce.wall_s",
    "graph.parse_edge_list_ms": "reduce.wall_s",
    "indices.ga_index_large_us": "reduce.wall_s",
    "families.classify_family_us": "reduce.wall_s",
    "cli.reduce_overhead_ms": "reduce.wall_s",
    "trace.overhead_pct": "none: cost of the spans on this workload",
}

ENUMERATION_ORDERS = (10, 11, 12)
SMALL_ORDER = 10
# Corpus graphs the reduce probes use, ahead of the golden graphs, which
# between them take every operator.
REDUCE_PROBE_GRAPHS = 48
# Cycle vertices per graph whose pendant tree is probed.
PENDANT_PROBES = 8
# Calls per span for the micro probes, so one span is well above timer resolution.
REPEAT = 3
STARTUP_RUNS = 5
# The CLI's default --tol: `reduce` runs with runtime GA checks at this slack.
CLI_TOL = 1e-9


def probe_enumeration(gx, tracer: Tracer, problems: list) -> dict:
    """Enumeration per order, canonical keys and verify_bounds at the top order."""
    enum = gx.enumeration
    classes = {}
    for n in ENUMERATION_ORDERS:
        with tracer.span("enumeration.enumerate_unicyclic", f"n{n}", n=n):
            classes[n] = list(enum.enumerate_unicyclic(n))
        if len(classes[n]) != gates.A001429[n]:
            problems.append(f"enumerate_unicyclic({n}) gave {len(classes[n])} classes")
    top = ENUMERATION_ORDERS[-1]
    with tracer.span("graph.canonical_form", f"n{top}", calls=len(classes[top])):
        for g in classes[top]:
            gx.graph.canonical_form(g)
    with tracer.span("enumeration.verify_bounds", f"n{top}"):
        report = enum.verify_bounds(top)
    if report.count != gates.A001429[top] or report.violations:
        problems.append(f"verify_bounds({top}) is not clean")
    return classes


def probe_cli_startup(root: Path, meter: SpeedMeter, tracer: Tracer, problems: list) -> None:
    """A trivial `gaindex verify 3` child, timed like the verify workload's."""
    command = cli_command("verify", "3")
    for i in range(STARTUP_RUNS):
        with tracer.span("cli.startup", f"startup{i}"):
            returncode, _ = run_cli(meter, root, command, subprocess.DEVNULL)
        if returncode != 0:
            problems.append(f"gaindex verify 3 exited with {returncode}")


def probe_monotonicity(gx, graphs: list, tracer: Tracer, problems: list) -> None:
    """The sweep at one order, then every operator thunk of it timed alone."""
    enum, n = gx.enumeration, SMALL_ORDER
    with tracer.span("enumeration.verify_monotonicity", f"n{n}"):
        report = enum.verify_monotonicity(n).to_dict()
    wrong = gates.check_monotonicity(report)
    if wrong:
        problems.append("; ".join(wrong))
    for i, g in enumerate(graphs):
        with tracer.span("transforms.operator_applications", f"n{n}/g{i}") as rec:
            accepted = rejected = 0
            accept_s = reject_s = 0.0
            for _, _, thunk in enum.operator_applications(g):
                t = perf_counter()
                try:
                    thunk()
                except gx.transforms.PreconditionError:
                    reject_s += perf_counter() - t
                    rejected += 1
                else:
                    accept_s += perf_counter() - t
                    accepted += 1
            rec.update(accepted=accepted, rejected=rejected, accept_s=accept_s, reject_s=reject_s)
    with tracer.span("graph.find_cycle", f"n{n}", size="small", calls=REPEAT * len(graphs)):
        for _ in range(REPEAT):
            for g in graphs:
                gx.graph.find_cycle(g)
    with tracer.span("indices.ga_index", f"n{n}", size="small", calls=REPEAT * len(graphs)):
        for _ in range(REPEAT):
            for g in graphs:
                gx.indices.ga_index(g)


def probe_reduce(gx, paths: list, tracer: Tracer, problems: list) -> None:
    """Layer by layer what `reduce` does to each probe graph, with runtime GA
    checks on as in the CLI; each trace step's operator is replayed alone."""
    graph, transforms = gx.graph, gx.transforms
    for path in paths:
        req = path.stem
        wrong = []
        text = path.read_text()
        with tracer.span("graph.parse_edge_list", req):
            g = graph.parse_edge_list(text)
        with tracer.span("graph.find_cycle", req, size="large", calls=REPEAT):
            for _ in range(REPEAT):
                cyc = graph.find_cycle(g)
        roots = cyc.vertices[::max(1, cyc.girth // PENDANT_PROBES)][:PENDANT_PROBES]
        with tracer.span("graph.pendant_tree", req, calls=len(roots)):
            for v in roots:
                graph.pendant_tree(g, v)
        with tracer.span("indices.ga_index", req, size="large", calls=REPEAT):
            for _ in range(REPEAT):
                gx.indices.ga_index(g)

        out = path.with_suffix(".probe.json")
        with tracer.span("cli.main", req):
            code = gx.cli.main(["reduce", str(path), "--format", "json", "--out", str(out)])
        transforms.set_runtime_checks(CLI_TOL)
        try:
            with tracer.span("transforms.reduction_pipeline", req) as rec:
                trace = transforms.reduction_pipeline(g)
            rec["steps"] = len(trace.steps)
            before = g
            for step in trace.steps:
                with tracer.span(f"transforms.{step.op}", req):
                    after = getattr(transforms, step.op)(before, **step.params)
                if after != step.graph:
                    wrong.append(f"replayed {step.op} differs from the trace")
                before = step.graph
        finally:
            transforms.set_runtime_checks(None)
        with tracer.span("families.classify_family", req):
            family = gx.families.classify_family(trace.terminal_graph)
        if code != 0 or out.read_text() != trace.to_json():
            wrong.append("CLI output differs from the pipeline trace")
        if family != trace.terminal_family:
            wrong.append("classify_family disagrees with the trace")
        if wrong:
            problems.append(f"{req}: " + "; ".join(wrong))


def probe(gx, root: Path, paths: list, meter: SpeedMeter, tracer: Tracer) -> tuple:
    """Run every probe on reduce inputs `paths`, inside `meter`, whose clock
    `tracer` reads; returns (metrics, problems, checks attempted), with at
    most one problem per check."""
    problems: list = []
    classes = probe_enumeration(gx, tracer, problems)
    probe_cli_startup(root, meter, tracer, problems)
    probe_monotonicity(gx, classes[SMALL_ORDER], tracer, problems)
    probe_reduce(gx, paths, tracer, problems)
    checks = len(ENUMERATION_ORDERS) + 1 + STARTUP_RUNS + 1 + len(paths)
    return layer_metrics(tracer), problems, checks


def layer_metrics(tracer: Tracer) -> dict:
    ms, us = 1e3, 1e6
    m = {}
    for n, d in zip(ENUMERATION_ORDERS, tracer.durations("enumeration.enumerate_unicyclic")):
        m[f"enumeration.enumerate_unicyclic_ms.n{n}"] = d * ms
    top = ENUMERATION_ORDERS[-1]
    m[f"enumeration.classes.n{top}"] = tracer.named("graph.canonical_form")[0]["calls"]
    m[f"enumeration.verify_bounds_ms.n{top}"] = tracer.durations("enumeration.verify_bounds")[0] * ms
    m["graph.canonical_form_us"] = tracer.per_call("graph.canonical_form") * us
    m["cli.startup_s"] = median(tracer.durations("cli.startup"))

    n = SMALL_ORDER
    thunks = tracer.named("transforms.operator_applications")
    accepted = sum(s["accepted"] for s in thunks)
    rejected = sum(s["rejected"] for s in thunks)
    m[f"enumeration.verify_monotonicity_ms.n{n}"] = tracer.durations("enumeration.verify_monotonicity")[0] * ms
    m[f"enumeration.applications.n{n}"] = accepted
    m[f"enumeration.accept_ratio.n{n}"] = accepted / (accepted + rejected)
    m[f"transforms.accept_us.n{n}"] = sum(s["accept_s"] for s in thunks) / accepted * us
    m[f"transforms.reject_us.n{n}"] = sum(s["reject_s"] for s in thunks) / rejected * us

    def sized(name, size):
        spans = [s for s in tracer.named(name) if s.get("size") == size]
        return sum(s["end"] - s["start"] for s in spans) / sum(s["calls"] for s in spans)

    m["graph.find_cycle_small_us"] = sized("graph.find_cycle", "small") * us
    m["indices.ga_index_small_us"] = sized("indices.ga_index", "small") * us

    pipeline = {s["request"]: s["end"] - s["start"] for s in tracer.named("transforms.reduction_pipeline")}
    cli = {s["request"]: s["end"] - s["start"] for s in tracer.named("cli.main")}
    m["transforms.reduction_pipeline_ms"] = median(pipeline.values()) * ms
    m["transforms.steps_per_graph"] = fmean(
        s["steps"] for s in tracer.named("transforms.reduction_pipeline"))
    for op in gates.OPERATORS:
        m[f"transforms.{op}_us"] = median(tracer.durations(f"transforms.{op}")) * us
    m["graph.find_cycle_large_us"] = sized("graph.find_cycle", "large") * us
    m["graph.pendant_tree_large_us"] = tracer.per_call("graph.pendant_tree") * us
    m["graph.parse_edge_list_ms"] = median(tracer.durations("graph.parse_edge_list")) * ms
    m["indices.ga_index_large_us"] = sized("indices.ga_index", "large") * us
    m["families.classify_family_us"] = median(tracer.durations("families.classify_family")) * us
    m["cli.reduce_overhead_ms"] = median([cli[r] - p for r, p in pipeline.items()]) * ms
    return m
