"""Tests of the benchmark's own code. Run with `python3 -m pytest bench`."""

import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

import corpus
import gates
import harness

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 90) == 90
    assert harness.percentile(samples[:99], 90) is None
    assert harness.percentile(samples[:20], 50) == 10
    assert harness.percentile(samples[:19], 50) is None


def test_percentile_ignores_sample_order():
    samples = [5, 3, 9, 1, 7] * 20
    assert harness.percentile(samples, 50) == harness.percentile(sorted(samples), 50) == 5


def test_corpus_is_identical_for_a_fixed_seed():
    assert corpus.make_corpus(7) == corpus.make_corpus(7)
    assert corpus.make_corpus(7) != corpus.make_corpus(8)
    assert corpus.make_corpus(7, 10) == corpus.make_corpus(7)[:10]


def test_corpus_graphs_are_unicyclic_within_the_order_range():
    from gaindex import find_cycle, parse_edge_list

    lo, hi = corpus.ORDER_RANGE
    for text in corpus.make_corpus(3, 20):
        g = parse_edge_list(text)
        assert lo <= g.n <= hi
        assert 3 <= find_cycle(g).girth <= g.n


def test_ga_sn3_matches_the_library_closed_form():
    from gaindex import ga_sn3_closed

    for n in range(5, 200, 7):
        assert gates.ga_sn3(n) == pytest.approx(ga_sn3_closed(n), abs=1e-12)


def _report(n):
    counts = dict(zip(gates.OPERATORS, gates.MONOTONICITY_APPLICATIONS[n]))
    return {"n": n, "graphs": gates.A001429[n], "applications": counts, "violations": []}


def test_monotonicity_gate_accepts_the_pinned_counts():
    assert gates.check_monotonicity(_report(7)) == []


def test_gate_rejects_a_tampered_expected_count():
    tampered_counts = {**gates.A001429, 7: 34}
    assert gates.check_monotonicity(_report(7), counts=tampered_counts)
    tampered_apps = {**gates.MONOTONICITY_APPLICATIONS, 7: (64, 129, 296, 14, 7)}
    assert gates.check_monotonicity(_report(7), applications=tampered_apps)


def test_verify_gate_rejects_a_tampered_count_and_digest():
    doc = {
        "orders": [{"n": n, "count": c, "violations": [], "max_only_cycle": True,
                    "min_attained_by_sn3": True} for n, c in gates.A001429.items()],
        "violations_total": 0,
    }
    stdout = json.dumps(doc).encode()
    digest = gates.sha256(stdout)
    assert gates.check_verify(0, stdout, digest=digest) == []
    assert gates.check_verify(0, stdout, counts={**gates.A001429, 12: 5025}, digest=digest)
    assert gates.check_verify(0, stdout)  # not the pinned byte-exact output
    assert gates.check_verify(3, stdout, digest=digest)


def test_reduce_gate_rejects_a_rising_trace():
    n = 6  # GA(sn3(6)) is about 5.04
    step = {"op": "star_transform", "ga_before": 5.5, "ga_after": 5.6}
    doc = {"n": n, "ga_input": 5.5, "steps": [step], "ga_terminal": 5.6}
    assert gates.check_reduce(n, json.dumps(doc).encode())
    step["ga_after"] = doc["ga_terminal"] = 5.1
    assert gates.check_reduce(n, json.dumps(doc).encode()) == []
    step["ga_after"] = doc["ga_terminal"] = 5.0  # below the lower bound
    assert gates.check_reduce(n, json.dumps(doc).encode())


def test_speed_meter_excludes_its_sampling_and_calibrates():
    with harness.SpeedMeter() as meter:
        start = meter.clock()
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            harness.reference_kernel()
        elapsed = perf_counter() - t0
        assert meter.clock() > start
    assert meter.sampling > 0  # the timer fired inside the block
    assert meter.wall == pytest.approx(elapsed - meter.sampling, abs=0.01)
    assert meter.calibrated > 0


def test_tracer_records_parents_and_requests():
    tracer = harness.Tracer()
    with tracer.span("outer", "r1"):
        with tracer.span("inner", "r1", calls=4):
            pass
    outer, inner = tracer.spans
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert inner["request"] == "r1" and inner["end"] >= inner["start"]
    assert tracer.per_call("inner") == pytest.approx((inner["end"] - inner["start"]) / 4)

