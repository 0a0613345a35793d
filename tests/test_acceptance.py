"""Acceptance gate: one test per criterion.

Each test registers a PASS/FAIL line (printed in the terminal summary) and
then asserts. Tolerances are fixed here, not configurable.
"""

import math
import time

import pytest

from gaindex import (
    FamilySpec,
    canonical_form,
    compare_AB,
    compare_CD,
    f_eval,
    g_eval,
    ga_index,
    ga_sn3_closed,
    ga_spq4_closed,
    ga_srk3_closed,
    make_family,
    reduction_pipeline,
    verify_monotonicity,
)
from gaindex.families import a_diagonal_lower_bound, c_diagonal_lower_bound

from _oracles import enumerate_unicyclic_by_chords

# Printed reference table for the spq4-vs-sn3 gap decomposition:
# (p, q) -> (A, B) at 4 decimals.
TABLE_1_PRINTED = {
    (2, 2): (0.5543, 1.4468),
    (3, 2): (0.6934, 1.4641), (3, 3): (0.8721, 1.4713),
    (4, 2): (0.7994, 1.4749), (4, 3): (1.0108, 1.4834), (4, 4): (1.1767, 1.4681),
    (5, 2): (0.8825, 1.4829), (5, 3): (1.1211, 1.4740), (5, 4): (1.3102, 1.4624),
    (6, 2): (0.9491, 1.4896), (6, 3): (1.2109, 1.4744), (6, 4): (1.4199, 1.4572),
    (7, 2): (1.0036, 1.4957), (7, 3): (1.2853, 1.4750), (7, 4): (1.5116, 1.4531),
}

# Printed reference table for the srk3-vs-sn3 gap decomposition:
# (r, k) -> (C, D) at 4 decimals.
TABLE_2_PRINTED = {
    (2, 2): (0.4006, 1.1536),
    (3, 2): (0.5289, 1.1772), (3, 3): (0.7009, 1.2070),
    (4, 2): (0.6282, 1.1886), (4, 3): (0.8355, 1.2226), (4, 4): (0.9992, 1.2413),
    (5, 2): (0.7072, 1.1936), (5, 3): (0.9436, 1.2303), (5, 4): (1.1317, 1.2513),
    (5, 5): (1.2850, 1.2633),
    (6, 2): (0.7716, 1.1949), (6, 3): (1.0324, 1.2333), (6, 4): (1.2413, 1.2561),
    (6, 5): (1.4126, 1.2695),
    (7, 2): (0.8251, 1.1941), (7, 3): (1.1067, 1.2335), (7, 4): (1.3336, 1.2575),
    (7, 5): (1.5205, 1.2721),
    (8, 2): (0.8703, 1.1920), (8, 3): (1.1699, 1.2319), (8, 4): (1.4124, 1.2568),
    (8, 5): (1.6133, 1.2724),
    (9, 2): (0.9091, 1.1891), (9, 3): (1.2244, 1.2293), (9, 4): (1.4808, 1.2546),
    (9, 5): (1.6939, 1.2710),
    (10, 2): (0.9427, 1.1858), (10, 3): (1.2719, 1.2259), (10, 4): (1.5406, 1.2516),
    (10, 5): (1.7647, 1.2685),
    (11, 2): (0.9723, 1.1823), (11, 3): (1.3137, 1.2221), (11, 4): (1.5934, 1.2480),
    (11, 5): (1.8276, 1.2653),
    (12, 2): (0.9984, 1.1786), (12, 3): (1.3509, 1.2181), (12, 4): (1.6406, 1.2440),
    (12, 5): (1.8837, 1.2616),
    (13, 2): (1.0218, 1.1750), (13, 3): (1.3842, 1.2139), (13, 4): (1.6829, 1.2397),
    (13, 5): (1.9343, 1.2575),
}


def test_criterion_1_cycle_attains_upper_bound(criteria_log):
    start = time.perf_counter()
    offenders = []
    for n in range(3, 65):
        ga = ga_index(make_family(FamilySpec("cycle", (n,))))
        if abs(ga - n) > 1e-12:
            offenders.append((n, ga))
    elapsed = time.perf_counter() - start
    ok = not offenders and elapsed < 1.0
    criteria_log.append((1, "GA(C_n) = n to 1e-12 for 3 <= n <= 64", ok))
    assert not offenders, offenders
    assert elapsed < 1.0


def test_criterion_2_lower_bound_closed_form(criteria_log):
    start = time.perf_counter()
    offenders = []
    for n in range(3, 201):
        diff = abs(ga_sn3_closed(n) - ga_index(make_family(FamilySpec("sn3", (n,)))))
        if diff > 1e-9:
            offenders.append((n, diff))
    elapsed = time.perf_counter() - start
    ok = not offenders and elapsed < 1.0
    criteria_log.append((2, "closed form matches GA(sn3(n)) to 1e-9 for n <= 200", ok))
    assert not offenders, offenders
    assert elapsed < 1.0


def test_criterion_3_table1_reproduction(criteria_log):
    start = time.perf_counter()
    offenders = []
    for (p, q), (a_print, b_print) in sorted(TABLE_1_PRINTED.items()):
        a, b = compare_AB(p, q)
        if abs(a - a_print) > 5e-5:
            offenders.append(f"A({p},{q}): printed {a_print}, computed {a:.7f}")
        if abs(b - b_print) > 5e-5:
            offenders.append(f"B({p},{q}): printed {b_print}, computed {b:.7f}")
    elapsed = time.perf_counter() - start
    ok = not offenders and elapsed < 1.0
    criteria_log.append((3, "every printed table-1 entry matches compare_AB to 5e-5", ok))
    assert elapsed < 1.0
    # Three printed cells are misprints in the source table (the computed
    # values satisfy the table's own defining identity; see the decomposition
    # identity tests). The criterion is asserted as stated regardless.
    assert not offenders, "; ".join(offenders)


def test_criterion_4_table2_reproduction(criteria_log):
    start = time.perf_counter()
    offenders = []
    for (r, k), (c_print, d_print) in sorted(TABLE_2_PRINTED.items()):
        c, d = compare_CD(r, k)
        if abs(c - c_print) > 5e-5:
            offenders.append(f"C({r},{k}): printed {c_print}, computed {c:.7f}")
        if abs(d - d_print) > 5e-5:
            offenders.append(f"D({r},{k}): printed {d_print}, computed {d:.7f}")
    elapsed = time.perf_counter() - start
    ok = not offenders and elapsed < 1.0
    criteria_log.append((4, "every printed table-2 entry matches compare_CD to 5e-5", ok))
    assert not offenders, "; ".join(offenders)
    assert elapsed < 1.0


def test_criterion_5_named_proof_constants(criteria_log):
    checks = [
        ("2g(3)-f(5)", 2 * g_eval(3) - f_eval(5), 1.2142),
        ("A diagonal bound at q=5", a_diagonal_lower_bound(5), 1.0188),
        ("C diagonal bound at k=6", c_diagonal_lower_bound(6), 1.1118),
    ]
    offenders = [(name, got, want) for name, got, want in checks if abs(got - want) > 5e-5]
    ok = not offenders
    criteria_log.append((5, "named proof constants match to 5e-5", ok))
    assert not offenders, offenders


def test_criterion_6_exhaustive_bound_verification(criteria_log, unicyclic):
    start = time.perf_counter()
    offenders = []
    counts = {}
    for n in range(3, 10):
        graphs = unicyclic(n)
        counts[n] = len(graphs)
        lower, upper = ga_sn3_closed(n), float(n)
        cycle_key = canonical_form(make_family(FamilySpec("cycle", (n,))))
        sn3_key = canonical_form(make_family(FamilySpec("sn3", (n,))))
        min_ga, min_keys = None, set()
        for g in graphs:
            ga = ga_index(g)
            if ga < lower - 1e-9 or ga > upper + 1e-9:
                offenders.append(f"n={n}: GA={ga!r} outside bounds")
            if abs(ga - upper) <= 1e-9 and canonical_form(g) != cycle_key:
                offenders.append(f"n={n}: non-cycle graph attains the maximum")
            if min_ga is None or ga < min_ga - 1e-9:
                min_ga, min_keys = ga, {canonical_form(g)}
            elif abs(ga - min_ga) <= 1e-9:
                min_keys.add(canonical_form(g))
        if sn3_key not in min_keys:
            offenders.append(f"n={n}: sn3 does not attain the minimum")
    if counts[3] != 1 or counts[4] != 2:
        offenders.append(f"expected 1 and 2 classes at n=3,4, got {counts[3]}, {counts[4]}")
    for n in range(5, 10):
        second = {canonical_form(g) for g in enumerate_unicyclic_by_chords(n)}
        if second != {canonical_form(g) for g in unicyclic(n)}:
            offenders.append(f"n={n}: independent generators disagree")
    elapsed = time.perf_counter() - start
    ok = not offenders and elapsed < 60.0
    criteria_log.append((6, "bounds hold on every class for n <= 9; extremes attained as stated", ok))
    assert not offenders, offenders
    assert elapsed < 60.0


def test_criterion_7_monotonicity_sweep(criteria_log):
    start = time.perf_counter()
    offenders = []
    total = 0
    for n in range(5, 9):
        rep = verify_monotonicity(n, tol=1e-9)
        total += rep.total_applications
        offenders.extend(rep.violations)
    elapsed = time.perf_counter() - start
    ok = not offenders and elapsed < 120.0
    criteria_log.append(
        (7, f"no GA increase in {total} operator applications for 5 <= n <= 8", ok))
    assert not offenders, offenders
    assert elapsed < 120.0
    assert total > 0


def test_criterion_8_pipeline_totality(criteria_log, unicyclic):
    offenders = []
    for n in range(5, 9):
        lower = ga_sn3_closed(n)
        for g in unicyclic(n):
            trace = reduction_pipeline(g)
            family = trace.terminal_family.family
            if family not in ("sn3", "spq4", "srk3", "cycle"):
                offenders.append(f"n={n}: terminal {family}")
            if trace.ga_terminal > trace.ga_input + 1e-9:
                offenders.append(f"n={n}: terminal GA above input GA for {g!r}")
            if trace.ga_terminal < lower - 1e-9:
                offenders.append(f"n={n}: terminal GA below the sn3 bound for {g!r}")
    ok = not offenders
    criteria_log.append((8, "pipeline terminates in a family with GA in bounds for 5 <= n <= 8", ok))
    assert not offenders, offenders


def test_criterion_9_strict_family_ordering(criteria_log):
    start = time.perf_counter()
    offenders = []
    for n in range(5, 61):
        for q in range(0, (n - 4) // 2 + 1):
            if ga_sn3_closed(n) >= ga_spq4_closed(n - 4 - q, q):
                offenders.append(f"spq4({n - 4 - q},{q})")
    for n in range(5, 61):
        for k in range(1, (n - 3) // 2 + 1):
            if ga_sn3_closed(n) >= ga_srk3_closed(n - 3 - k, k):
                offenders.append(f"srk3({n - 3 - k},{k})")
    elapsed = time.perf_counter() - start
    ok = not offenders and elapsed < 1.0
    criteria_log.append((9, "sn3 sits strictly below spq4 and srk3 for n <= 60", ok))
    assert not offenders, offenders
    assert elapsed < 1.0
