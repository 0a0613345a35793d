"""Pinned expected outputs and the correctness checks run on every
benchmark run. Each check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math

# OEIS A001429: connected unicyclic graphs on n nodes.
A001429 = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026}

VERIFY_ORDERS = (3, 12)
# sha256 of the stdout of `gaindex verify 3..12 --format json`, which must
# stay byte-identical across refactors.
VERIFY_JSON_SHA256 = "63b65cd193e0046faab51421f72f0e8b628d30c810525414075008054b307f0c"

MONOTONICITY_ORDERS = (5, 10)
OPERATORS = (
    "star_transform",
    "relocate_min",
    "arc_transform",
    "finish_two_neighbors_deg2",
    "finish_one_neighbor_deg2",
)
# Accepted applications per operator (in OPERATORS order) for each order.
MONOTONICITY_APPLICATIONS = {
    5: (11, 29, 54, 6, 2),
    6: (27, 65, 134, 10, 2),
    7: (64, 129, 296, 14, 6),
    8: (171, 306, 666, 25, 10),
    9: (456, 717, 1449, 44, 25),
    10: (1256, 1846, 3544, 90, 53),
}

# sha256 of `gaindex reduce PATH --format json` for the first graphs of the
# corpus with this seed. Together they take all five operators and end in
# spq4, srk3 and a bare cycle.
GOLDEN_SEED = 26
GOLDEN_REDUCE_SHA256 = (
    "538ae3901e3b069c1b401d2cfc23386fa30f3a86fc6bd4adc1e1f838b1fa3d90",
    "ddb4c8e9643f2cec6c5720c4446439dbf91f77ca58d86ef33aab2fffb336068e",
    "93988dc8cf50fafa59cd47bc0801ac31a4182a40dd602dfe31f44ab60065efb5",
    "f60c5aa474209b3b38010640db809140fd15294dc71e3cee38cdad9a9e76c41e",
    "5ee291d7793072c9608c4a7a7df885d6170476c1c971bbbe8547a20c9a173384",
    "63ef8e71e589b18ceb7b2380d8c5d68009987b2084c7688b800622273d47ba6f",
    "5dc44220f1de573fd7315fef6e613e9a58470713b615fbbbd37658eddc0e15b4",
    "be2ee1745cfa06509a5135a2eae05f0c3fe10114d1fc1977252df1367f9a28ae",
    "c29f59a7614aa37b143140ca1817db394bda2a81da0193a30e2a430eb69c8885",
    "9c0e69ed41afc771fba46a9a8aa389f4668bf709a29a1daebec56c44f4f61b67",
    "c0aa51da61d4cbad8878751b4f658110ea16cf5af6e2d49a6412c9b8a7945eec",
    "5d59fbdbcc9d14c47f4dbf1c3abb0b050c207f563287c0ffe1d1814d5e4cf90c",
)

# Outputs round GA to 9 decimals; allow for that rounding and the CLI's tol.
GA_TOL = 1e-8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ga_sn3(n: int) -> float:
    """GA of the triangle with n-3 pendants on one vertex, from its degrees
    (n-3 edges 1:(n-1), two edges 2:(n-1), one edge 2:2)."""
    return ((n - 3) * 2 * math.sqrt(n - 1) / n
            + 2 * 2 * math.sqrt(2 * (n - 1)) / (n + 1)
            + 1.0)


def check_verify(returncode: int, stdout: bytes, counts=A001429,
                 digest=VERIFY_JSON_SHA256) -> list[str]:
    """`gaindex verify 3..12 --format json`: exit 0, pinned class counts, no
    violations, extremes where the theorem puts them, byte-exact output."""
    if returncode != 0:
        return [f"verify exited with {returncode}"]
    problems = []
    doc = json.loads(stdout)
    orders = {r["n"]: r for r in doc["orders"]}
    lo, hi = VERIFY_ORDERS
    if sorted(orders) != list(range(lo, hi + 1)):
        problems.append(f"verify reported orders {sorted(orders)}")
    for n, r in sorted(orders.items()):
        if r["count"] != counts.get(n):
            problems.append(f"n={n}: {r['count']} classes, expected {counts.get(n)}")
        if r["violations"] or not r["max_only_cycle"] or not r["min_attained_by_sn3"]:
            problems.append(f"n={n}: bound report is not clean")
    if doc["violations_total"] != 0:
        problems.append(f"verify found {doc['violations_total']} violations")
    if sha256(stdout) != digest:
        problems.append("verify JSON differs from the pinned digest")
    return problems


def check_monotonicity(report: dict, counts=A001429,
                       applications=MONOTONICITY_APPLICATIONS) -> list[str]:
    """One `verify_monotonicity(n).to_dict()`: pinned graph and per-operator
    application counts, and no violations."""
    n = report["n"]
    problems = []
    if report["graphs"] != counts.get(n):
        problems.append(f"n={n}: {report['graphs']} graphs, expected {counts.get(n)}")
    got = tuple(report["applications"].get(op, 0) for op in OPERATORS)
    if got != applications.get(n):
        problems.append(f"n={n}: applications {got}, expected {applications.get(n)}")
    if report["violations"]:
        problems.append(f"n={n}: {len(report['violations'])} monotonicity violations")
    return problems


def check_reduce(n: int, output: bytes) -> list[str]:
    """One `gaindex reduce --format json` trace: GA never rises along the
    steps and the terminal lies within [GA(sn3(n)), n]."""
    doc = json.loads(output)
    if doc["n"] != n:
        return [f"trace is for n={doc['n']}, input has n={n}"]
    problems = []
    ga = doc["ga_input"]
    for i, step in enumerate(doc["steps"], start=1):
        if abs(step["ga_before"] - ga) > GA_TOL:
            problems.append(f"n={n} step {i}: starts at GA {step['ga_before']}, previous was {ga}")
        if step["ga_after"] > step["ga_before"] + GA_TOL:
            problems.append(f"n={n} step {i}: {step['op']} raised GA")
        ga = step["ga_after"]
    if abs(doc["ga_terminal"] - ga) > GA_TOL:
        problems.append(f"n={n}: terminal GA {doc['ga_terminal']} is not the last step's {ga}")
    if not ga_sn3(n) - GA_TOL <= doc["ga_terminal"] <= n + GA_TOL:
        problems.append(f"n={n}: terminal GA {doc['ga_terminal']} outside [GA(sn3), n]")
    return problems
