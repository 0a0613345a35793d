import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from gaindex import FamilySpec, format_edge_list, make_family, transforms
from gaindex.cli import (
    INPUT_ERROR,
    MAX_TABLE_CELLS,
    USAGE_ERROR,
    VERIFICATION_FAILURE,
    build_parser,
    main,
)
from gaindex.enumeration import MAX_BOUND_ORDER, MAX_MONOTONICITY_ORDER, MAX_ORDER
from gaindex.graph import MAX_VERTICES, SCALE

from _helpers import REPO, lift_ring_edits, lift_ring_sums, load_module

PAW = "4 4\n0 1\n0 2\n0 3\n1 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def paw_file(tmp_path):
    path = tmp_path / "paw.txt"
    path.write_text(PAW)
    return str(path)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_paw_text(capsys, paw_file):
    code, out, err = run(capsys, "compute", paw_file)
    assert code == 0
    assert "GA = 3.825617198" in out
    assert "AG = 4.195941991" in out
    assert "girth = 3" in out
    rows = [line for line in out.splitlines() if "-" in line and "=" not in line]
    assert len(rows) == 4  # one per edge


def test_compute_edges_sorted_by_rd(capsys, paw_file):
    code, out, _ = run(capsys, "compute", paw_file, "--format", "json")
    doc = json.loads(out)
    rds = [e["rd"] for e in doc["edges"]]
    assert rds == sorted(rds)
    assert doc["girth"] == 3
    assert doc["ga"] == pytest.approx(3.825617198, abs=1e-9)


def test_compute_cycle_c7(capsys, tmp_path):
    path = tmp_path / "c7.txt"
    edges = [(i, (i + 1) % 7) for i in range(7)]
    path.write_text("7 7\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out, _ = run(capsys, "compute", str(path))
    assert code == 0
    assert "GA = 7.000000000" in out


def test_compute_csv(capsys, paw_file):
    code, out, _ = run(capsys, "compute", paw_file, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "u,v,du,dv,rd,ga"
    assert len(out.splitlines()) == 5


def test_compute_parse_error_names_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n1 x\n")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 2
    assert "line 3" in err


def test_compute_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "compute", str(tmp_path / "nope.txt"))
    assert code == 2


@pytest.mark.parametrize("command", ["compute", "reduce"])
def test_input_that_is_not_utf8_is_an_input_error(capsys, tmp_path, command):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe\n")
    code, out, err = run(capsys, command, str(path))
    assert code == INPUT_ERROR
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")


def test_compute_disconnected_warns(capsys, tmp_path):
    path = tmp_path / "disc.txt"
    path.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 0
    assert "disconnected" in err
    assert "girth" not in out


def test_compute_rejects_a_graph_without_edges(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("3 0\n")
    code, out, err = run(capsys, "compute", str(path))
    assert (code, out, err) == (INPUT_ERROR, "", "error: graph has no edges; GA is undefined\n")


def test_compute_rejects_a_header_that_is_not_two_integers(capsys, tmp_path):
    path = tmp_path / "header.txt"
    path.write_text("a b\n")
    code, out, err = run(capsys, "compute", str(path))
    assert (code, out) == (INPUT_ERROR, "")
    assert err.startswith("error: line 1: expected two integers in header")


def test_compute_rejects_order_above_limit(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"{MAX_VERTICES + 1} 1\n0 1\n")
    code, _, err = run(capsys, "compute", str(path))
    assert code == INPUT_ERROR
    assert f"limit of {MAX_VERTICES}" in err


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


def test_family_emits_parseable_edge_list(capsys, tmp_path):
    code, out, _ = run(capsys, "family", "spq4", "2", "2")
    assert code == 0
    assert out.splitlines()[0] == "8 8"
    path = tmp_path / "fam.txt"
    path.write_text(out)
    code2, out2, _ = run(capsys, "compute", str(path))
    assert code2 == 0
    assert "girth = 4" in out2


def test_family_json_reports_closed_form(capsys):
    code, out, _ = run(capsys, "family", "sn3", "6", "--format", "json")
    doc = json.loads(out)
    assert doc["ga"] == pytest.approx(doc["ga_closed_form"], abs=1e-9)


def test_family_bad_params(capsys):
    code, _, err = run(capsys, "family", "sn3", "2")
    assert code == 1


@pytest.mark.parametrize("params", [("sn3", MAX_VERTICES + 1), ("spq4", MAX_VERTICES - 3, 0)])
def test_family_rejects_order_above_limit(capsys, params):
    code, out, err = run(capsys, "family", *map(str, params))
    assert code == USAGE_ERROR
    assert out == ""
    assert f"limit of {MAX_VERTICES}" in err


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_table1_default_layout(capsys):
    code, out, _ = run(capsys, "tables", "1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "p,A(q=2),B(q=2),A(q=3),B(q=3),A(q=4),B(q=4)"
    assert len(lines) == 7
    assert lines[1].startswith("2,0.5542,1.4468,-,-,-,-")
    assert lines[6].split(",")[1] == "1.0036"  # A(7,2)


def test_table2_default_layout(capsys):
    code, out, _ = run(capsys, "tables", "2")
    lines = out.splitlines()
    assert len(lines) == 13
    first = lines[1].split(",")
    assert first[1] == "0.4006" and first[2] == "1.1536"
    last = lines[12].split(",")
    assert last[1] == "1.0218"  # C(13,2)


def test_table1_extended_column(capsys):
    code, out, _ = run(capsys, "tables", "1", "--rows", "5:7", "--cols", "5:5")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "p,A(q=5),B(q=5)"
    assert lines[1].startswith("5,")


def test_tables_invalid_range(capsys):
    code, _, err = run(capsys, "tables", "2", "--cols", "0:3")
    assert code == 1
    code, _, err = run(capsys, "tables", "1", "--rows", "7:2")
    assert code == 1
    code, out, err = run(capsys, "tables", "2", "--rows", "2:3:4")
    assert (code, out, err) == (USAGE_ERROR, "", "error: bad row range '2:3:4', expected A or A:B\n")


def test_tables_rejects_grid_above_limit(capsys):
    code, out, _ = run(capsys, "tables", "1", "--rows", f"1:{MAX_TABLE_CELLS}", "--cols", "0:0")
    assert code == 0
    assert len(out.splitlines()) == MAX_TABLE_CELLS + 1
    code, out, err = run(capsys, "tables", "1", "--rows", f"0:{MAX_TABLE_CELLS}", "--cols", "0:0")
    assert code == USAGE_ERROR
    assert out == ""
    assert f"limit of {MAX_TABLE_CELLS} cells" in err


# the text layout pads every cell to its column, a row's last "-" included
TABLE1_TEXT = (
    "p  A(q=2)  B(q=2)  A(q=3)  B(q=3)  A(q=4)  B(q=4)\n"
    "2  0.5542  1.4468  -       -       -       -     \n"
    "3  0.6934  1.4641  0.8721  1.4713  -       -     \n"
    "4  0.7994  1.4749  1.0108  1.4734  1.1767  1.4681\n"
    "5  0.8825  1.4829  1.1211  1.4740  1.3102  1.4624\n"
    "6  0.9491  1.4896  1.2109  1.4744  1.4199  1.4572\n"
    "7  1.0036  1.4957  1.2853  1.4750  1.5117  1.4531\n"
)


def test_table1_text_is_pinned(capsys):
    assert run(capsys, "tables", "1", "--format", "text") == (0, TABLE1_TEXT, "")


def test_tables_byte_stable(capsys):
    _, out1, _ = run(capsys, "tables", "1")
    _, out2, _ = run(capsys, "tables", "1")
    assert out1 == out2


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_fixed_point_sn3(capsys, tmp_path):
    _, fam, _ = run(capsys, "family", "sn3", "6")
    path = tmp_path / "sn3.txt"
    path.write_text(fam)
    code, out, _ = run(capsys, "reduce", str(path))
    assert code == 0
    assert "terminal: sn3(6)" in out
    doc_code, doc_out, _ = run(capsys, "reduce", str(path), "--format", "json")
    doc = json.loads(doc_out)
    assert doc["terminal_family"] == {"family": "sn3", "params": [6]}
    assert all(s["ga_after"] <= s["ga_before"] + 1e-9 for s in doc["steps"])


def test_reduce_small_order_paw(capsys, paw_file):
    code, out, _ = run(capsys, "reduce", paw_file)
    assert code == 0
    assert "small-order case paw" in out


def test_reduce_small_order_json(capsys, paw_file):
    code, out, _ = run(capsys, "reduce", paw_file, "--format", "json")
    assert code == 0
    assert out == json.dumps({
        "ga": 3.825617198,
        "n": 4,
        "note": "the paw graph attains the lower bound on 4 vertices",
        "small_order_case": "paw",
    }, indent=2) + "\n"


def test_reduce_rejects_tree(capsys, tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, _, err = run(capsys, "reduce", str(path))
    assert code == 2
    assert "not unicyclic" in err


def test_reduce_rejects_two_triangles(capsys, tmp_path):
    # |E| = |V| but disconnected: the cycle search itself must reject it
    path = tmp_path / "triangles.txt"
    path.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    code, out, err = run(capsys, "reduce", str(path))
    assert (code, out, err) == (INPUT_ERROR, "", "error: input graph is not unicyclic\n")


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "abc"])
@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_tol_must_be_finite_and_nonnegative(capsys, paw_file, command, tol):
    target = paw_file if command == "reduce" else "6"
    code, out, err = run(capsys, command, target, "--tol", tol)
    assert code == USAGE_ERROR
    assert out == ""
    assert "--tol" in err


def test_reduce_accepts_a_zero_tol(capsys, tmp_path, paw_file):
    # sn3(8)'s trace has no-op steps, which rise by exactly 0
    sn3_file = tmp_path / "sn3.txt"
    sn3_file.write_text(format_edge_list(make_family(FamilySpec("sn3", (8,)))))
    for path in (paw_file, str(sn3_file)):
        default = run(capsys, "reduce", path)
        assert default[0] == 0
        assert run(capsys, "reduce", path, "--tol", "0") == default


def test_verify_accepts_a_zero_tol(capsys):
    # every bound is an exact ring sum, so sn3 attains its own bound exactly
    code, out, _ = run(capsys, "verify", "3..13", "--tol", "0")
    assert code == 0
    assert out.endswith("total violations: 0\n")


def test_reduce_trace_flag_lists_edges(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("7 7\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 6\n")
    code, out, _ = run(capsys, "reduce", str(path), "--trace")
    assert code == 0
    assert "edges:" in out


def test_reduce_json_is_pinned(capsys, tmp_path):
    # the golden graphs of the benchmark's reduce workload; together they
    # take all five operators and end in spq4, srk3 and a bare cycle
    corpus, gates = load_module("bench/corpus.py"), load_module("bench/gates.py")
    texts = corpus.make_corpus(gates.GOLDEN_SEED, len(gates.GOLDEN_REDUCE_SHA256))
    for i, (text, expected) in enumerate(zip(texts, gates.GOLDEN_REDUCE_SHA256)):
        path = tmp_path / f"g{i}.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "reduce", str(path), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, f"golden graph {i}"


@pytest.mark.parametrize("argv", [
    pytest.param(["--random", "2"], id="order-below-3"),
    pytest.param(["--random", str(MAX_VERTICES + 1)], id="order-above-limit"),
    pytest.param(["PAW", "--seed", "1"], id="seed-without-random"),
    pytest.param(["PAW", "--random", "5"], id="path-and-random"),
    pytest.param([], id="neither-path-nor-random"),
])
def test_reduce_random_rejects_bad_arguments(capsys, paw_file, argv):
    argv = [paw_file if a == "PAW" else a for a in argv]
    code, out, err = run(capsys, "reduce", *argv)
    assert code == USAGE_ERROR
    assert out == ""
    assert err.startswith(("error:", "usage:"))


def test_reduce_random_accepts_the_small_orders(capsys):
    code, out, _ = run(capsys, "reduce", "--random", "3")
    assert code == 0
    assert out.startswith("small-order case C3:")


def test_reduce_json_round_trips(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("7 7\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 6\n")
    _, out, _ = run(capsys, "reduce", str(path), "--format", "json")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_reduce_reports_a_failed_runtime_check(capsys, tmp_path, monkeypatch):
    # a relocation that returns the cycle raises GA; the pipeline's check must catch it
    cycle = make_family(FamilySpec("cycle", (7,)))

    def relocate_min(g, u, v):
        return cycle

    monkeypatch.setattr(transforms, "relocate_min", relocate_min)
    path = tmp_path / "g.txt"
    path.write_text("7 7\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 6\n")
    code, out, err = run(capsys, "reduce", str(path))
    assert code == VERIFICATION_FAILURE
    assert out == ""
    assert err.startswith("error: relocate_min raised GA from ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert transforms._runtime_check_tol is None


# ---------------------------------------------------------------------------
# one process, many calls
# ---------------------------------------------------------------------------


def test_main_runs_repeatedly_in_one_process(capsys, tmp_path, monkeypatch):
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    path = tmp_path / "g.txt"
    path.write_text("7 7\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 6\n")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["reduce", str(path), "--format", "json", "--out", str(first)]) == 0
    assert built, "the first call builds the parser"
    parsers = len(built)
    assert run(capsys, "verify", "6..3")[0] == USAGE_ERROR
    assert run(capsys, "reduce")[0] == USAGE_ERROR  # rejected by argparse itself
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: gaindex")
    code, out, _ = run(capsys, "tables", "1", "--format", "json")
    assert code == 0 and json.loads(out)["table"] == 1
    assert main(["reduce", str(path), "--format", "json", "--out", str(second)]) == 0
    assert len(built) == parsers, "a later call built a parser again"
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_order(capsys):
    code, out, _ = run(capsys, "verify", "5")
    assert code == 0
    assert "n=5: 5 classes" in out
    assert "total violations: 0" in out


def test_verify_range(capsys):
    code, out, _ = run(capsys, "verify", "3..6")
    assert code == 0
    for n, count in ((3, 1), (4, 2), (5, 5), (6, 13)):
        assert f"n={n}: {count} classes" in out


def test_verify_json_round_trips(capsys):
    code, out, _ = run(capsys, "verify", "4..5", "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
    doc = json.loads(out)
    assert doc["violations_total"] == 0


def test_verify_json_is_pinned(capsys):
    # sha256 of `gaindex verify 3..12 --format json`, the same digest the
    # benchmark's verify workload checks
    code, out, _ = run(capsys, "verify", "3..12", "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "63b65cd193e0046faab51421f72f0e8b628d30c810525414075008054b307f0c"


@pytest.mark.parametrize("argv, expected", [
    # the text of the former bounds-plus-monotonicity sweep script, for orders 5..7
    (["verify", "5..7", "--monotonicity"],
     "2f8ddea3696871cadc4e2fdee9bd7ab867580763cae3762c478c5394fa7c9084"),
    # the text of the former random-reduction script, n = 12, seed 3, edge lists on
    (["reduce", "--random", "12", "--seed", "3", "--trace"],
     "432383a61e4a88a4bf065185ede4ccd276a0a4af44523a7f3fe2cab5b8b8f1ac"),
], ids=["verify-monotonicity", "reduce-random"])
def test_folded_script_output_is_pinned(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_verify_monotonicity_json(capsys):
    code, out, _ = run(capsys, "verify", "4..6", "--format", "json", "--monotonicity")
    assert code == 0
    doc = json.loads(out)
    assert [m["n"] for m in doc["monotonicity"]] == [5, 6]
    assert doc["violations_total"] == 0
    _, plain, _ = run(capsys, "verify", "4..6", "--format", "json")
    assert "monotonicity" not in json.loads(plain)


@pytest.mark.parametrize("orders", ["2..4", f"3..{MAX_MONOTONICITY_ORDER + 1}", "7..6"])
def test_verify_monotonicity_rejects_orders_up_front(capsys, orders):
    code, out, err = run(capsys, "verify", orders, "--monotonicity")
    assert code == USAGE_ERROR
    assert out == ""
    assert err.startswith("error:")


def test_verify_reports_bound_violations(capsys, monkeypatch):
    # ring sums lifted by n: each class rises above the upper bound n
    lift_ring_sums(monkeypatch, lambda choice: 5 * SCALE)
    code, out, _ = run(capsys, "verify", "5")
    assert code == VERIFICATION_FAILURE
    assert out.count("  violation: GA=") == 5
    assert out.endswith("total violations: 5\n")


def test_verify_reports_monotonicity_violations(capsys, monkeypatch):
    # each star edit lifted by 1, more than any star transformation lowers GA at n = 5
    lift_ring_edits(monkeypatch, lambda choice, op, where, rise:
                    rise + SCALE if op == "star_transform" else rise)
    code, out, _ = run(capsys, "verify", "5", "--monotonicity", "--format", "json")
    assert code == VERIFICATION_FAILURE
    doc = json.loads(out)
    problems = [v["problem"] for v in doc["monotonicity"][0]["violations"]]
    assert problems and all(p.startswith("GA increased by ") for p in problems)
    assert doc["violations_total"] == len(problems)
    assert doc["orders"][0]["violations"] == []


def test_verify_range_too_large(capsys):
    code, _, err = run(capsys, "verify", "40")
    assert code == 1
    assert "range too large" in err


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "abc")
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["verify", f"3..{MAX_BOUND_ORDER + 1}"],
     f"range too large: bound verification is capped at n = {MAX_BOUND_ORDER}"),
    (["verify", f"3..{MAX_MONOTONICITY_ORDER + 1}", "--monotonicity"],
     f"range too large: the monotonicity sweep is capped at n = {MAX_MONOTONICITY_ORDER}"),
    # the range is reported as typed, and only `..` separates its ends
    (["verify", "6..3"], "bad order range '6..3': empty"),
    (["verify", "3:5"], "bad order range '3:5', expected A or A..B"),
    (["verify", "3..4..5"], "bad order range '3..4..5', expected A or A..B"),
], ids=["bound-cap", "monotonicity-cap", "empty", "colon", "two-separators"])
def test_verify_rejects_ranges(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == USAGE_ERROR
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_reaches_beyond_the_graph_cap(capsys):
    code, out, _ = run(capsys, "verify", f"{MAX_ORDER + 1}")
    assert code == 0
    assert out.startswith(f"n={MAX_ORDER + 1}: 13999 classes")
    assert out.endswith("total violations: 0\n")


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_flags_rejected_where_they_do_nothing(capsys, paw_file):
    assert main(["compute", paw_file, "--tol", "1"]) == USAGE_ERROR
    assert main(["verify", "3", "--trace"]) == USAGE_ERROR
    assert main(["compute", paw_file, "--monotonicity"]) == USAGE_ERROR
    assert main(["verify", "3", "--random", "5"]) == USAGE_ERROR
    assert main(["reduce", paw_file, "--monotonicity"]) == USAGE_ERROR


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv, target", [
    (["compute", "PAW"], "no-such-dir/x.txt"),
    (["family", "sn3", "5"], "no-such-dir/x.txt"),
    (["tables", "1"], "no-such-dir/x.csv"),
    (["reduce", "PAW"], "no-such-dir/x.txt"),
    (["reduce", "PAW"], "."),
    (["verify", "3..4"], "no-such-dir/x.json"),
], ids=["compute", "family", "tables", "reduce", "reduce-to-directory", "verify"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, paw_file, argv, target):
    target = tmp_path / target
    argv = [paw_file if a == "PAW" else a for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == USAGE_ERROR
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


def test_out_flag_writes_file(capsys, tmp_path, paw_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "compute", paw_file, "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["ga"] == pytest.approx(3.825617198, abs=1e-9)


def test_closed_stdout_ends_without_a_traceback():
    # `gaindex verify ... | head -c 0`: the reader is gone before the first write
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "gaindex", "verify", "3..12", "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == USAGE_ERROR
    assert "Traceback" not in err
