import hashlib
import json
import math

import pytest

from gaindex.cli import INPUT_ERROR, MAX_TABLE_CELLS, USAGE_ERROR, main
from gaindex.graph import MAX_VERTICES

from _helpers import load_module

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


def test_compute_disconnected_warns(capsys, tmp_path):
    path = tmp_path / "disc.txt"
    path.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 0
    assert "disconnected" in err
    assert "girth" not in out


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


def test_tables_rejects_grid_above_limit(capsys):
    code, out, _ = run(capsys, "tables", "1", "--rows", f"1:{MAX_TABLE_CELLS}", "--cols", "0:0")
    assert code == 0
    assert len(out.splitlines()) == MAX_TABLE_CELLS + 1
    code, out, err = run(capsys, "tables", "1", "--rows", f"0:{MAX_TABLE_CELLS}", "--cols", "0:0")
    assert code == USAGE_ERROR
    assert out == ""
    assert f"limit of {MAX_TABLE_CELLS} cells" in err


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


def test_reduce_rejects_tree(capsys, tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, _, err = run(capsys, "reduce", str(path))
    assert code == 2
    assert "not unicyclic" in err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_tol_must_be_finite_and_nonnegative(capsys, paw_file, command, tol):
    target = paw_file if command == "reduce" else "6"
    code, out, err = run(capsys, command, target, "--tol", tol)
    assert code == USAGE_ERROR
    assert out == ""
    assert "--tol" in err


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


def test_reduce_json_round_trips(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("7 7\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 6\n")
    _, out, _ = run(capsys, "reduce", str(path), "--format", "json")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


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


def test_verify_range_too_large(capsys):
    code, _, err = run(capsys, "verify", "40")
    assert code == 1
    assert "range too large" in err


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "abc")
    assert code == 1


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_flags_rejected_where_they_do_nothing(capsys, paw_file):
    assert main(["compute", paw_file, "--tol", "1"]) == USAGE_ERROR
    assert main(["verify", "3", "--trace"]) == USAGE_ERROR


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_out_flag_writes_file(capsys, tmp_path, paw_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "compute", paw_file, "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["ga"] == pytest.approx(3.825617198, abs=1e-9)
