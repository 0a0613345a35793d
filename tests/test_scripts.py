import pytest

from gaindex.enumeration import MAX_ORDER
from gaindex.graph import MAX_VERTICES

from _helpers import load_module


@pytest.mark.parametrize("argv", [
    ["--min-order", "2"],
    ["--max-order", str(MAX_ORDER + 1)],
    ["--min-order", "7", "--max-order", "6"],
])
def test_verify_bounds_rejects_orders_up_front(capsys, argv):
    assert load_module("scripts/verify_bounds.py").main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("n", [4, MAX_VERTICES + 1])
def test_reduce_random_rejects_order_out_of_range(capsys, n):
    assert load_module("scripts/reduce_random.py").main(["-n", str(n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_scripts_run_within_limits(capsys):
    assert load_module("scripts/verify_bounds.py").main(["--min-order", "5", "--max-order", "6"]) == 0
    assert "total violations: 0" in capsys.readouterr().out
    assert load_module("scripts/reduce_random.py").main(["-n", "12", "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("input: n=12")
