"""Command-line interface.

Subcommands: compute, family, tables, reduce, verify. Exit codes: 0 on
success, 1 for usage errors and unwritable output (a bad --out, a closed
stdout), 2 for input errors, 3 when verification finds a bound or
monotonicity violation or a reduce runtime check catches a GA increase.
Output is byte-stable for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

from .enumeration import (MAX_BOUND_ORDER, MAX_MONOTONICITY_ORDER, verify_bounds,
                          verify_monotonicity)
from .families import (
    FAMILY_NAMES,
    FamilySpec,
    closed_form,
    make_family,
    table_ab,
    table_cd,
    TABLE_AB_COLS,
    TABLE_AB_ROWS,
    TABLE_CD_COLS,
    TABLE_CD_ROWS,
)
from .graph import (
    MAX_VERTICES,
    GraphError,
    NotUnicyclicError,
    build_graph,
    format_edge_list,
    is_connected,
    is_unicyclic,
    parse_edge_list,
)
from .indices import ag_index, edge_contribution, ga_index
from .transforms import MonotonicityError, SmallOrderError, reduction_pipeline, set_runtime_checks

USAGE_ERROR = 1
INPUT_ERROR = 2
VERIFICATION_FAILURE = 3

_SMALL_ORDER_NOTES = {
    "C3": "C_3 is the unique unicyclic graph on 3 vertices; GA = 3 meets both bounds",
    "C4": "C_4 attains the upper bound GA = 4 on 4 vertices",
    "paw": "the paw graph attains the lower bound on 4 vertices",
}

_TABLES = {
    1: (table_ab, TABLE_AB_ROWS, TABLE_AB_COLS, 0, "p", "q", "A", "B"),
    2: (table_cd, TABLE_CD_ROWS, TABLE_CD_COLS, 1, "r", "k", "C", "D"),
}

# Upper bound on the cells one `tables` call computes; the grid comes from
# user-supplied ranges, so an unchecked one could ask for billions of cells.
MAX_TABLE_CELLS = 10_000


class _UsageError(Exception):
    """Bad arguments or an unwritable --out: reported by main with exit code 1."""


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_graph(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    return parse_edge_list(text)


def _cmd_compute(args) -> int:
    g = _load_graph(args.path)
    if not g.edges:
        raise GraphError("graph has no edges; GA is undefined")
    connected = is_connected(g)
    if not connected:
        print("warning: graph is disconnected", file=sys.stderr)
    contribs = sorted(
        (edge_contribution(g, e) for e in g.edges),
        key=lambda c: (c.rd, c.edge),
    )
    girth = g.cycle.girth if is_unicyclic(g) else None
    if args.format == "json":
        _emit(_json_text({
            "n": g.n,
            "m": g.m,
            "connected": connected,
            "girth": girth,
            "ga": round(ga_index(g), 9),
            "ag": round(ag_index(g), 9),
            "edges": [
                {"u": c.edge[0], "v": c.edge[1], "du": c.du, "dv": c.dv,
                 "rd": round(c.rd, 9), "ga": round(c.ga, 9)}
                for c in contribs
            ],
        }), args.out)
    elif args.format == "csv":
        lines = ["u,v,du,dv,rd,ga"]
        lines.extend(f"{c.edge[0]},{c.edge[1]},{c.du},{c.dv},{c.rd:.9f},{c.ga:.9f}"
                     for c in contribs)
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [
            f"n = {g.n}",
            f"m = {g.m}",
            f"GA = {ga_index(g):.9f}",
            f"AG = {ag_index(g):.9f}",
        ]
        if girth is not None:
            lines.append(f"girth = {girth}")
        lines.append("edge   du dv  rd          GA_e")
        lines.extend(
            f"{c.edge[0]:>2}-{c.edge[1]:<2}  {c.du:>2} {c.dv:>2}  {c.rd:<10.6f}  {c.ga:.9f}"
            for c in contribs
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_family(args) -> int:
    try:
        spec = FamilySpec(args.name, tuple(args.params))
        g = make_family(spec)
    except ValueError as exc:
        raise _UsageError(exc) from exc
    if args.format == "json":
        _emit(_json_text({
            "family": spec.family,
            "params": list(spec.params),
            "n": g.n,
            "edges": [list(e) for e in g.sorted_edges()],
            "ga": round(ga_index(g), 9),
            "ga_closed_form": round(closed_form(spec), 9),
        }), args.out)
    else:
        _emit(format_edge_list(g), args.out)
    return 0


def _parse_range(text: str, what: str, sep: str = ":") -> tuple[int, int]:
    parts = text.split(sep)
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad {what} range {text!r}, expected A or A{sep}B") from None
    if lo > hi:
        raise ValueError(f"bad {what} range {text!r}: empty")
    return lo, hi


def _cmd_tables(args) -> int:
    build, default_rows, default_cols, least, head, col_var, a_name, b_name = _TABLES[args.which]
    try:
        rows = _parse_range(args.rows, "row") if args.rows else (default_rows[0], default_rows[-1])
        cols = _parse_range(args.cols, "column") if args.cols else (default_cols[0], default_cols[-1])
        if rows[0] < least or cols[0] < least:
            raise ValueError(f"table {args.which} needs {head} >= {col_var} >= {least}")
        if (rows[1] - rows[0] + 1) * (cols[1] - cols[0] + 1) > MAX_TABLE_CELLS:
            raise ValueError(f"table exceeds the limit of {MAX_TABLE_CELLS} cells")
        data = build(range(rows[0], rows[1] + 1), range(cols[0], cols[1] + 1))
    except ValueError as exc:
        raise _UsageError(exc) from exc

    col_values = list(range(cols[0], cols[1] + 1))
    if args.format == "json":
        rows_out = []
        for row, cells in data:
            entry = {head: row}
            for c in col_values:
                pair = cells[c]
                entry[f"{a_name}({c})"] = None if pair is None else round(pair[0], 4)
                entry[f"{b_name}({c})"] = None if pair is None else round(pair[1], 4)
            rows_out.append(entry)
        _emit(_json_text({"table": args.which, "rows": rows_out}), args.out)
        return 0

    header = [head]
    for c in col_values:
        header.append(f"{a_name}({col_var}={c})")
        header.append(f"{b_name}({col_var}={c})")
    body = []
    for row, cells in data:
        line = [str(row)]
        for c in col_values:
            pair = cells[c]
            if pair is None:
                line.extend(["-", "-"])
            else:
                line.extend([f"{pair[0]:.4f}", f"{pair[1]:.4f}"])
        body.append(line)
    if args.format == "text":
        widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.extend("  ".join(x.ljust(w) for x, w in zip(r, widths)) for r in body)
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [",".join(header)]
        lines.extend(",".join(r) for r in body)
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _random_unicyclic(n: int, rng: random.Random):
    """A cycle of random girth plus a random recursive forest hung on it."""
    girth = rng.randint(3, n)
    edges = [(i, (i + 1) % girth) for i in range(girth)]
    for w in range(girth, n):
        edges.append((rng.randrange(w), w))
    return build_graph(n, edges)


def _cmd_reduce(args) -> int:
    if args.random is None:
        if args.seed is not None:
            raise _UsageError("--seed needs --random")
        g = _load_graph(args.path)
    elif not 3 <= args.random <= MAX_VERTICES:
        raise _UsageError(f"--random must be between 3 and {MAX_VERTICES}, got {args.random}")
    else:
        g = _random_unicyclic(args.random, random.Random(args.seed or 0))
    try:
        set_runtime_checks(args.tol)
        try:
            trace = reduction_pipeline(g)
        finally:
            set_runtime_checks(None)
    except NotUnicyclicError:
        raise GraphError("input graph is not unicyclic") from None
    except MonotonicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE
    except SmallOrderError as exc:
        note = _SMALL_ORDER_NOTES[exc.case]
        if args.format == "json":
            _emit(_json_text({
                "n": exc.n,
                "small_order_case": exc.case,
                "note": note,
                "ga": round(ga_index(g), 9),
            }), args.out)
        else:
            _emit(f"small-order case {exc.case}: {note}\nGA = {ga_index(g):.9f}\n", args.out)
        return 0
    if args.format == "json":
        _emit(trace.to_json(include_edges=args.trace), args.out)
    else:
        _emit(trace.to_text(include_edges=args.trace), args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        lo, hi = _parse_range(args.orders, "order", "..")
        if lo < 3:
            raise ValueError(f"orders start at 3, got {lo}")
        # the sweep's cap first: it is no higher than the bounds' cap
        if args.monotonicity and hi > MAX_MONOTONICITY_ORDER:
            raise ValueError("range too large: the monotonicity sweep is capped at "
                             f"n = {MAX_MONOTONICITY_ORDER}")
        if hi > MAX_BOUND_ORDER:
            raise ValueError(f"range too large: bound verification is capped at n = {MAX_BOUND_ORDER}")
    except ValueError as exc:
        raise _UsageError(exc) from exc
    # per order: its bound report, then (n >= 5) its monotonicity report
    reports, sweeps, sections = [], [], []
    for n in range(lo, hi + 1):
        reports.append(verify_bounds(n, tol=args.tol))
        sections.append(reports[-1])
        if args.monotonicity and n >= 5:
            sweeps.append(verify_monotonicity(n, tol=args.tol))
            sections.append(sweeps[-1])
    total_violations = sum(len(r.violations) for r in sections)
    if args.format == "json":
        doc = {
            "orders": [r.to_dict() for r in reports],
            "violations_total": total_violations,
        }
        if args.monotonicity:
            doc["monotonicity"] = [s.to_dict() for s in sweeps]
        _emit(_json_text(doc), args.out)
    else:
        text = "".join(r.to_text() for r in sections)
        _emit(text + f"total violations: {total_violations}\n", args.out)
    return 0 if total_violations == 0 else VERIFICATION_FAILURE


@functools.cache  # one parser per process, built by the first main() call rather than at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaindex",
        description="Geometric-arithmetic index of unicyclic graphs: "
                    "computation, extremal families, reduction traces, bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("compute", help="GA/AG indices and per-edge contributions of an edge list")
    p.add_argument("path")
    add_common(p, ("text", "json", "csv"))

    p = sub.add_parser("family", help="emit a named extremal family as an edge list")
    p.add_argument("name", choices=FAMILY_NAMES)
    p.add_argument("params", nargs="+", type=int)
    add_common(p)

    p = sub.add_parser("tables", help="comparison-function tables at 4 decimals")
    p.add_argument("which", type=int, choices=(1, 2))
    p.add_argument("--rows", default=None, metavar="A:B")
    p.add_argument("--cols", default=None, metavar="A:B")
    add_common(p, ("csv", "text", "json"))

    p = sub.add_parser("reduce", help="run the GA-decreasing reduction pipeline on an edge list")
    add_common(p)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--trace", action="store_true")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("path", nargs="?")
    source.add_argument("--random", type=int, metavar="N",
                        help="reduce a random unicyclic graph on N vertices instead")
    p.add_argument("--seed", type=int, metavar="S", help="seed of --random (default 0)")

    p = sub.add_parser("verify", help="exhaustively verify the GA bounds for a range of orders")
    p.add_argument("orders", help="N or A..B (e.g. 5 or 3..9)")
    add_common(p)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--monotonicity", action="store_true",
                   help="also run the operator-monotonicity sweep (n >= 5)")

    return parser


_HANDLERS = {
    "compute": _cmd_compute,
    "family": _cmd_family,
    "tables": _cmd_tables,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage problems; remap per our contract
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return _HANDLERS[args.command](args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader of stdout is gone; point stdout at devnull so that the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
