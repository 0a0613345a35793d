#!/usr/bin/env python3
"""Sweep a range of orders: exhaustive bound verification plus the
operator-monotonicity audit. Exit code 3 if anything is violated."""

import argparse
import json
import sys

from gaindex import verify_bounds, verify_monotonicity
from gaindex.enumeration import MAX_ORDER


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-order", type=int, default=3)
    ap.add_argument("--max-order", type=int, default=9)
    ap.add_argument("--skip-monotonicity", action="store_true")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also dump the raw reports as JSON")
    args = ap.parse_args(argv)
    if not 3 <= args.min_order <= args.max_order <= MAX_ORDER:
        print(f"error: need 3 <= --min-order <= --max-order <= {MAX_ORDER}, "
              f"got {args.min_order} and {args.max_order}", file=sys.stderr)
        return 1

    bad = 0
    docs = {"bounds": [], "monotonicity": []}
    for n in range(args.min_order, args.max_order + 1):
        rep = verify_bounds(n)
        docs["bounds"].append(rep.to_dict())
        sys.stdout.write(rep.to_text())
        bad += len(rep.violations)
        if not args.skip_monotonicity and n >= 5:
            mono = verify_monotonicity(n)
            docs["monotonicity"].append(mono.to_dict())
            sys.stdout.write(mono.to_text())
            bad += len(mono.violations)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(docs, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"total violations: {bad}")
    return 0 if bad == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
