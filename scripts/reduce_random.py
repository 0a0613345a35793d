#!/usr/bin/env python3
"""Generate a random unicyclic graph and print its reduction trace."""

import argparse
import random
import sys

from gaindex import build_graph, reduction_pipeline
from gaindex.graph import MAX_VERTICES


def random_unicyclic(n: int, rng: random.Random):
    girth = rng.randint(3, n)
    edges = [(i, (i + 1) % girth) for i in range(girth)]
    for w in range(girth, n):
        edges.append((rng.randrange(w), w))
    return build_graph(n, edges)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-n", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--edges", action="store_true", help="show edge lists per step")
    args = ap.parse_args(argv)
    if not 5 <= args.n <= MAX_VERTICES:
        print(f"error: -n must be between 5 and {MAX_VERTICES} for the pipeline, got {args.n}",
              file=sys.stderr)
        return 1
    g = random_unicyclic(args.n, random.Random(args.seed))
    sys.stdout.write(reduction_pipeline(g).to_text(include_edges=args.edges))
    return 0


if __name__ == "__main__":
    sys.exit(main())
