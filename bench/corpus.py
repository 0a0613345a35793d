"""Seeded corpus of random unicyclic graphs for the reduce workload.

Each graph is a cycle of uniformly random girth with the remaining
vertices attached as a random recursive forest, then relabelled and
shuffled, so the program sees nothing of how it was built. Long cycles
make long arc relocations in the pipeline; short ones leave deep pendant
trees. The same seed always gives byte-identical edge-list texts.
"""

from __future__ import annotations

import random
from pathlib import Path

GRAPHS = 240
ORDER_RANGE = (50, 600)


def random_unicyclic_text(rng: random.Random) -> str:
    """One edge-list text: n uniform in ORDER_RANGE, girth uniform in 3..n."""
    n = rng.randint(*ORDER_RANGE)
    girth = rng.randint(3, n)
    edges = [(i, (i + 1) % girth) for i in range(girth)]
    edges.extend((rng.randrange(w), w) for w in range(girth, n))
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in edges]
    rng.shuffle(edges)
    return f"{n} {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def make_corpus(seed: int, graphs: int = GRAPHS) -> list[str]:
    rng = random.Random(seed)
    return [random_unicyclic_text(rng) for _ in range(graphs)]


def write(texts: list, directory: Path, prefix: str) -> list:
    """Write each text to directory/<prefix><index>.txt; returns the paths."""
    paths = []
    for i, text in enumerate(texts):
        path = directory / f"{prefix}{i:03d}.txt"
        path.write_text(text)
        paths.append(path)
    return paths


def parameters(seed: int) -> dict:
    """The generator settings, recorded in every result."""
    return {
        "seed": seed,
        "graphs": GRAPHS,
        "order": "uniform %d..%d" % ORDER_RANGE,
        "girth": "uniform 3..n",
        "trees": "random recursive forest on the cycle",
        "labels": "shuffled",
    }
