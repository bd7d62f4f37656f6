"""Seeded input files for the benchmark.

``python3 perfbench/gen_inputs.py --seed N --out DIR`` writes:

* ``u3.chain``: the three-rank chain whose unit is not the top rank;
* ``big.gs``: a random symmetric loopless ``luk:3`` graph on BIG_VERTICES
  vertices, every edge weight drawn uniformly from the three ranks;
* ``small.gs``: a random graph of the same kind on SMALL_VERTICES vertices;
* ``small_relabelled.gs``: ``small.gs`` with every vertex renamed by a
  seeded permutation of fresh ids.  Vertices keep their order, except
  that the image of the first one is listed last.

The same seed gives byte-identical files.  Only the ``inspect`` workload
reads the graphs; the chain file is fixed.
"""

from __future__ import annotations

import argparse
import os
import random

BIG_VERTICES = 90
# ``iso`` maps the first vertex first, trying targets in listed order.
# Listing its image last makes it search below every other vertex first,
# and the average over 49 wrong images keeps the time steady across seeds
# (about as long as ``eval``).  A shuffled order at 65 vertices ranged from
# 0.3 s to 12 s; 16 wrong images at 65 vertices from 2.7 s to 6.6 s.
SMALL_VERTICES = 50
CHAIN_SIZE = 3  # luk:3

U3_TEXT = "chain u3 3 one=1 zero=0\n0 0 0\n0 1 2\n0 2 2\n"


def random_graph(rng: random.Random, n: int) -> list[list[int]]:
    """Symmetric weight matrix with zero loops and uniform edge weights."""
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = rng.randrange(CHAIN_SIZE)
    return w


def graph_text(name: str, ids: list[str], w: list[list[int]]) -> str:
    """The library's structure file format, default rank 0."""
    lines = [f"structure {name} chain=luk:{CHAIN_SIZE}", "elements " + " ".join(ids), "default 0"]
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if w[i][j]:
                lines.append(f"< {a} {b} = {w[i][j]}")
    return "\n".join(lines) + "\n"


def relabel(rng: random.Random, w: list[list[int]]) -> tuple[list[str], list[list[int]]]:
    """Vertex i becomes ``u<perm[i]>``; vertex 0 moves to the end of the listing."""
    n = len(w)
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(1, n)) + [0]  # new position -> old vertex
    ids = [f"u{perm[i]}" for i in order]
    return ids, [[w[i][j] for j in order] for i in order]


def graphs(seed: int) -> dict[str, tuple[list[str], list[list[int]]]]:
    """Graph file name -> (vertex ids in listed order, weight matrix)."""
    rng = random.Random(seed)
    big = random_graph(rng, BIG_VERTICES)
    small = random_graph(rng, SMALL_VERTICES)
    return {
        "big.gs": ([f"v{i}" for i in range(BIG_VERTICES)], big),
        "small.gs": ([f"v{i}" for i in range(SMALL_VERTICES)], small),
        "small_relabelled.gs": relabel(rng, small),
    }


def write_inputs(seed: int, out: str) -> dict[str, tuple[list[str], list[list[int]]]]:
    """Write every input file for ``seed`` into ``out``; returns ``graphs(seed)``."""
    os.makedirs(out, exist_ok=True)
    made = graphs(seed)
    texts = {"u3.chain": U3_TEXT}
    for name, (ids, w) in made.items():
        texts[name] = graph_text(name.removesuffix(".gs"), ids, w)
    for name, text in texts.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return made


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_inputs(args.seed, args.out)


if __name__ == "__main__":
    main()
