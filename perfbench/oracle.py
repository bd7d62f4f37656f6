"""Expected outputs of the seed-dependent ``inspect`` operations.

Each function recomputes, from the generated weight matrix alone, what
the CLI must print for one operation.  Facts that do not depend on the
seed (digests of canonical forms of the small types) come from the
registry recorded by ``record.py``.

The graphs are those of ``gen_inputs``: symmetric ``luk:3`` weights with
loops at rank 0.
"""

from __future__ import annotations

import itertools

import numpy as np

TOP = 2  # luk:3 ranks 0..2; the filter threshold ``one`` is the top


def eval_transitivity(w) -> tuple[int, str]:
    """``forall x forall y forall z (((x < y) & (y < z)) -> (x < z))``."""
    v = np.array(w)
    meet = np.minimum(v[:, :, None], v[None, :, :])  # [x, y, z] = min(v(x,y), v(y,z))
    res = np.minimum(TOP, TOP - meet + v[:, None, :])  # Lukasiewicz residuum into v(x,z)
    value = int(res.min())
    return 0, f"value {value}\nin_filter {'yes' if value >= TOP else 'no'}\n"


def randgraph_check(ids, w, max_x: int) -> tuple[int, str]:
    """Subset-map demands (|X| <= max_x) with no matching vertex outside X."""
    n = len(ids)
    defects = []
    for size in range(max_x + 1):
        for xs in itertools.combinations(range(n), size):
            seen = {tuple(w[z][x] for x in xs) for z in range(n) if z not in xs}
            for want in itertools.product(range(TOP + 1), repeat=size):
                if want in seen:
                    continue
                if size == 0:
                    defects.append("witness defect: no vertex outside the empty set")
                else:
                    pairs = " ".join(f"{ids[x]}:{v}" for x, v in zip(xs, want))
                    defects.append(f"witness defect: no vertex matching {pairs}")
    return _defect_report(defects)


def limit_check_k1(ids, w, patterns) -> tuple[int, str]:
    """``limit check --class k1 --budget 2``.

    Every size-2 member splits into a one-point substructure ``src`` and
    one more point; ``patterns`` lists these splits with the digests the
    CLI prints.  An embedding of ``src`` at vertex u extends iff some
    other vertex has the second point's loop and the member's weight to u.
    """
    n = len(ids)
    defects = []
    for u in range(n):
        for p in patterns:
            if w[u][u] != p["src_loop"]:
                continue
            if not any(z != u and w[z][z] == p["other_loop"] and w[u][z] == p["weight"]
                       and w[z][u] == p["weight"] for z in range(n)):
                defects.append(f"extension defect: {p['n']} into {p['nprime']} at {p['src']}->{ids[u]}")
    return _defect_report(defects)


def age_k2(w, loop_types: dict, edge_types: dict) -> tuple[int, str]:
    """``age --k 2`` of a loop-0 symmetric graph: one point, plus one type per edge weight."""
    n = len(w)
    digests = {loop_types[str(w[i][i])] for i in range(n)}
    digests |= {edge_types[str(w[i][j])] for i in range(n) for j in range(i + 1, n)}
    return 0, f"types {len(digests)}\n" + "".join(d + "\n" for d in sorted(digests))


def iso_problem(stdout: str, ids_a, w_a, ids_b, w_b) -> str | None:
    """Why the printed map is not an isomorphism from a onto b, or None."""
    words = stdout.split()
    if not words or words[0] != "isomorphic":
        return "no isomorphism printed"
    pairs = [p.split("->") for p in words[1:]]
    if any(len(p) != 2 for p in pairs):
        return "malformed map"
    mapping = dict(pairs)
    if sorted(mapping) != sorted(ids_a) or sorted(mapping.values()) != sorted(ids_b):
        return "map is not a bijection between the universes"
    pos_b = {e: i for i, e in enumerate(ids_b)}
    image = [pos_b[mapping[e]] for e in ids_a]
    for i, fi in enumerate(image):
        for j, fj in enumerate(image):
            if w_a[i][j] != w_b[fi][fj]:
                return f"weight of ({ids_a[i]}, {ids_a[j]}) is not preserved"
    return None


def _defect_report(defects: list[str]) -> tuple[int, str]:
    text = f"defects {len(defects)}\n" + "".join(d + "\n" for d in sorted(defects))
    return (1 if defects else 0), text
