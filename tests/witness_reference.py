"""Witness checks vertex by vertex: the reference that
``fraisse.check_random_graph_property`` is tested against.

For every subset X, every vertex outside X contributes the tuple of its
values against X, read from its own row one entry at a time, as the
library did before it zipped whole rows.  It shares no code with the
library's check, and has neither the membership guard nor the budget.
"""

import itertools

from gradedmodels.fraisse import WitnessDefect


def witness_defects_reference(m, max_x: int) -> list:
    """The witness defects of ``m`` for subsets of at most ``max_x``
    vertices, in the library's order."""
    n = len(m.universe)
    lt = m.pred_tables[0]
    rows = [tuple(lt[w * n:(w + 1) * n]) for w in range(n)]
    defects = []
    for s in range(max_x + 1):
        for X in itertools.combinations(m.universe, s):
            xs = [m.positions[a] for a in X]
            met = {tuple(row[a] for a in xs) for w, row in enumerate(rows) if w not in xs}
            for fv in itertools.product(range(m.chain.size), repeat=s):
                if fv not in met:
                    defects.append(WitnessDefect(X, fv))
    return defects
