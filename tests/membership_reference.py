"""Class membership by rank loops over every triple: the reference that
``classes.k0_member``–``k3_member`` and the amalgamators' cross-cell
checks are tested against.

These loops state each class's conditions directly, one instance at a
time, and share no code with the library's cell checks.  They assume
the one-binary-predicate signature.
"""


def _rows(m):
    lt = m.pred_tables[0]
    n = len(m.universe)
    return [lt[a * n:(a + 1) * n] for a in range(n)]


def k0_reference(m) -> bool:
    """Loops at least ``one`` and min(v(a,b), v(b,c)) <= v(a,c) for all a, b, c."""
    rows = _rows(m)
    if not rows or min(row[a] for a, row in enumerate(rows)) < m.chain.one:
        return False
    for row_a in rows:
        for vab, row_b in zip(row_a, rows):
            for vbc, vac in zip(row_b, row_a):
                if min(vab, vbc) > vac:
                    return False
    return True


def k1_reference(m) -> bool:
    """Loops below ``one`` and v(a,b) == v(b,a) for all a, b."""
    rows = _rows(m)
    n = len(rows)
    if not n or max(row[a] for a, row in enumerate(rows)) >= m.chain.one:
        return False
    return all(rows[a][b] == rows[b][a] for a in range(n) for b in range(n))


def k2_reference(m) -> bool:
    """k0 and max(v(a,b), v(b,a)) >= ``one`` for all a, b."""
    if not k0_reference(m):
        return False
    rows = _rows(m)
    n = len(rows)
    return all(max(rows[a][b], rows[b][a]) >= m.chain.one for a in range(n) for b in range(n))


def k3_reference(m) -> bool:
    """The cut {v >= one} is reflexive, transitive and antisymmetric."""
    rows = _rows(m)
    n = len(rows)
    if not n:
        return False
    one = m.chain.one
    cut = [[v >= one for v in row] for row in rows]
    if not all(cut[a][a] for a in range(n)):
        return False
    for a in range(n):
        for b in range(n):
            if a == b or not cut[a][b]:
                continue
            if cut[b][a] or any(bc and not ac for bc, ac in zip(cut[b], cut[a])):
                return False
    return True


REFERENCE = {"k0": k0_reference, "k1": k1_reference, "k2": k2_reference, "k3": k3_reference}
