"""Enumeration by brute force: the reference that
``classes.enumerate_class`` is tested against.

Every table of ``<`` on x0, x1, ... is built, in ``itertools.product``
order, and asked about membership; a member is kept when its canonical
form is new, so each type keeps its first member in that order.  It
shares no code with the library's orbit walk, and has no budget.
"""

import itertools

from gradedmodels.logic import SIG_LT
from gradedmodels.structure import GradedStructure, canonical_form


def enumerate_reference(spec, chain, max_size: int) -> list:
    """All isomorphism types of members with at most ``max_size``
    elements, ordered by size then canonical form."""
    found = []
    seen = set()
    for s in range(1, max_size + 1):
        elems = tuple(f"x{i}" for i in range(s))
        for table in itertools.product(range(chain.size), repeat=s * s):
            m = GradedStructure(chain, SIG_LT, elems, (table,), name=f"{spec.name}_{s}")
            if not spec.membership(m):
                continue
            form = canonical_form(m)
            if form in seen:
                continue
            seen.add(form)
            found.append((s, form, m))
    found.sort(key=lambda item: (item[0], item[1]))
    return [m for _, _, m in found]
