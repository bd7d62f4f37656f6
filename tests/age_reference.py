"""The age subset by subset: the reference that ``structure.age`` is
tested against.

Every subset of at most k elements is restricted to and put in canonical
form, as the library did before it collected the distinct restricted
tables first.  It has no budget.
"""

import itertools

from gradedmodels.structure import canonical_form, restrict


def age_reference(m, k: int) -> set:
    """Canonical forms of the induced substructures on at most k elements."""
    forms = set()
    for size in range(1, min(k, len(m.universe)) + 1):
        for subset in itertools.combinations(m.universe, size):
            forms.add(canonical_form(restrict(m, subset)))
    return forms
