"""Exhaustive search for a disjoint amalgam: the reference that the
closed-form amalgamators are tested against.

Every built-in class amalgamates by a construction, so the library has
no search; this one tries every assignment of the cross values.
"""

import itertools

from gradedmodels.classes import VFormation, _amalgam_frame
from gradedmodels.errors import BudgetError
from gradedmodels.logic import SIG_LT
from gradedmodels.structure import GradedStructure

_SEARCH_CAP = 10**6


def new_first_arm_positions(v: VFormation) -> list[int]:
    """The positions of the first arm's elements that the second arm lacks."""
    return [p for p, e in enumerate(v.arm1.universe) if e not in v.arm2.positions]


def _cross_columns(v: VFormation, new1, ext2, values):
    """The ``assemble`` columns of cross values listed pair by pair:
    (x, y) then (y, x) for x in ``new1`` and y in ``ext2``, x-major."""
    n1 = len(v.arm1.universe)
    forward = [[0] * n1 for _ in ext2]
    backward = [[0] * n1 for _ in ext2]
    pairs = itertools.product(new1, range(len(ext2)))
    for (x, j), f, b in zip(pairs, values[0::2], values[1::2]):
        forward[j][x], backward[j][x] = f, b
    return forward, backward


def search_amalgam(v: VFormation, membership) -> GradedStructure | None:
    """Exhaustive search for a disjoint amalgam, first hit wins.

    Only amalgams on the union of the arm universes are tried, in which
    the arms' new elements stay apart; an amalgam that identifies a new
    element of one arm with one of the other is never found, so None
    does not mean that v has no amalgam.  Only the mixed pairs are open;
    every assignment of chain values to them (both directions) is tried
    in rank order.
    """
    universe, ext2, assemble = _amalgam_frame(v)
    new1 = new_first_arm_positions(v)
    chain = v.arm1.chain
    cells = 2 * len(new1) * len(ext2)
    count = chain.size ** cells
    if count > _SEARCH_CAP:
        raise BudgetError(f"{count} cross assignments exceed the cap of {_SEARCH_CAP}")
    for combo in itertools.product(range(chain.size), repeat=cells):
        table = assemble(*_cross_columns(v, new1, ext2, combo))
        out = GradedStructure(chain, SIG_LT, universe, (table,), name="amalgam")
        if membership(out):
            return out
    return None
