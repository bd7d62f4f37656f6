"""References for amalgamation: an exhaustive search for a disjoint
amalgam, which the closed-form amalgamators are tested against, and a
walk of the joint-embedding and amalgamation checks through the public
v-formation path, which ``check_jep`` and ``check_ap`` are tested
against.

Every built-in class amalgamates by a construction, so the library has
no search; this one tries every assignment of the cross values.
"""

import itertools

from gradedmodels.classes import (
    PropertyReport,
    VFormation,
    _amalgam_frame,
    align_v_formation,
    enumerate_class,
    verify_amalgam,
)
from gradedmodels.errors import AmalgamationError, BudgetError
from gradedmodels.logic import SIG_LT
from gradedmodels.structure import GradedStructure, find_embeddings, substructures

_SEARCH_CAP = 10**6


def new_first_arm_positions(v: VFormation) -> list[int]:
    """The positions of the first arm's elements that ``v.shared`` does not pair."""
    base1 = {p for p, _ in v.shared}
    return [p for p in range(len(v.arm1.universe)) if p not in base1]


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


def reference_report(prop: str, spec, chain, k: int) -> PropertyReport:
    """The report of ``check_jep`` (``prop`` "jep") or ``check_ap``
    ("ap"), instance by instance through the public path: the bases
    from ``substructures`` followed by the whole member, the embeddings
    searched from each base, each v-formation from ``align_v_formation``,
    which renames the second arm and checks that the arms agree, and its
    witness from ``spec.amalgamate``, checked by ``verify_amalgam``."""
    members = enumerate_class(spec, chain, k)

    def problem(v, where):
        try:
            witness = spec.amalgamate(v)
        except AmalgamationError as exc:
            why = str(exc)
        else:
            if verify_amalgam(spec, v, witness):
                return None
            why = f"result is not {'an amalgam' if v.shared else 'a common extension'} in the class"
        return f"amalgamator failed on {where}: {why}"

    if prop == "jep":
        problems = [problem(align_v_formation(m1, members[j], {}), f"type[{i}] and type[{j}]")
                    for i, m1 in enumerate(members) for j in range(i, len(members))]
    else:
        problems = [
            problem(align_v_formation(m1, m2, g),
                    f"base of type[{i}] on {{{' '.join(subset)}}} into type[{j}] "
                    f"via {sorted(g.items())}")
            for i, m1 in enumerate(members)
            for subset, base in [*substructures(m1), (m1.universe, m1)]
            for j, m2 in enumerate(members) for g in find_embeddings(base, m2)]
    return PropertyReport(prop, spec.name, chain.name, k, len(problems),
                          [p for p in problems if p is not None])
