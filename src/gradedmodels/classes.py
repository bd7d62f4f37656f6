"""Example classes of graded structures and Fraisse-class property checks.

Four classes over the one-binary-predicate signature are built in:

* ``k0`` graded preorders: reflexivity and transitivity hold in the filter.
* ``k1`` weighted graphs: loops below the filter, symmetric values.
* ``k2`` graded total preorders: ``k0`` plus totality.
* ``k3`` threshold partial orders: the filter cut of the relation is a
  partial order; values below the filter are unconstrained.

Each class is stated once: a condition on the loops plus a cell check,
the conditions on the values of (x, y) and (y, x) for pairs of
positions, as rank comparisons in the ``<`` table.  Membership runs the
cell check over every position; the amalgamators in ``fraisse`` run the
same check over the cross cells of an amalgam only.  The hereditary,
joint-embedding, and amalgamation property checkers run over bounded
exhaustive enumerations of isomorphism types and report counterexamples.
Each built-in class comes with a closed-form amalgamator; the checkers
search exhaustively only for a class that has none, and for the
amalgamation property that search covers disjoint amalgams only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .algebra import Chain
from .errors import AmalgamationError, BudgetError
from .logic import SIG_LT
from .structure import (
    GradedStructure,
    canonical_form,
    find_embeddings,
    restrict,
)

__all__ = [
    "ClassSpec",
    "get_class",
    "class_names",
    "k0_member",
    "k1_member",
    "k2_member",
    "k3_member",
    "enumerate_class",
    "check_hp",
    "check_jep",
    "check_ap",
    "PropertyReport",
]


@dataclass(frozen=True)
class ClassSpec:
    """A named class of structures over the one-binary-predicate
    signature: a membership predicate plus an optional amalgamator.

    ``amalgamate`` maps a v-formation to a member containing both arms,
    raising ``AmalgamationError`` when it cannot; over the empty base it
    also gives joint extensions.  The built-in amalgamators check the
    second arm with the membership predicate but the amalgam only on its
    cross cells, so the first arm must already be a member.
    ``check_ap`` and ``check_jep`` pass enumerated members;
    ``build_limit`` and ``replay_transcript`` pass a stage that is a
    checked initial structure or an amalgam.
    When ``amalgamate`` is None the JEP and AP checkers search
    exhaustively for witnesses, the AP checker among disjoint amalgams
    only, and the limit builder refuses the class.  Specs compare by
    value.
    """

    name: str
    membership: object
    amalgamate: object = None


# Ranks are read from validated tables and compared as plain ints.
# Since ``one`` is neutral, res(x, y) >= one exactly when x <= y, so
# "res(x, y) is in the filter" is the comparison x <= y.  A cell check
# ``cells_ok(m, xs, ys)`` checks the conditions that involve a cell
# (x, y) or (y, x) with x in xs and y in ys.


def _member(m: GradedStructure, loops_in_filter: bool, cells_ok) -> bool:
    """A nonempty structure over ``<`` whose loops are all in the filter
    (or all below it) and whose every cell passes ``cells_ok``."""
    if m.signature != SIG_LT:
        raise ValueError("class membership is defined over the one-binary-predicate signature")
    lt = m.pred_tables[0]
    n = len(m.universe)
    if not n:
        return False
    loops = lt[::n + 1]
    one = m.chain.one
    if min(loops) < one if loops_in_filter else max(loops) >= one:
        return False
    return cells_ok(m, range(n), range(n))


@functools.lru_cache(maxsize=64)
def _level_code(levels, size: int) -> bytes:
    """Byte v has bit i set when rank v is at least ``levels[i]``; one
    entry per rank, padded to 256 entries so that it serves ``bytes.translate``."""
    return bytes(sum(1 << i for i, t in enumerate(levels) if v >= t)
                 for v in range(size)).ljust(256, b"\0")


def _cuts_transitive(m: GradedStructure, xs, ys, levels, antisymmetric=False) -> bool:
    """Whether every cut {v >= t} of m, t in ``levels``, is transitive
    (and antisymmetric, when asked) on the cells (x, y) and (y, x), x in
    ``xs`` and y in ``ys``.

    A cut is transitive exactly when row(a) and col(c) are disjoint for
    every cell (a, c) outside it, so over every position this is the
    full check.  Over the cross cells of an amalgam, xs and ys are the
    two arms' new elements and the cuts are known to be transitive on
    both arms; a triple outside both arms has a cross cell among its
    three, so it is enough to check, for each cross cell (a, c) in both
    directions: at the levels where (a, c) is in the cut, row(c) is a
    subset of row(a) and col(a) of col(c); at the others, row(a) and
    col(c) are disjoint.  The cells are visited as xs x ys and then as
    ys x xs, or once when xs equals ys, and no loop is asked to be
    antisymmetric.  Eight levels at a time share one pass: each cell
    becomes a byte whose bit i says whether it is in the i-th cut, rows
    and columns become ints of those bytes, and a cell's byte, repeated
    across an int, masks the levels that each condition applies to.
    """
    lt = m.pred_tables[0]
    n = len(m.universe)
    size = m.chain.size
    sides = ((xs, ys),) if xs == ys else ((xs, ys), (ys, xs))
    # bytes() takes ranks below 256 only; a larger chain's cells are coded one by one.
    ranks = bytes(lt) if size <= 256 else None
    starts = range(0, n * n, n)
    ones = int.from_bytes(b"\1" * n, "little")
    for g in range(0, len(levels), 8):
        group = levels[g:g + 8]
        code = _level_code(group, size)
        every = (1 << len(group)) - 1
        cut = bytes(map(code.__getitem__, lt)) if ranks is None else ranks.translate(code)
        rows = [int.from_bytes(cut[i:i + n], "little") for i in starts]
        cols = [int.from_bytes(cut[p::n], "little") for p in range(n)]
        for heads, tails in sides:
            for a in heads:
                row, col, start = rows[a], cols[a], a * n
                for c in tails:
                    held = cut[start + c]
                    if held:
                        if antisymmetric and a != c and held & cut[c * n + a]:
                            return False
                        if (rows[c] & ~row | col & ~cols[c]) & held * ones:
                            return False
                        if held == every:
                            continue
                    if row & cols[c] & (every ^ held) * ones:
                        return False
    return True


def _k0_cells_ok(m: GradedStructure, xs, ys) -> bool:
    """k0 on the cells: every cut above bottom is transitive."""
    return _cuts_transitive(m, xs, ys, range(1, m.chain.size))


def _k1_cells_ok(m: GradedStructure, xs, ys) -> bool:
    """k1 on the cells: symmetric values."""
    lt = m.pred_tables[0]
    n = len(m.universe)
    return all(lt[x * n + y] == lt[y * n + x] for x in xs for y in ys)


def _k2_cells_ok(m: GradedStructure, xs, ys) -> bool:
    """k2 on the cells: totality at ``one``, then k0."""
    lt = m.pred_tables[0]
    n = len(m.universe)
    one = m.chain.one
    return (all(max(lt[x * n + y], lt[y * n + x]) >= one for x in xs for y in ys)
            and _k0_cells_ok(m, xs, ys))


def _k3_cells_ok(m: GradedStructure, xs, ys) -> bool:
    """k3 on the cells: the cut at ``one`` is transitive and antisymmetric."""
    return _cuts_transitive(m, xs, ys, (m.chain.one,), antisymmetric=True)


def k0_member(m: GradedStructure) -> bool:
    """Graded preorder: loops and all transitivity instances in the filter.

    A transitivity instance res(min(v(a,b), v(b,c)), v(a,c)) is in the
    filter exactly when min(v(a,b), v(b,c)) <= v(a,c), that is, when
    every cut above bottom is transitive.
    """
    return _member(m, True, _k0_cells_ok)


def k1_member(m: GradedStructure) -> bool:
    """Weighted graph: every loop below the filter, symmetric edge values.

    res(v(a,b), v(b,a)) is in the filter for all a, b exactly when
    v(a,b) <= v(b,a) for all a, b, that is, when v is symmetric.
    """
    return _member(m, False, _k1_cells_ok)


def k2_member(m: GradedStructure) -> bool:
    """Graded total preorder: preorder conditions plus totality."""
    return _member(m, True, _k2_cells_ok)


def k3_member(m: GradedStructure) -> bool:
    """Threshold partial order: the filter cut is reflexive, transitive,
    and antisymmetric; these are conditionals on filter membership, not
    graded formulas."""
    return _member(m, True, _k3_cells_ok)


# --- enumeration ---


_ENUM_BUDGET = 10**7


def enumerate_class(spec: ClassSpec, chain: Chain, max_size: int) -> list[GradedStructure]:
    """All isomorphism types of members with at most ``max_size`` elements.

    Candidates are every table of ``<`` on a fixed universe, filtered by
    membership and deduplicated by canonical form; the result is ordered
    by size then canonical form.  Rejects runs whose raw candidate count
    exceeds ``_ENUM_BUDGET`` before building any.
    """
    if max_size < 0:
        raise ValueError("max_size must be non-negative")
    total = sum(chain.size ** (s * s) for s in range(1, max_size + 1))
    if total > _ENUM_BUDGET:
        raise BudgetError(f"{total} candidates exceed the budget of {_ENUM_BUDGET}")
    found: list[tuple[int, bytes, GradedStructure]] = []
    seen: set[bytes] = set()
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


# --- property reports ---


@dataclass(frozen=True)
class Counterexample:
    kind: str
    detail: str

    def render(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass
class PropertyReport:
    property: str
    class_name: str
    chain_name: str
    k: int
    checked: int
    counterexamples: list[Counterexample]
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def render(self) -> str:
        lines = [
            f"{self.property} {self.class_name} chain={self.chain_name} k={self.k}",
            f"checked {self.checked} instances",
        ]
        for key in sorted(self.stats):
            lines.append(f"{key}: {self.stats[key]}")
        if self.counterexamples:
            lines.extend(c.render() for c in self.counterexamples)
        else:
            lines.append("no counterexamples")
        return "\n".join(lines)


def check_hp(spec: ClassSpec, chain: Chain, k: int) -> PropertyReport:
    """Every induced substructure of every enumerated member is a member."""
    members = enumerate_class(spec, chain, k)
    checked = 0
    bad: list[Counterexample] = []
    for i, m in enumerate(members):
        for size in range(1, len(m.universe)):
            for subset in itertools.combinations(m.universe, size):
                checked += 1
                if not spec.membership(restrict(m, subset)):
                    bad.append(Counterexample(
                        "hp",
                        f"type[{i}] loses membership on subset {{{' '.join(subset)}}}",
                    ))
    return PropertyReport("hp", spec.name, chain.name, k, checked, bad)


def _amalgam_problem(spec: ClassSpec, v, what: str) -> str | None:
    """None when the class amalgamator's witness for v is verified, else why not.

    ``what`` names the witness in the failure text: "an amalgam" or "a
    common extension".
    """
    from . import fraisse

    try:
        witness = spec.amalgamate(v)
    except AmalgamationError as exc:
        return str(exc)
    return None if fraisse.verify_amalgam(spec, v, witness) else f"result is not {what} in the class"


def check_jep(spec: ClassSpec, chain: Chain, k: int) -> PropertyReport:
    """Every pair of members has a common extension in the class.

    With an amalgamator, its amalgam over the empty base is the witness,
    verified to be a member containing both inputs; a failure is a
    counterexample.  Without one, the members of size up to twice the
    largest input are enumerated once, and each pair is searched among
    those no larger than the two combined.  The stats count constructed
    and searched pairs.
    """
    from . import fraisse

    members = enumerate_class(spec, chain, k)
    candidates = [] if spec.amalgamate is not None else \
        enumerate_class(spec, chain, 2 * max(map(len, members), default=0))
    checked = 0
    constructed = 0
    searched = 0
    bad: list[Counterexample] = []
    for i, m1 in enumerate(members):
        for j in range(i, len(members)):
            m2 = members[j]
            checked += 1
            if spec.amalgamate is None:
                searched += 1
                limit = len(m1) + len(m2)
                if not any(find_embeddings(m1, c, limit=1) and find_embeddings(m2, c, limit=1)
                           for c in candidates if len(c) <= limit):
                    bad.append(Counterexample("jep", f"type[{i}] and type[{j}] have no common extension"))
                continue
            problem = _amalgam_problem(spec, fraisse.align_v_formation(m1, m2, {}), "a common extension")
            if problem is None:
                constructed += 1
            else:
                bad.append(Counterexample(
                    "jep", f"amalgamator failed on type[{i}] and type[{j}]: {problem}"
                ))
    stats = {"constructed": constructed, "searched": searched}
    return PropertyReport("jep", spec.name, chain.name, k, checked, bad, stats)


def check_ap(spec: ClassSpec, chain: Chain, k: int) -> PropertyReport:
    """Every v-formation of enumerated members has an amalgam.

    For each member pair and each way of sharing a common substructure,
    the class amalgamator's witness is verified to be a member containing
    both arms; a failure is a counterexample.  A class without an
    amalgamator gets a bounded exhaustive completion search over the
    cross values instead; it finds only disjoint amalgams, so its
    counterexamples ("no disjoint amalgam") need not be failures of the
    property.  The stats count constructed and searched v-formations.
    """
    from . import fraisse

    members = enumerate_class(spec, chain, k)
    checked = 0
    constructed = 0
    searched = 0
    bad: list[Counterexample] = []
    for i, m1 in enumerate(members):
        for ssize in range(1, len(m1.universe) + 1):
            for subset in itertools.combinations(m1.universe, ssize):
                base = restrict(m1, subset)
                for j, m2 in enumerate(members):
                    for g in find_embeddings(base, m2):
                        checked += 1
                        v = fraisse.align_v_formation(m1, m2, g)
                        where = (f"base of type[{i}] on {{{' '.join(subset)}}} "
                                 f"into type[{j}] via {sorted(g.items())}")
                        if spec.amalgamate is None:
                            searched += 1
                            if fraisse.search_amalgam(v, spec.membership) is None:
                                bad.append(Counterexample("ap", f"no disjoint amalgam for {where}"))
                            continue
                        problem = _amalgam_problem(spec, v, "an amalgam")
                        if problem is None:
                            constructed += 1
                        else:
                            bad.append(Counterexample("ap", f"amalgamator failed on {where}: {problem}"))
    stats = {"constructed": constructed, "searched": searched}
    return PropertyReport("ap", spec.name, chain.name, k, checked, bad, stats)


def get_class(name: str) -> ClassSpec:
    """Look up a built-in class by name (k0, k1, k2, k3)."""
    from . import fraisse

    table = {
        "k0": ClassSpec("k0", k0_member, fraisse.amalgamate_k0),
        "k1": ClassSpec("k1", k1_member, fraisse.amalgamate_k1),
        "k2": ClassSpec("k2", k2_member, fraisse.amalgamate_k2),
        "k3": ClassSpec("k3", k3_member, fraisse.amalgamate_k3),
    }
    if name not in table:
        raise ValueError(f"unknown class {name!r}; expected one of {sorted(table)}")
    return table[name]


def class_names() -> tuple[str, ...]:
    return ("k0", "k1", "k2", "k3")
