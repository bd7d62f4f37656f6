"""Fraisse classes: the built-in classes, their amalgamation, and the
hereditary, joint-embedding and amalgamation property checks.

Four classes over the one-binary-predicate signature are built in:

* ``k0`` graded preorders: reflexivity and transitivity hold in the filter.
* ``k1`` weighted graphs: loops below the filter, symmetric values.
* ``k2`` graded total preorders: ``k0`` plus totality.
* ``k3`` threshold partial orders: the filter cut of the relation is a
  partial order; values below the filter are unconstrained.

Each class is stated once, as one row of ``_CLASSES``: a condition on
the loops (``ClassSpec.loops_in_filter``: every loop at or above ``one``,
or every loop below it), a cell check, the conditions on every cell and
every triple of positions through a given set of positions, as rank
comparisons in the ``<`` table, and a cross rule for amalgamation.
Membership is the loop condition and the cell check through every
position of a nonempty structure.

The classes compare ranks with each other and with ``one`` alone, and
k0-k3 need no condition on the chain for hp, jep and ap to hold.  Every
valid chain has ``one`` at least 1: a neutral bottom would make
top * bottom the top, while residuation makes bottom absorbing.  So
both sides of ``one`` hold a rank.  This is checked, not proved, by
``test_size_and_one_census_at_k2``: hp, jep and ap at k=2 for k0-k3 on
every (size, one) with size at most 4, with no counterexample.

A v-formation is two structures and a correspondence between their
base elements: ``VFormation.shared``, pairs of positions.  The public
constructor reads it off the ids the arms share and checks that the
arms agree there; ``check_ap`` and ``check_jep`` build their instances
by position instead, from embeddings that already keep every value, and
skip that check (see ``check_ap``).  The core reads the correspondence
from ``shared`` alone, never from ids.

Every built-in class amalgamates through one core: the union of the arm
universes, built row by row, with the cross pairs set by the class's
closed-form rule, a column at a time: for each new element of the
second arm, its values against the whole first arm, read off the
composition through the base.  The core runs the class's check once,
on the amalgam, through its new elements, the second arm's elements
that ``shared`` does not pair: every loop, cell and triple that avoids
them lies inside the first arm.  That decides membership only
when the first arm is a member, so every ``amalgamate_k*`` takes a
member as its first arm; they are reached through
``get_class(name).amalgamate``.  A failed check raises
``AmalgamationError``.  Joint extension is the amalgam over the empty
base.  The amalgam extends its first arm: it is not validated again,
and its positions and the cut lines of the cell checks are carried from
the first arm's, so a limit stage that grows by one element at a time
does not rebuild them from its whole table.

The property checkers run over bounded exhaustive enumerations of
isomorphism types, which walk only the tables whose loops the class
admits, and report counterexamples.  The joint-embedding and
amalgamation checkers verify the class amalgamator's witness for every
instance, so they need a class that has one.  They build each instance
by position, from one renamed copy of each member and the embeddings
searched once per distinct base table.  The Fraisse limits built from
these classes live in ``fraisse``.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import sys
from collections import ChainMap
from dataclasses import dataclass, field
from operator import mul

from .algebra import Chain
from .errors import AmalgamationError, BudgetError
from .logic import SIG_LT
from .structure import (
    GradedStructure,
    _embeds_by_ids,
    _pull,
    _require_compatible,
    _trusted,
    canonical_form,
    find_embeddings,
    fresh_names,
    id_supply,
    is_substructure,
    rename,
    restrict,
    substructures,
)

__all__ = [
    "ClassSpec",
    "get_class",
    "class_names",
    "k0_member",
    "k1_member",
    "k2_member",
    "k3_member",
    "VFormation",
    "align_v_formation",
    "verify_amalgam",
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
    also gives joint extensions.  It must read the base from
    ``VFormation.shared``, not from ids: ``check_ap`` and ``check_jep``
    pass arms with disjoint ids, so an amalgamator that matches ids sees
    an empty base there, and ``verify_amalgam``, which places the second
    arm along ``shared``, may reject its witness.  The built-in amalgamators
    check the amalgam only through its new elements, those of the second
    arm that ``shared`` does not pair, so the first arm must already be
    a member; they never call ``membership``.
    ``check_ap`` and ``check_jep`` pass enumerated members;
    ``build_limit`` and ``replay_transcript`` pass a stage that is a
    checked initial structure or an amalgam.
    The amalgamator is optional only for ``enumerate_class`` and
    ``check_hp``: ``check_jep``, ``check_ap`` and the limit builder
    refuse a class without one.  Specs compare by value.

    ``loops_in_filter`` states where a member's loops lie: ``True`` when
    every loop is at or above ``one``, ``False`` when every loop is
    below it, and ``None`` when the class says nothing, so any rank may
    be a loop.  ``enumerate_class`` walks only the tables whose loops
    the flag admits, so a flag that ``membership`` does not imply loses
    members; ``None`` is always safe.  Each built-in class states it
    once, and its membership and amalgamator read that value.
    """

    name: str
    membership: object
    amalgamate: object = None
    loops_in_filter: bool | None = None


# Ranks are read from validated tables and compared as plain ints.
# Since ``one`` is neutral, res(x, y) >= one exactly when x <= y, so
# "res(x, y) is in the filter" is the comparison x <= y.  A cell check
# ``cells_ok(m, news)`` checks the conditions on every cell and every
# triple of positions that contains a position in ``news``.


def _through(m: GradedStructure, news, loops_in_filter: bool, cells_ok) -> bool:
    """Whether the loops of the positions in ``news`` are all in the
    filter (or all below it) and ``cells_ok(m, news)`` holds.  The check
    through no position passes and reads nothing."""
    lt = m.pred_tables[0]
    step = len(m.universe) + 1
    return not news or (all((lt[c * step] >= m.chain.one) == loops_in_filter for c in news)
                        and cells_ok(m, news))


def _member(m: GradedStructure, loops_in_filter: bool, cells_ok) -> bool:
    """A nonempty structure over ``<`` passing the class's check through every position."""
    if m.signature != SIG_LT:
        raise ValueError("class membership is defined over the one-binary-predicate signature")
    return bool(m.universe) and _through(m, range(len(m.universe)), loops_in_filter, cells_ok)


@functools.lru_cache(maxsize=64)
def _level_code(levels, size: int) -> bytes:
    """Byte v has bit i set when rank v is at least ``levels[i]``; one
    entry per rank, padded to 256 entries so that it serves ``bytes.translate``."""
    return bytes(sum(1 << i for i, t in enumerate(levels) if v >= t)
                 for v in range(size)).ljust(256, b"\0")


def _code_lines(lt: bytes, n: int, code: bytes, rows: list[int], cols: list[int]):
    """The rows and the columns of the n×n table ``lt`` coded by ``code``,
    each as an int of its coded cells, first cell lowest, extended from
    ``rows`` and ``cols``, those of its first ``len(rows)`` positions:
    an old line gains its cells against each new position j, shifted by
    8 * j, and only those cells and the new lines are coded."""
    old = range(len(rows))
    rows, cols = rows[:], cols[:]
    for j in range(len(old), n):
        shift = 8 * j
        col, row = lt[j::n].translate(code), lt[j * n:(j + 1) * n].translate(code)
        for p in itertools.compress(old, col):
            rows[p] |= col[p] << shift
        for p in itertools.compress(old, row):
            cols[p] |= row[p] << shift
        rows.append(int.from_bytes(row, "little"))
        cols.append(int.from_bytes(col, "little"))
    return rows, cols


def _cut_lines(m: GradedStructure, code: bytes) -> tuple[list[int], list[int]]:
    """The rows and the columns of m's ``<`` table coded by ``code``,
    ``_code_lines`` extended from no lines: cached in m's ``_derived``
    under "cut lines", by code.  An amalgam has them from its first arm's
    (``_carry_cut_lines``)."""
    cache = m._derived.setdefault("cut lines", {})
    lines = cache.get(code)
    if lines is None:
        lines = cache[code] = _code_lines(m.pred_tables[0], len(m.universe), code, [], [])
    return lines


def _carry_cut_lines(arm1: GradedStructure, out: GradedStructure) -> None:
    """Seed the cut lines of ``out``, an amalgam whose universe lists
    arm1's first, by extending arm1's lines for every code arm1 holds:
    the amalgam's table restricted to arm1's positions is arm1's table."""
    held = arm1._derived.get("cut lines")
    if held:
        out._derived["cut lines"] = {
            code: _code_lines(out.pred_tables[0], len(out.universe), code, *lines)
            for code, lines in held.items()}


def _cuts_transitive(m: GradedStructure, news, levels, antisymmetric=False) -> bool:
    """Whether every cut {v >= t} of m, t in ``levels``, is transitive
    (and antisymmetric, when asked) on every triple (and pair) of
    positions that contains a position in ``news``.

    A triple x -> y -> z through c has c as x, y or z, so for each c in
    ``news``, at each level where the cell is in the cut: for a -> c,
    row(c) lies within row(a) (c as y) and col(a) within col(c) (c as
    z); for c -> b, row(b) lies within row(c) (c as x).  Through every
    position the first condition alone covers every triple, so the
    other two are skipped.
    Antisymmetry asks that row(c) and col(c) share no cell but the loop.
    Eight levels at a time share one pass: each cell becomes a byte whose
    bit i says whether it is in the i-th cut, rows and columns become
    ints of those bytes (``_cut_lines``, cached on m and carried from an
    amalgam's first arm), and a cell's byte, repeated across an int,
    masks the levels that each condition applies to.  Only the cells of
    c's row and column that lie in some cut are visited.
    """
    n = len(m.universe)
    every = len(news) == n
    ones = int.from_bytes(b"\1" * n, "little")
    positions = range(n)
    for g in range(0, len(levels), 8):
        code = _level_code(levels[g:g + 8], m.chain.size)
        rows, cols = _cut_lines(m, code)
        for c in news:
            row, col = rows[c], cols[c]
            if antisymmetric and row & col & ~(0xFF << 8 * c):
                return False
            into = col.to_bytes(n, "little")
            for a in itertools.compress(positions, into):
                held = into[a] * ones
                if row & ~rows[a] & held or not every and cols[a] & ~col & held:
                    return False
            if every:
                continue
            out_of = row.to_bytes(n, "little")
            for b in itertools.compress(positions, out_of):
                if rows[b] & ~row & out_of[b] * ones:
                    return False
    return True


def _k0_cells_ok(m: GradedStructure, news) -> bool:
    """k0, graded preorders, through ``news``: every cut above bottom is
    transitive.

    A transitivity instance res(min(v(a,b), v(b,c)), v(a,c)) is in the
    filter exactly when min(v(a,b), v(b,c)) <= v(a,c), that is, when
    every cut above bottom is transitive.
    """
    return _cuts_transitive(m, news, range(1, m.chain.size))


def _k1_cells_ok(m: GradedStructure, news) -> bool:
    """k1, weighted graphs, through ``news``: each row equals its column.

    res(v(a,b), v(b,a)) is in the filter for all a, b exactly when
    v(a,b) <= v(b,a) for all a, b, that is, when v is symmetric.
    """
    lt = m.pred_tables[0]
    n = len(m.universe)
    return all(lt[c * n:(c + 1) * n] == lt[c::n] for c in news)


def _k2_cells_ok(m: GradedStructure, news) -> bool:
    """k2, graded total preorders, through ``news``: totality at ``one``,
    then k0."""
    lt = m.pred_tables[0]
    n = len(m.universe)
    return (all(min(map(max, lt[c * n:(c + 1) * n], lt[c::n])) >= m.chain.one for c in news)
            and _k0_cells_ok(m, news))


def _k3_cells_ok(m: GradedStructure, news) -> bool:
    """k3, threshold partial orders, through ``news``: the cut at ``one``
    is transitive and antisymmetric; these are conditionals on filter
    membership, not graded formulas."""
    return _cuts_transitive(m, news, (m.chain.one,), antisymmetric=True)


# --- amalgamation ---


@dataclass(frozen=True)
class VFormation:
    """Two arms over a shared base: the elements whose ids both arms hold.

    The arms must be on one chain and signature and agree on every tuple
    of shared elements, or the constructor raises ``ValueError``; use
    ``align_v_formation`` to rename an arbitrary second arm into shape.
    ``shared`` lists the (position in arm1, position in arm2) pair of
    each shared element, in arm1's order.  It is the correspondence that
    the amalgamators and ``verify_amalgam`` read; they never match ids.

    This constructor is where the agreement check lives, and
    ``align_v_formation`` and ``fraisse.replay_transcript`` go through
    it.  ``check_ap`` and ``check_jep`` alone build v-formations by
    position with ``_v_formation``, which skips it: there the arms hold
    disjoint ids and ``shared`` pairs a base with its image under an
    embedding, which keeps every value.
    """

    arm1: GradedStructure
    arm2: GradedStructure
    shared: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arm1, arm2 = self.arm1, self.arm2
        _require_compatible(arm1, arm2)
        # Read off the second arm's ids, the fewer in a limit stage's events.
        where = arm1.positions
        shared = tuple(sorted((where[e], q) for q, e in enumerate(arm2.universe) if e in where))
        pos1, pos2 = [p for p, _ in shared], [q for _, q in shared]
        n1, n2 = len(arm1.universe), len(arm2.universe)
        for (_, arity), t1, t2 in zip(arm1.signature.predicates, arm1.pred_tables, arm2.pred_tables):
            if _pull(t1, pos1, n1, arity) != _pull(t2, pos2, n2, arity):
                raise ValueError("the arms disagree on their shared elements")
        object.__setattr__(self, "shared", shared)


def _v_formation(arm1: GradedStructure, arm2: GradedStructure, shared) -> VFormation:
    """The v-formation of the arms with the correspondence ``shared``,
    pairs of positions in arm1's order, built without the agreement
    check: the caller guarantees that the arms agree through ``shared``
    and that their ids are disjoint."""
    v = object.__new__(VFormation)
    v.__dict__.update(arm1=arm1, arm2=arm2, shared=shared)
    return v


def align_v_formation(arm1: GradedStructure, arm2: GradedStructure, embedding: dict,
                      ids=None) -> VFormation:
    """Build a v-formation from an embedding of a base of arm1 into arm2.

    ``embedding`` maps ids of arm1 to ids of arm2.  arm2 is renamed so the
    embedding image carries the base's ids and everything else is fresh
    relative to both arms: the first ids of ``ids``, an iterator from
    ``id_supply("n")``, that neither arm holds.  By default that is a
    new supply, which starts at n0; ``build_limit`` keeps one across its
    events.  Raises ``ValueError`` when a key is not an id of arm1, a
    value is not an id of arm2, or two keys share a value.
    """
    for b, y in embedding.items():
        if b not in arm1.positions:
            raise ValueError(f"embedding key {b!r} is not an element of the first arm")
        if y not in arm2.positions:
            raise ValueError(f"embedding value {y!r} is not an element of the second arm")
    inverse = {y: b for b, y in embedding.items()}
    if len(inverse) != len(embedding):
        raise ValueError("the embedding is not injective")
    rest = [e for e in arm2.universe if e not in inverse]
    news = fresh_names(len(rest), ChainMap(arm1.positions, arm2.positions),
                       id_supply("n") if ids is None else ids)
    mapping = dict(inverse)
    mapping.update(zip(rest, news))
    return VFormation(arm1, rename(arm2, mapping))


def verify_amalgam(spec, v: VFormation, witness: GradedStructure) -> bool:
    """Whether ``witness`` is a member, by ``spec.membership`` through
    every position, into which both arms embed: arm1 by its ids, and
    arm2 along the v-formation's map, which sends a shared position to
    the id of its arm1 partner and any other position to its own id.
    For a v-formation from the public constructor the map is arm2's
    ids, so this is ``is_substructure`` for both arms."""
    return spec.membership(witness) and _arms_embed(v, witness)


def _arms_embed(v: VFormation, witness: GradedStructure) -> bool:
    """The embedding half of ``verify_amalgam``."""
    ids2 = list(v.arm2.universe)
    for p, q in v.shared:
        ids2[q] = v.arm1.universe[p]
    return is_substructure(v.arm1, witness) and _embeds_by_ids(v.arm2, witness, ids2)


def _amalgam_frame(v: VFormation):
    """Union universe, the second arm's new elements, and a builder of the union table.

    The union lists the first arm, then the second arm's new elements.
    ``ext2`` holds the positions of the second arm's new elements in the
    second arm, those that ``v.shared`` does not pair; ext2[j] sits at
    union position len(arm1) + j and keeps its id.
    ``assemble(forward, backward)`` returns the union table given, for
    each j, two columns over the first arm's positions: forward[j][x] is
    the value of (x, ext2[j]) and backward[j][x] that of (ext2[j], x).
    A base element's cells take the second arm's values instead of the
    columns' entries.  The table is built by rows, joined as ``bytes``:
    a first-arm row is a slice of the first arm's table followed by its
    cells against ext2, cut from a block that the forward columns fill by
    strided assignment; a row of a new second-arm element is its backward
    column with the base cells overwritten, followed by its cells against
    ext2.
    """
    arm1, arm2 = v.arm1, v.arm2
    if arm1.signature != SIG_LT:
        raise ValueError("amalgamation recipes are defined over the one-binary-predicate signature")
    lt1, lt2 = arm1.pred_tables[0], arm2.pred_tables[0]
    n1, n2 = len(arm1.universe), len(arm2.universe)
    base2 = {q for _, q in v.shared}
    ext2 = [y for y in range(n2) if y not in base2]
    m = len(ext2)
    universe = arm1.universe + tuple(map(arm2.universe.__getitem__, ext2))

    def assemble(forward, backward):
        block = [0] * (n1 * m)
        for j, col in enumerate(forward):
            block[j::m] = col
        for p, q in v.shared:
            block[p * m:(p + 1) * m] = [lt2[q * n2 + y] for y in ext2]
        block = bytes(block)
        # The first arm's rows are joined from views, copied once, by the join.
        rows1 = memoryview(lt1)
        parts = []
        for p in range(n1):
            parts += (rows1[p * n1:(p + 1) * n1], block[p * m:(p + 1) * m])
        for y, col in zip(ext2, backward):
            row = list(col)
            for p, q in v.shared:
                row[p] = lt2[y * n2 + q]
            parts += (bytes(row), bytes([lt2[y * n2 + z] for z in ext2]))
        return b"".join(parts)

    return universe, ext2, assemble


def _amalgamate(v: VFormation, cross, name: str, loops_in_filter: bool, cells_ok) -> GradedStructure:
    """The amalgamation core shared by every built-in class.

    ``cross(v, ext2)`` gives the cross values as the ``forward`` and
    ``backward`` columns that ``_amalgam_frame``'s ``assemble`` takes:
    for each new element y of the second arm (ext2 lists their positions
    there), the values of (x, y) and of (y, x) over every position x of
    the first arm; the entries at base positions are not read.
    ``loops_in_filter`` and ``cells_ok`` state the class ``name`` (see
    ``_through``).  The amalgam is a member exactly when its first arm is
    one and the class's check through its new elements, the second arm's
    elements that the first arm lacks, passes: every loop, cell and
    triple that check skips lies inside the first arm, and with no new
    element the amalgam is the first arm.  So the first arm must be a
    member, and the callers guarantee it: ``check_ap`` and ``check_jep``
    pass enumerated members, and ``build_limit`` and
    ``replay_transcript`` pass the current stage, which is a checked
    initial stage or an amalgam.  No membership predicate is called.

    The amalgam extends its first arm and is built as such, without
    validating again (see ``GradedStructure``): its table holds ranks
    read from the validated arms, the chain's constants and their min
    and max; its universe is arm1's, then the ids of arm2's elements
    that ``v.shared`` does not pair, which arm1 lacks;
    its ``positions`` are arm1's, extended by the new ids; and its cut
    lines are carried from arm1's (``_carry_cut_lines``).
    """
    arm1 = v.arm1
    universe, ext2, assemble = _amalgam_frame(v)
    n1 = len(arm1.universe)
    positions = arm1.positions.copy()
    positions.update(zip(universe[n1:], range(n1, len(universe))))
    out = _trusted(arm1.chain, SIG_LT, universe, (assemble(*cross(v, ext2)),), "amalgam",
                   positions=positions)
    _carry_cut_lines(arm1, out)
    if not _through(out, range(n1, len(universe)), loops_in_filter, cells_ok):
        raise AmalgamationError(f"the amalgam is not a member of {name}: "
                                "the check through the second arm fails")
    return out


def _bottom_cross(v: VFormation, ext2):
    """Bottom in both directions for every cross pair, as ``bytes`` columns.

    This is k1's cross rule, the simple union of two weighted graphs
    over their shared part, which keeps the amalgam's loops and symmetry.
    """
    bottom = bytes((v.arm1.chain.bot,)) * len(v.arm1.universe)
    return [bottom] * len(ext2), [bottom] * len(ext2)


@functools.cache
def _clip(top: int) -> bytes:
    """The ``bytes.translate`` table that sends each byte to its min with ``top``."""
    return bytes(range(top)) + bytes((top,)) * (256 - top)


def _composition(v: VFormation, ext2):
    """C(x, y) = max over base b of min(v1(x, b), v2(b, y)), both ways, a
    column at a time.

    Returns (forward, backward): for each position y in ``ext2`` of the
    second arm, the ``bytes`` of C(x, y) and of C(y, x) over every
    position x of the first arm.  A base element b gives its column of
    the first arm, v1(x, b) over x, clipped at v2(b, y) by one
    ``translate`` (``_clip``), and its row, v1(b, x) over x, clipped at
    v2(y, b); over a base of one element those are the columns, over a
    larger one a ``map(max, ...)`` of every base element's.  Both are
    bottom over an empty base.

    This is k0's cross rule.  Since ``one`` is neutral, k0 membership is
    min-transitivity plus loops at or above ``one``, and the composition
    through the base is the whole sup-min closure of the union.
    """
    if not v.shared:
        return _bottom_cross(v, ext2)
    lt1, lt2 = v.arm1.pred_tables[0], v.arm2.pred_tables[0]
    n1, n2 = len(v.arm1.universe), len(v.arm2.universe)
    into = [(lt1[b1::n1], b2) for b1, b2 in v.shared]
    out_of = [(lt1[b1 * n1:(b1 + 1) * n1], b2) for b1, b2 in v.shared]

    def sup(clipped):
        return clipped[0] if len(clipped) == 1 else bytes(map(max, *clipped))

    forward = [sup([col.translate(_clip(lt2[b2 * n2 + y])) for col, b2 in into]) for y in ext2]
    backward = [sup([row.translate(_clip(lt2[y * n2 + b2])) for row, b2 in out_of])
                for y in ext2]
    return forward, backward


def _k2_key(arm: GradedStructure, base, z: int, levels) -> tuple[int, ...]:
    """(pos_1(z), ..., pos_one(z)): z's place among the base blocks per level.

    pos_a(z) is twice the number of base elements strictly below z at
    level a, plus one when z is tied with some base element there.
    ``base`` and z are positions in ``arm``.
    """
    lt = arm.pred_tables[0]
    n = len(arm.universe)
    key = []
    for a in levels:
        below = sum(1 for b in base if lt[b * n + z] >= a > lt[z * n + b])
        tied = any(lt[b * n + z] >= a and lt[z * n + b] >= a for b in base)
        key.append(2 * below + tied)
    return tuple(key)


def _k2_cross(v: VFormation, ext2):
    """k2's cross rule: interleave two graded total preorders around
    their shared base.

    Every a-cut (a <= ``one``) of a member is a weak order.  At level a
    a new element sits in a gap between base blocks (even position) or
    inside a block (odd position); x <=_a y when x's key up to level a
    is lexicographically at most y's, so inside a gap the first arm
    goes first, and y <=_a x when y's key is smaller or both sit in the
    same block.  A cross pair takes the largest level at which it holds,
    or the composition through the base when that is larger.  Comparing
    whole key prefixes, not the level's position alone, keeps the cuts
    nested.

    Why the result is a member (proof sketch).  Write R_a for the a-cut
    {(p, q) : v(p, q) >= a}.  A structure is in k2 exactly when its
    loops are at least ``one``, every R_a is transitive and R_one is
    total.  Loops and within-arm values are copied, so:

    1. Inside one arm, p R_a q gives p R_c q for all c <= a, and the
       base position at level c is monotone along the weak order R_c,
       so p's key prefix up to a is at most q's componentwise.  Hence a
       lexicographically smaller prefix forces the strict arm order.
    2. A strictly smaller prefix stays smaller when extended, so the
       levels where "prefix of x <= prefix of y" holds form an initial
       segment: the cross values are well defined and the cuts nest.
    3. For a <= ``one`` the new R_a sorts the union by key prefix; equal
       prefixes ending in a block (odd) are all tied to that block, and
       equal prefixes ending in a gap (even) hold only new elements, the
       first arm's before the second's, each arm in its own order.  A
       lexicographic product of weak orders is a weak order, and by 1 it
       agrees with both arms.  The composition adds nothing at these
       levels: x R_a b R_a y with b in the base gives prefix(x) <=
       prefix(b) <= prefix(y), and y R_a b R_a x gives the reverse,
       where equality puts x in b's block.  So R_one is total and each
       such R_a is transitive.
    4. Above ``one`` a cross pair reaches level a only through the
       composition, and a chain of a-steps that changes arms passes
       through the base, so, as for ``amalgamate_k0``, the composition
       closes the union of the arms' cuts transitively.
    """
    chain = v.arm1.chain
    levels = range(1, chain.one + 1)
    base1, base2 = [p for p, _ in v.shared], [q for _, q in v.shared]
    in_base = set(base1)
    keys1 = {x: _k2_key(v.arm1, base1, x, levels)
             for x in range(len(v.arm1.universe)) if x not in in_base}
    forward, backward = ([bytearray(col) for col in cols] for cols in _composition(v, ext2))
    for y, fcol, bcol in zip(ext2, forward, backward):
        ky = _k2_key(v.arm2, base2, y, levels)
        for x, kx in keys1.items():
            up = max((a for a in levels if kx[:a] <= ky[:a]), default=chain.bot)
            down = max(
                (a for a in levels if ky[:a] < kx[:a] or (ky[:a] == kx[:a] and kx[a - 1] % 2)),
                default=chain.bot,
            )
            fcol[x], bcol[x] = max(fcol[x], up), max(bcol[x], down)
    return forward, backward


@functools.cache
def _one_or_bottom(one: int) -> bytes:
    """The ``bytes.translate`` table that sends bytes below ``one`` to 0, the rest to ``one``."""
    return bytes(one) + bytes((one,)) * (256 - one)


def _k3_cross(v: VFormation, ext2):
    """The composition's columns, each rank sent to ``one`` when it is at
    least ``one`` and to bottom otherwise.

    This is k3's cross rule: a mixed pair takes ``one`` when some base
    element sits between its endpoints at the filter level; otherwise
    it takes bottom, which is below the filter on every chain (``zero``
    may not be).
    """
    cut = _one_or_bottom(v.arm1.chain.one)
    forward, backward = _composition(v, ext2)
    return [col.translate(cut) for col in forward], [col.translate(cut) for col in backward]


# --- enumeration ---


_ENUM_BUDGET = 10**7


def _orbit_representatives(size: int, s: int, loops=None):
    """The lex-least table of each orbit of S_s on the tables over s
    elements with ranks below ``size`` and every loop in ``loops``, in
    increasing lex order.

    ``loops`` is an increasing sequence of ranks; None admits every
    rank.  ``enumerate_class`` passes the ranks on one side of ``one``,
    which are never empty, so no cell has radix 0: a chain of two or
    more ranks with ``one`` at bottom fails residuation, so ``one`` is
    at least 1.

    A table's code is a mixed-radix numeral, first entry most
    significant: a loop cell is a digit d in base ``len(loops)`` that
    stands for rank loops[d], every other cell a digit in base ``size``
    that stands for itself.  Each digit's rank grows with the digit, so
    codes follow lex order.  A permutation sends loop cells to loop
    cells, so it permutes the admitted tables, and their orbits are
    whole orbits of S_s.  A flag per code says whether some
    representative already reached it: the next unflagged code is the
    least of a new orbit, whose images under every permutation are then
    flagged.  An image's code is the digits' dot product with that
    permutation's weights, the place value each entry moves to.  The
    weights of all permutations are packed into one int per entry, a
    fixed-width field per permutation, so one dot product gives every
    image's code, read back as an array of machine ints.  The dot
    product is taken once per head and per tail numeral of the code, and
    a code's is the sum of its head's and its tail's.
    """
    cells = s * s
    if loops is None:
        loops = range(size)
    # Cell k is the loop of element k // s when k is a multiple of s + 1.
    values = [range(size) if k % (s + 1) else loops for k in range(cells)]
    place = [math.prod(map(len, values[k + 1:])) for k in range(cells)]
    count = place[0] * len(values[0])
    # The identity comes first; the walk moves past its image anyway.
    perms = list(itertools.permutations(range(s)))[1:]
    fmt = next(f for f in "HIQ" if count <= 1 << 8 * struct.calcsize(f))
    bits = 8 * struct.calcsize(fmt)
    packed = [sum(place[p[k // s] * s + p[k % s]] << bits * i for i, p in enumerate(perms))
              for k in range(cells)]
    nbytes = len(perms) * bits // 8

    def decoded(part, weights):
        """Each numeral over the cells of ``part``, in order: its ranks
        and the packed images of its digits."""
        return [(ranks, sum(map(mul, digits, weights)))
                for ranks, digits in zip(itertools.product(*part),
                                         itertools.product(*(range(len(r)) for r in part)))]

    # A code splits into a head and a tail numeral, each decoded by lookup.
    low = cells // 2
    heads = decoded(values[:cells - low], packed[:cells - low])
    tails = decoded(values[cells - low:], packed[cells - low:])
    seen = bytearray(count)
    code = 0
    while code != -1:
        h, t = divmod(code, len(tails))
        (head, head_images), (tail, tail_images) = heads[h], tails[t]
        images = (head_images + tail_images).to_bytes(nbytes, sys.byteorder)
        for image in memoryview(images).cast(fmt):
            seen[image] = 1
        yield head + tail
        code = seen.find(0, code + 1)


def enumerate_class(spec: ClassSpec, chain: Chain, max_size: int) -> list[GradedStructure]:
    """All isomorphism types of members with at most ``max_size`` elements.

    Each type is given by its lex-least table of ``<`` on the universe
    x0, x1, ...; the result is ordered by size then canonical form.
    Each size visits one table per orbit of the symmetric group among
    the tables whose loops ``spec.loops_in_filter`` admits, the least
    one, builds it, and asks ``spec.membership`` about it
    alone, loops included, so the membership predicate must be
    isomorphism-invariant.  Rejects runs whose raw table count, every
    table of every size whatever its loops, exceeds ``_ENUM_BUDGET``
    before building any.
    """
    if max_size < 0:
        raise ValueError("max_size must be non-negative")
    total = sum(chain.size ** (s * s) for s in range(1, max_size + 1))
    if total > _ENUM_BUDGET:
        raise BudgetError(f"{total} candidates exceed the budget of {_ENUM_BUDGET}")
    loops = None if spec.loops_in_filter is None else (
        range(chain.one, chain.size) if spec.loops_in_filter else range(chain.one))
    found: list[tuple[int, bytes, GradedStructure]] = []
    for s in range(1, max_size + 1):
        elems = tuple(f"x{i}" for i in range(s))
        for table in _orbit_representatives(chain.size, s, loops):
            m = _trusted(chain, SIG_LT, elems, (bytes(table),), f"{spec.name}_{s}")
            if spec.membership(m):
                found.append((s, canonical_form(m), m))
    # Types differ in their forms, so the key decides every comparison.
    found.sort(key=lambda item: item[:2])
    return [m for _, _, m in found]


# --- property reports ---


@dataclass
class PropertyReport:
    """How many instances a property check checked, and the failure text
    of each that failed, in check order."""

    property: str
    class_name: str
    chain_name: str
    k: int
    checked: int
    counterexamples: list[str]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def render(self) -> str:
        lines = [
            f"{self.property} {self.class_name} chain={self.chain_name} k={self.k}",
            f"checked {self.checked} instances",
        ]
        if self.counterexamples:
            lines.extend(f"{self.property}: {detail}" for detail in self.counterexamples)
        else:
            lines.append("no counterexamples")
        return "\n".join(lines)


def _report(prop: str, spec: ClassSpec, chain: Chain, k: int, problems) -> PropertyReport:
    """The report of a walk that yields one item per instance: None when
    the instance holds, else its failure text."""
    checked, bad = 0, []
    for checked, problem in enumerate(problems, 1):
        if problem is not None:
            bad.append(problem)
    return PropertyReport(prop, spec.name, chain.name, k, checked, bad)


def _require_k(k: int) -> None:
    if k < 0:
        raise ValueError("k must be non-negative")


def check_hp(spec: ClassSpec, chain: Chain, k: int) -> PropertyReport:
    """Every induced substructure of every enumerated member is a member."""
    _require_k(k)
    members = enumerate_class(spec, chain, k)
    return _report("hp", spec, chain, k, (
        None if spec.membership(sub)
        else f"type[{i}] loses membership on subset {{{' '.join(subset)}}}"
        for i, m in enumerate(members) for subset, sub in substructures(m)))


def _amalgamating(spec: ClassSpec, chain: Chain, k: int):
    """The members of at most k elements, and each member renamed once
    to ids that no member holds, the second arms of the instances; a
    class without an amalgamator raises ``ValueError`` before any
    enumeration.  A renamed member shares its source's tables and
    ``_derived`` cache.  A negative k raises ``ValueError`` first."""
    _require_k(k)
    if spec.amalgamate is None:
        raise ValueError(f"class {spec.name} has no amalgamator")
    members = enumerate_class(spec, chain, k)
    taken = {e for m in members for e in m.universe}
    arms2 = [rename(m, dict(zip(m.universe, fresh_names(len(m.universe), taken, id_supply("n")))))
             for m in members]
    return members, arms2


def _membership_by_table(spec: ClassSpec, chain: Chain):
    """``spec.membership`` for the witnesses of one check, with its
    verdict kept per table for witnesses on ``chain`` and ``<`` alone,
    the check's chain and signature.  Many witnesses share a table.
    Equal tables on one chain and signature are isomorphic through the
    identity, and ``enumerate_class`` already requires membership to be
    isomorphism-invariant, so a kept verdict is the one a new call would
    give.  Any other witness is asked about afresh."""
    verdicts = {}

    def member(m: GradedStructure):
        if m.chain != chain or m.signature != SIG_LT:
            return spec.membership(m)
        # Over ``<`` alone the table's length fixes the size.
        table = m.pred_tables[0]
        if table not in verdicts:
            verdicts[table] = spec.membership(m)
        return verdicts[table]

    return member


def _amalgam_problem(spec: ClassSpec, member, v, where) -> str | None:
    """None when the class amalgamator's witness for v is verified, as
    ``verify_amalgam`` does but with ``member`` for the membership test,
    else the failure text, which names the instance by ``where()``: it
    is formatted only for a failure."""
    try:
        witness = spec.amalgamate(v)
    except AmalgamationError as exc:
        why = str(exc)
    else:
        if member(witness) and _arms_embed(v, witness):
            return None
        why = f"result is not {'an amalgam' if v.shared else 'a common extension'} in the class"
    return f"amalgamator failed on {where()}: {why}"


def check_jep(spec: ClassSpec, chain: Chain, k: int) -> PropertyReport:
    """Every pair of members has a common extension in the class.

    The class amalgamator's amalgam over the empty base is the witness,
    verified to be a member containing both inputs; each unordered pair
    of types, a type with itself included, is one instance, whose second
    arm is the renamed copy of its type (see ``check_ap``).  A class
    without an amalgamator raises ``ValueError`` before any enumeration.
    """
    members, arms2 = _amalgamating(spec, chain, k)
    member = _membership_by_table(spec, chain)
    return _report("jep", spec, chain, k, (
        _amalgam_problem(spec, member, _v_formation(m1, arms2[j], ()),
                         lambda: f"type[{i}] and type[{j}]")
        for i, m1 in enumerate(members) for j in range(i, len(members))))


def _ap_instances(members):
    """(i, pos, j, image) for each instance of ``check_ap``, in its
    order: member i, the base on its positions ``pos`` (increasing),
    member j, and the images of those positions in member j under an
    embedding of the base.  The embeddings of each distinct base table
    into every member are searched once, at its first subset, and kept
    as position tuples."""
    images: dict[bytes, list[list[tuple[int, ...]]]] = {}
    for i, m1 in enumerate(members):
        n1 = len(m1.universe)
        for size in range(1, n1 + 1):
            for pos in itertools.combinations(range(n1), size):
                # An enumerated member is over ``<`` alone.
                table = _pull(m1.pred_tables[0], pos, n1, 2)
                into = images.get(table)
                if into is None:
                    base = restrict(m1, [m1.universe[p] for p in pos])
                    into = images[table] = [[tuple(m2.positions[g[e]] for e in base.universe)
                                             for g in find_embeddings(base, m2)]
                                            for m2 in members]
                for j, found in enumerate(into):
                    for image in found:
                        yield i, pos, j, image


def check_ap(spec: ClassSpec, chain: Chain, k: int) -> PropertyReport:
    """Every v-formation of enumerated members has an amalgam.

    For each member, each nonempty subset of it as the base, each member
    and each embedding of the base into it, the class amalgamator's
    witness is verified by ``verify_amalgam`` to be a member containing
    both arms; each such v-formation is one instance.  A class without
    an amalgamator raises ``ValueError`` before any enumeration.

    Instances are built by position, with no renaming and no agreement
    check each.  The first arm is the member itself, the second the
    other member's copy under ids that no member holds, made once per
    check, and ``shared`` pairs each base position with its image.  An
    embedding keeps every value, so the arms agree there, as the public
    ``VFormation`` would check.  The embedding search reads the tables
    alone, so searching once per distinct base table finds the same
    embeddings, in the same order, as a search from each subset.  The
    membership verdict is kept per witness table within the check (see
    ``_membership_by_table``).  A failure names the base and the
    embedding by the members' own ids.
    """
    members, arms2 = _amalgamating(spec, chain, k)

    def where(i, pos, j, image) -> str:
        base = [members[i].universe[p] for p in pos]
        via = sorted(zip(base, (members[j].universe[q] for q in image)))
        return f"base of type[{i}] on {{{' '.join(base)}}} into type[{j}] via {via}"

    member = _membership_by_table(spec, chain)
    return _report("ap", spec, chain, k, (
        _amalgam_problem(spec, member, _v_formation(members[i], arms2[j], tuple(zip(pos, image))),
                         lambda: where(i, pos, j, image))
        for i, pos, j, image in _ap_instances(members)))


def _builtin(name: str, loops_in_filter: bool, cells_ok, cross) -> ClassSpec:
    """The spec of a built-in class from its row: where its loops lie,
    its cell check and its cross rule, which its membership and its
    amalgamator both read."""

    def membership(m: GradedStructure) -> bool:
        """Whether m is nonempty, its loops lie on the class's side of
        ``one`` and the class's cell check holds through every position."""
        return _member(m, loops_in_filter, cells_ok)

    def amalgamate(v: VFormation) -> GradedStructure:
        """The class's amalgam of v by its cross rule; the first arm must
        be a member (see ``_amalgamate``)."""
        return _amalgamate(v, cross, name, loops_in_filter, cells_ok)

    return ClassSpec(name, membership, amalgamate, loops_in_filter)


_CLASSES = {spec.name: spec for spec in (
    _builtin("k0", True, _k0_cells_ok, _composition),
    _builtin("k1", False, _k1_cells_ok, _bottom_cross),
    _builtin("k2", True, _k2_cells_ok, _k2_cross),
    _builtin("k3", True, _k3_cells_ok, _k3_cross),
)}
k0_member, k1_member, k2_member, k3_member = (spec.membership for spec in _CLASSES.values())
amalgamate_k0, amalgamate_k1, amalgamate_k2, amalgamate_k3 = (
    spec.amalgamate for spec in _CLASSES.values())


def get_class(name: str) -> ClassSpec:
    """Look up a built-in class by name (k0, k1, k2, k3)."""
    if name not in _CLASSES:
        raise ValueError(f"unknown class {name!r}; expected one of {sorted(_CLASSES)}")
    return _CLASSES[name]


def class_names() -> tuple[str, ...]:
    return tuple(_CLASSES)
