"""Finite graded structures over a fixed chain.

A universe is an ordered tuple of opaque string ids; inside the library
an element is known by its position in that tuple.  Signatures are
relational: each predicate is interpreted by one row-major table of
ranks over positions.  For a k-ary predicate on n elements, entry
``i_1 * n**(k-1) + ... + i_(k-1) * n + i_k`` belongs to the elements at
positions (i_1, ..., i_k).  String ids matter only at the boundary:
``make_structure``, the file format, ``value`` and morphism mappings.
Structures are immutable, hashable values; renaming is explicit.  All
operations here are pure.

Every table is ``bytes``: one rank per byte, at most 256 ranks
(``algebra.MAX_RANKS``).  A table is validated by one ``translate``,
sliced, joined and compared at memory speed, and a rank is still an int
when read.

``find_embeddings`` is a forward-checking search over candidate sets
kept as Python-int bitsets of target positions.  The masks it reads are
cached on the target structure, in its ``_derived`` dict, and go with it
and with its renamings: the positions by loop value, built for every
element at once, and the positions by value in an element's row and
column, built for that element when a search first places something
there.  A seed of ``find_embeddings`` is a candidate set of one
position, at the head of the order.  ``is_isomorphic`` starts each
element from the elements with its profile, its loops and the rank
counts of its rows and columns, which every isomorphism keeps; the
search walks what is left in the same order, so the first map it finds
is the one ``find_embeddings`` finds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import comb

from .algebra import Chain, resolve_chain
from .errors import BudgetError, FileFormatError
from .logic import SIG_LT, Signature

__all__ = [
    "GradedStructure",
    "make_structure",
    "binary_structure",
    "is_substructure",
    "find_embeddings",
    "is_isomorphic",
    "canonical_form",
    "restrict",
    "substructures",
    "rename",
    "age",
    "structure_from_text",
    "structure_to_text",
]


def _check_universe(universe: tuple) -> None:
    """Every id is a nonempty string with no whitespace and no "=", and
    no id repeats.

    Joined by spaces, the ids split back into themselves exactly when
    each is a nonempty string without whitespace, so a good universe
    costs a few passes in C; a bad one is read id by id to name the
    first bad id.
    """
    try:
        joined = " ".join(universe)
    except TypeError:  # an id that is not a string
        joined = None
    if (joined is not None and "=" not in joined and joined.split() == list(universe)
            and len(set(universe)) == len(universe)):
        return
    seen = set()
    for eid in universe:
        # split() drops every whitespace character, so this also rejects "".
        if not isinstance(eid, str) or eid.split() != [eid] or "=" in eid:
            raise ValueError(f"bad element id {eid!r}")
        if eid in seen:
            raise ValueError(f"duplicate element id {eid!r}")
        seen.add(eid)


@cache
def _ranks_below(size: int) -> bytes:
    """The bytes 0..size-1, the ``bytes.translate`` deletion set of valid ranks."""
    return bytes(range(size))


def _check_table(table, length: int, size: int, pname: str) -> bytes:
    """The table of predicate ``pname``, a tuple or ``bytes`` of
    ``length`` ranks, each in 0..size-1, as ``bytes``.

    A tuple is converted by ``bytes()``, which rejects every entry that
    is not an int in 0..255, and the ranks are in range exactly when
    deleting every byte below ``size`` leaves nothing.
    """
    if type(table) not in (tuple, bytes) or len(table) != length:
        raise ValueError(f"interpretation of predicate {pname!r} is not a total table "
                         f"of {length} entries")
    try:
        table = bytes(table)
    except (TypeError, ValueError):
        table = None
    if table is None or table.translate(None, _ranks_below(size)):
        raise ValueError(f"interpretation of predicate {pname!r} has an entry outside 0..{size - 1}")
    return table


def _flat(coords, n: int) -> list[int]:
    """Row-major indices, in a table over n elements, of every tuple in
    the product of the position lists ``coords``, in product order."""
    flat = [0]
    for pos in coords:
        flat = [f * n + p for f in flat for p in pos]
    return flat


def _pull(table: bytes, pos, n: int, arity: int) -> bytes:
    """The table over the elements at ``pos`` (in that order) of a table
    over n elements.

    ``rows`` holds the row-major index of every prefix of arity - 1
    positions, so one comprehension reads the table; a binary table's
    prefixes are ``pos`` itself, with no index list built first."""
    rows = pos if arity > 1 else (0,)
    for _ in range(arity - 2):
        rows = [r * n + p for r in rows for p in pos]
    return bytes([table[r * n + q] for r in rows for q in pos])


@dataclass(frozen=True)
class GradedStructure:
    """A universe of element ids and one row-major table per predicate.

    ``pred_tables`` follows ``signature.predicates`` and holds ranks of
    ``chain``.  The constructor validates, so code reading the tables
    checks nothing again.  It takes each table as a tuple or as
    ``bytes`` and stores it as ``bytes``.
    Equality and hashing ignore ``name``.

    One rule: a structure from outside the library (``make_structure``,
    ``structure_from_text``, a user's call) is validated here, and one
    derived from valid input (``restrict``, ``rename``, ``age``,
    amalgams, enumerated members, the random graph) is built by
    ``_trusted`` without it; ``rename`` checks only the ids it brings in.

    ``_derived`` caches data that depend on the chain, the signature and
    the tables alone, not on the ids: the masks of ``find_embeddings``
    and, kept by ``classes``, the cut lines of its cell checks.  It holds
    no membership verdicts.  Each user keys its entries.  A renamed
    structure shares the dict of its source.
    """

    chain: Chain
    signature: Signature
    universe: tuple[str, ...]
    pred_tables: tuple[bytes, ...]
    name: str = field(default="s", compare=False)
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (type(self.universe) is type(self.pred_tables) is tuple):
            raise ValueError("the universe and the tables must be tuples")
        _check_universe(self.universe)
        n = len(self.universe)
        preds = self.signature.predicates
        if len(self.pred_tables) != len(preds):
            raise ValueError("expected one table per predicate")
        tables = [_check_table(table, n ** arity, self.chain.size, pname)
                  for (pname, arity), table in zip(preds, self.pred_tables)]
        object.__setattr__(self, "pred_tables", tuple(tables))

    def __len__(self) -> int:
        return len(self.universe)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Element id -> position in the universe."""
        return {e: i for i, e in enumerate(self.universe)}

    def _loop_masks(self) -> tuple[list[int], ...]:
        """Per predicate, rank -> bitset of the positions whose loop, the
        tuple repeating them, has that rank: a unary predicate's value."""
        masks = self._derived.get("loop masks")
        if masks is None:
            n = len(self.universe)
            masks = self._derived["loop masks"] = tuple(
                _rank_masks(table[::_diagonal_step(n, arity)], self.chain.size)
                for (_, arity), table in zip(self.signature.predicates, self.pred_tables))
        return masks

    def _pair_masks(self) -> list:
        """Position -> its ``_element_pair_masks``, or None until
        ``find_embeddings`` first places an element there."""
        masks = self._derived.get("pair masks")
        if masks is None:
            masks = self._derived["pair masks"] = [None] * len(self.universe)
        return masks

    def _element_pair_masks(self, d: int) -> tuple[list[int], ...]:
        """Per binary predicate, two lists by rank of position bitsets: the
        positions e with rank (d, e), then those with rank (e, d)."""
        n = len(self.universe)
        masks = []
        for (_, arity), table in zip(self.signature.predicates, self.pred_tables):
            if arity == 2:
                masks.append(_rank_masks(table[d * n:(d + 1) * n], self.chain.size))
                masks.append(_rank_masks(table[d::n], self.chain.size))
        return tuple(masks)

    def value(self, pred: str, *elems: str) -> int:
        """The rank of ``pred`` at the elements with the given ids."""
        for (name, arity), table in zip(self.signature.predicates, self.pred_tables):
            if name == pred and arity == len(elems):
                return table[_flat([[self.positions[e]] for e in elems], len(self.universe))[0]]
        raise KeyError((pred, elems))

    def __repr__(self) -> str:
        return f"GradedStructure({self.name!r}, |M|={len(self.universe)})"


def _trusted(chain: Chain, signature: Signature, universe: tuple, pred_tables: tuple,
             name: str, derived: dict | None = None,
             positions: dict | None = None) -> GradedStructure:
    """A structure built without validation, for callers whose input is
    already valid: the ids a nonrepeating tuple of good ids and the
    tables ``bytes`` with ranks in range.

    ``derived`` becomes its ``_derived`` cache, shared with the caller,
    and ``positions``, when given, its ``positions``.
    """
    m = object.__new__(GradedStructure)
    fields = m.__dict__
    fields.update(chain=chain, signature=signature, universe=universe, pred_tables=pred_tables,
                  name=name, _derived={} if derived is None else derived)
    if positions is not None:
        fields["positions"] = positions
    return m


def make_structure(chain, universe, values=None, *, signature=SIG_LT, default=None,
                   name="s") -> GradedStructure:
    """Build a structure from sparse, id-keyed values.

    ``values`` maps (pred_name, element_tuple) to ranks; tuples not
    listed get ``default`` (required when anything is left out).
    """
    universe = tuple(universe)
    values = dict(values or {})
    pred_tables = []
    for pname, arity in signature.predicates:
        table = []
        for t in itertools.product(universe, repeat=arity):
            v = values.pop((pname, t), default)
            if v is None:
                raise ValueError(f"no value for {pname}{t} and no default given")
            table.append(v)
        pred_tables.append(tuple(table))
    if values:
        raise ValueError(f"values given for unknown tuples: {sorted(values)[:3]}")
    return GradedStructure(chain, signature, universe, tuple(pred_tables), name=name)


def binary_structure(chain, elements, values=None, default=None, name="s") -> GradedStructure:
    """Structure over the one-binary-predicate signature; keys are id pairs."""
    vals = {("<", tuple(k)): v for k, v in (values or {}).items()}
    return make_structure(chain, elements, vals, signature=SIG_LT, default=default, name=name)


def _require_compatible(m: GradedStructure, n: GradedStructure):
    if m.chain != n.chain:
        raise ValueError("structures are valued on different chains")
    if m.signature != n.signature:
        raise ValueError("structures have different signatures")


def _preserves(m: GradedStructure, n: GradedStructure, pos) -> bool:
    """Whether sending m's element i to n's element pos[i] keeps every table entry."""
    size = len(n.universe)
    for (_, arity), tm, tn in zip(m.signature.predicates, m.pred_tables, n.pred_tables):
        if tm != _pull(tn, pos, size, arity):
            return False
    return True


def is_substructure(m: GradedStructure, n: GradedStructure) -> bool:
    """Universe containment with equal atomic values.

    Equality of atomic values extends to every quantifier-free formula
    by compositionality, so checking atoms is sufficient.
    """
    return _embeds_by_ids(m, n, m.universe)


def _embeds_by_ids(m: GradedStructure, n: GradedStructure, ids) -> bool:
    """Whether sending m's element at position i to n's element with id
    ``ids[i]`` is an embedding: the ids are distinct, each is n's, and
    every table entry is kept."""
    _require_compatible(m, n)
    where = n.positions
    try:
        pos = [where[e] for e in ids]
    except KeyError:
        return False
    return len(set(pos)) == len(pos) and _preserves(m, n, pos)


def _diagonal_step(n: int, arity: int) -> int:
    """Distance in a table over n elements between the entries of the
    tuples (i, ..., i) and (i + 1, ..., i + 1): 1 + n + ... + n**(arity - 1)."""
    return (n ** arity - 1) // (n - 1) if n > 1 else arity


@cache
def _rank_digits(rank: int) -> bytes:
    """The ``bytes.translate`` table that sends ``rank`` to the digit 1
    and every other byte to the digit 0."""
    return b"0" * rank + b"1" + b"0" * (255 - rank)


def _rank_masks(values: bytes, size: int) -> list[int]:
    """Rank -> bitset of the places in ``values`` that hold that rank.

    The line, reversed so that place 0 is the lowest bit, becomes each
    rank's mask as one ``translate`` to binary digits read by ``int``.
    """
    line = values[::-1]
    return [int(line.translate(_rank_digits(v)), 2) if line else 0 for v in range(size)]


def _wide_atoms_kept(wide, nm: int, nn: int, placed: list, src: int, dst: int) -> bool:
    """Whether src -> dst keeps, next to the ``placed`` position pairs,
    the atoms of arity three or more that involve src.

    ``wide`` lists (arity, m's table, n's table).  Each tuple over the
    placed sources and src that contains src is visited once, keyed by
    the place of its first src.
    """
    new = [(src, dst)]
    every = placed + new
    for arity, tm, tn in wide:
        for first in range(arity):
            for t in itertools.product(*([placed] * first + [new] + [every] * (arity - first - 1))):
                fm = fn = 0
                for s, d in t:
                    fm = fm * nm + s
                    fn = fn * nn + d
                if tm[fm] != tn[fn]:
                    return False
    return True


def find_embeddings(m: GradedStructure, n: GradedStructure, fixed: dict | None = None,
                    limit: int | None = None) -> list[dict]:
    """The embeddings of m into n that extend the partial id map ``fixed``,
    complete up to ``limit`` results.

    Each embedding is a dict from m's ids to n's.  The search places the
    elements of ``fixed`` first, in its order, and then the rest of m's
    universe in order, trying n's elements in universe order, so the
    result order is stable.  A ``fixed`` map with an id outside m or n,
    two elements sent to one, or a value it does not keep has no
    extension.  A ``limit`` below 1 asks for no results and gets none.

    The search is forward checking over candidate sets (Ullmann 1976;
    Haralick and Elliott 1980).  Every unplaced element of m keeps a
    bitset of the positions of n it may still go to, starting from those
    with its unary and loop values: the one position ``fixed`` gives it,
    or every position.  Placing s at d clears d from every
    set and keeps, per binary predicate, the positions whose values
    against d are those of the unplaced element against s: the row and
    column masks of d, built on first use and cached on n.  An emptied
    set cuts the branch at once.  Atoms of arity three or more are
    checked when their last element is placed.
    """
    _require_compatible(m, n)
    cand = [(1 << len(n.universe)) - 1] * len(m.universe)
    first = []
    for src, dst in (fixed or {}).items():
        s, d = m.positions.get(src), n.positions.get(dst)
        if s is None or d is None:
            return []
        cand[s] = 1 << d
        first.append(s)
    return _search(m, n, cand, first, limit)


def _search(m: GradedStructure, n: GradedStructure, cand: list[int], first: list[int],
            limit: int | None) -> list[dict]:
    """The embeddings of m into n, up to ``limit``, that send each
    element s of m into its bitset ``cand[s]`` of positions of n.

    The search places the positions ``first`` in that order, then the
    rest of m's in universe order.  A seed of ``find_embeddings`` is a
    candidate set of one position at the head of the order.
    """
    nm, nn = len(m.universe), len(n.universe)
    if nm > nn or (limit is not None and limit < 1):
        return []
    preds = m.signature.predicates
    wide = [(arity, tm, tn) for (_, arity), tm, tn in zip(preds, m.pred_tables, n.pred_tables)
            if arity > 2]
    # lines[s]: per binary predicate, the row and the column of s in m,
    # whose ranks index the row and column masks of the image of s; as
    # tuples, which the interpreter indexes faster than bytes.
    lines = [[tuple(line) for (_, arity), tm in zip(preds, m.pred_tables) if arity == 2
              for line in (tm[s * nm:(s + 1) * nm], tm[s::nm])] for s in range(nm)]
    for (_, arity), tm, masks in zip(preds, m.pred_tables, n._loop_masks()):
        cand = [c & masks[v] for c, v in zip(cand, tm[::_diagonal_step(nm, arity)])]
    order = first + [s for s in range(nm) if s not in first]
    pair_masks = n._pair_masks()
    placed: list[tuple[int, int]] = []

    def place(s, d, cand, rest):
        """The candidate sets of ``rest`` once s goes to d, or None if
        that breaks an atom or leaves an element of ``rest`` nowhere."""
        if wide and not _wide_atoms_kept(wide, nm, nn, placed, s, d):
            return None
        if not rest:
            return cand
        masks = pair_masks[d]
        if masks is None:
            masks = pair_masks[d] = n._element_pair_masks(d)
        keep = ~(1 << d)
        out = cand[:]
        lines_s = lines[s]
        for t in rest:
            c = cand[t] & keep
            for mask, line in zip(masks, lines_s):
                c &= mask[line[t]]
            if not c:
                return None
            out[t] = c
        return out

    results: list[dict] = []

    def search(k, cand):
        if k == nm:
            # Each atom was checked when the last of its elements was placed.
            results.append({m.universe[s]: n.universe[d] for s, d in placed})
            return limit is None or len(results) < limit
        s, rest = order[k], order[k + 1:]
        bits = cand[s]
        while bits:
            low = bits & -bits
            bits ^= low
            d = low.bit_length() - 1
            after = place(s, d, cand, rest)
            if after is None:
                continue
            placed.append((s, d))
            more = search(k + 1, after)
            placed.pop()
            if not more:
                return False
        return True

    search(0, cand)
    return results


def is_isomorphic(m: GradedStructure, n: GradedStructure) -> dict | None:
    """An onto embedding of m into n as an id map, or None.

    Structures on different chains or signatures raise ``ValueError``,
    whatever their sizes.  The map is the first one ``find_embeddings``
    finds.  The search starts each element of m from the elements of n
    with the same ``_iso_keys`` profile only: an isomorphism keeps every
    profile, so the targets left out lead to no map, and the search
    walks the rest in the same order and finds the same first map.
    """
    _require_compatible(m, n)
    if len(m.universe) != len(n.universe):
        return None
    same: dict = {}
    for d, key in enumerate(_iso_keys(n)):
        same[key] = same.get(key, 0) | 1 << d
    found = _search(m, n, [same.get(key, 0) for key in _iso_keys(m)], [], 1)
    return found[0] if found else None


def _iso_keys(m: GradedStructure) -> list[tuple]:
    """Per position, a profile that every isomorphism keeps: for each
    predicate the element's loop and, for a binary one, the count of each
    rank in its row and in its column, for a wider one the sorted values
    at each argument place.  Counts are ``count`` calls per rank on the
    row and column slices, so each element costs a few calls in C, where
    ``_element_profile``, which ``canonical_form`` orders its groups by,
    sorts every line."""
    n = len(m.universe)
    ranks, every = range(m.chain.size), range(n)
    keys: list[tuple] = [()] * n
    for (_, arity), table in zip(m.signature.predicates, m.pred_tables):
        step = _diagonal_step(n, arity)
        for i in every:
            key = (table[i * step],)
            if arity == 2:
                key += (*map(table[i * n:(i + 1) * n].count, ranks),
                        *map(table[i::n].count, ranks))
            elif arity > 2:
                for k in range(arity):
                    at_k = _flat([every] * k + [[i]] + [every] * (arity - k - 1), n)
                    key += (tuple(sorted(map(table.__getitem__, at_k))),)
            keys[i] += key
    return keys


def _element_profile(m: GradedStructure, i: int):
    """An isomorphism-invariant fingerprint of the element at position i."""
    n = len(m.universe)
    every = range(n)
    prof = []
    for (_, arity), table in zip(m.signature.predicates, m.pred_tables):
        prof.append(table[_flat([[i]] * arity, n)[0]])
        for k in range(arity):
            at_k = _flat([every] * k + [[i]] + [every] * (arity - k - 1), n)
            prof.append(tuple(sorted(map(table.__getitem__, at_k))))
    return tuple(prof)


def _serialize_under(m: GradedStructure, perm: tuple[int, ...]):
    n = len(m.universe)
    parts = [len(perm)]
    for (_, arity), table in zip(m.signature.predicates, m.pred_tables):
        parts.append(_pull(table, perm, n, arity))
    return tuple(parts)


def canonical_form(m: GradedStructure) -> bytes:
    """A total isomorphism invariant: equal forms iff isomorphic.

    Minimizes the serialized interpretation tables over element
    orderings.  Elements are first grouped by an invariant profile and
    only orderings listing the profile groups in sorted profile order
    are tried; the grouping is itself invariant, so the minimum over
    this restricted set is still a complete invariant.  The winner is
    rendered with its tables as tuples of ints.
    """
    groups: dict = {}
    for i in range(len(m.universe)):
        groups.setdefault(_element_profile(m, i), []).append(i)
    ordered_groups = [groups[k] for k in sorted(groups.keys(), key=repr)]
    best = None
    for perm_parts in itertools.product(*(itertools.permutations(g) for g in ordered_groups)):
        perm = tuple(itertools.chain.from_iterable(perm_parts))
        key = _serialize_under(m, perm)
        if best is None or key < best:
            best = key
    return repr((best[0], *map(tuple, best[1:]))).encode("utf-8")


def restrict(m: GradedStructure, elements) -> GradedStructure:
    """Induced substructure on a subset of the universe, in universe order."""
    where = m.positions
    keep = set(elements)
    for e in keep:
        if e not in where:
            raise ValueError(f"element {e!r} not in universe")
    pos = sorted(where[e] for e in keep)
    n = len(m.universe)
    pred_tables = tuple(_pull(table, pos, n, arity)
                        for (_, arity), table in zip(m.signature.predicates, m.pred_tables))
    return _trusted(m.chain, m.signature, tuple(m.universe[i] for i in pos), pred_tables, m.name)


def substructures(m: GradedStructure):
    """``(subset, restrict(m, subset))`` for every nonempty proper subset
    of m's universe: by size, then in ``itertools.combinations`` order."""
    for size in range(1, len(m.universe)):
        for subset in itertools.combinations(m.universe, size):
            yield subset, restrict(m, subset)


def rename(m: GradedStructure, mapping: dict) -> GradedStructure:
    """Relabel elements; ids not in the mapping are kept.

    Only the ids that change are checked: the map must be injective on
    the universe, or ``ValueError`` "renaming is not injective", and each
    new id must be good, or ``ValueError`` names the first bad one in
    universe order.  The result is built without validating again (see
    ``GradedStructure``): it shares m's tables and its ``_derived``
    cache, and builds its own ``positions``.
    """
    full = {e: mapping.get(e, e) for e in m.universe}
    universe = tuple(full.values())
    if len(set(universe)) != len(universe):
        raise ValueError("renaming is not injective")
    _check_universe(tuple(new for old, new in full.items() if new != old))
    return _trusted(m.chain, m.signature, universe, m.pred_tables, m.name, m._derived)


def id_supply(base: str):
    """The ids base0, base1, ... in order, as an iterator for ``fresh_names``."""
    return map(base.__add__, map(str, itertools.count()))


def fresh_names(count: int, taken, supply) -> list[str]:
    """The next ``count`` ids of the iterator ``supply`` that are not in
    ``taken``.  Every id read from ``supply``, taken or not, is gone from
    it, so a supply kept across calls resumes where the last call
    stopped."""
    return list(itertools.islice(itertools.filterfalse(taken.__contains__, supply), count))


# The most subsets that ``age`` restricts to: a few seconds of work
# (k=3 on a 181-element graph, 988,441 subsets, took 4.7 s on one core).
_AGE_CAP = 10**6


def age(m: GradedStructure, k: int) -> set[bytes]:
    """Canonical forms of the induced substructures on at most k elements.

    For each size, the restricted tables of every subset of positions
    are collected first, and ``canonical_form`` runs once per distinct
    one: a form depends only on the tables, so the set of forms is the
    one that restricting to each subset gives.  More than ``_AGE_CAP``
    subsets raise ``BudgetError`` before any is visited.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(m.universe)
    top = min(k, n)
    total = sum(comb(n, s) for s in range(1, top + 1))
    if total > _AGE_CAP:
        raise BudgetError(f"age at k={k} would visit {total} subsets, over the cap of {_AGE_CAP}")
    preds = m.signature.predicates
    forms = set()
    for size in range(1, top + 1):
        tables = {tuple(_pull(table, pos, n, arity)
                        for (_, arity), table in zip(preds, m.pred_tables))
                  for pos in itertools.combinations(range(n), size)}
        ids = m.universe[:size]
        forms.update(canonical_form(_trusted(m.chain, m.signature, ids, t, m.name)) for t in tables)
    return forms


# --- file format ---


@cache
def _other_ranks(rank: int) -> bytes:
    """The ``bytes.translate`` table that sends ``rank`` to 0 and every
    other byte to 1."""
    return bytes(v != rank for v in range(256))


def structure_to_text(m: GradedStructure) -> str:
    """Serialize to the line format; deterministic byte-for-byte.

    The default rank is the most frequent value (ties to the smallest),
    and only non-default tuples get explicit lines.  Signatures other
    than the standard one-binary-predicate one are declared on a
    ``predicates`` line.  The ranks are counted by ``bytes.count``, and
    the non-default tuples are picked by ``itertools.compress`` with the
    table marked by ``translate``, so only they are visited in Python.
    """
    lines = [f"structure {m.name} chain={m.chain.name}"]
    if m.signature != SIG_LT:
        decl = " ".join(f"{p}:{a}" for p, a in m.signature.predicates)
        lines.append(f"predicates {decl}")
    lines.append("elements " + " ".join(m.universe) if m.universe else "elements")
    counts = {v: sum(table.count(v) for table in m.pred_tables) for v in range(m.chain.size)}
    default = min(counts, key=lambda v: (-counts[v], v)) if any(counts.values()) else 0
    lines.append(f"default {default}")
    for (pname, arity), table in zip(m.signature.predicates, m.pred_tables):
        cells = zip(itertools.product(m.universe, repeat=arity), table)
        for t, v in itertools.compress(cells, table.translate(_other_ranks(default))):
            lines.append(f"{pname} {' '.join(t)} = {v}")
    return "\n".join(lines) + "\n"


def _check_file_rank(chain: Chain, rank: int, line: str) -> None:
    if not 0 <= rank < chain.size:
        raise FileFormatError(f"rank {rank} out of range for chain of size {chain.size} "
                              f"in line {line!r}")


def structure_from_text(text: str, chain: Chain | None = None) -> GradedStructure:
    """Parse the structure line format.

    The chain is resolved from the header reference unless one is passed
    in directly; then the reference must be that chain's name.  Every
    malformed input raises ``FileFormatError``: a header that names
    another chain than the one passed, unknown line shapes, a bad
    predicate declaration, a repeated or malformed element id, a rank
    outside the chain, values for undeclared elements and a second value
    for the same tuple.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FileFormatError("empty structure file")
    # The chain reference is the rest of the line: a chain file's path may hold spaces.
    head = lines[0].split(maxsplit=2)
    if len(head) != 3 or head[0] != "structure" or not head[2].startswith("chain="):
        raise FileFormatError(f"bad structure header: {lines[0]!r}")
    name = head[1]
    ref = head[2][len("chain="):]
    if chain is None:
        chain = resolve_chain(ref)
    elif ref != chain.name:
        raise FileFormatError(f"structure header names chain {ref!r}, expected {chain.name!r}")
    idx = 1
    signature = SIG_LT
    if idx < len(lines) and lines[idx].split()[0] == "predicates":
        decls = lines[idx].split()[1:]
        preds = []
        for d in decls:
            pname, _, ar = d.rpartition(":")
            if not pname or not ar.isdigit():
                raise FileFormatError(f"bad predicate declaration: {d!r}")
            preds.append((pname, int(ar)))
        try:
            signature = Signature(predicates=tuple(preds))
        except ValueError as exc:
            raise FileFormatError(f"bad predicates line: {exc}") from None
        idx += 1
    if idx >= len(lines) or lines[idx].split()[:1] != ["elements"]:
        raise FileFormatError("missing elements line")
    elements = tuple(lines[idx].split()[1:])
    idx += 1
    if idx >= len(lines) or not lines[idx].startswith("default "):
        raise FileFormatError("missing default line")
    try:
        _, word = lines[idx].split()
        default = int(word)
    except ValueError:
        raise FileFormatError(f"bad default line: {lines[idx]!r}") from None
    _check_file_rank(chain, default, lines[idx])
    idx += 1
    # Each value line writes its rank straight into its predicate's table
    # at the row-major index of its ids' positions; the ids themselves are
    # checked by the constructor, after every value line.
    n = len(elements)
    where = {e: i for i, e in enumerate(elements)}
    tables = {pname: [default] * n ** arity for pname, arity in signature.predicates}
    arities = dict(signature.predicates)
    written = set()
    for ln in lines[idx:]:
        parts = ln.split()
        if len(parts) < 4 or parts[-2] != "=":
            raise FileFormatError(f"bad value line: {ln!r}")
        pname = parts[0]
        if pname not in arities:
            raise FileFormatError(f"unknown predicate {pname!r} in line {ln!r}")
        elems = parts[1:-2]
        if len(elems) != arities[pname]:
            raise FileFormatError(f"wrong arity for {pname!r} in line {ln!r}")
        flat = 0
        for e in elems:
            if e not in where:
                raise FileFormatError(f"undeclared element {e!r} in line {ln!r}")
            flat = flat * n + where[e]
        try:
            rank = int(parts[-1])
        except ValueError:
            raise FileFormatError(f"bad rank in line {ln!r}") from None
        _check_file_rank(chain, rank, ln)
        if (pname, flat) in written:
            raise FileFormatError(f"second value for the same tuple in line {ln!r}")
        written.add((pname, flat))
        tables[pname][flat] = rank
    try:
        return GradedStructure(chain, signature, elements, tuple(map(bytes, tables.values())),
                               name=name)
    except ValueError as exc:  # a repeated or malformed element id
        raise FileFormatError(f"bad elements line: {exc}") from None
