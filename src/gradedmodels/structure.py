"""Finite graded structures over a fixed chain.

A universe is an ordered tuple of opaque string ids; inside the library
an element is known by its position in that tuple.  Each symbol is
interpreted by one row-major table over positions: for a k-ary symbol
on n elements, entry ``i_1 * n**(k-1) + ... + i_(k-1) * n + i_k`` belongs
to the elements at positions (i_1, ..., i_k).  A predicate's table
holds ranks and a function symbol's table holds the positions of the
results.  String ids matter only at the boundary: ``make_structure``,
the file format, ``value`` and morphism mappings.  Structures are
immutable, hashable values; renaming is explicit.  All operations here
are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

from .algebra import Chain
from .errors import FileFormatError, NotAChainError
from .logic import SIG_LT, Signature

__all__ = [
    "GradedStructure",
    "Morphism",
    "make_structure",
    "binary_structure",
    "is_substructure",
    "is_embedding",
    "find_embeddings",
    "extend_embedding",
    "is_isomorphic",
    "canonical_form",
    "generated_substructure",
    "restrict",
    "rename",
    "age",
    "union_of_chain",
    "free_union",
    "structure_from_text",
    "structure_to_text",
]


def _check_element_id(eid: str) -> str:
    # split() drops every whitespace character, so this also rejects "".
    if not isinstance(eid, str) or eid.split() != [eid] or "=" in eid:
        raise ValueError(f"bad element id {eid!r}")
    return eid


def _check_table(table, length: int, bound: int, what: str) -> None:
    """A table is a tuple of ``length`` ints, each in 0..bound-1."""
    if type(table) is not tuple or len(table) != length:
        raise ValueError(f"interpretation of {what} is not a total table of {length} entries")
    if table and not (all(map(isinstance, table, itertools.repeat(int)))
                      and min(table) >= 0 and max(table) < bound):
        raise ValueError(f"interpretation of {what} has an entry outside 0..{bound - 1}")


def _flat(coords, n: int) -> list[int]:
    """Row-major indices, in a table over n elements, of every tuple in
    the product of the position lists ``coords``, in product order."""
    flat = [0]
    for pos in coords:
        flat = [f * n + p for f in flat for p in pos]
    return flat


def _pull(table, pos, n: int, arity: int) -> tuple:
    """The table over the elements at ``pos`` (in that order) of a table over n elements."""
    return tuple(map(table.__getitem__, _flat([pos] * arity, n)))


@dataclass(frozen=True)
class GradedStructure:
    """A universe of element ids and one row-major table per symbol.

    ``pred_tables`` follows ``signature.predicates`` and holds ranks of
    ``chain``; ``func_tables`` follows ``signature.functions`` and holds
    positions in ``universe``.  The constructor is the one place that
    validates, so code reading the tables checks nothing again.
    Equality and hashing ignore ``name``.
    """

    chain: Chain
    signature: Signature
    universe: tuple[str, ...]
    pred_tables: tuple[tuple[int, ...], ...]
    func_tables: tuple[tuple[int, ...], ...] = ()
    name: str = field(default="s", compare=False)

    def __post_init__(self):
        if not (type(self.universe) is type(self.pred_tables) is type(self.func_tables) is tuple):
            raise ValueError("the universe and the tables must be tuples")
        seen = set()
        for eid in self.universe:
            _check_element_id(eid)
            if eid in seen:
                raise ValueError(f"duplicate element id {eid!r}")
            seen.add(eid)
        n = len(self.universe)
        preds, funcs = self.signature.predicates, self.signature.functions
        if len(self.pred_tables) != len(preds) or len(self.func_tables) != len(funcs):
            raise ValueError("expected one table per predicate and per function symbol")
        for (pname, arity), table in zip(preds, self.pred_tables):
            _check_table(table, n ** arity, self.chain.size, f"predicate {pname!r}")
        for (fname, arity), table in zip(funcs, self.func_tables):
            _check_table(table, n ** arity, n, f"function {fname!r}")

    def __len__(self) -> int:
        return len(self.universe)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Element id -> position in the universe."""
        return {e: i for i, e in enumerate(self.universe)}

    def value(self, pred: str, *elems: str) -> int:
        """The rank of ``pred`` at the elements with the given ids."""
        for (name, arity), table in zip(self.signature.predicates, self.pred_tables):
            if name == pred and arity == len(elems):
                return table[_flat([[self.positions[e]] for e in elems], len(self.universe))[0]]
        raise KeyError((pred, elems))

    def __repr__(self) -> str:
        return f"GradedStructure({self.name!r}, |M|={len(self.universe)})"


@dataclass
class Morphism:
    """A universe map from source into target, claimed to be an embedding."""

    source: GradedStructure
    target: GradedStructure
    mapping: dict

    def __call__(self, eid: str) -> str:
        return self.mapping[eid]


def make_structure(chain, universe, values=None, *, signature=SIG_LT, default=None,
                   functions=None, name="s") -> GradedStructure:
    """Build a structure from sparse, id-keyed values.

    ``values`` maps (pred_name, element_tuple) to ranks; tuples not
    listed get ``default`` (required when anything is left out).
    ``functions`` maps each function symbol to a dict from element
    tuples to elements.
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
    where = {e: i for i, e in enumerate(universe)}
    func_tables = []
    for fname, arity in signature.functions:
        given = (functions or {}).get(fname)
        if given is None:
            raise ValueError(f"missing function table for {fname!r}")
        given = {tuple(t): v for t, v in given.items()}
        if len(given) != len(universe) ** arity:
            raise ValueError(f"interpretation of {fname!r} is not total")
        try:
            func_tables.append(tuple(where[given[t]] for t in itertools.product(universe, repeat=arity)))
        except KeyError:
            raise ValueError(f"function {fname!r} is not a map into the universe") from None
    return GradedStructure(chain, signature, universe, tuple(pred_tables), tuple(func_tables),
                           name=name)


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
    for (_, arity), fm, fn in zip(m.signature.functions, m.func_tables, n.func_tables):
        if tuple(pos[v] for v in fm) != _pull(fn, pos, size, arity):
            return False
    return True


def is_substructure(m: GradedStructure, n: GradedStructure) -> bool:
    """Universe containment with equal function values and atomic values.

    Equality of atomic values extends to every quantifier-free formula
    by compositionality, so checking atoms is sufficient.
    """
    _require_compatible(m, n)
    where = n.positions
    if any(e not in where for e in m.universe):
        return False
    return _preserves(m, n, [where[e] for e in m.universe])


def is_embedding(mor: Morphism) -> bool:
    m, n, f = mor.source, mor.target, mor.mapping
    _require_compatible(m, n)
    if set(f) != set(m.universe):
        return False
    images = [f[e] for e in m.universe]
    where = n.positions
    if len(set(images)) != len(images) or any(v not in where for v in images):
        return False
    return _preserves(m, n, [where[v] for v in images])


def _consistent_extension(m, n, seed: dict, src: int, dst: int) -> bool:
    """Whether seed plus src -> dst keeps the atoms that involve src.

    ``seed`` maps positions of m to positions of n; atoms among its own
    elements count as checked.  Each tuple over dom(seed) + src that
    contains src is visited once, keyed by the place of its first src.
    """
    old = list(seed.items())
    new = [(src, dst)]
    every = old + new
    nm, nn = len(m.universe), len(n.universe)
    for (_, arity), tm, tn in zip(m.signature.predicates, m.pred_tables, n.pred_tables):
        for first in range(arity):
            for t in itertools.product(*([old] * first + [new] + [every] * (arity - first - 1))):
                fm = fn = 0
                for s, d in t:
                    fm = fm * nm + s
                    fn = fn * nn + d
                if tm[fm] != tn[fn]:
                    return False
    return True


def _embedding_search(m, n, seed, order, limit, results):
    """Backtracking over injective position maps in deterministic order."""
    if len(seed) == len(order):
        # Each atom was checked when the last of its elements was placed.
        if not m.signature.functions or _preserves(m, n, [seed[i] for i in range(len(order))]):
            mapping = {m.universe[s]: n.universe[d] for s, d in seed.items()}
            results.append(Morphism(m, n, mapping))
        return limit is None or len(results) < limit
    src = order[len(seed)]
    used = set(seed.values())
    for dst in range(len(n.universe)):
        if dst in used or not _consistent_extension(m, n, seed, src, dst):
            continue
        seed[src] = dst
        more = _embedding_search(m, n, seed, order, limit, results)
        del seed[src]
        if not more:
            return False
    return True


def find_embeddings(m: GradedStructure, n: GradedStructure, limit: int | None = None) -> list[Morphism]:
    """All embeddings of m into n, complete up to ``limit`` results.

    Candidates are explored in universe order on both sides, so the
    result order is stable.
    """
    _require_compatible(m, n)
    if len(m.universe) > len(n.universe):
        return []
    results: list[Morphism] = []
    _embedding_search(m, n, {}, range(len(m.universe)), limit, results)
    return results


def extend_embedding(m: GradedStructure, n: GradedStructure, fixed: dict,
                     limit: int | None = 1) -> list[Morphism]:
    """Embeddings of m into n extending the partial map ``fixed``."""
    _require_compatible(m, n)
    if len(m.universe) > len(n.universe):
        return []
    seed: dict[int, int] = {}
    for src, dst in fixed.items():
        s, d = m.positions.get(src), n.positions.get(dst)
        if s is None or d is None or d in seed.values() or not _consistent_extension(m, n, seed, s, d):
            return []
        seed[s] = d
    order = list(seed) + [i for i in range(len(m.universe)) if i not in seed]
    results: list[Morphism] = []
    _embedding_search(m, n, seed, order, limit, results)
    return results


def is_isomorphic(m: GradedStructure, n: GradedStructure) -> Morphism | None:
    """An onto embedding between m and n, or None."""
    if len(m.universe) != len(n.universe):
        return None
    found = find_embeddings(m, n, limit=1)
    return found[0] if found else None


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
    for (_, arity), table in zip(m.signature.functions, m.func_tables):
        prof.append(1 if table[_flat([[i]] * arity, n)[0]] == i else 0)
        prof.append(table.count(i))
    return tuple(prof)


def _serialize_under(m: GradedStructure, perm: tuple[int, ...]):
    n = len(m.universe)
    parts = [len(perm)]
    for (_, arity), table in zip(m.signature.predicates, m.pred_tables):
        parts.append(_pull(table, perm, n, arity))
    if m.signature.functions:
        place = {p: j for j, p in enumerate(perm)}
        for (_, arity), table in zip(m.signature.functions, m.func_tables):
            parts.append(tuple(place[v] for v in _pull(table, perm, n, arity)))
    return tuple(parts)


def canonical_form(m: GradedStructure) -> bytes:
    """A total isomorphism invariant: equal forms iff isomorphic.

    Minimizes the serialized interpretation tables over element
    orderings.  Elements are first grouped by an invariant profile and
    only orderings listing the profile groups in sorted profile order
    are tried; the grouping is itself invariant, so the minimum over
    this restricted set is still a complete invariant.
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
    return repr(best).encode("utf-8")


def generated_substructure(m: GradedStructure, generators) -> GradedStructure:
    """Smallest substructure containing the generators, closed under functions."""
    members = set()
    for g in generators:
        if g not in m.positions:
            raise ValueError(f"generator {g!r} not in universe")
        members.add(m.positions[g])
    changed = True
    while changed:
        changed = False
        for (_, arity), table in zip(m.signature.functions, m.func_tables):
            for v in _pull(table, sorted(members), len(m.universe), arity):
                if v not in members:
                    members.add(v)
                    changed = True
    return restrict(m, [m.universe[i] for i in members])


def restrict(m: GradedStructure, elements) -> GradedStructure:
    """Induced substructure on a subset closed under functions."""
    where = m.positions
    keep = set(elements)
    for e in keep:
        if e not in where:
            raise ValueError(f"element {e!r} not in universe")
    pos = sorted(where[e] for e in keep)
    n = len(m.universe)
    pred_tables = tuple(_pull(table, pos, n, arity)
                        for (_, arity), table in zip(m.signature.predicates, m.pred_tables))
    place = {p: j for j, p in enumerate(pos)}
    func_tables = []
    for (fname, arity), table in zip(m.signature.functions, m.func_tables):
        values = _pull(table, pos, n, arity)
        outside = [m.universe[v] for v in values if v not in place]
        if outside:
            raise ValueError(f"subset not closed under {fname!r}: {outside[0]} is left out")
        func_tables.append(tuple(place[v] for v in values))
    return GradedStructure(m.chain, m.signature, tuple(m.universe[i] for i in pos),
                           pred_tables, tuple(func_tables), name=m.name)


def rename(m: GradedStructure, mapping: dict) -> GradedStructure:
    """Relabel elements; ids not in the mapping are kept.  The tables are shared."""
    full = {e: mapping.get(e, e) for e in m.universe}
    if len(set(full.values())) != len(full):
        raise ValueError("renaming is not injective")
    return replace(m, universe=tuple(full.values()))


def fresh_names(base: str, count: int, taken) -> list[str]:
    """Deterministic ids base0, base1, ... skipping anything in taken."""
    taken = set(taken)
    out = []
    i = 0
    while len(out) < count:
        cand = f"{base}{i}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return out


def age(m: GradedStructure, k: int) -> set[bytes]:
    """Canonical forms of all substructures generated by at most k elements."""
    if k < 1:
        raise ValueError("k must be at least 1")
    forms = set()
    for size in range(1, min(k, len(m.universe)) + 1):
        for subset in itertools.combinations(m.universe, size):
            forms.add(canonical_form(generated_substructure(m, subset)))
    return forms


def union_of_chain(structures) -> GradedStructure:
    """Union of a verified substructure chain (its last element)."""
    structures = list(structures)
    if not structures:
        raise ValueError("empty chain of structures")
    for i in range(len(structures) - 1):
        if not is_substructure(structures[i], structures[i + 1]):
            raise NotAChainError(i)
    return structures[-1]


def free_union(m1: GradedStructure, m2: GradedStructure, cross_value: int) -> GradedStructure:
    """Disjoint union with every mixed tuple valued ``cross_value``.

    Only defined for relational signatures; m2 is renamed away from m1
    if their universes overlap.
    """
    _require_compatible(m1, m2)
    if m1.signature.functions:
        raise ValueError("free union is not defined for signatures with functions")
    m1.chain.check_rank(cross_value)
    overlap = set(m1.universe) & set(m2.universe)
    if overlap:
        taken = set(m1.universe) | set(m2.universe)
        news = fresh_names("u", len(overlap), taken)
        m2 = rename(m2, dict(zip(sorted(overlap, key=m2.positions.get), news)))
    universe = m1.universe + m2.universe
    n1, size = len(m1.universe), len(universe)
    pred_tables = []
    for (_, arity), t1, t2 in zip(m1.signature.predicates, m1.pred_tables, m2.pred_tables):
        table = [cross_value] * size ** arity
        for part, t in ((range(n1), t1), (range(n1, size), t2)):
            for f, v in zip(_flat([part] * arity, size), t):
                table[f] = v
        pred_tables.append(tuple(table))
    return GradedStructure(m1.chain, m1.signature, universe, tuple(pred_tables), name=m1.name)


# --- file format ---


def structure_to_text(m: GradedStructure, chain_ref: str | None = None) -> str:
    """Serialize to the line format; deterministic byte-for-byte.

    The default rank is the most frequent value (ties to the smallest),
    and only non-default tuples get explicit lines.  Signatures other
    than the standard one-binary-predicate one are declared on a
    ``predicates`` line; function symbols are not supported by the
    format.
    """
    if m.signature.functions:
        raise FileFormatError("structure files do not support function symbols")
    ref = chain_ref if chain_ref is not None else m.chain.name
    lines = [f"structure {m.name} chain={ref}"]
    if m.signature != SIG_LT:
        decl = " ".join(f"{p}:{a}" for p, a in m.signature.predicates)
        lines.append(f"predicates {decl}")
    lines.append("elements " + " ".join(m.universe) if m.universe else "elements")
    counts: dict[int, int] = {}
    for table in m.pred_tables:
        for v in table:
            counts[v] = counts.get(v, 0) + 1
    default = min(sorted(counts, key=lambda v: (-counts[v], v))[:1] or [0])
    lines.append(f"default {default}")
    for (pname, arity), table in zip(m.signature.predicates, m.pred_tables):
        for t, v in zip(itertools.product(m.universe, repeat=arity), table):
            if v != default:
                lines.append(f"{pname} {' '.join(t)} = {v}")
    return "\n".join(lines) + "\n"


def structure_from_text(text: str, chain: Chain | None = None,
                        resolver=None) -> GradedStructure:
    """Parse the structure line format.

    The chain is taken from the header reference via ``resolver``
    unless one is passed in directly.  Unknown line shapes and values
    for undeclared elements are rejected.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FileFormatError("empty structure file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "structure" or not head[2].startswith("chain="):
        raise FileFormatError(f"bad structure header: {lines[0]!r}")
    name = head[1]
    ref = head[2][len("chain="):]
    if chain is None:
        if resolver is None:
            from .algebra import resolve_chain as resolver  # noqa: PLC0415
        chain = resolver(ref)
    idx = 1
    signature = SIG_LT
    if idx < len(lines) and lines[idx].startswith("predicates"):
        decls = lines[idx].split()[1:]
        preds = []
        for d in decls:
            pname, _, ar = d.rpartition(":")
            if not pname or not ar.isdigit():
                raise FileFormatError(f"bad predicate declaration: {d!r}")
            preds.append((pname, int(ar)))
        signature = Signature(predicates=tuple(preds))
        idx += 1
    if idx >= len(lines) or lines[idx].split()[:1] != ["elements"]:
        raise FileFormatError("missing elements line")
    elements = tuple(lines[idx].split()[1:])
    idx += 1
    if idx >= len(lines) or not lines[idx].startswith("default "):
        raise FileFormatError("missing default line")
    try:
        default = int(lines[idx].split()[1])
    except (IndexError, ValueError):
        raise FileFormatError(f"bad default line: {lines[idx]!r}") from None
    chain.check_rank(default)
    idx += 1
    values = {}
    known = set(elements)
    arities = dict(signature.predicates)
    for ln in lines[idx:]:
        parts = ln.split()
        if len(parts) < 4 or parts[-2] != "=":
            raise FileFormatError(f"bad value line: {ln!r}")
        pname = parts[0]
        if pname not in arities:
            raise FileFormatError(f"unknown predicate {pname!r} in line {ln!r}")
        elems = tuple(parts[1:-2])
        if len(elems) != arities[pname]:
            raise FileFormatError(f"wrong arity for {pname!r} in line {ln!r}")
        for e in elems:
            if e not in known:
                raise FileFormatError(f"undeclared element {e!r} in line {ln!r}")
        try:
            rank = int(parts[-1])
        except ValueError:
            raise FileFormatError(f"bad rank in line {ln!r}") from None
        chain.check_rank(rank)
        values[(pname, elems)] = rank
    return make_structure(chain, elements, values, signature=signature,
                          default=default, name=name)
