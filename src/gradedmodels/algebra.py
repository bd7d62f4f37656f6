"""Finite residuated chains of truth values.

A chain holds ranks 0..n-1 ordered as the lattice order, a commutative
monoid operation (``conj_table``) with neutral element ``one``, the
residuum derived from it (``res_table``), and the two distinguished
constants ``one`` (threshold of the designated filter) and ``zero`` (the
falsum constant, whose position in the chain is unconstrained).  Meet
and join are min and max of ranks.  A chain has at most ``MAX_RANKS``
ranks, so that a rank fits in a byte; every constructor and reader
checks the size before it builds a table.  Chains are immutable and safe
to share.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .errors import ChainTableError, FileFormatError

__all__ = [
    "Chain",
    "make_lukasiewicz",
    "make_godel",
    "boolean_chain",
    "resolve_chain",
    "chain_from_text",
    "chain_to_text",
]

# The most ranks a chain may have: a rank is one byte of a table.
MAX_RANKS = 256


def _check_size(size: int) -> None:
    """A chain has 2 to ``MAX_RANKS`` ranks, or ``ValueError``."""
    if size < 2:
        raise ValueError(f"chain size must be at least 2, got {size}")
    if size > MAX_RANKS:
        raise ValueError(f"chain size must be at most {MAX_RANKS}, got {size}")


@dataclass(frozen=True)
class Chain:
    """A validated finite residuated chain.

    ``conj_table[a][b]`` is the monoid operation; ``res_table[a][c]`` is
    the largest b with conj(a, b) <= c, which exists for every a, c once
    the table passes validation.  The constructor checks the size, 2 to
    ``MAX_RANKS``, before it reads the table, then the shape and ranks of
    the table, raising ``ValueError``, and then neutrality of ``one``,
    monotonicity, commutativity, associativity and existence of residua,
    raising ``ChainTableError`` naming the first failed axiom with a
    witness.
    """

    size: int
    conj_table: tuple[tuple[int, ...], ...]
    one: int
    zero: int
    name: str = field(default="chain", compare=False)
    res_table: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size, one, zero = self.size, self.one, self.zero
        _check_size(size)
        table = tuple(tuple(row) for row in self.conj_table)
        if len(table) != size or any(len(row) != size for row in table):
            raise ValueError(f"conjunction table must be {size}x{size}")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < size:
                    raise ValueError(f"table entry {v!r} is not a rank below {size}")
        if not 0 <= one < size:
            raise ValueError(f"one={one} is not a rank below {size}")
        if not 0 <= zero < size:
            raise ValueError(f"zero={zero} is not a rank below {size}")
        failure = _find_axiom_failure(size, table, one)
        if failure is not None:
            raise ChainTableError(*failure)
        object.__setattr__(self, "conj_table", table)
        object.__setattr__(self, "res_table", _build_res_table(size, table))

    def __eq__(self, other):
        # Structures mostly share one chain object: identity first.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.size, self.conj_table, self.one, self.zero)
                == (other.size, other.conj_table, other.one, other.zero))

    @property
    def bot(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.size - 1

    def ranks(self) -> range:
        return range(self.size)

    def in_filter(self, a: int) -> bool:
        if not isinstance(a, int) or not 0 <= a < self.size:
            raise ValueError(f"rank {a!r} out of range for chain of size {self.size}")
        return a >= self.one

    def __repr__(self) -> str:
        return f"Chain({self.name!r}, size={self.size}, one={self.one}, zero={self.zero})"


def _find_axiom_failure(size: int, table, one: int) -> tuple[str, tuple, str] | None:
    """Return (axiom, witness, detail) for the first failed axiom, or None.

    The axioms are scanned in a fixed order, neutrality, monotonicity,
    commutativity, associativity, residuation, so that reported failures
    are stable.
    """
    rng = range(size)
    for x in rng:
        if table[one][x] != x:
            return ("neutrality", (one, x), f"{one}*{x} = {table[one][x]}, expected {x}")
    for a in rng:
        for b in range(size - 1):
            if table[a][b] > table[a][b + 1]:
                return (
                    "monotonicity",
                    (a, b, b + 1),
                    f"{a}*{b} = {table[a][b]} > {table[a][b + 1]} = {a}*{b + 1}",
                )
            if table[b][a] > table[b + 1][a]:
                return (
                    "monotonicity",
                    (b, b + 1, a),
                    f"{b}*{a} = {table[b][a]} > {table[b + 1][a]} = {b + 1}*{a}",
                )
    for a in rng:
        for b in range(a + 1, size):
            if table[a][b] != table[b][a]:
                return ("commutativity", (a, b), f"{a}*{b} = {table[a][b]} != {table[b][a]} = {b}*{a}")
    # Row by row: (a*b)*c over every c is the row of a*b, and a*(b*c)
    # is row a picked at the entries of row b.
    pick = [itemgetter(*row) for row in table]
    for a in rng:
        row_a = table[a]
        for b in rng:
            row_ab = table[row_a[b]]
            if row_ab != pick[b](row_a):
                c = next(c for c in rng if row_ab[c] != row_a[table[b][c]])
                return (
                    "associativity",
                    (a, b, c),
                    f"({a}*{b})*{c} = {row_ab[c]} != {row_a[table[b][c]]} = {a}*({b}*{c})",
                )
    # With monotonicity in place, residua exist iff a*0 = 0 for every a.
    for a in rng:
        if table[a][0] != 0:
            return ("residuation", (a, 0), f"{a}*0 = {table[a][0]} != 0, so res({a}, c) is undefined for small c")
    return None


def _build_res_table(size: int, table) -> tuple[tuple[int, ...], ...]:
    """res(a, c), the largest b with a*b <= c, found by bisection: each row
    is nondecreasing and starts at a*0 = 0 once the axioms have passed."""
    return tuple(tuple(bisect_right(row, c) - 1 for c in range(size)) for row in table)


# A named chain is immutable and validating a wide one takes a fraction
# of a second, so the last few built of each family are kept and shared;
# the bound keeps a sweep over sizes from holding every n*n table.
_NAMED_CHAINS_KEPT = 8


@lru_cache(maxsize=_NAMED_CHAINS_KEPT)
def make_lukasiewicz(n: int) -> Chain:
    """Lukasiewicz chain on n ranks: a*b = max(0, a+b-(n-1)), one = top;
    a recently built one is shared."""
    _check_size(n)
    table = [[max(0, a + b - (n - 1)) for b in range(n)] for a in range(n)]
    name = "bool" if n == 2 else f"luk:{n}"
    return Chain(n, table, one=n - 1, zero=0, name=name)


@lru_cache(maxsize=_NAMED_CHAINS_KEPT)
def make_godel(n: int) -> Chain:
    """Godel chain on n ranks: a*b = min(a, b), one = top; a recently
    built one is shared."""
    _check_size(n)
    table = [[min(a, b) for b in range(n)] for a in range(n)]
    return Chain(n, table, one=n - 1, zero=0, name=f"godel:{n}")


def boolean_chain() -> Chain:
    """The two-element chain (ranks 0 and 1, one = 1)."""
    return make_lukasiewicz(2)


def chain_to_text(chain: Chain) -> str:
    lines = [f"chain {chain.name} {chain.size} one={chain.one} zero={chain.zero}"]
    for row in chain.conj_table:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def chain_from_text(text: str) -> Chain:
    """Parse the line-oriented chain format.

    Header ``chain <name> <n> one=<r> zero=<r>`` followed by n rows of n
    space-separated ranks.  Trailing garbage is rejected, and so is a
    size above ``MAX_RANKS``, before any row is read.
    """
    return Chain(**_chain_fields(text))


def _chain_fields(text: str) -> dict:
    """The ``Chain`` arguments read from the chain format, unvalidated
    but for a size above ``MAX_RANKS``, which raises ``FileFormatError``."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FileFormatError("empty chain file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "chain":
        raise FileFormatError(f"bad chain header: {lines[0]!r}")
    name = head[1]
    try:
        size = int(head[2])
    except ValueError:
        raise FileFormatError(f"bad chain size: {head[2]!r}") from None
    if size > MAX_RANKS:
        raise FileFormatError(f"chain size must be at most {MAX_RANKS}, got {size}")
    params = {}
    for part in head[3:]:
        key, _, val = part.partition("=")
        if key not in ("one", "zero") or not val:
            raise FileFormatError(f"bad chain header field: {part!r}")
        try:
            params[key] = int(val)
        except ValueError:
            raise FileFormatError(f"bad rank in header field: {part!r}") from None
    if set(params) != {"one", "zero"}:
        raise FileFormatError("chain header must set one= and zero= exactly once")
    if len(lines) != 1 + size:
        raise FileFormatError(f"expected {size} table rows, found {len(lines) - 1}")
    table = []
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != size:
            raise FileFormatError(f"table row {i} has {len(parts)} entries, expected {size}")
        try:
            table.append([int(p) for p in parts])
        except ValueError:
            raise FileFormatError(f"non-integer entry in table row {i}: {ln!r}") from None
    return {"size": size, "conj_table": table, "one": params["one"], "zero": params["zero"],
            "name": name}


def resolve_chain(ref: str) -> Chain:
    """Resolve a chain reference: ``bool``, ``luk:<n>``, ``godel:<n>``, or a file path.

    A named chain resolved again soon after is the same object; a file
    is read and validated on every call, since it may change."""
    if ref == "bool":
        return boolean_chain()
    for prefix, maker in (("luk:", make_lukasiewicz), ("godel:", make_godel)):
        if ref.startswith(prefix):
            try:
                n = int(ref[len(prefix):])
            except ValueError:
                raise FileFormatError(f"bad chain reference: {ref!r}") from None
            try:
                return maker(n)
            except ValueError as exc:  # fewer than 2 or more than MAX_RANKS ranks
                raise FileFormatError(str(exc)) from None
    if not os.path.exists(ref):
        raise FileFormatError(f"unknown chain reference and no such file: {ref!r}")
    with open(ref, "r", encoding="utf-8") as fh:
        fields = _chain_fields(fh.read())
    try:
        return Chain(**{**fields, "name": ref})
    except (ValueError, ChainTableError) as exc:
        raise FileFormatError(str(exc)) from None
