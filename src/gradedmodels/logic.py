"""Signatures, graded first-order formulas, and their evaluation.

Connective tokens in the concrete syntax: ``&`` is lattice meet, ``|``
is join, ``*`` is the monoidal conjunction, ``->`` is the residuum.
``a < b`` is infix sugar for the designated binary predicate named
``<``.  Truth constants are ``0``, ``1``, ``bot``, ``top``.

``evaluate`` compiles a formula once per call into closures over a list
of element positions, one slot per assigned variable and one per
quantifier.  A quantifier's body is compiled as a vector over the bound
variable: a line of its values at every position at once, read as
strided slices of the predicate tables and combined through the chain's
operation tables, then folded to its least (``forall``) or greatest
(``exists``) rank.  A line is ``bytes``, one rank per byte, as a table
is.  A connective is one ``translate``, or for two lines over a chain
of at most 16 ranks one big-int sum L * k + R translated through the
k×k table, and a fold asks the line for each rank in turn, from the
bottom for ``forall`` and from the top for ``exists``, and stops at the
first one present, asking for 16 ranks at most before it takes the
line's ``min`` or ``max``.  The module reads structures
only through their attributes (``chain``, ``signature``, ``universe``,
``pred_tables``, ``positions``) and imports nothing else from the
package but ``errors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem, mul

from .errors import FormulaParseError

__all__ = [
    "Signature",
    "SIG_LT",
    "Var",
    "Atom",
    "Const",
    "BinOp",
    "Quant",
    "parse_formula",
    "format_formula",
    "free_vars",
    "evaluate",
]


@dataclass(frozen=True)
class Signature:
    """Predicate symbols with arities; names are unique.  Relational only."""

    predicates: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.predicates]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol name in signature")
        for name, ar in self.predicates:
            if ar < 1:
                raise ValueError(f"predicate {name!r} must have arity >= 1")

    def __eq__(self, other):
        # Structures mostly share one signature object: identity first.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.predicates == other.predicates

    def pred_arity(self, name: str) -> int | None:
        for n, ar in self.predicates:
            if n == name:
                return ar
        return None


# The working signature of the example classes: one binary predicate.
SIG_LT = Signature(predicates=(("<", 2),))


# --- formulas ---


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple


@dataclass(frozen=True)
class Const:
    kind: str  # "0", "1", "bot", "top"


@dataclass(frozen=True)
class BinOp:
    op: str  # "&", "|", "*", "->"
    left: object
    right: object


@dataclass(frozen=True)
class Quant:
    kind: str  # "forall", "exists"
    var: str
    body: object


def free_vars(formula) -> frozenset[str]:
    if isinstance(formula, Atom):
        return frozenset(t.name for t in formula.args)
    if isinstance(formula, Const):
        return frozenset()
    if isinstance(formula, BinOp):
        return free_vars(formula.left) | free_vars(formula.right)
    if isinstance(formula, Quant):
        return free_vars(formula.body) - {formula.var}
    raise TypeError(f"not a formula: {formula!r}")


# --- lexer ---

@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "sym", "const", "end"
    text: str
    column: int  # 1-based


def _lex(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if text.startswith("->", i):
            tokens.append(_Token("sym", "->", col))
            i += 2
            continue
        if ch in "(),<&|*":
            tokens.append(_Token("sym", ch, col))
            i += 1
            continue
        if ch in "01":
            tokens.append(_Token("const", ch, col))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in ("bot", "top"):
                tokens.append(_Token("const", word, col))
            else:
                tokens.append(_Token("name", word, col))
            i = j
            continue
        raise FormulaParseError(f"unexpected character {ch!r}", col)
    tokens.append(_Token("end", "", n + 1))
    return tokens


# The left-associative connectives by binding, loosest first.
_LEFT_CONNECTIVES = ("|", "&", "*")


class _Parser:
    """Recursive-descent parser for the formula grammar.

    formula := quant | impl
    quant   := ("forall" | "exists") var formula
    impl    := disj ["->" impl]
    disj    := conj {"|" conj}
    conj    := strong {"&" strong}
    strong  := atomf {"*" atomf}
    atomf   := "(" formula ")" | const | pred "(" terms ")" | term "<" term

    ``connective`` parses disj, conj and strong.
    """

    def __init__(self, tokens: list[_Token], signature: Signature):
        self.tokens = tokens
        self.pos = 0
        self.sig = signature

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, sym: str) -> bool:
        """Whether the next token is the symbol ``sym``."""
        tok = self.peek()
        return tok.kind == "sym" and tok.text == sym

    def expect_sym(self, text: str) -> _Token:
        if not self.at(text):
            tok = self.peek()
            what = "end of input" if tok.kind == "end" else repr(tok.text)
            if text == ")":
                raise FormulaParseError(f"unbalanced parentheses: expected ')', found {what}", tok.column)
            raise FormulaParseError(f"expected {text!r}, found {what}", tok.column)
        return self.take()

    def parse(self):
        f = self.formula()
        tok = self.peek()
        if tok.kind != "end":
            raise FormulaParseError(f"trailing input starting at {tok.text!r}", tok.column)
        return f

    def formula(self):
        tok = self.peek()
        if tok.kind == "name" and tok.text in ("forall", "exists"):
            self.take()
            var = self.peek()
            if var.kind != "name" or self.sig.pred_arity(var.text) is not None:
                raise FormulaParseError("expected a variable after quantifier", var.column)
            self.take()
            return Quant(tok.text, var.text, self.formula())
        return self.impl()

    def impl(self):
        left = self.connective(0)
        if self.at("->"):
            self.take()
            return BinOp("->", left, self.impl())
        return left

    def connective(self, level: int):
        """A left-associated chain of ``_LEFT_CONNECTIVES[level]`` over
        the next level; past the last level, an ``atomf``."""
        if level == len(_LEFT_CONNECTIVES):
            return self.atomf()
        op = _LEFT_CONNECTIVES[level]
        f = self.connective(level + 1)
        while self.at(op):
            self.take()
            f = BinOp(op, f, self.connective(level + 1))
        return f

    def atomf(self):
        tok = self.peek()
        if self.at("("):
            self.take()
            f = self.formula()
            self.expect_sym(")")
            return f
        if tok.kind == "const":
            self.take()
            return Const(tok.text)
        if tok.kind == "name":
            arity = self.sig.pred_arity(tok.text)
            if arity is not None:
                self.take()
                args = self.arg_list(tok.text, arity, tok.column)
                return Atom(tok.text, args)
            left = self.term()
            lt = self.peek()
            if self.at("<"):
                self.take()
                right = self.term()
                if self.sig.pred_arity("<") != 2:
                    raise FormulaParseError("no binary predicate '<' in signature", lt.column)
                return Atom("<", (left, right))
            raise FormulaParseError("expected '<' after a term", lt.column)
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise FormulaParseError(f"expected a formula, found {what}", tok.column)

    def arg_list(self, symbol: str, arity: int, at: int) -> tuple:
        self.expect_sym("(")
        args = [self.term()]
        while self.at(","):
            self.take()
            args.append(self.term())
        self.expect_sym(")")
        if len(args) != arity:
            raise FormulaParseError(f"{symbol!r} takes {arity} arguments, got {len(args)}", at)
        return tuple(args)

    def term(self):
        tok = self.peek()
        if tok.kind != "name":
            what = "end of input" if tok.kind == "end" else repr(tok.text)
            raise FormulaParseError(f"expected a term, found {what}", tok.column)
        if tok.text in ("forall", "exists"):
            raise FormulaParseError(f"{tok.text!r} is a keyword, not a term", tok.column)
        self.take()
        if self.sig.pred_arity(tok.text) is not None:
            raise FormulaParseError(f"predicate {tok.text!r} used as a term", tok.column)
        return Var(tok.text)


def parse_formula(text: str, signature: Signature = SIG_LT):
    """Parse concrete syntax into an arity-checked formula."""
    return _Parser(_lex(text), signature).parse()


def format_formula(formula) -> str:
    """Print a formula so that parsing the result rebuilds it exactly."""
    if isinstance(formula, Atom):
        if formula.pred == "<":
            return f"({formula.args[0].name} < {formula.args[1].name})"
        return f"{formula.pred}({', '.join(a.name for a in formula.args)})"
    if isinstance(formula, Const):
        return formula.kind
    if isinstance(formula, BinOp):
        # Quantifiers bind the longest formula to their right, so they
        # need parentheses when used as an operand.
        left = format_formula(formula.left)
        if isinstance(formula.left, Quant):
            left = f"({left})"
        right = format_formula(formula.right)
        if isinstance(formula.right, Quant):
            right = f"({right})"
        return f"({left} {formula.op} {right})"
    if isinstance(formula, Quant):
        return f"{formula.kind} {formula.var} {format_formula(formula.body)}"
    raise TypeError(f"not a formula: {formula!r}")


def evaluate(structure, formula, assignment=None) -> int:
    """Compute the rank of a formula in a structure under an assignment.

    The assignment maps variables to element ids, all of which must be
    in the universe, and must bind every free variable.  Quantifiers
    range over the whole universe; on an empty universe ``forall``
    yields top and ``exists`` yields bot.

    The formula is compiled once per call into closures over one list
    of positions: a slot per assigned variable, then a slot per
    quantifier, so a variable bound twice gets two slots.  Each
    quantifier's body is compiled as a line of its values at every
    position of the bound variable, which the quantifier folds to its
    least or greatest rank; nothing longer than the universe is built.
    A line is ``bytes``, one rank per byte, each connective over it is a
    few calls in C, and the fold is the first rank, from the bottom or
    the top, that the line contains (see ``_Compiler``).
    Every atom is checked against the signature while compiling: an
    uninterpreted symbol or a wrong argument count raises
    ``ValueError`` whatever the universe size.  So does a constant,
    connective or quantifier of unknown kind in a hand-built formula.
    """
    positions = structure.positions
    env = []
    scope = {}
    for var, eid in (assignment or {}).items():
        if eid not in positions:
            raise ValueError(f"unknown element {eid!r} assigned to {var!r}")
        scope[var] = len(env)
        env.append(positions[eid])
    missing = free_vars(formula) - set(scope)
    if missing:
        raise ValueError(f"unbound free variables: {sorted(missing)}")
    compiler = _Compiler(structure, len(env))
    run = compiler.scalar(formula, scope)
    env += [0] * (compiler.slots - len(env))
    return run(env)


def _index(weights: dict):
    """The closure ``env -> sum(env[s] * w)`` over the slot-weight pairs
    of ``weights``: spelled out for one or two slots, as every unary and
    binary atom has, and a sum over ``map`` calls otherwise."""
    pairs = tuple(weights.items())
    if len(pairs) == 1:
        (a, wa), = pairs
        return lambda env: env[a] * wa
    if len(pairs) == 2:
        (a, wa), (b, wb) = pairs
        return lambda env: env[a] * wa + env[b] * wb
    slots, ws = tuple(weights), tuple(weights.values())
    return lambda env: sum(map(mul, map(env.__getitem__, slots), ws))


# The most ranks a chain may have for two lines to be combined by one
# big-int sum: k * k lane values must fit in a byte (see ``_Compiler``).
_LANE_RANKS = 16

# The most ranks a quantifier's fold tests for presence, one search in C
# each, before it reads the whole line once for its min or max instead.
_FOLD_PROBES = 16


class _Compiler:
    """Turns formulas over one structure into closures over ``env``.

    ``scalar`` gives a closure returning the formula's rank.  ``vector``
    gives, for a variable in scope, a closure returning the line of the
    ranks at each position of that variable, the other slots fixed: an
    atom is a strided slice of its table, a part without the variable is
    computed once and repeated, a connective with one side free of the
    variable sends the other side's line through a row or a column of its
    operation table, a connective of two lines combines them position by
    position, and a nested quantifier runs at each position.

    A line is ``bytes``, one rank per byte, so each step is a call in C:
    a repeat is ``bytes((v,)) * n``, a connective with a scalar side is
    one ``translate`` of the line through that rank's row or column of
    the operation table, padded to 256 entries, and a nested quantifier
    fills a ``bytearray``.  Over a chain of at most ``_LANE_RANKS`` ranks,
    lines L and R of a k-rank chain become
    ``(int(L) * k + int(R)).to_bytes(n)`` translated through the k×k
    table read row by row, where no lane carries since
    (k - 1) * k + (k - 1) < 256; over a wider chain they are paired in a
    ``map`` through the table.  A quantifier folds a line by rank
    presence: ``forall`` returns the first rank upward from bot that the
    line contains, ``exists`` the first downward from top, one ``in``
    test in C per rank, for the first ``_FOLD_PROBES`` ranks; on a wider
    chain, failing them, it takes ``min`` or ``max`` of the line, which
    reads every byte once instead of testing up to 256 ranks.  An empty
    line folds to top for ``forall`` and to bot for ``exists``.  An
    atom's table index is a closure of ``_index``.
    """

    def __init__(self, structure, slots: int):
        chain = structure.chain
        k = chain.size
        self.n = len(structure.universe)
        self.slots = slots
        self.tables = {name: (arity, table) for (name, arity), table
                       in zip(structure.signature.predicates, structure.pred_tables)}
        self.consts = {"0": chain.zero, "1": chain.one, "bot": chain.bot, "top": chain.top}
        # ops[op][a][b] is the rank of ``a op b``.
        self.ops = {
            "&": tuple(tuple(range(a)) + (a,) * (k - a) for a in range(k)),
            "|": tuple((a,) * a + tuple(range(a, k)) for a in range(k)),
            "*": chain.conj_table,
            "->": chain.res_table,
        }

    def atom(self, f, scope):
        """The table of f's predicate, and f's flat index into it as
        (slot, weight) pairs, one per distinct slot among the arguments."""
        if f.pred not in self.tables:
            raise ValueError(f"symbol {f.pred!r} not interpreted in structure")
        arity, table = self.tables[f.pred]
        if len(f.args) != arity:
            raise ValueError(f"{f.pred!r} takes {arity} arguments, got {len(f.args)}")
        weights = {}
        for i, a in enumerate(f.args):
            slot = scope[a.name]
            weights[slot] = weights.get(slot, 0) + self.n ** (arity - 1 - i)
        return table, weights

    def op(self, f):
        """The operation table of f's connective."""
        if f.op not in self.ops:
            raise ValueError(f"unknown connective {f.op!r}")
        return self.ops[f.op]

    def scalar(self, f, scope):
        if isinstance(f, Atom):
            table, weights = self.atom(f, scope)
            index = _index(weights)
            return lambda env: table[index(env)]
        if isinstance(f, Const):
            if f.kind not in self.consts:
                raise ValueError(f"unknown constant {f.kind!r}")
            value = self.consts[f.kind]
            return lambda env: value
        if isinstance(f, BinOp):
            tab = self.op(f)
            left, right = self.scalar(f.left, scope), self.scalar(f.right, scope)
            return lambda env: tab[left(env)][right(env)]
        if isinstance(f, Quant):
            if f.kind not in ("forall", "exists"):
                raise ValueError(f"unknown quantifier {f.kind!r}")
            slot = self.slots
            self.slots += 1
            body = self.vector(f.body, {**scope, f.var: slot}, f.var)
            top, bot = self.consts["top"], self.consts["bot"]
            # The least or greatest rank present: a search in C per rank
            # for the first ranks, then one pass over the line.
            probes, fold, empty = ((range(top + 1)[:_FOLD_PROBES], min, top)
                                   if f.kind == "forall"
                                   else (range(top, -1, -1)[:_FOLD_PROBES], max, bot))

            def quantify(env):
                line = body(env)
                found = next(filter(line.__contains__, probes), None)
                return fold(line, default=empty) if found is None else found
            return quantify
        raise TypeError(f"not a formula: {f!r}")

    def vector(self, f, scope, var):
        if var not in free_vars(f):
            return self.repeated(self.scalar(f, scope))
        slot = scope[var]
        if isinstance(f, Atom):
            table, weights = self.atom(f, scope)
            stride = weights.pop(slot)
            span = stride * (self.n - 1) + 1
            index = _index(weights)

            def strided(env):
                off = index(env)
                return table[off:off + span:stride]
            return strided
        if isinstance(f, BinOp):
            tab = self.op(f)
            if var not in free_vars(f.left):
                left, right = self.scalar(f.left, scope), self.vector(f.right, scope, var)
                return self.through(tab, left, right)
            if var not in free_vars(f.right):
                left, right = self.vector(f.left, scope, var), self.scalar(f.right, scope)
                return self.through(tuple(zip(*tab)), right, left)
            left, right = self.vector(f.left, scope, var), self.vector(f.right, scope, var)
            return self.paired(tab, left, right)
        # A quantifier whose body mentions var: run it at each position.
        return self.each(self.scalar(f, scope), slot)

    def repeated(self, value):
        """The line of ``n`` copies of the rank ``value`` gives."""
        n = self.n
        return lambda env: bytes((value(env),)) * n

    def through(self, tab, scalar, line):
        """The line of ``tab[a][b]``, for a the rank ``scalar`` gives and
        b each rank of ``line``."""
        rows = tuple(bytes(row).ljust(256, b"\0") for row in tab)
        return lambda env: line(env).translate(rows[scalar(env)])

    def paired(self, tab, left, right):
        """The line of ``tab[a][b]``, for a and b the ranks of ``left``
        and ``right`` at the same position."""
        k, n = len(tab), self.n
        if k <= _LANE_RANKS:
            flat = bytes(v for row in tab for v in row).ljust(256, b"\0")
            return lambda env: (int.from_bytes(left(env), "big") * k
                                + int.from_bytes(right(env), "big")).to_bytes(n, "big").translate(flat)
        rows = tab.__getitem__
        return lambda env: bytes(map(getitem, map(rows, left(env)), right(env)))

    def each(self, inner, slot):
        """The line of the ranks ``inner`` gives with ``slot`` at each position."""
        n = self.n

        def filled(env):
            line = bytearray(n)
            for p in range(n):
                env[slot] = p
                line[p] = inner(env)
            return line
        return filled
