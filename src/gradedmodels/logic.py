"""Signatures, graded first-order formulas, and their evaluation.

Connective tokens in the concrete syntax: ``&`` is lattice meet, ``|``
is join, ``*`` is the monoidal conjunction, ``->`` is the residuum.
``a < b`` is infix sugar for the designated binary predicate named
``<``.  Truth constants are ``0``, ``1``, ``bot``, ``top``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaParseError

__all__ = [
    "Signature",
    "SIG_LT",
    "Var",
    "App",
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
    """Predicate and function symbols with arities; names are unique."""

    predicates: tuple[tuple[str, int], ...]
    functions: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.predicates] + [n for n, _ in self.functions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol name in signature")
        for name, ar in self.predicates:
            if ar < 1:
                raise ValueError(f"predicate {name!r} must have arity >= 1")
        for name, ar in self.functions:
            if ar < 0:
                raise ValueError(f"function {name!r} has negative arity")

    def pred_arity(self, name: str) -> int | None:
        for n, ar in self.predicates:
            if n == name:
                return ar
        return None

    def func_arity(self, name: str) -> int | None:
        for n, ar in self.functions:
            if n == name:
                return ar
        return None


# The working signature of the example classes: one binary predicate.
SIG_LT = Signature(predicates=(("<", 2),))


# --- terms ---


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    func: str
    args: tuple


Term = Var | App


# --- formulas ---


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


Formula = Atom | Const | BinOp | Quant


def free_vars(formula) -> frozenset[str]:
    if isinstance(formula, Atom):
        out: set[str] = set()
        stack = list(formula.args)
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                out.add(t.name)
            else:
                stack.extend(t.args)
        return frozenset(out)
    if isinstance(formula, Const):
        return frozenset()
    if isinstance(formula, BinOp):
        return free_vars(formula.left) | free_vars(formula.right)
    if isinstance(formula, Quant):
        return free_vars(formula.body) - {formula.var}
    raise TypeError(f"not a formula: {formula!r}")


# --- lexer ---

_SYMBOLS = ("->", "(", ")", ",", "<", "&", "|", "*")
_KEYWORDS = ("forall", "exists", "bot", "top")


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


class _Parser:
    """Recursive-descent parser for the formula grammar.

    formula := quant | impl
    quant   := ("forall" | "exists") var formula
    impl    := disj ["->" impl]
    disj    := conj {"|" conj}
    conj    := strong {"&" strong}
    strong  := atomf {"*" atomf}
    atomf   := "(" formula ")" | const | pred "(" terms ")" | term "<" term
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

    def expect_sym(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != text:
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
            if var.kind != "name" or self.sig.pred_arity(var.text) is not None or self.sig.func_arity(var.text) is not None:
                raise FormulaParseError("expected a variable after quantifier", var.column)
            self.take()
            return Quant(tok.text, var.text, self.formula())
        return self.impl()

    def impl(self):
        left = self.disj()
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "->":
            self.take()
            return BinOp("->", left, self.impl())
        return left

    def disj(self):
        f = self.conj()
        while self.peek().kind == "sym" and self.peek().text == "|":
            self.take()
            f = BinOp("|", f, self.conj())
        return f

    def conj(self):
        f = self.strong()
        while self.peek().kind == "sym" and self.peek().text == "&":
            self.take()
            f = BinOp("&", f, self.strong())
        return f

    def strong(self):
        f = self.atomf()
        while self.peek().kind == "sym" and self.peek().text == "*":
            self.take()
            f = BinOp("*", f, self.atomf())
        return f

    def atomf(self):
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "(":
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
            if lt.kind == "sym" and lt.text == "<":
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
        while self.peek().kind == "sym" and self.peek().text == ",":
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
        farity = self.sig.func_arity(tok.text)
        if farity is not None:
            args = self.arg_list(tok.text, farity, tok.column) if farity > 0 else self.empty_args(tok.text)
            return App(tok.text, args)
        if self.sig.pred_arity(tok.text) is not None:
            raise FormulaParseError(f"predicate {tok.text!r} used as a term", tok.column)
        return Var(tok.text)

    def empty_args(self, symbol: str) -> tuple:
        self.expect_sym("(")
        self.expect_sym(")")
        return ()


def parse_formula(text: str, signature: Signature = SIG_LT):
    """Parse concrete syntax into an arity-checked formula."""
    return _Parser(_lex(text), signature).parse()


def _format_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    return f"{t.func}({', '.join(_format_term(a) for a in t.args)})"


def format_formula(formula) -> str:
    """Print a formula so that parsing the result rebuilds it exactly."""
    if isinstance(formula, Atom):
        if formula.pred == "<":
            return f"({_format_term(formula.args[0])} < {_format_term(formula.args[1])})"
        return f"{formula.pred}({', '.join(_format_term(a) for a in formula.args)})"
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
    in the universe.  Quantifiers range eagerly over the whole universe;
    on an empty universe ``forall`` yields top and ``exists`` yields bot.
    """
    chain = structure.chain
    n = len(structure.universe)
    preds = dict(zip((p for p, _ in structure.signature.predicates), structure.pred_tables))
    funcs = dict(zip((f for f, _ in structure.signature.functions), structure.func_tables))
    env = {}
    for var, eid in (assignment or {}).items():
        if eid not in structure.positions:
            raise ValueError(f"unknown element {eid!r} assigned to {var!r}")
        env[var] = structure.positions[eid]

    def read(tables, symbol, args, env):
        """The entry of a symbol's table at the positions its argument terms denote."""
        if symbol not in tables:
            raise ValueError(f"symbol {symbol!r} not interpreted in structure")
        f = 0
        for a in args:
            f = f * n + (env[a.name] if isinstance(a, Var) else read(funcs, a.func, a.args, env))
        return tables[symbol][f]

    def ev(f, env):
        if isinstance(f, Atom):
            return read(preds, f.pred, f.args, env)
        if isinstance(f, Const):
            if f.kind == "0":
                return chain.zero
            if f.kind == "1":
                return chain.one
            if f.kind == "bot":
                return chain.bot
            return chain.top
        if isinstance(f, BinOp):
            a = ev(f.left, env)
            b = ev(f.right, env)
            if f.op == "&":
                return min(a, b)
            if f.op == "|":
                return max(a, b)
            if f.op == "*":
                return chain.conj_table[a][b]
            return chain.res_table[a][b]
        if isinstance(f, Quant):
            values = []
            for p in range(n):
                inner = dict(env)
                inner[f.var] = p
                values.append(ev(f.body, inner))
            if f.kind == "forall":
                return min(values, default=chain.top)
            return max(values, default=chain.bot)
        raise TypeError(f"not a formula: {f!r}")

    missing = free_vars(formula) - set(env)
    if missing:
        raise ValueError(f"unbound free variables: {sorted(missing)}")
    return ev(formula, env)
