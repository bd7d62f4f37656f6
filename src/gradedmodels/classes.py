"""Example classes of graded structures and Fraisse-class property checks.

Four classes over the one-binary-predicate signature are built in:

* ``k0`` graded preorders: reflexivity and transitivity hold in the filter.
* ``k1`` weighted graphs: loops below the filter, symmetric values.
* ``k2`` graded total preorders: ``k0`` plus totality.
* ``k3`` threshold partial orders: the filter cut of the relation is a
  partial order; values below the filter are unconstrained.

Membership predicates scan element tuples directly.  The hereditary,
joint-embedding, and amalgamation property checkers run over bounded
exhaustive enumerations of isomorphism types and report counterexamples.
Each built-in class comes with a closed-form amalgamator; the checkers
search exhaustively only for a class that has none.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from .algebra import Chain
from .errors import AmalgamationError, BudgetError
from .logic import SIG_LT, evaluate, parse_formula
from .structure import (
    GradedStructure,
    canonical_form,
    find_embeddings,
    make_structure,
    rename,
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
    "sentence_member",
    "enumerate_class",
    "check_hp",
    "check_jep",
    "check_ap",
    "PropertyReport",
]


@dataclass(frozen=True)
class ClassSpec:
    """A named class: membership predicate plus an optional amalgamator.

    ``amalgamate`` maps a v-formation to a member containing both arms,
    raising ``AmalgamationError`` when it cannot; over the empty base it
    also gives joint extensions.  When it is None the JEP and AP
    checkers search exhaustively for witnesses, and the limit builder
    refuses the class.  Specs compare by value, and the enumeration
    cache is keyed by the spec.
    """

    name: str
    signature: object
    membership: object
    amalgamate: object = None


def _require_lt(m: GradedStructure):
    if m.signature != SIG_LT:
        raise ValueError("class membership is defined over the one-binary-predicate signature")


def k0_member(m: GradedStructure) -> bool:
    """Graded preorder: loops and all transitivity instances in the filter."""
    _require_lt(m)
    if not m.universe:
        return False
    ch = m.chain
    lt = m.pred_interp["<"]
    for a in m.universe:
        if not ch.in_filter(lt[(a, a)]):
            return False
    for a in m.universe:
        for b in m.universe:
            vab = lt[(a, b)]
            for c in m.universe:
                if not ch.in_filter(ch.res(ch.meet(vab, lt[(b, c)]), lt[(a, c)])):
                    return False
    return True


def k1_member(m: GradedStructure) -> bool:
    """Weighted graph: every loop below the filter, symmetric edge values."""
    _require_lt(m)
    if not m.universe:
        return False
    ch = m.chain
    lt = m.pred_interp["<"]
    for a in m.universe:
        if ch.in_filter(lt[(a, a)]):
            return False
    for a in m.universe:
        for b in m.universe:
            if not ch.in_filter(ch.res(lt[(a, b)], lt[(b, a)])):
                return False
    return True


def k2_member(m: GradedStructure) -> bool:
    """Graded total preorder: preorder conditions plus totality."""
    _require_lt(m)
    if not k0_member(m):
        return False
    ch = m.chain
    lt = m.pred_interp["<"]
    for a in m.universe:
        for b in m.universe:
            if not ch.in_filter(ch.join(lt[(a, b)], lt[(b, a)])):
                return False
    return True


def k3_member(m: GradedStructure) -> bool:
    """Threshold partial order: the filter cut is reflexive, transitive,
    and antisymmetric; these are conditionals on filter membership, not
    graded formulas."""
    _require_lt(m)
    if not m.universe:
        return False
    ch = m.chain
    lt = m.pred_interp["<"]
    for a in m.universe:
        if not ch.in_filter(lt[(a, a)]):
            return False
    cut = {
        (a, b)
        for a in m.universe
        for b in m.universe
        if ch.in_filter(lt[(a, b)])
    }
    for a, b in cut:
        if a != b and (b, a) in cut:
            return False
    for a, b in cut:
        for c in m.universe:
            if (b, c) in cut and (a, c) not in cut:
                return False
    return True


_K0_SENTENCES = (
    "forall x (x < x)",
    "forall x forall y forall z (((x < y) & (y < z)) -> (x < z))",
)
_K2_SENTENCES = _K0_SENTENCES + ("forall x forall y ((x < y) | (y < x))",)
_K1_SYMMETRY = "forall x forall y ((x < y) -> (y < x))"


def sentence_member(class_name: str, m: GradedStructure) -> bool:
    """Membership via closed-formula evaluation, for finite chains.

    Defined for k0, k1, and k2.  The loop condition of k1 compares the
    per-element loop value against the immediate predecessor of the
    filter threshold, which has no symbol in the plain syntax, so that
    one conjunct is folded in semantically.
    """
    _require_lt(m)
    if not m.universe:
        return False
    ch = m.chain
    if class_name == "k0":
        sentences = _K0_SENTENCES
    elif class_name == "k2":
        sentences = _K2_SENTENCES
    elif class_name == "k1":
        if ch.one == 0:
            return False
        loop = parse_formula("x < x")
        below = all(
            ch.in_filter(ch.res(evaluate(m, loop, {"x": a}), ch.one - 1))
            for a in m.universe
        )
        if not below:
            return False
        sentences = (_K1_SYMMETRY,)
    else:
        raise ValueError(f"no sentence axioms for class {class_name!r}")
    return all(ch.in_filter(evaluate(m, parse_formula(s))) for s in sentences)


# --- enumeration ---

_ENUM_CACHE: dict = {}


def _chain_key(chain: Chain):
    return (chain.size, chain.conj_table, chain.one, chain.zero)


def enumerate_class(spec: ClassSpec, chain: Chain, max_size: int,
                    budget: int = 10**8) -> list[GradedStructure]:
    """All isomorphism types of members with at most ``max_size`` elements.

    Candidates are every value assignment on a fixed universe, filtered
    by membership and deduplicated by canonical form; the result is
    ordered by size then canonical form.  Rejects runs whose raw
    candidate count exceeds ``budget``.
    """
    if max_size < 0:
        raise ValueError("max_size must be non-negative")
    key = (spec, _chain_key(chain), max_size)
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]
    total = 0
    for s in range(1, max_size + 1):
        slots = sum(s ** ar for _, ar in spec.signature.predicates)
        total += chain.size ** slots
    if total > budget:
        raise BudgetError(f"{total} candidates exceed the budget of {budget}")
    found: list[tuple[int, bytes, GradedStructure]] = []
    seen: set[bytes] = set()
    for s in range(1, max_size + 1):
        elems = tuple(f"x{i}" for i in range(s))
        slots = [
            (p, t)
            for p, ar in spec.signature.predicates
            for t in itertools.product(elems, repeat=ar)
        ]
        for combo in itertools.product(range(chain.size), repeat=len(slots)):
            values = dict(zip(slots, combo))
            m = make_structure(chain, elems, values, signature=spec.signature,
                               name=f"{spec.name}_{s}")
            if not spec.membership(m):
                continue
            form = canonical_form(m)
            if form in seen:
                continue
            seen.add(form)
            found.append((s, form, m))
    found.sort(key=lambda item: (item[0], item[1]))
    result = [m for _, _, m in found]
    _ENUM_CACHE[key] = result
    return result


# --- property reports ---


def _digest(form: bytes) -> str:
    return hashlib.sha256(form).hexdigest()[:12]


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


def _search_common_extension(spec, chain, m1, m2, budget) -> bool:
    limit = len(m1.universe) + len(m2.universe)
    for candidate in enumerate_class(spec, chain, limit, budget=budget):
        if find_embeddings(m1, candidate, limit=1) and find_embeddings(m2, candidate, limit=1):
            return True
    return False


def check_jep(spec: ClassSpec, chain: Chain, k: int,
              search_budget: int = 10**8) -> PropertyReport:
    """Every pair of members has a common extension in the class.

    With an amalgamator, its amalgam over the empty base is the witness,
    verified to be a member into which both inputs embed; a failure is a
    counterexample.  Without one, members of size up to the two sizes
    combined are searched.  The stats count constructed and searched
    pairs.
    """
    from . import fraisse

    members = enumerate_class(spec, chain, k)
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
                if not _search_common_extension(spec, chain, m1, m2, search_budget):
                    bad.append(Counterexample("jep", f"type[{i}] and type[{j}] have no common extension"))
                continue
            try:
                witness = fraisse._jep_via_amalgam(spec.amalgamate, m1, m2)
            except AmalgamationError as exc:
                problem = str(exc)
            else:
                verified = spec.membership(witness) \
                    and find_embeddings(m1, witness, limit=1) \
                    and find_embeddings(m2, witness, limit=1)
                problem = None if verified else "result is not a common extension in the class"
            if problem is None:
                constructed += 1
            else:
                bad.append(Counterexample(
                    "jep", f"amalgamator failed on type[{i}] and type[{j}]: {problem}"
                ))
    stats = {"constructed": constructed, "searched": searched}
    return PropertyReport("jep", spec.name, chain.name, k, checked, bad, stats)


def check_ap(spec: ClassSpec, chain: Chain, k: int,
             search_cap: int = 10**6) -> PropertyReport:
    """Every v-formation of enumerated members has an amalgam.

    For each member pair and each way of sharing a common substructure,
    the class amalgamator's witness is verified to be a member containing
    both arms; a failure is a counterexample.  A class without an
    amalgamator gets a bounded exhaustive completion search over the
    cross values instead.  The stats count constructed and searched
    v-formations.
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
                        v = fraisse.align_v_formation(base, m1, m2, g.mapping)
                        where = (f"base of type[{i}] on {{{' '.join(subset)}}} "
                                 f"into type[{j}] via {sorted(g.mapping.items())}")
                        if spec.amalgamate is None:
                            searched += 1
                            if fraisse.search_amalgam(v, spec.membership, cap=search_cap) is None:
                                bad.append(Counterexample("ap", f"no amalgam for {where}"))
                            continue
                        try:
                            witness = spec.amalgamate(v)
                        except AmalgamationError as exc:
                            problem = str(exc)
                        else:
                            verified = fraisse.verify_amalgam(spec, v, witness)
                            problem = None if verified else "result is not an amalgam in the class"
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
        "k0": ClassSpec("k0", SIG_LT, k0_member, fraisse.amalgamate_k0),
        "k1": ClassSpec("k1", SIG_LT, k1_member, fraisse.amalgamate_k1),
        "k2": ClassSpec("k2", SIG_LT, k2_member, fraisse.amalgamate_k2),
        "k3": ClassSpec("k3", SIG_LT, k3_member, fraisse.amalgamate_k3),
    }
    if name not in table:
        raise ValueError(f"unknown class {name!r}; expected one of {sorted(table)}")
    return table[name]


def class_names() -> tuple[str, ...]:
    return ("k0", "k1", "k2", "k3")
