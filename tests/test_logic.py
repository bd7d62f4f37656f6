"""Parser, printer, and the graded Tarskian evaluator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmodels.errors import FormulaParseError
from gradedmodels.logic import (
    SIG_LT,
    Atom,
    BinOp,
    Const,
    Quant,
    Signature,
    Var,
    evaluate,
    format_formula,
    free_vars,
    parse_formula,
)
from gradedmodels.structure import binary_structure, make_structure


def test_parse_transitivity_shape():
    f = parse_formula("(x < y) & (y < z) -> (x < z)")
    assert isinstance(f, BinOp) and f.op == "->"
    assert isinstance(f.left, BinOp) and f.left.op == "&"
    assert f.right == Atom("<", (Var("x"), Var("z")))


def test_parse_universal_atom():
    f = parse_formula("forall x (x < x)")
    assert f == Quant("forall", "x", Atom("<", (Var("x"), Var("x"))))


def test_unbalanced_parenthesis_position():
    sig = Signature(predicates=(("P", 2),))
    with pytest.raises(FormulaParseError) as err:
        parse_formula("P(x, y", sig)
    assert err.value.column == 7
    assert "unbalanced" in str(err.value)


def test_parse_errors():
    with pytest.raises(FormulaParseError):
        parse_formula("x <", SIG_LT)
    with pytest.raises(FormulaParseError):
        parse_formula("forall (x < x)", SIG_LT)
    with pytest.raises(FormulaParseError):
        parse_formula("x < y)", SIG_LT)
    sig = Signature(predicates=(("P", 1),))
    with pytest.raises(FormulaParseError) as err:
        parse_formula("P(x, y)", sig)
    assert "takes 1 arguments" in str(err.value)
    with pytest.raises(FormulaParseError):
        parse_formula("x < y ?", SIG_LT)


def test_connective_tokens_distinct(luk3):
    m = binary_structure(luk3, ["a"], {("a", "a"): 1})
    strong = evaluate(m, parse_formula("(a0 < a0) * (a0 < a0)"), {"a0": "a"})
    weak = evaluate(m, parse_formula("(a0 < a0) & (a0 < a0)"), {"a0": "a"})
    assert strong == luk3.conj(1, 1) == 0
    assert weak == luk3.meet(1, 1) == 1


def test_evaluate_hand_example(luk3):
    m = binary_structure(
        luk3,
        ["a", "b"],
        {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 2},
    )
    f = parse_formula("((x < y) & (y < x)) -> (x < x)")
    assert evaluate(m, f, {"x": "a", "y": "b"}) == luk3.res(min(1, 0), 2) == 2
    assert evaluate(m, parse_formula("forall x (x < x)")) == 2
    assert evaluate(m, parse_formula("1")) == luk3.one
    assert evaluate(m, parse_formula("0")) == luk3.zero
    assert evaluate(m, parse_formula("bot")) == 0
    assert evaluate(m, parse_formula("top")) == 2


def test_evaluate_requires_bound_variables(luk3):
    m = binary_structure(luk3, ["a"], {("a", "a"): 2})
    with pytest.raises(ValueError):
        evaluate(m, parse_formula("x < y"), {"x": "a"})


def test_function_terms(luk3):
    sig = Signature(predicates=(("P", 1),), functions=(("f", 1), ("c", 0)))
    m = make_structure(
        luk3,
        ["a", "b"],
        {("P", ("a",)): 2, ("P", ("b",)): 1},
        signature=sig,
        functions={"f": {("a",): "b", ("b",): "b"}, "c": {(): "a"}},
    )
    f = parse_formula("P(f(c()))", sig)
    assert evaluate(m, f) == 1


VARS = ("x", "y", "z")


def random_qf_formula(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return Const(rng.choice(["0", "1", "bot", "top"]))
        return Atom("<", (Var(rng.choice(VARS)), Var(rng.choice(VARS))))
    op = rng.choice(["&", "|", "*", "->"])
    return BinOp(op, random_qf_formula(rng, depth - 1), random_qf_formula(rng, depth - 1))


def random_structure(rng, chain, size):
    elems = [f"e{i}" for i in range(size)]
    values = {(a, b): rng.randrange(chain.size) for a in elems for b in elems}
    return binary_structure(chain, elems, values)


def fold_oracle(chain, structure, formula, assignment):
    """Independent path: look atoms up directly, fold connectives by hand."""
    if isinstance(formula, Atom):
        args = tuple(assignment[t.name] for t in formula.args)
        return structure.value(formula.pred, *args)
    if isinstance(formula, Const):
        return {"0": chain.zero, "1": chain.one, "bot": 0, "top": chain.size - 1}[formula.kind]
    a = fold_oracle(chain, structure, formula.left, assignment)
    b = fold_oracle(chain, structure, formula.right, assignment)
    if formula.op == "&":
        return min(a, b)
    if formula.op == "|":
        return max(a, b)
    if formula.op == "*":
        return chain.conj_table[a][b]
    return chain.res_table[a][b]


def test_compositionality_against_fold_oracle(luk3):
    rng = random.Random(4242)
    for _ in range(200):
        m = random_structure(rng, luk3, rng.randint(1, 4))
        f = random_qf_formula(rng)
        assignment = {v: rng.choice(m.universe) for v in VARS}
        assert evaluate(m, f, assignment) == fold_oracle(luk3, m, f, assignment)


def test_quantifier_monotone_bounds(luk3):
    rng = random.Random(99)
    for _ in range(50):
        m = random_structure(rng, luk3, rng.randint(1, 4))
        body = random_qf_formula(rng, depth=2)
        lo = evaluate(m, Quant("forall", "x", body), {v: m.universe[0] for v in VARS})
        hi = evaluate(m, Quant("exists", "x", body), {v: m.universe[0] for v in VARS})
        for e in m.universe:
            assignment = {v: m.universe[0] for v in VARS}
            assignment["x"] = e
            mid = evaluate(m, body, assignment)
            assert lo <= mid <= hi


def formula_strategy():
    atoms = st.one_of(
        st.builds(Const, st.sampled_from(["0", "1", "bot", "top"])),
        st.builds(
            Atom,
            st.just("<"),
            st.tuples(st.builds(Var, st.sampled_from(VARS)), st.builds(Var, st.sampled_from(VARS))),
        ),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(BinOp, st.sampled_from(["&", "|", "*", "->"]), sub, sub),
            st.builds(Quant, st.sampled_from(["forall", "exists"]), st.sampled_from(VARS), sub),
        ),
        max_leaves=12,
    )


@settings(max_examples=200, deadline=None)
@given(formula_strategy())
def test_print_parse_roundtrip(formula):
    assert parse_formula(format_formula(formula), SIG_LT) == formula


def test_free_vars():
    f = parse_formula("forall x ((x < y) -> (z < x))")
    assert free_vars(f) == {"y", "z"}
    assert free_vars(parse_formula("1")) == frozenset()


def test_empty_universe_quantifiers(luk3):
    m = binary_structure(luk3, [], {})
    assert evaluate(m, parse_formula("forall x (x < x)")) == luk3.top
    assert evaluate(m, parse_formula("exists x (x < x)")) == luk3.bot


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(predicates=(("P", 1), ("P", 2)))
    with pytest.raises(ValueError):
        Signature(predicates=(("P", 0),))
