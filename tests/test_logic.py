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
from gradedmodels.structure import GradedStructure, binary_structure

from conftest import FIVE_CHAINS, chain_named
from evaluate_reference import evaluate_reference


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
    assert strong == luk3.conj_table[1][1] == 0
    assert weak == min(1, 1) == 1


def test_evaluate_hand_example(luk3):
    m = binary_structure(
        luk3,
        ["a", "b"],
        {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 2},
    )
    f = parse_formula("((x < y) & (y < x)) -> (x < x)")
    assert evaluate(m, f, {"x": "a", "y": "b"}) == luk3.res_table[min(1, 0)][2] == 2
    assert evaluate(m, parse_formula("forall x (x < x)")) == 2
    assert evaluate(m, parse_formula("1")) == luk3.one
    assert evaluate(m, parse_formula("0")) == luk3.zero
    assert evaluate(m, parse_formula("bot")) == 0
    assert evaluate(m, parse_formula("top")) == 2


def test_evaluate_requires_bound_variables(luk3):
    m = binary_structure(luk3, ["a"], {("a", "a"): 2})
    with pytest.raises(ValueError):
        evaluate(m, parse_formula("x < y"), {"x": "a"})


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


# Unparenthesised chains of the binary connectives and their parse,
# printed fully parenthesised: ``*`` binds tightest, then ``&``, ``|`` and
# ``->``; the first three associate to the left, ``->`` to the right.
PRECEDENCE = [
    ("0 | 1 | top", "((0 | 1) | top)"),
    ("0 & 1 & top", "((0 & 1) & top)"),
    ("0 * 1 * top", "((0 * 1) * top)"),
    ("0 -> 1 -> top", "(0 -> (1 -> top))"),
    ("0 | 1 & top", "(0 | (1 & top))"),
    ("0 & 1 | top", "((0 & 1) | top)"),
    ("0 | 1 * top", "(0 | (1 * top))"),
    ("0 * 1 | top", "((0 * 1) | top)"),
    ("0 & 1 * top", "(0 & (1 * top))"),
    ("0 * 1 & top", "((0 * 1) & top)"),
    ("0 -> 1 | top", "(0 -> (1 | top))"),
    ("0 | 1 -> top", "((0 | 1) -> top)"),
    ("0 -> 1 & top", "(0 -> (1 & top))"),
    ("0 & 1 -> top", "((0 & 1) -> top)"),
    ("0 -> 1 * top", "(0 -> (1 * top))"),
    ("0 * 1 -> top", "((0 * 1) -> top)"),
    ("0 | 1 & top * bot", "(0 | (1 & (top * bot)))"),
    ("0 * 1 & top | bot", "(((0 * 1) & top) | bot)"),
    ("0 & 1 * top & bot | 0 * 1", "(((0 & (1 * top)) & bot) | (0 * 1))"),
    ("0 | 1 -> top & bot -> 0 * 1 | top",
     "((0 | 1) -> ((top & bot) -> ((0 * 1) | top)))"),
    ("x < y * y < z -> x < z & 1", "(((x < y) * (y < z)) -> ((x < z) & 1))"),
]


@pytest.mark.parametrize("text, printed", PRECEDENCE)
def test_precedence_and_associativity_of_unparenthesised_chains(text, printed):
    parsed = parse_formula(text)
    assert format_formula(parsed) == printed
    assert parse_formula(printed) == parsed


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


# Every arity up to three, so atoms read rows, columns, diagonals and
# general strided runs of their tables.  Two lines are paired by a lane
# sum up to 16 ranks (luk:16) and through a map above (luk:20,
# godel:200), up to the widest chain, whose top rank is byte 255
# (luk:256).
SIG_P_LT_R = Signature(predicates=(("P", 1), ("<", 2), ("R", 3)))
CHAINS = FIVE_CHAINS + tuple(map(chain_named, ("luk:16", "luk:20", "godel:200", "luk:256")))


def graded_formulas():
    var = st.builds(Var, st.sampled_from(VARS))
    atoms = st.one_of(
        st.builds(Const, st.sampled_from(["0", "1", "bot", "top"])),
        st.builds(Atom, st.just("P"), st.tuples(var)),
        st.builds(Atom, st.just("<"), st.tuples(var, var)),
        st.builds(Atom, st.just("R"), st.tuples(var, var, var)),
    )

    def compound(sub):
        quant = st.builds(Quant, st.sampled_from(["forall", "exists"]), st.sampled_from(VARS), sub)
        return st.one_of(st.builds(BinOp, st.sampled_from(["&", "|", "*", "->"]), sub, sub),
                         quant, quant)
    return st.recursive(atoms, compound, max_leaves=10)


@st.composite
def structures_and_assignments(draw):
    """A structure over SIG_P_LT_R of 0-4 elements, and an assignment of
    some variables, now and then with an id outside the universe."""
    chain = draw(st.sampled_from(CHAINS))
    universe = tuple(f"e{i}" for i in range(draw(st.integers(0, 4))))
    ranks = st.integers(0, chain.size - 1)
    tables = tuple(tuple(draw(st.lists(ranks, min_size=len(universe) ** arity,
                                       max_size=len(universe) ** arity)))
                   for _, arity in SIG_P_LT_R.predicates)
    m = GradedStructure(chain, SIG_P_LT_R, universe, tables)
    assignment = {v: draw(st.sampled_from(universe)) for v in VARS
                  if universe and draw(st.integers(0, 5))}
    if draw(st.integers(0, 9)) == 0:
        assignment[draw(st.sampled_from(VARS))] = "nosuch"
    return m, assignment


@settings(max_examples=500, deadline=None)
@given(structures_and_assignments(), graded_formulas())
def test_evaluate_matches_reference(case, formula):
    m, assignment = case
    try:
        want = evaluate_reference(m, formula, assignment)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            evaluate(m, formula, assignment)
        assert str(got.value) == str(err)
    else:
        assert evaluate(m, formula, assignment) == want


TRANSITIVITY = "forall x forall y forall z (((x < y) & (y < z)) -> (x < z))"


@pytest.mark.parametrize("text, assignment", [
    (TRANSITIVITY, {}),
    ("forall x forall y ((x < y) -> (y < x))", {}),
    ("forall x exists y (x < y)", {}),
    # x < x under forall y: a diagonal over x, repeated over y.
    ("forall x forall y ((x < x) -> ((x < y) | (y < y)))", {}),
    ("exists y ((x < x) * (y < x))", {"x": "e7"}),
    ("forall x ((x < y) -> (exists x ((y < x) & (exists y (x < y)))))", {"y": "e3"}),
])
def test_evaluate_matches_reference_on_forty_vertices(luk3, text, assignment):
    m = random_structure(random.Random(40), luk3, 40)
    f = parse_formula(text)
    assert evaluate(m, f, assignment) == evaluate_reference(m, f, assignment)


@pytest.mark.parametrize("text, assignment", [
    ("forall x forall y ((forall x exists z (x < z)) & (x < y))", {}),
    ("exists y ((forall x exists z (x < z)) * (x < y))", {"x": "e1"}),
    ("exists x forall y ((exists x forall z (z < x)) -> (x < y))", {}),
])
def test_evaluate_inner_quantifier_leaves_outer_variable(luk3, text, assignment):
    """An inner quantifier over x, run before an outer x is read, must
    not change the outer x's value."""
    f = parse_formula(text)
    for seed in range(50):
        m = random_structure(random.Random(seed), luk3, 3)
        assert evaluate(m, f, assignment) == evaluate_reference(m, f, assignment)


@pytest.mark.parametrize("size", [0, 2])
@pytest.mark.parametrize("atom", [
    Atom("Q", (Var("x"),)),
    Atom("<", (Var("x"),)),
    Atom("<", (Var("x"), Var("x"), Var("x"))),
])
def test_evaluate_rejects_atoms_outside_the_signature(luk3, size, atom):
    """Checked while compiling, so also where no atom is ever read."""
    m = random_structure(random.Random(size), luk3, size)
    with pytest.raises(ValueError):
        evaluate(m, Quant("forall", "x", atom))
    with pytest.raises(ValueError):
        evaluate(m, BinOp("&", Const("bot"), Quant("exists", "x", atom)))


XX = Atom("<", (Var("x"), Var("x")))


@pytest.mark.parametrize("formula", [
    Const("2"),
    BinOp("=>", Const("0"), Const("1")),
    Quant("forall", "x", BinOp("=>", XX, XX)),
    Quant("every", "x", XX),
], ids=["constant", "connective", "connective-in-a-vector", "quantifier"])
def test_evaluate_rejects_unknown_kinds_while_compiling(luk3, formula):
    m = binary_structure(luk3, ["a"], {("a", "a"): 1})
    with pytest.raises(ValueError):
        evaluate(m, formula)


# Closed formulas that put a connective in each position of a vector
# over x: scalar-vector, vector-scalar and vector-vector, a quantifier as
# the scalar side, quantifiers nested inside connectives, and a part
# without x repeated along it.  The outer quantifier over y runs the
# inner one at each position.
LINE_SHAPES = [
    "forall y exists x ((y < y) {op} (x < y))",
    "exists y forall x ((x < y) {op} (y < y))",
    "forall y exists x ((x < y) {op} (y < x))",
    "exists y forall x ((forall z (z < y)) {op} (x < y))",
    "forall y exists x ((x < x) {op} (exists z (y < z)))",
    "forall y exists x ((exists z ((x < z) {op} (z < y))) {op} (forall z (z < x)))",
    "exists y forall x ((y < y) {op} (y < y))",
]


@pytest.mark.parametrize("name", ["luk:16", "luk:20", "godel:200", "luk:256"])
@pytest.mark.parametrize("op", ["&", "|", "*", "->"])
@pytest.mark.parametrize("shape", LINE_SHAPES)
def test_evaluate_lines_match_reference(name, op, shape):
    """``luk:16`` is the widest chain whose two lines are paired by a lane
    sum: with every cell at top, a vector-vector lane reads
    15 * 16 + 15 = 255, the last entry of its table.  The wider chains
    pair them through a map, and on ``luk:256`` the top rank is byte 255,
    which the folds must find as the least or greatest rank present.
    The empty universe folds nothing."""
    chain = chain_named(name)
    f = parse_formula(shape.format(op=op))
    ids = ["a", "b", "c", "d"]
    structures = [random_structure(random.Random(seed), chain, 5) for seed in range(3)]
    structures += [binary_structure(chain, ids, default=chain.top),
                   binary_structure(chain, ids, default=chain.bot),
                   binary_structure(chain, [])]
    for m in structures:
        assert evaluate(m, f) == evaluate_reference(m, f)


@pytest.mark.parametrize("name", ["luk:4", "u3"])
@pytest.mark.parametrize("text", [
    "forall x forall y (x < y)",
    "exists x exists y (x < y)",
    "forall x exists y ((x < y) & 1)",
    "exists x forall y ((x < y) | (y < x))",
    "forall y ((y < y) & (exists x (x < y)))",
])
def test_lane_folds_of_middle_ranks_match_reference(name, text):
    """Every table entry, and so every line, lies strictly between bot
    and top, so neither fold can stop at a chain end: ``forall`` must
    find the least rank present and ``exists`` the greatest.  On ``u3``
    the constant 1 is the middle rank."""
    chain = chain_named(name)
    middle = range(chain.bot + 1, chain.top)
    f = parse_formula(text)
    structures = [binary_structure(chain, ["a", "b"], default=v) for v in middle]
    for seed in range(20):
        rng = random.Random(seed)
        ids = [f"e{i}" for i in range(rng.randint(1, 6))]
        structures.append(binary_structure(chain, ids, {(a, b): rng.choice(middle)
                                                        for a in ids for b in ids}))
    for m in structures:
        got = evaluate(m, f)
        assert got == evaluate_reference(m, f)
        assert chain.bot < got < chain.top
