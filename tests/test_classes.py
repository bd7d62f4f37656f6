"""Membership predicates, enumeration counts, and HP/JEP/AP checks."""

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmodels import classes
from gradedmodels.algebra import make_lukasiewicz
from gradedmodels.classes import (
    ClassSpec,
    amalgamate_k1,
    check_ap,
    check_hp,
    check_jep,
    enumerate_class,
    get_class,
    k0_member,
    k1_member,
    k2_member,
    k3_member,
)
from gradedmodels.errors import BudgetError
from gradedmodels.logic import SIG_LT, evaluate, parse_formula
from gradedmodels.structure import (
    GradedStructure,
    binary_structure,
    canonical_form,
    rename,
)

from amalgam_reference import reference_report
from conftest import FIVE_CHAINS, chain_named, uninorm_chain
from enumerate_reference import enumerate_reference
from membership_reference import REFERENCE

LUK3 = make_lukasiewicz(3)


def pair(chain, vab, vba, la=None, lb=None):
    la = chain.one if la is None else la
    lb = chain.one if lb is None else lb
    return binary_structure(
        chain, ["a", "b"],
        {("a", "a"): la, ("b", "b"): lb, ("a", "b"): vab, ("b", "a"): vba},
    )


# --- membership examples ---


def test_k0_singletons(luk3):
    assert k0_member(binary_structure(luk3, ["a"], {("a", "a"): 2}))
    assert not k0_member(binary_structure(luk3, ["a"], {("a", "a"): 1}))


def test_k0_graded_pair(luk3):
    m = pair(luk3, 2, 1)
    # one instance of the transitivity scan, by hand: (a,b,a)
    assert luk3.res_table[min(2, 1)][2] == 2
    assert k0_member(m)


def test_k1_examples(luk3):
    assert not k1_member(pair(luk3, 1, 2, la=0, lb=0))  # asymmetric values
    assert k1_member(pair(luk3, 1, 1, la=0, lb=1))
    assert not k1_member(pair(luk3, 1, 1, la=2, lb=0))  # loop in the filter


def test_k2_examples(luk3):
    assert k2_member(binary_structure(luk3, ["a"], {("a", "a"): 2}))
    assert not k2_member(pair(luk3, 0, 0))  # totality fails
    assert k2_member(pair(luk3, 2, 1))


def test_k3_examples(luk3):
    assert k3_member(pair(luk3, 2, 0))  # crisp two-chain
    assert not k3_member(pair(luk3, 2, 2))  # antisymmetry at the threshold
    assert k3_member(pair(luk3, 1, 0))  # thresholds never triggered


def test_membership_rejects_empty_and_wrong_signature(luk3):
    empty = binary_structure(luk3, [], {})
    for member in (k0_member, k1_member, k2_member, k3_member):
        assert not member(empty)
    from gradedmodels.logic import Signature
    from gradedmodels.structure import make_structure

    other = make_structure(luk3, ["a"], {("P", ("a",)): 0},
                           signature=Signature(predicates=(("P", 1),)))
    with pytest.raises(ValueError):
        k0_member(other)


@pytest.mark.parametrize("chain, max_size", [(c, 4 if c.name == "bool" else 3) for c in FIVE_CHAINS[:4]],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_membership_agrees_with_reference_on_every_small_table(chain, max_size):
    """Every table of at most ``max_size`` elements, the empty one included,
    against the rank loops of ``membership_reference``."""
    specs = [get_class(name) for name in sorted(REFERENCE)]
    verdicts = set()
    for n in range(max_size + 1):
        elems = tuple(f"e{i}" for i in range(n))
        for table in itertools.product(chain.ranks(), repeat=n * n):
            m = GradedStructure(chain, SIG_LT, elems, (table,))
            for spec in specs:
                verdict = spec.membership(m)
                assert verdict == REFERENCE[spec.name](m), (spec.name, table)
                verdicts.add((spec.name, n, verdict))
    assert len(verdicts) == 4 + 4 * 2 * max_size


# --- classical oracles on the Boolean chain ---


def classical_matrices(n):
    for bits in itertools.product((0, 1), repeat=n * n):
        yield [list(bits[i * n:(i + 1) * n]) for i in range(n)]


def matrix_iso_types(n, predicate):
    seen = set()
    count = 0
    for mat in classical_matrices(n):
        if not predicate(mat):
            continue
        best = min(
            tuple(mat[p[i]][p[j]] for i in range(n) for j in range(n))
            for p in itertools.permutations(range(n))
        )
        if best not in seen:
            seen.add(best)
            count += 1
    return count


def is_simple_graph(mat):
    n = len(mat)
    return all(mat[i][i] == 0 for i in range(n)) and all(
        mat[i][j] == mat[j][i] for i in range(n) for j in range(n)
    )


def is_total_preorder(mat):
    n = len(mat)
    if any(mat[i][i] == 0 for i in range(n)):
        return False
    if any(not (mat[i][j] or mat[j][i]) for i in range(n) for j in range(n)):
        return False
    return all(
        not (mat[i][j] and mat[j][k]) or mat[i][k]
        for i in range(n) for j in range(n) for k in range(n)
    )


def is_poset(mat):
    n = len(mat)
    if any(mat[i][i] == 0 for i in range(n)):
        return False
    if any(mat[i][j] and mat[j][i] and i != j for i in range(n) for j in range(n)):
        return False
    return all(
        not (mat[i][j] and mat[j][k]) or mat[i][k]
        for i in range(n) for j in range(n) for k in range(n)
    )


def is_preorder(mat):
    n = len(mat)
    if any(mat[i][i] == 0 for i in range(n)):
        return False
    return all(
        not (mat[i][j] and mat[j][k]) or mat[i][k]
        for i in range(n) for j in range(n) for k in range(n)
    )


@pytest.mark.parametrize("name,oracle", [
    ("k0", is_preorder),
    ("k1", is_simple_graph),
    ("k2", is_total_preorder),
    ("k3", is_poset),
])
def test_boolean_membership_matches_classical(bool_chain, name, oracle):
    member = get_class(name).membership
    for n in (1, 2, 3):
        elems = [f"e{i}" for i in range(n)]
        for mat in classical_matrices(n):
            values = {(elems[i], elems[j]): mat[i][j] for i in range(n) for j in range(n)}
            m = binary_structure(bool_chain, elems, values)
            assert member(m) == oracle(mat)


@pytest.mark.parametrize("name,oracle,counts", [
    ("k0", is_preorder, (1, 3, 9)),
    ("k1", is_simple_graph, (1, 2, 4)),
    ("k2", is_total_preorder, (1, 2, 4)),
    ("k3", is_poset, (1, 2, 5)),
])
def test_boolean_enumeration_counts(bool_chain, name, oracle, counts):
    spec = get_class(name)
    for n, expected in zip((1, 2, 3), counts):
        assert matrix_iso_types(n, oracle) == expected
    members = enumerate_class(spec, bool_chain, 3)
    assert len(members) == sum(counts)


def graded_iso_types(chain, n, member):
    """Independent dedup path: minimize raw value matrices over permutations."""
    elems = [f"e{i}" for i in range(n)]
    seen = set()
    for vals in itertools.product(range(chain.size), repeat=n * n):
        mat = [list(vals[i * n:(i + 1) * n]) for i in range(n)]
        values = {(elems[i], elems[j]): mat[i][j] for i in range(n) for j in range(n)}
        if not member(binary_structure(chain, elems, values)):
            continue
        best = min(
            tuple(mat[p[i]][p[j]] for i in range(n) for j in range(n))
            for p in itertools.permutations(range(n))
        )
        seen.add(best)
    return len(seen)


def test_k1_luk3_count_pinned(luk3):
    by_oracle = graded_iso_types(luk3, 1, k1_member) + graded_iso_types(luk3, 2, k1_member)
    assert by_oracle == 11
    assert len(enumerate_class(get_class("k1"), luk3, 2)) == 11


def test_enumeration_budget_fails_before_any_work(luk3):
    # 3 + 3**4 + 3**9 + 3**16 candidates, over the budget of 10**7.
    def untouched(m):
        raise AssertionError("a candidate was built")

    with pytest.raises(BudgetError):
        enumerate_class(ClassSpec("k1", untouched), luk3, 4)
    with pytest.raises(BudgetError, match="^43066488 candidates"):
        enumerate_class(get_class("k1"), luk3, 4)


def test_enumerate_boundaries(bool_chain):
    assert enumerate_class(get_class("k1"), bool_chain, 0) == []
    with pytest.raises(BudgetError):
        enumerate_class(get_class("k1"), bool_chain, 7)
    with pytest.raises(ValueError):
        enumerate_class(get_class("k1"), bool_chain, -1)


def test_user_class_with_builtin_name_enumerates_its_own_members(bool_chain):
    assert len(enumerate_class(get_class("k1"), bool_chain, 2)) == 3

    def edgeless(m):
        return k1_member(m) and all(
            m.value("<", a, b) == m.chain.bot for a in m.universe for b in m.universe
        )

    assert len(enumerate_class(ClassSpec("k1", edgeless), bool_chain, 2)) == 2


def test_enumeration_is_deduplicated_and_member_closed(luk3):
    members = enumerate_class(get_class("k3"), luk3, 2)
    forms = [canonical_form(m) for m in members]
    assert len(set(forms)) == len(forms)
    assert all(k3_member(m) for m in members)
    order = [(len(m.universe), f) for m, f in zip(members, forms)]
    assert order == sorted(order)


CHAINS = {c.name: c for c in FIVE_CHAINS}


def listed(members):
    """What the enumeration promises of each type, in order."""
    return [(m.universe, m.pred_tables, m.name) for m in members]


@pytest.mark.parametrize("chain_name, max_size", [
    ("bool", 3), ("luk:3", 2), ("godel:3", 2), ("u3", 3), ("luk:4", 2),
])
@pytest.mark.parametrize("name", ["k0", "k1", "k2", "k3"])
def test_enumeration_equals_the_product_reference(name, chain_name, max_size):
    """The walk of the tables whose loops the class admits and the walk
    of every table both list exactly the reference's types."""
    chain = CHAINS[chain_name]
    spec = get_class(name)
    got = listed(enumerate_class(spec, chain, max_size))
    assert got == listed(enumerate_reference(spec, chain, max_size))
    assert got == listed(enumerate_class(dataclasses.replace(spec, loops_in_filter=None), chain, max_size))


@pytest.mark.parametrize("name, count", [("k0", 46), ("k1", 18), ("k2", 15), ("k3", 24)])
def test_bool_size_4_types_are_those_of_the_walk_over_every_rank(bool_chain, name, count):
    spec = get_class(name)
    got = listed(enumerate_class(spec, bool_chain, 4))
    assert len(got) == count
    assert got == listed(enumerate_class(dataclasses.replace(spec, loops_in_filter=None), bool_chain, 4))


def orbit(table, s):
    """Every image of a table over s elements under a permutation."""
    return [tuple(table[p[i] * s + p[j]] for i in range(s) for j in range(s))
            for p in itertools.permutations(range(s))]


@pytest.mark.parametrize("size, s, loops, count", [
    (2, 1, None, 2), (2, 2, None, 10), (2, 3, None, 104), (2, 4, None, 3044),
    # Burnside: the identity fixes size**(s*s) tables, a transposition
    # size**(s*s - s), a 3-cycle 3**3.
    (3, 2, None, (3**4 + 3**2) // 2),
    (4, 2, None, (4**4 + 4**2) // 2),
    (3, 3, None, (3**9 + 3 * 3**5 + 2 * 3**3) // 6),
    # A permutation with c cycles and o orbits on the cells fixes
    # len(loops)**c * size**(o - c) tables whose loops lie in ``loops``.
    (2, 4, (1,), 218), (2, 4, (0,), 218), (3, 2, (2,), 6), (4, 2, (1, 2, 3), 78),
    (3, 3, (1, 2), 1032),
])
def test_orbit_walk_gives_the_least_table_of_each_orbit(size, s, loops, count):
    """Least of its orbit and strictly increasing, so one per orbit; as
    many as there are orbits, so every orbit.  With every rank as a loop
    that pins the list; with fewer, the list is that one's tables whose
    loops lie in ``loops``."""
    reps = list(classes._orbit_representatives(size, s, loops))
    assert len(reps) == count
    assert all(a < b for a, b in zip(reps, reps[1:]))
    assert all(t == min(orbit(t, s)) for t in reps)
    if loops is not None:
        every = classes._orbit_representatives(size, s)
        assert reps == [t for t in every if set(t[::s + 1]) <= set(loops)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["k0", "k1", "k2", "k3"]),
    st.integers(1, 3),
    st.data(),
)
def test_membership_isomorphism_invariant(name, size, data):
    member = {"k0": k0_member, "k1": k1_member, "k2": k2_member, "k3": k3_member}[name]
    elems = [f"e{i}" for i in range(size)]
    values = {
        (a, b): data.draw(st.integers(0, LUK3.size - 1), label=f"{a}<{b}")
        for a in elems for b in elems
    }
    m = binary_structure(LUK3, elems, values)
    perm = data.draw(st.permutations(elems))
    relabeled = rename(m, {e: f"r{p}" for e, p in zip(elems, perm)})
    assert member(m) == member(relabeled)


# Membership by evaluating the class axioms as graded sentences: the
# oracle the rank comparisons of the membership predicates are checked
# against.
_K0_SENTENCES = (
    "forall x (x < x)",
    "forall x forall y forall z (((x < y) & (y < z)) -> (x < z))",
)
_K2_SENTENCES = _K0_SENTENCES + ("forall x forall y ((x < y) | (y < x))",)
_K1_SYMMETRY = "forall x forall y ((x < y) -> (y < x))"


def sentence_member(class_name, m):
    """Membership via closed-formula evaluation, for finite chains.

    Defined for k0, k1, and k2.  The loop condition of k1 compares the
    per-element loop value against the immediate predecessor of the
    filter threshold, which has no symbol in the plain syntax, so that
    one conjunct is folded in semantically.
    """
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
            ch.in_filter(ch.res_table[evaluate(m, loop, {"x": a})][ch.one - 1])
            for a in m.universe
        )
        if not below:
            return False
        sentences = (_K1_SYMMETRY,)
    else:
        raise ValueError(f"no sentence axioms for class {class_name!r}")
    return all(ch.in_filter(evaluate(m, parse_formula(s))) for s in sentences)


@pytest.mark.parametrize("name", ["k0", "k1", "k2"])
def test_sentence_checks_agree_with_pointwise(name, bool_chain, luk3, godel3, u3, luk4):
    member = get_class(name).membership
    for chain in (bool_chain, luk3, godel3, u3, luk4):
        # Three elements give the first transitivity triples of distinct elements.
        for n in (1, 2, 3) if chain in (bool_chain, u3) else (1, 2):
            elems = [f"e{i}" for i in range(n)]
            for vals in itertools.product(range(chain.size), repeat=n * n):
                values = {
                    (elems[i], elems[j]): vals[i * n + j]
                    for i in range(n) for j in range(n)
                }
                m = binary_structure(chain, elems, values)
                assert sentence_member(name, m) == member(m)


def test_sentence_checks_undefined_for_k3(luk3):
    m = binary_structure(luk3, ["a"], {("a", "a"): 2})
    with pytest.raises(ValueError):
        sentence_member("k3", m)


# --- property checks ---


def test_k0_is_an_age_at_desk_scale(bool_chain, luk3):
    spec = get_class("k0")
    for chain in (bool_chain, luk3):
        assert check_hp(spec, chain, 2).ok
        assert check_jep(spec, chain, 2).ok


def k1drop(chain):
    """k1 without its one-vertex type, so without HP."""
    vertex_form = canonical_form(binary_structure(chain, ["v"], {("v", "v"): 0}))

    def membership(m):
        return k1_member(m) and canonical_form(m) != vertex_form

    return ClassSpec("k1drop", membership)


def test_broken_class_hp_counterexample(bool_chain):
    report = check_hp(k1drop(bool_chain), bool_chain, 2)
    assert not report.ok
    assert any("loses membership" in c for c in report.counterexamples)
    # check_hp needs no amalgamator: a capped class keeps HP.
    assert check_hp(ClassSpec("one_edge", at_most_one_edge), bool_chain, 2).ok


def at_most_one_edge(m):
    if not k1_member(m):
        return False
    edges = sum(
        1 for a in m.universe for b in m.universe
        if a < b and m.value("<", a, b) == 1
    )
    return edges <= 1


@pytest.mark.parametrize("make_spec", [k1drop, lambda chain: ClassSpec("one_edge", at_most_one_edge)],
                         ids=["k1drop", "one_edge"])
def test_user_class_enumeration_equals_the_product_reference(bool_chain, make_spec):
    spec = make_spec(bool_chain)
    got = listed(enumerate_class(spec, bool_chain, 3))
    assert got and got == listed(enumerate_reference(spec, bool_chain, 3))


def single_vertex(m):
    return k1_member(m) and len(m.universe) == 1


# Two classes whose amalgamator fails on some instances: ``amalgamate_k1``
# may give an amalgam with two edges, or with two vertices.
ONE_EDGE = ClassSpec("one_edge", at_most_one_edge, amalgamate_k1)
SINGLETONS = ClassSpec("singletons", single_vertex, amalgamate_k1)


def test_amalgamator_failures_are_counterexamples(bool_chain, luk3):
    report = check_ap(ONE_EDGE, bool_chain, 2)
    assert 0 < len(report.counterexamples) < report.checked
    assert report.counterexamples[0].startswith("amalgamator failed on base of type[")
    assert report.render().splitlines()[2] == f"ap: {report.counterexamples[0]}"

    report = check_jep(SINGLETONS, luk3, 1)
    assert len(report.counterexamples) == report.checked > 0
    assert "amalgamator failed on type[0] and type[0]" in report.counterexamples[0]


def test_counterexample_text_is_pinned(bool_chain, luk3):
    """The sha256 of two whole reports with counterexamples, recorded
    from checkers that renamed each instance's second arm through
    ``align_v_formation``: the text now formatted from positions is the
    same."""
    ap = check_ap(ONE_EDGE, bool_chain, 2).render()
    jep = check_jep(SINGLETONS, luk3, 1).render()
    assert ap.splitlines()[2] == ("ap: amalgamator failed on base of type[2] on {x0} into type[2] "
                                  "via [('x0', 'x0')]: result is not an amalgam in the class")
    assert hashlib.sha256(ap.encode()).hexdigest() == (
        "5728ac86faf9b8daf98e78316dce094288c280c20acd5af82851eefda3719d25")
    assert hashlib.sha256(jep.encode()).hexdigest() == (
        "5773e94b96290a020f018cd0f531b76376aaf45071ca7f2fe724501d1399d031")


# (class, chain name, k): k0-k3 at k=2 on the five chains and at k=3 on
# bool, then the two classes whose amalgamator fails.
ORACLE_CASES = ([(name, chain.name, 2) for name in classes.class_names() for chain in FIVE_CHAINS]
                + [(name, "bool", 3) for name in classes.class_names()]
                + [("one_edge", "bool", 2), ("singletons", "luk:3", 1), ("singletons", "bool", 2)])


@pytest.mark.parametrize("prop", ["ap", "jep"])
@pytest.mark.parametrize("name, chain_name, k", ORACLE_CASES)
def test_checkers_equal_the_public_path_reference(prop, name, chain_name, k):
    """``check_ap`` and ``check_jep`` build their instances by position;
    the reference renames and checks each through the public
    ``align_v_formation``.  The whole reports are equal."""
    spec = {"one_edge": ONE_EDGE, "singletons": SINGLETONS}.get(name) or get_class(name)
    chain = chain_named(chain_name)
    check = check_ap if prop == "ap" else check_jep
    assert check(spec, chain, k).render() == reference_report(prop, spec, chain, k).render()


def union_over_shared(v):
    """k1's amalgam, the union with bottom cross pairs, built through the
    public constructor by a user amalgamator that reads the base from
    ``v.shared`` alone and never matches ids."""
    arm1, arm2 = v.arm1, v.arm2
    n1, n2 = len(arm1.universe), len(arm2.universe)
    at = {q: p for p, q in v.shared}
    new = [y for y in range(n2) if y not in at]
    at.update((y, n1 + j) for j, y in enumerate(new))
    size = n1 + len(new)
    table = bytearray([arm1.chain.bot]) * (size * size)
    t1, t2 = arm1.pred_tables[0], arm2.pred_tables[0]
    for x, y in itertools.product(range(n1), repeat=2):
        table[x * size + y] = t1[x * n1 + y]
    for x, y in itertools.product(range(n2), repeat=2):
        table[at[x] * size + at[y]] = t2[x * n2 + y]
    universe = arm1.universe + tuple(arm2.universe[y] for y in new)
    return GradedStructure(arm1.chain, arm1.signature, universe, (bytes(table),))


@pytest.mark.parametrize("spec,chain_name,k", [
    (get_class("k1"), "bool", 3), (get_class("k1"), "luk:3", 2),
    (ONE_EDGE, "bool", 2), (SINGLETONS, "luk:3", 2),
], ids=["k1-bool-3", "k1-luk3-2", "one_edge-bool-2", "singletons-luk3-2"])
def test_a_user_amalgamator_reading_shared_gets_the_builtin_report(spec, chain_name, k):
    """The checkers pass arms with disjoint ids; an amalgamator that reads
    the base from ``VFormation.shared``, as ``ClassSpec`` asks, gets the
    report of ``amalgamate_k1``, counterexamples included."""
    chain = chain_named(chain_name)
    user = dataclasses.replace(spec, amalgamate=union_over_shared)
    for check in (check_ap, check_jep):
        assert check(user, chain, k).render() == check(spec, chain, k).render()


@pytest.mark.parametrize("check", [check_ap, check_jep], ids=["ap", "jep"])
def test_membership_is_asked_once_per_witness_table(check, bool_chain):
    """Within one check a witness whose table an earlier witness had gets
    the kept verdict: a counting class sees one membership call per
    distinct table, and the report of the built-in class."""
    spec = get_class("k0")
    witnesses, asked = {}, []

    def amalgamate(v):
        witness = spec.amalgamate(v)
        # Kept alive, so that no two witnesses share an id.
        witnesses[id(witness)] = witness
        return witness

    def membership(m):
        if id(m) in witnesses:
            asked.append(m.pred_tables)
        return spec.membership(m)

    counting = dataclasses.replace(spec, membership=membership, amalgamate=amalgamate)
    assert check(counting, bool_chain, 3).render() == check(spec, bool_chain, 3).render()
    tables = {w.pred_tables for w in witnesses.values()}
    assert len(asked) == len(set(asked)) == len(tables) < len(witnesses)


def test_witnesses_off_the_checks_chain_are_asked_each_time(bool_chain, luk3):
    off = GradedStructure(luk3, SIG_LT, ("x0",), ((2,),))
    asked = []

    def membership(m):
        if m is off:
            asked.append(m)
            return False
        return k0_member(m)

    report = check_jep(ClassSpec("off", membership, lambda v: off), bool_chain, 2)
    assert len(asked) == report.checked == len(report.counterexamples) > 1


def test_reports_render_deterministically(bool_chain):
    spec = get_class("k1")
    a = check_ap(spec, bool_chain, 2).render()
    b = check_ap(spec, bool_chain, 2).render()
    assert a == b
    assert "no counterexamples" in a


# Chains of one (size, one) that differ in ``conj_table`` and in
# ``zero``, which sits at ``one`` in the second of each pair.  At (2, 1)
# and (3, 1) the residuated chain is unique, so only ``zero`` differs.
SAME_ORDER_AND_ONE = {
    (2, 1): ("bool", uninorm_chain(2, 1, zero=1)),
    (3, 1): ("u3", uninorm_chain(3, 1, zero=1)),
    (3, 2): ("luk:3", uninorm_chain(3, 2, zero=2)),
    (4, 3): ("luk:4", uninorm_chain(4, 3, zero=3)),
}


@pytest.mark.parametrize("point", sorted(SAME_ORDER_AND_ONE), ids=str)
def test_reports_depend_only_on_size_and_one(point):
    """The classes compare ranks with each other and with ``one`` alone,
    so every hp, jep and ap report is the same on both chains, chain
    name aside, and has no counterexample."""
    name, other = SAME_ORDER_AND_ONE[point]
    chain = chain_named(name)
    assert (chain.size, chain.one) == (other.size, other.one) == point
    assert chain.conj_table != other.conj_table or point in {(2, 1), (3, 1)}
    assert chain.zero != other.zero
    for klass in classes.class_names():
        spec = get_class(klass)
        for check in (check_hp, check_jep, check_ap):
            report = check(spec, chain, 2)
            assert report.ok
            assert dataclasses.replace(check(spec, other, 2), chain_name=name) == report


# The hp, jep and ap instances at k=2 of k0-k3 together, on the uninorm
# chain of each (size, one) with size at most 4 and one >= 1: 31,094 in
# all.  At (3, 1), (4, 1) and (4, 2) ``one`` is below the top, so the
# filter holds more than one rank.
CENSUS_INSTANCES = {(2, 1): 185, (3, 1): 2382, (3, 2): 745,
                    (4, 1): 18019, (4, 2): 7338, (4, 3): 2425}


@pytest.mark.parametrize("point", sorted(CENSUS_INSTANCES), ids=str)
def test_size_and_one_census_at_k2(point):
    chain = uninorm_chain(*point)
    checked = 0
    for klass in classes.class_names():
        for check in (check_hp, check_jep, check_ap):
            report = check(get_class(klass), chain, 2)
            assert report.ok, report.render()
            checked += report.checked
    assert checked == CENSUS_INSTANCES[point]


@pytest.mark.parametrize("chain", FIVE_CHAINS + tuple(uninorm_chain(*p) for p in sorted(CENSUS_INSTANCES)),
                         ids=lambda c: c.name)
def test_loop_flag_agrees_with_membership(chain):
    """The one-element structure with loop r is a member exactly when
    the class's ``loops_in_filter`` admits r; with hereditariness, every
    loop of a member is admitted, so the walk of the admitted loops loses
    no member."""
    for name in classes.class_names():
        spec = get_class(name)
        for r in chain.ranks():
            single = GradedStructure(chain, SIG_LT, ("x0",), ((r,),))
            assert spec.membership(single) == ((r >= chain.one) == spec.loops_in_filter), (name, r)
