"""Membership predicates, enumeration counts, and HP/JEP/AP checks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmodels.algebra import make_lukasiewicz
from gradedmodels.classes import (
    ClassSpec,
    check_ap,
    check_hp,
    check_jep,
    enumerate_class,
    get_class,
    k0_member,
    k1_member,
    k2_member,
    k3_member,
    sentence_member,
)
from gradedmodels.errors import BudgetError
from gradedmodels.fraisse import amalgamate_k1
from gradedmodels.logic import SIG_LT
from gradedmodels.structure import binary_structure, canonical_form, rename

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
    assert luk3.res(luk3.meet(2, 1), 2) == 2
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


def test_enumerate_boundaries(bool_chain):
    assert enumerate_class(get_class("k1"), bool_chain, 0) == []
    with pytest.raises(BudgetError):
        enumerate_class(get_class("k1"), bool_chain, 7, budget=10**6)
    with pytest.raises(ValueError):
        enumerate_class(get_class("k1"), bool_chain, -1)


def test_enumeration_cache_keyed_by_spec(bool_chain):
    assert len(enumerate_class(get_class("k1"), bool_chain, 2)) == 3

    def edgeless(m):
        return k1_member(m) and all(
            m.value("<", a, b) == m.chain.bot for a in m.universe for b in m.universe
        )

    # a user class reusing a built-in name gets its own members
    assert len(enumerate_class(ClassSpec("k1", SIG_LT, edgeless), bool_chain, 2)) == 2


def test_enumeration_is_deduplicated_and_member_closed(luk3):
    members = enumerate_class(get_class("k3"), luk3, 2)
    forms = [canonical_form(m) for m in members]
    assert len(set(forms)) == len(forms)
    assert all(k3_member(m) for m in members)
    order = [(len(m.universe), f) for m, f in zip(members, forms)]
    assert order == sorted(order)


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


@pytest.mark.parametrize("name", ["k0", "k1", "k2"])
def test_sentence_checks_agree_with_pointwise(name, bool_chain, luk3, godel3, u3, luk4):
    member = get_class(name).membership
    for chain in (bool_chain, luk3, godel3, u3, luk4):
        for n in (1, 2):
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


def test_broken_class_hp_counterexample(bool_chain):
    vertex_form = canonical_form(binary_structure(bool_chain, ["v"], {("v", "v"): 0}))

    def membership(m):
        return k1_member(m) and canonical_form(m) != vertex_form

    broken = ClassSpec("k1drop", SIG_LT, membership)
    report = check_hp(broken, bool_chain, 2)
    assert not report.ok
    assert any("loses membership" in c.detail for c in report.counterexamples)


def test_jep_counterexample_without_constructor(luk3):
    def membership(m):
        return k1_member(m) and len(m.universe) == 1

    singles = ClassSpec("singletons", SIG_LT, membership)
    report = check_jep(singles, luk3, 1)
    assert not report.ok
    assert report.stats["searched"] == report.checked


def at_most_one_edge(m):
    if not k1_member(m):
        return False
    edges = sum(
        1 for a in m.universe for b in m.universe
        if a < b and m.value("<", a, b) == 1
    )
    return edges <= 1


def test_ap_counterexample_for_capped_class(bool_chain):
    capped = ClassSpec("one_edge", SIG_LT, at_most_one_edge)
    assert check_hp(capped, bool_chain, 2).ok
    report = check_ap(capped, bool_chain, 2)
    assert not report.ok
    assert report.stats["searched"] == report.checked


def test_amalgamator_failures_are_counterexamples(bool_chain, luk3):
    capped = ClassSpec("one_edge", SIG_LT, at_most_one_edge, amalgamate_k1)
    report = check_ap(capped, bool_chain, 2)
    assert not report.ok
    assert report.stats["searched"] == 0
    assert report.stats["constructed"] + len(report.counterexamples) == report.checked
    assert report.counterexamples[0].detail.startswith("amalgamator failed on base of type[")

    def single_vertex(m):
        return k1_member(m) and len(m.universe) == 1

    singles = ClassSpec("singletons", SIG_LT, single_vertex, amalgamate_k1)
    report = check_jep(singles, luk3, 1)
    assert report.stats == {"constructed": 0, "searched": 0}
    assert len(report.counterexamples) == report.checked
    assert "amalgamator failed on type[0] and type[0]" in report.counterexamples[0].detail


def test_reports_render_deterministically(bool_chain):
    spec = get_class("k1")
    a = check_ap(spec, bool_chain, 2).render()
    b = check_ap(spec, bool_chain, 2).render()
    assert a == b
    assert "no counterexamples" in a
