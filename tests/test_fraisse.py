"""Amalgamation recipes, the stage-wise limit builder, and the verifiers."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedmodels.algebra import boolean_chain, make_from_table, make_godel, make_lukasiewicz
from gradedmodels.classes import (
    ClassSpec,
    check_ap,
    enumerate_class,
    get_class,
    k0_member,
    k1_member,
    k2_member,
    k3_member,
)
from gradedmodels.errors import AmalgamationError, BudgetError
from gradedmodels.fraisse import (
    Transcript,
    VFormation,
    _jep_via_amalgam,
    align_v_formation,
    amalgamate_k0,
    amalgamate_k1,
    amalgamate_k2,
    amalgamate_k3,
    back_and_forth_isomorphism,
    build_limit,
    check_extension_property,
    check_homogeneity,
    check_random_graph_property,
    defect_classes,
    jep_union,
    random_weighted_graph,
    replay_transcript,
    search_amalgam,
)
from gradedmodels.logic import SIG_LT
from gradedmodels.structure import (
    age,
    binary_structure,
    canonical_form,
    find_embeddings,
    is_isomorphic,
    is_substructure,
    rename,
    restrict,
    structure_to_text,
)

from conftest import U3_ROWS
from test_classes import at_most_one_edge, pair
from test_structure import edge_graph


def test_v_formation_validation(bool_chain):
    base = binary_structure(bool_chain, ["c"], {("c", "c"): 0})
    arm1 = edge_graph(bool_chain, [("a", "c")], ["a", "c"])
    arm2 = edge_graph(bool_chain, [("c", "b")], ["c", "b"])
    VFormation(base, arm1, arm2)
    with pytest.raises(ValueError):
        VFormation(base, arm1, edge_graph(bool_chain, [("a", "b")], ["a", "b"]))
    bad_base = binary_structure(bool_chain, ["c"], {("c", "c"): 1})
    with pytest.raises(ValueError):
        VFormation(bad_base, arm1, arm2)


def test_k1_jep_degenerate_two_vertices(bool_chain):
    v1 = binary_structure(bool_chain, ["a"], {("a", "a"): 0})
    v2 = binary_structure(bool_chain, ["b"], {("b", "b"): 0})
    out = _jep_via_amalgam(amalgamate_k1, v1, v2)
    assert len(out.universe) == 2
    assert out.value("<", "a", "b") == 0 and out.value("<", "b", "a") == 0


def test_k1_amalgam_path(bool_chain):
    base = binary_structure(bool_chain, ["c"], {("c", "c"): 0})
    arm1 = edge_graph(bool_chain, [("a", "c")], ["a", "c"])
    arm2 = edge_graph(bool_chain, [("c", "b")], ["c", "b"])
    out = amalgamate_k1(VFormation(base, arm1, arm2))
    assert set(out.universe) == {"a", "b", "c"}
    assert out.value("<", "a", "c") == 1 and out.value("<", "c", "b") == 1
    assert out.value("<", "a", "b") == 0 and out.value("<", "b", "a") == 0
    assert is_substructure(arm1, out) and is_substructure(arm2, out)


def test_k1_amalgam_trivial(bool_chain):
    m = edge_graph(bool_chain, [("a", "b")], ["a", "b"])
    out = amalgamate_k1(VFormation(m, m, m))
    assert out == m


def test_k0_jep_reflexive_singletons(luk3):
    s1 = binary_structure(luk3, ["a"], {("a", "a"): 2})
    s2 = binary_structure(luk3, ["b"], {("b", "b"): 2})
    out = _jep_via_amalgam(amalgamate_k0, s1, s2)
    assert k0_member(out)
    assert out.value("<", "a", "b") == luk3.zero == 0


def test_k0_jep_two_chains(luk3):
    chain2 = binary_structure(
        luk3, ["a", "b"],
        {("a", "a"): 2, ("b", "b"): 2, ("a", "b"): 2, ("b", "a"): 0},
    )
    out = _jep_via_amalgam(amalgamate_k0, chain2, chain2)
    assert len(out.universe) == 4
    assert k0_member(out)


def test_k2_amalgam_trivial(luk3):
    m = pair(luk3, 2, 0)
    out = amalgamate_k2(VFormation(m, m, m))
    assert out == m


def test_k2_amalgam_around_point(bool_chain):
    base = binary_structure(bool_chain, ["a"], {("a", "a"): 1})
    arm1 = binary_structure(
        bool_chain, ["x", "a"],
        {("x", "x"): 1, ("a", "a"): 1, ("x", "a"): 1, ("a", "x"): 0},
    )
    arm2 = binary_structure(
        bool_chain, ["a", "y"],
        {("y", "y"): 1, ("a", "a"): 1, ("a", "y"): 1, ("y", "a"): 0},
    )
    out = amalgamate_k2(VFormation(base, arm1, arm2))
    assert k2_member(out)
    assert out.value("<", "x", "a") == 1 and out.value("<", "a", "y") == 1
    assert out.value("<", "x", "y") == 1 and out.value("<", "y", "x") == 0


def test_k2_amalgam_midpoints_first_arm_first(luk3):
    def two_chain_with(mid):
        return binary_structure(
            luk3, ["a", mid, "b"],
            {
                ("a", "a"): 2, ("b", "b"): 2, (mid, mid): 2,
                ("a", "b"): 2, ("b", "a"): 0,
                ("a", mid): 2, (mid, "a"): 0,
                (mid, "b"): 2, ("b", mid): 0,
            },
        )

    base = pair(luk3, 2, 0)
    out = amalgamate_k2(VFormation(base, two_chain_with("x"), two_chain_with("y")))
    assert len(out.universe) == 4
    assert k2_member(out)
    assert out.value("<", "x", "y") == 2 and out.value("<", "y", "x") == 0


def test_k2_amalgam_tied_elements(bool_chain):
    base = binary_structure(bool_chain, ["a"], {("a", "a"): 1})
    arm1 = binary_structure(
        bool_chain, ["a", "x"],
        {("a", "a"): 1, ("x", "x"): 1, ("a", "x"): 1, ("x", "a"): 1},
    )
    arm2 = binary_structure(
        bool_chain, ["a", "y"],
        {("a", "a"): 1, ("y", "y"): 1, ("a", "y"): 1, ("y", "a"): 1},
    )
    out = amalgamate_k2(VFormation(base, arm1, arm2))
    assert k2_member(out)
    # x and y are both tied with a, so they must end up tied with each other
    assert out.value("<", "x", "y") == 1 and out.value("<", "y", "x") == 1


def test_k2_amalgam_needs_lexicographic_keys(luk3):
    # y is tied with b at level 1 but strictly above it at level 2, x is
    # strictly above b at both: the level-2 positions agree, the level-1
    # ones put y below x, and y must stay below x at level 2 too.
    base = binary_structure(luk3, ["b"], {("b", "b"): 2})
    arm1 = binary_structure(
        luk3, ["b", "x"],
        {("b", "b"): 2, ("x", "x"): 2, ("b", "x"): 2, ("x", "b"): 0},
    )
    arm2 = binary_structure(
        luk3, ["b", "y"],
        {("b", "b"): 2, ("y", "y"): 2, ("b", "y"): 2, ("y", "b"): 1},
    )
    out = amalgamate_k2(VFormation(base, arm1, arm2))
    assert k2_member(out)
    assert out.value("<", "y", "x") == 2 and out.value("<", "x", "y") == 0


def test_k0_amalgam_composes_through_the_base(luk3):
    base = binary_structure(luk3, ["b"], {("b", "b"): 2})
    arm1 = binary_structure(
        luk3, ["x", "b"],
        {("x", "x"): 2, ("b", "b"): 2, ("x", "b"): 1, ("b", "x"): 0},
    )
    arm2 = binary_structure(
        luk3, ["b", "y"],
        {("y", "y"): 2, ("b", "b"): 2, ("b", "y"): 2, ("y", "b"): 0},
    )
    out = amalgamate_k0(VFormation(base, arm1, arm2))
    assert k0_member(out)
    assert out.value("<", "x", "y") == 1 and out.value("<", "y", "x") == 0


RULE_CHAINS = (
    boolean_chain(),
    make_lukasiewicz(3),
    make_godel(3),
    make_from_table(3, U3_ROWS, one=1, zero=0, name="u3"),
    make_lukasiewicz(4),
)


def _draw_arm(data, chain, elems, values, order):
    """Random values on the unset pairs (loops at or above ``one``), the
    pairs along ``order`` raised to ``one``, then the sup-min closure."""
    values = dict(values)
    for a in elems:
        for c in elems:
            if (a, c) not in values:
                low = chain.one if a == c else 0
                values[(a, c)] = data.draw(st.integers(low, chain.size - 1))
    for i, a in enumerate(order):
        for c in order[i + 1:]:
            values[(a, c)] = max(values[(a, c)], chain.one)
    for b in elems:
        for a in elems:
            for c in elems:
                values[(a, c)] = max(values[(a, c)], min(values[(a, b)], values[(b, c)]))
    return values


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["k0", "k2"]), st.sampled_from(RULE_CHAINS), st.data())
def test_k0_k2_rules_on_random_v_formations(name, chain, data):
    """Independently generated arms over a shared base, at most 5 elements
    in all; k2 arms also get a random linear order at level ``one``."""
    n_base = data.draw(st.integers(0, 3))
    low = 0 if n_base else 1
    n1 = data.draw(st.integers(low, 5 - n_base - low))
    n2 = data.draw(st.integers(low, 5 - n_base - n1))
    base = [f"b{i}" for i in range(n_base)]
    elems1 = base + [f"x{i}" for i in range(n1)]
    elems2 = base + [f"y{i}" for i in range(n2)]
    order1 = order2 = []
    if name == "k2":
        order1 = data.draw(st.permutations(elems1))
        order2 = [e for e in order1 if e in base]
        for y in elems2[n_base:]:
            order2.insert(data.draw(st.integers(0, len(order2))), y)
    values1 = _draw_arm(data, chain, elems1, {}, order1)
    fixed = {(a, c): values1[(a, c)] for a in base for c in base}
    values2 = _draw_arm(data, chain, elems2, fixed, order2)
    assume(all(values2[p] == v for p, v in fixed.items()))
    arm1 = binary_structure(chain, elems1, values1)
    arm2 = binary_structure(chain, elems2, values2)
    spec = get_class(name)
    assert spec.membership(arm1) and spec.membership(arm2)
    v = VFormation(restrict(arm1, base), arm1, arm2)
    out = spec.amalgamate(v)
    assert spec.membership(out)
    assert is_substructure(arm1, out) and is_substructure(arm2, out)


def test_k3_amalgam_witness_rule(bool_chain):
    base = binary_structure(bool_chain, ["x"], {("x", "x"): 1})
    arm1 = binary_structure(
        bool_chain, ["a", "x"],
        {("a", "a"): 1, ("x", "x"): 1, ("a", "x"): 1, ("x", "a"): 0},
    )
    arm2 = binary_structure(
        bool_chain, ["x", "b"],
        {("b", "b"): 1, ("x", "x"): 1, ("x", "b"): 1, ("b", "x"): 0},
    )
    out = amalgamate_k3(VFormation(base, arm1, arm2))
    assert out.value("<", "a", "b") == 1 and out.value("<", "b", "a") == 0
    assert k3_member(out)


def test_k3_amalgam_no_witness(bool_chain):
    base = binary_structure(bool_chain, ["x"], {("x", "x"): 1})
    arm1 = binary_structure(
        bool_chain, ["a", "x"],
        {("a", "a"): 1, ("x", "x"): 1, ("a", "x"): 0, ("x", "a"): 0},
    )
    arm2 = binary_structure(
        bool_chain, ["x", "b"],
        {("b", "b"): 1, ("x", "x"): 1, ("x", "b"): 0, ("b", "x"): 0},
    )
    out = amalgamate_k3(VFormation(base, arm1, arm2))
    assert out.value("<", "a", "b") == 0 and out.value("<", "b", "a") == 0


def test_k3_amalgam_degenerate_arm(luk3):
    base = pair(luk3, 2, 0)
    arm2 = binary_structure(
        luk3, ["a", "b", "c"],
        {
            ("a", "a"): 2, ("b", "b"): 2, ("c", "c"): 2,
            ("a", "b"): 2, ("b", "a"): 0,
            ("a", "c"): 1, ("c", "a"): 0, ("b", "c"): 0, ("c", "b"): 0,
        },
    )
    assert k3_member(arm2)
    out = amalgamate_k3(VFormation(base, base, arm2))
    assert is_isomorphic(out, arm2) is not None


@pytest.mark.parametrize("name", ["k0", "k1", "k2", "k3"])
@pytest.mark.parametrize("chain_fixture", ["bool_chain", "luk3"])
def test_amalgamators_verified_on_all_small_v_formations(name, chain_fixture, request):
    """Exhaustive: every v-formation of members of size <= 3 amalgamates
    through the dedicated constructor into a verified member."""
    chain = request.getfixturevalue(chain_fixture)
    spec = get_class(name)
    report = check_ap(spec, chain, 3)
    assert report.ok
    assert report.stats["searched"] == 0
    assert report.stats["constructed"] == report.checked


def test_k3_rule_agrees_with_search_or_both_members(luk3):
    spec = get_class("k3")
    members = enumerate_class(spec, luk3, 2)
    agreements = 0
    for m1 in members:
        for ssize in range(1, len(m1.universe) + 1):
            for subset in itertools.combinations(m1.universe, ssize):
                base = restrict(m1, subset)
                for m2 in members:
                    for g in find_embeddings(base, m2):
                        v = align_v_formation(base, m1, m2, g.mapping)
                        ruled = amalgamate_k3(v)
                        searched = search_amalgam(v, k3_member)
                        assert searched is not None
                        assert k3_member(ruled) and k3_member(searched)
                        if searched == ruled:
                            agreements += 1
                            assert is_isomorphic(ruled, searched) is not None
    assert agreements > 0


def test_jep_union_single_member(luk3):
    m = pair(luk3, 2, 0)
    spec = get_class("k2")
    assert jep_union([m], spec) is m


def test_jep_union_k0_singletons(luk3):
    spec = get_class("k0")
    s1 = binary_structure(luk3, ["a"], {("a", "a"): 2})
    s2 = binary_structure(luk3, ["b"], {("b", "b"): 2})
    out = jep_union([s1, s2], spec)
    assert out.value("<", "a", "b") == 0
    assert k0_member(out)


def test_jep_union_realizes_k1_age(bool_chain):
    spec = get_class("k1")
    members = enumerate_class(spec, bool_chain, 2)
    out = jep_union(members, spec)
    assert age(out, 2) == {canonical_form(m) for m in members}


def test_limit_and_jep_union_need_an_amalgamator(bool_chain):
    capped = ClassSpec("one_edge", SIG_LT, at_most_one_edge)
    with pytest.raises(ValueError):
        build_limit(capped, bool_chain, 1, 2)
    vertex = binary_structure(bool_chain, ["v"], {("v", "v"): 0})
    with pytest.raises(ValueError):
        jep_union([vertex, vertex], capped)


def test_build_limit_zero_stages(bool_chain):
    spec = get_class("k1")
    stages, transcript = build_limit(spec, bool_chain, 0, 2)
    assert len(stages) == 1
    assert transcript.events == []


def test_build_limit_stages_form_substructure_chain(bool_chain):
    spec = get_class("k1")
    stages, _ = build_limit(spec, bool_chain, 3, 2)
    for i in range(len(stages) - 1):
        assert is_substructure(stages[i], stages[i + 1])


def test_build_limit_k1_saturates_budget_two(bool_chain):
    spec = get_class("k1")
    stages, _ = build_limit(spec, bool_chain, 3, 2)
    assert check_extension_property(stages[-1], spec, 2) == []


def test_build_limit_k3_transcript_replays_identically(luk3):
    spec = get_class("k3")
    stages, transcript = build_limit(spec, luk3, 2, 2)
    assert check_extension_property(stages[-1], spec, 2, within=stages[0].universe) == []
    replayed = replay_transcript(Transcript.from_json(transcript.to_json()))
    assert [structure_to_text(s) for s in stages] == [structure_to_text(s) for s in replayed]


def test_build_limit_transcript_json_roundtrip(bool_chain):
    spec = get_class("k1")
    _, transcript = build_limit(spec, bool_chain, 1, 2)
    again = Transcript.from_json(transcript.to_json())
    assert again.to_json() == transcript.to_json()


def test_permuted_runs_mutually_stage_embeddable(bool_chain):
    spec = get_class("k1")
    run_a, _ = build_limit(spec, bool_chain, 3, 2)
    run_b, _ = build_limit(spec, bool_chain, 3, 2, shuffle_seed=7)
    for stage in run_a:
        assert any(find_embeddings(stage, other, limit=1) for other in run_b)
    for stage in run_b:
        assert any(find_embeddings(stage, other, limit=1) for other in run_a)


def edgeless_class():
    def membership(m):
        return k1_member(m) and all(
            m.value("<", a, b) == m.chain.bot for a in m.universe for b in m.universe
        )

    return ClassSpec("edgeless", SIG_LT, membership)


def test_extension_property_zero_defects_on_saturated_structure(bool_chain):
    spec = edgeless_class()
    m = binary_structure(bool_chain, ["a", "b", "c", "d"], {}, default=0)
    assert check_extension_property(m, spec, 2) == []


def test_extension_property_defects_on_tiny_structure(bool_chain):
    spec = get_class("k1")
    single = binary_structure(bool_chain, ["v"], {("v", "v"): 0})
    defects = check_extension_property(single, spec, 2)
    assert defects
    assert all(d.render().startswith("extension defect") for d in defects)


def test_homogeneity_complete_graph(bool_chain):
    complete = edge_graph(bool_chain, [("a", "b"), ("b", "c"), ("a", "c")], ["a", "b", "c"])
    assert check_homogeneity(complete, 2) == []


def test_homogeneity_path_defect_classes(bool_chain):
    path = edge_graph(bool_chain, [("a", "b"), ("b", "c")], ["a", "b", "c"])
    defects = check_homogeneity(path, 1)
    assert len(defects) == 4
    assert len(defect_classes(defects)) == 1
    assert any("a->b" in d.render() for d in defects)


def test_homogeneity_k_zero(bool_chain):
    path = edge_graph(bool_chain, [("a", "b")], ["a", "b"])
    assert check_homogeneity(path, 0) == []


def test_back_and_forth_relabeling(luk3):
    rng = random.Random(8)
    from test_logic import random_structure

    m = random_structure(rng, luk3, 4)
    n = rename(m, {e: f"q{i}" for i, e in enumerate(m.universe)})
    mor = back_and_forth_isomorphism(m, n)
    assert mor is not None
    from gradedmodels.structure import is_embedding

    assert is_embedding(mor)


def test_back_and_forth_path_vs_triangle(bool_chain):
    path = edge_graph(bool_chain, [("a", "b"), ("b", "c")], ["a", "b", "c"])
    triangle = edge_graph(bool_chain, [("a", "b"), ("b", "c"), ("a", "c")], ["a", "b", "c"])
    assert back_and_forth_isomorphism(path, triangle) is None


def test_back_and_forth_agrees_with_is_isomorphic(luk3):
    from test_logic import random_structure

    rng = random.Random(99)
    for _ in range(30):
        m = random_structure(rng, luk3, rng.randint(1, 3))
        n = random_structure(rng, luk3, rng.randint(1, 3))
        assert (back_and_forth_isomorphism(m, n) is None) == (is_isomorphic(m, n) is None)


def test_random_graph_round_one_count(luk3, bool_chain):
    for chain in (bool_chain, luk3):
        g = random_weighted_graph(chain, 1)
        assert len(g.universe) == 1 + chain.size
        assert k1_member(g)


def test_random_graph_round_counts_and_membership(luk3):
    g = random_weighted_graph(luk3, 2)
    round1 = [v for v in g.universe if v.startswith("r1")]
    assert len(round1) == luk3.size
    assert k1_member(g)


def test_random_graph_bool_rado_prefix(bool_chain):
    g = random_weighted_graph(bool_chain, 2)
    assert check_random_graph_property(g, 1, within=["v0"]) == []
    assert any(g.value("<", "v0", w) == 1 for w in g.universe if w != "v0")
    assert any(g.value("<", "v0", w) == 0 for w in g.universe if w != "v0")


def test_random_graph_luk3_no_defects_over_early_rounds(luk3):
    g = random_weighted_graph(luk3, 2)
    early = [v for v in g.universe if not v.startswith("r2")]
    assert check_random_graph_property(g, 1, within=early) == []


def test_random_graph_checker_defects(bool_chain, luk3):
    single = binary_structure(luk3, ["v"], {("v", "v"): 0})
    defects = check_random_graph_property(single, 1)
    assert len(defects) == luk3.size
    complete4 = edge_graph(bool_chain, list(itertools.combinations("abcd", 2)), list("abcd"))
    defects = check_random_graph_property(complete4, 1)
    assert any(d.wanted == (0,) for d in defects)


def test_random_graph_checker_rejects_non_members(luk3):
    not_graph = binary_structure(luk3, ["v"], {("v", "v"): 2})
    with pytest.raises(ValueError):
        check_random_graph_property(not_graph, 1)


def test_random_graph_budget_guards(luk3):
    with pytest.raises(BudgetError):
        random_weighted_graph(luk3, 3)
    g = random_weighted_graph(luk3, 1)
    with pytest.raises(BudgetError):
        check_random_graph_property(g, 3, max_candidates=10)


def test_amalgamate_k1_rejects_arms_outside_the_class(bool_chain):
    loop = binary_structure(bool_chain, ["a"], {("a", "a"): 1})
    with pytest.raises(AmalgamationError):
        amalgamate_k1(VFormation(loop, loop, loop))


def test_search_amalgam_exhausts_capped_class(bool_chain):
    base = binary_structure(bool_chain, ["c"], {("c", "c"): 0})
    arm1 = edge_graph(bool_chain, [("a", "c")], ["a", "c"])
    arm2 = edge_graph(bool_chain, [("c", "b")], ["c", "b"])
    v = VFormation(base, arm1, arm2)
    assert search_amalgam(v, at_most_one_edge) is None
    with pytest.raises(BudgetError):
        search_amalgam(v, at_most_one_edge, cap=1)
