"""Amalgamation recipes, the stage-wise limit builder, and the verifiers."""

import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedmodels import classes
from gradedmodels.classes import (
    ClassSpec,
    VFormation,
    align_v_formation,
    amalgamate_k0,
    amalgamate_k1,
    amalgamate_k2,
    amalgamate_k3,
    check_ap,
    check_hp,
    check_jep,
    enumerate_class,
    get_class,
    k0_member,
    k1_member,
    k2_member,
    k3_member,
    verify_amalgam,
)
from gradedmodels.errors import AmalgamationError, BudgetError, FileFormatError
from gradedmodels.fraisse import (
    Transcript,
    build_limit,
    check_extension_property,
    check_random_graph_property,
    random_weighted_graph,
    replay_transcript,
)
from gradedmodels.logic import SIG_LT
from gradedmodels.structure import (
    GradedStructure,
    binary_structure,
    find_embeddings,
    is_isomorphic,
    is_substructure,
    rename,
    restrict,
    structure_to_text,
)

from amalgam_reference import search_amalgam
from composition_reference import composition_reference
from conftest import FIVE_CHAINS, chain_named, uninorm_chain
from test_classes import at_most_one_edge, pair
from test_structure import edge_graph
from witness_reference import witness_defects_reference


def test_v_formation_validation(bool_chain, luk3):
    arm1 = edge_graph(bool_chain, [("a", "c")], ["a", "c"])
    arm2 = edge_graph(bool_chain, [("c", "b")], ["c", "b"])
    assert VFormation(arm1, arm2).shared == ((1, 0),)
    assert VFormation(arm1, edge_graph(bool_chain, [], ["b"])).shared == ()
    # The arms disagree on the loop at c, and then on the edge a-c.
    with pytest.raises(ValueError):
        VFormation(arm1, binary_structure(bool_chain, ["c", "b"], {("c", "c"): 1}, default=0))
    with pytest.raises(ValueError):
        VFormation(arm1, edge_graph(bool_chain, [], ["c", "a"]))
    with pytest.raises(ValueError):
        VFormation(arm1, edge_graph(luk3, [("c", "b")], ["c", "b"]))


def test_verify_amalgam_reads_the_second_arm_along_shared(bool_chain):
    """A v-formation built by position, as ``check_ap`` builds them: the
    arms hold disjoint ids, and ``shared`` pairs a with p.  The amalgam
    holds arm2 with p read as a; a witness that changes arm2's cell
    (p, q) there fails, though it is a member holding arm1."""
    spec = get_class("k1")
    arm1 = edge_graph(bool_chain, [("a", "b")], ["a", "b"])
    arm2 = edge_graph(bool_chain, [], ["p", "q"])
    v = classes._v_formation(arm1, arm2, ((0, 0),))
    out = spec.amalgamate(v)
    assert out.universe == ("a", "b", "q")
    assert classes.verify_amalgam(spec, v, out)
    tampered = edge_graph(bool_chain, [("a", "b"), ("a", "q")], ["a", "b", "q"])
    assert k1_member(tampered) and is_substructure(arm1, tampered)
    assert not classes.verify_amalgam(spec, v, tampered)


def test_align_v_formation_rejects_bad_embeddings(bool_chain):
    arm1 = edge_graph(bool_chain, [("a", "b")], ["a", "b"])
    arm2 = edge_graph(bool_chain, [("x", "y")], ["x", "y"])
    assert align_v_formation(arm1, arm2, {"a": "x", "b": "y"}).shared == ((0, 0), (1, 1))
    with pytest.raises(ValueError, match="not injective"):
        align_v_formation(arm1, arm2, {"a": "x", "b": "x"})
    with pytest.raises(ValueError, match="'zz' is not an element of the first arm"):
        align_v_formation(arm1, arm2, {"zz": "x"})
    with pytest.raises(ValueError, match="'zz' is not an element of the second arm"):
        align_v_formation(arm1, arm2, {"a": "zz"})


def test_k1_jep_degenerate_two_vertices(bool_chain):
    v1 = binary_structure(bool_chain, ["a"], {("a", "a"): 0})
    v2 = binary_structure(bool_chain, ["b"], {("b", "b"): 0})
    out = amalgamate_k1(align_v_formation(v1, v2, {}))
    assert out.universe == ("a", "n0")
    assert out.value("<", "a", "n0") == 0 and out.value("<", "n0", "a") == 0


def test_k1_amalgam_path(bool_chain):
    arm1 = edge_graph(bool_chain, [("a", "c")], ["a", "c"])
    arm2 = edge_graph(bool_chain, [("c", "b")], ["c", "b"])
    out = amalgamate_k1(VFormation(arm1, arm2))
    assert set(out.universe) == {"a", "b", "c"}
    assert out.value("<", "a", "c") == 1 and out.value("<", "c", "b") == 1
    assert out.value("<", "a", "b") == 0 and out.value("<", "b", "a") == 0
    assert is_substructure(arm1, out) and is_substructure(arm2, out)


def test_k1_amalgam_trivial(bool_chain):
    m = edge_graph(bool_chain, [("a", "b")], ["a", "b"])
    out = amalgamate_k1(VFormation(m, m))
    assert out == m


def test_k0_jep_reflexive_singletons(luk3):
    s1 = binary_structure(luk3, ["a"], {("a", "a"): 2})
    s2 = binary_structure(luk3, ["b"], {("b", "b"): 2})
    out = amalgamate_k0(align_v_formation(s1, s2, {}))
    assert k0_member(out)
    assert out.value("<", "a", "n0") == luk3.zero == 0


def test_k0_jep_two_chains(luk3):
    chain2 = binary_structure(
        luk3, ["a", "b"],
        {("a", "a"): 2, ("b", "b"): 2, ("a", "b"): 2, ("b", "a"): 0},
    )
    out = amalgamate_k0(align_v_formation(chain2, chain2, {}))
    assert len(out.universe) == 4
    assert k0_member(out)


def test_k2_amalgam_trivial(luk3):
    m = pair(luk3, 2, 0)
    out = amalgamate_k2(VFormation(m, m))
    assert out == m


def test_k2_amalgam_around_point(bool_chain):
    arm1 = binary_structure(
        bool_chain, ["x", "a"],
        {("x", "x"): 1, ("a", "a"): 1, ("x", "a"): 1, ("a", "x"): 0},
    )
    arm2 = binary_structure(
        bool_chain, ["a", "y"],
        {("y", "y"): 1, ("a", "a"): 1, ("a", "y"): 1, ("y", "a"): 0},
    )
    out = amalgamate_k2(VFormation(arm1, arm2))
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

    out = amalgamate_k2(VFormation(two_chain_with("x"), two_chain_with("y")))
    assert len(out.universe) == 4
    assert k2_member(out)
    assert out.value("<", "x", "y") == 2 and out.value("<", "y", "x") == 0


def test_k2_amalgam_tied_elements(bool_chain):
    arm1 = binary_structure(
        bool_chain, ["a", "x"],
        {("a", "a"): 1, ("x", "x"): 1, ("a", "x"): 1, ("x", "a"): 1},
    )
    arm2 = binary_structure(
        bool_chain, ["a", "y"],
        {("a", "a"): 1, ("y", "y"): 1, ("a", "y"): 1, ("y", "a"): 1},
    )
    out = amalgamate_k2(VFormation(arm1, arm2))
    assert k2_member(out)
    # x and y are both tied with a, so they must end up tied with each other
    assert out.value("<", "x", "y") == 1 and out.value("<", "y", "x") == 1


def test_k2_amalgam_needs_lexicographic_keys(luk3):
    # y is tied with b at level 1 but strictly above it at level 2, x is
    # strictly above b at both: the level-2 positions agree, the level-1
    # ones put y below x, and y must stay below x at level 2 too.
    arm1 = binary_structure(
        luk3, ["b", "x"],
        {("b", "b"): 2, ("x", "x"): 2, ("b", "x"): 2, ("x", "b"): 0},
    )
    arm2 = binary_structure(
        luk3, ["b", "y"],
        {("b", "b"): 2, ("y", "y"): 2, ("b", "y"): 2, ("y", "b"): 1},
    )
    out = amalgamate_k2(VFormation(arm1, arm2))
    assert k2_member(out)
    assert out.value("<", "y", "x") == 2 and out.value("<", "x", "y") == 0


def test_k0_amalgam_composes_through_the_base(luk3):
    arm1 = binary_structure(
        luk3, ["x", "b"],
        {("x", "x"): 2, ("b", "b"): 2, ("x", "b"): 1, ("b", "x"): 0},
    )
    arm2 = binary_structure(
        luk3, ["b", "y"],
        {("y", "y"): 2, ("b", "b"): 2, ("b", "y"): 2, ("y", "b"): 0},
    )
    out = amalgamate_k0(VFormation(arm1, arm2))
    assert k0_member(out)
    assert out.value("<", "x", "y") == 1 and out.value("<", "y", "x") == 0


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
@given(st.sampled_from(["k0", "k2"]), st.sampled_from(FIVE_CHAINS), st.data())
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
    v = VFormation(arm1, arm2)
    out = spec.amalgamate(v)
    assert spec.membership(out)
    assert is_substructure(arm1, out) and is_substructure(arm2, out)


def test_k3_amalgam_witness_rule(bool_chain):
    arm1 = binary_structure(
        bool_chain, ["a", "x"],
        {("a", "a"): 1, ("x", "x"): 1, ("a", "x"): 1, ("x", "a"): 0},
    )
    arm2 = binary_structure(
        bool_chain, ["x", "b"],
        {("b", "b"): 1, ("x", "x"): 1, ("x", "b"): 1, ("b", "x"): 0},
    )
    out = amalgamate_k3(VFormation(arm1, arm2))
    assert out.value("<", "a", "b") == 1 and out.value("<", "b", "a") == 0
    assert k3_member(out)


def test_k3_amalgam_no_witness(bool_chain):
    arm1 = binary_structure(
        bool_chain, ["a", "x"],
        {("a", "a"): 1, ("x", "x"): 1, ("a", "x"): 0, ("x", "a"): 0},
    )
    arm2 = binary_structure(
        bool_chain, ["x", "b"],
        {("b", "b"): 1, ("x", "x"): 1, ("x", "b"): 0, ("b", "x"): 0},
    )
    out = amalgamate_k3(VFormation(arm1, arm2))
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
    out = amalgamate_k3(VFormation(base, arm2))
    assert is_isomorphic(out, arm2) is not None


@pytest.mark.parametrize("name", ["k0", "k1", "k2", "k3"])
@pytest.mark.parametrize("chain_fixture", ["bool_chain", "luk3"])
def test_amalgamators_verified_on_all_small_v_formations(name, chain_fixture, request):
    """Exhaustive: every v-formation of members of size <= 3 amalgamates
    through the dedicated constructor into a verified member."""
    chain = request.getfixturevalue(chain_fixture)
    spec = get_class(name)
    report = check_ap(spec, chain, 3)
    assert report.ok and report.checked > 0


def ap_v_formations(spec, chain, k):
    """Every v-formation that ``check_ap`` visits at k, in its order."""
    members = enumerate_class(spec, chain, k)
    for m1 in members:
        for ssize in range(1, len(m1.universe) + 1):
            for subset in itertools.combinations(m1.universe, ssize):
                base = restrict(m1, subset)
                for m2 in members:
                    for g in find_embeddings(base, m2):
                        yield align_v_formation(m1, m2, g)


def test_k3_rule_agrees_with_search_or_both_members(luk3):
    agreements = 0
    for v in ap_v_formations(get_class("k3"), luk3, 2):
        ruled = amalgamate_k3(v)
        searched = search_amalgam(v, k3_member)
        assert searched is not None
        assert k3_member(ruled) and k3_member(searched)
        if searched == ruled:
            agreements += 1
            assert is_isomorphic(ruled, searched) is not None
    assert agreements > 0


def test_search_amalgam_exhausts_capped_class(bool_chain):
    arm1 = edge_graph(bool_chain, [("a", "c")], ["a", "c"])
    arm2 = edge_graph(bool_chain, [("c", "b")], ["c", "b"])
    v = VFormation(arm1, arm2)
    assert search_amalgam(v, at_most_one_edge) is None
    # 2 x 5 new elements: 2**20 cross assignments, over the cap
    arm1 = edge_graph(bool_chain, [], ["c", "a0", "a1"])
    arm2 = edge_graph(bool_chain, [], ["c"] + [f"b{i}" for i in range(5)])
    with pytest.raises(BudgetError):
        search_amalgam(VFormation(arm1, arm2), at_most_one_edge)


def assert_composition_is_the_reference(v):
    """Every entry of the column composition, base positions included,
    equals the per-pair reference."""
    ext2 = classes._amalgam_frame(v)[1]
    forward, backward = classes._composition(v, ext2)
    through = composition_reference(v)
    assert len(forward) == len(backward) == len(ext2)
    for y, fcol, bcol in zip(ext2, forward, backward):
        assert len(fcol) == len(bcol) == len(v.arm1)
        assert list(zip(fcol, bcol)) == [through(x, y) for x in range(len(v.arm1))]


@pytest.mark.parametrize("name", ["k0", "k1", "k2", "k3"])
@pytest.mark.parametrize("chain", FIVE_CHAINS, ids=lambda c: c.name)
def test_column_composition_equals_the_per_pair_reference(name, chain):
    spec = get_class(name)
    visited = 0
    for v in ap_v_formations(spec, chain, 2):
        assert_composition_is_the_reference(v)
        visited += 1
    assert visited == check_ap(spec, chain, 2).checked
    # The empty base of joint embedding.
    members = enumerate_class(spec, chain, 2)
    for m1, m2 in itertools.product(members, repeat=2):
        assert_composition_is_the_reference(align_v_formation(m1, m2, {}))


def test_column_composition_on_the_widest_chain():
    """Over 256 ranks the table holds every byte value up to 255."""
    rng = random.Random(5)
    elems = ("a", "b", "c", "d", "p", "q")
    table = tuple(rng.randrange(256) for _ in range(35)) + (255,)
    m = GradedStructure(chain_named("luk:256"), SIG_LT, elems, (table,))
    for base in ([], ["c"], ["c", "d"], ["a", "c", "d"]):
        v = VFormation(restrict(m, ["a", "b", *base]), restrict(m, [*base, "p", "q"]))
        assert len(v.shared) == len(set(base))
        assert_composition_is_the_reference(v)


@pytest.mark.parametrize("run", [
    lambda spec, chain: build_limit(spec, chain, 1, 2),
    lambda spec, chain: check_ap(spec, chain, 2),
    lambda spec, chain: check_jep(spec, chain, 2),
], ids=["build_limit", "check_ap", "check_jep"])
def test_limit_needs_an_amalgamator(bool_chain, run):
    """The guard runs before any enumeration: membership is never asked."""
    def untouched(m):
        raise AssertionError("a candidate was built")

    with pytest.raises(ValueError, match="^class one_edge has no amalgamator$"):
        run(ClassSpec("one_edge", untouched), bool_chain)


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
    defects = check_extension_property(stages[-1], spec, 2)
    assert [d for d in defects if all(b in stages[0].universe for _, b in d.mapping)] == []
    replayed = replay_transcript(Transcript.from_json(transcript.to_json()))
    assert [structure_to_text(s) for s in stages] == [structure_to_text(s) for s in replayed]


def test_build_limit_k3_with_zero_in_the_filter():
    """k3 amalgams send cross pairs below the filter to bottom, not to
    ``zero``, which here is ``one``."""
    chain = uninorm_chain(2, 1, zero=1)
    stages, _ = build_limit(get_class("k3"), chain, 2, 2)
    assert [len(s.universe) for s in stages] == [1, 4, 8]
    assert all(k3_member(s) for s in stages)


def new_elements_moved(v):
    """k0's amalgam of v with the arm's new elements under other ids: it
    holds a copy of the arm, but not the arm itself, and
    ``verify_amalgam`` rejects it."""
    out = get_class("k0").amalgamate(v)
    out = rename(out, {e: e + "m" for e in out.universe[len(v.arm1.universe):]})
    assert not verify_amalgam(get_class("k0"), v, out)
    return out


@pytest.mark.parametrize("amalgamate", [lambda v: v.arm1, new_elements_moved],
                         ids=["first-arm-unchanged", "new-elements-moved"])
def test_an_amalgam_that_does_not_hold_its_arm_fails_its_task(luk3, amalgamate):
    """After each amalgam the builder checks that the aligned arm is a
    substructure of it, where the amalgamator was to put it."""
    k0 = get_class("k0")
    spec = ClassSpec("k0", k0.membership, amalgamate, k0.loops_in_filter)
    with pytest.raises(AmalgamationError, match="^stage 0: amalgam did not satisfy its task$"):
        build_limit(spec, luk3, 1, 2)


def test_build_limit_transcript_json_roundtrip(bool_chain):
    spec = get_class("k1")
    _, transcript = build_limit(spec, bool_chain, 1, 2)
    again = Transcript.from_json(transcript.to_json())
    assert again.to_json() == transcript.to_json()


def test_transcript_of_a_257_rank_chain_is_rejected(bool_chain):
    """The chain of a transcript is checked like any other, size first."""
    _, transcript = build_limit(get_class("k1"), bool_chain, 1, 2)
    payload = json.loads(transcript.to_json())
    payload["chain"].update(name="godel:257", size=257, one=256, conj=[[0] * 257] * 257)
    with pytest.raises(FileFormatError, match="^chain size must be at most 256, got 257$"):
        Transcript.from_json(json.dumps(payload))


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

    return ClassSpec("edgeless", membership)


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
    assert [d for d in check_random_graph_property(g, 1) if set(d.subset) <= {"v0"}] == []
    assert any(g.value("<", "v0", w) == 1 for w in g.universe if w != "v0")
    assert any(g.value("<", "v0", w) == 0 for w in g.universe if w != "v0")


def test_random_graph_luk3_no_defects_over_early_rounds(luk3):
    g = random_weighted_graph(luk3, 2)
    early = [v for v in g.universe if not v.startswith("r2")]
    assert [d for d in check_random_graph_property(g, 1) if set(d.subset) <= set(early)] == []


def test_random_graph_checker_defects(bool_chain, luk3):
    single = binary_structure(luk3, ["v"], {("v", "v"): 0})
    defects = check_random_graph_property(single, 1)
    assert len(defects) == luk3.size
    complete4 = edge_graph(bool_chain, list(itertools.combinations("abcd", 2)), list("abcd"))
    defects = check_random_graph_property(complete4, 1)
    assert any(d.wanted == (0,) for d in defects)


def test_a_negative_k_or_budget_fails_before_any_enumeration(bool_chain):
    def never(m):
        raise AssertionError("membership was asked")

    spec = ClassSpec("never", never, amalgamate_k1)
    for check in (check_hp, check_jep, check_ap):
        with pytest.raises(ValueError, match="^k must be non-negative$"):
            check(spec, bool_chain, -1)
    with pytest.raises(ValueError, match="^budget must be non-negative$"):
        build_limit(spec, bool_chain, 1, -1)
    with pytest.raises(ValueError, match="^budget must be non-negative$"):
        check_extension_property(random_weighted_graph(bool_chain, 1), spec, -1)


def test_random_graph_checker_rejects_non_members(luk3):
    not_graph = binary_structure(luk3, ["v"], {("v", "v"): 2})
    with pytest.raises(ValueError):
        check_random_graph_property(not_graph, 1)


def test_random_graph_checker_rejects_negative_max_x(bool_chain):
    g = random_weighted_graph(bool_chain, 1)
    with pytest.raises(ValueError):
        check_random_graph_property(g, -1)


def test_random_graph_budget_guards(luk3):
    with pytest.raises(BudgetError):
        random_weighted_graph(luk3, 3)
    g = random_weighted_graph(luk3, 2)
    with pytest.raises(BudgetError):
        check_random_graph_property(g, 4)


def random_graph_member(chain, size, seed):
    """A k1 member: a random rank on every edge, the same both ways, and
    a random loop below ``one``."""
    rng = random.Random(seed)
    ids = [f"v{i}" for i in range(size)]
    values = {}
    for i, a in enumerate(ids):
        values[(a, a)] = rng.randrange(chain.one)
        for b in ids[i + 1:]:
            values[(a, b)] = values[(b, a)] = rng.randrange(chain.size)
    return binary_structure(chain, ids, values)


# (chain, vertices, max_x): every max_x from 0 to 3 on the small chains,
# and up to 2 on godel:200, whose 200**3 demands per triple are past the
# cap.  A subset's k**s maps are coded in one byte lane while
# k**s <= 256: on luk:7 pairs are (49 maps) and triples are not (343);
# on luk:16 pairs and on luk:256 single vertices take every byte value,
# and on luk:20 and godel:200 pairs do not fit (400 and 40,000).
WITNESS_CASES = [(c, n, x) for c in ("bool", "luk:3", "u3") for n in (1, 3, 6) for x in range(4)]
WITNESS_CASES += [("godel:200", n, x) for n in (1, 3) for x in range(3)] + [("luk:256", 3, 1)]
WITNESS_CASES += [("luk:7", n, 3) for n in (3, 6)] + [(c, 4, 2) for c in ("luk:16", "luk:20")]


@pytest.mark.parametrize("name, size, max_x", WITNESS_CASES)
def test_random_graph_checker_agrees_with_the_vertex_by_vertex_reference(name, size, max_x):
    """Equal defects in equal order, with X as large as the universe or
    larger, loops off bottom, and defects in every case with 3 or more
    vertices and max_x >= 2.  They include defects at pairs whenever
    fewer vertices lie outside a pair than there are maps on it."""
    chain = chain_named(name)
    for seed in range(3):
        g = random_graph_member(chain, size, seed)
        assert k1_member(g)
        defects = check_random_graph_property(g, max_x)
        assert defects == witness_defects_reference(g, max_x)
        if size >= 3 and max_x >= 2:
            assert defects
        if 2 <= size and size - 2 < chain.size ** 2 and max_x >= 2:
            assert any(len(d.subset) == 2 for d in defects)


@pytest.mark.parametrize("values", [
    {("b", "b"): 1},
    {("a", "b"): 1},
], ids=["loop-in-the-filter", "asymmetric-cell-against-the-base"])
def test_amalgamate_k1_rejects_a_second_arm_whose_new_element_breaks_k1(bool_chain, values):
    """The first arm is a member, as the amalgamator asks; the second arm
    shares its vertex a and adds b, whose loop or cell against a breaks
    k1."""
    vertex = binary_structure(bool_chain, ["a"], default=0)
    assert k1_member(vertex)
    arm2 = binary_structure(bool_chain, ["a", "b"], values, default=0)
    assert not k1_member(arm2)
    with pytest.raises(AmalgamationError):
        amalgamate_k1(VFormation(vertex, arm2))
