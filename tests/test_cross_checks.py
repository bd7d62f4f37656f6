"""The class checks through a set of positions against reference membership.

``classes._amalgamate`` runs a class's cell check through the amalgam's
new elements only, the second arm's elements that the first arm lacks:
every loop, cell and triple that avoids them lies inside the first arm,
so the check decides membership when the first arm is a member.  The
library's membership runs the same check through every position, so
these tests compare the checks through part of a structure with the
rank loops of ``membership_reference`` instead, on tables whose rest is
a member.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedmodels import classes
from gradedmodels.classes import enumerate_class, get_class
from gradedmodels.errors import AmalgamationError
from gradedmodels.logic import SIG_LT
from gradedmodels.structure import GradedStructure, find_embeddings, restrict

from amalgam_reference import _cross_columns, new_first_arm_positions
from conftest import FIVE_CHAINS, chain_named
from membership_reference import REFERENCE
from test_fraisse import _draw_arm

# A class as ``classes._through`` takes it: whether its loops lie in the
# filter, and its cell check.
THROUGH = {
    "k0": (True, classes._k0_cells_ok),
    "k1": (False, classes._k1_cells_ok),
    "k2": (True, classes._k2_cells_ok),
    "k3": (True, classes._k3_cells_ok),
}


@pytest.mark.parametrize("name", sorted(THROUGH))
@pytest.mark.parametrize("chain", FIVE_CHAINS, ids=lambda c: c.name)
def test_delta_check_agrees_with_membership_on_small_v_formations(name, chain):
    """Exhaustive: every v-formation of members whose union has at most 3
    elements, the empty base included, under every value of its cross
    cells.  Such a union with a cross pair has a base of at most one
    element, so members of size 2 give every arm."""
    spec = get_class(name)
    members = enumerate_class(spec, chain, 2)
    verdicts = set()
    for m1, m2 in itertools.product(members, repeat=2):
        for size in range(len(m1) + 1):
            for subset in itertools.combinations(m1.universe, size):
                base = restrict(m1, subset)
                for g in find_embeddings(base, m2):
                    v = classes.align_v_formation(m1, m2, g)
                    universe, ext2, assemble = classes._amalgam_frame(v)
                    if len(universe) > 3:
                        continue
                    new1 = new_first_arm_positions(v)
                    news = range(len(m1), len(universe))
                    cells = 2 * len(new1) * len(ext2)
                    for combo in itertools.product(chain.ranks(), repeat=cells):
                        columns = _cross_columns(v, new1, ext2, combo)
                        out = GradedStructure(chain, SIG_LT, universe, (assemble(*columns),))
                        verdict = REFERENCE[name](out)
                        assert classes._through(out, news, *THROUGH[name]) == verdict, out.pred_tables
                        verdicts.add(verdict)
    assert verdicts == {True, False}


def _random_member(data, name, chain, n) -> GradedStructure:
    """A random member of the class on n elements."""
    one, top = chain.one, chain.size - 1
    elems = list(range(n))
    if name in ("k0", "k2"):
        order = data.draw(st.permutations(elems)) if name == "k2" else []
        values = _draw_arm(data, chain, elems, {}, order)
    elif name == "k1":
        values = {}
        for a in elems:
            values[(a, a)] = data.draw(st.integers(0, one - 1))
            for c in elems[a + 1:]:
                values[(a, c)] = values[(c, a)] = data.draw(st.integers(0, top))
    else:
        # A strict order along a random permutation, closed transitively,
        # is the cut at ``one`` off the loops.
        order = data.draw(st.permutations(elems))
        above = {(a, c) for i, a in enumerate(order) for c in order[i + 1:]
                 if data.draw(st.booleans())}
        for b in elems:
            for a in elems:
                for c in elems:
                    if (a, b) in above and (b, c) in above:
                        above.add((a, c))
        values = {(a, c): data.draw(st.integers(one, top) if a == c or (a, c) in above
                                    else st.integers(0, one - 1))
                  for a in elems for c in elems}
    table = tuple(values[(a, c)] for a in elems for c in elems)
    return GradedStructure(chain, SIG_LT, tuple(f"e{a}" for a in elems), (table,))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(THROUGH)), st.sampled_from(FIVE_CHAINS), st.data())
def test_delta_check_agrees_with_membership_one_cross_cell_from_a_member(name, chain, data):
    """A random member of up to 7 elements, split into a base and two
    arms' new parts, with one cross cell set to a random value: the
    first arm is still a member, so the check through the second arm's
    new part decides membership."""
    member = REFERENCE[name]
    n = data.draw(st.integers(2, 7))
    m = _random_member(data, name, chain, n)
    assert member(m)
    sides = data.draw(st.lists(st.sampled_from("b12"), min_size=n, max_size=n))
    xs = [p for p, side in enumerate(sides) if side == "1"]
    ys = [q for q, side in enumerate(sides) if side == "2"]
    assume(xs and ys)
    p, q = data.draw(st.sampled_from(xs)), data.draw(st.sampled_from(ys))
    if data.draw(st.booleans()):
        p, q = q, p
    table = list(m.pred_tables[0])
    table[p * n + q] = data.draw(st.integers(0, chain.size - 1))
    out = GradedStructure(chain, SIG_LT, m.universe, (tuple(table),))
    for arm in ("b1", "b2"):
        assert member(restrict(out, [e for e, s in zip(m.universe, sides) if s in arm]))
    assert classes._through(out, ys, *THROUGH[name]) == member(out)


@pytest.mark.parametrize("name", ["luk:12", "luk:256"])
def test_delta_check_past_eight_levels(name):
    """The cuts go eight levels to a pass, up to the 32 passes of the
    widest chain, whose top level is byte 255.  Two chains of three
    amalgamate through their middle element into a member; lowering one
    cross cell by one rank breaks transitivity only at the top level."""
    chain = chain_named(name)
    top = chain.top

    def three(low, mid, high):
        elems = (low, mid, high)
        up = {(low, mid), (mid, high), (low, high)}
        table = tuple(top if a == c or (a, c) in up else 0 for a in elems for c in elems)
        return GradedStructure(chain, SIG_LT, elems, (table,))

    arm1, arm2 = three("a", "m", "b"), three("c", "m", "d")
    v = classes.VFormation(arm1, arm2)
    universe = classes._amalgam_frame(v)[0]
    news = range(len(arm1), len(universe))
    for name in ("k0", "k3"):
        spec = get_class(name)
        out = spec.amalgamate(v)
        assert REFERENCE[name](out) and spec.membership(out)
        assert out.value("<", "a", "d") == top and out.value("<", "d", "a") == 0
        bad = list(out.pred_tables[0])
        bad[out.positions["a"] * len(universe) + out.positions["d"]] = top - 1
        broken = GradedStructure(chain, SIG_LT, out.universe, (tuple(bad),))
        assert not REFERENCE[name](broken) and not spec.membership(broken)
        assert not classes._through(broken, news, *THROUGH[name])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(THROUGH)), st.sampled_from(FIVE_CHAINS), st.data())
def test_check_through_news_agrees_with_membership_when_the_rest_is_a_member(name, chain, data):
    """A random member of up to 7 elements and a random nonempty set of
    positions ``news``, with up to three cells that touch ``news``, loops
    included, set to random ranks: the rest still restricts to a member,
    so the check through ``news`` decides membership."""
    n = data.draw(st.integers(1, 7))
    m = _random_member(data, name, chain, n)
    news = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    table = list(m.pred_tables[0])
    for _ in range(data.draw(st.integers(0, 3))):
        c, x = data.draw(st.sampled_from(news)), data.draw(st.integers(0, n - 1))
        cell = c * n + x if data.draw(st.booleans()) else x * n + c
        table[cell] = data.draw(st.integers(0, chain.size - 1))
    out = GradedStructure(chain, SIG_LT, m.universe, (tuple(table),))
    rest = [e for p, e in enumerate(m.universe) if p not in news]
    assert not rest or REFERENCE[name](restrict(out, rest))
    assert classes._through(out, news, *THROUGH[name]) == REFERENCE[name](out)


@pytest.mark.parametrize("name", sorted(THROUGH))
@pytest.mark.parametrize("chain", [FIVE_CHAINS[0], FIVE_CHAINS[1], FIVE_CHAINS[3]],
                         ids=lambda c: c.name)
def test_check_through_news_agrees_with_membership_one_cell_from_a_member(name, chain):
    """Exhaustive: every member of three elements, every nonempty set of
    positions ``news`` and every rank in every one cell that touches
    ``news``, loops included."""
    verdicts = set()
    for m in enumerate_class(get_class(name), chain, 3):
        if len(m) < 3:
            continue
        for size in (1, 2, 3):
            for news in itertools.combinations(range(3), size):
                for a, c in itertools.product(range(3), repeat=2):
                    if a not in news and c not in news:
                        continue
                    for rank in chain.ranks():
                        table = bytearray(m.pred_tables[0])
                        table[a * 3 + c] = rank
                        out = GradedStructure(chain, SIG_LT, m.universe, (bytes(table),))
                        verdict = REFERENCE[name](out)
                        assert classes._through(out, news, *THROUGH[name]) == verdict
                        verdicts.add(verdict)
    assert verdicts == {True, False}


def _all_structures(chain, n):
    elems = tuple(f"y{i}" for i in range(n))
    for table in itertools.product(chain.ranks(), repeat=n * n):
        yield GradedStructure(chain, SIG_LT, elems, (table,))


@pytest.mark.parametrize("name", sorted(THROUGH))
@pytest.mark.parametrize("chain", FIVE_CHAINS, ids=lambda c: c.name)
def test_amalgamator_rejects_every_small_non_member_second_arm(name, chain):
    """Exhaustive: every non-member second arm of at most two elements,
    against every member first arm of at most two, over every base that
    leaves the second arm at least one new element."""
    spec = get_class(name)
    members = enumerate_class(spec, chain, 2)
    rejected = 0
    for arm2 in itertools.chain(_all_structures(chain, 1), _all_structures(chain, 2)):
        if REFERENCE[name](arm2):
            continue
        for m1 in members:
            for size in range(min(len(m1), len(arm2) - 1) + 1):
                for subset in itertools.combinations(m1.universe, size):
                    for g in find_embeddings(restrict(m1, subset), arm2):
                        with pytest.raises(AmalgamationError):
                            spec.amalgamate(classes.align_v_formation(m1, arm2, g))
                        rejected += 1
    assert rejected


@pytest.mark.parametrize("name", sorted(THROUGH))
@pytest.mark.parametrize("chain", FIVE_CHAINS, ids=lambda c: c.name)
def test_second_arm_inside_the_base_gives_the_first_arm(name, chain):
    """A second arm that lies inside the first, as in ``check_ap``'s
    instances over a whole member, adds no element: the amalgam has the
    first arm's table and is a member, the check through no position
    passes, and membership still rejects the empty structure."""
    spec = get_class(name)
    count = 0
    for m1 in enumerate_class(spec, chain, 3):
        for size in range(1, len(m1) + 1):
            for subset in itertools.combinations(m1.universe, size):
                out = spec.amalgamate(classes.VFormation(m1, restrict(m1, subset)))
                assert out.universe == m1.universe and out.pred_tables == m1.pred_tables
                assert spec.membership(out)
                count += 1
    assert count
    empty = GradedStructure(chain, SIG_LT, (), (b"",))
    assert classes._through(empty, (), *THROUGH[name])
    assert not spec.membership(empty) and not REFERENCE[name](empty)
