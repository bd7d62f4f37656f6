"""The amalgamation cross-cell checks against reference membership.

``classes._amalgamate`` runs a class's cell check over the cross cells
of an amalgam only, which is exact when both arms are members.  The
library's membership runs the same cell check over every cell, so these
tests compare the cross-cell checks with the rank loops of
``membership_reference`` instead, on tables whose arms are members.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedmodels import classes
from gradedmodels.algebra import make_godel, make_lukasiewicz
from gradedmodels.classes import enumerate_class, get_class
from gradedmodels.logic import SIG_LT
from gradedmodels.structure import GradedStructure, find_embeddings, restrict

from amalgam_reference import _cross_columns
from conftest import FIVE_CHAINS
from membership_reference import REFERENCE
from test_fraisse import _draw_arm

CROSS_OK = {
    "k0": classes._k0_cells_ok,
    "k1": classes._k1_cells_ok,
    "k2": classes._k2_cells_ok,
    "k3": classes._k3_cells_ok,
}


@pytest.mark.parametrize("name", sorted(CROSS_OK))
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
                    universe, new1, ext2, assemble = classes._amalgam_frame(v)
                    if len(universe) > 3:
                        continue
                    ys = range(len(m1), len(universe))
                    cells = 2 * len(new1) * len(ext2)
                    for combo in itertools.product(chain.ranks(), repeat=cells):
                        columns = _cross_columns(v, new1, ext2, combo)
                        out = GradedStructure(chain, SIG_LT, universe, (assemble(*columns),))
                        verdict = REFERENCE[name](out)
                        assert CROSS_OK[name](out, new1, ys) == verdict, out.pred_tables
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
@given(st.sampled_from(sorted(CROSS_OK)), st.sampled_from(FIVE_CHAINS), st.data())
def test_delta_check_agrees_with_membership_one_cross_cell_from_a_member(name, chain, data):
    """A random member of up to 7 elements, split into a base and two
    arms' new parts, with one cross cell set to a random value."""
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
    assert CROSS_OK[name](out, xs, ys) == member(out)


@pytest.mark.parametrize("make_chain", [lambda: make_lukasiewicz(12), lambda: make_godel(257)],
                         ids=["luk:12", "godel:257"])
def test_delta_check_past_eight_levels(make_chain):
    """The cuts go eight levels to a pass, and a chain of more than 256
    ranks codes its cells one by one.  Two chains of three amalgamate
    through their middle element into a member; lowering one cross cell
    by one rank breaks transitivity only at the top level."""
    chain = make_chain()
    top = chain.top

    def three(low, mid, high):
        elems = (low, mid, high)
        up = {(low, mid), (mid, high), (low, high)}
        table = tuple(top if a == c or (a, c) in up else 0 for a in elems for c in elems)
        return GradedStructure(chain, SIG_LT, elems, (table,))

    arm1, arm2 = three("a", "m", "b"), three("c", "m", "d")
    v = classes.VFormation(arm1, arm2)
    universe, new1, _, _ = classes._amalgam_frame(v)
    ys = range(len(arm1), len(universe))
    for name in ("k0", "k3"):
        spec = get_class(name)
        out = spec.amalgamate(v)
        assert REFERENCE[name](out) and spec.membership(out)
        assert out.value("<", "a", "d") == top and out.value("<", "d", "a") == 0
        bad = list(out.pred_tables[0])
        bad[out.positions["a"] * len(universe) + out.positions["d"]] = top - 1
        broken = GradedStructure(chain, SIG_LT, out.universe, (tuple(bad),))
        assert not REFERENCE[name](broken) and not spec.membership(broken)
        assert not CROSS_OK[name](broken, new1, ys)
