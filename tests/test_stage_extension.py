"""Amalgams built as extensions of their first arm, against fresh builds.

``classes._amalgamate`` builds an amalgam without validating it again,
with its ``positions`` extended from the first arm's and its cut lines
carried from the first arm's cache; ``rename`` shares its source's
tables and caches.  It checks the amalgam through its new elements
alone, the second arm's elements that the first arm lacks, reading the
carried lines of every position they meet.  These tests compare what is
carried with what a fresh, validated structure on the same table
builds, and the check through the new elements and membership that
read carried lines with the rank loops of ``membership_reference``.
Both are coded by one helper, so the fresh lines are also checked cell
by cell against the table, and a counted constructor shows that no
derived structure is validated again.
"""

import itertools
import random

import pytest

from gradedmodels import classes
from gradedmodels.classes import (
    ClassSpec,
    align_v_formation,
    check_ap,
    check_hp,
    enumerate_class,
    get_class,
    k0_member,
    verify_amalgam,
)
from gradedmodels.fraisse import build_limit, random_weighted_graph
from gradedmodels.logic import SIG_LT
from gradedmodels.structure import (
    GradedStructure,
    age,
    binary_structure,
    find_embeddings,
    fresh_names,
    id_supply,
    rename,
    restrict,
    structure_from_text,
    structure_to_text,
)

from conftest import FIVE_CHAINS, chain_named
from membership_reference import REFERENCE
from test_structure import SIG_MIXED, random_signed_structure

NAMES = ("k0", "k1", "k2", "k3")


def fresh(m: GradedStructure) -> GradedStructure:
    """m rebuilt by the validating constructor, with no cache."""
    return GradedStructure(m.chain, m.signature, m.universe, m.pred_tables, name=m.name)


def assert_carried_is_fresh(out: GradedStructure) -> None:
    """The positions and every cached cut line of ``out`` are those built
    from its table."""
    assert out.positions == {e: i for i, e in enumerate(out.universe)}
    again = fresh(out)
    assert again == out
    for code, lines in out._derived.get("cut lines", {}).items():
        assert lines == classes._cut_lines(again, code)


def level_groups(chain) -> list[tuple[int, ...]]:
    """The level groups of the cell checks: k0's levels above bottom,
    eight at a time, and k3's ``(one,)``."""
    levels = tuple(range(1, chain.size))
    return [levels[g:g + 8] for g in range(0, len(levels), 8)] + [(chain.one,)]


@pytest.mark.parametrize("chain", list(FIVE_CHAINS) + [chain_named("luk:256")], ids=lambda c: c.name)
def test_fresh_cut_lines_cell_by_cell(chain):
    """The cut lines of a structure without them, against each cell's
    byte read off the table: bit i set when the cell's rank is at least
    the group's i-th level, in byte j of row i and byte i of column j."""
    rng = random.Random(chain.size)
    for n in (1, 2, 5, 9):
        ids = [f"e{i}" for i in range(n)]
        table = bytes(rng.randrange(chain.size) for _ in range(n * n))
        m = GradedStructure(chain, SIG_LT, tuple(ids), (table,))
        for levels in level_groups(chain):
            rows, cols = classes._cut_lines(m, classes._level_code(levels, chain.size))
            assert len(rows) == len(cols) == n
            for i, j in itertools.product(range(n), repeat=2):
                cell = sum(1 << b for b, t in enumerate(levels) if table[i * n + j] >= t)
                assert rows[i] >> 8 * j & 0xFF == cell == cols[j] >> 8 * i & 0xFF
            assert all(line < 1 << 8 * n for line in rows + cols)


def test_derived_structures_are_not_validated_again(luk3, monkeypatch):
    """Only structures from outside the library go through the validating
    constructor: enumeration, the property checks, ``restrict``, ``age``,
    the random graph and a limit build build every structure by
    ``_trusted``."""
    m = binary_structure(luk3, ["a", "b", "c"], {("a", "b"): 2, ("c", "c"): 1}, default=0)
    calls = []
    validate = GradedStructure.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(GradedStructure, "__post_init__", counted)
    for name in NAMES:
        spec = get_class(name)
        enumerate_class(spec, luk3, 2)
        check_hp(spec, luk3, 2)
        check_ap(spec, luk3, 2)
        build_limit(spec, luk3, 2, 2)
    restrict(m, ["a", "c"])
    age(m, 3)
    random_weighted_graph(luk3, 2)
    assert calls == []
    fresh(m)
    assert len(calls) == 1


def recording(spec: ClassSpec, seen: list) -> ClassSpec:
    """``spec`` with an amalgamator that also keeps every (v, amalgam)."""
    def amalgamate(v):
        out = spec.amalgamate(v)
        seen.append((v, out))
        return out
    return ClassSpec(spec.name, spec.membership, amalgamate)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("chain", FIVE_CHAINS, ids=lambda c: c.name)
def test_carried_lines_along_a_limit_build(name, chain):
    """After every event of a two-stage build, the amalgam's carried
    positions and cut lines are the fresh ones.  The reference loops are
    cubic, so they judge the amalgams of at most 40 elements."""
    spec = get_class(name)
    seen = []
    stages, _ = build_limit(recording(spec, seen), chain, 2, 2)
    assert seen and seen[-1][1] is stages[-1]
    for _, out in seen:
        assert_carried_is_fresh(out)
        assert len(out) > 40 or REFERENCE[name](out)
    if name != "k1":
        # The cut lines were carried, not built on first use at the end.
        assert all(out._derived.get("cut lines") for _, out in seen)


def random_chain_of_amalgams(spec, chain, rng, events):
    """A start member and ``events`` amalgams of the current structure
    with random members over random bases, the empty base included."""
    members = enumerate_class(spec, chain, 3 if chain.size == 2 else 2)
    current = rng.choice(members)
    for _ in range(events):
        m2 = rng.choice(members)
        subset = [e for e in m2.universe if rng.random() < 0.5]
        base = restrict(m2, subset)
        found = find_embeddings(base, current)
        if not found:
            continue
        g = rng.choice(found)
        v = align_v_formation(current, m2, {g[b]: b for b in subset})
        out = spec.amalgamate(v)
        yield v, out
        current = out


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("chain", FIVE_CHAINS, ids=lambda c: c.name)
def test_carried_lines_along_random_amalgam_chains(name, chain):
    spec = get_class(name)
    count = 0
    for seed in range(3):
        rng = random.Random(seed)
        for v, out in random_chain_of_amalgams(spec, chain, rng, 12):
            count += 1
            assert_carried_is_fresh(out)
            assert REFERENCE[name](out) and verify_amalgam(spec, v, out)
    assert count >= 12


@pytest.mark.parametrize("name", ["k0", "k2", "k3"])
@pytest.mark.parametrize("chain", FIVE_CHAINS, ids=lambda c: c.name)
def test_membership_on_carried_lines_of_broken_amalgams(name, chain):
    """An amalgam with one cross cell set to a random rank, its cut lines
    carried from the first arm: the check through the new elements and
    membership, both reading the carried lines, agree with the reference
    loops."""
    spec = get_class(name)
    cells_ok = {"k0": classes._k0_cells_ok, "k2": classes._k2_cells_ok,
                "k3": classes._k3_cells_ok}[name]
    verdicts = set()
    for seed in range(4):
        rng = random.Random(seed)
        for v, out in random_chain_of_amalgams(spec, chain, rng, 10):
            n1, n = len(v.arm1), len(out)
            new1 = [p for p in range(n1) if out.universe[p] not in v.arm2.positions]
            if not new1 or n == n1:
                continue
            p, q = rng.choice(new1), rng.randrange(n1, n)
            if rng.random() < 0.5:
                p, q = q, p
            table = bytearray(out.pred_tables[0])
            table[p * n + q] = rng.randrange(chain.size)
            broken = GradedStructure(chain, SIG_LT, out.universe, (bytes(table),))
            classes._carry_cut_lines(v.arm1, broken)
            assert_carried_is_fresh(broken)
            verdict = REFERENCE[name](broken)
            verdicts.add(verdict)
            assert cells_ok(broken, range(n1, n)) == verdict
            assert spec.membership(broken) == verdict
    assert verdicts == {True, False}


def test_carried_lines_on_the_widest_chain():
    """Over 256 ranks the cuts take 32 passes of eight levels, the last
    at byte 255; the carried lines still equal the fresh ones."""
    chain = chain_named("luk:256")
    top = chain.top
    arm1 = binary_structure(chain, ["a", "m"], {("a", "a"): top, ("m", "m"): top,
                                                ("a", "m"): top}, default=0)
    arm2 = binary_structure(chain, ["m", "b"], {("m", "m"): top, ("b", "b"): top,
                                                ("m", "b"): 200}, default=0)
    assert k0_member(arm1) and k0_member(arm2)
    out = classes.amalgamate_k0(classes.VFormation(arm1, arm2))
    assert out._derived["cut lines"]
    assert_carried_is_fresh(out)
    assert out.value("<", "a", "b") == 200 and k0_member(out) and REFERENCE["k0"](out)


def test_amalgam_positions_extend_the_first_arm(luk3):
    spec = get_class("k0")
    members = enumerate_class(spec, luk3, 2)
    v = align_v_formation(members[-1], members[-1], {})
    out = spec.amalgamate(v)
    n1 = len(v.arm1)
    assert out.universe[:n1] == v.arm1.universe
    assert list(out.positions.items())[:n1] == list(v.arm1.positions.items())
    assert out.positions is not v.arm1.positions
    assert_carried_is_fresh(out)


def test_rename_shares_tables_and_caches_but_not_positions(luk3):
    spec = get_class("k0")
    m = enumerate_class(spec, luk3, 2)[-1]
    assert spec.membership not in m._derived
    r = rename(m, {"x0": "p"})
    assert r.universe == ("p", "x1") and r.name == m.name
    assert r.pred_tables is m.pred_tables and r._derived is m._derived
    assert r.positions == {"p": 0, "x1": 1} and m.positions == {"x0": 0, "x1": 1}
    # A cache entry made through either is seen through the other.
    classes._cut_lines(r, classes._level_code(range(1, 3), 3))
    assert m._derived["cut lines"]
    assert r == fresh(r) and hash(r) == hash(fresh(r))


@pytest.mark.parametrize("mapping, message", [
    ({"a": "b"}, "renaming is not injective"),
    ({"a": "z", "b": "z"}, "renaming is not injective"),
    ({"a": "b", "b": "x y"}, "bad element id 'x y'"),
    ({"a": "x y"}, "bad element id 'x y'"),
    ({"b": ""}, "bad element id ''"),
    ({"c": 5}, "bad element id 5"),
    ({"c": None}, "bad element id None"),
    ({"b": "p=q", "a": " "}, "bad element id ' '"),
    ({"a": "z", "c": "q r", "b": "b"}, "bad element id 'q r'"),
], ids=["onto-a-kept-id", "two-onto-one", "injectivity-first", "space", "empty", "int", "none",
        "first-in-universe-order", "kept-ids-unchecked"])
def test_rename_rejects_bad_maps(luk3, mapping, message):
    m = binary_structure(luk3, ["a", "b", "c"], {("a", "b"): 2}, default=0)
    with pytest.raises(ValueError) as info:
        rename(m, mapping)
    assert str(info.value) == message


def test_rename_accepts_swaps_and_unknown_ids(luk3):
    m = binary_structure(luk3, ["a", "b", "c"], {("a", "b"): 2}, default=0)
    assert rename(m, {"a": "b", "b": "a"}).universe == ("b", "a", "c")
    assert rename(m, {"zz": "a"}) == m


def counting(member, calls):
    def counted(m):
        calls.append(m)
        return member(m)
    counted.__name__ = member.__name__
    return counted


@pytest.mark.parametrize("name", NAMES)
def test_enumerated_second_arm_is_not_checked_again(name, luk3, monkeypatch):
    """The amalgamator never calls the membership predicate, on an
    enumerated arm or on a fresh one; ``verify_amalgam`` runs it once,
    on the amalgam."""
    calls = []
    member = counting(getattr(classes, f"{name}_member"), calls)
    monkeypatch.setattr(classes, f"{name}_member", member)
    # The built-in spec holds the predicate itself; this one counts its calls.
    spec = ClassSpec(name, member, get_class(name).amalgamate)
    members = enumerate_class(spec, luk3, 2)
    m1, m2 = members[0], members[-1]
    v = align_v_formation(m1, m2, {})
    calls.clear()
    out = spec.amalgamate(v)
    assert calls == []
    assert verify_amalgam(spec, v, out) and calls == [out]
    calls.clear()
    spec.amalgamate(align_v_formation(m1, fresh(m2), {}))
    assert calls == []


def test_fresh_names_resume_from_a_kept_supply():
    supply = id_supply("n")
    assert fresh_names(2, {"n0", "n2"}, supply) == ["n1", "n3"]
    assert fresh_names(0, set(), supply) == []
    assert fresh_names(2, {"n5"}, supply) == ["n4", "n6"]
    assert fresh_names(1, set(), id_supply("n")) == ["n0"]


def test_limit_build_ids_are_those_of_a_walk_from_n0(bool_chain):
    """Every new id of a build is the least n-id that the stage lacks."""
    stages, _ = build_limit(get_class("k0"), bool_chain, 2, 2)
    for before, after in itertools.pairwise(stages):
        taken = set(before.universe)
        for e in after.universe[len(before):]:
            least = next(f"n{i}" for i in itertools.count() if f"n{i}" not in taken)
            assert e == least
            taken.add(e)


def structure_to_text_reference(m) -> str:
    """The line format, every tuple visited in product order."""
    lines = [f"structure {m.name} chain={m.chain.name}"]
    if m.signature != SIG_LT:
        lines.append("predicates " + " ".join(f"{p}:{a}" for p, a in m.signature.predicates))
    lines.append("elements " + " ".join(m.universe) if m.universe else "elements")
    counts = {}
    for table in m.pred_tables:
        for v in table:
            counts[v] = counts.get(v, 0) + 1
    default = min(sorted(counts, key=lambda v: (-counts[v], v))[:1] or [0])
    lines.append(f"default {default}")
    for (pname, arity), table in zip(m.signature.predicates, m.pred_tables):
        for t, v in zip(itertools.product(m.universe, repeat=arity), table):
            if v != default:
                lines.append(f"{pname} {' '.join(t)} = {v}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("chain", list(FIVE_CHAINS) + [chain_named("luk:256")], ids=lambda c: c.name)
@pytest.mark.parametrize("signature", [SIG_LT, SIG_MIXED], ids=["lt", "R1-lt2-S3"])
def test_structure_to_text_equals_the_tuple_by_tuple_reference(chain, signature):
    rng = random.Random(chain.size)
    for size in (0, 1, 2, 5):
        m = random_signed_structure(rng, chain, signature, size)
        # Skew the ranks so that the default is not always rank 0.
        tables = tuple(type(t)(max(v, rng.randrange(chain.size)) for v in t) for t in m.pred_tables)
        for s in (m, GradedStructure(chain, signature, m.universe, tables)):
            text = structure_to_text(s)
            assert text == structure_to_text_reference(s)
            assert structure_from_text(text, chain=chain) == s
