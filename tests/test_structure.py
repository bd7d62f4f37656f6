"""Substructures, embeddings, canonical forms, ages, file format."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmodels import structure as structure_module
from gradedmodels.algebra import boolean_chain, chain_from_text, resolve_chain
from gradedmodels.classes import VFormation, enumerate_class, get_class
from gradedmodels.errors import BudgetError, ChainTableError, FileFormatError
from gradedmodels.logic import SIG_LT, Signature, evaluate, parse_formula
from gradedmodels.structure import (
    GradedStructure,
    age,
    binary_structure,
    canonical_form,
    find_embeddings,
    is_isomorphic,
    is_substructure,
    make_structure,
    rename,
    restrict,
    structure_from_text,
    structure_to_text,
)
from gradedmodels.structure import _iso_keys, _pull, _rank_masks

from age_reference import age_reference
from conftest import FIVE_CHAINS, chain_named
from test_logic import SIG_P_LT_R, fold_oracle, random_qf_formula, random_structure


def edge_graph(chain, spec_pairs, elems, on=None):
    on = chain.top if on is None else on
    values = {}
    for a, b in spec_pairs:
        values[(a, b)] = on
        values[(b, a)] = on
    return binary_structure(chain, elems, values, default=chain.bot)


def test_induced_substructure_true(luk3):
    n = binary_structure(
        luk3, ["a", "b"],
        {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 1},
    )
    m = restrict(n, ["a"])
    assert is_substructure(m, n)
    assert m.value("<", "a", "a") == 2


def test_perturbed_value_breaks_substructure(luk3):
    n = binary_structure(
        luk3, ["a", "b"],
        {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 1},
    )
    m = binary_structure(luk3, ["a"], {("a", "a"): 1})
    assert not is_substructure(m, n)


def test_substructure_requires_same_chain(luk3, godel3):
    m = binary_structure(luk3, ["a"], {("a", "a"): 0})
    n = binary_structure(godel3, ["a"], {("a", "a"): 0})
    with pytest.raises(ValueError):
        is_substructure(m, n)


def test_identity_is_embedding(luk3):
    m = binary_structure(luk3, ["a", "b"], {}, default=1)
    assert is_embedding(m, m, {"a": "a", "b": "b"})


def test_constant_map_is_not_embedding(luk3):
    m = binary_structure(luk3, ["a", "b"], {}, default=1)
    assert not is_embedding(m, m, {"a": "a", "b": "a"})


def test_atomic_mismatch_is_not_embedding(luk3):
    m = binary_structure(luk3, ["a"], {("a", "a"): 2})
    n = binary_structure(luk3, ["b"], {("b", "b"): 1})
    assert not is_embedding(m, n, {"a": "b"})


def test_vertex_into_edge_pair_two_embeddings(bool_chain):
    vertex = binary_structure(bool_chain, ["v"], {("v", "v"): 0})
    pair = edge_graph(bool_chain, [("a", "b")], ["a", "b"])
    found = find_embeddings(vertex, pair)
    assert len(found) == 2
    assert [f["v"] for f in found] == ["a", "b"]


@pytest.mark.parametrize("limit", [0, -1])
def test_find_embeddings_limit_below_one_finds_none(bool_chain, limit):
    vertex = binary_structure(bool_chain, ["v"], {("v", "v"): 0})
    pair = edge_graph(bool_chain, [("a", "b")], ["a", "b"])
    assert find_embeddings(vertex, pair, limit=limit) == []
    assert find_embeddings(vertex, pair, fixed={"v": "b"}, limit=limit) == []


def test_rigid_structure_has_only_identity(luk3):
    m = binary_structure(
        luk3, ["a", "b"],
        {("a", "a"): 0, ("b", "b"): 1, ("a", "b"): 2, ("b", "a"): 0},
    )
    found = find_embeddings(m, m)
    assert len(found) == 1
    assert found[0] == {"a": "a", "b": "b"}


def test_source_larger_than_target_no_embeddings(bool_chain):
    m = binary_structure(bool_chain, ["a", "b"], {}, default=0)
    n = binary_structure(bool_chain, ["x"], {}, default=0)
    assert find_embeddings(m, n) == []


def is_embedding(m, n, f):
    """Whether the id map f is an embedding of m into n, checked tuple by
    tuple through ``value``: the reference that ``find_embeddings`` is
    tested against."""
    assert m.chain == n.chain and m.signature == n.signature
    if set(f) != set(m.universe):
        return False
    images = [f[e] for e in m.universe]
    if len(set(images)) != len(images) or not set(images) <= set(n.universe):
        return False
    return all(m.value(name, *t) == n.value(name, *(f[e] for e in t))
               for name, arity in m.signature.predicates
               for t in itertools.product(m.universe, repeat=arity))


def brute_force_embeddings(m, n):
    out = []
    for subset in itertools.permutations(n.universe, len(m.universe)):
        mapping = dict(zip(m.universe, subset))
        if is_embedding(m, n, mapping):
            out.append(mapping)
    return out


def test_find_embeddings_complete_vs_brute_force(luk3):
    rng = random.Random(777)
    for _ in range(40):
        m = random_structure(rng, luk3, rng.randint(1, 3))
        n = random_structure(rng, luk3, rng.randint(1, 3))
        got = sorted(tuple(sorted(e.items())) for e in find_embeddings(m, n))
        want = sorted(tuple(sorted(e.items())) for e in brute_force_embeddings(m, n))
        assert got == want


def test_find_embeddings_fixed_vs_brute_force(luk3):
    """Every map of at most two elements as the seed, with an unknown id
    ``zz`` on either side and maps that are not injective among them:
    the result is the brute-force embeddings that extend the seed, and
    with ``limit=1`` the first of them.  Each m is a relabelled induced
    substructure of n, so most seeds extend; on the constant tables
    every map keeps every value, so only injectivity rules seeds out."""
    rng = random.Random(4242)
    cases = []
    for _ in range(30):
        n = random_structure(rng, luk3, rng.randint(1, 4))
        sub = restrict(n, rng.sample(n.universe, rng.randint(1, len(n.universe))))
        cases.append((rename(sub, {e: f"m{i}" for i, e in enumerate(sub.universe)}), n))
    cases.append((binary_structure(luk3, ["a", "b"], {}, default=1),
                  binary_structure(luk3, ["p", "q", "r"], {}, default=1)))
    for m, n in cases:
        every = brute_force_embeddings(m, n)
        assert every
        for size in range(3):
            for sources in itertools.permutations(m.universe + ("zz",), size):
                for targets in itertools.product(n.universe + ("zz",), repeat=size):
                    fixed = dict(zip(sources, targets))
                    want = [f for f in every if fixed.items() <= f.items()]
                    got = find_embeddings(m, n, fixed=fixed)
                    assert sorted(sorted(f.items()) for f in got) == \
                        sorted(sorted(f.items()) for f in want)
                    assert find_embeddings(m, n, fixed=fixed, limit=1) == got[:1]


# One predicate of each arity the search checks its own way: unary
# values and loops before the search, binary atoms by candidate masks,
# arity three at placement.
SIG_MIXED = Signature(predicates=(("R", 1), ("<", 2), ("S", 3)))


def random_signed_structure(rng, chain, signature, size):
    """Every atom of every predicate drawn uniformly from the chain."""
    elems = [f"n{i}" for i in range(size)]
    values = {(p, t): rng.randrange(chain.size)
              for p, arity in signature.predicates
              for t in itertools.product(elems, repeat=arity)}
    return make_structure(chain, elems, values, signature=signature)


def expected_embeddings(m, n, fixed, limit):
    """The brute-force embeddings that extend ``fixed``, in the order
    ``find_embeddings`` promises: lexicographic in the images of fixed's
    keys and then of m's other elements, targets in n's universe order;
    each map lists fixed's keys first, then m's universe order."""
    keys = list(fixed) + [e for e in m.universe if e not in fixed]
    where = n.positions
    every = [f for f in brute_force_embeddings(m, n) if fixed.items() <= f.items()]
    every.sort(key=lambda f: [where[f[e]] for e in keys])
    return [[(e, f[e]) for e in keys] for f in every][:limit]


def assert_embeddings_in_order(m, n, fixed, limit):
    got = find_embeddings(m, n, fixed=fixed, limit=limit)
    assert [list(f.items()) for f in got] == expected_embeddings(m, n, fixed, limit)


@pytest.mark.parametrize("signature", [SIG_LT, SIG_MIXED], ids=["lt", "R1-lt2-S3"])
def test_find_embeddings_order_vs_brute_force(signature, bool_chain, luk3):
    """The result list, not just its set: each m is a relabelled induced
    substructure of n, with two of its atoms perturbed in every other
    case so that some unary, binary and ternary checks fail; every seed
    of at most two elements, and limits None, 1 and 2."""
    rng = random.Random(8080)
    for chain in (bool_chain, luk3):
        for case in range(12):
            n = random_signed_structure(rng, chain, signature, rng.randint(1, 4))
            sub = restrict(n, rng.sample(n.universe, rng.randint(1, len(n.universe))))
            m = rename(sub, {e: f"m{i}" for i, e in enumerate(sub.universe)})
            if case % 2:
                tables = [list(t) for t in m.pred_tables]
                for _ in range(2):
                    table = rng.choice(tables)
                    table[rng.randrange(len(table))] = rng.randrange(chain.size)
                m = GradedStructure(chain, signature, m.universe, tuple(map(tuple, tables)))
            for size in range(3):
                for sources in itertools.permutations(m.universe, size):
                    for targets in itertools.permutations(n.universe, size):
                        for limit in (None, 1, 2):
                            assert_embeddings_in_order(m, n, dict(zip(sources, targets)), limit)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([SIG_LT, SIG_MIXED]), st.integers(0, 2**32 - 1),
       st.integers(5, 7), st.integers(1, 4), st.integers(0, 2))
def test_find_embeddings_order_on_larger_targets(signature, seed, n_size, m_size, seed_size):
    """As above, on targets of five to seven elements over ``bool`` with
    mostly constant tables, so that each m has many embeddings; the seed
    is part of the embedding m came from, so it extends."""
    rng = random.Random(seed)
    chain = boolean_chain()
    elems = [f"n{i}" for i in range(n_size)]
    values = {(p, t): int(rng.random() < 0.25)
              for p, arity in signature.predicates
              for t in itertools.product(elems, repeat=arity)}
    n = make_structure(chain, elems, values, signature=signature)
    sub = restrict(n, rng.sample(elems, m_size))
    m = rename(sub, {e: f"m{i}" for i, e in enumerate(sub.universe)})
    fixed = {f"m{i}": sub.universe[i] for i in rng.sample(range(m_size), min(seed_size, m_size))}
    assert_embeddings_in_order(m, n, fixed, None)
    assert_embeddings_in_order(m, n, fixed, 3)


def test_isomorphic_relabeling(luk3):
    rng = random.Random(31)
    m = random_structure(rng, luk3, 3)
    relabeled = rename(m, {"e0": "p", "e1": "q", "e2": "r"})
    iso = is_isomorphic(m, relabeled)
    assert iso is not None and is_embedding(m, relabeled, iso)
    assert canonical_form(m) == canonical_form(relabeled)


def test_path_vs_triangle(bool_chain):
    path = edge_graph(bool_chain, [("a", "b"), ("b", "c")], ["a", "b", "c"])
    triangle = edge_graph(bool_chain, [("a", "b"), ("b", "c"), ("a", "c")], ["a", "b", "c"])
    assert is_isomorphic(path, triangle) is None
    assert canonical_form(path) != canonical_form(triangle)


def test_value_multiset_difference_not_isomorphic(luk3):
    m = edge_graph(luk3, [("a", "b")], ["a", "b"], on=1)
    n = edge_graph(luk3, [("a", "b")], ["a", "b"], on=2)
    assert is_isomorphic(m, n) is None


def shuffled(rng, m):
    """m with its universe listed in a random order under fresh ids."""
    n = len(m.universe)
    order = rng.sample(range(n), n)
    tables = tuple(_pull(table, order, n, arity)
                   for (_, arity), table in zip(m.signature.predicates, m.pred_tables))
    return GradedStructure(m.chain, m.signature, tuple(f"p{i}" for i in order), tables)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["bool", "luk:3", "u3", "luk:256"]), st.sampled_from([SIG_LT, SIG_P_LT_R]),
       st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 2))
def test_is_isomorphic_is_the_first_map_of_the_unpruned_search(name, signature, seed, size, case):
    """The profile-matched start changes no answer and no first map:
    against a relabelled reordering of n (case 0), the same with two
    entries of a table swapped, which keeps most profiles (case 1), and
    another random structure (case 2).  Sparse tables make profiles
    collide often."""
    rng = random.Random(seed)
    chain = chain_named(name)
    elems = [f"n{i}" for i in range(size)]
    values = {(p, t): rng.randrange(chain.size) if rng.random() < 0.3 else 0
              for p, arity in signature.predicates for t in itertools.product(elems, repeat=arity)}
    n = make_structure(chain, elems, values, signature=signature)
    m = shuffled(rng, n)
    if case == 1 and size:
        tables = [list(t) for t in m.pred_tables]
        table = rng.choice(tables)
        i, j = rng.randrange(len(table)), rng.randrange(len(table))
        table[i], table[j] = table[j], table[i]
        m = GradedStructure(chain, signature, m.universe, tuple(map(tuple, tables)))
    elif case == 2:
        values = {key: rng.randrange(chain.size) if rng.random() < 0.3 else 0 for key in values}
        m = make_structure(chain, elems, values, signature=signature)
    assert is_isomorphic(m, n) == (find_embeddings(m, n, limit=1) or [None])[0]


def test_six_cycle_is_not_two_triangles_though_every_profile_agrees(bool_chain):
    ids = [f"v{i}" for i in range(6)]
    cycle = edge_graph(bool_chain, [(ids[i], ids[(i + 1) % 6]) for i in range(6)], ids)
    triangles = edge_graph(bool_chain, [("v0", "v1"), ("v1", "v2"), ("v2", "v0"),
                                        ("v3", "v4"), ("v4", "v5"), ("v5", "v3")], ids)
    assert set(_iso_keys(cycle)) == set(_iso_keys(triangles)) and len(set(_iso_keys(cycle))) == 1
    assert is_isomorphic(cycle, triangles) is None


def test_canonical_form_sound_on_enumerated_sets(luk3):
    from gradedmodels.classes import enumerate_class, get_class

    pool = list(enumerate_class(get_class("k1"), luk3, 2))
    rng = random.Random(5)
    pool += [random_structure(rng, luk3, 3) for _ in range(12)]
    pool += [rename(pool[-1], {"e0": "z1", "e1": "z0", "e2": "z2"})]
    for a in pool:
        for b in pool:
            same = canonical_form(a) == canonical_form(b)
            assert same == (is_isomorphic(a, b) is not None)


@pytest.mark.parametrize("build", [
    lambda ch: binary_structure(ch, ["a", "a"], {}, default=0),
    lambda ch: binary_structure(ch, ["a", ""], {}, default=0),
    lambda ch: binary_structure(ch, ["a", "b c"], {}, default=0),
    lambda ch: binary_structure(ch, ["a", "b=c"], {}, default=0),
    lambda ch: binary_structure(ch, ["a"], {("a", "a"): -1}),
    lambda ch: binary_structure(ch, ["a"], {("a", "a"): ch.size}),
    lambda ch: binary_structure(ch, ["a"], {("a", "a"): 1.5}),
    lambda ch: binary_structure(ch, ["a", "b"], {("a", "a"): 0}),
    lambda ch: binary_structure(ch, ["a"], {("a", "b"): 0}, default=0),
], ids=["duplicate-id", "empty-id", "space-in-id", "equals-in-id", "rank-minus-one",
        "rank-chain-size", "rank-not-int", "missing-value", "unknown-tuple"])
def test_constructor_rejects_bad_input(build, luk3):
    with pytest.raises(ValueError):
        build(luk3)


@pytest.mark.parametrize("name", ["demo", "k0_3", "a=b", "chain=bool", "\u00e9t\u00e9", "x" * 200])
def test_names_the_constructor_takes_round_trip_through_the_file_format(name, luk3):
    m = binary_structure(luk3, ["a", "b"], {("a", "b"): 2}, default=0, name=name)
    back = structure_from_text(structure_to_text(m), chain=luk3)
    assert back.name == name
    assert structure_to_text(back) == structure_to_text(m)


@pytest.mark.parametrize("name", ["", "my graph", " demo", "demo\n", "a\tb"])
def test_a_name_the_file_format_cannot_read_back_is_rejected(name):
    with pytest.raises(ValueError, match="bad structure name"):
        binary_structure(boolean_chain(), ["a"], {("a", "a"): 1}, name=name)
    with pytest.raises(ValueError, match="bad structure name"):
        GradedStructure(boolean_chain(), SIG_LT, ("a",), (b"\x01",), name=name)


def test_structures_hash_by_value(luk3):
    a = binary_structure(luk3, ["a", "b"], {("a", "b"): 2}, default=0, name="first")
    b = binary_structure(luk3, ["a", "b"], {("a", "b"): 2}, default=0, name="second")
    assert a == b and hash(a) == hash(b)
    assert len({a, b, rename(a, {"a": "c"})}) == 2


def test_age_triangle(bool_chain):
    triangle = edge_graph(bool_chain, [("a", "b"), ("b", "c"), ("a", "c")], ["a", "b", "c"])
    forms = age(triangle, 2)
    vertex = binary_structure(bool_chain, ["v"], {}, default=0)
    pair = edge_graph(bool_chain, [("x", "y")], ["x", "y"])
    assert forms == {canonical_form(vertex), canonical_form(pair)}


def test_age_two_indistinguishable_points(luk3):
    m = binary_structure(luk3, ["a", "b"], {}, default=0)
    assert len(age(m, 1)) == 1


def test_age_at_full_size_gives_all_induced_types(bool_chain):
    path = edge_graph(bool_chain, [("a", "b"), ("b", "c")], ["a", "b", "c"])
    forms = age(path, 5)
    expected = set()
    for size in range(1, 4):
        for subset in itertools.combinations(path.universe, size):
            expected.add(canonical_form(restrict(path, subset)))
    assert forms == expected


def test_qf_reduction_on_random_embeddings(luk3):
    """Atomic preservation carries over to every quantifier-free formula."""
    rng = random.Random(20240805)
    for _ in range(20):
        n = random_structure(rng, luk3, rng.randint(2, 4))
        size = rng.randint(1, len(n.universe))
        chosen = rng.sample(list(n.universe), size)
        sub = restrict(n, chosen)
        fresh = {e: f"m{i}" for i, e in enumerate(sub.universe)}
        m = rename(sub, fresh)
        mapping = {fresh[e]: e for e in sub.universe}
        assert is_embedding(m, n, mapping)
        for _ in range(10):
            f = random_qf_formula(rng)
            assignment = {v: rng.choice(m.universe) for v in ("x", "y", "z")}
            image = {v: mapping[e] for v, e in assignment.items()}
            assert fold_oracle(luk3, m, f, assignment) == fold_oracle(luk3, n, f, image)


def test_substructure_transitive(luk3):
    rng = random.Random(12)
    for _ in range(20):
        o = random_structure(rng, luk3, 4)
        n = restrict(o, rng.sample(list(o.universe), 3))
        m = restrict(n, rng.sample(list(n.universe), 2))
        assert is_substructure(m, n) and is_substructure(n, o)
        assert is_substructure(m, o)


UNARY_TERNARY = Signature(predicates=(("P", 1), ("T", 3)))


def random_wide_structure(chain, size, seed):
    """A structure over a unary and a ternary predicate, each entry rank 0
    or 1, so that restrictions repeat."""
    rng = random.Random(seed)
    tables = tuple(tuple(rng.randrange(2) for _ in range(size ** arity))
                   for _, arity in UNARY_TERNARY.predicates)
    return GradedStructure(chain, UNARY_TERNARY, tuple(f"e{i}" for i in range(size)), tables)


@pytest.mark.parametrize("name", ["bool", "luk:3", "u3", "luk:256"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_age_agrees_with_the_subset_by_subset_reference(name, k):
    chain = chain_named(name)
    for seed in range(3):
        m = random_wide_structure(chain, 5, seed)
        assert age(m, k) == age_reference(m, k)
    path = edge_graph(chain, [("a", "b"), ("b", "c")], ["a", "b", "c", "d"])
    assert age(path, k) == age_reference(path, k)


def test_age_over_its_subset_cap_fails_before_any_work(luk3, monkeypatch):
    m = binary_structure(luk3, [f"v{i}" for i in range(200)], default=0)
    assert len(age(m, 2)) == 2  # 20,100 subsets
    monkeypatch.setattr(structure_module, "_pull", None)
    with pytest.raises(BudgetError, match="cap"):
        age(m, 4)


def test_structure_file_roundtrip(luk3):
    m = binary_structure(
        luk3, ["a", "b", "c"],
        {("a", "b"): 2, ("b", "a"): 2, ("a", "a"): 1},
        default=0, name="demo",
    )
    text = structure_to_text(m)
    back = structure_from_text(text, chain=luk3)
    assert back == m
    assert back.name == "demo"
    assert structure_to_text(back) == text


def test_structure_file_resolves_chain_ref(tmp_path):
    text = "structure g chain=luk:3\nelements a b\ndefault 0\n< a b = 2\n"
    m = structure_from_text(text)
    assert m.chain.size == 3
    assert m.value("<", "a", "b") == 2
    assert m.value("<", "b", "a") == 0


def test_structure_file_rejects_bad_input(luk3):
    with pytest.raises(FileFormatError):
        structure_from_text("structure g chain=luk:3\nelements a\n< a a = 1\n")  # no default
    with pytest.raises(FileFormatError):
        structure_from_text("structure g chain=luk:3\nelements a\ndefault 0\n< a b = 1\n")
    with pytest.raises(FileFormatError):
        structure_from_text("structure g chain=luk:3\nelements a\ndefault 0\nnonsense\n")
    with pytest.raises(FileFormatError):
        structure_from_text("structure g chain=luk:3\nelements a\ndefault 0\nQ a a = 1\n")


def test_structure_file_chain_reference_is_the_rest_of_the_header(tmp_path):
    path = tmp_path / "a b" / "c3.chain"
    path.parent.mkdir()
    path.write_text("chain c3 3 one=2 zero=0\n0 0 0\n0 0 1\n0 1 2\n")
    m = binary_structure(resolve_chain(str(path)), ["a"], {("a", "a"): 2}, name="g")
    text = structure_to_text(m)
    assert text.startswith(f"structure g chain={path}\n")
    back = structure_from_text(text)
    assert back == m and back.chain.name == str(path)


@pytest.mark.parametrize("header", [
    "predicatesR:1\nelements a\ndefault 0\n",
    "elements a\ndefault 0 7 junk\n",
], ids=["predicates-glued-to-declaration", "default-with-trailing-tokens"])
def test_structure_file_rejects_malformed_header_lines(header):
    with pytest.raises(FileFormatError):
        structure_from_text("structure g chain=luk:3\n" + header)


@pytest.mark.parametrize("text", [
    "structure g chain=luk:3\npredicates R:1 R:2\nelements a\ndefault 0\n",
    "structure g chain=luk:3\npredicates R:0\nelements a\ndefault 0\n",
    "structure g chain=luk:3\nelements a a\ndefault 0\n",
    "structure g chain=bool\nelements a\ndefault 5\n",
    "structure g chain=bool\nelements a\ndefault 0\n< a a = 9\n",
    "structure g chain=luk:1\nelements a\ndefault 0\n",
    "structure g chain=godel:0\nelements a\ndefault 0\n",
    "structure g chain=luk:3 extra\nelements a\ndefault 0\n",
    "structure g chain=bool extra\nelements a\ndefault 0\n",
    "structure g extra chain=luk:3\nelements a\ndefault 0\n",
    "structure chain=luk:3\nelements a\ndefault 0\n",
], ids=["repeated-predicate", "predicate-arity-zero", "repeated-element",
        "default-outside-chain", "value-outside-chain", "one-rank-chain", "no-rank-chain",
        "header-field-after-a-chain-name", "header-field-after-bool", "header-field-before-chain",
        "header-without-name"])
def test_structure_file_errors_are_file_format_errors(text):
    with pytest.raises(FileFormatError):
        structure_from_text(text)


@pytest.mark.parametrize("ref", ["luk:7", "luk:7 junk", "bool junk", "boolean"])
def test_structure_file_header_must_name_the_chain_passed(bool_chain, ref):
    """A chain passed in is not resolved, but the header must still name it."""
    with pytest.raises(FileFormatError, match="names chain"):
        structure_from_text(f"structure g chain={ref}\nelements a\ndefault 0\n", chain=bool_chain)


# A chain file named in a structure header whose table the ``Chain``
# constructor rejects: (file text, message, what ``chain_from_text`` raises).
BAD_CHAIN_FILES = {
    "chain-file-off-the-axioms": ("chain c 2 one=1 zero=0\n1 1\n1 1\n",
                                  "neutrality fails at (1, 0)", ChainTableError),
    "chain-file-one-outside-chain": ("chain c 2 one=5 zero=0\n1 1\n1 1\n",
                                     "one=5 is not a rank below 2", ValueError),
}


@pytest.mark.parametrize("chain_text, message, raw_error", BAD_CHAIN_FILES.values(),
                         ids=BAD_CHAIN_FILES)
def test_structure_file_bad_chain_file_is_file_format_error(tmp_path, chain_text, message,
                                                            raw_error):
    path = tmp_path / "bad.chain"
    path.write_text(chain_text, encoding="utf-8")
    with pytest.raises(FileFormatError, match=re.escape(message)):
        structure_from_text(f"structure g chain={path}\nelements a\ndefault 0\n")
    with pytest.raises(raw_error, match=re.escape(message)) as err:
        chain_from_text(chain_text)
    assert not isinstance(err.value, FileFormatError)


def test_structure_file_rejects_a_second_value_for_a_tuple():
    text = "structure g chain=luk:3\nelements a b\ndefault 0\n< a b = 2\n< a b = 1\n"
    with pytest.raises(FileFormatError, match="< a b = 1"):
        structure_from_text(text)


def test_structure_file_reads_value_lines_before_the_elements_line_is_rejected():
    repeated = "structure g chain=luk:3\nelements a b a\ndefault 0\n< a b = 2\n"
    with pytest.raises(FileFormatError, match="bad elements line: duplicate element id 'a'"):
        structure_from_text(repeated)
    with pytest.raises(FileFormatError, match="bad value line: '< a b'"):
        structure_from_text(repeated + "< a b\n")


@pytest.mark.parametrize("name", ["bool", "luk:3", "luk:256"])
def test_structure_file_roundtrip_of_a_multi_predicate_signature(name):
    chain = chain_named(name)
    sig = Signature(predicates=(("R", 1), ("<", 2), ("S", 3)))
    rng = random.Random(5)
    tables = tuple(tuple(rng.choice((chain.bot, chain.one, chain.top, rng.randrange(chain.size)))
                         for _ in range(4 ** arity)) for _, arity in sig.predicates)
    m = GradedStructure(chain, sig, ("a", "b", "c", "d"), tables, name="wide")
    text = structure_to_text(m)
    back = structure_from_text(text, chain=chain)
    assert back == m and back.name == "wide"
    assert structure_to_text(back) == text


def test_structure_file_nonstandard_signature(luk3):
    sig = Signature(predicates=(("R", 1), ("S", 3)))
    m = make_structure(luk3, ["a", "b"], {("R", ("a",)): 2, ("S", ("a", "b", "a")): 1},
                       signature=sig, default=0)
    text = structure_to_text(m)
    assert "predicates R:1 S:3" in text
    assert structure_from_text(text, chain=luk3) == m


# --- tables ---

@pytest.mark.parametrize("name", [c.name for c in FIVE_CHAINS] + ["luk:256"])
def test_every_table_is_bytes(name):
    """Every way to make a structure stores ``bytes`` tables, a table
    given as a tuple among them."""
    chain = chain_named(name)
    top, bot = chain.top, chain.bot
    m = binary_structure(chain, ["a", "b", "c"], {("a", "b"): top, ("c", "a"): chain.one},
                         default=bot)
    from_tuple = GradedStructure(chain, SIG_LT, ("a", "b"), ((top, bot, chain.one, top),))
    sig = Signature(predicates=(("R", 1), ("<", 2)))
    wide = make_structure(chain, ["a", "b"], {("R", ("a",)): top}, signature=sig, default=bot)
    arm1 = binary_structure(chain, ["a", "b"], {("a", "a"): top, ("b", "b"): top}, default=bot)
    arm2 = binary_structure(chain, ["b", "c"], {("b", "b"): top, ("c", "c"): top}, default=bot)
    made = [
        m, from_tuple, wide, restrict(m, ["a", "c"]), rename(m, {"a": "z"}),
        structure_from_text(structure_to_text(m), chain=chain),
        get_class("k0").amalgamate(VFormation(arm1, arm2)),
        *enumerate_class(get_class("k0"), chain, 1),
    ]
    assert all(type(t) is bytes for s in made for t in s.pred_tables)


BAD_TABLES = {
    "list": lambda size: [0, 0, 0, 0],
    "bytearray": lambda size: bytearray(4),
    "short-tuple": lambda size: (0, 0, 0),
    "long-bytes": lambda size: bytes(5),
    "rank-chain-size": lambda size: (0, 0, 0, size),
    "rank-minus-one": lambda size: (0, 0, 0, -1),
    "rank-float": lambda size: (0, 0, 0, 1.5),
    "rank-str": lambda size: (0, 0, 0, "1"),
    "rank-none": lambda size: (0, 0, 0, None),
    "rank-true": lambda size: (0, 0, 0, True),
    "rank-false": lambda size: (False, 0, 0, 0),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
@pytest.mark.parametrize("name", ["bool", "luk:256"])
def test_constructor_rejects_bad_tables_in_either_container(name, case):
    chain = chain_named(name)
    with pytest.raises(ValueError, match="interpretation of predicate '<'"):
        GradedStructure(chain, SIG_LT, ("a", "b"), (BAD_TABLES[case](chain.size),))


@pytest.mark.parametrize("table", [bytes((0, 0, 0, 2)), (0, 0, 0, 256), bytes((0, 0, 0, 255))],
                         ids=["rank-chain-size", "rank-past-a-byte", "rank-255"])
def test_constructor_rejects_ranks_outside_a_small_chain(table):
    with pytest.raises(ValueError, match="outside 0..1"):
        GradedStructure(boolean_chain(), SIG_LT, ("a", "b"), (table,))


@pytest.mark.parametrize("name", ["bool", "luk:4", "luk:256"])
def test_tuple_and_bytes_input_build_equal_structures(name):
    chain = chain_named(name)
    table = tuple(r % chain.size for r in (255, 0, 1, 2))
    a = GradedStructure(chain, SIG_LT, ("a", "b"), (table,))
    b = GradedStructure(chain, SIG_LT, ("a", "b"), (bytes(table),))
    assert a == b and hash(a) == hash(b)
    assert a.pred_tables == b.pred_tables
    assert canonical_form(a) == canonical_form(b)
    assert list(a.pred_tables[0]) == list(table)


@pytest.mark.parametrize("name", ["luk:3", "luk:256"])
def test_canonical_form_renders_tables_as_tuples(name):
    """The forms are the ``repr`` of tuples of ints, not of ``bytes``, as
    the age digests and defect renderings have always read."""
    chain = chain_named(name)
    m = binary_structure(chain, ["a", "b", "c"],
                         {("a", "b"): 2, ("a", "a"): 1, ("b", "b"): 1, ("c", "a"): 1}, default=0)
    assert canonical_form(m) == b"(3, (0, 0, 1, 0, 1, 0, 0, 2, 1))"
    assert canonical_form(restrict(m, ["b"])) == b"(1, (1,))"
    sig = Signature(predicates=(("P", 1), ("<", 2)))
    m = make_structure(chain, ["a", "b"], {("P", ("a",)): 2, ("<", ("a", "b")): 1},
                       signature=sig, default=0)
    assert canonical_form(m) == b"(2, (0, 2), (0, 0, 1, 0))"


@pytest.mark.parametrize("size", [2, 4, 256])
def test_rank_masks_match_the_place_by_place_reference(size):
    rng = random.Random(size)
    for length in (0, 1, 2, 7, 40, 300):
        line = [rng.randrange(size) for _ in range(length)]
        want = [sum(1 << place for place, v in enumerate(line) if v == rank) for rank in range(size)]
        assert _rank_masks(bytes(line), size) == want


def test_rank_255_round_trips_on_the_widest_chain():
    """Rank 255, the largest a byte holds, is the top of ``luk:256``: it
    survives the file format, renaming, restriction, the embedding search
    and evaluation."""
    chain = chain_named("luk:256")
    ids = ["a", "b", "c", "d"]
    m = binary_structure(chain, ids, {("a", "b"): 255, ("b", "c"): 254, ("c", "a"): 255,
                                      ("d", "d"): 255, ("a", "a"): 128}, default=0)
    text = structure_to_text(m)
    assert "< a b = 255" in text and "< d d = 255" in text
    back = structure_from_text(text)
    assert back == m and back.chain == chain and back.value("<", "a", "b") == 255
    renamed = rename(m, {"a": "z"})
    assert renamed.value("<", "z", "b") == 255 and renamed.pred_tables == m.pred_tables
    part = restrict(m, ["a", "b", "d"])
    assert part.value("<", "a", "b") == part.value("<", "d", "d") == 255
    assert find_embeddings(part, m) == [{"a": "a", "b": "b", "d": "d"}]
    assert is_isomorphic(m, renamed) == {"a": "z", "b": "b", "c": "c", "d": "d"}
    assert evaluate(m, parse_formula("exists x exists y (x < y)")) == 255
    assert evaluate(m, parse_formula("x < y"), {"x": "c", "y": "a"}) == 255
    assert evaluate(m, parse_formula("forall x exists y (x < y)")) == 254
