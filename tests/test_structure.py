"""Substructures, embeddings, canonical forms, ages, unions, file format."""

import itertools
import random

import pytest

from gradedmodels.errors import FileFormatError, NotAChainError
from gradedmodels.logic import Signature
from gradedmodels.structure import (
    Morphism,
    age,
    binary_structure,
    canonical_form,
    find_embeddings,
    free_union,
    generated_substructure,
    is_embedding,
    is_isomorphic,
    is_substructure,
    make_structure,
    rename,
    restrict,
    structure_from_text,
    structure_to_text,
    union_of_chain,
)

from test_logic import fold_oracle, random_qf_formula, random_structure


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
    assert is_embedding(Morphism(m, m, {"a": "a", "b": "b"}))


def test_constant_map_is_not_embedding(luk3):
    m = binary_structure(luk3, ["a", "b"], {}, default=1)
    assert not is_embedding(Morphism(m, m, {"a": "a", "b": "a"}))


def test_atomic_mismatch_is_not_embedding(luk3):
    m = binary_structure(luk3, ["a"], {("a", "a"): 2})
    n = binary_structure(luk3, ["b"], {("b", "b"): 1})
    assert not is_embedding(Morphism(m, n, {"a": "b"}))


def test_vertex_into_edge_pair_two_embeddings(bool_chain):
    vertex = binary_structure(bool_chain, ["v"], {("v", "v"): 0})
    pair = edge_graph(bool_chain, [("a", "b")], ["a", "b"])
    found = find_embeddings(vertex, pair)
    assert len(found) == 2
    assert [m.mapping["v"] for m in found] == ["a", "b"]


def test_rigid_structure_has_only_identity(luk3):
    m = binary_structure(
        luk3, ["a", "b"],
        {("a", "a"): 0, ("b", "b"): 1, ("a", "b"): 2, ("b", "a"): 0},
    )
    found = find_embeddings(m, m)
    assert len(found) == 1
    assert found[0].mapping == {"a": "a", "b": "b"}


def test_source_larger_than_target_no_embeddings(bool_chain):
    m = binary_structure(bool_chain, ["a", "b"], {}, default=0)
    n = binary_structure(bool_chain, ["x"], {}, default=0)
    assert find_embeddings(m, n) == []


def brute_force_embeddings(m, n):
    out = []
    for subset in itertools.permutations(n.universe, len(m.universe)):
        mapping = dict(zip(m.universe, subset))
        if is_embedding(Morphism(m, n, mapping)):
            out.append(mapping)
    return out


def test_find_embeddings_complete_vs_brute_force(luk3):
    rng = random.Random(777)
    for _ in range(40):
        m = random_structure(rng, luk3, rng.randint(1, 3))
        n = random_structure(rng, luk3, rng.randint(1, 3))
        got = sorted(tuple(sorted(e.mapping.items())) for e in find_embeddings(m, n))
        want = sorted(tuple(sorted(e.items())) for e in brute_force_embeddings(m, n))
        assert got == want


def test_isomorphic_relabeling(luk3):
    rng = random.Random(31)
    m = random_structure(rng, luk3, 3)
    relabeled = rename(m, {"e0": "p", "e1": "q", "e2": "r"})
    mor = is_isomorphic(m, relabeled)
    assert mor is not None and is_embedding(mor)
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


SIG_F = Signature(predicates=(("P", 1),), functions=(("f", 1),))


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
    lambda ch: make_structure(ch, ["a"], {}, signature=SIG_F, default=0),
    lambda ch: make_structure(ch, ["a"], {}, signature=SIG_F, default=0,
                              functions={"f": {("a",): "z"}}),
], ids=["duplicate-id", "empty-id", "space-in-id", "equals-in-id", "rank-minus-one",
        "rank-chain-size", "rank-not-int", "missing-value", "unknown-tuple",
        "missing-function-table", "function-value-outside"])
def test_constructor_rejects_bad_input(build, luk3):
    with pytest.raises(ValueError):
        build(luk3)


def test_structures_hash_by_value(luk3):
    a = binary_structure(luk3, ["a", "b"], {("a", "b"): 2}, default=0, name="first")
    b = binary_structure(luk3, ["a", "b"], {("a", "b"): 2}, default=0, name="second")
    assert a == b and hash(a) == hash(b)
    assert len({a, b, rename(a, {"a": "c"})}) == 2


def test_generated_substructure_relational_is_induced(luk3):
    m = binary_structure(luk3, ["a", "b"], {}, default=1)
    g = generated_substructure(m, ["a"])
    assert g.universe == ("a",)


def test_generated_substructure_function_closure(luk3):
    sig = Signature(predicates=(("P", 1),), functions=(("f", 1),))
    m = make_structure(
        luk3, ["a", "b", "c"],
        {("P", (e,)): 0 for e in "abc"},
        signature=sig,
        functions={"f": {("a",): "b", ("b",): "b", ("c",): "a"}},
    )
    g = generated_substructure(m, ["a"])
    assert set(g.universe) == {"a", "b"}
    assert generated_substructure(m, ["a", "b", "c"]).universe == m.universe


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


def test_union_of_chain(bool_chain):
    one = binary_structure(bool_chain, ["a"], {}, default=0)
    two = edge_graph(bool_chain, [("a", "b")], ["a", "b"])
    three = edge_graph(bool_chain, [("a", "b")], ["a", "b", "c"])
    assert union_of_chain([one]) is one
    assert union_of_chain([one, two]) is two
    assert union_of_chain([one, two, three]) is three
    broken = binary_structure(bool_chain, ["a"], {("a", "a"): 1})
    with pytest.raises(NotAChainError) as err:
        union_of_chain([broken, two, three])
    assert err.value.index == 0


def test_free_union_two_loops(luk3):
    m1 = binary_structure(luk3, ["a"], {("a", "a"): 2})
    m2 = binary_structure(luk3, ["b"], {("b", "b"): 2})
    u = free_union(m1, m2, 0)
    assert u.value("<", "a", "b") == 0
    assert u.value("<", "b", "a") == 0
    assert u.value("<", "a", "a") == 2


def test_free_union_with_empty_part(luk3):
    m1 = binary_structure(luk3, ["a"], {("a", "a"): 2})
    empty = binary_structure(luk3, [], {})
    u = free_union(m1, empty, 0)
    assert u.universe == ("a",)
    assert u == m1


def test_free_union_cross_top_and_renaming(luk3):
    m1 = binary_structure(luk3, ["a"], {("a", "a"): 1})
    m2 = binary_structure(luk3, ["a"], {("a", "a"): 0})
    u = free_union(m1, m2, luk3.top)
    assert len(u.universe) == 2
    other = [e for e in u.universe if e != "a"][0]
    assert u.value("<", "a", other) == 2


def test_free_union_rejects_functions(luk3):
    sig = Signature(predicates=(("P", 1),), functions=(("f", 1),))
    m = make_structure(luk3, ["a"], {("P", ("a",)): 0}, signature=sig,
                       functions={"f": {("a",): "a"}})
    with pytest.raises(ValueError):
        free_union(m, m, 0)


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
        assert is_embedding(Morphism(m, n, mapping))
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


def test_structure_file_nonstandard_signature(luk3):
    sig = Signature(predicates=(("R", 1), ("S", 3)))
    m = make_structure(luk3, ["a", "b"], {("R", ("a",)): 2, ("S", ("a", "b", "a")): 1},
                       signature=sig, default=0)
    text = structure_to_text(m)
    assert "predicates R:1 S:3" in text
    assert structure_from_text(text, chain=luk3) == m
