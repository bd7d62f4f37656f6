"""Chain constructors, axiom validation, and the residuation law."""

import itertools
import random

import pytest

from gradedmodels import algebra
from gradedmodels.algebra import (
    Chain,
    boolean_chain,
    chain_from_text,
    chain_to_text,
    make_godel,
    make_lukasiewicz,
    resolve_chain,
)
from gradedmodels.errors import ChainTableError, FileFormatError

from conftest import U3_ROWS, chain_named


def res_by_scan(chain, a, c):
    """Independent oracle: largest b with a*b <= c, by direct scan."""
    best = None
    for b in range(chain.size):
        if chain.conj_table[a][b] <= c:
            best = b
    return best


def test_boolean_chain_forced():
    ch = make_lukasiewicz(2)
    assert ch.conj_table[1][1] == 1
    assert ch.conj_table[1][0] == 0
    assert ch.one == 1 and ch.zero == 0


def test_luk3_defining_formula():
    ch = make_lukasiewicz(3)
    assert ch.conj_table[1][1] == max(0, 1 + 1 - 2) == 0
    assert ch.conj_table[2][1] == 1


def test_luk3_res_matches_scan_oracle():
    ch = make_lukasiewicz(3)
    assert res_by_scan(ch, 2, 1) == 1
    assert ch.res_table[2][1] == 1
    for a in ch.ranks():
        for c in ch.ranks():
            assert ch.res_table[a][c] == res_by_scan(ch, a, c)


def test_luk3_res_from_zero_is_top():
    ch = make_lukasiewicz(3)
    for c in ch.ranks():
        assert ch.res_table[0][c] == 2


def test_luk3_filter():
    ch = make_lukasiewicz(3)
    assert ch.in_filter(2)
    assert not ch.in_filter(1)


def test_godel_basics():
    g3 = make_godel(3)
    assert g3.conj_table[2][1] == 1
    assert g3.res_table[2][1] == res_by_scan(g3, 2, 1) == 1
    assert g3.res_table[1][2] == res_by_scan(g3, 1, 2) == 2
    g4 = make_godel(4)
    for a in g4.ranks():
        for c in g4.ranks():
            if a <= c:
                assert g4.res_table[a][c] == g4.top


def test_u3_table_is_valid(u3):
    assert u3.one == 1
    assert u3.res_table[2][1] == res_by_scan(u3, 2, 1) == 0


def test_u3_wrong_one_reports_neutrality():
    with pytest.raises(ChainTableError) as err:
        Chain(3, U3_ROWS, one=2, zero=0)
    assert err.value.axiom == "neutrality"
    # the witness really does violate neutrality of the claimed unit
    a, x = err.value.witness
    assert a == 2 and U3_ROWS[a][x] != x


def test_u3_row_swap_reports_monotonicity():
    rows = [list(r) for r in U3_ROWS]
    rows[2][0], rows[2][1] = rows[2][1], rows[2][0]
    with pytest.raises(ChainTableError) as err:
        Chain(3, rows, one=1, zero=0)
    assert err.value.axiom == "monotonicity"


def test_direct_construction_validates():
    # 1 is not neutral here: 1*0 = 1.
    with pytest.raises(ChainTableError) as err:
        Chain(2, ((1, 1), (1, 1)), 1, 0)
    assert err.value.axiom == "neutrality"
    built = Chain(2, ((0, 0), (0, 1)), 1, 0)
    assert built.res_table == ((1, 1), (0, 1))
    assert built.res_table[1][0] == 0


BOOL_TABLE = [[0, 0], [0, 1]]


@pytest.mark.parametrize("table, one, zero, message", [
    ([[False, False], [False, True]], True, False, "table entry False is not a rank below 2"),
    ([[0, 0], [0, True]], 1, 0, "table entry True is not a rank below 2"),
    (BOOL_TABLE, True, 0, "one=True is not a rank below 2"),
    (BOOL_TABLE, 1, False, "zero=False is not a rank below 2"),
    (BOOL_TABLE, 1.0, 0, "one=1.0 is not a rank below 2"),
    (BOOL_TABLE, 1, 0.0, "zero=0.0 is not a rank below 2"),
    (BOOL_TABLE, "1", 0, "one='1' is not a rank below 2"),
], ids=["bool-table", "one-bool-entry", "bool-one", "bool-zero", "float-one", "float-zero",
        "str-one"])
def test_ranks_are_ints_and_never_bools(table, one, zero, message):
    """A rank is an int and never a bool: ``chain_to_text`` would write a
    bool as ``True`` or ``False``, which ``chain_from_text`` rejects."""
    with pytest.raises(ValueError) as err:
        Chain(2, table, one=one, zero=zero)
    assert str(err.value) == message


@pytest.mark.parametrize("size", [2, 3])
def test_one_at_bottom_is_not_a_chain(size):
    """Every table with ``one`` at bottom is refused: neutrality makes
    top * bottom the top, while residuation needs a * bottom = bottom.
    So ``one`` is at least 1, and the ranks below it are never empty."""
    for flat in itertools.product(range(size), repeat=size * size):
        with pytest.raises(ChainTableError):
            Chain(size, [flat[a * size:(a + 1) * size] for a in range(size)], one=0, zero=0)
    # max is a monotone commutative monoid with neutral bottom: only
    # residuation fails.
    with pytest.raises(ChainTableError) as err:
        Chain(size, [[max(a, b) for b in range(size)] for a in range(size)], one=0, zero=0)
    assert err.value.axiom == "residuation"


def test_too_small_chain_rejected():
    with pytest.raises(ValueError):
        make_lukasiewicz(1)
    with pytest.raises(ValueError):
        make_godel(0)
    with pytest.raises(ValueError):
        Chain(1, [[0]], one=0, zero=0)


def test_out_of_range_rank_rejected(luk3):
    with pytest.raises(ValueError):
        luk3.in_filter(5)


def mini_axiom_failures(size, table, one):
    """Test-side oracle listing every axiom the table actually violates."""
    rng = range(size)
    failed = set()
    if any(table[one][x] != x for x in rng):
        failed.add("neutrality")
    for a in rng:
        for b in range(size - 1):
            if table[a][b] > table[a][b + 1] or table[b][a] > table[b + 1][a]:
                failed.add("monotonicity")
    if any(table[a][b] != table[b][a] for a in rng for b in rng):
        failed.add("commutativity")
    for a in rng:
        for b in rng:
            for c in rng:
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    failed.add("associativity")
    if any(table[a][0] != 0 for a in rng):
        failed.add("residuation")
    return failed


def test_twenty_mutated_tables_rejected_with_correct_axiom(luk4, u3):
    """Mutations of valid tables are rejected naming a genuinely failed axiom."""
    rng = random.Random(20240501)
    bases = [luk4, u3, make_godel(4)]
    rejected = 0
    tried = 0
    while rejected < 20 and tried < 500:
        tried += 1
        base = bases[tried % len(bases)]
        rows = [list(r) for r in base.conj_table]
        i = rng.randrange(base.size)
        j = rng.randrange(base.size)
        delta = rng.choice([-1, 1])
        rows[i][j] = (rows[i][j] + delta) % base.size
        actually_failed = mini_axiom_failures(base.size, rows, base.one)
        if not actually_failed:
            continue
        with pytest.raises(ChainTableError) as err:
            Chain(base.size, rows, one=base.one, zero=base.zero)
        assert err.value.axiom in actually_failed
        rejected += 1
    assert rejected == 20


def associativity_witness_reference(size, table):
    """The first (a, b, c) in lexicographic order with (a*b)*c != a*(b*c), by the cubic loop."""
    for a, b, c in itertools.product(range(size), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return (a, b, c)
    return None


def test_associativity_witness_is_the_first_failing_triple(u3):
    """Symmetric, monotone mutations of valid tables that keep ``one``
    neutral reach the associativity check; the witness it names is the
    first failing triple of the cubic loop."""
    rng = random.Random(20261019)
    bases = [make_lukasiewicz(5), make_godel(5), make_lukasiewicz(9), make_godel(9), u3]
    found = 0
    for tried in range(2000):
        base = bases[tried % len(bases)]
        size, one = base.size, base.one
        rows = [list(r) for r in base.conj_table]
        i, j = sorted(rng.sample([r for r in range(size) if r != one], 2))
        low = max(rows[i][j - 1], rows[i - 1][j] if i else 0)
        high = min(rows[i][j + 1] if j + 1 < size else size - 1,
                   rows[i + 1][j] if i + 1 < size else size - 1)
        rows[i][j] = rows[j][i] = rng.randint(low, high)
        if mini_axiom_failures(size, rows, one) & {"neutrality", "monotonicity", "commutativity"}:
            continue
        witness = associativity_witness_reference(size, rows)
        if witness is None:
            continue
        with pytest.raises(ChainTableError) as err:
            Chain(size, rows, one=one, zero=base.zero)
        assert err.value.axiom == "associativity"
        assert err.value.witness == witness
        found += 1
    assert found >= 20


@pytest.mark.parametrize("maker", [
    lambda: make_lukasiewicz(2),
    lambda: make_lukasiewicz(3),
    lambda: make_lukasiewicz(4),
    lambda: make_lukasiewicz(6),
    lambda: make_godel(3),
    lambda: make_godel(4),
    lambda: make_godel(6),
    lambda: Chain(3, U3_ROWS, one=1, zero=0),
])
def test_adjunction_all_triples(maker):
    ch = maker()
    for a in ch.ranks():
        for b in ch.ranks():
            for c in ch.ranks():
                assert (ch.conj_table[a][b] <= c) == (b <= ch.res_table[a][c])


@pytest.mark.parametrize("maker", [
    lambda: make_lukasiewicz(4),
    lambda: make_godel(4),
    lambda: Chain(3, U3_ROWS, one=1, zero=0),
])
def test_res_reflexivity_and_order_law(maker):
    ch = maker()
    for a in ch.ranks():
        assert ch.res_table[a][a] >= ch.one
        for b in ch.ranks():
            assert (a <= b) == ch.in_filter(ch.res_table[a][b])


def test_linearity_sanity(u3, luk4):
    for ch in (u3, luk4):
        one = ch.one
        for a in ch.ranks():
            for b in ch.ranks():
                lhs = max(min(ch.res_table[a][b], one), min(ch.res_table[b][a], one))
                assert lhs == one


@pytest.mark.parametrize("n", [2, 3, 5])
def test_builtin_chains_roundtrip_through_validator(n):
    for built in (make_lukasiewicz(n), make_godel(n)):
        again = Chain(built.size, built.conj_table, one=built.one, zero=built.zero)
        assert again.conj_table == built.conj_table
        assert again.res_table == built.res_table


def test_chain_file_is_validated_once(tmp_path, u3, monkeypatch):
    path = tmp_path / "u3.chain"
    path.write_text(chain_to_text(u3), encoding="utf-8")
    calls = []
    check = algebra._find_axiom_failure
    monkeypatch.setattr(algebra, "_find_axiom_failure", lambda *a: calls.append(a) or check(*a))
    assert resolve_chain(str(path)) == u3
    assert chain_from_text(chain_to_text(u3)) == u3
    assert len(calls) == 2


def test_named_chains_are_built_once_and_files_on_every_read(tmp_path, u3):
    assert resolve_chain("luk:256") is resolve_chain("luk:256") is make_lukasiewicz(256)
    assert resolve_chain("godel:5") is make_godel(5)
    assert resolve_chain("bool") is boolean_chain() is make_lukasiewicz(2)
    path = tmp_path / "u3.chain"
    path.write_text(chain_to_text(u3), encoding="utf-8")
    first, second = resolve_chain(str(path)), resolve_chain(str(path))
    assert first == second and first is not second


def test_chain_file_roundtrip(tmp_path, u3):
    text = chain_to_text(u3)
    assert chain_from_text(text) == u3
    path = tmp_path / "u3.chain"
    path.write_text(text, encoding="utf-8")
    loaded = resolve_chain(str(path))
    assert loaded == u3
    assert loaded.name == str(path)


def test_chain_file_rejects_garbage(u3):
    text = chain_to_text(u3) + "0 0 0\n"
    with pytest.raises(FileFormatError):
        chain_from_text(text)
    with pytest.raises(FileFormatError):
        chain_from_text("chain broken\n")
    with pytest.raises(FileFormatError):
        chain_from_text("chain x 2 one=1 zero=0\n0 0\n0 x\n")


def test_resolve_chain_refs():
    assert resolve_chain("bool").size == 2
    assert resolve_chain("luk:4").conj_table[3][3] == 3
    assert resolve_chain("godel:3").conj_table[2][1] == 1
    with pytest.raises(FileFormatError):
        resolve_chain("luk:x")
    with pytest.raises(FileFormatError):
        resolve_chain("no-such-chain")
    for ref in ("luk:1", "godel:0"):
        with pytest.raises(FileFormatError, match="^chain size must be at least 2, got"):
            resolve_chain(ref)


# --- at most 256 ranks: one rank per byte ---

TOO_WIDE = "^chain size must be at most 256, got "


@pytest.fixture
def no_tables(monkeypatch):
    """Every table the algebra module builds or scans walks a ``range``:
    with ``range`` gone from the module, building one raises."""
    def no_range(*args):
        raise AssertionError("a chain table was built")
    monkeypatch.setattr(algebra, "range", no_range, raising=False)


def test_the_cap_is_one_rank_per_byte():
    assert algebra.MAX_RANKS == 256
    assert chain_named("luk:256").top == 255


def test_chain_rejects_257_ranks_before_reading_its_table():
    class Unread:
        def __iter__(self):
            raise AssertionError("the table was read")

    with pytest.raises(ValueError, match=TOO_WIDE + "257$"):
        Chain(257, Unread(), one=256, zero=0)


@pytest.mark.parametrize("make", [make_lukasiewicz, make_godel], ids=["luk", "godel"])
def test_makers_reject_257_ranks_before_building_a_row(make, no_tables):
    for n in (257, 1500, 100000):
        with pytest.raises(ValueError, match=TOO_WIDE + f"{n}$"):
            make(n)


@pytest.mark.parametrize("ref", ["luk:257", "godel:257", "godel:1500", "godel:100000"])
def test_resolve_chain_rejects_more_than_256_ranks_at_once(ref, no_tables):
    with pytest.raises(FileFormatError, match=TOO_WIDE + ref.partition(":")[2] + "$"):
        resolve_chain(ref)


def test_chain_files_reject_257_ranks_before_reading_a_row(tmp_path, no_tables):
    text = "chain w 257 one=256 zero=0\nnot a row\n"
    with pytest.raises(FileFormatError, match=TOO_WIDE + "257$"):
        chain_from_text(text)
    path = tmp_path / "w.chain"
    path.write_text(text)
    with pytest.raises(FileFormatError, match=TOO_WIDE + "257$"):
        resolve_chain(str(path))
