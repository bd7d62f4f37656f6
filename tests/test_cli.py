"""Command-line output, exit codes, and the limit build/replay round trip."""

import hashlib
import json
import os
import random

import pytest

from gradedmodels.cli import main
from gradedmodels.errors import AmalgamationError, FileFormatError
from gradedmodels.fraisse import Transcript, replay_transcript

from limit_stage3_check import ARGV as STAGE3_ARGV, EXPECTED as STAGE3_SHA256

# Small inputs for the golden runs, written to the working directory.
FILES = {
    "c3.chain": "chain c3 3 one=2 zero=0\n0 0 0\n0 0 1\n0 1 2\n",
    "g.gs": "structure g chain=luk:3\nelements a b c\ndefault 0\n"
            "< a b = 2\n< b a = 2\n< b c = 1\n< c b = 1\n",
    "h.gs": "structure h chain=luk:3\nelements p q r\ndefault 0\n"
            "< q r = 2\n< r q = 2\n< q p = 1\n< p q = 1\n",
    "ab.gs": "structure ab chain=luk:3\nelements a b\ndefault 0\n< a b = 2\n< b a = 2\n",
    "tri.gs": "structure tri chain=luk:3\nelements a b c\ndefault 2\n< a a = 0\n< b b = 0\n< c c = 0\n",
    "path.gs": "structure path chain=bool\nelements a b c\ndefault 0\n"
               "< a b = 1\n< b a = 1\n< b c = 1\n< c b = 1\n",
}

GOLDEN = [
    (["algebra", "show", "bool"], 0,
     "chain bool 2 one=1 zero=0\nconj\n0 0\n0 1\nres\n1 1\n0 1\n"),
    (["algebra", "show", "luk:3", "--format", "tsv"], 0,
     "chain\tluk:3\t3\tone=2\tzero=0\nconj\n0\t0\t0\n0\t0\t1\n0\t1\t2\n"
     "res\n2\t2\t2\n1\t2\t2\n0\t1\t2\n"),
    (["algebra", "validate", "c3.chain"], 0, "valid chain c3 size=3 one=2 zero=0\n"),
    (["eval", "--structure", "g.gs", "--formula", "x < y", "--assign", "x=b,y=c"], 0,
     "value 1\nin_filter no\n"),
    (["eval", "--structure", "g.gs", "--formula", "forall x forall y ((x < y) -> (y < x))",
      "--format", "tsv"], 0, "value\t2\nin_filter\tyes\n"),
    (["iso", "g.gs", "h.gs"], 0, "isomorphic a->r b->q c->p\n"),
    (["iso", "g.gs", "tri.gs"], 1, "not isomorphic\n"),
    (["sub", "ab.gs", "g.gs"], 0, "substructure\n"),
    (["sub", "ab.gs", "h.gs"], 1, "not a substructure\n"),
    (["age", "g.gs", "--k", "2"], 0,
     "types 4\n345a8bde538e\n65f47a153049\n82983e44b87a\n9126441812ee\n"),
    (["enumerate", "--class", "k1", "--chain", "bool", "--max-size", "3", "--count-only"], 0, "7\n"),
    (["enumerate", "--class", "k3", "--chain", "luk:3", "--max-size", "2", "--count-only"], 0, "6\n"),
    (["randgraph", "build", "--chain", "bool", "--rounds", "1"], 0,
     "structure randgraph chain=bool\nelements v0 r1w0 r1w1\ndefault 0\n< v0 r1w1 = 1\n< r1w1 v0 = 1\n"),
    (["randgraph", "check", "--structure", "path.gs", "--max-x", "1"], 1,
     "defects 1\nwitness defect: no vertex matching b:0\n"),
    (["randgraph", "check", "--structure", "tri.gs", "--max-x", "0"], 0, "defects 0\n"),
    (["limit", "check", "--stage", "path.gs", "--class", "k1", "--budget", "2"], 1,
     "defects 2\nextension defect: 9126441812ee into 65f47a153049 at x0->b\n"
     "extension defect: 9126441812ee into 65f47a153049 at x1->b\n"),
    (["limit", "check", "--stage", "g.gs", "--class", "k1", "--budget", "1"], 0, "defects 0\n"),
]


def run(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


def stage_files(folder):
    files = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".gs"):
            with open(os.path.join(folder, name), "rb") as fh:
                files[name] = fh.read()
    return files


def test_check_k0_ap_golden(capsys):
    rc, out = run(["check", "--class", "k0", "--chain", "bool", "--k", "2", "--property", "ap"], capsys)
    assert rc == 0
    assert out == (
        "ap k0 chain=bool k=2\n"
        "checked 54 instances\n"
        "no counterexamples\n"
    )


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_golden_output(argv, code, stdout, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    assert run(argv, capsys) == (code, stdout)


# sha256 of stage002.gs and transcript.json from ``limit build --class k2
# --chain bool --stages 2 --budget 3``, recorded before the embedding
# search kept candidate sets.
K2_BOOL_BUDGET3_SHA256 = {
    "stage002.gs": "8516d3d016e1a71356b55e43acc8d0638a246ace3d173c5fbf3baa43be4bb8c4",
    "transcript.json": "ce627ca37f032890a1c12ba17862f79c97fc6b1f1c4807823d7cfb82ff32175e",
}


def test_limit_build_k2_and_replay(tmp_path, capsys):
    built, replayed = tmp_path / "built", tmp_path / "replayed"
    rc, out = run(["limit", "build", "--class", "k2", "--chain", "bool", "--stages", "2",
                   "--budget", "3", "--out", str(built)], capsys)
    assert rc == 0
    assert out.splitlines()[2:] == ["stage0 1", "stage1 14", "stage2 54"]
    for name, digest in K2_BOOL_BUDGET3_SHA256.items():
        assert hashlib.sha256((built / name).read_bytes()).hexdigest() == digest
    rc, out = run(["limit", "replay", "--transcript", str(built / "transcript.json"),
                   "--out", str(replayed)], capsys)
    assert (rc, out) == (0, "stages 3\n")
    assert len(stage_files(built)) == 3
    assert stage_files(built) == stage_files(replayed)


def graph_text(name, ids, weights):
    lines = [f"structure {name} chain=luk:3", "elements " + " ".join(ids), "default 0"]
    lines += [f"< {a} {b} = {weights[i][j]}" for i, a in enumerate(ids)
              for j, b in enumerate(ids) if weights[i][j]]
    return "\n".join(lines) + "\n"


def write_iso_pair(folder, seed, size):
    """A random symmetric loopless ``luk:3`` graph and a relabelled copy.

    The copy lists the image of the first vertex last, so a search that
    places the first vertex first tries every other target before the
    right one."""
    rng = random.Random(seed)
    w = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            w[i][j] = w[j][i] = rng.randrange(3)
    perm = list(range(size))
    rng.shuffle(perm)
    order = list(range(1, size)) + [0]
    (folder / "g.gs").write_text(graph_text("g", [f"v{i}" for i in range(size)], w))
    (folder / "h.gs").write_text(graph_text("h", [f"u{perm[i]}" for i in order],
                                            [[w[i][j] for j in order] for i in order]))


# sha256 of the ``iso`` standard output for ``write_iso_pair(seed=1, size=40)``,
# recorded before the embedding search kept candidate sets.
ISO_40_SHA256 = "a091115a32af98d6b190bb452770cbb3af30b5ce4bd2aafd2a14d5e69f8be825"


@pytest.mark.parametrize("text_b, message", [
    ("structure b chain=bool\nelements x\ndefault 0\n", "valued on different chains"),
    ("structure b chain=bool\nelements x y\ndefault 0\n", "valued on different chains"),
    ("structure b chain=luk:3\npredicates R:1\nelements x\ndefault 0\n", "different signatures"),
], ids=["other-chain-other-size", "other-chain-same-size", "other-signature-other-size"])
def test_iso_of_incomparable_structures_is_an_error(text_b, message, tmp_path, capsys):
    (tmp_path / "a.gs").write_text("structure a chain=luk:3\nelements a b\ndefault 0\n")
    (tmp_path / "b.gs").write_text(text_b)
    rc = main(["iso", str(tmp_path / "a.gs"), str(tmp_path / "b.gs")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_iso_relabelled_random_graph_digest(tmp_path, capsys):
    write_iso_pair(tmp_path, seed=1, size=40)
    rc, out = run(["iso", str(tmp_path / "g.gs"), str(tmp_path / "h.gs")], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ISO_40_SHA256


# sha256 of stage002.gs from ``limit build --chain luk:4 --stages 2 --budget 2``,
# recorded when every amalgam was still checked with full class membership.
LUK4_STAGE2_SHA256 = {
    "k0": "219de15f97c4f46f1ac96e45ecfe8fcfed08e69938d0bb4b4cd4e6f094db97eb",
    "k1": "9b0fb66f3c330ddba9badb487ab250e0516066e3990cc07e797567a3d9f8fb42",
    "k2": "11b3ae741ede1ba634f76a62068deef5cb08081fd7782f689c14820cd0ffe26c",
    "k3": "a65df4d8e22e3903884feef72d8ec0c2a5af1a2acb97522e8df3ea5d9cc7661f",
}

# sha256 of transcript.json from the same builds, recorded before the
# amalgamators moved from ``fraisse`` to ``classes``.
LUK4_TRANSCRIPT_SHA256 = {
    "k0": "5cc926ed0f3be612a0bf301d9717ddbb523a447de9a4042213cf4ffc0109e4fc",
    "k1": "6a167250b816b75c29b90aac1ccbb2fe379064c8946467d60badd1e4070e5cc6",
    "k2": "2c01c292ecfd4d8656d9ac62e6dea468525deb15fadf13c46f23be5efde25132",
    "k3": "31f15df72733bdc99d8f8fd9a58e0bb3eafec4e363ba38f94e1828caa69ad447",
}


@pytest.mark.parametrize("klass", sorted(LUK4_STAGE2_SHA256))
def test_limit_build_luk4_stage_digests(klass, tmp_path, capsys):
    out = tmp_path / "built"
    rc, _ = run(["limit", "build", "--class", klass, "--chain", "luk:4", "--stages", "2",
                 "--budget", "2", "--out", str(out)], capsys)
    assert rc == 0
    digest = hashlib.sha256((out / "stage002.gs").read_bytes()).hexdigest()
    assert digest == LUK4_STAGE2_SHA256[klass]
    digest = hashlib.sha256((out / "transcript.json").read_bytes()).hexdigest()
    assert digest == LUK4_TRANSCRIPT_SHA256[klass]


def test_limit_build_k3_luk4_third_stage_digests(tmp_path, capsys):
    """The build that ``limit_stage3_check.py`` times, about ten seconds."""
    out = tmp_path / "built"
    rc, _ = run(STAGE3_ARGV + ["--out", str(out)], capsys)
    assert rc == 0
    for name, want in STAGE3_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want


# sha256 of the files of ``limit build --class k0 --chain luk:4 --stages 3
# --budget 2``, whose stages have dense rows and columns: recorded when
# amalgams were still checked through the second arm's base elements.
K0_LUK4_STAGE3_SHA256 = {
    "stage003.gs": "d9ee4861c244b1077cb6fce69e1e3c7347504acba4eab1e1b9449e8339fb90f9",
    "transcript.json": "a848b3a5840d994e01fb9c546271a7ce7beefb78ff479ee8d19f9115ab171374",
}


def test_limit_build_k0_luk4_third_stage_digests(tmp_path, capsys):
    out = tmp_path / "built"
    rc, _ = run(["limit", "build", "--class", "k0", "--chain", "luk:4", "--stages", "3",
                 "--budget", "2", "--out", str(out)], capsys)
    assert rc == 0
    for name, want in K0_LUK4_STAGE3_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want


def test_limit_on_a_chain_file_whose_path_has_a_space(tmp_path, capsys):
    """Every stage file names its chain by the path given; the path is
    the rest of the header line, so check and replay read it back."""
    folder = tmp_path / "sp ace"
    folder.mkdir()
    chain = folder / "u3.chain"
    chain.write_text("chain u3 3 one=1 zero=0\n0 0 0\n0 1 2\n0 2 2\n")
    built, replayed = folder / "built", folder / "replayed"
    rc, _ = run(["limit", "build", "--class", "k0", "--chain", str(chain), "--stages", "2",
                 "--budget", "2", "--out", str(built)], capsys)
    assert rc == 0
    assert (built / "stage002.gs").read_text().splitlines()[0].endswith(f" chain={chain}")
    rc, out = run(["limit", "check", "--stage", str(built / "stage002.gs"), "--class", "k0",
                   "--budget", "1"], capsys)
    assert (rc, out) == (0, "defects 0\n")
    rc, _ = run(["limit", "replay", "--transcript", str(built / "transcript.json"),
                 "--out", str(replayed)], capsys)
    assert rc == 0
    assert len(stage_files(built)) == 3
    assert stage_files(built) == stage_files(replayed)


def seeded_graph_text(seed, size):
    """A ``luk:3`` structure with a random rank on every pair, loops included."""
    rng = random.Random(seed)
    ids = [f"v{i}" for i in range(size)]
    return graph_text("r", ids, [[rng.randrange(3) for _ in ids] for _ in ids])


# Digests that pin the bytes of ``canonical_form``, recorded while tables
# were tuples: the ``age --k 2`` standard output for
# ``seeded_graph_text(7, 12)``, and the sorted defect lines of ``limit
# check --class k3 --budget 2`` on stage001.gs of the k3 ``luk:4`` build.
AGE_SEEDED_SHA256 = "a706eafe0b9bf9df99ec07775f7642b6e5120a6ed8bcefaf5d7e8cc955755d4c"
K3_LUK4_STAGE1_DEFECTS_SHA256 = "2763311ba3069497101343b80d598fe39346d22e396aeac131d357220de9ae9c"


def test_age_digest_of_a_seeded_graph(tmp_path, capsys):
    (tmp_path / "r.gs").write_text(seeded_graph_text(7, 12))
    rc, out = run(["age", str(tmp_path / "r.gs"), "--k", "2"], capsys)
    assert rc == 0 and out.startswith("types 32\n")
    assert hashlib.sha256(out.encode()).hexdigest() == AGE_SEEDED_SHA256


def symmetric_graph_text(seed, size):
    """A ``luk:3`` weighted graph: a random rank on every edge, the same
    both ways, and bottom loops."""
    rng = random.Random(seed)
    ids = [f"v{i}" for i in range(size)]
    weights = [[0] * size for _ in ids]
    for i in range(size):
        for j in range(i + 1, size):
            weights[i][j] = weights[j][i] = rng.randrange(3)
    return graph_text("r", ids, weights)


# sha256 of the ``randgraph check --max-x 2`` standard output for
# ``symmetric_graph_text(1, 40)``, recorded while the check read every
# vertex's row entry by entry.
RANDGRAPH_CHECK_SHA256 = "e6243e2306f46c790eae5f8504ff3256abfb954e5f56367524b6e3da5bc069d1"


def test_randgraph_check_digest_of_a_seeded_graph(tmp_path, capsys):
    (tmp_path / "r.gs").write_text(symmetric_graph_text(1, 40))
    rc, out = run(["randgraph", "check", "--structure", str(tmp_path / "r.gs"), "--max-x", "2"],
                  capsys)
    assert rc == 1 and out.startswith("defects 71\n")
    assert hashlib.sha256(out.encode()).hexdigest() == RANDGRAPH_CHECK_SHA256


def test_age_over_its_subset_cap_is_an_error(tmp_path, capsys):
    (tmp_path / "r.gs").write_text(symmetric_graph_text(2, 200))
    assert main(["age", str(tmp_path / "r.gs"), "--k", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "cap" in captured.err


def test_limit_check_defects_of_the_k3_luk4_first_stage(tmp_path, capsys):
    built = tmp_path / "built"
    rc, _ = run(["limit", "build", "--class", "k3", "--chain", "luk:4", "--stages", "1",
                 "--budget", "2", "--out", str(built)], capsys)
    assert rc == 0
    rc, out = run(["limit", "check", "--stage", str(built / "stage001.gs"), "--class", "k3",
                   "--budget", "2"], capsys)
    lines = out.splitlines()
    assert rc == 1 and lines[0] == "defects 220"
    digest = hashlib.sha256("\n".join(sorted(lines[1:])).encode()).hexdigest()
    assert digest == K3_LUK4_STAGE1_DEFECTS_SHA256


# sha256 of the ``enumerate --chain bool --max-size 4`` standard output,
# recorded when every table of every size was still built and checked.
ENUM_BOOL4_SHA256 = {
    "k0": "0699cc7f15a656437245c847e10df47a7f57d0f78d75296394864fc13bf2366a",
    "k1": "f4cd4bfd395d19dbb50c5d481a003b1d0304c7774ee19364feddd7b6851f0249",
    "k2": "67f5e231bdb805d07e19dcbcc0982fc04f4ef6cbaf07f5a1f9691431a56c2ede",
    "k3": "654b83221e27d14466e172231ea37c59d6bafd92dc2c0255fa83c74287a7a7a6",
}


@pytest.mark.parametrize("klass", sorted(ENUM_BOOL4_SHA256))
def test_enumerate_bool_size4_digests(klass, capsys):
    rc, out = run(["enumerate", "--class", klass, "--chain", "bool", "--max-size", "4"], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUM_BOOL4_SHA256[klass]


# sha256 of ``check --format tsv`` standard output, keyed by (property,
# class, chain, k).  Every run exits 0.
CHECK_TSV_SHA256 = {
    ("hp", "k0", "bool", 3): "6845f48a91109f01bc987d1161392563e4f43a9df301500a8d5d908d10826e0a",
    ("hp", "k1", "bool", 3): "a47c3a596f26014c96b873400cb6c802051c1925dc60dc9b16829dd33cf67720",
    ("hp", "k2", "bool", 3): "28aecc831ce8bec6a421e43060100b86de59a46dd7c3a7634160aae8c7f5197d",
    ("hp", "k3", "bool", 3): "f991655e2619aeffc166bfcd9e44d5e42551cfecc97532f9658c4a621f37a7d9",
    ("jep", "k0", "bool", 3): "b36715c832e6a28eb185d48207436a64b114a102467527fda30c6ad8e26008ae",
    ("jep", "k1", "bool", 3): "ccb17f7190d9520950855e439f70a49ad175260f7a6601996d547212478f343a",
    ("jep", "k2", "bool", 3): "9591da26c511051e381a75c335e2cd8c4017896ade75ac169f1213d11b8ab6ac",
    ("jep", "k3", "bool", 3): "e5090da164d5632184db24d3472d8f26123b7613363455c94cda6c5ff38ea9b3",
    ("ap", "k0", "bool", 3): "1305172c831db7205b0024b368f8e2e5c750d879d61bcb46cdfaf5d54296a822",
    ("ap", "k1", "bool", 3): "137a280e8537960203ef63d03c2d0b1c416d4d0f6b170ba5b20fda85248b650f",
    ("ap", "k2", "bool", 3): "b39dbde21024b937d3896e3c416ecbdcb2137d74d4d8d9f1ccf1a09f01d50228",
    ("ap", "k3", "bool", 3): "45d5ef4a2dc5cebbc87d383bcf96d48c5921f397c2942f3314b452972f428db6",
    ("hp", "k0", "luk:4", 2): "b540b79a1683f492f42373562db7c122e2258e963b6d1738dee65746737f75f9",
    ("hp", "k1", "luk:4", 2): "32eef1b8c15a27472554d9645f791843a027b884e100c9338957c8d470a2957f",
    ("hp", "k2", "luk:4", 2): "b5e82f95150743fd76eef8ab56b46edfac2f291f7787611c6ccb14358f3a32bb",
    ("hp", "k3", "luk:4", 2): "6323c9d194e9d11848426c8c8daf72ee43fb58b118eb776585fe7d078bc8c3f1",
    ("jep", "k0", "luk:4", 2): "c826edc555079aa7c07af10c56f879868dd2fe02202674909fe2b647c453e3e2",
    ("jep", "k1", "luk:4", 2): "39ef151fa6daed920726b6197b65c96c0828f2bc1e7849b38023ce1e57b4718e",
    ("jep", "k2", "luk:4", 2): "cb028c4f0c2540480e12a2ceee372adfb57a8e765314f580964d385372b7ebfa",
    ("jep", "k3", "luk:4", 2): "aaee494712ece119a2979ea60440389aee681f70c712a3beae3d2240a7a6ae04",
    ("ap", "k0", "luk:4", 2): "38959ef3ba949c1b4c78dc527e0d5107312e3ac355d6d2692b4b85509a8f2e39",
    ("ap", "k1", "luk:4", 2): "0de9a998e6e044a3f5190542a48b2a2ace36b3dc108faefc6dde054792b75773",
    ("ap", "k2", "luk:4", 2): "37bcb6a4bd02c5b3bdd9e324590d78f002dcda7edfb9daa8d3390bdcdd5faca5",
    ("ap", "k3", "luk:4", 2): "96568e92cab648471e7108746547a5f9a6737d85709a4d62b3f128a5e44fa7e3",
}


@pytest.mark.parametrize("prop, klass, chain, k", sorted(CHECK_TSV_SHA256),
                         ids=lambda v: str(v))
def test_check_tsv_digests(prop, klass, chain, k, capsys):
    rc, out = run(["check", "--class", klass, "--chain", chain, "--k", str(k),
                   "--property", prop, "--format", "tsv"], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_TSV_SHA256[(prop, klass, chain, k)]


def test_eval_unknown_element_is_an_error(tmp_path, capsys):
    path = tmp_path / "g.gs"
    path.write_text("structure g chain=luk:3\nelements a b\ndefault 0\n< a b = 2\n")
    rc = main(["eval", "--structure", str(path), "--formula", "x < x", "--assign", "x=nosuch"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'nosuch'" in captured.err


def test_eval_variable_assigned_twice_is_an_error(tmp_path, capsys):
    path = tmp_path / "g.gs"
    path.write_text("structure g chain=luk:3\nelements v0 v1\ndefault 0\n< v0 v1 = 2\n")
    rc = main(["eval", "--structure", str(path), "--formula", "x < y",
               "--assign", "x=v0,x=v1,y=v1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: variable 'x' is assigned twice\n"


@pytest.mark.parametrize("assign, bad", [
    (" =v0,x=v0,y=v1", " =v0"),
    ("x y=v0,x=v0,y=v1", "x y=v0"),
    ("x=v0,=v1,y=v1", "=v1"),
    ("x= ,y=v1", "x= "),
    ("x,y=v1", "x"),
])
def test_eval_assignment_item_without_a_variable_or_an_element_is_an_error(assign, bad, tmp_path,
                                                                            capsys):
    """A blank variable, a variable holding a space, a blank element or
    no "=" makes a bad item, once its parts are stripped."""
    path = tmp_path / "g.gs"
    path.write_text("structure g chain=luk:3\nelements v0 v1\ndefault 0\n< v0 v1 = 2\n")
    rc = main(["eval", "--structure", str(path), "--formula", "x < y", "--assign", assign])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: bad assignment item {bad!r}\n"


def test_eval_assignment_items_are_stripped(tmp_path, capsys):
    path = tmp_path / "g.gs"
    path.write_text("structure g chain=luk:3\nelements v0 v1\ndefault 0\n< v0 v1 = 2\n")
    rc = main(["eval", "--structure", str(path), "--formula", "x < y",
               "--assign", " x = v0 , y=v1 "])
    assert rc == 0
    assert capsys.readouterr().out == "value 2\nin_filter yes\n"


@pytest.mark.parametrize("argv, message", [
    (["check", "--class", "k0", "--chain", "bool", "--k", "-1", "--property", prop],
     "k must be non-negative") for prop in ("hp", "jep", "ap")] + [
    (["limit", "build", "--class", "k0", "--chain", "bool", "--stages", "1", "--budget", "-1",
      "--out", "unused"], "budget must be non-negative"),
    (["limit", "check", "--stage", "g.gs", "--class", "k1", "--budget", "-1"],
     "budget must be non-negative"),
], ids=["check-hp", "check-jep", "check-ap", "limit-build", "limit-check"])
def test_a_negative_k_or_budget_is_named_in_the_error(argv, message, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.gs").write_text(FILES["g.gs"])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "unused").exists()


GOOD_TRANSCRIPT = {
    "class": "k1", "budget": 1, "stages": 1, "shuffle_seed": None,
    "chain": {"name": "bool", "size": 2, "one": 1, "zero": 0, "conj": [[0, 0], [0, 1]]},
    "initial": "structure k1_1 chain=bool\nelements x0\ndefault 0\n",
    "events": [{"stage": 0, "base": [], "arm": "structure a chain=bool\nelements n0\ndefault 0\n"}],
}

MALFORMED_TRANSCRIPTS = {
    "class only": {"class": "k1"},
    "not an object": [1, 2],
    "event without arm": {**GOOD_TRANSCRIPT, "events": [{"stage": 0, "base": []}]},
    "negative stages": {**GOOD_TRANSCRIPT, "stages": -1, "events": []},
    "negative budget": {**GOOD_TRANSCRIPT, "budget": -1},
    "event past the last stage": {**GOOD_TRANSCRIPT, "events": [{**GOOD_TRANSCRIPT["events"][0], "stage": 1}]},
    "event before the first stage": {**GOOD_TRANSCRIPT, "events": [{**GOOD_TRANSCRIPT["events"][0], "stage": -1}]},
    "chain off the axioms": {**GOOD_TRANSCRIPT, "chain": {**GOOD_TRANSCRIPT["chain"], "conj": [[1, 1], [1, 1]]}},
    "chain of one rank": {**GOOD_TRANSCRIPT,
                          "chain": {"name": "c", "size": 1, "one": 0, "zero": 0, "conj": [[0]]}},
    "ragged chain table": {**GOOD_TRANSCRIPT, "chain": {**GOOD_TRANSCRIPT["chain"], "conj": [[0, 0], [0]]}},
    # Text that is not JSON; every other case is an object to serialize.
    "not JSON": '{"class": "k1",',
}


@pytest.mark.parametrize("argv", [["algebra", "show", "godel:257"],
                                  ["check", "--class", "k0", "--chain", "luk:257", "--k", "2",
                                   "--property", "ap"]])
def test_a_chain_of_257_ranks_is_an_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: chain size must be at most 256, got 257\n"


@pytest.mark.parametrize("case", sorted(MALFORMED_TRANSCRIPTS))
def test_malformed_transcripts_are_file_format_errors(case, tmp_path, capsys):
    assert Transcript.from_json(json.dumps(GOOD_TRANSCRIPT)).events
    payload = MALFORMED_TRANSCRIPTS[case]
    text = payload if isinstance(payload, str) else json.dumps(payload)
    with pytest.raises(FileFormatError):
        Transcript.from_json(text)
    path = tmp_path / "transcript.json"
    path.write_text(text)
    rc = main(["limit", "replay", "--transcript", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_replay_rejects_an_initial_structure_outside_the_class(tmp_path, capsys):
    # A k0 member needs its loops in the filter; "default 0" puts the loop at 0.
    payload = {**GOOD_TRANSCRIPT, "class": "k0", "events": []}
    with pytest.raises(FileFormatError):
        replay_transcript(Transcript.from_json(json.dumps(payload)))
    path = tmp_path / "transcript.json"
    path.write_text(json.dumps(payload))
    rc = main(["limit", "replay", "--transcript", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_replay_rejects_an_event_arm_outside_the_class(tmp_path, capsys):
    # A k1 member needs its loops below the filter; "default 1" puts the loop at 1.
    arm = "structure a chain=bool\nelements n0\ndefault 1\n"
    payload = {**GOOD_TRANSCRIPT, "events": [{"stage": 0, "base": [], "arm": arm}]}
    with pytest.raises(AmalgamationError):
        replay_transcript(Transcript.from_json(json.dumps(payload)))
    path = tmp_path / "transcript.json"
    path.write_text(json.dumps(payload))
    rc = main(["limit", "replay", "--transcript", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_replay_rejects_an_event_base_other_than_the_shared_ids(tmp_path, capsys):
    # The arm shares x0 with the initial stage, but the event names no base.
    arm = "structure a chain=bool\nelements x0 n0\ndefault 0\n"
    payload = {**GOOD_TRANSCRIPT, "events": [{"stage": 0, "base": [], "arm": arm}]}
    with pytest.raises(FileFormatError):
        replay_transcript(Transcript.from_json(json.dumps(payload)))
    path = tmp_path / "transcript.json"
    path.write_text(json.dumps(payload))
    rc = main(["limit", "replay", "--transcript", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


# Transcripts that ``build_limit`` never writes: an event whose arm adds
# no element to the stage or disagrees with it on their shared elements,
# and an arm or initial structure whose header names another chain than
# the transcript's.
UNWRITTEN_TRANSCRIPTS = {
    "arm without elements": {**GOOD_TRANSCRIPT, "events": GOOD_TRANSCRIPT["events"] + [
        {"stage": 0, "base": [], "arm": "structure e chain=bool\nelements\ndefault 0\n"}]},
    "arm of base elements only": {**GOOD_TRANSCRIPT, "events": [
        {"stage": 0, "base": ["x0"], "arm": "structure e chain=bool\nelements x0\ndefault 0\n"}]},
    # The initial stage has its loop at 0; the arm puts x0's loop at 1.
    "arm disagreeing with the stage on its base": {**GOOD_TRANSCRIPT, "events": [
        {"stage": 0, "base": ["x0"],
         "arm": "structure a chain=bool\nelements x0 n0\ndefault 0\n< x0 x0 = 1\n"}]},
    "arm over another chain": {**GOOD_TRANSCRIPT, "events": [
        {"stage": 0, "base": [], "arm": "structure a chain=luk:7\nelements n0\ndefault 0\n"}]},
    "initial structure over another chain": {
        **GOOD_TRANSCRIPT, "initial": "structure k1_1 chain=luk:7\nelements x0\ndefault 0\n"},
}


@pytest.mark.parametrize("case", sorted(UNWRITTEN_TRANSCRIPTS))
def test_replay_rejects_transcripts_the_builder_never_writes(case, tmp_path, capsys):
    payload = UNWRITTEN_TRANSCRIPTS[case]
    with pytest.raises(FileFormatError):
        replay_transcript(Transcript.from_json(json.dumps(payload)))
    path = tmp_path / "transcript.json"
    path.write_text(json.dumps(payload))
    rc = main(["limit", "replay", "--transcript", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["check", "--class", "k0", "--chain", "bool", "--k", "2", "--property", "ap", "--jobs", "2"],
    ["check", "--class", "k0", "--chain", "bool", "--k", "2", "--property", "ap", "--seed", "1"],
    ["limit", "build", "--class", "k1", "--chain", "bool", "--stages", "0", "--budget", "1",
     "--out", "unused", "--seed", "1"],
    # --format only where it is read
    ["algebra", "--format", "tsv", "show", "bool"],
    ["enumerate", "--class", "k1", "--chain", "bool", "--max-size", "1", "--format", "tsv"],
])
def test_removed_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
