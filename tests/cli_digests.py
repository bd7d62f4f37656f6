"""Digests of the output of a fixed list of CLI commands, for byte-identity checks.

Run from the root of a source checkout:

    python3 tests/cli_digests.py

It imports the package from ``src`` under the working directory and
runs every command of ``COMMANDS`` in this process through ``cli.main``,
in a temporary working directory.  They cover every subcommand: ``age``,
``eval``, ``iso``, ``limit check`` and ``sub`` run on built stages, and
``randgraph check`` on the saved output of ``randgraph build``, and
``eval``, ``iso`` and ``sub`` also on the ``WIDE`` files, over chains of
20 to 256 ranks.  The five valid commands of ``ARGPARSE_ONLY`` follow,
spelled the ways that only argparse takes: ``--k=2``, an abbreviation,
a value that starts with ``-``, an option before a positional and a
repeated flag.  Then the commands of ``USAGE`` follow, which exit
through ``SystemExit``, whose code is taken as the exit code.  For
each command it prints one line, the exit code and the sha256 of its
standard output and of its standard error, then one line per file that
the command wrote, with its sha256.
So a refactor that should not change any output is checked by

    python3 tests/cli_digests.py > after.txt
    (cd ../parent && python3 "$OLDPWD/tests/cli_digests.py") > before.txt
    diff before.txt after.txt

where ``../parent`` is a checkout of the commit before it.  The commands
take about twenty seconds in all.  The file name does not start with
``test_``, so pytest does not collect it.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

CLASSES = ("k0", "k1", "k2", "k3")

# The chain u3 has ``one`` at its middle rank; it is read from a file.
U3_CHAIN = "chain u3 3 one=1 zero=0\n0 0 0\n0 1 2\n0 2 2\n"

TRANSITIVITY = "forall x forall y forall z (((x < y) & (y < z)) -> (x < z))"

# Every connective, both quantifiers, and a quantifier nested inside a
# connective, with the bound variable on either side of it.
MIXED = "forall x exists y ((x < y) | ((exists z ((y < z) * (z < x))) -> (y < x)))"

SUBCOMMANDS = ("algebra", "eval", "iso", "age", "sub", "enumerate", "check", "limit", "randgraph")

CHECKS = [("bool", 2), ("bool", 3), ("u3.chain", 2), ("luk:4", 2), ("luk:3", 2), ("luk:3", 3),
          ("godel:3", 2)]

# Structures over chains wider than 16 ranks, up to the widest, whose top
# rank is byte 255: file name -> (chain, element count).  ``prepare``
# writes each with seeded random values, and for luk256.gs also a
# relabelled reordering and a restriction of it.
WIDE = {"luk20.gs": ("luk:20", 20), "godel200.gs": ("godel:200", 20), "luk256.gs": ("luk:256", 12)}


def _commands() -> list[list[str]]:
    commands = [["check", "--class", name, "--chain", chain, "--k", str(k), "--property", prop]
                for chain, k in CHECKS for name in CLASSES for prop in ("hp", "jep", "ap")]
    for chain in ("bool", "luk:3", "luk:4", "u3.chain"):
        for name in CLASSES:
            out = f"{name}-{chain}"
            commands.append(["limit", "build", "--class", name, "--chain", chain, "--stages", "2",
                             "--budget", "2", "--out", out])
            commands.append(["limit", "replay", "--transcript", f"{out}/transcript.json",
                             "--out", f"{out}-replay"])
    for name in ("k0", "k2"):
        commands.append(["limit", "build", "--class", name, "--chain", "bool", "--stages", "2",
                         "--budget", "3", "--out", f"{name}-bool-budget3"])
    commands.append(["limit", "build", "--class", "k0", "--chain", "luk:3", "--stages", "2",
                     "--budget", "2", "--seed-order", "5", "--out", "k0-luk3-seed5"])
    commands += [["enumerate", "--class", name, "--chain", chain, "--max-size", size]
                 for chain, size in (("bool", "3"), ("bool", "4"), ("luk:3", "3")) for name in CLASSES]
    for chain in ("bool", "luk:3"):
        commands.append(["randgraph", "build", "--chain", chain, "--rounds", "2"])
        commands.append(["randgraph", "check", "--structure", _randgraph_file(chain),
                         "--max-x", "1"])
    graph = _randgraph_file("luk:3")
    commands += [["randgraph", "check", "--structure", graph, "--max-x", "2"],
                 ["eval", "--structure", graph, "--formula", MIXED]]
    stage, replayed = "k3-luk:4/stage002.gs", "k3-luk:4-replay/stage002.gs"
    commands += [
        ["algebra", "validate", "u3.chain"],
        ["algebra", "show", "luk:4", "--format", "tsv"],
        ["sub", "k3-luk:4/stage001.gs", stage],
        ["sub", stage, "k3-luk:4/stage001.gs"],
        ["limit", "check", "--stage", stage, "--class", "k3", "--budget", "2"],
        ["age", stage, "--k", "2"],
        ["iso", stage, replayed],
        ["eval", "--structure", stage, "--formula", TRANSITIVITY],
        ["eval", "--structure", stage, "--formula", "x < y", "--assign", "x=x0,y=n0",
         "--format", "tsv"],
    ]
    commands += [["eval", "--structure", path, "--formula", formula]
                 for path in ("luk20.gs", "godel200.gs") for formula in (TRANSITIVITY, MIXED)]
    commands.append(["eval", "--structure", "luk256.gs", "--formula", TRANSITIVITY])
    commands += [
        ["algebra", "show", "luk:20"],
        ["iso", "luk256.gs", "luk256-relabelled.gs"],
        ["sub", "luk256-part.gs", "luk256.gs"],
        ["sub", "luk256-part.gs", "luk256-relabelled.gs"],
    ]
    return commands


def _randgraph_file(chain: str) -> str:
    """The file that the standard output of ``randgraph build`` on ``chain`` is saved to."""
    return f"randgraph-{chain}.gs"


# Valid commands spelled the ways that only argparse takes: ``cli._match``
# declines them.
ARGPARSE_ONLY = [
    ["check", "--class", "k0", "--chain", "bool", "--k=2", "--property", "ap"],
    ["check", "--cla", "k0", "--chain", "bool", "--k", "2", "--property", "jep"],
    ["limit", "build", "--class", "k1", "--chain", "bool", "--stages", "2", "--budget", "2",
     "--seed-order", "-4", "--out", "k1-bool-seed-4"],
    ["age", "--k", "2", "k3-luk:4/stage002.gs"],
    ["enumerate", "--class", "k2", "--chain", "bool", "--max-size", "3", "--count-only",
     "--count-only"],
]

# Help and usage errors, which exit through ``SystemExit``: the top
# level's and every subcommand's help, then one error of each kind.
USAGE = [["-h"]] + [[name, "-h"] for name in SUBCOMMANDS] + [
    ["limit", "build", "-h"],
    ["frobnicate"],
    ["enumerate", "--class", "k0", "--chain", "bool"],
    ["check", "--class", "k9", "--chain", "bool", "--k", "2", "--property", "ap"],
    ["iso", "k3-luk:4/stage002.gs", "k3-luk:4-replay/stage002.gs", "extra"],
    ["limit", "build", "--seed", "1"],
    ["limit", "build", "--class", "k0", "--chain", "bool", "--stages", "1", "--budget", "1",
     "--out", "seeded", "--seed", "1"],
]

COMMANDS = _commands() + ARGPARSE_ONLY + USAGE


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files() -> dict[str, str]:
    """Relative path -> sha256 of every file under the working directory."""
    found = {}
    for folder, _, names in os.walk("."):
        for name in names:
            path = os.path.relpath(os.path.join(folder, name))
            with open(path, "rb") as fh:
                found[path] = _sha(fh.read())
    return found


def _structure_text(name: str, chain: str, ids: list[str], values: dict) -> str:
    """The structure file of ``values``, an (id, id) -> rank dict, with
    default 0 and a line for every other cell."""
    lines = [f"structure {name} chain={chain}", "elements " + " ".join(ids), "default 0"]
    lines += [f"< {a} {b} = {values[a, b]}" for a in ids for b in ids if values[a, b]]
    return "\n".join(lines) + "\n"


def prepare() -> None:
    """Write the input files that ``COMMANDS`` read to the working
    directory, and fix the width that help text is wrapped to."""
    os.environ["COLUMNS"] = "80"
    with open("u3.chain", "w", encoding="utf-8") as fh:
        fh.write(U3_CHAIN)
    rng = random.Random(26)
    for path, (chain, size) in WIDE.items():
        ids = [f"w{i}" for i in range(size)]
        top = int(chain.partition(":")[2]) - 1
        # Cells in the upper half of the chain, so that the formulas come
        # out strictly between bot and top.
        values = {(a, b): rng.choice((top, rng.randrange(top // 2, top + 1))) for a in ids for b in ids}
        texts = {path: _structure_text("wide", chain, ids, values)}
        if path == "luk256.gs":
            order = rng.sample(ids, size)
            renamed = {e: f"r{e[1:]}" for e in ids}
            texts["luk256-relabelled.gs"] = _structure_text(
                "relabelled", chain, [renamed[e] for e in order],
                {(renamed[a], renamed[b]): v for (a, b), v in values.items()})
            texts["luk256-part.gs"] = _structure_text("part", chain, ids[::2], values)
        for name, text in texts.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)


def run_command(cli, command: list[str]) -> tuple[int, str, str]:
    """Run one command of ``COMMANDS`` through ``cli.main`` in the working
    directory, after those before it: its exit code, standard output and
    standard error; a usage error or help exits with its ``SystemExit``
    code.  The output of ``randgraph build`` is saved for
    ``randgraph check``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(command)
        except SystemExit as exc:
            rc = exc.code
    if command[:2] == ["randgraph", "build"]:
        with open(_randgraph_file(command[3]), "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from gradedmodels import cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        try:
            prepare()
            seen = _files()
            for command in COMMANDS:
                rc, out, err = run_command(cli, command)
                print(rc, _sha(out.encode()), _sha(err.encode()), " ".join(command))
                now = _files()
                for path in sorted(now):
                    if seen.get(path) != now[path]:
                        print("  file", now[path], path)
                seen = now
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
