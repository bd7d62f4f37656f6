"""A paired in-process comparison of two source trees on the ``cli_digests`` commands.

Run from anywhere:

    python3 tests/ab_compare.py PARENT_ROOT CHANGE_ROOT [--rounds N]

where each root is a source checkout with the package under ``src``.  It
starts one long-lived child interpreter per tree; each imports the
package from its own tree's ``src`` and runs in its own temporary
directory.  Every round runs ``cli_digests.COMMANDS`` in order in both
children, one command at a time, each child in a fresh directory, and
alternates which child runs a command first: the parent's in even
rounds, the change's in odd ones.  Both children take the command list
of the ``cli_digests.py`` next to this file.

A pair is one command in one round.  Per subcommand (``check`` split by
property) and overall, it prints the number of pairs, the median ratio
of the change's process time to the parent's, the number of pairs in
which the change took less, and each tree's process time in all.  It names every command whose exit code or
standard output differs between the trees, in any round, and exits with
1 when there is one.  Pairs alternate within seconds, so a drift of the
host's speed falls on both trees alike, which end-to-end runs in fresh
processes cannot ensure.  The file name does not start with ``test_``,
so pytest does not collect it.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import cli_digests

HERE = os.path.dirname(os.path.abspath(__file__))

# Subcommands whose first word alone does not name them.
NESTED = ("algebra", "limit", "randgraph")


def child(root: str) -> int:
    """Serve commands from stdin: ``round`` starts a fresh directory, an
    index runs that command of ``COMMANDS``; one JSON reply per line."""
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from gradedmodels import cli

    replies = sys.stdout
    folder = None
    replies.write(json.dumps({"package": os.path.dirname(cli.__file__)}) + "\n")
    replies.flush()
    for line in sys.stdin:
        word = line.strip()
        if word == "round":
            if folder is not None:
                os.chdir(HERE)
                folder.cleanup()
            folder = tempfile.TemporaryDirectory()
            os.chdir(folder.name)
            cli_digests.prepare()
            reply = {}
        else:
            start = time.process_time()
            rc, out, _ = cli_digests.run_command(cli, cli_digests.COMMANDS[int(word)])
            reply = {"cpu": time.process_time() - start, "rc": rc,
                     "out": hashlib.sha256(out.encode()).hexdigest()}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    if folder is not None:
        os.chdir(HERE)
        folder.cleanup()
    return 0


class Child:
    """A child interpreter that serves ``child(root)`` over its pipes."""

    def __init__(self, root: str):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child", root],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.package = self.read()["package"]

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a child stopped; see its standard error above")
        return json.loads(line)

    def ask(self, word) -> dict:
        self.proc.stdin.write(f"{word}\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def group(command: list[str]) -> str:
    """The subcommand of a command; ``check`` names its property too, and
    the help and usage errors of ``cli_digests.USAGE`` form one group."""
    if command in cli_digests.USAGE:
        return "usage"
    if command[0] in NESTED:
        return " ".join(command[:2])
    if command[0] == "check":
        return "check " + command[command.index("--property") + 1]
    return command[0]


def summary(label: str, pairs: list[tuple[float, float]]) -> str:
    ratios = [change / parent for parent, change in pairs if parent > 0]
    median = f"{statistics.median(ratios):.3f}" if ratios else "-"
    won = sum(change < parent for parent, change in pairs)
    parent, change = (sum(side) for side in zip(*pairs))
    return f"{label:<18} {len(pairs):>6} {median:>8} {won:>6} {parent:>9.2f} {change:>9.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    trees = {"parent": Child(args.parent_root), "change": Child(args.change_root)}
    try:
        for name, tree in trees.items():
            print(f"{name}: {tree.package}")
        pairs: dict[str, list[tuple[float, float]]] = {}
        differs = {}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for name in order:
                trees[name].ask("round")
            for i, command in enumerate(cli_digests.COMMANDS):
                got = {name: trees[name].ask(i) for name in order}
                pairs.setdefault(group(command), []).append(
                    (got["parent"]["cpu"], got["change"]["cpu"]))
                if ((got["parent"]["rc"], got["parent"]["out"])
                        != (got["change"]["rc"], got["change"]["out"])):
                    differs.setdefault(" ".join(command), []).append(r)
    finally:
        for tree in trees.values():
            tree.close()

    print(f"{args.rounds} rounds of {len(cli_digests.COMMANDS)} commands; median and won "
          "compare the change's process time with the parent's, pair by pair")
    print(f"{'subcommand':<18} {'pairs':>6} {'median':>8} {'won':>6} {'parent s':>9} {'change s':>9}")
    for label in sorted(pairs):
        print(summary(label, pairs[label]))
    print(summary("overall", [p for group_pairs in pairs.values() for p in group_pairs]))
    for command, rounds in differs.items():
        print(f"differs in rounds {rounds}: {command}")
    if not differs:
        print("no command differs in exit code or standard output")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[2]) if sys.argv[1:2] == ["--child"] else main())
