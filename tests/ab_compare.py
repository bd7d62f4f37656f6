"""A paired in-process comparison of two source trees on the ``cli_digests``
commands or on the operations of a ``perfbench`` workload.

Run from anywhere:

    python3 tests/ab_compare.py PARENT_ROOT CHANGE_ROOT [--rounds N]
    python3 tests/ab_compare.py PARENT_ROOT CHANGE_ROOT --workload NAME [--seed N] [--rounds N]

where each root is a source checkout with the package under ``src``.  It
starts one long-lived child interpreter per tree; each imports the
package from its own tree's ``src`` and runs in its own temporary
directory.  Every round runs the command list in order in both
children, one command at a time, each child in a fresh directory, and
alternates which child runs a command first: the parent's in even
rounds, the change's in odd ones.

Without ``--workload`` the command list is ``cli_digests.COMMANDS``,
taken from the ``cli_digests.py`` next to this file.  A pair is one
command in one round.  Per subcommand (``check`` split by property) and
overall, it prints the number of pairs, the median ratio of the
change's process time to the parent's, the number of pairs in which the
change took less, and each tree's process time in all.

With ``--workload NAME`` each child builds the workload in its fresh
directory every round, by ``workloads.build(NAME, dir, SEED,
expected["facts"])`` from the ``perfbench`` next to this file's folder
(``--seed`` defaults to 1; only ``inspect`` reads it), and runs its
operations through ``cli.main``.  Per operation, and for the whole pass
(one pair per round: the sums over the operations), it prints the
pairs, the median ratio, the wins and the parent's quartile spread,
(q3 - q1) / median of the parent's times.  It imports ``perfbench`` and
changes nothing there.

Either way it names every command whose exit code or output differs
between the trees, in any round, and exits with 1 when there is one; a
workload operation's output is its standard output and the stage files
in the workload's output folders.  Pairs alternate within seconds, so a
drift of the host's speed falls on both trees alike, which end-to-end
runs in fresh processes cannot ensure.  The file name does not start
with ``test_``, so pytest does not collect it.
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
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

# Subcommands whose first word alone does not name them.
NESTED = ("algebra", "limit", "randgraph")


def child(root: str, workload: str | None, seed: int) -> int:
    """Serve commands from stdin: ``round`` starts a fresh directory and
    replies with the command list, an index runs that command; one JSON
    reply per line."""
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from gradedmodels import cli

    if workload is not None:
        sys.path.insert(1, PERFBENCH)
        import workloads

        with open(os.path.join(PERFBENCH, "expected.json"), encoding="utf-8") as fh:
            facts = json.load(fh)["facts"]
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
            if workload is None:
                cli_digests.prepare()
                commands, outputs = cli_digests.COMMANDS, ()
            else:
                wl = workloads.build(workload, folder.name, seed, facts)
                commands, outputs = [list(op.argv) for op in wl.ops], wl.outputs
            reply = {"commands": commands}
        else:
            start = time.process_time()
            rc, out, _ = cli_digests.run_command(cli, commands[int(word)])
            cpu = time.process_time() - start
            digest = hashlib.sha256(out.encode())
            for folder_name in outputs:
                for name, data in workloads.stage_files(folder.name, folder_name).items():
                    digest.update(f"\0{folder_name}/{name}\0".encode() + data)
            reply = {"cpu": cpu, "rc": rc, "out": digest.hexdigest()}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    if folder is not None:
        os.chdir(HERE)
        folder.cleanup()
    return 0


class Child:
    """A child interpreter that serves ``child(root, workload, seed)`` over its pipes."""

    def __init__(self, root: str, workload: str | None, seed: int):
        argv = ["--child", root, str(seed)] + ([workload] if workload else [])
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv],
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


def quartile_spread(values: list[float]) -> str:
    """(q3 - q1) / median of ``values``, as a percentage."""
    if len(values) < 2 or not statistics.median(values):
        return "-"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{100 * (q3 - q1) / q2:.0f} %"


def summary(label: str, pairs: list[tuple[float, float]], spread: bool = False) -> str:
    ratios = [change / parent for parent, change in pairs if parent > 0]
    median = f"{statistics.median(ratios):.3f}" if ratios else "-"
    won = sum(change < parent for parent, change in pairs)
    parent, change = (sum(side) for side in zip(*pairs))
    line = f"{len(pairs):>6} {median:>8} {won:>6} {parent:>9.3f} {change:>9.3f}"
    return f"{line}{f' {quartile_spread([p for p, _ in pairs]):>8}' if spread else ''}  {label}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    trees = {name: Child(root, args.workload, args.seed)
             for name, root in (("parent", args.parent_root), ("change", args.change_root))}
    try:
        for name, tree in trees.items():
            print(f"{name}: {tree.package}")
        pairs: dict[str, list[tuple[float, float]]] = {}
        passes = []
        differs = {}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            commands = [trees[name].ask("round")["commands"] for name in order][0]
            sums = {name: 0.0 for name in order}
            for i, command in enumerate(commands):
                got = {name: trees[name].ask(i) for name in order}
                label = " ".join(command) if args.workload else group(command)
                pairs.setdefault(label, []).append((got["parent"]["cpu"], got["change"]["cpu"]))
                for name in order:
                    sums[name] += got[name]["cpu"]
                if ((got["parent"]["rc"], got["parent"]["out"])
                        != (got["change"]["rc"], got["change"]["out"])):
                    differs.setdefault(" ".join(command), []).append(r)
            passes.append((sums["parent"], sums["change"]))
    finally:
        for tree in trees.values():
            tree.close()

    what = f"workload {args.workload} (seed {args.seed})" if args.workload else "cli_digests"
    print(f"{args.rounds} rounds of {len(commands)} {what} commands; median and won "
          "compare the change's process time with the parent's, pair by pair")
    spread = args.workload is not None
    head = "operation" if spread else "subcommand"
    print(f"{'pairs':>6} {'median':>8} {'won':>6} {'parent s':>9} {'change s':>9}"
          + (f" {'spread':>8}" if spread else "") + f"  {head}")
    for label in sorted(pairs) if not spread else pairs:
        print(summary(label, pairs[label], spread))
    if spread:
        print(summary("pass", passes, spread))
    else:
        print(summary("overall", [p for group_pairs in pairs.values() for p in group_pairs]))
    for command, rounds in differs.items():
        print(f"differs in rounds {rounds}: {command}")
    if not differs:
        print("no command differs in exit code or output")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[2], (sys.argv[4:5] or [None])[0], int(sys.argv[3]))
             if sys.argv[1:2] == ["--child"] else main())
