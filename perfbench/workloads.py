"""The benchmark's workloads: fixed CLI operation lists and their checks.

Every operation is a ``gradedmodels`` command line, run with the
workload's scratch directory as working directory and relative paths
only, because ``check`` prints the chain reference it was given.  No
operation passes ``--jobs`` or ``--seed``.

An operation is correct when its exit code and a digest of what it
checks match the registry (``expected.json``, recorded by ``record.py``)
or, for the seed-dependent ``inspect`` operations, what ``oracle``
computes from the generated graphs.  A non-zero exit code can be the
right answer: ``limit check`` on a random graph finds defects.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from typing import Callable

import gen_inputs
import oracle

# BENCHMARK.json records why each workload exists.
NAMES = ("verify", "enumerate", "limit", "inspect")
SEEDED = ("inspect",)

# A known defect, run once per invocation and untimed: the k2 search
# fallback gives up on a cross-assignment cap instead of building stages.
PROBE = ("limit", "build", "--class", "k2", "--chain", "bool", "--stages", "2", "--budget", "3",
         "--out", "probe")

# ``check`` statistics lines, such as ``amalgam_calls: 436``; they are
# left out of the digest because their set is expected to change.
_STATS_LINE = re.compile(r"^[a-z_]+: \d+$")

TRANSITIVITY = "forall x forall y forall z (((x < y) & (y < z)) -> (x < z))"


@dataclass
class Result:
    rc: int
    stdout: str
    cwd: str


@dataclass
class Op:
    argv: tuple[str, ...]
    digest: Callable[[Result], str] | None = None  # compared with the registry
    problem: Callable[[Result], str | None] | None = None  # further check: None, or what is wrong

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def check(self, result: Result, registry: dict) -> str | None:
        """None when the output is correct, otherwise a one-line reason."""
        if self.digest is not None:
            want = registry.get(self.key)
            if want is None:
                return "no expected output recorded"
            if result.rc != want["exit"]:
                return f"exit code {result.rc}, expected {want['exit']}"
            if self.digest(result) != want["sha256"]:
                return "output differs from the recorded one"
        if self.problem is not None:
            return self.problem(result)
        return None


@dataclass
class Workload:
    ops: list[Op]
    outputs: tuple[str, ...] = ()  # directories the ops write, cleared before each pass


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_digest(result: Result) -> str:
    return sha256(result.stdout.encode())


def check_digest(result: Result) -> str:
    """The ``checked N instances`` line, header and counterexamples; no statistics."""
    kept = [ln for ln in result.stdout.splitlines() if not _STATS_LINE.match(ln)]
    return sha256("\n".join(kept).encode())


def stage_files(cwd: str, out: str) -> dict[str, bytes]:
    folder = os.path.join(cwd, out)
    names = sorted(n for n in os.listdir(folder) if n.endswith(".gs")) if os.path.isdir(folder) else []
    files = {}
    for name in names:
        with open(os.path.join(folder, name), "rb") as fh:
            files[name] = fh.read()
    return files


def stages_digest(out: str) -> Callable[[Result], str]:
    """Standard output plus every stage file; ``transcript.json`` is left out."""
    def digest(result: Result) -> str:
        h = hashlib.sha256(result.stdout.encode())
        for name, data in stage_files(result.cwd, out).items():
            h.update(f"\0{name}\0".encode())
            h.update(data)
        return h.hexdigest()
    return digest


def verify_ops() -> list[Op]:
    ops = []
    for chain, k in (("bool", 3), ("u3.chain", 2), ("luk:4", 2)):
        for klass in ("k0", "k1", "k2", "k3"):
            for prop in ("ap", "jep"):
                argv = ("check", "--class", klass, "--chain", chain, "--k", str(k), "--property", prop)
                ops.append(Op(argv, digest=check_digest))
    return ops


def enumerate_ops() -> list[Op]:
    return [Op(("enumerate", "--class", klass, "--chain", "bool", "--max-size", "4"), digest=stdout_digest)
            for klass in ("k0", "k1", "k2", "k3")]


def _replay_matches_build(result: Result) -> str | None:
    built, replayed = stage_files(result.cwd, "built"), stage_files(result.cwd, "replayed")
    if not built or built != replayed:
        return "replayed stage files differ from the built ones"
    return None


def limit_ops() -> list[Op]:
    # The default member order: --seed-order made this build take 39-52 s.
    return [
        Op(("limit", "build", "--class", "k3", "--chain", "luk:4", "--stages", "2", "--budget", "2",
            "--out", "built"), digest=stages_digest("built")),
        Op(("limit", "replay", "--transcript", "built/transcript.json", "--out", "replayed"),
           digest=stages_digest("replayed"), problem=_replay_matches_build),
        Op(("iso", "built/stage002.gs", "replayed/stage002.gs"), digest=stdout_digest),
    ]


def _expect(rc: int, text: str) -> Callable[[Result], str | None]:
    def problem(result: Result) -> str | None:
        if result.rc != rc:
            return f"exit code {result.rc}, expected {rc}"
        if result.stdout != text:
            return "output differs from the oracle's"
        return None
    return problem


def inspect_ops(graphs: dict, facts: dict) -> list[Op]:
    big_ids, big = graphs["big.gs"]
    small_ids, small = graphs["small.gs"]
    re_ids, re_w = graphs["small_relabelled.gs"]

    def iso_problem(result: Result) -> str | None:
        if result.rc != 0:
            return f"exit code {result.rc}, expected 0"
        return oracle.iso_problem(result.stdout, small_ids, small, re_ids, re_w)

    return [
        Op(("randgraph", "build", "--chain", "luk:3", "--rounds", "2"), digest=stdout_digest),
        Op(("randgraph", "check", "--structure", "big.gs", "--max-x", "2"),
           problem=_expect(*oracle.randgraph_check(big_ids, big, 2))),
        Op(("limit", "check", "--stage", "big.gs", "--class", "k1", "--budget", "2"),
           problem=_expect(*oracle.limit_check_k1(big_ids, big, facts["k1_luk3_budget2"]))),
        Op(("eval", "--structure", "big.gs", "--formula", TRANSITIVITY),
           problem=_expect(*oracle.eval_transitivity(big))),
        Op(("age", "big.gs", "--k", "2"),
           problem=_expect(*oracle.age_k2(big, facts["loop_types"], facts["edge_types"]))),
        Op(("iso", "small.gs", "small_relabelled.gs"), problem=iso_problem),
    ]


def build(name: str, cwd: str, seed: int, facts: dict) -> Workload:
    """Write the workload's inputs into ``cwd`` and return its operations."""
    graphs = gen_inputs.write_inputs(seed, cwd)
    if name == "verify":
        return Workload(verify_ops())
    if name == "enumerate":
        return Workload(enumerate_ops())
    if name == "limit":
        return Workload(limit_ops(), outputs=("built", "replayed"))
    if name == "inspect":
        return Workload(inspect_ops(graphs, facts))
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
