"""Tracing must not change what the CLI does, and must see every binding.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/check_tracing.py

The file name keeps it out of the repository's own test collection; it
tests the benchmark, not the library.  Small operations stand in for the
four workloads: together they reach every layer the workloads reach.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen_inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ROOT = os.path.dirname(HERE)

OPS = [
    ("check", "--class", "k0", "--chain", "bool", "--k", "2", "--property", "ap"),
    ("check", "--class", "k0", "--chain", "bool", "--k", "2", "--property", "jep"),
    ("check", "--class", "k2", "--chain", "bool", "--k", "2", "--property", "ap"),
    ("check", "--class", "k1", "--chain", "u3.chain", "--k", "2", "--property", "jep"),
    ("check", "--class", "k2", "--chain", "bool", "--k", "2", "--property", "jep"),
    ("check", "--class", "k3", "--chain", "bool", "--k", "2", "--property", "jep"),
    ("enumerate", "--class", "k3", "--chain", "bool", "--max-size", "3"),
    ("limit", "build", "--class", "k3", "--chain", "luk:3", "--stages", "1", "--budget", "2", "--out", "built"),
    ("limit", "replay", "--transcript", "built/transcript.json", "--out", "replayed"),
    ("iso", "built/stage001.gs", "replayed/stage001.gs"),
    ("age", "small.gs", "--k", "2"),
    ("limit", "check", "--stage", "small.gs", "--class", "k1", "--budget", "2"),
    ("randgraph", "build", "--chain", "luk:3", "--rounds", "1"),
    ("randgraph", "check", "--structure", "small.gs", "--max-x", "1"),
    ("eval", "--structure", "small.gs", "--formula", "forall x forall y (((x < y) * (y < x)) -> (y < x))"),
]

# Bindings that no CLI command calls: ``sentence_member`` is the only user
# of the first two, ``classes`` imports ``rename`` without calling it, only
# ``fraisse`` calls ``extend_embedding``, and no library code calls ``leq``.
UNREACHED = {
    "logic.evaluate@classes.evaluate",
    "logic.parse_formula@classes.parse_formula",
    "structure.rename@classes.rename",
    "structure.extend_embedding@structure.extend_embedding",
    "algebra.leq@algebra.Chain.leq",
}


def _run_all(work: str, mode: str):
    runner = run.Runner(ROOT, work)
    with open(os.path.join(runner.cwd, "u3.chain"), "w", encoding="utf-8") as fh:
        fh.write(gen_inputs.U3_TEXT)
    w = gen_inputs.random_graph(random.Random(7), 8)
    with open(os.path.join(runner.cwd, "small.gs"), "w", encoding="utf-8") as fh:
        fh.write(gen_inputs.graph_text("small", [f"v{i}" for i in range(8)], w))
    outputs, records = [], []
    for argv in OPS:
        record, captured, err = runner.spawn(mode, argv)
        assert record is not None, f"{' '.join(argv)}: {err}"
        outputs.append((record["rc"], captured))
        records.append(record)
    files = {}
    for folder, _, names in os.walk(runner.cwd):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, runner.cwd)] = fh.read()
    return outputs, files, records


def test_tracing_keeps_output_and_reaches_every_binding(tmp_path):
    plain_out, plain_files, _ = _run_all(str(tmp_path / "plain"), "run")
    traced_out, traced_files, records = _run_all(str(tmp_path / "traced"), "trace")
    for argv, plain, traced in zip(OPS, plain_out, traced_out):
        assert plain == traced, " ".join(argv)
    assert plain_files == traced_files

    totals = tracer.Totals()
    for record in records:
        totals.add_dump(record["prefix"] + ".trace")
    silent = {label for label, calls in totals.binding_calls.items() if calls == 0}
    assert silent <= UNREACHED, sorted(silent - UNREACHED)
    metrics = tracer.layer_metrics(totals)
    for name in ("fraisse.search_amalgam.calls", "fraisse.amalgamate.calls", "classes.enumerate.candidates",
                 "structure.validated_builds.calls", "algebra.check_rank.calls"):
        assert metrics[name][0] > 0, name
