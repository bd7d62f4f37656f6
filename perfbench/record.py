"""Record the expected outputs that ``run.py`` checks against.

Run from the root of a source checkout whose outputs are trusted:

    python3 perfbench/record.py

It runs every seed-independent operation once and stores its exit code
and output digest, plus the seed-independent facts ``oracle`` needs (the
digests of the small isomorphism types), in ``perfbench/expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads


def facts(root: str) -> dict:
    """Digests of the canonical forms that ``age`` and ``limit check`` print."""
    sys.path.insert(0, os.path.join(root, "src"))
    from gradedmodels.algebra import make_lukasiewicz
    from gradedmodels.classes import enumerate_class, get_class
    from gradedmodels.structure import binary_structure, canonical_form, restrict

    def digest(m) -> str:
        return hashlib.sha256(canonical_form(m)).hexdigest()[:12]

    luk3 = make_lukasiewicz(3)
    spec = get_class("k1")
    patterns = []
    for nprime in enumerate_class(spec, luk3, 2):
        if len(nprime.universe) != 2:
            continue  # a one-point member has no proper substructure to extend
        for src, other in (nprime.universe, nprime.universe[::-1]):
            n = restrict(nprime, (src,))
            if not spec.membership(n):
                continue
            patterns.append({"n": digest(n), "nprime": digest(nprime), "src": src,
                             "src_loop": nprime.value("<", src, src),
                             "other_loop": nprime.value("<", other, other),
                             "weight": nprime.value("<", src, other)})
    loop_types = {str(v): digest(binary_structure(luk3, ["a"], {("a", "a"): v})) for v in luk3.ranks()}
    edge_types = {
        str(v): digest(binary_structure(luk3, ["a", "b"], {("a", "a"): 0, ("b", "b"): 0,
                                                           ("a", "b"): v, ("b", "a"): v}))
        for v in luk3.ranks()
    }
    return {"k1_luk3_budget2": patterns, "loop_types": loop_types, "edge_types": edge_types}


def main() -> None:
    root = os.getcwd()
    work = os.path.join(root, ".perfbench_work", f"record-{os.getpid()}")
    runner = run.Runner(root, work, deadline_s=3600)
    known = facts(root)
    recorded = {}
    try:
        for name in ("verify", "enumerate", "limit", "inspect"):
            wl = workloads.build(name, runner.cwd, 0, known)
            for op in wl.ops:
                if op.digest is None:
                    continue
                record, captured, err = runner.spawn("run", op.argv)
                if record is None:
                    raise SystemExit(f"{op.key}: {err}")
                result = workloads.Result(record["rc"], captured, runner.cwd)
                recorded[op.key] = {"exit": record["rc"], "sha256": op.digest(result)}
                print(f"{record['main_s']:8.3f} s  exit {record['rc']}  {op.key}")
    finally:
        run.remove_work(work)
    expected = {"ops": recorded, "facts": known}
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
