"""Command-line interface with deterministic, golden-testable output.

Exit codes: 0 when the requested check passed or the build succeeded,
1 on a failed check or domain error, 2 on usage errors.  ``--format
tsv`` switches reports to tab-separated rows.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from . import algebra, classes, fraisse, logic, structure
from .errors import GradedModelError

def _load_structure(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return structure.structure_from_text(fh.read())


def _digest(form: bytes) -> str:
    return hashlib.sha256(form).hexdigest()[:12]


def _emit(out, rows, fmt: str):
    """Render rows as aligned plain text or raw tab-separated values."""
    if fmt == "tsv":
        for row in rows:
            print("\t".join(str(c) for c in row), file=out)
    else:
        for row in rows:
            print(" ".join(str(c) for c in row), file=out)


def _cmd_algebra(args, out) -> int:
    if args.action == "validate":
        with open(args.file, "r", encoding="utf-8") as fh:
            chain = algebra.chain_from_text(fh.read())
        print(f"valid chain {chain.name} size={chain.size} one={chain.one} zero={chain.zero}", file=out)
        return 0
    chain = algebra.resolve_chain(args.ref)
    rows = [("chain", chain.name, chain.size, f"one={chain.one}", f"zero={chain.zero}"), ("conj",)]
    rows += [tuple(r) for r in chain.conj_table]
    rows.append(("res",))
    rows += [tuple(r) for r in chain.res_table]
    _emit(out, rows, args.format)
    return 0


def _cmd_eval(args, out) -> int:
    m = _load_structure(args.structure)
    formula = logic.parse_formula(args.formula, m.signature)
    assignment = {}
    if args.assign:
        for item in args.assign.split(","):
            var, _, elem = item.partition("=")
            if not var or not elem:
                raise GradedModelError(f"bad assignment item {item!r}")
            assignment[var.strip()] = elem.strip()
    value = logic.evaluate(m, formula, assignment)
    verdict = "yes" if m.chain.in_filter(value) else "no"
    _emit(out, [("value", value), ("in_filter", verdict)], args.format)
    return 0


def _cmd_iso(args, out) -> int:
    a = _load_structure(args.file_a)
    b = _load_structure(args.file_b)
    mor = structure.is_isomorphic(a, b)
    if mor is None:
        print("not isomorphic", file=out)
        return 1
    pairs = " ".join(f"{x}->{mor.mapping[x]}" for x in a.universe)
    print(f"isomorphic {pairs}", file=out)
    return 0


def _cmd_age(args, out) -> int:
    m = _load_structure(args.file)
    forms = structure.age(m, args.k)
    print(f"types {len(forms)}", file=out)
    for digest in sorted(_digest(f) for f in forms):
        print(digest, file=out)
    return 0


def _cmd_sub(args, out) -> int:
    a = _load_structure(args.file_a)
    b = _load_structure(args.file_b)
    if structure.is_substructure(a, b):
        print("substructure", file=out)
        return 0
    print("not a substructure", file=out)
    return 1


def _cmd_enumerate(args, out) -> int:
    spec = classes.get_class(args.klass)
    chain = algebra.resolve_chain(args.chain)
    members = classes.enumerate_class(spec, chain, args.max_size)
    if args.count_only:
        print(len(members), file=out)
        return 0
    for i, m in enumerate(members):
        print(f"# type[{i}] size={len(m.universe)}", file=out)
        print(structure.structure_to_text(m), end="", file=out)
    print(f"total {len(members)}", file=out)
    return 0


def _cmd_check(args, out) -> int:
    spec = classes.get_class(args.klass)
    chain = algebra.resolve_chain(args.chain)
    checker = {"hp": classes.check_hp, "jep": classes.check_jep, "ap": classes.check_ap}[args.property]
    report = checker(spec, chain, args.k)
    if args.format == "tsv":
        rows = [(report.property, report.class_name, report.chain_name, report.k, report.checked)]
        rows += [(k, v) for k, v in sorted(report.stats.items())]
        rows += [(c.kind, c.detail) for c in report.counterexamples]
        if not report.counterexamples:
            rows.append(("ok",))
        _emit(out, rows, "tsv")
    else:
        print(report.render(), file=out)
    return 0 if report.ok else 1


def _write_stages(folder: str, stages) -> None:
    os.makedirs(folder, exist_ok=True)
    for i, stage in enumerate(stages):
        with open(os.path.join(folder, f"stage{i:03d}.gs"), "w", encoding="utf-8") as fh:
            fh.write(structure.structure_to_text(stage))


def _cmd_limit(args, out) -> int:
    if args.action == "build":
        spec = classes.get_class(args.klass)
        chain = algebra.resolve_chain(args.chain)
        stages, transcript = fraisse.build_limit(
            spec, chain, args.stages, args.budget, shuffle_seed=args.seed_order
        )
        _write_stages(args.out, stages)
        with open(os.path.join(args.out, "transcript.json"), "w", encoding="utf-8") as fh:
            fh.write(transcript.to_json())
        rows = [("stages", len(stages)), ("events", len(transcript.events))]
        rows += [(f"stage{i}", len(s.universe)) for i, s in enumerate(stages)]
        _emit(out, rows, args.format)
        return 0
    if args.action == "replay":
        with open(args.transcript, "r", encoding="utf-8") as fh:
            transcript = fraisse.Transcript.from_json(fh.read())
        stages = fraisse.replay_transcript(transcript)
        _write_stages(args.out, stages)
        _emit(out, [("stages", len(stages))], args.format)
        return 0
    m = _load_structure(args.stage)
    spec = classes.get_class(args.klass)
    defects = fraisse.check_extension_property(m, spec, args.budget)
    print(f"defects {len(defects)}", file=out)
    for d in sorted(x.render() for x in defects):
        print(d, file=out)
    return 0 if not defects else 1


def _cmd_randgraph(args, out) -> int:
    if args.action == "build":
        chain = algebra.resolve_chain(args.chain)
        graph = fraisse.random_weighted_graph(chain, args.rounds)
        print(structure.structure_to_text(graph), end="", file=out)
        return 0
    m = _load_structure(args.structure)
    defects = fraisse.check_random_graph_property(m, args.max_x)
    print(f"defects {len(defects)}", file=out)
    for d in sorted(x.render() for x in defects):
        print(d, file=out)
    return 0 if not defects else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "tsv"), default="text")

    parser = argparse.ArgumentParser(prog="gradedmodels",
                                     description="graded structures over finite residuated chains")
    subs = parser.add_subparsers(dest="command", required=True)

    p_algebra = subs.add_parser("algebra", parents=[common], help="validate or print chains")
    alg_subs = p_algebra.add_subparsers(dest="action", required=True)
    p_val = alg_subs.add_parser("validate", parents=[common])
    p_val.add_argument("file")
    p_show = alg_subs.add_parser("show", parents=[common])
    p_show.add_argument("ref")

    p_eval = subs.add_parser("eval", parents=[common], help="evaluate a formula in a structure")
    p_eval.add_argument("--structure", required=True)
    p_eval.add_argument("--formula", required=True)
    p_eval.add_argument("--assign", default="")

    p_iso = subs.add_parser("iso", parents=[common], help="isomorphism between two structure files")
    p_iso.add_argument("file_a")
    p_iso.add_argument("file_b")

    p_age = subs.add_parser("age", parents=[common], help="isomorphism types generated by small subsets")
    p_age.add_argument("file")
    p_age.add_argument("--k", type=int, required=True)

    p_sub = subs.add_parser("sub", parents=[common], help="substructure test between two files")
    p_sub.add_argument("file_a")
    p_sub.add_argument("file_b")

    p_enum = subs.add_parser("enumerate", parents=[common], help="isomorphism types of a class")
    p_enum.add_argument("--class", dest="klass", required=True, choices=classes.class_names())
    p_enum.add_argument("--chain", required=True)
    p_enum.add_argument("--max-size", type=int, required=True)
    p_enum.add_argument("--count-only", action="store_true")

    p_check = subs.add_parser("check", parents=[common], help="hereditary/joint-embedding/amalgamation checks")
    p_check.add_argument("--class", dest="klass", required=True, choices=classes.class_names())
    p_check.add_argument("--chain", required=True)
    p_check.add_argument("--k", type=int, required=True)
    p_check.add_argument("--property", required=True, choices=("hp", "jep", "ap"))

    p_limit = subs.add_parser("limit", parents=[common], help="stage-wise limit construction")
    limit_subs = p_limit.add_subparsers(dest="action", required=True)
    # No abbreviations, so that ``--seed`` is an error rather than ``--seed-order``.
    p_lb = limit_subs.add_parser("build", parents=[common], allow_abbrev=False)
    p_lb.add_argument("--class", dest="klass", required=True, choices=classes.class_names())
    p_lb.add_argument("--chain", required=True)
    p_lb.add_argument("--stages", type=int, required=True)
    p_lb.add_argument("--budget", type=int, required=True)
    p_lb.add_argument("--out", required=True)
    p_lb.add_argument("--seed-order", type=int, default=None,
                      help="permute the member enumeration order")
    p_lc = limit_subs.add_parser("check", parents=[common])
    p_lc.add_argument("--stage", required=True)
    p_lc.add_argument("--class", dest="klass", required=True, choices=classes.class_names())
    p_lc.add_argument("--budget", type=int, required=True)
    p_lr = limit_subs.add_parser("replay", parents=[common])
    p_lr.add_argument("--transcript", required=True)
    p_lr.add_argument("--out", required=True)

    p_rand = subs.add_parser("randgraph", parents=[common], help="random weighted graph")
    rand_subs = p_rand.add_subparsers(dest="action", required=True)
    p_rb = rand_subs.add_parser("build", parents=[common])
    p_rb.add_argument("--chain", required=True)
    p_rb.add_argument("--rounds", type=int, required=True)
    p_rc = rand_subs.add_parser("check", parents=[common])
    p_rc.add_argument("--structure", required=True)
    p_rc.add_argument("--max-x", type=int, required=True)

    return parser


_HANDLERS = {
    "algebra": _cmd_algebra,
    "eval": _cmd_eval,
    "iso": _cmd_iso,
    "age": _cmd_age,
    "sub": _cmd_sub,
    "enumerate": _cmd_enumerate,
    "check": _cmd_check,
    "limit": _cmd_limit,
    "randgraph": _cmd_randgraph,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args, sys.stdout)
    except GradedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
