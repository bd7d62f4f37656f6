"""Command-line interface with deterministic, golden-testable output.

Exit codes: 0 when the requested check passed or the build succeeded,
1 on a failed check or domain error, 2 on usage errors.  ``--format
tsv`` switches reports to tab-separated rows.

``_ARGUMENTS`` is the one place where positionals and options are
declared.  Two parsers read it.  ``_match`` takes a command line spelled
the plain way: positionals right after the command and its action, then
each option once by its full flag with a separate, valid value.  It
gives the namespace that argparse would.  Every other spelling reaches
argparse, whose parser ``build_parser`` makes from the same table:
``-h``, abbreviations, ``--opt=value``, ``--``, a repeated option, an
option before a positional, a value or positional that starts with
``-``, and every usage error.  Argparse stays for those because it
writes all help and usage text, and so keeps them as they were.  It is
imported and built only for them because importing it and building its
parsers takes a few milliseconds per command, as long as a small
command's own work.
"""

from __future__ import annotations

import hashlib
import os
import sys
import types

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
            var, _, elem = (part.strip() for part in item.partition("="))
            # split() drops every whitespace character, so this also rejects "".
            if not elem or var.split() != [var]:
                raise GradedModelError(f"bad assignment item {item!r}")
            if var in assignment:
                raise GradedModelError(f"variable {var!r} is assigned twice")
            assignment[var] = elem
    value = logic.evaluate(m, formula, assignment)
    verdict = "yes" if m.chain.in_filter(value) else "no"
    _emit(out, [("value", value), ("in_filter", verdict)], args.format)
    return 0


def _cmd_iso(args, out) -> int:
    a = _load_structure(args.file_a)
    b = _load_structure(args.file_b)
    iso = structure.is_isomorphic(a, b)
    if iso is None:
        print("not isomorphic", file=out)
        return 1
    pairs = " ".join(f"{x}->{iso[x]}" for x in a.universe)
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
        rows += [(report.property, detail) for detail in report.counterexamples]
        if not report.counterexamples:
            rows.append(("ok",))
        _emit(out, rows, "tsv")
    else:
        print(report.render(), file=out)
    return 0 if report.ok else 1


def _report_defects(defects, out) -> int:
    """Print the defect count and the sorted renderings; 0 when there are none."""
    print(f"defects {len(defects)}", file=out)
    for d in sorted(x.render() for x in defects):
        print(d, file=out)
    return 0 if not defects else 1


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
    return _report_defects(fraisse.check_extension_property(m, spec, args.budget), out)


def _cmd_randgraph(args, out) -> int:
    if args.action == "build":
        chain = algebra.resolve_chain(args.chain)
        graph = fraisse.random_weighted_graph(chain, args.rounds)
        print(structure.structure_to_text(graph), end="", file=out)
        return 0
    m = _load_structure(args.structure)
    return _report_defects(fraisse.check_random_graph_property(m, args.max_x), out)


# Per command: its handler and its help line in the top-level usage.
_COMMANDS = {
    "algebra": (_cmd_algebra, "validate or print chains"),
    "eval": (_cmd_eval, "evaluate a formula in a structure"),
    "iso": (_cmd_iso, "isomorphism between two structure files"),
    "age": (_cmd_age, "isomorphism types generated by small subsets"),
    "sub": (_cmd_sub, "substructure test between two files"),
    "enumerate": (_cmd_enumerate, "isomorphism types of a class"),
    "check": (_cmd_check, "hereditary/joint-embedding/amalgamation checks"),
    "limit": (_cmd_limit, "stage-wise limit construction"),
    "randgraph": (_cmd_randgraph, "random weighted graph"),
}


# The one place where the arguments are declared: per command, or per
# command and action, its positionals and options in declaration order,
# each as a flag or positional name and the keywords of argparse's
# ``add_argument``.  Both ``_match`` and ``build_parser`` read them, and
# the order is argparse's order in help and usage text.
_FORMAT = ("--format", {"choices": ("text", "tsv"), "default": "text"})
_CLASS = ("--class", {"dest": "klass", "required": True, "choices": classes.class_names()})
_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}

_ARGUMENTS = {
    ("algebra", "validate"): [("file", {})],
    ("algebra", "show"): [_FORMAT, ("ref", {})],
    ("eval",): [_FORMAT, ("--structure", _REQUIRED), ("--formula", _REQUIRED),
                ("--assign", {"default": ""})],
    ("iso",): [("file_a", {}), ("file_b", {})],
    ("age",): [("file", {}), ("--k", _INT)],
    ("sub",): [("file_a", {}), ("file_b", {})],
    ("enumerate",): [_CLASS, ("--chain", _REQUIRED), ("--max-size", _INT),
                     ("--count-only", {"action": "store_true"})],
    ("check",): [_FORMAT, _CLASS, ("--chain", _REQUIRED), ("--k", _INT),
                 ("--property", {"required": True, "choices": ("hp", "jep", "ap")})],
    ("limit", "build"): [_FORMAT, _CLASS, ("--chain", _REQUIRED), ("--stages", _INT),
                         ("--budget", _INT), ("--out", _REQUIRED),
                         ("--seed-order", {"type": int,
                                           "help": "permute the member enumeration order"})],
    ("limit", "check"): [("--stage", _REQUIRED), _CLASS, ("--budget", _INT)],
    ("limit", "replay"): [_FORMAT, ("--transcript", _REQUIRED), ("--out", _REQUIRED)],
    ("randgraph", "build"): [("--chain", _REQUIRED), ("--rounds", _INT)],
    ("randgraph", "check"): [("--structure", _REQUIRED), ("--max-x", _INT)],
}

# No abbreviations here, so that ``--seed`` is an error rather than ``--seed-order``.
_NO_ABBREVIATIONS = ("limit", "build")


def _match(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace that argparse would give ``argv``, when ``argv`` is
    spelled the plain way, else None.

    The plain way is the command, its action if it has actions, every
    positional, then each option once by its full flag, followed by its
    value unless it is a ``store_true`` flag; every required option
    given, every value of its type and among its choices, and no value
    or positional that starts with ``-``.  Anything else is declined:
    ``-h``, an abbreviation, ``--opt=value``, ``--``, a repeated option,
    an unknown, missing or invalid one, and a positional too many or
    too few.  Some of those argparse accepts, the others it answers
    with usage or help text; ``main`` hands every one of them to it.
    """
    key = tuple(argv[:1])
    if key not in _ARGUMENTS:
        key = tuple(argv[:2])
        if key not in _ARGUMENTS:
            return None
    values = dict(zip(("command", "action"), key))
    positionals = [name for name, _ in _ARGUMENTS[key] if name[0] != "-"]
    options = {flag: kw for flag, kw in _ARGUMENTS[key] if flag[0] == "-"}
    words = argv[len(key):]
    head = words[:len(positionals)]
    if len(head) < len(positionals) or any(w[:1] == "-" for w in head):
        return None
    values.update(zip(positionals, head))
    given = {}
    rest = iter(words[len(head):])
    for flag in rest:
        kw = options.get(flag)
        if kw is None or flag in given:
            return None
        if kw.get("action") == "store_true":
            given[flag] = True
            continue
        # A missing value declines as one that starts with "-" does.
        value = next(rest, "-")
        if value[:1] == "-":
            return None
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value
    for flag, kw in options.items():
        if flag in given:
            value = given[flag]
        elif kw.get("required"):
            return None
        else:
            value = kw.get("default", False if kw.get("action") == "store_true" else None)
        values[kw.get("dest", flag[2:].replace("-", "_"))] = value
    return types.SimpleNamespace(**values)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The argparse parser of ``argv``, built from ``_ARGUMENTS``.

    It gives every help and usage text and takes every spelling that
    ``_match`` declines, so it is built, and argparse imported, only
    then.  Every command is registered with its help line, so the
    top-level help and usage errors list them all, but only the first
    word of ``argv`` that names a command gets its arguments, since a
    parse reaches no other command's parser; only options, which never
    name one, come before it.  With no such word no command gets any,
    and a parse stops at the top level.
    """
    import argparse

    command = next(filter(_COMMANDS.__contains__, argv), None)
    parser = argparse.ArgumentParser(prog="gradedmodels",
                                     description="graded structures over finite residuated chains")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_line)
        if name != command:
            continue
        actions = None
        for key, arguments in _ARGUMENTS.items():
            if key[0] != name:
                continue
            target = p
            if len(key) == 2:
                actions = actions or p.add_subparsers(dest="action", required=True)
                target = actions.add_parser(key[1], allow_abbrev=key != _NO_ABBREVIATIONS)
            for flag, kw in arguments:
                target.add_argument(flag, **kw)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv) or build_parser(argv).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args, sys.stdout)
    except (GradedModelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
