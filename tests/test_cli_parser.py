"""The command-line matcher against argparse, both built from one table,
and argparse kept out of the start-up of a plain command."""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import gradedmodels
from gradedmodels import cli

import cli_digests


def argparse_vars(argv):
    """``vars()`` of argparse's namespace for ``argv``, or None when it
    exits with help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser(argv).parse_args(argv))
        except SystemExit:
            return None


# Words that argparse treats in every way a value or positional can be
# treated: plain, empty, with a space, a negative number (a value to
# argparse here), a lone "-", an option-like word, "--" and help.
ODD_WORDS = ["", "a b", "-4", "-", "-x", "--", "-h", "--help", "k9", "4.5", " 3", "extra"]


def plain_value(kw):
    """A value that argparse takes for the option of keywords ``kw``."""
    if "choices" in kw:
        return st.sampled_from(kw["choices"])
    if "type" in kw:
        return st.integers(0, 20).map(str)
    return st.sampled_from(["bool", "luk:3", "f.gs", "x < y", "k0"])


@st.composite
def command_lines(draw):
    """A command line from ``cli._ARGUMENTS``: mostly plain, with
    options in any order, dropped or repeated, spelled with ``=`` or
    abbreviated, odd values, positionals moved among the options, and
    extra or missing words."""
    key = draw(st.sampled_from(list(cli._ARGUMENTS)))
    rare = st.integers(0, 11).map(lambda n: n == 0)
    head = list(key)
    if draw(rare):
        head = draw(st.lists(st.sampled_from(head + ["frobnicate", "-h"]), max_size=3))
    positionals = [draw(st.sampled_from(["f.gs", "luk:4", "enumerate"]) | st.sampled_from(ODD_WORDS))
                   if draw(rare) else "f.gs"
                   for name, _ in cli._ARGUMENTS[key] if name[0] != "-"]
    if draw(rare):
        positionals = positionals[:draw(st.integers(0, len(positionals)))]
    options = []
    for flag, kw in cli._ARGUMENTS[key]:
        if flag[0] != "-" or (not kw.get("required") and draw(st.booleans())) or draw(rare):
            continue
        for _ in range(2 if draw(rare) else 1):
            spelled = flag[:draw(st.integers(3, len(flag)))] if draw(rare) else flag
            if kw.get("action") == "store_true":
                options.append([spelled])
                continue
            value = draw(st.sampled_from(ODD_WORDS)) if draw(rare) else draw(plain_value(kw))
            options.append([f"{spelled}={value}"] if draw(rare) else [spelled, value])
    options = draw(st.permutations(options))
    words = [w for option in options for w in option]
    for word in positionals:
        words.insert(draw(st.integers(0, len(words))) if draw(rare) else 0, word)
    if draw(rare):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(ODD_WORDS)))
    return head + words


@settings(max_examples=1500, deadline=None)
@given(command_lines())
def test_the_matcher_declines_or_gives_argparses_namespace(argv):
    """Where the matcher takes a line, argparse takes it too and gives the
    same namespace; so argparse fails only on lines the matcher declines."""
    matched = cli._match(argv)
    if matched is not None:
        assert vars(matched) == argparse_vars(argv)


def test_the_matcher_takes_every_plain_digest_command():
    """It takes every valid command of ``cli_digests`` with argparse's
    namespace, and declines the argparse-only spellings, help and
    usage errors."""
    declined = cli_digests.ARGPARSE_ONLY + cli_digests.USAGE
    plain = [argv for argv in cli_digests.COMMANDS if argv not in declined]
    assert len(plain) + len(declined) == len(cli_digests.COMMANDS)
    for argv in plain:
        matched = cli._match(argv)
        assert matched is not None, argv
        assert vars(matched) == argparse_vars(argv), argv
    assert [argv for argv in declined if cli._match(argv) is not None] == []
    assert [argv for argv in cli_digests.ARGPARSE_ONLY if argparse_vars(argv) is None] == []


# The sha256 of the top-level help at 80 columns, as ``cli_digests.py``
# records it on its ``-h`` line.
TOP_HELP_SHA256 = "e748821ca8dea773f1751a4fbbcf8ac0ae2f7dff5f702342f2f6ea9dc0113aa1"

STARTUP_PROBE = """
import contextlib, hashlib, io, sys
from gradedmodels import cli
assert cli.main(["enumerate", "--class", "k1", "--chain", "bool", "--max-size", "2",
                 "--count-only"]) == 0
print("argparse" in sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        cli.main(["-h"])
    except SystemExit as exc:
        code = exc.code
print(code, "argparse" in sys.modules, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_argparse_is_imported_only_for_help_and_errors():
    src = str(pathlib.Path(gradedmodels.__file__).parent.parent)
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["3", "False", f"0 True {TOP_HELP_SHA256}"]
