"""Command-line output, exit codes, and the limit build/replay round trip."""

import os

import pytest

from gradedmodels.cli import main


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
        "constructed: 54\n"
        "searched: 0\n"
        "no counterexamples\n"
    )


def test_limit_build_k2_and_replay(tmp_path, capsys):
    built, replayed = tmp_path / "built", tmp_path / "replayed"
    rc, out = run(["limit", "build", "--class", "k2", "--chain", "bool", "--stages", "2",
                   "--budget", "3", "--out", str(built)], capsys)
    assert rc == 0
    assert out.splitlines()[2:] == ["stage0 1", "stage1 14", "stage2 54"]
    rc, out = run(["limit", "replay", "--transcript", str(built / "transcript.json"),
                   "--out", str(replayed)], capsys)
    assert (rc, out) == (0, "stages 3\n")
    assert len(stage_files(built)) == 3
    assert stage_files(built) == stage_files(replayed)


def test_eval_unknown_element_is_an_error(tmp_path, capsys):
    path = tmp_path / "g.gs"
    path.write_text("structure g chain=luk:3\nelements a b\ndefault 0\n< a b = 2\n")
    rc = main(["eval", "--structure", str(path), "--formula", "x < x", "--assign", "x=nosuch"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'nosuch'" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--class", "k0", "--chain", "bool", "--k", "2", "--property", "ap", "--jobs", "2"],
    ["check", "--class", "k0", "--chain", "bool", "--k", "2", "--property", "ap", "--seed", "1"],
    ["limit", "build", "--class", "k1", "--chain", "bool", "--stages", "0", "--budget", "1",
     "--out", "unused", "--seed", "1"],
])
def test_removed_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
