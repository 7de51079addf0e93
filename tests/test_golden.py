"""Golden CLI output on the tests/data corpus.

For each (subcommand, file) pair the subcommand accepts, the snapshot in
tests/data/golden/snapshot.json holds the exit code and the stdout, in
text and --json form, with the volatile "seconds" lines removed.  A
refactor of the algebra must leave every byte unchanged; the text form
of `linearize` prints inner dicts in insertion order, so it also pins
the order in which terms are accumulated.

Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
SNAPSHOT = DATA / "golden" / "snapshot.json"
COMMANDS = ("parse", "check-master", "check-master-f", "linearize",
            "check-bialgebra", "build-h")
_SECONDS = re.compile(r'^\s*"seconds": [-+0-9.eE]+,?\n', re.M)


def _argv(command, path, as_json):
    argv = [command, "--input", str(path)]
    text = path.read_text()
    if command == "check-master-f":
        for flag, name in (("--hplus", "Hplus"), ("--hminus", "Hminus")):
            if "series %s " % name in text:
                argv += [flag, name]
    return argv + (["--json"] if as_json else [])


def run(command, path, as_json):
    """(exit code, stdout without "seconds" lines) of one in-process call."""
    from sftstring.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(command, path, as_json))
    return code, _SECONDS.sub("", out.getvalue())


def _key(command, path, as_json):
    return "%s %s%s" % (command, path.name, " --json" if as_json else "")


def capture():
    """Every accepted (subcommand, file, form).  Exit code 2 marks input
    the subcommand does not accept, and is skipped."""
    snap = {}
    for command in COMMANDS:
        for path in sorted(DATA.glob("*.sft")):
            for as_json in (False, True):
                code, out = run(command, path, as_json)
                if code != 2:
                    snap[_key(command, path, as_json)] = {"exit": code,
                                                          "stdout": out}
    return snap


def _cases():
    if not SNAPSHOT.is_file():
        return []
    return sorted(json.loads(SNAPSHOT.read_text()))


@pytest.mark.parametrize("case", _cases())
def test_golden_output(case):
    want = json.loads(SNAPSHOT.read_text())[case]
    command, name = case.split()[:2]
    code, out = run(command, DATA / name, case.endswith("--json"))
    assert code == want["exit"]
    assert out == want["stdout"]


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
