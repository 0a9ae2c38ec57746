"""README's examples run as written: every `braidrep` line of the Command line
block exits 0 through `cli.main`, and the Library example executes and prints
what its comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from braidrep.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the `## heading` line."""
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert match, f"README has no {lang} block under {heading!r}"
    return match.group(1)


COMMANDS = [line for line in block("Command line", "sh").splitlines()
            if line.startswith("braidrep ")]
# Outputs the Command line block names in its comments.
EXPECTED = {"charpoly": "q^12*t^4 - w^3\n", "nf": "D^1\n"}


def test_command_block_is_found():
    assert len(COMMANDS) == 12


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(capsys, line):
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == 0, line
    out = capsys.readouterr().out
    if argv[0] in EXPECTED:
        assert out == EXPECTED[argv[0]]


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block("Library example", "python"), {})
    assert out.getvalue() == "q^12*t^4 - w^3\n"
