"""Every command in the README's "Command line" block runs and exits 0;
where its trailing comment is a `key = value` line or a bare number,
stdout contains it."""

import io
import re
import shlex
from pathlib import Path

import pytest

from tanglelab.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _commands():
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "tanglelab", line
        comment = comment.strip()
        value = comment if re.fullmatch(r"\S+ = \S+|\d+", comment) else None
        out.append((argv[1:], value))
    return out


COMMANDS = _commands()


def test_the_block_is_parsed():
    assert len(COMMANDS) >= 17
    assert sum(value is not None for _, value in COMMANDS) >= 7


@pytest.mark.parametrize(
    "argv, value", COMMANDS, ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in enumerate(COMMANDS)]
)
def test_readme_command(argv, value):
    buf = io.StringIO()
    assert run(argv, stdout=buf) == 0, buf.getvalue()
    if value is not None:
        assert value in buf.getvalue()
