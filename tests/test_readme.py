"""The README's CLI examples and sequence list match the program."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from qmcount.cli import main
from qmcount.sequences import SEQUENCE_NAMES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def cli_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each example in the CLI section's sh block."""
    section = README.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *lines = chunk.splitlines()
        assert command.startswith("qmcount ") and all(x.startswith("# ") for x in lines)
        examples.append((command, "".join(x[2:] + "\n" for x in lines)))
    return examples


@pytest.mark.parametrize(
    "command, expected", [pytest.param(c, out, id=c) for c, out in cli_examples()]
)
def test_readme_cli_example(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected


def test_readme_sequence_names():
    paragraph = README.split("Sequence names:", 1)[1].split("\n\n", 1)[0]
    names = tuple(re.findall(r"`([a-z_]+)`", paragraph))
    assert names == SEQUENCE_NAMES
