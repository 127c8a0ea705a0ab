"""README.md's examples: the library quick start holds as doctests, and
each command of the CLI tour exits 0."""

from __future__ import annotations

import doctest
import shlex
from pathlib import Path

import pytest

from collatz_descent.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_commands() -> list[str]:
    """The lines of the CLI tour's shell block, less the program name and the comments."""
    block = README.read_text().split("## CLI tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        program, _, args = line.split("#", 1)[0].strip().partition(" ")
        assert program == "collatz-descent", line
        commands.append(args)
    return commands


def test_quick_start_examples_hold():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted and not failed


@pytest.mark.parametrize("command", _tour_commands())
def test_cli_tour_command_exits_0(capsys, command):
    assert main(shlex.split(command)) == 0
    out, err = capsys.readouterr()
    assert out and not err
