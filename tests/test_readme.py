"""README drift: its commands parse and pass the CLI's refusals, and its
table of methods is the solvers' table of the fields each method reads."""

import re
import shlex
from pathlib import Path

import pytest

from specsum import solvers
from specsum.cli import build_parser, main
from specsum.harness import ExperimentSpec

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_commands():
    """Each ``specsum`` command of a fenced block, continuation lines joined."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README, re.S | re.M):
        text = block.replace("\\\n", " ")
        for line in text.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["specsum"]:
                commands.append(argv[1:])
    return commands


class Built(Exception):
    """Raised in place of building the problem: every refusal came before."""


def test_readme_has_commands_of_every_subcommand():
    assert {argv[0] for argv in fenced_commands()} == {"generate", "run", "sweep-m", "compare"}


@pytest.mark.parametrize("argv", fenced_commands(), ids=lambda argv: argv[0])
def test_readme_command_parses_and_is_not_refused(argv, monkeypatch, tmp_path):
    build_parser()[0].parse_args(argv)  # a bad flag exits
    if argv[0] == "generate":
        return  # it builds no experiment, so nothing refuses it
    monkeypatch.chdir(tmp_path)

    def build_problem(spec):
        raise Built

    monkeypatch.setattr(ExperimentSpec, "build_problem", build_problem)
    with pytest.raises(Built):
        main(argv)


def test_readme_method_table_is_the_solvers_table():
    rows = re.findall(r"^\| `([\w-]+)` \| ((?:`\w+`(?:, )?)+) \|$", README, re.M)
    table = {method: tuple(re.findall(r"`(\w+)`", reads)) for method, reads in rows}
    assert list(table) == list(solvers._DRIVERS)
    assert table == {method: reads for method, (_, reads) in solvers._DRIVERS.items()}
