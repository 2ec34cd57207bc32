"""README drift: its commands parse and pass the CLI's refusals, its
table of methods is the solvers' table of the fields each method reads,
its Defaults paragraph names the dataclass field defaults, and its exit
codes are the CLI's."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from specsum import cli, solvers
from specsum.cli import build_parser, main
from specsum.harness import ExperimentSpec
from specsum.solvers import SolverConfig

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


def paragraph(start):
    """The README paragraph that begins with ``start``, its lines joined."""
    match = re.search(rf"^{re.escape(start)}.*?(?=\n\n)", README, re.S | re.M)
    assert match, f"no paragraph starts with {start!r}"
    return " ".join(match.group(0).split())


def field_of(name, config):
    """The dataclass field a README name stands for: the field's own name,
    or the flag that sets it."""
    if name in {f.name for f in fields(config)}:
        return name
    flags = dict(cli._PROBLEM_FLAGS + cli._SOLVER_FLAGS + cli._AGGREGATE_FLAGS)
    return flags[f"--{name}"].get("dest", name.replace("-", "_"))


@pytest.mark.parametrize("config", [SolverConfig, ExperimentSpec], ids=lambda c: c.__name__)
def test_readme_defaults_are_the_field_defaults(config):
    # `SolverConfig`: `name = value`, ..., reuse and damping on.
    # `ExperimentSpec`: `name = value`, ...  Every field with a default is
    # named, and each value is that default
    text = paragraph("Defaults.")
    part = re.search(rf"`{config.__name__}`: (.*?)\.(?= [A-Z`])", text).group(1)
    named = {field_of(name, config): value
             for name, value in re.findall(r"`([\w-]+) = ([^`]+)`", part)}
    switches = re.findall(r"(\w+) and (\w+) on", part)
    defaults = {f.name: f.default for f in fields(config) if f.default is not None}
    types = {f.name: f.type for f in fields(config)}
    assert {name: types[name](value) for name, value in named.items()} == {
        name: value for name, value in defaults.items() if types[name] is not bool}
    assert {name for pair in switches for name in pair} == {
        name for name, value in defaults.items() if value is True}


def test_readme_exit_codes_are_the_cli_codes():
    codes = re.findall(r"(?:^Exit codes: |; )(\d+) ", paragraph("Exit codes:"))
    assert sorted(int(c) for c in codes) == [0, 1, 2, 3]
    assert {value for name, value in vars(cli).items() if name.startswith("EXIT_")} == {0, 1, 2, 3}
