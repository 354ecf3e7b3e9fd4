"""The README's examples run: its python block, and each command line it lists."""

import pathlib
import re
import shlex

import pytest

import diskarea.cli as cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _python_block():
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    return block


def _command_lines():
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("diskarea ")]


def test_python_example_runs(capsys):
    exec(compile(_python_block(), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_command_lines_are_listed():
    assert _command_lines()


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_exits_zero(capsys, line):
    code = cli.main(shlex.split(line)[1:])
    capsys.readouterr()
    assert code == 0, line
