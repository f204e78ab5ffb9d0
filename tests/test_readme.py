"""README.md's examples run as written, so the documented API and CLI cannot drift.

Every ```python block imports only names it uses and runs, and every
`saco` command of the CLI quick start and of the Experiments block runs,
each block in order, in one temporary directory.  Every ``scripts/*.py``
file the README names exists.  The Install section's requirements line
states pyproject.toml's.
"""

import re
import shlex
from pathlib import Path

import pytest

from saco import cli
from test_unused_imports import unused_imports

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def python_blocks():
    """(first line number, source) of each ```python fenced block."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", text, re.S | re.M)]


def saco_commands(heading):
    """Each `saco` command of the first block under ``## heading``, continuation
    lines joined."""
    text = README.read_text(encoding="utf-8")
    block = re.search(rf"^## {re.escape(heading)}\n\n```\n(.*?)^```$", text, re.S | re.M)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("saco ")]


def run_commands(commands, capsys):
    for command in commands:
        rc = cli.main(shlex.split(command)[1:])
        assert rc == 0, f"{command!r} exited {rc}: {capsys.readouterr().err}"


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    # the library quick start and the encoder example
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(line, source, tmp_path, monkeypatch):
    assert unused_imports(source) == []
    # tracebacks name README.md, counting lines from the block's first line
    monkeypatch.chdir(tmp_path)
    exec(compile(source, f"{README}:{line}", "exec"), {"__name__": "__main__"})


def test_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    commands = saco_commands("Quick start (CLI)")
    # gen, select, plot-layout, gen, pipeline, bench-greedy
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    run_commands(commands, capsys)


def test_experiments_commands_run(tmp_path, monkeypatch, capsys):
    commands = saco_commands("Experiments")
    # bench-greedy
    assert commands
    monkeypatch.chdir(tmp_path)
    run_commands(commands, capsys)


def test_named_scripts_exist():
    named = set(re.findall(r"scripts/\w+\.py", README.read_text(encoding="utf-8")))
    assert named, "the README names no script"
    assert [name for name in sorted(named) if not (README.parent / name).is_file()] == []


def test_requirements_line_matches_pyproject():
    readme = README.read_text(encoding="utf-8")
    line = re.search(r"^Requires Python (.*?)\.$", readme, re.S | re.M)[1]
    stated = dict(re.findall(r"(\w+) >= ([\d.]+)", line))
    project = PYPROJECT.read_text(encoding="utf-8")
    deps = re.search(r"^dependencies = \[(.*?)\]", project, re.S | re.M)[1]
    assert stated == dict(re.findall(r'"(\w+)>=([\d.]+)"', deps))
    python = re.search(r'^requires-python = ">=([\d.]+)"', project, re.M)[1]
    assert line.startswith(f"{python}+,")
