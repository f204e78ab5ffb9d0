"""README.md's examples run as written, so the documented API and CLI cannot drift.

Every ```python block runs, and so does every `saco` command of the CLI
quick start, in order, in one temporary directory.
"""

import re
import shlex
from pathlib import Path

import pytest

from saco import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    """(first line number, source) of each ```python fenced block."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", text, re.S | re.M)]


def cli_quick_start():
    """Each `saco` command of the CLI quick start block, continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Quick start \(CLI\)\n\n```\n(.*?)^```$", text, re.S | re.M)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("saco ")]


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    # the library quick start and the encoder example
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(line, source, tmp_path, monkeypatch):
    # tracebacks name README.md, counting lines from the block's first line
    monkeypatch.chdir(tmp_path)
    exec(compile(source, f"{README}:{line}", "exec"), {"__name__": "__main__"})


def test_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    commands = cli_quick_start()
    # gen, select, plot-layout, gen, pipeline, bench-greedy
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SACO_SEED", raising=False)
    for command in commands:
        rc = cli.main(shlex.split(command)[1:])
        assert rc == 0, f"{command!r} exited {rc}: {capsys.readouterr().err}"
