"""Every ```python block of README.md runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    """(first line number, source) of each ```python fenced block."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", text, re.S | re.M)]


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    # the library quick start and the encoder example
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(line, source, tmp_path, monkeypatch):
    # tracebacks name README.md, counting lines from the block's first line
    monkeypatch.chdir(tmp_path)
    exec(compile(source, f"{README}:{line}", "exec"), {"__name__": "__main__"})
