"""Every fenced python block of README.md runs as written, so its examples
cannot drift from the library."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_its_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a block that writes files writes them here
    exec(compile(code, str(README), "exec"), {"__name__": "readme_block"})
