"""Every fenced python block of README.md runs as written, and every
`ensgrad` line of its sh blocks parses, so its examples cannot drift from
the library and the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from ensgrad.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.S | re.M)
# one line per command, its backslash continuations joined
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.S | re.M)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("ensgrad ")]


def test_readme_has_its_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a block that writes files writes them here
    exec(compile(code, str(README), "exec"), {"__name__": "readme_block"})


def test_readme_has_its_commands():
    assert len(COMMANDS) >= 6


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    words = shlex.split(line)
    # the command ends at its first shell redirection or pipe
    end = next((i for i, w in enumerate(words) if re.match(r"\d*[<>|]", w)), len(words))
    build_parser().parse_args(words[1:end])
