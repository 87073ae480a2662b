"""Every fenced python block of README.md runs against the package, and every
`divcorr` line of its "Command line" block runs through cli.main and exits 0."""

import re
import shlex
from pathlib import Path

from divcorr.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_command_lines_exit_0():
    (block,) = re.findall(
        r"^## Command line\n\n```\n(.*?)^```", README.read_text(), re.S | re.M
    )
    lines = [line for line in block.splitlines() if line.startswith("divcorr ")]
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
