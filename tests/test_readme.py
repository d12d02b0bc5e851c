"""The README's command-line examples, run as written.

Every fenced ``sh`` block whose first line is a ``$ bsharp`` prompt is a
command (``\\`` continuation lines joined) followed by its exact stdout.
"""

import re
import shlex
from pathlib import Path

import pytest
from test_cli import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"

_BLOCK_RE = re.compile(r"^```sh\n(.*?)^```$", re.S | re.M)


def readme_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for every ``$ bsharp`` block."""
    examples = []
    for block in _BLOCK_RE.findall(README.read_text(encoding="utf-8")):
        if not block.startswith("$ bsharp"):
            continue
        lines = block.splitlines(keepends=True)
        command = lines.pop(0)[2:].rstrip("\n")
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0).rstrip("\n")
        examples.append((command, "".join(lines)))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c.split()[1] for c, _ in EXAMPLES])
def test_readme_example_output(command, expected):
    program, *args = shlex.split(command)
    assert program == "bsharp"
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
