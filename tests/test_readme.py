"""The ``python`` examples in README.md run as printed.

Each fenced ``python`` block runs in a fresh namespace.  Every ``print``
line carries the value it prints in a ``#`` comment, on the same line or
on the next one; a comment may explain the value after ``": "``.  The
printed lines must be exactly those values, in order.
"""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def promised(block):
    """The values the block's comments give for its ``print`` lines."""
    lines = block.splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        comment = line.partition("#")[2] or lines[i + 1].strip().removeprefix("#")
        out.append(comment.strip().partition(": ")[0])
    return out


def test_the_comments_are_read_as_the_values_they_give():
    assert [promised(b) for b in BLOCKS] == [["<q | >", "[1, 3, 5, 7, 9]"], ["True"]]


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_a_readme_example_prints_what_its_comments_say(block):
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == promised(block)
