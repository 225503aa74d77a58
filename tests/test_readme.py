"""The README's Python examples run as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
