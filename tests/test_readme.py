"""Every ```python block of README.md runs, each in a fresh namespace, so
an API change that breaks the documented examples fails here."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
