"""The README's library examples run as documented."""
import re
import textwrap
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
# fenced python blocks, also those indented under a list item
BLOCKS = [textwrap.dedent(m.group(2)) for m in
          re.finditer(r"^( *)```python\n(.*?)^\1```", README.read_text(), flags=re.MULTILINE | re.DOTALL)]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
