"""Every ``python`` code block of README.md runs as written, so a public
name that is removed or renamed without a README update fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # whatever a block writes lands here
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "__readme__"})
