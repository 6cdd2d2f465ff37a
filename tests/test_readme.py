"""README's ``python`` blocks run as written and print what they say.

A block's ``# `` comment lines are the output it advertises, in order; a
block without any only has to run."""
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_block_prints_its_comment_lines(block, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
    expected = [line[2:] for line in block.splitlines()
                if line.startswith("# ")]
    if expected:
        assert out.getvalue().splitlines() == expected
    else:
        assert out.getvalue()
