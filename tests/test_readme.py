"""The README's "Library quick start" blocks, run as written."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_blocks():
    section = README.read_text().split("\n## Library quick start\n")[1].split("\n## ")[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_quick_start_prints_what_its_comments_state():
    """The study block prints successes=10 and a negative max_real_part;
    the Hopfield block, which reuses its targets, prints True False."""
    blocks = _quick_start_blocks()
    assert len(blocks) == 2
    out, namespace = StringIO(), {}
    with redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    summary, max_real_part, hopfield = out.getvalue().splitlines()
    assert "successes=10)" in summary
    assert float(max_real_part) < 0
    assert hopfield == "True False"
