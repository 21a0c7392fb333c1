"""The python block under README's "## Library quick tour" runs as written,
so the tour names only what the package still has."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", tour, re.S)
    assert block, "no python block under the quick tour heading"
    exec(compile(block.group(1), "README.md", "exec"), {})
