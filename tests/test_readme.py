"""README.md's Python examples run as written."""

from __future__ import annotations

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_python_blocks_run():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, README, "exec"), {})
