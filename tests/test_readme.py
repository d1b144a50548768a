"""The library example of README.md runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {"__name__": "readme_example"})
    brewster, shift = (float(line) for line in printed.getvalue().splitlines())
    assert 33.6 < brewster < 33.8
    assert math.isfinite(shift)
