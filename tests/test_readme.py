"""The library example of README.md runs as written, and its list of the
supported library surface is ``spinhall.__all__``."""

import contextlib
import io
import math
import re
from pathlib import Path

import spinhall

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


def test_library_surface_is_all():
    section = re.search(r"^## Library surface\n(.*?)^## ",
                        README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE).group(1)
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, re.MULTILINE)
    listed = [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]
    assert sorted(listed) == sorted(spinhall.__all__)
