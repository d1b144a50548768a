"""Output bytes at each SIMD dispatch level of numpy that this CPU offers.

numpy picks its loops by CPU feature when it is imported, and
``NPY_DISABLE_CPU_FEATURES`` in a child process's environment turns
dispatch targets off for that child only.  ``reproduce fig3c`` and the
data part of ``reproduce fig2d --format json``, written by a child at a
lower level, must have the bytes of a child at the default level.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

SRC = Path(__file__).resolve().parents[1] / "src"
MANIFEST_CUT = b',\n  "manifest": '
OUTPUTS = {"fig3c.csv": ["reproduce", "fig3c"],
           "fig2d.json": ["reproduce", "fig2d", "--format", "json"]}
# the lowest dispatch target with FMA3, in numpy's two naming schemes
FMA_TARGETS = ("X86_V3", "AVX2")
NON_FMA = ("without FMA, numpy's baseline loops round complex '*', 'square' "
           "and 'abs' differently, which moves the last bit of some values")


def dispatch_levels() -> list:
    """pytest params of (NPY_DISABLE_CPU_FEATURES value) for the levels below
    this CPU's default: the lowest target with FMA3, the targets above it
    off, and numpy's baseline loops, every dispatched target off."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return []
    on = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    levels = [pytest.param(" ".join(on[on.index(t) + 1:]), id=t)
              for t in FMA_TARGETS if t in on[:-1]]
    if on and not {"FMA3", "X86_V3", "X86_V4"} & set(umath.__cpu_baseline__):
        levels.append(pytest.param(" ".join(on), id="baseline",
                                   marks=pytest.mark.xfail(strict=True, reason=NON_FMA)))
    return levels


LEVELS = dispatch_levels()


def digests(directory: Path, disabled=None) -> dict:
    """sha256 of each of OUTPUTS written by one child process, the JSON
    without its manifest, at the level that ``disabled`` leaves on."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    directory.mkdir()
    script = ("import sys; from spinhall.cli import main; "
              f"sys.exit(max(main(a + ['--out', o]) for o, a in {OUTPUTS!r}.items()))")
    subprocess.run([sys.executable, "-c", script], env=env, cwd=directory, check=True,
                   stdout=subprocess.DEVNULL)
    out = {}
    for name in OUTPUTS:
        data = (directory / name).read_bytes()
        if name.endswith(".json"):
            data = data[:data.rfind(MANIFEST_CUT)]
        out[name] = hashlib.sha256(data).hexdigest()
        (directory / name).unlink()
    return out


@pytest.fixture(scope="module")
def default_digests(tmp_path_factory):
    return digests(tmp_path_factory.mktemp("dispatch") / "default")


@pytest.mark.skipif(not LEVELS, reason="numpy offers one dispatch level on this CPU")
@pytest.mark.parametrize("disabled", LEVELS or [None])
def test_same_bytes_at_each_dispatch_level(disabled, default_digests, tmp_path):
    assert digests(tmp_path / "level", disabled) == default_digests
