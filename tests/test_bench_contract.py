"""The benchmark tracer can wrap every name it targets.

bench/tracer.py wraps named callables of carlitzhd (TARGETS).  A change that
removes or moves one of them would make every traced benchmark session fail
at install; this test fails first, and names the target that is missing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import carlitzhd
import carlitzhd.cli
from tracer import Tracer
Tracer(0).install(carlitzhd)
"""


def test_tracer_installs_on_every_target():
    code = INSTALL.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
