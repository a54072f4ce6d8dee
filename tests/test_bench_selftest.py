"""The benchmark harness still runs against the package.

The traced run wraps names that ``mtfsubdiv.cli`` and ``mtfsubdiv.pipeline``
import, so renaming or dropping one of them breaks the benchmark; its
self-test catches that here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
