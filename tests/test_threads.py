"""HYPERLAB_THREADS caps the BLAS threads numpy starts."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = ("import hyperlab, numpy\n"
         "for line in open('/proc/self/status'):\n"
         "    if line.startswith('Threads:'):\n"
         "        print(line.split()[1])\n")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or _cpus() < 2,
                    reason="needs /proc and more than one CPU")
def test_hyperlab_threads_caps_blas():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["HYPERLAB_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]
