"""HYPERLAB_THREADS caps the BLAS threads numpy starts, and reports do not depend on it."""

from __future__ import annotations

import json
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


def _env(threads: str) -> dict:
    """The environment with *_NUM_THREADS stripped and HYPERLAB_THREADS set."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["HYPERLAB_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or _cpus() < 2,
                    reason="needs /proc and more than one CPU")
def test_hyperlab_threads_caps_blas():
    proc = subprocess.run([sys.executable, "-c", PROBE], env=_env("1"), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


@pytest.mark.skipif(_cpus() < 2, reason="needs more than one CPU")
def test_uep_search_report_independent_of_blas_threads(tmp_path):
    """The README's X config at --seed 7 gives the same report bytes with
    one and with two BLAS threads."""
    X = [[[0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [2, 0]]]
    cfg = tmp_path / "x_only.json"
    cfg.write_text(json.dumps({"d": 3, "generators": [X]}))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        proc = subprocess.run([sys.executable, "-m", "hyperlab.cli", "uep-search", "--config",
                               str(cfg), "--seed", "7", "--out", str(out)],
                              env=_env(threads), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert json.loads(reports[0])["status"] == "ViolationFound"
    assert reports[0] == reports[1]
