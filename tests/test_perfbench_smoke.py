"""The benchmark harness runs end to end in its smoke mode, and every item meets tol."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, reports, last = proc.stdout.strip().splitlines()
    assert json.loads(last)["correct"] is True
    # The smoke inputs cover every boundary stratum: a strict miss there is a
    # precision regression even when no output is grossly wrong.
    misses = {
        f"{r['workload']}{' (traced)' if r['trace'] else ''}": (r["fail_share"], r["reasons"])
        for r in json.loads(reports)
        if r["fail_share"] != 0
    }
    assert not misses, misses
