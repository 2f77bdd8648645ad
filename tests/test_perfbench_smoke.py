"""The benchmark harness runs end to end in smoke mode, every item meets tol, and its mesh counts are the package's."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from realtwoqubit import orbit_mesh

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


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("seed", [1, 11])
def test_mesh_item_counts_are_the_package_counts(seed, smoke, monkeypatch):
    # The harness counts the upper half of a circle with a sine test, the package by index: the two agree on the
    # benchmark's power-of-two sizes, not on every even size (26 is one where they differ).
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    requests = [inv.inputs for inv in workloads.build("mesh-orbits", seed, smoke)]
    assert requests
    for req in requests:
        assert workloads._mesh_points(req) == len(orbit_mesh(req.d, req.na, req.nb)), req
