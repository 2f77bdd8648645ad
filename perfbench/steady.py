"""Steadiness report: run each workload repeatedly and print the spread of every end-to-end metric.

    python3 perfbench/steady.py

Runs perfbench/run.py one child at a time: for every workload in
BENCHMARK.json, two sets of RUNS runs of run_seconds each, a new seed per
run.  It prints for each workload and end-to-end metric the median,
quartiles and spread (interquartile distance over the median) next to the
regression bound that BENCHMARK.json fixes.  A spread of a third of the
bound or more is flagged, and so is a second-set median worse than the
first by more than the bound.  These figures are the evidence behind the
bounds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        print(f"warning: {workload} seed {seed} reported correct=false", file=sys.stderr)
    return line


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first` (negative when better)."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    flagged = 0
    for workload in (w["name"] for w in spec["workloads"]):
        medians = []
        for s in range(2):
            seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
            lines = [one_run(workload, seed, seconds) for seed in seeds]
            print(f"{workload} set {s + 1}: seeds {seeds.start}..{seeds.stop - 1}, {seconds} s each", flush=True)
            set_medians = {}
            for name, m in metrics.items():
                values = [line["metrics"][name]["value"] for line in lines]
                q1, med, q3, rel = spread(values)
                set_medians[name] = med
                flag = ""
                if rel >= m["bound"] / 3:
                    flag = "  <-- spread >= bound/3"
                    flagged += 1
                print(f"  {name:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {rel:7.2%}  bound {m['bound']:.0%} {m['unit']}{flag}")
            medians.append(set_medians)
        for name, m in metrics.items():
            drift = worse_by(medians[0][name], medians[1][name], m["better"])
            flag = "  <-- worse than bound" if drift > m["bound"] else ""
            flagged += bool(flag)
            print(f"  {name:<16} set 2 vs set 1: {drift:+7.2%} worse{flag}", flush=True)
    print(f"{flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
