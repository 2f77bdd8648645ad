"""Benchmark of the realtwoqubit command line, end to end and layer by layer.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # every workload and the oracle, tiny inputs

Run from the repository root; the package is run from `src/` without
installing it.  With `--trace 0` the CLI runs as users run it: one child
process per invocation with the same interpreter, one child at a time, in a
closed loop (the next invocation starts when the previous one has exited),
stdin and stdout redirected to files written before the clock starts.  Each
round runs every invocation of the workload once, then one single-item
invocation for `setup_s`; rounds repeat until `--seconds` have passed.

Timings are reported at the reference host speed.  The shared 2-core host
this was built on drifts by 15-30% in speed over tens of seconds to minutes,
for every process alike, so raw run medians spread by 18-25% between runs.
A calibration child (CALIBRATION, independent of the package) runs before
every workload invocation and after the last one; each sample's wall and
CPU time are divided by the mean calibration wall and CPU time around it, the
per-invocation median of that ratio is taken, and it is scaled back by
CAL_REF_S, the calibration wall on the reference host.  On that host this
cut the spread between 25-second runs from 10-32% to 1-8%
(steadiness.txt).
The raw medians are in the report line.

With `--trace 1` the same inputs go through `cli.main` in this process,
alternating untraced and traced rounds; the traced rounds give the
per-layer metrics (see spans.py).

Every output is checked afterwards by oracle.py, outside the timed interval.
The last stdout line is one JSON object with keys correct, attempted, failed
and metrics; the line before it is a JSON report with the environment,
realised input shares and failure reasons.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import TOL, WORKLOADS, Invocation  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: The installed console script, `realtwoqubit = "realtwoqubit.cli:main"`,
#: plus one stderr line at exit with the process's own peak RSS.  The wait4
#: figure cannot serve: Linux carries the spawning process's peak across
#: fork and exec into the child's ru_maxrss, and this process holds numpy
#: and mpmath.
ENTRY = """
import atexit, os, sys
def _peak():
    with open("/proc/self/status") as status:
        os.write(2, ("\\n" + next(l for l in status if l.startswith("VmHWM:"))).encode())
atexit.register(_peak)
from realtwoqubit.cli import main
sys.exit(main())
"""

#: Program-independent calibration: interpreter start, numpy import, small
#: array ops and JSON encoding, the same kinds of work the CLI does.
CALIBRATION = """
import json, math
import numpy as np
x = np.array([[0.0, 1.0], [1.0, 0.0]])
acc, out = 0.0, []
for i in range(3000):
    v = np.array([math.cos(i), math.sin(i), 0.5, 0.25])
    acc += float(np.linalg.norm(np.kron(np.eye(2), x) @ v))
    out.append(json.dumps({"i": i, "v": [float(t) for t in v]}))
"""

#: Calibration wall time on the reference host (2 cores, Python 3.11.7, numpy 2.4.6).
CAL_REF_S = 0.30

MIN_SETUP_SAMPLES = 9


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    env = child_env()
    return {
        "python": sys.version.split()[0],
        "executable": sys.executable,
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "child_env": {k: env[k] for k in ("PYTHONPATH", *THREAD_VARS)},
    }


# ------------------------------------------------------------------ children


class Child:
    """Runs one invocation (or, without one, the calibration) as a child process and records wall, CPU and peak RSS."""

    def __init__(self, inv: Invocation | None, tag: str):
        self.inv = inv
        self.stdin_path = WORK / f"{tag}.in"
        self.stdout_path = WORK / f"{tag}.out"
        self.stderr_path = WORK / f"{tag}.err"
        self.stdin_path.write_text(inv.stdin if inv else "")
        self.argv = [sys.executable, "-c", ENTRY, *inv.args] if inv else [sys.executable, "-c", CALIBRATION]
        self.env = child_env()

    def run(self) -> tuple[float, float, float, int]:
        """(wall s, user+sys CPU s, peak RSS KiB, exit code); stdout is left in stdout_path."""
        with open(self.stdin_path, "rb") as fin, open(self.stdout_path, "wb") as fout, open(self.stderr_path, "wb") as ferr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.argv, stdin=fin, stdout=fout, stderr=ferr, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak = self.stderr_path.read_text(errors="replace").rsplit("VmHWM:", 1)
        peak_kib = float(peak[1].split()[0]) if len(peak) == 2 else float("nan")
        return wall, usage.ru_utime + usage.ru_stime, peak_kib, proc.returncode

    def output(self) -> bytes:
        return self.stdout_path.read_bytes()


# -------------------------------------------------------------------- oracle


class Checker:
    """Verifies the outputs of one workload; identical outputs of one invocation are judged once."""

    def __init__(self, workload: str, invs: list[Invocation]):
        self.workload = workload
        self.invs = invs
        self.refs = {}
        self.judged: dict[tuple[int, str], oracle.Verdict] = {}
        self.total = oracle.Verdict()
        self.nonzero_exits = 0

    def reference(self, k: int) -> oracle.StateReference:
        if k not in self.refs:
            self.refs[k] = oracle.state_reference(self.invs[k].inputs)
        return self.refs[k]

    def _judge(self, k: int, text: str) -> oracle.Verdict:
        inv = self.invs[k]
        if self.workload == "classify-mixed":
            return oracle.check_classify(text, self.reference(k), TOL)
        if self.workload == "prepare-mixed":
            return oracle.check_prepare(text, inv.inputs, TOL)
        if self.workload == "connect-branches":
            return oracle.check_connect(text, inv.inputs, TOL)
        return oracle.check_mesh(text, inv.inputs, TOL)

    def add(self, k: int, output: bytes, exit_code: int) -> None:
        key = (k, hashlib.sha256(output).hexdigest())
        if key not in self.judged:
            self.judged[key] = self._judge(k, output.decode("utf-8", errors="replace"))
        self.total.add(self.judged[key])
        self.nonzero_exits += exit_code != 0

    def result(self) -> dict:
        t = self.total
        return {
            "correct": t.gross_fail == 0 and self.nonzero_exits == 0,
            "attempted": t.attempted,
            "failed": t.gross_fail,
            "fail_share": t.strict_fail / t.attempted,
            "strict_failed": t.strict_fail,
            "reasons": dict(+t.reasons),
            "max_error": t.max_error,
            "nonzero_exits": self.nonzero_exits,
        }


def realised_shares(checker: Checker, invs: list[Invocation]) -> dict:
    """Stratum / branch shares of the generated items, from the oracle's own d and sheet."""
    counts: Counter = Counter()
    for k, inv in enumerate(invs):
        if checker.workload in ("classify-mixed", "prepare-mixed"):
            counts.update(oracle.state_strata(checker.reference(k)))
        elif checker.workload == "connect-branches":
            counts.update(oracle.pair_branches(inv.inputs, TOL))
        else:
            counts[f"{oracle.mesh_branch(inv.inputs)}/{inv.inputs.fmt}"] += inv.items
    items = sum(inv.items for inv in invs)
    return {k: round(v / items, 6) for k, v in sorted(counts.items())}


# ----------------------------------------------------------------- end to end


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict, dict]:
    invs = workloads.build(workload, seed, smoke)
    single = Child(workloads.single_item(workload), f"{workload}.single")
    slots = [Child(inv, f"{workload}.{k}") for k, inv in enumerate(invs)] + [single]
    calibration = Child(None, "calibration")
    checker = Checker(workload, [c.inv for c in slots])

    # Warm-up: byte-compiles the package and fills the file cache.  A
    # checkout without the package fails here, before any result.
    _, _, _, code = single.run()
    if code != 0:
        raise SystemExit(f"error: the CLI exited with {code} on a one-item input; is src/realtwoqubit present?")

    # Per slot: raw wall, raw CPU, the calibration each sample followed, peak RSS.
    walls, cpus, rounds, rss = ([[] for _ in slots] for _ in range(4))
    cal_walls, cal_cpus = [], []

    def calibrate() -> None:
        wall, cpu, _, code = calibration.run()
        if code != 0:
            raise SystemExit(f"error: the calibration child exited with {code}")
        cal_walls.append(wall)
        cal_cpus.append(cpu)

    def sample(k: int) -> None:
        wall, cpu, peak, code = slots[k].run()
        walls[k].append(wall)
        cpus[k].append(cpu)
        rounds[k].append(len(cal_walls) - 1)
        rss[k].append(peak)
        checker.add(k, slots[k].output(), code)

    # Rounds of every invocation, each after a calibration, then the one-item
    # set-up run, until the deadline passes after at least one full round; a
    # closing calibration brackets the last sample.
    deadline = time.perf_counter() + seconds
    n = 0
    while n < len(slots) or not (smoke or time.perf_counter() >= deadline):
        k = n % len(slots)
        if slots[k] is not single:
            calibrate()
        sample(k)
        n += 1
    while not smoke and len(walls[-1]) < MIN_SETUP_SAMPLES:
        calibrate()
        sample(len(slots) - 1)
    calibrate()

    def ratios(values: list[float], k: int, cal: list[float]) -> list[float]:
        """Each sample over the mean of the calibrations before and after it."""
        return [v / ((cal[r] + cal[r + 1]) / 2.0) for v, r in zip(values, rounds[k])]

    wall_ratios = [ratios(walls[k], k, cal_walls) for k in range(len(slots))]
    cpu_ratios = [ratios(cpus[k], k, cal_cpus) for k in range(len(slots))]

    items = sum(inv.items for inv in invs)
    med = statistics.median
    result = checker.result()
    work = range(len(invs))
    metrics = {
        "items_per_s": (items / (CAL_REF_S * sum(med(wall_ratios[k]) for k in work)), "1/s"),
        "cpu_us_per_item": (CAL_REF_S * sum(med(cpu_ratios[k]) for k in work) / items * 1e6, "us"),
        "setup_s": (CAL_REF_S * med(wall_ratios[-1]), "s"),
        "peak_rss_mib": (max(med(rss[k]) for k in work) / 1024.0, "MiB"),
        "verified_share": (1.0 - result["fail_share"], "share"),
    }
    detail = {
        "rounds": len(walls[0]),
        "setup_samples": len(walls[-1]),
        "raw": {
            "items_per_s": items / sum(med(walls[k]) for k in work),
            "cpu_us_per_item": sum(med(cpus[k]) for k in work) / items * 1e6,
            "setup_s": med(walls[-1]),
            "calibration_s": med(cal_walls),
        },
        "invocations": [
            {
                "args": list(inv.args),
                "items": inv.items,
                "wall_s_quartiles": _quartiles(walls[k]),
                "wall_ratio_quartiles": _quartiles(wall_ratios[k]),
                "cpu_s_median": med(cpus[k]),
                "peak_rss_kib_median": med(rss[k]),
            }
            for k, inv in enumerate(invs)
        ],
        "setup_s_quartiles": _quartiles(walls[-1]),
        "shares": realised_shares(checker, invs),
    }
    return metrics, result, detail


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0], values[0]]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


# -------------------------------------------------------------------- traced


def run_traced(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict, dict]:
    sys.path.insert(0, str(SRC))
    try:
        from realtwoqubit import cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import realtwoqubit from {SRC}: {exc}")

    invs = workloads.build(workload, seed, smoke)
    checker = Checker(workload, invs)
    tracer = spans.Tracer()
    plain, traced = [], []
    items = out_bytes = 0
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(_in_process_round(cli, invs, None)[0])
        tracer.install()
        try:
            wall, outputs = _in_process_round(cli, invs, checker)
        finally:
            tracer.uninstall()
        traced.append(wall)
        items += sum(inv.items for inv in invs)
        out_bytes += sum(len(o) for o in outputs)
        if smoke or time.perf_counter() >= deadline:
            break
    overhead = statistics.median(traced) / statistics.median(plain)
    layer, detail = tracer.metrics(items, out_bytes, overhead)
    detail.update({"rounds": len(traced), "shares": realised_shares(checker, invs)})
    return layer, checker.result(), detail


def _in_process_round(cli, invs: list[Invocation], checker: Checker | None) -> tuple[float, list[bytes]]:
    """Run each invocation through cli.main with redirected stdio; total wall time and outputs."""
    outputs = []
    wall = 0.0
    saved = sys.stdin, sys.stdout
    for k, inv in enumerate(invs):
        sys.stdin, sys.stdout = io.StringIO(inv.stdin), io.StringIO()
        try:
            t0 = time.perf_counter()
            code = cli.main(list(inv.args))
            wall += time.perf_counter() - t0
            text = sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout = saved
        out = text.encode()
        outputs.append(out)
        if checker is not None:
            checker.add(k, out, code)
    return wall, outputs


# ---------------------------------------------------------------------- main


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    runner = run_traced if trace else run_untraced
    metrics, result, detail = runner(workload, seed, seconds, smoke)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "tol": TOL,
        **{k: result[k] for k in ("fail_share", "strict_failed", "reasons", "max_error", "nonzero_exits")},
        "detail": detail,
    }
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"report": report, "line": line}


def _table(workload: str, line: dict, fail_share: float) -> str:
    rows = [f"{workload}: correct={line['correct']} attempted={line['attempted']} failed={line['failed']} fail_share={fail_share:.6f}"]
    for name, m in line["metrics"].items():
        rows.append(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one round, every workload traced and untraced")
    args = parser.parse_args(argv)
    if not (SRC / "realtwoqubit" / "cli.py").is_file():
        print(f"error: no package at {SRC / 'realtwoqubit'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    env = environment()
    selected = WORKLOADS if args.workload == "all" or args.smoke else (args.workload,)
    modes = (False, True) if args.smoke else (bool(args.trace),)
    WORK.mkdir(exist_ok=True)
    runs = []
    try:
        for trace in modes:
            for workload in selected:
                started = time.perf_counter()
                run = run_one(workload, args.seed, args.seconds, trace, args.smoke)
                run["report"].update(elapsed_s=time.perf_counter() - started, environment=env)
                runs.append(run)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for run in runs:
        print(_table(run["report"]["workload"] + (" (traced)" if run["report"]["trace"] else ""), run["line"], run["report"]["fail_share"]), file=sys.stderr)
    if len(runs) == 1:
        print(json.dumps(runs[0]["report"]))
        print(json.dumps(runs[0]["line"]))
        return 0
    print(json.dumps([run["report"] for run in runs]))
    combined = {
        "correct": all(run["line"]["correct"] for run in runs),
        "attempted": sum(run["line"]["attempted"] for run in runs),
        "failed": sum(run["line"]["failed"] for run in runs),
        "metrics": {
            f"{run['report']['workload']}{'.traced' if run['report']['trace'] else ''}.{name}": m
            for run in runs
            for name, m in run["line"]["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
