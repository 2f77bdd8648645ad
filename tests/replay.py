"""Replay the CLI's output contract with the standard library only, on whichever interpreter runs this script.

    python3.X tests/replay.py

Each case of cli_golden.jsonl, stream_golden.jsonl and mesh_golden.jsonl runs in a CLI child process, with the
package from this checkout's src/, and its stdout is compared byte for byte (by sha256 for the streams and the
meshes).  One run per exit code 0-3 checks the code and the bytes of stdout and stderr.  Last, the script prints the
compile() peak, under tracemalloc, of each module that a CLI run may compile: with no bytecode written the largest
sets a run's peak memory.  The suite's compile guard bounds these on CPython 3.11 only; here they are printed for
any version.  Exit status 0 when every case holds, else 1, with each failed case numbered from 1 in file order.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "realtwoqubit"
ENTRY = "import sys; from realtwoqubit.cli import main; sys.exit(main())"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))

#: The object API, which no CLI run loads; every other module of the package is a CLI part.
OBJECT_API = {"states", "geometry", "synthesis"}

#: One run per exit code: (code, argv, stdout, stderr).  Exit 1's stdout is a pipe whose reader has left, so None.
EXIT_CASES = [
    (
        0,
        ["classify", "1", "0", "0", "0"],
        b'{"d": 0.7853981633974483, "entropy": 0.0, "class": "product", "sheet": "BOTH", '
        b'"bell": [0.7071067811865476, 0.0, 0.7071067811865476, 0.0], "concurrence": 0.0}\n',
        b"",
    ),
    (1, ["classify", "1", "0", "0", "0"], None, b""),
    (2, ["classify", "2", "0", "0", "0"], b"", b"error: amplitude vector has norm 2.0, not within 1e-06 of 1\n"),
    (
        3,
        ["connect", "--local-only", "1", "0", "0", "0", "0.7071067811865476", "0", "0", "0.7071067811865476"],
        b"",
        b"error: ORBIT_MISMATCH: states lie on different orbits (d = 0.7853981633974483 vs 0.0); local gates preserve d\n",
    ),
]


def _run(argv, stdin="", stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-c", ENTRY, *argv], input=stdin.encode(), stdout=stdout, stderr=subprocess.PIPE, env=ENV, timeout=120
    )


def _golden(name):
    return [json.loads(line) for line in (TESTS / name).read_text().splitlines()]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_case(case):
    proc = _run([case["command"]], case["stdin"])
    return proc.returncode == 0 and proc.stdout == case["stdout"].encode()


def _stream_case(case):
    proc = _run(case["argv"], case["stdin"])
    return proc.returncode == 0 and proc.stdout.count(b"\n") == case["items"] and _sha256(proc.stdout) == case["sha256"]


def _mesh_case(case):
    proc = _run(["mesh", f"--d={case['d']}", "--na", str(case["na"]), "--nb", str(case["nb"]), "--format", case["format"]])
    return proc.returncode == 0 and _sha256(proc.stdout) == case["sha256"]


def _exit_case(case):
    code, argv, stdout, stderr = case
    if code == 1:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _run(argv, stdout=write)
        finally:
            os.close(write)
    else:
        proc = _run(argv)
    return (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


def _compile_peak(path: Path) -> int:
    """The least of three compile() peaks of the module, in bytes."""
    source, peaks = path.read_text(), []
    for _ in range(3):
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def main() -> int:
    suites = [
        ("cli_golden.jsonl", _cli_case, _golden("cli_golden.jsonl")),
        ("stream_golden.jsonl", _stream_case, _golden("stream_golden.jsonl")),
        ("mesh_golden.jsonl", _mesh_case, _golden("mesh_golden.jsonl")),
        ("exit code", _exit_case, EXIT_CASES),
    ]
    version = sys.version.split()[0]
    print(f"replay on {sys.implementation.name} {version}")
    failed = []
    with ThreadPoolExecutor(max_workers=4) as pool:
        for name, check, cases in suites:
            bad = [index for index, ok in enumerate(pool.map(check, cases), 1) if not ok]
            failed += [f"{name} case {index}" for index in bad]
            print(f"{name}: {len(cases) - len(bad)} of {len(cases)} cases hold")
    parts = sorted(path for path in PACKAGE.glob("*.py") if path.stem not in OBJECT_API)
    peaks = ", ".join(f"{path.stem} {_compile_peak(path) / 1024:.0f}" for path in parts)
    print(f"compile() peak of each CLI part on {version}, KiB (least of 3): {peaks}")
    for item in failed:
        print(f"FAILED {item}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
