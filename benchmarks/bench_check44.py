"""Wall time and peak RSS of `hc surface check44` on PSL(2,p), appended to
BENCH_hurwitz.json at the repository root.

    python3 benchmarks/bench_check44.py [CHECKOUT]

For p = 29, 43, 71, 83, 113, 127 and 197 it runs

    hc surface check44 --product-order 7 --group psl2:p --json

from CHECKOUT's src/ (default: this checkout) as a child process, three
times for every p: single runs of p = 197 spread over 49 to 71 s. A run
of p = 113, 127 or 197 takes about 20 s, 30 s or 1 to 2 minutes, and 0.5
to 2 GB. Each run is forked off first, so the fork's
resource.getrusage(RUSAGE_CHILDREN) holds that one command's peak RSS and
nothing else. The child writes and reads bytecode whatever the caller's
environment says, and CHECKOUT's src/ is compiled before each run starts,
so no timed run compiles hcov. Times are raw wall-clock seconds. One
row per p is appended:
CHECKOUT's commit (see commit_label; `<commit>-dirty` measures uncommitted
changes on top of that commit), p, |G|, the median wall_s and peak_rss_mb
of the runs (stat "median"), their number and the machine. Passing
another checkout, such as a clone of the parent commit, measures both
sides with the same script; alternating the two gives rows that can be
compared.
"""

from __future__ import annotations

import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "benchmarks"
OUT = ROOT / "BENCH_hurwitz.json"
PRIMES = (29, 43, 71, 83, 113, 127, 197)
RUNS = 3  # runs per p


def compile_bytecode(*dirs: Path):
    """Compile the Python files under each directory to bytecode; a file
    whose bytecode is up to date is left as it is."""
    for d in dirs:
        compileall.compile_dir(str(d), quiet=1)


def measure(cmd: list, checkout: Path) -> dict:
    """Run cmd with checkout's src/ importable in a forked child; returns its
    stdout, wall_s and peak_rss_mb. The fork runs nothing but cmd, so its
    getrusage(RUSAGE_CHILDREN) peak belongs to that one command.

    checkout's src/ and these scripts are compiled before the child starts,
    and the child does not inherit PYTHONDONTWRITEBYTECODE: it reads that
    bytecode and never compiles them itself, which would add to its time
    and memory."""
    compile_bytecode(checkout / "src", HERE)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(checkout / "src")
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the fork: run the command, report, exit
        os.close(read_end)
        start = time.perf_counter()
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result = {"returncode": done.returncode, "wall_s": wall, "rss_kb": rss_kb,
                  "stdout": done.stdout, "stderr": done.stderr}
        with os.fdopen(write_end, "w") as out:
            json.dump(result, out)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as inp:
        result = json.load(inp)
    os.waitpid(pid, 0)
    if result["returncode"] != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} failed:\n{result['stderr']}")
    return {"stdout": result["stdout"], "wall_s": result["wall_s"],
            "peak_rss_mb": result["rss_kb"] / 1024}


def _run(checkout: Path, p: int) -> dict:
    """One check44 run of checkout's src/: (wall_s, peak_rss_mb, |G|)."""
    cmd = [
        sys.executable, "-m", "hcov.cli", "surface", "check44",
        "--product-order", "7", "--group", f"psl2:{p}", "--json",
    ]
    result = measure(cmd, checkout)
    report = json.loads(result.pop("stdout"))
    if not report["holds"]:
        raise SystemExit(f"check44 psl2:{p}: the surface identity does not hold")
    return dict(result, order=report["order"])


def commit_label(root: Path) -> str:
    """`git describe --always` of the checkout at root, with `-dirty` appended
    when a tracked file other than a BENCH_*.json has changes. The rows the
    benchmark scripts append there change no measured code, so a second run
    on a clean commit keeps that commit's label."""

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()

    changed = git("status", "--porcelain", "--untracked-files=no", "--",
                  ".", ":(exclude,glob)BENCH_*.json")
    return git("describe", "--always") + ("-dirty" if changed else "")


def row(commit: str, p: int, runs: list, machine: str) -> dict:
    """The row of one p: the median wall_s and peak_rss_mb of its runs."""
    return {
        "commit": commit,
        "p": p,
        "order": runs[0]["order"],
        "wall_s": round(statistics.median(r["wall_s"] for r in runs), 3),
        "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in runs), 1),
        "runs": len(runs),
        "stat": "median",
        "machine": machine,
    }


def main(argv) -> int:
    checkout = Path(argv[0]).resolve() if argv else ROOT
    commit = commit_label(checkout)
    machine = f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}"
    rows = json.loads(OUT.read_text()) if OUT.exists() else []
    for p in PRIMES:
        runs = [_run(checkout, p) for _ in range(RUNS)]
        rows.append(row(commit, p, runs, machine))
        print(json.dumps(rows[-1]), flush=True)
    OUT.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
