"""Wall time and peak RSS of `hc surface check44` on PSL(2,p), appended to
BENCH_hurwitz.json at the repository root.

    python3 benchmarks/bench_check44.py

For p = 29, 43, 71 and 83 it runs

    hc surface check44 --allow-large-psl2 --product-order 7 --group psl2:p --json

from this checkout's src/ as a child process, taking the best of 3 runs up
to p = 71 and a single run above. Each run is forked off first, so the
fork's resource.getrusage(RUSAGE_CHILDREN) holds that one command's peak
RSS and nothing else. Times are raw wall-clock seconds. One row per p is
appended: the commit (see commit_label; `<commit>-dirty` measures
uncommitted changes on top of that commit), p, |G|, wall_s, peak_rss_mb,
the number of runs and the machine.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_hurwitz.json"
PRIMES = (29, 43, 71, 83)
BEST_OF_3_UP_TO = 71


def _run(p: int) -> dict:
    """One check44 run in a forked child: (wall_s, peak_rss_mb, |G|)."""
    cmd = [
        sys.executable, "-m", "hcov.cli", "surface", "check44", "--allow-large-psl2",
        "--product-order", "7", "--group", f"psl2:{p}", "--json",
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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
        raise SystemExit(f"check44 psl2:{p} failed:\n{result['stderr']}")
    report = json.loads(result["stdout"])
    if not report["holds"]:
        raise SystemExit(f"check44 psl2:{p}: the surface identity does not hold")
    return {"wall_s": result["wall_s"], "peak_rss_mb": result["rss_kb"] / 1024,
            "order": report["order"]}


def commit_label(root: Path) -> str:
    """`git describe --always` of the checkout at root, with `-dirty` appended
    when a tracked file other than BENCH_hurwitz.json has changes. The rows
    this script appends there change no measured code, so a second run on a
    clean commit keeps that commit's label."""

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()

    changed = git("status", "--porcelain", "--untracked-files=no", "--",
                  ".", f":(exclude){OUT.name}")
    return git("describe", "--always") + ("-dirty" if changed else "")


def main() -> int:
    commit = commit_label(ROOT)
    machine = f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}"
    rows = json.loads(OUT.read_text()) if OUT.exists() else []
    for p in PRIMES:
        runs = [_run(p) for _ in range(3 if p <= BEST_OF_3_UP_TO else 1)]
        best = min(runs, key=lambda r: r["wall_s"])
        row = {
            "commit": commit,
            "p": p,
            "order": best["order"],
            "wall_s": round(best["wall_s"], 3),
            "peak_rss_mb": round(min(r["peak_rss_mb"] for r in runs), 1),
            "runs": len(runs),
            "machine": machine,
        }
        print(json.dumps(row), flush=True)
        rows.append(row)
    OUT.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
