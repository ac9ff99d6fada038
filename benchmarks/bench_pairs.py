"""Wall time and peak RSS of the CLI commands that run pair search,
appended to BENCH_pairs.json at the repository root.

    python3 benchmarks/bench_pairs.py [CHECKOUT]

It runs each of

    hc maximal miller --family symmetric --n 8
    hc maximal miller --family alternating --n 8
    hc maximal table --from 2 --to 6
    hc group search --group psl2:29

three times from CHECKOUT's src/ (default: this checkout), each run in a
child process forked off and measured by bench_check44.measure, so a run's
peak RSS is that one command's. wall_s is the whole process, interpreter
start-up and imports included; command_s is hcov.cli.main alone, timed
inside the child (`bench_pairs.py --command ARGS...` runs one). One row
per command is appended: CHECKOUT's commit (bench_check44.commit_label),
the command, the median wall_s, command_s and peak_rss_mb of its runs,
their number and the machine. Running it on this checkout and on a clone
of the parent commit in turn gives alternating rows that can be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "BENCH_pairs.json"
RUNS = 3
COMMANDS = (
    "maximal miller --family symmetric --n 8",
    "maximal miller --family alternating --n 8",
    "maximal table --from 2 --to 6",
    "group search --group psl2:29",
)

sys.path.insert(0, str(HERE))
import bench_check44  # noqa: E402


def time_command(argv) -> dict:
    """`hc argv`, run once in this process; its time without the imports."""
    import hcov.cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = hcov.cli.main(argv)
    if code != 0:
        raise SystemExit(f"hc {' '.join(argv)} exited {code}")
    return {"command_s": time.perf_counter() - start}


def row(commit: str, command: str, runs: list, machine: str) -> dict:
    """The row of one command: the medians of its runs."""
    return {
        "commit": commit,
        "command": f"hc {command}",
        "wall_s": round(statistics.median(r["wall_s"] for r in runs), 3),
        "command_s": round(statistics.median(r["command_s"] for r in runs), 4),
        "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in runs), 1),
        "runs": len(runs),
        "stat": "median",
        "machine": machine,
    }


def _run(checkout: Path, command: str) -> dict:
    cmd = [sys.executable, str(Path(__file__)), "--command", *command.split()]
    result = bench_check44.measure(cmd, checkout)
    result.update(json.loads(result.pop("stdout")))
    return result


def main(argv) -> int:
    if argv[:1] == ["--command"]:
        print(json.dumps(time_command(argv[1:])))
        return 0
    checkout = Path(argv[0]).resolve() if argv else ROOT
    commit = bench_check44.commit_label(checkout)
    machine = f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}"
    rows = json.loads(OUT.read_text()) if OUT.exists() else []
    for command in COMMANDS:
        runs = [_run(checkout, command) for _ in range(RUNS)]
        rows.append(row(commit, command, runs, machine))
        print(json.dumps(rows[-1]), flush=True)
    OUT.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
