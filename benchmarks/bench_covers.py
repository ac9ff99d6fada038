"""Wall time and peak RSS of criterion 4's random-cover sweep, appended to
BENCH_covers.json at the repository root.

    python3 benchmarks/bench_covers.py [CHECKOUT]
    python3 benchmarks/bench_covers.py --sweep      # one sweep, in this process

The sweep is tests/test_acceptance.py's criterion 4: 200 seeded random tree
covers over the 27 catalog groups of order <= 24, each built by
build_cover, profiled, checked for m*f*n = |G|, for connectivity against
the generation criterion and, when connected, for Riemann-Hurwitz. The
generator and its checks come from this checkout's tests/; hcov comes from
CHECKOUT's src/ (default: this checkout).

The sweep runs three times, each in a child process forked off and
measured by bench_check44.measure. One row is appended: CHECKOUT's commit
(bench_check44.commit_label), the number of covers, the median wall_s of
the whole child process, the median sweep_s of the sweep alone (timed
inside the child, after the imports and the catalog load), the median
peak_rss_mb, the number of runs and the machine. Running it on this
checkout and on a clone of the parent commit in turn gives alternating
rows that can be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "BENCH_covers.json"
RUNS = 3
COVERS = 200  # criterion 4's count

sys.path.insert(0, str(HERE))
import bench_check44  # noqa: E402


def sweep() -> dict:
    """Criterion 4, run once in this process; its time without the imports."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_acceptance
    from hcov.permgroup import load_default_catalog

    logging.getLogger("hcov").setLevel(logging.ERROR)  # the dropped-entry warnings
    catalog = load_default_catalog()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        test_acceptance.test_criterion_4_fundamental_identity(catalog)
    return {"sweep_s": time.perf_counter() - start}


def row(commit: str, runs: list, machine: str) -> dict:
    """The row of a checkout: the medians of its runs."""
    return {
        "commit": commit,
        "workload": "criterion4",
        "covers": COVERS,
        "wall_s": round(statistics.median(r["wall_s"] for r in runs), 3),
        "sweep_s": round(statistics.median(r["sweep_s"] for r in runs), 3),
        "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in runs), 1),
        "runs": len(runs),
        "stat": "median",
        "machine": machine,
    }


def _run(checkout: Path) -> dict:
    bench_check44.compile_bytecode(ROOT / "tests")  # the sweep's generator
    result = bench_check44.measure([sys.executable, str(Path(__file__)), "--sweep"], checkout)
    result.update(json.loads(result.pop("stdout")))
    return result


def main(argv) -> int:
    if argv == ["--sweep"]:
        print(json.dumps(sweep()))
        return 0
    checkout = Path(argv[0]).resolve() if argv else ROOT
    commit = bench_check44.commit_label(checkout)
    machine = f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}"
    rows = json.loads(OUT.read_text()) if OUT.exists() else []
    rows.append(row(commit, [_run(checkout) for _ in range(RUNS)], machine))
    print(json.dumps(rows[-1]), flush=True)
    OUT.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
