#!/usr/bin/env python3
"""hcov verifying-pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Runs from the root of an hcov checkout, on the pure-Python kernel
(HCOV_PURE=1), single-threaded. Each workload runs in a fresh process of
its own (perfbench/workload.py), so peak RSS belongs to that workload
alone. Set-up is timed separately in several fresh processes and reported
as their median. Times are scaled to a reference host speed
(perfbench/speed.py); the real time of the fastest pass is printed too.
Prints one line per metric with its unit, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, and a report with the layer table and all spans is written
under perfbench/out/. Exits 1 when any output is wrong, 2 when there is no
hcov source to run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (no hcov import: it only reads the metric table)

# BENCHMARK.json lists the last three. surface_sweep (criterion 6) takes
# about 20 s a pass, so a run that fits the comparison budget holds a single
# pass, and single-pass runs spread too far on a shared machine to be bounded.
WORKLOADS = ["surface_sweep", "hurwitz_psl2_29", "random_covers", "pair_census"]
SETUP_PROBES = 9  # set-up samples besides the workload process itself
RUN_LIMIT_S = 170  # one workload's run, all its processes included

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# item_p50_ms and failed_frac are printed but not in the JSON metrics. The
# median of a few heterogeneous items (13 commands, or 140 pairs of which 96
# share one group) flips between neighbouring items and spread 0.15-0.45 of
# its median from run to run; failed_frac is 0 on correct code.
UNITS = dict(END_TO_END, item_p50_ms="ms", failed_frac="frac", **tracing.UNITS)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["HCOV_PURE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args):
    """Start workload.py; return (process, seconds until it printed "ready")."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        line = proc.stdout.readline()
    except BaseException:
        stop(proc)
        raise
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"workload process did not start (exit {proc.returncode})")
    return proc, ready


def stop(proc):
    proc.kill()
    proc.communicate()


def finish(proc, deadline):
    """Wait for a workload process; return its last stdout line as JSON."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError(f"run exceeded {RUN_LIMIT_S} s") from None
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_one(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        finish(spawn(["--workload", workload, "--setup-only"])[0], deadline)  # warms .pyc files
        for _ in range(SETUP_PROBES):
            probe, ready = spawn(["--workload", workload, "--setup-only"])
            setups.append(ready * finish(probe, deadline)["setup_factor"])
    proc, ready = spawn(args + ["--trace", "0"])
    result = finish(proc, deadline)
    setups.append(ready * result["setup_factor"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"] = {k: result["metrics"][k] for k in END_TO_END}
    if not trace:
        return result

    out = HERE / "out" / f"{workload}-seed{seed}"
    untraced = result
    proc, _ = spawn(args + ["--trace", "1", "--spans", f"{out}.spans.jsonl"])
    result = finish(proc, deadline)
    # both in real seconds: traced passes are not normalised
    traced_wall = min(result["walls_s"])
    untraced_wall = min(untraced["real_walls_s"])
    result["metrics"]["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    result["correct"] = result["correct"] and untraced["correct"]
    result["attempted"] += untraced["attempted"]
    result["failed"] += untraced["failed"]
    result["item_p50_ms"] = untraced["item_p50_ms"]
    result["real_walls_s"] = untraced["real_walls_s"]
    report = {
        "workload": workload,
        "seed": seed,
        "untraced_walls_s": untraced["walls_s"],
        "untraced_real_walls_s": untraced["real_walls_s"],
        "calibration_s": untraced["calibration_s"],
        "traced_walls_s": result["walls_s"],
        "item_p50_ms": untraced["item_p50_ms"],
        "item_p90_ms": untraced["item_p90_ms"],
        "metrics": result["metrics"],
        "layers": result.pop("layers"),
    }
    Path(f"{out}.json").write_text(json.dumps(report, indent=1) + "\n")
    return result


def print_metrics(workload, result):
    print(f"{workload}: {len(result['walls_s'])} pass(es), {result['attempted']} items,"
          f" {result['failed']} failed, correct={result['correct']}")
    rows = dict(result["metrics"], item_p50_ms=result["item_p50_ms"],
                failed_frac=result["failed"] / result["attempted"])
    for name, value in rows.items():
        print(f"  {name:<36} {value:>14.6g} {UNITS[name]}")
    print(f"  (real time of the fastest pass {min(result['real_walls_s']):.6g} s)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that the handlers above stop the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hcov" / "__init__.py").is_file():
        print(f"perfbench: no hcov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print_metrics(name, results[name])

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            k: {"value": v, "unit": UNITS[k.split(".", 1)[1] if len(names) > 1 else k]}
            for k, v in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
