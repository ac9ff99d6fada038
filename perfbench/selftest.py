#!/usr/bin/env python3
"""Self-test of the benchmark's wrapping and bookkeeping (a few seconds).

    python3 perfbench/selftest.py

- Each workload runs smoke-sized, untraced and traced. Both runs must be
  correct and leave every hcov function unpatched, and every per-layer
  metric that PER_LAYER lists for the workload must be non-zero. A
  refactor that moves or renames a traced function then fails here instead
  of reporting 0.
- Patching by identity reaches every module that bound a target with
  `from ... import`, and uninstalling restores all of them.
- A target that no longer exists makes install fail.
- SpeedClock samples the host's speed while it runs, leaves its handler's
  time out of both clocks, and restores SIGALRM when stopped.
- BENCHMARK.json lists the metrics that the code reports, with their units,
  and its workloads exercise every layer.
- Without hcov sources next to it, run.py exits non-zero and prints no result.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
os.environ["HCOV_PURE"] = "1"  # the kernel the benchmark measures, and the one it wraps

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def check(ok, message):
    if not ok:
        print(f"selftest: FAIL: {message}")
        sys.exit(1)


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--size", "smoke",
         "--seconds", "0", "--seed", "7", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, env=run.child_env(), timeout=300,
    )
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads():
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            out = smoke(workload, trace)
            check(out["correct"], f"{workload} trace={trace} is not correct")
            check(out["unpatched"], f"{workload} trace={trace} left hcov patched")
            check(out["attempted"] > 0 and out["failed"] == 0, f"{workload}: {out}")
        metrics = out["metrics"]
        check(set(tracing.UNITS) - set(metrics) == {"trace.overhead_frac"}, f"{workload}: metric names")
        zero = [name for name, *_, on in tracing.PER_LAYER if workload in on and not metrics[name]]
        check(not zero, f"{workload}: per-layer metrics read 0: {zero}")
        print(f"selftest: {workload}: smoke runs correct, {len(metrics)} per-layer metrics")


def test_identity_patching():
    import hcov.cli  # noqa: F401  (loads every hcov module)
    from hcov import _pure, galois, kernel, permgroup

    before = tracing.function_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (kernel, _pure, permgroup, galois):
            check(getattr(mod.perm_mul, tracing.MARK, False), f"{mod.__name__}.perm_mul not wrapped")
        check(permgroup.mulclose is kernel.mulclose, "mulclose copies differ")
        check(getattr(permgroup.StabilizerChain.__init__, tracing.MARK, False), "chain not wrapped")
        permgroup.psl2(7).order()
    finally:
        tracer.uninstall()
    check(tracing.function_snapshot() == before and tracing.unpatched(), "uninstall incomplete")
    check(tracer.counts()["kernel.perm_mul"] > 0, "perm_mul calls were not counted")
    check(tracer.layer_table()["permgroup.chain"]["calls"] == 1, "chain span missing")

    saved = galois.cayley
    del galois.cayley
    try:
        tracing.Tracer().install()
        check(False, "install accepted a missing target")
    except LookupError:
        pass
    finally:
        galois.cayley = saved
    check(tracing.unpatched(), "failed install left wrappers behind")
    print("selftest: identity patching and restore ok")


def test_speed_clock():
    sc = speed.SpeedClock()
    sc.start()
    try:
        norm0, real0 = sc.read()
        paused0 = sc.paused
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.0:
            pass
        norm1, real1 = sc.read()
        elapsed = time.perf_counter() - t0
    finally:
        sc.stop()
    check(sc.ticks >= 3, f"{sc.ticks} calibration ticks in 1 s")
    paused = sc.paused - paused0
    check(0 < paused and abs((real1 - real0) + paused - elapsed) < 0.05 * elapsed,
          "real clock does not leave the handler out")
    check(norm1 > norm0, "normalised clock did not advance")
    check(signal.getsignal(signal.SIGALRM) == signal.SIG_DFL, "SIGALRM handler left installed")
    print(f"selftest: speed clock ok ({sc.ticks} ticks, factor {sc.factor:.3f})")


def test_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    check(set(listed) <= set(run.WORKLOADS), "BENCHMARK.json names an unknown workload")
    uncovered = [r[0] for r in tracing.PER_LAYER if r[4] and not set(r[4]) & set(listed)]
    check(not uncovered, f"per-layer metrics no listed workload exercises: {uncovered}")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end metrics")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    check(layers == [tuple(r[:3]) for r in tracing.PER_LAYER], "BENCHMARK.json per_layer metrics")
    print("selftest: BENCHMARK.json matches the code")


def test_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pair_census", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "run.py without sources")
    print("selftest: without sources run.py exits", proc.returncode)


if __name__ == "__main__":
    test_identity_patching()
    test_speed_clock()
    test_benchmark_json()
    test_without_sources()
    test_workloads()
    print("selftest: ok")
