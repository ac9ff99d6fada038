import contextlib
import importlib
import importlib.util
import io
import json
import pkgutil
from pathlib import Path

import pytest

import hcov

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_still_exist():
    # the benchmark's tracer wraps hcov entry points by name and raises
    # LookupError when one is renamed, deleted or bound nowhere
    for info in pkgutil.iter_modules(hcov.__path__):
        importlib.import_module(f"hcov.{info.name}")
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracing.unpatched()


def test_permgroup_binds_the_kernels_mulclose():
    # perfbench/selftest.py asserts this identity, so that one span sees
    # every closure call
    from hcov import kernel, permgroup

    assert permgroup.mulclose is kernel.mulclose


@pytest.mark.parametrize(
    "argv",
    [
        ["maximal", "table", "--from", "2", "--to", "3"],
        ["maximal", "genus12"],
        ["maximal", "miller", "--family", "alternating", "--n", "5"],
        ["group", "search", "--group", "psl2:7"],
        ["surface", "check44", "--group", "psl2:7", "--product-order", "7"],
    ],
    ids=lambda argv: "_".join(argv[:2]),
)
def test_benchmark_commands_accept_json_and_one_job(argv):
    # perfbench/workload.py runs these hc subcommands with --json --jobs 1
    # appended, and reads the payload from stdout
    from hcov.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json", "--jobs", "1"])
    assert code == 0
    assert isinstance(json.loads(out.getvalue()), dict)


def test_traced_darts_count_each_dart_once():
    # the benchmark's oriented.darts_traced sums the lengths of
    # LhtDecomposition.orbits, which hold dart ids
    from hcov import maximal, oriented
    from hcov.permgroup import psl2, search_pairs

    G = psl2(13)
    tau, sigma = search_pairs(G, 2, 3, 7).pairs[0]
    mc = maximal.build_maximal(G, tau, sigma)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        report = oriented.theorem_44_check(mc)
    finally:
        tracer.uninstall()
    assert report.holds
    assert tracer.extra["darts_traced"] == 2 * len(mc.graph.edges) == G.order()
