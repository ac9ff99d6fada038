import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_traced_darts_count_each_dart_once():
    # the benchmark's oriented.darts_traced sums the lengths of
    # LhtDecomposition.orbits, which hold dart ids
    from hcov import maximal, oriented
    from hcov.permgroup import psl2, search_23_pairs

    G = psl2(13)
    tau, sigma = search_23_pairs(G, product_order=7).pairs[0]
    mc = maximal.build_maximal(G, tau, sigma)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        report = oriented.theorem_44_check(mc)
    finally:
        tracer.uninstall()
    assert report.holds
    assert tracer.extra["darts_traced"] == 2 * len(mc.graph.edges) == G.order()
