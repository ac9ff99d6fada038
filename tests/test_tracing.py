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
