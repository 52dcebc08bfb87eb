"""The benchmark's traced run wraps functions by name; a renamed or removed
function would break only ``perfbench/run.py --trace 1``, which the test
suite does not run. Check every traced name resolves in the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = []
    for module_name, function in spans.TARGETS:
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        if not callable(getattr(module, function, None)):
            missing.append(f"{module_name}.{function}")
    assert not missing, f"traced names missing from hydrolink: {missing}"
