"""Every function the benchmark tracer wraps exists in the package.

``bench/tracing.py`` reports the per-layer metric of a target it cannot find
as absent (``null``), so renaming or removing a traced function would blank
a metric without failing anything.  This test names the target instead.  It
only reads ``bench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, function) for _, module, function, _, _ in tracing.TARGETS]


@pytest.mark.parametrize("module, function", traced_targets())
def test_traced_target_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))
