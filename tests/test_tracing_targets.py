"""The benchmark's span tracer names package functions by module path.

perfbench/tracing.py lists in TARGETS every function it wraps. A refactor
that renames or deletes one of them passes every other test and breaks
only the traced benchmark run, so this test checks that each target still
exists where the tracer looks for it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer, path, name", _targets())
def test_traced_function_exists(layer, path, name):
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"schurroots.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    # the tracer reads the function from the owner's own namespace
    assert name in vars(owner), f"{layer}: {path}.{name} is gone"
    original = vars(owner)[name]
    assert callable(getattr(original, "__func__", original))
