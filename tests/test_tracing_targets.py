"""Every function the benchmark's tracer wraps exists on the package, so a
rename fails here instead of crashing a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,attr", [(t[0], t[1]) for t in load_targets()])
def test_tracing_target_exists(module, attr):
    owner = importlib.import_module(f"graphbench.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
