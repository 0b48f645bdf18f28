"""The benchmark's tracer wraps byzrank functions by module path.

``bench/tracer.py`` names every function it times as ``(module, attribute)``
on ``byzrank``; a rename there would break ``bench/run.py --trace 1``, so the
names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span,module,attr", load_tracer().FUNCTIONS)
def test_traced_function_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(f"byzrank.{module}"), attr)), span


def test_traced_exchange_resolves():
    simnet = importlib.import_module("byzrank.simnet")
    assert callable(simnet.SyncNetwork.exchange)
