"""Every function the benchmark tracer wraps by name must exist in the package.

``perfbench/tracer.py`` looks each name in ``LAYERS`` and ``COUNTED`` up with
``getattr`` when a traced run starts, so a renamed or deleted function breaks
``perfbench/run.py --trace 1`` without failing any other test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_in_stopgame():
    tracer = load_tracer()
    names = [f"{layer}.{q}" for layer, quals in tracer.LAYERS.items() for q in quals]
    names += list(tracer.COUNTED)
    assert len(names) > 30
    for name in names:
        layer, _, qual = name.partition(".")
        owner = importlib.import_module(f"stopgame.{layer}")
        for attr in qual.split("."):
            assert hasattr(owner, attr), f"{name} does not resolve in stopgame"
            owner = getattr(owner, attr)
        assert callable(owner), name
