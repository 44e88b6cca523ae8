"""Every function the benchmark tracer wraps by name must exist in the package.

``perfbench/tracer.py`` looks each name in ``LAYERS`` and ``COUNTED`` up with
``getattr`` when a traced run starts, so a renamed or deleted function breaks
``perfbench/run.py --trace 1`` without failing any other test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from stopgame.gamefile import GameDoc, emit_game, parse_game
from stopgame.generator import generate_instance
from stopgame.space import constant_time

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


def test_fingerprint_keys_a_pinned_field_by_its_rows():
    """A repeat-counted call is keyed by its arguments' dataclass fields; for
    a field those are its integer ``rows`` and ``den``, so fingerprinting a
    pin of a parsed field builds no ``Fraction`` values."""
    inst = generate_instance(5, n_outcomes=3, n_times=4)
    doc = GameDoc(inst.space, inst.fields, constant_time(inst.space, 0), inst.epsilon, None)
    field = parse_game(emit_game(doc)).fields[0]
    fingerprint = load_tracer().fingerprint
    pinned, again = field.pin(0, 1), field.pin(0, 1)
    assert fingerprint(pinned, {}) == fingerprint(again, {})
    assert fingerprint(pinned, {}) != fingerprint(field.pin(0, 2), {})
    assert not any("values" in vars(f) for f in (field, pinned, again))
