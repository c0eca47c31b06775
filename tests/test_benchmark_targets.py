"""The benchmark wraps module attributes by name (perfbench/layers.py
TARGETS); a refactor that drops one of those imports would break only the
benchmark run, so it is checked here."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_attribute_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    missing = [
        "%s.%s" % (module.__name__, attr)
        for module, attr, _, _ in layers.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
