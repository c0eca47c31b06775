"""The benchmark wraps module attributes by name (perfbench/layers.py
TARGETS); a refactor that drops one of those imports would break only the
benchmark run, so it is checked here."""

import importlib.util
from pathlib import Path

from fairlists.cli import main

from test_cli import data_args, write_synth

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_attribute_exists_and_is_callable():
    layers = load_layers()
    assert layers.TARGETS
    missing = [
        "%s.%s" % (module.__name__, attr)
        for module, attr, _, _ in layers.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_the_benchmark_ops_run_under_their_wrapped_attributes(tmp_path, monkeypatch):
    # a call moved out from under its traced attribute would leave a
    # benchmark op with no spans
    calls = {}
    for module, attr, _, _ in load_layers().TARGETS:
        key = "%s.%s" % (module.__name__, attr)
        calls[key] = 0

        def recorded(*args, _f=getattr(module, attr), _key=key, **kwargs):
            calls[_key] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, attr, recorded)
    raw, preds = write_synth(tmp_path, n=200)
    recipe = tmp_path / "recipe.txt"
    recipe.write_text("s sensitive\ny label\n")
    data = str(tmp_path / "prep.csv")
    assert main(["prep", "--input", raw, "--recipe", str(recipe), "--output", data]) == 0
    common = [*data_args(data), "--max-length", "2", "--max-models", "3"]
    assert main(["global", *common, "--blackbox", preds, "--lambda", "0.005", "--beta", "0.2",
                 "--output", str(tmp_path / "g")]) == 0
    assert main(["local", *common, "--blackbox", preds, "--beta", "0.5", "--output", str(tmp_path / "l")]) == 0
    assert main(["enumerate", *common, "--output", str(tmp_path / "e")]) == 0
    ops = (
        "fairlists.cli.cmd_prep",
        "fairlists.recipe.apply_recipe",
        "fairlists.cli.load_csv",
        "fairlists.cli.rationalize_global",
        "fairlists.rationalize.rationalize_local",
        "fairlists.enumeration.corels_optimize",
        "fairlists.rationalize.knn_neighborhood",
    )
    assert [op for op in ops if calls[op] == 0] == []
