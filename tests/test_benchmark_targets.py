"""The benchmark wraps module attributes by name (perfbench/layers.py
TARGETS); a refactor that drops one of those imports would break only the
benchmark run, so it is checked here.  So are the result files of each
benchmark workload at its default seed: they must stay byte-identical to
the digests recorded in perfbench/reference.json.  So are the searches and
nodes of each gated workload's enumeration, which the traced benchmark
does not see for the grid, and the equivalent-points masks they build."""

import importlib.util
import json
from pathlib import Path

import pytest

from fairlists import enumeration, search
from fairlists.cli import main

from test_cli import data_args, write_synth

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"


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
    # benchmark op with no spans, and a signature that a target's count
    # function no longer reads would break the traced run: every real call
    # is counted as the tracer counts it
    calls = {}
    for module, attr, _, count in load_layers().TARGETS:
        key = "%s.%s" % (module.__name__, attr)
        calls[key] = 0

        def recorded(*args, _f=getattr(module, attr), _key=key, _count=count, **kwargs):
            calls[_key] += 1
            result = _f(*args, **kwargs)
            if _count is not None:
                _count(args, kwargs, result)
            return result

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


def run_workload(tmp_path, monkeypatch, name):
    """One pass of the benchmark workload `name` on its inputs at the
    default seed: (the workload, its input directory, its pass directory)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import workloads

    wl = workloads.WORKLOADS[name]
    indir, passdir = tmp_path / "in", tmp_path / "pass"
    indir.mkdir()
    passdir.mkdir()
    wl.prepare(str(indir), wl.n, inputs.DEFAULT_SEED)
    for argv in wl.commands(str(indir), str(passdir)):
        assert main(argv) == 0
    return wl, indir, passdir


@pytest.mark.parametrize("name", ["global_grid", "wide_search", "local_cohort"])
def test_workload_results_match_the_reference_digest(tmp_path, monkeypatch, name):
    wl, indir, passdir = run_workload(tmp_path, monkeypatch, name)
    import checker

    assert wl.check(str(indir), str(passdir)) == []
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert checker.digest(str(passdir)) == reference[name]


@pytest.mark.parametrize(
    "name,searches,nodes,masks",
    [("global_grid", 11, 1805, 4), ("wide_search", 10, 1559, 4)],
    ids=["global_grid", "wide_search"],
)
def test_gated_workload_search_counts(tmp_path, monkeypatch, name, searches, nodes, masks):
    # every search of the workload's enumeration: calls, then nodes summed
    # over each call's configs; and the equivalent-points masks built, one
    # per set of columns that the searches' allowed sets read
    counted = [0, 0]
    built = []

    def counting(f):
        def wrapped(*args, **kwargs):
            results = f(*args, **kwargs)
            counted[0] += 1
            counted[1] += sum(r.nodes_evaluated for r in (results if isinstance(results, list) else [results]))
            return results

        return wrapped

    def row_class_ids(bits, _f=search.row_class_ids):
        built.append(bits.shape[1])
        return _f(bits)

    for attr in ("corels_optimize", "search_cells"):
        monkeypatch.setattr(enumeration, attr, counting(getattr(enumeration, attr)))
    monkeypatch.setattr(search, "row_class_ids", row_class_ids)
    run_workload(tmp_path, monkeypatch, name)
    assert counted == [searches, nodes]
    assert len(built) == masks
