"""Self-tests of the benchmark: generators, checker and self-time arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checker  # noqa: E402
import inputs  # noqa: E402
from fairlists import cli  # noqa: E402
from fairlists.dataset import load_csv, mine_antecedents  # noqa: E402
from spans import Span, self_times  # noqa: E402


def _read(*paths):
    out = b""
    for p in paths:
        with open(p, "rb") as fh:
            out += fh.read()
    return out


def _biased(tmp_path, tag, n, seed):
    paths = (str(tmp_path / ("%s_data.csv" % tag)), str(tmp_path / ("%s_bb.csv" % tag)))
    inputs.write_biased(*paths, n, seed)
    return _read(*paths)


def _wide(tmp_path, tag, n, seed):
    paths = (str(tmp_path / ("%s_raw.csv" % tag)), str(tmp_path / ("%s_recipe.txt" % tag)))
    inputs.write_wide(*paths, n, seed)
    return paths


def test_generators_repeat_per_seed_and_differ_across_seeds(tmp_path):
    assert _biased(tmp_path, "a", 500, 7) == _biased(tmp_path, "b", 500, 7)
    assert _biased(tmp_path, "a", 500, 7) != _biased(tmp_path, "c", 500, 8)
    assert _read(*_wide(tmp_path, "a", 500, 7)) == _read(*_wide(tmp_path, "b", 500, 7))
    assert _read(*_wide(tmp_path, "a", 500, 7)) != _read(*_wide(tmp_path, "c", 500, 8))


def test_biased_data_has_the_intended_rates(tmp_path):
    features, s, blackbox, _, _ = inputs.biased_rows(2000, 3)
    assert s.sum() == 700
    assert features[s == 1, 0].sum() == round(0.6 * 700)
    assert features[s == 0, 0].sum() == round(0.4 * 1300)
    # the black box approves the minority far more often
    assert blackbox[s == 1].mean() - blackbox[s == 0].mean() > 0.2


@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, 1, 2])
def test_wide_data_mines_to_the_intended_antecedent_count(tmp_path, seed):
    raw, recipe = _wide(tmp_path, "w", 2000, seed)
    data = str(tmp_path / "data.csv")
    assert cli.main(["prep", "--input", raw, "--recipe", recipe, "--output", data]) == 0
    d = load_csv(data, inputs.SENSITIVE, inputs.LABEL)
    assert len(mine_antecedents(d)) == inputs.WIDE_ANTECEDENTS


def _enumerated(tmp_path):
    data, bb = str(tmp_path / "data.csv"), str(tmp_path / "bb.csv")
    inputs.write_biased(data, bb, 400, 5)
    out = str(tmp_path / "out")
    argv = ["enumerate", "--data", data, "--sensitive", "s", "--label", "y",
            "--beta", "0.5", "--max-length", "2", "--max-models", "6", "--output", out]
    assert cli.main(argv) == 0
    d = load_csv(data, "s", "y")
    return os.path.join(out, "models.txt"), d, mine_antecedents(d), checker.search_config(0.005, 0.5, 2)


def test_checker_accepts_the_cli_output(tmp_path):
    path, d, ants, cfg = _enumerated(tmp_path)
    assert checker.check_models(path, d, ants, cfg) == []


def test_checker_flags_a_perturbed_objective(tmp_path):
    path, d, ants, cfg = _enumerated(tmp_path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) >= 3
    # the last line, so that the raised objective breaks no ordering
    fields = lines[-1].split("\t")
    fields[1] = repr(float(fields[1]) + 1e-6)
    lines[-1] = "\t".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    problems = checker.check_models(path, d, ants, cfg)
    assert [lineno for lineno, _ in problems] == [len(lines)]
    assert "objective" in problems[0][1]


def test_checker_flags_order_and_duplicates(tmp_path):
    path, d, ants, cfg = _enumerated(tmp_path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert float(lines[-1].split("\t")[1]) > float(lines[0].split("\t")[1])
    with open(path, "w") as fh:
        fh.write("\n".join([lines[-1], lines[0], lines[0]]) + "\n")
    messages = [msg for _, msg in checker.check_models(path, d, ants, cfg)]
    assert any("below the previous" in m for m in messages)
    assert any("duplicate" in m for m in messages)


def test_digest_ignores_run_paths_in_the_manifest(tmp_path):
    for run in ("a", "b"):
        os.makedirs(tmp_path / run)
        (tmp_path / run / "manifest.txt").write_text("data=/x/%s/data.csv\nmax_length=3\n" % run)
    assert checker.digest(str(tmp_path / "a")) == checker.digest(str(tmp_path / "b"))
    (tmp_path / "b" / "manifest.txt").write_text("data=/x/b/data.csv\nmax_length=4\n")
    assert checker.digest(str(tmp_path / "a")) != checker.digest(str(tmp_path / "b"))


def _span(sid, parent, start, end, name="x.f"):
    sp = Span(sid, parent, None, name, start)
    sp.end = end
    return sp


def test_self_time_subtracts_children():
    # root 0..10 with children 1..3 and 4..8; the second has a child 5..6
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 4.0, 8.0),
        _span(4, 3, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_self_time_splits_concurrent_children_and_sums_to_the_root():
    # two pool-thread children of one span overlap on 2..4
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 2.0, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_of_spans_sharing_an_instant():
    spans = [_span(1, None, 0.0, 2.0), _span(2, 1, 0.0, 2.0), _span(3, 2, 1.0, 2.0)]
    assert self_times(spans) == pytest.approx({1: 0.0, 2: 1.0, 3: 1.0})
