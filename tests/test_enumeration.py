from dataclasses import replace

import numpy as np
import pytest

from fairlists import enumeration
from fairlists.dataset import mine_antecedents
from fairlists.enumeration import enumerate_models
from fairlists.metrics import MetricKind
from fairlists.rules import canonical_form
from fairlists.search import DEFAULT_NODE_BUDGET, SearchConfig, SearchProblem, corels_optimize

from oracles import naive_enumerate_models, random_instance, same_kbest, subset_optima_kbest
from test_dataset import make_dataset


def recording(calls, certified=True):
    """corels_optimize, appending (allowed set, result) of each call to
    `calls`; with certified=False every result is reported uncertified."""

    def search(problem, cfg, allowed=None):
        result = corels_optimize(problem, cfg, allowed=allowed)
        if not certified:
            result = replace(result, certified_optimal=False)
        calls.append((frozenset(problem.captures if allowed is None else allowed), result))
        return result

    return search


def reused_instance():
    # the certified optimum over {1, 3, 4, 5} and over {0, 1, 3, 5} is the
    # empty list, and {1, 3, 4} and {0, 1, 3} are visited later
    d, ants = random_instance(np.random.default_rng(21), max_rows=32, max_feature_cols=6)
    return SearchProblem(ants, d), SearchConfig(lam=0.01, max_length=2)


class TestEnumerateModels:
    def test_first_model_is_the_optimum(self):
        rng = np.random.default_rng(10)
        d, ants = random_instance(rng)
        cfg = SearchConfig(lam=0.005, beta=0.0, max_length=3)
        models = enumerate_models(SearchProblem(ants, d), cfg, max_models=1)
        assert len(models) == 1
        opt = corels_optimize(SearchProblem(ants, d), cfg)
        assert canonical_form(models[0].best) == canonical_form(opt.best)
        assert models[0].objective == opt.objective

    def test_max_models_validation(self):
        rng = np.random.default_rng(10)
        d, ants = random_instance(rng)
        with pytest.raises(ValueError):
            enumerate_models(SearchProblem(ants, d), SearchConfig(), max_models=0)

    def test_objectives_non_decreasing_and_distinct(self):
        rng = np.random.default_rng(44)
        for trial in range(10):
            d, ants = random_instance(rng, max_rows=32, max_feature_cols=6)
            beta = (0.0, 0.5, 0.9)[trial % 3]
            cfg = SearchConfig(lam=0.005, beta=beta, max_length=2)
            models = enumerate_models(SearchProblem(ants, d), cfg, max_models=20)
            objs = [m.objective for m in models]
            assert objs == sorted(objs)
            forms = [canonical_form(m.best) for m in models]
            assert len(forms) == len(set(forms))

    def test_five_antecedent_instance_matches_exhaustive_kbest(self):
        rng = np.random.default_rng(28)
        d, ants = random_instance(rng, max_rows=32, max_feature_cols=5)
        cfg = SearchConfig(lam=0.01, beta=0.0, max_length=2)
        models = enumerate_models(SearchProblem(ants, d), cfg, max_models=5)
        got = [(m.objective, canonical_form(m.best)) for m in models]
        want = subset_optima_kbest(ants, d, cfg, 10**9)
        assert same_kbest(got, want)

    def test_uncapped_enumeration_equals_oracle_set(self):
        # same_kbest compares a prefix only; here the whole emitted set must
        # equal the oracle's full set of subset optima
        rng = np.random.default_rng(61)
        for trial in range(30):
            d, ants = random_instance(rng, max_rows=32, max_feature_cols=5)
            cfg = SearchConfig(lam=0.005, beta=(0.0, 0.5, 0.9)[trial % 3], max_length=3)
            models = enumerate_models(SearchProblem(ants, d), cfg, max_models=10**9)
            got = {canonical_form(m.best): m.objective for m in models}
            assert len(got) == len(models)
            want = dict((c, o) for o, c in subset_optima_kbest(ants, d, cfg, 10**9))
            assert got.keys() == want.keys()
            for c, obj in got.items():
                assert obj == pytest.approx(want[c], abs=1e-12)

    def test_exhaustion_returns_short_list(self):
        # a single antecedent admits very few reachable models
        feats = np.array([[1, 0], [0, 0], [1, 1], [0, 1]] * 3, dtype=np.uint8)
        d = make_dataset(feats, feats[:, 0].copy(), sensitive_col=1)
        ants = mine_antecedents(d, min_support=0.0, include_negations=False)
        assert len(ants) == 1
        models = enumerate_models(SearchProblem(ants, d), SearchConfig(lam=0.005, max_length=2), max_models=50)
        assert 1 <= len(models) < 50

    def test_the_default_only_list_follows_the_last_antecedent(self):
        # one antecedent: the optimum uses it, and its one child subproblem
        # allows none, whose optimum is the default-only list
        feats = np.array([[1, 0], [0, 0], [1, 1], [0, 1]] * 4, dtype=np.uint8)
        labels = feats[:, 0].copy()
        labels[0] ^= 1
        d = make_dataset(feats, labels, sensitive_col=1)
        ants = mine_antecedents(d, min_support=0.0, include_negations=False)
        assert len(ants) == 1
        cfg = SearchConfig(lam=0.005)
        models = enumerate_models(SearchProblem(ants, d), cfg, max_models=5)
        got = [(m.objective, canonical_form(m.best)) for m in models]
        assert got == [(pytest.approx(0.0675), "0:1;default:0"), (pytest.approx(0.4375), "default:0")]
        assert same_kbest(got, subset_optima_kbest(ants, d, cfg, 10**9))
        assert all(m.certified_optimal for m in models)

    def test_default_protocol_size(self):
        from fairlists.enumeration import DEFAULT_MAX_MODELS

        assert DEFAULT_MAX_MODELS == 50


class TestReuse:
    """A subproblem answered by an earlier certified search is not searched,
    and the emitted results are those of searching every subproblem."""

    def test_emits_what_searching_every_subproblem_emits(self, monkeypatch):
        rng = np.random.default_rng(20240501)
        calls, naive_calls, cut = [], [], 0
        monkeypatch.setattr(enumeration, "corels_optimize", recording(calls))
        for trial in range(360):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=6)
            cfg = SearchConfig(
                lam=float(rng.choice([0.0, 0.002, 0.005, 0.01, 0.02])),
                beta=(0.0, 0.1, 0.5, 0.9)[trial // 6 % 4],
                metric=list(MetricKind)[trial // 24 % 4],
                max_length=int(rng.integers(1, 4)),
                node_budget=25 if trial % 5 == 0 else DEFAULT_NODE_BUDGET,
            )
            max_models = (5, 20, 50)[trial % 3]
            problem = SearchProblem(ants, d)
            want = naive_enumerate_models(problem, cfg, max_models, recording(naive_calls))
            assert enumerate_models(problem, cfg, max_models) == want, (trial, cfg, max_models)
            cut += not all(m.certified_optimal for m in want)
        assert cut >= 10
        assert len(calls) < len(naive_calls)

    def test_a_subset_of_a_solved_empty_optimum_is_not_searched(self, monkeypatch):
        problem, cfg = reused_instance()
        naive = []
        want = naive_enumerate_models(problem, cfg, 10, recording(naive))
        skipped = {
            a
            for i, (a, _) in enumerate(naive)
            if any(a < s and r.K == 0 and r.certified_optimal for s, r in naive[:i])
        }
        assert len(skipped) == 2
        calls = []
        monkeypatch.setattr(enumeration, "corels_optimize", recording(calls))
        assert enumerate_models(problem, cfg, 10) == want
        assert len(calls) < len(naive)
        assert not skipped & {a for a, _ in calls}

    def test_an_uncertified_result_is_not_reused(self, monkeypatch):
        problem, cfg = reused_instance()
        naive = []
        naive_enumerate_models(problem, cfg, 10, recording(naive))
        calls = []
        monkeypatch.setattr(enumeration, "corels_optimize", recording(calls, certified=False))
        enumerate_models(problem, cfg, 10)
        assert [a for a, _ in calls] == [a for a, _ in naive]

    def test_node_budget_one_searches_as_often_as_the_naive_loop(self, monkeypatch):
        rng = np.random.default_rng(7)
        for trial in range(10):
            d, ants = random_instance(rng, max_rows=32, max_feature_cols=6)
            problem, cfg = SearchProblem(ants, d), SearchConfig(lam=0.01, max_length=2, node_budget=1)
            naive, calls = [], []
            want = naive_enumerate_models(problem, cfg, 10, recording(naive))
            monkeypatch.setattr(enumeration, "corels_optimize", recording(calls))
            assert enumerate_models(problem, cfg, 10) == want
            assert len(calls) == len(naive)


class TestModelMetrics:
    def test_fidelity_complements_misc(self):
        rng = np.random.default_rng(33)
        d, ants = random_instance(rng)
        cfg = SearchConfig(lam=0.005, beta=0.5, max_length=2)
        for m in enumerate_models(SearchProblem(ants, d), cfg, max_models=10):
            assert m.fidelity == pytest.approx(1.0 - m.misc, abs=1e-15)
            assert m.certified_optimal

    def test_metrics_of(self):
        rng = np.random.default_rng(34)
        d, ants = random_instance(rng)
        res = corels_optimize(SearchProblem(ants, d), SearchConfig(lam=0.01, max_length=2))
        # the same expression models.txt has always written
        assert res.fidelity == 1.0 - res.misc
        assert res.K == res.best.K
