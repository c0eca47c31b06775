import math
from dataclasses import replace

import numpy as np
import pytest

from fairlists import enumeration, search
from fairlists.dataset import mine_antecedents
from fairlists.enumeration import enumerate_cells, enumerate_models
from fairlists.errors import InvalidValue
from fairlists.metrics import MetricKind
from fairlists.rules import RuleList, canonical_form
from fairlists.search import DEFAULT_NODE_BUDGET, SearchConfig, SearchProblem, corels_optimize

from oracles import TRIAL_METRICS, naive_enumerate_models, random_instance, same_kbest, subset_optima_kbest
from test_dataset import make_dataset
from test_search import random_grid, result_fields


def recording(calls, certified=True):
    """corels_optimize, appending (allowed set, floor, result) of each call
    to `calls`; with certified=False every result is reported uncertified."""

    def search(problem, cfg, allowed=None, floor=-math.inf):
        result = corels_optimize(problem, cfg, allowed=allowed, floor=floor)
        if not certified:
            result = replace(result, certified_optimal=False)
        calls.append((frozenset(problem.captures if allowed is None else allowed), floor, result))
        return result

    return search


def same_results(got, want, calls):
    """Whether the emitted results `got` are the reference's `want` on
    every field but nodes_evaluated.  The one difference allowed: a search
    that a node budget cut in the reference reached its floor (recorded in
    `calls`) first, so it is certified, with its floor as its objective."""
    floors = {id(result): floor for _, floor, result in calls}
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if result_fields(g) != result_fields(w):
            floored = g.certified_optimal and not w.certified_optimal and g.objective == floors.get(id(g))
            if not floored or result_fields(replace(g, certified_optimal=False)) != result_fields(w):
                return False
    return True


def total_nodes(calls):
    return sum(result.nodes_evaluated for _, _, result in calls)


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
    a subproblem of a certified parent stops at its parent's objective, and
    the emitted results are those of searching every subproblem to the
    end."""

    def test_emits_what_searching_every_subproblem_emits(self, monkeypatch):
        rng = np.random.default_rng(20240501)
        calls, naive_calls, cut = [], [], 0
        monkeypatch.setattr(enumeration, "corels_optimize", recording(calls))
        for trial in range(360):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=6)
            cfg = SearchConfig(
                lam=float(rng.choice([0.0, 0.002, 0.005, 0.01, 0.02])),
                beta=(0.0, 0.1, 0.5, 0.9)[trial // 6 % 4],
                metric=TRIAL_METRICS[trial // 24 % 4],
                max_length=int(rng.integers(1, 4)),
                node_budget=20 if trial % 5 == 0 else DEFAULT_NODE_BUDGET,
            )
            max_models = (5, 20, 50)[trial % 3]
            problem = SearchProblem(ants, d)
            want = naive_enumerate_models(problem, cfg, max_models, recording(naive_calls))
            assert same_results(enumerate_models(problem, cfg, max_models), want, calls), (trial, cfg, max_models)
            cut += not all(m.certified_optimal for m in want)
        assert cut >= 10
        assert len(calls) < len(naive_calls)
        assert total_nodes(calls) < total_nodes(naive_calls)

    def test_a_subset_of_a_solved_empty_optimum_is_not_searched(self, monkeypatch):
        problem, cfg = reused_instance()
        naive = []
        want = naive_enumerate_models(problem, cfg, 10, recording(naive))
        skipped = {
            a
            for i, (a, _, _) in enumerate(naive)
            if any(a < s and r.K == 0 and r.certified_optimal for s, _, r in naive[:i])
        }
        assert len(skipped) == 2
        calls = []
        monkeypatch.setattr(enumeration, "corels_optimize", recording(calls))
        assert same_results(enumerate_models(problem, cfg, 10), want, calls)
        assert len(calls) < len(naive)
        assert not skipped & {a for a, _, _ in calls}

    def test_an_uncertified_result_is_not_reused(self, monkeypatch):
        problem, cfg = reused_instance()
        naive = []
        naive_enumerate_models(problem, cfg, 10, recording(naive))
        calls = []
        monkeypatch.setattr(enumeration, "corels_optimize", recording(calls, certified=False))
        enumerate_models(problem, cfg, 10)
        assert [a for a, _, _ in calls] == [a for a, _, _ in naive]
        # and bounds none of its subproblems below
        assert {floor for _, floor, _ in calls} == {-math.inf}

    def test_node_budget_one_searches_as_often_as_the_naive_loop(self, monkeypatch):
        rng = np.random.default_rng(7)
        for trial in range(10):
            d, ants = random_instance(rng, max_rows=32, max_feature_cols=6)
            problem, cfg = SearchProblem(ants, d), SearchConfig(lam=0.01, max_length=2, node_budget=1)
            naive, calls = [], []
            want = naive_enumerate_models(problem, cfg, 10, recording(naive))
            monkeypatch.setattr(enumeration, "corels_optimize", recording(calls))
            assert same_results(enumerate_models(problem, cfg, 10), want, calls)
            assert len(calls) == len(naive)

    def test_a_root_cut_by_the_budget_gives_its_children_no_floor(self, monkeypatch):
        # at a budget of 14 nodes the root search is cut and its two
        # children are certified, so only their subproblems get floors
        problem, cfg = reused_instance()
        cfg = replace(cfg, node_budget=14)
        naive, calls = [], []
        want = naive_enumerate_models(problem, cfg, 10, recording(naive))
        monkeypatch.setattr(enumeration, "corels_optimize", recording(calls))
        assert same_results(enumerate_models(problem, cfg, 10), want, calls)
        (_, _, root), children = calls[0], calls[1:3]
        assert (root.K, root.certified_optimal) == (2, False)
        assert [(floor, result.certified_optimal) for _, floor, result in children] == [(-math.inf, True)] * 2
        assert [floor for _, floor, _ in calls[3:]] == [children[0][2].objective] * 2 + [children[1][2].objective] * 2
        assert total_nodes(calls) < total_nodes(naive)

    def test_a_subproblem_stops_at_its_certified_parent_objective(self, monkeypatch):
        # each subproblem of a certified parent gets the parent's objective
        # as its floor; those whose optimum ties it stop there
        problem, cfg = reused_instance()
        naive, calls = [], []
        want = naive_enumerate_models(problem, cfg, 10, recording(naive))
        monkeypatch.setattr(enumeration, "corels_optimize", recording(calls))
        assert [result_fields(m) for m in enumerate_models(problem, cfg, 10)] == [result_fields(m) for m in want]
        tied = [result for _, floor, result in calls if result.objective == floor]
        assert tied and all(result.certified_optimal for result in tied)
        assert total_nodes(calls) < total_nodes(naive)


class TestEnumerateCells:
    """A grid enumerated in lockstep: every cell emits what its own
    enumeration emits, while the cells share searches."""

    @staticmethod
    def recorded(monkeypatch):
        """(allowed set, configs, floors, results) of every search an
        enumeration makes, through `corels_optimize` or `search_cells`."""
        calls = []

        def one(problem, cfg, allowed=None, floor=-math.inf):
            result = corels_optimize(problem, cfg, allowed=allowed, floor=floor)
            calls.append((frozenset(allowed), [cfg], [floor], [result]))
            return result

        def cells(problem, cfgs, allowed=None, floors=None):
            results = search.search_cells(problem, cfgs, allowed, floors)
            calls.append((frozenset(allowed), cfgs, floors, results))
            return results

        monkeypatch.setattr(enumeration, "corels_optimize", one)
        monkeypatch.setattr(enumeration, "search_cells", cells)
        return calls

    def test_every_cell_emits_its_own_enumeration(self, monkeypatch):
        rng = np.random.default_rng(20241019)
        calls = self.recorded(monkeypatch)
        naive_calls = []
        mixed = 0
        for trial in range(150):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=6)
            cfgs = random_grid(rng, TRIAL_METRICS[trial % 4], int(rng.integers(1, 4)))
            max_models = (5, 20, 50)[trial % 3]
            problem = SearchProblem(ants, d)
            got = enumerate_cells(problem, cfgs, max_models)
            assert len(got) == len(cfgs)
            for cfg, models in zip(cfgs, got):
                want = naive_enumerate_models(problem, cfg, max_models, recording(naive_calls))
                assert [result_fields(m) for m in models] == [result_fields(m) for m in want], (trial, cfg)
            mixed += len({cfg.beta == 0.0 for cfg in cfgs}) == 2
        assert mixed >= 80
        # the cells shared searches
        assert len(calls) < len(naive_calls) / 2
        assert any(len(cfgs) > 1 for _, cfgs, _, _ in calls)
        # and a shared search stopped at a cell's floor
        assert any(
            len(cfgs) > 1 and any(res.objective == floor for floor, res in zip(floors, results))
            for _, cfgs, floors, results in calls
        )

    def test_a_cell_cut_by_the_budget_is_never_certified(self, monkeypatch):
        rng = np.random.default_rng(43)
        calls = self.recorded(monkeypatch)
        cut = 0
        for trial in range(60):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=6)
            budget = int(rng.integers(1, 60))
            cfgs = random_grid(rng, TRIAL_METRICS[trial % 4], 3, budget)
            problem = SearchProblem(ants, d)
            got = enumerate_cells(problem, cfgs, 10)
            for models in got:
                assert all(m.nodes_evaluated <= budget for m in models)
            # every search, shared or not, against its exact optimum
            for allowed, cell_cfgs, _, results in calls:
                for cfg, res in zip(cell_cfgs, results):
                    exact = corels_optimize(problem, replace(cfg, node_budget=DEFAULT_NODE_BUDGET), allowed)
                    if res.certified_optimal:
                        assert result_fields(res) == result_fields(exact)
                    else:
                        assert res.nodes_evaluated == budget
                        cut += 1
            del calls[:]
        assert cut >= 50

    def test_a_budget_cut_search_can_differ_from_the_cell_alone(self):
        # a shared search counts only the nodes live for a cell and shares
        # its permutation tables, so under a node budget a cell can reach
        # what its own search would be cut before
        d, ants = random_instance(np.random.default_rng(122), max_rows=48, max_feature_cols=6)
        cfgs = [SearchConfig(lam=lam, beta=beta, max_length=3, node_budget=15) for lam in (0.005, 0.02) for beta in (0.0, 0.5)]
        got = enumerate_cells(SearchProblem(ants, d), cfgs, 10)
        for cfg, models in zip(cfgs, got):
            alone = enumerate_models(SearchProblem(ants, d), cfg, 10)
            if (cfg.lam, cfg.beta) != (0.02, 0.5):
                assert [result_fields(m) for m in models] == [result_fields(m) for m in alone]
                continue
            ((cell,), (own,)) = models, alone
            assert replace(cell, nodes_evaluated=0) == replace(own, nodes_evaluated=0, certified_optimal=True)
            assert (cell.best, cell.objective) == (RuleList(rules=(), default=0), pytest.approx(0.21591, abs=1e-5))
            assert not own.certified_optimal

    def test_a_set_one_cell_asks_for_goes_through_corels_optimize(self, monkeypatch):
        # a one-config enumeration makes the calls it always made, so the
        # benchmark's traced `enumeration.corels_optimize` sees every search
        problem, cfg = reused_instance()
        naive = []
        want = naive_enumerate_models(problem, cfg, 10, recording(naive))
        calls = self.recorded(monkeypatch)
        (got,) = enumerate_cells(problem, [cfg], 10)
        assert [result_fields(m) for m in got] == [result_fields(m) for m in want]
        assert all(len(cfgs) == 1 for _, cfgs, _, _ in calls)
        assert enumerate_models(problem, cfg, 10) == got

    def test_max_models_validation(self):
        d, ants = random_instance(np.random.default_rng(10))
        with pytest.raises(ValueError):
            enumerate_cells(SearchProblem(ants, d), [SearchConfig(), SearchConfig(beta=0.5)], max_models=0)

    @pytest.mark.parametrize(
        "other",
        [
            {"metric": MetricKind.OVERALL_ACCURACY_EQUALITY},
            {"max_length": 2},
            {"node_budget": 100},
        ],
    )
    def test_the_configs_share_metric_length_and_budget(self, other):
        d, ants = random_instance(np.random.default_rng(3))
        cfg = SearchConfig(lam=0.005, beta=0.5, max_length=3)
        with pytest.raises(InvalidValue, match="share metric, max_length and node_budget"):
            enumerate_cells(SearchProblem(ants, d), [cfg, replace(cfg, lam=0.01, **other)])


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
