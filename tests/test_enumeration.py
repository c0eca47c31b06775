import numpy as np
import pytest

from fairlists.dataset import mine_antecedents
from fairlists.enumeration import enumerate_models
from fairlists.rules import canonical_form
from fairlists.search import SearchConfig, corels_optimize

from oracles import random_instance, same_kbest, subset_optima_kbest
from test_dataset import make_dataset


class TestEnumerateModels:
    def test_first_model_is_the_optimum(self):
        rng = np.random.default_rng(10)
        d, ants = random_instance(rng)
        cfg = SearchConfig(lam=0.005, beta=0.0, max_length=3)
        models = enumerate_models(ants, d, cfg, max_models=1)
        assert len(models) == 1
        opt = corels_optimize(ants, d, cfg)
        assert canonical_form(models[0].best) == canonical_form(opt.best)
        assert models[0].objective == opt.objective

    def test_max_models_validation(self):
        rng = np.random.default_rng(10)
        d, ants = random_instance(rng)
        with pytest.raises(ValueError):
            enumerate_models(ants, d, SearchConfig(), max_models=0)

    def test_objectives_non_decreasing_and_distinct(self):
        rng = np.random.default_rng(44)
        for trial in range(10):
            d, ants = random_instance(rng, max_rows=32, max_feature_cols=6)
            beta = (0.0, 0.5, 0.9)[trial % 3]
            cfg = SearchConfig(lam=0.005, beta=beta, max_length=2)
            models = enumerate_models(ants, d, cfg, max_models=20)
            objs = [m.objective for m in models]
            assert objs == sorted(objs)
            forms = [canonical_form(m.best) for m in models]
            assert len(forms) == len(set(forms))

    def test_five_antecedent_instance_matches_exhaustive_kbest(self):
        rng = np.random.default_rng(28)
        d, ants = random_instance(rng, max_rows=32, max_feature_cols=5)
        cfg = SearchConfig(lam=0.01, beta=0.0, max_length=2)
        models = enumerate_models(ants, d, cfg, max_models=5)
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
            models = enumerate_models(ants, d, cfg, max_models=10**9)
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
        models = enumerate_models(ants, d, SearchConfig(lam=0.005, max_length=2), max_models=50)
        assert 1 <= len(models) < 50

    def test_time_limit_truncates(self):
        rng = np.random.default_rng(50)
        d, ants = random_instance(rng)
        cfg = SearchConfig(lam=0.001, beta=0.5, max_length=3)
        models = enumerate_models(ants, d, cfg, max_models=200, time_limit=0.0)
        assert len(models) >= 1

    def test_default_protocol_size(self):
        from fairlists.enumeration import DEFAULT_MAX_MODELS

        assert DEFAULT_MAX_MODELS == 50


class TestModelMetrics:
    def test_fidelity_complements_misc(self):
        rng = np.random.default_rng(33)
        d, ants = random_instance(rng)
        cfg = SearchConfig(lam=0.005, beta=0.5, max_length=2)
        for m in enumerate_models(ants, d, cfg, max_models=10):
            assert m.fidelity == pytest.approx(1.0 - m.misc, abs=1e-15)
            assert m.certified_optimal

    def test_metrics_of(self):
        rng = np.random.default_rng(34)
        d, ants = random_instance(rng)
        res = corels_optimize(ants, d, SearchConfig(lam=0.01, max_length=2))
        # the same expression models.txt has always written
        assert res.fidelity == 1.0 - res.misc
        assert res.K == res.best.K
