import math

import numpy as np
import pytest

from fairlists import rationalize
from fairlists.audit import flip_influence, lookup_oracle
from fairlists.dataset import mine_antecedents
from fairlists.errors import EmptyCohort, KOutOfRange, LengthMismatch
from fairlists.metrics import MetricKind, unfairness_or_nan
from fairlists.rationalize import (
    BlackBoxPredictions,
    GlobalReport,
    default_k,
    knn_neighborhood,
    load_predictions,
    local_cohort,
    rationalize_global,
    rationalize_local,
    select_best_global,
)
from fairlists.rules import RuleList, predict
from fairlists.search import SearchConfig, SearchResult
from fairlists.synth import biased_dataset

from test_dataset import make_dataset

DP = MetricKind.DEMOGRAPHIC_PARITY


class TestBlackBoxPredictions:
    def test_alignment(self):
        d = make_dataset([[1, 0], [0, 1]], [0, 1])
        b = BlackBoxPredictions(preds=np.array([1, 0], dtype=np.uint8))
        assert b.aligned_with(d)
        with pytest.raises(LengthMismatch):
            BlackBoxPredictions(preds=np.array([1], dtype=np.uint8)).aligned_with(d)

    def test_load_predictions(self, tmp_path):
        p = tmp_path / "preds.csv"
        p.write_text("prediction\n1\n0\n1\n")
        b = load_predictions(p)
        assert b.preds.tolist() == [1, 0, 1]

    def test_load_predictions_without_header(self, tmp_path):
        p = tmp_path / "preds.csv"
        p.write_text("0\n1\n")
        assert load_predictions(p).preds.tolist() == [0, 1]

    def test_load_predictions_bad_cell(self, tmp_path):
        p = tmp_path / "preds.csv"
        p.write_text("1\n2\n")
        with pytest.raises(LengthMismatch):
            load_predictions(p)

    def test_load_predictions_only_first_line_is_a_header(self, tmp_path):
        p = tmp_path / "preds.csv"
        p.write_text("prediction\nfoo\n1\n")
        with pytest.raises(LengthMismatch, match="line 2"):
            load_predictions(p)

    def test_load_predictions_fractional_cell(self, tmp_path):
        p = tmp_path / "preds.csv"
        p.write_text("prediction\n1\n\n0.5\n")
        with pytest.raises(LengthMismatch, match="line 4: .*'0.5'"):
            load_predictions(p)


class TestKnnNeighborhood:
    def test_whole_set(self):
        d = make_dataset([[1, 0], [0, 1], [1, 1], [0, 0]], [0, 1, 0, 1])
        nb = knn_neighborhood(1, d, k=4)
        assert nb.members.tolist() == [0, 1, 2, 3]
        assert nb.center == 1

    def test_hand_distance_table(self):
        # distances to row 0 on the three non-sensitive columns: 0, 1, 2, 3
        feats = [
            [0, 0, 0, 0],
            [1, 0, 0, 1],
            [1, 1, 0, 0],
            [1, 1, 1, 1],
        ]
        d = make_dataset(feats, [0, 0, 0, 0])
        nb = knn_neighborhood(0, d, k=2)
        assert nb.members.tolist() == [0, 1]

    def test_center_always_included(self):
        rng = np.random.default_rng(14)
        d = make_dataset(rng.integers(0, 2, size=(30, 5)), rng.integers(0, 2, size=30))
        for x in (0, 7, 29):
            nb = knn_neighborhood(x, d, k=3)
            assert x in nb.members

    def test_ties_broken_by_row_position(self):
        feats = [[0, 0], [1, 0], [1, 0], [1, 0]]
        d = make_dataset(feats, [0, 0, 0, 0])
        nb = knn_neighborhood(0, d, k=2)
        # rows 1..3 tie at distance 1; the earliest wins
        assert nb.members.tolist() == [0, 1]

    def test_k_out_of_range(self):
        d = make_dataset([[1, 0], [0, 1]], [0, 1])
        with pytest.raises(KOutOfRange):
            knn_neighborhood(0, d, k=3)
        with pytest.raises(KOutOfRange):
            knn_neighborhood(0, d, k=0)

    def test_sensitive_column_excluded_from_distance(self):
        feats = [[0, 0], [0, 1], [1, 0]]
        d = make_dataset(feats, [0, 0, 0], sensitive_col=1)
        nb = knn_neighborhood(0, d, k=2)
        # row 1 differs only in the sensitive bit, so it is at distance 0
        assert nb.members.tolist() == [0, 1]

    def test_default_k_fraction(self):
        assert default_k(100) == 10
        assert default_k(101) == 11
        assert default_k(3) == 1


class TestSelectBestGlobal:
    def _record(self, i, unf, fid, obj=0.1):
        return SearchResult(
            best=RuleList(rules=((i, 1),), default=0),
            objective=obj,
            misc=1 - fid,
            unfairness=unf,
            nodes_evaluated=1,
            certified_optimal=True,
        )

    def test_empty_filter(self):
        report = GlobalReport(
            models=[self._record(0, 0.2, 0.9)], baseline_unfairness=0.13, selected=None
        )
        assert select_best_global(report, 0.13) is None

    def test_highest_fidelity_wins(self):
        report = GlobalReport(
            models=[self._record(0, 0.05, 0.9), self._record(1, 0.04, 0.85)],
            baseline_unfairness=0.13,
            selected=None,
        )
        assert select_best_global(report, 0.13) == 0

    def test_fidelity_tie_goes_to_lower_objective(self):
        report = GlobalReport(
            models=[self._record(0, 0.05, 0.9, obj=0.2), self._record(1, 0.05, 0.9, obj=0.1)],
            baseline_unfairness=0.2,
            selected=None,
        )
        assert select_best_global(report, 0.2) == 1


class TestRationalizeGlobal:
    def test_synthetic_report(self):
        d, b = biased_dataset(300)
        cfg = SearchConfig(lam=0.005, beta=0.2, metric=DP, max_length=3)
        report, ants = rationalize_global(d, b, cfg, max_models=20)
        assert report.baseline_unfairness > 0.15
        for m in report.models:
            preds = predict(m.best, ants, d)
            # fidelity on black-box labels is 1 - misc by construction
            assert m.fidelity == pytest.approx(1.0 - m.misc, abs=1e-12)
            assert m.fidelity == pytest.approx(np.mean(preds == b.preds), abs=1e-12)
            want_unf = unfairness_or_nan(preds, DP, d.sensitive)
            assert m.unfairness == pytest.approx(want_unf, abs=1e-12)
        if report.selected is not None:
            chosen = report.models[report.selected]
            assert chosen.unfairness <= report.baseline_unfairness / 2

    def test_constant_blackbox_cannot_be_rationalized(self):
        d, _ = biased_dataset(120)
        b = BlackBoxPredictions(preds=np.ones(120, dtype=np.uint8), source="const")
        cfg = SearchConfig(lam=0.01, beta=0.1, metric=DP, max_length=2)
        report, _ = rationalize_global(d, b, cfg, max_models=10)
        assert report.baseline_unfairness == 0.0
        assert not any(m.unfairness < report.baseline_unfairness for m in report.models)
        # only a selected model is audited
        assert (report.selected is None) == (report.selected_ranking is None)

    def test_test_set_evaluation(self):
        d, b = biased_dataset(300)
        test, bt = biased_dataset(150, seed=77)
        cfg = SearchConfig(lam=0.005, beta=0.2, metric=DP, max_length=3)
        report, _ = rationalize_global(
            d, b, cfg, max_models=20, test_set=test, test_preds=bt
        )
        if report.selected is not None:
            assert 0.0 <= report.test_fidelity <= 1.0
            assert not math.isnan(report.test_unfairness)

    def test_sensitive_rank_drop(self):
        d, b = biased_dataset(400)
        cfg = SearchConfig(lam=0.005, beta=0.2, metric=DP, max_length=3)
        report, _ = rationalize_global(d, b, cfg, max_models=20)
        assert report.selected_ranking is not None
        assert report.selected_ranking.model_tag == "model%d" % report.selected
        bb = flip_influence(lookup_oracle(d.features, b.preds), d, missing_ok=True)
        assert bb is not None
        s = d.sensitive_col
        # the surrogate cannot branch on s, so its sensitive rank is worse
        assert report.selected_ranking.scores[s] == 0.0
        assert report.selected_ranking.ranks[s] > bb.ranks[s]


class TestRationalizeLocal:
    def test_constant_neighborhood(self):
        rng = np.random.default_rng(3)
        feats = (rng.random((40, 5)) < 0.5).astype(np.uint8)
        d = make_dataset(feats, np.zeros(40, dtype=np.uint8))
        b = BlackBoxPredictions(preds=np.zeros(40, dtype=np.uint8))
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        result, _ = rationalize_local(0, d, b, cfg, k=10)
        assert result.best_model is not None
        assert result.best_unfairness == 0.0
        assert result.best_fidelity == 1.0

    def test_selection_matches_brute_force(self):
        d, b = biased_dataset(120)
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        x = 5
        k = 12
        result, models = rationalize_local(x, d, b, cfg, k=k, max_models=30)
        nb = knn_neighborhood(x, d, k)
        nb_data = d.subset(nb.members).with_labels(b.preds[nb.members])
        ants = mine_antecedents(nb_data, min_support=0.05)
        center = int(np.searchsorted(nb.members, x))
        agreeing = []
        for i, m in enumerate(models):
            preds = predict(m.best, ants, nb_data)
            if int(preds[center]) == int(b.preds[x]):
                unf = m.unfairness if not math.isnan(m.unfairness) else math.inf
                agreeing.append((unf, -m.fidelity, i, m.best))
        if not agreeing:
            assert result.best_model is None
        else:
            want = min(agreeing)
            assert result.best_model == want[3]
            assert result.best_unfairness == want[0]

    def test_selected_model_agrees_at_center(self):
        d, b = biased_dataset(200)
        cfg = SearchConfig(lam=0.005, beta=0.3, metric=DP, max_length=2)
        for x in (0, 11, 53):
            result, models = rationalize_local(x, d, b, cfg, k=20, max_models=20)
            if result.best_model is None:
                continue
            nb = knn_neighborhood(x, d, 20)
            nb_data = d.subset(nb.members).with_labels(b.preds[nb.members])
            ants = mine_antecedents(nb_data, min_support=0.05)
            preds = predict(result.best_model, ants, nb_data)
            center = int(np.searchsorted(nb.members, x))
            assert int(preds[center]) == int(b.preds[x])


class TestLocalCohort:
    def test_fair_blackbox_gives_empty_cohort(self):
        rng = np.random.default_rng(4)
        feats = (rng.random((60, 5)) < 0.5).astype(np.uint8)
        d = make_dataset(feats, np.zeros(60, dtype=np.uint8))
        b = BlackBoxPredictions(preds=np.zeros(60, dtype=np.uint8))
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        with pytest.raises(EmptyCohort):
            local_cohort(d, b, cfg, k=10)

    def test_coverage_and_subject_order(self):
        d, b = biased_dataset(200)
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        report = local_cohort(d, b, cfg, max_models=20)
        assert 0.0 <= report.coverage <= 1.0
        ids = [r.row_id for r in report.subjects]
        assert ids == sorted(ids)
        covered = sum(1 for r in report.subjects if r.best_model is not None)
        assert report.coverage == covered / len(report.subjects)
        # the cohort is the rejected minority with an unfair neighborhood
        minority = 1 if d.sensitive.sum() <= d.n_rows / 2 else 0
        for r in report.subjects:
            assert b.preds[r.row_id] == 0
            assert d.sensitive[r.row_id] == minority
            assert r.baseline_unfairness > 0.05

    def test_explicit_minority_value(self):
        d, b = biased_dataset(200)
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        report = local_cohort(d, b, cfg, max_models=10, minority_value=0)
        for r in report.subjects:
            assert d.sensitive[r.row_id] == 0

    def test_one_neighborhood_per_candidate(self, monkeypatch):
        d, b = biased_dataset(200)
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        centers = []

        def counted(x, T, k, **kwargs):
            centers.append(x)
            return knn_neighborhood(x, T, k, **kwargs)

        monkeypatch.setattr(rationalize, "knn_neighborhood", counted)
        report = local_cohort(d, b, cfg, max_models=10)
        minority = 1 if d.sensitive.sum() <= d.n_rows / 2 else 0
        candidates = [x for x in range(d.n_rows) if b.preds[x] == 0 and d.sensitive[x] == minority]
        assert centers == candidates
        # each subject's result is what rationalize_local finds on its own
        k = default_k(d.n_rows)
        covered = 0
        for r in report.subjects:
            alone, _ = rationalize_local(r.row_id, d, b, cfg, k=k, max_models=10)
            assert alone.row_id == r.row_id
            assert alone.best_model == r.best_model
            for field in ("best_unfairness", "best_fidelity", "baseline_unfairness"):
                a, c = getattr(alone, field), getattr(r, field)
                assert a == c or (math.isnan(a) and math.isnan(c))
            assert alone.certified_optimal and r.certified_optimal
            covered += alone.best_model is not None
        assert report.coverage == covered / len(report.subjects)


class TestIncludeSensitive:
    def test_global_mines_the_sensitive_column_only_when_asked(self):
        d, b = biased_dataset(120)
        cfg = SearchConfig(lam=0.005, beta=0.2, metric=DP, max_length=2)
        for flag in (False, True):
            _, ants = rationalize_global(d, b, cfg, max_models=3, include_sensitive=flag)
            assert any(a.feature == d.sensitive_col for a in ants.antecedents) == flag

    def test_local_cohort_mines_the_sensitive_column_only_when_asked(self, monkeypatch):
        mined = []

        def recorded(*args, **kwargs):
            ants = mine_antecedents(*args, **kwargs)
            mined.append(ants)
            return ants

        monkeypatch.setattr(rationalize, "mine_antecedents", recorded)
        d, b = biased_dataset(200)
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        for flag in (False, True):
            mined.clear()
            local_cohort(d, b, cfg, k=40, max_models=2, include_sensitive=flag)
            assert mined
            assert any(a.feature == d.sensitive_col for ants in mined for a in ants.antecedents) == flag
