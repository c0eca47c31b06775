import math
import re

import numpy as np
import pytest

from fairlists import cli, rationalize
from fairlists.audit import flip_influence, lookup_oracle
from fairlists.dataset import mine_antecedents
from fairlists.enumeration import enumerate_cells, enumerate_models
from fairlists.errors import EmptyCohort, InvalidValue, KOutOfRange, LengthMismatch
from fairlists.metrics import MetricKind, unfairness_of, unfairness_or_nan
from fairlists.rationalize import (
    default_k,
    knn_neighborhood,
    load_predictions,
    local_cohort,
    rationalize_global,
    rationalize_local,
    select_best_global,
)
from fairlists.rules import RuleList, predict
from fairlists.search import SearchConfig, SearchProblem, SearchResult
from fairlists.synth import biased_dataset

from oracles import naive_global, naive_knn_neighborhood, naive_local, random_instance
from test_cli import data_args, write_synth
from test_dataset import make_dataset

DP = MetricKind.DEMOGRAPHIC_PARITY


def subject(x, d, k, metric=DP):
    """Row x, its k-neighborhood and the black box's unfairness on it (the
    labels of `d` are its predictions), as local_cohort passes them to
    rationalize_local."""
    members = knn_neighborhood(x, d, k)
    preds = d.labels[members]
    return x, members, unfairness_or_nan(preds, metric, d.sensitive[members], labels=preds)


def same_subject_results(a, c):
    """Field-for-field equality of two SubjectResults, NaN equal to NaN."""
    for field in ("row_id", "best_model", "best_unfairness", "best_fidelity", "baseline_unfairness", "certified_optimal"):
        x, y = getattr(a, field), getattr(c, field)
        if not (x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))):
            return False
    return True


def suing_problem(d):
    """The search problem of `d`, labeled with the black box's predictions."""
    return SearchProblem(mine_antecedents(d), d)


class TestLoadPredictions:
    def test_alignment(self, tmp_path):
        # the loaded predictions label the rows they are aligned with
        p = tmp_path / "preds.csv"
        p.write_text("1\n0\n")
        d = make_dataset([[1, 0], [0, 1]], [0, 1])
        assert d.with_labels(load_predictions(p)).labels.tolist() == [1, 0]
        d = make_dataset([[1, 0], [0, 1], [1, 1]], [0, 1, 0])
        with pytest.raises(LengthMismatch, match="^2 predictions vs 3 rows$"):
            d.with_labels(load_predictions(p))

    def test_load_predictions(self, tmp_path):
        p = tmp_path / "preds.csv"
        p.write_text("prediction\n1\n0\n1\n")
        b = load_predictions(p)
        assert b.dtype == np.uint8
        assert b.tolist() == [1, 0, 1]

    def test_load_predictions_without_header(self, tmp_path):
        p = tmp_path / "preds.csv"
        p.write_text("0\n1\n")
        assert load_predictions(p).tolist() == [0, 1]

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

    @pytest.mark.parametrize("first", ["-1", "1.0", "0.5", "2", " 10 ", "1e0"])
    def test_load_predictions_numeric_first_line_is_not_a_header(self, tmp_path, first):
        # a header is not a number, so a numeric first line is a bad cell
        p = tmp_path / "numeric.csv"
        p.write_text("%s\n0\n1\n" % first)
        with pytest.raises(LengthMismatch, match="line 1: .*%r" % first.strip()):
            load_predictions(p)
        data, _ = write_synth(tmp_path, n=3)
        assert cli.main(["audit", *data_args(data), "--blackbox", str(p), "--output", str(tmp_path / "a")]) == 2

    def test_load_predictions_fractional_cell(self, tmp_path):
        p = tmp_path / "preds.csv"
        p.write_text("prediction\n1\n\n0.5\n")
        with pytest.raises(LengthMismatch, match="line 4: .*'0.5'"):
            load_predictions(p)


class TestKnnNeighborhood:
    def test_whole_set(self):
        d = make_dataset([[1, 0], [0, 1], [1, 1], [0, 0]], [0, 1, 0, 1])
        assert knn_neighborhood(1, d, k=4).tolist() == [0, 1, 2, 3]

    def test_hand_distance_table(self):
        # distances to row 0 on the three non-sensitive columns: 0, 1, 2, 3
        feats = [
            [0, 0, 0, 0],
            [1, 0, 0, 1],
            [1, 1, 0, 0],
            [1, 1, 1, 1],
        ]
        d = make_dataset(feats, [0, 0, 0, 0])
        assert knn_neighborhood(0, d, k=2).tolist() == [0, 1]

    def test_center_always_included(self):
        rng = np.random.default_rng(14)
        d = make_dataset(rng.integers(0, 2, size=(30, 5)), rng.integers(0, 2, size=30))
        for x in (0, 7, 29):
            assert x in knn_neighborhood(x, d, k=3)

    def test_ties_broken_by_row_position(self):
        feats = [[0, 0], [1, 0], [1, 0], [1, 0]]
        d = make_dataset(feats, [0, 0, 0, 0])
        # rows 1..3 tie at distance 1; the earliest wins
        assert knn_neighborhood(0, d, k=2).tolist() == [0, 1]

    def test_k_out_of_range(self):
        d = make_dataset([[1, 0], [0, 1]], [0, 1])
        with pytest.raises(KOutOfRange):
            knn_neighborhood(0, d, k=3)
        with pytest.raises(KOutOfRange):
            knn_neighborhood(0, d, k=0)

    def test_sensitive_column_excluded_from_distance(self):
        feats = [[0, 0], [0, 1], [1, 0]]
        d = make_dataset(feats, [0, 0, 0], sensitive_col=1)
        # row 1 differs only in the sensitive bit, so it is at distance 0
        assert knn_neighborhood(0, d, k=2).tolist() == [0, 1]

    def test_default_k_fraction(self):
        assert default_k(100) == 10
        assert default_k(101) == 11
        assert default_k(3) == 1


    def test_matches_the_lexsort_reference(self):
        rng = np.random.default_rng(20240501)
        for _ in range(200):
            d, _ = random_instance(rng, max_rows=40, max_feature_cols=5)
            # few columns make long runs of tied distances
            d = make_dataset(d.features[:, : int(rng.integers(1, 4))], d.labels, sensitive_col=0)
            for x in range(d.n_rows):
                k = int(rng.integers(1, d.n_rows + 1))
                assert knn_neighborhood(x, d, k).tolist() == naive_knn_neighborhood(x, d, k).tolist()


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
        assert select_best_global([self._record(0, 0.2, 0.9)], 0.13) is None

    def test_highest_fidelity_wins(self):
        assert select_best_global([self._record(0, 0.05, 0.9), self._record(1, 0.04, 0.85)], 0.13) == 0

    def test_fidelity_tie_goes_to_lower_objective(self):
        models = [self._record(0, 0.05, 0.9, obj=0.2), self._record(1, 0.05, 0.9, obj=0.1)]
        assert select_best_global(models, 0.2) == 1

    def test_nan_unfairness_is_never_selected(self):
        # the most faithful model's unfairness is undefined
        models = [self._record(0, math.nan, 0.99), self._record(1, 0.01, 0.8)]
        assert select_best_global(models, 0.2) == 1
        assert select_best_global(models[:1], 0.2) is None

    def test_unfairness_of_exactly_half_the_baseline_is_kept(self):
        models = [self._record(0, 0.25, 0.9), self._record(1, 0.0, 0.8)]
        assert select_best_global(models, 0.5) == 0
        assert select_best_global(models, math.nextafter(0.5, 0.0)) == 1

    def test_a_fidelity_and_objective_tie_goes_to_the_lower_id(self):
        models = [self._record(0, 0.3, 0.95), self._record(1, 0.05, 0.9), self._record(2, 0.01, 0.9)]
        assert select_best_global(models, 0.2) == 1
        assert select_best_global(models[::-1], 0.2) == 0


class TestRationalizeGlobal:
    def test_synthetic_report(self):
        d = biased_dataset(300)
        cfg = SearchConfig(lam=0.005, beta=0.2, metric=DP, max_length=3)
        problem = suing_problem(d)
        models = enumerate_models(problem, cfg, 20)
        baseline = unfairness_or_nan(d.labels, DP, d.sensitive)
        assert baseline > 0.15
        report = rationalize_global(problem, cfg, models, baseline)
        for m in models:
            preds = predict(m.best, problem.ants, d)
            # fidelity on black-box labels is 1 - misc by construction
            assert m.fidelity == pytest.approx(1.0 - m.misc, abs=1e-12)
            assert m.fidelity == pytest.approx(np.mean(preds == d.labels), abs=1e-12)
            want_unf = unfairness_or_nan(preds, DP, d.sensitive)
            assert m.unfairness == pytest.approx(want_unf, abs=1e-12)
        if report.selected is not None:
            chosen = models[report.selected]
            assert chosen.unfairness <= baseline / 2

    def test_constant_blackbox_cannot_be_rationalized(self):
        d = biased_dataset(120).with_labels(np.ones(120, dtype=np.uint8))
        cfg = SearchConfig(lam=0.01, beta=0.1, metric=DP, max_length=2)
        problem = suing_problem(d)
        baseline = unfairness_or_nan(d.labels, DP, d.sensitive)
        assert baseline == 0.0
        models = enumerate_models(problem, cfg, 10)
        report = rationalize_global(problem, cfg, models, baseline)
        assert not any(m.unfairness < baseline for m in models)
        # only a selected model is audited
        assert (report.selected is None) == (report.selected_ranking is None)

    def test_test_set_evaluation(self):
        d = biased_dataset(300)
        test = biased_dataset(150, seed=77)
        cfg = SearchConfig(lam=0.005, beta=0.2, metric=DP, max_length=3)
        problem = suing_problem(d)
        baseline = unfairness_or_nan(d.labels, DP, d.sensitive)
        report = rationalize_global(problem, cfg, enumerate_models(problem, cfg, 20), baseline, test_set=test)
        if report.selected is not None:
            assert 0.0 <= report.test_fidelity <= 1.0
            assert not math.isnan(report.test_unfairness)

    def test_sensitive_rank_drop(self):
        d = biased_dataset(400)
        cfg = SearchConfig(lam=0.005, beta=0.2, metric=DP, max_length=3)
        problem = suing_problem(d)
        baseline = unfairness_or_nan(d.labels, DP, d.sensitive)
        report = rationalize_global(problem, cfg, enumerate_models(problem, cfg, 20), baseline)
        assert report.selected_ranking is not None
        bb = flip_influence(lookup_oracle(d), d)
        assert bb is not None
        s = d.sensitive_col
        # the surrogate cannot branch on s, so its sensitive rank is worse
        assert report.selected_ranking.scores[s] == 0.0
        assert report.selected_ranking.ranks[s] > bb.ranks[s]


def same_floats(x, y):
    """Equality of two floats or Nones, NaN equal to NaN."""
    return x == y or (x is not None and y is not None and math.isnan(x) and math.isnan(y))


def same_global_reports(a, c):
    """Field-for-field equality of two GlobalReports: rankings by value,
    floats NaN equal to NaN."""
    if a.selected != c.selected:
        return False
    if not all(same_floats(getattr(a, f), getattr(c, f)) for f in ("test_fidelity", "test_unfairness")):
        return False
    x, y = a.selected_ranking, c.selected_ranking
    if x is None or y is None:
        return x is y
    return x.feature_names == y.feature_names and np.array_equal(x.scores, y.scores) and np.array_equal(x.ranks, y.ranks)


class TestGlobalAudits:
    # a lambda x beta grid, as the global command sweeps it
    LAMS = (0.005, 0.02)
    BETAS = (0.0, 0.3, 0.9)

    @staticmethod
    def suing_rows(seed):
        """Seeded suing rows labeled by the synthetic black box, by a
        two-rule list, or by the black box with 5% of its labels flipped."""
        d = biased_dataset(240, seed=seed)
        if seed % 3 == 1:
            return d.with_labels(d.features[:, 0] & d.features[:, 1])
        if seed % 3 == 2:
            flips = np.random.default_rng(seed).random(d.n_rows) < 0.05
            return d.with_labels(d.labels ^ flips.astype(np.uint8))
        return d

    @pytest.mark.parametrize("metric", list(MetricKind), ids=lambda kind: kind.value)
    def test_shared_audits_change_no_report(self, metric):
        cfgs = [SearchConfig(lam=lam, beta=beta, metric=metric, max_length=2) for lam in self.LAMS for beta in self.BETAS]
        seen = {"none": 0, "shared": 0, "nan": 0}
        for seed in range(6):
            d = self.suing_rows(seed)
            problem = suing_problem(d)
            baseline = unfairness_of(d.labels, metric, d.sensitive, labels=d.labels)
            models_by_cell = enumerate_cells(problem, cfgs, 5)
            test = biased_dataset(100, seed=seed + 100)
            # a test set of one sensitive group has undefined unfairness
            one_group = test.subset(np.flatnonzero(test.sensitive == 0))
            for test_set in (None, test, one_group):
                audits = {}
                shared = [rationalize_global(problem, cfg, models, baseline, test_set, audits)
                          for cfg, models in zip(cfgs, models_by_cell)]
                for cfg, models, report in zip(cfgs, models_by_cell, shared):
                    assert same_global_reports(report, rationalize_global(problem, cfg, models, baseline, test_set))
                chosen = [models[r.selected].best for models, r in zip(models_by_cell, shared) if r.selected is not None]
                seen["none"] += len(shared) - len(chosen)
                seen["shared"] += len(chosen) - len(set(chosen))
                seen["nan"] += test_set is one_group and any(math.isnan(r.test_unfairness) for r in shared if r.selected is not None)
        # the grids hold cells that select nothing, cells that select a list
        # an earlier cell selected, and NaN test unfairness
        assert all(seen.values()), seen


class TestRationalizeLocal:
    def test_constant_neighborhood(self):
        rng = np.random.default_rng(3)
        feats = (rng.random((40, 5)) < 0.5).astype(np.uint8)
        d = make_dataset(feats, np.zeros(40, dtype=np.uint8))
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        (result,) = rationalize_local(d, *subject(0, d, 10), [cfg])
        assert result.best_model is not None
        assert result.best_unfairness == 0.0
        assert result.best_fidelity == 1.0

    def test_no_antecedents_fall_back_to_the_default_only_list(self):
        # every non-sensitive column is constant, so mining finds nothing
        feats = np.zeros((10, 3), dtype=np.uint8)
        feats[::2, 2] = 1
        preds = np.array([0, 0, 0, 1, 0, 0, 0, 0, 1, 0], dtype=np.uint8)
        d = make_dataset(feats, preds)
        cfgs = [SearchConfig(lam=0.005, beta=beta, metric=DP, max_length=2) for beta in (0.1, 0.9)]
        for r in rationalize_local(d, *subject(0, d, 10), cfgs):
            assert r.best_model == RuleList(rules=(), default=0)
            assert (r.best_unfairness, r.best_fidelity, r.certified_optimal) == (0.0, 0.8, True)
        # the majority default disagrees with the black box at row 3
        for r in rationalize_local(d, *subject(3, d, 10), cfgs):
            assert r.best_model is None
            assert math.isnan(r.best_unfairness) and math.isnan(r.best_fidelity)

    def test_selection_matches_brute_force(self):
        d = biased_dataset(120)
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        k = 12
        # subjects 0, 21 and 119 select a list with a rule, which a wrong
        # prediction at the center would replace
        for x in (5, 0, 21, 119):
            _, members, baseline = subject(x, d, k)
            (result,) = rationalize_local(d, x, members, baseline, [cfg], max_models=30)
            nb_data = d.subset(members)
            ants = mine_antecedents(nb_data, min_support=0.05)
            models = enumerate_models(SearchProblem(ants, nb_data), cfg, max_models=30)
            center = int(np.searchsorted(members, x))
            agreeing = []
            for i, m in enumerate(models):
                preds = predict(m.best, ants, nb_data)
                if int(preds[center]) == int(d.labels[x]):
                    unf = m.unfairness if not math.isnan(m.unfairness) else math.inf
                    agreeing.append((unf, -m.fidelity, i, m.best))
            if not agreeing:
                assert result.best_model is None
            else:
                want = min(agreeing)
                assert result.best_model == want[3]
                assert result.best_unfairness == want[0]

    def test_selected_model_agrees_at_center(self):
        d = biased_dataset(200)
        cfg = SearchConfig(lam=0.005, beta=0.3, metric=DP, max_length=2)
        for x in (0, 11, 53):
            _, members, baseline = subject(x, d, 20)
            (result,) = rationalize_local(d, x, members, baseline, [cfg], max_models=20)
            if result.best_model is None:
                continue
            nb_data = d.subset(members)
            ants = mine_antecedents(nb_data, min_support=0.05)
            preds = predict(result.best_model, ants, nb_data)
            center = int(np.searchsorted(members, x))
            assert int(preds[center]) == int(d.labels[x])


class TestLocalCohort:
    def test_fair_blackbox_gives_empty_cohort(self):
        rng = np.random.default_rng(4)
        feats = (rng.random((60, 5)) < 0.5).astype(np.uint8)
        d = make_dataset(feats, np.zeros(60, dtype=np.uint8))
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        with pytest.raises(EmptyCohort):
            local_cohort(d, [cfg], k=10)

    def test_coverage_and_subject_order(self):
        d = biased_dataset(200)
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        (report,) = local_cohort(d, [cfg], max_models=20)
        assert 0.0 <= report.coverage <= 1.0
        ids = [r.row_id for r in report.subjects]
        assert ids == sorted(ids)
        covered = sum(1 for r in report.subjects if r.best_model is not None)
        assert report.coverage == covered / len(report.subjects)
        # the cohort is the rejected minority with an unfair neighborhood
        minority = 1 if d.sensitive.sum() <= d.n_rows / 2 else 0
        for r in report.subjects:
            assert d.labels[r.row_id] == 0
            assert d.sensitive[r.row_id] == minority
            assert r.baseline_unfairness > 0.05

    def test_explicit_minority_value(self):
        d = biased_dataset(200)
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        (report,) = local_cohort(d, [cfg], max_models=10, minority_value=0)
        for r in report.subjects:
            assert d.sensitive[r.row_id] == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_cpa_cohort_leaves_out_undefined_rates(self, seed):
        # under cpa with beta > 0 the search rejects a neighborhood where a
        # group lacks a label; such a neighborhood is not a subject
        d = biased_dataset(300, seed=seed)
        cfg = SearchConfig(beta=0.5, metric=MetricKind.CONDITIONAL_PROCEDURE_ACCURACY, max_length=2)
        (report,) = local_cohort(d, [cfg], max_models=2, threshold=-0.01)
        k = default_k(d.n_rows)
        minority = 1 if d.sensitive.sum() <= d.n_rows / 2 else 0
        want = []
        for x in range(d.n_rows):
            if d.labels[x] == 0 and d.sensitive[x] == minority:
                members = knn_neighborhood(x, d, k)
                cells = set(zip(d.sensitive[members].tolist(), d.labels[members].tolist()))
                if len(cells) == 4:
                    want.append(x)
        assert want
        assert [r.row_id for r in report.subjects] == want
        assert all(r.certified_optimal for r in report.subjects)

    def test_one_neighborhood_per_candidate(self, monkeypatch):
        d = biased_dataset(200)
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        centers = []

        def counted(x, T, k, **kwargs):
            centers.append(x)
            return knn_neighborhood(x, T, k, **kwargs)

        monkeypatch.setattr(rationalize, "knn_neighborhood", counted)
        (report,) = local_cohort(d, [cfg], max_models=10)
        minority = 1 if d.sensitive.sum() <= d.n_rows / 2 else 0
        candidates = [x for x in range(d.n_rows) if d.labels[x] == 0 and d.sensitive[x] == minority]
        assert centers == candidates
        # each subject's result is what rationalize_local finds on its own
        k = default_k(d.n_rows)
        covered = 0
        for r in report.subjects:
            (alone,) = rationalize_local(d, *subject(r.row_id, d, k), [cfg], max_models=10)
            assert same_subject_results(alone, r)
            assert alone.certified_optimal and r.certified_optimal
            covered += alone.best_model is not None
        assert report.coverage == covered / len(report.subjects)


class TestSharedAcrossConfigs:
    # a beta sweep over one cohort, as the local command runs it
    CFGS = [SearchConfig(lam=0.005, beta=beta, metric=DP, max_length=2) for beta in (0.1, 0.5, 0.9)]

    def test_config_free_work_runs_once(self, monkeypatch):
        d = biased_dataset(200)
        calls = {"knn_neighborhood": [], "mine_antecedents": [], "rationalize_local": []}
        for name, seen in calls.items():
            def recorded(*args, _f=getattr(rationalize, name), _seen=seen, **kwargs):
                _seen.append(args)
                return _f(*args, **kwargs)

            monkeypatch.setattr(rationalize, name, recorded)
        reports = local_cohort(d, self.CFGS, max_models=10)
        minority = 1 if d.sensitive.sum() <= d.n_rows / 2 else 0
        candidates = [x for x in range(d.n_rows) if d.labels[x] == 0 and d.sensitive[x] == minority]
        assert [args[0] for args in calls["knn_neighborhood"]] == candidates
        assert len(reports) == len(self.CFGS)
        n_subjects = len(reports[0].subjects)
        assert 0 < n_subjects < len(candidates)
        assert len(calls["mine_antecedents"]) == n_subjects
        assert len(calls["rationalize_local"]) == n_subjects

    def test_each_report_equals_a_one_config_run(self):
        d = biased_dataset(200)
        reports = local_cohort(d, self.CFGS, max_models=10)
        for cfg, report in zip(self.CFGS, reports):
            (alone,) = local_cohort(d, [cfg], max_models=10)
            assert report.coverage == alone.coverage
            assert len(report.subjects) == len(alone.subjects)
            assert all(same_subject_results(r, a) for r, a in zip(report.subjects, alone.subjects))

    def test_configs_must_share_one_metric(self):
        d = biased_dataset(200)
        oae = SearchConfig(lam=0.005, beta=0.5, metric=MetricKind.OVERALL_ACCURACY_EQUALITY, max_length=2)
        with pytest.raises(InvalidValue, match="one metric"):
            local_cohort(d, [*self.CFGS, oae])
        with pytest.raises(InvalidValue):
            local_cohort(d, [])


class TestIncludeSensitive:
    def test_global_mines_the_sensitive_column_only_when_asked(self, tmp_path, monkeypatch):
        # the global driver mines the labeled suing group once per run
        mined = []

        def recorded(d, *args, **kwargs):
            ants = mine_antecedents(d, *args, **kwargs)
            mined.append((d, ants))
            return ants

        monkeypatch.setattr(cli, "mine_antecedents", recorded)
        data, preds = write_synth(tmp_path)
        args = ["global", *data_args(data), "--blackbox", preds, "--lambda", "0.005", "--beta", "0.2",
                "--max-length", "2", "--max-models", "3"]
        for flag in (False, True):
            mined.clear()
            extra = ["--include-sensitive"] if flag else []
            assert cli.main([*args, *extra, "--output", str(tmp_path / str(flag))]) == 0
            ((d, ants),) = mined
            assert any(a.feature == d.sensitive_col for a in ants) == flag

    def test_local_cohort_mines_the_sensitive_column_only_when_asked(self, monkeypatch):
        mined = []

        def recorded(*args, **kwargs):
            ants = mine_antecedents(*args, **kwargs)
            mined.append(ants)
            return ants

        monkeypatch.setattr(rationalize, "mine_antecedents", recorded)
        d = biased_dataset(200)
        cfg = SearchConfig(lam=0.005, beta=0.5, metric=DP, max_length=2)
        for flag in (False, True):
            mined.clear()
            local_cohort(d, [cfg], k=40, max_models=2, include_sensitive=flag)
            assert mined
            assert any(a.feature == d.sensitive_col for ants in mined for a in ants) == flag


class TestLocalOracle:
    # local_cohort against the naive driver on small seeded instances, every
    # search exhaustive: two configs of one metric, beta 0 and 0.5, in
    # either order, and random k, cohort, threshold and mining settings
    FIELDS = ("row_id", "best_model", "best_unfairness", "best_fidelity", "baseline_unfairness", "certified_optimal")
    METRICS = (DP, MetricKind.OVERALL_ACCURACY_EQUALITY, MetricKind.CONDITIONAL_PROCEDURE_ACCURACY)

    def test_local_cohort_matches_the_naive_driver(self):
        rng = np.random.default_rng(20240501)
        seen = {"empty": 0, "subjects": 0, "uncovered": 0}
        for trial in range(120):
            d, _ = random_instance(rng, max_rows=40, max_feature_cols=5)
            metric = self.METRICS[trial % 3]
            lam = float(rng.choice([0.0, 0.005, 0.02]))
            cfgs = [SearchConfig(lam=lam, beta=beta, metric=metric, max_length=2) for beta in (0.0, 0.5)]
            cfgs = cfgs[:: 1 if rng.random() < 0.5 else -1]
            params = {
                "k": int(rng.integers(1, d.n_rows + 1)),
                "max_models": 3,
                "minority_value": (None, 0, 1)[int(rng.integers(3))],
                "negative_class": int(rng.integers(2)),
                "threshold": float(rng.choice([-0.01, 0.05, 0.2])),
                "min_support": float(rng.choice([0.0, 0.05, 0.2])),
                "include_negations": bool(rng.random() < 0.5),
                "include_sensitive": bool(rng.random() < 0.25),
            }
            try:
                want = naive_local(d, cfgs, **params)
            except EmptyCohort as exc:
                with pytest.raises(EmptyCohort, match="^%s$" % re.escape(str(exc))):
                    local_cohort(d, cfgs, **params)
                seen["empty"] += 1
                continue
            got = local_cohort(d, cfgs, **params)
            assert len(got) == len(want)
            for report, (subjects, coverage) in zip(got, want):
                assert report.coverage == coverage, (trial, params)
                assert len(report.subjects) == len(subjects), (trial, params)
                for r, w in zip(report.subjects, subjects):
                    for field in self.FIELDS:
                        x, y = getattr(r, field), w[field]
                        assert x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y)), (trial, field, x, y)
                seen["subjects"] += len(subjects)
                seen["uncovered"] += sum(w["best_model"] is None for w in subjects)
        # the draws reach empty cohorts, subjects and subjects left uncovered
        assert min(seen.values()) > 0, seen

    def test_a_k_out_of_range_is_rejected_before_the_cohort(self):
        # every row is approved, so no row would be a subject
        rng = np.random.default_rng(5)
        d, _ = random_instance(rng, max_rows=20, max_feature_cols=4)
        d = d.with_labels(np.ones(d.n_rows, dtype=np.uint8))
        cfgs = [SearchConfig(metric=DP, max_length=2)]
        params = {"max_models": 3, "minority_value": None, "negative_class": 0, "threshold": 0.05,
                  "min_support": 0.05, "include_negations": True, "include_sensitive": False}
        for k in (0, d.n_rows + 1):
            message = "^k=%d outside \\[1, %d\\]$" % (k, d.n_rows)
            with pytest.raises(KOutOfRange, match=message):
                naive_local(d, cfgs, k, **params)
            with pytest.raises(KOutOfRange, match=message):
                local_cohort(d, cfgs, k=k, **params)
        with pytest.raises(EmptyCohort):
            local_cohort(d, cfgs, k=d.n_rows, **params)


class TestGlobalOracle:
    """`enumerate_cells` and `rationalize_global` against the naive driver
    on small seeded instances: dp, oae and cpa, a lambda x beta grid with
    beta 0 and 0.5, with and without a test set, the cells sharing their
    audits as the global command's do.  Every search is exhaustive: configs
    cut by a node budget stay out, as in TestLocalOracle, since which list
    a cut search returns depends on its search order."""

    METRICS = (DP, MetricKind.OVERALL_ACCURACY_EQUALITY, MetricKind.CONDITIONAL_PROCEDURE_ACCURACY)
    FIELDS = ("best", "objective", "misc", "unfairness", "fidelity", "certified_optimal")

    def test_the_grid_matches_the_naive_driver(self):
        rng = np.random.default_rng(20241021)
        seen = {"none": 0, "shared": 0, "tested": 0, "nan": 0}
        for trial in range(40):
            d, _ = random_instance(rng, max_rows=40, max_feature_cols=5)
            lams = sorted({float(rng.choice([0.0, 0.005, 0.02])) for _ in range(2)})
            metric = self.METRICS[trial % 3]
            cfgs = [SearchConfig(lam=lam, beta=beta, metric=metric, max_length=2) for lam in lams for beta in (0.0, 0.5)]
            max_models = int(rng.integers(1, 6))
            test_set = None
            if trial % 2:
                n = int(rng.integers(1, 9))
                feats = (rng.random((n, d.n_cols)) < 0.5).astype(np.uint8)
                test_set = make_dataset(feats, rng.random(n) < 0.5, sensitive_col=d.sensitive_col, names=d.feature_names)
            want = naive_global(d, test_set, cfgs, max_models)
            problem = suing_problem(d)
            baseline = unfairness_of(d.labels, metric, d.sensitive, labels=d.labels)
            audits = {}
            chosen = []
            for cfg, models, w in zip(cfgs, enumerate_cells(problem, cfgs, max_models), want):
                report = rationalize_global(problem, cfg, models, baseline, test_set, audits)
                assert len(models) == len(w["models"]), (trial, cfg)
                for m, n in zip(models, w["models"]):
                    for field in self.FIELDS:
                        assert getattr(m, field) == getattr(n, field), (trial, cfg, field)
                assert baseline == w["baseline"]
                assert report.selected == w["selected"], (trial, cfg)
                assert same_floats(report.test_fidelity, w["test_fidelity"]), (trial, cfg)
                assert same_floats(report.test_unfairness, w["test_unfairness"]), (trial, cfg)
                ranking = report.selected_ranking
                if w["ranking"] is None:
                    assert ranking is None
                else:
                    assert (ranking.scores.tolist(), ranking.ranks.tolist()) == w["ranking"], (trial, cfg)
                if report.selected is None:
                    seen["none"] += 1
                    continue
                chosen.append(models[report.selected].best)
                seen["tested"] += test_set is not None
                seen["nan"] += test_set is not None and math.isnan(report.test_unfairness)
            seen["shared"] += len(chosen) - len(set(chosen))
        # the draws reach cells that select nothing, selections shared by
        # cells, test sets and NaN test unfairness
        assert min(seen.values()) > 0, seen
