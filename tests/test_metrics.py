import math

import numpy as np
import pytest

from fairlists.errors import EmptyGroup, LabelsRequired, LengthMismatch, UndefinedRate
from fairlists.metrics import MetricKind, confusion_formula, unfairness_of, unfairness_or_nan

from oracles import naive_unfairness

ALL_KINDS = list(MetricKind)
DP = MetricKind.DEMOGRAPHIC_PARITY
OAE = MetricKind.OVERALL_ACCURACY_EQUALITY
CPA = MetricKind.CONDITIONAL_PROCEDURE_ACCURACY


class TestMetricKind:
    def test_from_flag(self):
        assert MetricKind("dp") is MetricKind.DEMOGRAPHIC_PARITY
        assert MetricKind("sp") is MetricKind.STATISTICAL_PARITY
        assert MetricKind("oae") is MetricKind.OVERALL_ACCURACY_EQUALITY
        assert MetricKind("cpa") is MetricKind.CONDITIONAL_PROCEDURE_ACCURACY

    def test_unknown_flag(self):
        with pytest.raises(ValueError):
            MetricKind("eo")

    def test_needs_labels(self):
        assert not MetricKind.DEMOGRAPHIC_PARITY.needs_labels
        assert not MetricKind.STATISTICAL_PARITY.needs_labels
        assert MetricKind.OVERALL_ACCURACY_EQUALITY.needs_labels
        assert MetricKind.CONDITIONAL_PROCEDURE_ACCURACY.needs_labels


class TestGroupCounts:
    """The per-group counting inside unfairness_of."""

    def test_separable(self):
        # group sizes (2, 2), positives (0, 2); parity needs no labels
        assert unfairness_of([1, 1, 0, 0], DP, [1, 1, 0, 0]) == 1.0
        assert unfairness_of([1, 0, 0, 0], DP, [1, 1, 0, 0]) == 0.5

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            unfairness_of([1, 0], DP, [1, 1])
        with pytest.raises(EmptyGroup):
            unfairness_of([1, 0], OAE, [0, 0], labels=[1, 0])
        with pytest.raises(EmptyGroup):
            unfairness_of([], DP, [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            unfairness_of([1, 0, 1], DP, [1, 0])
        with pytest.raises(LengthMismatch):
            unfairness_of([1, 0], OAE, [1, 0], labels=[1])
        # a reporting caller is not spared a length mismatch
        with pytest.raises(LengthMismatch):
            unfairness_or_nan([1, 0, 1], DP, [1, 0])

    def test_confusion_counts_vs_loop(self):
        rng = np.random.default_rng(2)
        preds = rng.integers(0, 2, size=20)
        labels = rng.integers(0, 2, size=20)
        s = np.array([0, 1] * 10)
        n, conf = [], []
        for g in (0, 1):
            rows = [i for i in range(20) if s[i] == g]
            tp = sum(1 for i in rows if preds[i] == 1 and labels[i] == 1)
            fp = sum(1 for i in rows if preds[i] == 1 and labels[i] == 0)
            tn = sum(1 for i in rows if preds[i] == 0 and labels[i] == 0)
            fn = sum(1 for i in rows if preds[i] == 0 and labels[i] == 1)
            assert tp + fp + tn + fn == len(rows)
            n.append(len(rows))
            conf += [tp, fp, tn, fn]
        for kind in ALL_KINDS:
            want = confusion_formula(kind)(n[0], n[1], tuple(conf), False)
            assert unfairness_of(preds, kind, s, labels=labels, strict=False) == want


class TestUnfairness:
    def test_constant_predictor_dp_zero(self):
        assert unfairness_of([1, 1, 1, 1], DP, [0, 0, 1, 1]) == 0.0

    def test_dp_half(self):
        assert unfairness_of([1, 0, 1, 1], DP, [1, 1, 0, 0]) == 0.5

    def test_sp_same_formula_as_dp(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            preds = rng.integers(0, 2, size=12)
            s = np.array([0, 1] * 6)
            assert unfairness_of(preds, MetricKind.STATISTICAL_PARITY, s) == unfairness_of(preds, DP, s)

    def test_oae(self):
        preds = [1, 0, 1, 0]
        labels = [1, 1, 1, 1]
        s = [0, 0, 1, 1]
        # both groups 50% accurate
        assert unfairness_of(preds, OAE, s, labels=labels) == 0.0

    def test_cpa_max_of_gaps(self):
        preds = [1, 0, 1, 1, 0, 0]
        labels = [1, 0, 1, 1, 1, 0]
        s = [0, 0, 0, 1, 1, 1]
        # group0: TPR 1/1, TNR 1/1; group1: TPR 1/2, TNR 1/1
        assert unfairness_of(preds, CPA, s, labels=labels) == 0.5

    def test_labels_required(self):
        with pytest.raises(LabelsRequired):
            unfairness_of([1, 0], OAE, [0, 1])
        with pytest.raises(LabelsRequired):
            unfairness_of([1, 0], CPA, [0, 1])
        # reporting scores a label-less oae as undefined
        assert math.isnan(unfairness_or_nan([1, 0], OAE, [0, 1]))

    def test_undefined_rate_strict_vs_lenient(self):
        # group 0 has no positive labels, so its TPR is undefined
        preds = [1, 0, 1, 0]
        labels = [0, 0, 1, 0]
        s = [0, 0, 1, 1]
        with pytest.raises(UndefinedRate):
            unfairness_of(preds, CPA, s, labels=labels, strict=True)
        # lenient mode scores only the defined TNR gap: |1/1 - 1/2| = 0.5
        assert unfairness_of(preds, CPA, s, labels=labels, strict=False) == 0.5
        assert unfairness_or_nan(preds, CPA, s, labels=labels) == 0.5


class TestProperties:
    def _random_case(self, rng, n=24):
        preds = rng.integers(0, 2, size=n)
        labels = rng.integers(0, 2, size=n)
        s = np.zeros(n, dtype=np.uint8)
        s[n // 2 :] = 1
        # populate every (group, label) cell so strict rates are defined
        labels[0] = 0
        labels[1] = 1
        labels[n // 2] = 0
        labels[n // 2 + 1] = 1
        return preds, labels, s

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_naive_and_bounded(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(100):
            preds, labels, s = self._random_case(rng)
            got = unfairness_of(preds, kind, s, labels=labels if kind.needs_labels else None)
            want = naive_unfairness(kind, preds, labels, s)
            assert abs(got - want) <= 1e-12
            assert 0.0 <= got <= 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_group_swap_symmetry(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(50):
            preds, labels, s = self._random_case(rng)
            lab = labels if kind.needs_labels else None
            assert unfairness_of(preds, kind, s, labels=lab) == unfairness_of(
                preds, kind, 1 - s, labels=lab
            )

    def test_constant_dp_exactly_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.integers(0, 2, size=10)
            if s.min() == s.max():
                continue
            for c in (0, 1):
                assert unfairness_of(np.full(10, c), MetricKind.DEMOGRAPHIC_PARITY, s) == 0.0


def previous_unfairness(kind, n, tp, fp, tn, fn, strict):
    """The metric expressions as they were written over per-group count
    pairs, before the formulas moved onto the confusion counts."""
    if kind in (MetricKind.DEMOGRAPHIC_PARITY, MetricKind.STATISTICAL_PARITY):
        return abs((tp[1] + fp[1]) / n[1] - (tp[0] + fp[0]) / n[0])
    if kind is MetricKind.OVERALL_ACCURACY_EQUALITY:
        acc0 = (tp[0] + tn[0]) / n[0]
        acc1 = (tp[1] + tn[1]) / n[1]
        return abs(acc1 - acc0)
    gaps = []
    for num, other in ((tp, fn), (tn, fp)):
        den0, den1 = num[0] + other[0], num[1] + other[1]
        if den0 == 0 or den1 == 0:
            if strict:
                raise UndefinedRate("conditional rate with zero denominator")
            gaps.append(0.0)
        else:
            gaps.append(abs(num[1] / den1 - num[0] / den0))
    return max(gaps)


def rows_of(conf):
    """(preds, labels, s) arrays holding exactly the confusion counts
    (tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1)."""
    preds, labels, s = [], [], []
    for i, count in enumerate(conf):
        group, cell = divmod(i, 4)
        p, y = ((1, 1), (1, 0), (0, 0), (0, 1))[cell]
        preds += [p] * count
        labels += [y] * count
        s += [group] * count
    return np.array(preds), np.array(labels), np.array(s)


class TestConfusionFormula:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_search_formula_equals_unfairness(self, kind):
        rng = np.random.default_rng(61)
        formula = confusion_formula(kind)
        undefined = 0
        for trial in range(400):
            # small counts, so cpa often meets a zero denominator
            conf = tuple(int(c) for c in rng.integers(0, 4 if trial % 2 else 60, size=8))
            tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1 = conf
            n = (tp0 + fp0 + tn0 + fn0 or 1, tp1 + fp1 + tn1 + fn1 or 1)
            preds, labels, s = rows_of(conf)
            empty = 0 in (tp0 + fp0 + tn0 + fn0, tp1 + fp1 + tn1 + fn1)
            if empty:
                with pytest.raises(EmptyGroup):
                    unfairness_of(preds, kind, s, labels=labels)
            for strict in (True, False):
                try:
                    want = previous_unfairness(kind, n, (tp0, tp1), (fp0, fp1), (tn0, tn1), (fn0, fn1), strict)
                except UndefinedRate:
                    undefined += 1
                    with pytest.raises(UndefinedRate):
                        formula(n[0], n[1], conf, strict)
                    if not empty:
                        with pytest.raises(UndefinedRate):
                            unfairness_of(preds, kind, s, labels=labels, strict=strict)
                    continue
                assert formula(n[0], n[1], conf, strict) == want
                if not empty:
                    assert unfairness_of(preds, kind, s, labels=labels, strict=strict) == want
                    if not kind.needs_labels:
                        assert unfairness_of(preds, kind, s, strict=strict) == want
        assert (undefined > 0) == (kind is MetricKind.CONDITIONAL_PROCEDURE_ACCURACY)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            confusion_formula("dp")


class TestUnfairnessOrNan:
    def test_nan_on_one_group(self):
        assert math.isnan(unfairness_or_nan([1, 0], MetricKind.DEMOGRAPHIC_PARITY, [1, 1]))

    def test_lenient_on_undefined_rate(self):
        preds = [1, 0, 1, 0]
        labels = [0, 0, 1, 0]
        s = [0, 0, 1, 1]
        assert unfairness_or_nan(
            preds, MetricKind.CONDITIONAL_PROCEDURE_ACCURACY, s, labels=labels
        ) == 0.5

    def test_passthrough(self):
        assert unfairness_or_nan([1, 0, 1, 1], MetricKind.DEMOGRAPHIC_PARITY, [1, 1, 0, 0]) == 0.5
