"""Group fairness metrics over binary predictions and a binary sensitive
attribute.  The registry is closed: three kinds, each an absolute gap between
the two sensitive groups, all bounded in [0, 1]."""

import enum
import math

import numpy as np

from .errors import EmptyGroup, LabelsRequired, LengthMismatch, UndefinedRate


class MetricKind(enum.Enum):
    DEMOGRAPHIC_PARITY = "dp"
    OVERALL_ACCURACY_EQUALITY = "oae"
    CONDITIONAL_PROCEDURE_ACCURACY = "cpa"

    @property
    def needs_labels(self):
        return self in (
            MetricKind.OVERALL_ACCURACY_EQUALITY,
            MetricKind.CONDITIONAL_PROCEDURE_ACCURACY,
        )


def _rate_gap(num0, den0, num1, den1, strict):
    """|num1/den1 - num0/den0|, with the strict/lenient zero-denominator policy."""
    if den0 == 0 or den1 == 0:
        if strict:
            raise UndefinedRate("conditional rate with zero denominator")
        return 0.0
    return abs(num1 / den1 - num0 / den0)


# Each formula maps the two group sizes and the confusion counts
# (tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1) to the metric's gap.


def _parity_gap(n0, n1, conf, strict):
    tp0, fp0, _, _, tp1, fp1, _, _ = conf
    return abs((tp1 + fp1) / n1 - (tp0 + fp0) / n0)


def _accuracy_gap(n0, n1, conf, strict):
    tp0, _, tn0, _, tp1, _, tn1, _ = conf
    return abs((tp1 + tn1) / n1 - (tp0 + tn0) / n0)


def _procedure_gap(n0, n1, conf, strict):
    tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1 = conf
    tpr_gap = _rate_gap(tp0, tp0 + fn0, tp1, tp1 + fn1, strict)
    tnr_gap = _rate_gap(tn0, tn0 + fp0, tn1, tn1 + fp1, strict)
    return max(tpr_gap, tnr_gap)


_FORMULAS = {
    MetricKind.DEMOGRAPHIC_PARITY: _parity_gap,
    MetricKind.OVERALL_ACCURACY_EQUALITY: _accuracy_gap,
    MetricKind.CONDITIONAL_PROCEDURE_ACCURACY: _procedure_gap,
}


def confusion_formula(kind):
    """The kind's gap as f(n0, n1, conf, strict) over the group sizes and
    the confusion counts (tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1)."""
    try:
        return _FORMULAS[kind]
    except KeyError:
        raise ValueError("unknown metric kind %r" % (kind,)) from None


def unfairness_of(preds, kind, s, labels=None, strict=True):
    """Unfairness score in [0, 1] of the predictions between the two groups
    of the sensitive attribute `s`.

    Demographic parity is the gap in positive-prediction rates, which some
    authors call statistical parity.  Conditional procedure accuracy takes
    the max of the TPR and TNR gaps; with `strict`, a zero denominator
    raises UndefinedRate instead of scoring that gap 0.  Labels are read only by the kinds that need them.
    """
    if kind.needs_labels and labels is None:
        raise LabelsRequired("%s needs labels" % kind.value)
    preds = np.asarray(preds)
    s = np.asarray(s)
    if preds.shape != s.shape:
        raise LengthMismatch("preds %r vs sensitive %r" % (preds.shape, s.shape))
    # each row's code is 4*group + 2*prediction + label; parity reads only
    # tp + fp, so without labels every positive counts as an fp
    code = 4 * (s != 0) + 2 * (preds != 0)
    if kind.needs_labels:
        labels = np.asarray(labels)
        if labels.shape != preds.shape:
            raise LengthMismatch("preds %r vs labels %r" % (preds.shape, labels.shape))
        code = code + (labels != 0)
    c = np.bincount(code.ravel(), minlength=8).tolist()
    n0, n1 = sum(c[:4]), sum(c[4:])
    if n0 == 0 or n1 == 0:
        raise EmptyGroup("sensitive groups have sizes (%d, %d)" % (n0, n1))
    conf = (c[3], c[2], c[0], c[1], c[7], c[6], c[4], c[5])
    return confusion_formula(kind)(n0, n1, conf, strict)


def unfairness_or_nan(preds, kind, s, labels=None):
    """Reporting helper: NaN instead of raising on degenerate groups/rates."""
    try:
        return unfairness_of(preds, kind, s, labels=labels, strict=False)
    except (EmptyGroup, LabelsRequired):
        return math.nan
