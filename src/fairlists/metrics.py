"""Group fairness metrics over binary predictions and a binary sensitive
attribute.  The registry is closed: four kinds, each an absolute gap between
the two sensitive groups, all bounded in [0, 1]."""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroup, LabelsRequired, LengthMismatch, UndefinedRate


class MetricKind(enum.Enum):
    DEMOGRAPHIC_PARITY = "dp"
    STATISTICAL_PARITY = "sp"
    OVERALL_ACCURACY_EQUALITY = "oae"
    CONDITIONAL_PROCEDURE_ACCURACY = "cpa"

    @classmethod
    def from_flag(cls, flag):
        for kind in cls:
            if kind.value == flag:
                return kind
        raise ValueError("unknown metric %r (choose from dp, sp, oae, cpa)" % flag)

    @property
    def needs_labels(self):
        return self in (
            MetricKind.OVERALL_ACCURACY_EQUALITY,
            MetricKind.CONDITIONAL_PROCEDURE_ACCURACY,
        )


@dataclass(frozen=True)
class GroupCounts:
    """Exact per-group counts; confusion entries are None without labels."""

    n: tuple  # (n_g0, n_g1)
    pos: tuple  # predicted-positive counts per group
    tp: tuple = None
    fp: tuple = None
    tn: tuple = None
    fn: tuple = None

    @property
    def has_labels(self):
        return self.tp is not None


def group_counts(preds, labels, s):
    """Count predictions (and, with labels, the 2x2 confusion) per group."""
    preds = np.asarray(preds)
    s = np.asarray(s)
    if preds.shape != s.shape:
        raise LengthMismatch("preds %r vs sensitive %r" % (preds.shape, s.shape))
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != preds.shape:
            raise LengthMismatch("preds %r vs labels %r" % (preds.shape, labels.shape))
    g1 = s != 0
    n1 = int(np.count_nonzero(g1))
    n0 = preds.shape[0] - n1
    if n0 == 0 or n1 == 0:
        raise EmptyGroup("sensitive groups have sizes (%d, %d)" % (n0, n1))
    p = preds != 0
    pos = (int(np.count_nonzero(p & ~g1)), int(np.count_nonzero(p & g1)))
    if labels is None:
        return GroupCounts(n=(n0, n1), pos=pos)
    y = labels != 0
    tp, fp, tn, fn = [], [], [], []
    for mask in (~g1, g1):
        tp.append(int(np.count_nonzero(mask & p & y)))
        fp.append(int(np.count_nonzero(mask & p & ~y)))
        tn.append(int(np.count_nonzero(mask & ~p & ~y)))
        fn.append(int(np.count_nonzero(mask & ~p & y)))
    return GroupCounts(n=(n0, n1), pos=pos, tp=tuple(tp), fp=tuple(fp), tn=tuple(tn), fn=tuple(fn))


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
    MetricKind.STATISTICAL_PARITY: _parity_gap,
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


def unfairness(kind, counts, strict=True):
    """Unfairness score in [0, 1] for the given metric kind.

    Statistical parity shares the demographic-parity formula but is a
    distinct registry entry so runs under the two names stay distinguishable.
    Conditional procedure accuracy takes the max of the TPR and TNR gaps.
    """
    formula = confusion_formula(kind)
    if not kind.needs_labels:
        # parity reads only tp + fp, so the positive counts stand in for them
        conf = (counts.pos[0], 0, 0, 0, counts.pos[1], 0, 0, 0)
    elif counts.has_labels:
        conf = (
            counts.tp[0], counts.fp[0], counts.tn[0], counts.fn[0],
            counts.tp[1], counts.fp[1], counts.tn[1], counts.fn[1],
        )
    else:
        raise LabelsRequired("%s needs labels" % kind.value)
    return formula(counts.n[0], counts.n[1], conf, strict)


def unfairness_of(preds, kind, s, labels=None, strict=True):
    """Convenience wrapper: counts then score in one call."""
    if kind.needs_labels and labels is None:
        raise LabelsRequired("%s needs labels" % kind.value)
    counts = group_counts(preds, labels if kind.needs_labels else None, s)
    return unfairness(kind, counts, strict=strict)


def unfairness_or_nan(preds, kind, s, labels=None):
    """Reporting helper: NaN instead of raising on degenerate groups/rates."""
    try:
        return unfairness_of(preds, kind, s, labels=labels, strict=False)
    except (EmptyGroup, LabelsRequired):
        return math.nan
