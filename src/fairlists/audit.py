"""Feature influence by bit flipping.

For each feature, the score is the mean over rows of the prediction with the
bit forced to 1 minus the prediction with it forced to 0.  Scores are signed
and lie in [-1, 1]; ranks order features by absolute score, 1 = most
influential.  This is a deliberately simple estimator whose job is to compare
the sensitive attribute's rank between a black box and its surrogate.

An oracle maps an (n, m) feature matrix to n predictions in {0, 1}, with -1
marking a row it cannot predict.  It must be row-wise: a row's prediction
depends on that row alone, not on the other rows passed with it.  The
audit relies on this to predict each distinct row of the data once and
count its flip difference as often as the row occurs, which gives the
same integer sums, and so the same scores, as predicting every row.  A row
forced to the value it already holds predicts as it is, so the audit
predicts the distinct rows once and, per feature, once more with that
feature's bit toggled.  The distinct rows are the dataset's own grouping
(`Dataset.row_classes`), made once per dataset and shared with the lookup
oracle, whose table it keys in sorted order, and with a search problem over
the same rows.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import captures, row_keys
from .rules import antecedents_of, first_match

UNKNOWN = -1


@dataclass(frozen=True)
class InfluenceRanking:
    feature_names: list
    scores: np.ndarray  # signed, in [-1, 1]
    ranks: np.ndarray  # permutation of 1..n_features, by |score| descending


def rule_list_oracle(r, ants):
    """Oracle for a rule list over the antecedents `ants`, total on the
    columns they were mined on; the list's antecedents are looked up once."""
    rule_ants = antecedents_of(r, ants)
    return lambda F: first_match(r, captures(rule_ants, F))


def lookup_oracle(d):
    """Row-keyed lookup oracle that replays the labels of `d` (a black box's
    predictions) on its feature rows.

    Rows never observed predict -1; conflicting duplicates keep the first
    observation.
    """
    # classes come in ascending key order, each from its smallest row
    first, _, _ = d.row_classes
    keys = row_keys(d.features[first])
    values = d.labels[first].astype(np.int64)

    def fn(F):
        q = row_keys(F)
        pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        return np.where(keys[pos] == q, values[pos], UNKNOWN)

    return fn


def flip_influence(predict_fn, d, columns=None):
    """Score every feature of `d` by mean flip difference, calling the
    row-wise oracle `predict_fn` on the distinct rows of `d` once, then once
    per feature with that feature's bit toggled.

    Rows on which the oracle is undefined for either flip are skipped, and
    a feature with no evaluable row scores 0.0; when no feature has one,
    there is no ranking and the result is None.

    `columns`, when given, are the only columns the oracle reads, such as a
    rule list's (`rules.read_columns`).  Toggling any other column changes
    no prediction, so it is not predicted: it scores 0.0 over the rows the
    oracle predicts, as it would if predicted.
    """
    feats = np.asarray(d.features, dtype=np.uint8)
    m = feats.shape[1]
    # a row-wise oracle predicts equal rows alike, so each distinct row is
    # predicted once and its difference counted as often as the row occurs
    first, weight, _ = d.row_classes
    rows = feats[first]
    base = np.array(predict_fn(rows), dtype=np.int64)
    known = base != UNKNOWN
    # forced to 1 minus forced to 0 is base - toggled on a row whose bit is
    # 1, and toggled - base on a row whose bit is 0
    signed_weight = (2 * rows.astype(np.int64) - 1) * weight[:, None]
    flipped = rows.copy()
    scores = np.zeros(m)
    # a column the oracle does not read scores 0.0 over the known rows
    any_scored = columns is not None and len(columns) < m and bool(known.any())
    for j in range(m) if columns is None else columns:
        flipped[:, j] ^= 1
        toggled = np.array(predict_fn(flipped), dtype=np.int64)
        flipped[:, j] = rows[:, j]
        ok = known & (toggled != UNKNOWN)
        evaluated = int(weight[ok].sum())
        if evaluated:
            any_scored = True
            scores[j] = int(((base - toggled) * signed_weight[:, j])[ok].sum()) / evaluated
    if not any_scored:
        return None
    order = np.lexsort((np.arange(m), -np.abs(scores)))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    return InfluenceRanking(feature_names=list(d.feature_names), scores=scores, ranks=ranks)
