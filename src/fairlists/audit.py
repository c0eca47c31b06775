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
same integer sums, and so the same scores, as predicting every row.  The
distinct rows are the dataset's own grouping (`Dataset.row_classes`), made
once per dataset and shared with the lookup oracle and with a search
problem over the same rows.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import OracleMissingRow
from .rules import predict

UNKNOWN = -1


@dataclass(frozen=True)
class InfluenceRanking:
    feature_names: list
    scores: np.ndarray  # signed, in [-1, 1]
    ranks: np.ndarray  # permutation of 1..n_features, by |score| descending


def rule_list_oracle(r, ants):
    """Oracle for a rule list (total on the mined schema)."""
    return lambda F: predict(r, ants, replace(ants.source_dataset, features=F))


def _row_keys(features):
    packed = np.packbits(np.asarray(features, dtype=np.uint8), axis=1)
    return np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1]))).ravel()


def lookup_oracle(d, preds):
    """Row-keyed lookup oracle from the feature rows of `d` and their
    predictions `preds`.

    Rows never observed predict -1; conflicting duplicates keep the first
    observation.
    """
    order, starts, _ = d.row_classes
    # each class begins with its smallest row index
    first = order[starts]
    keys = _row_keys(d.features[first])
    by_key = np.argsort(keys)
    keys = keys[by_key]
    values = np.asarray(preds, dtype=np.int64)[first[by_key]]

    def fn(F):
        q = _row_keys(F)
        pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        return np.where(keys[pos] == q, values[pos], UNKNOWN)

    return fn


def flip_influence(predict_fn, d, missing_ok=False):
    """Score every feature of `d` by mean flip difference, calling the
    row-wise oracle `predict_fn` on the distinct rows of `d` only.

    Rows on which the oracle is undefined for either flip are skipped; a
    feature with no evaluable row raises OracleMissingRow (or, with
    `missing_ok`, the whole ranking degrades to None when no feature is
    evaluable).
    """
    feats = np.asarray(d.features, dtype=np.uint8)
    m = feats.shape[1]
    # a row-wise oracle predicts equal rows alike, so each distinct row is
    # predicted once and its difference counted as often as the row occurs
    order, starts, weight = d.row_classes
    rows = feats[order[starts]]
    flipped = rows.copy()
    scores = np.zeros(m)
    any_scored = False
    for j in range(m):
        flipped[:, j] = 1
        hi = np.array(predict_fn(flipped), dtype=np.int64)
        flipped[:, j] = 0
        lo = np.array(predict_fn(flipped), dtype=np.int64)
        flipped[:, j] = rows[:, j]
        ok = (hi != UNKNOWN) & (lo != UNKNOWN)
        evaluated = int(weight[ok].sum())
        if evaluated == 0:
            if missing_ok:
                continue
            raise OracleMissingRow(
                "feature %r: oracle undefined on every perturbed row" % d.feature_names[j]
            )
        any_scored = True
        scores[j] = int(((hi - lo) * weight)[ok].sum()) / evaluated
    if not any_scored and missing_ok:
        return None
    order = np.lexsort((np.arange(m), -np.abs(scores)))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    return InfluenceRanking(feature_names=list(d.feature_names), scores=scores, ranks=ranks)
