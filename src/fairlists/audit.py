"""Feature influence by bit flipping.

For each feature, the score is the mean over rows of the prediction with the
bit forced to 1 minus the prediction with it forced to 0.  Scores are signed
and lie in [-1, 1]; ranks order features by absolute score, 1 = most
influential.  This is a deliberately simple estimator whose job is to compare
the sensitive attribute's rank between a black box and its surrogate.

An oracle maps an (n, m) feature matrix to n predictions in {0, 1}, with -1
marking a row it cannot predict.
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
    model_tag: str


def rule_list_oracle(r, ants):
    """Oracle for a rule list (total on the mined schema)."""
    return lambda F: predict(r, ants, replace(ants.source_dataset, features=F))


def _row_keys(features):
    packed = np.packbits(np.asarray(features, dtype=np.uint8), axis=1)
    return np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1]))).ravel()


def lookup_oracle(features, preds):
    """Row-keyed lookup oracle from observed (features, prediction) pairs.

    Rows never observed predict -1; conflicting duplicates keep the first
    observation.
    """
    keys, first = np.unique(_row_keys(features), return_index=True)
    values = np.asarray(preds, dtype=np.int64)[first]

    def fn(F):
        q = _row_keys(F)
        pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        return np.where(keys[pos] == q, values[pos], UNKNOWN)

    return fn


def flip_influence(predict_fn, d, model_tag="model", missing_ok=False):
    """Score every feature of `d` by mean flip difference.

    Rows on which the oracle is undefined for either flip are skipped; a
    feature with no evaluable row raises OracleMissingRow (or, with
    `missing_ok`, the whole ranking degrades to None when no feature is
    evaluable).
    """
    feats = np.asarray(d.features, dtype=np.uint8)
    m = feats.shape[1]
    flipped = feats.copy()
    scores = np.zeros(m)
    any_scored = False
    for j in range(m):
        flipped[:, j] = 1
        hi = np.array(predict_fn(flipped), dtype=np.int64)
        flipped[:, j] = 0
        lo = np.array(predict_fn(flipped), dtype=np.int64)
        flipped[:, j] = feats[:, j]
        ok = (hi != UNKNOWN) & (lo != UNKNOWN)
        evaluated = int(np.count_nonzero(ok))
        if evaluated == 0:
            if missing_ok:
                continue
            raise OracleMissingRow(
                "feature %r: oracle undefined on every perturbed row" % d.feature_names[j]
            )
        any_scored = True
        scores[j] = int((hi[ok] - lo[ok]).sum()) / evaluated
    if not any_scored and missing_ok:
        return None
    order = np.lexsort((np.arange(m), -np.abs(scores)))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    return InfluenceRanking(
        feature_names=list(d.feature_names), scores=scores, ranks=ranks, model_tag=model_tag
    )
