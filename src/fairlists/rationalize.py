"""Rationalization drivers: enumerate fairness-regularized surrogates of a
black-box classifier, globally over a suing group or locally around a single
subject's nearest-neighbor cohort, and select the model to show an auditor.

Every enumerated surrogate is a SearchResult (`.best` is its rule list; its
id is its index in the report).  Reports put each surrogate's unfairness next
to the black box's own unfairness on the same rows; the global selection
keeps only surrogates at most half as unfair as the black box.
"""

import math
from dataclasses import dataclass

import numpy as np

from .audit import InfluenceRanking, flip_influence, rule_list_oracle
from .dataset import Dataset, mine_antecedents
from .enumeration import DEFAULT_MAX_MODELS, enumerate_models
from .errors import EmptyCohort, KOutOfRange, LengthMismatch, NoAntecedents
from .metrics import unfairness_of, unfairness_or_nan
from .rules import RuleList, fidelity, predict

LOCAL_UNFAIRNESS_THRESHOLD = 0.05
DEFAULT_NEIGHBORHOOD_FRACTION = 0.10


@dataclass(frozen=True)
class BlackBoxPredictions:
    preds: np.ndarray  # uint8 {0,1}, aligned with a Dataset's rows
    source: str = "blackbox"

    def aligned_with(self, d):
        if self.preds.shape[0] != d.n_rows:
            raise LengthMismatch(
                "%d predictions vs %d rows" % (self.preds.shape[0], d.n_rows)
            )
        return True


def load_predictions(path, source=None):
    """Single-column CSV aligned to the dataset row order.

    Only the first non-empty line may be a (non-numeric) header; every other
    cell must be 0 or 1.
    """
    values = []
    header_allowed = True
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            v = line.strip()
            if not v:
                continue
            if v in ("0", "1"):
                values.append(int(v))
            elif not header_allowed or v.isdigit():
                raise LengthMismatch("line %d: prediction cell %r is not 0/1" % (lineno, v))
            header_allowed = False
    return BlackBoxPredictions(
        preds=np.array(values, dtype=np.uint8), source=source or str(path)
    )


@dataclass(frozen=True)
class Neighborhood:
    center: int  # row position in the dataset
    members: np.ndarray  # row positions of the k nearest, center included
    k: int


@dataclass
class GlobalReport:
    models: list  # SearchResults; a model's id is its index
    baseline_unfairness: float
    selected: int  # model id, or None
    test_fidelity: float = None
    test_unfairness: float = None
    selected_ranking: InfluenceRanking = None  # flip influence of the selected model


@dataclass
class SubjectResult:
    row_id: int
    best_model: RuleList  # None when no enumerated model agrees at the subject
    best_unfairness: float
    best_fidelity: float
    baseline_unfairness: float  # black-box unfairness on the neighborhood
    certified_optimal: bool  # every model enumerated for the subject is certified


@dataclass
class LocalReport:
    subjects: list
    coverage: float  # fraction of subjects with an agreeing model


def select_best_global(report, baseline_unfairness):
    """Keep models at most half as unfair as the black box, then take the one
    with the highest fidelity (ties: lower objective, then lower id)."""
    candidates = [
        (-m.fidelity, m.objective, i)
        for i, m in enumerate(report.models)
        if not math.isnan(m.unfairness) and m.unfairness <= baseline_unfairness / 2.0
    ]
    if not candidates:
        return None
    return min(candidates)[2]


def rationalize_global(
    X,
    b,
    cfg,
    max_models=DEFAULT_MAX_MODELS,
    min_support=0.05,
    include_negations=True,
    include_sensitive=False,
    test_set=None,
    test_preds=None,
):
    """Model rationalization over a suing group.

    Relabels `X` with the black box's predictions, mines antecedents,
    enumerates surrogates, and reports per-model fidelity and unfairness next
    to the black box's baseline unfairness on the same rows.  The selected
    model is audited on `X`; when a test set (plus black-box predictions on
    it) is supplied, it is also evaluated there.
    """
    b.aligned_with(X)
    relabeled = X.with_labels(b.preds)
    baseline = unfairness_of(
        b.preds,
        cfg.metric,
        X.sensitive,
        labels=b.preds if cfg.metric.needs_labels else None,
    )
    ants = mine_antecedents(
        relabeled,
        min_support=min_support,
        include_negations=include_negations,
        include_sensitive=include_sensitive,
    )
    models = enumerate_models(ants, relabeled, cfg, max_models=max_models)
    report = GlobalReport(models=models, baseline_unfairness=baseline, selected=None)
    report.selected = select_best_global(report, baseline)
    if report.selected is None:
        return report, ants

    chosen = models[report.selected].best
    report.selected_ranking = flip_influence(
        rule_list_oracle(chosen, ants), X, model_tag="model%d" % report.selected
    )
    if test_set is not None and test_preds is not None:
        test_preds.aligned_with(test_set)
        preds = predict(chosen, ants, test_set)
        report.test_fidelity = fidelity(preds, test_preds.preds)
        report.test_unfairness = unfairness_or_nan(
            preds,
            cfg.metric,
            test_set.sensitive,
            labels=test_preds.preds if cfg.metric.needs_labels else None,
        )
    return report, ants


def knn_neighborhood(x, T, k, exclude_sensitive=True):
    """The k rows of `T` nearest to row `x` in Hamming distance.

    The sensitive column is excluded from the distance by default.  Ties are
    broken by ascending row position; the center always belongs to its own
    neighborhood.
    """
    n = T.n_rows
    if not 1 <= k <= n:
        raise KOutOfRange("k=%d outside [1, %d]" % (k, n))
    cols = [c for c in range(T.n_cols) if not (exclude_sensitive and c == T.sensitive_col)]
    feats = T.features[:, cols]
    dist = np.count_nonzero(feats != feats[x], axis=1)
    not_center = np.ones(n, dtype=np.int64)
    not_center[x] = 0
    order = np.lexsort((np.arange(n), not_center, dist))
    members = np.sort(order[:k])
    return Neighborhood(center=x, members=members, k=k)


def default_k(n):
    """Neighborhood size: 10% of the group being explained, rounded up."""
    return max(1, math.ceil(DEFAULT_NEIGHBORHOOD_FRACTION * n))


def _best_k0_list(nb_data):
    """Fallback surrogate when no antecedent survives mining: the majority
    default-only list."""
    ones = int(nb_data.labels.sum())
    q0 = 1 if ones > nb_data.n_rows - ones else 0
    return RuleList(rules=(), default=q0)


def rationalize_local(
    x,
    T,
    b,
    cfg,
    k=None,
    max_models=DEFAULT_MAX_MODELS,
    min_support=0.05,
    include_negations=True,
    include_sensitive=False,
    nb=None,
):
    """Outcome rationalization for one subject.

    Enumerates surrogates on the subject's relabeled neighborhood and selects
    the one predicting the black box's outcome at the subject with the lowest
    neighborhood unfairness (ties: higher fidelity, then lower model id).
    `nb` is the subject's k-neighborhood when the caller already has it.
    Returns (SubjectResult, models) where models is the enumerated list.
    """
    b.aligned_with(T)
    if k is None:
        k = default_k(T.n_rows)
    if nb is None:
        nb = knn_neighborhood(x, T, k)
    nb_data = T.subset(nb.members, name=T.name + ":nbhd").with_labels(b.preds[nb.members])
    center_pos = int(np.searchsorted(nb.members, x))
    target = int(b.preds[x])
    baseline = unfairness_or_nan(
        b.preds[nb.members],
        cfg.metric,
        nb_data.sensitive,
        labels=b.preds[nb.members] if cfg.metric.needs_labels else None,
    )
    try:
        ants = mine_antecedents(
            nb_data,
            min_support=min_support,
            include_negations=include_negations,
            include_sensitive=include_sensitive,
        )
        models = enumerate_models(ants, nb_data, cfg, max_models=max_models)
    except NoAntecedents:
        # every column is (near-)constant on the neighborhood: fall back to
        # the majority default-only surrogate
        ants = None
        models = []
    best = None  # (unfairness, -fidelity, model id, rule_list)
    if ants is None:
        rl = _best_k0_list(nb_data)
        if rl.default == target:
            preds = np.full(nb_data.n_rows, rl.default, dtype=np.uint8)
            unf = unfairness_or_nan(
                preds,
                cfg.metric,
                nb_data.sensitive,
                labels=nb_data.labels if cfg.metric.needs_labels else None,
            )
            best = (unf, -fidelity(preds, nb_data.labels), 0, rl)
    else:
        for i, m in enumerate(models):
            preds = predict(m.best, ants, nb_data)
            if int(preds[center_pos]) != target:
                continue
            # a one-group neighborhood has undefined unfairness; rank it last
            unf = m.unfairness if not math.isnan(m.unfairness) else math.inf
            key = (unf, -m.fidelity, i, m.best)
            if best is None or key[:3] < best[:3]:
                best = key
    result = SubjectResult(
        row_id=int(T.row_ids[x]),
        best_model=best[3] if best else None,
        best_unfairness=best[0] if best else math.nan,
        best_fidelity=-best[1] if best else math.nan,
        baseline_unfairness=baseline,
        certified_optimal=all(m.certified_optimal for m in models),
    )
    return result, models


def local_cohort(
    T,
    b,
    cfg,
    k=None,
    max_models=DEFAULT_MAX_MODELS,
    minority_value=None,
    negative_class=0,
    threshold=LOCAL_UNFAIRNESS_THRESHOLD,
    min_support=0.05,
    include_negations=True,
    include_sensitive=False,
):
    """Outcome rationalization for every cohort subject.

    The cohort is the set of rows the black box rejected
    (prediction == negative_class), belonging to the minority group
    (sensitive == minority_value; by default the less frequent sensitive
    value, ties going to 1), whose neighborhood black-box unfairness exceeds
    `threshold`.  Subjects are independent; processing order does not affect
    the report.
    """
    b.aligned_with(T)
    if k is None:
        k = default_k(T.n_rows)
    if minority_value is None:
        ones = int(T.sensitive.sum())
        minority_value = 1 if ones <= T.n_rows - ones else 0
    candidates = [
        x
        for x in range(T.n_rows)
        if int(b.preds[x]) == negative_class and int(T.sensitive[x]) == minority_value
    ]
    subjects = []  # (row position, its neighborhood)
    for x in candidates:
        nb = knn_neighborhood(x, T, k)
        base = unfairness_or_nan(
            b.preds[nb.members],
            cfg.metric,
            T.features[nb.members, T.sensitive_col],
            labels=b.preds[nb.members] if cfg.metric.needs_labels else None,
        )
        if not math.isnan(base) and base > threshold:
            subjects.append((x, nb))
    if not subjects:
        raise EmptyCohort(
            "no rejected minority subject has neighborhood unfairness > %g" % threshold
        )
    results = [
        rationalize_local(
            x,
            T,
            b,
            cfg,
            k=k,
            max_models=max_models,
            min_support=min_support,
            include_negations=include_negations,
            include_sensitive=include_sensitive,
            nb=nb,
        )[0]
        for x, nb in subjects
    ]
    results.sort(key=lambda r: r.row_id)
    covered = sum(1 for r in results if r.best_model is not None)
    return LocalReport(subjects=results, coverage=covered / len(results))
