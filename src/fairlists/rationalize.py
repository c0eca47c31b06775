"""Rationalization drivers: enumerate fairness-regularized surrogates of a
black-box classifier, globally over a suing group or locally around each
subject of a cohort of rejected minority rows, on its nearest neighbors, and
select the model to show an auditor.

The black box is seen only through its outcomes: every driver reads the
rows it explains as a Dataset whose labels are the black box's predictions
(`Dataset.with_labels` aligns them), and fits surrogates to those labels.

Every enumerated surrogate is a SearchResult (`.best` is its rule list; its
id is its index in the report).  Reports put each surrogate's unfairness next
to the black box's own unfairness on the same rows; the global selection
keeps only surrogates at most half as unfair as the black box.

A run sweeps configs over fixed rows, so the drivers do the work that no
config changes once.  `rationalize_global` takes a SearchProblem its caller
prepared once for every (lambda, beta) cell, the cell's models, which the
caller enumerates for every cell at once with `enumerate_cells` so that the
cells share their searches, and a memo that the caller keeps for the grid:
the black box's baseline is computed once, and each distinct selected list
is audited and tested once, by the first cell that selects it.
`local_cohort` takes every config of the run: it picks the cohort and
computes each candidate's neighborhood and black-box baseline once, and
`rationalize_local` mines each subject's neighborhood, prepares its search
and enumerates every config's models once, in one `enumerate_cells` call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .audit import InfluenceRanking, flip_influence, rule_list_oracle
from .dataset import DEFAULT_MIN_SUPPORT, decode_binary, decode_clean, mine_antecedents, open_text
# perfbench/layers.py wraps `rationalize.enumerate_models` by name
from .enumeration import DEFAULT_MAX_MODELS, enumerate_cells, enumerate_models  # noqa: F401
from .errors import EmptyCohort, EmptyGroup, InvalidValue, KOutOfRange, LengthMismatch, NoAntecedents, UndefinedRate
from .metrics import unfairness_of, unfairness_or_nan
from .rules import RuleList, fidelity, predict, read_columns
from .search import SearchProblem

LOCAL_UNFAIRNESS_THRESHOLD = 0.05
DEFAULT_NEIGHBORHOOD_FRACTION = 0.10


def load_predictions(path):
    """The uint8 0/1 array of a single-column CSV aligned to the dataset row
    order (`Dataset.with_labels` checks the alignment).

    Only the first non-empty line may be a header, and a header is not a
    number: a first line such as '-1' or '0.5' is a bad cell.  Every other
    non-empty line must be 0 or 1, surrounding whitespace aside.  The first
    bad cell is reported by its line.

    A file whose lines after a header (or from the first line, when that is
    0 or 1) are all exactly '0' or '1' with a newline is decoded by numpy;
    any other file is decoded by `open_text` and split into lines as text
    mode would split it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # the first line is the header unless it is a prediction (a blank first
    # line, taken as a header here, is skipped by the text path too)
    end = 0 if raw[:2] in (b"0\n", b"1\n") else raw.find(b"\n") + 1
    head = raw[:end]
    bits = None
    if not end or (head.isascii() and b"\r" not in head and _is_header(head.decode().strip())):
        bits = decode_clean(raw, end, 1)
    if bits is None:
        with open_text(path, raw) as fh:
            text = fh.read()
        bits = _read_predictions(text)
    return bits.ravel()


def _is_header(cell):
    """Whether the first non-empty cell `cell` is a header: it is not a
    number, as a prediction or a mistyped one would be."""
    try:
        float(cell)
    except ValueError:
        return not cell.isdigit()
    return False


def _read_predictions(text):
    """The 0/1 column of `text`, read in text mode (every line ending made
    a newline)."""
    cells = list(map(str.strip, text.split("\n")))
    lines = [i for i, cell in enumerate(cells) if cell]
    if lines and _is_header(cells[lines[0]]):
        lines = lines[1:]
    values = [cells[i] for i in lines]
    bits = decode_binary(values)
    if bits is None:
        bad = next(i for i in lines if cells[i] not in ("0", "1"))
        raise LengthMismatch("line %d: prediction cell %r is not 0/1" % (bad + 1, cells[bad]))
    return bits


@dataclass
class GlobalReport:
    models: list  # SearchResults; a model's id is its index
    baseline_unfairness: float
    selected: int  # model id, or None
    test_fidelity: float = None
    test_unfairness: float = None
    # flip influence of the selected model; cells that share a memo and
    # select the same list share this object, so it is read-only
    selected_ranking: InfluenceRanking = None


@dataclass
class SubjectResult:
    row_id: int  # the subject's row position in the rows explained
    best_model: RuleList  # None when no enumerated model agrees at the subject
    best_unfairness: float
    best_fidelity: float
    baseline_unfairness: float  # black-box unfairness on the neighborhood
    certified_optimal: bool  # every model enumerated for the subject is certified


@dataclass
class LocalReport:
    subjects: list
    coverage: float  # fraction of subjects with an agreeing model


def select_best_global(report):
    """Keep models at most half as unfair as the black box
    (`report.baseline_unfairness`), then take the one with the highest
    fidelity (ties: lower objective, then lower id)."""
    candidates = [
        (-m.fidelity, m.objective, i)
        for i, m in enumerate(report.models)
        if not math.isnan(m.unfairness) and m.unfairness <= report.baseline_unfairness / 2.0
    ]
    if not candidates:
        return None
    return min(candidates)[2]


def global_baseline(d, metric, memo):
    """The black box's unfairness under `metric` on `d`, whose labels are
    its predictions, computed once per `memo` (see `rationalize_global`)."""
    if metric not in memo:
        memo[metric] = unfairness_of(d.labels, metric, d.sensitive, labels=d.labels)
    return memo[metric]


def rationalize_global(problem, cfg, models, test_set=None, memo=None):
    """Model rationalization over a suing group, for one (lambda, beta)
    cell.

    `problem` is the SearchProblem of the suing group labeled with the black
    box's predictions (`problem.d`) and of the antecedents mined on it, and
    `models` the surrogates enumerated over it under `cfg` (a grid
    enumerates every cell at once with `enumerate_cells`).  Reports
    per-model fidelity and unfairness next to the black box's baseline
    unfairness on the same rows, and selects a model.  The selected model is
    audited on `problem.d`, flipping only the columns its antecedents read;
    when a test set, also labeled with the black box's predictions, is
    supplied, it is evaluated there too.

    `memo`, a dict, lets the cells of a grid share what no config changes:
    the calls that share it must share `problem` and `test_set`.  It holds
    the baseline per metric and, per (selected rule list, metric), the
    list's ranking and test fidelity and unfairness, so each distinct
    selection is audited and tested once.
    """
    memo = {} if memo is None else memo
    baseline = global_baseline(problem.d, cfg.metric, memo)
    report = GlobalReport(models=models, baseline_unfairness=baseline, selected=None)
    report.selected = select_best_global(report)
    if report.selected is None:
        return report
    chosen = models[report.selected].best
    key = (chosen, cfg.metric)
    if key not in memo:
        memo[key] = _audit_selection(problem, chosen, cfg.metric, test_set)
    report.selected_ranking, report.test_fidelity, report.test_unfairness = memo[key]
    return report


def _audit_selection(problem, chosen, metric, test_set):
    """The selected rule list's flip influence on `problem.d`, and its
    fidelity and unfairness on `test_set` (None without one)."""
    oracle = rule_list_oracle(chosen, problem.ants)
    ranking = flip_influence(oracle, problem.d, columns=read_columns(chosen, problem.ants))
    if test_set is None:
        return ranking, None, None
    preds = predict(chosen, problem.ants, test_set)
    unf = unfairness_or_nan(preds, metric, test_set.sensitive, labels=test_set.labels)
    return ranking, fidelity(preds, test_set.labels), unf


def knn_neighborhood(x, T, k):
    """The sorted positions of the k rows of `T` nearest to row `x` in
    Hamming distance.

    The sensitive column is excluded from the distance.  Ties are broken by
    ascending row position; the center always belongs to its own
    neighborhood.
    """
    n = T.n_rows
    if not 1 <= k <= n:
        raise KOutOfRange("k=%d outside [1, %d]" % (k, n))
    cols = [c for c in range(T.n_cols) if c != T.sensitive_col]
    feats = T.features[:, cols]
    dist = np.count_nonzero(feats != feats[x], axis=1)
    not_center = np.ones(n, dtype=np.int64)
    not_center[x] = 0
    order = np.lexsort((np.arange(n), not_center, dist))
    return np.sort(order[:k])


def default_k(n):
    """Neighborhood size: 10% of the group being explained, rounded up."""
    return max(1, math.ceil(DEFAULT_NEIGHBORHOOD_FRACTION * n))


def rationalize_local(
    T,
    x,
    members,
    baseline,
    cfgs,
    max_models=DEFAULT_MAX_MODELS,
    min_support=DEFAULT_MIN_SUPPORT,
    include_negations=True,
    include_sensitive=False,
):
    """Outcome rationalization for the subject at row `x` of `T`, whose
    labels are the black box's predictions, on its neighborhood, the sorted
    row positions `members`.

    Mines the subject's neighborhood and prepares its search once; a
    neighborhood where no antecedent survives mining is searched over none.
    Then it enumerates every config's surrogates in one `enumerate_cells`
    call and, for each config, selects the one predicting the
    black box's outcome at the subject with the lowest neighborhood
    unfairness (ties: higher fidelity, then lower model id).  `baseline` is
    the black box's unfairness on the neighborhood under the configs'
    shared metric.  Returns one SubjectResult per config, in order.
    """
    nb_data = T.subset(members)
    center_pos = int(np.searchsorted(members, x))
    target = int(T.labels[x])
    try:
        ants = mine_antecedents(
            nb_data,
            min_support=min_support,
            include_negations=include_negations,
            include_sensitive=include_sensitive,
        )
    except NoAntecedents:
        # every column is (near-)constant on the neighborhood
        ants = ()
    problem = SearchProblem(ants, nb_data)
    results = []
    for models in enumerate_cells(problem, cfgs, max_models):
        best = None
        for i, m in enumerate(models):
            if problem.prediction(m.best, center_pos) != target:
                continue
            # a one-group neighborhood has undefined unfairness; rank it last
            unf = m.unfairness if not math.isnan(m.unfairness) else math.inf
            key = (unf, -m.fidelity, i, m.best)
            if best is None or key[:3] < best[:3]:
                best = key
        results.append(
            SubjectResult(
                row_id=x,
                best_model=best[3] if best else None,
                best_unfairness=best[0] if best else math.nan,
                best_fidelity=-best[1] if best else math.nan,
                baseline_unfairness=baseline,
                certified_optimal=all(m.certified_optimal for m in models),
            )
        )
    return results


def local_cohort(
    T,
    cfgs,
    k=None,
    max_models=DEFAULT_MAX_MODELS,
    minority_value=None,
    negative_class=0,
    threshold=LOCAL_UNFAIRNESS_THRESHOLD,
    min_support=DEFAULT_MIN_SUPPORT,
    include_negations=True,
    include_sensitive=False,
):
    """Outcome rationalization for every cohort subject of `T`, whose labels
    are the black box's predictions, under each config.

    The cohort is the set of rows the black box rejected
    (prediction == negative_class), belonging to the minority group
    (sensitive == minority_value; by default the less frequent sensitive
    value, ties going to 1), whose neighborhood black-box unfairness exceeds
    `threshold` under the configs' metric, which they must share.  Only the
    searches depend on the rest of a config, so the cohort, each candidate's
    neighborhood and baseline, and each subject's mining and search problem
    are computed once for all configs.  Returns one LocalReport per config,
    in order, each listing its subjects in ascending row order.
    """
    metrics = sorted({cfg.metric.value for cfg in cfgs})
    if len(metrics) != 1:
        raise InvalidValue("metric", "the configs must share one metric, got %s" % (metrics,))
    metric = cfgs[0].metric
    if minority_value not in (None, 0, 1):
        raise InvalidValue("minority_value", "minority_value must be 0 or 1, got %r" % (minority_value,))
    if negative_class not in (0, 1):
        raise InvalidValue("negative_class", "negative_class must be 0 or 1, got %r" % (negative_class,))
    if k is None:
        k = default_k(T.n_rows)
    if minority_value is None:
        ones = int(T.sensitive.sum())
        minority_value = 1 if ones <= T.n_rows - ones else 0
    candidates = [
        x
        for x in range(T.n_rows)
        if int(T.labels[x]) == negative_class and int(T.sensitive[x]) == minority_value
    ]
    subjects = []  # (center, neighborhood, its black-box unfairness)
    for x in candidates:
        members = knn_neighborhood(x, T, k)
        preds = T.labels[members]
        # a neighborhood whose unfairness is undefined (one group, or under
        # cpa a group lacking a label) is not a subject; the search would
        # reject it with beta > 0
        try:
            base = unfairness_of(preds, metric, T.features[members, T.sensitive_col], labels=preds)
        except (EmptyGroup, UndefinedRate):
            continue
        if base > threshold:
            subjects.append((x, members, base))
    if not subjects:
        raise EmptyCohort(
            "no rejected minority subject has neighborhood unfairness > %g" % threshold
        )
    per_subject = [
        rationalize_local(
            T,
            x,
            members,
            base,
            cfgs,
            max_models=max_models,
            min_support=min_support,
            include_negations=include_negations,
            include_sensitive=include_sensitive,
        )
        for x, members, base in subjects
    ]
    reports = []
    for results in zip(*per_subject):
        covered = sum(1 for r in results if r.best_model is not None)
        reports.append(LocalReport(subjects=list(results), coverage=covered / len(results)))
    return reports
