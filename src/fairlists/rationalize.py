"""Rationalization drivers: enumerate fairness-regularized surrogates of a
black-box classifier, globally over a suing group or locally around each
subject of a cohort of rejected minority rows, on its nearest neighbors, and
select the model to show an auditor.

The black box is seen only through its outcomes: every driver reads the
rows it explains as a Dataset whose labels are the black box's predictions
(`Dataset.with_labels` aligns them), and fits surrogates to those labels.

Every enumerated surrogate is a SearchResult (`.best` is its rule list; its
id is its index in the list of models).  A selection keeps only surrogates
at most half as unfair as the black box on the same rows.

A run sweeps configs over fixed rows, so the drivers do the work that no
config changes once.  `rationalize_global` selects for one (lambda, beta)
cell of a grid: its caller prepares the SearchProblem, works out the black
box's unfairness (the baseline) once, enumerates every cell at once with
`enumerate_cells` so that the cells share their searches, and passes the
cells one `audits` dict, so that each distinct selected list is audited and
tested once, by the first cell that selects it.
`local_cohort` takes every config of the run: it picks the cohort and
computes each candidate's neighborhood and black-box baseline once, and
`rationalize_local` mines each subject's neighborhood, prepares its search
and enumerates every config's models once, in one `enumerate_cells` call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .audit import InfluenceRanking, flip_influence, rule_list_oracle
from .dataset import DEFAULT_MIN_SUPPORT, captures, decode_binary, decode_clean, mine_antecedents, open_text
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
    selected: int  # model id, or None
    # flip influence of the selected model; cells that share `audits` and
    # select the same list share this object, so it is read-only
    selected_ranking: InfluenceRanking = None
    test_fidelity: float = None
    test_unfairness: float = None


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


def select_best_global(models, baseline):
    """The id of the model to show: among `models` at most half as unfair as
    the black box (`baseline`), the one with the highest fidelity (ties:
    lower objective, then lower id); None when no model qualifies."""
    half = baseline / 2.0
    candidates = [
        (-m.fidelity, m.objective, i)
        for i, m in enumerate(models)
        if not math.isnan(m.unfairness) and m.unfairness <= half
    ]
    if not candidates:
        return None
    return min(candidates)[2]


def rationalize_global(problem, cfg, models, baseline, test_set=None, audits=None):
    """Model rationalization over a suing group, for one (lambda, beta)
    cell.

    `problem` is the SearchProblem of the suing group labeled with the black
    box's predictions (`problem.d`) and of the antecedents mined on it,
    `models` the surrogates enumerated over it under `cfg` (a grid
    enumerates every cell at once with `enumerate_cells`), and `baseline`
    the black box's unfairness on `problem.d` under `cfg.metric`.  Selects
    a model (`select_best_global`) and audits it on `problem.d`, flipping
    only the columns its antecedents read; when a test set, also labeled
    with the black box's predictions, is supplied, the selection is
    evaluated there too.

    `audits`, a dict keyed by the selected rule list, lets the cells of a
    grid audit and test each distinct selection once: the calls that share
    it must share `problem`, `test_set` and the metric.
    """
    selected = select_best_global(models, baseline)
    if selected is None:
        return GlobalReport(selected=None)
    chosen = models[selected].best
    audits = {} if audits is None else audits
    audit = audits.get(chosen)
    if audit is None:
        audit = audits[chosen] = _audit_selection(problem, chosen, cfg.metric, test_set)
    return GlobalReport(selected, *audit)


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

    The sensitive column is excluded from the distance.  The center is put
    at distance -1, so it always belongs to its own neighborhood, and one
    stable sort breaks the other ties by ascending row position.
    """
    _check_k(k, T.n_rows)
    cols = [c for c in range(T.n_cols) if c != T.sensitive_col]
    feats = T.features[:, cols]
    dist = np.count_nonzero(feats != feats[x], axis=1)
    dist[x] = -1
    return np.sort(np.argsort(dist, kind="stable")[:k])


def _check_k(k, n):
    """Reject a neighborhood size `k` outside [1, n] for n rows."""
    if not 1 <= k <= n:
        raise KOutOfRange("k", "k=%d outside [1, %d]" % (k, n))


def default_k(n, frac=DEFAULT_NEIGHBORHOOD_FRACTION):
    """Neighborhood size: the fraction `frac` of the n rows being explained,
    rounded up, and at least one row."""
    return max(1, math.ceil(frac * n))


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
    # whether each antecedent captures the subject, read off its row once
    hits = dict(zip([a.id for a in ants], captures(ants, nb_data.features[center_pos : center_pos + 1])[:, 0].tolist()))
    results = []
    for models in enumerate_cells(SearchProblem(ants, nb_data), cfgs, max_models):
        # among the models whose first firing rule, else the default, gives
        # the black box's outcome at the subject; a one-group neighborhood
        # has undefined unfairness, ranked last
        unf, neg_fidelity, _, best = min(
            (
                (math.inf if math.isnan(m.unfairness) else m.unfairness, -m.fidelity, i, m.best)
                for i, m in enumerate(models)
                if next((q for a, q in m.best.rules if hits[a]), m.best.default) == target
            ),
            default=(math.nan, math.nan, None, None),
        )
        results.append(
            SubjectResult(
                row_id=x,
                best_model=best,
                best_unfairness=unf,
                best_fidelity=-neg_fidelity,
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
    `threshold` under the configs' metric, which they must share.  A `k`
    outside [1, n] is rejected before the cohort is picked.  Only the
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
    _check_k(k, T.n_rows)
    if minority_value is None:
        ones = int(T.sensitive.sum())
        minority_value = 1 if ones <= T.n_rows - ones else 0
    candidates = np.flatnonzero((T.labels == negative_class) & (T.sensitive == minority_value)).tolist()
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
