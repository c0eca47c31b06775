"""Independent reference implementations used by the test suite.

Everything here is written the slow, obvious way (per-row and per-cell
loops, full enumeration of rule-list structures) so it can serve as an
oracle for the optimized library code.  Nothing in this module imports from the search or
enumeration modules except the plain data containers; the enumeration
oracle is handed the search it calls.
"""

import csv
import heapq
import itertools

import numpy as np

from fairlists.dataset import ONE_HOT_CATEGORY_CAP, Dataset, mine_antecedents
from fairlists.errors import (
    EmptyFile,
    InvalidValue,
    LengthMismatch,
    MissingColumn,
    NonBinaryCell,
    RepeatedColumn,
    SingleCategory,
    TooManyCategories,
)
from fairlists.metrics import MetricKind
from fairlists.rules import RuleList, canonical_form


def naive_holds(ant, row):
    """Whether the literal `ant` holds on the feature row `row`."""
    bit = bool(row[ant.feature])
    return (not bit) if ant.negated else bit


def naive_capture(ant, features):
    """The bool mask of the rows of `features` that `ant` captures, row by row."""
    return np.array([naive_holds(ant, row) for row in features], dtype=bool)


def naive_predict(rl, ants_by_id, features):
    """Row-by-row first-match evaluation from the antecedent definitions."""
    n = features.shape[0]
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        row = features[i]
        value = rl.default
        for a, q in rl.rules:
            if naive_holds(ants_by_id[a], row):
                value = q
                break
        out[i] = value
    return out


def naive_unfairness(kind, preds, labels, s, strict=True):
    """Loop-based group metric computation."""
    groups = {0: [], 1: []}
    for i in range(len(preds)):
        groups[int(s[i])].append(i)
    if not groups[0] or not groups[1]:
        raise ZeroDivisionError("empty sensitive group")

    def pos_rate(rows):
        return sum(int(preds[i]) for i in rows) / len(rows)

    if kind is MetricKind.DEMOGRAPHIC_PARITY:
        return abs(pos_rate(groups[1]) - pos_rate(groups[0]))

    def acc(rows):
        return sum(1 for i in rows if int(preds[i]) == int(labels[i])) / len(rows)

    if kind is MetricKind.OVERALL_ACCURACY_EQUALITY:
        return abs(acc(groups[1]) - acc(groups[0]))

    def rate(rows, label_value):
        sel = [i for i in rows if int(labels[i]) == label_value]
        if not sel:
            if strict:
                raise ZeroDivisionError("undefined conditional rate")
            return None
        return sum(1 for i in sel if int(preds[i]) == label_value) / len(sel)

    gaps = []
    for label_value in (1, 0):
        r0 = rate(groups[0], label_value)
        r1 = rate(groups[1], label_value)
        gaps.append(0.0 if r0 is None or r1 is None else abs(r1 - r0))
    return max(gaps)


def naive_objective(misc, unf, K, lam, beta):
    value = (1.0 - beta) * misc + lam * K
    if beta > 0.0:
        value += beta * unf
    return value


def evaluate_sequence(seq, caps, labels, s, cfg):
    """Complete a prefix (ordered antecedent ids) into a rule list using the
    majority-consequent policy, and score it.

    Returns (objective, misc, unfairness, RuleList).
    """
    n = labels.shape[0]
    claimed = np.zeros(n, dtype=bool)
    preds = np.empty(n, dtype=np.uint8)
    conseqs = []
    errors = 0
    for a in seq:
        newly = caps[a] & ~claimed
        pos = int(np.count_nonzero(labels[newly]))
        neg = int(np.count_nonzero(newly)) - pos
        q = 1 if pos > neg else 0
        conseqs.append(q)
        preds[newly] = q
        errors += neg if q == 1 else pos
        claimed |= newly
    rest = ~claimed
    pos = int(np.count_nonzero(labels[rest]))
    neg = int(np.count_nonzero(rest)) - pos
    q0 = 1 if pos > neg else 0
    preds[rest] = q0
    errors += neg if q0 == 1 else pos
    misc = errors / n
    unf = naive_unfairness(cfg.metric, preds, labels, s)
    obj = naive_objective(misc, unf, len(seq), cfg.lam, cfg.beta)
    rl = RuleList(rules=tuple(zip(seq, conseqs)), default=q0)
    return obj, misc, unf, rl


def all_sequences(ids, max_length):
    """Every ordered antecedent sequence up to max_length, in the search's
    tie order: shorter first, then lexicographic."""
    ids = sorted(ids)
    for k in range(max_length + 1):
        for seq in itertools.permutations(ids, k):
            yield seq


def exhaustive_best(ants, d, cfg, allowed=None):
    """Brute-force optimum with the library's tie policy (first strict
    improvement over shorter-then-lexicographic order wins)."""
    ids = sorted(allowed if allowed is not None else [a.id for a in ants])
    caps = {a.id: naive_capture(a, d.features) for a in ants}
    labels = d.labels != 0
    s = d.sensitive
    best = None
    for seq in all_sequences(ids, cfg.max_length):
        obj, misc, unf, rl = evaluate_sequence(seq, caps, labels, s, cfg)
        if best is None or obj < best[0]:
            best = (obj, misc, unf, rl)
    return best


def subset_optima_kbest(ants, d, cfg, kmax):
    """The k best distinct rule lists among {optimum over S : S a subset of
    the antecedents, the empty set included}, which is exactly the space the
    Lawler branching can reach.

    Returns a list of (objective, canonical_form) sorted by objective, then
    shorter, then lexicographic id sequence.
    """
    ids = sorted(a.id for a in ants)
    pos_of = {a: i for i, a in enumerate(ids)}
    caps = {a.id: naive_capture(a, d.features) for a in ants}
    labels = d.labels != 0
    s = d.sensitive
    scored = []
    for seq in all_sequences(ids, cfg.max_length):
        obj, misc, unf, rl = evaluate_sequence(seq, caps, labels, s, cfg)
        mask = 0
        for a in seq:
            mask |= 1 << pos_of[a]
        scored.append((obj, len(seq), seq, mask, rl))
    scored.sort(key=lambda t: (t[0], t[1], t[2]))
    distinct = {}
    for bits in range(1 << len(ids)):
        for obj, _, _, mask, rl in scored:
            if mask & ~bits == 0:
                key = canonical_form(rl)
                if key not in distinct:
                    distinct[key] = (obj, key, rl)
                break
    out = sorted(distinct.values(), key=lambda t: (t[0], t[2].K, t[2].antecedent_ids))
    return [(obj, key) for obj, key, _ in out[:kmax]]


def same_kbest(got, want_all, tol=1e-9):
    """Compare an emitted (objective, canonical) prefix against the full
    sorted oracle list.

    Objective sequences must agree within tol.  Complete equal-objective tie
    groups must match as sets; the final group, when the emission cutoff
    truncates it, only needs to be a subset of the oracle's full tie class.
    """
    want = want_all[: len(got)]
    if len(got) != len(want):
        return False
    for (go, _), (wo, _) in zip(got, want):
        if abs(go - wo) > tol:
            return False
    i = 0
    while i < len(got):
        j = i
        while j < len(got) and abs(got[j][0] - got[i][0]) <= tol:
            j += 1
        got_set = {c for _, c in got[i:j]}
        if j < len(got):
            if got_set != {c for _, c in want[i:j]}:
                return False
        else:
            full = {c for o, c in want_all if abs(o - got[i][0]) <= tol}
            if not got_set <= full:
                return False
        i = j
    return True


def naive_enumerate_models(problem, cfg, max_models, search):
    """Lawler's K-best loop that calls `search(problem, cfg, allowed=...)`
    (the library's `corels_optimize`, passed in) on every subproblem, never
    reusing an earlier optimum.  Returns the emitted SearchResults."""
    counter = itertools.count()
    root = search(problem, cfg)
    heap = [(root.objective, next(counter), root, frozenset(problem.captures), frozenset())]
    emitted = []
    seen = set()
    while heap:
        _, _, result, allowed, forbidden = heapq.heappop(heap)
        key = canonical_form(result.best)
        if key not in seen:
            seen.add(key)
            emitted.append(result)
        if len(emitted) >= max_models:
            break
        forbidden = set(forbidden)
        for t in result.best.antecedent_ids:
            if t in forbidden:
                continue
            child_allowed = allowed - {t}
            child = search(problem, cfg, allowed=child_allowed)
            heapq.heappush(heap, (child.objective, next(counter), child, child_allowed, frozenset(forbidden)))
            forbidden.add(t)
    return emitted


def naive_equivalence_weights(capture_list, labels):
    """Per-row weight summing, over each class of rows indistinguishable by
    every capture in the list, to the class's minority-label count (label 0
    on a tie).  With no capture every row is in one class."""
    n = labels.shape[0]
    packed = np.packbits(np.array(capture_list, dtype=bool).reshape(-1, n).T, axis=1)
    classes = {}
    for r in range(n):
        classes.setdefault(packed[r].tobytes(), []).append(r)
    weights = np.zeros(n)
    for rows in classes.values():
        rows = np.array(rows)
        c1 = int(np.count_nonzero(labels[rows]))
        c0 = rows.shape[0] - c1
        minority = 1 if c1 < c0 else 0
        weights[rows[labels[rows] == minority]] = 1.0
    return weights


def naive_layout(d):
    """The bit of each row of `d` in a SearchProblem's row layout, row by
    row, and the layout's word count: the rows of code 2*s + y, code by
    code, each code's rows in row order from the first bit of a run of
    whole 64-bit words of its own, at least one."""
    codes = [2 * int(s != 0) + int(y != 0) for s, y in zip(d.sensitive, d.labels)]
    bit_of = [None] * len(codes)
    word = 0
    for code in range(4):
        rows = [r for r, c in enumerate(codes) if c == code]
        for k, r in enumerate(rows):
            bit_of[r] = 64 * word + k
        word += max(1, -(-len(rows) // 64))
    return bit_of, word


def naive_row_set(rows, bit_of):
    """The row-set int of the rows flagged in the bool vector `rows`, each
    row r at bit bit_of[r]."""
    return sum(1 << bit_of[r] for r, hit in enumerate(rows) if hit)


# the metric of a seeded trial i is TRIAL_METRICS[i % 4]; dp stands second
# too, where its former alias sp stood, so every trial keeps its config
TRIAL_METRICS = (
    MetricKind.DEMOGRAPHIC_PARITY,
    MetricKind.DEMOGRAPHIC_PARITY,
    MetricKind.OVERALL_ACCURACY_EQUALITY,
    MetricKind.CONDITIONAL_PROCEDURE_ACCURACY,
)


def random_instance(rng, max_rows=64, max_feature_cols=8, n_rows=None):
    """A small random dataset plus mined antecedents for the oracle suite.

    The row count is `n_rows` when given, else drawn from [16, max_rows].

    The first four rows carry every (sensitive, label) combination so both
    groups are populated and every conditional-rate denominator is nonzero.
    Negations are off and min_support is 0, so there is one antecedent per
    non-sensitive feature column (minus capture duplicates).
    """
    n = int(rng.integers(16, max_rows + 1)) if n_rows is None else n_rows
    m = int(rng.integers(4, max_feature_cols + 1))
    feats = (rng.random((n, m + 1)) < rng.uniform(0.2, 0.8, size=m + 1)).astype(np.uint8)
    labels = (rng.random(n) < 0.5).astype(np.uint8)
    forced = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i, (sv, yv) in enumerate(forced):
        feats[i, m] = sv
        labels[i] = yv
    d = Dataset(
        features=feats,
        feature_names=["c%d" % j for j in range(m)] + ["s"],
        sensitive_col=m,
        labels=labels,
    )
    ants = mine_antecedents(d, min_support=0.0, include_negations=False)
    return d, ants


def per_row_oracle(row_fn):
    """An oracle that calls `row_fn` on each row of its matrix in turn;
    a row on which `row_fn` raises KeyError predicts -1."""

    def fn(F):
        out = []
        for row in F:
            try:
                out.append(row_fn(row))
            except KeyError:
                out.append(-1)
        return np.array(out, dtype=np.int64)

    return fn


def naive_flip_influence(predict_fn, d):
    """Flip influence with the oracle called twice per feature on every row
    of `d`, with the bit forced to 1 and to 0; a row predicted -1 by either
    flip is skipped.

    Returns (scores, ranks), where a feature with no evaluable row scores
    0.0, or None when no feature has an evaluable row.
    """
    feats = np.asarray(d.features, dtype=np.uint8)
    m = feats.shape[1]
    flipped = feats.copy()
    scores = [0.0] * m
    any_scored = False
    for j in range(m):
        flipped[:, j] = 1
        hi = np.array(predict_fn(flipped), dtype=np.int64)
        flipped[:, j] = 0
        lo = np.array(predict_fn(flipped), dtype=np.int64)
        flipped[:, j] = feats[:, j]
        ok = (hi != -1) & (lo != -1)
        evaluated = int(np.count_nonzero(ok))
        if evaluated == 0:
            continue
        any_scored = True
        scores[j] = int((hi[ok] - lo[ok]).sum()) / evaluated
    if not any_scored:
        return None
    order = sorted(range(m), key=lambda j: (-abs(scores[j]), j))
    ranks = [0] * m
    for r, j in enumerate(order, 1):
        ranks[j] = r
    return scores, ranks


# Ingest: one cell per Python call.


def _naive_binary_cell(value, row, col_name):
    v = value.strip()
    if v == "0":
        return 0
    if v == "1":
        return 1
    raise NonBinaryCell("row %d, column %r: %r is not 0/1" % (row, col_name, value))


def _naive_unique_header(header, path):
    for i, h in enumerate(header):
        if h in header[:i]:
            raise RepeatedColumn("column %r appears more than once in the header of %s" % (h, path))


def naive_load_csv(path, sensitive, label):
    """`load_csv`, parsing and checking each cell on its own."""
    if sensitive == label:
        raise InvalidValue("sensitive", "the sensitive column %r is also the label" % sensitive)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile("%s has no header row" % path)
        header = [h.strip() for h in header]
        _naive_unique_header(header, path)
        if sensitive not in header:
            raise MissingColumn("sensitive column %r not in %s" % (sensitive, path))
        if label not in header:
            raise MissingColumn("label column %r not in %s" % (label, path))
        label_idx = header.index(label)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        feat_rows, label_vals = [], []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                raise NonBinaryCell("row %d has %d cells, expected %d" % (r, len(row), len(header)))
            label_vals.append(_naive_binary_cell(row[label_idx], r, label))
            feat_rows.append(
                [_naive_binary_cell(c, r, header[i]) for i, c in enumerate(row) if i != label_idx]
            )
    if not feat_rows:
        raise EmptyFile("%s has no data rows" % path)
    features = np.array(feat_rows, dtype=np.uint8)
    return Dataset(
        features=features,
        feature_names=feature_names,
        sensitive_col=feature_names.index(sensitive),
        labels=np.array(label_vals, dtype=np.uint8),
    )


def naive_load_predictions(path):
    """`load_predictions`, one line at a time: the predictions, as a uint8
    array."""
    values = []
    header_allowed = True
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            v = line.strip()
            if not v:
                continue
            if v in ("0", "1"):
                values.append(int(v))
            elif not header_allowed or _naive_is_number(v):
                raise LengthMismatch("line %d: prediction cell %r is not 0/1" % (lineno, v))
            header_allowed = False
    return np.array(values, dtype=np.uint8)


def _naive_is_number(v):
    if v.isdigit():
        return True
    try:
        float(v)
        return True
    except ValueError:
        return False


def naive_one_hot(values, col):
    """`one_hot`, comparing each cell with each category."""
    cats = sorted(set(values))
    if len(cats) < 2:
        raise SingleCategory("column %r has a single category" % col)
    if len(cats) > ONE_HOT_CATEGORY_CAP:
        raise TooManyCategories(
            "column %r has %d categories (cap %d)" % (col, len(cats), ONE_HOT_CATEGORY_CAP)
        )
    names, cols = [], []
    for cat in cats:
        names.append("%s_%s" % (col, cat))
        cols.append(np.fromiter((1 if v == cat else 0 for v in values), dtype=np.uint8))
    return names, np.column_stack(cols)


def _naive_to_binary(values, col):
    distinct = sorted(set(values))
    if distinct in (["0"], ["1"], ["0", "1"]):
        return [int(v) for v in values]
    if len(distinct) == 2:
        return [distinct.index(v) for v in values]
    raise NonBinaryCell("column %r is not binary and has %d distinct values" % (col, len(distinct)))


def _naive_bucketize(values, edges, col):
    try:
        nums = np.array([float(v) for v in values])
    except ValueError:
        raise NonBinaryCell("column %r: bucketized column must be numeric" % col)
    names, cols = [], []
    bounds = [-np.inf] + list(edges) + [np.inf]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mask = ((nums > lo) & (nums <= hi)).astype(np.uint8)
        if lo == -np.inf:
            names.append("%s_le_%g" % (col, hi))
        elif hi == np.inf:
            names.append("%s_gt_%g" % (col, lo))
        else:
            names.append("%s_%g_%g" % (col, lo, hi))
        cols.append(mask)
    return names, cols


def naive_apply_recipe(raw_path, recipe):
    """`apply_recipe` cell by cell; returns (header, rows of "0"/"1" strings)."""
    with open(raw_path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyFile("%s has no header row" % raw_path)
        _naive_unique_header(header, raw_path)
        raw_rows = [row for row in reader]
    if not raw_rows:
        raise EmptyFile("%s has no data rows" % raw_path)
    for col in recipe:
        if col not in header:
            raise MissingColumn("recipe column %r not in %s" % (col, raw_path))
    labels = [c for c, d in recipe.items() if d == "label"]
    sensitives = [c for c, d in recipe.items() if d == "sensitive"]
    if len(labels) != 1:
        raise MissingColumn("recipe must mark exactly one label column")
    if len(sensitives) != 1:
        raise MissingColumn("recipe must mark exactly one sensitive column")

    for r, row in enumerate(raw_rows):
        if len(row) != len(header):
            raise NonBinaryCell("row %d has %d cells, expected %d" % (r, len(row), len(header)))
        if any(c.strip() == "" for c in row):
            raise NonBinaryCell("row %d has a missing cell" % r)

    columns = {h: [row[i].strip() for row in raw_rows] for i, h in enumerate(header)}
    out_names, out_sources, out_cols = [], [], []
    for col in header:
        directive = recipe.get(col)
        if directive == "drop":
            continue
        if directive == "onehot":
            names, mat = naive_one_hot(columns[col], col)
            cols = list(mat.T)
        elif isinstance(directive, tuple):
            names, cols = _naive_bucketize(columns[col], directive[1], col)
        else:
            # label, sensitive, or a column already binary
            names = [col]
            cols = [np.array(_naive_to_binary(columns[col], col), dtype=np.uint8)]
        for name in names:
            if name in out_names:
                first = out_sources[out_names.index(name)]
                raise RepeatedColumn(
                    "output column %r comes from column %r and from column %r of %s" % (name, first, col, raw_path)
                )
            out_names.append(name)
            out_sources.append(col)
        out_cols.extend(cols)
    matrix = np.column_stack(out_cols)
    rows = [[str(int(v)) for v in matrix[i]] for i in range(matrix.shape[0])]
    return out_names, rows
