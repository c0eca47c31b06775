"""Exact branch-and-bound minimization of the fairness-regularized rule list
objective

    (1 - beta) * misclassification + beta * unfairness + lam * K

over ordered antecedent prefixes.  Consequents and the default are the
majority label of the rows they decide (ties predict 0).  The prefixes are
explored breadth-first in lexicographic antecedent-id order, so the returned
minimizer is the tie-policy winner: lowest objective, then smallest K, then
lexicographically smallest id sequence.

Bound switches and their validity with beta > 0:
  - lookahead: adds lam to a prefix bound before extending; sound for any
    beta because every strict extension carries at least one extra rule and
    the unfairness term is nonnegative.
  - equivalent_points: rows with identical values under every available
    antecedent receive identical predictions from any rule list, so each such
    class contributes at least its minority-label count to the error; the
    bound charges this to the misclassification component only.
  - support: a rule capturing fewer than lam*n new rows cannot pay its length
    penalty through misclassification alone; with beta > 0 the unfairness
    term could still pay, so the switch is a no-op unless beta == 0.
  - permutation: with beta == 0 a prefix is pruned when a permutation of the
    same antecedents was seen with no more captured errors; with beta > 0
    only permutations with identical per-row captured predictions (hence
    identical completions) are pruned.  That signature is the set of
    captured rows predicted positive: one antecedent set always captures
    the same rows.
  - fairness_bound: for dp and sp with beta > 0, bounds the error and
    unfairness terms together.  The captured rows' predictions are fixed;
    a completion that predicts p_g of group g's uncaptured rows positive errs
    on at least |p_g - y_g| of them (y_g: their label-1 count), and the
    bound is the minimum over real p_g, found greedily.  Sound because it
    relaxes every completion; prefixes are pruned on the larger of it and the
    equivalent-points bound.  A no-op with beta == 0 and for oae and cpa.

Row sets are Python ints, bit r standing for row r.  A SearchProblem holds
the data side of a search, prepared once per problem and shared by every
search over the same antecedents and rows (all the subproblems of a K-best
enumeration, every cell of a (lambda, beta) grid): each antecedent's
capture as an int, and as uint64 words, 64 rows a word, both whole and
within each (sensitive, label) cell.  A parent that passes its bound counts
the new rows of all its children at once, with one np.bitwise_count pass
over those words masked by its uncaptured rows; the words within the
equivalent-points mask are counted too while the children can still be
extended.  A child's rows are formed as an int only where it needs them:
for its positive mask under the beta > 0 permutation signature, and as the
uncaptured rows of a child that is extended further.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetZero, EmptyGroup, InvalidValue, NoAntecedentsAllowed, UndefinedRate, UnknownAntecedent
from .metrics import MetricKind, confusion_formula
from .rules import RuleList

DEFAULT_LAMBDA = 0.005
DEFAULT_MAX_LENGTH = 5
DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SearchConfig:
    lam: float = DEFAULT_LAMBDA
    beta: float = 0.0
    metric: MetricKind = MetricKind.DEMOGRAPHIC_PARITY
    max_length: int = DEFAULT_MAX_LENGTH
    node_budget: int = DEFAULT_NODE_BUDGET
    lookahead: bool = True
    support_bound: bool = True
    permutation_bound: bool = True
    equivalent_points: bool = True
    fairness_bound: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise InvalidValue("lam", "lam must be >= 0, got %r" % (self.lam,))
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidValue("beta", "beta must be in [0, 1], got %r" % (self.beta,))
        if self.max_length < 0:
            raise InvalidValue("max_length", "max_length must be >= 0, got %r" % (self.max_length,))

    @cached_property
    def uses_fairness_bound(self):
        """Whether lower_bound adds the fairness bound: dp or sp with beta > 0
        and the bound on.  Worked out once per config; the search asks on
        every node it bounds."""
        return self.fairness_bound and self.beta > 0.0 and not self.metric.needs_labels


@dataclass(frozen=True)
class SearchResult:
    best: RuleList
    objective: float
    misc: float
    unfairness: float
    nodes_evaluated: int
    certified_optimal: bool

    @property
    def K(self):
        return self.best.K

    @property
    def fidelity(self):
        """Agreement with the training labels."""
        return 1.0 - self.misc


def objective(misc, unf, K, cfg):
    """The regularized objective; reduces to misc + lam*K when beta == 0."""
    value = (1.0 - cfg.beta) * misc + cfg.lam * K
    if cfg.beta > 0.0:
        value += cfg.beta * unf
    return value


def lower_bound(err, eq_rem, K, n, cfg, groups=None):
    """Objective lower bound for every completion of a K-rule prefix over n
    rows that commits `err` errors on its captured rows, with `eq_rem`
    inevitable errors left among the uncaptured rows (0 without the
    equivalent-points bound).

    Without the fairness bound the unfairness contribution is bounded below
    by 0 (it is nonnegative and not monotone under prefix extension), so
    only the error and length terms appear.  With lookahead the bound covers
    strict extensions only.

    `groups` holds, for sensitive groups 0 and 1, (size, captured rows
    predicted positive, uncaptured rows, uncaptured label-1 rows).  A
    completion predicting p_g of group g's uncaptured rows positive errs on
    at least |p_g - y_g| of them, so for dp/sp with beta > 0 the fairness
    bound is the minimum over real p_g of the error and parity terms; the
    larger of the two bounds is returned.
    """
    lb = (1.0 - cfg.beta) * (err + eq_rem) / n + cfg.lam * K
    if cfg.lookahead:
        lb += cfg.lam
    if groups is None or not cfg.uses_fairness_bound:
        return lb
    beta = cfg.beta
    row_cost = (1.0 - beta) / n
    (n0, c0, u0, y0), (n1, c1, u1, y1) = groups
    gap = (c1 + y1) / n1 - (c0 + y0) / n0
    # each move changes one group's positive count, one error per row; from
    # p = y lower the higher rate and raise the lower one, the group whose
    # rate a row moves most (the smaller one) first, while that pays
    if gap > 0:
        moves = ((n1, y1), (n0, u0 - y0))
    else:
        gap = -gap
        moves = ((n1, u1 - y1), (n0, y0))
    extra = 0.0
    for size, room in sorted(moves):
        if gap <= 0.0 or beta / size <= row_cost:
            break
        step = min(room, gap * size)
        extra += step
        gap -= step / size
    fair = row_cost * (err + extra) + beta * max(gap, 0.0) + cfg.lam * K
    if cfg.lookahead:
        fair += cfg.lam
    # slack so that float rounding never lifts the bound above an objective
    return max(lb, fair - 1e-9)


def _bits(mask):
    """A bool row mask as a Python int whose bit r is row r."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _words(masks):
    """Bool row masks, one per row of `masks`, as little-endian uint64 words:
    bit r of a mask is bit r % 64 of its word r // 64."""
    k, n = masks.shape
    padded = np.zeros((k, -(-n // 64) * 64), dtype=bool)
    padded[:, :n] = masks
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _confusion_increment(conf, counts, q):
    """Add rows counted by code 2*s + y, all predicted q, to the confusion
    counts (tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1)."""
    c0, c1, c2, c3 = counts
    tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1 = conf
    if q == 1:
        return (tp0 + c1, fp0 + c0, tn0, fn0, tp1 + c3, fp1 + c2, tn1, fn1)
    return (tp0, fp0, tn0 + c0, fn0 + c1, tp1, fp1, tn1 + c2, fn1 + c3)


def _equivalence_mask(rows, labels):
    """Rows whose label is the minority label (0 on a tie) of their class of
    rows indistinguishable by every available antecedent, given each row's
    capture by each antecedent as the (n, m) bool matrix `rows`; each class
    thus contributes its minority-label count."""
    n, m = rows.shape
    width = -(-m // 8)
    bits = np.zeros((n, 8 * width), dtype=bool)
    bits[:, :m] = rows
    # rows padded to whole bytes pack in one flat call
    packed = np.packbits(bits).reshape(n, width)
    order = np.lexsort(packed.T)
    rows = packed[order]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    size = np.diff(np.r_[starts, order.shape[0]])
    ordered = labels[order]
    minority = 2 * np.add.reduceat(ordered.astype(np.int64), starts) < size
    mask = np.empty_like(labels)
    mask[order] = ordered == np.repeat(minority, size)
    return _bits(mask)


class SearchProblem:
    """The data side of a search over antecedents `ants` on the rows of `d`,
    prepared once and shared by every search over them.

    Evaluates every antecedent on the features of `d` and holds each capture
    as an int (`captures`, by id), the row counts of the four (sensitive,
    label) codes (`totals`), each capture and each capture within each code
    as uint64 words, and the equivalent-points mask of each allowed set,
    computed on first use.
    """

    def __init__(self, ants, d):
        self.ants = ants
        self.d = d
        self._position = {a.id: p for p, a in enumerate(ants.antecedents)}
        features = [a.feature for a in ants.antecedents]
        negated = np.array([a.negated for a in ants.antecedents])
        # (rows, antecedents): whether each antecedent captures each row
        self._rows = (d.features[:, features] != 0) ^ negated
        words = _words(self._rows.T)
        self.captures = {i: int.from_bytes(words[p].tobytes(), "little") for i, p in self._position.items()}
        labels = self._labels = d.labels != 0
        sens = d.sensitive != 0
        # codes[2*s + y] holds the rows of sensitive group s with label y
        codes = np.stack((~sens & ~labels, ~sens & labels, sens & ~labels, sens & labels))
        self.totals = tuple(np.count_nonzero(codes, axis=1).tolist())
        # (words, antecedents) and (words, antecedents, codes) arrays of the
        # captures and of each capture within each code
        self._capture_words = words.T
        self._cell_words = self._capture_words[:, :, None] & _words(codes).T[:, None, :]
        self._equivalence = {}

    def equivalence_mask(self, ids):
        """The equivalent-points mask of the antecedents `ids`, a sorted
        tuple; computed once per distinct tuple."""
        mask = self._equivalence.get(ids)
        if mask is None:
            mask = _equivalence_mask(self._rows[:, [self._position[i] for i in ids]], self._labels)
            self._equivalence[ids] = mask
        return mask

    def word_columns(self, ids, eq_mask):
        """The words a search over the antecedents `ids` counts, one column
        per row set: column 4*p + code holds the capture of ids[p] within
        that code and, when `eq_mask` is nonzero, column 4*len(ids) + p its
        capture within `eq_mask`."""
        at = [self._position[i] for i in ids]
        cells = self._cell_words[:, at].reshape(len(self._cell_words), -1)
        if not eq_mask:
            return cells
        eq_words = np.frombuffer(eq_mask.to_bytes(8 * len(cells), "little"), dtype="<u8")
        return np.concatenate((cells, self._capture_words[:, at] & eq_words[:, None]), axis=1)


def corels_optimize(problem, cfg, allowed=None):
    """Best rule list over the allowed antecedents, up to cfg.max_length.

    `allowed` restricts the usable antecedent ids (for the K-best
    enumeration layer).  The result is certified optimal unless the node
    budget ran out first.
    """
    if cfg.node_budget < 1:
        raise BudgetZero("node_budget", "node_budget must be >= 1, got %r" % (cfg.node_budget,))
    caps = problem.captures
    ids = sorted(caps if allowed is None else set(allowed))
    for i in ids:
        if i not in caps:
            raise UnknownAntecedent("antecedent id %d not in mined set" % i)
    if not ids:
        raise NoAntecedentsAllowed("no antecedents left to search over")

    n = problem.d.n_rows
    tot0, tot1, tot2, tot3 = problem.totals
    n0 = tot0 + tot1
    n1 = tot2 + tot3
    metric_ok = n0 > 0 and n1 > 0
    beta = cfg.beta
    if beta > 0.0:
        if not metric_ok:
            raise EmptyGroup("sensitive groups have sizes (%d, %d)" % (n0, n1))
        if cfg.metric is MetricKind.CONDITIONAL_PROCEDURE_ACCURACY:
            # the TPR/TNR denominators depend only on the data, not the prefix
            if min(tot0, tot1, tot2, tot3) == 0:
                raise UndefinedRate("a group lacks positive or negative labels")

    max_length = cfg.max_length
    budget = cfg.node_budget
    eq_mask = problem.equivalence_mask(tuple(ids)) if cfg.equivalent_points else 0
    eq_total = float(eq_mask.bit_count())
    deep_cols = problem.word_columns(ids, eq_mask if max_length > 1 else 0)
    n_cells = 4 * len(ids)
    # parents of the last level pass no inevitable errors on, so they count
    # the code columns alone
    leaf_cols = deep_cols[:, :n_cells]
    n_bytes = 8 * len(deep_cols)
    # the eq counts of a parent whose eq columns are not counted
    no_eq = [0] * len(ids)
    # a set of antecedents is a bit mask over their positions in ids
    bits = [1 << p for p in range(len(ids))]
    full = (1 << n) - 1
    outside = {j: full ^ caps[j] for j in ids}
    # support bound: with beta == 0 a rule must capture at least lam*n new rows
    min_new = cfg.lam * n - 1e-12 if cfg.support_bound and beta == 0.0 else 0
    permutation = cfg.permutation_bound
    perm_seen = {}
    # with beta > 0 the permutation bound compares captured positive rows
    track_pos = permutation and beta > 0.0
    node_gap = confusion_formula(cfg.metric)
    strict = beta > 0.0
    fair_bound = cfg.uses_fairness_bound
    miss_weight = 1.0 - beta

    # the root closes with the majority default of every row
    q0 = 1 if tot1 + tot3 > tot0 + tot2 else 0
    misc = (tot0 + tot2 if q0 == 1 else tot1 + tot3) / n
    unf = node_gap(n0, n1, _confusion_increment((0,) * 8, problem.totals, q0), strict) if beta > 0.0 else None
    best_obj = objective(misc, unf, 0, cfg)
    # the best list: objective, misc, unfairness, its prefix's ids and
    # consequents, its default, the prefix's confusion counts and the
    # uncaptured rows per code
    best = (best_obj, misc, unf, (), (), q0, (0,) * 8, problem.totals)
    nodes_evaluated = 1

    # a node: (seq, conseqs, the set of seq, uncaptured rows, captured
    # errors, confusion counts (tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1) of
    # the captured rows, captured inevitable-error weight, captured rows
    # predicted positive)
    level = [((), (), 0, full, 0, (0,) * 8, 0.0, 0)]

    # budget exhaustion while expandable work remains loses the certificate
    out_of_budget = nodes_evaluated >= budget and max_length > 0

    depth = 0
    while level and depth < max_length and not out_of_budget:
        next_level = []
        K = depth + 1  # the rule count of every child of this level
        lam_k = cfg.lam * K
        expand = K < max_length
        cols = deep_cols if expand else leaf_cols
        eq_counted = cols.shape[1] > n_cells
        for seq, conseqs, used, unc, err, conf, eqw, posmask in level:
            if out_of_budget:
                break
            tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1 = conf
            # the uncaptured rows per code
            u0 = tot0 - fp0 - tn0
            u1 = tot1 - tp0 - fn0
            u2 = tot2 - fp1 - tn1
            u3 = tot3 - tp1 - fn1
            groups = ((n0, tp0 + fp0, u0 + u1, u1), (n1, tp1 + fp1, u2 + u3, u3)) if fair_bound else None
            if lower_bound(err, eq_total - eqw, depth, n, cfg, groups) >= best_obj:
                continue
            # count every child's new rows per code, and within eq_mask, at once
            unc_words = np.frombuffer(unc.to_bytes(n_bytes, "little"), dtype="<u8")
            counts = np.bitwise_count(cols & unc_words[:, None]).sum(axis=0)
            cells = counts[:n_cells].reshape(-1, 4).tolist()
            eqs = counts[n_cells:].tolist() if eq_counted else no_eq
            for j, bit, (c0, c1, c2, c3), eq in zip(ids, bits, cells, eqs):
                if used & bit:
                    continue
                if nodes_evaluated >= budget:
                    out_of_budget = True
                    break
                if c0 + c1 + c2 + c3 < min_new:
                    continue
                q = 1 if c1 + c3 > c0 + c2 else 0
                child_err = err + (c0 + c2 if q == 1 else c1 + c3)
                child_pos = posmask | (caps[j] & unc) if q == 1 and track_pos else posmask
                child_used = used | bit
                if permutation:
                    key = child_used
                    if beta == 0.0:
                        seen_err = perm_seen.get(key)
                        if seen_err is not None and seen_err <= child_err:
                            continue
                        perm_seen[key] = child_err
                    else:
                        # one antecedent set always captures the same rows, so
                        # equal positive masks mean equal per-row predictions
                        key = (key, child_pos)
                        if key in perm_seen:
                            continue
                        perm_seen[key] = child_err
                nodes_evaluated += 1
                child_seq = seq + (j,)
                if q == 1:
                    child_conf = (tp0 + c1, fp0 + c0, tn0, fn0, tp1 + c3, fp1 + c2, tn1, fn1)
                else:
                    child_conf = (tp0, fp0, tn0 + c0, fn0 + c1, tp1, fp1, tn1 + c2, fn1 + c3)
                # close with the majority default of the uncaptured rows
                r0 = u0 - c0
                r1 = u1 - c1
                r2 = u2 - c2
                r3 = u3 - c3
                q0 = 1 if r1 + r3 > r0 + r2 else 0
                misc = (child_err + (r0 + r2 if q0 == 1 else r1 + r3)) / n
                obj = miss_weight * misc + lam_k
                unf = None
                # beta * unf >= 0 cannot lower obj, so a child that does not
                # beat the incumbent without it is not scored
                if beta > 0.0 and obj < best_obj:
                    # _confusion_increment(child_conf, (r0, r1, r2, r3), q0)
                    ktp0, kfp0, ktn0, kfn0, ktp1, kfp1, ktn1, kfn1 = child_conf
                    if q0 == 1:
                        conf_total = (ktp0 + r1, kfp0 + r0, ktn0, kfn0, ktp1 + r3, kfp1 + r2, ktn1, kfn1)
                    else:
                        conf_total = (ktp0, kfp0, ktn0 + r0, kfn0 + r1, ktp1, kfp1, ktn1 + r2, kfn1 + r3)
                    unf = node_gap(n0, n1, conf_total, strict)
                    obj += beta * unf
                if obj < best_obj:
                    best_obj = obj
                    best = (obj, misc, unf, child_seq, conseqs + (q,), q0, child_conf, (r0, r1, r2, r3))
                if expand:
                    child_unc = unc & outside[j]
                    child = (child_seq, conseqs + (q,), child_used, child_unc, child_err, child_conf, eqw + eq, child_pos)
                    next_level.append(child)
        level = next_level
        depth += 1

    certified = not out_of_budget

    obj, misc, unf, seq, conseqs, q0, conf, rem = best
    if unf is None:
        unf = node_gap(n0, n1, _confusion_increment(conf, rem, q0), strict) if metric_ok else math.nan
    return SearchResult(
        best=RuleList(rules=tuple(zip(seq, conseqs)), default=q0),
        objective=obj,
        misc=misc,
        unfairness=unf,
        nodes_evaluated=nodes_evaluated,
        certified_optimal=certified,
    )
