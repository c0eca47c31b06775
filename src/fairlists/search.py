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

Row sets are Python ints, bit r standing for row r.  Each antecedent's
capture is converted once per call; extending a prefix intersects it with
the uncaptured rows and counts each (sensitive, label) cell with
int.bit_count().
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetZero, EmptyGroup, NoAntecedentsAllowed, UndefinedRate, UnknownAntecedent
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
    strict_rates: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.max_length < 0:
            raise ValueError("max_length must be >= 0")


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


def _fairness_bound_applies(cfg):
    return cfg.fairness_bound and cfg.beta > 0.0 and not cfg.metric.needs_labels


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
    if groups is None or not _fairness_bound_applies(cfg):
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


def _confusion_increment(conf, counts, q):
    """Add rows counted by code 2*s + y, all predicted q, to the confusion
    counts (tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1)."""
    c0, c1, c2, c3 = counts
    tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1 = conf
    if q == 1:
        return (tp0 + c1, fp0 + c0, tn0, fn0, tp1 + c3, fp1 + c2, tn1, fn1)
    return (tp0, fp0, tn0 + c0, fn0 + c1, tp1, fp1, tn1 + c2, fn1 + c3)


def _equivalence_mask(capture_list, labels):
    """Rows whose label is the minority label (0 on a tie) of their class of
    rows indistinguishable by every available antecedent; each class thus
    contributes its minority-label count."""
    n, m = capture_list[0].shape[0], len(capture_list)
    width = -(-m // 8)
    bits = np.zeros((n, 8 * width), dtype=bool)
    bits[:, :m] = np.stack(capture_list, axis=1)
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


def corels_optimize(ants, d, cfg, allowed=None, forbidden=frozenset()):
    """Best rule list over the allowed antecedents, up to cfg.max_length.

    `allowed`/`forbidden` restrict the usable antecedent ids (for the K-best
    enumeration layer).  The result is certified optimal unless the node
    budget ran out first.
    """
    if cfg.node_budget < 1:
        raise BudgetZero("node_budget must be >= 1")
    by_id = ants.by_id()
    if allowed is None:
        allowed = by_id.keys()
    ids = sorted(set(allowed) - set(forbidden))
    for i in ids:
        if i not in by_id:
            raise UnknownAntecedent("antecedent id %d not in mined set" % i)
    if not ids:
        raise NoAntecedentsAllowed("no antecedents left to search over")

    n = d.n_rows
    labels = d.labels != 0
    sens = d.sensitive != 0
    # code_masks[2*s + y] holds the rows of sensitive group s with label y
    code_masks = [_bits(~sens & ~labels), _bits(~sens & labels), _bits(sens & ~labels), _bits(sens & labels)]
    tot0, tot1, tot2, tot3 = (m.bit_count() for m in code_masks)
    _, m1, m2, m3 = code_masks
    n0 = tot0 + tot1
    n1 = tot2 + tot3
    metric_ok = n0 > 0 and n1 > 0
    beta = cfg.beta
    if beta > 0.0:
        if not metric_ok:
            raise EmptyGroup("sensitive groups have sizes (%d, %d)" % (n0, n1))
        if cfg.metric is MetricKind.CONDITIONAL_PROCEDURE_ACCURACY and cfg.strict_rates:
            # the TPR/TNR denominators depend only on the data, not the prefix
            if min(tot0, tot1, tot2, tot3) == 0:
                raise UndefinedRate("a group lacks positive or negative labels")

    if d is ants.source_dataset:
        masks = [by_id[i].capture for i in ids]
    else:
        masks = [by_id[i].satisfies(d.features) for i in ids]
    caps = dict(zip(ids, map(_bits, masks)))
    eq_mask = _equivalence_mask(masks, labels) if cfg.equivalent_points else 0
    eq_total = float(eq_mask.bit_count())
    # support bound: with beta == 0 a rule must capture at least lam*n new rows
    min_new = cfg.lam * n - 1e-12 if cfg.support_bound and beta == 0.0 else 0
    perm_seen = {}
    node_gap = confusion_formula(cfg.metric)
    strict = cfg.strict_rates and beta > 0.0
    fair_bound = _fairness_bound_applies(cfg)

    def complete_eval(K, err, conf):
        """Close a K-rule prefix with the majority default of its uncaptured
        rows, whose counts by code are the totals minus the captured ones."""
        tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1 = conf
        rem = (tot0 - fp0 - tn0, tot1 - tp0 - fn0, tot2 - fp1 - tn1, tot3 - tp1 - fn1)
        rem_pos = rem[1] + rem[3]
        rem_neg = rem[0] + rem[2]
        q0 = 1 if rem_pos > rem_neg else 0
        err_total = err + (rem_neg if q0 == 1 else rem_pos)
        conf_total = _confusion_increment(conf, rem, q0)
        misc = err_total / n
        unf = node_gap(n0, n1, conf_total, strict) if beta > 0.0 else None
        obj = objective(misc, unf, K, cfg)
        return obj, misc, unf, q0, conf_total

    # a node: (seq, conseqs, uncaptured rows, captured errors, confusion
    # counts of the captured rows, captured inevitable-error weight, captured
    # rows predicted positive)
    root = ((), (), (1 << n) - 1, 0, (0,) * 8, 0.0, 0)
    level = [root]
    nodes_evaluated = 1
    best_obj, misc, unf, q0, conf_total = complete_eval(0, 0, root[4])
    best = (best_obj, misc, unf, (), (), q0, conf_total)

    # budget exhaustion while expandable work remains loses the certificate
    out_of_budget = nodes_evaluated >= cfg.node_budget and cfg.max_length > 0

    depth = 0
    while level and depth < cfg.max_length and not out_of_budget:
        next_level = []
        for seq, conseqs, unc, err, conf, eqw, posmask in level:
            if out_of_budget:
                break
            groups = None
            if fair_bound:
                tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1 = conf
                groups = (
                    (n0, tp0 + fp0, n0 - tp0 - fp0 - tn0 - fn0, tot1 - tp0 - fn0),
                    (n1, tp1 + fp1, n1 - tp1 - fp1 - tn1 - fn1, tot3 - tp1 - fn1),
                )
            if lower_bound(err, eq_total - eqw, len(seq), n, cfg, groups) >= best_obj:
                continue
            for j in ids:
                if j in seq:
                    continue
                if nodes_evaluated >= cfg.node_budget:
                    out_of_budget = True
                    break
                new = caps[j] & unc
                new_count = new.bit_count()
                if new_count < min_new:
                    continue
                c1 = (new & m1).bit_count()
                c2 = (new & m2).bit_count()
                c3 = (new & m3).bit_count()
                c0 = new_count - c1 - c2 - c3
                pos = c1 + c3
                neg = c0 + c2
                q = 1 if pos > neg else 0
                child_seq = seq + (j,)
                child_err = err + (neg if q == 1 else pos)
                child_pos = posmask | new if q == 1 else posmask
                if cfg.permutation_bound:
                    key = frozenset(child_seq)
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
                child_conseqs = conseqs + (q,)
                child_conf = _confusion_increment(conf, (c0, c1, c2, c3), q)
                nodes_evaluated += 1
                obj, misc, unf, q0, conf_total = complete_eval(len(child_seq), child_err, child_conf)
                if obj < best_obj:
                    best_obj = obj
                    best = (obj, misc, unf, child_seq, child_conseqs, q0, conf_total)
                if len(child_seq) < cfg.max_length:
                    child_eqw = eqw + float((new & eq_mask).bit_count())
                    next_level.append(
                        (child_seq, child_conseqs, unc ^ new, child_err, child_conf, child_eqw, child_pos)
                    )
        level = next_level
        depth += 1

    certified = not out_of_budget

    obj, misc, unf, seq, conseqs, q0, conf_total = best
    if unf is None:
        unf = node_gap(n0, n1, conf_total, strict) if metric_ok else math.nan
    return SearchResult(
        best=RuleList(rules=tuple(zip(seq, conseqs)), default=q0),
        objective=obj,
        misc=misc,
        unfairness=unf,
        nodes_evaluated=nodes_evaluated,
        certified_optimal=certified,
    )
