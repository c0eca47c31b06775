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
    identical completions) are pruned.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetZero, EmptyGroup, NoAntecedentsAllowed, UndefinedRate, UnknownAntecedent
from .metrics import GroupCounts, MetricKind, unfairness
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


def objective(misc, unf, K, cfg):
    """The regularized objective; reduces to misc + lam*K when beta == 0."""
    value = (1.0 - cfg.beta) * misc + cfg.lam * K
    if cfg.beta > 0.0:
        value += cfg.beta * unf
    return value


def lower_bound(err, eq_rem, K, n, cfg):
    """Objective lower bound for every completion of a K-rule prefix over n
    rows that commits `err` errors on its captured rows, with `eq_rem`
    inevitable errors left among the uncaptured rows (0 without the
    equivalent-points bound).

    The unfairness contribution is bounded below by 0 (it is nonnegative and
    not monotone under prefix extension), so only the error and length terms
    appear.  With lookahead the bound covers strict extensions only.
    """
    lb = (1.0 - cfg.beta) * (err + eq_rem) / n + cfg.lam * K
    if cfg.lookahead:
        lb += cfg.lam
    return lb


class _Node:
    __slots__ = ("seq", "conseqs", "captured", "err", "cap_counts", "conf", "eqw", "predsig")

    def __init__(self, seq, conseqs, captured, err, cap_counts, conf, eqw, predsig):
        self.seq = seq
        self.conseqs = conseqs
        self.captured = captured
        self.err = err
        self.cap_counts = cap_counts  # int array(4): counts by code 2*s + y
        self.conf = conf  # int array(8): tp0,fp0,tn0,fn0,tp1,fp1,tn1,fn1
        self.eqw = eqw  # inevitable-error weight already captured
        self.predsig = predsig  # uint8 per-row predictions, 2 = uncaptured


def _confusion_increment(conf, counts, q):
    out = conf.copy()
    if q == 1:
        out[0] += counts[1]  # tp0
        out[1] += counts[0]  # fp0
        out[4] += counts[3]  # tp1
        out[5] += counts[2]  # fp1
    else:
        out[2] += counts[0]  # tn0
        out[3] += counts[1]  # fn0
        out[6] += counts[2]  # tn1
        out[7] += counts[3]  # fn1
    return out


def _group_counts_from_conf(n0, n1, conf):
    return GroupCounts(
        n=(n0, n1),
        pos=(int(conf[0] + conf[1]), int(conf[4] + conf[5])),
        tp=(int(conf[0]), int(conf[4])),
        fp=(int(conf[1]), int(conf[5])),
        tn=(int(conf[2]), int(conf[6])),
        fn=(int(conf[3]), int(conf[7])),
    )


def _equivalence_weights(capture_list, labels):
    """Per-row weight summing, over each class of rows indistinguishable by
    every available antecedent, to the class's minority-label count."""
    n = labels.shape[0]
    if not capture_list:
        mat = np.zeros((n, 1), dtype=bool)
    else:
        mat = np.stack(capture_list, axis=1)
    packed = np.packbits(mat, axis=1)
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
    codes = (2 * sens.astype(np.uint8) + labels.astype(np.uint8)).astype(np.intp)
    tot = np.bincount(codes, minlength=4)
    n0 = int(tot[0] + tot[1])
    n1 = int(tot[2] + tot[3])
    metric_ok = n0 > 0 and n1 > 0
    beta = cfg.beta
    lam = cfg.lam
    if beta > 0.0:
        if not metric_ok:
            raise EmptyGroup("sensitive groups have sizes (%d, %d)" % (n0, n1))
        if cfg.metric is MetricKind.CONDITIONAL_PROCEDURE_ACCURACY and cfg.strict_rates:
            # the TPR/TNR denominators depend only on the data, not the prefix
            if min(tot[0], tot[1], tot[2], tot[3]) == 0:
                raise UndefinedRate("a group lacks positive or negative labels")

    if d is ants.source_dataset:
        caps = {i: by_id[i].capture for i in ids}
    else:
        caps = {i: by_id[i].satisfies(d.features) for i in ids}
    cap_codes = {i: codes[caps[i]] for i in ids}

    eq_weights = None
    eq_total = 0.0
    if cfg.equivalent_points:
        eq_weights = _equivalence_weights([caps[i] for i in ids], labels)
        eq_total = float(eq_weights.sum())

    track_sig = cfg.permutation_bound and beta > 0.0
    perm_seen = {}

    def node_unfairness(conf_total):
        if not metric_ok:
            return math.nan
        gc = _group_counts_from_conf(n0, n1, conf_total)
        return unfairness(cfg.metric, gc, strict=cfg.strict_rates and beta > 0.0)

    def complete_eval(node):
        rem = tot - node.cap_counts
        rem_pos = int(rem[1] + rem[3])
        rem_neg = int(rem[0] + rem[2])
        q0 = 1 if rem_pos > rem_neg else 0
        err_total = node.err + (rem_neg if q0 == 1 else rem_pos)
        conf_total = _confusion_increment(node.conf, rem, q0)
        misc = err_total / n
        unf = node_unfairness(conf_total) if beta > 0.0 else None
        obj = objective(misc, unf, len(node.seq), cfg)
        return obj, misc, unf, q0, conf_total

    best = None  # (obj, misc, unf, seq, conseqs, q0, conf_total)
    best_obj = math.inf
    nodes_evaluated = 0

    root = _Node(
        seq=(),
        conseqs=(),
        captured=np.zeros(n, dtype=bool),
        err=0,
        cap_counts=np.zeros(4, dtype=np.int64),
        conf=np.zeros(8, dtype=np.int64),
        eqw=0.0,
        predsig=np.full(n, 2, dtype=np.uint8) if track_sig else None,
    )

    level = [root]
    nodes_evaluated += 1
    obj, misc, unf, q0, conf_total = complete_eval(root)
    if obj < best_obj:
        best_obj = obj
        best = (obj, misc, unf, root.seq, root.conseqs, q0, conf_total)

    # budget exhaustion while expandable work remains loses the certificate
    out_of_budget = nodes_evaluated >= cfg.node_budget and cfg.max_length > 0

    depth = 0
    while level and depth < cfg.max_length and not out_of_budget:
        next_level = []
        for node in level:
            if out_of_budget:
                break
            eq_rem = (eq_total - node.eqw) if cfg.equivalent_points else 0.0
            if lower_bound(node.err, eq_rem, len(node.seq), n, cfg) >= best_obj:
                continue
            used = set(node.seq)
            for j in ids:
                if j in used:
                    continue
                if nodes_evaluated >= cfg.node_budget:
                    out_of_budget = True
                    break
                new_cap = caps[j] & ~node.captured
                counts = np.bincount(cap_codes[j][~node.captured[caps[j]]], minlength=4)
                new_count = int(counts.sum())
                if cfg.support_bound and beta == 0.0 and new_count < lam * n - 1e-12:
                    continue
                pos = int(counts[1] + counts[3])
                neg = int(counts[0] + counts[2])
                q = 1 if pos > neg else 0
                err_new = neg if q == 1 else pos
                child_seq = node.seq + (j,)
                child_err = node.err + err_new
                predsig = None
                if track_sig:
                    predsig = node.predsig.copy()
                    predsig[new_cap] = q
                if cfg.permutation_bound:
                    key = frozenset(child_seq)
                    if beta == 0.0:
                        seen_err = perm_seen.get(key)
                        if seen_err is not None and seen_err <= child_err:
                            continue
                        perm_seen[key] = child_err
                    else:
                        sigs = perm_seen.setdefault(key, set())
                        sig_bytes = predsig.tobytes()
                        if sig_bytes in sigs:
                            continue
                        sigs.add(sig_bytes)
                child = _Node(
                    seq=child_seq,
                    conseqs=node.conseqs + (q,),
                    captured=node.captured | caps[j],
                    err=child_err,
                    cap_counts=node.cap_counts + counts,
                    conf=_confusion_increment(node.conf, counts, q),
                    eqw=node.eqw + (float(eq_weights[new_cap].sum()) if cfg.equivalent_points else 0.0),
                    predsig=predsig,
                )
                nodes_evaluated += 1
                obj, misc, unf, q0, conf_total = complete_eval(child)
                if obj < best_obj:
                    best_obj = obj
                    best = (obj, misc, unf, child.seq, child.conseqs, q0, conf_total)
                if len(child_seq) < cfg.max_length:
                    next_level.append(child)
        level = next_level
        depth += 1

    certified = not out_of_budget

    obj, misc, unf, seq, conseqs, q0, conf_total = best
    if unf is None:
        unf = node_unfairness(conf_total)
    return SearchResult(
        best=RuleList(rules=tuple(zip(seq, conseqs)), default=q0),
        objective=obj,
        misc=misc,
        unfairness=unf,
        nodes_evaluated=nodes_evaluated,
        certified_optimal=certified,
    )
