"""Exact branch-and-bound minimization of the fairness-regularized rule list
objective

    (1 - beta) * misclassification + beta * unfairness + lam * K

over ordered antecedent prefixes.  Consequents and the default are the
majority label of the rows they decide (ties predict 0).  The prefixes are
explored breadth-first in lexicographic antecedent-id order, so the returned
minimizer is the tie-policy winner: lowest objective, then smallest K, then
lexicographically smallest id sequence.

Bounds and their validity with beta > 0:
  - lookahead: adds lam to a prefix bound before extending; sound for any
    beta because every strict extension carries at least one extra rule and
    the unfairness term is nonnegative.
  - equivalent points: rows with identical values under every available
    antecedent receive identical predictions from any rule list, so each such
    class contributes at least its minority-label count to the error; the
    bound charges this to the misclassification component only.
  - support: a rule capturing fewer than lam*n new rows cannot pay its length
    penalty through misclassification alone; with beta > 0 the unfairness
    term could still pay, so the bound applies only with beta == 0.
  - permutation: with beta == 0 a prefix is pruned when a permutation of the
    same antecedents was seen with no more captured errors; with beta > 0
    when one was seen with the same confusion counts on the captured rows.
    One antecedent set always captures the same rows, and every bound and
    every completion's objective reads the captured rows only through those
    counts, under every metric; breadth-first order sees the
    lexicographically smaller permutation first, so the tie policy holds.
  - fairness: for dp and sp with beta > 0, bounds the error and
    unfairness terms together.  The captured rows' predictions are fixed;
    a completion that predicts p_g of group g's uncaptured rows positive errs
    on at least |p_g - y_g| of them (y_g: their label-1 count), and the
    bound is the minimum over real p_g, found greedily.  Sound because it
    relaxes every completion; prefixes are pruned on the larger of it and the
    equivalent-points bound.  Not applied with beta == 0 nor for oae and cpa.

Row sets are Python ints, bit r standing for row r.  A SearchProblem holds
the data side of a search, prepared once per problem and shared by every
search over the same antecedents and rows (all the subproblems of a K-best
enumeration, every cell of a (lambda, beta) grid): each antecedent's
capture as an int, and as uint64 words, 64 rows a word, both whole and
within each (sensitive, label) cell.  A node's antecedent set is a bit mask
over the problem's antecedents, so it names the same set in every search,
and a node's uncaptured rows depend on that set alone.

A parent that passes its bound needs, for every antecedent, the new rows it
would capture in each cell, and, while its children can still be extended,
the new rows within the equivalent-points mask.  The problem memoizes these
counts for all of its antecedents, in a count memo that every search over
it shares: keyed by the parent's antecedent set, the cell counts of the
parents of the last level, and keyed by the set and the mask, since two
allowed sets can share a mask, the cell and mask counts of the others.  A
miss counts them with one np.bitwise_count pass over the words masked by
the parent's uncaptured rows, into an int32 array stored under the key; a
hit reads that array.  A search over a subset of the antecedents gathers its
own from the array.  The memo holds at most MEMO_BYTES; past that, counts
are computed without being stored.  Pruning and the bounds never see
whether counts came from the memo.

A node is its rules, the set of their antecedents, its uncaptured rows and
the confusion counts and inevitable-error weight of its captured rows; its
captured errors are read off the counts.  Only a child that is extended
further forms its uncaptured rows, as an int.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import captures, group_rows
from .errors import BudgetZero, EmptyGroup, InvalidValue, UndefinedRate, UnknownAntecedent
from .metrics import MetricKind, confusion_formula
from .rules import RuleList

DEFAULT_LAMBDA = 0.005
DEFAULT_MAX_LENGTH = 5
DEFAULT_NODE_BUDGET = 10_000_000
# the bytes of counts a SearchProblem's memo may hold; past it, counts are
# computed without being stored
MEMO_BYTES = 32 << 20


@dataclass(frozen=True)
class SearchConfig:
    lam: float = DEFAULT_LAMBDA
    beta: float = 0.0
    metric: MetricKind = MetricKind.DEMOGRAPHIC_PARITY
    max_length: int = DEFAULT_MAX_LENGTH
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.lam < 0:
            raise InvalidValue("lam", "lam must be >= 0, got %r" % (self.lam,))
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidValue("beta", "beta must be in [0, 1], got %r" % (self.beta,))
        if self.max_length < 0:
            raise InvalidValue("max_length", "max_length must be >= 0, got %r" % (self.max_length,))

    @cached_property
    def uses_fairness_bound(self):
        """Whether lower_bound adds the fairness bound: dp or sp with
        beta > 0.  Worked out once per config; the search asks on every node
        it bounds."""
        return self.beta > 0.0 and not self.metric.needs_labels


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
    inevitable errors left among the uncaptured rows.  The bound covers
    strict extensions only (lookahead: one more rule's lam).

    Without the fairness bound the unfairness contribution is bounded below
    by 0 (it is nonnegative and not monotone under prefix extension), so
    only the error and length terms appear.

    `groups` holds, for sensitive groups 0 and 1, (size, captured rows
    predicted positive, uncaptured rows, uncaptured label-1 rows).  A
    completion predicting p_g of group g's uncaptured rows positive errs on
    at least |p_g - y_g| of them, so for dp/sp with beta > 0 the fairness
    bound is the minimum over real p_g of the error and parity terms; the
    larger of the two bounds is returned.
    """
    lb = (1.0 - cfg.beta) * (err + eq_rem) / n + cfg.lam * K + cfg.lam
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
    fair = row_cost * (err + extra) + beta * max(gap, 0.0) + cfg.lam * K + cfg.lam
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


def _minority_labels(rows, size, ones):
    """The minority label (1 when fewer than half the class's rows are
    labeled 1, so 0 on a tie) of each distinct feature row's class of rows
    indistinguishable by every available antecedent, given each distinct
    row's capture by each antecedent as the (R, m) bool matrix `rows`, and
    how many rows it stands for (`size`), `ones` of them labeled 1."""
    order, starts, members = group_rows(rows)
    minority = 2 * np.add.reduceat(ones[order], starts) < np.add.reduceat(size[order], starts)
    out = np.empty(order.shape[0], dtype=bool)
    out[order] = np.repeat(minority, members)
    return out


class _Memo:
    """The new rows that each antecedent of a problem would capture after
    an antecedent set, per code and, with a nonzero `eq_mask`, within that
    equivalent-points mask: a (4 or 5, antecedents) int32 count array per
    set, in the dict `rows` keyed by the set.

    The count arrays of one problem's memos hold at most MEMO_BYTES; past
    that, counts are computed without being stored.  `spent`, a one-item
    list shared by the memos of the problem, holds the bytes of their
    arrays.  `columns` are the problem's (5, antecedents, words) capture
    words: each capture within each code, then whole.
    """

    def __init__(self, spent, columns, eq_mask):
        self.spent = spent
        self.n_bytes = 8 * columns.shape[2]
        if eq_mask:
            # row masks that leave the codes' columns whole and keep the
            # mask's rows of the whole captures
            self.masks = np.full((5, columns.shape[2]), ~np.uint64(0))
            self.masks[4] = np.frombuffer(eq_mask.to_bytes(self.n_bytes, "little"), dtype="<u8")
            self.columns = columns
        else:
            self.masks = None
            self.columns = columns[:4]
        self.rows = {}

    def counts(self, used, unc, at):
        """The counts of the antecedent set `used`, whose uncaptured rows
        are `unc`, as lists: of the antecedents at the positions `at` (an
        index array), or of all when None.  Read from `rows`, or counted
        with one np.bitwise_count pass and stored while the cap allows."""
        counts = self.rows.get(used)
        if counts is None:
            words = np.frombuffer(unc.to_bytes(self.n_bytes, "little"), dtype="<u8")
            if self.masks is not None:
                words = (self.masks & words)[:, None, :]
            counts = np.bitwise_count(self.columns & words).sum(axis=-1, dtype=np.int32)
            if self.spent[0] + counts.nbytes <= MEMO_BYTES:
                self.spent[0] += counts.nbytes
                self.rows[used] = counts
        return (counts if at is None else counts[:, at]).tolist()


class SearchProblem:
    """The data side of a search over antecedents `ants` on the rows of `d`,
    prepared once and shared by every search over them.

    Evaluates every antecedent on the features of `d` with
    `dataset.captures` and holds each capture as an int (`captures`, by
    id), the row counts of the four (sensitive, label) codes (`totals`),
    the equivalent-points mask of each allowed set, computed on first use,
    and the count memo of every search over it (see the module docstring).

    An antecedent captures equal feature rows alike, so an allowed set's
    equivalence classes are unions of the classes of equal rows of `d`
    (`d.row_classes`).  The masks group those R distinct rows, not the n
    rows, and each row's bit follows its own label, as equal rows may carry
    different labels.
    """

    def __init__(self, ants, d):
        self.ants = ants
        self.d = d
        self._position = {a.id: p for p, a in enumerate(ants)}
        # (antecedents, rows): whether each antecedent captures each row
        self._captured = captures(ants, d.features)
        words = _words(self._captured)
        self.captures = {i: int.from_bytes(words[p].tobytes(), "little") for i, p in self._position.items()}
        labels = self._labels = d.labels != 0
        sens = d.sensitive != 0
        # codes[2*s + y] holds the rows of sensitive group s with label y
        codes = np.stack((~sens & ~labels, ~sens & labels, sens & ~labels, sens & labels))
        self.totals = tuple(np.count_nonzero(codes, axis=1).tolist())
        self._equivalence = {}
        # (5, antecedents, words): each capture within each code, then whole
        self._columns = np.empty((5, *words.shape), dtype=words.dtype)
        self._columns[:4] = words & _words(codes)[:, None, :]
        self._columns[4] = words
        self._memo_bytes = [0]
        # the count memos by equivalent-points mask, 0 for the cells alone
        self._memos = {}

    @cached_property
    def _distinct_rows(self):
        """The R distinct feature rows of `d`: their captures, as an (R,
        antecedents) bool matrix stored by column, so that a mask takes its
        allowed columns fast, how many rows each stands for and how many of
        those are labeled 1, and the distinct row of each of the n rows."""
        order, starts, size = self.d.row_classes
        ones = np.add.reduceat(self._labels[order].astype(np.int64), starts)
        distinct = np.empty_like(order)
        distinct[order] = np.repeat(np.arange(starts.shape[0]), size)
        return np.asfortranarray(self._captured[:, order[starts]].T), size, ones, distinct

    def equivalence_mask(self, ids):
        """The equivalent-points mask of the antecedents `ids`, a sorted
        tuple: the rows whose label is the minority label of their class;
        computed once per distinct tuple."""
        mask = self._equivalence.get(ids)
        if mask is None:
            rows, size, ones, distinct = self._distinct_rows
            minority = _minority_labels(rows[:, [self._position[i] for i in ids]], size, ones)
            mask = self._equivalence[ids] = _bits(minority[distinct] == self._labels)
        return mask

    def _memo(self, eq_mask):
        """The count memo of `eq_mask` (0: the cells alone); one per
        distinct mask, since allowed sets can share a mask."""
        memo = self._memos.get(eq_mask)
        if memo is None:
            memo = self._memos[eq_mask] = _Memo(self._memo_bytes, self._columns, eq_mask)
        return memo


def corels_optimize(problem, cfg, allowed=None):
    """Best rule list over the allowed antecedents, up to cfg.max_length.

    `allowed` restricts the usable antecedent ids (for the K-best
    enumeration layer); over none, the best list is the majority
    default-only list.  The result is certified optimal unless the node
    budget ran out first.
    """
    if cfg.node_budget < 1:
        raise BudgetZero("node_budget", "node_budget must be >= 1, got %r" % (cfg.node_budget,))
    caps = problem.captures
    ids = sorted(caps if allowed is None else set(allowed))
    for i in ids:
        if i not in caps:
            raise UnknownAntecedent("antecedent id %d not in mined set" % i)

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

    # with no antecedent the root's default-only list is the only list
    max_length = cfg.max_length if ids else 0
    budget = cfg.node_budget
    eq_mask = problem.equivalence_mask(tuple(ids))
    eq_total = float(eq_mask.bit_count())
    # parents whose children are extended count within eq_mask too
    deep_counts = problem._memo(eq_mask).counts
    leaf_counts = problem._memo(0).counts
    # the positions of ids among the problem's antecedents; a set of
    # antecedents is a bit mask over those positions
    at = [problem._position[i] for i in ids]
    bits = [1 << p for p in at]
    # a search over every antecedent, in position order, takes whole rows
    at = None if at == list(range(len(caps))) else np.array(at)
    # the eq counts of a parent whose eq counts are not needed
    no_eq = [0] * len(ids)
    full = (1 << n) - 1
    outside = {j: full ^ caps[j] for j in ids}
    # support bound: with beta == 0 a rule must capture at least lam*n new rows
    min_new = cfg.lam * n - 1e-12 if beta == 0.0 else 0
    # the least captured errors of each antecedent set with beta == 0, and
    # each (set, captured confusion counts) with beta > 0
    perm_seen = {} if beta == 0.0 else set()
    node_gap = confusion_formula(cfg.metric)
    strict = beta > 0.0
    fair_bound = cfg.uses_fairness_bound
    miss_weight = 1.0 - beta

    # the root closes with the majority default of every row
    q0 = 1 if tot1 + tot3 > tot0 + tot2 else 0
    misc = (tot0 + tot2 if q0 == 1 else tot1 + tot3) / n
    unf = node_gap(n0, n1, _confusion_increment((0,) * 8, problem.totals, q0), strict) if beta > 0.0 else None
    best_obj = objective(misc, unf, 0, cfg)
    # the best list: objective, misc, unfairness, its prefix's rules, its
    # default, the prefix's confusion counts and the uncaptured rows per code
    best = (best_obj, misc, unf, (), q0, (0,) * 8, problem.totals)
    nodes_evaluated = 1

    # a node: (rules, the set of their antecedents, uncaptured rows,
    # confusion counts (tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1) of the
    # captured rows, captured inevitable-error weight)
    level = [((), 0, full, (0,) * 8, 0.0)]

    # budget exhaustion while expandable work remains loses the certificate
    out_of_budget = nodes_evaluated >= budget and max_length > 0

    depth = 0
    while level and depth < max_length and not out_of_budget:
        next_level = []
        K = depth + 1  # the rule count of every child of this level
        lam_k = cfg.lam * K
        expand = K < max_length
        # parents of the last level pass no inevitable errors on
        counts = deep_counts if expand else leaf_counts
        for rules, used, unc, conf, eqw in level:
            if out_of_budget:
                break
            tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1 = conf
            err = fp0 + fn0 + fp1 + fn1
            # the uncaptured rows per code
            u0 = tot0 - fp0 - tn0
            u1 = tot1 - tp0 - fn0
            u2 = tot2 - fp1 - tn1
            u3 = tot3 - tp1 - fn1
            groups = ((n0, tp0 + fp0, u0 + u1, u1), (n1, tp1 + fp1, u2 + u3, u3)) if fair_bound else None
            if lower_bound(err, eq_total - eqw, depth, n, cfg, groups) >= best_obj:
                continue
            # every child's new rows per code, and within eq_mask for a deep
            # parent; `unc` is a function of the set `used`, the memo's key
            c0s, c1s, c2s, c3s, *eqs = counts(used, unc, at)
            for j, bit, c0, c1, c2, c3, eq in zip(ids, bits, c0s, c1s, c2s, c3s, eqs[0] if eqs else no_eq):
                if used & bit:
                    continue
                if nodes_evaluated >= budget:
                    out_of_budget = True
                    break
                if c0 + c1 + c2 + c3 < min_new:
                    continue
                child_used = used | bit
                if c1 + c3 > c0 + c2:
                    q = 1
                    child_err = err + c0 + c2
                    child_conf = (tp0 + c1, fp0 + c0, tn0, fn0, tp1 + c3, fp1 + c2, tn1, fn1)
                else:
                    q = 0
                    child_err = err + c1 + c3
                    child_conf = (tp0, fp0, tn0 + c0, fn0 + c1, tp1, fp1, tn1 + c2, fn1 + c3)
                if beta == 0.0:
                    seen_err = perm_seen.get(child_used)
                    if seen_err is not None and seen_err <= child_err:
                        continue
                    perm_seen[child_used] = child_err
                else:
                    # one antecedent set always captures the same rows, and
                    # every completion reads them through their counts
                    key = (child_used, child_conf)
                    if key in perm_seen:
                        continue
                    perm_seen.add(key)
                nodes_evaluated += 1
                child_rules = rules + ((j, q),)
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
                    best = (obj, misc, unf, child_rules, q0, child_conf, (r0, r1, r2, r3))
                if expand:
                    next_level.append((child_rules, child_used, unc & outside[j], child_conf, eqw + eq))
        level = next_level
        depth += 1

    certified = not out_of_budget

    obj, misc, unf, rules, q0, conf, rem = best
    if unf is None:
        unf = node_gap(n0, n1, _confusion_increment(conf, rem, q0), strict) if metric_ok else math.nan
    return SearchResult(
        best=RuleList(rules=rules, default=q0),
        objective=obj,
        misc=misc,
        unfairness=unf,
        nodes_evaluated=nodes_evaluated,
        certified_optimal=certified,
    )
