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
    the unfairness term is nonnegative.  Without the fairness bound it is
    objective() at the fewest errors, unfairness 0 and one rule more, in
    objective()'s operation order, so never above an extension's objective.
  - equivalent points: rows with identical values under every available
    antecedent receive identical predictions from any rule list, so each such
    class contributes at least its minority-label count to the error; the
    bound charges this to the misclassification component only.
  - permutation: with beta == 0 a prefix is pruned when a permutation of the
    same antecedents was seen with no more captured errors; with beta > 0
    when one was seen with the same confusion counts on the captured rows.
    One antecedent set always captures the same rows, and every bound and
    every completion's objective reads the captured rows only through those
    counts, under every metric; breadth-first order sees the
    lexicographically smaller permutation first, so the tie policy holds.
  - fairness: for dp with beta > 0, bounds the error and
    unfairness terms together.  The captured rows' predictions are fixed;
    a completion that predicts p_g of group g's uncaptured rows positive errs
    on at least |p_g - y_g| of them (y_g: their label-1 count), and the
    bound is the minimum over real p_g, found greedily.  Sound because it
    relaxes every completion; prefixes are pruned on the larger of it and the
    equivalent-points bound.  Not applied with beta == 0 nor for oae and cpa,
    and not worked out when the error and length terms alone already prune.
  - dominated children: the objective reads a list only through its
    predictions and its length, so a list that predicts on every row what a
    shorter list predicts is never the tie-policy winner, for any metric and
    beta.  A child is dropped before it becomes a node (it is not counted,
    scored nor extended) when (a) its rule captures none of its parent's
    uncaptured rows: it and each extension predict what the list without
    that rule predicts; (b) its rule captures all of them: every later rule
    captures nothing, and the child predicts what its parent predicts, whose
    default is the majority of those rows; (c) at the last level only, its
    consequent equals the default it closes with: both parts of the
    parent's uncaptured rows then have that majority, so the whole has it
    too (ties predict 0 in each part and in the sum), and the child predicts
    what its parent predicts.  Above the last level (c) is not applied,
    since such a list's extensions are not dominated.  The parent was
    scored in every cell the child would be live for.  The tests read only
    the child's new rows per code, and come before the node budget is
    checked, so a dropped child never uses up budget.  A dropped child
    still enters the error-keyed permutation table where a kept child would,
    that is when a beta == 0 cell keeps its parent.  A permutation that the
    entry prunes captures the same rows with no fewer errors, so it and its
    extensions score no better than the dropped child and its extensions,
    which shorter lists beat; no cell's optimum or winner changes.  The
    counts-keyed table of the beta > 0 cells takes no dropped child: its key
    hashes the set with eight counts, and most dropped children are case (c)
    leaves, whose entry could spare at most the scoring of a later leaf,
    which costs less.
  - child bound: a child that survives the drop and could still be
    extended (K < max_length) is bounded by its own objective at the
    fewest errors it can make,
        (1 - beta) * ((captured errors + inevitable errors it leaves) / n) + lam * K,
    the inevitable errors being the mask's rows among its uncaptured rows,
    which the parent's counts within the mask give.  It is objective() at
    that misclassification with unfairness 0, in objective()'s operation
    order: the lookahead bound of K - 1 rules.  Correctly rounded operations
    are monotone, the child and each extension err at least that often with
    at least K rules, and beta * unfairness >= 0, so the bound never rises
    above the float objective of the child or of any extension.  A cell
    keeps the child only while the bound is below the cell's incumbent; as
    an incumbent changes only on a strictly lower objective, a tie skips the
    child and the tie policy holds.  A child that no live cell keeps is
    skipped: it is not scored, counted or queued.  The bound comes before
    the node budget and the permutation checks, so a skipped child uses no
    budget and enters no permutation table.  That loses no pruning for the
    cells that skipped it: a later permutation that its entry would have
    pruned has the same uncaptured rows and no fewer captured errors (the
    same counts, with beta > 0), so its bound is no lower and it is skipped
    too.  Last-level children are scored as they are; their counts hold no
    mask.

A floor is a proven lower bound on a cell's optimum, such as the certified
optimum over a superset of the allowed antecedents: every list over a
subset is a list over the superset, so none scores below it.  A cell whose
incumbent reaches its floor (objective <= floor, compared exactly) is done:
it leaves every node at once, certified, and the search stops when every
cell is done or cut.  A default-only root that meets its floor is the whole
search.  The tie policy holds: nothing scores below the floor, and nothing
visited later out-ties the incumbent, since breadth-first order visits
lists by length and then lexicographically and an incumbent changes only on
a strictly lower objective.  An uncertified optimum over a superset is no
floor: it may lie above the optimum over the subset.

Row sets are Python ints over a layout of the rows by (sensitive, label)
code 2*s + y: each code's rows, in row order, fill a run of whole 64-bit
words of its own, at least one word even for a code with no rows, so row
r is not bit r.  A SearchProblem holds the data side of a search, prepared
once per problem and shared by every search over the same antecedents and
rows (all the subproblems of a K-best enumeration, every cell of a
(lambda, beta) grid): each antecedent's capture as an int and as one row
of uint64 words in that layout.  A node's antecedent set is a bit mask
over the problem's antecedents, so it names the same set in every search,
and a node's uncaptured rows depend on that set alone.

A parent that passes its bound needs, for every antecedent, the new rows it
would capture in each cell, and, while its children can still be extended,
the new rows within the equivalent-points mask of the search's allowed
set.  The problem builds one mask per sorted tuple of the feature columns
that an allowed set reads, and reuses it for every set that reads the same
columns: each antecedent is a single literal on one 0/1 column, and a
literal and its negation split the rows alike, so rows equal on those
columns are captured alike by every such set (conjunctive antecedents
would break this premise, and the key with it).  The problem memoizes the
counts for all of its antecedents, in a count memo that every search over
it shares: keyed by the parent's antecedent set, the cell counts of the
parents of the last level, and keyed by the set and the mask's value, since
two allowed sets can share a mask, the cell and mask counts of the others.
A memo holds the (antecedents, words) capture words, with a nonzero mask
followed along the words axis by the captures within the mask.  A miss is
one AND with the parent's uncaptured rows, one np.bitwise_count and one
np.add.reduceat over the runs: each code's run, then the mask's whole
copy, into an int32 array stored under the key; a hit reads that array.  A
search over a subset of the antecedents gathers its own from the array.
The memo holds at most MEMO_BYTES; past that, counts are computed without
being stored.  Pruning and the bounds never see whether counts came from
the memo.

A node is its rules, the set of their antecedents, its uncaptured rows,
the confusion counts and inevitable-error weight of its captured rows, and
one list of the configs it is live for, the beta == 0 configs first; its
captured errors are read off the counts.
Only a child that is extended further forms its uncaptured rows, as an int.

`search_cells` runs one search over an allowed set for several configs,
such as the (lambda, beta) cells of a grid that ask for the same set;
`corels_optimize` is its one-config call, so one loop serves both.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import captures, row_class_ids
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
        if not 0.0 <= self.lam < math.inf:
            raise InvalidValue("lam", "lam must be a finite number >= 0, got %r" % (self.lam,))
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidValue("beta", "beta must be in [0, 1], got %r" % (self.beta,))
        if self.max_length < 0:
            raise InvalidValue("max_length", "max_length must be >= 0, got %r" % (self.max_length,))
        if self.node_budget < 1:
            raise BudgetZero("node_budget", "node_budget must be >= 1, got %r" % (self.node_budget,))

    @cached_property
    def uses_fairness_bound(self):
        """Whether lower_bound adds the fairness bound: dp with beta > 0.
        Worked out once per config; the search asks on every node it
        bounds."""
        return self.beta > 0.0 and self.metric is MetricKind.DEMOGRAPHIC_PARITY


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


def lower_bound(err, eq_rem, K, n, cfg, groups=None, incumbent=math.inf):
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
    at least |p_g - y_g| of them, so for dp with beta > 0 the fairness
    bound is the minimum over real p_g of the error and parity terms; the
    larger of the two bounds is returned.  The fairness bound is skipped
    when the error and length terms alone reach `incumbent`, the objective
    the caller prunes at, since the larger bound prunes then too.
    """
    # the objective of K + 1 rules at that misclassification and unfairness
    # 0, in objective()'s operation order, so never above a completion's
    lb = (1.0 - cfg.beta) * ((err + eq_rem) / n) + cfg.lam * (K + 1)
    if groups is None or not cfg.uses_fairness_bound or lb >= incumbent:
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
    fair = row_cost * (err + extra) + beta * max(gap, 0.0) + cfg.lam * (K + 1)
    # slack so that float rounding never lifts the bound above an objective
    return max(lb, fair - 1e-9)


def _confusion_increment(conf, counts, q):
    """Add rows counted by code 2*s + y, all predicted q, to the confusion
    counts (tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1)."""
    c0, c1, c2, c3 = counts
    tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1 = conf
    if q == 1:
        return (tp0 + c1, fp0 + c0, tn0, fn0, tp1 + c3, fp1 + c2, tn1, fn1)
    return (tp0, fp0, tn0 + c0, fn0 + c1, tp1, fp1, tn1 + c2, fn1 + c3)


class _Memo:
    """The new rows that each antecedent of a problem would capture after
    an antecedent set, per code and, with a nonzero `eq_mask`, within that
    equivalent-points mask: a (4 or 5, antecedents) int32 count array per
    set, in the dict `rows` keyed by the set.

    The count arrays of one problem's memos hold at most MEMO_BYTES; past
    that, counts are computed without being stored.  `spent`, a one-item
    list shared by the memos of the problem, holds the bytes of their
    arrays.  `columns` are the problem's (antecedents, words) capture
    words, each code's rows in a run of whole words that start at the word
    offsets `starts`; with a nonzero mask the memo appends the captures
    within it along the words axis, as a fifth run.
    """

    def __init__(self, spent, columns, starts, eq_mask):
        self.spent = spent
        words = columns.shape[1]
        self.n_bytes = 8 * words
        # the copies of the uncaptured rows that a miss ANDs with the columns
        self.copies = 1
        if eq_mask:
            within = columns & np.frombuffer(eq_mask.to_bytes(self.n_bytes, "little"), dtype="<u8")
            columns = np.concatenate((columns, within), axis=1)
            starts = [*starts, words]
            self.copies = 2
        self.columns = columns
        self.starts = np.array(starts)
        self.rows = {}

    def counts(self, used, unc, at):
        """The counts of the antecedent set `used`, whose uncaptured rows
        are `unc`, as lists: of the antecedents at the positions `at` (an
        index array), or of all when None.  Read from `rows`, or counted
        with one AND, one np.bitwise_count and one np.add.reduceat over the
        runs, and stored while the cap allows."""
        counts = self.rows.get(used)
        if counts is None:
            words = np.frombuffer(unc.to_bytes(self.n_bytes, "little") * self.copies, dtype="<u8")
            bits = np.bitwise_count(self.columns & words)
            counts = np.add.reduceat(bits, self.starts, axis=1, dtype=np.int32).T
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
    and the count memo of every search over it (see the module docstring).

    Every row-set int of the problem and its searches (the captures, a
    node's uncaptured rows, an equivalent-points mask and the root's `full`
    set) lays the rows out by code 2*s + y: each code's rows, in row order,
    fill a run of whole 64-bit words of its own, at least one, so no run
    is empty and the memo counts each code as one run.

    Every antecedent is one literal on one 0/1 column, and a literal and
    its negation split the rows alike, so an equivalent-points mask depends
    on its allowed set only through the columns the set reads: the problem
    builds one mask per column set, grouping its own rows in layout order
    on those columns, and reuses it for every allowed set that reads the
    same columns.  Each row's bit follows its own label, as equal rows may
    carry different labels.  Conjunctive antecedents would break this
    premise, and with them the key must be revisited.
    """

    def __init__(self, ants, d):
        self.ants = ants
        self.d = d
        self._position = {a.id: p for p, a in enumerate(ants)}
        code = (d.sensitive != 0).view(np.uint8) << 1 | (d.labels != 0).view(np.uint8)
        sizes = np.bincount(code, minlength=4).tolist()
        self.totals = tuple(sizes)
        # the rows in layout order: by code, each code's rows in row order
        # (a stable sort of uint8 keys is a radix sort)
        self._order = np.argsort(code, kind="stable")
        # the first row of each code among the ordered rows, and the first
        # word of its run
        self._first = [0] * 4
        starts = [0] * 4
        for c in range(3):
            self._first[c + 1] = self._first[c] + sizes[c]
            starts[c + 1] = starts[c] + max(-(-sizes[c] // 64), 1)
        self._n_words = starts[3] + max(-(-sizes[3] // 64), 1)
        self._starts = starts
        self.full = sum(((1 << size) - 1) << (64 * word) for size, word in zip(sizes, starts))
        # the feature rows in layout order, stored by column, so that the
        # captures and each mask take their columns fast, and their labels
        self._rows = np.take(d.features.T, self._order, axis=1).T != 0
        self._labels = np.repeat([False, True, False, True], sizes)
        # (antecedents, words): each antecedent's capture in layout order
        self._columns = self._pack(captures(ants, self._rows))
        self.captures = {i: int.from_bytes(self._columns[p].tobytes(), "little") for i, p in self._position.items()}
        self._memo_bytes = [0]
        # the count memos by equivalent-points mask, 0 for the cells alone
        self._memos = {}
        # the equivalent-points masks by sorted tuple of columns
        self._masks = {}

    def _pack(self, masks):
        """The (k, rows) bool masks `masks`, over the rows in layout order,
        as (k, words) little-endian uint64 words: each code's rows are
        copied into the bits of their own run."""
        padded = np.zeros((masks.shape[0], 64 * self._n_words), dtype=bool)
        for first, size, word in zip(self._first, self.totals, self._starts):
            padded[:, 64 * word : 64 * word + size] = masks[:, first : first + size]
        return np.packbits(padded, axis=1, bitorder="little").view("<u8")

    def equivalence_mask(self, ids):
        """The equivalent-points mask of the antecedents `ids`: the rows
        whose label is the minority label of their class.  Built once per
        sorted tuple of the columns that the antecedents read (see the class
        docstring)."""
        columns = sorted({self.ants[self._position[i]].feature for i in ids})
        key = tuple(columns)
        mask = self._masks.get(key)
        if mask is None:
            classes = row_class_ids(self._rows[:, columns])
            # each class's label-1 rows less its label-0 rows: the minority
            # label is 1 below 0, so 0 on a tie
            minority = np.bincount(classes, weights=2.0 * self._labels - 1.0) < 0
            words = self._pack((minority[classes] == self._labels)[None])
            mask = self._masks[key] = int.from_bytes(words.tobytes(), "little")
        return mask

    def _memo(self, eq_mask):
        """The count memo of `eq_mask` (0: the cells alone); one per
        distinct mask, since allowed sets can share a mask."""
        memo = self._memos.get(eq_mask)
        if memo is None:
            memo = self._memos[eq_mask] = _Memo(self._memo_bytes, self._columns, self._starts, eq_mask)
        return memo


def corels_optimize(problem, cfg, allowed=None, floor=-math.inf):
    """Best rule list over the allowed antecedents, up to cfg.max_length.

    `allowed` restricts the usable antecedent ids (for the K-best
    enumeration layer); over none, the best list is the majority
    default-only list.  `floor` is a proven lower bound on the optimum
    objective: the search stops, certified, once its incumbent reaches it.
    The result is certified optimal unless the node budget ran out first.
    The one-config call of `search_cells`.
    """
    return search_cells(problem, [cfg], allowed, [floor])[0]


def search_cells(problem, cfgs, allowed=None, floors=None):
    """The best rule list over the allowed antecedents for each config of
    `cfgs`, in one branch-and-bound pass: one SearchResult per config, in
    order.  Unless the node budget cuts it short, each equals the one
    `corels_optimize` finds for that config alone on every field but
    `nodes_evaluated`.

    `floors`, one per config (none: -inf each), are proven lower bounds on
    the configs' optima.  A cell whose incumbent reaches its floor is done:
    it leaves every node at once, certified, and the search stops when
    every cell is done or cut (see the module docstring).

    The configs (cells) share metric, max_length and node_budget.  A node
    is the root or a child that survives, for at least one cell, the
    dominated-children drop, its own child bound and the permutation checks
    (see the module docstring); it carries one list of the cells it is live
    for.  The root's list puts the beta == 0 cells first, and every list
    filtered from it keeps that order, so its first cell tells whether a
    beta == 0 cell is live and its last whether a beta > 0 cell is; each
    parent works these two out once.  A parent is dropped for a cell once
    the cell's lower_bound reaches the cell's incumbent, and is expanded
    while any cell keeps it.  One loop bounds a parent, one bounds a child
    and one scores it, for every live cell: with beta == 0, 1 - beta is
    1.0 and 1.0 * x == x exactly, so each bound and objective is the one a
    lone search computes.  A node's counts, misclassification and
    unfairness are worked out once; each live cell adds its own objective,
    and only a beta > 0 cell its unfairness term.
    The beta == 0 cells share one error-keyed permutation table and the
    beta > 0 cells one keyed by (set, confusion counts).  This is sound: a
    permutation seen only by other cells lies under a parent that this
    cell's bound pruned, so pruning against it never drops a strict
    improvement or a tie-policy winner.

    Each cell counts the nodes live for it, in nodes_evaluated and against
    the node budget; a child that a cell drops or skips uses none of its
    budget.  A cell whose bound keeps another child once it has used up the
    budget leaves the live set, uncertified.  With one cell this is the budget
    rule of a lone search.
    """
    cfg = cfgs[0]
    if len({(c.metric, c.max_length, c.node_budget) for c in cfgs}) != 1:
        raise InvalidValue("cfgs", "the configs of one search must share metric, max_length and node_budget")
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
    cells = range(len(cfgs))
    betas = [c.beta for c in cfgs]
    lams = [c.lam for c in cfgs]
    miss = [1.0 - beta for beta in betas]
    # the cells with beta > 0, which add unfairness and share the
    # counts-keyed permutation table; the others share the error-keyed one
    fair_cell = [beta > 0.0 for beta in betas]
    if any(fair_cell):
        if not metric_ok:
            raise EmptyGroup("sensitive groups have sizes (%d, %d)" % (n0, n1))
        if cfg.metric is MetricKind.CONDITIONAL_PROCEDURE_ACCURACY:
            # the TPR/TNR denominators depend only on the data, not the prefix
            if min(tot0, tot1, tot2, tot3) == 0:
                raise UndefinedRate("a group lacks positive or negative labels")

    # with no antecedent the root's default-only list is the only list
    max_length = cfg.max_length if ids else 0
    budget = cfg.node_budget
    eq_mask = problem.equivalence_mask(ids)
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
    full = problem.full
    outside = {j: full ^ caps[j] for j in ids}
    # the least captured errors of each antecedent set, for the beta == 0
    # cells, and each (set, captured confusion counts), for the others
    errs_seen = {}
    counts_seen = set()
    node_gap = confusion_formula(cfg.metric)
    fair_bound = any(c.uses_fairness_bound for c in cfgs)

    # the root closes with the majority default of every row
    q0 = 1 if tot1 + tot3 > tot0 + tot2 else 0
    misc = (tot0 + tot2 if q0 == 1 else tot1 + tot3) / n
    unf = node_gap(n0, n1, _confusion_increment((0,) * 8, problem.totals, q0), True) if any(fair_cell) else None
    # each cell's best list: objective, misc, unfairness, its prefix's
    # rules, its default, the prefix's confusion counts and the uncaptured
    # rows per code
    best = [(objective(misc, unf, 0, c), misc, unf if c.beta > 0.0 else None, (), q0, (0,) * 8, problem.totals) for c in cfgs]
    best_obj = [b[0] for b in best]
    nodes = [1] * len(cfgs)

    if floors is None:
        floors = [-math.inf] * len(cfgs)
    # a cell leaves the search once its incumbent reaches its floor (done,
    # certified) or once the budget runs out while expandable work remains
    # (cut, which loses the certificate)
    cut = [budget <= 1 and max_length > 0 and best_obj[c] > floors[c] for c in cells]
    left = [cut[c] or best_obj[c] <= floors[c] for c in cells]
    alive = left.count(False)
    # no cell has more than budget - room nodes; at room 0 each cell is
    # checked on its own
    room = budget - 1
    # whether a child's score brought a cell to its floor
    reached = False

    # a node: (rules, the set of their antecedents, uncaptured rows,
    # confusion counts (tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1) of the
    # captured rows, captured inevitable-error weight, the cells it is live
    # for).  The root's cells put the beta == 0 cells first, and every list
    # filtered from it keeps that order, so a list holds a beta == 0 cell
    # when its first cell is one and a beta > 0 cell when its last is one
    level = [((), 0, full, (0,) * 8, 0.0, sorted((c for c in cells if not left[c]), key=fair_cell.__getitem__))]

    depth = 0
    while alive and level and depth < max_length:
        next_level = []
        K = depth + 1  # the rule count of every child of this level
        lam_k = [lam * K for lam in lams]
        expand = K < max_length
        # parents of the last level pass no inevitable errors on
        counts = deep_counts if expand else leaf_counts
        for rules, used, unc, conf, eqw, live in level:
            tp0, fp0, tn0, fn0, tp1, fp1, tn1, fn1 = conf
            err = fp0 + fn0 + fp1 + fn1
            eq_rem = eq_total - eqw
            # the uncaptured rows per code
            u0 = tot0 - fp0 - tn0
            u1 = tot1 - tp0 - fn0
            u2 = tot2 - fp1 - tn1
            u3 = tot3 - tp1 - fn1
            # and by label
            pos_unc = u1 + u3
            neg_unc = u0 + u2
            groups = ((n0, tp0 + fp0, u0 + u1, u1), (n1, tp1 + fp1, u2 + u3, u3)) if fair_bound and fair_cell[live[-1]] else None
            # the cells that keep the parent (a loop, not a comprehension:
            # the list is short, and a comprehension's frame costs more here)
            kept = []
            for c in live:
                if not left[c] and lower_bound(err, eq_rem, depth, n, cfgs[c], groups, best_obj[c]) < best_obj[c]:
                    kept.append(c)
            if not kept:
                continue
            live = kept
            # whether a beta == 0 and a beta > 0 cell keep the parent, worked
            # out again only when cells leave it
            zero_live = not fair_cell[live[0]]
            fair_live = fair_cell[live[-1]]
            # every child's new rows per code, and within eq_mask for a deep
            # parent; `unc` is a function of the set `used`, the memo's key
            c0s, c1s, c2s, c3s, *eqs = counts(used, unc, at)
            for j, bit, c0, c1, c2, c3, eq in zip(ids, bits, c0s, c1s, c2s, c3s, eqs[0] if eqs else no_eq):
                if used & bit:
                    continue
                pos = c1 + c3
                neg = c0 + c2
                new = pos + neg
                # the consequent and the default it closes with
                q = 1 if pos > neg else 0
                q0 = 1 if pos_unc - pos > neg_unc - neg else 0
                child_err = err + neg if q == 1 else err + pos
                if new == 0 or new == pos_unc + neg_unc or (q == q0 and not expand):
                    # a dominated child (see the module docstring) is dropped
                    # before it can use up budget, once its captured errors
                    # are entered where a kept child's would be
                    if zero_live:
                        child_used = used | bit
                        seen_err = errs_seen.get(child_used)
                        if seen_err is None or child_err < seen_err:
                            errs_seen[child_used] = child_err
                    continue
                # each check drops its cells, and the child when no cell is left
                child_live = live
                if expand:
                    # the child's objective at the fewest errors it can make
                    # (see the module docstring): a cell keeps the child only
                    # while it is below the cell's incumbent.  One pass stops
                    # at the first cell that keeps it; each cell is checked
                    # on its own only when more than one is live
                    low = (child_err + eq_rem - eq) / n
                    for c in live:
                        if miss[c] * low + lam_k[c] < best_obj[c]:
                            break
                    else:
                        continue
                    if len(live) > 1:
                        child_live = [c for c in live if miss[c] * low + lam_k[c] < best_obj[c]]
                if room <= 0:
                    for c in child_live:
                        if nodes[c] >= budget:
                            cut[c] = left[c] = True
                            alive -= 1
                    live = [c for c in live if not cut[c]]
                    if not live:
                        break
                    zero_live = not fair_cell[live[0]]
                    fair_live = fair_cell[live[-1]]
                    room = budget - max(nodes[c] for c in cells if not left[c])
                    child_live = [c for c in child_live if not cut[c]]
                    if not child_live:
                        continue
                child_used = used | bit
                if q == 1:
                    child_conf = (tp0 + c1, fp0 + c0, tn0, fn0, tp1 + c3, fp1 + c2, tn1, fn1)
                else:
                    child_conf = (tp0, fp0, tn0 + c0, fn0 + c1, tp1, fp1, tn1 + c2, fn1 + c3)
                child_zero = zero_live
                child_fair = fair_live
                if child_zero and child_fair:
                    # a parent live for both kinds: the child's list tells its own
                    child_zero = not fair_cell[child_live[0]]
                    child_fair = fair_cell[child_live[-1]]
                if child_zero:
                    seen_err = errs_seen.get(child_used)
                    if seen_err is not None and seen_err <= child_err:
                        if not child_fair:
                            continue
                        child_live = [c for c in child_live if fair_cell[c]]
                        child_zero = False
                    else:
                        errs_seen[child_used] = child_err
                if child_fair:
                    # one antecedent set always captures the same rows, and
                    # every completion reads them through their counts
                    key = (child_used, child_conf)
                    if key in counts_seen:
                        if not child_zero:
                            continue
                        child_live = [c for c in child_live if not fair_cell[c]]
                    else:
                        counts_seen.add(key)
                room -= 1
                child_rules = rules + ((j, q),)
                # close with the majority default q0 of the uncaptured rows
                r0 = u0 - c0
                r1 = u1 - c1
                r2 = u2 - c2
                r3 = u3 - c3
                misc = (child_err + (neg_unc - neg if q0 == 1 else pos_unc - pos)) / n
                # each live cell counts the child and scores its own
                # objective; a cell whose new incumbent reaches its floor is done
                unf = None
                for c in child_live:
                    nodes[c] += 1
                    obj = miss[c] * misc + lam_k[c]
                    # beta * unf >= 0 cannot lower obj, so a child that does
                    # not beat the incumbent without it is not scored
                    if obj < best_obj[c]:
                        if fair_cell[c]:
                            if unf is None:
                                # _confusion_increment(child_conf, (r0, r1, r2, r3), q0)
                                ktp0, kfp0, ktn0, kfn0, ktp1, kfp1, ktn1, kfn1 = child_conf
                                if q0 == 1:
                                    conf_total = (ktp0 + r1, kfp0 + r0, ktn0, kfn0, ktp1 + r3, kfp1 + r2, ktn1, kfn1)
                                else:
                                    conf_total = (ktp0, kfp0, ktn0 + r0, kfn0 + r1, ktp1, kfp1, ktn1 + r2, kfn1 + r3)
                                unf = node_gap(n0, n1, conf_total, True)
                            obj += betas[c] * unf
                            if obj >= best_obj[c]:
                                continue
                        best_obj[c] = obj
                        best[c] = (obj, misc, unf if fair_cell[c] else None, child_rules, q0, child_conf, (r0, r1, r2, r3))
                        if obj <= floors[c]:
                            left[c] = reached = True
                            alive -= 1
                if reached:
                    # the cells that are done leave this parent and the child
                    reached = False
                    live = [c for c in live if not left[c]]
                    if not live:
                        break
                    zero_live = not fair_cell[live[0]]
                    fair_live = fair_cell[live[-1]]
                    child_live = [c for c in child_live if not left[c]]
                if expand and child_live:
                    next_level.append((child_rules, child_used, unc & outside[j], child_conf, eqw + eq, child_live))
            if not alive:
                break
        level = next_level
        depth += 1

    results = []
    for c in cells:
        obj, misc, unf, rules, q0, conf, rem = best[c]
        if unf is None:
            unf = node_gap(n0, n1, _confusion_increment(conf, rem, q0), False) if metric_ok else math.nan
        results.append(
            SearchResult(
                best=RuleList(rules=rules, default=q0),
                objective=obj,
                misc=misc,
                unfairness=unf,
                nodes_evaluated=nodes[c],
                certified_optimal=not cut[c],
            )
        )
    return results
