"""K-best enumeration of rule lists in Lawler's style.

The first model is the optimum over the full antecedent set.  Each extracted
model spawns one subproblem per antecedent in its prefix, excluding that
antecedent from the allowed set; a running forbidden set stops sibling
branches from re-covering the same subspace.  A min-heap keyed on the
subproblem's optimal objective yields models in non-decreasing objective
order; duplicates are filtered at emission by rule list (two lists are
equal exactly when their canonical forms are).  Every subproblem searches
the same rows, so all of them share one SearchProblem.

A subproblem is not searched when an earlier certified search already
answers it: a solved allowed set S that contains its allowed set A and
whose optimum R uses only antecedents in A.  Every list over A is a list
over S and R is the tie-policy minimum over S (lowest objective, then
smallest K, then lexicographic ids), and R is itself a list over A, so R is
the minimum over A.  The reused R is pushed with its objective and a later
push order than S, so S pops first and the copy is dropped as a duplicate:
the emitted results are those of searching every subproblem.  A popped
copy still spawns its children.

A child subproblem allows a subset of its parent's antecedents, so its
optimum is no better than its parent's.  When the popped parent is
certified (a reused copy is: it is a certified optimum over its set), its
objective is the child's floor (see `search`): the child's search stops as
soon as it finds a list that ties it, which it would otherwise go on to
prove optimal.  The result is the one the full search finds on every field
but `nodes_evaluated`, for breadth-first order meets the tie-policy winner
first.  Under a node budget, a search that reaches its floor before the
budget runs out is certified where the full search would not have been.
An uncertified parent gives its children no floor: its objective may lie
above their optimum.

Several configs (the cells of a (lambda, beta) grid) over one problem are
enumerated in lockstep: each round pops one model from every cell's heap,
and the subproblems that the round leaves unanswered are grouped by allowed
set, so each set is searched once for all the cells that ask for it
(`search.search_cells`).  A set that one cell asks for alone is searched by
`corels_optimize`.  Each cell keeps its own heap, emitted models and
reusable optima, so a cell emits what its own enumeration would, except
under a node budget: a shared search counts only the nodes live for a cell
and shares its permutation tables, so it can reach, certified, what the
cell's own search is cut before.
"""

import heapq
import itertools
import math

from .errors import InvalidValue
from .search import corels_optimize, search_cells

DEFAULT_MAX_MODELS = 50


def enumerate_models(problem, cfg, max_models=DEFAULT_MAX_MODELS):
    """Enumerate up to `max_models` distinct rule lists, best objective first,
    over the antecedents and rows of the SearchProblem `problem`.

    Returns the emitted SearchResults (`.best` is the rule list); shorter when
    the subproblem space is exhausted first.  Emitted objectives are
    non-decreasing: every child subproblem optimizes over a subset of its
    parent's antecedents.

    Only certified optima are reused (see the module docstring).  Under a
    node budget, a subproblem whose search the budget would have cut short
    takes the proven optimum of a certified superset when one answers it,
    where searching it would have yielded an uncertified guess.  A
    subproblem of a certified parent stops at its parent's objective (see
    the module docstring), so `nodes_evaluated` can be lower than a full
    search's.  The one-config call of `enumerate_cells`.
    """
    return enumerate_cells(problem, [cfg], max_models)[0]


def enumerate_cells(problem, cfgs, max_models=DEFAULT_MAX_MODELS):
    """`enumerate_models` for every config of `cfgs` over one SearchProblem:
    one list of emitted SearchResults per config, in order.

    The configs share metric, max_length and node_budget, as the configs
    of one search do.  The cells advance in lockstep, one pop each a round,
    and a round's unanswered subproblems are searched once per allowed set
    for all the cells that ask for it (see the module docstring).  Each
    cell emits the models its own enumeration would, on every field but
    `nodes_evaluated`, which counts the nodes of a shared search that were
    live for the cell; a search that the node budget cuts can differ.
    """
    if max_models < 1:
        raise InvalidValue("max_models", "max_models must be >= 1, got %r" % (max_models,))
    if len({(c.metric, c.max_length, c.node_budget) for c in cfgs}) > 1:
        raise InvalidValue("cfgs", "the configs of one search must share metric, max_length and node_budget")
    cells = range(len(cfgs))
    # per cell: (allowed set, optimum) of every certified search, the heap of
    # (objective, push order, optimum over `allowed`, allowed, forbidden),
    # where equal objectives pop in push order, and the emitted models
    solved = [[] for _ in cells]
    heaps = [[] for _ in cells]
    emitted = [[] for _ in cells]
    seen = [set() for _ in cells]
    counter = itertools.count()
    # the subproblems of a round: (cell, allowed, forbidden, floor)
    asked = [(c, frozenset(problem.captures), frozenset(), -math.inf) for c in cells]
    while True:
        answers = [_reused(solved[c], allowed) for c, allowed, _, _ in asked]
        # the unanswered subproblems by allowed set
        searches = {}
        for i, (c, allowed, _, _) in enumerate(asked):
            if answers[i] is None:
                searches.setdefault(allowed, []).append(i)
        for allowed, found in searches.items():
            if len(found) == 1:
                cell, _, _, floor = asked[found[0]]
                results = [corels_optimize(problem, cfgs[cell], allowed=allowed, floor=floor)]
            else:
                results = search_cells(problem, [cfgs[asked[i][0]] for i in found], allowed, [asked[i][3] for i in found])
            for i, result in zip(found, results):
                answers[i] = result
                if result.certified_optimal:
                    solved[asked[i][0]].append((allowed, result))
        for (c, allowed, forbidden, _), result in zip(asked, answers):
            heapq.heappush(heaps[c], (result.objective, next(counter), result, allowed, forbidden))
        asked = []
        live = [c for c in cells if heaps[c] and len(emitted[c]) < max_models]
        if not live:
            return emitted
        for c in live:
            _, _, result, allowed, forbidden = heapq.heappop(heaps[c])
            if result.best not in seen[c]:
                seen[c].add(result.best)
                emitted[c].append(result)
            if len(emitted[c]) >= max_models:
                continue
            # each child allows a subset of `allowed`, so a certified
            # optimum over `allowed` bounds the child's optimum below; an
            # uncertified one bounds nothing
            floor = result.objective if result.certified_optimal else -math.inf
            forbidden = set(forbidden)
            for t in result.best.antecedent_ids:
                if t in forbidden:
                    continue
                asked.append((c, allowed - {t}, frozenset(forbidden), floor))
                forbidden.add(t)


def _reused(solved, allowed):
    """The optimum over `allowed` that a certified search in `solved`
    already proves, or None."""
    for superset, result in solved:
        if allowed.issuperset(result.best.antecedent_ids) and allowed <= superset:
            return result
    return None
