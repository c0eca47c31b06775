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
the emitted results are those of searching every subproblem, field for
field.  A popped copy still spawns its children.
"""

import heapq
import itertools

from .errors import InvalidValue
from .search import corels_optimize

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
    where searching it would have yielded an uncertified guess.
    """
    if max_models < 1:
        raise InvalidValue("max_models", "max_models must be >= 1, got %r" % (max_models,))
    # (allowed set, optimum) of every certified search
    solved = []

    def solve(allowed):
        for superset, result in solved:
            if allowed.issuperset(result.best.antecedent_ids) and allowed <= superset:
                return result
        result = corels_optimize(problem, cfg, allowed=allowed)
        if result.certified_optimal:
            solved.append((allowed, result))
        return result

    # (objective, push order, optimum over `allowed`, allowed, forbidden):
    # equal objectives pop in push order
    counter = itertools.count()
    allowed = frozenset(problem.captures)
    root = solve(allowed)
    heap = [(root.objective, next(counter), root, allowed, frozenset())]
    emitted = []
    seen = set()
    while heap:
        _, _, result, allowed, forbidden = heapq.heappop(heap)
        if result.best not in seen:
            seen.add(result.best)
            emitted.append(result)
        if len(emitted) >= max_models:
            break
        forbidden = set(forbidden)
        for t in result.best.antecedent_ids:
            if t in forbidden:
                continue
            child_allowed = allowed - {t}
            child = solve(child_allowed)
            heapq.heappush(heap, (child.objective, next(counter), child, child_allowed, frozenset(forbidden)))
            forbidden.add(t)
    return emitted
