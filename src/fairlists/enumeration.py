"""K-best enumeration of rule lists in Lawler's style.

The first model is the optimum over the full antecedent set.  Each extracted
model spawns one subproblem per antecedent in its prefix, excluding that
antecedent from the allowed set; a running forbidden set stops sibling
branches from re-covering the same subspace.  A min-heap keyed on the
subproblem's optimal objective yields models in non-decreasing objective
order; duplicates are filtered at emission by canonical form.
"""

import heapq
import itertools
import time

from .rules import canonical_form
from .search import corels_optimize

DEFAULT_MAX_MODELS = 50


def enumerate_models(ants, d, cfg, max_models=DEFAULT_MAX_MODELS, time_limit=None):
    """Enumerate up to `max_models` distinct rule lists, best objective first.

    Returns the emitted SearchResults (`.best` is the rule list); shorter when
    the subproblem space is exhausted first.  Emitted objectives are
    non-decreasing: every child subproblem optimizes over a subset of its
    parent's antecedents.
    """
    if max_models < 1:
        raise ValueError("max_models must be >= 1")
    # (objective, push order, optimum over `allowed`, allowed, forbidden):
    # equal objectives pop in push order
    counter = itertools.count()
    root = corels_optimize(ants, d, cfg)
    heap = [(root.objective, next(counter), root, frozenset(ants.ids()), frozenset())]
    emitted = []
    seen = set()
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    while heap:
        _, _, result, allowed, forbidden = heapq.heappop(heap)
        key = canonical_form(result.best)
        if key not in seen:
            seen.add(key)
            emitted.append(result)
        if len(emitted) >= max_models:
            break
        if deadline is not None and time.monotonic() > deadline:
            break
        forbidden = set(forbidden)
        for t in result.best.antecedent_ids:
            if t in forbidden:
                continue
            child_allowed = allowed - {t}
            if child_allowed:
                child = corels_optimize(ants, d, cfg, allowed=child_allowed)
                heapq.heappush(heap, (child.objective, next(counter), child, child_allowed, frozenset(forbidden)))
            forbidden.add(t)
    return emitted
