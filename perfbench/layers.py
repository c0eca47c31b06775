"""The traced layers: where each is wrapped, and the metrics derived from
its spans.

A layer is a module of the program.  Each target names the module attribute
a caller looks the function up in, so the wrapper sees exactly the calls
made from that caller.  The per-row audit oracle is not wrapped: its cost
is charged to `flip_influence`, whose flip count comes from its arguments.
"""

import statistics

from fairlists import cli, enumeration, rationalize, recipe

OP_GLOBAL = "rationalize.rationalize_global"
OP_LOCAL = "rationalize.rationalize_local"
OP_SEARCH = "search.corels_optimize"


def _search_counts(args, kwargs, result):
    return {"nodes": result.nodes_evaluated, "certified": result.certified_optimal}


def _enumeration_counts(args, kwargs, result):
    return {"models": len(result)}


def _audit_counts(args, kwargs, result):
    n, m = args[1].features.shape
    return {"flips": 2 * n * m}


TARGETS = [
    (cli, "cmd_prep", "cli.cmd_prep", None),
    (cli, "cmd_enumerate", "cli.cmd_enumerate", None),
    (cli, "cmd_global", "cli.cmd_global", None),
    (cli, "cmd_local", "cli.cmd_local", None),
    (recipe, "apply_recipe", "recipe.apply_recipe", None),
    (cli, "load_csv", "dataset.load_csv", None),
    (cli, "mine_antecedents", "dataset.mine_antecedents", None),
    (rationalize, "mine_antecedents", "dataset.mine_antecedents", None),
    (cli, "corels_optimize", OP_SEARCH, _search_counts),
    (enumeration, "corels_optimize", OP_SEARCH, _search_counts),
    (cli, "enumerate_models", "enumeration.enumerate_models", _enumeration_counts),
    (rationalize, "enumerate_models", "enumeration.enumerate_models", _enumeration_counts),
    (rationalize, "predict", "rules.predict", None),
    (cli, "flip_influence", "audit.flip_influence", _audit_counts),
    (rationalize, "flip_influence", "audit.flip_influence", _audit_counts),
    (cli, "load_predictions", "rationalize.load_predictions", None),
    (cli, "rationalize_global", OP_GLOBAL, None),
    (cli, "local_cohort", "rationalize.local_cohort", None),
    (rationalize, "rationalize_local", OP_LOCAL, None),
    (rationalize, "knn_neighborhood", "rationalize.knn_neighborhood", None),
]

LAYERS = ("cli", "recipe", "dataset", "search", "enumeration", "rules", "audit", "rationalize")

# per-layer metric name -> unit, in report order
UNITS = {
    "recipe.apply_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.mine_calls": "count",
    "dataset.mine_s": "s",
    "search.calls": "count",
    "search.busy_s": "s",
    "search.nodes_evaluated": "count",
    "search.us_per_node": "us",
    "search.ms_per_call": "ms",
    "search.uncertified": "count",
    "enumeration.calls": "count",
    "enumeration.self_s": "s",
    "enumeration.subproblems": "count",
    "enumeration.models_emitted": "count",
    "enumeration.emit_ratio": "ratio",
    "rules.predict_calls": "count",
    "rules.predict_s": "s",
    "audit.calls": "count",
    "audit.busy_s": "s",
    "audit.flips": "count",
    "rationalize.knn_calls": "count",
    "rationalize.knn_s": "s",
    "rationalize.knn_per_subject": "ratio",
    "rationalize.global_self_s": "s",
    "rationalize.local_self_s": "s",
    "rationalize.cohort_self_s": "s",
    "trace.overhead_s": "s",
    "cli.self_s": "s",
    "cli.grid_overlap": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(spans, selfs):
    """Per-layer metrics of one traced pass (everything but trace.*)."""
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[sp.id] for sp in by_name.get(name, ()))

    def busy_s(name):
        return sum(sp.duration for sp in by_name.get(name, ()))

    def total(name, key):
        return sum(sp.info[key] for sp in by_name.get(name, ()))

    searches = by_name.get(OP_SEARCH, [])
    enum_ids = {sp.id for sp in by_name.get("enumeration.enumerate_models", ())}
    nodes = total(OP_SEARCH, "nodes")
    search_busy = busy_s(OP_SEARCH)
    subproblems = sum(1 for sp in searches if sp.parent in enum_ids)
    emitted = total("enumeration.enumerate_models", "models")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for sp in spans:
        layer_self[sp.layer] += selfs[sp.id]
    return {
        "recipe.apply_s": layer_self["recipe"],
        "dataset.load_csv_s": self_s("dataset.load_csv"),
        "dataset.mine_calls": calls("dataset.mine_antecedents"),
        "dataset.mine_s": self_s("dataset.mine_antecedents"),
        "search.calls": len(searches),
        "search.busy_s": search_busy,
        "search.nodes_evaluated": nodes,
        "search.us_per_node": 1e6 * _ratio(search_busy, nodes),
        "search.ms_per_call": 1e3 * _ratio(search_busy, len(searches)),
        "search.uncertified": sum(1 for sp in searches if not sp.info["certified"]),
        "enumeration.calls": len(enum_ids),
        "enumeration.self_s": layer_self["enumeration"],
        "enumeration.subproblems": subproblems,
        "enumeration.models_emitted": emitted,
        "enumeration.emit_ratio": _ratio(emitted, subproblems),
        "rules.predict_calls": calls("rules.predict"),
        "rules.predict_s": layer_self["rules"],
        "audit.calls": calls("audit.flip_influence"),
        "audit.busy_s": busy_s("audit.flip_influence"),
        "audit.flips": total("audit.flip_influence", "flips"),
        "rationalize.knn_calls": calls("rationalize.knn_neighborhood"),
        "rationalize.knn_s": self_s("rationalize.knn_neighborhood"),
        "rationalize.knn_per_subject": _ratio(calls("rationalize.knn_neighborhood"), calls(OP_LOCAL)),
        "rationalize.global_self_s": self_s(OP_GLOBAL),
        "rationalize.local_self_s": self_s(OP_LOCAL),
        "rationalize.cohort_self_s": self_s("rationalize.local_cohort"),
        "cli.self_s": layer_self["cli"],
        "cli.grid_overlap": _ratio(busy_s(OP_GLOBAL), busy_s("cli.cmd_global")),
    }, layer_self


def summarize(traced, untraced_walls):
    """Median over traced passes of each metric, plus trace.overhead_s.

    `traced` holds one (metrics, wall) pair per traced pass.
    """
    out = {}
    for name in UNITS:
        if name == "trace.overhead_s":
            out[name] = statistics.median(w for _, w in traced) - statistics.median(untraced_walls)
        else:
            out[name] = statistics.median(m[name] for m, _ in traced)
    return out
