"""Command-line surface.

Subcommands: prep, mine, learn, enumerate, global, local, audit, report.
Exit codes: 0 success, 1 usage error, 2 data error, 3 search budget exhausted
without an optimality certificate (learn/enumerate/global/local with --strict).

Every run writes a manifest.txt (sorted key=value lines) capturing the full
configuration including the seed; re-running the same configuration
reproduces byte-identical result files.
"""

import argparse
import contextlib
import csv
import functools
import math
import os
import sys

import numpy as np

from . import recipe as recipe_mod
from .audit import flip_influence, lookup_oracle, rule_list_oracle
from .dataset import DEFAULT_MIN_SUPPORT, SplitSpec, load_csv, mine_antecedents, open_text, split_dataset
from .enumeration import DEFAULT_MAX_MODELS, enumerate_cells, enumerate_models
from .errors import FairlistsError, InvalidValue, MalformedRuleList, UnknownAntecedent
from .metrics import MetricKind, unfairness_of
from .rationalize import DEFAULT_NEIGHBORHOOD_FRACTION, LOCAL_UNFAIRNESS_THRESHOLD, default_k, load_predictions, local_cohort, rationalize_global
from .rules import canonical_form, parse_canonical, read_columns, render
from .search import (
    DEFAULT_LAMBDA,
    DEFAULT_MAX_LENGTH,
    DEFAULT_NODE_BUDGET,
    SearchConfig,
    SearchProblem,
    corels_optimize,
)

GLOBAL_LAMBDA_GRID = [0.005, 0.01]
GLOBAL_BETA_GRID = [0.0, 0.1, 0.2, 0.5, 0.7, 0.9]
LOCAL_BETA_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]

# the flag that sets each parameter an InvalidValue can name
FLAGS = {
    "lam": "--lambda",
    "beta": "--beta",
    "max_length": "--max-length",
    "node_budget": "--node-budget",
    "max_models": "--max-models",
    "min_support": "--min-support",
    "no_negations": "--no-negations",
    "include_sensitive": "--include-sensitive",
    "k": "--k",
    "k_frac": "--k-frac",
    "minority_value": "--minority-value",
    "negative_class": "--negative-class",
    "fractions": "--split",
    "recipe": "--recipe",
    "sensitive": "--sensitive",
    "model": "--model",
}


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_manifest(outdir, args, extra=None):
    entries = {}
    for key, value in sorted(vars(args).items()):
        if value is None:
            continue
        if isinstance(value, (list, tuple)):
            value = ",".join(_fmt(v) for v in value)
        entries[key] = _fmt(value)
    if extra:
        entries.update({k: _fmt(v) for k, v in extra.items()})
    with open(os.path.join(outdir, "manifest.txt"), "w", encoding="utf-8") as fh:
        for key in sorted(entries):
            fh.write("%s=%s\n" % (key, entries[key]))


def _write_models(path, models):
    """models.txt: model_id, objective, misc, unfairness, fidelity, K, canonical."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, m in enumerate(models):
            fh.write(
                "%d\t%s\t%s\t%s\t%s\t%d\t%s\n"
                % (
                    i,
                    _fmt(m.objective),
                    _fmt(m.misc),
                    _fmt(m.unfairness),
                    _fmt(m.fidelity),
                    m.K,
                    canonical_form(m.best),
                )
            )


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_tradeoff(outdir, cells):
    """tradeoff.csv: a row per model of each (lambda, beta, models) cell."""
    rows = [
        (i, lam, beta, m.objective, m.fidelity, m.unfairness, m.K)
        for lam, beta, models in cells
        for i, m in enumerate(models)
    ]
    _write_csv(
        os.path.join(outdir, "tradeoff.csv"),
        ["model_id", "lambda", "beta", "objective", "fidelity", "unfairness", "K"],
        rows,
    )


def _write_audit(outdir, rows):
    """audit.csv: the rows of `_audit_rows`."""
    _write_csv(os.path.join(outdir, "audit.csv"), ["feature", "score", "rank", "model_tag"], rows)


def _exit_code(args, results):
    """3 when --strict is set and one of the results (SearchResults or
    SubjectResults) lacks its optimality certificate, else 0."""
    return 3 if args.strict and not all(r.certified_optimal for r in results) else 0


def _audit_rows(ranking, tag):
    """audit.csv rows (feature, score, rank, model_tag); none for a missing ranking."""
    if ranking is None:
        return []
    return [
        (name, ranking.scores[j], int(ranking.ranks[j]), tag)
        for j, name in enumerate(ranking.feature_names)
    ]


def _only(args, param):
    """The one value of a repeatable flag where a command reads only one."""
    values = getattr(args, param)
    if len(values) != 1:
        raise InvalidValue(param, "%s takes a single value, got %s" % (args.subcommand, ",".join(map(_fmt, values))))
    return values[0]


def _search_config(args, lam=None, beta=None):
    return SearchConfig(
        lam=_only(args, "lam") if lam is None else lam,
        beta=_only(args, "beta") if beta is None else beta,
        metric=MetricKind(args.metric),
        max_length=args.max_length,
        node_budget=args.node_budget,
    )


def _load_data(args):
    return load_csv(args.data, sensitive=args.sensitive, label=args.label)


def _mine(args, d):
    return mine_antecedents(
        d,
        min_support=args.min_support,
        include_negations=not args.no_negations,
        include_sensitive=args.include_sensitive,
    )


def cmd_prep(args):
    directives = recipe_mod.parse_recipe(args.recipe)
    header, matrix = recipe_mod.apply_recipe(args.input, directives)
    # every body cell is 0 or 1: each row is its digits and commas, then a newline
    body = np.full((matrix.shape[0], 2 * matrix.shape[1]), ord(","), dtype=np.uint8)
    body[:, 0::2] = matrix + ord("0")
    body[:, -1] = ord("\n")
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.write(body.tobytes().decode("ascii"))
    return 0


def cmd_mine(args):
    d = _load_data(args)
    ants = _mine(args, d)
    os.makedirs(args.output, exist_ok=True)
    rows = [(a.id, d.feature_names[a.feature], int(a.negated), a.support) for a in ants]
    _write_csv(os.path.join(args.output, "antecedents.csv"), ["id", "feature", "negated", "support"], rows)
    _write_manifest(args.output, args, {"n_antecedents": len(ants)})
    return 0


def _emit_single(args, models):
    os.makedirs(args.output, exist_ok=True)
    _write_models(os.path.join(args.output, "models.txt"), models)
    _write_tradeoff(args.output, [(args.lam[0], args.beta[0], models)])
    _write_manifest(args.output, args, {"n_models": len(models)})
    return _exit_code(args, models)


def cmd_learn(args):
    cfg = _search_config(args)
    d = _load_data(args)
    ants = _mine(args, d)
    return _emit_single(args, [corels_optimize(SearchProblem(ants, d), cfg)])


def cmd_enumerate(args):
    cfg = _search_config(args)
    d = _load_data(args)
    ants = _mine(args, d)
    return _emit_single(args, enumerate_models(SearchProblem(ants, d), cfg, max_models=args.max_models))


def _cell_name(lam, beta):
    return "l%g_b%g" % (lam, beta)


def _check_cell_names(args):
    """Reject a grid in which two cells would share a name: a cell's name
    prints its lambda and beta with %g, so two values of one flag that print
    alike, such as 0.1 and 0.1000001, name the same cells.  A `global` cell
    writes the directory of its name; `local` writes one row per beta and
    prints beta with repr, but keeps the same rule for its grid, so it too
    rejects a repeated beta."""
    for param in ("lam", "beta"):
        seen = {}
        for value in getattr(args, param):
            name = "%g" % value
            if name in seen:
                raise InvalidValue(param, "%s and %s give cells the same name; cell names must differ" % (_fmt(seen[name]), _fmt(value)))
            seen[name] = value


def cmd_global(args):
    if args.seed != 0 and not args.split:
        # only the split draws at random; the flag stays for the manifest
        raise FairlistsError("global --seed %d: only --split is seeded, so without it only --seed 0 is accepted" % args.seed)
    # the rows are labeled with the black box's predictions once; the split
    # carries each prediction with its row
    d = _load_data(args).with_labels(load_predictions(args.blackbox))
    test_set = None
    if args.split:
        try:
            fracs = tuple(float(f) for f in args.split.split(","))
        except ValueError:
            raise InvalidValue("fractions", "split fractions must be numbers: %r" % args.split) from None
        _, d, test_set = split_dataset(d, SplitSpec(fractions=fracs, seed=args.seed))
    # every cell's config is checked before the first cell writes its files
    cells = [(lam, beta, _search_config(args, lam=lam, beta=beta)) for lam in args.lam for beta in args.beta]
    _check_cell_names(args)
    # every cell searches the suing group: mine it and prepare its search
    # once, and enumerate the cells in lockstep so that they share searches
    problem = SearchProblem(_mine(args, d), d)
    # every cell's selection reads the black box's unfairness on the suing
    # rows: it is worked out once, so a grid whose baseline is undefined
    # fails before any search
    baseline = unfairness_of(d.labels, MetricKind(args.metric), d.sensitive, labels=d.labels)
    models_by_cell = enumerate_cells(problem, [cfg for _, _, cfg in cells], args.max_models)
    # the cells share their audits, so each distinct selected list is
    # audited and tested once
    audits = {}
    audit_rows = []
    for (lam, beta, cfg), models in zip(cells, models_by_cell):
        report = rationalize_global(problem, cfg, models, baseline, test_set, audits)
        celldir = os.path.join(args.output, _cell_name(lam, beta))
        os.makedirs(celldir, exist_ok=True)  # and the output directory
        _write_models(os.path.join(celldir, "models.txt"), models)
        extra = {
            "baseline_unfairness": baseline,
            "selected": report.selected if report.selected is not None else "none",
        }
        if report.test_fidelity is not None:
            extra["test_fidelity"] = report.test_fidelity
            extra["test_unfairness"] = report.test_unfairness
        _write_manifest(celldir, args, extra)
        if report.selected is not None:
            audit_rows += _audit_rows(report.selected_ranking, "%s:model%d" % (_cell_name(lam, beta), report.selected))
    # auditing the suing rows reuses the grouping of their rows that the
    # cells' audits made
    audit_rows += _audit_rows(flip_influence(lookup_oracle(d), d), "blackbox")
    _write_tradeoff(args.output, [(lam, beta, models) for (lam, beta, _), models in zip(cells, models_by_cell)])
    _write_audit(args.output, audit_rows)
    _write_manifest(args.output, args, {"n_cells": len(cells)})
    return _exit_code(args, (m for models in models_by_cell for m in models))


def cmd_local(args):
    if args.seed != 0:
        # the cohort run draws nothing at random; the flag stays for the manifest
        raise FairlistsError("local --seed %d: nothing in local is seeded, only --seed 0 is accepted" % args.seed)
    if args.k is not None and args.k_frac is not None:
        raise InvalidValue("k", "give --k or --k-frac, not both")
    if args.k is not None and args.k < 1:
        raise InvalidValue("k", "k must be >= 1, got %d" % args.k)
    if args.k_frac is not None and not 0.0 < args.k_frac <= 1.0:
        raise InvalidValue("k_frac", "k_frac must be in (0, 1], got %r" % args.k_frac)
    cfgs = [_search_config(args, beta=beta) for beta in args.beta]
    _check_cell_names(args)
    d = _load_data(args).with_labels(load_predictions(args.blackbox))
    k = args.k if args.k is not None else default_k(d.n_rows, args.k_frac or DEFAULT_NEIGHBORHOOD_FRACTION)
    reports = local_cohort(
        d,
        cfgs,
        k=k,
        max_models=args.max_models,
        minority_value=args.minority_value,
        negative_class=args.negative_class,
        threshold=args.threshold,
        min_support=args.min_support,
        include_negations=not args.no_negations,
        include_sensitive=args.include_sensitive,
    )
    coverage_rows = []
    cdf_rows = []
    for beta, report in zip(args.beta, reports):
        coverage_rows.append((beta, report.coverage))
        values = sorted(
            r.best_unfairness for r in report.subjects if not math.isnan(r.best_unfairness)
        )
        for i, v in enumerate(values):
            cdf_rows.append((beta, v, (i + 1) / len(values)))
    os.makedirs(args.output, exist_ok=True)
    _write_csv(os.path.join(args.output, "coverage.csv"), ["beta", "coverage"], coverage_rows)
    _write_csv(
        os.path.join(args.output, "cdf.csv"),
        ["beta", "unfairness", "cumulative_fraction"],
        cdf_rows,
    )
    _write_manifest(args.output, args, {"k": k})
    return _exit_code(args, (r for report in reports for r in report.subjects))


@contextlib.contextmanager
def _rule_list_from(where):
    """Name `where` the rule list was read from in a rule-list error."""
    try:
        yield
    except (MalformedRuleList, UnknownAntecedent) as exc:
        raise type(exc)("%s: %s" % (where, exc)) from None


def cmd_audit(args):
    if not (args.model or args.blackbox):
        raise InvalidValue("model", "audit needs --model, --blackbox or both")
    if not args.model:
        mining = {"min_support": DEFAULT_MIN_SUPPORT, "no_negations": False, "include_sensitive": False}
        for param, default in mining.items():
            if getattr(args, param) != default:
                raise InvalidValue(param, "without --model, audit mines no antecedents, so this flag would be ignored")
    d = _load_data(args)
    rows = []
    if args.model:
        with open_text(args.model) as fh:
            text = fh.read().strip()
        ants = _mine(args, d)
        with _rule_list_from(args.model):
            rl = parse_canonical(text.split("\t")[-1])
            oracle = rule_list_oracle(rl, ants)
            columns = read_columns(rl, ants)
    if args.blackbox:
        # mining and the rule-list audit read no labels: both audits share d
        d = d.with_labels(load_predictions(args.blackbox))
    if args.model:
        rows += _audit_rows(flip_influence(oracle, d, columns=columns), "surrogate")
    if args.blackbox:
        rows += _audit_rows(flip_influence(lookup_oracle(d), d), "blackbox")
    os.makedirs(args.output, exist_ok=True)
    _write_audit(args.output, rows)
    _write_manifest(args.output, args)
    return 0


def cmd_report(args):
    d = _load_data(args)
    ants = _mine(args, d)
    lines = []
    path = os.path.join(args.run, "models.txt")
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            with _rule_list_from("%s line %d" % (path, lineno)):
                if len(parts) != 7:
                    raise MalformedRuleList("%d fields, expected 7" % len(parts))
                rendered = render(parse_canonical(parts[6]), ants, d.feature_names)
            lines.append(
                "model %s  objective=%s misc=%s unfairness=%s fidelity=%s K=%s\n  %s"
                % (parts[0], parts[1], parts[2], parts[3], parts[4], parts[5], rendered)
            )
    text = "\n".join(lines) + "\n"
    os.makedirs(args.output, exist_ok=True)
    with open(os.path.join(args.output, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    # stdout gets the bytes of report.txt, whatever the locale's encoding
    sys.stdout.flush()
    sys.stdout.buffer.write(text.encode("utf-8"))
    sys.stdout.buffer.flush()
    return 0


def _add_data_args(p):
    p.add_argument("--data", required=True, help="binary CSV (see prep)")
    p.add_argument("--sensitive", required=True, help="sensitive column name")
    p.add_argument("--label", required=True, help="label column name")
    p.add_argument("--min-support", type=float, default=DEFAULT_MIN_SUPPORT)
    p.add_argument("--no-negations", action="store_true")
    p.add_argument("--include-sensitive", action="store_true", help="allow rules on the sensitive column")


def _add_search_args(p, lam_default, beta_default):
    p.add_argument("--lambda", dest="lam", type=float, action="append", default=None)
    p.add_argument("--beta", type=float, action="append", default=None)
    p.add_argument("--metric", choices=[kind.value for kind in MetricKind], default="dp")
    p.add_argument("--max-length", type=int, default=DEFAULT_MAX_LENGTH)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--strict", action="store_true", help="exit 3 when the node budget forfeits the optimality certificate")
    p.set_defaults(_lam_default=lam_default, _beta_default=beta_default)


@functools.cache
def build_parser():
    """The parser of every subcommand, built on the first call and then
    reused: a parse keeps its values in a new namespace, not in the parser.
    `main` dispatches on the subcommand's name, so each command is looked up
    as the module attribute `cmd_<name>` at the time of the call."""
    parser = argparse.ArgumentParser(prog="fairlists")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("prep", help="binarize a raw CSV with a recipe file")
    p.add_argument("--input", required=True)
    p.add_argument("--recipe", required=True)
    p.add_argument("--output", required=True, help="output CSV path")

    p = sub.add_parser("mine", help="mine antecedents from a binary CSV")
    _add_data_args(p)
    p.add_argument("--output", required=True, help="output directory")

    p = sub.add_parser("learn", help="single optimal rule list")
    _add_data_args(p)
    _add_search_args(p, [DEFAULT_LAMBDA], [0.0])
    p.add_argument("--output", required=True)

    p = sub.add_parser("enumerate", help="K-best rule list enumeration")
    _add_data_args(p)
    _add_search_args(p, [DEFAULT_LAMBDA], [0.0])
    p.add_argument("--max-models", type=int, default=DEFAULT_MAX_MODELS)
    p.add_argument("--output", required=True)

    p = sub.add_parser("global", help="model rationalization over a suing group")
    _add_data_args(p)
    _add_search_args(p, GLOBAL_LAMBDA_GRID, GLOBAL_BETA_GRID)
    p.add_argument("--max-models", type=int, default=DEFAULT_MAX_MODELS)
    p.add_argument("--blackbox", required=True, help="black-box predictions CSV")
    p.add_argument("--split", default=None, help="train,suing,test fractions (else the whole file is the suing group)")
    p.add_argument("--seed", type=int, default=0, help="split seed; only 0 without --split")
    p.add_argument("--threads", type=int, choices=(1,), default=1, help="only 1: the drivers run serially")
    p.add_argument("--output", required=True)

    p = sub.add_parser("local", help="outcome rationalization for the rejected minority cohort")
    _add_data_args(p)
    _add_search_args(p, [DEFAULT_LAMBDA], LOCAL_BETA_GRID)
    p.add_argument("--max-models", type=int, default=DEFAULT_MAX_MODELS)
    p.add_argument("--blackbox", required=True)
    p.add_argument(
        "--minority-value", type=int, default=None,
        help="sensitive value defining the cohort (default: the less frequent one)",
    )
    p.add_argument("--negative-class", type=int, default=0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k-frac", type=float, default=None)
    p.add_argument("--threshold", type=float, default=LOCAL_UNFAIRNESS_THRESHOLD)
    p.add_argument("--seed", type=int, default=0, help="only 0: nothing in local is seeded")
    p.add_argument("--threads", type=int, choices=(1,), default=1, help="only 1: the drivers run serially")
    p.add_argument("--output", required=True)

    p = sub.add_parser("audit", help="flip-influence feature ranking")
    _add_data_args(p)
    p.add_argument("--model", default=None, help="file holding a canonical rule list (or a models.txt line)")
    p.add_argument("--blackbox", default=None)
    p.add_argument("--output", required=True)

    p = sub.add_parser("report", help="human-readable rendering of a models.txt")
    _add_data_args(p)
    p.add_argument("--run", required=True, help="directory containing models.txt")
    p.add_argument("--output", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if getattr(args, "lam", "absent") is None:
        args.lam = list(args._lam_default)
    if getattr(args, "beta", "absent") is None:
        args.beta = list(args._beta_default)
    try:
        return globals()["cmd_" + args.subcommand](args)
    except InvalidValue as exc:
        print("error: %s: %s" % (FLAGS.get(exc.param, exc.param), exc), file=sys.stderr)
        return 2
    except FairlistsError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        # a file that cannot be opened, such as a missing input: name its path
        print("error: %s: %s" % (exc.filename, exc.strerror) if exc.filename else "error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
