"""The workloads: inputs, CLI calls, op boundary and output checks.

Sizes are chosen so that one pass takes a few seconds on a 2-core machine
while each workload keeps the layer shares it is there to measure:

- global_grid: the only workload with the audit; audit and search split
  the time, and all 12 grid cells share the data, the mining and the
  black-box ranking.  The 0.2/0.6/0.2 split adds the test-set evaluation,
  the only `rules.predict` calls in the gated set.  `--threads 1`: on a
  2-vCPU machine the 2-thread pool was slower than one thread (the cells
  hold the GIL), and a cell's time depended on which cell happened to run
  beside it, which made `op_p50_ms` the noisiest metric of the benchmark.
- wide_search: prep of a raw CSV, then one enumeration at depth 4 over 24
  antecedents on 5,000 rows, where the per-node cost grows with n; the only
  workload with real ingest; no audit, no knn.
- local_cohort: about 500 subjects, each one search on a 100-row
  neighborhood, where per-call and per-node constant costs, knn and mining
  dominate; no audit, no pool.  It runs by hand but is not in
  BENCHMARK.json: on a shared 2-vCPU machine its pass time moved by up to
  1.5x within one run, and its spread over ten seeds reached a third of the
  median.  Two settings keep its subjects alike from seed to seed.
  `--max-models 1`: with K-best enumeration a subject costs either one
  search or up to ten, and the median subject moved by a third between
  seeds.  `--lambda 0.001`: at the default 0.005 the median search took 403
  to 494 nodes depending on the seed, and the lower quartile 1 to 345; at
  0.001 the median takes 494 on every seed tried.
"""

import os
from dataclasses import dataclass

from fairlists.dataset import SplitSpec, load_csv, mine_antecedents, split_dataset

import checker
import inputs
from layers import OP_GLOBAL, OP_LOCAL, OP_SEARCH

DATA = ["--sensitive", inputs.SENSITIVE, "--label", inputs.LABEL]
GLOBAL_LAMBDAS = (0.005, 0.01)
GLOBAL_BETAS = (0.0, 0.1, 0.2, 0.5, 0.7, 0.9)
GLOBAL_SPLIT = (0.2, 0.6, 0.2)  # train, suing, test; the CLI's default split seed 0
LOCAL_LAMBDA = 0.001
LOCAL_BETAS = (0.5,)
WIDE_LAMBDA = 0.005
WIDE_BETA = 0.1
WHOLE_PASS = "*"  # check unit standing for every op of the pass


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    op: str  # span name of one op
    tail_pct: int  # percentile reported as op_tail_ms
    prepare: object  # (indir, n, seed) -> None, writes the inputs
    commands: object  # (indir, passdir) -> list of CLI argv lists
    check: object  # (indir, passdir) -> [(unit, problem)]


def _flags(name, values):
    out = []
    for v in values:
        out += [name, repr(v)]
    return out


def _prepare_biased(indir, n, seed):
    inputs.write_biased(os.path.join(indir, "data.csv"), os.path.join(indir, "blackbox.csv"), n, seed)


def _global_commands(indir, passdir):
    return [
        ["global", "--data", os.path.join(indir, "data.csv"), *DATA,
         "--blackbox", os.path.join(indir, "blackbox.csv"),
         *_flags("--lambda", GLOBAL_LAMBDAS), *_flags("--beta", GLOBAL_BETAS),
         "--split", ",".join(map(repr, GLOBAL_SPLIT)),
         "--max-length", "3", "--threads", "1", "--output", os.path.join(passdir, "out")],
    ]


def _global_check(indir, passdir):
    # the models are fitted to the suing group, whose labels are the black
    # box's decisions
    full = load_csv(os.path.join(indir, "data.csv"), inputs.SENSITIVE, inputs.LABEL)
    d = split_dataset(full, SplitSpec(fractions=GLOBAL_SPLIT, seed=0))[1]
    ants = mine_antecedents(d)
    problems = []
    for lam in GLOBAL_LAMBDAS:
        for beta in GLOBAL_BETAS:
            cell = "l%g_b%g" % (lam, beta)
            path = os.path.join(passdir, "out", cell, "models.txt")
            cfg = checker.search_config(lam, beta, max_length=3)
            problems += [(cell, msg) for _, msg in checker.check_models(path, d, ants, cfg)]
    return problems


def _local_commands(indir, passdir):
    return [
        ["local", "--data", os.path.join(indir, "data.csv"), *DATA,
         "--blackbox", os.path.join(indir, "blackbox.csv"),
         "--lambda", repr(LOCAL_LAMBDA), *_flags("--beta", LOCAL_BETAS),
         "--k", "100", "--max-length", "3", "--max-models", "1", "--threads", "1",
         "--output", os.path.join(passdir, "out")],
    ]


def _local_check(indir, passdir):
    return [(WHOLE_PASS, p) for p in checker.check_cdf(os.path.join(passdir, "out"), LOCAL_BETAS)]


def _prepare_wide(indir, n, seed):
    inputs.write_wide(os.path.join(indir, "raw.csv"), os.path.join(indir, "recipe.txt"), n, seed)


def _wide_commands(indir, passdir):
    data = os.path.join(passdir, "data.csv")
    return [
        ["prep", "--input", os.path.join(indir, "raw.csv"),
         "--recipe", os.path.join(indir, "recipe.txt"), "--output", data],
        ["enumerate", "--data", data, *DATA, "--lambda", repr(WIDE_LAMBDA), "--beta", repr(WIDE_BETA),
         "--max-length", "4", "--max-models", "50", "--output", os.path.join(passdir, "out")],
    ]


def _wide_check(indir, passdir):
    d = load_csv(os.path.join(passdir, "data.csv"), inputs.SENSITIVE, inputs.LABEL)
    ants = mine_antecedents(d)
    problems = []
    if len(ants) != inputs.WIDE_ANTECEDENTS:
        problems.append((WHOLE_PASS, "%d antecedents mined, expected %d" % (len(ants), inputs.WIDE_ANTECEDENTS)))
    cfg = checker.search_config(WIDE_LAMBDA, WIDE_BETA, max_length=4)
    path = os.path.join(passdir, "out", "models.txt")
    problems += [(lineno or WHOLE_PASS, msg) for lineno, msg in checker.check_models(path, d, ants, cfg)]
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("global_grid", 10000, OP_GLOBAL, 75, _prepare_biased, _global_commands, _global_check),
        Workload("local_cohort", 4000, OP_LOCAL, 95, _prepare_biased, _local_commands, _local_check),
        Workload("wide_search", 5000, OP_SEARCH, 75, _prepare_wide, _wide_commands, _wide_check),
    )
}
