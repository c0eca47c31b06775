"""Checks on the result files the CLI writes, and their digest.

Each `models.txt` line is recomputed from scratch: the rule list is parsed
from its canonical form and predicted with `rules.predict`, and misc,
unfairness and objective are recomputed with `metrics.unfairness_of` and
`search.objective`.  Objectives must be non-decreasing down the file and
canonical forms distinct.  Certification is not read from files, because
`global` writes `certified_optimal=True` for every model; the traced run
counts uncertified searches from the search results instead.
"""

import hashlib
import math
import os

from fairlists.metrics import MetricKind, unfairness_of
from fairlists.rules import parse_canonical, predict
from fairlists.search import SearchConfig, objective

# manifest keys whose values are paths that differ between runs
PATH_KEYS = ("blackbox", "data", "output")


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_models(path, d, ants, cfg):
    """Problems found in one models.txt, as (line number, message) pairs;
    line 0 stands for the whole file.

    `d` carries the labels the models were fitted to and `ants` the
    antecedents mined from it.
    """
    problems = []
    seen = set()
    prev = -math.inf
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        return [(0, "%s: no models" % path)]
    for lineno, line in enumerate(lines, 1):
        where = "%s:%d" % (path, lineno)
        parts = line.split("\t")
        if len(parts) != 7:
            problems.append((lineno, "%s: %d fields, expected 7" % (where, len(parts))))
            continue
        obj, misc, unf, fid = (float(x) for x in parts[1:5])
        K, canonical = int(parts[5]), parts[6]
        rl = parse_canonical(canonical)
        preds = predict(rl, ants, d)
        r_misc = int((preds != d.labels).sum()) / d.n_rows
        r_unf = unfairness_of(preds, cfg.metric, d.sensitive)
        r_obj = objective(r_misc, r_unf, rl.K, cfg)
        for field, written, recomputed in (
            ("misc", misc, r_misc),
            ("unfairness", unf, r_unf),
            ("objective", obj, r_obj),
            ("fidelity", fid, 1.0 - r_misc),
        ):
            if not _close(written, recomputed):
                problems.append((lineno, "%s: %s %r, recomputed %r" % (where, field, written, recomputed)))
        if K != rl.K:
            problems.append((lineno, "%s: K %d, rule list has %d rules" % (where, K, rl.K)))
        if obj < prev and not _close(obj, prev):
            problems.append((lineno, "%s: objective %r below the previous %r" % (where, obj, prev)))
        prev = max(prev, obj)
        if canonical in seen:
            problems.append((lineno, "%s: duplicate model %s" % (where, canonical)))
        seen.add(canonical)
    return problems


def search_config(lam, beta, max_length):
    return SearchConfig(lam=lam, beta=beta, metric=MetricKind.DEMOGRAPHIC_PARITY, max_length=max_length)


def check_cdf(outdir, betas):
    """Problems in a `local` run's coverage.csv and cdf.csv."""
    problems = []
    with open(os.path.join(outdir, "coverage.csv")) as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    if [float(b) for b, _ in rows] != list(betas):
        problems.append("coverage.csv: betas %r, expected %r" % ([b for b, _ in rows], betas))
    for b, cov in rows:
        if not 0.0 <= float(cov) <= 1.0:
            problems.append("coverage.csv: beta %s coverage %s outside [0, 1]" % (b, cov))
    with open(os.path.join(outdir, "cdf.csv")) as fh:
        cdf = [line.strip().split(",") for line in fh][1:]
    for beta in betas:
        vals = [(float(u), float(c)) for b, u, c in cdf if float(b) == beta]
        m = len(vals)
        for i, (u, c) in enumerate(vals):
            if not 0.0 <= u <= 1.0:
                problems.append("cdf.csv: beta %r unfairness %r outside [0, 1]" % (beta, u))
            if i and u < vals[i - 1][0]:
                problems.append("cdf.csv: beta %r unfairness not sorted at row %d" % (beta, i))
            if not _close(c, (i + 1) / m):
                problems.append("cdf.csv: beta %r row %d fraction %r, expected %r" % (beta, i, c, (i + 1) / m))
    return problems


def _normalized(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) != "manifest.txt":
        return data
    lines = []
    for line in data.decode().splitlines():
        key, _, value = line.partition("=")
        if key in PATH_KEYS:
            value = os.path.basename(value)
        lines.append("%s=%s" % (key, value))
    return ("\n".join(lines) + "\n").encode()


def digest(root):
    """sha256 over every file under `root`, by relative path, with the
    run-specific paths in manifest.txt reduced to their base names."""
    h = hashlib.sha256()
    files = []
    for dirpath, _, names in os.walk(root):
        files.extend(os.path.join(dirpath, name) for name in names)
    for path in sorted(files, key=lambda p: os.path.relpath(p, root)):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        h.update(rel.encode() + b"\0")
        h.update(_normalized(path) + b"\0")
    return h.hexdigest()
