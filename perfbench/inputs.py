"""Seeded input generators for the benchmark.

The biased data follows the distribution of `fairlists.synth`: a binary
sensitive attribute s with P(s=1) = 0.35, a "qualified" feature f0 with
P(f0=1 | s=1) = 0.6 and P(f0=1 | s=0) = 0.4, fair-coin features f1..f7, and
the deterministic unfair black box b(x) = f0 and (f1 or (s and f2)).

Draws are stratified: every column takes exactly its expected share of ones
(rounded) within each cell of the columns drawn before it, and every noise
column within each cell of (s, f0, f1, f2), the columns that decide the
label.  The seed still places every value, so the rows differ from seed to
seed, but group sizes, approval rates and the noise columns' independence
from the label are the same for every seed.  With plain Bernoulli draws the
`global` grid on 3,000 rows evaluated from 10.6k to 20.3k nodes depending on
the seed, a spread no run length can average away.

The wide raw CSV adds columns that only `fairlists prep` can binarize: a
numeric column bucketized at one edge, a two-category column that is one-hot
encoded, and plain binary noise columns.  With the default mining settings
(min_support 0.05, negations on) it mines to WIDE_ANTECEDENTS antecedents.
"""

import csv

import numpy as np

DEFAULT_SEED = 20240501
N_FEATURES = 8
FEATURE_NAMES = ["f%d" % i for i in range(N_FEATURES)]
SENSITIVE = "s"
LABEL = "y"

AGE_EDGE = 40
WIDE_NOISE = 2
WIDE_ANTECEDENTS = 24  # 16 from f0..f7, 2 from age, 2 from region, 4 from noise
WIDE_RECIPE = "age buckets=[%d]\nregion onehot\n%s sensitive\n%s label\n" % (AGE_EDGE, SENSITIVE, LABEL)


def _stratified(rng, strata, p):
    """uint8 column with round(p * size) ones at random rows of each stratum."""
    out = np.zeros(strata.shape[0], dtype=np.uint8)
    for cell in np.unique(strata):
        rows = np.flatnonzero(strata == cell)
        out[rng.permutation(rows)[: int(round(p * rows.size))]] = 1
    return out


def _cell(*columns):
    code = np.zeros(columns[0].shape[0], dtype=np.int64)
    for c in columns:
        code = 2 * code + c
    return code


def biased_rows(n, seed):
    """(features f0..f7, s, black-box decision, rng, label cell) for n rows;
    the label cell codes (s, f0, f1, f2), the columns the black box reads."""
    rng = np.random.default_rng(seed)
    s = _stratified(rng, np.zeros(n, dtype=np.int64), 0.35)
    f0 = np.where(s == 1, _stratified(rng, s, 0.6), _stratified(rng, s, 0.4)).astype(np.uint8)
    f1 = _stratified(rng, _cell(s, f0), 0.5)
    f2 = _stratified(rng, _cell(s, f0, f1), 0.5)
    label_cell = _cell(s, f0, f1, f2)
    rest = [_stratified(rng, label_cell, 0.5) for _ in range(N_FEATURES - 3)]
    features = np.column_stack([f0, f1, f2] + rest)
    blackbox = (
        (f0 != 0) & ((f1 != 0) | ((s != 0) & (f2 != 0)))
    ).astype(np.uint8)
    return features, s, blackbox, rng, label_cell


def _write(path, header, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


def write_biased(data_path, blackbox_path, n, seed):
    """Binary data CSV (f0..f7, s, y = black-box decision) and the one-column
    black-box predictions CSV, row-aligned."""
    features, s, blackbox, _, _ = biased_rows(n, seed)
    columns = [c.tolist() for c in features.T] + [s.tolist(), blackbox.tolist()]
    _write(data_path, FEATURE_NAMES + [SENSITIVE, LABEL], columns)
    _write(blackbox_path, ["prediction"], [blackbox.tolist()])


def write_wide(raw_path, recipe_path, n, seed):
    """Raw CSV for `fairlists prep` plus its recipe file."""
    features, s, blackbox, rng, label_cell = biased_rows(n, seed)
    young = _stratified(rng, label_cell, 0.5)
    age = np.where(young == 1, rng.integers(18, AGE_EDGE + 1, n), rng.integers(AGE_EDGE + 1, 71, n))
    north = _stratified(rng, label_cell, 0.5)
    region = np.where(north == 1, "north", "south")
    noise = [_stratified(rng, label_cell, 0.5) for _ in range(WIDE_NOISE)]
    header = (
        FEATURE_NAMES
        + ["age", "region"]
        + ["noise%d" % i for i in range(WIDE_NOISE)]
        + [SENSITIVE, LABEL]
    )
    columns = (
        [c.tolist() for c in features.T]
        + [age.tolist(), region.tolist()]
        + [c.tolist() for c in noise]
        + [s.tolist(), blackbox.tolist()]
    )
    _write(raw_path, header, columns)
    with open(recipe_path, "w") as fh:
        fh.write(WIDE_RECIPE)
