"""Tabular ingestion, binarization, antecedent mining and dataset splitting.

All feature matrices are dense uint8 arrays with cells in {0, 1}.  Antecedents
are single-feature literals (a column, or its negation) with a precomputed
capture bitvector over the rows of the dataset they were mined on.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyFile,
    EmptyPart,
    InvalidValue,
    MissingColumn,
    NoAntecedents,
    NonBinaryCell,
    SingleCategory,
    TooManyCategories,
)

DEFAULT_MIN_SUPPORT = 0.05
ONE_HOT_CATEGORY_CAP = 32


@dataclass(frozen=True)
class Dataset:
    name: str
    features: np.ndarray  # (n_rows, n_cols) uint8 in {0,1}
    feature_names: list
    sensitive_col: int
    labels: np.ndarray  # (n_rows,) uint8 in {0,1}
    row_ids: np.ndarray  # (n_rows,) stable integer ids

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_cols(self):
        return self.features.shape[1]

    @property
    def sensitive(self):
        return self.features[:, self.sensitive_col]

    def with_labels(self, labels):
        """Same rows, different label vector (e.g. black-box relabeling)."""
        labels = np.asarray(labels, dtype=np.uint8)
        if labels.shape[0] != self.n_rows:
            raise NonBinaryCell("label vector length %d != %d rows" % (labels.shape[0], self.n_rows))
        return replace(self, labels=labels)

    def subset(self, row_indices, name=None):
        """Row subset by positional indices; row_ids are carried over."""
        idx = np.asarray(row_indices, dtype=np.int64)
        return Dataset(
            name=name or self.name,
            features=self.features[idx],
            feature_names=list(self.feature_names),
            sensitive_col=self.sensitive_col,
            labels=self.labels[idx],
            row_ids=self.row_ids[idx],
        )


@dataclass(frozen=True)
class Antecedent:
    id: int
    feature: int
    negated: bool
    capture: np.ndarray  # (n_rows,) bool
    support: float

    def satisfies(self, features):
        """Evaluate the predicate on an arbitrary feature matrix."""
        col = features[:, self.feature] != 0
        return ~col if self.negated else col

    def describe(self, feature_names):
        name = feature_names[self.feature]
        return "not %s" % name if self.negated else name


@dataclass(frozen=True)
class AntecedentSet:
    antecedents: list
    source_dataset: Dataset

    def __len__(self):
        return len(self.antecedents)

    def by_id(self):
        return {a.id: a for a in self.antecedents}

    def ids(self):
        return [a.id for a in self.antecedents]


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple  # (train, suing, test), each in (0,1), summing to 1
    seed: int


def _parse_binary_cell(value, row, col_name):
    v = value.strip()
    if v == "0":
        return 0
    if v == "1":
        return 1
    raise NonBinaryCell("row %d, column %r: %r is not 0/1" % (row, col_name, value))


def load_csv(path, sensitive, label, name=None):
    """Read a binarized CSV into a Dataset.

    Every column except `label` becomes a feature (the sensitive column
    included).  Cells must be 0 or 1; rows with anything else are rejected.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile("%s has no header row" % path)
        header = [h.strip() for h in header]
        if sensitive not in header:
            raise MissingColumn("sensitive column %r not in %s" % (sensitive, path))
        if label not in header:
            raise MissingColumn("label column %r not in %s" % (label, path))
        label_idx = header.index(label)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        feat_rows, label_vals = [], []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                raise NonBinaryCell("row %d has %d cells, expected %d" % (r, len(row), len(header)))
            label_vals.append(_parse_binary_cell(row[label_idx], r, label))
            feat_rows.append(
                [_parse_binary_cell(c, r, header[i]) for i, c in enumerate(row) if i != label_idx]
            )
    if not feat_rows:
        raise EmptyFile("%s has no data rows" % path)
    features = np.array(feat_rows, dtype=np.uint8)
    return Dataset(
        name=name or str(path),
        features=features,
        feature_names=feature_names,
        sensitive_col=feature_names.index(sensitive),
        labels=np.array(label_vals, dtype=np.uint8),
        row_ids=np.arange(features.shape[0], dtype=np.int64),
    )


def one_hot(table, max_categories=ONE_HOT_CATEGORY_CAP):
    """Expand categorical columns into binary indicator columns.

    `table` maps column name -> list of string values (all columns must have
    equal length).  Categories are sorted so the output is deterministic.
    Returns (feature_names, uint8 matrix).
    """
    names, cols = [], []
    for col_name, values in table.items():
        cats = sorted(set(values))
        if len(cats) < 2:
            raise SingleCategory("column %r has a single category" % col_name)
        if len(cats) > max_categories:
            raise TooManyCategories(
                "column %r has %d categories (cap %d)" % (col_name, len(cats), max_categories)
            )
        for cat in cats:
            names.append("%s_%s" % (col_name, cat))
            cols.append(np.fromiter((1 if v == cat else 0 for v in values), dtype=np.uint8))
    return names, np.column_stack(cols)


def mine_antecedents(
    d,
    min_support=DEFAULT_MIN_SUPPORT,
    include_negations=True,
    include_sensitive=False,
):
    """One antecedent per feature column (plus its negation when asked).

    A literal is kept when both its support and its complement's support are
    at least `min_support`.  The sensitive column is skipped unless
    `include_sensitive`, so surrogates cannot branch on it directly.
    Antecedents with identical capture bitvectors are deduplicated, keeping
    the lowest id.
    """
    if not 0 <= min_support <= 0.5:
        raise InvalidValue("min_support", "min_support must be in [0, 0.5], got %r" % (min_support,))
    n = d.n_rows
    ants = []
    next_id = 0
    seen_captures = {}
    for col in range(d.n_cols):
        if col == d.sensitive_col and not include_sensitive:
            continue
        base = d.features[:, col] != 0
        variants = [(False, base)]
        if include_negations:
            variants.append((True, ~base))
        for negated, capture in variants:
            support = int(capture.sum()) / n
            if support < min_support or (1.0 - support) < min_support:
                next_id += 1
                continue
            key = capture.tobytes()
            if key in seen_captures:
                next_id += 1
                continue
            seen_captures[key] = next_id
            ants.append(
                Antecedent(id=next_id, feature=col, negated=negated, capture=capture, support=support)
            )
            next_id += 1
    if not ants:
        raise NoAntecedents("no antecedent passed min_support=%g" % min_support)
    return AntecedentSet(antecedents=ants, source_dataset=d)


def split_dataset(d, spec):
    """Seeded shuffle, then contiguous (train, suing, test) partition."""
    if len(spec.fractions) != 3:
        raise InvalidValue("fractions", "split needs three fractions, got %r" % (spec.fractions,))
    f_train, f_suing, f_test = spec.fractions
    for f in spec.fractions:
        if not 0.0 < f < 1.0:
            raise InvalidValue("fractions", "split fractions must be in (0,1): %r" % (spec.fractions,))
    if abs(f_train + f_suing + f_test - 1.0) > 1e-9:
        raise InvalidValue("fractions", "split fractions must sum to 1: %r" % (spec.fractions,))
    n = d.n_rows
    n_train = int(f_train * n)
    n_suing = int(f_suing * n)
    n_test = n - n_train - n_suing
    if min(n_train, n_suing, n_test) == 0:
        raise EmptyPart("split %r of %d rows leaves an empty part" % (spec.fractions, n))
    perm = np.random.default_rng(spec.seed).permutation(n)
    return (
        d.subset(perm[:n_train], name=d.name + ":train"),
        d.subset(perm[n_train : n_train + n_suing], name=d.name + ":suing"),
        d.subset(perm[n_train + n_suing :], name=d.name + ":test"),
    )
