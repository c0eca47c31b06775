"""Tabular ingestion, binarization, antecedent mining and dataset splitting.

All feature matrices are dense uint8 arrays with cells in {0, 1}.  Antecedents
are single-feature literals (a column, or its negation), mined as a tuple.
`captures` is the one place that evaluates them on a feature matrix: mining
reads support and duplicates from it, a search problem the rows it
searches, and `rules.predict` the rows a rule list decides.

A clean binarized file, the one `prep` writes (one-digit 0/1 cells, a comma
between them, a newline after each row), is decoded from its bytes by numpy
in one pass.  Any other file, and every raw file `prep` reads, is read by
`read_table` with the csv module, which lets its caller name the first bad
row.  Text is decoded as UTF-8 whatever the locale, and a leading
byte-order mark is dropped.  A dataset groups its equal feature rows once,
on first use (`Dataset.row_classes`), into classes numbered in the order
of their packed rows: the flip audit predicts each class's smallest row,
the audit's lookup oracle searches the classes' keys as they are, and a
search problem's equivalent-points masks read each row's class.
"""

import contextlib
import csv
import io
import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    EmptyFile,
    EmptyPart,
    InvalidValue,
    LengthMismatch,
    MissingColumn,
    NoAntecedents,
    NonBinaryCell,
    RepeatedColumn,
    SingleCategory,
    TooManyCategories,
    UnreadableFile,
)

DEFAULT_MIN_SUPPORT = 0.05
ONE_HOT_CATEGORY_CAP = 32


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n_rows, n_cols) uint8 in {0,1}
    feature_names: list
    sensitive_col: int
    labels: np.ndarray  # (n_rows,) uint8 in {0,1}

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_cols(self):
        return self.features.shape[1]

    @property
    def sensitive(self):
        return self.features[:, self.sensitive_col]

    @cached_property
    def row_classes(self):
        """The classes of equal feature rows, as group_rows gives them:
        (first, sizes, classes).  Grouped on first use and kept while the
        dataset lives; every other dataset groups its own."""
        return group_rows(self.features)

    def with_labels(self, labels):
        """Same rows, labeled by `labels`, such as a black box's predictions
        aligned with the rows; a vector of another length raises
        LengthMismatch."""
        labels = np.asarray(labels, dtype=np.uint8)
        if labels.shape[0] != self.n_rows:
            raise LengthMismatch("%d predictions vs %d rows" % (labels.shape[0], self.n_rows))
        return replace(self, labels=labels)

    def subset(self, row_indices):
        """The rows at the positional indices `row_indices`, in that order."""
        idx = np.asarray(row_indices, dtype=np.int64)
        return Dataset(
            features=self.features[idx],
            feature_names=list(self.feature_names),
            sensitive_col=self.sensitive_col,
            labels=self.labels[idx],
        )


@dataclass(frozen=True)
class Antecedent:
    id: int
    feature: int
    negated: bool
    support: float

    def describe(self, feature_names):
        name = feature_names[self.feature]
        return "not %s" % name if self.negated else name


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple  # (train, suing, test), each in (0,1), summing to 1
    seed: int


def decode_binary(cells):
    """The uint8 array of the text `cells` (empty for no cells), or None
    unless every cell is exactly '0' or '1'.

    The cells joined with ',' must have the length of that many one-digit
    cells and a digit at every even position.  The joins put in one comma
    fewer than the cells, as many as the odd positions, so the commas fill
    them and every cell is one digit: the cells '10' and '' have the right
    length but a comma where a digit belongs.
    """
    text = np.frombuffer(",".join(cells).encode(), dtype=np.uint8)
    if text.size != max(2 * len(cells) - 1, 0):
        return None
    digits = text[0::2] - ord("0")  # wraps below '0'
    if (digits > 1).any():
        return None
    return digits


def decode_clean(raw, start, width):
    """The (rows, width) uint8 matrix of the bytes raw[start:] when every
    line there is `width` one-digit 0/1 cells, a comma between each two and
    a newline after the last; None otherwise, and for no lines at all."""
    text = np.frombuffer(raw, dtype=np.uint8, offset=start)
    if text.size == 0 or text.size % (2 * width):
        return None
    lines = text.reshape(-1, 2 * width)
    digits = lines[:, 0::2] - ord("0")  # wraps below '0'
    ends = lines[:, 1::2]
    if (digits > 1).any() or (ends[:, :-1] != ord(",")).any() or (ends[:, -1] != ord("\n")).any():
        return None
    return digits


@contextlib.contextmanager
def open_text(path, raw=None, newline=None):
    """The text of the file `path`, or of its bytes `raw` when given, decoded
    as UTF-8 whatever the locale, a leading byte-order mark dropped.  Bytes
    that do not decode, or a csv field over the csv module's limit, raise
    UnreadableFile naming the file."""
    try:
        if raw is None:
            fh = open(path, encoding="utf-8-sig", newline=newline)
        else:
            fh = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=newline)
        with fh:
            yield fh
    except UnicodeDecodeError as exc:
        # its position counts from the text layer's last chunk, not the file's start
        bad = "byte 0x%02x does not decode as %s (%s)" % (exc.object[exc.start], exc.encoding, exc.reason)
        raise UnreadableFile("%s: %s" % (path, bad)) from None
    except csv.Error as exc:
        raise UnreadableFile("%s: %s" % (path, exc)) from None


def read_table(raw, path):
    """The csv table in the bytes `raw`, read from `path` and decoded by
    `open_text`: (header, rows, cells, uneven).

    `header` is the first row with its names stripped; a name that repeats
    raises RepeatedColumn.  `rows` are the rows after it up to the first row
    of another width, and `cells` their cells stripped, row after row.
    `uneven` is the NonBinaryCell that reports that row, or None when there
    is none: a caller reports any bad cell of `rows` first, then raises it.
    """
    with open_text(path, raw, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyFile("%s has no header row" % path)
        seen = set()
        for h in header:
            if h in seen:
                raise RepeatedColumn("column %r appears more than once in the header of %s" % (h, path))
            seen.add(h)
        rows, uneven = [], None
        for row in reader:
            if len(row) != len(header):
                uneven = NonBinaryCell("row %d has %d cells, expected %d" % (len(rows), len(row), len(header)))
                break
            rows.append(row)
    return header, rows, list(map(str.strip, itertools.chain.from_iterable(rows))), uneven


def load_csv(path, sensitive, label):
    """Read a binarized CSV into a Dataset.

    Every column except `label` becomes a feature (the sensitive column
    included).  Cells must be 0 or 1, surrounding whitespace aside.  The
    first bad row is reported: a row with another number of cells than the
    header, or the first cell that is not 0/1, by row and column (the label
    cell before the features).  The sensitive column may not be the label,
    and no name may repeat in the header.

    When the first line holds no quote and no carriage return, it is the
    whole header, and a clean body after it is decoded by `decode_clean`;
    `read_table` then reads that line alone.  Any other file is read whole
    by `read_table`.
    """
    if sensitive == label:
        raise InvalidValue("sensitive", "the sensitive column %r is also the label" % sensitive)
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\n") + 1
    head = raw[:end]
    bits = None
    if end and b'"' not in head and b"\r" not in head:
        # a header line of one cell more than it has commas
        bits = decode_clean(raw, end, head.count(b",") + 1)
    header, rows, cells, uneven = read_table(raw if bits is None else head, path)
    if sensitive not in header:
        raise MissingColumn("sensitive column %r not in %s" % (sensitive, path))
    if label not in header:
        raise MissingColumn("label column %r not in %s" % (label, path))
    width = len(header)
    label_idx = header.index(label)
    if bits is None:
        bits = decode_binary(cells)
        if bits is None:
            # the first bad cell: rows in order, each row's label cell first
            order = [label_idx] + [i for i in range(width) if i != label_idx]
            ok = np.fromiter(map({"0", "1"}.__contains__, cells), dtype=bool, count=len(cells))
            r, k = divmod(int(ok.reshape(-1, width)[:, order].argmin()), width)
            i = order[k]
            raise NonBinaryCell("row %d, column %r: %r is not 0/1" % (r, header[i], rows[r][i]))
        if uneven:
            raise uneven
        if not rows:
            raise EmptyFile("%s has no data rows" % path)
        bits = bits.reshape(len(rows), width)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    features = np.delete(bits, label_idx, axis=1)
    return Dataset(
        features=features,
        feature_names=feature_names,
        sensitive_col=feature_names.index(sensitive),
        labels=bits[:, label_idx].copy(),
    )


def one_hot(values, col):
    """Expand the categorical column `col`, the list of string `values`,
    into one binary indicator column per category.  Categories are sorted
    so the output is deterministic.  Returns (feature_names, uint8 matrix).
    """
    cats = sorted(set(values))
    if len(cats) < 2:
        raise SingleCategory("column %r has a single category" % col)
    if len(cats) > ONE_HOT_CATEGORY_CAP:
        raise TooManyCategories(
            "column %r has %d categories (cap %d)" % (col, len(cats), ONE_HOT_CATEGORY_CAP)
        )
    names = ["%s_%s" % (col, cat) for cat in cats]
    code = {cat: k for k, cat in enumerate(cats)}
    codes = np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=len(values))
    return names, (codes[:, None] == np.arange(len(cats))).astype(np.uint8)


def row_keys(bits):
    """Each row of the (n, m) 0/1 matrix `bits` as one bytes key, its cells
    packed to whole bytes: two keys of m-column matrices are equal exactly
    when their rows are."""
    n, m = bits.shape
    width = max(-(-m // 8), 1)
    padded = np.zeros((n, 8 * width), dtype=bool)
    padded[:, :m] = bits
    # rows padded to whole bytes pack in one flat call
    return np.packbits(padded).view(np.dtype((np.void, width)))


def _sort_rows(bits):
    """The rows of the (n, m) 0/1 matrix `bits` sorted by key (`row_keys`),
    byte by byte, the first byte first, with np.lexsort, which is faster
    than np.unique(axis=0): (order, new, classes), where order lists the
    rows in that order, new[i] says whether row order[i] starts a class of
    equal rows, and row r is in class classes[r], the classes numbered in
    that order.  The sort is stable, so each class's first row is its
    smallest."""
    n = bits.shape[0]
    keys = row_keys(bits)
    order = np.lexsort(keys.view(np.uint8).reshape(n, keys.itemsize).T[::-1])
    rows = keys[order]
    new = np.ones(n, dtype=bool)
    new[1:] = rows[1:] != rows[:-1]
    classes = np.empty(n, dtype=np.intp)
    # the method: np.cumsum's dispatch outweighs the sum on few rows
    classes[order] = new.cumsum() - 1
    return order, new, classes


def group_rows(bits):
    """The classes of equal rows of the (n, m) 0/1 matrix `bits`, as
    (first, sizes, classes): class c holds sizes[c] rows, the smallest of
    them first[c], and row r is in class classes[r].  Classes are numbered
    in ascending order of their keys (`_sort_rows`)."""
    order, new, classes = _sort_rows(bits)
    starts = np.flatnonzero(new)
    return order[starts], np.diff(np.concatenate((starts, [bits.shape[0]]))), classes


def row_class_ids(bits):
    """The classes of `group_rows(bits)` alone, for a caller that reads
    neither each class's first row nor its size."""
    return _sort_rows(bits)[2]


def captures(ants, features):
    """Which rows of the (n, m) 0/1 matrix `features` each antecedent of
    `ants` captures, as an (antecedents, n) bool matrix, one contiguous row
    per antecedent: mining, the search and prediction all evaluate
    antecedents here.  An antecedent captures the rows whose cell in its
    feature column is 1, or 0 when it is negated."""
    negated = np.array([a.negated for a in ants], dtype=bool)
    return (features.T[[a.feature for a in ants]] != 0) ^ negated[:, None]


def mine_antecedents(
    d,
    min_support=DEFAULT_MIN_SUPPORT,
    include_negations=True,
    include_sensitive=False,
):
    """The tuple of antecedents mined on `d`: one per feature column, plus
    its negation when asked.

    The candidate literals are numbered in column order, a column before
    its negation, and a literal's id is its number.  The sensitive column
    is skipped unless `include_sensitive`, so surrogates cannot branch on it
    directly, and takes no number.  A literal is kept when both its support
    and its complement's support are at least `min_support`; of literals
    that capture the same rows, only the lowest id is kept.
    """
    if not 0 <= min_support <= 0.5:
        raise InvalidValue("min_support", "min_support must be in [0, 0.5], got %r" % (min_support,))
    columns = [col for col in range(d.n_cols) if col != d.sensitive_col or include_sensitive]
    signs = (False, True) if include_negations else (False,)
    literals = [
        Antecedent(id=i, feature=col, negated=negated, support=None)
        for i, (col, negated) in enumerate(itertools.product(columns, signs))
    ]
    caps = captures(literals, d.features)
    ants = []
    seen = set()
    for literal, capture, count in zip(literals, caps, np.count_nonzero(caps, axis=1).tolist()):
        support = count / d.n_rows
        key = capture.tobytes()
        if support < min_support or (1.0 - support) < min_support or key in seen:
            continue
        seen.add(key)
        ants.append(Antecedent(literal.id, literal.feature, literal.negated, support))
    if not ants:
        raise NoAntecedents("no antecedent passed min_support=%g" % min_support)
    return tuple(ants)


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
        d.subset(perm[:n_train]),
        d.subset(perm[n_train : n_train + n_suing]),
        d.subset(perm[n_train + n_suing :]),
    )
