"""Preprocessing recipes: turn a raw CSV into the binary layout load_csv wants.

A recipe is a plain text file with one directive per line:

    <column> onehot
    <column> buckets=[e1,e2,...]
    <column> drop
    <column> label
    <column> sensitive

Columns without a directive must already be binary (0/1).  `buckets` splits a
numeric column at the given edges into interval indicator columns.  `label`
and `sensitive` columns must be binary, or have exactly two distinct values
(mapped to 0/1 in sorted order).  Missing cells are rejected, not imputed.
"""

import csv

import numpy as np

from .errors import EmptyFile, InvalidValue, MissingColumn, NonBinaryCell
from .dataset import ONE_HOT_CATEGORY_CAP, one_hot


def parse_recipe(path):
    """Read a recipe file into {column: directive} where directive is
    'onehot' | 'drop' | 'label' | 'sensitive' | ('buckets', [floats])."""
    directives = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise InvalidValue("recipe", "recipe line %d: expected '<column> <directive>'" % lineno)
            col, directive = parts[0], parts[1].strip()
            if directive in ("onehot", "drop", "label", "sensitive"):
                directives[col] = directive
            elif directive.startswith("buckets=[") and directive.endswith("]"):
                try:
                    edges = [float(e) for e in directive[len("buckets=[") : -1].split(",") if e.strip()]
                except ValueError:
                    raise InvalidValue("recipe", "recipe line %d: bucket edges must be numbers" % lineno) from None
                if edges != sorted(edges):
                    raise InvalidValue("recipe", "recipe line %d: bucket edges must be ascending" % lineno)
                directives[col] = ("buckets", edges)
            else:
                raise InvalidValue("recipe", "recipe line %d: unknown directive %r" % (lineno, directive))
    return directives


def _to_binary(values, col):
    distinct = sorted(set(values))
    if distinct in (["0"], ["1"], ["0", "1"]):
        return [int(v) for v in values]
    if len(distinct) == 2:
        return [distinct.index(v) for v in values]
    raise NonBinaryCell("column %r is not binary and has %d distinct values" % (col, len(distinct)))


def _bucketize(values, edges, col):
    try:
        nums = np.array([float(v) for v in values])
    except ValueError:
        raise NonBinaryCell("column %r: bucketized column must be numeric" % col)
    names, cols = [], []
    bounds = [-np.inf] + list(edges) + [np.inf]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mask = ((nums > lo) & (nums <= hi)).astype(np.uint8)
        if lo == -np.inf:
            names.append("%s_le_%g" % (col, hi))
        elif hi == np.inf:
            names.append("%s_gt_%g" % (col, lo))
        else:
            names.append("%s_%g_%g" % (col, lo, hi))
        cols.append(mask)
    return names, cols


def apply_recipe(raw_path, recipe, max_categories=ONE_HOT_CATEGORY_CAP):
    """Apply a parsed recipe to a raw CSV.

    Returns (header, rows) for the binary table, ready to be written and then
    read back with load_csv.  Exactly one `label` and one `sensitive`
    directive are required.
    """
    with open(raw_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyFile("%s has no header row" % raw_path)
        raw_rows = [row for row in reader]
    if not raw_rows:
        raise EmptyFile("%s has no data rows" % raw_path)
    for col in recipe:
        if col not in header:
            raise MissingColumn("recipe column %r not in %s" % (col, raw_path))
    labels = [c for c, d in recipe.items() if d == "label"]
    sensitives = [c for c, d in recipe.items() if d == "sensitive"]
    if len(labels) != 1:
        raise MissingColumn("recipe must mark exactly one label column")
    if len(sensitives) != 1:
        raise MissingColumn("recipe must mark exactly one sensitive column")

    for r, row in enumerate(raw_rows):
        if len(row) != len(header):
            raise NonBinaryCell("row %d has %d cells, expected %d" % (r, len(row), len(header)))
        if any(c.strip() == "" for c in row):
            raise NonBinaryCell("row %d has a missing cell" % r)

    columns = {h: [row[i].strip() for row in raw_rows] for i, h in enumerate(header)}
    out_names, out_cols = [], []
    for col in header:
        directive = recipe.get(col)
        if directive == "drop":
            continue
        if directive in ("label", "sensitive"):
            out_names.append(col)
            out_cols.append(np.array(_to_binary(columns[col], col), dtype=np.uint8))
        elif directive == "onehot":
            names, mat = one_hot({col: columns[col]}, max_categories=max_categories)
            out_names.extend(names)
            out_cols.extend(mat.T)
        elif isinstance(directive, tuple):
            names, cols = _bucketize(columns[col], directive[1], col)
            out_names.extend(names)
            out_cols.extend(cols)
        else:
            out_names.append(col)
            out_cols.append(np.array(_to_binary(columns[col], col), dtype=np.uint8))
    matrix = np.column_stack(out_cols)
    rows = [[str(int(v)) for v in matrix[i]] for i in range(matrix.shape[0])]
    return out_names, rows
