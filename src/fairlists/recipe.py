"""Preprocessing recipes: turn a raw CSV into the binary layout load_csv wants.

A recipe is a plain text file with one directive per line:

    <column> onehot
    <column> buckets=[e1,e2,...]
    <column> drop
    <column> label
    <column> sensitive

One directive per column: a second line for a column is rejected, naming
both lines.  Columns without a directive must already be binary (0/1).
`buckets` splits a numeric column at the given edges into interval
indicator columns.  `label` and `sensitive` columns must be binary, or have
exactly two distinct values (mapped to 0/1 in sorted order).  The table is read by `read_table` with
the csv module, so cells may be quoted, and whitespace around a cell is
stripped.  Missing cells are rejected, not imputed.  A blank cell, or a
bucketized cell that is not a number, is reported by its row (counted from
0 after the header) and column; a row of the wrong width by its row.  A
name that repeats in the header is rejected, and so is an output name that
two columns would write (a `onehot` column `a` with category `x` beside a
column `a_x`).

The table is binarized column by column with numpy, and `apply_recipe`
returns it as one uint8 matrix.
"""

import operator

import numpy as np

from .errors import EmptyFile, InvalidValue, MissingColumn, NonBinaryCell, RepeatedColumn
from .dataset import decode_binary, one_hot, open_text, read_table


def parse_recipe(path):
    """Read a recipe file into {column: directive} where directive is
    'onehot' | 'drop' | 'label' | 'sensitive' | ('buckets', [floats])."""
    directives = {}
    # the line of each column's directive
    lines = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise InvalidValue("recipe", "recipe line %d: expected '<column> <directive>'" % lineno)
            col, directive = parts[0], parts[1].strip()
            if col in lines:
                raise InvalidValue(
                    "recipe", "recipe line %d: column %r already has a directive on line %d" % (lineno, col, lines[col])
                )
            lines[col] = lineno
            if directive in ("onehot", "drop", "label", "sensitive"):
                directives[col] = directive
            elif directive.startswith("buckets=[") and directive.endswith("]"):
                try:
                    edges = [float(e) for e in directive[len("buckets=[") : -1].split(",") if e.strip()]
                except ValueError:
                    raise InvalidValue("recipe", "recipe line %d: bucket edges must be numbers" % lineno) from None
                if any(lo >= hi for lo, hi in zip(edges, edges[1:])):
                    raise InvalidValue("recipe", "recipe line %d: bucket edges must be strictly ascending" % lineno)
                directives[col] = ("buckets", edges)
            else:
                raise InvalidValue("recipe", "recipe line %d: unknown directive %r" % (lineno, directive))
    return directives


def _to_binary(values, col):
    bits = decode_binary(values)
    if bits is not None:
        return bits
    distinct = sorted(set(values))
    if len(distinct) != 2:
        raise NonBinaryCell("column %r is not binary and has %d distinct values" % (col, len(distinct)))
    return np.fromiter(map(distinct[1].__eq__, values), dtype=np.uint8, count=len(values))


def _bucketize(values, edges, col):
    cells = iter(values)
    try:
        nums = np.fromiter(map(float, cells), dtype=np.float64, count=len(values))
    except ValueError:
        # float() stopped at the first bad cell; the cells left give its row
        r = len(values) - operator.length_hint(cells) - 1
        raise NonBinaryCell(
            "row %d, column %r: bucketized column must be numeric, got %r" % (r, col, values[r])
        ) from None
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
    return names, np.column_stack(cols)


def apply_recipe(raw_path, recipe):
    """Apply a parsed recipe to a raw CSV.

    Returns (header, uint8 matrix) for the binary table, ready to be written
    and then read back with load_csv.  Exactly one `label` and one
    `sensitive` directive are required.
    """
    with open(raw_path, "rb") as fh:
        header, rows, cells, uneven = read_table(fh.read(), raw_path)
    if not rows and uneven is None:
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

    # a missing cell before the first row of another width is reported first
    width = len(header)
    if "" in cells:
        r, i = divmod(cells.index(""), width)
        raise NonBinaryCell("row %d, column %r: missing cell" % (r, header[i]))
    if uneven:
        raise uneven

    position = {h: i for i, h in enumerate(header)}
    source = {}  # output name -> the column it comes from, in output order
    out_cols = []
    for col in header:
        directive = recipe.get(col)
        if directive == "drop":
            continue
        values = cells[position[col] :: width]
        if directive == "onehot":
            names, mat = one_hot(values, col)
        elif isinstance(directive, tuple):
            names, mat = _bucketize(values, directive[1], col)
        else:
            # label, sensitive, or a column already binary
            names, mat = [col], _to_binary(values, col)
        for name in names:
            if name in source:
                raise RepeatedColumn(
                    "output column %r comes from column %r and from column %r of %s" % (name, source[name], col, raw_path)
                )
            source[name] = col
        out_cols.append(mat)
    return list(source), np.column_stack(out_cols)
