"""`load_csv` and `prep` against the per-cell reference ingest in oracles.py,
on seeded random files: clean files (the layout `prep` writes, which
`load_csv` decodes with numpy), whitespace-padded and quoted digits, CRLF,
bad cells, a '10' cell beside an empty one, rows of the wrong width before
and after a bad cell, a row split into one line per cell, two rows on one
line, and the label column first, in the middle and last.
`load_predictions` against the per-line reference, on seeded files with and
without a header."""

import csv
import re

import numpy as np
import pytest

from fairlists.cli import main
from fairlists.dataset import load_csv
from fairlists.rationalize import load_predictions
from fairlists.errors import FairlistsError, RepeatedColumn
from fairlists.recipe import apply_recipe, parse_recipe

from oracles import naive_apply_recipe, naive_load_csv, naive_load_predictions

LABEL_AT = ("first", "middle", "last")
# per seed: (row count, whitespace-padded cells, quoted cells, CRLF)
LAYOUTS = ((63, False, False, False), (64, True, False, True), (65, False, True, False), (64, True, True, True))
SEEDS = range(len(LAYOUTS))
# binarized files also come clean, as `prep` writes them, at more sizes: the
# first layout and these two, unless a fault is put in
BINARY_LAYOUTS = LAYOUTS + ((2, False, False, False), (130, False, False, False))


def outcome(fn, *args):
    try:
        return fn(*args), None
    except FairlistsError as exc:
        return None, exc


def label_index(at, width):
    return {"first": 0, "middle": width // 2, "last": width - 1}[at]


def write_rows(path, header, rows, crlf):
    """Write raw cell texts as they stand (quotes included), so the cells
    reach the reader exactly as generated."""
    end = "\r\n" if crlf else "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + end)
        for row in rows:
            fh.write(",".join(row) + end)


def dress(rng, rows, padded, quoted):
    """Pad and quote some cells; neither changes what a cell means."""
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if not cell.startswith('"'):
                if padded and rng.random() < 0.3:
                    cell = rng.choice([" ", "\t", "  "]) + cell + rng.choice(["", " ", "\t"])
                if quoted and rng.random() < 0.3:
                    cell = '"%s"' % cell
            cells.append(cell)
        out.append(cells)
    return out


def two_rows(rng, n):
    r1, r2 = sorted(rng.choice(n, size=2, replace=False).tolist())
    return r1, r2


def lengthen(row):
    return row + ["1"]


def shorten(row):
    return row[:-1]


# faults of a binarized file: each edits the cell texts in place
def _bad_cell(rng, rows, label_idx):
    r = int(rng.integers(len(rows)))
    j = int(rng.integers(len(rows[0])))
    rows[r][j] = str(rng.choice(["2", "", "x", "10", "1 1", "01", "-0", '"1,0"']))


def _label_cell(rng, rows, label_idx):
    r = int(rng.integers(len(rows)))
    rows[r][label_idx] = "2"
    j = (label_idx + 1) % len(rows[0])
    rows[r][j] = "x"


def _ten_empty(rng, rows, label_idx):
    r = int(rng.integers(len(rows)))
    j = int(rng.integers(len(rows[0]) - 1))
    rows[r][j], rows[r][j + 1] = "10", ""


def _comma_cell(rng, rows, label_idx):
    # the quoted comma and the empty cells keep the row's joined length
    r = int(rng.integers(len(rows)))
    rows[r][0], rows[r][1] = '"1,0"', ""
    if len(rows[r]) > 2:
        rows[r][2] = ""


def _short_row(rng, rows, label_idx):
    r = int(rng.integers(len(rows)))
    rows[r] = shorten(rows[r])


def _long_row(rng, rows, label_idx):
    r = int(rng.integers(len(rows)))
    rows[r] = lengthen(rows[r])


def _bad_before_short(rng, rows, label_idx):
    r1, r2 = two_rows(rng, len(rows))
    rows[r1][int(rng.integers(len(rows[r1])))] = "2"
    rows[r2] = shorten(rows[r2])


def _long_before_bad(rng, rows, label_idx):
    r1, r2 = two_rows(rng, len(rows))
    rows[r1] = lengthen(rows[r1])
    rows[r2][int(rng.integers(len(rows[r2])))] = "2"


def _blank_line(rng, rows, label_idx):
    rows[int(rng.integers(len(rows)))] = []


def _split_row(rng, rows, label_idx):
    # one line per cell: the bytes of a clean row, with newlines for commas
    r = int(rng.integers(len(rows)))
    rows[r : r + 1] = [[cell] for cell in rows[r]]


def _joined_rows(rng, rows, label_idx):
    # two rows on one line: the bytes of two clean rows, a comma for a newline
    r = int(rng.integers(len(rows) - 1))
    rows[r : r + 2] = [rows[r] + rows[r + 1]]


BINARY_FAULTS = {
    "none": None,
    "bad_cell": _bad_cell,
    "label_cell": _label_cell,
    "ten_empty": _ten_empty,
    "comma_cell": _comma_cell,
    "short_row": _short_row,
    "long_row": _long_row,
    "bad_before_short": _bad_before_short,
    "long_before_bad": _long_before_bad,
    "blank_line": _blank_line,
    "split_row": _split_row,
    "joined_rows": _joined_rows,
}


def binary_file(path, seed, fault, at):
    rng = np.random.default_rng(seed)
    n, padded, quoted, crlf = BINARY_LAYOUTS[seed]
    width = int(rng.integers(3, 8))
    label_idx = label_index(at, width)
    header = ["c%d" % j for j in range(width)]
    header[label_idx] = "y"
    header[(label_idx + 1) % width] = "s"
    rows = dress(rng, rng.integers(0, 2, (n, width)).astype(str).tolist(), padded, quoted)
    if BINARY_FAULTS[fault]:
        BINARY_FAULTS[fault](rng, rows, label_idx)
    write_rows(path, header, rows, crlf)


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.writeable == want.flags.writeable
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("at", LABEL_AT)
@pytest.mark.parametrize("fault", list(BINARY_FAULTS))
@pytest.mark.parametrize("seed", range(len(BINARY_LAYOUTS)))
def test_load_csv_matches_the_per_cell_reader(tmp_path, seed, fault, at):
    path = tmp_path / "d.csv"
    binary_file(path, seed, fault, at)
    got, got_exc = outcome(load_csv, path, "s", "y")
    want, want_exc = outcome(naive_load_csv, path, "s", "y")
    assert (type(got_exc), str(got_exc)) == (type(want_exc), str(want_exc))
    if fault == "none":
        assert want_exc is None
    if want_exc is None:
        assert (got.feature_names, got.sensitive_col) == (want.feature_names, want.sensitive_col)
        for field in ("features", "labels"):
            assert_same_array(getattr(got, field), getattr(want, field))


# a predictions file: (header line or None, line ending, padded cells, final
# newline); the header is a name, or a number, which is a bad first cell
PREDICTION_LAYOUTS = (
    ("prediction", "\n", False, True),
    (None, "\n", False, True),
    ("prediction", "\r\n", True, True),
    (None, "\n", True, False),
    (" yhat ", "\r", False, True),
    ("-1", "\n", False, True),
    ("0.5", "\r\n", False, False),
    ("1.0", "\n", True, True),
)


def _blank_lines(rng, lines):
    for _ in range(3):
        lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", " ", "\t"]))


def _bad_prediction(rng, lines):
    lines[int(rng.integers(len(lines)))] = str(rng.choice(["2", "x", "0.5", "01", "1 1", "-0", "00"]))


PREDICTION_FAULTS = {
    "none": None,
    "blank_lines": _blank_lines,
    "bad_cell": _bad_prediction,
    "blank_then_bad": lambda rng, lines: (_blank_lines(rng, lines), _bad_prediction(rng, lines)),
}


@pytest.mark.parametrize("fault", list(PREDICTION_FAULTS))
@pytest.mark.parametrize("seed", range(len(PREDICTION_LAYOUTS)))
def test_load_predictions_matches_the_per_line_reader(tmp_path, seed, fault):
    rng = np.random.default_rng(500 + seed)
    header, end, padded, final = PREDICTION_LAYOUTS[seed]
    lines = rng.integers(0, 2, int(rng.integers(1, 40))).astype(str).tolist()
    if padded:
        lines = [rng.choice(["", " ", "\t"]) + v + rng.choice(["", "  "]) for v in lines]
    if PREDICTION_FAULTS[fault]:
        PREDICTION_FAULTS[fault](rng, lines)
    if header is not None:
        lines.insert(0, header)
    path = tmp_path / "preds.csv"
    path.write_bytes((end.join(lines) + (end if final else "")).encode())
    got, got_exc = outcome(load_predictions, path)
    want, want_exc = outcome(naive_load_predictions, path)
    assert (type(got_exc), str(got_exc)) == (type(want_exc), str(want_exc))
    if want_exc is None:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    if fault in ("none", "blank_lines") and header in (None, "prediction", " yhat "):
        assert want_exc is None
    if header in ("-1", "0.5", "1.0"):
        assert "line 1:" in str(want_exc)


RECIPE = "age buckets=[30,50]\njob onehot\nsex sensitive\nincome label\njunk drop\n"
RAW_COLUMNS = ("age", "job", "sex", "f0", "junk", "f1")


def raw_cells(rng, n, binary_label):
    columns = {
        "age": [str(v) for v in rng.integers(18, 71, n)],
        "job": rng.choice(["blue", "white", "pink"], n).tolist(),
        "sex": rng.choice(["F", "M"], n).tolist(),
        "f0": rng.integers(0, 2, n).astype(str).tolist(),
        "junk": ['"a,%d"' % v for v in rng.integers(0, 9, n)],
        "f1": rng.integers(0, 2, n).astype(str).tolist(),
        "income": rng.choice(["0", "1"] if binary_label else ["<=50K", ">50K"], n).tolist(),
    }
    for i in rng.choice(n, size=3, replace=False):
        columns["age"][i] = rng.choice(["30", "50", "30.5", "1e1"])
    return columns


def _missing(rng, rows, header):
    r = int(rng.integers(len(rows)))
    rows[r][int(rng.integers(len(header)))] = rng.choice(["", "  "])


def _not_a_number(rng, rows, header):
    r = int(rng.integers(len(rows)))
    rows[r][header.index("age")] = rng.choice(["old", "3 0", "thirty"])


def _three_values(rng, rows, header):
    rows[int(rng.integers(len(rows)))][header.index("f0")] = "2"


def _prep_ten_empty(rng, rows, header):
    r = int(rng.integers(len(rows)))
    j = header.index("f0")
    rows[r][j], rows[r][j + 1] = "10", ""


def _missing_before_short(rng, rows, header):
    r1, r2 = two_rows(rng, len(rows))
    rows[r1][int(rng.integers(len(header)))] = ""
    rows[r2] = shorten(rows[r2])


def _long_before_missing(rng, rows, header):
    r1, r2 = two_rows(rng, len(rows))
    rows[r1] = lengthen(rows[r1])
    rows[r2][int(rng.integers(len(header)))] = ""


PREP_FAULTS = {
    "none": None,
    "missing": _missing,
    "not_a_number": _not_a_number,
    "three_values": _three_values,
    "ten_empty": _prep_ten_empty,
    "short_row": lambda rng, rows, header: _short_row(rng, rows, None),
    "long_row": lambda rng, rows, header: _long_row(rng, rows, None),
    "missing_before_short": _missing_before_short,
    "long_before_missing": _long_before_missing,
}


def raw_file(tmp_path, seed, fault, at):
    rng = np.random.default_rng(1000 + seed)
    n, padded, quoted, crlf = LAYOUTS[seed]
    header = list(RAW_COLUMNS)
    header.insert(label_index(at, len(header) + 1), "income")
    columns = raw_cells(rng, n, binary_label=seed % 2 == 0)
    rows = [[columns[h][i] for h in header] for i in range(n)]
    rows = dress(rng, rows, padded, quoted)
    if PREP_FAULTS[fault]:
        PREP_FAULTS[fault](rng, rows, header)
    raw = tmp_path / "raw.csv"
    write_rows(raw, header, rows, crlf)
    recipe = tmp_path / "recipe.txt"
    recipe.write_text(RECIPE)
    return raw, recipe


def improved_message(want_exc, raw):
    """The message the reference's missing-cell and non-numeric errors now
    carry, naming the row, the column and (for a number) the value; None for
    any other error."""
    with open(raw, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = [[c.strip() for c in row] for row in reader]
    missing = re.fullmatch(r"row (\d+) has a missing cell", str(want_exc))
    if missing:
        r = int(missing.group(1))
        return "row %d, column %r: missing cell" % (r, header[rows[r].index("")])
    if str(want_exc) == "column 'age': bucketized column must be numeric":
        ages = [row[header.index("age")] for row in rows]
        for r, age in enumerate(ages):
            try:
                float(age)
            except ValueError:
                return "row %d, column 'age': bucketized column must be numeric, got %r" % (r, age)
    return None


@pytest.mark.parametrize("at", LABEL_AT)
@pytest.mark.parametrize("fault", list(PREP_FAULTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_prep_matches_the_per_cell_recipe(tmp_path, seed, fault, at):
    raw, recipe = raw_file(tmp_path, seed, fault, at)
    directives = parse_recipe(recipe)
    got, got_exc = outcome(apply_recipe, raw, directives)
    want, want_exc = outcome(naive_apply_recipe, raw, directives)
    if fault == "none":
        assert want_exc is None
    if want_exc is not None:
        assert type(got_exc) is type(want_exc)
        assert str(got_exc) == (improved_message(want_exc, raw) or str(want_exc))
        return
    assert got_exc is None
    header, rows = want
    assert got[0] == header
    np.testing.assert_array_equal(got[1], np.array(rows, dtype=np.uint8))
    out = tmp_path / "data.csv"
    assert main(["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(out)]) == 0
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    assert out.read_bytes() == expected.read_bytes()


# a header whose name repeats: the first name seen again is reported, for
# any column, the label and the sensitive column included
REPEATED_HEADERS = (
    ["a", "a", "s", "y"],
    ["a", "s", "y", "a"],
    ["a", "b", "b", "a", "s", "y"],
    ["s", "y", "s"],
    ["y", "s", "y"],
)


@pytest.mark.parametrize("header", REPEATED_HEADERS, ids=",".join)
def test_repeated_header_name_is_rejected(tmp_path, header):
    path = tmp_path / "d.csv"
    rows = [["1" if j % 2 else "0" for j in range(len(header))], ["1"] * len(header)]
    write_rows(path, header, rows, crlf=False)
    name = next(h for i, h in enumerate(header) if h in header[:i])
    message = "column %r appears more than once in the header of %s" % (name, path)
    recipe = {"s": "sensitive", "y": "label"}
    calls = (
        (load_csv, (path, "s", "y")),
        (naive_load_csv, (path, "s", "y")),
        (apply_recipe, (path, recipe)),
        (naive_apply_recipe, (path, recipe)),
    )
    for fn, args in calls:
        with pytest.raises(RepeatedColumn) as exc:
            fn(*args)
        assert str(exc.value) == message


# an output name that two source columns would both write, as (header, rows,
# directives, (name, the column first writing it, the column writing it again))
REPEATED_OUTPUTS = (
    (["a", "a_x", "s", "y"], [["x", "1", "0", "1"], ["z", "0", "1", "0"]], {"a": "onehot"}, ("a_x", "a", "a_x")),
    (["a_x", "a", "s", "y"], [["1", "x", "0", "1"], ["0", "z", "1", "0"]], {"a": "onehot"}, ("a_x", "a_x", "a")),
    (["g", "s", "g_1"], [["0", "0", "1"], ["1", "1", "0"]], {"g": "onehot"}, ("g_1", "g", "g_1")),
    (
        ["age", "age_le_30", "s", "y"],
        [["25", "1", "0", "1"], ["42", "0", "1", "0"]],
        {"age": ("buckets", [30.0])},
        ("age_le_30", "age", "age_le_30"),
    ),
    (
        ["age", "s", "y"],
        [["25", "0", "1"], ["42", "1", "0"]],
        {"age": ("buckets", [30.0, 30.0, 30.0])},
        ("age_30_30", "age", "age"),
    ),
)


@pytest.mark.parametrize(
    "header,rows,directives,names", REPEATED_OUTPUTS, ids=[",".join(case[0]) for case in REPEATED_OUTPUTS]
)
def test_repeated_output_name_is_rejected(tmp_path, header, rows, directives, names):
    path = tmp_path / "raw.csv"
    write_rows(path, header, rows, crlf=False)
    recipe = dict(directives, s="sensitive")
    recipe[header[-1]] = "label"
    message = "output column %r comes from column %r and from column %r of %s" % (*names, path)
    for fn in (apply_recipe, naive_apply_recipe):
        with pytest.raises(RepeatedColumn) as exc:
            fn(path, recipe)
        assert str(exc.value) == message


def test_a_dropped_column_writes_no_output_name(tmp_path):
    path = tmp_path / "raw.csv"
    write_rows(path, ["a", "a_x", "s", "y"], [["x", "1", "0", "1"], ["z", "0", "1", "0"]], crlf=False)
    recipe = {"a": "onehot", "a_x": "drop", "s": "sensitive", "y": "label"}
    header, matrix = apply_recipe(path, recipe)
    assert header == ["a_x", "a_z", "s", "y"]
    assert matrix.tolist() == [[1, 0, 0, 1], [0, 1, 1, 0]]
    assert naive_apply_recipe(path, recipe) == (header, [["1", "0", "0", "1"], ["0", "1", "1", "0"]])
