import numpy as np
import pytest

from fairlists import dataset
from fairlists.dataset import (
    Dataset,
    SplitSpec,
    group_rows,
    load_csv,
    mine_antecedents,
    one_hot,
    row_class_ids,
    split_dataset,
)
from fairlists.errors import (
    EmptyFile,
    EmptyPart,
    LengthMismatch,
    MissingColumn,
    NoAntecedents,
    NonBinaryCell,
    SingleCategory,
    TooManyCategories,
)

from oracles import naive_capture


def make_dataset(features, labels, sensitive_col=None, names=None):
    features = np.asarray(features, dtype=np.uint8)
    if sensitive_col is None:
        sensitive_col = features.shape[1] - 1
    return Dataset(
        features=features,
        feature_names=names or ["c%d" % j for j in range(features.shape[1])],
        sensitive_col=sensitive_col,
        labels=np.asarray(labels, dtype=np.uint8),
    )


class TestLoadCsv:
    def test_four_row_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,s,y\n1,0,1,1\n0,0,0,0\n1,1,1,0\n0,1,0,1\n")
        d = load_csv(p, sensitive="s", label="y")
        assert d.n_rows == 4
        assert d.n_cols == 3  # a, b, s
        assert d.feature_names == ["a", "b", "s"]
        assert d.sensitive_col == 2
        assert list(d.labels) == [1, 0, 0, 1]

    def test_missing_sensitive_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,0,1\n")
        with pytest.raises(MissingColumn):
            load_csv(p, sensitive="s", label="y")

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,s\n1,0\n")
        with pytest.raises(MissingColumn):
            load_csv(p, sensitive="s", label="y")

    def test_non_binary_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,s,y\n1,0,1\n2,0,0\n")
        with pytest.raises(NonBinaryCell):
            load_csv(p, sensitive="s", label="y")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(p, sensitive="s", label="y")

    def test_header_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,s,y\n")
        with pytest.raises(EmptyFile):
            load_csv(p, sensitive="s", label="y")

    def test_row_order_preserved(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,s,y\n1,0,0\n0,1,1\n1,1,0\n")
        d = load_csv(p, sensitive="s", label="y")
        assert d.features[:, 0].tolist() == [1, 0, 1]


class TestOneHot:
    def test_two_categories(self):
        names, mat = one_hot(["r", "g", "r"], "color")
        assert names == ["color_g", "color_r"]
        assert mat[:, names.index("color_r")].tolist() == [1, 0, 1]
        assert mat[:, names.index("color_g")].tolist() == [0, 1, 0]

    def test_single_category(self):
        with pytest.raises(SingleCategory):
            one_hot(["x", "x", "x"], "c")

    def test_category_counts(self):
        names, mat = one_hot(["x", "y", "z", "y"], "a")
        assert names == ["a_x", "a_y", "a_z"]
        assert mat.shape == (4, 3)
        # the one-hot block sums to one per row
        assert mat.sum(axis=1).tolist() == [1, 1, 1, 1]

    def test_too_many_categories(self):
        # the cap is 32 categories: 32 are accepted and 33 rejected
        values = [str(i) for i in range(33)]
        names, _ = one_hot(values[:32], "c")
        assert len(names) == 32
        with pytest.raises(TooManyCategories):
            one_hot(values, "c")


class TestMineAntecedents:
    def test_two_columns_with_negations(self):
        d = make_dataset([[1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1]], [0, 1, 0, 1])
        ants = mine_antecedents(d, min_support=0.0)
        # two non-sensitive columns, each with its negation
        assert len(ants) == 4
        assert [a.id for a in ants] == [0, 1, 2, 3]

    def test_constant_column_filtered(self):
        d = make_dataset([[1, 0, 0], [1, 1, 1], [1, 0, 0], [1, 1, 1]], [0, 1, 0, 1])
        ants = mine_antecedents(d, min_support=0.05)
        assert all(a.feature != 0 for a in ants)

    def test_support_matches_popcount(self):
        rng = np.random.default_rng(3)
        d = make_dataset(rng.integers(0, 2, size=(40, 9)), rng.integers(0, 2, size=40))
        ants = mine_antecedents(d, min_support=0.05)
        for a in ants:
            assert a.support == int(naive_capture(a, d.features).sum()) / d.n_rows

    def test_count_matches_direct_support_scan(self):
        rng = np.random.default_rng(11)
        feats = (rng.random((60, 9)) < 0.5).astype(np.uint8)
        d = make_dataset(feats, rng.integers(0, 2, size=60))
        ants = mine_antecedents(d, min_support=0.05, include_negations=True)
        expected = 0
        seen = set()
        for col in range(8):  # sensitive column excluded
            for neg in (False, True):
                cap = (feats[:, col] == 0) if neg else (feats[:, col] == 1)
                sup = cap.sum() / 60
                if sup < 0.05 or 1 - sup < 0.05 or cap.tobytes() in seen:
                    continue
                seen.add(cap.tobytes())
                expected += 1
        assert len(ants) == expected

    def test_duplicate_captures_keep_lowest_id(self):
        d = make_dataset([[1, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, 1]], [0, 1, 0, 1])
        ants = mine_antecedents(d, min_support=0.0)
        # columns 0 and 1 are identical; their literals dedup to column 0's
        assert [a.feature for a in ants] == [0, 0]
        assert [a.id for a in ants] == [0, 1]

    def test_sensitive_excluded_by_default(self):
        d = make_dataset([[1, 0], [0, 1], [1, 1], [0, 0]], [0, 1, 0, 1], sensitive_col=1)
        ants = mine_antecedents(d, min_support=0.0)
        assert all(a.feature == 0 for a in ants)
        with_s = mine_antecedents(d, min_support=0.0, include_sensitive=True)
        assert len(with_s) == 4

    def test_no_antecedents(self):
        d = make_dataset([[1, 0], [1, 1], [1, 0], [1, 1]], [0, 1, 0, 1], sensitive_col=1)
        with pytest.raises(NoAntecedents):
            mine_antecedents(d, min_support=0.3)

    def test_min_support_range(self):
        d = make_dataset([[1, 0], [0, 1]], [0, 1])
        with pytest.raises(ValueError):
            mine_antecedents(d, min_support=0.6)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        feats = (rng.random((30, 5)) < 0.5).astype(np.uint8)
        labels = rng.integers(0, 2, size=30)
        d = make_dataset(feats, labels)
        perm = rng.permutation(30)
        dp = make_dataset(feats[perm], labels[perm])
        a1 = mine_antecedents(d, min_support=0.05)
        a2 = mine_antecedents(dp, min_support=0.05)
        assert [(a.id, a.feature, a.negated) for a in a1] == [
            (a.id, a.feature, a.negated) for a in a2
        ]
        for x, y in zip(a1, a2):
            assert np.array_equal(naive_capture(x, d.features)[perm], naive_capture(y, dp.features))


class TestSplitDataset:
    def _dataset(self, n):
        """n rows whose feature rows are distinct (n <= 128), so that a row
        is known by its bytes."""
        rng = np.random.default_rng(0)
        codes = rng.permutation(n)
        return make_dataset((codes[:, None] >> np.arange(7)) & 1, rng.integers(0, 2, size=n))

    @staticmethod
    def _rows(d):
        return [row.tobytes() for row in d.features]

    def test_part_sizes(self):
        d = self._dataset(10)
        train, suing, test = split_dataset(d, SplitSpec(fractions=(0.5, 0.3, 0.2), seed=7))
        assert (train.n_rows, suing.n_rows, test.n_rows) == (5, 3, 2)

    def test_deterministic(self):
        d = self._dataset(20)
        spec = SplitSpec(fractions=(0.5, 0.25, 0.25), seed=7)
        a = split_dataset(d, spec)
        b = split_dataset(d, spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
    def test_disjoint_and_covering(self, seed):
        d = self._dataset(100)
        parts = split_dataset(d, SplitSpec(fractions=(0.6, 0.2, 0.2), seed=seed))
        rows = [self._rows(p) for p in parts]
        assert sorted(rows[0] + rows[1] + rows[2]) == sorted(self._rows(d))
        assert len(set(self._rows(d))) == 100

    def test_empty_part(self):
        d = self._dataset(4)
        with pytest.raises(EmptyPart):
            split_dataset(d, SplitSpec(fractions=(0.8, 0.1, 0.1), seed=0))

    def test_bad_fractions(self):
        d = self._dataset(10)
        with pytest.raises(ValueError):
            split_dataset(d, SplitSpec(fractions=(0.5, 0.5, 0.5), seed=0))

    def test_labels_follow_rows(self):
        d = self._dataset(30)
        train, suing, test = split_dataset(d, SplitSpec(fractions=(0.4, 0.3, 0.3), seed=2))
        position = {row: i for i, row in enumerate(self._rows(d))}
        for part in (train, suing, test):
            for row, label in zip(self._rows(part), part.labels):
                assert label == d.labels[position[row]]


class TestGroupRows:
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17])
    def test_matches_a_dict_of_row_bytes(self, width):
        rng = np.random.default_rng(width)
        for _ in range(30):
            # rows drawn from a small pool, so that they repeat
            pool = rng.integers(0, 2, size=(int(rng.integers(1, 12)), width), dtype=np.uint8)
            bits = pool[rng.integers(0, pool.shape[0], size=int(rng.integers(1, 80)))]
            members = {}
            for r, row in enumerate(bits):
                members.setdefault(row.tobytes(), []).append(r)
            first, sizes = group_rows(bits)
            # row_class_ids numbers the classes as group_rows lists them
            classes = row_class_ids(bits)
            assert len(first) == len(sizes) == len(members)
            for c, (f, size) in enumerate(zip(first.tolist(), sizes.tolist())):
                rows = members[bits[f].tobytes()]
                assert f == rows[0]
                assert size == len(rows)
                assert np.flatnonzero(classes == c).tolist() == rows
            # the classes ascend by key
            keys = [key.tobytes() for key in dataset.row_keys(bits[first])]
            assert keys == sorted(set(keys))


class TestDatasetHelpers:
    def test_with_labels(self):
        d = make_dataset([[1, 0], [0, 1]], [0, 0])
        d2 = d.with_labels([1, 1])
        assert list(d2.labels) == [1, 1]
        assert list(d.labels) == [0, 0]

    def test_with_labels_length_check(self):
        d = make_dataset([[1, 0], [0, 1]], [0, 0])
        with pytest.raises(LengthMismatch, match="^3 predictions vs 2 rows$"):
            d.with_labels([1, 1, 1])

