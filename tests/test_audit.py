import numpy as np
import pytest

from fairlists.audit import flip_influence, lookup_oracle, rule_list_oracle
from fairlists.dataset import mine_antecedents
from fairlists.errors import OracleMissingRow
from fairlists.rules import RuleList

from oracles import naive_flip_influence, naive_predict, per_row_oracle, random_instance
from test_dataset import make_dataset


def eight_rows():
    rng = np.random.default_rng(18)
    feats = (rng.random((8, 4)) < 0.5).astype(np.uint8)
    return make_dataset(feats, rng.integers(0, 2, size=8))


class TestFlipInfluence:
    def test_identity_model(self):
        d = eight_rows()

        ranking = flip_influence(lambda F: F[:, 1], d)
        assert ranking.scores[1] == 1.0
        assert all(ranking.scores[j] == 0.0 for j in range(d.n_cols) if j != 1)
        assert ranking.ranks[1] == 1

    def test_constant_model(self):
        d = eight_rows()
        ranking = flip_influence(lambda F: np.ones(F.shape[0]), d)
        assert all(s == 0.0 for s in ranking.scores)

    def test_scores_bounded(self):
        d = eight_rows()
        rng = np.random.default_rng(0)
        # a random but fixed prediction for each of the 2^m possible rows
        table = rng.integers(0, 2, size=1 << d.n_cols)
        weights = 1 << np.arange(d.n_cols)

        ranking = flip_influence(lambda F: table[F.astype(np.int64) @ weights], d)
        assert np.all(ranking.scores >= -1.0) and np.all(ranking.scores <= 1.0)

    def test_rule_list_hand_computed(self):
        feats = np.array(
            [[1, 0, 0], [1, 1, 0], [0, 0, 1], [0, 1, 1], [1, 0, 1], [0, 0, 0], [1, 1, 1], [0, 1, 0]],
            dtype=np.uint8,
        )
        d = make_dataset(feats, np.zeros(8, dtype=np.uint8))
        ants = mine_antecedents(d, min_support=0.0)
        # single rule: if c0 then 1 else 0; flipping c0 flips every row
        rl = RuleList(rules=((0, 1),), default=0)
        ranking = flip_influence(rule_list_oracle(rl, ants, d), d)
        assert ranking.scores[0] == 1.0
        assert ranking.scores[1] == 0.0
        assert ranking.scores[2] == 0.0

    def test_unreferenced_feature_scores_zero(self):
        rng = np.random.default_rng(9)
        feats = (rng.random((20, 5)) < 0.5).astype(np.uint8)
        d = make_dataset(feats, rng.integers(0, 2, size=20))
        ants = mine_antecedents(d, min_support=0.0)
        by_feature = {a.feature: a.id for a in ants if not a.negated}
        rl = RuleList(rules=((by_feature[0], 1), (by_feature[2], 0)), default=1)
        ranking = flip_influence(rule_list_oracle(rl, ants, d), d)
        assert ranking.scores[1] == 0.0
        assert ranking.scores[3] == 0.0

    def test_ranks_are_a_permutation(self):
        d = eight_rows()
        ranking = flip_influence(lambda F: F[:, 0] ^ F[:, 2], d)
        assert sorted(ranking.ranks.tolist()) == list(range(1, d.n_cols + 1))


class TestLookupOracle:
    def test_lookup_and_skip(self):
        feats = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        d = make_dataset(feats, [0, 1], sensitive_col=1)
        fn = lookup_oracle(d)
        # unseen rows predict -1
        assert fn(np.array([[1, 1], [1, 0], [0, 0]], dtype=np.uint8)).tolist() == [1, -1, 0]
        # perturbed rows [1,0]/[0,1] are unseen, so every flip is skipped
        with pytest.raises(OracleMissingRow):
            flip_influence(fn, d, missing_ok=False)
        assert flip_influence(fn, d, missing_ok=True) is None

    def test_conflicting_duplicates_keep_first(self):
        feats = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        fn = lookup_oracle(make_dataset(feats, [1, 0]))
        assert fn(np.array([[1, 0]], dtype=np.uint8)).tolist() == [1]

    def test_partial_coverage(self):
        # all four combinations of two bits are observed, so flips resolve
        feats = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        d = make_dataset(feats, [0, 0, 0, 1], sensitive_col=1)
        fn = lookup_oracle(d)
        ranking = flip_influence(fn, d, missing_ok=False)
        # prediction is c0 AND c1: each flip matters on half the rows
        assert ranking.scores[0] == pytest.approx(0.5)
        assert ranking.scores[1] == pytest.approx(0.5)


def naive_lookup(features, preds):
    """Per-row dict lookup, first observation wins; KeyError on unseen rows."""
    table = {}
    for row, p in zip(features, preds):
        table.setdefault(row.tobytes(), int(p))
    return lambda row: table[row.tobytes()]


def outcome(impl, fn, d, missing_ok=False):
    """(scores, ranks) of `impl`, None, or the OracleMissingRow it raised."""
    try:
        got = impl(fn, d, missing_ok=missing_ok)
    except OracleMissingRow as exc:
        return "OracleMissingRow: %s" % exc
    if got is None or isinstance(got, tuple):
        return got
    return got.scores.tolist(), got.ranks.tolist()


class TestAgainstPerRowReference:
    # naive_flip_influence calls the oracle on every row; flip_influence on
    # the distinct rows only.  Scores must be bit-identical, not close.

    def test_random_rule_lists(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            d, ants = random_instance(rng, max_rows=40)
            # repeated rows, in a shuffled order
            d = d.subset(rng.integers(0, d.n_rows, size=2 * d.n_rows))
            ids = [a.id for a in ants]
            k = int(rng.integers(0, min(4, len(ids)) + 1))
            chosen = rng.choice(ids, size=k, replace=False)
            rl = RuleList(
                rules=tuple((int(a), int(rng.integers(0, 2))) for a in chosen),
                default=int(rng.integers(0, 2)),
            )
            by_id = {a.id: a for a in ants}
            got = outcome(flip_influence, rule_list_oracle(rl, ants, d), d)
            per_row = per_row_oracle(lambda row: int(naive_predict(rl, by_id, row[None, :])[0]))
            assert got == outcome(naive_flip_influence, per_row, d)
            assert got == outcome(naive_flip_influence, rule_list_oracle(rl, ants, d), d)

    def test_lookup_tables_with_unseen_rows_and_conflicts(self):
        rng = np.random.default_rng(72)
        seen = set()
        for trial in range(40):
            n = int(rng.integers(4, 40))
            m = int(rng.integers(2, 6))
            feats = (rng.random((n, m)) < 0.5).astype(np.uint8)
            # repeat some rows with fresh, possibly conflicting predictions
            feats = np.vstack([feats, feats[rng.integers(0, n, size=n // 3)]])
            preds = rng.integers(0, 2, size=feats.shape[0])
            d = make_dataset(feats, preds, sensitive_col=m - 1)
            # tables of every row of d, in order (d's own grouping, as the
            # CLI builds them), shuffled, or of a few rows only
            size = feats.shape[0] if trial % 2 else int(rng.integers(1, 4))
            table = rng.permutation(feats.shape[0])[:size]
            if trial % 4 == 1:
                table = np.arange(feats.shape[0])
            rows, values = feats[table], preds[table]
            source = d if trial % 4 == 1 else make_dataset(rows, values)
            for missing_ok in (True, False):
                want = outcome(naive_flip_influence, per_row_oracle(naive_lookup(rows, values)), d, missing_ok)
                assert outcome(naive_flip_influence, lookup_oracle(source), d, missing_ok) == want
                assert outcome(flip_influence, lookup_oracle(source), d, missing_ok) == want
                seen.add("raised" if isinstance(want, str) else type(want).__name__)
        # every kind of outcome was compared
        assert seen == {"raised", "NoneType", "tuple"}

    def test_the_oracle_sees_each_distinct_row_once(self):
        rng = np.random.default_rng(73)
        feats = (rng.random((300, 5)) < 0.5).astype(np.uint8)
        d = make_dataset(feats, rng.integers(0, 2, size=300))
        distinct = {row.tobytes() for row in feats}
        calls = []

        def oracle(F):
            calls.append(len(F))
            return F[:, 0] & F[:, 2]

        ranking = flip_influence(oracle, d)
        # two flips per feature, each over the distinct rows
        assert calls == [len(distinct)] * 10
        assert (ranking.scores.tolist(), ranking.ranks.tolist()) == naive_flip_influence(oracle, d)
