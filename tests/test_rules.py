import numpy as np
import pytest

from fairlists.dataset import mine_antecedents
from fairlists.errors import LengthMismatch, MalformedRuleList, UnknownAntecedent
from fairlists.rules import (
    RuleList,
    canonical_form,
    fidelity,
    parse_canonical,
    predict,
    render,
)

from oracles import naive_capture, naive_predict
from test_dataset import make_dataset


def mined(features, labels):
    d = make_dataset(features, labels)
    return d, mine_antecedents(d, min_support=0.0)


class TestPredict:
    def test_default_only(self):
        d, ants = mined([[1, 0, 0], [0, 1, 1]], [0, 1])
        rl = RuleList(rules=(), default=1)
        assert predict(rl, ants, d).tolist() == [1, 1]

    def test_single_rule(self):
        d, ants = mined([[1, 0], [0, 0], [1, 1]], [1, 0, 1])
        # antecedent 0 is column 0 positive
        rl = RuleList(rules=((0, 1),), default=0)
        assert predict(rl, ants, d).tolist() == [1, 0, 1]

    def test_first_match_wins(self):
        d, ants = mined([[1, 1, 0], [1, 0, 0], [0, 1, 1]], [0, 1, 0])
        # ids: 0 = c0, 1 = not c0, 2 = c1, 3 = not c1
        rl = RuleList(rules=((0, 0), (2, 1)), default=1)
        # row 0 satisfies both c0 and c1; c0 fires first
        assert predict(rl, ants, d).tolist() == [0, 0, 1]

    def test_unknown_antecedent(self):
        d, ants = mined([[1, 0], [0, 1]], [0, 1])
        rl = RuleList(rules=((99, 1),), default=0)
        with pytest.raises(UnknownAntecedent):
            predict(rl, ants, d)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            feats = (rng.random((16, 5)) < 0.5).astype(np.uint8)
            d, ants = mined(feats, rng.integers(0, 2, size=16))
            ids = [a.id for a in ants]
            picks = rng.choice(ids, size=min(3, len(ids)), replace=False)
            rl = RuleList(
                rules=tuple((int(a), int(rng.integers(0, 2))) for a in picks),
                default=int(rng.integers(0, 2)),
            )
            fast = predict(rl, ants, d)
            slow = naive_predict(rl, {a.id: a for a in ants}, d.features)
            assert np.array_equal(fast, slow)

    def test_removing_late_rule_keeps_early_captures(self):
        rng = np.random.default_rng(13)
        feats = (rng.random((30, 4)) < 0.5).astype(np.uint8)
        d, ants = mined(feats, rng.integers(0, 2, size=30))
        full = RuleList(rules=((0, 1), (2, 0), (4, 1)), default=0)
        trimmed = RuleList(rules=((0, 1), (2, 0)), default=0)
        pf = predict(full, ants, d)
        pt = predict(trimmed, ants, d)
        by_id = {a.id: a for a in ants}
        captured = naive_capture(by_id[0], d.features) | naive_capture(by_id[2], d.features)
        assert np.array_equal(pf[captured], pt[captured])


class TestRuleList:
    def test_repeated_antecedent_rejected(self):
        with pytest.raises(MalformedRuleList):
            RuleList(rules=((1, 0), (1, 1)), default=0)

    def test_k_and_ids(self):
        rl = RuleList(rules=((3, 1), (0, 0)), default=1)
        assert rl.K == 2
        assert rl.antecedent_ids == (3, 0)


class TestFidelity:
    def test_identity(self):
        assert fidelity([0, 1, 1], [0, 1, 1]) == 1.0

    def test_local_single_instance(self):
        assert fidelity([1], [1]) == 1.0
        assert fidelity([1], [0]) == 0.0

    def test_complement_zero(self):
        p = np.array([1, 0, 0, 1])
        assert fidelity(p, 1 - p) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            fidelity([1, 0], [1])


class TestCanonicalForm:
    def test_empty_list(self):
        assert canonical_form(RuleList(rules=(), default=0)) == "default:0"

    def test_order_sensitive(self):
        a = RuleList(rules=((0, 1), (2, 0)), default=0)
        b = RuleList(rules=((2, 0), (0, 1)), default=0)
        assert canonical_form(a) != canonical_form(b)

    def test_round_trip_random(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            k = int(rng.integers(0, 4))
            ids = rng.choice(20, size=k, replace=False)
            rl = RuleList(
                rules=tuple((int(a), int(rng.integers(0, 2))) for a in ids),
                default=int(rng.integers(0, 2)),
            )
            assert parse_canonical(canonical_form(rl)) == rl

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_canonical("0:1;1:0")

    @pytest.mark.parametrize(
        "text",
        ["", "garbage", "0:1;1:0", "x:1;default:0", "0:1;default:y", "0:1:1;default:0", "-1:1;default:0",
         "0:2;default:0", "0:1;default:2", "0:1;default:0;1:1", "3:1;3:0;default:0"],
    )
    def test_parse_raises_a_library_error(self, text):
        # the CLI turns a FairlistsError into exit 2
        with pytest.raises(MalformedRuleList):
            parse_canonical(text)


class TestRender:
    def test_readable_output(self):
        d, ants = mined(
            [[1, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1]], [0, 1, 0, 1]
        )
        rl = RuleList(rules=((0, 1), (3, 0)), default=1)
        text = render(rl, ants, d.feature_names)
        assert text == "if c0 then 1 else if not c1 then 0 else 1"

    def test_unknown_antecedent(self):
        d, ants = mined([[1, 0], [0, 1], [1, 1], [0, 0]], [0, 1, 0, 1])
        with pytest.raises(UnknownAntecedent):
            render(RuleList(rules=((99, 1),), default=0), ants, d.feature_names)
