import dataclasses
import itertools
from dataclasses import replace

import numpy as np
import pytest

from fairlists import enumeration, search
from fairlists.dataset import Antecedent, mine_antecedents
from fairlists.enumeration import enumerate_models
from fairlists.errors import BudgetZero, EmptyGroup, FairlistsError, UndefinedRate, UnknownAntecedent
from fairlists.metrics import MetricKind
from fairlists.rules import RuleList, canonical_form, predict
from fairlists.synth import biased_dataset
from fairlists.search import (
    DEFAULT_NODE_BUDGET,
    SearchConfig,
    SearchProblem,
    corels_optimize,
    lower_bound,
    objective,
)

from oracles import (
    all_sequences,
    evaluate_sequence,
    exhaustive_best,
    naive_capture,
    naive_equivalence_weights,
    random_instance,
    same_kbest,
    subset_optima_kbest,
)
from test_dataset import make_dataset


def prefix_state(seq, caps, labels, sens, cfg):
    """What the search's bounds read of the prefix `seq`, from its rows:
    the errors on its captured rows, the inevitable errors among the rows
    it leaves (rows no antecedent tells apart get one prediction from any
    rule list, so each uncaptured class errs at least on its minority
    label), the fairness bound's (size, captured positive, uncaptured,
    uncaptured label-1) rows per group, and the captured rows' counts per
    (group, prediction, label)."""
    _, _, _, rl = evaluate_sequence(seq, caps, labels, sens, cfg)
    claimed = np.zeros(labels.shape[0], dtype=bool)
    positive = np.zeros(labels.shape[0], dtype=bool)
    errors = 0
    for (a, q) in rl.rules:
        newly = caps[a] & ~claimed
        errors += int(np.count_nonzero(labels[newly] != q))
        claimed |= newly
        if q == 1:
            positive |= newly
    ids = sorted(caps)
    classes = {}
    for r in np.flatnonzero(~claimed):
        classes.setdefault(tuple(caps[a][r] for a in ids), []).append(labels[r])
    eq_rem = float(sum(min(sum(c), len(c) - sum(c)) for c in classes.values()))
    in_group = sens != 0
    groups = tuple(
        (
            int(np.count_nonzero(g)),
            int(np.count_nonzero(g & positive)),
            int(np.count_nonzero(g & ~claimed)),
            int(np.count_nonzero(g & ~claimed & labels)),
        )
        for g in (~in_group, in_group)
    )
    codes = 4 * in_group + 2 * positive + labels
    conf = tuple(np.bincount(codes[claimed], minlength=8))
    return errors, eq_rem, groups, conf


class TestObjective:
    def test_pure_length_penalty(self):
        cfg = SearchConfig(lam=0.005, beta=0.0)
        assert objective(0.0, 0.0, 2, cfg) == pytest.approx(0.01)

    def test_beta_zero_ignores_unfairness(self):
        cfg = SearchConfig(lam=0.01, beta=0.0)
        assert objective(0.3, 0.9, 1, cfg) == objective(0.3, 0.1, 1, cfg)

    def test_weighted_sum(self):
        cfg = SearchConfig(lam=0.01, beta=0.5)
        assert objective(0.2, 0.1, 1, cfg) == pytest.approx(0.16)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(lam=-0.1)
        with pytest.raises(ValueError):
            SearchConfig(beta=1.5)
        with pytest.raises(ValueError):
            SearchConfig(max_length=-1)

    def test_fields_are_the_objective_and_the_limits(self):
        # every bound is always on, so no field switches one
        assert [f.name for f in dataclasses.fields(SearchConfig)] == ["lam", "beta", "metric", "max_length", "node_budget"]


class TestLowerBound:
    def test_empty_prefix_bounds_one_rule(self):
        # the root's bound covers its strict extensions, of one rule or more
        cfg = SearchConfig(lam=0.01)
        assert lower_bound(0, 0.0, 0, 8, cfg) == 0.01

    def test_two_rules_with_lookahead(self):
        cfg = SearchConfig(lam=0.01)
        assert lower_bound(0, 0.0, 2, 8, cfg) == pytest.approx(0.03)

    def test_sound_against_exhaustive_completions(self):
        rng = np.random.default_rng(31)
        settings = [(0.0, "dp")] + [(beta, metric) for beta in (0.1, 0.5, 0.9) for metric in ("dp", "sp")]
        for trial in range(70):
            d, ants = random_instance(rng, max_rows=24, max_feature_cols=5)
            beta, metric = settings[trial % len(settings)]
            cfg = SearchConfig(lam=0.01, beta=beta, metric=MetricKind(metric), max_length=3)
            caps = {a.id: naive_capture(a, d.features) for a in ants}
            labels = d.labels != 0
            ids = [a.id for a in ants]
            seq = tuple(int(a) for a in rng.choice(ids, size=min(2, len(ids)), replace=False))
            errors, eq_rem, groups, _ = prefix_state(seq, caps, labels, d.sensitive, cfg)
            bounds = (
                lower_bound(errors, eq_rem, len(seq), d.n_rows, cfg),
                lower_bound(errors, eq_rem, len(seq), d.n_rows, cfg, groups),
            )
            # every completion is a strict extension: it adds at least one
            # further antecedent to the prefix
            for tail in all_sequences(sorted(set(ids) - set(seq)), cfg.max_length - len(seq)):
                if not tail:
                    continue
                obj, _, _, _ = evaluate_sequence(seq + tail, caps, labels, d.sensitive, cfg)
                for lb in bounds:
                    assert obj >= lb - 1e-12

    def test_fairness_bound_below_integer_minimum(self):
        # brute force over the positive counts p_g of the uncaptured rows
        rng = np.random.default_rng(8)
        for _ in range(1000):
            sizes = rng.integers(1, 14, size=2)
            groups = []
            for size in map(int, sizes):
                captured = int(rng.integers(0, size + 1))
                positive = int(rng.integers(0, captured + 1))
                label_1 = int(rng.integers(0, size - captured + 1))
                groups.append((size, positive, size - captured, label_1))
            n = int(sizes.sum())
            err = int(rng.integers(0, n - groups[0][2] - groups[1][2] + 1))
            cfg = SearchConfig(lam=0.0, beta=float(rng.choice([0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])))
            (n0, c0, u0, y0), (n1, c1, u1, y1) = groups
            best = min(
                (1 - cfg.beta) * (err + abs(p0 - y0) + abs(p1 - y1)) / n
                + cfg.beta * abs((c1 + p1) / n1 - (c0 + p0) / n0)
                for p0 in range(u0 + 1)
                for p1 in range(u1 + 1)
            )
            assert lower_bound(err, 0.0, 2, n, cfg, tuple(groups)) <= best + 1e-12

    def test_fairness_bound_is_inert_off_dp_and_sp(self):
        groups = ((10, 2, 6, 1), (6, 4, 2, 2))
        for cfg in (
            SearchConfig(lam=0.01, beta=0.0),
            SearchConfig(lam=0.01, beta=0.9, metric=MetricKind.OVERALL_ACCURACY_EQUALITY),
            SearchConfig(lam=0.01, beta=0.9, metric=MetricKind.CONDITIONAL_PROCEDURE_ACCURACY),
        ):
            assert lower_bound(3, 1.0, 2, 16, cfg, groups) == lower_bound(3, 1.0, 2, 16, cfg)

    def test_fairness_bound_hand_computed(self):
        # captured: group 0 has 2 of its 10 rows positive, group 1 4 of 6;
        # uncaptured label-1 rows: 1 of 6 in group 0, 2 of 2 in group 1.
        # At p = y the gap is 6/6 - 3/10 = 0.7.  A row of group 1 closes 1/6
        # of it, one of group 0 1/10, each for (1 - beta)/16 in errors
        groups = ((10, 2, 6, 1), (6, 4, 2, 2))
        # beta = 0.9: both rows of group 1 move (gap 0.7 - 2/6), then 11/3
        # rows of group 0 close the rest
        cfg = SearchConfig(lam=0.0, beta=0.9)
        want = 0.1 * (3 + 2 + 11 / 3) / 16
        assert lower_bound(3, 0.0, 2, 16, cfg, groups) == pytest.approx(want - 1e-9, abs=1e-15)
        # beta = 0.3: a row of group 0 (0.3/10) is worth less than an error
        # (0.7/16), so only group 1 moves
        cfg = SearchConfig(lam=0.0, beta=0.3)
        want = 0.7 * (3 + 2) / 16 + 0.3 * (0.7 - 2 / 6)
        assert lower_bound(3, 0.0, 2, 16, cfg, groups) == pytest.approx(want - 1e-9, abs=1e-15)
        # lookahead adds one rule's penalty to both bounds
        cfg = SearchConfig(lam=0.01, beta=0.3)
        assert lower_bound(3, 0.0, 2, 16, cfg, groups) == pytest.approx(want + 0.03 - 1e-9, abs=1e-15)


class TestCorelsOptimize:
    def test_large_lambda_gives_empty_list(self):
        rng = np.random.default_rng(9)
        d, ants = random_instance(rng)
        cfg = SearchConfig(lam=0.6, beta=0.0, max_length=3)
        res = corels_optimize(SearchProblem(ants, d), cfg)
        assert res.best.K == 0
        majority = 1 if d.labels.sum() > d.n_rows - d.labels.sum() else 0
        assert res.best.default == majority

    def test_perfect_split_single_rule(self):
        feats = np.array([[1, 0], [1, 1], [0, 0], [0, 1]] * 4, dtype=np.uint8)
        d = make_dataset(feats, feats[:, 0].copy(), sensitive_col=1)
        ants = mine_antecedents(d, min_support=0.0)
        cfg = SearchConfig(lam=0.005, beta=0.0, max_length=2)
        res = corels_optimize(SearchProblem(ants, d), cfg)
        assert res.best.K == 1
        assert res.objective == pytest.approx(0.005)
        obj, _, _, rl = exhaustive_best(ants, d, cfg)
        assert res.objective == pytest.approx(obj)
        assert canonical_form(res.best) == canonical_form(rl)

    def test_beta_zero_is_plain_corels(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d, ants = random_instance(rng, max_rows=32, max_feature_cols=5)
            cfg = SearchConfig(lam=0.01, beta=0.0, max_length=2)
            res = corels_optimize(SearchProblem(ants, d), cfg)
            # the objective is the exhaustive misc + lam*K minimum
            best = min(
                evaluate_sequence(
                    seq,
                    {a.id: naive_capture(a, d.features) for a in ants},
                    d.labels != 0,
                    d.sensitive,
                    cfg,
                )[0]
                for seq in all_sequences([a.id for a in ants], 2)
            )
            assert res.objective == pytest.approx(best, abs=1e-12)

    def test_objective_identity(self):
        rng = np.random.default_rng(41)
        for beta in (0.0, 0.5, 0.9):
            d, ants = random_instance(rng)
            cfg = SearchConfig(lam=0.005, beta=beta, max_length=3)
            res = corels_optimize(SearchProblem(ants, d), cfg)
            want = (1 - beta) * res.misc + beta * res.unfairness + cfg.lam * res.best.K
            assert res.objective == pytest.approx(want, abs=1e-12)

    def test_allowed_and_forbidden(self):
        rng = np.random.default_rng(12)
        d, ants = random_instance(rng)
        cfg = SearchConfig(lam=0.005, beta=0.0, max_length=2)
        ids = [a.id for a in ants]
        allowed = set(ids[:3])
        res = corels_optimize(SearchProblem(ants, d), cfg, allowed=allowed)
        assert set(res.best.antecedent_ids) <= allowed
        # forbidding an antecedent is leaving it out of the allowed set
        res2 = corels_optimize(SearchProblem(ants, d), cfg, allowed=allowed - {ids[0]})
        assert ids[0] not in res2.best.antecedent_ids
        obj, _, _, _ = exhaustive_best(ants, d, cfg, allowed=allowed - {ids[0]})
        assert res2.objective == pytest.approx(obj)

    def test_no_antecedents_give_the_default_only_list(self):
        rng = np.random.default_rng(31)
        d, ants = random_instance(rng, n_rows=24)
        # half the rows labeled 1, a tie that the default breaks to 0; the
        # first four rows keep every (sensitive, label) pair
        labels = d.labels.copy()
        labels[4:] = 0
        labels[4:14] = 1
        d = d.with_labels(labels)
        empty = SearchProblem((), d)
        for metric in MetricKind:
            for beta in (0.0, 0.5):
                # the root is the whole search, so one node certifies it
                cfg = SearchConfig(beta=beta, metric=metric, node_budget=1)
                obj, misc, unf, rl = exhaustive_best(ants, d, cfg, allowed=())
                assert rl == RuleList(rules=(), default=0)
                found = [corels_optimize(SearchProblem(ants, d), cfg, allowed=()), *enumerate_models(empty, cfg)]
                assert len(found) == 2
                for res in found:
                    assert (res.best, res.nodes_evaluated, res.certified_optimal) == (rl, 1, True), (metric, beta)
                    assert (res.objective, res.misc, res.unfairness) == pytest.approx((obj, misc, unf))

    def test_unknown_allowed_antecedent(self):
        rng = np.random.default_rng(2)
        d, ants = random_instance(rng)
        unknown = max(a.id for a in ants) + 1
        with pytest.raises(UnknownAntecedent, match="antecedent id %d not in mined set" % unknown):
            corels_optimize(SearchProblem(ants, d), SearchConfig(), allowed={unknown})

    def test_budget_zero(self):
        rng = np.random.default_rng(2)
        d, ants = random_instance(rng)
        with pytest.raises(BudgetZero):
            corels_optimize(SearchProblem(ants, d), SearchConfig(node_budget=0))

    def test_budget_exhaustion_drops_certificate(self):
        rng = np.random.default_rng(2)
        d, ants = random_instance(rng)
        res = corels_optimize(SearchProblem(ants, d), SearchConfig(max_length=3, node_budget=5))
        assert not res.certified_optimal
        full = corels_optimize(SearchProblem(ants, d), SearchConfig(max_length=3))
        assert full.certified_optimal
        assert full.objective <= res.objective + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(77)
        d, ants = random_instance(rng)
        cfg = SearchConfig(lam=0.005, beta=0.5, max_length=3)
        a = corels_optimize(SearchProblem(ants, d), cfg)
        b = corels_optimize(SearchProblem(ants, d), cfg)
        assert canonical_form(a.best) == canonical_form(b.best)
        assert a.objective == b.objective
        assert a.nodes_evaluated == b.nodes_evaluated

    def test_empty_group_with_beta(self):
        feats = np.array([[1, 1], [0, 1], [1, 1], [0, 1]], dtype=np.uint8)
        d = make_dataset(feats, [1, 0, 1, 0], sensitive_col=1)
        ants = mine_antecedents(d, min_support=0.0)
        with pytest.raises(EmptyGroup):
            corels_optimize(SearchProblem(ants, d), SearchConfig(beta=0.5))
        # beta == 0 tolerates it; the reported unfairness is just NaN
        res = corels_optimize(SearchProblem(ants, d), SearchConfig(beta=0.0))
        assert np.isnan(res.unfairness)

    def test_cpa_undefined_rate_precheck(self):
        feats = np.array([[1, 0], [0, 0], [1, 1], [0, 1]], dtype=np.uint8)
        # group s=0 has only label 1, so its TNR denominator is 0
        d = make_dataset(feats, [1, 1, 1, 0], sensitive_col=1)
        ants = mine_antecedents(d, min_support=0.0)
        cfg = SearchConfig(beta=0.5, metric=MetricKind.CONDITIONAL_PROCEDURE_ACCURACY)
        with pytest.raises(UndefinedRate):
            corels_optimize(SearchProblem(ants, d), cfg)

    def test_copied_features_take_the_satisfies_path(self):
        rng = np.random.default_rng(29)
        for beta in (0.0, 0.5):
            d, ants = random_instance(rng)
            copy = replace(d, features=d.features.copy())
            assert copy.features is not d.features
            cfg = SearchConfig(lam=0.005, beta=beta, max_length=3)
            want = corels_optimize(SearchProblem(ants, d), cfg)
            got = corels_optimize(SearchProblem(ants, copy), cfg)
            assert got == want

    def test_evaluation_on_other_dataset_schema(self):
        rng = np.random.default_rng(19)
        d, ants = random_instance(rng)
        other = d.subset(np.arange(d.n_rows // 2))
        cfg = SearchConfig(lam=0.01, beta=0.0, max_length=2)
        res = corels_optimize(SearchProblem(ants, other), cfg)
        obj, _, _, _ = exhaustive_best(ants, other, cfg)
        assert res.objective == pytest.approx(obj)


class TestBounds:
    def test_pruned_search_equals_the_exhaustive_optimum(self):
        rng = np.random.default_rng(55)
        for trial in range(15):
            d, ants = random_instance(rng, max_rows=40, max_feature_cols=6)
            beta = (0.0, 0.5, 0.9)[trial % 3]
            for metric in (MetricKind.DEMOGRAPHIC_PARITY, MetricKind.STATISTICAL_PARITY):
                cfg = SearchConfig(lam=0.01, beta=beta, metric=metric, max_length=3)
                res = corels_optimize(SearchProblem(ants, d), cfg)
                obj, _, _, rl = exhaustive_best(ants, d, cfg)
                assert res.objective == pytest.approx(obj, abs=1e-12)
                assert canonical_form(res.best) == canonical_form(rl)

    @pytest.mark.parametrize(
        "bound", ["equivalent_points", "fairness_bound", "lookahead", "permutation_bound", "support_bound"]
    )
    def test_bound_spares_the_optimum(self, bound):
        # no bound prunes a prefix of the exhaustive tie-policy winner, each
        # checked alone on the instances the search is checked on above
        rng = np.random.default_rng(55)
        for trial in range(15):
            d, ants = random_instance(rng, max_rows=40, max_feature_cols=6)
            beta = (0.0, 0.5, 0.9)[trial % 3]
            caps = {a.id: naive_capture(a, d.features) for a in ants}
            labels = d.labels != 0
            n = d.n_rows
            for metric in (MetricKind.DEMOGRAPHIC_PARITY, MetricKind.STATISTICAL_PARITY):
                cfg = SearchConfig(lam=0.01, beta=beta, metric=metric, max_length=3)
                obj, _, _, rl = exhaustive_best(ants, d, cfg)
                seq = rl.antecedent_ids

                def state(prefix):
                    return prefix_state(prefix, caps, labels, d.sensitive, cfg)

                # every proper prefix is bounded before it is extended
                for k in range(len(seq)):
                    err, eq_rem, groups, _ = state(seq[:k])
                    if bound == "lookahead":
                        assert lower_bound(err, 0.0, k, n, cfg) <= obj + 1e-12
                    elif bound == "equivalent_points":
                        assert lower_bound(err, eq_rem, k, n, cfg) <= obj + 1e-12
                    elif bound == "fairness_bound":
                        assert lower_bound(err, eq_rem, k, n, cfg, groups) <= obj + 1e-12
                # the support bound (beta == 0 only) skips a rule that
                # captures fewer than lam * n new rows
                if bound == "support_bound" and beta == 0.0:
                    claimed = np.zeros(n, dtype=bool)
                    for a in seq:
                        assert np.count_nonzero(caps[a] & ~claimed) >= cfg.lam * n - 1e-12
                        claimed |= caps[a]
                # the permutation bound skips a prefix when a permutation seen
                # before it has no more captured errors (beta == 0) or the
                # same captured counts (beta > 0)
                if bound == "permutation_bound":
                    for k in range(1, len(seq) + 1):
                        err, _, _, conf = state(seq[:k])
                        for other in itertools.permutations(seq[:k]):
                            if other >= seq[:k]:
                                continue
                            other_err, _, _, other_conf = state(other)
                            if beta == 0.0:
                                assert other_err > err
                            else:
                                assert other_conf != conf

    def test_all_bounds_reduce_nodes(self):
        # the search evaluates fewer nodes than there are ordered prefixes
        rng = np.random.default_rng(66)
        for _ in range(20):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=6)
            cfg = SearchConfig(lam=0.01, beta=0.0, max_length=3)
            res = corels_optimize(SearchProblem(ants, d), cfg)
            obj, _, _, _ = exhaustive_best(ants, d, cfg)
            assert res.objective == pytest.approx(obj, abs=1e-12)
            prefixes = sum(1 for _ in all_sequences([a.id for a in ants], cfg.max_length))
            assert res.nodes_evaluated < prefixes

    def test_permutation_safety(self):
        # permuted prefixes over the same antecedents capture the same rows
        rng = np.random.default_rng(3)
        d, ants = random_instance(rng)
        caps = {a.id: naive_capture(a, d.features) for a in ants}
        ids = [a.id for a in ants][:3]
        total_a = caps[ids[0]] | caps[ids[1]] | caps[ids[2]]
        total_b = caps[ids[2]] | caps[ids[0]] | caps[ids[1]]
        assert np.array_equal(total_a, total_b)

    def test_beta_permutation_key_is_the_captured_counts(self):
        # antecedents a (id 0) and b (id 1) over columns a, b, s share three
        # rows labeled 1, and each captures two rows labeled 0 alone, one per
        # group; eight rows that neither captures mix both labels and groups
        rows = [
            ((1, 1, 0), 1), ((1, 1, 1), 1), ((1, 1, 1), 1),
            ((1, 0, 0), 0), ((1, 0, 1), 0),
            ((0, 1, 0), 0), ((0, 1, 1), 0),
        ] + [((0, 0, s), y) for s in (0, 1) for y in (0, 1) for _ in range(2)]
        d = make_dataset([f for f, _ in rows], [y for _, y in rows])
        ants = tuple(Antecedent(id=j, feature=j, negated=False, support=5 / 15) for j in (0, 1))
        # (a, b) predicts a's rows positive and (b, a) b's: different rows
        ab, ba = RuleList(((0, 1), (1, 0)), 0), RuleList(((1, 1), (0, 0)), 0)
        pred_ab, pred_ba = predict(ab, ants, d), predict(ba, ants, d)
        assert not np.array_equal(pred_ab, pred_ba)
        # the same confusion counts: per (group, prediction, label) code
        codes = 4 * d.sensitive + 2 * d.labels
        assert np.array_equal(np.bincount(codes + pred_ab, minlength=8), np.bincount(codes + pred_ba, minlength=8))
        # the root, (a), (b) and (a, b) are evaluated and (b, a) is pruned
        for metric in MetricKind:
            for beta in (0.1, 0.5, 0.9):
                cfg = SearchConfig(lam=0.0, beta=beta, metric=metric, max_length=2)
                assert corels_optimize(SearchProblem(ants, d), cfg).nodes_evaluated == 4
                for lam in (0.0, 0.005):
                    cfg = SearchConfig(lam=lam, beta=beta, metric=metric, max_length=2)
                    res = corels_optimize(SearchProblem(ants, d), cfg)
                    obj, _, _, rl = exhaustive_best(ants, d, cfg)
                    assert res.objective == pytest.approx(obj, abs=1e-12)
                    assert res.best == rl
                    assert res.certified_optimal


class TestTiePolicy:
    def test_winner_is_first_in_short_lex_order(self):
        rng = np.random.default_rng(101)
        for trial in range(20):
            d, ants = random_instance(rng, max_rows=24, max_feature_cols=4)
            beta = (0.0, 0.9)[trial % 2]
            cfg = SearchConfig(lam=0.0, beta=beta, max_length=2)
            res = corels_optimize(SearchProblem(ants, d), cfg)
            _, _, _, rl = exhaustive_best(ants, d, cfg)
            assert canonical_form(res.best) == canonical_form(rl)


class TestEquivalenceMask:
    def test_matches_per_row_oracle(self):
        # the masks group the distinct feature rows of the problem; a class
        # of equal rows with both labels must still mark each row by its
        # own label
        rng = np.random.default_rng(47)
        conflicts = 0
        for trial in range(40):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=5)
            if trial % 2:
                # duplicated rows with independently drawn, conflicting labels
                idx = rng.integers(0, d.n_rows, size=2 * d.n_rows)
                d = d.subset(idx).with_labels(rng.random(2 * d.n_rows) < 0.5)
            labels_of = {}
            for row, y in zip(d.features, d.labels):
                labels_of.setdefault(row.tobytes(), set()).add(int(y))
            conflicts += sum(len(ys) == 2 for ys in labels_of.values())
            problem = SearchProblem(ants, d)
            ids = [a.id for a in ants]
            subsets = [tuple(ids)] + [
                tuple(sorted(rng.choice(ids, int(rng.integers(1, len(ids) + 1)), replace=False).tolist()))
                for _ in range(3)
            ]
            for allowed in subsets:
                captures = [naive_capture(a, d.features) for a in ants if a.id in allowed]
                want = naive_equivalence_weights(captures, d.labels != 0)
                mask = problem.equivalence_mask(allowed)
                assert [(mask >> r) & 1 for r in range(d.n_rows)] == want.astype(int).tolist()
                assert mask >> d.n_rows == 0
        assert conflicts > 0


class TestSearchProblem:
    @staticmethod
    def outcome(problem, cfg, allowed):
        """Every field of the result (NaN-safe), or the error raised."""
        try:
            res = corels_optimize(problem, cfg, allowed=allowed)
        except FairlistsError as exc:
            return type(exc)
        unf = "nan" if np.isnan(res.unfairness) else res.unfairness
        return (res.best, res.objective, res.misc, unf, res.nodes_evaluated, res.certified_optimal)

    def test_reuse_equals_a_fresh_problem_per_call(self):
        rng = np.random.default_rng(71)
        for trial in range(4):
            d, ants = random_instance(rng, max_rows=40, max_feature_cols=6)
            if trial % 2:
                # no label-0 row in group 1: strict cpa raises UndefinedRate
                d = d.with_labels(np.where(d.sensitive != 0, 1, d.labels))
                ants = mine_antecedents(d, min_support=0.0, include_negations=False)
            ids = [a.id for a in ants]
            calls = []
            for beta in (0.0, 0.5, 0.9):
                for metric in MetricKind:
                    for budget in (DEFAULT_NODE_BUDGET, 15):
                        cfg = SearchConfig(lam=0.005, beta=beta, metric=metric, max_length=3, node_budget=budget)
                        allowed = None
                        if len(calls) % 3:
                            size = int(rng.integers(1, len(ids) + 1))
                            allowed = set(rng.choice(ids, size, replace=False).tolist())
                        calls.append((cfg, allowed))
            want = [self.outcome(SearchProblem(ants, d), cfg, allowed) for cfg, allowed in calls]
            assert any(isinstance(w, tuple) and not w[5] for w in want)
            assert (UndefinedRate in want) == bool(trial % 2)
            shared = SearchProblem(ants, d)
            assert [self.outcome(shared, cfg, allowed) for cfg, allowed in calls] == want
            shared = SearchProblem(ants, d)
            assert [self.outcome(shared, cfg, allowed) for cfg, allowed in calls[::-1]] == want[::-1]

    def test_cached_equivalence_mask_matches_oracle(self):
        rng = np.random.default_rng(83)
        for trial in range(30):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=6)
            if trial % 2:
                # another dataset than the mined one:
                # duplicated rows with independently drawn labels
                idx = rng.integers(0, d.n_rows, size=2 * d.n_rows)
                mined, d = d, d.subset(idx).with_labels(rng.random(2 * d.n_rows) < 0.5)
                assert d is not mined
            problem = SearchProblem(ants, d)
            ids = [a.id for a in ants]
            for _ in range(4):
                size = int(rng.integers(1, len(ids) + 1))
                allowed = tuple(sorted(rng.choice(ids, size, replace=False).tolist()))
                mask = problem.equivalence_mask(allowed)
                assert problem.equivalence_mask(allowed) is mask
                captures = [naive_capture(a, d.features) for a in ants if a.id in allowed]
                want = naive_equivalence_weights(captures, d.labels != 0)
                assert [(mask >> r) & 1 for r in range(d.n_rows)] == want.astype(int).tolist()
                assert mask >> d.n_rows == 0


class TestCountMemo:
    """Every search over one SearchProblem shares its count memo; the
    results are those of a fresh problem per search, field for field."""

    @staticmethod
    def fields(res):
        unf = "nan" if np.isnan(res.unfairness) else res.unfairness
        return (res.best, res.objective, res.misc, unf, res.nodes_evaluated, res.certified_optimal)

    @classmethod
    def runs(cls, monkeypatch, ants, d, shared, metric=MetricKind.DEMOGRAPHIC_PARITY, budget=DEFAULT_NODE_BUDGET):
        """The fields of every result of a (lambda, beta) grid and of
        enumerations at beta 0 and 0.5, with every search over one problem
        or over a fresh problem each; and the shared problem."""
        problem = SearchProblem(ants, d)

        def solve(_, cfg, allowed=None):
            return corels_optimize(problem if shared else SearchProblem(ants, d), cfg, allowed)

        monkeypatch.setattr(enumeration, "corels_optimize", solve)
        out = []
        for lam in (0.0, 0.005, 0.01):
            for beta in (0.0, 0.2, 0.5, 0.9):
                cfg = SearchConfig(lam=lam, beta=beta, metric=metric, max_length=3, node_budget=budget)
                out.append(cls.fields(solve(problem, cfg)))
        for beta in (0.0, 0.5):
            cfg = SearchConfig(lam=0.005, beta=beta, metric=metric, max_length=3, node_budget=budget)
            out.append([cls.fields(m) for m in enumerate_models(problem, cfg, max_models=20)])
        return out, problem

    @staticmethod
    def instances():
        rng = np.random.default_rng(97)
        for trial in range(8):
            d, ants = random_instance(rng, n_rows=int(rng.integers(40, 200)), max_feature_cols=6)
            if trial % 4 == 3:
                # antecedents out of id order: every search gathers its counts
                order = rng.permutation(len(ants))
                ants = tuple(ants[p] for p in order)
            metric = list(MetricKind)[trial % 4]
            budget = 30 if trial % 3 == 2 else DEFAULT_NODE_BUDGET
            yield d, ants, metric, budget

    def test_a_shared_problem_equals_a_fresh_problem_per_search(self, monkeypatch):
        cut = 0
        for d, ants, metric, budget in self.instances():
            want, _ = self.runs(monkeypatch, ants, d, False, metric, budget)
            got, problem = self.runs(monkeypatch, ants, d, True, metric, budget)
            assert got == want
            assert problem._memos[0].rows
            cut += budget != DEFAULT_NODE_BUDGET
        assert cut

    @pytest.mark.parametrize("cap", [0, 20_000])
    def test_a_capped_memo_gives_the_same_results(self, monkeypatch, cap):
        for d, ants, metric, budget in self.instances():
            want, _ = self.runs(monkeypatch, ants, d, False, metric, budget)
            monkeypatch.setattr(search, "MEMO_BYTES", cap)
            got, problem = self.runs(monkeypatch, ants, d, True, metric, budget)
            monkeypatch.undo()
            assert got == want
            held = [counts.nbytes for memo in problem._memos.values() for counts in memo.rows.values()]
            assert problem._memo_bytes == [sum(held)]
            assert problem._memo_bytes[0] <= cap
            if cap == 0:
                assert not any(memo.rows for memo in problem._memos.values())

    def test_pinned_memo_entries_on_a_grid(self, monkeypatch):
        d = biased_dataset(2000, seed=5)
        problem = SearchProblem(mine_antecedents(d), d)
        parents = []
        counts = search._Memo.counts

        def counted(memo, used, unc, at):
            parents.append(used)
            return counts(memo, used, unc, at)

        monkeypatch.setattr(search._Memo, "counts", counted)
        for lam in (0.005, 0.01):
            for beta in (0.0, 0.1, 0.2, 0.5, 0.7, 0.9):
                enumerate_models(problem, SearchConfig(lam=lam, beta=beta, max_length=3), max_models=10)
        # the parents counted by all the searches, the antecedent sets among
        # them, and the entries of each memo: the cells of the last level's
        # parents, and the (set, equivalent-points mask) entries of the
        # parents whose children are extended
        entries = sorted(len(memo.rows) for memo in problem._memos.values())
        assert (len(parents), len(set(parents)), entries) == (1115, 102, [11, 11, 13, 15, 87])


class TestWordBoundaries:
    # row counts on either side of the 64-row words the search counts in
    ROWS = (63, 64, 65, 128, 129, 200)

    @pytest.mark.parametrize("n_rows", ROWS)
    def test_captures_are_the_antecedents_on_the_problem_rows(self, n_rows):
        rng = np.random.default_rng(n_rows)
        d, ants = random_instance(rng, n_rows=n_rows)
        # the mined rows, and other rows of the same schema
        other = d.subset(rng.integers(0, n_rows, size=n_rows + 7))
        for rows in (d, other):
            problem = SearchProblem(ants, rows)
            assert list(problem.captures) == [a.id for a in ants]
            for a in ants:
                hit = naive_capture(a, rows.features)
                assert problem.captures[a.id] == sum(1 << r for r in range(rows.n_rows) if hit[r])

    @pytest.mark.parametrize("n_rows", ROWS)
    def test_word_columns_hold_the_capture_ints(self, n_rows):
        rng = np.random.default_rng(n_rows)
        d, ants = random_instance(rng, n_rows=n_rows)
        problem = SearchProblem(ants, d)
        caps = [problem.captures[a.id] for a in ants]
        rows = range(n_rows)
        codes = [sum(1 << r for r in rows if 2 * d.sensitive[r] + d.labels[r] == code) for code in range(4)]
        # row code of the columns holds each capture within the code, row 4
        # the whole capture
        columns = problem._columns
        assert columns.shape == (5, len(caps), -(-n_rows // 64))
        held = [[int.from_bytes(col.astype("<u8").tobytes(), "little") for col in row] for row in columns]
        assert held == [[cap & code for cap in caps] for code in codes] + [caps]
        # the memos' counts within random row sets, whole and gathered, per
        # code alone and within a random equivalent-points mask
        mask = sum(1 << r for r in rows if rng.random() < 0.5)
        at = rng.permutation(len(caps))
        for used in range(3):
            unc = sum(1 << r for r in rows if rng.random() < 0.5)
            cells = [[(cap & code & unc).bit_count() for cap in caps] for code in codes]
            eqs = [(cap & mask & unc).bit_count() for cap in caps]
            # counted and stored, then read back
            for _ in range(2):
                assert problem._memo(0).counts(used, unc, None) == cells
                assert problem._memo(mask).counts(used, unc, None) == cells + [eqs]
                assert problem._memo(0).counts(used, unc, at) == [[c[p] for p in at] for c in cells]
                assert problem._memo(mask).counts(used, unc, at) == [[c[p] for p in at] for c in cells + [eqs]]
            assert problem._memo(0).rows[used].tolist() == cells
            assert problem._memo(mask).rows[used].tolist() == cells + [eqs]

    @pytest.mark.parametrize("n_rows", ROWS)
    def test_search_and_enumeration_match_the_oracles(self, n_rows):
        d, ants = random_instance(np.random.default_rng(n_rows), max_feature_cols=6, n_rows=n_rows)
        problem = SearchProblem(ants, d)
        for metric in MetricKind:
            for beta in (0.0, 0.5):
                cfg = SearchConfig(lam=0.005, beta=beta, metric=metric, max_length=3)
                res = corels_optimize(problem, cfg)
                obj, _, _, rl = exhaustive_best(ants, d, cfg)
                assert res.objective == pytest.approx(obj, abs=1e-12)
                assert canonical_form(res.best) == canonical_form(rl)
                assert res.certified_optimal
                got = [(m.objective, canonical_form(m.best)) for m in enumerate_models(problem, cfg, max_models=10)]
                assert same_kbest(got, subset_optima_kbest(ants, d, cfg, 10**9))


def instance_ids(cases, pinned):
    """Test ids that name each case's instance, not its last `pinned`
    values, so re-recording a count keeps the id."""
    return ["-".join(map(str, case[:-pinned])) for case in cases]


class TestPinnedCounts:
    # nodes_evaluated and certified_optimal of the search on seeded
    # random_instance()s: one row per (seed, metric, beta, node budget)
    CASES = [
        (1, "dp", 0.0, None, 37, True),
        (2, "sp", 0.5, None, 27, True),
        (3, "oae", 0.9, None, 24, True),
        (4, "cpa", 0.5, None, 211, True),
        (5, "dp", 0.0, None, 103, True),
        (5, "dp", 0.5, None, 142, True),
        (6, "oae", 0.0, None, 40, True),
        (7, "dp", 0.0, None, 86, True),
        (7, "cpa", 0.9, None, 36, True),
        (8, "sp", 0.5, None, 39, True),
        (8, "dp", 0.0, None, 25, True),
        (9, "oae", 0.5, None, 222, True),
        (10, "dp", 0.5, 40, 40, False),
        (11, "cpa", 0.0, 7, 7, False),
    ]

    @pytest.mark.parametrize("seed,metric,beta,budget,nodes,certified", CASES, ids=instance_ids(CASES, 2))
    def test_counts(self, seed, metric, beta, budget, nodes, certified):
        d, ants = random_instance(np.random.default_rng(seed))
        fields = dict(lam=0.005, beta=beta, metric=MetricKind(metric), max_length=3)
        if budget:
            fields["node_budget"] = budget
        res = corels_optimize(SearchProblem(ants, d), SearchConfig(**fields))
        assert (res.nodes_evaluated, res.certified_optimal) == (nodes, certified)

    # the same on random_instance()s with a given row count (across 64-row
    # word boundaries)
    WORD_CASES = [
        (21, 65, "dp", 0.5, None, 36, True),
        (21, 65, "oae", 0.0, None, 22, True),
        (22, 129, "cpa", 0.5, None, 199, True),
        (22, 129, "sp", 0.9, None, 78, True),
        (26, 200, "sp", 0.5, None, 261, True),
        (26, 200, "oae", 0.5, None, 251, True),
        (26, 200, "dp", 0.5, 40, 40, False),
    ]

    @pytest.mark.parametrize(
        "seed,n_rows,metric,beta,budget,nodes,certified", WORD_CASES, ids=instance_ids(WORD_CASES, 2)
    )
    def test_counts_across_words(self, seed, n_rows, metric, beta, budget, nodes, certified):
        d, ants = random_instance(np.random.default_rng(seed), n_rows=n_rows)
        fields = dict(lam=0.005, beta=beta, metric=MetricKind(metric), max_length=3)
        if budget:
            fields["node_budget"] = budget
        res = corels_optimize(SearchProblem(ants, d), SearchConfig(**fields))
        assert (res.nodes_evaluated, res.certified_optimal) == (nodes, certified)

    # (seed, metric, beta, nodes) where the fairness bound prunes
    FAIR_CASES = [
        (5, "dp", 0.5, 142),
        (6, "sp", 0.9, 36),
        (9, "dp", 0.9, 147),
        (14, "sp", 0.5, 69),
    ]

    @pytest.mark.parametrize("seed,metric,beta,nodes", FAIR_CASES, ids=instance_ids(FAIR_CASES, 1))
    def test_fairness_bound_counts(self, seed, metric, beta, nodes):
        d, ants = random_instance(np.random.default_rng(seed))
        cfg = SearchConfig(lam=0.005, beta=beta, metric=MetricKind(metric), max_length=3)
        res = corels_optimize(SearchProblem(ants, d), cfg)
        assert (res.nodes_evaluated, res.certified_optimal) == (nodes, True)
        obj, _, _, rl = exhaustive_best(ants, d, cfg)
        assert res.objective == pytest.approx(obj, abs=1e-12)
        assert res.best == rl
