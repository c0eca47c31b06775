import dataclasses
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fairlists import enumeration, search
from fairlists.dataset import Antecedent, mine_antecedents
from fairlists.enumeration import enumerate_cells, enumerate_models
from fairlists.errors import BudgetZero, EmptyGroup, FairlistsError, InvalidValue, UndefinedRate, UnknownAntecedent
from fairlists.metrics import MetricKind
from fairlists.rationalize import knn_neighborhood
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
    TRIAL_METRICS,
    all_sequences,
    evaluate_sequence,
    exhaustive_best,
    exhaustive_search,
    naive_capture,
    naive_complements,
    naive_enumerate_models,
    naive_equivalence_weights,
    naive_layout,
    naive_row_set,
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


def columns_of(ants, ids):
    """The sorted tuple of the columns that the antecedents `ids` read."""
    feature = {a.id: a.feature for a in ants}
    return tuple(sorted({feature[i] for i in ids}))


def oracle_mask(ants, d, ids):
    """The equivalent-points mask of the antecedents `ids`, row by row on
    their captures, laid out bit by bit."""
    captures = [naive_capture(a, d.features) for a in ants if a.id in ids]
    return naive_row_set(naive_equivalence_weights(captures, d.labels != 0), naive_layout(d)[0])


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
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidValue, match="^lam must be a finite number >= 0"):
                SearchConfig(lam=lam)
        with pytest.raises(ValueError):
            SearchConfig(beta=1.5)
        with pytest.raises(ValueError):
            SearchConfig(max_length=-1)

    def test_a_zero_node_budget_is_rejected_by_the_config(self):
        for budget in (0, -5):
            with pytest.raises(BudgetZero, match="^node_budget must be >= 1") as exc:
                SearchConfig(node_budget=budget)
            assert exc.value.param == "node_budget"

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
        # dp twice per beta, where its former alias sp stood second, so
        # every trial keeps its config
        settings = [(0.0, "dp")] + [(beta, "dp") for beta in (0.1, 0.5, 0.9) for _ in range(2)]
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

    def test_the_incumbent_only_skips_a_bound_that_prunes_anyway(self):
        # past an incumbent that the error and length terms reach, the
        # fairness bound is not worked out; it prunes exactly where the full
        # bound does
        rng = np.random.default_rng(9)
        skipped = 0
        for _ in range(2000):
            sizes = rng.integers(1, 14, size=2)
            groups = []
            for size in map(int, sizes):
                captured = int(rng.integers(0, size + 1))
                positive = int(rng.integers(0, captured + 1))
                groups.append((size, positive, size - captured, int(rng.integers(0, size - captured + 1))))
            n = int(sizes.sum())
            err = int(rng.integers(0, n - groups[0][2] - groups[1][2] + 1))
            cfg = SearchConfig(lam=float(rng.choice([0.0, 0.01])), beta=float(rng.choice([0.0, 0.1, 0.5, 0.9])))
            full = lower_bound(err, 0.0, 1, n, cfg, tuple(groups))
            incumbent = float(rng.uniform(0.0, 1.0))
            got = lower_bound(err, 0.0, 1, n, cfg, tuple(groups), incumbent)
            assert (got < incumbent) == (full < incumbent)
            assert got == full or got >= incumbent
            skipped += got != full
        assert skipped

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
            cfg = SearchConfig(lam=0.01, beta=beta, max_length=3)
            res = corels_optimize(SearchProblem(ants, d), cfg)
            obj, _, _, rl = exhaustive_best(ants, d, cfg)
            assert res.objective == pytest.approx(obj, abs=1e-12)
            assert canonical_form(res.best) == canonical_form(rl)

    @pytest.mark.parametrize(
        "bound", ["child_bound", "dominance", "equivalent_points", "fairness_bound", "lookahead", "permutation_bound"]
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
            cfg = SearchConfig(lam=0.01, beta=beta, max_length=3)
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
            # every child that could still be extended is bounded by its own
            # objective at the fewest errors it can make
            if bound == "child_bound":
                for k in range(1, min(len(seq), cfg.max_length - 1) + 1):
                    err, eq_rem, _, _ = state(seq[:k])
                    assert lower_bound(err, eq_rem, k - 1, n, cfg) <= obj + 1e-12
            # the dominated-children drop skips a rule that captures none or
            # all of the rows its prefix leaves, and a last rule whose
            # consequent is its list's default
            if bound == "dominance":
                claimed = np.zeros(n, dtype=bool)
                for a in seq:
                    assert 0 < np.count_nonzero(caps[a] & ~claimed) < np.count_nonzero(~claimed)
                    claimed |= caps[a]
                if seq:
                    assert rl.rules[-1][1] != rl.default
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

    def test_the_child_bound_is_below_every_extension_with_no_slack(self):
        # correctly rounded operations are monotone, so the bound of every
        # prefix shorter than max_length is at most the float objective of
        # its own list and of each of its extensions, exactly: a child whose
        # bound ties the incumbent is skipped, so no slack may be needed
        rng = np.random.default_rng(20261020)
        for trial in range(24):
            d, ants = random_instance(rng, max_rows=40, max_feature_cols=6)
            lam = float(rng.choice([0.0, 0.001, 0.003, 0.005, 0.007, 0.01, 1 / 30]))
            beta = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)[trial % 6]
            cfg = SearchConfig(lam=lam, beta=beta, metric=TRIAL_METRICS[trial % 4], max_length=4)
            caps = {a.id: naive_capture(a, d.features) for a in ants}
            labels = d.labels != 0
            ids = [a.id for a in ants]
            bounds = {}
            for seq in all_sequences(ids, cfg.max_length - 1):
                err, eq_rem, _, _ = prefix_state(seq, caps, labels, d.sensitive, cfg)
                # the search's child bound is the lookahead bound of one rule fewer
                bounds[seq] = lower_bound(err, eq_rem, len(seq) - 1, d.n_rows, cfg)
            for seq in all_sequences(ids, cfg.max_length):
                _, misc, unf, _ = evaluate_sequence(seq, caps, labels, d.sensitive, cfg)
                obj = objective(misc, unf, len(seq), cfg)
                for k in range(1, min(len(seq), cfg.max_length - 1) + 1):
                    assert bounds[seq[:k]] <= obj, (trial, seq, k)

    def test_the_lookahead_bound_is_below_every_extension_with_no_slack(self):
        # the bound is the objective of one rule more at the fewest errors,
        # in objective()'s operation order, so never above the float
        # objective of a list with those errors and one rule more
        cfg = SearchConfig(lam=0.02, beta=0.1)
        assert lower_bound(967, 97.0, 3, 1120, cfg) <= objective(1064 / 1120, 0.0, 4, cfg)
        rng = np.random.default_rng(20261021)
        for _ in range(2000):
            n = int(rng.integers(1, 3000))
            err = int(rng.integers(0, n + 1))
            eq_rem = float(rng.integers(0, n - err + 1))
            K = int(rng.integers(0, 6))
            cfg = SearchConfig(lam=float(rng.choice([0.0, 0.001, 0.005, 0.01, 0.02, 1 / 30])),
                               beta=float(rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9])))
            bound = lower_bound(err, eq_rem, K, n, cfg)
            for extra in range(3):
                assert bound <= objective((err + eq_rem + extra) / n, 0.0, K + 1 + extra, cfg), (err, eq_rem, K, n, cfg)

    def test_a_child_skipped_by_its_bound_uses_no_budget(self):
        # a (id 0) captures exactly the label-1 rows, so (a) scores lam at
        # every beta (both groups' positive rate is 1/2, no gap under any
        # metric); (b) and (c), which mix labels, come after it and their
        # bound is at least lam, so they are skipped: the root and (a) are
        # the only nodes, and a budget of two keeps the certificate
        rows = [
            ((1, 1, 0, 0), 1), ((1, 0, 1, 1), 1), ((1, 1, 1, 0), 1), ((0, 1, 0, 1), 0),
            ((0, 0, 1, 0), 0), ((0, 1, 1, 1), 0), ((0, 0, 0, 0), 0), ((1, 0, 0, 1), 1),
        ]
        d = make_dataset([f for f, _ in rows], [y for _, y in rows])
        ants = tuple(Antecedent(id=j, feature=j, negated=False, support=0.5) for j in (0, 1, 2))
        for metric in MetricKind:
            cfgs = [SearchConfig(lam=lam, beta=beta, metric=metric, max_length=3) for lam in (0.005, 0.01) for beta in (0.0, 0.5)]
            for cfg in cfgs:
                free = corels_optimize(SearchProblem(ants, d), cfg)
                assert (free.best, free.nodes_evaluated, free.certified_optimal) == (RuleList(((0, 1),), 0), 2, True)
                assert free.best == exhaustive_best(ants, d, cfg)[3]
                assert corels_optimize(SearchProblem(ants, d), replace(cfg, node_budget=2)) == free
            # each cell of a shared search too
            cut = [replace(cfg, node_budget=2) for cfg in cfgs]
            got = search.search_cells(SearchProblem(ants, d), cut)
            assert got == [corels_optimize(SearchProblem(ants, d), cfg) for cfg in cfgs]
        # nor does a child that one cell's bound skips and another cell keeps
        # use the first cell's budget: here the beta = 0 cell takes 3 nodes,
        # and a budget of 3 cuts the other cell alone
        d, ants = random_instance(np.random.default_rng(34), max_rows=48, max_feature_cols=6)
        cfgs = [SearchConfig(lam=0.005, beta=beta, max_length=3) for beta in (0.0, 0.5)]
        zero, _ = search.search_cells(SearchProblem(ants, d), cfgs)
        assert (zero.nodes_evaluated, zero.certified_optimal) == (3, True)
        got = search.search_cells(SearchProblem(ants, d), [replace(cfg, node_budget=3) for cfg in cfgs])
        assert got[0] == zero
        assert not got[1].certified_optimal

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
        # the root, (a), (b) and (a, b) are evaluated and (b, a) is pruned;
        # at max_length 3 (a, b) is no last-level list, so the dominated
        # children drop, which would take both, leaves them to the key
        for metric in MetricKind:
            for beta in (0.1, 0.5, 0.9):
                cfg = SearchConfig(lam=0.0, beta=beta, metric=metric, max_length=3)
                assert corels_optimize(SearchProblem(ants, d), cfg).nodes_evaluated == 4
                for lam in (0.0, 0.005):
                    cfg = SearchConfig(lam=lam, beta=beta, metric=metric, max_length=3)
                    res = corels_optimize(SearchProblem(ants, d), cfg)
                    obj, _, _, rl = exhaustive_best(ants, d, cfg)
                    assert res.objective == pytest.approx(obj, abs=1e-12)
                    assert res.best == rl
                    assert res.certified_optimal


class TestDominatedChildren:
    def test_a_literal_and_its_negation_make_no_two_rule_node(self):
        # over f (id 0) and not f (id 1), each second rule captures every
        # row the first leaves, so only the root, (f) and (not f) are nodes,
        # and a budget of those three nodes keeps the certificate
        rows = [((1, 0), 1)] * 4 + [((1, 1), 1)] * 2 + [((1, 1), 0)] * 2 + [((0, 0), 0)] * 4
        rows += [((0, 1), 0)] * 2 + [((0, 1), 1)]
        d = make_dataset([f for f, _ in rows], [y for _, y in rows])
        ants = tuple(Antecedent(id=j, feature=0, negated=bool(j), support=0.5) for j in (0, 1))
        caps = {a.id: naive_capture(a, d.features) for a in ants}
        kept = 0
        for metric in MetricKind:
            for beta in (0.5, 0.9):
                for lam in (0.0, 0.005):
                    cfg = SearchConfig(lam=lam, beta=beta, metric=metric, max_length=2)
                    res = corels_optimize(SearchProblem(ants, d), cfg)
                    assert res.nodes_evaluated == 3
                    obj, _, _, rl = exhaustive_best(ants, d, cfg)
                    assert res.objective == pytest.approx(obj, abs=1e-12)
                    assert res.best == rl
                    assert corels_optimize(SearchProblem(ants, d), replace(cfg, node_budget=3)).certified_optimal
                    # a parent that passes its bound reaches its child, which
                    # is dropped, not evaluated; here both parents pass in every config
                    for parent in ((0,), (1,)):
                        err, eq_rem, groups, _ = prefix_state(parent, caps, d.labels != 0, d.sensitive, cfg)
                        kept += lower_bound(err, eq_rem, 1, d.n_rows, cfg, groups) < res.objective
        assert kept == 24

    def test_a_last_rule_that_predicts_the_default_is_dropped_only_at_the_last_level(self):
        # columns a, b, c, s: a captures label-1 rows, b label-0 rows that c
        # also captures and one label-1 row that a also captures, and c
        # label-1 rows; after (a, b) the default is b's consequent 0, so
        # (a, b) predicts what (a) predicts
        rows = [((1, 0, 0, 0), 1)] * 4 + [((1, 1, 0, 1), 1)] + [((0, 1, 1, 1), 0)] * 2 + [((0, 0, 1, 0), 1)] * 4
        rows += [((0, 0, 1, 1), 0)] + [((0, 0, 0, s), 0) for s in (0, 1, 0, 1)]
        d = make_dataset([f for f, _ in rows], [y for _, y in rows])
        ants = tuple(Antecedent(id=j, feature=j, negated=False, support=0.5) for j in (0, 1, 2))
        a_b = RuleList(((0, 1), (1, 0)), 0)
        assert np.array_equal(predict(a_b, ants, d), predict(RuleList(((0, 1),), 0), ants, d))
        cfg = SearchConfig(lam=0.0, beta=0.5, metric=MetricKind.OVERALL_ACCURACY_EQUALITY, max_length=2)
        problem = SearchProblem(ants, d)
        res = corels_optimize(problem, cfg)
        assert res.best == exhaustive_best(ants, d, cfg)[3]
        # the last level's lists, by parent set: (a, b) is dropped, and so
        # are the children that capture none or all of a parent's rows
        a, b, c = (1 << p for p in range(3))
        assert {used: [leaf[0] for leaf in leaves] for used, leaves in problem._leaves.lists.items()} == {
            a: [2],
            b: [0, 2],
            c: [0, 1],
        }
        # the root, (a), (b), (c) and every listed leaf: (c, a) has the
        # captured counts of (a, c), but no permutation table is kept at
        # the last level, so it is scored too
        assert res.nodes_evaluated == 9
        # at beta 0 likewise: (b, a) captures the rows of the dropped (a, b)
        # with one more error, and is scored
        for lam in (0.0, 0.005):
            zero = SearchConfig(lam=lam, max_length=2)
            res = corels_optimize(SearchProblem(ants, d), zero)
            assert (res.best, res.nodes_evaluated) == (exhaustive_best(ants, d, zero)[3], 7)
        # one level up (a, b) is extended, and (a, b, c) is the optimum
        cfg = replace(cfg, max_length=3)
        res = corels_optimize(SearchProblem(ants, d), cfg)
        assert res.best == RuleList(((0, 1), (1, 0), (2, 1)), 0) == exhaustive_best(ants, d, cfg)[3]


def pair_instance(rng, kind):
    """A small random instance for the complementary-pair tests.  "plain" is
    random_instance's, with no negation; "negations" mines each column with
    its negation; "one-hot" gives each column its complement as a column of
    its own (a two-category variable, one-hot encoded) and mines no
    negation; "shared captures" keeps the rows that "negations" mines on
    which columns 0 and 1 agree, so that two antecedents capture the same
    rows there, and two more their complement."""
    d, ants = random_instance(rng, max_rows=40, max_feature_cols=4)
    if kind == "plain":
        return d, ants
    if kind == "shared captures":
        # the first four rows, which carry every (sensitive, label) code, are kept
        features = d.features.copy()
        features[:4, 1] = features[:4, 0]
        d = replace(d, features=features)
        return d.subset(np.flatnonzero(features[:, 0] == features[:, 1])), mine_antecedents(d, min_support=0.0)
    if kind == "one-hot":
        m = d.sensitive_col
        d = make_dataset(np.column_stack([d.features[:, :m], 1 - d.features[:, :m], d.features[:, m]]), d.labels)
        return d, mine_antecedents(d, min_support=0.0, include_negations=False)
    return d, mine_antecedents(d, min_support=0.0)


def pair_allowed(rng, problem):
    """An allowed set that keeps, of each complementary pair, both ids, the
    lower, the higher or neither, and each other antecedent or not."""
    pairs = problem.complement
    allowed = set()
    for i in problem.captures:
        k = pairs.get(i)
        if k is None:
            if rng.random() < 0.7:
                allowed.add(i)
        elif i < k:
            allowed |= [{i, k}, {i}, {k}, set()][int(rng.integers(4))]
    return sorted(allowed)


class TestComplementaryPairs:
    """At the last level a search scores one leaf of each complementary
    pair; every result is that of the exhaustive search."""

    KINDS = ("negations", "one-hot", "plain", "shared captures")

    def test_the_complement_map_is_the_naive_pairs(self):
        rng = np.random.default_rng(20261022)
        pairs = shared = 0
        for trial in range(24):
            d, ants = pair_instance(rng, self.KINDS[trial % 4])
            problem = SearchProblem(ants, d)
            assert problem.complement == naive_complements(ants, d.features), trial
            pairs += len(problem.complement) // 2
            shared += len(set(problem.captures.values())) < len(ants)
        assert pairs >= 60 and shared >= 3

    def test_searches_and_enumerations_match_the_oracles(self):
        rng = np.random.default_rng(20261023)
        higher_only = grids = 0
        for trial in range(40):
            d, ants = pair_instance(rng, self.KINDS[trial % 4])
            problem = SearchProblem(ants, d)
            metric = (MetricKind.DEMOGRAPHIC_PARITY, MetricKind.OVERALL_ACCURACY_EQUALITY, MetricKind.CONDITIONAL_PROCEDURE_ACCURACY)[trial % 3]
            max_length = 1 + trial % 3
            cfgs = [SearchConfig(lam=lam, beta=beta, metric=metric, max_length=max_length) for lam in (0.0, 0.01) for beta in (0.0, 0.5)]
            allowed = None if trial % 5 == 0 else pair_allowed(rng, problem)
            for cfg, res in zip(cfgs, search.search_cells(problem, cfgs, allowed)):
                obj, misc, unf, rl = exhaustive_best(ants, d, cfg, allowed)
                want = (rl, obj, misc, unf, True)
                assert result_fields(res) == want, (trial, cfg)
                assert result_fields(corels_optimize(problem, cfg, allowed)) == want, (trial, cfg)
                higher_only += any(problem.complement.get(j, j) < j for j in res.best.antecedent_ids)
            # a lone enumeration, or a grid's in lockstep
            cfgs = cfgs[1:2] if trial % 2 else cfgs[::3]
            grids += len(cfgs) > 1
            for cfg, models in zip(cfgs, enumerate_cells(problem, cfgs, 4)):
                want = naive_enumerate_models(problem, cfg, 4, exhaustive_search)
                assert [result_fields(m) for m in models] == [result_fields(m) for m in want], (trial, cfg)
        assert higher_only >= 10 and grids >= 10

    def test_a_search_that_stops_above_its_last_level_makes_no_lists(self):
        d, ants = pair_instance(np.random.default_rng(5), "negations")
        problem = SearchProblem(ants, d)
        cfg = SearchConfig(lam=0.005, max_length=3)
        optimum = corels_optimize(SearchProblem(ants, d), cfg)
        assert optimum.K == 2
        # the root meets its floor, and (c) meets the floor of a one-rule
        # optimum one level above the last
        for floor in (1.0, corels_optimize(problem, replace(cfg, max_length=1)).objective):
            problem = SearchProblem(ants, d)
            assert corels_optimize(problem, cfg, floor=floor).certified_optimal
            assert "complement" not in vars(problem) and "_leaves" not in vars(problem)
        corels_optimize(problem, cfg)
        assert problem._leaves.lists and problem.complement


class TestFloor:
    """A floor is a proven lower bound on the optimum: a search whose
    incumbent reaches it stops there, certified."""

    def test_the_exact_optimum_as_floor(self):
        rng = np.random.default_rng(20261020)
        stopped = 0
        for trial in range(36):
            d, ants = random_instance(rng, max_rows=40, max_feature_cols=6)
            beta = (0.0, 0.1, 0.5)[trial // 4 % 3]
            cfg = SearchConfig(lam=0.005, beta=beta, metric=TRIAL_METRICS[trial % 4], max_length=3)
            problem = SearchProblem(ants, d)
            free = corels_optimize(problem, cfg)
            obj, _, _, rl = exhaustive_best(ants, d, cfg)
            res = corels_optimize(problem, cfg, floor=obj)
            assert (res.best, res.certified_optimal) == (rl, True), trial
            assert res.objective == pytest.approx(obj, abs=1e-12)
            assert res.nodes_evaluated <= free.nodes_evaluated
            # a floor below the optimum is never reached: the same search
            for floor in (-math.inf, obj - 1e-6, obj - 0.1):
                assert corels_optimize(problem, cfg, floor=floor) == free
            if res.nodes_evaluated < free.nodes_evaluated:
                stopped += 1
                # a budget that cuts the free search lets the floored one finish
                cut = replace(cfg, node_budget=res.nodes_evaluated)
                assert corels_optimize(problem, cut, floor=obj) == res
                assert not corels_optimize(problem, cut).certified_optimal
        assert stopped >= 10

    def test_a_root_that_meets_its_floor_is_the_whole_search(self):
        # labels a xor b: no list beats the default-only root at lam 0.2,
        # yet its children (a) and (b) pass its bound
        rows = [((a, b, s), a ^ b) for a in (0, 1) for b in (0, 1) for s in (0, 1)]
        d = make_dataset([f for f, _ in rows], [y for _, y in rows])
        ants = tuple(Antecedent(id=j, feature=j, negated=False, support=0.5) for j in (0, 1))
        problem = SearchProblem(ants, d)
        cfg = SearchConfig(lam=0.2, max_length=2)
        free = corels_optimize(problem, cfg)
        assert (free.best, free.objective, free.nodes_evaluated) == (RuleList((), 0), 0.5, 3)
        assert free.best == exhaustive_best(ants, d, cfg)[3]
        for budget in (1, DEFAULT_NODE_BUDGET):
            res = corels_optimize(problem, replace(cfg, node_budget=budget), floor=free.objective)
            assert (res.best, res.objective, res.nodes_evaluated, res.certified_optimal) == (free.best, 0.5, 1, True)
        assert not corels_optimize(problem, replace(cfg, node_budget=1)).certified_optimal

    def test_each_cell_stops_at_its_own_floor(self):
        # a shared search gives each cell what the cell's own search with
        # its floor gives; a floor at a cell's optimum saves nodes
        rng = np.random.default_rng(20261021)
        stopped = 0
        for trial in range(40):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=6)
            cfgs = random_grid(rng, TRIAL_METRICS[trial % 4], 3)
            problem = SearchProblem(ants, d)
            optima = [res.objective for res in search.search_cells(problem, cfgs)]
            floors = [(-math.inf, opt, opt - 0.01)[int(rng.integers(3))] for opt in optima]
            got = search.search_cells(problem, cfgs, None, floors)
            for cfg, floor, res in zip(cfgs, floors, got):
                assert result_fields(res) == result_fields(corels_optimize(problem, cfg, floor=floor)), trial
                assert res.certified_optimal
            free = search.search_cells(problem, cfgs)
            assert sum(res.nodes_evaluated for res in got) <= sum(res.nodes_evaluated for res in free)
            stopped += sum(res.nodes_evaluated for res in got) < sum(res.nodes_evaluated for res in free)
        assert stopped >= 10


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
            subsets = [tuple(ids), ()] + [
                tuple(sorted(rng.choice(ids, int(rng.integers(1, len(ids) + 1)), replace=False).tolist()))
                for _ in range(3)
            ]
            for allowed in subsets:
                assert problem.equivalence_mask(allowed) == oracle_mask(ants, d, allowed)
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
                for metric in TRIAL_METRICS:
                    for budget in (DEFAULT_NODE_BUDGET, 12):
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

    def test_equivalence_mask_matches_oracle(self):
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
                assert problem.equivalence_mask(allowed) == mask
                assert mask == oracle_mask(ants, d, allowed)


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

        def solve(_, cfg, allowed=None, floor=-math.inf):
            return corels_optimize(problem if shared else SearchProblem(ants, d), cfg, allowed, floor)

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
            if trial % 2:
                # complementary pairs, which the last level's lists hold
                ants = mine_antecedents(d, min_support=0.0)
            if trial % 4 == 3:
                # antecedents out of id order: every search gathers its counts
                order = rng.permutation(len(ants))
                ants = tuple(ants[p] for p in order)
            metric = TRIAL_METRICS[trial % 4]
            budget = 30 if trial % 3 == 2 else DEFAULT_NODE_BUDGET
            yield d, ants, metric, budget

    def test_a_shared_problem_equals_a_fresh_problem_per_search(self, monkeypatch):
        cut = 0
        for d, ants, metric, budget in self.instances():
            want, _ = self.runs(monkeypatch, ants, d, False, metric, budget)
            got, problem = self.runs(monkeypatch, ants, d, True, metric, budget)
            assert got == want
            assert problem._leaves.lists and any(memo.rows for memo in problem._memos.values())
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
            leaves = problem._leaves
            held += [leaves.ENTRY_BYTES * (len(listed) + 1) for listed in leaves.lists.values()]
            assert problem._memo_bytes == [sum(held)]
            assert problem._memo_bytes[0] <= cap
            if cap == 0:
                assert not any(memo.rows for memo in problem._memos.values()) and not leaves.lists

    def test_pinned_memo_entries_on_a_grid(self, monkeypatch):
        d = biased_dataset(2000, seed=5)
        problem = SearchProblem(mine_antecedents(d), d)
        parents = []
        counts = search._Memo.counts
        children = search._Leaves.children

        def counted(memo, used, unc, at):
            parents.append(used)
            return counts(memo, used, unc, at)

        def listed(leaves, used, unc, *per_code):
            parents.append(used)
            return children(leaves, used, unc, *per_code)

        monkeypatch.setattr(search._Memo, "counts", counted)
        monkeypatch.setattr(search._Leaves, "children", listed)
        for lam in (0.005, 0.01):
            for beta in (0.0, 0.1, 0.2, 0.5, 0.7, 0.9):
                enumerate_models(problem, SearchConfig(lam=lam, beta=beta, max_length=3), max_models=10)
        # the parents expanded by all the searches, the antecedent sets
        # among them, the (set, equivalent-points mask) entries of each memo
        # for the parents whose children are extended, and the last level's
        # lists, one per set of its parents
        entries = sorted(len(memo.rows) for memo in problem._memos.values())
        lists = len(problem._leaves.lists)
        assert (len(parents), len(set(parents)), entries, lists) == (966, 102, [11, 11, 13, 15], 87)


def result_fields(res):
    """Every field of a SearchResult but nodes_evaluated (a nan unfairness
    as "nan", so that equal results compare equal)."""
    unf = "nan" if np.isnan(res.unfairness) else res.unfairness
    return (res.best, res.objective, res.misc, unf, res.certified_optimal)


def check_order_free(problem, cfgs, got, rng, allowed=None):
    """Check that the search of the configs `cfgs` in a random order gives
    each config the result `got` gave it, on every field, nodes_evaluated
    and the certificate included: the search puts the beta == 0 cells first
    whatever order they come in."""
    order = rng.permutation(len(cfgs))
    shuffled = search.search_cells(problem, [cfgs[i] for i in order], allowed)
    want = [got[i] for i in order]
    assert [(*result_fields(r), r.nodes_evaluated) for r in shuffled] == [(*result_fields(r), r.nodes_evaluated) for r in want]


def random_grid(rng, metric, max_length, node_budget=DEFAULT_NODE_BUDGET):
    """A (lambda, beta) grid of one to three lambdas by one to four betas;
    it mixes beta = 0 with beta > 0 three times in four."""
    lams = sorted({float(lam) for lam in rng.choice([0.0, 0.002, 0.005, 0.01, 0.02], size=int(rng.integers(1, 4)))})
    betas = sorted({float(b) for b in rng.choice([0.1, 0.2, 0.5, 0.9], size=int(rng.integers(1, 4)))})
    if rng.random() < 0.75:
        betas = [0.0] + betas
    return [
        SearchConfig(lam=lam, beta=beta, metric=metric, max_length=max_length, node_budget=node_budget)
        for lam in lams
        for beta in betas
    ]


class TestSearchCells:
    """One search over an allowed set for several configs: each config's
    result is its own search's on every field but nodes_evaluated."""

    def test_each_cell_equals_its_own_search(self):
        rng = np.random.default_rng(20241019)
        # the shuffles draw apart, so the instances are those of rng alone
        order_rng = np.random.default_rng(1019)
        mixed = 0
        for trial in range(160):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=7)
            cfgs = random_grid(rng, TRIAL_METRICS[trial % 4], int(rng.integers(1, 4)))
            ids = [a.id for a in ants]
            allowed = None if trial % 3 == 0 else rng.choice(ids, size=int(rng.integers(0, len(ids) + 1)), replace=False)
            problem = SearchProblem(ants, d)
            got = search.search_cells(problem, cfgs, allowed)
            assert len(got) == len(cfgs)
            for cfg, res in zip(cfgs, got):
                assert result_fields(res) == result_fields(corels_optimize(problem, cfg, allowed)), (trial, cfg)
            check_order_free(problem, cfgs, got, order_rng, allowed)
            mixed += len({cfg.beta == 0.0 for cfg in cfgs}) == 2
            if trial % 8 == 0:
                for cfg, res in zip(cfgs, got):
                    obj, _, _, rl = exhaustive_best(ants, d, cfg, allowed)
                    assert res.objective == pytest.approx(obj, abs=1e-12)
                    assert res.best == rl
        assert mixed >= 80

    def test_a_cut_cell_is_never_certified(self):
        # each cell counts the nodes live for it; one that reaches the
        # budget stops, uncertified, and the others go on
        rng = np.random.default_rng(41)
        order_rng = np.random.default_rng(42)
        cut = certified = 0
        for trial in range(120):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=7)
            budget = int(rng.integers(1, 80))
            cfgs = random_grid(rng, TRIAL_METRICS[trial % 4], 3, budget)
            problem = SearchProblem(ants, d)
            got = search.search_cells(problem, cfgs)
            check_order_free(problem, cfgs, got, order_rng)
            for cfg, res in zip(cfgs, got):
                assert res.nodes_evaluated <= budget
                exact = corels_optimize(problem, replace(cfg, node_budget=DEFAULT_NODE_BUDGET))
                if res.certified_optimal:
                    certified += 1
                    assert result_fields(res) == result_fields(exact)
                else:
                    cut += 1
                    assert res.nodes_evaluated == budget
                    assert res.objective >= exact.objective
        assert cut >= 50 and certified >= 50

    @pytest.mark.parametrize("seed,alone,cells", [(9, 75, [114, 116, 75, 40]), (31, 17, [42, 122, 17, 21])], ids=["9", "31"])
    def test_counts_of_a_mixed_lambda_beta_grid(self, seed, alone, cells):
        # one beta = 0 cell searched alone, then a 2 x 2 grid in one search
        d, ants = random_instance(np.random.default_rng(seed))
        cfg = SearchConfig(lam=0.05, max_length=3)
        assert corels_optimize(SearchProblem(ants, d), cfg).nodes_evaluated == alone
        grid = [replace(cfg, lam=lam, beta=beta) for lam in (0.005, 0.05) for beta in (0.0, 0.5)]
        assert [res.nodes_evaluated for res in search.search_cells(SearchProblem(ants, d), grid)] == cells
        # and in reverse, with the beta > 0 cells first
        assert [res.nodes_evaluated for res in search.search_cells(SearchProblem(ants, d), grid[::-1])] == cells[::-1]

    def test_one_cell_counts_the_nodes_of_its_own_search(self):
        d, ants = random_instance(np.random.default_rng(5))
        cfg = SearchConfig(lam=0.005, beta=0.5, max_length=3)
        (res,) = search.search_cells(SearchProblem(ants, d), [cfg])
        # TestPinnedCounts' (5, "dp", 0.5) search
        assert (res.nodes_evaluated, res.certified_optimal) == (110, True)

    def test_an_empty_allowed_set_matches_the_oracle(self):
        # over no antecedent each cell's list is the default-only root, as
        # the exhaustive search over no antecedent finds
        rng = np.random.default_rng(20261022)
        for trial in range(8):
            d, ants = random_instance(rng, max_rows=48, max_feature_cols=6)
            metric = TRIAL_METRICS[trial % 4]
            cfgs = [SearchConfig(lam=lam, beta=beta, metric=metric, max_length=3) for lam in (0.0, 0.01) for beta in (0.0, 0.5)]
            for cfg, res in zip(cfgs, search.search_cells(SearchProblem(ants, d), cfgs, [])):
                obj, misc, unf, rl = exhaustive_best(ants, d, cfg, allowed=[])
                assert (res.best, res.nodes_evaluated, res.certified_optimal) == (rl, 1, True)
                assert (res.objective, res.misc, res.unfairness) == pytest.approx((obj, misc, unf), abs=1e-12)

    @pytest.mark.parametrize(
        "other",
        [
            {"metric": MetricKind.OVERALL_ACCURACY_EQUALITY},
            {"max_length": 2},
            {"node_budget": 100},
        ],
    )
    def test_the_configs_share_metric_length_and_budget(self, other):
        d, ants = random_instance(np.random.default_rng(3))
        cfg = SearchConfig(lam=0.005, beta=0.5, max_length=3)
        with pytest.raises(FairlistsError, match="share metric, max_length and node_budget"):
            search.search_cells(SearchProblem(ants, d), [cfg, replace(cfg, lam=0.01, **other)])


def check_layout_counts(problem, d, ants, rng):
    """Check the capture words and the count memos of `problem` over `d`
    bit by bit, through the row-to-bit map of the layout: each
    antecedent's word row holds its capture int, and the memos count the
    new rows per code, whole and gathered, alone and within a random
    equivalent-points mask, counted and stored, then read back."""
    bit_of, n_words = naive_layout(d)
    caps = [naive_row_set(naive_capture(a, d.features), bit_of) for a in ants]
    columns = problem._columns
    assert columns.shape == (len(ants), n_words)
    assert [int.from_bytes(col.astype("<u8").tobytes(), "little") for col in columns] == caps
    code_of = 2 * (d.sensitive != 0) + (d.labels != 0)
    codes = [naive_row_set(code_of == code, bit_of) for code in range(4)]
    # each code's rows lie in runs of whole words of its own
    for code, rows in enumerate(codes):
        first = 64 * sum(max(1, -(-t // 64)) for t in problem.totals[:code])
        assert rows == ((1 << problem.totals[code]) - 1) << first
    rows = range(d.n_rows)
    mask = naive_row_set([rng.random() < 0.5 for _ in rows], bit_of)
    at = rng.permutation(len(caps))
    for used in range(3):
        unc = naive_row_set([rng.random() < 0.5 for _ in rows], bit_of)
        cells = [[(cap & code & unc).bit_count() for cap in caps] for code in codes]
        eqs = [(cap & mask & unc).bit_count() for cap in caps]
        for _ in range(2):
            assert problem._memo(0).counts(used, unc, None) == cells
            assert problem._memo(mask).counts(used, unc, None) == cells + [eqs]
            assert problem._memo(0).counts(used, unc, at) == [[c[p] for p in at] for c in cells]
            assert problem._memo(mask).counts(used, unc, at) == [[c[p] for p in at] for c in cells + [eqs]]
        assert problem._memo(0).rows[used].tolist() == cells
        assert problem._memo(mask).rows[used].tolist() == cells + [eqs]


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
            bit_of, _ = naive_layout(rows)
            assert problem.full == naive_row_set([True] * rows.n_rows, bit_of)
            assert list(problem.captures) == [a.id for a in ants]
            for a in ants:
                assert problem.captures[a.id] == naive_row_set(naive_capture(a, rows.features), bit_of)

    @pytest.mark.parametrize("n_rows", ROWS)
    def test_word_columns_hold_the_capture_ints(self, n_rows):
        rng = np.random.default_rng(n_rows)
        d, ants = random_instance(rng, n_rows=n_rows)
        check_layout_counts(SearchProblem(ants, d), d, ants, rng)

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


class TestRowLayout:
    """A SearchProblem lays its rows out by (sensitive, label) code, each
    code in a run of whole words of its own, at least one."""

    # (s, y) code sizes: one code with no rows, and codes of 63, 64 and 65
    # rows, on either side of a word
    SIZES = [(0, 63, 64, 65), (63, 0, 65, 64), (64, 65, 0, 63), (65, 64, 63, 0)]

    @staticmethod
    def instance(rng, sizes, m=6):
        """Random features, with rows of each code 2*s + y as `sizes`
        asks, shuffled; one antecedent per feature column."""
        code = rng.permutation(np.repeat(np.arange(4), sizes))
        feats = (rng.random((code.size, m + 1)) < rng.uniform(0.2, 0.8, size=m + 1)).astype(np.uint8)
        feats[:, m] = code >> 1
        d = make_dataset(feats, code & 1)
        return d, mine_antecedents(d, min_support=0.0, include_negations=False)

    @pytest.mark.parametrize("sizes", SIZES, ids=["-".join(map(str, s)) for s in SIZES])
    def test_words_and_counts_match_the_bit_oracle(self, sizes):
        rng = np.random.default_rng(sizes)
        d, ants = self.instance(rng, sizes)
        problem = SearchProblem(ants, d)
        assert problem.totals == sizes
        bit_of, _ = naive_layout(d)
        assert problem.full == naive_row_set([True] * d.n_rows, bit_of)
        check_layout_counts(problem, d, ants, rng)
        ids = [a.id for a in ants]
        for allowed in (ids, ids[::2], ids[1:2]):
            assert problem.equivalence_mask(allowed) == oracle_mask(ants, d, allowed)

    @pytest.mark.parametrize("sizes", SIZES, ids=["-".join(map(str, s)) for s in SIZES])
    def test_a_search_with_an_empty_code_matches_the_oracle(self, sizes):
        rng = np.random.default_rng(sizes)
        d, ants = self.instance(rng, [min(size, 24) for size in sizes], m=5)
        problem = SearchProblem(ants, d)
        # a group without one of the labels has no cpa rate
        with pytest.raises(UndefinedRate):
            corels_optimize(problem, SearchConfig(beta=0.5, metric=MetricKind.CONDITIONAL_PROCEDURE_ACCURACY))
        for metric in (MetricKind.DEMOGRAPHIC_PARITY, MetricKind.OVERALL_ACCURACY_EQUALITY):
            for beta in (0.0, 0.5):
                cfg = SearchConfig(lam=0.005, beta=beta, metric=metric, max_length=3)
                res = corels_optimize(problem, cfg)
                obj, _, _, rl = exhaustive_best(ants, d, cfg)
                assert res.objective == pytest.approx(obj, abs=1e-12)
                assert res.best == rl
                assert res.certified_optimal


class TestRowOrder:
    """The search reads its rows only through counts, so the order of the
    rows changes no result, nodes_evaluated included."""

    def test_permuted_rows_give_the_same_results(self):
        fields = TestCountMemo.fields
        rng = np.random.default_rng(20240501)
        metrics = (MetricKind.DEMOGRAPHIC_PARITY, MetricKind.OVERALL_ACCURACY_EQUALITY, MetricKind.CONDITIONAL_PROCEDURE_ACCURACY)
        for trial in range(12):
            d, ants = random_instance(rng, max_rows=150, max_feature_cols=6)
            budget = 40 if trial % 4 == 3 else DEFAULT_NODE_BUDGET
            cfgs = [
                SearchConfig(lam=lam, beta=beta, metric=metrics[trial % 3], max_length=3, node_budget=budget)
                for lam in (0.005, 0.02)
                for beta in (0.0, 0.1, 0.5)
            ]
            ids = [a.id for a in ants]
            allowed = None if trial % 2 else rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)), replace=False)
            permuted = d.subset(rng.permutation(d.n_rows))
            want = search.search_cells(SearchProblem(ants, d), cfgs, allowed)
            got = search.search_cells(SearchProblem(ants, permuted), cfgs, allowed)
            assert [fields(r) for r in got] == [fields(r) for r in want]
            want = enumerate_cells(SearchProblem(ants, d), cfgs, 10)
            got = enumerate_cells(SearchProblem(ants, permuted), cfgs, 10)
            assert [[fields(m) for m in ms] for ms in got] == [[fields(m) for m in ms] for ms in want]


class TestMaskKey:
    """A problem builds one equivalent-points mask per set of columns that
    an allowed set reads: each antecedent is one literal on one 0/1 column,
    and a literal and its negation split the rows alike."""

    @staticmethod
    def instance(rng):
        d, _ = random_instance(rng, max_rows=64, max_feature_cols=6)
        return d, mine_antecedents(d, min_support=0.0)

    def test_a_literal_and_its_negation_give_one_mask(self):
        rng = np.random.default_rng(61)
        pairs_seen = 0
        for _ in range(15):
            d, ants = self.instance(rng)
            by_literal = {(a.feature, a.negated): a.id for a in ants}
            problem = SearchProblem(ants, d)
            for (column, negated), lit in by_literal.items():
                neg = by_literal.get((column, True))
                if negated or neg is None:
                    continue
                pairs_seen += 1
                others = [a.id for a in ants if a.feature != column and rng.random() < 0.5]
                want = oracle_mask(ants, d, others + [lit])
                for ids in (others + [lit], others + [neg], others + [lit, neg]):
                    # a fresh problem builds the mask; the shared one reuses it
                    assert SearchProblem(ants, d).equivalence_mask(sorted(ids)) == want
                    assert problem.equivalence_mask(sorted(ids)) == want
                    assert oracle_mask(ants, d, ids) == want
        assert pairs_seen >= 30

    def test_the_masks_of_an_enumeration_match_the_oracle_set_by_set(self, monkeypatch):
        rng = np.random.default_rng(67)
        build = SearchProblem.equivalence_mask
        told_apart = reused = 0
        for trial in range(6):
            d, ants = self.instance(rng)
            asked = []

            def recorded(problem, ids):
                asked.append(tuple(ids))
                return build(problem, ids)

            monkeypatch.setattr(SearchProblem, "equivalence_mask", recorded)
            cfg = SearchConfig(lam=0.005, beta=0.5 * (trial % 2), max_length=2)
            enumerate_models(SearchProblem(ants, d), cfg, max_models=25)
            monkeypatch.undo()
            # the allowed sets in the enumeration's order, on a fresh problem
            problem = SearchProblem(ants, d)
            masks = {}
            for ids in asked:
                mask = problem.equivalence_mask(ids)
                assert mask == oracle_mask(ants, d, ids)
                masks.setdefault(len(columns_of(ants, ids)), set()).add(mask)
            assert len(problem._masks) == len({columns_of(ants, ids) for ids in asked})
            # sets that read as many columns but have other masks: a key
            # coarser than the column set would hand one the other's mask
            told_apart += any(len(found) > 1 for found in masks.values())
            reused += len(set(asked)) > len(problem._masks)
        assert told_apart >= 3 and reused >= 3


def instance_ids(cases, pinned):
    """Test ids that name each case's instance, not its last `pinned`
    values, so re-recording a count keeps the id."""
    return ["-".join(map(str, case[:-pinned])) for case in cases]


class TestPinnedCounts:
    # nodes_evaluated and certified_optimal of the search on seeded
    # random_instance()s: one row per (seed, metric, beta, node budget)
    CASES = [
        (1, "dp", 0.0, None, 30, True),
        (2, "dp", 0.5, None, 16, True),
        (3, "oae", 0.9, None, 16, True),
        (4, "cpa", 0.5, None, 156, True),
        (5, "dp", 0.0, None, 90, True),
        (5, "dp", 0.5, None, 110, True),
        (6, "oae", 0.0, None, 41, True),
        (7, "dp", 0.0, None, 75, True),
        (7, "cpa", 0.9, None, 8, True),
        (8, "dp", 0.5, None, 20, True),
        (8, "dp", 0.0, None, 14, True),
        (9, "oae", 0.5, None, 177, True),
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
        (21, 65, "dp", 0.5, None, 26, True),
        (21, 65, "oae", 0.0, None, 9, True),
        (22, 129, "cpa", 0.5, None, 155, True),
        (22, 129, "dp", 0.9, None, 60, True),
        (26, 200, "dp", 0.5, None, 190, True),
        (26, 200, "oae", 0.5, None, 194, True),
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
        (5, "dp", 0.5, 110),
        (6, "dp", 0.9, 27),
        (9, "dp", 0.9, 101),
        (14, "dp", 0.5, 44),
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


class TestPaperScale:
    """The scale probe: 30,000 seeded rows labeled by a threshold on a
    linear score, which no rule list matches, and one search over the
    3,000-row Hamming neighborhood of a rejected s = 1 row, at the CLI's
    lambda and max_length.  Each search's optimum and node count are
    pinned, so a change in pruning at paper scale shows here."""

    @staticmethod
    def probe():
        rng = np.random.default_rng(12)
        n = 30_000
        s = rng.random(n) < 0.33
        coins = rng.random((n, 24)) < 0.5
        corr = rng.random(n) < np.where(s, 0.6, 0.3)
        proxy = rng.random(n) < np.where(s, 0.7, 0.3)
        w = np.where(rng.random(24) < 0.4, rng.normal(size=24), 0.0)
        score = coins @ w + corr + 1.5 * proxy + s + rng.normal(0.0, 0.5, n)
        # the score's top 40%, and s the last column
        return make_dataset(np.column_stack([coins, corr, proxy, s]), score > np.quantile(score, 0.6))

    @pytest.mark.parametrize(
        "row,nodes,rules,obj",
        [
            (12, 31457, ((12, 0), (50, 1), (40, 0), (7, 1), (44, 1)), 0.189),
            (18, 20737, ((51, 0), (41, 1), (49, 0), (7, 1), (44, 1)), 0.22066666666666665),
        ],
        ids=["12", "18"],
    )
    def test_a_neighborhood_search(self, row, nodes, rules, obj):
        T = self.probe()
        # the subjects are the first two rows that the labels reject in group 1
        assert np.flatnonzero((T.sensitive == 1) & (T.labels == 0))[:2].tolist() == [12, 18]
        nb = T.subset(knn_neighborhood(row, T, 3000))
        ants = mine_antecedents(nb)
        assert len(ants) == 52
        res = corels_optimize(SearchProblem(ants, nb), SearchConfig(lam=0.005, beta=0.0, max_length=5))
        assert (res.best, res.nodes_evaluated, res.certified_optimal) == (RuleList(rules, 0), nodes, True)
        assert res.objective == pytest.approx(obj, abs=1e-12)
