"""Fairness-regularized rule lists: exact search, K-best enumeration and
black-box rationalization."""

from .dataset import (
    Antecedent,
    AntecedentSet,
    Dataset,
    SplitSpec,
    load_csv,
    mine_antecedents,
    one_hot,
    split_dataset,
)
from .enumeration import enumerate_models
from .errors import FairlistsError
from .metrics import GroupCounts, MetricKind, group_counts, unfairness, unfairness_of
from .rationalize import (
    BlackBoxPredictions,
    GlobalReport,
    LocalReport,
    Neighborhood,
    knn_neighborhood,
    local_cohort,
    rationalize_global,
    rationalize_local,
    select_best_global,
)
from .audit import InfluenceRanking, flip_influence, lookup_oracle, rule_list_oracle
from .rules import RuleList, canonical_form, fidelity, parse_canonical, predict, render
from .search import SearchConfig, SearchResult, corels_optimize, lower_bound, objective

__all__ = [
    "Antecedent",
    "AntecedentSet",
    "BlackBoxPredictions",
    "Dataset",
    "FairlistsError",
    "GlobalReport",
    "GroupCounts",
    "InfluenceRanking",
    "LocalReport",
    "MetricKind",
    "Neighborhood",
    "RuleList",
    "SearchConfig",
    "SearchResult",
    "SplitSpec",
    "canonical_form",
    "corels_optimize",
    "enumerate_models",
    "fidelity",
    "flip_influence",
    "group_counts",
    "knn_neighborhood",
    "load_csv",
    "local_cohort",
    "lookup_oracle",
    "lower_bound",
    "mine_antecedents",
    "objective",
    "one_hot",
    "parse_canonical",
    "predict",
    "rationalize_global",
    "rationalize_local",
    "render",
    "rule_list_oracle",
    "select_best_global",
    "split_dataset",
    "unfairness",
    "unfairness_of",
]
