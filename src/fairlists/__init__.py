"""Fairness-regularized rule lists: exact search, K-best enumeration and
black-box rationalization."""
