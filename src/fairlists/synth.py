"""Seeded synthetic data with a deliberately unfair deterministic black box.

The generator draws a binary sensitive attribute s ~ Bernoulli(0.35), so
group s=1 is the minority, and eight binary features.  Feature f0
("qualified") correlates with the group: P(f0=1 | s=1) = 0.6 and
P(f0=1 | s=0) = 0.4.  The remaining features f1..f7 are Bernoulli(1/2),
independent of s.  The black box is the fixed rule

    b(x) = 1  iff  f0 = 1 and (f1 = 1 or (s = 1 and f2 = 1))

i.e. the qualified are approved with credential f1, and minority members get
a second chance through f2.  Analytically:

  - P(b=1 | s=1) = 0.6 * 0.75 = 0.45 and P(b=1 | s=0) = 0.4 * 0.5 = 0.20,
    a demographic-parity gap of 0.25, far above the 0.15 floor the
    regression suite expects.
  - The sensitive-blind surrogate "f0 and f1" disagrees with b only on
    (f0=1, f1=0, s=1, f2=1) rows: fidelity ~0.95 with a gap of ~0.10, so
    rationalizing surrogates exist.
  - A rejected minority member is rejected for reasons independent of s
    (f0=0, or f1=f2=0), so every such subject sits in a majority-rejected
    neighborhood.  That keeps outcome rationalization able to agree with
    the black box on the whole rejected-minority cohort even when the
    fairness weight pushes the surrogates toward near-constant models.
"""

import numpy as np

from .dataset import Dataset

N_FEATURES = 8
FEATURE_NAMES = ["f%d" % i for i in range(N_FEATURES)] + ["s"]


def blackbox_rule(features):
    """The deterministic unfair decision rule, vectorized over rows."""
    f0 = features[:, 0] != 0
    f1 = features[:, 1] != 0
    f2 = features[:, 2] != 0
    s = features[:, N_FEATURES] != 0
    return (f0 & (f1 | (s & f2))).astype(np.uint8)


def biased_dataset(n=1000, seed=20240501):
    """Generate the Dataset of the regression suite.

    Its labels are the black box's decisions, which is what the
    rationalization drivers train surrogates against.
    """
    rng = np.random.default_rng(seed)
    s = (rng.random(n) < 0.35).astype(np.uint8)
    f0 = (rng.random(n) < np.where(s == 1, 0.6, 0.4)).astype(np.uint8)
    rest = (rng.random((n, N_FEATURES - 1)) < 0.5).astype(np.uint8)
    features = np.column_stack([f0, rest, s])
    return Dataset(
        features=features,
        feature_names=list(FEATURE_NAMES),
        sensitive_col=N_FEATURES,
        labels=blackbox_rule(features),
    )
