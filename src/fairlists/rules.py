"""Rule lists: prediction, fidelity and canonical text form.

A rule list is an ordered sequence of (antecedent_id, consequent) pairs plus a
default class.  Prediction is first-match-wins.  The canonical text form uses
antecedent ids (not names) so deduplication is stable across schemas.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, UnknownAntecedent


@dataclass(frozen=True)
class RuleList:
    rules: tuple  # ((antecedent_id, consequent), ...)
    default: int

    def __post_init__(self):
        ids = [a for a, _ in self.rules]
        if len(ids) != len(set(ids)):
            raise ValueError("rule list repeats an antecedent: %r" % (ids,))

    @property
    def K(self):
        return len(self.rules)

    @property
    def antecedent_ids(self):
        return tuple(a for a, _ in self.rules)


def canonical_form(r):
    """Deterministic text encoding, equal iff the rule lists are equal tuples."""
    parts = ["%d:%d" % (a, q) for a, q in r.rules]
    parts.append("default:%d" % r.default)
    return ";".join(parts)


def parse_canonical(text):
    parts = text.strip().split(";")
    if not parts or not parts[-1].startswith("default:"):
        raise ValueError("bad canonical rule list: %r" % text)
    default = int(parts[-1][len("default:") :])
    rules = []
    for p in parts[:-1]:
        a, q = p.split(":")
        rules.append((int(a), int(q)))
    return RuleList(rules=tuple(rules), default=default)


def render(r, ants, feature_names):
    """Human-readable "if ... then ... else ..." rendering."""
    by_id = ants.by_id()
    parts = []
    for i, (a, q) in enumerate(r.rules):
        kw = "if" if i == 0 else "else if"
        parts.append("%s %s then %d" % (kw, by_id[a].describe(feature_names), q))
    parts.append("else %d" % r.default)
    return " ".join(parts)


def predict(r, ants, d):
    """Predict every row of `d` with first-match-wins semantics.

    Implemented with bitvector set subtraction: each rule claims the rows its
    antecedent satisfies minus everything claimed earlier.  Antecedent
    predicates are re-evaluated on `d`'s features, so `d` may be any dataset
    sharing the column schema of the mining dataset.
    """
    by_id = ants.by_id()
    n = d.n_rows
    preds = np.full(n, r.default, dtype=np.uint8)
    claimed = np.zeros(n, dtype=bool)
    for a, q in r.rules:
        if a not in by_id:
            raise UnknownAntecedent("antecedent id %d not in mined set" % a)
        newly = by_id[a].satisfies(d.features) & ~claimed
        preds[newly] = q
        claimed |= newly
    return preds


def fidelity(surrogate_preds, blackbox_preds):
    """Agreement fraction between a surrogate and the black box it mimics."""
    a = np.asarray(surrogate_preds)
    b = np.asarray(blackbox_preds)
    if a.shape != b.shape:
        raise LengthMismatch("surrogate %r vs blackbox %r" % (a.shape, b.shape))
    return int(np.count_nonzero(a == b)) / a.shape[0]
