"""Rule lists: prediction, fidelity and canonical text form.

A rule list is an ordered sequence of (antecedent_id, consequent) pairs plus a
default class.  Prediction is first-match-wins.  The canonical text form uses
antecedent ids (not names) so deduplication is stable across schemas.
"""

import re
from dataclasses import dataclass

import numpy as np

from .dataset import captures
from .errors import LengthMismatch, MalformedRuleList, UnknownAntecedent

_RULE = re.compile(r"(\d+):([01])")
_DEFAULT = re.compile(r"default:([01])")


@dataclass(frozen=True)
class RuleList:
    rules: tuple  # ((antecedent_id, consequent), ...)
    default: int

    def __post_init__(self):
        ids = [a for a, _ in self.rules]
        if len(ids) != len(set(ids)):
            raise MalformedRuleList("rule list repeats an antecedent: %r" % (ids,))

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
    """The rule list whose canonical form is `text`; MalformedRuleList for
    any text canonical_form cannot write."""
    *rules, default = text.strip().split(";")
    rules = [_RULE.fullmatch(p) for p in rules]
    default = _DEFAULT.fullmatch(default)
    if default is None or None in rules:
        raise MalformedRuleList("bad canonical rule list: %r" % text)
    return RuleList(rules=tuple((int(m[1]), int(m[2])) for m in rules), default=int(default[1]))


def antecedents_of(r, ants):
    """The antecedents of `r`'s rules, in order, looked up by id among
    `ants`; UnknownAntecedent for the first id that is not there."""
    by_id = {a.id: a for a in ants}
    for a in r.antecedent_ids:
        if a not in by_id:
            raise UnknownAntecedent("antecedent id %d not in mined set" % a)
    return [by_id[a] for a in r.antecedent_ids]


def render(r, ants, feature_names):
    """Human-readable "if ... then ... else ..." rendering."""
    parts = [
        "%s %s then %d" % ("else if" if i else "if", ant.describe(feature_names), q)
        for i, (ant, (_, q)) in enumerate(zip(antecedents_of(r, ants), r.rules))
    ]
    parts.append("else %d" % r.default)
    return " ".join(parts)


def read_columns(r, ants):
    """The sorted feature columns that `r`'s antecedents, looked up among
    `ants`, read: no other column changes its predictions."""
    return sorted({a.feature for a in antecedents_of(r, ants)})


def first_match(r, caps):
    """The first-match-wins predictions of `r` on n rows, given the
    captures of its antecedents in rule order as a (K, n) bool matrix.
    Consequents are 0 or 1: from the default up, each rule, last to first,
    sets or clears the rows it captures, so every row ends with the
    consequent of the first rule that captures it."""
    preds = np.full(caps.shape[1], r.default != 0)
    for (_, q), capture in zip(reversed(r.rules), caps[::-1]):
        if q:
            preds |= capture
        else:
            preds &= ~capture
    return preds.view(np.uint8)


def predict(r, ants, d):
    """Predict every row of `d` with first-match-wins semantics.

    The rule list's antecedents are evaluated on `d`'s features by
    `dataset.captures`, so `d` may be any dataset sharing the column schema
    of the mining dataset.
    """
    return first_match(r, captures(antecedents_of(r, ants), d.features))


def fidelity(surrogate_preds, blackbox_preds):
    """Agreement fraction between a surrogate and the black box it mimics."""
    a = np.asarray(surrogate_preds)
    b = np.asarray(blackbox_preds)
    if a.shape != b.shape:
        raise LengthMismatch("surrogate %r vs blackbox %r" % (a.shape, b.shape))
    return int(np.count_nonzero(a == b)) / a.shape[0]
