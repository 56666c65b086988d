"""Clauses and rule sets.

A clause is a conjunction of binary features, identified by sorted feature
indices; its complexity is 1 + number of features.  A DNF rule set predicts
positive when any clause is satisfied.  A CNF rule set is trained as a DNF
over the negated feature space and stored, through De Morgan, as an AND of
ORs over the original features.

`predict` (binarized rows) and `RuleSet.predict_rows` (raw CSV rows, through
`dataset.evaluate_conditions`) share one DNF/CNF combination, `_combine`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .dataset import (KIND_CATEGORICAL_EQ, KIND_CATEGORICAL_NEQ,
                      KIND_NUMERIC_GT, KIND_NUMERIC_LEQ, BinaryDataset,
                      FeatureMeta, evaluate_conditions, read_columns)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Clause:
    """A conjunction over feature indices (sorted, distinct, nonempty)."""

    features: tuple

    def __post_init__(self):
        feats = tuple(sorted(set(int(j) for j in self.features)))
        if not feats:
            raise ValueError("a clause needs at least one feature")
        object.__setattr__(self, "features", feats)

    @property
    def complexity(self) -> int:
        return 1 + len(self.features)

    def covers(self, X: np.ndarray) -> np.ndarray:
        """Boolean vector: rows of X where every clause feature is 1."""
        return X[:, list(self.features)].all(axis=1)


def selection_loss(clauses, ds: BinaryDataset) -> int:
    """Hamming training loss of a DNF clause selection on a binary dataset:
    uncovered positives plus, for every negative, the number of clauses
    covering it."""
    if not clauses:
        return len(ds.pos)
    cov = np.zeros(ds.n, dtype=np.int64)
    for cl in clauses:
        cov += cl.covers(ds.X)
    missed = int((cov[ds.pos] == 0).sum())
    return missed + int(cov[ds.neg].sum())


@dataclass
class RuleSet:
    """A trained model: per-clause condition lists plus label names.

    `clauses` holds tuples of FeatureMeta.  For DNF each tuple is an AND of
    conditions and the tuples are ORed.  For CNF each tuple is an OR of
    conditions and the tuples are ANDed; the conditions are stated over the
    original columns even though training ran on the negated dataset.
    `training` is the fit's record as written to the model file:
    complexity_bound, objective, lower_bound, master_lp_value, optimal,
    converged, selection_optimal, selection_nodes, selection_pivots,
    iterations, pool_size and seed.
    """

    form: str  # "dnf" | "cnf"
    clauses: tuple
    positive_label: str
    negative_label: str
    training: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.form not in ("dnf", "cnf"):
            raise ValueError(f"unknown form {self.form!r}")
        self.clauses = tuple(tuple(cl) for cl in self.clauses)

    @property
    def complexity(self) -> int:
        return sum(1 + len(cl) for cl in self.clauses)

    def predict_rows(self, header: list[str], rows) -> list[str]:
        """Predict raw CSV rows (a sequence of cell lists aligned with
        header), reading only the columns the model uses.

        Returns original label strings.  Raises ValueError for a column
        the model reads that the header lacks, and DataRowError for a row
        shorter than the header or an unreadable or non-finite numeric
        cell the model reads.
        """
        metas = list(dict.fromkeys(c for cl in self.clauses for c in cl))
        X = evaluate_conditions(read_columns(header, rows, metas), metas, len(rows))
        index = {m: j for j, m in enumerate(metas)}
        hit = _combine(self.form, X, [[index[c] for c in cl] for cl in self.clauses])
        return [self.positive_label if h else self.negative_label for h in hit.tolist()]

    def render(self) -> str:
        """Human-readable IF/THEN text, clauses sorted by size then literals."""
        inner = " AND " if self.form == "dnf" else " OR "
        outer = "OR" if self.form == "dnf" else "AND"
        parts = []
        for cl in sorted(self.clauses, key=lambda cl: (len(cl), [c.describe() for c in cl])):
            parts.append("(" + inner.join(c.describe() for c in cl) + ")")
        if not parts:
            body = "<never>" if self.form == "dnf" else "<always>"
            lines = [f"IF {body}"]
        else:
            lines = [f"IF {parts[0]}"]
            lines += [f"{outer} {p}" for p in parts[1:]]
        lines.append(f"THEN {self.positive_label}")
        lines.append(f"ELSE {self.negative_label}")
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "format_version": FORMAT_VERSION,
            "form": self.form,
            "label_map": {"positive": self.positive_label,
                          "negative": self.negative_label},
            "clauses": [
                [{"column": c.column, "kind": c.kind, "value": c.value} for c in cl]
                for cl in self.clauses
            ],
            "training": self.training,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RuleSet":
        """Read a model file; a malformed one raises ValueError."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a model file holds one JSON object")
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format_version {version!r}")
        clauses = _field(doc, list, "clauses")
        for k, cl in enumerate(clauses, 1):
            if not (isinstance(cl, list) and cl):
                raise ValueError(f"clause {k} is not a nonempty list")
            clauses[k - 1] = tuple(_condition(c, f"clause {k}, condition {i}")
                                   for i, c in enumerate(cl, 1))
        return cls(form=_field(doc, str, "form"), clauses=clauses,
                   positive_label=_field(doc, str, "label_map", "positive"),
                   negative_label=_field(doc, str, "label_map", "negative"),
                   training=_field(doc, dict, "training") if "training" in doc else {})


def _field(doc, kind, *path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"model has no {'.'.join(path)}")
        doc = doc[key]
    if not isinstance(doc, kind):
        raise ValueError(f"model's {'.'.join(path)} is not a {kind.__name__}")
    return doc


def _condition(c, where: str) -> FeatureMeta:
    """A model file's condition: a column name, a kind and its value."""
    if not (isinstance(c, dict) and isinstance(c.get("column"), str)
            and {"kind", "value"} <= c.keys()):
        raise ValueError(f"{where} needs a column name, a kind and a value")
    kind, value = c["kind"], c["value"]
    if kind in (KIND_NUMERIC_LEQ, KIND_NUMERIC_GT):
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    elif kind in (KIND_CATEGORICAL_EQ, KIND_CATEGORICAL_NEQ):
        ok = isinstance(value, str)
    else:
        raise ValueError(f"{where} has an unknown kind {kind!r}")
    if not ok:
        raise ValueError(f"{where} has an invalid {kind} value {value!r}")
    return FeatureMeta(c["column"], kind, value)


def build_ruleset(clauses, ds: BinaryDataset, form: str,
                  training: dict | None = None) -> RuleSet:
    """Turn index clauses from training into a portable RuleSet.

    `ds` is the dataset as ingested, for either form, and gives the
    conditions and the label names.  A CNF model's clauses were found on
    `ds.negated()`, whose feature j is true exactly when `ds`'s feature j
    is false, so by De Morgan its AND-of-ORs uses `ds.features[j]`.
    """
    if ds.features is None:
        raise ValueError("dataset has no feature metadata; cannot build a rule set")
    conds = tuple(
        tuple(ds.features[j] for j in cl.features)
        for cl in clauses
    )
    return RuleSet(form=form, clauses=conds,
                   positive_label=ds.positive_label,
                   negative_label=ds.negative_label,
                   training=dict(training or {}))


def _index_clauses(rs: RuleSet, ds: BinaryDataset):
    """Map a rule set's conditions back to feature indices of `ds`."""
    if ds.features is None:
        raise ValueError("dataset has no feature metadata")
    lookup = {meta: j for j, meta in enumerate(ds.features)}
    out = []
    for cl in rs.clauses:
        try:
            out.append(Clause(tuple(lookup[c] for c in cl)))
        except KeyError as e:
            raise ValueError(f"condition {e.args[0]} not in dataset feature space") from None
    return out


def _combine(form: str, X: np.ndarray, clauses) -> np.ndarray:
    """Boolean verdict per row of a 0/1 condition matrix, each clause a list
    of its column indices: an OR of ANDs for DNF, an AND of ORs for CNF."""
    if form == "cnf":
        hit = np.ones(len(X), dtype=bool)
        for cl in clauses:
            hit &= X[:, cl].any(axis=1)
    else:
        hit = np.zeros(len(X), dtype=bool)
        for cl in clauses:
            hit |= X[:, cl].all(axis=1)
    return hit


def predict(rs: RuleSet, ds: BinaryDataset) -> np.ndarray:
    """0/1 predictions of a rule set on a binarized dataset.  rs conditions
    must exist in ds's feature space."""
    clauses = _index_clauses(rs, ds)
    return _combine(rs.form, ds.X, [list(cl.features) for cl in clauses]).astype(np.uint8)


def hamming_loss(rs: RuleSet, ds: BinaryDataset) -> int:
    """Training-orientation Hamming loss on `ds`.

    For DNF: false negatives plus one per (negative sample, covering clause)
    pair.  A CNF model is scored the same way on `ds.negated()`, where its
    clauses' indices name the complemented conditions it was trained on,
    which is exactly the objective the trainer minimized.
    """
    clauses = _index_clauses(rs, ds)
    return selection_loss(clauses, ds.negated() if rs.form == "cnf" else ds)
