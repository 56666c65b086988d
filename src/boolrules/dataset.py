"""CSV ingestion and binarization into complementary 0/1 feature pairs.

Numeric columns are cut at empirical quantiles (deciles by default) and each
threshold t yields the pair of features [X <= t] and [X > t].  Categorical
columns yield an equality/inequality pair per category.  Every feature
therefore has a complement at a known index, which is what lets a CNF model
be trained as a DNF model on the negated dataset.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

MISSING_TOKENS = {"", "?"}

KIND_NUMERIC_LEQ = "numeric-leq"
KIND_NUMERIC_GT = "numeric-gt"
KIND_CATEGORICAL_EQ = "categorical-eq"
KIND_CATEGORICAL_NEQ = "categorical-neq"

_COMPLEMENT_KIND = {
    KIND_NUMERIC_LEQ: KIND_NUMERIC_GT,
    KIND_NUMERIC_GT: KIND_NUMERIC_LEQ,
    KIND_CATEGORICAL_EQ: KIND_CATEGORICAL_NEQ,
    KIND_CATEGORICAL_NEQ: KIND_CATEGORICAL_EQ,
}

_KIND_SYMBOL = {
    KIND_NUMERIC_LEQ: "<=",
    KIND_NUMERIC_GT: ">",
    KIND_CATEGORICAL_EQ: "=",
    KIND_CATEGORICAL_NEQ: "!=",
}


class DatasetError(ValueError):
    """Raised for ingestion problems: bad labels, missing columns, empty data."""


@dataclass(frozen=True)
class FeatureMeta:
    """One binary feature: a threshold or category test on a source column."""

    column: str
    kind: str
    value: object  # float for numeric kinds, str for categorical kinds

    def complement(self) -> "FeatureMeta":
        return FeatureMeta(self.column, _COMPLEMENT_KIND[self.kind], self.value)

    def describe(self) -> str:
        if self.kind in (KIND_NUMERIC_LEQ, KIND_NUMERIC_GT):
            shown = format(self.value, "g")
        else:
            shown = str(self.value)
        return f"{self.column} {_KIND_SYMBOL[self.kind]} {shown}"

    def evaluate(self, cell):
        """Evaluate the condition on one raw cell (string or None for missing).

        Missing cells fail <=, > and = tests and pass != tests.  A cell that
        cannot be parsed as a number under a numeric kind raises ValueError.
        """
        if cell is None or (isinstance(cell, str) and cell.strip() in MISSING_TOKENS):
            return self.kind == KIND_CATEGORICAL_NEQ
        if self.kind in (KIND_NUMERIC_LEQ, KIND_NUMERIC_GT):
            v = float(cell)
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {cell!r}")
            return v <= self.value if self.kind == KIND_NUMERIC_LEQ else v > self.value
        cell = str(cell).strip()
        return (cell == self.value) == (self.kind == KIND_CATEGORICAL_EQ)


@dataclass
class BinaryDataset:
    """A fully binarized classification problem.

    X is an (n, d) uint8 matrix, y an (n,) uint8 vector.  `features` and
    `partner` are present for ingested data (partner[j] is the index of
    feature j's complement) and may be None for synthetic matrices.
    """

    X: np.ndarray
    y: np.ndarray
    features: list[FeatureMeta] | None = None
    partner: np.ndarray | None = None
    positive_label: str = "1"
    negative_label: str = "0"
    pos: np.ndarray = field(init=False, repr=False)
    neg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.uint8)
        self.y = np.asarray(self.y, dtype=np.uint8)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise DatasetError("X must be (n, d) with y of length n")
        self.pos = np.flatnonzero(self.y == 1)
        self.neg = np.flatnonzero(self.y == 0)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def pricing_nnz(self) -> int:
        """Size proxy for the pricing problem: sum of |S_i| plus d plus n,
        where S_i is the set of features that are 0 in sample i."""
        zeros = self.X.size - int(self.X.sum())
        return zeros + self.d + self.n

    def negated(self) -> "BinaryDataset":
        """Flip every feature and every label; swap label names and
        complement feature kinds.  Applying it twice restores the original
        dataset bit for bit."""
        feats = None
        if self.features is not None:
            feats = [f.complement() for f in self.features]
        return BinaryDataset(
            X=1 - self.X,
            y=1 - self.y,
            features=feats,
            partner=None if self.partner is None else self.partner.copy(),
            positive_label=self.negative_label,
            negative_label=self.positive_label,
        )

    def validate(self) -> None:
        """Check structural invariants; raises DatasetError on violation."""
        if not np.isin(self.X, (0, 1)).all() or not np.isin(self.y, (0, 1)).all():
            raise DatasetError("X and y must be 0/1")
        if self.features is not None:
            if len(self.features) != self.d:
                raise DatasetError("feature metadata length does not match d")
            if self.partner is None or len(self.partner) != self.d:
                raise DatasetError("partner map missing or wrong length")
            for j, meta in enumerate(self.features):
                k = int(self.partner[j])
                if int(self.partner[k]) != j:
                    raise DatasetError(f"partner map is not an involution at {j}")
                if self.features[k] != meta.complement():
                    raise DatasetError(f"feature {k} is not the complement of {j}")
                if not ((self.X[:, j] ^ self.X[:, k]) == 1).all():
                    raise DatasetError(f"features {j},{k} do not partition samples")


@dataclass
class TypedTable:
    """Parsed CSV with inferred column types, before binarization.

    Numeric columns hold float arrays, categorical columns hold string lists.
    Rows that had to be dropped (missing values under the active policy) are
    already gone.  Kept separate from BinaryDataset so cross-validation can
    re-binarize per training fold without re-reading the file.
    """

    columns: list[str]
    kinds: dict  # column -> "numeric" | "categorical"
    values: dict  # column -> np.ndarray(float) | list[str]
    y: np.ndarray
    label_column: str
    positive_label: str
    negative_label: str
    dropped_rows: int = 0

    @property
    def n(self) -> int:
        return len(self.y)


def _is_missing(cell: str) -> bool:
    return cell in MISSING_TOKENS


def _parse_number(cell: str):
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def read_csv_table(path, label_column: str, positive_label: str | None = None,
                   missing: str = "drop") -> TypedTable:
    """Parse a CSV file into a TypedTable.

    The first row is the header.  Cells are stripped of surrounding
    whitespace; "" and "?" mean missing.  A column is numeric iff every
    non-missing cell parses as a finite number.  Under missing="drop" every
    row containing a missing cell is dropped; under missing="category" a
    missing cell in a categorical column becomes the category "?" and only
    rows with missing numeric cells or a missing label are dropped.  The
    positive label defaults to the lexicographically larger of the two label
    values.
    """
    if missing not in ("drop", "category"):
        raise DatasetError(f"unknown missing-value policy {missing!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        rows = [[c.strip() for c in row] for row in reader if row]
    if label_column not in header:
        raise DatasetError(f"label column {label_column!r} not found in {path} "
                           f"(columns: {', '.join(header)})")
    if len(set(header)) != len(header):
        raise DatasetError(f"{path}: duplicate column names in header")
    for idx, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetError(f"{path}: row {idx + 2} has {len(row)} cells, "
                               f"expected {len(header)}")

    label_idx = header.index(label_column)
    feature_cols = [c for c in header if c != label_column]
    if not feature_cols:
        raise DatasetError(f"{path}: no feature columns besides the label")

    # type inference over non-missing cells
    col_idx = {c: header.index(c) for c in feature_cols}
    numeric_cols = set()
    for c in feature_cols:
        i = col_idx[c]
        seen = [row[i] for row in rows if not _is_missing(row[i])]
        if seen and all(_parse_number(x) is not None for x in seen):
            numeric_cols.add(c)

    kept = []
    for row in rows:
        if _is_missing(row[label_idx]):
            continue
        drop = False
        for c in feature_cols:
            if _is_missing(row[col_idx[c]]) and (missing == "drop" or c in numeric_cols):
                drop = True
                break
        if not drop:
            kept.append(row)
    dropped = len(rows) - len(kept)
    if not kept:
        raise DatasetError(f"{path}: no rows left after dropping missing values")

    label_values = sorted({row[label_idx] for row in kept})
    if len(label_values) != 2:
        raise DatasetError(f"{path}: label column {label_column!r} must have exactly "
                           f"two values, found {label_values}")
    if positive_label is None:
        positive_label = label_values[1]  # lexicographically larger
    elif positive_label not in label_values:
        raise DatasetError(f"positive label {positive_label!r} not among label "
                           f"values {label_values}")
    negative_label = next(v for v in label_values if v != positive_label)

    values = {}
    for c in feature_cols:
        i = col_idx[c]
        if c in numeric_cols:
            values[c] = np.array([float(row[i]) for row in kept])
        else:
            values[c] = [row[i] if not _is_missing(row[i]) else "?" for row in kept]
    y = np.array([1 if row[label_idx] == positive_label else 0 for row in kept],
                 dtype=np.uint8)
    kinds = {c: ("numeric" if c in numeric_cols else "categorical") for c in feature_cols}
    return TypedTable(columns=feature_cols, kinds=kinds, values=values, y=y,
                      label_column=label_column, positive_label=positive_label,
                      negative_label=negative_label, dropped_rows=dropped)


def binarize_numeric(values: np.ndarray, column: str, quantile_count: int = 9):
    """Cut a numeric column at its empirical quantiles.

    Thresholds are the k/(quantile_count+1) quantiles (linear interpolation),
    deduplicated.  Each kept threshold t yields [X <= t] and [X > t]; a
    threshold equal to the column maximum would make both constant, so that
    pair is dropped.  Returns (list of 0/1 columns, list of FeatureMeta).
    """
    values = np.asarray(values, dtype=float)
    if quantile_count < 1:
        raise DatasetError("quantile_count must be at least 1")
    probs = np.arange(1, quantile_count + 1) / (quantile_count + 1)
    thresholds = np.unique(np.quantile(values, probs))
    vmax = values.max()
    cols, metas = [], []
    for t in thresholds:
        if t >= vmax:
            continue
        leq = (values <= t).astype(np.uint8)
        cols.append(leq)
        cols.append(1 - leq)
        metas.append(FeatureMeta(column, KIND_NUMERIC_LEQ, float(t)))
        metas.append(FeatureMeta(column, KIND_NUMERIC_GT, float(t)))
    return cols, metas


def binarize_categorical(values, column: str):
    """One equality/inequality feature pair per category, categories in
    lexicographic order.  A single-category column yields nothing."""
    values = list(values)
    cats = sorted(set(values))
    if len(cats) < 2:
        return [], []
    arr = np.array(values, dtype=object)
    cols, metas = [], []
    for cat in cats:
        eq = (arr == cat).astype(np.uint8)
        cols.append(eq)
        cols.append(1 - eq)
        metas.append(FeatureMeta(column, KIND_CATEGORICAL_EQ, cat))
        metas.append(FeatureMeta(column, KIND_CATEGORICAL_NEQ, cat))
    return cols, metas


def binarize_table(table: TypedTable, rows: np.ndarray | None = None,
                   quantile_count: int = 9) -> BinaryDataset:
    """Binarize (a row subset of) a TypedTable.

    `rows` selects the samples whose values define the thresholds and
    category sets; None means all.  Column order follows the CSV, with the
    <= / > (or = / !=) member of each pair adjacent, so partner indices are
    j ^ 1.
    """
    if rows is None:
        rows = np.arange(table.n)
    rows = np.asarray(rows)
    cols, metas = [], []
    for c in table.columns:
        if table.kinds[c] == "numeric":
            block, meta = binarize_numeric(table.values[c][rows], c, quantile_count)
        else:
            vals = [table.values[c][i] for i in rows]
            block, meta = binarize_categorical(vals, c)
        cols.extend(block)
        metas.extend(meta)
    if not cols:
        raise DatasetError("no usable features: every column is constant")
    X = np.column_stack(cols).astype(np.uint8)
    partner = np.arange(len(metas)) ^ 1
    ds = BinaryDataset(X=X, y=table.y[rows].copy(), features=metas, partner=partner,
                       positive_label=table.positive_label,
                       negative_label=table.negative_label)
    if len(ds.pos) == 0 or len(ds.neg) == 0:
        raise DatasetError("both classes must be present after ingestion")
    return ds


def build_matrix(table: TypedTable, rows: np.ndarray, metas: list[FeatureMeta]) -> np.ndarray:
    """Evaluate stored feature conditions on a row subset of a table.

    Used to binarize held-out folds with the thresholds learned on the
    training fold; nothing is recomputed from the given rows.
    """
    rows = np.asarray(rows)
    out = np.empty((len(rows), len(metas)), dtype=np.uint8)
    for j, m in enumerate(metas):
        vals = table.values[m.column]
        if m.kind == KIND_NUMERIC_LEQ:
            out[:, j] = vals[rows] <= m.value
        elif m.kind == KIND_NUMERIC_GT:
            out[:, j] = vals[rows] > m.value
        else:
            eq = np.array([vals[i] == m.value for i in rows], dtype=np.uint8)
            out[:, j] = eq if m.kind == KIND_CATEGORICAL_EQ else 1 - eq
    return out


def ingest_csv(path, label_column: str, positive_label: str | None = None,
               missing: str = "drop", quantile_count: int = 9) -> BinaryDataset:
    """read_csv_table followed by binarize_table on all rows."""
    table = read_csv_table(path, label_column, positive_label, missing)
    return binarize_table(table, quantile_count=quantile_count)


def export_debug(ds: BinaryDataset, descriptor_path, matrix_path) -> None:
    """Write the feature descriptor as JSON and the 0/1 matrix as text.

    Debugging aid; one matrix row per sample, features space-separated with
    the label after a '|'.
    """
    desc = {
        "n": ds.n,
        "d": ds.d,
        "positive_label": ds.positive_label,
        "negative_label": ds.negative_label,
        "features": None if ds.features is None else [
            {"column": f.column, "kind": f.kind, "value": f.value,
             "partner": int(ds.partner[j])}
            for j, f in enumerate(ds.features)
        ],
    }
    with open(descriptor_path, "w") as fh:
        json.dump(desc, fh, indent=2)
        fh.write("\n")
    with open(matrix_path, "w") as fh:
        for i in range(ds.n):
            fh.write(" ".join(str(v) for v in ds.X[i]) + " | " + str(ds.y[i]) + "\n")
