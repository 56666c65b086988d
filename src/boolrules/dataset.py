"""CSV ingestion and binarization into complementary 0/1 feature pairs.

Numeric columns are cut at empirical quantiles (deciles by default) and each
threshold t yields the pair of features [X <= t] and [X > t].  The
thresholds of all of a table's numeric columns come from one block pass:
the columns are stacked, sorted and cut at their quantiles together.
Categorical columns yield an equality/inequality pair per category.  Every
feature therefore has a complement at a known index, which is what lets a
CNF model be trained as a DNF model on the negated dataset.

`read_csv_rows` is the one file reader and `_read_column` the one column
parser, for `read_csv_table` (training) and `read_columns`
(`RuleSet.predict_rows`) alike.  Its first pass reads a column's raw cells
as floats; only a column they do not all parse in is stripped and masked
for missing cells.  `_parse_floats` is the one place numbers are parsed.
`evaluate_conditions` evaluates every stored condition: on training rows
(`binarize_table`), held-out folds (`build_matrix`) and raw rows, comparing a
categorical column with a category once for its = and != tests.  A missing
numeric cell is NaN there and fails both threshold tests; a missing
categorical cell is "?".
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

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


class DataRowError(ValueError):
    """A bad row among those `read_columns` reads: "data row {index + 1}"
    and then `detail`; `read_csv_rows` gives its file line to name instead."""

    def __init__(self, index: int, detail: str):
        super().__init__(f"data row {index + 1}{detail}")
        self.index, self.detail = index, detail


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

    Numeric columns hold float arrays, categorical columns object arrays of
    strings.  Rows that had to be dropped (missing values under the active
    policy) are already gone.  Kept separate from BinaryDataset so
    cross-validation can re-binarize per training fold without re-reading
    the file.
    """

    columns: list[str]
    kinds: dict  # column -> "numeric" | "categorical"
    values: dict  # column -> np.ndarray of float or of str objects
    y: np.ndarray
    label_column: str
    positive_label: str
    negative_label: str
    dropped_rows: int = 0

    @property
    def n(self) -> int:
        return len(self.y)


def _parse_floats(cells, count=None):
    """Python's float of every cell as a float array, or None if a cell
    does not parse or is not finite.  The one place numbers are parsed.
    `count` is the number of cells, needed when `cells` has no length; an
    iterator is then read only up to its first cell that fails."""
    try:
        values = np.fromiter(map(float, cells), float,
                             len(cells) if count is None else count)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _read_column(rows, i, numeric=None):
    """Column `i` of the raw rows as `evaluate_conditions` reads it: floats
    with NaN at the missing cells, or stripped strings with "?" at them.
    A stripped cell of "" or "?" is missing.

    numeric=None types the column: floats iff it has a present cell and
    every present cell is a finite number.  True asks for floats: a column
    of only missing cells is all NaN, and one whose present cells do not
    all parse comes back as strings.  False returns strings.
    """
    # float skips only whitespace that str.strip removes too, and never
    # parses "" or "?": a column whose raw cells all parse is numeric and
    # has no missing cell
    if numeric is not False and (floats := _parse_floats(
            map(itemgetter(i), rows), len(rows))) is not None:
        return floats
    col = np.array([row[i].strip() or "?" for row in rows], dtype=object)
    if numeric is False:
        return col
    miss = col == "?"
    if (numeric or not miss.all()) and (
            floats := _parse_floats(col[~miss])) is not None:
        values = np.full(len(col), np.nan)
        values[~miss] = floats
        return values
    return col


def read_csv_rows(path):
    """The stripped header, the data rows and, for errors to name, the line
    of the file each data row ends on.  The one CSV reader: the file is
    UTF-8, blank lines are skipped, and the first non-blank row is the
    header (empty for an empty file)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(filter(None, reader), [])
            rows, lines = [], []
            for row in filter(None, reader):
                rows.append(row)
                lines.append(reader.line_num)
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: not UTF-8 text") from None
    return [h.strip() for h in header], rows, lines


def read_csv_table(path, label_column: str, positive_label: str | None = None,
                   missing: str = "drop") -> TypedTable:
    """Parse a CSV file, as `read_csv_rows` reads it, into a TypedTable.

    Every row has the header's width.  Cells are stripped; "" and "?" mean
    missing.  A column is numeric iff it has a non-missing cell and every
    non-missing cell parses as a finite number.  Under missing="drop" every
    row containing a missing cell is dropped; under missing="category" a
    missing cell in a categorical column becomes the category "?" and only
    rows with missing numeric cells or a missing label are dropped.  The
    positive label defaults to the lexicographically larger of the two
    label values.  Errors about a row name its line in the file.
    """
    if missing not in ("drop", "category"):
        raise DatasetError(f"unknown missing-value policy {missing!r}")
    header, rows, lines = read_csv_rows(path)
    if not header:
        raise DatasetError(f"{path}: empty file")
    if label_column not in header:
        raise DatasetError(f"label column {label_column!r} not found in "
                           f"{path} (columns: {', '.join(header)})")
    if len(set(header)) != len(header):
        raise DatasetError(f"{path}: duplicate column names in header")
    if rows and set(map(len, rows)) != {len(header)}:
        k = next(k for k, row in enumerate(rows) if len(row) != len(header))
        raise DatasetError(f"{path}: row {lines[k]} has {len(rows[k])} "
                           f"cells, expected {len(header)}")

    feature_cols = [c for c in header if c != label_column]
    if not feature_cols:
        raise DatasetError(f"{path}: no feature columns besides the label")
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    values = {c: _read_column(rows, i) for i, c in enumerate(header)
              if c != label_column}
    labels = _read_column(rows, header.index(label_column), numeric=False)
    del rows

    drop = labels == "?"
    for col in values.values():
        if col.dtype != object:
            drop |= np.isnan(col)
        elif missing == "drop":
            drop |= col == "?"
    keep = ~drop
    labels = labels[keep]
    if not len(labels):
        raise DatasetError(f"{path}: no rows left after dropping missing values")

    label_values = sorted(set(labels))
    if len(label_values) != 2:
        raise DatasetError(f"{path}: label column {label_column!r} must have exactly "
                           f"two values, found {label_values}")
    if positive_label is None:
        positive_label = label_values[1]  # lexicographically larger
    elif positive_label not in label_values:
        raise DatasetError(f"positive label {positive_label!r} not among label "
                           f"values {label_values}")
    negative_label = next(v for v in label_values if v != positive_label)

    values = {c: col[keep] for c, col in values.items()}
    kinds = {c: ("categorical" if col.dtype == object else "numeric")
             for c, col in values.items()}
    y = (labels == positive_label).astype(np.uint8)
    return TypedTable(columns=feature_cols, kinds=kinds, values=values, y=y,
                      label_column=label_column, positive_label=positive_label,
                      negative_label=negative_label, dropped_rows=int(drop.sum()))


def _quantile_thresholds(columns, quantile_count: int):
    """The kept thresholds of each of m equal-length numeric columns, as
    m ascending float arrays, from one (n, m) block.

    Thresholds are the k/(quantile_count+1) quantiles (linear interpolation),
    one per distinct split of the column: of the thresholds with the same
    count of values at or below them, the smallest is kept.  A threshold at
    or above every value splits nothing, so it is dropped.
    """
    if quantile_count < 1:
        raise DatasetError("quantile_count must be at least 1")
    probs = np.arange(1, quantile_count + 1) / (quantile_count + 1)
    block = np.sort(np.stack(columns, axis=1), axis=0)
    cuts = np.sort(np.quantile(block, probs, axis=0), axis=0)
    below = np.empty(cuts.shape, dtype=np.intp)
    for j in range(block.shape[1]):
        below[:, j] = np.searchsorted(block[:, j], cuts[:, j], side="right")
    keep = below < len(block)
    keep[1:] &= below[1:] != below[:-1]
    return [cuts[keep[:, j], j] for j in range(block.shape[1])]


def categorical_features(values, column: str):
    """One equality/inequality feature pair per category, categories in
    lexicographic order.  A single-category column yields nothing."""
    cats = sorted(set(values))
    if len(cats) < 2:
        return []
    return [FeatureMeta(column, kind, cat) for cat in cats
            for kind in (KIND_CATEGORICAL_EQ, KIND_CATEGORICAL_NEQ)]


def evaluate_conditions(columns: dict, metas: list[FeatureMeta], n: int) -> np.ndarray:
    """The (n, len(metas)) 0/1 matrix of stored conditions on n rows.

    `columns` maps every column the conditions read to its n cells: a float
    array for a numeric column, where a missing cell is NaN and fails both
    <= and >, or an object array of strings for a categorical one, where a
    missing cell is the category "?".
    """
    out = np.empty((n, len(metas)), dtype=np.uint8)
    equal = {}  # (column, category) -> its cells' == mask, for = and !=
    for j, m in enumerate(metas):
        vals = columns[m.column]
        if m.kind == KIND_NUMERIC_LEQ:
            out[:, j] = vals <= m.value
        elif m.kind == KIND_NUMERIC_GT:
            out[:, j] = vals > m.value
        else:
            eq = equal.get((m.column, m.value))
            if eq is None:
                eq = equal[m.column, m.value] = vals == m.value
            out[:, j] = eq if m.kind == KIND_CATEGORICAL_EQ else ~eq
    return out


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
    if not len(rows):
        raise DatasetError("no rows selected to binarize")
    columns = {c: table.values[c][rows] for c in table.columns}
    numeric = [c for c in table.columns if table.kinds[c] == "numeric"]
    cuts = dict(zip(numeric, _quantile_thresholds(
        [columns[c] for c in numeric], quantile_count))) if numeric else {}
    metas = []
    for c in table.columns:
        if c in cuts:
            metas += [FeatureMeta(c, kind, t) for t in cuts[c].tolist()
                      for kind in (KIND_NUMERIC_LEQ, KIND_NUMERIC_GT)]
        else:
            metas += categorical_features(columns[c], c)
    if not metas:
        raise DatasetError("no usable features: every column is constant")
    X = evaluate_conditions(columns, metas, len(rows))
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
    columns = {c: table.values[c][rows] for c in {m.column for m in metas}}
    return evaluate_conditions(columns, metas, len(rows))


def read_columns(header: list[str], rows, metas: list[FeatureMeta]) -> dict:
    """Parse the columns that `metas` read from raw CSV rows (lists of
    string cells aligned with `header`) for `evaluate_conditions`.

    Each column is read by `_read_column`, a numeric one as floats.
    Raises ValueError for a column absent from the header or repeated in
    it, a row shorter than the header, or an unreadable or non-finite
    numeric cell; the last two as DataRowError, which names the data row
    (the first row after the header is row 1).
    """
    needed = {m.column for m in metas}
    absent = sorted(needed - set(header))
    if absent:
        raise ValueError(f"input is missing columns required by the model: "
                         f"{', '.join(absent)}")
    repeated = sorted(c for c in needed if header.count(c) > 1)
    if repeated:
        raise ValueError(f"input repeats columns the model reads: "
                         f"{', '.join(repeated)}")
    if rows and min(map(len, rows)) < len(header):
        k = next(k for k, row in enumerate(rows) if len(row) < len(header))
        raise DataRowError(k, f" has {len(rows[k])} cells, fewer than the "
                              f"header's {len(header)}")
    numeric = {m.column for m in metas if m.kind in (KIND_NUMERIC_LEQ, KIND_NUMERIC_GT)}
    columns = {}
    for c in sorted(needed):
        col = columns[c] = _read_column(rows, header.index(c), c in numeric)
        if c in numeric and col.dtype == object:
            k = next(k for k, cell in enumerate(col)
                     if cell != "?" and _parse_floats([cell]) is None)
            raise DataRowError(k, f", column {c}: {col[k]!r} is not a "
                                  f"finite number")
    return columns

