"""Shared fixtures: a tiny worked example, generated tic-tac-toe endgames,
random synthetic datasets, the features a table of one numeric column
binarizes to, loaders for the optional benchmark CSVs, a patch that
makes small fits sample their pricing instances, and one that records
what every LP hands scipy.optimize.linprog.
"""

import csv
from pathlib import Path

import numpy as np
import scipy.optimize

from boolrules import colgen, pricing
from boolrules.dataset import (
    BinaryDataset,
    DatasetError,
    FeatureMeta,
    TypedTable,
    binarize_table,
)

DATA_DIR = Path(__file__).resolve().parent / "data"

TTT_COLUMNS = [
    "top-left-square", "top-middle-square", "top-right-square",
    "middle-left-square", "middle-middle-square", "middle-right-square",
    "bottom-left-square", "bottom-middle-square", "bottom-right-square",
]

_LINES = [
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
]


def tictactoe_rows():
    """Every final board of a tic-tac-toe game, x moving first.

    A board ends a game in one of three ways: x just completed a line,
    o just completed a line, or the board filled up with no line.  The
    "just completed" part is what makes a board reachable: the winner's
    lines must share a cell (the last stone placed), and removing that
    stone must leave a legal midgame position.
    """
    rows = []
    for code in range(3 ** 9):
        cells = []
        c = code
        for _ in range(9):
            cells.append("bxo"[c % 3])
            c //= 3
        nx = cells.count("x")
        no = cells.count("o")
        lines_x = [ln for ln in _LINES if all(cells[i] == "x" for i in ln)]
        lines_o = [ln for ln in _LINES if all(cells[i] == "o" for i in ln)]
        if lines_x and lines_o:
            continue
        if lines_x:
            common = set(lines_x[0])
            for ln in lines_x[1:]:
                common &= set(ln)
            if nx == no + 1 and common:
                rows.append(cells + ["positive"])
        elif lines_o:
            common = set(lines_o[0])
            for ln in lines_o[1:]:
                common &= set(ln)
            if nx == no and common:
                rows.append(cells + ["negative"])
        elif nx == 5 and no == 4:
            rows.append(cells + ["negative"])
    return rows


def write_tictactoe_csv(path):
    rows = tictactoe_rows()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TTT_COLUMNS + ["class"])
        writer.writerows(rows)
    return path


def make_binary_dataset(X_half, y, positive_label="yes", negative_label="no"):
    """Build a dataset from raw 0/1 columns by appending their complements,
    so the complement pairing every consumer may rely on actually holds."""
    X_half = np.asarray(X_half, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    n, k = X_half.shape
    X = np.hstack([X_half, 1 - X_half]).astype(np.uint8)
    features = []
    for j in range(k):
        features.append(FeatureMeta(f"c{j}", "categorical-eq", "1"))
    for j in range(k):
        features.append(FeatureMeta(f"c{j}", "categorical-neq", "1"))
    partner = np.concatenate([np.arange(k) + k, np.arange(k)])
    return BinaryDataset(
        X=X, y=y, features=features,
        partner=partner.astype(np.int64),
        positive_label=positive_label, negative_label=negative_label,
    )


def tiny_example():
    """Two positive and two negative samples over two raw columns; the
    smallest dataset on which the master and pricing numbers are easy to
    check by hand."""
    X_half = np.array([[1, 1], [1, 0], [0, 1], [0, 0]], dtype=np.uint8)
    y = np.array([1, 1, 0, 0], dtype=np.uint8)
    return make_binary_dataset(X_half, y)


def random_dataset(rng, n_max=25, k_max=5, ensure_positive=True):
    """Random complement-paired dataset with both classes present."""
    n = int(rng.integers(4, n_max + 1))
    k = int(rng.integers(2, k_max + 1))
    while True:
        X_half = (rng.random((n, k)) < rng.uniform(0.25, 0.75)).astype(np.uint8)
        y = (rng.random(n) < rng.uniform(0.3, 0.7)).astype(np.uint8)
        if ensure_positive and y.sum() == 0:
            continue
        if y.sum() == n:
            continue
        return make_binary_dataset(X_half, y)


def numeric_column_features(values, column, quantile_count=9):
    """The features `binarize_table` cuts a table of the one numeric column
    `values` into, or [] when it cuts none.  Labels alternate from 0, so a
    column of two or more distinct values has both classes."""
    values = np.asarray(values, dtype=float)
    table = TypedTable(columns=[column], kinds={column: "numeric"},
                       values={column: values},
                       y=(np.arange(len(values)) % 2).astype(np.uint8),
                       label_column="label", positive_label="1",
                       negative_label="0")
    try:
        return binarize_table(table, quantile_count=quantile_count).features
    except DatasetError as err:
        if "no usable features" not in str(err):
            raise
        return []


def benchmark_csv(name):
    """Path of an optional benchmark CSV, or None when it has not been
    provided.  See scripts/prepare_datasets.py for how to create them."""
    path = DATA_DIR / name
    return path if path.exists() else None


def force_sampling(mp, sample_target, nnz_cap, drops):
    """Send every fit down the sampled path (`LARGE_NNZ` = 2), with samples
    of about `sample_target` rows and `nnz_cap` zero entries plus features,
    so that small instances lose rows and features too.  Each sampling call
    appends (dropped a row, dropped a feature) to `drops`, read off the
    (rows, features) it returns."""
    real = colgen.restrict_pricing

    def recording(X, y, rng):
        rows, features = real(X, y, rng)
        drops.append((len(rows) < X.shape[0], len(features) < X.shape[1]))
        return rows, features

    mp.setattr(colgen, "LARGE_NNZ", 2)
    mp.setattr(colgen, "restrict_pricing", recording)
    mp.setattr(pricing, "SAMPLE_TARGET", sample_target)
    mp.setattr(pricing, "NNZ_CAP", nnz_cap)


def capture_linprog(mp):
    """Record the (c, A_ub, b_ub, bounds) of every scipy.optimize.linprog
    call, then solve it; returns the list the calls append to."""
    real = scipy.optimize.linprog
    seen = []

    def recording(c, A_ub, b_ub, bounds, **kw):
        seen.append((c, A_ub, b_ub, bounds))
        return real(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, **kw)

    mp.setattr(scipy.optimize, "linprog", recording)
    return seen
