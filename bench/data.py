"""Input generators for the benchmark workloads.

Every generator is a pure function of its arguments and a seed, so the same
seed always yields the same CSV bytes.  Nothing here imports the library:
the program under test only ever sees the generated files.
"""

from __future__ import annotations

import csv

import numpy as np

TTT_COLUMNS = [
    "top-left-square", "top-middle-square", "top-right-square",
    "middle-left-square", "middle-middle-square", "middle-right-square",
    "bottom-left-square", "bottom-middle-square", "bottom-right-square",
]

TTT_LINES = [
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
]


def _last_move_possible(lines) -> bool:
    """A winner's lines must share the cell of the last stone placed."""
    common = set(lines[0])
    for ln in lines[1:]:
        common &= set(ln)
    return bool(common)


def tictactoe_rows() -> list[list[str]]:
    """The 958 final boards of tic-tac-toe with x moving first, labelled
    positive when x won.  A board is final when x or o just completed a
    line, or when it filled up with no line."""
    rows = []
    for code in range(3 ** 9):
        cells = []
        for _ in range(9):
            cells.append("bxo"[code % 3])
            code //= 3
        nx, no = cells.count("x"), cells.count("o")
        lines_x = [ln for ln in TTT_LINES if all(cells[i] == "x" for i in ln)]
        lines_o = [ln for ln in TTT_LINES if all(cells[i] == "o" for i in ln)]
        if lines_x and lines_o:
            continue
        if lines_x:
            if nx == no + 1 and _last_move_possible(lines_x):
                rows.append(cells + ["positive"])
        elif lines_o:
            if nx == no and _last_move_possible(lines_o):
                rows.append(cells + ["negative"])
        elif nx == 5 and no == 4:
            rows.append(cells + ["negative"])
    return rows


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def flip_exactly(y: np.ndarray, share: float, rng) -> np.ndarray:
    """Flip exactly round(share * n) labels, chosen uniformly.  A fixed
    count instead of independent flips keeps the noise floor, and with it
    the training objective, from wandering between seeds."""
    y = y.copy()
    idx = rng.choice(len(y), size=int(round(share * len(y))), replace=False)
    y[idx] ^= 1
    return y


def planted_dnf(n: int, d: int, seed: int, clauses: int = 3,
                literals: int = 3, noise: float = 0.05):
    """Uniform 0/1 raw columns labelled by a random DNF, with label noise.

    Returns (X, y, rule) where rule is a list of clauses, each a list of
    (column, polarity) literals.  The rule needs complexity
    clauses * (1 + literals) and at most `literals` conditions per clause.
    """
    rng = np.random.default_rng(seed)
    X = (rng.random((n, d)) < 0.5).astype(np.uint8)
    rule = []
    for _ in range(clauses):
        cols = rng.choice(d, size=literals, replace=False)
        rule.append([(int(c), int(rng.integers(2))) for c in sorted(cols)])
    y = flip_exactly((rule_cover_count(X, rule) > 0).astype(np.uint8), noise,
                     rng)
    return X, y, rule


def rule_cover_count(X: np.ndarray, rule) -> np.ndarray:
    """Per row, how many clauses of a raw-column DNF hold."""
    count = np.zeros(X.shape[0], dtype=np.int64)
    for clause in rule:
        hit = np.ones(X.shape[0], dtype=bool)
        for col, polarity in clause:
            hit &= X[:, col] == polarity
        count += hit
    return count


def planted_loss(X: np.ndarray, y: np.ndarray, rule) -> int:
    """Training objective of the planted rule itself: positives it misses,
    plus one per (negative, clause covering it) pair."""
    count = rule_cover_count(X, rule)
    return int(((count == 0) & (y == 1)).sum() + count[y == 0].sum())


def planted_csv_rows(X: np.ndarray, y: np.ndarray):
    header = [f"x{j}" for j in range(X.shape[1])] + ["label"]
    names = np.array(["neg", "pos"])
    rows = [[str(v) for v in row] + [names[label]]
            for row, label in zip(X.tolist(), y.tolist())]
    return header, rows


MIXED_NUMERIC = ["age", "income", "score", "load"]
MIXED_CATEGORICAL = {
    "color": ["red", "green", "blue", "black"],
    "shape": ["round", "square", "oval"],
    "grade": ["a", "b", "c", "d", "e"],
    "region": ["north", "south", "east", "west"],
}
MIXED_HEADER = MIXED_NUMERIC + list(MIXED_CATEGORICAL) + ["label"]


def mixed_rows(n: int, seed: int, missing: float = 0.02,
               noise: float = 0.05) -> list[list[str]]:
    """Rows with numeric and categorical columns and missing cells.

    The label is a fixed rule over the raw values (numeric thresholds and
    category tests) with exact label noise.  Each feature cell is blanked
    with probability `missing`, written as "" or "?" in turn.
    """
    rng = np.random.default_rng(seed)
    num = {
        "age": rng.integers(18, 90, size=n).astype(float),
        "income": np.round(rng.lognormal(10.0, 0.6, size=n), 2),
        "score": np.round(rng.normal(50.0, 15.0, size=n), 3),
        "load": np.round(rng.random(n), 4),
    }
    cat = {c: rng.integers(len(levels), size=n)
           for c, levels in MIXED_CATEGORICAL.items()}
    rule = ((num["age"] > 50) & (cat["color"] == 0)
            | (num["income"] > 30000) & (cat["grade"] == 0)
            | (num["score"] <= 35) & (num["load"] > 0.5))
    y = flip_exactly(rule.astype(np.uint8), noise, rng)

    cols = [[format(v, "g") for v in num[c].tolist()] for c in MIXED_NUMERIC]
    cols += [[levels[k] for k in cat[c].tolist()]
             for c, levels in MIXED_CATEGORICAL.items()]
    blank = rng.random((len(cols), n)) < missing
    for j, col in enumerate(cols):
        for i in np.flatnonzero(blank[j]).tolist():
            col[i] = "" if i % 2 else "?"
    labels = ["no", "yes"]
    cols.append([labels[v] for v in y.tolist()])
    return [list(row) for row in zip(*cols)]
