"""Independent reference implementations used to check the real ones.

Everything here is deliberately written the slow, obvious way (vertex
enumeration, exhaustive clause search, KKT conditions checked one row at a
time, CSV ingest one cell at a time, numeric thresholds one column at a
time) so it shares no code with the package under test.
`best_selection_by_milp`, for clause pools too large to enumerate, hands
the explicit integer program to scipy's HiGHS `milp`, which the package
never calls.  The one exception is `budget_by_inner_folds`, which checks
nested budget selection around the package's own fits and fold scoring.
"""

import csv
import itertools
import math

import numpy as np


def lp_minimum_by_vertex_enumeration(objective, lower, upper, rows, tol=1e-7):
    """Minimize over a bounded polytope by checking every candidate vertex.

    A vertex solves n linearly independent equalities chosen among the rows
    (taken at equality) and the variable bounds.  All bounds must be finite
    so the region is a polytope; if it is nonempty it has a vertex.  `rows`
    is a list of (indices, coeffs, sense, rhs).  Returns (status, value, x)
    with status "optimal" or "infeasible".
    """
    objective = np.asarray(objective, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = len(objective)
    assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))

    dense = []
    for idx, coef, sense, rhs in rows:
        a = np.zeros(n)
        a[list(idx)] = coef
        dense.append((a, float(rhs), sense))
    row_A = np.array([a for a, _, _ in dense]).reshape(len(dense), n)
    row_b = np.array([rhs for _, rhs, _ in dense])
    row_le = np.array([sense == "<=" for _, _, sense in dense], dtype=bool)

    def feasible(X):
        """Which rows of X (one candidate point per row) satisfy every
        bound and every row, all checked at once."""
        act = X @ row_A.T
        rows_ok = np.where(row_le, act <= row_b + tol, act >= row_b - tol)
        return (np.all(X >= lower - tol, axis=1)
                & np.all(X <= upper + tol, axis=1)
                & np.all(rows_ok, axis=1))

    candidates = []
    for a, rhs, _ in dense:
        candidates.append((a, rhs))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        candidates.append((e, lower[j]))
        if upper[j] != lower[j]:
            candidates.append((e, upper[j]))

    cand_A = np.array([a for a, _ in candidates])
    cand_b = np.array([b for _, b in candidates])

    best_val, best_x = None, None
    combos = itertools.combinations(range(len(candidates)), n)
    while True:
        chunk = list(itertools.islice(combos, 20000))
        if not chunk:
            break
        idx = np.array(chunk)
        A = cand_A[idx]                      # (chunk, n, n)
        b = cand_b[idx]
        keep = np.abs(np.linalg.det(A)) > 1e-9
        if not keep.any():
            continue
        X = np.linalg.solve(A[keep], b[keep][:, :, None])[:, :, 0]
        # reject ill-conditioned systems the solver "solved" anyway
        resid = np.max(np.abs(np.einsum("kij,kj->ki", A[keep], X) - b[keep]), axis=1)
        X = X[np.isfinite(X).all(axis=1) & (resid <= 1e-6)]
        X = X[feasible(X)]
        if len(X):
            # argmin takes the first of equal values, as a strict < scan would
            k = int(np.argmin(X @ objective))
            v = objective @ X[k]
            if best_val is None or v < best_val:
                best_val, best_x = v, X[k].copy()
    if best_val is None:
        return "infeasible", None, None
    return "optimal", float(best_val), best_x


def clause_reduced_cost(features, X, y, mu, lam):
    """Reduced cost of a clause, straight from its definition: covered
    negatives, minus dual-weighted covered positives, plus lam times the
    clause complexity."""
    cover = np.ones(len(y), dtype=bool)
    for j in features:
        cover &= X[:, j] == 1
    pos = np.flatnonzero(y == 1)
    value = lam * (1 + len(set(features)))
    value += int(cover[y == 0].sum())
    mu_by_sample = np.zeros(len(y))
    mu_by_sample[pos] = mu
    value -= float(mu_by_sample[cover].sum())
    return value


def best_clause_by_enumeration(X, y, mu, lam, max_features):
    """Exhaustive pricing: minimum reduced cost over all clauses with at
    most max_features features, plus every negative one found.

    Returns (best_value, best_clause, negatives) where negatives is a list
    of (value, features) pairs.
    """
    d = X.shape[1]
    best_val, best_clause = math.inf, None
    negatives = []
    for size in range(1, max_features + 1):
        for combo in itertools.combinations(range(d), size):
            v = clause_reduced_cost(combo, X, y, mu, lam)
            if v < best_val:
                best_val, best_clause = v, combo
            if v < 0:
                negatives.append((v, combo))
    return best_val, best_clause, negatives


def dnf_loss_by_counting(clause_list, X, y):
    """Hamming training loss of a DNF clause selection, counted sample by
    sample with plain Python."""
    loss = 0
    for i in range(len(y)):
        hits = 0
        for clause in clause_list:
            if all(X[i, j] == 1 for j in clause):
                hits += 1
        if y[i] == 1 and hits == 0:
            loss += 1
        if y[i] == 0:
            loss += hits
    return loss


def best_ruleset_by_enumeration(X, y, budget, max_features):
    """Exhaustive master search: the minimum of
    (missed positives) + (per-clause negative hits, with multiplicity)
    over every set of distinct clauses whose total complexity fits the
    budget.  That is the IP objective, not the plain prediction error.

    Clauses are all feature subsets of size <= max_features.  The search is
    depth-first over the clause universe with two exact reductions: clauses
    dominated by a cheaper-or-equal clause with at least the positive
    coverage and at most the negative hits are dropped, and a branch is cut
    once its accumulated negative hits alone reach the incumbent.
    Returns (loss, clause_tuple).
    """
    d = X.shape[1]
    n = len(y)
    pos_mask = sum(1 << i for i in range(n) if y[i] == 1)

    raw = []
    for size in range(1, max_features + 1):
        for clause in itertools.combinations(range(d), size):
            mask = 0
            for i in range(n):
                if all(X[i, j] == 1 for j in clause):
                    mask |= 1 << i
            pm = mask & pos_mask
            nh = bin(mask & ~pos_mask).count("1")
            raw.append((clause, 1 + size, pm, nh))

    universe = []
    for a, (cl_a, cost_a, pm_a, nh_a) in enumerate(raw):
        dominated = False
        for b, (cl_b, cost_b, pm_b, nh_b) in enumerate(raw):
            if a == b:
                continue
            if (cost_b <= cost_a and nh_b <= nh_a
                    and pm_b & pm_a == pm_a
                    and (cost_b, nh_b, pm_b) != (cost_a, nh_a, pm_a)):
                dominated = True
                break
            # among exact ties keep only the first
            if b < a and (cost_b, nh_b, pm_b) == (cost_a, nh_a, pm_a):
                dominated = True
                break
        if not dominated:
            universe.append((cl_a, cost_a, pm_a, nh_a))
    universe.sort(key=lambda t: (t[3], -bin(t[2]).count("1"), t[1]))

    best = [bin(pos_mask).count("1"), ()]

    def rec(start, covered, neg_count, picked, remaining):
        loss = bin(pos_mask & ~covered).count("1") + neg_count
        if loss < best[0]:
            best[0] = loss
            best[1] = tuple(picked)
        if neg_count >= best[0]:
            return
        for k in range(start, len(universe)):
            clause, cost, pm, nh = universe[k]
            if cost > remaining or neg_count + nh >= best[0]:
                continue
            picked.append(clause)
            rec(k + 1, covered | pm, neg_count + nh, picked, remaining - cost)
            picked.pop()

    rec(0, 0, 0, [], budget)
    return best[0], best[1]


def best_selection_by_enumeration(pos_cover, neg_counts, complexities,
                                  budget):
    """Exhaustive integer stage: the minimum of (missed positives) +
    (summed negative counts) over every subset of the pool's clauses whose
    complexities sum to at most the budget.  Returns (objective, subset),
    the first best subset in order of size, then of index.  Sizes stop
    where even the cheapest clauses overspend the budget."""
    n_pos, K = np.asarray(pos_cover).shape
    cheapest = np.cumsum(np.sort(complexities))
    best = (n_pos, ())
    for size in range(1, K + 1):
        if cheapest[size - 1] > budget:
            break
        for subset in itertools.combinations(range(K), size):
            if sum(complexities[k] for k in subset) > budget:
                continue
            missed = sum(1 for i in range(n_pos)
                         if not any(pos_cover[i][k] for k in subset))
            obj = missed + sum(neg_counts[k] for k in subset)
            if obj < best[0]:
                best = (obj, subset)
    return best


def best_selection_by_milp(pos_cover, neg_counts, complexities, budget):
    """The integer stage as scipy's HiGHS `milp` solves it, for pools too
    large to enumerate: min sum_i xi_i + sum_k negcov_k w_k subject to
    xi_i + sum_{k covers i} w_k >= 1 (a row per positive, built one at a
    time) and sum_k complexity_k w_k <= budget, with xi in [0, 1] and w
    binary.  Returns (objective, subset), the objective counted on the
    subset milp chose, which must agree with milp's own value."""
    from scipy.optimize import LinearConstraint, milp

    pos_cover = np.asarray(pos_cover)
    n_pos, K = pos_cover.shape
    A = np.zeros((n_pos + 1, n_pos + K))
    for i in range(n_pos):
        A[i, i] = 1.0
        for k in range(K):
            if pos_cover[i, k]:
                A[i, n_pos + k] = 1.0
    A[n_pos, n_pos:] = complexities
    lower = np.append(np.ones(n_pos), -np.inf)
    upper = np.append(np.full(n_pos, np.inf), float(budget))
    res = milp(np.concatenate([np.ones(n_pos), neg_counts]),
               constraints=LinearConstraint(A, lower, upper),
               integrality=np.concatenate([np.zeros(n_pos), np.ones(K)]),
               bounds=(0, 1), options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    subset = tuple(int(k) for k in range(K) if res.x[n_pos + k] > 0.5)
    assert sum(complexities[k] for k in subset) <= budget
    missed = sum(1 for i in range(n_pos)
                 if not any(pos_cover[i][k] for k in subset))
    obj = missed + sum(neg_counts[k] for k in subset)
    assert abs(obj - res.fun) <= 1e-6, (obj, res.fun)
    return obj, subset


def unreduced_master(pos_cover, neg_counts, complexities, budget,
                     w_lower=None, w_upper=None):
    """The restricted master, or a node LP with its fixings held by the
    clause bounds alone, with every positive's row and every clause, built
    one positive at a time: (objective, lower, upper, rows).  Variables are
    the xi first, then the clauses; cover row i, as (indices, coeffs,
    sense, rhs), holds xi_i and every clause covering positive i, and the
    last row is the budget over the clauses."""
    pos_cover = np.asarray(pos_cover)
    n_pos, K = pos_cover.shape
    rows = []
    for i in range(n_pos):
        idx = [i] + [n_pos + k for k in range(K) if pos_cover[i, k]]
        rows.append((idx, [1.0] * len(idx), ">=", 1.0))
    rows.append(([n_pos + k for k in range(K)],
                 [float(c) for c in complexities], "<=", float(budget)))
    lower = np.zeros(K) if w_lower is None else np.asarray(w_lower, float)
    upper = np.ones(K) if w_upper is None else np.asarray(w_upper, float)
    return (np.concatenate([np.ones(n_pos), np.asarray(neg_counts, float)]),
            np.concatenate([np.zeros(n_pos), lower]),
            np.concatenate([np.ones(n_pos), upper]), rows)


def budget_by_inner_folds(table, train_rows, grid, form, cfg,
                          quantile_count=9, inner_folds=5):
    """Nested budget selection as a plain loop over inner folds.

    `train_rows` is split into k = min(inner_folds, smallest class count)
    stratified folds seeded by `cfg.seed`; inner fold f trains one budget
    sweep with `sweep_rows` at seed `cfg.seed + f` and is scored by
    `_fold_outcomes`.  The best mean held-out accuracy wins, ties going to
    the smaller budget.  A single budget, or k < 2, gives the smallest.
    """
    from boolrules.cv import _fold_outcomes, stratified_folds, sweep_rows

    grid = sorted(set(grid))
    train_rows = np.asarray(train_rows)
    y = np.asarray(table.y)[train_rows]
    k = min(inner_folds, min(int((y == c).sum()) for c in np.unique(y)))
    if len(grid) == 1 or k < 2:
        return grid[0]
    inner = [train_rows[p] for p in stratified_folds(y, k, cfg.seed)]

    def fit(rows, cfg):
        return sweep_rows(table, rows, grid, form, cfg, quantile_count)

    scores = {c: [] for c in grid}
    for f in range(k):
        for o in _fold_outcomes(table, inner, cfg, fit, f):
            scores[o.budget].append(o.test_accuracy)
    means = {c: float(np.mean(scores[c])) for c in grid}
    best = max(means.values())
    return min(c for c in grid if means[c] == best)


def kkt_residuals(objective, lower, upper, rows, x, duals):
    """Primal/dual feasibility and complementary slackness of the point x
    and the row duals (each in its row's own sense: >= 0 on a >= row,
    <= 0 on a <= row), recomputed one row at a time."""
    x, duals = np.asarray(x, dtype=float), np.asarray(duals, dtype=float)
    out = {
        "lower": float(np.max(lower - x, initial=0.0)),
        "upper": float(np.max(x - upper, initial=0.0)),
    }
    row = sign = cs_row = 0.0
    rc = np.asarray(objective, dtype=float).copy()
    for r, (idx, coeffs, sense, rhs) in enumerate(rows):
        activity = float(np.dot(coeffs, x[list(idx)]))
        slack = rhs - activity if sense == "<=" else activity - rhs
        row = max(row, -slack)
        y = duals[r]
        if (sense == "<=" and y > 0) or (sense == ">=" and y < 0):
            sign = max(sign, abs(y))
        cs_row = max(cs_row, abs(y * slack))
        rc[list(idx)] -= y * np.asarray(coeffs)
    stationarity = cs_var = 0.0
    for j in range(len(x)):
        at_lo = x[j] <= lower[j] + 1e-7
        at_hi = x[j] >= upper[j] - 1e-7
        if at_lo and not at_hi:
            cs_var = max(cs_var, max(0.0, -rc[j]))
        elif at_hi and not at_lo:
            cs_var = max(cs_var, max(0.0, rc[j]))
        elif not at_lo and not at_hi:
            stationarity = max(stationarity, abs(rc[j]))
    out.update({"row": row, "dual_sign": sign, "cs_row": cs_row,
                "cs_var": cs_var, "stationarity": stationarity})
    return out


def le_form(rows, n):
    """Dense (A, b) with every row turned to <=: a_r * sign_r, b_r * sign_r."""
    A = np.zeros((len(rows), n))
    b = np.zeros(len(rows))
    for r, (idx, coeffs, sense, rhs) in enumerate(rows):
        sign = 1.0 if sense == "<=" else -1.0
        for j, a in zip(idx, coeffs):
            A[r, j] += sign * a
        b[r] = sign * rhs
    return A, b


def highs_on_le_form(objective, lower, upper, rows):
    """HiGHS's own answer, from scipy.optimize.linprog on the dense <= form
    of `rows`: (status, value, x, duals), the duals per row in the row's
    own sense as `kkt_residuals` reads them, and (status, None, None,
    None) when the LP is infeasible."""
    from scipy.optimize import linprog

    A, b = le_form(rows, len(objective))
    res = linprog(objective, A_ub=A, b_ub=b,
                  bounds=np.column_stack([lower, upper]), method="highs-ds")
    if res.status == 2:
        return "infeasible", None, None, None
    assert res.status == 0, res.message
    sign = np.array([1.0 if sense == "<=" else -1.0
                     for _, _, sense, _ in rows])
    return "optimal", float(res.fun), res.x, sign * res.ineqlin.marginals


MISSING_CELLS = ("", "?")


def _finite_number(cell):
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def read_csv_table_by_cells(path, label_column, positive_label=None,
                            missing="drop"):
    """`dataset.read_csv_table`, one cell at a time: the TypedTable's
    fields as a dict, or ValueError with the same message."""
    if missing not in ("drop", "category"):
        raise ValueError(f"unknown missing-value policy {missing!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = []
        while not header:  # the first non-blank row
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
        numbered = []  # (file line, stripped cells) of every non-blank row
        for row in reader:
            if row:
                numbered.append((reader.line_num, [c.strip() for c in row]))
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not found in {path} "
                         f"(columns: {', '.join(header)})")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in header")
    for line, row in numbered:
        if len(row) != len(header):
            raise ValueError(f"{path}: row {line} has {len(row)} cells, "
                             f"expected {len(header)}")
    rows = [row for _, row in numbered]

    label_idx = header.index(label_column)
    feature_cols = [c for c in header if c != label_column]
    if not feature_cols:
        raise ValueError(f"{path}: no feature columns besides the label")
    if not rows:
        raise ValueError(f"{path}: no data rows")

    col_idx = {c: header.index(c) for c in feature_cols}
    numeric_cols = set()
    for c in feature_cols:
        seen = [row[col_idx[c]] for row in rows
                if row[col_idx[c]] not in MISSING_CELLS]
        if seen and all(_finite_number(x) is not None for x in seen):
            numeric_cols.add(c)

    kept = []
    for row in rows:
        if row[label_idx] in MISSING_CELLS:
            continue
        if any(row[col_idx[c]] in MISSING_CELLS
               and (missing == "drop" or c in numeric_cols)
               for c in feature_cols):
            continue
        kept.append(row)
    if not kept:
        raise ValueError(f"{path}: no rows left after dropping missing values")

    label_values = sorted({row[label_idx] for row in kept})
    if len(label_values) != 2:
        raise ValueError(f"{path}: label column {label_column!r} must have "
                         f"exactly two values, found {label_values}")
    if positive_label is None:
        positive_label = label_values[1]
    elif positive_label not in label_values:
        raise ValueError(f"positive label {positive_label!r} not among label "
                         f"values {label_values}")
    negative_label = next(v for v in label_values if v != positive_label)

    values = {}
    for c in feature_cols:
        i = col_idx[c]
        if c in numeric_cols:
            values[c] = np.array([float(row[i]) for row in kept])
        else:
            values[c] = np.array([row[i] if row[i] not in MISSING_CELLS
                                  else "?" for row in kept], dtype=object)
    return {
        "columns": feature_cols,
        "kinds": {c: "numeric" if c in numeric_cols else "categorical"
                  for c in feature_cols},
        "values": values,
        "y": np.array([1 if row[label_idx] == positive_label else 0
                       for row in kept], dtype=np.uint8),
        "label_column": label_column,
        "positive_label": positive_label,
        "negative_label": negative_label,
        "dropped_rows": len(rows) - len(kept),
    }


def read_columns_by_cells(header, rows, metas):
    """`dataset.read_columns`, one cell at a time, with the same
    ValueError messages."""
    needed = {m.column for m in metas}
    absent = sorted(needed - set(header))
    if absent:
        raise ValueError(f"input is missing columns required by the model: "
                         f"{', '.join(absent)}")
    repeated = sorted(c for c in needed if header.count(c) > 1)
    if repeated:
        raise ValueError(f"input repeats columns the model reads: "
                         f"{', '.join(repeated)}")
    for k, row in enumerate(rows):
        if len(row) < len(header):
            raise ValueError(f"data row {k + 1} has {len(row)} cells, "
                             f"fewer than the header's {len(header)}")
    numeric = {m.column for m in metas if m.kind.startswith("numeric")}
    columns = {}
    for c in sorted(needed):
        i = header.index(c)
        cells = [row[i].strip() for row in rows]
        if c in numeric:
            parsed = []
            for k, cell in enumerate(cells):
                if cell in MISSING_CELLS:
                    parsed.append(math.nan)
                    continue
                v = _finite_number(cell)
                if v is None:
                    raise ValueError(f"data row {k + 1}, column {c}: "
                                     f"{cell!r} is not a finite number")
                parsed.append(v)
            columns[c] = np.array(parsed, dtype=float)
        else:
            columns[c] = np.array([v if v not in MISSING_CELLS else "?"
                                   for v in cells], dtype=object)
    return columns


def numeric_features_by_column(values, column, quantile_count=9):
    """The threshold features of one numeric column as (column, kind,
    value) triples, from its own sort, quantiles and searchsorted: the
    per-column reference for `dataset.binarize_table`, which cuts every
    numeric column of a table from one block."""
    if quantile_count < 1:
        raise ValueError("quantile_count must be at least 1")
    probs = np.arange(1, quantile_count + 1) / (quantile_count + 1)
    values = np.sort(values)
    cuts = np.unique(np.quantile(values, probs))
    below, first = np.unique(np.searchsorted(values, cuts, side="right"),
                             return_index=True)
    return [(column, kind, float(t))
            for t in cuts[first[below < len(values)]]
            for kind in ("numeric-leq", "numeric-gt")]


def holds(kind, value, cell):
    """Whether one stored condition holds on one cell: a missing numeric
    cell is NaN and fails both threshold tests."""
    if kind == "numeric-leq":
        return cell <= value
    if kind == "numeric-gt":
        return cell > value
    if kind == "categorical-eq":
        return cell == value
    return cell != value
