"""Cross-validation: stratified folds, per-fold binarization, nested budget
selection, and the out-of-fold budget sweep.

Everything here works on a TypedTable so each training fold can derive its
own thresholds and category sets; held-out rows are binarized with the
training fold's stored conditions, never their own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .colgen import ColGenConfig, run_column_generation, sweep_complexity
from .dataset import (
    BinaryDataset,
    DatasetError,
    TypedTable,
    binarize_table,
    build_matrix,
)
from .ruleset import RuleSet, build_ruleset, predict


def stratified_folds(y, folds: int, seed: int) -> list[np.ndarray]:
    """Split sample indices into `folds` stratified parts.

    Each class is shuffled separately and dealt round-robin; the dealing
    cursor carries over between classes so total fold sizes stay within one
    of each other, as do the per-class counts.
    """
    y = np.asarray(y)
    if folds < 2:
        raise ValueError("folds must be at least 2")
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=np.int64)
    cursor = 0
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        if len(members) < folds:
            raise DatasetError(
                f"class {cls} has only {len(members)} samples, "
                f"fewer than the {folds} requested folds")
        members = rng.permutation(members)
        for i, row in enumerate(members):
            assignment[row] = (cursor + i) % folds
        cursor = (cursor + len(members)) % folds
    return [np.flatnonzero(assignment == f) for f in range(folds)]


def mean_stderr(values) -> tuple[float, float]:
    """Mean and standard error (sample stddev over the square root of the
    count); a single value has standard error zero."""
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return float(arr.mean()) if arr.size else 0.0, 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))


def fold_dataset(table: TypedTable, rows: np.ndarray,
                 train_ds: BinaryDataset) -> BinaryDataset:
    """Binarize held-out rows with the training fold's stored conditions."""
    X = build_matrix(table, rows, train_ds.features)
    partner = None if train_ds.partner is None else train_ds.partner.copy()
    return BinaryDataset(
        X=X, y=table.y[np.asarray(rows)],
        features=train_ds.features, partner=partner,
        positive_label=train_ds.positive_label,
        negative_label=train_ds.negative_label)


def accuracy(rs: RuleSet, ds: BinaryDataset) -> float:
    if ds.n == 0:
        return 0.0
    return float((predict(rs, ds) == ds.y).mean())


def _ruleset(res, work: BinaryDataset, train_ds: BinaryDataset, form: str,
             seed: int) -> RuleSet:
    """The model of one colgen result on `work` (the training dataset, or
    its negation for CNF), with its training record."""
    training = {
        "complexity_bound": res.complexity_bound,
        "objective": res.objective,
        "lower_bound": res.lower_bound,
        "master_lp_value": res.z_rmlp,
        "optimal": res.optimal,
        "converged": res.rmlp_converged,
        "selection_optimal": res.mip_optimal,
        "selection_nodes": res.mip_nodes,
        "selection_pivots": res.mip_pivots,
        "iterations": res.iterations,
        "pool_size": res.pool_size,
        "seed": seed,
    }
    return build_ruleset(res.clauses, work, form, training=training,
                         original=train_ds if form == "cnf" else None)


def fit_rows(table: TypedTable, rows: np.ndarray, form: str,
             cfg: ColGenConfig, quantile_count: int = 9):
    """Train one model on a row subset.

    Returns (ruleset, colgen result, training dataset).  CNF models are
    learned by running the DNF machinery on the negated dataset; the stored
    conditions are translated back to the original orientation.
    """
    train_ds = binarize_table(table, rows=np.asarray(rows),
                              quantile_count=quantile_count)
    work = train_ds.negated() if form == "cnf" else train_ds
    res = run_column_generation(work, cfg)
    return _ruleset(res, work, train_ds, form, cfg.seed), res, train_ds


def sweep_rows(table: TypedTable, rows: np.ndarray, budgets, form: str,
               cfg: ColGenConfig, quantile_count: int = 9):
    """Train one budget sweep on a row subset, sharing the clause pool.

    Returns (training dataset, [(budget, ruleset, colgen result), ...]).
    """
    train_ds = binarize_table(table, rows=np.asarray(rows),
                              quantile_count=quantile_count)
    work = train_ds.negated() if form == "cnf" else train_ds
    return train_ds, [
        (res.complexity_bound, _ruleset(res, work, train_ds, form, cfg.seed),
         res) for res in sweep_complexity(work, budgets, cfg)]


def select_budget(table: TypedTable, train_rows: np.ndarray, c_grid, form: str,
                  cfg: ColGenConfig, quantile_count: int = 9,
                  inner_folds: int = 5) -> int:
    """Pick a complexity budget by inner cross-validation.

    Each inner fold trains one budget sweep on the rest of `train_rows` and
    is scored by `_fold_outcomes`, like an outer fold.  Mean validation
    accuracy decides; ties go to the smaller budget.  A single-candidate
    grid is returned as is, and a training split too small to stratify
    falls back to the smallest candidate.
    """
    grid = sorted(set(int(c) for c in c_grid))
    if not grid:
        raise ValueError("the budget grid is empty")
    if len(grid) == 1:
        return grid[0]
    train_rows = np.asarray(train_rows)
    y_sub = np.asarray(table.y)[train_rows]
    counts = np.bincount(y_sub, minlength=2)
    k = min(inner_folds, int(counts[counts > 0].min()))
    if k < 2:
        return grid[0]

    inner = [train_rows[p] for p in stratified_folds(y_sub, k, cfg.seed)]
    scores = {c: [] for c in grid}
    for f in range(k):
        for o in _fold_outcomes(table, inner, f, lambda rows: sweep_rows(
                table, rows, grid, form, cfg, quantile_count)):
            scores[o.budget].append(o.test_accuracy)
    return max(grid, key=lambda c: (float(np.mean(scores[c])), -c))


@dataclass
class FoldOutcome:
    """One cross-validation fold's metrics row."""

    fold: int
    budget: int
    test_accuracy: float
    train_accuracy: float
    complexity: int
    z_train: int
    lower_bound: int | None
    z_rmlp: float
    optimal: bool
    seconds: float


def _fold_outcomes(table: TypedTable, fold_parts, fold: int,
                   fit) -> list[FoldOutcome]:
    """Hold out one fold, train on the rest with `fit(train_rows)`, which
    returns (training dataset, [(budget, ruleset, colgen result), ...]),
    and score every fitted model on both sides of the split."""
    t0 = time.perf_counter()
    test_rows = fold_parts[fold]
    train_rows = np.concatenate(
        [fold_parts[f] for f in range(len(fold_parts)) if f != fold])
    train_rows.sort()
    train_ds, fitted = fit(train_rows)
    ds_test = fold_dataset(table, test_rows, train_ds)
    seconds = time.perf_counter() - t0
    return [FoldOutcome(
        fold=fold,
        budget=C,
        test_accuracy=accuracy(rs, ds_test),
        train_accuracy=accuracy(rs, train_ds),
        complexity=rs.complexity,
        z_train=res.objective,
        lower_bound=res.lower_bound,
        z_rmlp=res.z_rmlp,
        optimal=res.optimal,
        seconds=seconds,
    ) for C, rs, res in fitted]


def _run_cv_fold(args):
    (table, fold_parts, fold, c_grid, form, proto, quantile_count, seed,
     inner_folds) = args
    cfg = replace(proto, seed=seed + fold)

    def fit(train_rows):
        C = select_budget(table, train_rows, c_grid, form, cfg,
                          quantile_count, inner_folds)
        rs, res, train_ds = fit_rows(table, train_rows, form,
                                     replace(cfg, complexity_bound=C),
                                     quantile_count)
        return train_ds, [(C, rs, res)]

    outcome, = _fold_outcomes(table, fold_parts, fold, fit)
    return outcome


def _map_folds(worker, arg_list, jobs: int):
    if jobs <= 1 or len(arg_list) <= 1:
        return [worker(a) for a in arg_list]
    # imported here, so a sequential run never loads the process machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(arg_list))) as pool:
        return list(pool.map(worker, arg_list))


def cross_validate(table: TypedTable, c_grid, form: str = "dnf",
                   folds: int = 10, seed: int = 0, jobs: int = 1,
                   quantile_count: int = 9,
                   inner_folds: int = 5,
                   proto: ColGenConfig | None = None) -> list[FoldOutcome]:
    """Outer stratified cross-validation with nested budget selection.

    Per fold: pick a budget from `c_grid` by inner CV on the training rows
    (`inner_folds` folds, at least 2), retrain on all of them with it, and
    score the held-out rows.  Fold results are deterministic for a fixed
    seed regardless of `jobs`; only the measured seconds vary.
    """
    grid = sorted(set(int(c) for c in c_grid))
    if not grid:
        raise ValueError("the budget grid is empty")
    if inner_folds < 2:
        raise ValueError("inner folds must be at least 2")
    if proto is None:
        proto = ColGenConfig(complexity_bound=grid[-1])
    parts = stratified_folds(table.y, folds, seed)
    args = [(table, parts, f, grid, form, proto, quantile_count, seed,
             inner_folds) for f in range(folds)]
    return _map_folds(_run_cv_fold, args, jobs)


@dataclass
class SweepOutcome:
    """Aggregated metrics for one budget across all folds."""

    budget: int
    test_accuracy: float
    test_stderr: float
    train_accuracy: float
    complexity: float
    complexity_stderr: float
    pareto: bool
    folds: list[FoldOutcome]


def pareto_front(points) -> list[bool]:
    """Efficiency flags for (accuracy, complexity) pairs: a point is kept
    when no other has accuracy at least as high and complexity at most as
    low, with one of the two strict."""
    flags = []
    for i, (acc_i, comp_i) in enumerate(points):
        dominated = any(
            acc_j >= acc_i and comp_j <= comp_i
            and (acc_j > acc_i or comp_j < comp_i)
            for j, (acc_j, comp_j) in enumerate(points) if j != i)
        flags.append(not dominated)
    return flags


def _run_sweep_fold(args):
    table, fold_parts, fold, budgets, form, proto, quantile_count, seed = args
    cfg = replace(proto, seed=seed + fold)
    return _fold_outcomes(
        table, fold_parts, fold,
        lambda rows: sweep_rows(table, rows, budgets, form, cfg,
                                quantile_count))


def sweep_validate(table: TypedTable, budgets, form: str = "dnf",
                   folds: int = 10, seed: int = 0, jobs: int = 1,
                   quantile_count: int = 9,
                   proto: ColGenConfig | None = None) -> list[SweepOutcome]:
    """Cross-validated budget sweep.

    Every fold trains the whole ascending budget list on its training rows
    with a shared clause pool, then scores each budget's model on the
    held-out rows.  Results are aggregated per budget and marked for Pareto
    efficiency on (mean test accuracy, mean complexity).
    """
    budgets = sorted(set(int(b) for b in budgets))
    if not budgets:
        raise ValueError("the budget list is empty")
    if proto is None:
        proto = ColGenConfig(complexity_bound=budgets[-1])
    parts = stratified_folds(table.y, folds, seed)
    args = [(table, parts, f, budgets, form, proto, quantile_count, seed)
            for f in range(folds)]
    per_fold = _map_folds(_run_sweep_fold, args, jobs)

    outcomes = []
    for i, C in enumerate(budgets):
        rows = [fold_rows[i] for fold_rows in per_fold]
        acc_mean, acc_se = mean_stderr([r.test_accuracy for r in rows])
        train_mean, _ = mean_stderr([r.train_accuracy for r in rows])
        comp_mean, comp_se = mean_stderr([r.complexity for r in rows])
        outcomes.append(SweepOutcome(
            budget=C,
            test_accuracy=acc_mean,
            test_stderr=acc_se,
            train_accuracy=train_mean,
            complexity=comp_mean,
            complexity_stderr=comp_se,
            pareto=False,
            folds=rows,
        ))
    flags = pareto_front([(o.test_accuracy, o.complexity) for o in outcomes])
    for o, flag in zip(outcomes, flags):
        o.pareto = flag
    return outcomes
