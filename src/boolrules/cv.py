"""Cross-validation: stratified folds, per-fold binarization, nested budget
selection, and the out-of-fold budget sweep.

Everything here works on a TypedTable so each training fold can derive its
own thresholds and category sets; held-out rows are binarized with the
training fold's stored conditions, never their own.  There is one fold
loop, `_fold_outcomes` mapped over fold indices; the folds are drawn with
`proto.seed`, and fold f trains with seed `proto.seed + f`.
`sweep_validate` runs it over a budget sweep, and nested budget selection
is that same sweep over an outer fold's training rows: `select_budget`
keeps its most accurate budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial

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
        assignment[members] = (cursor + np.arange(len(members))) % folds
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


def _ruleset(res, train_ds: BinaryDataset, form: str, seed: int) -> RuleSet:
    """The model of one colgen result trained on `train_ds` (on its
    negation for CNF), with its training record."""
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
    return build_ruleset(res.clauses, train_ds, form, training=training)


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
    return _ruleset(res, train_ds, form, cfg.seed), res, train_ds


def sweep_rows(table: TypedTable, rows: np.ndarray, budgets, form: str,
               cfg: ColGenConfig, quantile_count: int = 9):
    """Train one budget sweep on a row subset, sharing the clause pool.

    Returns (training dataset, [(budget, ruleset, colgen result), ...]).
    """
    train_ds = binarize_table(table, rows=np.asarray(rows),
                              quantile_count=quantile_count)
    work = train_ds.negated() if form == "cnf" else train_ds
    return train_ds, [
        (res.complexity_bound, _ruleset(res, train_ds, form, cfg.seed), res)
        for res in sweep_complexity(work, budgets, cfg)]


def _budgets(values) -> list[int]:
    """The distinct budgets of a grid, ascending; an empty grid is an error."""
    budgets = sorted(set(int(c) for c in values))
    if not budgets:
        raise ValueError("the budget grid is empty")
    return budgets


def select_budget(table: TypedTable, train_rows: np.ndarray, c_grid, form: str,
                  cfg: ColGenConfig, quantile_count: int = 9,
                  inner_folds: int = 5) -> int:
    """Pick a complexity budget by nested cross-validation.

    The inner folds are a `sweep_validate` over `train_rows`, seeded by
    `cfg.seed`; its most accurate budget wins, ties going to the smaller
    one.  A single-candidate grid is returned as is, and a training split
    too small to stratify falls back to the smallest candidate.
    """
    grid = _budgets(c_grid)
    counts = np.bincount(table.y[train_rows], minlength=2)
    k = min(inner_folds, int(counts[counts > 0].min()))
    if len(grid) == 1 or k < 2:
        return grid[0]
    points = sweep_validate(table, grid, form, folds=k,
                            quantile_count=quantile_count, proto=cfg,
                            rows=train_rows)
    return max(points, key=lambda p: (p.test_accuracy, -p.budget)).budget


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


def _fold_outcomes(table: TypedTable, fold_parts, proto: ColGenConfig,
                   fit, fold: int) -> list[FoldOutcome]:
    """Hold out one fold, train on the rest with `fit(train_rows, cfg=...)`
    at `proto` seeded `proto.seed + fold`, which returns (training dataset,
    [(budget, ruleset, colgen result), ...]), and score every fitted model
    on both sides of the split."""
    t0 = time.perf_counter()
    test_rows = fold_parts[fold]
    train_rows = np.concatenate(
        [fold_parts[f] for f in range(len(fold_parts)) if f != fold])
    train_rows.sort()
    train_ds, fitted = fit(train_rows,
                           cfg=replace(proto, seed=proto.seed + fold))
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


def _map_folds(worker, folds: int, jobs: int):
    """`worker(f)` for every fold index f, in order."""
    if jobs <= 1:
        return [worker(f) for f in range(folds)]
    # imported here, so a sequential run never loads the process machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, folds)) as pool:
        return list(pool.map(worker, range(folds)))


def _nested_fit(table: TypedTable, rows: np.ndarray, grid, form: str,
                quantile_count: int, inner_folds: int, cfg: ColGenConfig):
    """Select a budget on `rows`, then train on all of them with it."""
    C = select_budget(table, rows, grid, form, cfg, quantile_count,
                      inner_folds)
    rs, res, train_ds = fit_rows(table, rows, form,
                                 replace(cfg, complexity_bound=C),
                                 quantile_count)
    return train_ds, [(C, rs, res)]


def cross_validate(table: TypedTable, c_grid, form: str = "dnf",
                   folds: int = 10, jobs: int = 1,
                   quantile_count: int = 9,
                   inner_folds: int = 5,
                   proto: ColGenConfig | None = None) -> list[FoldOutcome]:
    """Outer stratified cross-validation with nested budget selection.

    Per fold: pick a budget from `c_grid` by inner CV on the training rows
    (`inner_folds` folds, at least 2), retrain on all of them with it, and
    score the held-out rows.  The folds and their training seeds come from
    `proto.seed`.  Fold results are deterministic for a fixed seed
    regardless of `jobs`; only the measured seconds vary.
    """
    grid = _budgets(c_grid)
    if inner_folds < 2:
        raise ValueError("inner folds must be at least 2")
    if proto is None:
        proto = ColGenConfig(complexity_bound=grid[-1])
    parts = stratified_folds(table.y, folds, proto.seed)
    fit = partial(_nested_fit, table, grid=grid, form=form,
                  quantile_count=quantile_count, inner_folds=inner_folds)
    worker = partial(_fold_outcomes, table, parts, proto, fit)
    return [outcome for outcome, in _map_folds(worker, folds, jobs)]


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


def sweep_validate(table: TypedTable, budgets, form: str = "dnf",
                   folds: int = 10, jobs: int = 1,
                   quantile_count: int = 9,
                   proto: ColGenConfig | None = None,
                   rows: np.ndarray | None = None) -> list[SweepOutcome]:
    """Cross-validated budget sweep over `rows` (default: all rows).

    Every fold trains the whole ascending budget list on its training rows
    with a shared clause pool, then scores each budget's model on the
    held-out rows.  The folds and their training seeds come from
    `proto.seed`.  Results are aggregated per budget and marked for Pareto
    efficiency on (mean test accuracy, mean complexity).
    """
    budgets = _budgets(budgets)
    if proto is None:
        proto = ColGenConfig(complexity_bound=budgets[-1])
    rows = np.arange(table.n) if rows is None else np.asarray(rows)
    parts = [rows[p] for p in stratified_folds(table.y[rows], folds,
                                                proto.seed)]
    fit = partial(sweep_rows, table, budgets=budgets, form=form,
                  quantile_count=quantile_count)
    per_fold = _map_folds(
        partial(_fold_outcomes, table, parts, proto, fit), folds, jobs)

    outcomes = []
    for i, C in enumerate(budgets):
        at_C = [fold_rows[i] for fold_rows in per_fold]
        acc_mean, acc_se = mean_stderr([r.test_accuracy for r in at_C])
        train_mean, _ = mean_stderr([r.train_accuracy for r in at_C])
        comp_mean, comp_se = mean_stderr([r.complexity for r in at_C])
        outcomes.append(SweepOutcome(
            budget=C,
            test_accuracy=acc_mean,
            test_stderr=acc_se,
            train_accuracy=train_mean,
            complexity=comp_mean,
            complexity_stderr=comp_se,
            pareto=False,
            folds=at_C,
        ))
    flags = pareto_front([(o.test_accuracy, o.complexity) for o in outcomes])
    for o, flag in zip(outcomes, flags):
        o.pareto = flag
    return outcomes
