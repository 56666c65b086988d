"""Stratified splitting, aggregation arithmetic, nested budget selection,
and the cross-validated sweep."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from boolrules.colgen import ColGenConfig
from boolrules.cv import (
    cross_validate,
    fold_dataset,
    mean_stderr,
    pareto_front,
    select_budget,
    stratified_folds,
    sweep_rows,
    sweep_validate,
)
from boolrules.dataset import DatasetError, binarize_table, read_csv_table

from _oracles import budget_by_inner_folds


def write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def color_table(path, n_pos=24, n_neg=16):
    """Perfectly separable by one categorical condition, plus a numeric
    noise column."""
    rng = np.random.default_rng(3)
    rows = []
    for i in range(n_pos + n_neg):
        color = "red" if i < n_pos else "blue"
        label = "pos" if i < n_pos else "neg"
        rows.append([color, f"{rng.random() * 10:.3f}", label])
    write_table(path, ["color", "size", "label"], rows)
    return read_csv_table(path, label_column="label")


def conjunction_table(path):
    """Positive iff color=red AND height=tall: a budget of 2 cannot express
    the conjunction, a budget of 6 can."""
    rows = []
    for color in ("red", "blue"):
        for height in ("tall", "short"):
            label = "pos" if (color, height) == ("red", "tall") else "neg"
            rows.extend([[color, height, label]] * 10)
    write_table(path, ["color", "height", "label"], rows)
    return read_csv_table(path, label_column="label")


def quick_config(C, **kw):
    kw.setdefault("time_limit", 30.0)
    kw.setdefault("pricing_time_limit", 10.0)
    return ColGenConfig(complexity_bound=C, **kw)


def test_stratified_fold_sizes_are_balanced():
    y = np.array([1] * 626 + [0] * 332)
    parts = stratified_folds(y, 10, seed=0)
    assert sorted(len(p) for p in parts) == [95, 95] + [96] * 8
    pos_counts = [int((y[p] == 1).sum()) for p in parts]
    neg_counts = [int((y[p] == 0).sum()) for p in parts]
    assert max(pos_counts) - min(pos_counts) <= 1
    assert max(neg_counts) - min(neg_counts) <= 1
    together = np.sort(np.concatenate(parts))
    assert (together == np.arange(958)).all()


def test_stratified_folds_deterministic():
    y = (np.arange(97) % 3 == 0).astype(int)
    a = stratified_folds(y, 4, seed=9)
    b = stratified_folds(y, 4, seed=9)
    assert all((p == q).all() for p, q in zip(a, b))


def test_stratified_folds_reject_tiny_class():
    y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(DatasetError, match="fewer than the 5"):
        stratified_folds(y, 5, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        stratified_folds(y, 1, seed=0)


def test_mean_stderr_matches_hand_computation():
    # spreadsheet check: mean of [.9, 1, .95, .85] is .925; squared
    # deviations sum to .0125, sample variance .0125/3, stderr = std/sqrt(4)
    mean, se = mean_stderr([0.9, 1.0, 0.95, 0.85])
    assert mean == pytest.approx(0.925, abs=1e-12)
    assert se == pytest.approx(0.03227486121839514, abs=1e-12)
    assert mean_stderr([0.7]) == (0.7, 0.0)
    assert mean_stderr([]) == (0.0, 0.0)


def test_pareto_front_dominance():
    assert pareto_front([(0.9, 10.0), (0.95, 20.0), (0.94, 30.0)]) == \
        [True, True, False]
    # identical points do not dominate each other
    assert pareto_front([(0.9, 5.0), (0.9, 5.0)]) == [True, True]
    assert pareto_front([(0.8, 7.0)]) == [True]
    # strictly better on one axis, equal on the other, still dominates
    assert pareto_front([(0.9, 5.0), (0.9, 4.0)]) == [False, True]


def test_cross_validation_on_separable_data(tmp_path):
    table = color_table(tmp_path / "toy.csv")
    out = cross_validate(table, [2, 4], folds=5, proto=quick_config(4, seed=1))
    assert [r.fold for r in out] == list(range(5))
    for r in out:
        assert r.test_accuracy == 1.0
        assert r.train_accuracy == 1.0
        assert r.budget == 2  # tie on accuracy goes to the smaller budget
        assert r.complexity == 2
        assert r.lower_bound is not None and r.lower_bound <= r.z_train
        assert r.seconds > 0


def test_cross_validation_deterministic_across_jobs(tmp_path):
    table = color_table(tmp_path / "toy.csv")
    key = lambda r: (r.fold, r.budget, r.test_accuracy, r.train_accuracy,
                     r.complexity, r.z_train, r.lower_bound)
    one = cross_validate(table, [2], folds=5, jobs=1,
                         proto=quick_config(2, seed=7))
    two = cross_validate(table, [2], folds=5, jobs=1,
                         proto=quick_config(2, seed=7))
    par = cross_validate(table, [2], folds=5, jobs=2,
                         proto=quick_config(2, seed=7))
    assert [key(r) for r in one] == [key(r) for r in two]
    assert [key(r) for r in one] == [key(r) for r in par]


def test_cnf_form_trains_through_negation(tmp_path):
    table = color_table(tmp_path / "toy.csv")
    out = cross_validate(table, [4], folds=5, form="cnf",
                         proto=quick_config(4, seed=2))
    assert all(r.test_accuracy == 1.0 for r in out)


def test_budget_selection_prefers_accurate_budget(tmp_path):
    table = conjunction_table(tmp_path / "conj.csv")
    rows = np.arange(table.n)
    picked = select_budget(table, rows, [2, 6], "dnf", quick_config(6))
    assert picked == 6


def noisy_table(path, seed, n=72, positives=None):
    """Label = (a AND b) OR c over three 0/1 columns, plus a numeric
    column, with 10% of the labels flipped.  `positives` keeps only that
    many positive rows."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, 3))
    y = (bits[:, 0] & bits[:, 1]) | bits[:, 2]
    y[rng.choice(n, size=n // 10, replace=False)] ^= 1
    keep = np.ones(n, dtype=bool)
    if positives is not None:
        keep[np.flatnonzero(y == 1)[positives:]] = False
    rows = [[*map(str, b), f"{rng.integers(0, 6)}", ("neg", "pos")[t]]
            for b, t, k in zip(bits.tolist(), y.tolist(), keep) if k]
    write_table(path, ["a", "b", "c", "level", "label"], rows)
    return read_csv_table(path, label_column="label")


@pytest.mark.parametrize("seed, form, grid, inner_folds, positives", [
    (0, "dnf", [2, 4, 8], 3, None),
    (1, "cnf", [2, 4, 8], 3, None),
    (2, "dnf", [3, 6], 2, None),
    (3, "cnf", [3, 5, 9], 4, None),
    # three positives among the training rows clamp 5 inner folds to 3
    (4, "dnf", [2, 4, 8], 5, 4),
    (5, "cnf", [6], 3, None),  # one budget: nothing to select
])
def test_select_budget_matches_inner_fold_reference(tmp_path, seed, form,
                                                    grid, inner_folds,
                                                    positives):
    table = noisy_table(tmp_path / "t.csv", seed, positives=positives)
    rng = np.random.default_rng(seed)
    pos, neg = np.flatnonzero(table.y == 1), np.flatnonzero(table.y == 0)
    # an outer fold's training rows: one positive and a third of the
    # negatives held out
    train = np.sort(np.concatenate(
        [pos[1:], rng.permutation(neg)[len(neg) // 3:]]))
    cfg = quick_config(max(grid), clause_bound=2, seed=seed)
    if positives is not None:
        assert (table.y[train] == 1).sum() == positives - 1 < inner_folds
    assert select_budget(table, train, grid, form, cfg, 9, inner_folds) \
        == budget_by_inner_folds(table, train, grid, form, cfg, 9,
                                 inner_folds)


def test_sweep_validate_over_rows_equals_the_sweep_of_those_rows(tmp_path):
    table = noisy_table(tmp_path / "t.csv", 6)
    rows = np.flatnonzero(np.arange(table.n) % 4 != 1)
    alone = replace(table, values={c: v[rows] for c, v in table.values.items()},
                    y=table.y[rows])
    key = lambda f: (f.budget, f.test_accuracy, f.train_accuracy,
                     f.complexity, f.z_train, f.lower_bound, f.z_rmlp,
                     f.optimal)
    over_rows, over_alone = (
        sweep_validate(t, [2, 4, 8], folds=3, proto=quick_config(8, seed=6),
                       rows=r) for t, r in ((table, rows), (alone, None)))
    assert [[key(f) for f in o.folds] for o in over_rows] == \
        [[key(f) for f in o.folds] for o in over_alone]


def test_sweep_validate_aggregates_and_flags(tmp_path):
    table = color_table(tmp_path / "toy.csv")
    out = sweep_validate(table, [4, 2], folds=5, proto=quick_config(4, seed=1))
    assert [o.budget for o in out] == [2, 4]
    for o in out:
        assert o.test_accuracy == 1.0
        assert o.test_stderr == 0.0
        assert o.complexity == 2.0
        assert len(o.folds) == 5
        assert all(f.budget == o.budget for f in o.folds)
        assert o.pareto  # equal points stay efficient together


def test_sweep_rows_record_selection_nodes(tmp_path):
    table = conjunction_table(tmp_path / "conj.csv")
    _, fitted = sweep_rows(table, np.arange(table.n), [2, 6], "dnf",
                           quick_config(6))
    nodes = [rs.training["selection_nodes"] for _, rs, _ in fitted]
    assert nodes == [res.mip_nodes for _, _, res in fitted]
    pivots = [rs.training["selection_pivots"] for _, rs, _ in fitted]
    assert pivots == [res.mip_pivots for _, _, res in fitted]
    # at C = 2 no single condition pays for itself, so that pool stays
    # empty and its selection needs no node; C = 6 searches at least a root
    assert nodes[-1] >= 1


def test_fold_dataset_reuses_training_conditions(tmp_path):
    rows = [["red", "1.0", "pos"], ["red", "2.0", "pos"],
            ["blue", "3.0", "neg"], ["blue", "4.0", "neg"],
            ["green", "2.5", "neg"]]
    write_table(tmp_path / "t.csv", ["color", "size", "label"], rows)
    table = read_csv_table(tmp_path / "t.csv", label_column="label")
    train = np.array([0, 1, 2, 3])  # green never seen in training
    ds_train = binarize_table(table, rows=train)
    ds_test = fold_dataset(table, np.array([4]), ds_train)
    assert ds_test.n == 1
    assert ds_test.features is ds_train.features
    for j, meta in enumerate(ds_train.features):
        if meta.kind == "categorical-eq":
            assert ds_test.X[0, j] == 0  # unseen category never matches
        elif meta.kind == "categorical-neq":
            assert ds_test.X[0, j] == 1
    ds_test.validate()
