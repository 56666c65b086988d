"""Acceptance checks, one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Criteria 2 and 3 need benchmark CSVs that are not shipped with
the repository; they skip with instructions when the files are absent (see
scripts/prepare_datasets.py).  Master-level runs from the other criteria
feed a shared log that criterion 6 audits for bound violations.
"""

import csv
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from boolrules.cli import main as cli_main
from boolrules.colgen import ColGenConfig, guarded_ceil, run_column_generation
from boolrules.cv import accuracy, cross_validate, fit_rows, sweep_validate
from boolrules.dataset import read_csv_table
from boolrules.lp_engine import solve_restricted_mlp
from boolrules.pricing import price_exact
from boolrules.ruleset import build_ruleset, predict, selection_loss

from _data import benchmark_csv, random_dataset, write_tictactoe_csv
from _oracles import (
    best_clause_by_enumeration,
    best_ruleset_by_enumeration,
    kkt_residuals,
    lp_minimum_by_vertex_enumeration,
    unreduced_master,
)

JOBS = min(4, os.cpu_count() or 1)

# every master-level run appends here; criterion 6 audits the lot
BOUND_LOG: list[dict] = []


def note_bounds(source, *, z_train, lower_bound, z_rmlp, optimal):
    BOUND_LOG.append({"source": source, "z_train": z_train,
                      "lower_bound": lower_bound, "z_rmlp": z_rmlp,
                      "optimal": optimal})


def note_result(source, res):
    note_bounds(source, z_train=res.objective, lower_bound=res.lower_bound,
                z_rmlp=res.z_rmlp, optimal=res.optimal)


def note_folds(source, outcomes):
    for o in outcomes:
        note_bounds(f"{source} fold {o.fold} C={o.budget}",
                    z_train=o.z_train, lower_bound=o.lower_bound,
                    z_rmlp=o.z_rmlp, optimal=o.optimal)


def skip_missing(name):
    pytest.skip(f"tests/data/{name} is not present; download the raw UCI "
                f"file and run scripts/prepare_datasets.py (see its help) "
                f"to create it")


# -- criterion 1: tic-tac-toe is learned exactly ---------------------------


def test_criterion_1_tictactoe_exact_reproduction(tmp_path):
    started = time.perf_counter()
    table = read_csv_table(write_tictactoe_csv(tmp_path / "tictactoe.csv"),
                           "class")
    assert table.n == 958

    cfg = ColGenConfig(complexity_bound=32, clause_bound=3)
    rs, res, train_ds = fit_rows(table, np.arange(table.n), "dnf", cfg)
    note_result("criterion-1 full train", res)
    assert accuracy(rs, train_ds) == 1.0
    assert rs.complexity == 32
    assert res.objective == 0

    outcomes = cross_validate(
        table, [32], folds=10, jobs=1,
        proto=ColGenConfig(complexity_bound=32, clause_bound=3,
                           time_limit=120.0, pricing_time_limit=30.0))
    note_folds("criterion-1 cv", outcomes)
    assert float(np.mean([o.test_accuracy for o in outcomes])) == 1.0

    assert time.perf_counter() - started < 300.0


# -- criterion 2: mushroom accuracy and compactness ------------------------


def test_criterion_2_mushroom_cross_validation():
    path = benchmark_csv("mushroom.csv")
    if path is None:
        skip_missing("mushroom.csv")
    started = time.perf_counter()
    table = read_csv_table(path, "class", missing="category")
    assert table.n == 8124

    outcomes = cross_validate(
        table, [20], folds=10, jobs=JOBS,
        proto=ColGenConfig(complexity_bound=20, clause_bound=3,
                           time_limit=120.0, pricing_time_limit=30.0))
    note_folds("criterion-2 cv", outcomes)
    mean_acc = float(np.mean([o.test_accuracy for o in outcomes]))
    mean_comp = float(np.mean([o.complexity for o in outcomes]))
    assert mean_acc >= 0.998
    assert mean_comp <= 20.0
    assert time.perf_counter() - started < 1200.0


# -- criterion 3: heart-disease budget sweep -------------------------------


def test_criterion_3_heart_disease_sweep():
    path = benchmark_csv("heart_cleveland.csv")
    if path is None:
        skip_missing("heart_cleveland.csv")
    started = time.perf_counter()
    table = read_csv_table(path, "disease", missing="category")
    assert table.n == 299

    points = sweep_validate(
        table, [5, 10, 15, 20, 30, 50], folds=10, jobs=JOBS,
        proto=ColGenConfig(complexity_bound=50, clause_bound=3,
                           time_limit=120.0, pricing_time_limit=30.0))
    for p in points:
        note_folds(f"criterion-3 sweep C={p.budget}", p.folds)
    assert max(p.test_accuracy for p in points) >= 0.76
    assert time.perf_counter() - started < 600.0


# -- criterion 4: exact pricing equals exhaustive enumeration --------------


def test_criterion_4_pricing_matches_enumeration():
    rng = np.random.default_rng(1204)
    lam_cycle = [0.0, 0.1, 1.0]
    for trial in range(100):
        n = int(rng.integers(1, 31))
        d = int(rng.integers(1, 16))
        density = rng.uniform(0.2, 0.8)
        X = (rng.random((n, d)) < density).astype(np.uint8)
        y = (rng.random(n) < 0.5).astype(np.int8)
        if y.sum() == 0:
            y[int(rng.integers(n))] = 1
        mu = rng.random(int(y.sum()))
        lam = lam_cycle[trial % 3]
        depth = int(rng.integers(1, 5))

        res = price_exact(X, y, mu, lam, depth_limit=depth)
        want, _, _ = best_clause_by_enumeration(X, y, mu, lam, depth)
        assert res.proven_optimal
        assert abs(res.best_value - want) <= 1e-9
        # the certified floor must never overshoot the true minimum
        assert res.certified_floor is not None
        assert res.certified_floor <= want + 1e-9


# -- criterion 5: certified training runs match brute force ----------------


def test_criterion_5_end_to_end_optimality():
    rng = np.random.default_rng(505)
    certified = 0
    for trial in range(50):
        ds = random_dataset(rng, n_max=25, k_max=5)
        C = int(rng.integers(2, 9))
        D = int(rng.integers(1, 4))
        cfg = ColGenConfig(complexity_bound=C, clause_bound=D, seed=trial,
                           time_limit=60.0, pricing_time_limit=10.0)
        res = run_column_generation(ds, cfg)
        note_result(f"criterion-5 trial {trial}", res)

        opt, _ = best_ruleset_by_enumeration(ds.X, ds.y, C, D)
        assert selection_loss(res.clauses, ds) == res.objective
        if res.lower_bound is not None:
            assert res.lower_bound <= opt
        if res.optimal:
            certified += 1
            assert res.objective == opt
    # the promise above is vacuous unless the flag actually fires
    assert certified >= 35


# -- criterion 6: every certificate is a true floor ------------------------


def test_criterion_6_bound_validity():
    if not BOUND_LOG:
        # running this test alone: generate a small batch to audit
        rng = np.random.default_rng(606)
        for trial in range(10):
            ds = random_dataset(rng, n_max=20, k_max=4)
            res = run_column_generation(
                ds, ColGenConfig(complexity_bound=6, clause_bound=2,
                                 seed=trial, time_limit=30.0,
                                 pricing_time_limit=5.0))
            note_result(f"criterion-6 standalone {trial}", res)

    violations = []
    for e in BOUND_LOG:
        if e["lower_bound"] is not None and e["lower_bound"] > e["z_train"]:
            violations.append(f"{e['source']}: bound {e['lower_bound']} "
                              f"above loss {e['z_train']}")
        if e["optimal"] and guarded_ceil(e["z_rmlp"]) != e["z_train"]:
            violations.append(f"{e['source']}: flagged optimal but "
                              f"ceil({e['z_rmlp']}) != {e['z_train']}")
    assert violations == []
    assert any(e["lower_bound"] is not None for e in BOUND_LOG)
    assert any(e["optimal"] for e in BOUND_LOG)


# -- criterion 7: LP solutions carry valid certificates --------------------


def random_master_or_node(rng):
    """A restricted master over at most 5 positives and 5 clauses whose
    cover rows repeat a few patterns, as (cover, neg_counts, complexities,
    budget, w_lower, w_upper).  Most draws fix clauses at random, to 0 or
    to 1, making a branch-and-bound node; the rest are column-generation
    masters with every clause free."""
    n_pos, K = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    patterns = rng.random((int(rng.integers(1, 4)), K)) < 0.4
    cover = patterns[rng.integers(len(patterns), size=n_pos)].astype(float)
    negc = rng.integers(0, 4, size=K).astype(float)
    comp = rng.integers(2, 5, size=K).astype(float)
    budget = float(rng.integers(1, 13))
    # free, fixed to 0, fixed to 1
    fix = rng.integers(0, 3, size=K) if rng.random() < 0.7 else np.zeros(K)

    # the reference check enumerates candidate vertices among the rows and
    # the bounds (one for a fixed clause), so fix clauses or drop positives
    # until that enumeration stays affordable
    def candidates():
        return 3 * len(cover) + 1 + int(np.sum(np.where(fix == 0, 2, 1)))

    while math.comb(candidates(), len(cover) + K) > 150_000:
        free = np.flatnonzero(fix == 0)
        if len(cover) > 1 and (free.size == 0 or rng.random() < 0.5):
            cover = np.delete(cover, int(rng.integers(len(cover))), axis=0)
        else:
            fix[free[rng.integers(free.size)]] = rng.integers(1, 3)
    return (cover, negc, comp, budget, (fix == 2).astype(float),
            (fix != 1).astype(float))


def test_criterion_7_lp_engine_certificates():
    rng = np.random.default_rng(707)
    solved = infeasible = 0
    for _ in range(500):
        node = random_master_or_node(rng)
        lp = unreduced_master(*node)
        ostat, oval, _ = lp_minimum_by_vertex_enumeration(*lp)
        cover, negc, comp, budget, w_lower, w_upper = node
        ms = solve_restricted_mlp(cover, negc, comp, budget,
                                  w_lower=w_lower, w_upper=w_upper)
        if ostat == "infeasible":
            assert ms.status == "infeasible"
            infeasible += 1
            continue
        assert ms.status == "optimal"
        assert abs(ms.objective - oval) <= 1e-6
        # the point (xi, w) and the duals (mu, -lam) on the unreduced LP
        worst = kkt_residuals(*lp, np.concatenate([ms.xi, ms.w]),
                              np.append(ms.mu, -ms.lam))
        assert max(worst.values()) <= 1e-7, worst
        solved += 1
    assert solved + infeasible == 500
    # make sure the optimality side of the check did the heavy lifting and
    # was not crowded out by easy infeasibility verdicts
    assert solved >= 350 and infeasible >= 1


# -- criterion 8: the two routes to a CNF model agree ----------------------


def test_criterion_8_cnf_duality():
    rng = np.random.default_rng(808)
    for trial in range(20):
        ds = random_dataset(rng, n_max=20, k_max=5)
        neg = ds.negated()
        cfg = ColGenConfig(complexity_bound=6, clause_bound=2, seed=trial,
                           time_limit=30.0, pricing_time_limit=5.0)

        # route one: the package's CNF path (train on the negation, store
        # conditions translated back to the original orientation)
        res_cnf = run_column_generation(neg, cfg)
        rs_cnf = build_ruleset(res_cnf.clauses, ds, "cnf")
        note_result(f"criterion-8 trial {trial}", res_cnf)

        # route two: by hand, using the same machinery as a plain DNF
        # learner on the negated dataset and flipping its verdicts
        res_dnf = run_column_generation(neg, cfg)
        rs_dnf = build_ruleset(res_dnf.clauses, neg, "dnf")

        assert np.array_equal(predict(rs_cnf, ds),
                              1 - predict(rs_dnf, neg))
        assert rs_cnf.complexity == rs_dnf.complexity


# -- criterion 9: repeated runs are byte-identical -------------------------


def test_criterion_9_reproducible_metrics(tmp_path):
    data = write_tictactoe_csv(tmp_path / "tictactoe.csv")
    runner = CliRunner()
    paths = []
    for i in (1, 2):
        metrics = tmp_path / f"metrics{i}.csv"
        result = runner.invoke(cli_main, [
            "cv", "--input", str(data), "--label-column", "class",
            "--c-grid", "32", "--clause-bound", "3", "--folds", "10",
            "--seed", "7", "--jobs", "1", "--metrics", str(metrics)])
        assert result.exit_code == 0, result.output
        paths.append(metrics)
    first, second = (p.read_bytes() for p in paths)
    assert first == second

    with open(paths[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    fold_rows = [r for r in rows if r["fold"].isdigit()]
    assert len(fold_rows) == 10
    for r in fold_rows:
        if r["lower_bound"] != "":
            note_bounds(f"criterion-9 fold {r['fold']}",
                        z_train=int(r["z_train"]),
                        lower_bound=int(r["lower_bound"]),
                        z_rmlp=None, optimal=False)
            assert int(r["lower_bound"]) <= int(r["z_train"])
