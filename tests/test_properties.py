"""Property tests: the certificate holds on random instances in both pricing
regimes, for single fits and for budget sweeps, checked against the
enumeration oracle, with samples small enough to drop rows and features;
every master and node LP answer satisfies the KKT
conditions of the unreduced LP and attains its enumerated value; a
master's duals are those HiGHS gives the per-row build; the closed-form
answer for an empty pool is HiGHS's own; the integer stage proves the
enumerated best selection of a clause pool, from a given root or its own,
and on pools too large to enumerate, the best selection HiGHS's `milp`
finds; so does every proven selection of a sweep over such instances,
from padded roots and after growths that stopped unconverged; binarizing
a table cuts each numeric column as its own sort and quantiles do; a rule
set predicts the same on raw cells, on binarized rows and after a JSON
round trip; a CNF model is the DNF model of the negated data,
complemented; and CSV ingest reads what the cell-by-cell oracle reads, or
fails with the same message.

Hypothesis runs derandomized and without deadlines, so every run of the
suite draws the same instances."""

import csv
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boolrules import colgen
from boolrules.colgen import (
    ColGenConfig,
    guarded_ceil,
    run_column_generation,
    sweep_complexity,
)
from boolrules.cv import fit_rows
from boolrules.dataset import (
    BinaryDataset,
    DatasetError,
    FeatureMeta,
    TypedTable,
    binarize_table,
    build_matrix,
    evaluate_conditions,
    read_columns,
    read_csv_table,
)
from boolrules.lp_engine import solve_restricted_mlp
from boolrules.ruleset import Clause, RuleSet, build_ruleset, predict, \
    selection_loss

from _data import force_sampling, make_binary_dataset, numeric_column_features
from _oracles import (
    best_ruleset_by_enumeration,
    best_selection_by_enumeration,
    best_selection_by_milp,
    highs_on_le_form,
    holds,
    kkt_residuals,
    lp_minimum_by_vertex_enumeration,
    numeric_features_by_column,
    read_columns_by_cells,
    read_csv_table_by_cells,
    unreduced_master,
)


@st.composite
def instances(draw, rows=(2, 14), columns=(1, 3)):
    """By default at most 14 rows and 6 features (3 raw columns and their
    complements), with at least one positive."""
    n = draw(st.integers(*rows))
    k = draw(st.integers(*columns))
    cells = draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    y = np.array(labels, dtype=np.uint8)
    y[0] = 1
    X_half = np.array(cells, dtype=np.uint8).reshape(n, k)
    return make_binary_dataset(X_half, y)


# samples of 1-16 rows and 1-64 zero entries plus features: instances have
# at most 14 rows and 6 features, so most sampling calls drop some of each
SAMPLE_SIZES = {"sample_target": st.integers(1, 16),
                "nnz_cap": st.integers(1, 64)}


def assert_samples_dropped_rows_and_features(drops):
    """Some sampling calls met the oracle on fewer rows, and some on fewer
    features, than the instance has."""
    assert any(rows for rows, _ in drops)
    assert any(feats for _, feats in drops)


def test_certificate_brackets_the_enumerated_optimum():
    drops = []

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=150)
    @given(ds=instances(), C=st.integers(2, 8), D=st.integers(1, 3),
           seed=st.integers(0, 3), **SAMPLE_SIZES)
    def check(ds, C, D, seed, sample_target, nnz_cap):
        opt, _ = best_ruleset_by_enumeration(ds.X, ds.y, C, min(D, ds.d))
        cfg = ColGenConfig(complexity_bound=C, clause_bound=D,
                           time_limit=60.0, pricing_time_limit=10.0,
                           seed=seed)
        for sampled in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if sampled:
                    force_sampling(mp, sample_target, nnz_cap, drops)
                res = run_column_generation(ds, cfg)
            assert res.regime == ("large" if sampled else "small")
            assert selection_loss(res.clauses, ds) == res.objective
            # every loop ends on a full-data exact search, which certifies
            assert res.lower_bound is not None
            assert res.lower_bound <= opt <= res.objective
            if res.optimal:
                assert res.lower_bound == opt == res.objective
            # a priced-out master's own value, rounded up, is the bound
            if res.rmlp_converged:
                assert res.lower_bound == guarded_ceil(res.z_rmlp)

    check()
    assert_samples_dropped_rows_and_features(drops)


def record_selections(mp):
    """Record every integer solve as (pool arrays, budget, MIPResult)."""
    real = colgen.solve_restricted_mip
    selections = []

    def recording(pos_cover, neg_counts, complexities, budget, **kw):
        out = real(pos_cover, neg_counts, complexities, budget, **kw)
        selections.append(((pos_cover, neg_counts, complexities), budget, out))
        return out

    mp.setattr(colgen, "solve_restricted_mip", recording)
    return selections


def test_sweep_certificates_bracket_the_enumerated_optimum():
    drops = []

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=40)
    @given(ds=instances(), D=st.integers(1, 3), seed=st.integers(0, 3),
           budgets=st.lists(st.integers(2, 8), min_size=2, max_size=4),
           **SAMPLE_SIZES)
    def check(ds, D, seed, budgets, sample_target, nnz_cap):
        cfg = ColGenConfig(complexity_bound=2, clause_bound=D,
                           time_limit=60.0, pricing_time_limit=10.0,
                           seed=seed)
        for sampled in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if sampled:
                    force_sampling(mp, sample_target, nnz_cap, drops)
                selections = record_selections(mp)
                results = sweep_complexity(ds, budgets, cfg)
            assert len(selections) == len(results)
            for res, (arrays, budget, mip) in zip(results, selections):
                C = res.complexity_bound
                assert budget == C and res.objective == mip.objective
                # a proof of the integer stage, from a reused or padded
                # root or its own, is a proof over the pool it was given
                if res.mip_optimal:
                    opt_pool, _ = best_selection_by_enumeration(*arrays, C)
                    assert res.objective == opt_pool
                opt, _ = best_ruleset_by_enumeration(ds.X, ds.y, C,
                                                     min(D, ds.d))
                assert selection_loss(res.clauses, ds) == res.objective
                assert sum(c.complexity for c in res.clauses) <= C
                assert res.lower_bound is not None
                assert res.lower_bound <= opt <= res.objective
                if res.optimal:
                    assert res.lower_bound == opt == res.objective
                if res.rmlp_converged:
                    assert res.lower_bound == guarded_ceil(res.z_rmlp)

    check()
    assert_samples_dropped_rows_and_features(drops)


def test_sweep_selections_prove_the_milp_best_selection_of_their_pool():
    # instances whose pools reach 40 clauses and more, where a converged
    # budget's last master, padded with w = 0 for the clauses later budgets
    # added, is often the root LP of its selection.  One drawn budget's
    # pricing may stop finding clauses, unproven, from a drawn round on, as
    # a pricing time limit would leave it: that growth ends without
    # converging, and a later budget may grow the pool past its master
    roots = []

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=60)
    @given(ds=instances(rows=(14, 29), columns=(6, 7)),
           budgets=st.lists(st.integers(6, 14), min_size=2, max_size=3,
                            unique=True),
           stall=st.sampled_from([None, 0, 1]),
           stall_round=st.integers(1, 3), seed=st.integers(0, 3))
    def check(ds, budgets, stall, stall_round, seed):
        cfg = ColGenConfig(complexity_bound=2, time_limit=60.0,
                           pricing_time_limit=10.0, seed=seed)
        stalled = None if stall is None else sorted(budgets)[stall]
        real_grow, real_price = colgen._grow_pool, colgen.price_exact
        real_select = colgen._select

        def grow(ds, cfg, pool):
            if cfg.complexity_bound != stalled:
                return real_grow(ds, cfg, pool)
            calls = []

            def price(*args, **kw):
                calls.append(None)
                res = real_price(*args, **kw)
                return (res if len(calls) < stall_round else
                        replace(res, clauses=[], proven_optimal=False))

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(colgen, "price_exact", price)
                return real_grow(ds, cfg, pool)

        def select(pool, cfg, growth, master):
            # the root is an LP unless no three clauses fit the budget
            three = np.sort(pool.arrays()[2])[:3]
            roots.append((master is not None and len(master.w) < len(pool),
                          growth.rmlp_converged,
                          len(three) == 3
                          and three.sum() <= cfg.complexity_bound))
            return real_select(pool, cfg, growth, master)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(colgen, "_grow_pool", grow)
            mp.setattr(colgen, "_select", select)
            selections = record_selections(mp)
            results = sweep_complexity(ds, budgets, cfg)
        assert len(selections) == len(results)
        for res, (arrays, budget, mip) in zip(results, selections):
            C = res.complexity_bound
            assert budget == C and res.objective == mip.objective
            assert selection_loss(res.clauses, ds) == res.objective
            assert sum(c.complexity for c in res.clauses) <= C
            # the best selection of the pool is no better than the global
            # optimum the lower bound is certified against
            opt_pool, _ = best_selection_by_milp(*arrays, C)
            assert res.lower_bound is not None
            assert res.lower_bound <= opt_pool <= res.objective
            if res.mip_optimal:
                assert res.objective == opt_pool
            if res.optimal:
                assert res.lower_bound == res.objective

    check()
    # padded roots solved as LPs, and growths that stopped unconverged
    # before the pool grew past their master, were both reached
    assert any(grown and converged and lp for grown, converged, lp in roots)
    assert any(grown and not converged and lp
               for grown, converged, lp in roots)


@st.composite
def node_lps(draw):
    """A restricted master over at most 5 positives and 4 clauses, whose
    cover rows repeat a few patterns, with each clause free, fixed to 0 or
    fixed to 1; all free is the column generation master itself."""
    n_pos, K = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    patterns = draw(st.lists(st.lists(st.booleans(), min_size=K,
                                      max_size=K), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(patterns) - 1),
                          min_size=n_pos, max_size=n_pos))
    cover = np.array([patterns[i] for i in picks], dtype=float)
    negc = np.array(draw(st.lists(st.integers(0, 3), min_size=K,
                                  max_size=K)), dtype=float)
    comp = np.array(draw(st.lists(st.integers(2, 4), min_size=K,
                                  max_size=K)), dtype=float)
    fix = np.array(draw(st.lists(st.sampled_from([0, 1, 2]), min_size=K,
                                 max_size=K)))  # free, to 0, to 1
    return (cover, negc, comp, float(draw(st.integers(1, 11))),
            (fix == 2).astype(float), (fix != 1).astype(float))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(node=node_lps())
def test_master_and_node_answers_are_kkt_points_of_the_unreduced_lp(node):
    cover, negc, comp, budget, w_lower, w_upper = node
    lp = unreduced_master(*node)
    ms = solve_restricted_mlp(cover, negc, comp, budget,
                              w_lower=w_lower, w_upper=w_upper)
    if len(lp[0]) <= 6:
        status, value, _ = lp_minimum_by_vertex_enumeration(*lp)
    else:
        status, value, _, _ = highs_on_le_form(*lp)
    assert ms.status == status
    if status != "optimal":
        return
    # a presolved node keeps the unreduced LP's value
    assert abs(ms.objective - value) <= 1e-7
    # the expanded point and duals certify it on the unreduced LP
    x = np.concatenate([ms.xi, ms.w])
    assert abs(lp[0] @ x - ms.objective) <= 1e-7
    resid = kkt_residuals(*lp, x, np.append(ms.mu, -ms.lam))
    assert max(resid.values()) <= 1e-7, resid


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(node=node_lps())
def test_master_duals_are_highs_duals_of_the_unreduced_master(node):
    # an unfixed master reaches HiGHS unreduced, so its mu and lam are the
    # duals HiGHS gives the cover and budget rows of the per-row build:
    # the cover duals nonnegative, and lam the budget dual's magnitude
    cover, negc, comp, budget = node[:4]
    ms = solve_restricted_mlp(cover, negc, comp, budget)
    status, value, x, duals = highs_on_le_form(
        *unreduced_master(cover, negc, comp, budget))
    assert ms.status == status == "optimal"
    assert ms.objective == value
    assert np.array_equal(np.concatenate([ms.xi, ms.w]), x)
    n_pos = len(cover)
    assert np.array_equal(ms.mu, np.maximum(duals[:n_pos], 0.0))
    assert ms.lam == max(0.0, -float(duals[n_pos]))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(n_pos=st.integers(1, 400), budget=st.integers(-2, 12))
def test_empty_pool_answer_is_highs_answer_on_the_unreduced_master(n_pos,
                                                                   budget):
    # the master over an empty pool never reaches HiGHS; its closed form
    # must be the answer HiGHS gives, duals included, since pricing reads
    # them
    status, value, x, duals = highs_on_le_form(*unreduced_master(
        np.zeros((n_pos, 0)), np.zeros(0), np.zeros(0), float(budget)))
    ms = solve_restricted_mlp(np.zeros((n_pos, 0)), np.zeros(0),
                              np.zeros(0), float(budget))
    assert ms.status == status
    assert ms.iterations == 0
    if status != "optimal":
        return
    assert ms.objective == value
    assert np.array_equal(ms.xi, x)
    assert np.array_equal(ms.mu, np.maximum(duals[:n_pos], 0.0))
    assert ms.lam == max(0.0, -float(duals[n_pos]))


@st.composite
def pools(draw):
    """A clause pool over 6 to 12 positives and 4 to 10 clauses, each
    covering at most 5 of them, with negative counts of 0 or 1,
    complexities of 2 or 3 and a budget for one to five clauses.  Narrow
    covers are where the greedy seed misses the optimum by one, which is
    where a fixing one error too eager loses it; budgets of 6 to 10 make
    trees whose LP nodes sit above subtrees closed by enumeration."""
    n_pos, K = draw(st.integers(6, 12)), draw(st.integers(4, 10))
    cover = np.zeros((n_pos, K))
    for k in range(K):
        rows = draw(st.sets(st.integers(0, n_pos - 1), max_size=5))
        cover[sorted(rows), k] = 1.0
    negc = draw(st.lists(st.integers(0, 1), min_size=K, max_size=K))
    comp = draw(st.lists(st.integers(2, 3), min_size=K, max_size=K))
    return (cover, np.array(negc, dtype=float), np.array(comp, dtype=float),
            float(draw(st.integers(2, 10))))


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(pool=pools())
def test_integer_stage_proves_the_enumerated_best_selection(pool):
    # reduced-cost fixing reads every node LP's duals, the reused
    # column-generation root's among them; a node where no three free
    # clauses fit is closed by listing its singles and pairs
    cover, negc, comp, budget = pool
    opt, _ = best_selection_by_enumeration(cover, negc, comp, budget)
    root = solve_restricted_mlp(cover, negc, comp, budget)
    for start in (root, None):
        mip = colgen.solve_restricted_mip(cover, negc, comp, budget,
                                          root=start)
        assert mip.optimal
        assert mip.objective == opt
        assert comp[mip.selected].sum() <= budget
        missed = (cover[:, mip.selected].sum(axis=1) == 0).sum()
        assert missed + negc[mip.selected].sum() == opt


@st.composite
def large_pools(draw):
    """A clause pool over 14 to 29 positives and 30 to 50 clauses, too
    large to enumerate: covers of a drawn density, negative counts of 0 to
    2, complexities of 2 to 4 and a budget of 6 to 14, so that many
    selections solve node LPs.  Up to a third of the clauses are planted
    copies of others, placed anywhere in the pool: exact duplicates, or
    dominated copies that cover only some of the original's positives at
    no fewer negatives and no less complexity."""
    n_pos, K = draw(st.integers(14, 29)), draw(st.integers(30, 50))
    planted = draw(st.integers(0, K // 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cover = rng.random((n_pos, K)) < rng.choice([0.15, 0.25, 0.35])
    negc = rng.integers(0, 3, K)
    comp = rng.integers(2, 5, K)
    for k in range(K - planted, K):
        j = rng.integers(K - planted)
        if draw(st.booleans()):
            cover[:, k], negc[k], comp[k] = cover[:, j], negc[j], comp[j]
        else:
            cover[:, k] = cover[:, j] & (rng.random(n_pos) < 0.7)
            negc[k] = negc[j] + rng.integers(0, 2)
            comp[k] = comp[j] + rng.integers(0, 2)
    order = rng.permutation(K)
    return (cover[:, order].astype(float), negc[order].astype(float),
            comp[order].astype(float), float(rng.integers(6, 15)))


def test_integer_stage_proves_the_milp_best_selection():
    # pools the enumeration oracle cannot reach, with duplicate and
    # dominated clauses; every node below the root solves its LP as the
    # presolved node LP's dual, and the root is either the master
    # column generation would hand over or solved here
    node_lps = []

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=60)
    @given(pool=large_pools())
    def check(pool):
        cover, negc, comp, budget = pool
        opt, _ = best_selection_by_milp(cover, negc, comp, budget)
        root = solve_restricted_mlp(cover, negc, comp, budget)
        for start in (root, None):
            mip = colgen.solve_restricted_mip(cover, negc, comp, budget,
                                              root=start)
            assert mip.optimal
            assert mip.objective == opt
            assert comp[mip.selected].sum() <= budget
            missed = (cover[:, mip.selected].sum(axis=1) == 0).sum()
            assert missed + negc[mip.selected].sum() == opt
            if start is not None:
                node_lps.append(mip.pivots > 0)

    check()
    # a quarter of the proofs or more went through node LPs below the root
    assert sum(node_lps) >= len(node_lps) // 4


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(values=st.lists(st.integers(0, 6), min_size=1, max_size=40),
       quantile_count=st.integers(1, 12))
def test_numeric_features_split_the_column_each_their_own_way(values,
                                                            quantile_count):
    values = np.array(values, dtype=float)
    metas = numeric_column_features(values, "v", quantile_count)
    assert ([(m.column, m.kind, m.value) for m in metas]
            == numeric_features_by_column(values, "v", quantile_count))
    X = evaluate_conditions({"v": values}, metas, len(values))
    splits = [tuple(X[:, j]) for j in range(0, len(metas), 2)]
    assert len(set(splits)) == len(splits)
    assert all(0 < sum(split) < len(values) for split in splits)
    # nothing is lost: every quantile cut below the maximum splits the
    # column as one kept threshold does, and no smaller cut
    cuts = np.quantile(values, np.arange(1, quantile_count + 1)
                       / (quantile_count + 1))
    kept = [m.value for m in metas[::2]]
    for split, t in zip(splits, kept):
        assert t == min(c for c in cuts
                        if tuple((values <= c).astype(np.uint8)) == split)
    assert {tuple((values <= c).astype(np.uint8))
            for c in cuts if c < values.max()} == set(splits)


@st.composite
def typed_tables(draw):
    """A TypedTable of 1 to 30 rows and 1 to 5 columns, each numeric (a
    few small integers, so ties, or one constant, or floats with signed
    zeros) or categorical (missing cells are "?"), plus a row subset to
    binarize (None for all rows) and a quantile count of 1 to 20."""
    n = draw(st.integers(1, 30))
    shapes = draw(st.lists(st.sampled_from(
        ["ties", "constant", "floats", "categorical"]), min_size=1, max_size=5))
    columns, kinds, values = [], {}, {}
    for j, shape in enumerate(shapes):
        c = f"c{j}"
        if shape == "categorical":
            cells = draw(st.lists(st.sampled_from(["a", "b", "c", "?"]),
                                  min_size=n, max_size=n))
            values[c] = np.array(cells, dtype=object)
        else:
            cells = {
                "ties": st.lists(st.integers(-2, 4), min_size=n, max_size=n),
                "constant": st.integers(-2, 4).map(lambda v: [v] * n),
                "floats": st.lists(st.floats(-100, 100), min_size=n,
                                   max_size=n),
            }[shape]
            values[c] = np.array(draw(cells), dtype=float)
        columns.append(c)
        kinds[c] = "categorical" if shape == "categorical" else "numeric"
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 dtype=np.uint8)
    rows = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=n, unique=True))
    table = TypedTable(columns=columns, kinds=kinds, values=values, y=y,
                       label_column="label", positive_label="1",
                       negative_label="0")
    return table, rows, draw(st.integers(1, 20))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(drawn=typed_tables())
def test_block_thresholds_are_the_per_column_reference(drawn):
    # binarize_table cuts every numeric column from one sorted block; each
    # column must get the features its own sort and quantiles give, with
    # Python float thresholds, in CSV column order, and the same X
    table, rows, quantile_count = drawn
    picked = np.arange(table.n) if rows is None else np.array(rows)
    want = []
    for c in table.columns:
        col = table.values[c][picked]
        if table.kinds[c] == "numeric":
            want += numeric_features_by_column(col, c, quantile_count)
        elif len(set(col)) > 1:
            want += [(c, kind, cat) for cat in sorted(set(col))
                     for kind in ("categorical-eq", "categorical-neq")]
    if not want or len(set(table.y[picked].tolist())) < 2:
        with pytest.raises(DatasetError):
            binarize_table(table, rows, quantile_count)
        return
    ds = binarize_table(table, rows, quantile_count)
    exact = [(c, kind, type(v), repr(v)) for c, kind, v in want]
    assert [(m.column, m.kind, type(m.value), repr(m.value))
            for m in ds.features] == exact
    X = [[holds(kind, v, table.values[c][i]) for c, kind, v in want]
         for i in picked]
    np.testing.assert_array_equal(ds.X, np.array(X, dtype=np.uint8))
    np.testing.assert_array_equal(ds.y, table.y[picked])


HEADER = ["num", "cat", "label"]


@st.composite
def tables(draw):
    """Training rows whose categorical cells may be missing ("" or "?"),
    and scoring rows whose categorical cells may also hold a category
    training never saw.  Both row sets start with one row of each label
    and are read with missing="category"."""
    def rows(n, cats):
        nums = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        cells = draw(st.lists(st.sampled_from(cats), min_size=n, max_size=n))
        labels = ["no", "yes"] + draw(st.lists(
            st.sampled_from(["no", "yes"]), min_size=n - 2, max_size=n - 2))
        return [[str(v), c, lab] for v, c, lab in zip(nums, cells, labels)]
    train = rows(draw(st.integers(4, 12)), ["a", "b", "c", "", "?"])
    score = rows(draw(st.integers(2, 12)), ["a", "b", "c", "d", "", "?"])
    return train, score


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([HEADER] + rows)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(data=tables(), form=st.sampled_from(["dnf", "cnf"]),
       picks=st.lists(st.lists(st.integers(0, 99), min_size=1, max_size=3),
                      max_size=3))
def test_raw_binarized_and_reloaded_predictions_agree(data, form, picks):
    train, score = data
    with tempfile.TemporaryDirectory() as tmp:
        write_rows(Path(tmp) / "train.csv", train)
        write_rows(Path(tmp) / "score.csv", score)
        # missing categorical cells become the category "?": a training
        # feature of its own, and like any unseen category when scoring
        train_table = read_csv_table(Path(tmp) / "train.csv", "label",
                                     missing="category")
        try:
            ds = binarize_table(train_table)
        except DatasetError:
            assume(False)  # every training column was constant
        table = read_csv_table(Path(tmp) / "score.csv", "label",
                               missing="category")
    assert table.n == len(score) and train_table.n == len(train)
    np.testing.assert_array_equal(
        build_matrix(train_table, np.arange(train_table.n), ds.features),
        ds.X)
    clauses = [Clause(tuple(j % ds.d for j in pick)) for pick in picks]
    rs = build_ruleset(clauses, ds, form)
    scored = BinaryDataset(X=build_matrix(table, np.arange(table.n),
                                          ds.features),
                           y=table.y, features=ds.features,
                           partner=ds.partner)
    binarized = predict(rs, scored).tolist()
    back = RuleSet.from_json(rs.to_json())
    assert back == rs
    trained = predict(rs, ds).tolist()
    for model in (rs, back):
        raw = model.predict_rows(HEADER, score)
        assert [lab == rs.positive_label for lab in raw] == \
            [bool(b) for b in binarized]
        assert predict(model, scored).tolist() == binarized
        raw = model.predict_rows(HEADER, train)
        assert [lab == rs.positive_label for lab in raw] == \
            [bool(b) for b in trained]


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=tables(), C=st.integers(2, 6), D=st.integers(1, 2),
       seed=st.integers(0, 3))
def test_cnf_fit_is_the_complemented_dnf_fit_of_the_negation(data, C, D,
                                                             seed):
    train, _ = data
    with tempfile.TemporaryDirectory() as tmp:
        write_rows(Path(tmp) / "train.csv", train)
        table = read_csv_table(Path(tmp) / "train.csv", "label",
                               missing="category")
    rows = np.arange(table.n)
    cfg = ColGenConfig(complexity_bound=C, clause_bound=D, time_limit=60.0,
                       pricing_time_limit=10.0, seed=seed)
    try:
        rs_cnf, res_cnf, ds = fit_rows(table, rows, "cnf", cfg)
    except DatasetError:
        assume(False)  # every training column was constant
    neg = ds.negated()
    res_dnf = run_column_generation(neg, cfg)
    rs_dnf = build_ruleset(res_dnf.clauses, neg, "dnf")
    assert (res_cnf.objective, res_cnf.lower_bound, res_cnf.optimal) == \
        (res_dnf.objective, res_dnf.lower_bound, res_dnf.optimal)
    assert predict(rs_cnf, ds).tolist() == \
        (1 - predict(rs_dnf, neg)).tolist()
    # the negation swaps the label names, so on raw cells the complemented
    # verdict reads as the same label
    assert rs_cnf.predict_rows(HEADER, train) == \
        rs_dnf.predict_rows(HEADER, train)


NUMBER_CELLS = ["0", "-0", "2.5", " 7 ", "1e3", "1_000", "\u0663"]
MISSING_CELLS = ["", "?", " ? "]
OTHER_CELLS = ["nan", "inf", "-inf", "1e400", "x", " y", "1x"]
ODD_LABELS = [" yes ", "", "?", "maybe", "no", "yes"]
# float skips " " and "\xa0" as str.strip does; only str.strip removes "\x1c"
PADS = [[""], ["", " ", "\xa0"], ["", " ", "\xa0", "\x1c"]]


@st.composite
def raw_csvs(draw):
    """A CSV's lines as cell lists: a header of padded names with a label
    column, then rows (some ragged), with blank lines before the header
    and between rows.  A column draws its cells from numbers only, from
    numbers and missing cells, or also from cells that do not parse as
    finite numbers, and pads them with nothing, with whitespace `float`
    skips, or also with "\x1c", which only `str.strip` removes.  Labels
    alternate between "no" and "yes", or "0" and "1", unless drawn from
    ODD_LABELS."""
    k = draw(st.integers(1, 3))
    names = ["a", "b", "c"][:k]
    names.insert(draw(st.integers(0, k)), "label")
    header = [draw(st.sampled_from([c, f" {c} "])) for c in names]
    pools = {c: draw(st.sampled_from([
        NUMBER_CELLS, MISSING_CELLS + NUMBER_CELLS,
        MISSING_CELLS + NUMBER_CELLS + OTHER_CELLS])) for c in names}
    pads = {c: draw(st.sampled_from(PADS)) for c in names}
    label_pair = draw(st.sampled_from([("no", "yes"), ("0", "1")]))
    lines = [header]
    for i in range(draw(st.sampled_from([0, 2, 4, 6, 9, 12]))):
        lines += [[]] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        pools["label"] = [label_pair[i % 2]] * 12 + ODD_LABELS
        row = [draw(st.sampled_from(pads[c])) + draw(st.sampled_from(pools[c]))
               + draw(st.sampled_from(pads[c])) for c in names]
        ragged = draw(st.sampled_from([0] * 40 + [-1, 1]))
        lines.append(row[:ragged] if ragged < 0 else row + ["x"] * ragged)
    lines += [[]] * draw(st.sampled_from([0, 0, 1]))
    return [[]] * draw(st.sampled_from([0, 0, 0, 1, 2])) + lines


def same_columns(got, want):
    assert list(got) == list(want)
    for c in want:
        assert got[c].dtype == want[c].dtype, c
        if want[c].dtype == object:
            assert got[c].tolist() == want[c].tolist(), c
        else:  # NaN-aware, and -0.0 is not 0.0
            assert np.array_equal(got[c], want[c], equal_nan=True), c
            assert (np.signbit(got[c]) == np.signbit(want[c])).all(), c


def outcome(read, *args, **kwargs):
    try:
        return read(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(lines=raw_csvs(), missing=st.sampled_from(["drop", "category"]),
       positive=st.sampled_from([None, "yes", "no", "1"]),
       kinds=st.lists(st.sampled_from(["numeric-leq", "numeric-gt",
                                       "categorical-eq", None]),
                      min_size=4, max_size=4),
       absent=st.sampled_from([False] * 9 + [True]))
def test_ingest_matches_the_cell_by_cell_oracle(lines, missing, positive,
                                                kinds, absent):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text("".join(",".join(line) + "\n" for line in lines),
                        encoding="utf-8")
        got = outcome(read_csv_table, path, "label", positive, missing)
        want = outcome(read_csv_table_by_cells, path, "label", positive,
                       missing)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        for name in ("columns", "kinds", "label_column", "positive_label",
                     "negative_label", "dropped_rows"):
            assert getattr(got, name) == want[name], name
        assert got.y.dtype == want["y"].dtype
        assert got.y.tolist() == want["y"].tolist()
        same_columns(got.values, want["values"])

    # the predict path: stripped header, raw non-blank rows, and the
    # conditions of a model that reads some columns (or one the input lacks)
    header, *rows = [line for line in lines if line]
    header = [c.strip() for c in header]
    metas = [FeatureMeta(c, kind, "0" if kind == "categorical-eq" else 0.0)
             for c, kind in zip(header, kinds) if kind is not None]
    if absent:
        metas.append(FeatureMeta("zzz", "categorical-eq", "0"))
    got = outcome(read_columns, header, rows, metas)
    want = outcome(read_columns_by_cells, header, rows, metas)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        same_columns(got, want)
