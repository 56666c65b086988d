"""Column generation end to end: random instances against exhaustive search,
certificate behavior, the restricted integer solve, and the budget sweep."""

import itertools
import math
import time
from collections import defaultdict
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
import scipy.optimize

from boolrules import colgen, pricing
from boolrules.colgen import (
    ClausePool,
    ColGenConfig,
    guarded_ceil,
    reduced_cost_dense,
    run_column_generation,
    solve_restricted_mip,
    sweep_complexity,
)
from boolrules.lp_engine import solve_restricted_mlp
from boolrules.ruleset import selection_loss

from _data import force_sampling, make_binary_dataset, tiny_example
from _oracles import (
    best_ruleset_by_enumeration,
    best_selection_by_enumeration,
    clause_reduced_cost,
)


def small_config(C, D=None, **kw):
    kw.setdefault("time_limit", 60.0)
    kw.setdefault("pricing_time_limit", 10.0)
    return ColGenConfig(complexity_bound=C, clause_bound=D, **kw)


def test_tiny_example_trains_to_zero():
    ds = tiny_example()
    res = run_column_generation(ds, small_config(4))
    assert res.objective == 0
    assert res.lower_bound == 0
    assert res.optimal
    assert res.rmlp_converged
    assert res.mip_optimal
    assert [c.features for c in res.clauses] == [(0,)]
    assert abs(res.z_rmlp) < 1e-9
    assert res.regime == "small"


def test_guarded_ceil_forgives_upward_noise():
    assert guarded_ceil(3.0) == 3
    assert guarded_ceil(3.0 + 1e-9) == 3
    assert guarded_ceil(3.0 + 1e-6) == 4
    assert guarded_ceil(2.5) == 3
    assert guarded_ceil(-0.2) == 0
    assert guarded_ceil(0.0) == 0


def test_depth_limit_respects_budget_and_width():
    assert ColGenConfig(complexity_bound=5).depth_limit(100) == 4
    assert ColGenConfig(complexity_bound=5, clause_bound=2).depth_limit(100) == 2
    assert ColGenConfig(complexity_bound=5).depth_limit(3) == 3
    # a budget of 2 only ever buys single-feature clauses
    assert ColGenConfig(complexity_bound=2).depth_limit(100) == 1


def test_config_validation():
    with pytest.raises(ValueError, match="complexity_bound"):
        ColGenConfig(complexity_bound=1)
    with pytest.raises(ValueError, match="clause_bound"):
        ColGenConfig(complexity_bound=4, clause_bound=0)
    with pytest.raises(ValueError, match="time limits"):
        ColGenConfig(complexity_bound=4, time_limit=0.0)
    with pytest.raises(ValueError, match="time limits"):
        ColGenConfig(complexity_bound=4, pricing_time_limit=-1.0)
    # every deadline derived from a NaN limit compares false, so a NaN
    # limit would never end a run; an infinite one is a choice
    with pytest.raises(ValueError, match="time limits"):
        ColGenConfig(complexity_bound=4, time_limit=math.nan)
    with pytest.raises(ValueError, match="time limits"):
        ColGenConfig(complexity_bound=4, pricing_time_limit=math.nan)
    ColGenConfig(complexity_bound=4, time_limit=math.inf,
                 pricing_time_limit=math.inf)


def test_reduced_cost_dense_matches_definition():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(4, 20))
        d = int(rng.integers(2, 8))
        X = (rng.random((n, d)) < 0.5).astype(np.uint8)
        y = (rng.random(n) < 0.5).astype(np.int8)
        if y.sum() == 0:
            y[0] = 1
        mu = rng.random(int(y.sum())) * 2
        lam = float(rng.random())
        size = int(rng.integers(1, min(d, 3) + 1))
        feats = tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))
        got = reduced_cost_dense(X, y, mu, lam, feats)
        want = clause_reduced_cost(feats, X, y, mu, lam)
        assert got == pytest.approx(want, abs=1e-12)


def random_instance(rng, rows=(6, 26), columns=(2, 6)):
    """Half-open ranges for the row count and the raw column count; each
    raw column enters with its complement."""
    n = int(rng.integers(*rows))
    k = int(rng.integers(*columns))
    X_half = (rng.random((n, k)) < 0.5).astype(np.uint8)
    y = (rng.random(n) < 0.5).astype(np.int8)
    if y.sum() == 0:
        y[int(rng.integers(n))] = 1
    return make_binary_dataset(X_half, y)


def check_against_enumeration(ds, res, C, D):
    opt, _ = best_ruleset_by_enumeration(ds.X, ds.y, C, D)
    assert res.objective == opt
    if res.lower_bound is not None:
        assert res.lower_bound <= opt
    if res.optimal:
        # the flag promises the certificate closed the gap
        assert res.lower_bound == res.objective == opt
        assert guarded_ceil(res.z_rmlp) == res.objective
    assert sum(c.complexity for c in res.clauses) <= C
    assert all(len(c.features) <= D for c in res.clauses)
    assert selection_loss(res.clauses, ds) == res.objective
    return opt


def test_random_instances_match_exhaustive_search():
    rng = np.random.default_rng(404)
    converged = 0
    for trial in range(30):
        ds = random_instance(rng)
        C = int(rng.integers(2, 9))
        D = int(rng.integers(1, 4))
        cfg = small_config(C, D, seed=trial)
        res = run_column_generation(ds, cfg)
        opt = check_against_enumeration(ds, res, C, D)

        # master value never increases while columns arrive
        zs = [t.master_value for t in res.trace]
        assert all(a >= b - 1e-7 for a, b in zip(zs, zs[1:]))
        assert all(t.added <= pricing.MAX_COLUMNS for t in res.trace)
        assert res.pool_size == res.trace[-1].pool_size
        if res.rmlp_converged:
            converged += 1
            # converged means z_rmlp is the true LP optimum, so its ceiling
            # is certified; an integrality gap above it is still possible
            assert res.lower_bound == guarded_ceil(res.z_rmlp)
        if res.lower_bound is not None:
            assert res.lower_bound <= opt
    # tiny instances with generous limits should essentially always certify
    assert converged >= 28


def test_degenerate_optimum_still_certifies():
    # one feature separates perfectly; after its clause enters the pool the
    # master sits at zero with that column at its upper bound, which must
    # not keep the pricer reporting it as progress
    ds = make_binary_dataset(np.array([[1], [1], [0]], dtype=np.uint8),
                             np.array([1, 1, 0], dtype=np.int8))
    res = run_column_generation(ds, small_config(4))
    assert res.objective == 0
    assert res.rmlp_converged
    assert res.lower_bound == 0
    assert res.optimal
    last = res.trace[-1]
    assert last.added == 0
    assert last.best_reduced_cost >= -1e-9


def test_pool_deduplicates():
    ds = tiny_example()
    pool = ClausePool(ds)
    assert pool.add((0,))
    assert not pool.add((0,))
    assert pool.add((1, 2))
    assert not pool.add((2, 1))
    assert len(pool) == 2
    assert list(pool.index) == [(0,), (1, 2)]


def test_no_positive_samples_rejected():
    ds = make_binary_dataset(np.array([[1], [0]], dtype=np.uint8),
                             np.array([0, 0], dtype=np.int8))
    with pytest.raises(ValueError, match="positive"):
        run_column_generation(ds, small_config(4))


def test_max_columns_one_still_reaches_optimum(monkeypatch):
    monkeypatch.setattr(pricing, "MAX_COLUMNS", 1)
    rng = np.random.default_rng(17)
    ds = random_instance(rng)
    res = run_column_generation(ds, small_config(6, 2))
    assert all(t.added <= 1 for t in res.trace)
    check_against_enumeration(ds, res, 6, 2)


def test_max_columns_above_ten_is_honored(monkeypatch):
    monkeypatch.setattr(pricing, "MAX_COLUMNS", 15)
    rng = np.random.default_rng(31)
    ds = make_binary_dataset((rng.random((40, 8)) < 0.5).astype(np.uint8),
                             (rng.random(40) < 0.5).astype(np.int8))
    res = run_column_generation(ds, small_config(8, 3))
    # the empty pool's first duals leave far more than 15 negative clauses
    assert res.trace[0].added == 15
    assert all(t.added <= 15 for t in res.trace)
    assert res.rmlp_converged


def test_forced_large_regime_samples_and_still_solves(monkeypatch):
    rng = np.random.default_rng(23)
    ds = random_instance(rng)
    # thresholds pushed down so this tiny instance takes the sampling path
    # on samples smaller than itself; once the sample's candidates all
    # fail on the full data, the round prices the full data exactly and
    # certifies like the small regime
    drops = []
    force_sampling(monkeypatch, 5, 20, drops)
    cfg = small_config(6, 2, seed=3)
    res = run_column_generation(ds, cfg)
    assert res.regime == "large"
    assert any(rows for rows, _ in drops) and any(f for _, f in drops)
    assert res.trace[0].mode == "restricted-exact"
    last = res.trace[-1]
    assert last.mode == "restricted-exact+exact"
    assert last.added == 0 and last.pricing_proven
    assert res.rmlp_converged
    assert res.lower_bound == guarded_ceil(res.z_rmlp)
    check_against_enumeration(ds, res, 6, 2)


def test_sampled_pricing_skips_pool_clauses(monkeypatch):
    # a pool clause at its upper bound prices negative on the sample too;
    # excluded, it cannot take one of the sampled call's MAX_COLUMNS slots
    real_price = colgen.price_exact
    pools, returned = [], []

    class RecordedPool(ClausePool):
        def __init__(self, ds):
            super().__init__(ds)
            pools.append(self)

    def recording(*args, **kw):
        res = real_price(*args, **kw)
        if kw.get("sample") is not None:
            returned.append([feats in pools[-1].index
                             for feats, _ in res.clauses])
        return res

    monkeypatch.setattr(colgen, "ClausePool", RecordedPool)
    monkeypatch.setattr(pricing, "MAX_COLUMNS", 3)
    monkeypatch.setattr(colgen, "price_exact", recording)
    drops = []
    force_sampling(monkeypatch, 30, 120, drops)
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        ds = make_binary_dataset(
            (rng.random((60, 5)) < 0.5).astype(np.uint8),
            (rng.random(60) < 0.5).astype(np.int8))
        cfg = small_config(8, 3, seed=seed)
        res = run_column_generation(ds, cfg)
        assert pools[-1].ds is ds
        assert res.regime == "large"
        check_against_enumeration(ds, res, 8, 3)
    assert sum(len(r) for r in returned) >= 20
    assert any(rows for rows, _ in drops) and any(f for _, f in drops)
    assert not any(in_pool for r in returned for in_pool in r)


def test_trace_sums_each_rounds_master_pivots(monkeypatch):
    # the loop's masters are the solves without clause bounds, one a round
    real = colgen.solve_restricted_mlp
    pivots = []

    def recording(*args, **kw):
        ms = real(*args, **kw)
        if kw.get("w_lower") is None:
            pivots.append(ms.iterations)
        return ms

    monkeypatch.setattr(colgen, "solve_restricted_mlp", recording)
    rng = np.random.default_rng(31)
    ds = make_binary_dataset((rng.random((40, 5)) < 0.5).astype(np.uint8),
                             (rng.random(40) < 0.5).astype(np.int8))
    monkeypatch.setattr(pricing, "MAX_COLUMNS", 2)
    res = run_column_generation(ds, small_config(6, 2))
    assert res.iterations >= 3 and len(pivots) == res.iterations
    assert [t.master_pivots for t in res.trace] == pivots
    assert sum(pivots) > 0
    assert all(0.0 <= t.master_seconds <= t.seconds for t in res.trace)
    check_against_enumeration(ds, res, 6, 2)


def test_time_limit_exhausted_before_pricing():
    ds = tiny_example()
    cfg = ColGenConfig(complexity_bound=4, time_limit=1e-9)
    res = run_column_generation(ds, cfg)
    assert res.iterations == 1
    assert res.trace[0].mode == "time-up"
    assert res.clauses == []
    assert res.objective == len(ds.pos)
    assert not res.rmlp_converged
    assert res.lower_bound is None
    assert not res.optimal


def test_failed_master_degrades_to_the_integer_stage(monkeypatch):
    # every loop master from round 2 on reports numerical trouble; the run
    # must stop there, select from the pool it has and claim nothing
    real = colgen.solve_restricted_mlp
    loop_calls = 0

    def failing(*args, **kw):
        nonlocal loop_calls
        ms = real(*args, **kw)
        if kw.get("w_lower") is None:  # node LPs always fix bounds
            loop_calls += 1
            if loop_calls > 1:
                ms.status = "numerical"
        return ms

    monkeypatch.setattr(colgen, "solve_restricted_mlp", failing)
    rng = np.random.default_rng(404)
    ds = random_instance(rng)
    res = run_column_generation(ds, small_config(6, 2))
    assert res.iterations == 2
    assert res.trace[-1].mode == "master-failed"
    assert res.pool_size == res.trace[0].pool_size > 0
    assert not res.rmlp_converged
    assert not res.optimal
    assert sum(c.complexity for c in res.clauses) <= 6
    assert selection_loss(res.clauses, ds) == res.objective
    assert res.lower_bound is not None
    assert res.lower_bound <= res.objective


def test_master_out_of_time_keeps_the_last_finished_value(monkeypatch):
    # round 2's loop master stops at its deadline: the run ends "time-up"
    # there, keeps round 1's master value and claims nothing
    real = colgen.solve_restricted_mlp
    values = []

    def timed_out(*args, **kw):
        ms = real(*args, **kw)
        if kw.get("w_lower") is None:  # node LPs always fix bounds
            values.append(ms.objective)
            if len(values) == 2:
                ms.status = "time-limit"
        return ms

    monkeypatch.setattr(colgen, "solve_restricted_mlp", timed_out)
    ds = random_instance(np.random.default_rng(404))
    res = run_column_generation(ds, small_config(6, 2))
    assert res.iterations == 2
    assert res.trace[-1].mode == "time-up"
    assert values[1] < values[0]
    assert res.z_rmlp == res.trace[-1].master_value == values[0]
    assert res.pool_size == res.trace[0].pool_size > 0
    assert not (res.rmlp_converged or res.optimal)
    assert selection_loss(res.clauses, ds) == res.objective
    assert res.lower_bound is not None
    assert res.lower_bound <= res.objective


def test_highs_numerical_trouble_ends_the_fit_cleanly(monkeypatch):
    # HiGHS answers the first LP it is sent, then reports numerical trouble
    # (linprog status 4) on every later one, node LPs included.  The
    # round-1 master over the empty pool never reaches HiGHS, so the first
    # call is round 2's master; two columns a round make round 3's master
    # the first troubled one
    real = scipy.optimize.linprog
    calls = 0

    def troubled(*args, **kw):
        nonlocal calls
        calls += 1
        if calls == 1:
            return real(*args, **kw)
        return scipy.optimize.OptimizeResult(status=4, nit=0, x=None,
                                             fun=None, message="")

    monkeypatch.setattr(scipy.optimize, "linprog", troubled)
    ds = random_instance(np.random.default_rng(404))
    monkeypatch.setattr(pricing, "MAX_COLUMNS", 2)
    res = run_column_generation(ds, small_config(9, 2))
    # round 2's and round 3's masters, then the root node LP: the pool grew
    # after round 2, so its master cannot stand in for the root, and any
    # three of its clauses fit C = 9, so the root is not enumerated
    assert calls == 3
    assert res.iterations == 3
    assert res.pool_size == 4
    assert res.trace[-1].mode == "master-failed"
    assert not (res.optimal or res.rmlp_converged or res.mip_optimal)
    assert sum(c.complexity for c in res.clauses) <= 9
    assert selection_loss(res.clauses, ds) == res.objective
    assert res.lower_bound is not None
    assert res.lower_bound <= res.objective


TIME_SLACK = 0.05


def recording_mip(monkeypatch, pause: float):
    """Record (call time, deadline) of every integer solve, and sleep
    `pause` seconds after each so later calls must see less time left."""
    real = colgen.solve_restricted_mip
    calls = []

    def recording(*args, deadline=None, **kw):
        calls.append((time.perf_counter(), deadline))
        out = real(*args, deadline=deadline, **kw)
        time.sleep(pause)
        return out

    monkeypatch.setattr(colgen, "solve_restricted_mip", recording)
    return calls


def slow_masters(monkeypatch, pause: float):
    """Make every loop master sleep `pause` seconds after solving, so pool
    growth takes a measurable share of the time limit; node LPs, which
    always fix bounds, run at full speed."""
    real_mlp = colgen.solve_restricted_mlp

    def slow_master(*args, **kw):
        ms = real_mlp(*args, **kw)
        if kw.get("w_lower") is None:
            time.sleep(pause)
        return ms

    monkeypatch.setattr(colgen, "solve_restricted_mlp", slow_master)


@pytest.mark.parametrize("limit", [1e-9, 30.0])
def test_integer_stage_gets_only_the_time_left(monkeypatch, limit):
    # the growth outlasts the slack, so a grant of the whole limit fails
    slow_masters(monkeypatch, 2 * TIME_SLACK)
    calls = recording_mip(monkeypatch, 0.0)
    cfg = small_config(6, 2, time_limit=limit)
    t0 = time.perf_counter()
    run_column_generation(random_instance(np.random.default_rng(5)), cfg)
    (t_call, deadline), = calls
    assert t_call - t0 >= 2 * TIME_SLACK
    # the selection ends when the whole run's limit does
    assert t0 + limit <= deadline <= t0 + limit + TIME_SLACK
    if limit < TIME_SLACK:
        # the growth alone outlasts the limit and leaves nothing
        assert deadline < t_call


def two_triangles():
    """Two triangles of three positives, each positive covered by two of its
    triangle's three features, and five all-zero negatives that make every
    complement literal a loss.  Half-weight clauses cover a triangle at the
    cost of 1.5 clauses, so the LP bound falls short of the integer loss at
    C = 3, 5 and 7 (3 vs 4, 1 vs 2, 0 vs 1) and meets it at C = 2 (4)."""
    tri = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
    rows = ([r + [0, 0, 0] for r in tri] + [[0, 0, 0] + r for r in tri]
            + [[0] * 6] * 5)
    y = np.array([1] * 6 + [0] * 5, dtype=np.int8)
    return make_binary_dataset(np.array(rows, dtype=np.uint8), y)


def test_sweep_selection_gets_what_its_growth_left(monkeypatch):
    # each loop master sleeps, so every growth takes a measurable share of
    # the limit, and each selection sleeps after it, so a limit shared by
    # the selections would shrink from one budget to the next
    slow_masters(monkeypatch, 0.05)
    calls = recording_mip(monkeypatch, 0.2)
    grown, _, _ = recording_sweep(monkeypatch)
    budgets = [2, 3, 5, 7]
    cfg = small_config(6, 2, time_limit=30.0)
    points = sweep_complexity(two_triangles(), budgets, cfg)
    assert len(calls) == len(budgets)
    for p, (t_call, deadline) in zip(points, calls):
        granted = deadline - t_call
        growth, _ = grown[p.complexity_bound]
        assert growth.seconds >= 0.05
        assert granted <= cfg.time_limit - growth.seconds
        assert granted >= cfg.time_limit - growth.seconds - TIME_SLACK
        assert p.seconds >= growth.seconds + 0.2 - TIME_SLACK


# -- the restricted integer solve ------------------------------------------


def test_mip_empty_pool():
    mip = solve_restricted_mip(np.zeros((3, 0)), np.zeros(0), np.zeros(0), 4.0)
    assert mip.objective == 3
    assert mip.selected == []
    assert mip.optimal
    assert mip.nodes == 0


def test_mip_integral_root_needs_one_node():
    pos_cover = np.ones((3, 1))
    mip = solve_restricted_mip(pos_cover, np.zeros(1), np.array([2.0]), 4.0)
    assert mip.objective == 0
    assert mip.selected == [0]
    assert mip.optimal
    assert mip.nodes == 1


def test_mip_budget_forces_a_choice():
    # clause 0 covers two positives, clause 1 covers the third
    pos_cover = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    neg_counts = np.zeros(2)
    complexities = np.array([2.0, 2.0])
    tight = solve_restricted_mip(pos_cover, neg_counts, complexities, 2.0)
    assert tight.objective == 1
    assert tight.selected == [0]
    roomy = solve_restricted_mip(pos_cover, neg_counts, complexities, 4.0)
    assert roomy.objective == 0
    assert roomy.selected == [0, 1]


def test_clauses_spending_exactly_the_budget_fit_it():
    # three clauses of complexity 2, each covering its own positive.  Node
    # LPs whose clauses fixed to 1 spend the budget exactly are feasible,
    # with no free clause and with one; one unit less budget and they are
    # infeasible
    pos_cover, neg_counts = np.eye(3), np.zeros(3)
    complexities = np.full(3, 2.0)
    for lower in ((1.0, 1.0, 1.0), (1.0, 1.0, 0.0)):
        spent = 2.0 * sum(lower)
        for budget, status in ((spent, "optimal"),
                               (spent - 1.0, "infeasible")):
            ms = solve_restricted_mlp(pos_cover, neg_counts, complexities,
                                      budget, w_lower=np.array(lower),
                                      w_upper=np.ones(3))
            assert ms.status == status, (lower, budget)
    # the integer stage takes selections that spend the budget exactly: all
    # three clauses at 6 (the root is an LP node), a pair at 4 (below a root
    # that enumerates); and the two-triangle pool branches below its root
    for budget, want in ((6.0, 0), (5.0, 1), (4.0, 1), (3.0, 2)):
        mip = solve_restricted_mip(pos_cover, neg_counts, complexities, budget)
        assert mip.optimal and mip.objective == want, budget
        assert complexities[mip.selected].sum() == 2 * (3 - want)
    tri = two_triangle_covers()
    for budget in (6.0, 5.0):
        mip = solve_restricted_mip(tri, np.zeros(6), np.full(6, 2.0), budget)
        opt, _ = best_selection_by_enumeration(tri, np.zeros(6),
                                               np.full(6, 2.0), budget)
        assert mip.optimal and mip.objective == opt, budget


def two_triangle_covers():
    """Pairwise covers of two triangles of three positives each, every
    clause of complexity 2: at C = 6 the LP plays w = 1/2 on all six and
    reaches zero, while three whole clauses must leave one positive out."""
    tri = np.array([[1.0, 0.0, 1.0],
                    [1.0, 1.0, 0.0],
                    [0.0, 1.0, 1.0]])
    return np.block([[tri, np.zeros((3, 3))], [np.zeros((3, 3)), tri]])


def test_mip_fractional_cover_needs_branching():
    # three clauses fit the root, so it is an LP node, not an enumeration
    pos_cover = two_triangle_covers()
    neg_counts = np.zeros(6)
    complexities = np.full(6, 2.0)
    root = solve_restricted_mlp(pos_cover, neg_counts, complexities, 6.0)
    assert root.objective == pytest.approx(0.0, abs=1e-7)
    mip = solve_restricted_mip(pos_cover, neg_counts, complexities, 6.0)
    assert mip.objective == 1
    assert len(mip.selected) == 3
    assert mip.optimal
    assert mip.nodes > 1


def test_mip_weighs_negative_hits_against_coverage():
    # clause 0 is cheap but hits two negatives, clause 1 is clean but costly
    pos_cover = np.ones((3, 2))
    neg_counts = np.array([2.0, 0.0])
    complexities = np.array([2.0, 4.0])
    roomy = solve_restricted_mip(pos_cover, neg_counts, complexities, 4.0)
    assert roomy.objective == 0
    assert roomy.selected == [1]
    tight = solve_restricted_mip(pos_cover, neg_counts, complexities, 3.0)
    assert tight.objective == 2
    assert tight.selected == [0]


def test_mip_time_limit_returns_incumbent():
    # a deadline already due allows no nodes, but the greedy seed still
    # lands a real selection: one clause is all the budget admits,
    # covering two rows
    pos_cover = np.array([[1.0, 0.0, 1.0],
                          [1.0, 1.0, 0.0],
                          [0.0, 1.0, 1.0]])
    mip = solve_restricted_mip(pos_cover, np.zeros(3), np.full(3, 2.0), 3.0,
                               deadline=time.perf_counter())
    assert not mip.optimal
    assert mip.nodes == 0
    assert mip.objective == 1
    assert mip.selected == [0]


def record_node_lps(monkeypatch):
    """Record every node LP of the integer stage, the solves that carry
    clause bounds, as (budget, fixings, result); a fixing is 0 for a clause
    fixed to 0, 1 for a free one and 2 for one fixed to 1."""
    real = colgen.solve_restricted_mlp
    nodes = []

    def recording(pos_cover, neg_counts, complexities, budget, **kw):
        ms = real(pos_cover, neg_counts, complexities, budget, **kw)
        if kw.get("w_lower") is not None:
            fixings = tuple((kw["w_lower"] + kw["w_upper"]).astype(int))
            nodes.append((budget, fixings, ms))
        return ms

    monkeypatch.setattr(colgen, "solve_restricted_mlp", recording)
    return nodes


def record_enumerated_nodes(monkeypatch):
    """Record the fixings of every node the integer stage closes by
    enumeration, coded as `record_node_lps` codes them."""
    real = colgen._best_small_addition
    nodes = []

    def recording(pos_cover, neg_counts, complexities, w_lower, free, room):
        fixings = 2 * w_lower.astype(int)
        fixings[free] = 1
        nodes.append(tuple(fixings))
        return real(pos_cover, neg_counts, complexities, w_lower, free, room)

    monkeypatch.setattr(colgen, "_best_small_addition", recording)
    return nodes


def test_mip_enumerates_below_a_node_with_room_for_two(monkeypatch):
    # the root LP branches on clause 0 and takes it first; the room it
    # leaves, 4, fits only two more clauses, so no LP is solved below it
    pos_cover = two_triangle_covers()
    neg_counts = np.zeros(6)
    complexities = np.full(6, 2.0)
    solved = record_node_lps(monkeypatch)
    enumerated = record_enumerated_nodes(monkeypatch)
    mip = solve_restricted_mip(pos_cover, neg_counts, complexities, 6.0)
    opt, subset = best_selection_by_enumeration(pos_cover, neg_counts,
                                                complexities, 6.0)
    assert mip.optimal
    assert (mip.objective, mip.selected) == (opt, list(subset))
    assert mip.nodes == len(solved) + len(enumerated)
    assert solved[0][1] == (1,) * 6
    assert (2, 1, 1, 1, 1, 1) in enumerated
    # every node with a clause fixed to 1 is enumerated, not solved
    assert all(2 not in fixings for _, fixings, _ in solved)
    assert mip.pivots == sum(ms.iterations for _, _, ms in solved)


def test_mip_drops_children_at_their_parents_bound(monkeypatch):
    # every clause of at most two literals over a 16-row instance; at
    # C = 6, 7 and 8 three clauses fit the root, and below it a node
    # improves the incumbent while its sibling waits on the stack with a
    # parent bound the new incumbent meets
    X_half = [[int(c) for c in row] for row in (
        "0111", "0001", "1101", "1100", "1011", "0111", "0011", "0111",
        "0101", "0010", "0011", "0001", "1011", "0010", "0010", "1100")]
    ds = make_binary_dataset(X_half, [int(c) for c in "1110110010011100"])
    pool = ClausePool(ds)
    for size in (1, 2):
        for features in itertools.combinations(range(ds.d), size):
            pool.add(features)
    cover, negc, comp = pool.arrays()
    solved = record_node_lps(monkeypatch)
    enumerated = record_enumerated_nodes(monkeypatch)
    dropped = 0
    for C in (6, 7, 8):
        solved.clear()
        enumerated.clear()
        mip = solve_restricted_mip(cover, negc, comp, float(C))
        opt, _ = best_ruleset_by_enumeration(ds.X, ds.y, C, 2)
        assert mip.objective == opt and mip.optimal
        assert mip.nodes == len(solved) + len(enumerated)
        # a node that branched on clause k has at least one child solved
        # or enumerated; its sibling, if within the budget and never
        # reached, was dropped by the bound.  Both children carry the
        # node's fixings, clause k and the same reduced-cost fixings, so a
        # child is the node below it with the fewest fixings, and its
        # sibling differs only at k
        seen = {fixings: ms for _, fixings, ms in solved}
        reached = set(seen) | set(enumerated)
        for fixings, ms in seen.items():
            frac = np.abs(ms.w - 0.5) < 0.5 - 1e-6
            if ms.status != "optimal" or not frac.any():
                continue
            k = int(np.where(frac, np.abs(ms.w - 0.5), np.inf).argmin())
            node = np.array(fixings)
            below = [np.array(f) for f in reached if f[k] != 1 and
                     (np.array(f)[node != 1] == node[node != 1]).all()]
            if not below:
                continue
            child = min(below, key=lambda f: int((f != 1).sum()))
            sibling = child.copy()
            sibling[k] = 2 - child[k]
            if tuple(sibling) in reached or comp[sibling == 2].sum() > C:
                continue
            assert guarded_ceil(ms.objective) >= mip.objective
            dropped += 1
    # without the parent bound each dropped child costs one more node
    assert dropped >= 2


def test_mip_shuts_a_clause_out_by_its_root_reduced_cost(monkeypatch):
    # the pairwise covers of two triangles play w = 1/2 at the root for an
    # LP value of 0, while the greedy seed leaves one positive out.
    # Clause 6 covers all six but hits six negatives: at any optimal root
    # duals lam <= 1 and mu sums to 6 lam, so its reduced cost 6 - 4 lam
    # is at least 2, more than the gap of 1 between the incumbent and the
    # rounded-up root value, and no node below the root may take it
    pos_cover = np.hstack([two_triangle_covers(), np.ones((6, 1))])
    neg_counts = np.array([0.0] * 6 + [6.0])
    complexities = np.full(7, 2.0)
    solved = record_node_lps(monkeypatch)
    enumerated = record_enumerated_nodes(monkeypatch)
    mip = solve_restricted_mip(pos_cover, neg_counts, complexities, 6.0)
    opt, _ = best_selection_by_enumeration(pos_cover, neg_counts,
                                           complexities, 6.0)
    assert mip.optimal and mip.objective == opt == 1
    assert mip.nodes == len(solved) + len(enumerated)
    (_, fixings, root), *below = solved
    assert fixings == (1,) * 7
    d = neg_counts + root.lam * complexities - root.mu @ pos_cover
    assert d[6] > mip.objective - guarded_ceil(root.objective)
    assert below and enumerated
    assert all(f[6] == 0 for _, f, _ in below)
    assert all(f[6] == 0 for f in enumerated)


def test_mip_fixes_a_clause_to_one_only_at_the_incumbent():
    # nine positives, no negatives and budget 7.  The greedy seed takes
    # clauses 3 and 4, three positives each, and misses three.  The root
    # LP value is 2, the optimum's, and HiGHS's root answer puts clauses 0
    # and 3 at w = 1 with reduced cost 0, so dropping either rounds up to
    # 2: one below the incumbent, which is not enough to fix it to 1.  The
    # one selection of loss 2, clauses 0, 2 and 4, leaves clause 3 out.
    # Random pools seldom reach this line, since the greedy seed is often
    # optimal already
    covers = [{5, 7}, {3}, {4, 6}, {1, 2, 4}, {0, 3, 8}]
    pos_cover = np.zeros((9, 5))
    for k, rows in enumerate(covers):
        pos_cover[sorted(rows), k] = 1.0
    neg_counts = np.zeros(5)
    complexities = np.array([2.0, 3.0, 2.0, 3.0, 3.0])
    greedy = colgen._greedy_selection(pos_cover, neg_counts, complexities, 7.0)
    assert sorted(greedy) == [3, 4]
    opt, subset = best_selection_by_enumeration(pos_cover, neg_counts,
                                                complexities, 7.0)
    assert (opt, subset) == (2, (0, 2, 4))
    root = solve_restricted_mlp(pos_cover, neg_counts, complexities, 7.0)
    assert guarded_ceil(root.objective) == 2
    for start in (root, None):
        mip = solve_restricted_mip(pos_cover, neg_counts, complexities, 7.0,
                                   root=start)
        assert mip.optimal
        assert (mip.objective, mip.selected) == (2, [0, 2, 4])


def test_mip_pivots_sum_the_node_lps(monkeypatch):
    # each budget's count covers its one selection over the final pool
    solved = record_node_lps(monkeypatch)
    points = sweep_complexity(two_triangles(), [2, 3, 5, 7],
                              small_config(6, 2))
    pivots = defaultdict(int)
    for budget, _, ms in solved:
        pivots[budget] += ms.iterations
    for p in points:
        assert p.mip_pivots == pivots[float(p.complexity_bound)]
    assert sum(pivots.values()) > 0


def test_converged_selection_reuses_the_last_master_as_its_root(monkeypatch):
    # at C = 7 the LP bound falls short of the integer loss and three
    # clauses fit the root, so the selection branches below its root LP
    ds, cfg = two_triangles(), small_config(7, 2)
    pool = ClausePool(ds)
    growth, master = colgen._grow_pool(ds, cfg, pool)
    assert growth.rmlp_converged
    # the growth's result is the empty selection's, which `_select` completes
    assert ((growth.clauses, growth.objective, growth.optimal,
             growth.mip_optimal) == ([], len(ds.pos), False, False))
    real_mlp, real_mip = colgen.solve_restricted_mlp, colgen.solve_restricted_mip
    solved, mips = [], []

    def counting_mlp(*args, **kw):
        solved.append(real_mlp(*args, **kw))
        return solved[-1]

    def recording_mip(*args, **kw):
        mips.append(real_mip(*args, **kw))
        return mips[-1]

    monkeypatch.setattr(colgen, "solve_restricted_mlp", counting_mlp)
    monkeypatch.setattr(colgen, "solve_restricted_mip", recording_mip)
    enumerated = record_enumerated_nodes(monkeypatch)
    res = colgen._select(pool, cfg, growth, master)
    mip, = mips
    assert res.mip_nodes == mip.nodes >= 2
    assert len(solved) == mip.nodes - 1 - len(enumerated)
    assert res.mip_pivots == sum(ms.iterations for ms in solved)
    # re-solving the root changes nothing but the pivots it costs, which
    # are the last master's, and it has the last master's value
    again = real_mip(*pool.arrays(), 7.0)
    assert again.optimal and mip.optimal
    assert ((mip.objective, mip.selected, mip.nodes)
            == (again.objective, again.selected, again.nodes))
    assert again.pivots == mip.pivots + growth.trace[-1].master_pivots
    resolved = real_mlp(*pool.arrays(), 7.0)
    assert resolved.objective == pytest.approx(master.objective, abs=1e-7)
    assert guarded_ceil(resolved.objective) < mip.objective


def test_highs_never_sees_an_lp_without_a_free_clause(monkeypatch):
    real = scipy.optimize.linprog
    free_clauses = []

    def recording(c, A_ub, **kw):
        # a master or node LP has one xi per cover row, then its free
        # clauses; the last row is the budget
        free_clauses.append(len(c) - (A_ub.shape[0] - 1))
        return real(c, A_ub=A_ub, **kw)

    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    # every fit starts from an empty pool
    ds = two_triangles()
    for C in (3, 5, 7):
        res = run_column_generation(ds, small_config(C, 2))
        opt, _ = best_ruleset_by_enumeration(ds.X, ds.y, C, 2)
        assert res.objective == opt
    # node LPs that fix every clause, within the budget or over it
    pos_cover = np.array([[1.0, 0.0, 1.0],
                          [1.0, 1.0, 0.0],
                          [0.0, 1.0, 1.0]])
    for ones in itertools.product((0.0, 1.0), repeat=3):
        ms = solve_restricted_mlp(pos_cover, np.zeros(3), np.full(3, 2.0),
                                  3.0, w_lower=np.array(ones),
                                  w_upper=np.array(ones))
        assert ms.status == ("optimal" if sum(ones) <= 1 else "infeasible")
    assert free_clauses and min(free_clauses) > 0


# -- the budget sweep --------------------------------------------------------


def test_sweep_matches_per_budget_optimum_and_never_degrades():
    rng = np.random.default_rng(99)
    ds = random_instance(rng)
    budgets = [2, 4, 6, 8]
    points = sweep_complexity(ds, budgets, small_config(8, 2))
    assert [p.complexity_bound for p in points] == budgets
    prev = None
    for p in points:
        opt, _ = best_ruleset_by_enumeration(ds.X, ds.y, p.complexity_bound, 2)
        assert p.objective == opt
        assert sum(c.complexity for c in p.clauses) <= p.complexity_bound
        if prev is not None:
            assert p.objective <= prev
        prev = p.objective


def recording_sweep(monkeypatch):
    """Record each budget's growth, the empty selection's result and the
    last optimal master, by budget, every integer solve as (budget, pool
    columns, nodes), and the order of both as ("grow" | "select",
    budget)."""
    grown, solves, order = {}, [], []
    real_grow = colgen._grow_pool
    real_mip = colgen.solve_restricted_mip

    def grow(ds, cfg, pool):
        growth = real_grow(ds, cfg, pool)
        grown[cfg.complexity_bound] = growth
        order.append(("grow", cfg.complexity_bound))
        return growth

    def mip(pos_cover, neg_counts, complexities, budget, **kw):
        out = real_mip(pos_cover, neg_counts, complexities, budget, **kw)
        solves.append((int(budget), pos_cover.shape[1], out.nodes))
        order.append(("select", int(budget)))
        return out

    monkeypatch.setattr(colgen, "_grow_pool", grow)
    monkeypatch.setattr(colgen, "solve_restricted_mip", mip)
    return grown, solves, order


def test_sweep_grows_every_budget_then_selects_each_once(monkeypatch):
    grown, solves, order = recording_sweep(monkeypatch)
    # the pool grows at C = 3 and again at C = 7
    ds = random_instance(np.random.default_rng(10))
    budgets = [2, 3, 5, 7]
    points = sweep_complexity(ds, budgets, small_config(6, 2))
    # every budget grows the pool, then each selects once over the final one
    assert order == ([("grow", C) for C in budgets]
                     + [("select", C) for C in budgets])
    final = grown[7][0].trace[-1].pool_size
    assert grown[2][0].trace[-1].pool_size < final
    for p, (C, columns, nodes) in zip(points, solves):
        assert C == p.complexity_bound
        assert columns == p.pool_size == final
        assert p.mip_nodes == nodes >= 1
        opt, _ = best_ruleset_by_enumeration(ds.X, ds.y, C, 2)
        assert p.objective == opt


class Selection(NamedTuple):
    budget: int
    arrays: tuple  # (pos_cover, neg_counts, complexities)
    root: object  # the MasterSolution it was given, or None
    result: object  # its MIPResult
    node_lps: list  # as `record_node_lps` records them
    enumerated: list  # as `record_enumerated_nodes` records them


def recording_selections(monkeypatch):
    """Record every integer solve as a `Selection`, in call order."""
    node_lps = record_node_lps(monkeypatch)
    enumerated = record_enumerated_nodes(monkeypatch)
    real = colgen.solve_restricted_mip
    selections = []

    def mip(pos_cover, neg_counts, complexities, budget, **kw):
        lps, enum = len(node_lps), len(enumerated)
        out = real(pos_cover, neg_counts, complexities, budget, **kw)
        selections.append(Selection(
            int(budget), (pos_cover, neg_counts, complexities),
            kw.get("root"), out, node_lps[lps:], enumerated[enum:]))
        return out

    monkeypatch.setattr(colgen, "solve_restricted_mip", mip)
    return selections


def assert_padded_root(selection, master):
    """The selection's root is the growth's last master, with w = 0 on the
    clauses added after it."""
    root = selection.root
    old = len(master.w)
    assert root is not None and len(root.w) == selection.arrays[0].shape[1]
    assert np.array_equal(root.w[:old], master.w) and not root.w[old:].any()
    assert root.objective == master.objective and root.lam == master.lam
    assert np.array_equal(root.mu, master.mu)


def test_sweep_reuses_every_converged_master_as_its_root(monkeypatch):
    # every growth converges, the pool grows at C = 8 and again at C = 12,
    # and three clauses fit every root.  Each selection takes its budget's
    # last master as its root, padded for the clauses the later budgets
    # added, and solves only the LPs below it
    grown, _, _ = recording_sweep(monkeypatch)
    selections = recording_selections(monkeypatch)
    ds = random_instance(np.random.default_rng(5))
    budgets = [6, 8, 10, 12]
    points = sweep_complexity(ds, budgets, small_config(6, 2))
    final = grown[12][0].trace[-1].pool_size
    assert len(grown[6][1].w) < final
    for p, s in zip(points, selections):
        C, (growth, master) = s.budget, grown[s.budget]
        assert C == p.complexity_bound and growth.rmlp_converged
        assert_padded_root(s, master)
        assert len(s.node_lps) == s.result.nodes - 1 - len(s.enumerated)
        # pricing proved the padded root optimal over the final pool
        resolved = solve_restricted_mlp(*s.arrays, float(C))
        assert resolved.objective == pytest.approx(master.objective,
                                                   abs=1e-7)
        opt, _ = best_selection_by_enumeration(*s.arrays, float(C))
        assert p.mip_optimal and p.objective == opt


def test_sweep_pads_a_root_past_clauses_its_budget_cannot_afford(monkeypatch):
    # with no clause bound, C = 6 prices clauses of up to 5 literals and
    # C = 14 clauses of up to 13, and C = 14 adds some of 6 literals or
    # more.  Those cost more than 6, so no selection at C = 6 takes them;
    # they join its root at w = 0 all the same, and the branch and bound
    # below that root still proves the pool's best selection
    grown, _, _ = recording_sweep(monkeypatch)
    selections = recording_selections(monkeypatch)
    ds = random_instance(np.random.default_rng(98), rows=(14, 30),
                         columns=(6, 8))
    small, _ = sweep_complexity(ds, [6, 14], small_config(6))
    s = selections[0]
    _, _, comp = s.arrays
    growth, master = grown[6]
    assert growth.rmlp_converged
    assert_padded_root(s, master)
    assert (comp[len(master.w):] > 6).any()
    assert s.result.nodes > 1
    opt, _ = best_selection_by_enumeration(*s.arrays, 6.0)
    assert small.mip_optimal and small.objective == opt


def test_sweep_resolves_the_root_of_a_budget_that_did_not_converge(
        monkeypatch):
    # every pricing call of the C = 6 growth comes back empty and
    # unproven, so it stops on the empty pool's master without converging;
    # C = 9 then grows the pool.  Over that pool the greedy seed at C = 6
    # misses the best selection by one, and the empty pool's master padded
    # with w = 0 sits at the empty selection: taken as the root, it would
    # end the search on the greedy seed
    real_grow, real_price = colgen._grow_pool, colgen.price_exact

    def unproven(*args, **kw):
        return replace(real_price(*args, **kw), clauses=[],
                       proven_optimal=False)

    def grow(ds, cfg, pool):
        with pytest.MonkeyPatch.context() as mp:
            if cfg.complexity_bound == 6:
                mp.setattr(colgen, "price_exact", unproven)
            return real_grow(ds, cfg, pool)

    monkeypatch.setattr(colgen, "_grow_pool", grow)
    grown, _, _ = recording_sweep(monkeypatch)
    selections = recording_selections(monkeypatch)
    ds = random_instance(np.random.default_rng(45))
    small, _ = sweep_complexity(ds, [6, 9], small_config(6, 2))
    growth, master = grown[6]
    assert not growth.rmlp_converged and len(master.w) == 0
    s = selections[0]
    cover, negc, comp = s.arrays
    opt, _ = best_selection_by_enumeration(cover, negc, comp, 6.0)
    greedy = colgen._greedy_selection(cover, negc, comp, 6.0)
    assert colgen._selection_objective(cover, negc, greedy) == opt + 1
    assert small.mip_optimal and small.objective == opt
    # the root LP is solved over the whole pool
    assert s.root is None
    assert s.node_lps[0][1] == (1,) * len(comp)


def test_single_budget_sweep_is_run_column_generation():
    rng = np.random.default_rng(3)
    instances = [two_triangles()] + [random_instance(rng) for _ in range(6)]
    for ds in instances:
        for C in (3, 5):
            swept, = sweep_complexity(ds, [C], small_config(7, 2))
            alone = run_column_generation(ds, small_config(C, 2))
            a, b = swept, alone
            assert swept.complexity_bound == C
            assert a.objective == b.objective
            assert a.clauses == b.clauses
            assert a.lower_bound == b.lower_bound
            assert a.z_rmlp == b.z_rmlp
            assert a.optimal == b.optimal
            assert (a.mip_nodes, a.mip_pivots) == (b.mip_nodes, b.mip_pivots)
            assert (a.iterations, a.pool_size) == (b.iterations, b.pool_size)


def test_sweep_resolves_cold_without_a_first_pass_basis(monkeypatch):
    # every master of the C = 3 growth fails, so it ends "master-failed";
    # its selection, like every other, solves its root LP from scratch
    real = colgen.solve_restricted_mlp

    def failing(pos_cover, neg_counts, complexities, budget, **kw):
        ms = real(pos_cover, neg_counts, complexities, budget, **kw)
        if budget == 3.0 and kw.get("w_lower") is None:
            ms.status = "numerical"
        return ms

    monkeypatch.setattr(colgen, "solve_restricted_mlp", failing)
    grown, solves, _ = recording_sweep(monkeypatch)
    ds = two_triangles()
    budgets = [2, 3, 5, 7]
    points = sweep_complexity(ds, budgets, small_config(6, 2))
    assert grown[3][0].trace[-1].mode == "master-failed"
    assert sorted(C for C, _, _ in solves) == budgets
    for p in points:
        opt, _ = best_ruleset_by_enumeration(ds.X, ds.y, p.complexity_bound, 2)
        assert p.objective == opt


def test_sweep_deduplicates_budgets():
    ds = tiny_example()
    points = sweep_complexity(ds, [4, 2, 4], small_config(4))
    assert [p.complexity_bound for p in points] == [2, 4]
