import math
import time

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from boolrules.lp_engine import (
    LinearProgram,
    Row,
    build_restricted_mlp,
    solve_lp,
    solve_restricted_mlp,
)
from _oracles import (
    kkt_residuals,
    le_form,
    lp_minimum_by_vertex_enumeration,
    master_rows,
)

KKT_TOL = 1e-7


def random_lp(rng, n_max=8, m_max=6):
    return LinearProgram(*random_lp_parts(rng, n_max, m_max))


def random_lp_parts(rng, n_max=8, m_max=6):
    """objective, lower, upper and the list of Row of a random LP."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    lower = rng.integers(-3, 1, size=n).astype(float)
    upper = lower + rng.integers(1, 6, size=n).astype(float)
    if rng.random() < 0.15:
        j = int(rng.integers(n))
        upper[j] = lower[j]
    objective = rng.integers(-5, 6, size=n).astype(float)
    rows = []
    for _ in range(m):
        coeffs = rng.integers(-4, 5, size=n).astype(float)
        coeffs[rng.random(n) < 0.3] = 0.0
        idx = tuple(np.flatnonzero(coeffs))
        if not idx:
            coeffs = np.zeros(n)
            coeffs[0] = 1.0
            idx = (0,)
        sense = "<=" if rng.random() < 0.5 else ">="
        rhs = float(rng.integers(-8, 9))
        rows.append(Row(idx, tuple(coeffs[list(idx)]), sense, rhs))
    return objective, lower, upper, rows


def check_against_oracle(lp, tol_obj=1e-6):
    rows = [(r.indices, r.coeffs, r.sense, r.rhs) for r in lp.rows]
    ostat, oval, _ = lp_minimum_by_vertex_enumeration(
        lp.objective, lp.lower, lp.upper, rows)
    sol = solve_lp(lp)
    if ostat == "infeasible":
        assert sol.status == "infeasible"
        return sol
    assert sol.status == "optimal", sol.status
    assert sol.objective == pytest.approx(oval, abs=tol_obj)
    resid = kkt_residuals(lp, sol)
    assert max(resid.values()) <= KKT_TOL, resid
    return sol


def test_box_lp_by_hand():
    # min -x1 - 2 x2  s.t.  x1 + x2 <= 3,  0 <= x <= 2
    # optimum sits at x = (1, 2), objective -5
    lp = LinearProgram(
        objective=np.array([-1.0, -2.0]),
        lower=np.zeros(2), upper=np.full(2, 2.0),
        rows=[Row((0, 1), (1.0, 1.0), "<=", 3.0)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-5.0)
    assert sol.x == pytest.approx([1.0, 2.0])
    # the row is binding and its dual prices a unit of slack at -1
    assert sol.duals == pytest.approx([-1.0])


def test_geq_row_dual_sign():
    # min x  s.t.  x >= 2,  0 <= x <= 5 : dual of a binding >= row is >= 0
    lp = LinearProgram(np.array([1.0]), np.zeros(1), np.full(1, 5.0),
                       rows=[Row((0,), (1.0,), ">=", 2.0)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0)
    assert sol.duals[0] == pytest.approx(1.0)


def test_infeasible_rows():
    lp = LinearProgram(np.array([1.0]), np.zeros(1), np.full(1, 3.0),
                       rows=[Row((0,), (1.0,), ">=", 2.0),
                             Row((0,), (1.0,), "<=", 1.0)])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_with_row():
    lp = LinearProgram(np.array([-1.0, 0.0]), np.zeros(2),
                       np.array([np.inf, 1.0]),
                       rows=[Row((1,), (1.0,), "<=", 1.0)])
    assert solve_lp(lp).status == "unbounded"


def test_no_rows_lp_goes_to_highs(monkeypatch):
    # each variable rests at its cheaper bound; HiGHS gets no row matrix
    seen = capture_highs_input(monkeypatch)
    lp = LinearProgram(np.array([2.0, -3.0, 0.0]),
                       np.array([-1.0, -1.0, 4.0]),
                       np.array([5.0, 2.0, 4.0]), rows=[])
    sol = solve_lp(lp)
    assert seen == [(None, None)]
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([-1.0, 2.0, 4.0])
    assert sol.objective == pytest.approx(-8.0)
    assert sol.duals.shape == (0,)
    assert max(kkt_residuals(lp, sol).values()) == 0.0
    lp2 = LinearProgram(np.array([1.0]), np.array([-np.inf]),
                        np.array([0.0]), rows=[])
    assert solve_lp(lp2).status == "unbounded"


def test_free_variables_rejected():
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0]), np.array([-np.inf]),
                      np.array([np.inf]),
                      rows=[Row((0,), (1.0,), "<=", 1.0)])


def test_fixed_variable():
    lp = LinearProgram(np.array([1.0, 1.0]), np.array([2.0, 0.0]),
                       np.array([2.0, 3.0]),
                       rows=[Row((0, 1), (1.0, 1.0), ">=", 4.0)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([2.0, 2.0])


def test_past_deadline_returns_time_limit():
    lp = LinearProgram(
        objective=np.array([-1.0, -1.0, -1.0]),
        lower=np.zeros(3), upper=np.full(3, 10.0),
        rows=[Row((0, 1, 2), (1.0, 1.0, 1.0), "<=", 5.0),
              Row((0, 1), (1.0, 2.0), "<=", 7.0)])
    sol = solve_lp(lp, deadline=time.perf_counter() - 1.0)
    assert sol.status == "time-limit" and sol.iterations == 0
    assert math.isnan(sol.objective)
    assert solve_lp(lp, deadline=time.perf_counter() + 60.0).status == \
        "optimal"
    # a master past its deadline carries no duals
    ms = solve_restricted_mlp(np.ones((3, 2)), np.zeros(2), np.full(2, 2.0),
                              4.0, deadline=time.perf_counter() - 1.0)
    assert ms.status == "time-limit"
    assert ms.lam == 0.0 and not ms.mu.any()


def fake_linprog(status):
    def linprog(*args, **kw):
        return scipy.optimize.OptimizeResult(status=status, nit=3, x=None,
                                             fun=None, message="")
    return linprog


@pytest.mark.parametrize("code, status", [
    (1, "time-limit"), (2, "infeasible"), (3, "unbounded"), (4, "numerical")])
def test_highs_statuses_map_to_solver_statuses(monkeypatch, code, status):
    monkeypatch.setattr(scipy.optimize, "linprog", fake_linprog(code))
    lp = LinearProgram(np.array([1.0, 1.0]), np.zeros(2), np.ones(2),
                       rows=[Row((0, 1), (1.0, 1.0), ">=", 1.0)])
    sol = solve_lp(lp)
    assert (sol.status, sol.iterations) == (status, 3)
    assert math.isnan(sol.objective) and not sol.duals.any()


def test_no_variables_rejected():
    # no master or node LP is built without a variable: one with no free
    # clause is answered before an LP exists
    none = np.zeros(0)
    with pytest.raises(ValueError, match="at least one variable"):
        LinearProgram(none, none, none,
                      matrix=(sp.csc_matrix((2, 0)), [1.0, -1.0], [3.0, -1.0]))
    with pytest.raises(ValueError, match="at least one variable"):
        LinearProgram(none, none, none, rows=[])


def test_degenerate_lp_terminates():
    # many redundant binding rows through the origin
    n = 6
    rows = []
    for k in range(12):
        coeffs = tuple(float((k + j) % 3) for j in range(n))
        idx = tuple(j for j in range(n) if coeffs[j] != 0.0)
        rows.append(Row(idx, tuple(coeffs[j] for j in idx), "<=", 0.0))
    lp = LinearProgram(np.full(n, -1.0), np.zeros(n), np.full(n, 1.0),
                       rows=rows)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    resid = kkt_residuals(lp, sol)
    assert max(resid.values()) <= KKT_TOL


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(20240817)
    infeasible = 0
    for _ in range(150):
        lp = random_lp(rng)
        sol = check_against_oracle(lp)
        infeasible += sol.status == "infeasible"
    # the draw should exercise both outcomes
    assert 0 < infeasible < 150


def test_master_empty_pool_analytic():
    ms = solve_restricted_mlp(
        pos_cover=np.zeros((2, 0)), neg_counts=np.zeros(0),
        complexities=np.zeros(0), budget=4.0)
    assert ms.status == "optimal"
    assert ms.objective == pytest.approx(2.0)
    assert ms.mu == pytest.approx([1.0, 1.0])
    assert ms.lam == 0.0


def test_master_single_covering_clause():
    # one clause covering both positives, no negatives, cost 2, budget 4:
    # taking it fully drops the objective to 0
    cov = np.ones((2, 1))
    ms = solve_restricted_mlp(cov, np.zeros(1), np.array([2.0]), 4.0)
    assert ms.status == "optimal"
    assert ms.objective == pytest.approx(0.0)
    assert ms.w == pytest.approx([1.0])
    assert ms.xi == pytest.approx([0.0, 0.0])
    assert ms.lam >= 0.0 and np.all(ms.mu >= 0.0)


def test_master_budget_binding_dual():
    # clause covers the single positive but the budget only allows half of
    # it; lam must price the budget row
    cov = np.ones((1, 1))
    ms = solve_restricted_mlp(cov, np.zeros(1), np.array([2.0]), 1.0)
    assert ms.status == "optimal"
    assert ms.w == pytest.approx([0.5])
    assert ms.objective == pytest.approx(0.5)
    assert ms.lam == pytest.approx(0.5)
    assert ms.mu == pytest.approx([1.0])


def test_master_w_upper_fixing():
    # forcing the only useful clause out reverts to paying every positive;
    # both fixings leave the presolved node LP with no clause at all
    cov = np.ones((3, 1))
    ms = solve_restricted_mlp(cov, np.zeros(1), np.array([2.0]), 8.0,
                              w_upper=np.zeros(1))
    assert ms.status == "optimal"
    assert ms.objective == pytest.approx(3.0)
    assert ms.w.tolist() == [0.0] and ms.xi.tolist() == [1.0, 1.0, 1.0]
    ms2 = solve_restricted_mlp(cov, np.ones(1), np.array([2.0]), 8.0,
                               w_lower=np.ones(1))
    assert ms2.status == "optimal"
    # the fixed clause's one negative comes back as a constant
    assert ms2.objective == pytest.approx(1.0)
    assert ms2.w.tolist() == [1.0] and ms2.xi.tolist() == [0.0, 0.0, 0.0]
    # a clause fixed to 1 past the budget leaves no feasible point
    ms3 = solve_restricted_mlp(cov, np.zeros(1), np.array([2.0]), 1.0,
                               w_lower=np.ones(1))
    assert ms3.status == "infeasible"


def test_build_restricted_mlp_shapes():
    with pytest.raises(ValueError):
        build_restricted_mlp(np.zeros(3), np.zeros(1), np.zeros(1), 4.0)
    lp = build_restricted_mlp(np.zeros((3, 2)), np.zeros(2),
                              np.full(2, 2.0), 4.0)
    assert len(lp.objective) == 5
    assert len(lp.rows) == 4


def test_clause_fixed_to_one_drops_its_rows():
    cover = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=float)
    # fixing clause 0 to 1 covers rows 0 and 1, so the presolve drops
    # them and spends 2 of the budget; what is left buys clause 1 for
    # positive 2, and positive 3 stays uncovered
    ms = solve_restricted_mlp(cover, np.zeros(3), np.full(3, 2.0), 4.0,
                              w_lower=np.array([1.0, 0, 0]))
    assert ms.status == "optimal"
    assert ms.w.tolist() == [1.0, 1.0, 0.0]
    assert ms.xi.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert ms.objective == pytest.approx(1.0)


def unreduced_node_lp(cover, negc, comp, budget, w_lower, w_upper):
    """A node LP with every positive's row and every clause, its fixings
    held by the clause bounds alone."""
    n_pos, K = cover.shape
    return LinearProgram(
        np.concatenate([np.ones(n_pos), negc]),
        np.concatenate([np.zeros(n_pos), w_lower]),
        np.concatenate([np.ones(n_pos), w_upper]),
        rows=[Row(*r) for r in master_rows(cover, comp, budget)])


def random_node(rng):
    """A random cover whose rows are drawn from a few patterns, so they
    repeat, and random clause fixings, at least one of them."""
    n_pos, K = int(rng.integers(1, 10)), int(rng.integers(1, 6))
    patterns = rng.random((int(rng.integers(1, 4)), K)) < 0.4
    cover = patterns[rng.integers(len(patterns), size=n_pos)].astype(float)
    negc = rng.integers(0, 4, size=K).astype(float)
    comp = rng.integers(2, 5, size=K).astype(float)
    fix = rng.integers(0, 3, size=K)  # free, fixed to 0, fixed to 1
    fix[rng.integers(K)] = rng.integers(1, 3)
    return (cover, negc, comp, float(rng.integers(2, 12)),
            (fix == 2).astype(float), (fix != 1).astype(float))


def test_presolved_node_lp_matches_the_unreduced_lp():
    rng = np.random.default_rng(808)
    two = np.array([2.0, 3.0])
    cases = [random_node(rng) for _ in range(200)] + [
        # clause 0 fixed to 1 covers every row
        (np.array([[1, 0], [1, 1], [1, 0]], dtype=float), np.array([2.0, 0]),
         two, 6.0, np.array([1.0, 0]), np.ones(2)),
        # no free clause; rows 1 and 2 repeat and are left uncovered
        (np.array([[1, 0], [0, 1], [0, 1]], dtype=float), np.array([1.0, 0]),
         two, 6.0, np.array([1.0, 0]), np.array([1.0, 0])),
        # four identical rows of two free clauses, the budget binding
        (np.ones((4, 2)), np.array([1.0, 0]), np.array([2.0, 4.0]), 3.0,
         np.zeros(2), np.array([1.0, 0])),
        # the clause fixed to 1 alone overruns the budget
        (np.ones((2, 2)), np.zeros(2), two, 2.5, np.array([0.0, 1]),
         np.ones(2)),
    ]
    statuses = []
    for cover, negc, comp, budget, w_lower, w_upper in cases:
        ms = solve_restricted_mlp(cover, negc, comp, budget,
                                  w_lower=w_lower, w_upper=w_upper)
        lp = unreduced_node_lp(cover, negc, comp, budget, w_lower, w_upper)
        ref = solve_lp(lp)
        statuses.append(ref.status)
        assert ms.status == ref.status
        if lp.n_vars <= 6:
            status, value, _ = lp_minimum_by_vertex_enumeration(
                lp.objective, lp.lower, lp.upper,
                master_rows(cover, comp, budget))
            assert status == ref.status
            if value is not None:
                assert ms.objective == pytest.approx(value, abs=1e-7)
        if ref.status != "optimal":
            continue
        assert ms.objective == pytest.approx(ref.objective, abs=1e-7)
        # the expanded point keeps the fixings, fits the budget, covers
        # every positive and attains the value
        w, xi = ms.w, ms.xi
        assert w.shape == w_lower.shape and xi.shape == (cover.shape[0],)
        assert np.all(w >= w_lower) and np.all(w <= w_upper)
        assert np.all(xi >= 0.0) and np.all(xi <= 1.0)
        assert comp @ w <= budget + 1e-9
        assert np.all(xi + cover @ w >= 1.0 - 1e-9)
        assert xi.sum() + negc @ w == pytest.approx(ms.objective, abs=1e-7)
    assert statuses.count("infeasible") >= 5
    assert statuses.count("optimal") >= 150


def test_node_bounds_must_be_fixings():
    cov = np.ones((2, 2))
    with pytest.raises(ValueError):
        solve_restricted_mlp(cov, np.zeros(2), np.full(2, 2.0), 4.0,
                             w_lower=np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        solve_restricted_mlp(cov, np.zeros(2), np.full(2, 2.0), 4.0,
                             w_lower=np.ones(2), w_upper=np.array([1.0, 0]))


def assert_same_csc(A, B):
    assert A.shape == B.shape
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, field), getattr(B, field)), field


def capture_highs_input(monkeypatch):
    """Record the (A_ub, b_ub) of every linprog call, then solve it."""
    real = scipy.optimize.linprog
    seen = []

    def recording(c, A_ub, b_ub, **kw):
        seen.append((A_ub, b_ub))
        return real(c, A_ub=A_ub, b_ub=b_ub, **kw)

    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    return seen


def test_highs_matrix_equals_row_by_row_reference(monkeypatch):
    # the <= form handed to HiGHS's simplex, and the caller's matrix left
    # as it was
    seen = capture_highs_input(monkeypatch)
    rng = np.random.default_rng(11)
    for parts in [random_lp_parts(rng) for _ in range(60)]:
        rows = [(r.indices, r.coeffs, r.sense, r.rhs) for r in parts[3]]
        A_ref, b_ref = le_form(rows, len(parts[0]))
        lp = LinearProgram(*parts)
        before = lp.A.copy()
        solve_lp(lp)
        A_ub, b_ub = seen.pop()
        assert_same_csc(A_ub, sp.csc_matrix(A_ref))
        assert b_ub.tolist() == b_ref.tolist()
        assert_same_csc(lp.A, before)


def test_build_restricted_mlp_rows_match_per_row_construction(monkeypatch):
    seen = capture_highs_input(monkeypatch)
    rng = np.random.default_rng(5)
    cases = [
        (np.zeros((4, 0)), None),                              # K=0
        (np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]]), None),   # uncovered
        (np.ones((3, 2)), None),                               # all covered
        (np.zeros((0, 3)), None),                              # no positives
        # merged rows cost their group sizes, which changes no row
        (np.array([[1, 0, 1], [0, 1, 1]]), np.array([3.0, 2.0])),
    ] + [((rng.random((int(rng.integers(1, 15)), int(rng.integers(1, 9))))
           < 0.3).astype(float), None) for _ in range(30)]
    for cover, xi_cost in cases:
        n_pos, K = cover.shape
        comp = np.arange(2.0, 2.0 + K)
        lp = build_restricted_mlp(cover, np.zeros(K), comp, 5.0,
                                  xi_cost=xi_cost)
        ref = master_rows(cover, comp, 5.0)
        # the solver's <= form, array for array
        solve_lp(lp)
        assert_same_csc(seen.pop()[0],
                        sp.csc_matrix(le_form(ref, n_pos + K)[0]))
        assert lp.sign.tolist() == [-1.0] * n_pos + [1.0]
        assert lp.rhs.tolist() == [1.0] * n_pos + [5.0]
        # the row view read back from the matrix is the per-row build
        assert len(lp.rows) == len(ref)
        for row, (idx, coeffs, sense, rhs) in zip(lp.rows, ref):
            assert row.indices.dtype == np.int64
            assert row.indices.tolist() == idx
            assert row.coeffs.tolist() == coeffs
            assert (row.sense, row.rhs) == (sense, rhs)
        assert lp.objective[:n_pos].tolist() == (
            [1.0] * n_pos if xi_cost is None else xi_cost.tolist())
        assert lp.lower.tolist() == [0.0] * (n_pos + K)
        assert lp.upper.tolist() == [1.0] * (n_pos + K)
