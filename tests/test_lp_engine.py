import math
import time

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from boolrules.lp_engine import build_restricted_mlp, solve_restricted_mlp
from _oracles import (
    highs_on_le_form,
    kkt_residuals,
    le_form,
    lp_minimum_by_vertex_enumeration,
    unreduced_master,
)

KKT_TOL = 1e-7


def master_kkt(ms, cover, negc, comp, budget, w_lower=None, w_upper=None):
    """The KKT residuals of a solve_restricted_mlp answer, its point
    (xi, w) and duals (mu, -lam), on the unreduced master or node LP."""
    return kkt_residuals(*unreduced_master(cover, negc, comp, budget,
                                           w_lower, w_upper),
                         np.concatenate([ms.xi, ms.w]),
                         np.append(ms.mu, -ms.lam))


def test_box_lp_by_hand():
    # min xi0 + xi1 + w1  s.t.  xi0 + w0 >= 1,  xi1 + w0 + w1 >= 1,
    # 4 w0 + 2 w1 <= 3, all in [0, 1]: clause 0 covers both positives and
    # buys 3/4 of itself; clause 1 pays a negative for one positive and
    # stays out.  Every row binds, and xi0, xi1 and w0 lie strictly inside
    # their bounds, so the cover duals are 1 and the budget prices clause
    # 0's two positives at 4 lam = 2
    cover = np.array([[1.0, 0.0], [1.0, 1.0]])
    ms = solve_restricted_mlp(cover, np.array([0.0, 1.0]),
                              np.array([4.0, 2.0]), 3.0)
    assert ms.status == "optimal"
    assert ms.objective == pytest.approx(0.5)
    assert ms.xi == pytest.approx([0.25, 0.25])
    assert ms.w == pytest.approx([0.75, 0.0])
    assert ms.mu == pytest.approx([1.0, 1.0])
    assert ms.lam == pytest.approx(0.5)


def test_infeasible_rows():
    # no clause fits a negative budget, so the budget row cannot hold
    ms = solve_restricted_mlp(np.ones((2, 1)), np.zeros(1), np.array([2.0]),
                              -1.0)
    assert ms.status == "infeasible"
    assert math.isnan(ms.objective)
    assert ms.lam == 0.0 and not ms.mu.any() and not ms.w.any()


def test_fixed_variable():
    # clause 0 would cover both positives for free but is fixed to 0; in
    # the presolved node, clause 2 covers positive 1 for free, and clause
    # 1 covers positive 0 at one negative, a tie with leaving it uncovered
    cover = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    ms = solve_restricted_mlp(cover, np.array([0.0, 1.0, 0.0]),
                              np.full(3, 2.0), 4.0,
                              w_upper=np.array([0.0, 1.0, 1.0]))
    assert ms.status == "optimal"
    assert ms.objective == pytest.approx(1.0)
    assert ms.w[0] == 0.0 and ms.w[2] == pytest.approx(1.0)
    assert ms.xi[1] == pytest.approx(0.0)
    resid = master_kkt(ms, cover, np.array([0.0, 1.0, 0.0]), np.full(3, 2.0),
                       4.0, np.zeros(3), np.array([0.0, 1.0, 1.0]))
    assert max(resid.values()) <= KKT_TOL, resid


def test_past_deadline_returns_time_limit():
    args = (np.ones((3, 2)), np.zeros(2), np.full(2, 2.0), 4.0)
    ms = solve_restricted_mlp(*args, deadline=time.perf_counter() - 1.0)
    assert ms.status == "time-limit" and ms.iterations == 0
    assert math.isnan(ms.objective)
    # a master past its deadline carries no duals
    assert ms.lam == 0.0 and not ms.mu.any()
    assert solve_restricted_mlp(
        *args, deadline=time.perf_counter() + 60.0).status == "optimal"


def fake_linprog(status):
    def linprog(*args, **kw):
        return scipy.optimize.OptimizeResult(status=status, nit=3, x=None,
                                             fun=None, message="")
    return linprog


# a [0, 1] box is never unbounded, so linprog's 3 is numerical trouble
@pytest.mark.parametrize("code, status", [
    (1, "time-limit"), (2, "infeasible"), (3, "numerical"), (4, "numerical")])
def test_highs_statuses_map_to_solver_statuses(monkeypatch, code, status):
    monkeypatch.setattr(scipy.optimize, "linprog", fake_linprog(code))
    # clause 1 is fixed to 1, so the node LP reaches HiGHS presolved
    ms = solve_restricted_mlp(np.ones((2, 3)), np.zeros(3), np.full(3, 2.0),
                              6.0, w_lower=np.array([0.0, 1.0, 0.0]))
    assert (ms.status, ms.iterations) == (status, 3)
    assert math.isnan(ms.objective) and not ms.mu.any() and ms.lam == 0.0
    assert ms.w.tolist() == [0.0, 1.0, 0.0] and not ms.xi.any()


def test_degenerate_lp_terminates():
    # twelve positives with one cover pattern, and clauses in pairs with
    # equal columns: many identical binding rows and ties between columns
    cover = np.tile([1.0, 1.0, 0.0, 1.0, 1.0, 0.0], (12, 1))
    negc = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    comp = np.full(6, 2.0)
    for budget in (2.0, 3.0, 12.0):
        ms = solve_restricted_mlp(cover, negc, comp, budget)
        assert ms.status == "optimal"
        resid = master_kkt(ms, cover, negc, comp, budget)
        assert max(resid.values()) <= KKT_TOL, resid


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
    objective, A_ub, b_ub = build_restricted_mlp(
        np.zeros((3, 2)), np.zeros(2), np.full(2, 2.0), 4.0)
    assert (len(objective), A_ub.shape, len(b_ub)) == (5, (4, 5), 4)


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
        lp = unreduced_master(cover, negc, comp, budget, w_lower, w_upper)
        ref_status, ref_value, _, _ = highs_on_le_form(*lp)
        statuses.append(ref_status)
        assert ms.status == ref_status
        if len(lp[0]) <= 6:
            status, value, _ = lp_minimum_by_vertex_enumeration(*lp)
            assert status == ref_status
            if value is not None:
                assert ms.objective == pytest.approx(value, abs=1e-7)
        if ref_status != "optimal":
            continue
        assert ms.objective == pytest.approx(ref_value, abs=1e-7)
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
        negc = np.arange(K, dtype=float)
        objective, A_ub, b_ub = build_restricted_mlp(cover, negc, comp, 5.0,
                                                     xi_cost=xi_cost)
        ref, _, _, rows = unreduced_master(cover, negc, comp, 5.0)
        # the <= form, array for array
        A_ref, b_ref = le_form(rows, n_pos + K)
        assert_same_csc(A_ub, sp.csc_matrix(A_ref))
        assert b_ub.tolist() == b_ref.tolist()
        assert objective[n_pos:].tolist() == ref[n_pos:].tolist()
        assert objective[:n_pos].tolist() == (
            [1.0] * n_pos if xi_cost is None else xi_cost.tolist())
        # and the master solve hands HiGHS those very arrays
        if K and xi_cost is None:
            solve_restricted_mlp(cover, negc, comp, 5.0)
            A_seen, b_seen = seen.pop()
            assert_same_csc(A_seen, A_ub)
            assert b_seen.tolist() == b_ub.tolist()
    assert not seen
