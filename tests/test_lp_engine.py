import numpy as np
import pytest
import scipy.sparse as sp

from boolrules.lp_engine import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    LinearProgram,
    Row,
    _Factor,
    _Simplex,
    build_restricted_mlp,
    master_start_basis,
    solve_lp,
    solve_restricted_mlp,
    verify_solution,
)
from _oracles import (
    btran_by_etas,
    ftran_by_etas,
    lp_minimum_by_vertex_enumeration,
    master_rows,
    slack_form,
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
    resid = verify_solution(lp, sol)
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
    assert sol.slacks == pytest.approx([0.0])


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


def test_no_rows_analytic():
    lp = LinearProgram(np.array([2.0, -3.0, 0.0]),
                       np.array([-1.0, -1.0, 4.0]),
                       np.array([5.0, 2.0, 4.0]), rows=[])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([-1.0, 2.0, 4.0])
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


def test_iteration_limit_status():
    lp = LinearProgram(
        objective=np.array([-1.0, -1.0, -1.0]),
        lower=np.zeros(3), upper=np.full(3, 10.0),
        rows=[Row((0, 1, 2), (1.0, 1.0, 1.0), "<=", 5.0),
              Row((0, 1), (1.0, 2.0), "<=", 7.0)])
    sol = solve_lp(lp, max_iter=1)
    assert sol.status == "iteration-limit"
    assert sol.basis is None


def test_degenerate_lp_terminates():
    # many redundant binding rows through the origin; Bland's rule has to
    # rescue the Dantzig choice eventually
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
    resid = verify_solution(lp, sol)
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


def test_warm_start_matches_cold_solve():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n_pos = int(rng.integers(2, 12))
        K0 = int(rng.integers(0, 5))
        budget = float(rng.integers(2, 12))
        cov = (rng.random((n_pos, K0)) < 0.4).astype(float)
        negc = rng.integers(0, 4, size=K0).astype(float)
        comp = rng.integers(2, 5, size=K0).astype(float)
        ms0 = solve_restricted_mlp(cov, negc, comp, budget)
        assert ms0.status == "optimal"

        K_new = int(rng.integers(1, 6))
        cov2 = np.hstack([cov, (rng.random((n_pos, K_new)) < 0.5).astype(float)])
        negc2 = np.concatenate([negc, rng.integers(0, 4, K_new).astype(float)])
        comp2 = np.concatenate([comp, rng.integers(2, 5, K_new).astype(float)])

        warm = solve_restricted_mlp(cov2, negc2, comp2, budget,
                                    start=ms0.basis)
        cold = solve_restricted_mlp(cov2, negc2, comp2, budget)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
        assert warm.objective <= ms0.objective + 1e-9


def test_warm_solves_leave_the_start_untouched():
    # a start is reused across solves (a budget's last master basis seeds
    # both its own and the sweep's integer roots), so pivoting must not
    # rewrite the caller's arrays
    def snapshot(start):
        return tuple(np.array(a) for a in start)

    lp = LinearProgram(
        objective=np.array([-1.0, -2.0, -1.0]),
        lower=np.zeros(3), upper=np.full(3, 4.0),
        rows=[Row((0, 1, 2), (1.0, 1.0, 1.0), "<=", 6.0),
              Row((0, 1), (1.0, 3.0), "<=", 9.0)])
    slack_start = (np.array([3, 4], dtype=np.int64),
                   np.array([AT_LOWER] * 3 + [BASIC] * 2, dtype=np.int8))
    before = snapshot(slack_start)
    sol = solve_lp(lp, start=slack_start)
    assert sol.status == "optimal" and sol.iterations > 0
    for a, b in zip(slack_start, before):
        assert np.array_equal(a, b)

    rng = np.random.default_rng(11)
    pivoted = 0
    for _ in range(10):
        cov = (rng.random((30, 8)) < 0.3).astype(float)
        negc = rng.integers(0, 4, size=8).astype(float)
        comp = rng.integers(2, 5, size=8).astype(float)
        start = master_start_basis(cov)
        before = snapshot(start)
        ms = solve_restricted_mlp(cov, negc, comp, 8.0, start=start)
        assert ms.status == "optimal"
        pivoted += ms.iterations > 0
        for a, b in zip(start, before):
            assert np.array_equal(a, b)
    assert pivoted == 10


def test_master_empty_pool_analytic():
    ms = solve_restricted_mlp(
        pos_cover=np.zeros((2, 0)), neg_counts=np.zeros(0),
        complexities=np.zeros(0), budget=4.0)
    assert ms.status == "optimal"
    assert ms.objective == pytest.approx(2.0)
    assert ms.mu == pytest.approx([1.0, 1.0])
    assert ms.lam == 0.0
    # the analytic start basis is already optimal here
    assert ms.iterations == 0


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
    assert ms.basis is None
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


def test_start_basis_is_consistent():
    # four positives, three clauses: variables [xi0..xi3, w0..w2, s0..s3, sb]
    cover = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=float)
    bidx, vstat = master_start_basis(cover)
    assert len(bidx) == 5          # four cover rows plus the budget row
    assert bidx.tolist() == [0, 1, 2, 3, 11]
    assert (vstat[list(bidx)] == BASIC).all()
    assert (vstat == BASIC).sum() == 5

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


def test_warm_start_pads_a_prefix_basis():
    # three positives and two clauses: variables [xi0-2, w0, w1, s0-2, sb];
    # the optimal basis keeps w0, w1 and the slacks of rows 1 and budget
    cov = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    negc, comp = np.array([0.0, 1.0]), np.array([2.0, 3.0])
    L, U, B = AT_LOWER, AT_UPPER, BASIC
    start = (np.array([6, 4, 3, 8]),
             np.array([L, L, U, B, B, L, B, L, B], dtype=np.int8))
    prefix = solve_lp(build_restricted_mlp(cov, negc, comp, 3.0), start=start)
    assert prefix.status == "optimal" and prefix.iterations == 0
    assert prefix.objective == pytest.approx(1.0)

    # two appended clauses that price positive: the padded start is optimal
    # as it stands, its slacks shifted right past the new columns
    cov2 = np.hstack([cov, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]])
    grown = build_restricted_mlp(cov2, np.concatenate([negc, [2.0, 1.0]]),
                                 np.concatenate([comp, [2.0, 2.0]]), 3.0)
    sol = solve_lp(grown, start=start)
    assert sol.status == "optimal" and sol.iterations == 0
    assert sol.objective == pytest.approx(1.0)
    assert sol.basis[0].tolist() == [8, 4, 3, 10]
    assert sol.basis[1].tolist() == [L, L, U, B, B, L, L, L, B, L, B]

    # an appended clause that prices negative pivots in from the padded start
    cov3 = np.hstack([cov, [[0.0], [0.0], [1.0]]])
    lp3 = build_restricted_mlp(cov3, np.concatenate([negc, [0.0]]),
                               np.concatenate([comp, [2.0]]), 5.0)
    warm, cold = solve_lp(lp3, start=start), solve_lp(lp3)
    assert warm.status == cold.status == "optimal"
    assert 0 < warm.iterations < cold.iterations
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert warm.objective == pytest.approx(0.0, abs=1e-9)

    # a start over more columns than the LP has falls back to a cold start
    back = solve_lp(build_restricted_mlp(cov, negc, comp, 3.0),
                    start=sol.basis)
    assert back.status == "optimal" and back.iterations > 0
    assert back.objective == pytest.approx(1.0)


def assert_same_csc(A, B):
    assert A.shape == B.shape
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, field), getattr(B, field)), field


def test_simplex_matrix_equals_row_by_row_reference():
    # test_no_rows_analytic solves the LP with no rows; here it is assembled
    rng = np.random.default_rng(11)
    no_rows = (np.array([2.0, -3.0, 0.0]), np.array([-1.0, -1.0, 4.0]),
               np.array([5.0, 2.0, 4.0]), [])
    for parts in [random_lp_parts(rng) for _ in range(60)] + [no_rows]:
        rows = [(r.indices, r.coeffs, r.sense, r.rhs) for r in parts[3]]
        ref = sp.csc_matrix(slack_form(rows, len(parts[0])))
        assert_same_csc(_Simplex(LinearProgram(*parts)).A, ref)


def test_build_restricted_mlp_rows_match_per_row_construction():
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
        # the solver's <= form with slacks, array for array
        assert_same_csc(_Simplex(lp).A,
                        sp.csc_matrix(slack_form(ref, n_pos + K)))
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


def random_factor(rng, density):
    """A factor of a random nonsingular basis with 0 to 70 random etas."""
    m = int(rng.integers(1, 40))
    A = sp.random(m, m, density=density, random_state=rng, format="csc")
    A = sp.csc_matrix(A + 4.0 * sp.identity(m))
    factor = _Factor(A)
    factor.refresh(np.arange(m))
    etas = []
    for _ in range(int(rng.integers(0, 71))):
        eta = rng.standard_normal(m) * (rng.random(m) < 0.4)
        r = int(rng.integers(m))
        eta[r] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        factor.push(eta, r)
        etas.append((eta, r))
    return factor, etas


def test_eta_kernels_match_plain_formulas():
    rng = np.random.default_rng(17)
    zero_pivots = 0
    for trial in range(60):
        # a diagonal basis and a sparse column put many pivots at zero,
        # which ftran skips
        sparse = trial % 2 == 1
        factor, etas = random_factor(rng, 0.0 if sparse else 0.2)
        m = factor.A.shape[0]
        a = rng.standard_normal(m) * (rng.random(m) < (0.1 if sparse else 1))
        c = rng.standard_normal(m)
        v0 = factor.lu.solve(a)
        want = ftran_by_etas(v0, etas)
        assert np.array_equal(factor.ftran(a), want)
        zero_pivots += sum(ftran_by_etas(v0, etas[:k])[r] == 0
                           for k, (_, r) in enumerate(etas))
        want = factor.lu.solve(btran_by_etas(c, etas), trans="T")
        assert np.array_equal(factor.btran(c), want)
    assert zero_pivots >= 100


def test_column_read_matches_sparse_slicing_after_artificials():
    rng = np.random.default_rng(3)
    with_artificials = 0
    for _ in range(80):
        sx = _Simplex(random_lp(rng))
        with_artificials += sx._start_cold()
        for q in range(sx.A.shape[1]):
            assert np.array_equal(sx._column(q),
                                  sx.A[:, [q]].toarray().ravel())
    assert with_artificials >= 20
