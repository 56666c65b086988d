"""The restricted master LP and its branch-and-bound node LPs, solved by
HiGHS.

Every LP the package solves is a restricted master,

    min  sum_i c_i xi_i + sum_k negcov_k w_k
    s.t. xi_i + sum_{k covers i} w_k >= 1   (a cover row per positive)
         sum_k complexity_k w_k <= budget   (the budget row)
         0 <= xi, w <= 1,

or a node LP that also fixes some clauses to 0 or to 1.  Both go to
HiGHS's dual simplex through scipy.optimize.linprog (method "highs-ds"),
each solve cold and presolved by HiGHS first.  scipy.optimize is imported
on the first solve, so loading a model to predict never pays for it.

A master, every clause free, is solved in this primal form, since its
duals steer column generation and the dual form returns other optimal
ones.  `build_restricted_mlp` writes it for linprog: the objective, `b_ub`
and `A_ub`, whose cover rows are negated to `<=` rows, as the coordinate
triplets linprog turns into HiGHS's column form.  The point (xi, w) is
linprog's x; the cover duals mu and the budget dual lam are read from its
`ineqlin.marginals`.  A [0, 1] box is never unbounded.

A node LP that fixes clauses is presolved here first: clauses fixed to 0
or 1 leave it, the positives a clause fixed to 1 covers lose their rows,
and the other positives share one row per cover pattern over the free
clauses (the duplicate-row reduction of Andersen & Andersen, Math.
Programming 71, 1995).  That leaves many more rows than columns, so the
reduced LP is handed to HiGHS transposed, as its dual with one row per
free clause (`_node_dual`).  Its variables are the group duals mu_g, lam
and the clause bound duals t; w is read from its row marginals, each
group's xi from mu_g's upper-bound marginal, each positive's mu as mu_g
over its group's size, and lam from the point.  A master or node LP with
no free clause, the master over an empty pool among them, never reaches
HiGHS: its answer is written down directly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# how far clauses may overspend the budget and still fit it; complexities
# and budgets are integers, so any value in [0, 1) decides alike
BUDGET_TOL = 1e-7

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIME_LIMIT = "time-limit"
NUMERICAL = "numerical"

# scipy.optimize.linprog's status codes for each shape; 1 is its iteration
# or time limit, and only a time limit is ever set here.  A master's [0, 1]
# box is never unbounded, so its 3 is numerical trouble.  A node's dual is
# always feasible (mu = lam = t = 0), so its 2 is numerical trouble and its
# 3, an unbounded dual, an infeasible node.  Any other code is numerical.
_MASTER_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE}
_NODE_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 3: INFEASIBLE}


def _highs(objective, A_ub, b_ub, bounds, statuses, deadline):
    """Solve min objective'x s.t. A_ub x <= b_ub within `bounds` with
    HiGHS's dual simplex, mapping linprog's status through `statuses`.

    `deadline` is an absolute time.perf_counter() value; a solve asked for
    after it, or still running at it, stops with status "time-limit".
    Returns (status, result, iterations), with linprog's result when the
    status is "optimal" and None otherwise.
    """
    options = {}
    if deadline is not None:
        left = deadline - time.perf_counter()
        if left <= 0:
            return TIME_LIMIT, None, 0
        options["time_limit"] = left
    from scipy.optimize import linprog

    res = linprog(objective, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                  method="highs-ds", options=options)
    status = statuses.get(res.status, NUMERICAL)
    return status, (res if status == OPTIMAL else None), int(res.nit)


@dataclass
class MasterSolution:
    """Solved restricted master LP: min sum(xi) + sum(negcov_k w_k) subject
    to cover rows xi_i + sum_{k covers i} w_k >= 1 and the complexity budget.

    mu holds the cover-row duals aligned with the dataset's positive samples;
    lam is the budget dual stored as a nonnegative magnitude."""

    status: str
    objective: float
    xi: np.ndarray
    w: np.ndarray
    mu: np.ndarray
    lam: float
    iterations: int


def build_restricted_mlp(pos_cover: np.ndarray, neg_counts: np.ndarray,
                         complexities: np.ndarray, budget: float):
    """Assemble the restricted master LP for linprog: (objective, A_ub,
    b_ub) for min objective'x s.t. A_ub x <= b_ub, 0 <= x <= 1.

    pos_cover is an (n_pos, K) 0/1 matrix (clause k covers positive i),
    neg_counts the per-clause count of covered negatives, complexities the
    per-clause cost against `budget`.  Variable order is the n_pos xi slack
    variables first, then the K clause variables.  A_ub is a COO matrix of
    the n_pos cover rows, negated, -xi_i - sum_{k covers i} w_k <= -1,
    then the budget row.
    """
    pos_cover = np.asarray(pos_cover)
    if pos_cover.ndim != 2:
        raise ValueError("pos_cover must be a 2-d (n_pos, K) matrix")
    n_pos, K = pos_cover.shape
    objective = np.concatenate([np.ones(n_pos),
                                np.asarray(neg_counts, dtype=float)])
    # the cover entries, negated, the xi diagonal, then the budget row
    i, k = np.nonzero(pos_cover)
    rows = np.concatenate([i, np.arange(n_pos), np.full(K, n_pos)])
    cols = np.concatenate([n_pos + k, np.arange(n_pos), n_pos + np.arange(K)])
    data = np.concatenate([np.full(len(i), -1.0), np.full(n_pos, -1.0),
                           complexities])
    A_ub = sp.coo_matrix((data, (rows, cols)), shape=(n_pos + 1, n_pos + K))
    return objective, A_ub, np.append(np.full(n_pos, -1.0), float(budget))


def _presolve_node(pos_cover, neg_counts, complexities, budget, one, free):
    """Reduce a node LP whose clauses are fixed to 1 (`one`), fixed to 0 or
    `free`.  Fixed clauses leave the LP: those fixed to 1 spend their
    complexity and pay their negatives up front, and the positives they
    cover lose their rows.  The other positives are grouped by their cover
    pattern over the free clauses; a group of m shares one row whose xi
    costs m, which leaves the LP value unchanged.  Returns the reduced
    (cover, neg_counts, complexities, budget, sizes), the constant to add
    to its objective, the uncovered positives and the group of each."""
    rest = np.flatnonzero(~pos_cover[:, one].any(axis=1))
    patterns = np.packbits(pos_cover[np.ix_(rest, free)] > 0.5, axis=1)
    _, first, group, sizes = np.unique(patterns, axis=0, return_index=True,
                                       return_inverse=True,
                                       return_counts=True)
    # number the groups by their first positive, so rows keep their order
    order = np.argsort(first)
    reduced = (pos_cover[np.ix_(rest[first[order]], free)],
               neg_counts[free], complexities[free],
               budget - complexities[one].sum(), sizes[order])
    return (reduced, neg_counts[one].sum(), rest,
            np.argsort(order)[group.reshape(-1)])


def _node_dual(cover, neg_counts, complexities, room, sizes):
    """The dual of a presolved node LP for linprog:
    (objective, A_ub, b_ub, bounds) for the minimum of minus

        max  sum_g mu_g - lam room - sum_k t_k
        s.t. sum_{g in k} mu_g - lam c_k - t_k <= neg_k  (a row per clause)
             0 <= mu_g <= m_g,  lam, t >= 0.

    `cover` is the (G, F) cover of the G row groups by the F free clauses,
    and m_g = `sizes`, each group's xi cost.  Variable order is the G
    group duals mu, then lam, then the F clause bound duals t.  A_ub is a
    COO matrix; its row k's marginal is minus w_k, and mu_g's upper-bound
    marginal minus xi_g."""
    G, F = cover.shape
    # the cover entries, the lam column, then the t diagonal
    g, k = np.nonzero(cover)
    rows = np.concatenate([k, np.arange(F), np.arange(F)])
    cols = np.concatenate([g, np.full(F, G), G + 1 + np.arange(F)])
    data = np.concatenate([cover[g, k], -complexities, np.full(F, -1.0)])
    A_ub = sp.coo_matrix((data, (rows, cols)), shape=(F, G + 1 + F))
    objective = np.concatenate([np.full(G, -1.0), [room], np.ones(F)])
    bounds = np.zeros((G + 1 + F, 2))
    bounds[:G, 1] = sizes
    bounds[G:, 1] = np.inf
    return objective, A_ub, neg_counts, bounds


def solve_restricted_mlp(pos_cover, neg_counts, complexities, budget,
                         w_lower=None, w_upper=None,
                         deadline=None) -> MasterSolution:
    """Build and solve the restricted master, extracting (mu, lam) duals.

    `w_lower`/`w_upper` are a branch-and-bound node's clause bounds, each
    clause free in [0, 1] or fixed to 0 or to 1.  An LP with no free
    clause is answered by `_without_free_clauses`, with zero iterations.
    A master, every clause free, is solved as `build_restricted_mlp`
    writes it.  Any other node is presolved by `_presolve_node` and solved
    as the dual `_node_dual` writes; its answer is expanded back to the
    full pool, each merged row's dual split evenly over its positives.
    """
    n_pos, K = pos_cover.shape
    lower = np.zeros(K) if w_lower is None else np.asarray(w_lower, float)
    upper = np.ones(K) if w_upper is None else np.asarray(w_upper, float)
    one = (lower == 1.0) & (upper == 1.0)
    free = (lower == 0.0) & (upper == 1.0)
    if not (one | free | (lower == 0.0) & (upper == 0.0)).all():
        raise ValueError("clause bounds must leave each clause in [0, 1] or "
                         "fix it to 0 or to 1")
    if not free.any():
        return _without_free_clauses(pos_cover, neg_counts, complexities,
                                     budget, one)
    master = free.all()
    if master:
        constant, rest = 0.0, np.arange(n_pos)
        group, sizes = rest, np.ones(n_pos)
        lp = (*build_restricted_mlp(pos_cover, neg_counts, complexities,
                                    budget), (0, 1), _MASTER_STATUS)
    else:
        reduced, constant, rest, group = _presolve_node(
            pos_cover, np.asarray(neg_counts, dtype=float),
            np.asarray(complexities, dtype=float), float(budget), one, free)
        sizes = reduced[4]
        lp = (*_node_dual(*reduced), _NODE_STATUS)
    status, res, iterations = _highs(*lp, deadline)
    if res is None:
        return _no_point(status, n_pos, one, iterations)
    G = len(sizes)
    if master:
        # the marginals are those of the <= rows: a cover row's dual is
        # minus its marginal, and lam, the budget dual's magnitude, is
        # minus the budget row's
        value, x, dual = res.fun, res.x, -res.ineqlin.marginals
    else:
        # the dual's point is (mu, lam, t); w is minus its row marginals
        # and xi minus mu's upper-bound marginals
        value, dual = -res.fun, res.x
        x = np.concatenate([-res.upper.marginals[:G],
                            -res.ineqlin.marginals])
    xi = np.zeros(n_pos)
    xi[rest] = x[group]
    w = one.astype(float)
    w[free] = x[G:]
    mu = np.zeros(n_pos)
    mu[rest] = np.maximum(dual[group], 0.0) / sizes[group]
    return MasterSolution(
        status=status,
        objective=float(value) + constant,
        xi=xi,
        w=w,
        mu=mu,
        lam=max(0.0, float(dual[G])),
        iterations=iterations,
    )


def _no_point(status, n_pos, one, iterations) -> MasterSolution:
    """An LP left without a point or duals: infeasible, out of time or in
    numerical trouble.  mu and lam are 0, and w holds the fixings."""
    return MasterSolution(status, math.nan, np.zeros(n_pos), one.astype(float),
                          np.zeros(n_pos), 0.0, iterations)


def _without_free_clauses(pos_cover, neg_counts, complexities, budget,
                          one) -> MasterSolution:
    """A master or node LP with no free clause, answered without HiGHS.
    It is infeasible when the clauses fixed to 1 overspend the budget.
    Otherwise each positive none of them covers has xi = 1 and cover dual
    1, every other positive xi = 0 and dual 0, and the budget dual is 0;
    together these meet the KKT conditions of the unreduced LP."""
    n_pos = pos_cover.shape[0]
    if np.asarray(complexities, dtype=float)[one].sum() > budget + BUDGET_TOL:
        return _no_point(INFEASIBLE, n_pos, one, 0)
    xi = (~np.asarray(pos_cover)[:, one].any(axis=1)).astype(float)
    return MasterSolution(
        OPTIMAL,
        float(xi.sum() + np.asarray(neg_counts, dtype=float)[one].sum()),
        xi, one.astype(float), xi.copy(), 0.0, 0)
