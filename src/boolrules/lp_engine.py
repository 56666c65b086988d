"""Linear programs, solved by HiGHS, and the restricted master problems.

A `LinearProgram` is

    min c'x   s.t.  a_r'x {<=,>=} b_r,   l <= x <= u,

with its rows held as one sparse CSC matrix, a sign per row (+1 for <=, -1
for >=) and the right-hand sides; callers that build rows one by one pass
a list of `Row`.  `solve_lp` hands it to HiGHS's dual simplex through
scipy.optimize.linprog (method "highs-ds"), every row turned to <=, and
reports the duals per row in the row's own sense: for a minimization, a >=
row gets a nonnegative dual and a <= row a nonpositive one.  Each solve
starts cold; HiGHS presolves it first.  An LP needs a variable; one with
no rows goes to HiGHS too.  scipy.optimize is imported on the first solve,
so loading a model to predict never pays for it.

A branch-and-bound node LP that fixes clauses is presolved here before it
reaches HiGHS: clauses fixed to 0 or 1 leave it, the positives a clause
fixed to 1 covers lose their rows, and the other positives share one row
per cover pattern over the free clauses (the duplicate-row reduction of
Andersen & Andersen, Math. Programming 71, 1995).  Column-generation
masters are solved unreduced.  A master or node LP with no free clause,
the master over an empty pool among them, never reaches HiGHS: its
answer is written down directly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

FEAS_TOL = 1e-7

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time-limit"
NUMERICAL = "numerical"


@dataclass
class Row:
    indices: np.ndarray
    coeffs: np.ndarray
    sense: str  # "<=" or ">="
    rhs: float

    def __post_init__(self):
        if self.sense not in ("<=", ">="):
            raise ValueError(f"row sense must be <= or >=, got {self.sense!r}")
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)


class LinearProgram:
    """min objective'x subject to rows and variable bounds (inf allowed on
    one side of a bound, never both).

    The rows live in `A`, an (m, n) CSC matrix, with `sign` (+1.0 for a <=
    row, -1.0 for a >= row) and `rhs`.  Pass them as `matrix=(A, sign,
    rhs)`, or pass `rows`, a list of `Row`, to have them assembled."""

    def __init__(self, objective, lower, upper, rows=(), matrix=None):
        self.objective = np.asarray(objective, dtype=np.float64)
        self.lower = np.asarray(lower, dtype=np.float64)
        self.upper = np.asarray(upper, dtype=np.float64)
        n = len(self.objective)
        if n == 0:
            raise ValueError("an LP needs at least one variable")
        if matrix is None:
            rows = list(rows)
            ix = np.repeat(np.arange(len(rows)), [len(r.indices) for r in rows])
            jx = np.concatenate([r.indices for r in rows] + [np.zeros(0, int)])
            vals = np.concatenate([r.coeffs for r in rows] + [np.zeros(0)])
            matrix = (sp.csc_matrix((vals, (ix, jx)), shape=(len(rows), n)),
                      [1.0 if r.sense == "<=" else -1.0 for r in rows],
                      [r.rhs for r in rows])
        self.A = sp.csc_matrix(matrix[0], dtype=np.float64)
        self.A.sum_duplicates()  # sorted, duplicate-free columns
        self.sign = np.asarray(matrix[1], dtype=np.float64)
        self.rhs = np.asarray(matrix[2], dtype=np.float64)
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("objective and bounds must have the same length")
        if self.A.shape != (len(self.rhs), n) or len(self.sign) != len(self.rhs):
            raise ValueError("row matrix, signs and rhs do not fit")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound above upper bound")
        if np.any(np.isinf(self.lower) & np.isinf(self.upper)):
            raise ValueError("free variables are not supported")

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    @property
    def rows(self) -> list:
        """The rows as `Row` objects, read back from the matrix."""
        R = self.A.tocsr()
        return [Row(R.indices[s:e], R.data[s:e], "<=" if g > 0 else ">=",
                    float(b))
                for s, e, g, b in zip(R.indptr[:-1], R.indptr[1:],
                                      self.sign, self.rhs)]


@dataclass
class LPSolution:
    status: str
    objective: float
    x: np.ndarray
    duals: np.ndarray      # per row, in the row's own sense
    iterations: int


# scipy.optimize.linprog's status codes; 1 is its iteration or time limit,
# and only a time limit is ever set here
_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


def solve_lp(lp: LinearProgram, deadline=None) -> LPSolution:
    """Solve an LP with HiGHS's dual simplex.

    `deadline` is an absolute time.perf_counter() value; a solve asked for
    after it, or still running at it, stops with status "time-limit".
    HiGHS's verdict of numerical trouble comes back as status "numerical".
    A status other than "optimal" carries no point and no duals.
    """
    options = {}
    if deadline is not None:
        left = deadline - time.perf_counter()
        if left <= 0:
            return _unsolved(lp, TIME_LIMIT, 0)
        options["time_limit"] = left
    from scipy.optimize import linprog

    # every row turned to <=; CSC indices are row numbers
    A_ub = lp.A.copy()
    A_ub.data *= lp.sign[A_ub.indices]
    A_ub, b_ub = (A_ub, lp.sign * lp.rhs) if lp.n_rows else (None, None)
    res = linprog(lp.objective, A_ub=A_ub, b_ub=b_ub,
                  bounds=np.column_stack([lp.lower, lp.upper]),
                  method="highs-ds", options=options)
    status = _STATUS.get(res.status, NUMERICAL)
    if status != OPTIMAL:
        return _unsolved(lp, status, res.nit)
    return LPSolution(status=OPTIMAL, objective=float(res.fun), x=res.x,
                      duals=lp.sign * res.ineqlin.marginals,
                      iterations=int(res.nit))


def _unsolved(lp: LinearProgram, status: str, iterations: int) -> LPSolution:
    return LPSolution(status, math.nan, np.zeros(lp.n_vars),
                      np.zeros(lp.n_rows), iterations)


# ----- restricted master construction ------------------------------------


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
                         complexities: np.ndarray, budget: float,
                         xi_cost=None) -> LinearProgram:
    """Assemble the restricted master LP.

    pos_cover is an (n_pos, K) 0/1 matrix (clause k covers positive i),
    neg_counts the per-clause count of covered negatives, complexities the
    per-clause cost against `budget`.  xi_cost is each cover row's cost for
    leaving it uncovered, 1 by default; a row that stands for m merged
    positives costs m.  Variable order is the n_pos xi slack variables
    first, then the K clause variables, all in [0, 1].
    """
    pos_cover = np.asarray(pos_cover)
    if pos_cover.ndim != 2:
        raise ValueError("pos_cover must be a 2-d (n_pos, K) matrix")
    n_pos, K = pos_cover.shape
    objective = np.concatenate([np.ones(n_pos) if xi_cost is None else
                                np.asarray(xi_cost, dtype=float),
                                np.asarray(neg_counts, dtype=float)])
    # column by column: xi_i sits in cover row i; clause k in the cover rows
    # of the positives it covers, then in the budget row
    ks, rows_i = np.nonzero(pos_cover.T)
    ends = n_pos + np.cumsum(np.bincount(ks, minlength=K) + 1)
    indptr = np.concatenate([np.arange(n_pos + 1), ends])
    indices = np.full(indptr[-1], n_pos)
    indices[:n_pos] = np.arange(n_pos)
    # a cover entry is preceded by the xi entries, the cover entries before
    # it and one budget entry per earlier clause
    indices[n_pos + np.arange(len(ks)) + ks] = rows_i
    data = np.ones(indptr[-1])
    data[ends - 1] = complexities
    A = sp.csc_matrix((data, indices, indptr), shape=(n_pos + 1, n_pos + K))
    sign = np.concatenate([np.full(n_pos, -1.0), [1.0]])
    rhs = np.concatenate([np.ones(n_pos), [float(budget)]])
    return LinearProgram(objective, np.zeros(n_pos + K), np.ones(n_pos + K),
                         matrix=(A, sign, rhs))


def _presolve_node(pos_cover, neg_counts, complexities, budget, one, free):
    """Reduce a node LP whose clauses are fixed to 1 (`one`), fixed to 0 or
    `free`.  Fixed clauses leave the LP: those fixed to 1 spend their
    complexity and pay their negatives up front, and the positives they
    cover lose their rows.  The other positives are grouped by their cover
    pattern over the free clauses; a group of m shares one row whose xi
    costs m, which leaves the LP value unchanged.  Returns the reduced
    (cover, neg_counts, complexities, budget, xi_cost), the constant to add
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


def solve_restricted_mlp(pos_cover, neg_counts, complexities, budget,
                         w_lower=None, w_upper=None,
                         deadline=None) -> MasterSolution:
    """Build and solve the restricted master, extracting (mu, lam) duals.

    `w_lower`/`w_upper` are a branch-and-bound node's clause bounds, each
    clause free in [0, 1] or fixed to 0 or to 1.  An LP with no free
    clause is answered by `_without_free_clauses`, with zero iterations.
    Any other node that fixes a clause is presolved by `_presolve_node`;
    its solution is expanded back to the full pool, each merged row's dual
    split evenly over its positives.
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
    if free.all():
        reduced = (pos_cover, neg_counts, complexities, budget, None)
        constant, rest = 0.0, np.arange(n_pos)
        group, sizes = rest, np.ones(n_pos)
    else:
        reduced, constant, rest, group = _presolve_node(
            pos_cover, np.asarray(neg_counts, dtype=float),
            np.asarray(complexities, dtype=float), float(budget), one, free)
        sizes = reduced[4]
    # a solve that did not finish reports zero duals, so mu and lam are 0
    sol = solve_lp(build_restricted_mlp(*reduced), deadline=deadline)
    G = len(sizes)
    xi = np.zeros(n_pos)
    xi[rest] = sol.x[group]
    w = one.astype(float)
    w[free] = sol.x[G:]
    mu = np.zeros(n_pos)
    mu[rest] = np.maximum(sol.duals[group], 0.0) / sizes[group]
    return MasterSolution(
        status=sol.status,
        objective=sol.objective + constant,
        xi=xi,
        w=w,
        mu=mu,
        lam=max(0.0, -float(sol.duals[G])),
        iterations=sol.iterations,
    )


def _without_free_clauses(pos_cover, neg_counts, complexities, budget,
                          one) -> MasterSolution:
    """A master or node LP with no free clause, answered without HiGHS.
    It is infeasible when the clauses fixed to 1 overspend the budget.
    Otherwise each positive none of them covers has xi = 1 and cover dual
    1, every other positive xi = 0 and dual 0, and the budget dual is 0;
    together these meet the KKT conditions of the unreduced LP."""
    n_pos = pos_cover.shape[0]
    w = one.astype(float)
    if np.asarray(complexities, dtype=float)[one].sum() > budget + FEAS_TOL:
        return MasterSolution(INFEASIBLE, math.nan, np.zeros(n_pos), w,
                              np.zeros(n_pos), 0.0, 0)
    xi = (~np.asarray(pos_cover)[:, one].any(axis=1)).astype(float)
    return MasterSolution(
        OPTIMAL,
        float(xi.sum() + np.asarray(neg_counts, dtype=float)[one].sum()),
        xi, w, xi.copy(), 0.0, 0)
