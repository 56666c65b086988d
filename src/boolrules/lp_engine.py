"""Bounded-variable revised simplex with dual values.

This is the solver behind the restricted master problems.  It is a two-phase
primal simplex over

    min c'x   s.t.  a_r'x {<=,>=} b_r,   l <= x <= u,

with every row given a slack internally.  A `LinearProgram` holds its rows
as one sparse CSC matrix with a sign per row (+1 for <=, -1 for >=) and the
right-hand sides; callers that build rows one by one pass a list of `Row`.
The basis is kept as a sparse LU factorization (scipy splu) plus a
product-form eta file that is rebuilt every few dozen pivots.  Entering
variables are picked by largest dual infeasibility (Dantzig); after 50
consecutive degenerate steps the rule switches to Bland's smallest-index
rule until a nondegenerate pivot happens, which guarantees termination.
Duals are reported per row in the row's own sense: for a minimization, a >=
row gets a nonnegative dual and a <= row a nonpositive one.

Appending columns does not disturb the row space, so a restricted master
that grew by a few clauses re-solves from the previous master's basis, padded
by `solve_lp`, usually in a handful of pivots.

A branch-and-bound node LP that fixes clauses is presolved first: clauses
fixed to 0 or 1 leave it, the positives a clause fixed to 1 covers lose
their rows, and the other positives share one row per cover pattern over
the free clauses (the duplicate-row reduction of Andersen & Andersen, Math.
Programming 71, 1995).  Column-generation masters are solved unreduced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
DUAL_TOL = 1e-7
DEGENERATE_STREAK = 50
REFACTOR_EVERY = 64
# an eta built on a pivot this small is too unstable to keep around
ETA_GUARD = 1e-6


class _SingularBasis(Exception):
    """The current basis matrix cannot be factorized."""

BASIC, AT_LOWER, AT_UPPER = 0, 1, 2

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"
TIME_LIMIT = "time-limit"


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
    slacks: np.ndarray     # b_r - a_r'x in the row's own sense
    basis: tuple | None    # (basis indices, statuses) over structurals+slacks
    iterations: int


class _Factor:
    """splu factorization of the basis plus a product-form eta file.  Each
    eta is (column, pivot row, pivot entry as a Python float)."""

    def __init__(self, A: sp.csc_matrix):
        self.A = A
        self.lu = None
        self.etas = []
        self.buf = np.empty(A.shape[0])

    def refresh(self, basis: np.ndarray):
        # gather the basis columns straight from the CSC arrays; they come
        # out sorted, as A's own columns are
        A = self.A
        start = A.indptr[basis]
        lens = A.indptr[basis + 1] - start
        indptr = np.concatenate([[0], np.cumsum(lens)])
        take = np.repeat(start - indptr[:-1], lens) + np.arange(indptr[-1])
        B = sp.csc_matrix((A.data[take], A.indices[take], indptr),
                          shape=(len(basis), len(basis)))
        self.lu = splu(B, permc_spec="COLAMD",
                       options={"SymmetricMode": False})
        self.etas = []

    def push(self, eta: np.ndarray, r: int):
        self.etas.append((eta, r, float(eta[r])))

    def ftran(self, a: np.ndarray) -> np.ndarray:
        v = self.lu.solve(a)
        buf = self.buf
        for eta, r, er in self.etas:
            piv = v.item(r) / er
            if piv:  # a zero pivot changes no nonzero entry, at most a zero's sign
                np.multiply(eta, piv, buf)
                np.subtract(v, buf, v)
            v[r] = piv
        return v

    def btran(self, c: np.ndarray) -> np.ndarray:
        v = np.array(c, dtype=np.float64)
        for eta, r, er in reversed(self.etas):
            vr = v.item(r)
            v[r] = (vr - (float(eta.dot(v)) - er * vr)) / er
        return self.lu.solve(v, trans="T")


class _Simplex:
    """One solve.  Internal form: all rows normalized to <= with a slack, so
    A_int is (m, n + m + artificials) and b may have either sign."""

    def __init__(self, lp: LinearProgram, max_iter=None, deadline=None):
        self.lp = lp
        self.deadline = deadline
        n, m = lp.n_vars, lp.n_rows
        self.n, self.m = n, m
        self.b = lp.sign * lp.rhs

        # the rows in <= orientation, then one slack column per row
        A = lp.A
        self.A = sp.csc_matrix(
            (np.concatenate([A.data * lp.sign[A.indices], np.ones(m)]),
             np.concatenate([A.indices, np.arange(m)]),
             np.concatenate([A.indptr, A.indptr[-1] + 1 + np.arange(m)])),
            shape=(m, n + m))

        self.lower = np.concatenate([lp.lower, np.zeros(m)])
        self.upper = np.concatenate([lp.upper, np.full(m, np.inf)])
        self.cost = np.concatenate([lp.objective, np.zeros(m)])
        self.max_iter = max_iter if max_iter is not None else 50 * (m + n) + 10_000
        self.iterations = 0

    # ----- setup paths -------------------------------------------------

    def _nonbasic_values(self, vstat):
        x = np.where(vstat == AT_UPPER, self.upper, self.lower)
        bad = np.isinf(x) & (vstat != BASIC)
        if bad.any():
            raise ValueError("nonbasic variable rests on an infinite bound")
        x[np.isinf(x)] = 0.0
        return x

    def _start_cold(self):
        nm = self.n + self.m
        vstat = np.full(nm, AT_LOWER, dtype=np.int8)
        vstat[np.isinf(self.lower)] = AT_UPPER
        x = self._nonbasic_values(vstat)
        resid = self.b - self.A @ x
        need_art = np.flatnonzero(resid < -FEAS_TOL)
        basis = np.arange(self.n, nm, dtype=np.int64)
        if len(need_art):
            art_cols = sp.csc_matrix(
                (-np.ones(len(need_art)), (need_art, np.arange(len(need_art)))),
                shape=(self.m, len(need_art)))
            self.A = sp.hstack([self.A, art_cols], format="csc")
            self.lower = np.concatenate([self.lower, np.zeros(len(need_art))])
            self.upper = np.concatenate([self.upper, np.full(len(need_art), np.inf)])
            self.cost = np.concatenate([self.cost, np.zeros(len(need_art))])
            vstat = np.concatenate([vstat, np.full(len(need_art), AT_LOWER, dtype=np.int8)])
            basis = basis.copy()
            for k, r in enumerate(need_art):
                basis[r] = nm + k
            x = np.concatenate([x, np.zeros(len(need_art))])
        vstat[basis] = BASIC
        x[basis] = 0.0
        self.basis, self.vstat, self.x = basis, vstat, x
        self.factor = _Factor(self.A)
        self._refactor()
        return len(need_art) > 0

    def _try_warm(self, start) -> bool:
        basis, vstat = start
        nm = self.n + self.m
        grown = nm - len(vstat)
        if len(basis) != self.m or not 0 <= grown <= self.n:
            return False
        # a start over a prefix of the columns: the slacks shift right past
        # the appended columns, which rest at their lower bound.  Both are
        # own copies, as the pivot loop rewrites them in place.
        cut = self.n - grown
        basis = np.asarray(basis, dtype=np.int64)
        basis = np.where(basis < cut, basis, basis + grown)
        vstat = np.concatenate([vstat[:cut], np.full(grown, AT_LOWER),
                                vstat[cut:]]).astype(np.int8)
        if basis.min(initial=0) < 0 or basis.max(initial=-1) >= nm:
            return False
        vstat[basis] = BASIC
        self.factor = _Factor(self.A)
        try:
            x = self._nonbasic_values(vstat)
        except ValueError:
            return False
        x[basis] = 0.0
        try:
            self.factor.refresh(basis)
        except RuntimeError:
            return False
        xb = self.factor.ftran(self.b - self.A @ x)
        if not np.all(np.isfinite(xb)):
            return False
        lo, hi = self.lower[basis], self.upper[basis]
        if np.any(xb < lo - 10 * FEAS_TOL) or np.any(xb > hi + 10 * FEAS_TOL):
            return False
        x[basis] = xb
        self.basis, self.vstat, self.x = basis, vstat, x
        return True

    def _refactor(self):
        try:
            self.factor.refresh(self.basis)
        except RuntimeError as exc:
            # accumulated eta error picked a dependent column somewhere;
            # the driver retries the whole solve from a clean slack basis
            raise _SingularBasis(str(exc)) from exc
        xnb = self.x.copy()
        xnb[self.basis] = 0.0
        self.x[self.basis] = self.factor.ftran(self.b - self.A @ xnb)

    # ----- the pivot loop ----------------------------------------------

    def _column(self, q) -> np.ndarray:
        """Dense column q of A, read straight from the CSC arrays."""
        lo, hi = self.A.indptr[q:q + 2]
        col = np.zeros(self.m)
        col[self.A.indices[lo:hi]] = self.A.data[lo:hi]
        return col

    def _iterate(self, cost) -> str:
        m = self.m
        degen_streak = 0
        movable = self.lower < self.upper
        # -1 at a movable variable resting at its lower bound, +1 at its
        # upper bound, else 0: times a reduced cost, the dual infeasibility.
        # Kept in step with every pivot, as are the basic costs and bounds.
        dirn = np.where(movable & (self.vstat == AT_LOWER), -1.0,
                        np.where(movable & (self.vstat == AT_UPPER), 1.0, 0.0))
        cb = cost[self.basis]
        lb, ub = self.lower[self.basis], self.upper[self.basis]
        lim = np.empty(m)
        AT = self.A.T
        while True:
            if self.iterations >= self.max_iter:
                return ITERATION_LIMIT
            if (self.deadline is not None and self.iterations & 127 == 0
                    and time.perf_counter() > self.deadline):
                return TIME_LIMIT
            y = self.factor.btran(cb)
            score = (cost - AT @ y) * dirn
            bland = degen_streak >= DEGENERATE_STREAK
            # Bland: the first violation; Dantzig: the first largest one
            q = int((score > DUAL_TOL).argmax() if bland else score.argmax())
            if not score[q] > DUAL_TOL:
                return OPTIMAL
            sigma = -dirn.item(q)

            w = self.factor.ftran(self._column(q))
            denom = sigma * w
            xb = self.x[self.basis]
            # each basic variable's step to the bound it moves towards
            lim.fill(np.inf)
            np.divide(xb - lb, denom, out=lim, where=denom > PIVOT_TOL)
            np.divide(xb - ub, denom, out=lim, where=denom < -PIVOT_TOL)
            np.maximum(lim, 0.0, out=lim)

            t_rows = lim.min() if m else np.inf
            t_flip = self.upper[q] - self.lower[q]
            if not np.isfinite(min(t_rows, t_flip)):
                return UNBOUNDED

            self.iterations += 1
            if t_flip <= t_rows:
                self.x[q] += sigma * t_flip
                self.x[self.basis] = xb - sigma * t_flip * w
                self.vstat[q] = AT_UPPER if self.vstat[q] == AT_LOWER else AT_LOWER
                dirn[q] = -dirn[q]
                step = t_flip
            else:
                tie = lim <= t_rows + 1e-9
                if bland:
                    p = int(np.where(tie, self.basis, len(self.x)).argmin())
                else:
                    # among tied ratios take the sturdiest pivot
                    p = int(np.where(tie, np.abs(denom), -1.0).argmax())
                step = lim[p]
                leaving = int(self.basis[p])
                self.x[q] += sigma * step
                self.x[self.basis] = xb - sigma * step * w
                to_upper = denom[p] < 0
                self.x[leaving] = self.upper[leaving] if to_upper else self.lower[leaving]
                self.vstat[leaving] = AT_UPPER if to_upper else AT_LOWER
                self.vstat[q] = BASIC
                dirn[q] = 0.0
                if movable[leaving]:
                    dirn[leaving] = 1.0 if to_upper else -1.0
                self.basis[p] = q
                cb[p], lb[p], ub[p] = cost[q], self.lower[q], self.upper[q]
                self.factor.push(w, p)
                if len(self.factor.etas) >= REFACTOR_EVERY or abs(w[p]) < ETA_GUARD:
                    self._refactor()
            degen_streak = degen_streak + 1 if step <= 1e-9 else 0

    # ----- driver -------------------------------------------------------

    def solve(self, start=None) -> LPSolution:
        if self.m == 0:
            c = self.lp.objective
            x = np.where(c > 0, self.lp.lower,
                         np.where(c < 0, self.lp.upper,
                                  np.where(np.isfinite(self.lp.lower),
                                           self.lp.lower, self.lp.upper)))
            if np.any(np.isinf(x)):
                return LPSolution(UNBOUNDED, -np.inf, np.where(np.isfinite(x), x, 0.0),
                                  np.zeros(0), np.zeros(0), None, 0)
            self.x = x.copy()
            self.basis = np.zeros(0, dtype=np.int64)
            self.vstat = np.where(x <= self.lp.lower, AT_LOWER, AT_UPPER).astype(np.int8)
            return self._result(OPTIMAL)

        warmed = start is not None and self._try_warm(start)
        if not warmed:
            had_art = self._start_cold()
            if had_art:
                cost1 = np.zeros(len(self.cost))
                cost1[self.n + self.m:] = 1.0
                status = self._iterate(cost1)
                if status != OPTIMAL:
                    return self._result(status)
                infeas = float(cost1 @ self.x)
                if infeas > FEAS_TOL * (1.0 + np.abs(self.b).sum()):
                    return self._result(INFEASIBLE)
                # pin artificials at zero and price with the real objective
                self.upper[self.n + self.m:] = 0.0
                self.x[self.n + self.m:] = np.minimum(self.x[self.n + self.m:], 0.0)

        status = self._iterate(self.cost)
        return self._result(status)

    def _result(self, status) -> LPSolution:
        n, m = self.n, self.m
        x = self.x
        snap = np.abs(x - self.lower) <= 1e-9
        x[snap] = self.lower[snap]
        snap = np.isfinite(self.upper) & (np.abs(x - self.upper) <= 1e-9)
        x[snap] = self.upper[snap]
        x_struct = x[:n].copy()
        if status == OPTIMAL and m > 0:
            y = self.factor.btran(self.cost[self.basis])
            duals = self.lp.sign * y
        else:
            duals = np.zeros(m)
        # the internal slack value is already the surplus in the row's own
        # sense: rhs - activity for <= rows, activity - rhs for >= rows
        slacks = self.b - self.A[:, :n] @ x_struct
        basis_out = None
        if status == OPTIMAL and m > 0 and not np.any(self.basis >= n + m):
            basis_out = (self.basis.copy(), self.vstat[:n + m].copy())
        return LPSolution(
            status=status,
            objective=float(self.lp.objective @ x_struct),
            x=x_struct,
            duals=duals,
            slacks=slacks,
            basis=basis_out,
            iterations=self.iterations,
        )


def solve_lp(lp: LinearProgram, start=None, max_iter=None, deadline=None) -> LPSolution:
    """Solve an LP.  `start` is a (basis, statuses) pair from a previous
    solution of an LP with the same rows over a prefix of these columns;
    the columns appended since start at their lower bound.  If the start is
    unusable the solver silently falls back to a cold start.

    `deadline` is an absolute time.perf_counter() value; a solve still
    running past it stops with status "time-limit".

    A basis that turns out numerically singular mid-run triggers one full
    restart from the slack basis; a second failure is surfaced as an error.
    """
    try:
        return _Simplex(lp, max_iter=max_iter, deadline=deadline).solve(start)
    except _SingularBasis:
        pass
    try:
        return _Simplex(lp, max_iter=max_iter, deadline=deadline).solve(None)
    except _SingularBasis as exc:
        raise RuntimeError(
            "LP basis factorization failed twice; the instance is too "
            "ill-conditioned for this solver") from exc


def verify_solution(lp: LinearProgram, sol: LPSolution) -> dict:
    """Max violations of primal/dual feasibility and complementary slackness.

    Returns a dict of nonnegative floats; every entry should be below 1e-7
    for a correct optimal solution of a well-scaled LP.
    """
    x, duals = sol.x, sol.duals
    # each row's surplus in its own sense, and the reduced costs
    slack = lp.sign * (lp.rhs - lp.A @ x)
    rc = lp.objective - lp.A.T @ duals
    at_lo = x <= lp.lower + 1e-7
    at_hi = np.isfinite(lp.upper) & (x >= lp.upper - 1e-7)
    cs_var = np.where(at_lo & ~at_hi, -rc, np.where(at_hi & ~at_lo, rc, 0.0))
    return {
        "bound_low": float(np.max(lp.lower - x, initial=0.0)),
        "bound_high": float(np.max(x - lp.upper, initial=0.0)),
        "row": float(np.max(-slack, initial=0.0)),
        "dual_sign": float(np.max(np.abs(duals)[lp.sign * duals > 0],
                                  initial=0.0)),
        "cs_row": float(np.max(np.abs(duals * slack), initial=0.0)),
        "cs_var": float(np.max(cs_var, initial=0.0)),
        "stationarity": float(np.max(np.abs(rc[~at_lo & ~at_hi]),
                                     initial=0.0)),
    }


# ----- restricted master construction ------------------------------------


@dataclass
class MasterSolution:
    """Solved restricted master LP: min sum(xi) + sum(negcov_k w_k) subject
    to cover rows xi_i + sum_{k covers i} w_k >= 1 and the complexity budget.

    mu holds the cover-row duals aligned with the dataset's positive samples;
    lam is the budget dual stored as a nonnegative magnitude.  basis is over
    the LP that was solved, so a presolved node LP reports none."""

    status: str
    objective: float
    xi: np.ndarray
    w: np.ndarray
    mu: np.ndarray
    lam: float
    iterations: int
    basis: tuple | None


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


def master_start_basis(pos_cover):
    """The analytic feasible basis for a restricted master: each cover row
    keeps its xi basic at 1, the budget slack is basic and everything else
    rests at its lower bound.  Lets every master and node solve skip
    phase 1."""
    n_pos, K = pos_cover.shape
    n = n_pos + K
    basis = np.append(np.arange(n_pos), n + n_pos).astype(np.int64)
    vstat = np.full(n + n_pos + 1, AT_LOWER, dtype=np.int8)
    vstat[basis] = BASIC
    return basis, vstat


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
                         start=None, w_lower=None, w_upper=None,
                         deadline=None) -> MasterSolution:
    """Build and solve the restricted master, extracting (mu, lam) duals.

    `start` is the basis of an earlier master over a prefix of this pool's
    clauses, which `solve_lp` pads for the clauses appended since.  Without
    one the solve starts from `master_start_basis`.

    `w_lower`/`w_upper` are a branch-and-bound node's clause bounds, each
    clause free in [0, 1] or fixed to 0 or to 1.  A node that fixes any
    clause is presolved by `_presolve_node` and solved from the reduced
    LP's own start basis (`start` does not fit it); its solution is
    expanded back to the full pool, each merged row's dual split evenly
    over its positives.
    """
    n_pos, K = pos_cover.shape
    lower = np.zeros(K) if w_lower is None else np.asarray(w_lower, float)
    upper = np.ones(K) if w_upper is None else np.asarray(w_upper, float)
    one = (lower == 1.0) & (upper == 1.0)
    free = (lower == 0.0) & (upper == 1.0)
    if not (one | free | (lower == 0.0) & (upper == 0.0)).all():
        raise ValueError("clause bounds must leave each clause in [0, 1] or "
                         "fix it to 0 or to 1")
    presolve = not free.all()
    if not presolve:
        reduced = (pos_cover, neg_counts, complexities, budget, None)
        constant, rest = 0.0, np.arange(n_pos)
        group, sizes = rest, np.ones(n_pos)
        if start is None:
            start = master_start_basis(pos_cover)
    else:
        reduced, constant, rest, group = _presolve_node(
            pos_cover, np.asarray(neg_counts, dtype=float),
            np.asarray(complexities, dtype=float), float(budget), one, free)
        sizes = reduced[4]
        start = master_start_basis(reduced[0])
    sol = solve_lp(build_restricted_mlp(*reduced), start=start, deadline=deadline)
    ok = sol.status == OPTIMAL
    G = len(sizes)
    xi = np.zeros(n_pos)
    xi[rest] = sol.x[group]
    w = one.astype(float)
    w[free] = sol.x[G:]
    mu = np.zeros(n_pos)
    if ok:
        mu[rest] = np.maximum(sol.duals[group], 0.0) / sizes[group]
    return MasterSolution(
        status=sol.status,
        objective=sol.objective + constant,
        xi=xi,
        w=w,
        mu=mu,
        lam=max(0.0, -float(sol.duals[G])) if ok else 0.0,
        iterations=sol.iterations,
        basis=None if presolve else sol.basis,
    )
