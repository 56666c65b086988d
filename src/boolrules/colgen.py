"""Column generation: grow a clause pool until the master LP is priced out,
then pick the final rule set with a small branch-and-bound over the pool.

Each round solves the restricted master LP over the pool and prices new
clauses against its duals.  A "small" instance runs the exact search on
the full data.  A "large" one (pricing nnz above `LARGE_NNZ`) runs the
same search on a row and feature sample first, drawn by
`restrict_pricing`, and runs the full-data search only when none of the
sample's candidates prices negative on the full data.  That
full-data search, finished or timed out, is the round's one certificate:
a lower bound on the best achievable training loss, the best of which is
kept across rounds and reported with the final model.  A round ends the
growth early, with one trace row, when its master is not optimal or the
time limit is spent.

Growth and selection are two steps.  `sweep_complexity` grows one shared
pool for every budget first, then selects each budget once over the final
pool; `run_column_generation` is its one-budget sweep.  A budget's time
limit covers its growth and its selection.

The branch-and-bound's node LPs go through `solve_restricted_mlp`, as the
masters do.  A master is solved in its primal form, since its duals steer
pricing; a node that fixes clauses has its LP presolved there, down to the
free clauses and the positives they leave to cover, and solved as its dual,
one row per free clause.  The root LP is the growth's last master whenever
the pool has not grown since, or the growth converged: pricing then proved
that no later clause the budget can afford improves that master, so it is
the root with w = 0 on the clauses the later budgets of a sweep added.
Each LP is solved once for every single fit and for every converged budget
of a sweep.  Each fractional node LP's duals also fix, by reduced cost, the
clauses that could not leave their bound without reaching the incumbent, so
its subtree's LPs shrink.  A node, the root included, where no three free
clauses fit the budget its clauses fixed to 1 leave solves no LP at all:
its best selection is listed among no, one or two more clauses.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import BinaryDataset
from .lp_engine import (BUDGET_TOL, INFEASIBLE, OPTIMAL, TIME_LIMIT,
                        MasterSolution, solve_restricted_mlp)
from .pricing import NEGATIVE_EPS, price_exact, restrict_pricing
from .ruleset import Clause

CEIL_EPS = 1e-7
LARGE_NNZ = 1_000_000  # pricing nnz above which an instance is "large"


def guarded_ceil(value: float) -> int:
    """Ceiling that forgives tiny upward noise, so 3 + 1e-9 stays 3."""
    return int(math.ceil(value - CEIL_EPS))


@dataclass
class ColGenConfig:
    """Knobs for one training run.

    complexity_bound is the total complexity budget C; clause_bound caps
    features per clause and defaults to C - 1 (a larger clause could never
    fit the budget anyway).  Time limits are wall-clock seconds: the
    overall limit covers the whole loop including the final integer solve,
    which gets whatever time is left; the pricing limit applies to each
    exact pricing call.
    """

    complexity_bound: int
    clause_bound: int | None = None
    time_limit: float = 300.0
    pricing_time_limit: float = 45.0
    seed: int = 0

    def __post_init__(self):
        if self.complexity_bound < 2:
            raise ValueError("complexity_bound must be at least 2 "
                             "(the cheapest clause costs 2)")
        if self.clause_bound is not None and self.clause_bound < 1:
            raise ValueError("clause_bound must be at least 1")
        # `not limit > 0` also rejects NaN, which no deadline test would end
        if not (self.time_limit > 0 and self.pricing_time_limit > 0):
            raise ValueError("time limits must be positive")

    def depth_limit(self, d: int) -> int:
        cap = self.complexity_bound - 1
        if self.clause_bound is not None:
            cap = min(cap, self.clause_bound)
        return max(1, min(cap, d))


@dataclass
class TraceEntry:
    """One round of the loop.  master_seconds and master_pivots are the
    round's master solve time and its HiGHS simplex iterations.  The pricing
    fields add up the round's pricing calls, and pricing_proven says a
    full-data exact call proved its minimum; a round that ends before
    pricing leaves them zero."""

    iteration: int
    master_value: float
    best_reduced_cost: float
    mode: str
    added: int
    pool_size: int
    seconds: float
    master_seconds: float = 0.0
    master_pivots: int = 0
    pricing_seconds: float = 0.0
    pricing_explored: int = 0
    pricing_proven: bool = False


class ClausePool:
    """Deduplicated clause columns with their master coefficients."""

    def __init__(self, ds: BinaryDataset):
        self.ds = ds
        self.index: dict = {}
        self.clauses: list[Clause] = []
        self._pos_cover: list[np.ndarray] = []
        self._neg_counts: list[float] = []
        self._complexities: list[float] = []

    def __len__(self) -> int:
        return len(self.clauses)

    def add(self, features) -> bool:
        feats = tuple(sorted(int(j) for j in features))
        if feats in self.index:
            return False
        clause = Clause(feats)
        cover = clause.covers(self.ds.X)
        self.index[feats] = len(self.clauses)
        self.clauses.append(clause)
        self._pos_cover.append(cover[self.ds.pos].astype(float))
        self._neg_counts.append(float(cover[self.ds.neg].sum()))
        self._complexities.append(float(clause.complexity))
        return True

    def arrays(self):
        n_pos = len(self.ds.pos)
        if not self.clauses:
            return (np.zeros((n_pos, 0)), np.zeros(0), np.zeros(0))
        return (np.column_stack(self._pos_cover),
                np.array(self._neg_counts),
                np.array(self._complexities))


def reduced_cost_dense(X, y, mu, lam, features) -> float:
    """Reduced cost of one clause straight off the full matrices; the
    admission check uses this regardless of which pricer proposed it."""
    feats = list(features)
    cover = X[:, feats].all(axis=1)
    pos = np.flatnonzero(y == 1)
    return (float(lam) * (1 + len(feats))
            + float(cover[y == 0].sum())
            - float(np.asarray(mu)[cover[pos]].sum()))


@dataclass
class MIPResult:
    objective: int
    selected: list
    optimal: bool
    nodes: int
    pivots: int


def _selection_objective(pos_cover, neg_counts, chosen) -> int:
    if not len(chosen):
        return pos_cover.shape[0]
    covered = pos_cover[:, chosen].sum(axis=1) > 0
    missed = int((~covered).sum())
    return missed + int(round(neg_counts[chosen].sum()))


def _greedy_selection(pos_cover, neg_counts, complexities, budget) -> list:
    """Pick clauses one at a time by best objective drop under the budget.

    Each step adds the clause whose newly covered positives minus its
    negative-side cost is largest; stops when nothing improves.  A chosen
    clause covers nothing new, so it never gains again."""
    uncovered = np.ones(pos_cover.shape[0], dtype=bool)
    chosen = []
    used = 0.0
    while True:
        gain = pos_cover[uncovered].sum(axis=0) - neg_counts
        gain[used + complexities > budget + BUDGET_TOL] = -np.inf
        k = int(gain.argmax())
        if gain[k] <= 0:
            return chosen
        chosen.append(k)
        used += complexities[k]
        uncovered &= pos_cover[:, k] < 0.5


def _best_small_addition(pos_cover, neg_counts, complexities, w_lower,
                         free, room) -> list:
    """The best selection below a node where no three free clauses fit
    `room`: its clauses fixed to 1 plus no free clause, the best single or
    the best pair that fits, scored on the positives the fixed clauses
    leave uncovered (a pair by inclusion-exclusion).  Ties go to fewer
    clauses, then to the lowest indices."""
    ones = np.flatnonzero(w_lower >= 1.0)
    rest = pos_cover[:, ones].sum(axis=1) == 0
    fits = free[complexities[free] <= room + BUDGET_TOL]
    P = pos_cover[rest][:, fits]
    gain = P.sum(axis=0) - neg_counts[fits]
    # a pair with a member that gains nothing never beats the other alone
    keep = gain > 0
    if not keep.any():
        return [int(k) for k in ones]
    fits, P, gain = fits[keep], P[:, keep], gain[keep]
    comp = complexities[fits]
    pair = gain[:, None] + gain[None, :] - P.T @ P
    pair[np.tri(len(fits), dtype=bool)
         | (comp[:, None] + comp[None, :] > room + BUDGET_TOL)] = -np.inf
    a = int(gain.argmax())
    i, j = np.unravel_index(int(pair.argmax()), pair.shape)
    best = [fits[i], fits[j]] if pair[i, j] > gain[a] else [fits[a]]
    return [int(k) for k in (*ones, *best)]


def solve_restricted_mip(pos_cover, neg_counts, complexities, budget,
                         deadline: float | None = None,
                         root=None) -> MIPResult:
    """Best integer clause selection within the pool, by branch and bound.

    Branches on the most fractional clause variable (ties to the lowest
    index), exploring the rounded direction first.  Each child carries its
    parent's rounded-up LP value, a floor on its own, and is dropped unsolved
    once the incumbent reaches it.  The incumbent is seeded once, by a
    greedy selection at the root, and improves only through integral node
    LPs and enumerated nodes.  After a fractional node LP of value z with
    duals (mu, lam), each clause's reduced cost d_k = neg_k + lam *
    complexity_k - sum of mu over the positives it covers bounds its
    subtree: a point with a free clause at 0 raised to 1 costs at least
    z + d_k, one with a free clause at 1 lowered to 0 at least z - d_k.
    Where that rounds up to the incumbent or more, the clause is fixed at
    its bound for both children.  The split duals of a presolved node LP
    give the same d on its free clauses as the reduced LP's own.  At
    `deadline`, a time.perf_counter() value, the search stops with its
    incumbent and optimal=False.  Every node below the root fixes clauses, so
    `solve_restricted_mlp` presolves its LP down to the free clauses and
    the distinct cover patterns they leave, and solves it as its dual.  A
    node, the root included, with fewer than three free clauses, or whose
    three cheapest free ones cost more than the budget its clauses fixed to
    1 leave, solves no LP: `_best_small_addition` lists every selection
    below it.  Such a node counts once in `nodes`, adds no pivots and has
    no children.  `root`, when given, is a `MasterSolution` column
    generation has already solved: the optimal root LP over this pool and
    budget, or over the clauses of the pool any selection within the budget
    can use, with w = 0 on the others (see `_select`).  It still counts as
    a node, but is not solved again.  `pivots` sums the HiGHS simplex
    iterations of the node LPs solved here, so a given root adds none.
    """
    pos_cover = np.asarray(pos_cover, dtype=float)
    neg_counts = np.asarray(neg_counts, dtype=float)
    complexities = np.asarray(complexities, dtype=float)
    n_pos, K = pos_cover.shape

    best_obj = n_pos
    best_sel: list = []
    nodes = pivots = 0
    if K == 0:
        return MIPResult(best_obj, [], True, 0, 0)

    def try_incumbent(chosen):
        nonlocal best_obj, best_sel
        obj = _selection_objective(pos_cover, neg_counts, chosen)
        if obj < best_obj:
            best_obj = obj
            best_sel = list(chosen)

    try_incumbent(_greedy_selection(pos_cover, neg_counts, complexities,
                                    budget))

    stack = [(np.zeros(K), np.ones(K), -math.inf)]
    optimal = True
    while stack:
        if deadline is not None and time.perf_counter() > deadline:
            optimal = False
            break
        w_lower, w_upper, floor = stack.pop()
        if floor >= best_obj:
            continue
        room = budget - complexities[w_lower >= 1.0].sum()
        if room < -BUDGET_TOL:
            continue
        free = np.flatnonzero((w_lower == 0.0) & (w_upper == 1.0))
        three = np.sort(complexities[free])[:3]
        if len(three) < 3 or three.sum() > room + BUDGET_TOL:
            # at most two more clauses fit: list them instead of an LP
            nodes += 1
            try_incumbent(_best_small_addition(
                pos_cover, neg_counts, complexities, w_lower, free, room))
            continue
        if root is not None:
            ms, root = root, None
        else:
            ms = solve_restricted_mlp(
                pos_cover, neg_counts, complexities, budget,
                w_lower=w_lower, w_upper=w_upper, deadline=deadline)
            pivots += ms.iterations
        nodes += 1
        if ms.status == INFEASIBLE:
            continue
        if ms.status != OPTIMAL:
            # the node LP ran out of time or hit numerical trouble; the
            # subtree stays unexplored, so the final answer is only an
            # incumbent
            optimal = False
            continue
        floor = guarded_ceil(ms.objective)
        if floor >= best_obj:
            continue

        w = ms.w
        frac = np.abs(w - 0.5) < 0.5 - 1e-6
        if not frac.any():
            sel = [int(k) for k in np.flatnonzero(w > 0.5)]
            try_incumbent(sel)
            continue
        # reduced-cost fixing: a free clause that cannot leave its bound
        # without reaching the incumbent stays there (guarded_ceil,
        # elementwise)
        d = neg_counts + ms.lam * complexities - ms.mu @ pos_cover
        at_bound = (w_lower == 0.0) & (w_upper == 1.0) & ~frac
        w_upper = np.where(at_bound & (w < 0.5) & (
            np.ceil(ms.objective + d - CEIL_EPS) >= best_obj), 0.0, w_upper)
        w_lower = np.where(at_bound & (w > 0.5) & (
            np.ceil(ms.objective - d - CEIL_EPS) >= best_obj), 1.0, w_lower)
        dist = np.where(frac, np.abs(w - 0.5), np.inf)
        k = int(dist.argmin())
        up_first = w[k] >= 0.5
        lo0, up0 = w_lower.copy(), w_upper.copy()
        up0[k] = 0.0
        lo1, up1 = w_lower.copy(), w_upper.copy()
        lo1[k] = 1.0
        down, up = (lo0, up0, floor), (lo1, up1, floor)
        children = [up, down] if up_first else [down, up]
        stack.append(children[1])
        stack.append(children[0])

    return MIPResult(best_obj, sorted(best_sel), optimal, nodes, pivots)


@dataclass
class ColGenResult:
    """What a training run produced for the budget `complexity_bound`.

    lower_bound is the best certified floor on the optimal training loss, or
    None when no full-data pricing search ran; a converged run's is the
    rounded-up master value.  optimal is claimed only when the master LP
    was priced out AND its rounded value meets the integer objective; a
    weaker certificate that happens to close the gap stays unclaimed.
    pool_size is the pool the selection chose from, mip_nodes counts its
    branch-and-bound nodes, enumerated ones included, and mip_pivots the
    pivots of the node LPs it solved; a root reused from the loop, padded
    or not, adds its pivots to the last trace row instead.
    """

    complexity_bound: int
    clauses: list
    objective: int
    z_rmlp: float
    lower_bound: int | None
    optimal: bool
    rmlp_converged: bool
    mip_optimal: bool
    iterations: int
    pool_size: int
    trace: list = field(repr=False)
    seconds: float = 0.0
    regime: str = ""
    mip_nodes: int = 0
    mip_pivots: int = 0


def _grow_pool(ds: BinaryDataset, cfg: ColGenConfig, pool: ClausePool
               ) -> tuple[ColGenResult, MasterSolution | None]:
    """Grow `pool` in place until the budget's master LP is priced out or
    its time limit is spent.

    Returns the result of the empty selection over the grown pool, which
    `_select` completes, and the last optimal master LP answer, or None
    when no master finished; its `w` has one entry per pool clause it was
    solved over."""
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit
    rng = np.random.default_rng(cfg.seed)
    n_pos = len(ds.pos)
    if n_pos == 0:
        raise ValueError("training needs at least one positive sample")
    depth = cfg.depth_limit(ds.d)
    regime = "large" if ds.pricing_nnz() > LARGE_NNZ else "small"
    budget = float(cfg.complexity_bound)

    trace: list[TraceEntry] = []
    best_lb: int | None = None
    z_rmlp = float(n_pos)
    converged = False
    iteration = 0
    last_master = None

    def price(sample=None):
        """The exact search at the current duals, on the full data or on a
        `restrict_pricing` sample of it."""
        return price_exact(ds.X, ds.y, mu, lam, depth,
                           deadline=min(time.perf_counter()
                                        + cfg.pricing_time_limit,
                                        deadline),
                           exclude=pool.index.keys(), sample=sample)

    def admit(res):
        """The result's clauses that price negative on the full data, most
        negative first.  Both pricing calls exclude the pool's clauses, so
        every one is new, and each returns at most `pricing.MAX_COLUMNS`."""
        found = []
        for feats, _ in res.clauses:
            rc = reduced_cost_dense(ds.X, ds.y, mu, lam, feats)
            if rc < -NEGATIVE_EPS:
                found.append((feats, rc))
        found.sort(key=lambda t: (t[1], t[0]))
        return found

    while True:
        iteration += 1
        it_t0 = time.perf_counter()
        pos_cover, neg_counts, complexities = pool.arrays()
        ms = solve_restricted_mlp(pos_cover, neg_counts, complexities,
                                  budget, deadline=deadline)
        master = (time.perf_counter() - it_t0, ms.iterations)
        if ms.status == OPTIMAL:
            z_rmlp, mu, lam, last_master = ms.objective, ms.mu, ms.lam, ms
        if ms.status != OPTIMAL or time.perf_counter() >= deadline:
            # out of time, or the master failed outright: keep the last
            # finished master's value, claim no convergence and fall
            # through to the integer stage
            mode = ("time-up" if ms.status in (OPTIMAL, TIME_LIMIT)
                    else "master-failed")
            trace.append(TraceEntry(iteration, z_rmlp, math.nan, mode,
                                    0, len(pool), time.perf_counter() - it_t0,
                                    *master))
            break

        # Pricing minimizes over clauses outside the pool.  A pool clause
        # sitting at its upper bound prices negative at a perfectly optimal
        # master (the bound's own dual absorbs the difference), so it proves
        # nothing and would only stall termination.  A sampled round whose
        # candidates all fail on the full data prices the full data next.
        results = []
        admitted = []
        if regime == "large":
            results.append(price(restrict_pricing(ds.X, ds.y, rng)))
            admitted = admit(results[-1])
        if not admitted:
            res = price()
            results.append(res)
            admitted = admit(res)
            # the certificate: only a full-data exact search carries a
            # floor, and a converged round's bound is ceil(z_rmlp)
            floor = res.certified_floor
            lb = guarded_ceil(z_rmlp if floor >= -NEGATIVE_EPS
                              else z_rmlp + (budget / 2.0) * floor)
            best_lb = max(lb, 0, best_lb or 0)  # the objective is a count
            converged = res.proven_optimal and res.best_value >= -NEGATIVE_EPS

        added = sum(pool.add(feats) for feats, _ in admitted)
        best_rc = min((rc for _, rc in admitted),
                      default=results[-1].best_value)
        trace.append(TraceEntry(iteration, z_rmlp, best_rc,
                                "+".join(r.mode for r in results), added,
                                len(pool), time.perf_counter() - it_t0,
                                *master,
                                sum(r.elapsed for r in results),
                                sum(r.explored for r in results),
                                any(r.proven_optimal for r in results)))
        if added == 0:
            break

    return ColGenResult(
        complexity_bound=cfg.complexity_bound, clauses=[], objective=n_pos,
        z_rmlp=z_rmlp, lower_bound=best_lb, optimal=False,
        rmlp_converged=converged, mip_optimal=False, iterations=iteration,
        pool_size=len(pool), trace=trace,
        seconds=time.perf_counter() - t0, regime=regime), last_master


def _select(pool: ClausePool, cfg: ColGenConfig, growth: ColGenResult,
            root: MasterSolution | None) -> ColGenResult:
    """Complete the growth's result with the best selection within the
    budget from the whole pool.  The selection gets what the growth left of
    `cfg.time_limit`.

    `root`, the growth's last optimal master, is the root LP of the branch
    and bound, and is not solved again, when the pool has not grown since
    it was solved.
    When later budgets of a sweep have grown the pool, a converged
    growth's master is still the root, with w = 0 on the later clauses,
    and its other fields as they are.  That is exact:

    - The converged round's full-data exact pricing proved that every
      clause outside the then-pool, of at most `depth_limit(C)`
      conditions, has reduced cost at least -NEGATIVE_EPS at that
      master's duals.  So the padded point is LP-optimal over any later
      pool of such clauses.
    - A pool clause deeper than `depth_limit(C)` costs more than C: every
      pool clause already respects the clause bound and the data width,
      so only the C - 1 cap can make the limit smaller.  Such a clause is
      0 in every integer point, so the root's rounded-up value and the
      reduced-cost fixings read off its duals still hold for every
      integer point.

    A growth that did not converge proved nothing about the later
    clauses, so its selection solves the root LP over the whole pool."""
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit - growth.seconds
    pos_cover, neg_counts, complexities = pool.arrays()
    if root is not None and len(root.w) < len(pool):
        root = (replace(root, w=np.pad(root.w, (0, len(pool) - len(root.w))))
                if growth.rmlp_converged else None)
    mip = solve_restricted_mip(pos_cover, neg_counts, complexities,
                               float(cfg.complexity_bound),
                               deadline=deadline, root=root)
    return replace(
        growth, clauses=[pool.clauses[k] for k in mip.selected],
        objective=mip.objective,
        optimal=(growth.rmlp_converged
                 and growth.lower_bound == mip.objective),
        mip_optimal=mip.optimal, pool_size=len(pool),
        seconds=growth.seconds + time.perf_counter() - t0,
        mip_nodes=mip.nodes, mip_pivots=mip.pivots)


def run_column_generation(ds: BinaryDataset,
                          cfg: ColGenConfig) -> ColGenResult:
    """Train one rule selection on a binarized dataset, over a new pool.

    Returns the chosen clauses as pool indices resolved to Clause objects,
    the integer training objective, and the best certified lower bound
    (None when nothing could be certified).  `cfg.time_limit` covers the
    growth and the selection, which gets whatever time is left.  It is the
    sweep of the one budget `cfg.complexity_bound`.
    """
    return sweep_complexity(ds, [cfg.complexity_bound], cfg)[0]


def sweep_complexity(ds: BinaryDataset, budgets, cfg: ColGenConfig):
    """Train across several complexity budgets, sharing one clause pool,
    and return one result per distinct budget, in ascending order.

    Every budget grows the pool in ascending order, so cheap models seed it
    for the richer ones.  Then each budget selects once over the final
    pool.  A budget's `time_limit` covers its own growth and its selection,
    which gets what the growth left of it.
    """
    pool = ClausePool(ds)
    cfgs = [replace(cfg, complexity_bound=C)
            for C in sorted(set(int(b) for b in budgets))]
    grown = [_grow_pool(ds, cfg_c, pool) for cfg_c in cfgs]
    return [_select(pool, cfg_c, *growth)
            for cfg_c, growth in zip(cfgs, grown)]
