"""Pricing: search for clauses with negative reduced cost.

Given duals (mu over the positive cover rows, lam for the budget row), the
reduced cost of a clause K is

    (negatives covered) - sum of mu over covered positives + lam * (1 + |K|).

`price_exact` minimizes this by depth-first branch and bound over feature
subsets and is the source of optimality certificates.  It works on batches
of same-size clauses held as row masks, scoring all their one-feature
extensions with two matrix products, and returns the true most negative
clauses, ties broken by features.  For large instances the same search
runs on a row and feature sample that `restrict_pricing` draws, passed as
`price_exact`'s `sample`: its clauses come back over the data's own
feature ids, must be re-priced on the full data by the caller, and
nothing it proves counts as a certificate.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass

import numpy as np

NEGATIVE_EPS = 1e-9

_MU_TINY = 1e-12

# Mask cells (clauses x rows) one batch of the exact search may hold; caps
# the working set of its matrix products and of the masks it builds.
_BATCH_CELLS = 1 << 15

SAMPLE_TARGET = 2000  # rows a sampled pricing instance keeps, about
NNZ_CAP = 100000  # and its zero entries plus features, about

MAX_COLUMNS = 10  # clauses a pricing call returns, so a round admits at most


@dataclass
class PricingResult:
    """Outcome of one pricing call.

    `clauses` lists (feature tuple, reduced cost) sorted most negative
    first.  `certified_floor` is a proven lower bound on the minimum reduced
    cost over all clauses within the depth limit, or None when the mode
    cannot certify anything.  `proven_optimal` means `best_value` equals
    that minimum exactly.
    """

    clauses: list
    best_value: float
    certified_floor: float | None
    proven_optimal: bool
    explored: int
    elapsed: float
    mode: str


class _TopK:
    """The k smallest (reduced cost, features) pairs seen among negative
    clauses, so ties resolve by features whatever order clauses arrive in."""

    def __init__(self, k):
        self.k = k
        self.items = []  # sorted (rc, features)

    def offer(self, rc, features):
        if rc >= -NEGATIVE_EPS:
            return
        bisect.insort(self.items, (rc, features))
        del self.items[self.k:]

    def worst(self):
        return self.items[-1][0]

    def full(self):
        return len(self.items) >= self.k

    def sorted_clauses(self):
        return [(feats, rc) for rc, feats in self.items]


def price_exact(X, y, mu, lam: float, depth_limit: int,
                time_limit: float | None = None, exclude=None,
                sample=None) -> PricingResult:
    """Branch and bound over feature subsets of size at most depth_limit,
    scored a batch of same-size clauses at a time.

    `mu` holds one dual per positive of (X, y), in row order, and `lam`
    the budget row's dual.  Only positives with mu above a small tolerance
    take part: a zero-dual positive cannot make a reduced cost negative.
    `depth_limit` is clamped to the features searched.

    `sample=(rows, features)`, ascending index arrays such as
    `restrict_pricing` draws, prices the instance `X[rows][:, features]`
    with the kept positives' mu instead.  Its clauses are stated over X's
    own feature ids, and `exclude` is read over them too; `features` keeps
    their order, so ties resolve as on the full data.  Its reduced costs
    were measured on the sample, so the result is mode "restricted-exact",
    proves nothing and carries no floor: callers re-price its clauses on
    the full data.

    A clause extends only with features later in the root ordering, so
    every subset is reached once.  A batch holds clauses of one size with
    their covered rows as masks: mu-weighted over the live positives and
    0/1 over the negatives.  Two matrix products score every one-feature
    extension of the whole batch at once.  The strict extensions of a
    clause K are bounded below by lam * (2 + |K|) - (mu mass K covers): the
    negatives term can only help and covered mu mass only shrinks.  Clauses
    whose bound can still beat the threshold go on a stack in batches,
    worst bound first, so the most promising batch is popped next.  The
    threshold is the larger of the incumbent minimum and, once
    `MAX_COLUMNS` clauses are kept, the worst kept one.

    `clauses` are the `MAX_COLUMNS` most negative clauses outside
    `exclude`, sorted by (reduced cost, features).  `exclude` skips clauses
    already in the caller's pool: a pool clause at its upper bound
    legitimately prices negative without saying anything new, so minimum,
    collection and floor are all over clauses outside it.  Excluded clauses
    are still extended.

    On completion the minimum is exact, even when it is nonnegative.  On
    timeout the result still carries a certified floor: the minimum of the
    incumbent and the bounds of every batch left on the stack.
    """
    t0 = time.perf_counter()
    deadline = None if time_limit is None else t0 + float(time_limit)
    X, y = np.asarray(X), np.asarray(y)
    pos = np.flatnonzero(y == 1)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (len(pos),):
        raise ValueError("mu must have one entry per positive sample")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    ids = np.arange(X.shape[1])  # X's feature id of each searched column
    if sample is not None:
        rows, ids = sample
        mu = mu[np.searchsorted(pos, rows[y[rows] == 1])]
        X, y = X[np.ix_(rows, ids)], y[rows]
        pos = np.flatnonzero(y == 1)
    X = np.ascontiguousarray(X, dtype=np.uint8)
    d = X.shape[1]
    D = max(1, min(int(depth_limit), d))
    live_mu = mu > _MU_TINY
    Xp, mu_w, Xn = X[pos[live_mu]], mu[live_mu], X[y == 0]
    root_mu = mu_w @ Xp if Xp.size else np.zeros(d)
    # most promising features first: ties fall back to column order
    rank = np.empty(d, dtype=np.int64)
    rank[np.argsort(-root_mu, kind="stable")] = np.arange(d)

    exclude = frozenset(exclude) if exclude else frozenset()
    top = _TopK(MAX_COLUMNS)
    best_val = math.inf
    evals = 0
    n_neg = Xn.shape[0]
    XpT, XnT = np.ascontiguousarray(Xp.T), np.ascontiguousarray(Xn.T)
    Xp = Xp.astype(float)
    # 0/1 products in float32 count exactly below 2**24 rows
    count_type = np.float32 if n_neg < 2 ** 24 else np.float64
    Xn = Xn.astype(count_type)
    width = max(1, _BATCH_CELLS // max(Xp.shape[0] + n_neg, 1))
    stack = []  # (bounds, parent feats, parent P, parent N, rows, columns)

    def live(values):
        """Which reduced costs, or bounds on them, could still lower the
        minimum or enter the kept clauses; a tie with the worst kept one
        can, since ties resolve by features."""
        if top.full():
            return values <= max(best_val, top.worst())
        return values < max(best_val, -NEGATIVE_EPS)

    def score(feats, last, P, N):
        """Score every extension of a batch: row b of `feats` is a clause
        whose last feature has order rank last[b], P[b] and N[b] its masks."""
        nonlocal best_val, evals
        size = feats.shape[1]
        mu_cov = P @ Xp
        later = rank[None, :] > last[:, None]
        evals += int((d - 1 - last).sum())
        rc = np.where(later, N @ Xn - mu_cov + lam * (2 + size), np.inf)
        flat = rc.ravel()
        worth = np.flatnonzero(live(flat))
        for k in worth[np.argsort(flat[worth], kind="stable")]:
            v = float(flat[k])
            if not live(v):
                break
            b, j = divmod(int(k), d)
            clause = tuple(sorted(feats[b].tolist() + [int(ids[j])]))
            if clause in exclude:
                continue
            best_val = min(best_val, v)
            top.offer(v, clause)

        if size + 1 >= D:
            return
        ext = np.where(later, lam * (3 + size) - mu_cov, np.inf).ravel()
        grow = np.flatnonzero(live(ext))
        grow = grow[np.argsort(ext[grow], kind="stable")]
        for s in reversed(range(0, grow.size, width)):
            part = grow[s:s + width]
            stack.append((ext[part], feats, P, N, part // d, part % d))

    score(np.zeros((1, 0), dtype=np.int64), np.array([-1]),
          mu_w[None, :], np.ones((1, n_neg), dtype=count_type))
    proven = True
    while stack:
        if deadline is not None and time.perf_counter() > deadline:
            proven = False
            break
        bounds, feats, P, N, b, j = stack.pop()
        keep = live(bounds)
        if not keep.any():
            continue
        b, j = b[keep], j[keep]
        score(np.column_stack([feats[b], ids[j]]), rank[j], P[b] * XpT[j],
              N[b] * XnT[j])

    if sample is not None:
        proven, floor = False, None
    elif proven:
        floor = best_val if math.isfinite(best_val) else 0.0
    else:
        floor = min([best_val] + [float(e[0][0]) for e in stack])
    return PricingResult(
        clauses=top.sorted_clauses(),
        best_value=best_val,
        certified_floor=floor,
        proven_optimal=proven,
        explored=evals,
        elapsed=time.perf_counter() - t0,
        mode="exact" if sample is None else "restricted-exact",
    )


def restrict_pricing(X, y, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw a row and feature sample of (X, y) for `price_exact`'s `sample`.

    Rows are kept with probability SAMPLE_TARGET / n.  Features are then
    kept with a probability chosen so the kept rows' zero-entry count plus
    the feature count lands near NNZ_CAP.  Sampling that loses every
    positive is retried a few times, then all positives are forced in.
    Returns the kept rows and features, each ascending.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    n, d = X.shape
    pos = np.flatnonzero(y == 1)
    p = min(1.0, SAMPLE_TARGET / max(n, 1))
    keep = None
    for _ in range(5):
        trial = rng.random(n) < p
        if trial[pos].any():
            keep = trial
            break
    if keep is None:
        keep = rng.random(n) < p
        keep[pos] = True
    rows = np.flatnonzero(keep)

    Xs = X[rows]
    zeros = Xs.size - int(Xs.sum())
    budget = max(NNZ_CAP - len(rows), 0)
    q = min(1.0, budget / max(zeros + d, 1))
    fkeep = rng.random(d) < q
    if not fkeep.any():
        fkeep[int(rng.integers(d))] = True
    return rows, np.flatnonzero(fkeep)
