import itertools
import time

import numpy as np
import pytest

from boolrules import pricing
from boolrules.colgen import reduced_cost_dense
from boolrules.pricing import price_exact, restrict_pricing
from _data import make_binary_dataset, random_dataset, tiny_example
from _oracles import best_clause_by_enumeration, clause_reduced_cost


def test_worked_example_reduced_costs():
    ds = tiny_example()
    mu = np.array([1.0, 1.0])
    # raw column c0 covers both positives and no negative
    assert reduced_cost_dense(ds.X, ds.y, mu, 0.0, (0,)) == -2.0
    # c1 covers one positive and one negative; the size penalty tips it up
    assert reduced_cost_dense(ds.X, ds.y, mu, 0.5, (1,)) == 1.0
    res = price_exact(ds.X, ds.y, mu, lam=0.0, depth_limit=3)
    assert res.proven_optimal
    assert res.best_value == -2.0
    assert res.clauses[0] == ((0,), -2.0)
    assert res.certified_floor == -2.0


def test_exact_matches_enumeration():
    rng = np.random.default_rng(99)
    for _ in range(60):
        ds = random_dataset(rng, n_max=30, k_max=7)
        mu = rng.random(len(ds.pos)) * rng.uniform(0.5, 2.0)
        mu[rng.random(len(ds.pos)) < 0.2] = 0.0
        lam = float(rng.choice([0.0, 0.05, 0.2, 0.7]))
        D = int(rng.integers(1, 5))
        res = price_exact(ds.X, ds.y, mu, lam, D)
        oval, _, onegs = best_clause_by_enumeration(ds.X, ds.y, mu, lam,
                                                    min(D, ds.d))
        assert res.proven_optimal
        assert res.best_value == pytest.approx(oval, abs=1e-9)
        assert res.certified_floor == pytest.approx(oval, abs=1e-9)
        # returned clauses: correct values, genuinely negative, and exactly
        # the most negative ones that exist
        for feats, rc in res.clauses:
            assert rc == pytest.approx(
                clause_reduced_cost(feats, ds.X, ds.y, mu, lam), abs=1e-9)
            assert rc < -1e-9
        expect = sorted(v for v, _ in onegs)[:10]
        got = sorted(rc for _, rc in res.clauses)
        assert got == pytest.approx(expect, abs=1e-9)


def dyadic_instance(rng):
    """A random pricing instance whose duals are multiples of 1/8, so every
    reduced cost sums exactly in any order and ties are common."""
    ds = random_dataset(rng, n_max=30, k_max=7)
    mu = rng.integers(0, 17, len(ds.pos)) / 8.0
    lam = float(rng.choice([0.0, 0.125, 0.25, 0.5]))
    return ds, mu, lam, int(rng.integers(1, 5))


def all_clauses(ds, mu, lam, D):
    """Every clause within the depth limit as (reduced cost, features)."""
    return [(clause_reduced_cost(c, ds.X, ds.y, mu, lam), c)
            for size in range(1, min(D, ds.d) + 1)
            for c in itertools.combinations(range(ds.d), size)]


def test_exact_returns_the_ten_most_negative_outside_exclude():
    rng = np.random.default_rng(31)
    for _ in range(40):
        ds, mu, lam, D = dyadic_instance(rng)
        everything = sorted(all_clauses(ds, mu, lam, D))
        # leave out some of the best clauses and a few arbitrary ones
        negative = [c for v, c in everything if v < 0]
        exclude = set(negative[:int(rng.integers(0, 6))])
        exclude |= {c for _, c in everything if rng.random() < 0.1}
        res = price_exact(ds.X, ds.y, mu, lam, D, exclude=exclude)
        rest = [(v, c) for v, c in everything if c not in exclude]
        assert res.proven_optimal
        if rest:
            assert res.best_value == rest[0][0]
            assert res.certified_floor == rest[0][0]
        assert res.clauses == [(c, v) for v, c in rest if v < -1e-9][:10]


def test_split_frontier_matches_one_batch(monkeypatch):
    rng = np.random.default_rng(57)
    for _ in range(40):
        ds, mu, lam, D = dyadic_instance(rng)
        exclude = {c for _, c in all_clauses(ds, mu, lam, D)
                   if rng.random() < 0.1}
        runs = []
        # one clause per batch, then every clause of a size in one batch
        for cells in (1, 1 << 30):
            monkeypatch.setattr(pricing, "_BATCH_CELLS", cells)
            runs.append(price_exact(ds.X, ds.y, mu, lam, D,
                                    exclude=exclude))
        split, whole = runs
        assert split.proven_optimal and whole.proven_optimal
        assert split.best_value == whole.best_value
        assert split.certified_floor == whole.certified_floor
        assert split.clauses == whole.clauses


def test_exact_depth_limit_respected():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, n_max=20, k_max=5)
    mu = np.ones(len(ds.pos))
    for D in (1, 2):
        res = price_exact(ds.X, ds.y, mu, 0.0, D)
        assert all(len(f) <= D for f, _ in res.clauses)
        oval, _, _ = best_clause_by_enumeration(ds.X, ds.y, mu, 0.0, D)
        assert res.best_value == pytest.approx(oval, abs=1e-9)


def test_exact_no_negative_clause():
    # with zero duals everything prices at lam * complexity >= 0
    ds = tiny_example()
    res = price_exact(ds.X, ds.y, np.zeros(2), 0.25, 3)
    assert res.clauses == []
    assert res.proven_optimal
    assert res.best_value == pytest.approx(0.5)   # cheapest single feature
    assert res.certified_floor == pytest.approx(0.5)


def test_timeout_floor_is_still_valid():
    rng = np.random.default_rng(5)
    timed_out = 0
    for _ in range(25):
        ds = random_dataset(rng, n_max=60, k_max=9)
        mu = rng.random(len(ds.pos)) * 2.0
        res = price_exact(ds.X, ds.y, mu, 0.01, 4,
                          deadline=time.perf_counter() + 1e-4)
        oval, _, _ = best_clause_by_enumeration(ds.X, ds.y, mu, 0.01,
                                                min(4, ds.d))
        assert res.certified_floor is not None
        assert res.certified_floor <= oval + 1e-9
        assert res.best_value >= oval - 1e-9
        timed_out += not res.proven_optimal
    assert timed_out > 0, "the tiny limit should interrupt at least once"


def test_exact_is_deterministic():
    rng = np.random.default_rng(17)
    ds = random_dataset(rng, n_max=40, k_max=8)
    mu = rng.random(len(ds.pos))
    a = price_exact(ds.X, ds.y, mu, 0.1, 3)
    b = price_exact(ds.X, ds.y, mu, 0.1, 3)
    assert a.clauses == b.clauses
    assert a.best_value == b.best_value
    assert a.explored == b.explored


def test_restricted_sampling(monkeypatch):
    monkeypatch.setattr(pricing, "SAMPLE_TARGET", 100)
    monkeypatch.setattr(pricing, "NNZ_CAP", 900)
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, n_max=400, k_max=8)
    mu = rng.random(len(ds.pos))
    rows, features = restrict_pricing(ds.X, ds.y, rng)
    assert 0 < len(rows) < ds.n and 0 < len(features) <= ds.d
    assert (np.diff(rows) > 0).all() and (np.diff(features) > 0).all()
    assert (ds.y[rows] == 1).any()
    res = price_exact(ds.X, ds.y, mu, 0.05, 3, sample=(rows, features))
    assert res.clauses
    assert res.certified_floor is None
    assert not res.proven_optimal
    assert res.mode == "restricted-exact"
    for feats, _ in res.clauses:
        assert set(feats) <= set(features.tolist())
        assert feats == tuple(sorted(feats))


def test_sampled_call_prices_the_sliced_instance(monkeypatch):
    # a sampled call is the explicit call on X[rows][:, features], y[rows]
    # and the kept positives' mu, with every clause, excluded ones too,
    # stated over X's own feature ids; the kept positives are often not
    # the first ones, and the kept features not the first ones either
    monkeypatch.setattr(pricing, "SAMPLE_TARGET", 12)
    monkeypatch.setattr(pricing, "NNZ_CAP", 60)
    rng = np.random.default_rng(23)
    not_prefix = remapped = compared = 0
    for _ in range(60):
        ds, mu, lam, D = dyadic_instance(rng)
        rows, features = restrict_pricing(ds.X, ds.y, rng)
        kept = np.isin(ds.pos, rows)
        Xs, ys = ds.X[rows][:, features], ds.y[rows]
        local = price_exact(Xs, ys, mu[kept], lam, D)
        to_data = {c: tuple(int(features[j]) for j in c)
                   for c, _ in local.clauses}
        skip = {c for c in to_data if rng.random() < 0.3}
        local = price_exact(Xs, ys, mu[kept], lam, D, exclude=skip)
        res = price_exact(ds.X, ds.y, mu, lam, D,
                          exclude={to_data[c] for c in skip},
                          sample=(rows, features))
        assert res.clauses == [(tuple(int(features[j]) for j in c), v)
                               for c, v in local.clauses]
        assert res.best_value == local.best_value
        assert res.explored == local.explored
        assert res.mode == "restricted-exact"
        assert res.certified_floor is None and not res.proven_optimal
        not_prefix += not kept[:kept.sum()].all()
        remapped += features.tolist() != list(range(len(features)))
        compared += len(res.clauses) > 0 and local.proven_optimal
    assert not_prefix >= 10 and remapped >= 10 and compared >= 10


def test_restricted_mu_alignment(monkeypatch):
    # samples of about 3 of the 5 rows: the kept positives are often not
    # the first ones, and their mu must follow their ranks among all
    # positives
    monkeypatch.setattr(pricing, "SAMPLE_TARGET", 3)
    monkeypatch.setattr(pricing, "NNZ_CAP", 10 ** 6)
    y = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
    X = np.eye(5, dtype=np.uint8)
    X = np.hstack([X, 1 - X])
    mu = np.array([10.0, 20.0, 30.0])
    rank = {0: 0, 2: 1, 4: 2}
    skipped = 0
    for seed in range(10):
        rows, features = restrict_pricing(X, y, np.random.default_rng(seed))
        assert features.tolist() == list(range(10))
        kept_pos = rows[y[rows] == 1]
        res = price_exact(X, y, mu, 0.0, 2, sample=(rows, features))
        want = price_exact(X[rows], y[rows],
                           mu[[rank[r] for r in kept_pos]], 0.0, 2)
        assert res.clauses == want.clauses
        skipped += kept_pos.tolist() != [0, 2, 4][:len(kept_pos)]
    assert skipped


def test_restricted_keeps_positives_alive(monkeypatch):
    # one positive in a sea of negatives and a sampling rate that would
    # usually miss it: the fallback forces it in
    monkeypatch.setattr(pricing, "SAMPLE_TARGET", 3)
    monkeypatch.setattr(pricing, "NNZ_CAP", 10 ** 6)
    y = np.zeros(500, dtype=np.uint8)
    y[3] = 1
    X = np.hstack([np.ones((500, 2), dtype=np.uint8),
                   np.zeros((500, 2), dtype=np.uint8)])
    rng = np.random.default_rng(2)
    rows, _ = restrict_pricing(X, y, rng)
    assert (y[rows] == 1).any()


def test_price_exact_validation():
    ds = tiny_example()
    with pytest.raises(ValueError, match="one entry per positive"):
        price_exact(ds.X, ds.y, np.ones(3), 0.0, 2)
    with pytest.raises(ValueError, match="lam"):
        price_exact(ds.X, ds.y, np.ones(2), -0.1, 2)
    # the depth limit is clamped to the features searched: all of X's,
    # or the sample's
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, n_max=30, k_max=6)
    mu = rng.random(len(ds.pos))
    rows, features = np.arange(0, ds.n, 2), np.arange(1, ds.d, 3)
    for sample, d in ((None, ds.d), ((rows, features), len(features))):
        deep = price_exact(ds.X, ds.y, mu, 0.01, 99, sample=sample)
        full = price_exact(ds.X, ds.y, mu, 0.01, d, sample=sample)
        assert deep.clauses and deep.clauses == full.clauses
        assert deep.explored == full.explored
        assert max(len(c) for c, _ in deep.clauses) <= d
