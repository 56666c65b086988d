"""Property tests: the certificate holds on random instances in both pricing
regimes, checked against the enumeration oracle.

Hypothesis runs derandomized and without deadlines, so every run of the
suite draws the same instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boolrules.colgen import ColGenConfig, run_column_generation
from boolrules.ruleset import selection_loss

from _data import make_binary_dataset
from _oracles import best_ruleset_by_enumeration


@st.composite
def instances(draw):
    """At most 14 rows and 6 features (3 raw columns and their
    complements), with at least one positive."""
    n = draw(st.integers(2, 14))
    k = draw(st.integers(1, 3))
    cells = draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    y = np.array(labels, dtype=np.uint8)
    y[0] = 1
    X_half = np.array(cells, dtype=np.uint8).reshape(n, k)
    return make_binary_dataset(X_half, y)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(ds=instances(), C=st.integers(2, 8), D=st.integers(1, 3),
       seed=st.integers(0, 3))
def test_certificate_brackets_the_enumerated_optimum(ds, C, D, seed):
    opt, _ = best_ruleset_by_enumeration(ds.X, ds.y, C, min(D, ds.d))
    # large_nnz=2 sends every instance down the sampled path
    for large_nnz in (2, ColGenConfig.large_nnz):
        cfg = ColGenConfig(complexity_bound=C, clause_bound=D,
                           time_limit=60.0, pricing_time_limit=10.0,
                           large_nnz=large_nnz, seed=seed)
        res = run_column_generation(ds, cfg)
        assert res.regime == ("large" if large_nnz == 2 else "small")
        assert selection_loss(res.clauses, ds) == res.objective
        # every loop ends on a full-data exact search, which certifies
        assert res.lower_bound is not None
        assert res.lower_bound <= opt <= res.objective
        if res.optimal:
            assert res.lower_bound == opt == res.objective
