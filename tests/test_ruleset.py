import json

import numpy as np
import pytest

from boolrules.dataset import FeatureMeta, binarize_table, read_csv_table
from boolrules.ruleset import (
    Clause,
    RuleSet,
    build_ruleset,
    hamming_loss,
    predict,
    selection_loss,
)
from _data import make_binary_dataset, random_dataset, tiny_example
from _oracles import dnf_loss_by_counting


def random_clauses(rng, d, count, max_size=3):
    out = []
    for _ in range(count):
        size = int(rng.integers(1, max_size + 1))
        out.append(Clause(tuple(rng.choice(d, size=size, replace=False))))
    return out


def test_clause_normalization():
    cl = Clause((3, 1, 3, 2))
    assert cl.features == (1, 2, 3)
    assert cl.complexity == 4
    with pytest.raises(ValueError):
        Clause(())


def test_clause_covers():
    X = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    np.testing.assert_array_equal(Clause((0,)).covers(X), [True, True, False])
    np.testing.assert_array_equal(Clause((0, 1)).covers(X), [True, False, False])


def test_selection_loss_matches_counting_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        ds = random_dataset(rng, n_max=20, k_max=4)
        clauses = random_clauses(rng, ds.d, int(rng.integers(0, 4)))
        expected = dnf_loss_by_counting([c.features for c in clauses], ds.X, ds.y)
        assert selection_loss(clauses, ds) == expected
    ds = tiny_example()
    assert selection_loss([], ds) == len(ds.pos)


def test_build_and_predict_dnf():
    ds = tiny_example()
    # clause on raw column c0 covers exactly the two positives
    rs = build_ruleset([Clause((0,))], ds, "dnf", training={"C": 4})
    assert rs.complexity == 2
    assert rs.training == {"C": 4}
    np.testing.assert_array_equal(predict(rs, ds), ds.y)
    assert hamming_loss(rs, ds) == 0


def test_cnf_predictions_are_and_of_ors():
    rng = np.random.default_rng(23)
    for _ in range(20):
        ds = random_dataset(rng, n_max=15, k_max=4)
        neg = ds.negated()
        clauses = random_clauses(rng, ds.d, int(rng.integers(1, 4)))
        rs = build_ruleset(clauses, ds, "cnf")
        assert rs.form == "cnf"
        # by De Morgan the clauses found on the negated data are ORs of
        # the ingested dataset's own conditions, under its own labels
        assert rs.clauses == tuple(tuple(ds.features[j] for j in cl.features)
                                   for cl in clauses)
        assert (rs.positive_label, rs.negative_label) == \
            (ds.positive_label, ds.negative_label)
        got = predict(rs, ds)
        want = np.ones(ds.n, dtype=np.uint8)
        for cl in clauses:
            want &= ds.X[:, list(cl.features)].any(axis=1).astype(np.uint8)
        np.testing.assert_array_equal(got, want)
        # the loss reported for the CNF model is the DNF loss the trainer
        # actually minimized on the negated data
        assert hamming_loss(rs, ds) == selection_loss(clauses, neg)


def test_empty_ruleset_semantics():
    ds = tiny_example()
    dnf = RuleSet("dnf", (), ds.positive_label, ds.negative_label)
    cnf = RuleSet("cnf", (), ds.positive_label, ds.negative_label)
    assert predict(dnf, ds).sum() == 0          # never fires
    assert predict(cnf, ds).sum() == ds.n       # empty AND is true
    assert "<never>" in dnf.render()
    assert "<always>" in cnf.render()


def test_render_layout():
    f1 = FeatureMeta("age", "numeric-leq", 30.0)
    f2 = FeatureMeta("color", "categorical-eq", "red")
    f3 = FeatureMeta("age", "numeric-gt", 50.0)
    rs = RuleSet("dnf", ((f1, f2), (f3,)), "yes", "no")
    text = rs.render()
    lines = text.splitlines()
    # shorter clause first, clauses joined by OR, conditions by AND
    assert lines[0] == "IF (age > 50)"
    assert lines[1] == "OR (age <= 30 AND color = red)"
    assert lines[2] == "THEN yes"
    assert lines[3] == "ELSE no"
    cnf = RuleSet("cnf", ((f1, f2),), "yes", "no")
    assert "OR" in cnf.render().splitlines()[0]


def test_json_round_trip():
    f1 = FeatureMeta("v", "numeric-leq", 2.5)
    f2 = FeatureMeta("c", "categorical-neq", "blue")
    rs = RuleSet("cnf", ((f1,), (f2, f1)), "pos", "neg",
                 training={"C": 10, "z_train": 3, "lower_bound": 2})
    back = RuleSet.from_json(rs.to_json())
    assert back == rs
    with pytest.raises(ValueError, match="format_version"):
        RuleSet.from_json('{"format_version": 99, "form": "dnf", '
                          '"label_map": {"positive": "a", "negative": "b"}, '
                          '"clauses": []}')


def test_from_json_checks_the_training_block():
    doc = json.loads(RuleSet("dnf", ((FeatureMeta("c", "categorical-eq", "x"),),),
                             "yes", "no", training={"C": 4}).to_json())
    for bad in ([1, 2], "C=4", 4, None):
        doc["training"] = bad
        with pytest.raises(ValueError, match="training"):
            RuleSet.from_json(json.dumps(doc))
    del doc["training"]
    assert RuleSet.from_json(json.dumps(doc)).training == {}


def test_predict_rows_on_raw_cells(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("v,c,cls\n1,red,no\n5,red,yes\n9,blue,no\n")
    ds = binarize_table(read_csv_table(csv, "cls"), quantile_count=3)
    # model: v <= t for the largest threshold AND c = red
    leq = max((m for m in ds.features if m.kind == "numeric-leq"),
              key=lambda m: m.value)
    red = next(m for m in ds.features
               if m.kind == "categorical-eq" and m.value == "red")
    rs = RuleSet("dnf", ((leq, red),), "yes", "no")
    header = ["v", "c"]
    assert rs.predict_rows(header, [["1", "red"]]) == ["yes"]
    assert rs.predict_rows(header, [["9", "red"]]) == ["no"]
    assert rs.predict_rows(header, [["1", "blue"]]) == ["no"]
    # missing cells fail = and <= tests
    assert rs.predict_rows(header, [["?", "red"]]) == ["no"]
    with pytest.raises(ValueError, match="missing columns"):
        rs.predict_rows(["v"], [["1"]])
    with pytest.raises(ValueError):
        rs.predict_rows(header, [["not-a-number", "red"]])


def test_predict_rows_cnf_missing_cells():
    neq = FeatureMeta("c", "categorical-neq", "red")
    rs = RuleSet("cnf", ((neq,),), "yes", "no")
    # a missing cell passes != tests, so the OR clause holds
    assert rs.predict_rows(["c"], [["?"], ["red"], ["blue"]]) == \
        ["yes", "no", "yes"]


def test_build_ruleset_requires_metadata():
    ds = tiny_example()
    bare = make_binary_dataset(np.array([[1], [0]], dtype=np.uint8),
                               np.array([1, 0], dtype=np.uint8))
    bare.features = None
    with pytest.raises(ValueError, match="metadata"):
        build_ruleset([Clause((0,))], bare, "dnf")
    rs = build_ruleset([Clause((0,))], ds, "dnf")
    with pytest.raises(ValueError, match="metadata"):
        predict(rs, bare)
    alien = RuleSet("dnf", ((FeatureMeta("nope", "categorical-eq", "v"),),),
                    "yes", "no")
    with pytest.raises(ValueError, match="feature space"):
        predict(alien, ds)


def test_unknown_form_rejected():
    with pytest.raises(ValueError, match="form"):
        RuleSet("xor", (), "a", "b")
