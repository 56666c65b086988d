import math

import numpy as np
import pytest

from boolrules.dataset import (
    BinaryDataset,
    DatasetError,
    FeatureMeta,
    binarize_table,
    build_matrix,
    categorical_features,
    evaluate_conditions,
    read_columns,
    read_csv_table,
)
from _data import (
    make_binary_dataset,
    numeric_column_features,
    tictactoe_rows,
    write_tictactoe_csv,
)
from _oracles import holds


def write_csv(path, text):
    path.write_text(text.lstrip())
    return path


def binarize_column(values, column, metas):
    """The 0/1 columns of `metas` on one column's values, as a list."""
    X = evaluate_conditions({column: values}, metas, len(values))
    return [X[:, j] for j in range(len(metas))]


def test_decile_thresholds_on_one_to_ten():
    # For sorted values 1..10 the p-quantile under linear interpolation is
    # 1 + 9p, so the nine decile cuts are fixed numbers; each yields a
    # <= / > pair, giving 18 columns.
    expected = [1.9, 2.8, 3.7, 4.6, 5.5, 6.4, 7.3, 8.2, 9.1]
    values = np.arange(1.0, 11.0)
    metas = numeric_column_features(values, "v", quantile_count=9)
    cols = binarize_column(values, "v", metas)
    assert len(cols) == 18 and len(metas) == 18
    got = [m.value for m in metas if m.kind == "numeric-leq"]
    assert got == pytest.approx(expected)
    # complement pairs are adjacent and partition the samples
    for j in range(0, 18, 2):
        assert metas[j + 1] == metas[j].complement()
        assert ((cols[j] ^ cols[j + 1]) == 1).all()


def test_one_threshold_per_distinct_split():
    # the deciles of 1, 2, 3, 4 are 1.3, 1.6, ..., 3.7: the three below 2
    # split the column alike, as do the three in [2, 3) and the three in
    # [3, 4), so the smallest of each is kept, giving 6 features, not 18
    values = np.array([1.0, 2.0, 3.0, 4.0])
    metas = numeric_column_features(values, "a")
    assert len(metas) == 6
    assert [m.value for m in metas[::2]] == pytest.approx([1.3, 2.2, 3.1])
    cols = binarize_column(values, "a", metas)
    assert [c.tolist() for c in cols[::2]] == \
        [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0]]


def test_threshold_at_maximum_dropped():
    assert numeric_column_features(np.full(6, 5.0), "v") == []
    # two distinct values: thresholds dedupe and the one at vmax vanishes
    values = np.array([0.0, 0.0, 1.0, 1.0])
    metas = numeric_column_features(values, "v")
    assert metas, "at least one cut below the maximum"
    assert all(m.value < 1.0 for m in metas)
    for c in binarize_column(values, "v", metas):
        assert 0 < c.sum() < len(c), "no constant columns"


def test_categorical_pairs():
    values = np.array(list("abca"), dtype=object)
    metas = categorical_features(values, "c")
    assert [m.value for m in metas] == ["a", "a", "b", "b", "c", "c"]
    assert metas[0].kind == "categorical-eq"
    assert metas[1] == metas[0].complement()
    cols = binarize_column(values, "c", metas)
    np.testing.assert_array_equal(cols[0], [1, 0, 0, 1])
    np.testing.assert_array_equal(cols[1], [0, 1, 1, 0])
    assert categorical_features(np.array(["x", "x"], dtype=object), "c") == []


def test_ingest_round_trip(tmp_path):
    p = write_csv(tmp_path / "t.csv", """
        a,b,cls
        1,red,yes
        2,blue,no
        3,red,yes
        4,blue,no
    """.replace(" ", ""))
    ds = binarize_table(read_csv_table(p, "cls"))
    ds.validate()
    assert ds.positive_label == "yes" and ds.negative_label == "no"
    assert ds.n == 4
    np.testing.assert_array_equal(ds.y, [1, 0, 1, 0])
    # column a is numeric, b categorical
    kinds = {m.kind for m in ds.features}
    assert "numeric-leq" in kinds and "categorical-eq" in kinds


def test_positive_label_choice(tmp_path):
    p = write_csv(tmp_path / "t.csv", """
        a,cls
        1,x
        2,o
        3,x
    """.replace(" ", ""))
    assert read_csv_table(p, "cls").positive_label == "x"  # larger of o, x
    assert read_csv_table(p, "cls", positive_label="o").positive_label == "o"
    with pytest.raises(DatasetError):
        read_csv_table(p, "cls", positive_label="zzz")


def test_label_errors(tmp_path):
    three = write_csv(tmp_path / "three.csv", "a,cls\n1,x\n2,y\n3,z\n")
    with pytest.raises(DatasetError, match="exactly"):
        read_csv_table(three, "cls")
    with pytest.raises(DatasetError, match="not found"):
        read_csv_table(three, "nope")
    single = write_csv(tmp_path / "one.csv", "a,cls\n1,x\n2,x\n")
    with pytest.raises(DatasetError):
        read_csv_table(single, "cls")


def test_structural_errors(tmp_path):
    ragged = write_csv(tmp_path / "r.csv", "a,b,cls\n1,2,x\n1,y\n")
    with pytest.raises(DatasetError, match="row 3"):
        read_csv_table(ragged, "cls")
    # "row N" is the file line, counting the blank lines before it
    spaced = write_csv(tmp_path / "s.csv", "a,b,cls\n1,2,x\n\n\n1,y\n")
    with pytest.raises(DatasetError, match="row 5 has 2 cells"):
        read_csv_table(spaced, "cls")
    dup = write_csv(tmp_path / "d.csv", "a,a,cls\n1,2,x\n3,4,y\n")
    with pytest.raises(DatasetError, match="duplicate"):
        read_csv_table(dup, "cls")
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DatasetError, match="empty"):
        read_csv_table(empty, "cls")
    blank = tmp_path / "blank.csv"
    blank.write_text("\n\n")
    with pytest.raises(DatasetError, match="blank.csv: empty file$"):
        read_csv_table(blank, "cls")
    latin1 = tmp_path / "l.csv"
    latin1.write_bytes(b"a,cls\n1,x\n\xff,y\n")
    with pytest.raises(DatasetError, match="l.csv: not UTF-8 text$"):
        read_csv_table(latin1, "cls")
    with pytest.raises(DatasetError, match="policy"):
        read_csv_table(ragged, "cls", missing="zap")
    header_only = write_csv(tmp_path / "h.csv", "a,cls\n")
    with pytest.raises(DatasetError, match="h.csv: no data rows$"):
        read_csv_table(header_only, "cls")
    all_dropped = write_csv(tmp_path / "x.csv", "a,cls\n?,x\n1,\n")
    with pytest.raises(DatasetError, match="no rows left after dropping"):
        read_csv_table(all_dropped, "cls")


def test_header_is_the_first_non_blank_row(tmp_path):
    plain = write_csv(tmp_path / "p.csv", "a,cls\n1,x\n2,y\n")
    spaced = tmp_path / "s.csv"
    spaced.write_text("\n\r\n\na,cls\n1,x\n2,y\n")
    got, want = read_csv_table(spaced, "cls"), read_csv_table(plain, "cls")
    assert got.columns == want.columns == ["a"]
    assert got.values["a"].tolist() == want.values["a"].tolist()
    assert got.y.tolist() == want.y.tolist()
    # a row's number is still its file line
    ragged = tmp_path / "r.csv"
    ragged.write_text("\n\na,b,cls\n1,2,x\n1,y\n")
    with pytest.raises(DatasetError, match="row 5 has 2 cells"):
        read_csv_table(ragged, "cls")


def test_missing_policies(tmp_path):
    p = write_csv(tmp_path / "m.csv", """
        num,cat,cls
        1,red,yes
        2,?,no
        ?,blue,yes
        4,blue,no
        5,red,?
    """.replace(" ", ""))
    # drop: any missing cell kills the row (rows 2, 3, 5)
    t = read_csv_table(p, "cls", missing="drop")
    assert t.n == 2 and t.dropped_rows == 3
    # category: "?" becomes a category, but missing numerics and missing
    # labels still drop
    t2 = read_csv_table(p, "cls", missing="category")
    assert t2.n == 3 and t2.dropped_rows == 2
    assert "?" in t2.values["cat"]
    ds = binarize_table(t2)
    assert any(m.value == "?" for m in ds.features)


def test_type_inference(tmp_path):
    p = write_csv(tmp_path / "t.csv", """
        sci,mixed,gone,cls
        1.5e3,1,?,yes
        -2,2a,,no
        0.5,3,?,yes
    """.replace(" ", ""))
    # a column of only missing cells has no number in it: it is
    # categorical, and under missing="category" its rows stay
    t = read_csv_table(p, "cls", missing="category")
    assert t.kinds["sci"] == "numeric"
    assert t.kinds["mixed"] == "categorical"
    assert t.kinds["gone"] == "categorical" and t.n == 3
    assert list(t.values["gone"]) == ["?"] * 3


def test_a_numeric_label_column_keeps_its_strings(tmp_path):
    # labels that all parse as numbers, plain and padded with spaces, are
    # still read as stripped strings, so "1" names the positive class
    p = write_csv(tmp_path / "t.csv", "a,cls\nx,1\ny, 0\nx, 1 \ny,0\n")
    for positive in (None, "1"):
        t = read_csv_table(p, "cls", positive_label=positive)
        assert (t.positive_label, t.negative_label) == ("1", "0")
        assert t.y.tolist() == [1, 0, 1, 0]


def test_negation_involution():
    rng = np.random.default_rng(3)
    X = (rng.random((8, 3)) < 0.5).astype(np.uint8)
    y = np.array([1, 0, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
    ds = make_binary_dataset(X, y)
    ds.validate()
    neg = ds.negated()
    neg.validate()
    assert neg.positive_label == ds.negative_label
    assert (neg.X == 1 - ds.X).all() and (neg.y == 1 - ds.y).all()
    back = neg.negated()
    assert (back.X == ds.X).all() and (back.y == ds.y).all()
    assert back.features == ds.features
    assert back.positive_label == ds.positive_label


def test_validate_catches_broken_pairing():
    ds = make_binary_dataset(np.array([[1], [0]], dtype=np.uint8),
                             np.array([1, 0], dtype=np.uint8))
    ds.X[0, 1] = 1  # now column 1 is no longer the complement of column 0
    with pytest.raises(DatasetError, match="partition"):
        ds.validate()


def test_conditions_on_missing_cells():
    leq = FeatureMeta("v", "numeric-leq", 2.0)
    gt = FeatureMeta("v", "numeric-gt", 2.0)
    eq = FeatureMeta("c", "categorical-eq", "red")
    neq = FeatureMeta("c", "categorical-neq", "red")
    eq_missing = FeatureMeta("c", "categorical-eq", "?")
    neq_missing = FeatureMeta("c", "categorical-neq", "?")
    metas = [leq, gt, eq, neq, eq_missing, neq_missing]
    # a missing numeric cell is NaN and fails both threshold tests; a
    # missing categorical cell is the category "?"
    X = evaluate_conditions(
        {"v": np.array([math.nan, 1.5]),
         "c": np.array(["?", "red"], dtype=object)}, metas, 2)
    np.testing.assert_array_equal(X, [[0, 0, 0, 1, 1, 0],
                                      [1, 0, 1, 0, 0, 1]])
    # raw cells: "", "?" and " ? " are all missing, cells are stripped
    rows = [[cell, cell] for cell in ("", "?", " ? ")] + [["1.5", " red "]]
    columns = read_columns(["v", "c"], rows, metas)
    np.testing.assert_array_equal(
        evaluate_conditions(columns, metas, len(rows)),
        [[0, 0, 0, 1, 1, 0]] * 3 + [[1, 0, 1, 0, 0, 1]])
    # a numeric column the model reads whose cells are all missing is all
    # NaN: both threshold tests fail on every row, and nothing is raised
    rows = [["", "red"], ["?", "red"], [" ? ", "blue"]]
    columns = read_columns(["v", "c"], rows, metas)
    assert np.isnan(columns["v"]).all()
    np.testing.assert_array_equal(
        evaluate_conditions(columns, [leq, gt], len(rows)), [[0, 0]] * 3)
    for bad in ("nan", "inf", "oops"):
        with pytest.raises(ValueError, match="data row 2, column v"):
            read_columns(["v", "c"], [["1", "red"], [bad, "red"]], [leq])
    # only the columns the conditions read are parsed
    assert set(read_columns(["v", "c"], [["oops", "red"]], [eq])) == {"c"}


def test_each_category_is_compared_once_for_both_its_tests(tmp_path):
    # c = a is tested as = only, c != b as != only, c = d as both (!=
    # first), c = a is listed twice, and column e has a category "a" of
    # its own, so a comparison is shared only by the same column and
    # category
    metas = [FeatureMeta("c", "categorical-eq", "a"),
             FeatureMeta("c", "categorical-neq", "b"),
             FeatureMeta("c", "categorical-neq", "d"),
             FeatureMeta("e", "categorical-eq", "a"),
             FeatureMeta("c", "categorical-eq", "d"),
             FeatureMeta("c", "categorical-eq", "a"),
             FeatureMeta("c", "categorical-neq", "?")]
    p = write_csv(tmp_path / "t.csv", """
        c,e,cls
        a,a,no
        b,b,yes
        d,a,no
        ?,b,yes
        a,,yes
        ,d,no
    """.replace(" ", ""))
    table = read_csv_table(p, "cls", missing="category")
    rows = np.array([5, 0, 2, 4])
    header, raw = ["c", "e"], [line.split(",") for line in
                               ["a,a", "b,b", "d,a", "?,b", "a,", ",d"]]
    # binarize_table's and build_matrix's columns, then predict_rows'
    for columns in ({c: table.values[c][rows] for c in header},
                    read_columns(header, raw, metas)):
        n = len(columns["c"])
        want = [[holds(m.kind, m.value, columns[m.column][i]) for m in metas]
                for i in range(n)]
        np.testing.assert_array_equal(evaluate_conditions(columns, metas, n),
                                      np.array(want, dtype=np.uint8))


def test_read_columns_rejects_short_rows_and_absent_columns():
    eq = FeatureMeta("b", "categorical-eq", "x")
    with pytest.raises(ValueError, match="data row 2 has 1 cells"):
        read_columns(["a", "b"], [["1", "x"], ["2"]], [eq])
    with pytest.raises(ValueError, match="missing columns required by the "
                                         "model: b"):
        read_columns(["a"], [["1"]], [eq])


def test_per_fold_binarization_and_build_matrix(tmp_path):
    p = write_csv(tmp_path / "t.csv", """
        v,c,cls
        1,a,no
        2,b,no
        3,a,yes
        4,b,yes
        5,a,yes
        6,b,no
        7,a,yes
        8,c,no
    """.replace(" ", ""))
    table = read_csv_table(p, "cls")
    train = np.array([0, 1, 2, 3, 4, 5])
    test = np.array([6, 7])
    ds = binarize_table(table, rows=train, quantile_count=3)
    ds.validate()
    assert ds.n == 6
    # thresholds come from the training rows only
    assert all(m.value <= 6.0 for m in ds.features if m.kind == "numeric-leq")
    # category "c" appears only in the test rows, so no feature mentions it
    assert all(m.value != "c" for m in ds.features if m.column == "c")
    # the training rows evaluate to the binarized matrix itself
    np.testing.assert_array_equal(build_matrix(table, train, ds.features),
                                  ds.X)
    M = build_matrix(table, test, ds.features)
    assert M.shape == (2, ds.d)
    # row 6: v=7 exceeds every training threshold; row 7 categorical c
    # matches no equality on column c and every inequality
    for j, m in enumerate(ds.features):
        if m.kind == "numeric-leq":
            assert M[0, j] == 0
        if m.kind == "numeric-gt":
            assert M[0, j] == 1
        if m.column == "c" and m.kind == "categorical-eq":
            assert M[1, j] == 0
        if m.column == "c" and m.kind == "categorical-neq":
            assert M[1, j] == 1


def test_single_class_rejected(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,cls\n1,x\n2,x\n3,y\n")
    table = read_csv_table(p, "cls")
    with pytest.raises(DatasetError, match="both classes"):
        binarize_table(table, rows=np.array([0, 1]))


def test_an_empty_row_selection_is_rejected(tmp_path):
    # one error before any column work, for a table with numeric columns
    # and for a categorical-only one
    mixed = write_csv(tmp_path / "m.csv", "a,c,cls\n1,u,x\n2,v,y\n")
    plain = write_csv(tmp_path / "c.csv", "c,cls\nu,x\nv,y\n")
    for path in (mixed, plain):
        table = read_csv_table(path, "cls")
        with pytest.raises(DatasetError, match="^no rows selected"):
            binarize_table(table, rows=np.array([], dtype=int))


def test_constant_features_rejected(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,cls\n5,x\n5,y\n")
    with pytest.raises(DatasetError, match="usable"):
        binarize_table(read_csv_table(p, "cls"))


def test_pricing_nnz():
    X = np.array([[1, 0], [0, 0]], dtype=np.uint8)
    Xfull = np.hstack([X, 1 - X])
    ds = BinaryDataset(X=Xfull, y=np.array([1, 0], dtype=np.uint8))
    # zeros(5) + d(4) + n(2)
    assert ds.pricing_nnz() == 4 + 4 + 2


def test_tictactoe_generation(tmp_path):
    rows = tictactoe_rows()
    assert len(rows) == 958
    assert sum(1 for r in rows if r[-1] == "positive") == 626
    boards = {tuple(r[:9]): r[9] for r in rows}
    # a clean x win across the top, two o replies
    assert boards[("x", "x", "x", "o", "o", "b", "b", "b", "b")] == "positive"
    # the same line with a single o is unreachable: x would have won a move
    # earlier
    assert ("x", "x", "x", "o", "b", "b", "b", "b", "b") not in boards
    # o wins only when moves are balanced
    assert boards[("o", "o", "o", "x", "x", "b", "x", "b", "b")] == "negative"
    # a double x win is fine when both lines share the final stone
    assert boards[("x", "x", "x", "o", "x", "o", "x", "o", "o")] == "positive"
    p = write_tictactoe_csv(tmp_path / "ttt.csv")
    ds = binarize_table(read_csv_table(p, "class"))
    ds.validate()
    assert ds.n == 958
    assert ds.d == 9 * 3 * 2
    assert int(ds.y.sum()) == 626
