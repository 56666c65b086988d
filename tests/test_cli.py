"""The command line surface: artifacts, exit codes, and reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import boolrules
from boolrules import cli
from boolrules.cli import METRICS_HEADER, SWEEP_HEADER, main
from boolrules.dataset import (FeatureMeta, binarize_table, read_csv_rows,
                               read_csv_table)
from boolrules.ruleset import RuleSet, predict


@pytest.fixture()
def runner():
    return CliRunner()


def write_color_csv(path, n_pos=24, n_neg=16):
    rng = np.random.default_rng(1)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["color", "size", "label"])
        for i in range(n_pos + n_neg):
            color = "red" if i < n_pos else "blue"
            w.writerow([color, f"{rng.random() * 10:.3f}",
                        "pos" if i < n_pos else "neg"])
    return path


def test_train_writes_model_trace_and_rules(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    model = tmp_path / "out" / "model.json"
    model.parent.mkdir()
    r = runner.invoke(main, ["train", "--input", str(data), "--label-column",
                             "label", "-C", "4", "--output", str(model)])
    assert r.exit_code == 0, r.output
    assert "training accuracy 1.0000" in r.output
    assert "certified optimal" in r.output

    rs = RuleSet.from_json(model.read_text())
    assert rs.form == "dnf"
    assert rs.training["objective"] == 0
    assert rs.training["lower_bound"] <= rs.training["objective"]
    assert rs.training["selection_nodes"] >= 1

    trace = list(csv.reader(open(model.parent / "model.trace.csv")))
    assert trace[0] == ["iteration", "master_value", "best_reduced_cost",
                       "mode", "added", "pool_size", "seconds",
                       "pricing_seconds", "pricing_explored",
                       "pricing_proven", "master_seconds", "master_pivots"]
    assert len(trace) > 1
    last = dict(zip(trace[0], trace[-1]))
    # the run is certified optimal, so its last pricing call proved it
    assert last["pricing_proven"] == "1" and int(last["pricing_explored"]) > 0
    assert all(int(row[-1]) >= 0 for row in trace[1:])
    assert float(last["master_seconds"]) <= float(last["seconds"])

    rules = (model.parent / "model.rules.txt").read_text()
    assert "THEN pos" in rules and "ELSE neg" in rules


def test_train_cnf_form(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    model = tmp_path / "model.json"
    r = runner.invoke(main, ["train", "--input", str(data), "--label-column",
                             "label", "-C", "4", "--form", "cnf",
                             "--output", str(model)])
    assert r.exit_code == 0, r.output
    rs = RuleSet.from_json(model.read_text())
    assert rs.form == "cnf"
    assert "training accuracy 1.0000" in r.output


def test_train_error_exits_two_with_one_line(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    r = runner.invoke(main, ["train", "--input", str(data), "--label-column",
                             "wrong", "-C", "4"])
    assert r.exit_code == 2
    assert "error:" in r.output and "'wrong'" in r.output

    r = runner.invoke(main, ["train", "--input", str(data), "--label-column",
                             "label", "-C", "1"])
    assert r.exit_code == 2
    assert "complexity_bound" in r.output


def test_only_a_value_error_is_a_user_error(tmp_path, runner, monkeypatch):
    # a ValueError raised under a command exits 2 with one line; anything
    # else is a bug and leaves with its traceback
    data = write_color_csv(tmp_path / "toy.csv")
    for error in (RuntimeError("bug"), ValueError("x")):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "fit_rows", fail)
        monkeypatch.setattr(cli, "cross_validate", fail)
        for cmd in (["train", "-C", "4", "--output", str(tmp_path / "m")],
                    ["cv", "--c-grid", "4", "--metrics", str(tmp_path / "m")]):
            r = runner.invoke(main, [*cmd, "--input", str(data),
                                     "--label-column", "label"])
            if isinstance(error, ValueError):
                assert (r.exit_code, r.output) == (2, "error: x\n"), cmd
            else:
                assert r.exit_code == 1 and r.exception is error, cmd


@pytest.mark.parametrize("cmd, work", [
    (["train", "-C", "4", "--output"], "fit_rows"),
    (["cv", "--c-grid", "4", "--metrics"], "cross_validate"),
    (["sweep", "--c-grid", "4", "--metrics"], "sweep_validate"),
    (["predict", "MODEL", "--output"], "read_csv_rows"),
], ids=["train", "cv", "sweep", "predict"])
def test_output_in_a_missing_directory_exits_two_before_any_work(
        tmp_path, runner, monkeypatch, cmd, work):
    # the output option's own check ends the command: neither the input
    # reader nor the command's work runs
    data = write_color_csv(tmp_path / "toy.csv")
    model = tmp_path / "model.json"
    model.write_text("{}")

    def unreachable(*args, **kwargs):
        raise AssertionError("the command started its work")

    for name in ("read_csv_table", work):
        monkeypatch.setattr(cli, name, unreachable)
    missing = tmp_path / "no" / "such"
    args = [str(model) if a == "MODEL" else a for a in cmd]
    extra = [] if cmd[0] == "predict" else ["--label-column", "label"]
    r = runner.invoke(main, [*args, str(missing / "out.txt"), "--input",
                             str(data), *extra])
    flag = cmd[-1]
    assert (r.exit_code, r.output) == (
        2, f"error: {flag}: {missing} is not a writable directory\n")


def test_predict_round_trip(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    model = tmp_path / "model.json"
    r = runner.invoke(main, ["train", "--input", str(data), "--label-column",
                             "label", "-C", "4", "--output", str(model)])
    assert r.exit_code == 0, r.output

    r = runner.invoke(main, ["predict", str(model), "--input", str(data)])
    assert r.exit_code == 0, r.output
    got = r.output.splitlines()
    want = [row[2] for row in list(csv.reader(open(data)))[1:]]
    assert got == want

    out = tmp_path / "preds.txt"
    r = runner.invoke(main, ["predict", str(model), "--input", str(data),
                             "--output", str(out)])
    assert r.exit_code == 0
    assert out.read_text().splitlines() == want


def test_predict_missing_column_names_it(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    model = tmp_path / "model.json"
    runner.invoke(main, ["train", "--input", str(data), "--label-column",
                         "label", "-C", "4", "--output", str(model)])
    other = tmp_path / "other.csv"
    with open(other, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["hue", "size"])
        w.writerow(["red", "3.2"])
    r = runner.invoke(main, ["predict", str(model), "--input", str(other)])
    assert r.exit_code == 2
    assert "color" in r.output
    assert "input columns: hue, size" in r.output


def test_predict_empty_input(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    model = tmp_path / "model.json"
    runner.invoke(main, ["train", "--input", str(data), "--label-column",
                         "label", "-C", "4", "--output", str(model)])

    header_only = tmp_path / "empty.csv"
    header_only.write_text("color,size\n")
    r = runner.invoke(main, ["predict", str(model), "--input",
                             str(header_only)])
    assert r.exit_code == 0
    assert r.output == ""

    nothing = tmp_path / "nothing.csv"
    nothing.write_text("")
    r = runner.invoke(main, ["predict", str(model), "--input", str(nothing)])
    assert r.exit_code == 0
    assert r.output == ""

    # a header without the model's columns is an error, rows or not
    elsewhere = tmp_path / "elsewhere.csv"
    elsewhere.write_text("x,y\n")
    r = runner.invoke(main, ["predict", str(model), "--input",
                             str(elsewhere)])
    assert r.exit_code == 2
    assert r.output == ("error: input is missing columns required by the "
                        "model: color (input columns: x, y)\n")


def test_non_utf8_input_exits_two_with_one_line(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    model = tmp_path / "model.json"
    runner.invoke(main, ["train", "--input", str(data), "--label-column",
                         "label", "-C", "4", "--output", str(model)])
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a\n\xff\n")
    for args in (["train", "--input", str(bad), "--label-column", "a",
                  "-C", "4", "--output", str(tmp_path / "out.json")],
                 ["cv", "--input", str(bad), "--label-column", "a",
                  "--c-grid", "4", "--metrics", str(tmp_path / "m.csv")],
                 ["predict", str(model), "--input", str(bad)]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, args
        assert r.output == f"error: {bad}: not UTF-8 text\n"


def test_blank_lines_before_the_header_are_skipped(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n\n" + data.read_text())
    models = []
    for src in (data, spaced):
        model = tmp_path / f"{src.stem}.json"
        r = runner.invoke(main, ["train", "--input", str(src),
                                 "--label-column", "label", "-C", "4",
                                 "--output", str(model)])
        assert r.exit_code == 0, r.output
        models.append(model.read_text())
    assert models[0] == models[1]
    r = runner.invoke(main, ["predict", str(model), "--input", str(spaced)])
    assert r.exit_code == 0, r.output
    assert r.output.splitlines() == [
        row[2] for row in list(csv.reader(open(data)))[1:]]


def test_predict_reads_missing_cells_as_training_did(tmp_path, runner):
    # the label is positive exactly where color is missing ("" or "?"), so
    # the only loss-free one-condition rule is `color = ?`
    data = tmp_path / "holes.csv"
    data.write_text("color,size,label\n?,1,pos\n,2,pos\nred,3,neg\n"
                    "blue,4,neg\n?,5,pos\nred,6,neg\n")
    model = tmp_path / "model.json"
    r = runner.invoke(main, ["train", "--input", str(data), "--label-column",
                             "label", "--missing", "category", "-C", "2",
                             "--output", str(model)])
    assert r.exit_code == 0, r.output
    rs = RuleSet.from_json(model.read_text())
    train_ds = binarize_table(read_csv_table(data, "label",
                                             missing="category"))
    want = [rs.positive_label if hit else rs.negative_label
            for hit in predict(rs, train_ds)]
    assert want == ["pos", "pos", "neg", "neg", "pos", "neg"]
    r = runner.invoke(main, ["predict", str(model), "--input", str(data)])
    assert r.exit_code == 0, r.output
    assert r.output.splitlines() == want


def test_predict_short_row_exits_two_naming_it(tmp_path, runner):
    model = tmp_path / "model.json"
    model.write_text(RuleSet(
        "dnf", ((FeatureMeta("b", "categorical-eq", "x"),),),
        "yes", "no").to_json())
    data = tmp_path / "short.csv"
    data.write_text("a,b\n1,x\n2\n")
    r = runner.invoke(main, ["predict", str(model), "--input", str(data)])
    assert r.exit_code == 2
    # the short row is the second data row, on line 3 of the file
    assert r.output.splitlines() == [
        f"error: {data}: row 3 has 1 cells, fewer than the header's 2"]


def test_predict_errors_name_file_lines_past_blank_lines(tmp_path, runner):
    model = tmp_path / "model.json"
    model.write_text(RuleSet(
        "dnf", ((FeatureMeta("a", "numeric-leq", 2.0),),),
        "yes", "no").to_json())
    data = tmp_path / "blank.csv"
    # "bad" is in the second data row, but on line 5 of the file
    data.write_text("a,cls\n1,x\n\n\nbad,o\n")
    r = runner.invoke(main, ["predict", str(model), "--input", str(data)])
    assert r.exit_code == 2
    assert r.output.splitlines() == [
        f"error: {data}: row 5, column a: 'bad' is not a finite number"]
    # blank lines before the header count too
    data.write_text("\n\na,cls\n1,x\n\n2\n")
    r = runner.invoke(main, ["predict", str(model), "--input", str(data)])
    assert r.exit_code == 2
    assert r.output.splitlines() == [
        f"error: {data}: row 6 has 1 cells, fewer than the header's 2"]


def test_train_and_predict_read_a_file_alike(tmp_path, runner):
    # blank lines before the header and between rows, and a quoted cell
    # over lines 4-5: a row is named by the line it ends on
    data = tmp_path / "odd.csv"
    data.write_text('\n\n a ,b,cls\n1,"two\nlines",x\n\n2,y,o\n')
    assert read_csv_rows(data) == (
        ["a", "b", "cls"], [["1", "two\nlines", "x"], ["2", "y", "o"]], [5, 7])
    # a short row after another blank line: both commands name line 9
    with open(data, "a") as fh:
        fh.write("\n3,z\n")
    r = runner.invoke(main, ["train", "--input", str(data), "--label-column",
                             "cls", "-C", "4"])
    assert r.exit_code == 2
    assert r.output.splitlines() == [
        f"error: {data}: row 9 has 2 cells, expected 3"]
    model = tmp_path / "model.json"
    model.write_text(RuleSet(
        "dnf", ((FeatureMeta("b", "categorical-eq", "y"),),),
        "yes", "no").to_json())
    r = runner.invoke(main, ["predict", str(model), "--input", str(data)])
    assert r.exit_code == 2
    assert r.output.splitlines() == [
        f"error: {data}: row 9 has 2 cells, fewer than the header's 3"]


def test_nan_time_limits_exit_two_with_one_line(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    for flag in ("--time-limit", "--pricing-time-limit"):
        r = runner.invoke(main, ["train", "--input", str(data),
                                 "--label-column", "label", "-C", "4",
                                 "--output", str(tmp_path / "m.json"),
                                 flag, "nan"])
        assert r.exit_code == 2
        assert r.output.splitlines() == ["error: time limits must be positive"]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_quantiles_below_one_exit_two_with_one_line(tmp_path, runner, value):
    # no numeric column, so no threshold is ever cut to catch the value
    data = tmp_path / "colors.csv"
    data.write_text("color,label\n" + "red,pos\nblue,neg\n" * 10)
    out = tmp_path / "out"
    for cmd in (["train", "-C", "4", "--output", str(out)],
                ["cv", "--c-grid", "4", "--folds", "2", "--metrics", str(out)],
                ["sweep", "--c-grid", "2,4", "--folds", "2",
                 "--metrics", str(out)]):
        r = runner.invoke(main, [*cmd, "--input", str(data), "--label-column",
                                 "label", "--quantiles", value])
        assert r.exit_code == 2, cmd
        assert r.output == "error: --quantiles must be at least 1\n", cmd
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_jobs_below_one_exit_two_with_one_line(tmp_path, runner, value):
    data = write_color_csv(tmp_path / "toy.csv")
    for cmd in (["cv", "--c-grid", "4"], ["sweep", "--c-grid", "2,4"]):
        r = runner.invoke(main, [*cmd, "--input", str(data), "--label-column",
                                 "label", "--folds", "2", "--jobs", value,
                                 "--metrics", str(tmp_path / "out.csv")])
        assert r.exit_code == 2, cmd
        assert r.output == "error: --jobs must be at least 1\n", cmd
    assert not (tmp_path / "out.csv").exists()


def test_bad_model_file_exits_two(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 99}))
    r = runner.invoke(main, ["predict", str(bad), "--input", str(data)])
    assert r.exit_code == 2
    assert "format_version" in r.output


def model_doc():
    return json.loads(RuleSet(
        "dnf", ((FeatureMeta("size", "numeric-leq", 5.0),
                 FeatureMeta("color", "categorical-eq", "red")),),
        "pos", "neg").to_json())


def drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def set_condition(at=0, **fields):
    def edit(doc):
        doc["clauses"][0][at].update(fields)
    return edit


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda doc: [doc], "one JSON object", id="not-an-object"),
    pytest.param(drop("clauses"), "no clauses", id="no-clauses"),
    pytest.param(drop("form"), "no form", id="no-form"),
    pytest.param(drop("label_map", "positive"), "no label_map.positive",
                 id="no-positive-label"),
    pytest.param(drop("label_map", "negative"), "no label_map.negative",
                 id="no-negative-label"),
    pytest.param(lambda doc: doc.update(clauses={}), "clauses is not a list",
                 id="clauses-not-a-list"),
    pytest.param(lambda doc: doc["label_map"].update(negative=0),
                 "label_map.negative is not a str", id="numeric-label"),
    pytest.param(lambda doc: doc["clauses"].append([]), "clause 2 ",
                 id="empty-clause"),
    pytest.param(drop("clauses", 0, 1, "column"), "clause 1, condition 2 ",
                 id="no-column"),
    pytest.param(drop("clauses", 0, 0, "kind"), "clause 1, condition 1 ",
                 id="no-kind"),
    pytest.param(drop("clauses", 0, 0, "value"), "clause 1, condition 1 ",
                 id="no-value"),
    pytest.param(set_condition(kind="numeric-lt"), "unknown kind",
                 id="unknown-kind"),
    pytest.param(set_condition(value="5"), "numeric-leq value '5'",
                 id="string-threshold"),
    pytest.param(set_condition(value=True), "numeric-leq value True",
                 id="bool-threshold"),
    pytest.param(set_condition(value=float("nan")), "numeric-leq value nan",
                 id="nan-threshold"),
    pytest.param(set_condition(value=float("inf")), "numeric-leq value inf",
                 id="inf-threshold"),
    pytest.param(set_condition(at=1, value=3), "categorical-eq value 3",
                 id="numeric-category"),
    pytest.param(lambda doc: doc.update(training=[1, 2]),
                 "training is not a dict", id="training-not-an-object"),
])
def test_malformed_model_exits_two_naming_the_fault(tmp_path, runner, edit,
                                                    named):
    doc = model_doc()
    doc = edit(doc) or doc
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = write_color_csv(tmp_path / "toy.csv")
    r = runner.invoke(main, ["predict", str(model), "--input", str(data)])
    assert r.exit_code == 2
    lines = r.output.splitlines()
    assert len(lines) == 1, r.output
    assert lines[0].startswith(f"error: cannot load model {model}: ")
    assert named in lines[0]


def test_predict_rejects_a_repeated_column_the_model_reads(tmp_path, runner):
    model = tmp_path / "model.json"
    model.write_text(RuleSet(
        "dnf", ((FeatureMeta("b", "categorical-eq", "x"),),),
        "yes", "no").to_json())
    data = tmp_path / "twice.csv"
    data.write_text("a,b,b\n1,y,x\n")
    r = runner.invoke(main, ["predict", str(model), "--input", str(data)])
    assert r.exit_code == 2
    assert r.output.startswith(
        "error: input repeats columns the model reads: b (")
    # a repeated column the model ignores is read as before
    data.write_text("a,a,b\n1,2,x\n3,4,y\n")
    r = runner.invoke(main, ["predict", str(model), "--input", str(data)])
    assert r.exit_code == 0, r.output
    assert r.output.splitlines() == ["yes", "no"]


def test_cv_metrics_file_is_reproducible(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    for path in (m1, m2):
        r = runner.invoke(main, ["cv", "--input", str(data), "--label-column",
                                 "label", "--c-grid", "2,4", "--folds", "5",
                                 "--seed", "11", "--jobs", "1",
                                 "--metrics", str(path)])
        assert r.exit_code == 0, r.output
    assert m1.read_bytes() == m2.read_bytes()

    rows = list(csv.reader(open(m1)))
    assert rows[0] == METRICS_HEADER
    body, tail = rows[1:6], rows[6:]
    assert [row[1] for row in body] == ["0", "1", "2", "3", "4"]
    for row in body:
        assert 0.0 <= float(row[3]) <= 1.0
        assert int(float(row[7])) <= int(float(row[6]))  # bound <= objective
        assert row[8] == "0.0"  # reproducible mode blanks the timing
    assert [row[1] for row in tail] == ["mean", "stderr"]


def test_cv_parallel_matches_sequential_content(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    for path, jobs in ((seq, "1"), (par, "2")):
        r = runner.invoke(main, ["cv", "--input", str(data), "--label-column",
                                 "label", "--c-grid", "4", "--folds", "5",
                                 "--seed", "3", "--jobs", jobs,
                                 "--metrics", str(path)])
        assert r.exit_code == 0, r.output
    a = [row[:8] for row in csv.reader(open(seq))]
    b = [row[:8] for row in csv.reader(open(par))]
    assert a == b


def test_cv_argument_errors(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    r = runner.invoke(main, ["cv", "--input", str(data), "--label-column",
                             "label", "--c-grid", "4", "--folds", "1"])
    assert r.exit_code == 2 and "folds" in r.output

    # a grid to choose from needs at least two inner folds to choose by
    for inner in ("1", "0"):
        r = runner.invoke(main, ["cv", "--input", str(data), "--label-column",
                                 "label", "--c-grid", "2,4", "--folds", "5",
                                 "--inner-folds", inner])
        assert r.exit_code == 2
        assert r.output == "error: inner folds must be at least 2\n"

    r = runner.invoke(main, ["cv", "--input", str(data),
                             "--label-column", "label"])
    assert r.exit_code == 2 and "--c-grid" in r.output

    r = runner.invoke(main, ["cv", "--input", str(data), "--label-column",
                             "label", "--c-grid", "4,x"])
    assert r.exit_code == 2 and "integers" in r.output

    small = write_color_csv(tmp_path / "small.csv", n_pos=3, n_neg=20)
    r = runner.invoke(main, ["cv", "--input", str(small), "--label-column",
                             "label", "--c-grid", "4", "--folds", "5"])
    assert r.exit_code == 2 and "fewer than" in r.output


def test_sweep_writes_table_and_marks_efficiency(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    out = tmp_path / "sweep.csv"
    r = runner.invoke(main, ["sweep", "--input", str(data), "--label-column",
                             "label", "--c-grid", "2,4", "--folds", "5",
                             "--metrics", str(out)])
    assert r.exit_code == 0, r.output
    rows = list(csv.reader(open(out)))
    assert rows[0] == SWEEP_HEADER
    assert [row[1] for row in rows[1:]] == ["2", "4"]
    assert all(row[7] in ("0", "1") for row in rows[1:])
    assert "efficient point" in r.output


def test_sweep_table_is_reproducible(tmp_path, runner):
    # noisy labels over three numeric columns leave the larger budgets'
    # selections something to choose between
    rng = np.random.default_rng(5)
    data = tmp_path / "noisy.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "c", "label"])
        for a, b, c in rng.random((60, 3)):
            hit = (a > 0.5 and b > 0.3) or c > 0.8
            w.writerow([f"{a:.3f}", f"{b:.3f}", f"{c:.3f}",
                        "pos" if hit != (rng.random() < 0.15) else "neg"])
    tables = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for path in tables:
        r = runner.invoke(main, ["sweep", "--input", str(data),
                                 "--label-column", "label", "--c-grid",
                                 "3,5,8", "--clause-bound", "2", "--folds",
                                 "3", "--seed", "4", "--jobs", "1",
                                 "--metrics", str(path)])
        assert r.exit_code == 0, r.output
    first, second = (p.read_bytes() for p in tables)
    assert first == second
    assert [row[1] for row in csv.reader(open(tables[0]))][1:] == [
        "3", "5", "8"]


def test_sweep_rejects_unordered_grid(tmp_path, runner):
    data = write_color_csv(tmp_path / "toy.csv")
    r = runner.invoke(main, ["sweep", "--input", str(data), "--label-column",
                             "label", "--c-grid", "4,2"])
    assert r.exit_code == 2
    assert "strictly increasing" in r.output


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env_after_import(**preset):
    """The BLAS thread variables as a fresh interpreter sees them after
    `import boolrules`, starting from an environment without them plus
    `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = str(Path(boolrules.__file__).parents[1])
    code = ("import os, boolrules; "
            f"print(*(os.environ.get(v) for v in {BLAS_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(BLAS_VARS, out.split()))


def test_import_pins_one_blas_thread_unless_set():
    assert blas_env_after_import() == dict.fromkeys(BLAS_VARS, "1")
    got = blas_env_after_import(OPENBLAS_NUM_THREADS="2")
    assert got == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def test_scoring_loads_no_lp_solver_or_process_pool():
    # scipy.optimize, the home of HiGHS, loads on the first LP solve and the
    # process pool on the first parallel run, so importing the package and
    # scoring rows pays for neither
    env = dict(os.environ, PYTHONPATH=str(Path(boolrules.__file__).parents[1]))
    code = (
        "import sys\n"
        "import boolrules, boolrules.cv, boolrules.colgen\n"
        "from boolrules.dataset import FeatureMeta\n"
        "from boolrules.ruleset import RuleSet\n"
        "rs = RuleSet('dnf', ((FeatureMeta('b', 'categorical-eq', 'x'),),),"
        " 'yes', 'no')\n"
        "print(*rs.predict_rows(['a', 'b'], [['1', 'x'], ['2', 'y']]))\n"
        "print(*(m in sys.modules for m in"
        " ('scipy.optimize', 'concurrent.futures.process')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["yes no", "False False"]
