"""Command line entry points: train, predict, cv, and sweep.

Errors a user can cause (bad flags, malformed data, impossible splits) are
ValueErrors, raised by an option callback, the library or `predict`.  One
boundary, the group's `invoke`, turns any ValueError raised under a
subcommand into a one-line `error:` on stderr and exit code 2; anything else
is a bug and propagates with its traceback.
"""

from __future__ import annotations

import csv
import sys
import time
from pathlib import Path

import click
import numpy as np

from .colgen import ColGenConfig
from .cv import accuracy, cross_validate, fit_rows, mean_stderr, sweep_validate
from .dataset import DataRowError, read_csv_rows, read_csv_table
from .ruleset import RuleSet

METRICS_HEADER = ["dataset", "fold", "C", "test_acc", "train_acc",
                  "complexity", "z_train", "lower_bound", "seconds"]
SWEEP_HEADER = ["dataset", "C", "test_acc", "test_stderr", "train_acc",
                "complexity", "complexity_stderr", "pareto"]


class _UserErrors(click.Group):
    """The command line's one exit: a ValueError raised under a subcommand
    is a user error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


def _parse_grid(text: str, name: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of "
                         f"integers, got {text!r}")
    if not values:
        raise ValueError(f"{name} is empty")
    return values


def _at_least_one(ctx, param, value):
    if value < 1:
        raise ValueError(f"{param.opts[0]} must be at least 1")
    return value


def _dataset_tag(input_path) -> str:
    return Path(input_path).stem


def _sidecar(output: Path, suffix: str) -> Path:
    return output.parent / (output.stem + suffix)


def _write_trace(path, trace):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "master_value", "best_reduced_cost", "mode",
                    "added", "pool_size", "seconds", "pricing_seconds",
                    "pricing_explored", "pricing_proven", "master_seconds",
                    "master_pivots"])
        for t in trace:
            w.writerow([t.iteration, t.master_value, t.best_reduced_cost,
                        t.mode, t.added, t.pool_size, f"{t.seconds:.3f}",
                        f"{t.pricing_seconds:.3f}", t.pricing_explored,
                        int(t.pricing_proven), f"{t.master_seconds:.3f}",
                        t.master_pivots])


data_options = [
    click.option("--input", "input_path", required=True,
                 type=click.Path(exists=True, dir_okay=False),
                 help="Input CSV with a header row."),
    click.option("--label-column", required=True,
                 help="Name of the class column."),
    click.option("--positive-label", default=None,
                 help="Which label is the positive class "
                      "(default: the lexicographically larger one)."),
    click.option("--missing", type=click.Choice(["drop", "category"]),
                 default="drop", show_default=True,
                 help="Drop rows with missing cells, or treat a missing "
                      "categorical cell as its own category."),
    click.option("--quantiles", default=9, show_default=True,
                 callback=_at_least_one,
                 help="Candidate thresholds per numeric column."),
]

model_options = [
    click.option("--form", type=click.Choice(["dnf", "cnf"]), default="dnf",
                 show_default=True, help="Rule shape: OR of ANDs, or AND of "
                 "ORs learned on the negated problem."),
    click.option("--clause-bound", default=None, type=int,
                 help="Max conditions per clause (default: budget - 1)."),
    click.option("--seed", default=0, show_default=True,
                 help="Master random seed; folds use seed + fold index."),
]

fold_options = [
    click.option("--folds", default=10, show_default=True,
                 help="Cross-validation folds (cv: the outer ones)."),
    click.option("--jobs", default=1, show_default=True,
                 callback=_at_least_one,
                 help="Parallel fold workers; 1 is the reproducible mode, "
                      "and cv then writes 0.0 in the seconds column."),
    click.option("--time-limit", default=120.0, show_default=True,
                 help="Wall-clock budget per training run, seconds."),
    click.option("--pricing-time-limit", default=30.0, show_default=True,
                 help="Budget per exact pricing round, seconds."),
]


def add_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@click.group(cls=_UserErrors)
def main():
    """Learn small Boolean classification rules with provable quality."""


@main.command()
@add_options(data_options)
@add_options(model_options)
@click.option("--complexity-bound", "-C", required=True, type=int,
              help="Total complexity budget (clauses + conditions).")
@click.option("--time-limit", default=300.0, show_default=True,
              help="Wall-clock budget for the whole run, seconds.")
@click.option("--pricing-time-limit", default=45.0, show_default=True,
              help="Budget per exact pricing round, seconds.")
@click.option("--output", default="model.json", show_default=True,
              type=click.Path(dir_okay=False, writable=True),
              help="Model file; a trace CSV and rules text go next to it.")
def train(input_path, label_column, positive_label, missing, quantiles,
          form, clause_bound, seed, complexity_bound, time_limit,
          pricing_time_limit, output):
    """Fit one rule set on the whole file and write the model."""
    table = read_csv_table(input_path, label_column, positive_label, missing)
    cfg = ColGenConfig(complexity_bound, clause_bound, time_limit,
                       pricing_time_limit, seed)
    t0 = time.perf_counter()
    rs, res, train_ds = fit_rows(table, np.arange(table.n), form, cfg,
                                 quantiles)
    seconds = time.perf_counter() - t0

    out = Path(output)
    out.write_text(rs.to_json())
    _write_trace(_sidecar(out, ".trace.csv"), res.trace)
    rules_path = _sidecar(out, ".rules.txt")
    rules_path.write_text(rs.render() + "\n")

    acc = accuracy(rs, train_ds)
    click.echo(f"trained on {table.n} rows ({len(train_ds.features)} binary "
               f"features) in {seconds:.1f}s [{res.regime} instance]")
    click.echo(f"training accuracy {acc:.4f}, complexity {rs.complexity}, "
               f"{len(rs.clauses)} clauses")
    bound_note = "certified optimal" if res.optimal else "bound gap remains"
    lb_text = "none" if res.lower_bound is None else str(res.lower_bound)
    click.echo(f"training objective {res.objective}, lower bound "
               f"{lb_text} ({bound_note})")
    click.echo(rs.render())
    click.echo(f"model: {out}  trace: {_sidecar(out, '.trace.csv')}  "
               f"rules: {rules_path}")


@main.command()
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV of samples to classify; extra columns are ignored.")
@click.option("--output", default=None, type=click.Path(dir_okay=False),
              help="Write one predicted label per line here "
                   "(default: stdout).")
def predict(model, input_path, output):
    """Apply a trained model to new rows using its stored conditions."""
    try:
        rs = RuleSet.from_json(Path(model).read_text())
    except ValueError as exc:
        raise ValueError(f"cannot load model {model}: {exc}")

    header, rows, lines = read_csv_rows(input_path)
    try:
        labels = rs.predict_rows(header, rows) if header else []
    except DataRowError as exc:  # named by its line in the file
        raise ValueError(f"{input_path}: row {lines[exc.index]}{exc.detail}")
    except ValueError as exc:
        raise ValueError(f"{exc} (input columns: {', '.join(header)})")

    text = "".join(label + "\n" for label in labels)
    if output is None:
        click.echo(text, nl=False)
    else:
        Path(output).write_text(text)
        click.echo(f"wrote {len(labels)} predictions to {output}")


def _write_metrics(path, tag, outcomes, zero_seconds):
    """Per-fold rows under the fixed header, then mean and stderr rows."""
    def fmt_seconds(s):
        return "0.0" if zero_seconds else f"{s:.3f}"

    rows = [[tag, o.fold, o.budget, repr(o.test_accuracy),
             repr(o.train_accuracy), o.complexity, o.z_train,
             "" if o.lower_bound is None else o.lower_bound,
             fmt_seconds(o.seconds)] for o in outcomes]
    bounds = [o.lower_bound for o in outcomes if o.lower_bound is not None]
    agg = {}
    for name, values in [
            ("C", [o.budget for o in outcomes]),
            ("test_acc", [o.test_accuracy for o in outcomes]),
            ("train_acc", [o.train_accuracy for o in outcomes]),
            ("complexity", [o.complexity for o in outcomes]),
            ("z_train", [o.z_train for o in outcomes]),
            ("lower_bound", bounds)]:
        agg[name] = mean_stderr(values) if values else (None, None)
    for stat, pick in (("mean", 0), ("stderr", 1)):
        rows.append([tag, stat]
                    + ["" if agg[c][pick] is None else repr(agg[c][pick])
                       for c in ("C", "test_acc", "train_acc", "complexity",
                                 "z_train", "lower_bound")]
                    + ["0.0"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_HEADER)
        w.writerows(rows)
    return agg


@main.command()
@add_options(data_options)
@add_options(model_options)
@click.option("--c-grid", required=True,
              help="Comma-separated candidate budgets for nested selection.")
@add_options(fold_options)
@click.option("--inner-folds", default=5, show_default=True,
              help="Inner folds for budget selection.")
@click.option("--metrics", default="metrics.csv", show_default=True,
              type=click.Path(dir_okay=False, writable=True),
              help="Where to write the per-fold metrics CSV.")
def cv(input_path, label_column, positive_label, missing, quantiles, form,
       clause_bound, seed, c_grid, folds, jobs, time_limit,
       pricing_time_limit, inner_folds, metrics):
    """Stratified cross-validation with nested budget selection."""
    grid = _parse_grid(c_grid, "--c-grid")
    table = read_csv_table(input_path, label_column, positive_label, missing)
    proto = ColGenConfig(max(grid), clause_bound, time_limit,
                         pricing_time_limit, seed)
    outcomes = cross_validate(table, grid, form=form, folds=folds, jobs=jobs,
                              quantile_count=quantiles,
                              inner_folds=inner_folds, proto=proto)

    tag = _dataset_tag(input_path)
    agg = _write_metrics(metrics, tag, outcomes, zero_seconds=(jobs <= 1))
    acc_mean, acc_se = agg["test_acc"]
    comp_mean, comp_se = agg["complexity"]
    click.echo(f"{folds}-fold cv on {tag}: test accuracy "
               f"{100 * acc_mean:.1f}% (stderr {100 * acc_se:.1f}), "
               f"complexity {comp_mean:.1f} (stderr {comp_se:.1f})")
    click.echo(f"metrics: {metrics}")


@main.command()
@add_options(data_options)
@add_options(model_options)
@click.option("--c-grid", required=True,
              help="Comma-separated budgets, strictly increasing.")
@add_options(fold_options)
@click.option("--metrics", default="sweep.csv", show_default=True,
              type=click.Path(dir_okay=False, writable=True),
              help="Where to write the per-budget results CSV.")
def sweep(input_path, label_column, positive_label, missing, quantiles, form,
          clause_bound, seed, c_grid, folds, jobs, time_limit,
          pricing_time_limit, metrics):
    """Trade accuracy against complexity across a list of budgets."""
    grid = _parse_grid(c_grid, "--c-grid")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("--c-grid must be strictly increasing")
    table = read_csv_table(input_path, label_column, positive_label, missing)
    proto = ColGenConfig(max(grid), clause_bound, time_limit,
                         pricing_time_limit, seed)
    points = sweep_validate(table, grid, form=form, folds=folds, jobs=jobs,
                            quantile_count=quantiles, proto=proto)

    tag = _dataset_tag(input_path)
    with open(metrics, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SWEEP_HEADER)
        for p in points:
            w.writerow([tag, p.budget, repr(p.test_accuracy),
                        repr(p.test_stderr), repr(p.train_accuracy),
                        repr(p.complexity), repr(p.complexity_stderr),
                        int(p.pareto)])
    for p in points:
        star = " *" if p.pareto else ""
        click.echo(f"C={p.budget:>4}  test {100 * p.test_accuracy:5.1f}% "
                   f"(stderr {100 * p.test_stderr:.1f})  complexity "
                   f"{p.complexity:.1f}{star}")
    click.echo(f"(* = efficient point)  table: {metrics}")


if __name__ == "__main__":
    main()
