"""The three workloads: inputs, timed ops, correctness checks and probes.

A workload's `setup` writes its inputs under the work directory from the
seed alone.  Each pass runs the ops in order; only op time counts towards
`ops_ref`.  Checks run after the ops and never inside the timed region.
Every library call goes through a module attribute looked up at call time,
so the tracer's wrappers see it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

import data


@dataclass
class Fit:
    """One trained model with everything its checks and records need."""

    label: str
    budget: int
    clause_bound: int
    time_limit: float
    csv_path: str
    rs: object
    res: object
    train_ds: object
    planted_loss: int | None = None

    def limit_hit(self) -> bool:
        """Cut short by any time limit: the loop's own deadline, or an
        integer stage that stopped before proving its selection."""
        res = self.res
        return (res.seconds >= self.time_limit or not res.mip_optimal
                or any(t.mode == "time-up" for t in res.trace))

    def record(self) -> dict:
        res = self.res
        return {
            "fit": self.label, "C": self.budget, "D": self.clause_bound,
            "objective": int(res.objective),
            "lower_bound": res.lower_bound,
            "z_rmlp": float(res.z_rmlp),
            "optimal": bool(res.optimal),
            "rmlp_converged": bool(res.rmlp_converged),
            "mip_optimal": bool(res.mip_optimal),
            "rounds": int(res.iterations),
            "pool_size": int(res.pool_size),
            "regime": res.regime,
            "pricing_nnz": int(self.train_ds.pricing_nnz()),
            "seconds": float(res.seconds),
            "time_limit": self.time_limit,
            "limit_hit": self.limit_hit(),
            "planted_loss": self.planted_loss,
        }


@dataclass
class Op:
    """A timed op.  Training ops return fits, which the runner checks with
    `check_fit`; the predict and ingest ops carry their own check and count
    the raw rows they handled for the throughput metrics."""

    name: str
    run: object  # () -> output
    fits: object = None  # (output) -> list[Fit]
    check: object = None  # (output) -> list of failure messages
    rows: object = None  # (output) -> raw CSV rows handled
    kind: str | None = None  # "predict" or "ingest" for throughput


@dataclass
class State:
    """What set-up leaves for the passes."""

    ops: list
    fits: list = field(default_factory=list)  # fits made during set-up
    # (csv path, label column, reference RuleSet) for the throughput probes
    probes: list = field(default_factory=list)


def read_raw(path):
    """Header and rows of a CSV the way the `predict` command reads it."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return [cell.strip() for cell in rows[0]], rows[1:]


def predict_csv(path, rs):
    header, rows = read_raw(path)
    return rs.predict_rows(header, rows)


def ingest_csv(lib, path, label_column):
    table = lib.dataset.read_csv_table(path, label_column)
    return table, lib.dataset.binarize_table(table)


def ingested_rows(out) -> int:
    table, _ = out
    return table.n + table.dropped_rows


def check_fit(lib, fit: Fit) -> list[str]:
    """Certificate, objective, budget and prediction-path checks of one
    fit; the raw-cell path scores the fit's own CSV rows."""
    res, rs, ds = fit.res, fit.rs, fit.train_ds
    bad = []
    lb = res.lower_bound
    if lb is not None and lb > res.objective:
        bad.append(f"lower bound {lb} above objective {res.objective}")
    if res.optimal and lb != res.objective:
        bad.append(f"optimal claimed with bound {lb} != {res.objective}")
    recomputed = lib.ruleset.hamming_loss(rs, ds)
    if recomputed != res.objective:
        bad.append(f"objective {res.objective} but hamming loss {recomputed}")
    if rs.complexity > fit.budget:
        bad.append(f"complexity {rs.complexity} over budget {fit.budget}")
    if any(len(cl) > fit.clause_bound for cl in rs.clauses):
        bad.append(f"a clause has more than {fit.clause_bound} conditions")
    if fit.planted_loss is not None and lb is not None \
            and lb > fit.planted_loss:
        bad.append(f"lower bound {lb} above the planted rule's loss "
                   f"{fit.planted_loss}")
    binarized = lib.ruleset.predict(rs, ds)
    labels = predict_csv(fit.csv_path, rs)
    hits = np.array([lab == rs.positive_label for lab in labels])
    if hits.shape != binarized.shape or (hits != binarized.astype(bool)).any():
        bad.append("predict_rows disagrees with the binarized predict path")
    return bad


def fit_config(lib, seed, budget, clause_bound, time_limit,
               pricing_time_limit=30.0):
    return lib.colgen.ColGenConfig(
        complexity_bound=budget, clause_bound=clause_bound,
        time_limit=time_limit, pricing_time_limit=pricing_time_limit,
        seed=seed)


# -- ttt-sweep -------------------------------------------------------------

TTT_BUDGETS = (8, 32)
TTT_CLAUSE_BOUND = 3
TTT_TIME_LIMIT = 120.0


def setup_ttt(lib, work, seed) -> State:
    """The full tic-tac-toe endgame set; it has no randomness, so the seed
    only reaches the solver's own seed (unused by its small regime)."""
    path = str(work / "tictactoe.csv")
    data.write_csv(path, data.TTT_COLUMNS + ["class"], data.tictactoe_rows())
    cfg = fit_config(lib, seed, max(TTT_BUDGETS), TTT_CLAUSE_BOUND,
                     TTT_TIME_LIMIT)

    def run():
        table = lib.dataset.read_csv_table(path, "class")
        return lib.cv.sweep_rows(table, np.arange(table.n),
                                 list(TTT_BUDGETS), "dnf", cfg)

    def fits(out):
        ds, fitted = out
        return [Fit(f"ttt C={C}", C, TTT_CLAUSE_BOUND, TTT_TIME_LIMIT, path,
                    rs, res, ds) for C, rs, res in fitted]

    # "x completed a line": the 8-clause rule that C=32 recovers exactly
    lines = [[lib.dataset.FeatureMeta(data.TTT_COLUMNS[i], "categorical-eq",
                                      "x") for i in line]
             for line in data.TTT_LINES]
    reference = lib.ruleset.RuleSet("dnf", lines, "positive", "negative")
    return State(ops=[Op("sweep", run, fits=fits)],
                 probes=[(path, "class", reference)])


# -- planted-train ---------------------------------------------------------

# (op kind, n, raw d, instances per pass, time limit).  Single instances of
# the sizes first tried (n=1000 d=40, n=2000 d=20) took about 1 s on most
# seeds and 14 to 65 s on a few, because the master slows sharply as the
# pool grows.  Smaller instances keep each op kind's layer mix (pricing
# leads in "pricing", the master in "master") with a light-tailed cost,
# but one instance's cost still varies by about 30% from seed to seed, so
# each kind is a batch of twenty and a pass reads about the same from seed
# to seed.  No fit here reaches its time limit: a fit stopped by a wall-clock
# deadline does as much work as the machine's speed allows, so its answer
# and memory would follow the machine, not the program.
PLANTED = (
    ("pricing", 200, 24, 20, 60.0),
    ("master", 1000, 8, 20, 60.0),
)
PLANTED_BUDGET = 15
PLANTED_CLAUSE_BOUND = 3


def planted_rule_set(lib, rule):
    """A raw-column DNF as a RuleSet over the binarized 0/1 columns."""
    clauses = [[lib.dataset.FeatureMeta(
        f"x{col}", "numeric-gt" if polarity else "numeric-leq", 0.0)
        for col, polarity in clause] for clause in rule]
    return lib.ruleset.RuleSet("dnf", clauses, "pos", "neg")


def setup_planted(lib, work, seed) -> State:
    ops, probes = [], []
    for k, (kind, n, d, count, limit) in enumerate(PLANTED):
        cfg = fit_config(lib, seed, PLANTED_BUDGET, PLANTED_CLAUSE_BOUND,
                         limit)
        for i in range(count):
            X, y, rule = data.planted_dnf(n, d, seed * 1000 + k * 100 + i)
            header, rows = data.planted_csv_rows(X, y)
            path = str(work / f"planted_{kind}_{i}.csv")
            data.write_csv(path, header, rows)
            loss = data.planted_loss(X, y, rule)
            ops.append(_planted_op(lib, f"{kind} n={n} d={d} #{i}", path,
                                   cfg, loss))
            # every CSV, so the probes average over the seed's rules
            probes.append((path, "label", planted_rule_set(lib, rule)))
    return State(ops=ops, probes=probes)


def _planted_op(lib, name, path, cfg, loss) -> Op:
    def run():
        table = lib.dataset.read_csv_table(path, "label")
        return lib.cv.fit_rows(table, np.arange(table.n), "dnf", cfg)

    def fits(out):
        rs, res, ds = out
        return [Fit(name, cfg.complexity_bound, cfg.clause_bound,
                    cfg.time_limit, path, rs, res, ds, loss)]

    return Op(name, run, fits=fits)


# -- predict-csv -----------------------------------------------------------

PREDICT_ROWS = 100_000
PREDICT_CHUNKS = 10
PREDICT_TRAIN_ROWS = 2000
PREDICT_BUDGET = 9
PREDICT_CLAUSE_BOUND = 2
PREDICT_TIME_LIMIT = 60.0


def setup_predict(lib, work, seed) -> State:
    """A model trained on a clean sample, then 100k rows with missing cells
    to score and ingest.  Training is set-up, so it counts in setup_s.

    The rows are split into 10 CSVs of 10k rows, each scored and ingested
    by its own op, so one pass takes a few seconds and a run holds
    several passes."""
    train_path = str(work / "mixed_train.csv")
    data.write_csv(train_path, data.MIXED_HEADER,
                   data.mixed_rows(PREDICT_TRAIN_ROWS, 2 * seed, missing=0.0))
    cfg = fit_config(lib, seed, PREDICT_BUDGET, PREDICT_CLAUSE_BOUND,
                     PREDICT_TIME_LIMIT)
    table = lib.dataset.read_csv_table(train_path, "label")
    rs, res, train_ds = lib.cv.fit_rows(table, np.arange(table.n), "dnf", cfg)
    fit = Fit("set-up model", PREDICT_BUDGET, PREDICT_CLAUSE_BOUND,
              PREDICT_TIME_LIMIT, train_path, rs, res, train_ds)

    raw = data.mixed_rows(PREDICT_ROWS, 2 * seed + 1)
    size = PREDICT_ROWS // PREDICT_CHUNKS
    ops = []
    for k in range(PREDICT_CHUNKS):
        path = str(work / f"mixed_score_{k}.csv")
        chunk = raw[k * size:(k + 1) * size]
        data.write_csv(path, data.MIXED_HEADER, chunk)
        ops += _chunk_ops(lib, k, path, chunk, rs, train_ds)
    return State(ops=ops, fits=[fit])


def _chunk_ops(lib, k, path, raw, rs, train_ds) -> list[Op]:
    """The predict and ingest ops of one CSV chunk, with their checks."""
    kept = np.array([i for i, row in enumerate(raw)
                     if not any(c.strip() in ("", "?") for c in row)])
    last_table = {}

    def run_ingest():
        table, ds = ingest_csv(lib, path, "label")
        last_table["table"] = table
        return table, ds

    def check_ingest(out):
        table, ds = out
        bad = []
        if table.n + table.dropped_rows != len(raw):
            bad.append(f"read {table.n + table.dropped_rows} rows, "
                       f"expected {len(raw)}")
        if table.n != len(kept) or ds.n != len(kept):
            bad.append(f"kept {table.n} rows, expected {len(kept)}")
        try:
            ds.validate()
        except ValueError as exc:
            bad.append(f"binarized dataset invalid: {exc}")
        return bad

    def check_predict(labels):
        if len(labels) != len(raw):
            return [f"{len(labels)} labels for {len(raw)} rows"]
        # popped so no stale table stays alive into the next pass
        table = last_table.pop("table", None) \
            or lib.dataset.read_csv_table(path, "label")
        X = lib.dataset.build_matrix(table, np.arange(table.n),
                                     train_ds.features)
        scored = lib.dataset.BinaryDataset(
            X=X, y=table.y, features=train_ds.features,
            partner=train_ds.partner)
        binarized = lib.ruleset.predict(rs, scored).astype(bool)
        hits = np.array([labels[i] == rs.positive_label for i in kept])
        if (hits != binarized).any():
            return ["predict_rows disagrees with the binarized predict path "
                    f"on {int((hits != binarized).sum())} rows"]
        return []

    return [Op(f"predict #{k}", lambda: predict_csv(path, rs),
               check=check_predict, rows=len, kind="predict"),
            Op(f"ingest #{k}", run_ingest, check=check_ingest,
               rows=ingested_rows, kind="ingest")]


WORKLOADS = {
    "ttt-sweep": setup_ttt,
    "planted-train": setup_planted,
    "predict-csv": setup_predict,
}
