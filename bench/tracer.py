"""Spans around the library's public functions, recorded from outside it.

`Tracer.install` replaces each traced function at the name its caller looks
it up by (colgen imports `solve_restricted_mlp`, `price_exact` and friends by
name, so patching only their home modules would record nothing), and
`Tracer.remove` puts the originals back.  Spans carry parent links, so one
function can be told apart by caller: the master LP of the column
generation loop and the node LPs of the integer stage are the same call.
Spans stay in memory until the run writes them out.

A binding that no longer exists, say after a later change deletes it, is
listed in `absent` with its layer, and that layer's metrics read zero;
installation never fails on it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "op", "name", "t0", "t1", "attrs")

    def __init__(self, sid, parent, op, name):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.t0 = time.perf_counter()
        self.t1 = None
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "t0": self.t0, "t1": self.t1,
                "attrs": self.attrs}


def _mlp(result, args, kwargs):
    return {"pivots": getattr(result, "iterations", 0),
            "status": getattr(result, "status", "")}


def _pricer(result, args, kwargs):
    return {"explored": getattr(result, "explored", 0),
            "proven": bool(getattr(result, "proven_optimal", False)),
            "returned": len(getattr(result, "clauses", ()))}


def _pool_add(result, args, kwargs):
    return {"added": bool(result)}


def _mip(result, args, kwargs):
    return {"nodes": getattr(result, "nodes", 0),
            "optimal": bool(getattr(result, "optimal", False))}


def _loop(result, args, kwargs):
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    return {"rounds": getattr(result, "iterations", 0),
            "pool_size": getattr(result, "pool_size", 0),
            "seconds": getattr(result, "seconds", 0.0),
            "time_limit": getattr(cfg, "time_limit", float("inf"))}


def _table_rows(result, args, kwargs):
    return {"rows": getattr(result, "n", 0)
            + getattr(result, "dropped_rows", 0)}


def _label_rows(result, args, kwargs):
    return {"rows": len(result)}


def _node_or_master(parent_name):
    return "lp_engine.node_lp" if parent_name == "colgen.mip" \
        else "lp_engine.master"


# (module, attribute or Class.method, span name or f(parent name), attrs)
BINDINGS = [
    ("dataset", "read_csv_table", "dataset.read_csv_table", _table_rows),
    ("dataset", "binarize_table", "dataset.binarize_table", None),
    ("dataset", "build_matrix", "dataset.build_matrix", None),
    ("cv", "binarize_table", "dataset.binarize_table", None),
    ("cv", "fit_rows", "cv.fit_rows", None),
    ("cv", "sweep_rows", "cv.sweep_rows", None),
    ("cv", "run_column_generation", "colgen.loop", _loop),
    ("cv", "sweep_complexity", "colgen.sweep", None),
    ("colgen", "run_column_generation", "colgen.loop", _loop),
    ("colgen", "solve_restricted_mlp", _node_or_master, _mlp),
    ("colgen", "solve_restricted_mip", "colgen.mip", _mip),
    ("colgen", "price_exact", "pricing.exact", _pricer),
    ("colgen", "price_greedy", "pricing.greedy", _pricer),
    ("colgen", "restrict_pricing", "pricing.restrict", None),
    ("colgen", "reduced_cost_dense", "colgen.admit", None),
    ("colgen", "ClausePool.add", "colgen.admit", _pool_add),
    ("ruleset", "RuleSet.predict_rows", "ruleset.predict_rows", _label_rows),
    ("ruleset", "predict", "ruleset.predict", None),
]


# per-layer metric -> unit; the order is the order of BENCHMARK.json
PER_LAYER = {
    "lp_engine.master.s": "s", "lp_engine.master.calls": "count",
    "lp_engine.master.pivots": "count", "lp_engine.master.not_optimal": "count",
    "lp_engine.node_lp.s": "s", "lp_engine.node_lp.calls": "count",
    "lp_engine.node_lp.pivots": "count",
    "pricing.exact.s": "s", "pricing.exact.calls": "count",
    "pricing.exact.explored": "count", "pricing.exact.proven_frac": "share",
    "pricing.exact.ns_per_eval": "ns",
    "pricing.greedy.s": "s", "pricing.greedy.explored": "count",
    "pricing.restrict.s": "s",
    "colgen.rounds": "count", "colgen.pool_size": "count",
    "colgen.admit_ratio": "share",
    "colgen.admit.s": "s", "colgen.loop.self_s": "s",
    "colgen.mip.s": "s", "colgen.mip.calls": "count",
    "colgen.mip.nodes": "count", "colgen.mip.optimal_frac": "share",
    "colgen.sweep_pass2.s": "s", "colgen.limit_overrun_s": "s",
    "dataset.read_csv_table.s": "s",
    "dataset.read_csv_table.rows_per_s": "rows/s",
    "dataset.binarize_table.s": "s", "dataset.build_matrix.s": "s",
    "ruleset.predict_rows.s": "s",
    "ruleset.predict_rows.rows_per_s": "rows/s",
    "ruleset.predict.s": "s",
    "cv.self_s": "s",
    "trace.overhead_frac": "share", "trace.span_cost_frac": "share",
    "trace.spans": "count", "trace.absent": "count",
}


class Tracer:
    """Collects spans while `active`; wrappers pass straight through
    otherwise, so set-up and the throughput probes stay untraced."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.active = False
        self.op: int | None = None
        self.absent: list[tuple[str, str]] = []  # (binding, layer)
        self._undo: list = []

    # -- spans ----------------------------------------------------------

    def open(self, name) -> Span:
        parent = self.stack[-1] if self.stack else None
        if callable(name):
            name = name(parent.name if parent else None)
        span = Span(len(self.spans), parent.id if parent else None,
                    self.op, name)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name, for the runner's own
        spans: ops, and the checks that follow them."""
        if not self.active:
            return fn(*args, **kwargs)
        span = self.open(name)
        if name == "op":
            self.op = span.id
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)
            if name == "op":
                self.op = None

    # -- installation ---------------------------------------------------

    def install(self, modules: dict) -> None:
        for mod_name, attr, span_name, attrs in BINDINGS:
            owner = modules.get(mod_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            orig = getattr(owner, path[-1], None) if owner is not None else None
            if orig is None:
                name = span_name(None) if callable(span_name) else span_name
                self.absent.append((f"{mod_name}.{attr}", name.split(".")[0]))
                continue
            setattr(owner, path[-1], self._wrapper(orig, span_name, attrs))
            self._undo.append((owner, path[-1], orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrapper(self, orig, span_name, attrs):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            span = tracer.open(span_name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                span.attrs.update(attrs(result, args, kwargs))
            return result

        return traced

    # -- analysis -------------------------------------------------------

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one traced call adds, from wrapping a no-op.  A measured
        traced-minus-untraced difference is mostly run-to-run noise on a
        shared machine; this isolates what the wrappers themselves cost."""
        def noop():
            return None

        probe = Tracer()
        probe.active = True
        wrapped = probe._wrapper(noop, "calibration", None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def self_seconds(self) -> dict:
        """Span id -> duration minus the durations of its direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return {s.id: s.seconds - child[s.id] for s in self.spans}


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer numbers averaged per traced pass.  `.s` metrics are self
    time; `colgen.sweep_pass2.s` is inclusive of the node LPs under it."""
    own = tracer.self_seconds()
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    names = {s.id: s.name for s in tracer.spans}

    def secs(name):
        return sum(own[s.id] for s in by_name[name])

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def share(num, den):
        return num / den if den else 0.0

    master, node = by_name["lp_engine.master"], by_name["lp_engine.node_lp"]
    exact, mips = by_name["pricing.exact"], by_name["colgen.mip"]
    loops = by_name["colgen.loop"]
    candidates = total("pricing.exact", "returned") \
        + total("pricing.greedy", "returned")
    overrun = sum(max(0.0, s.attrs["seconds"] - s.attrs["time_limit"])
                  for s in loops if s.attrs.get("seconds", 0.0)
                  >= s.attrs.get("time_limit", float("inf")))
    # a sweep grows one shared pool, so take each op's largest pool
    pools = defaultdict(int)
    for s in loops:
        pools[s.op] = max(pools[s.op], s.attrs.get("pool_size", 0))
    reads = total("dataset.read_csv_table", "rows")
    predicted = total("ruleset.predict_rows", "rows")
    raw = {
        "lp_engine.master.s": secs("lp_engine.master"),
        "lp_engine.master.calls": len(master),
        "lp_engine.master.pivots": total("lp_engine.master", "pivots"),
        "lp_engine.master.not_optimal": sum(
            s.attrs.get("status") != "optimal" for s in master),
        "lp_engine.node_lp.s": secs("lp_engine.node_lp"),
        "lp_engine.node_lp.calls": len(node),
        "lp_engine.node_lp.pivots": total("lp_engine.node_lp", "pivots"),
        "pricing.exact.s": secs("pricing.exact"),
        "pricing.exact.calls": len(exact),
        "pricing.exact.explored": total("pricing.exact", "explored"),
        "pricing.greedy.s": secs("pricing.greedy"),
        "pricing.greedy.explored": total("pricing.greedy", "explored"),
        "pricing.restrict.s": secs("pricing.restrict"),
        "colgen.rounds": total("colgen.loop", "rounds"),
        "colgen.pool_size": sum(pools.values()),
        "colgen.admit.s": secs("colgen.admit"),
        "colgen.loop.self_s": secs("colgen.loop") + secs("colgen.sweep"),
        "colgen.mip.s": secs("colgen.mip"),
        "colgen.mip.calls": len(mips),
        "colgen.mip.nodes": total("colgen.mip", "nodes"),
        "colgen.sweep_pass2.s": sum(s.seconds for s in mips
                                    if names.get(s.parent) == "colgen.sweep"),
        "colgen.limit_overrun_s": overrun,
        "dataset.read_csv_table.s": secs("dataset.read_csv_table"),
        "dataset.binarize_table.s": secs("dataset.binarize_table"),
        "dataset.build_matrix.s": secs("dataset.build_matrix"),
        "ruleset.predict_rows.s": secs("ruleset.predict_rows"),
        "ruleset.predict.s": secs("ruleset.predict"),
        "cv.self_s": secs("cv.fit_rows") + secs("cv.sweep_rows"),
    }
    out = {k: v / passes for k, v in raw.items()}
    # ratios are taken over the whole traced run, not averaged per pass
    out["pricing.exact.proven_frac"] = share(
        sum(s.attrs.get("proven", False) for s in exact), len(exact))
    out["pricing.exact.ns_per_eval"] = share(
        1e9 * raw["pricing.exact.s"], raw["pricing.exact.explored"])
    out["colgen.admit_ratio"] = share(
        sum(s.attrs.get("added", False) for s in by_name["colgen.admit"]),
        candidates)
    out["colgen.mip.optimal_frac"] = share(
        sum(s.attrs.get("optimal", False) for s in mips), len(mips))
    out["dataset.read_csv_table.rows_per_s"] = share(
        reads, raw["dataset.read_csv_table.s"])
    out["ruleset.predict_rows.rows_per_s"] = share(
        predicted, raw["ruleset.predict_rows.s"])
    return out


def op_layer_shares(tracer: Tracer) -> dict:
    """Op span id -> {layer: share of the op's wall time}, from self times.
    The op span's own self time is work outside the library, such as the
    predict op's csv parsing; it is listed as "untraced"."""
    own = tracer.self_seconds()
    walls = {s.id: s.seconds for s in tracer.spans if s.name == "op"}
    shares = {op: defaultdict(float) for op in walls}
    for s in tracer.spans:
        if s.id in walls:
            shares[s.id]["untraced"] += own[s.id] / walls[s.id]
        elif s.op in walls:
            shares[s.op][s.name.split(".")[0]] += own[s.id] / walls[s.op]
    return {op: dict(v) for op, v in shares.items()}
