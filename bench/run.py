"""Benchmark runner: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload ttt-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory, in process, through the same public functions the
`train`, `sweep` and `predict` commands call.  One process, no worker
pool.  Inputs, op records and spans go to `.bench_work/` in the checkout.

`--trace 0` reports the end-to-end metrics; `--trace 1` first runs one
untraced pass as the overhead reference, then traced passes, and reports
the per-layer metrics.  End-to-end op times are counted in runs of a
reference loop sampled while the ops run (see `refclock.py`), so a machine
whose speed wanders gives the same figures.  The last line of standard output is always the
result object; the lines before it are one quality record per fit, one
line per op and a summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread before numpy loads: one process on a small shared machine
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import refclock  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

# name -> unit; the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s", "ops_ref": "ref", "objective_total": "errors",
    "bound_total": "errors", "optimal_frac": "share",
    "in_limit_frac": "share", "ok_frac": "share",
    "predict_rows_per_ref": "rows/ref", "ingest_rows_per_ref": "rows/ref",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import boolrules from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "boolrules" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {src}/boolrules; run this "
                 "from a full checkout")
    sys.path.insert(0, str(src))
    import boolrules
    from boolrules import colgen, cv, dataset, ruleset
    if Path(boolrules.__file__).resolve().parent != src / "boolrules":
        sys.exit(f"error: imported boolrules from {boolrules.__file__}, "
                 f"not from {src}")
    return argparse.Namespace(colgen=colgen, cv=cv, dataset=dataset,
                              ruleset=ruleset)


def run_pass(lib, state, tracer, prober, clock):
    """Run every op once, then its checks.  Returns the pass record."""
    ops = []
    for op in state.ops:
        mark = clock.mark()
        try:
            out = tracer.run("op", op.run)
            error = None
        except Exception:
            out, error = None, traceback.format_exc()
        seconds, inv = clock.since(mark)
        ops.append({"op": op, "out": out, "error": error,
                    "seconds": seconds, "inv": inv})
        prober.window()
    for rec in ops:
        op, out = rec["op"], rec["out"]
        rec["fits"], rec["failures"] = [], []
        if rec["error"] is not None:
            rec["failures"].append(rec["error"])
            continue
        try:
            if op.fits is not None:
                rec["fits"] = op.fits(out)
                for fit in rec["fits"]:
                    bad = tracer.run("check", workloads.check_fit, lib, fit)
                    rec["failures"] += [f"{fit.label}: {m}" for m in bad]
            if op.check is not None:
                bad = tracer.run("check", op.check, out)
                rec["failures"] += bad
            if op.rows is not None:
                rec["rows"] = op.rows(out)
        except Exception:
            rec["failures"].append(traceback.format_exc())
        rec["out"] = None  # outputs can be large; keep later passes lean
    failures = [f for rec in ops for f in rec["failures"]]
    wall = sum(rec["seconds"] for rec in ops)
    return {"ops": ops, "failures": failures, "wall": wall,
            "refs": clock.refs(wall, [x for rec in ops for x in rec["inv"]])}


class Prober:
    """Throughput probes for the workloads whose ops train: read_csv_table +
    binarize_table, and predict_rows with a fixed reference rule set, on
    the workload's own CSVs.  They run untraced, in windows before the
    first op and after each op, one CSV per window in turn, about two
    seconds per pass in all, and at least MIN_CALLS calls per CSV.  Each
    kind's rate is all its rows over all its calls' time in refs."""

    PROBE_SECONDS = 2.0
    MIN_CALLS = 5

    def __init__(self, lib, state, tracer, clock):
        self.lib, self.tracer, self.clock = lib, tracer, clock
        self.probes = state.probes
        self.window_seconds = self.PROBE_SECONDS / (len(state.ops) + 1)
        self.turn = 0
        # per CSV: raw rows, calls, and per kind the seconds and samples
        self.acc = [{"rows": 0, "calls": 0, "ingest": [0.0, []],
                     "predict": [0.0, []]} for _ in self.probes]

    def _add(self, slot, mark):
        seconds, inv = self.clock.since(mark)
        slot[0] += seconds
        slot[1] += inv

    def window(self, min_calls=1, seconds=None):
        if not self.probes:
            return
        i = self.turn % len(self.probes)
        self.turn += 1
        path, label_column, reference = self.probes[i]
        acc = self.acc[i]
        if seconds is None:
            seconds = self.window_seconds
        active, self.tracer.active = self.tracer.active, False
        try:
            start = time.perf_counter()
            while (acc["calls"] < min_calls
                   or time.perf_counter() - start < seconds):
                mark = self.clock.mark()
                table, _ = workloads.ingest_csv(self.lib, path, label_column)
                self._add(acc["ingest"], mark)
                mark = self.clock.mark()
                workloads.predict_csv(path, reference)
                self._add(acc["predict"], mark)
                acc["rows"] = table.n + table.dropped_rows
                acc["calls"] += 1
        finally:
            self.tracer.active = active

    def finish(self):
        """Top up every CSV to MIN_CALLS calls; return the ingest and
        predict rates, or None for a workload without probes."""
        for _ in range(len(self.probes)):
            self.window(min_calls=self.MIN_CALLS, seconds=0.0)
        rows = sum(a["rows"] * a["calls"] for a in self.acc)
        return {kind: rows / sum(self.clock.refs(*a[kind]) for a in self.acc)
                if self.probes else None for kind in ("ingest", "predict")}


def end_to_end(passes, setup_fits, setup_times, probes, clock):
    """The end-to-end metrics.  Quality comes from the fits of each pass,
    or on predict-csv, which trains nothing in its passes, from the set-up
    fit; quality and time figures are medians over passes."""
    groups = [[f.record() for rec in p["ops"] for f in rec["fits"]]
              for p in passes]
    if setup_fits:
        groups = [[f.record() for f in setup_fits]]
    ops = [rec for p in passes for rec in p["ops"]]
    attempted = len(ops) + len(setup_fits)
    failed = sum(bool(rec["failures"]) for rec in ops)

    rates = {}
    for kind in ("predict", "ingest"):
        per_pass = []
        for p in passes:
            recs = [rec for rec in p["ops"] if rec["op"].kind == kind]
            if recs:
                refs = clock.refs(sum(rec["seconds"] for rec in recs),
                                  [x for rec in recs for x in rec["inv"]])
                per_pass.append(sum(rec.get("rows", 0) for rec in recs)
                                / refs)
        rates[kind] = statistics.median(per_pass) if per_pass \
            else probes[kind]

    def per_pass(fn):
        return statistics.median(fn(g) for g in groups)

    def share(key, want):
        return per_pass(lambda g: sum(r[key] == want for r in g) / len(g))

    return {
        "setup_s": statistics.median(setup_times),
        "ops_ref": statistics.median(p["refs"] for p in passes),
        "objective_total": per_pass(lambda g: sum(r["objective"] for r in g)),
        "bound_total": per_pass(
            lambda g: sum(r["lower_bound"] or 0 for r in g)),
        "optimal_frac": share("optimal", True),
        "in_limit_frac": share("limit_hit", False),
        "ok_frac": 1.0 - failed / attempted,
        "predict_rows_per_ref": rates["predict"],
        "ingest_rows_per_ref": rates["ingest"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }, [r for g in groups for r in g], attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be 0 or more")

    lib = import_library()
    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    clock = refclock.RefClock()
    clock.start()
    try:
        setup_times, state = [], None
        for _ in range(SETUP_REPEATS):
            mark = clock.mark()
            state = workloads.WORKLOADS[args.workload](lib, work, args.seed)
            setup_times.append(clock.since(mark)[0])
        setup_failures = []
        for fit in state.fits:
            bad = workloads.check_fit(lib, fit)
            setup_failures += [f"{fit.label}: {m}" for m in bad]
        # What set-up leaves alive (raw CSV rows kept for the checks, the
        # inputs' generators) is the benchmark's, not the program's: frozen,
        # the cyclic collector no longer walks it during every op.
        gc.collect()
        gc.freeze()

        tracer = tracing.Tracer()
        prober = Prober(lib, state, tracer, clock)
        prober.window()
        untraced_wall = None
        if args.trace:
            untraced_wall = run_pass(lib, state, tracer, prober,
                                     clock)["wall"]
            tracer.install(vars(lib))
            tracer.active = True
        passes = []
        start = time.perf_counter()
        try:
            # another pass starts only if one more pass, at the average
            # length so far, still ends within --seconds
            while not passes or (time.perf_counter() - start) \
                    * (len(passes) + 1) / len(passes) <= args.seconds:
                passes.append(run_pass(lib, state, tracer, prober, clock))
        finally:
            tracer.active = False
            tracer.remove()
        probes = prober.finish()
    finally:
        clock.stop()
    metrics, records, attempted, failed = end_to_end(
        passes, state.fits, setup_times, probes, clock)
    failed += bool(setup_failures)
    failures = setup_failures + [f for p in passes for f in p["failures"]]

    for rec in records:
        print("fit " + json.dumps(rec, sort_keys=True))
    for i, rec in enumerate(passes[0]["ops"]):
        times = [p["ops"][i]["seconds"] for p in passes]
        failed_any = any(p["ops"][i]["failures"] for p in passes)
        print(f"op {rec['op'].name}: fastest {min(times):.3f} s, median "
              f"{statistics.median(times):.3f} s over {len(times)} pass(es)"
              + (" FAILED" if failed_any else ""))
    for msg in failures:
        print("check failed: " + msg.strip().replace("\n", "\n  "),
              file=sys.stderr)

    gap = sum(r["objective"] - (r["lower_bound"] or 0) for r in records)
    print(f"summary: workload {args.workload} seed {args.seed}, "
          f"{len(passes)} pass(es), {attempted} ops attempted, "
          f"failed_frac {failed / attempted:.3f} share, gap_total "
          f"{gap} errors, limit_hit_frac "
          f"{1.0 - metrics['in_limit_frac']:.3f} share, median pass "
          f"{statistics.median(p['wall'] for p in passes):.3f} s at "
          f"{1e3 * len(clock.inv) / sum(clock.inv):.4f} "
          f"ms per ref")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "fits": records,
              "setup_s": setup_times,
              "pass_wall_s": [p["wall"] for p in passes],
              "op_s": [[rec["op"].name, rec["seconds"]]
                       for p in passes for rec in p["ops"]],
              "pass_refs": [p["refs"] for p in passes],
              "probes": [{"rows": a["rows"], "calls": a["calls"],
                          "ingest_s": a["ingest"][0],
                          "predict_s": a["predict"][0]} for a in prober.acc],
              "end_to_end": metrics}
    if args.trace:
        layers = tracing.layer_metrics(tracer, len(passes))
        traced_wall = statistics.median(p["wall"] for p in passes)
        layers["trace.overhead_frac"] = \
            (traced_wall - untraced_wall) / untraced_wall
        layers["trace.spans"] = len(tracer.spans) / len(passes)
        layers["trace.span_cost_frac"] = \
            layers["trace.spans"] * tracer.span_cost() / traced_wall
        layers["trace.absent"] = len(tracer.absent)
        for binding, layer in tracer.absent:
            print(f"absent: layer {layer} (no {binding} to wrap)")
        shares = tracing.op_layer_shares(tracer)
        op_spans = [s for s in tracer.spans if s.name == "op"]
        op_names = [rec["op"].name for p in passes for rec in p["ops"]]
        for span, name in zip(op_spans, op_names):
            parts = ", ".join(f"{k} {v:.1%}" for k, v in
                              sorted(shares[span.id].items(),
                                     key=lambda kv: -kv[1]))
            print(f"layers {name} ({span.seconds:.2f} s): {parts}")
        print(f"trace: untraced pass {untraced_wall:.3f} s, traced pass "
              f"{traced_wall:.3f} s, overhead "
              f"{layers['trace.overhead_frac']:+.2%}; wrapper cost "
              f"{layers['trace.span_cost_frac']:.4%} of a pass")
        report["layers"] = layers
        report["absent"] = tracer.absent
        with open(work / f"spans_seed{args.seed}.json", "w") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)
        result = {k: {"value": layers[k], "unit": u}
                  for k, u in tracing.PER_LAYER.items()}
    else:
        result = {k: {"value": metrics[k], "unit": u}
                  for k, u in END_TO_END.items()}
    with open(work / f"BENCH_{args.workload}_seed{args.seed}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
