#!/usr/bin/env python3
"""The mutant register: deliberate one-line bugs that the tests must catch.

Each entry names a file under src/boolrules, one exact line of it (without
its indentation), the line to put in its place, and the tests that must
fail on the result.  The line must occur exactly once, unless the entry
gives its 1-based occurrence among repeats.  For each entry in turn the
script copies src/ to a temporary directory, applies that one mutant,
runs only its named tests against the copy, and reports the mutant killed
when every named test fails.

    python scripts/mutants.py            # every mutant
    python scripts/mutants.py NAME ...   # only these

It exits 1 when a mutant survives (a named test passes on it) or its line
no longer matches the source, and first checks that every named test
passes on the unmutated source.  A change that edits a registered line
updates its entry; a change that adds a prune or a fast path adds one.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/boolrules
    line: str  # the source line, stripped of its indentation
    mutated: str  # what replaces it, at the same indentation
    tests: tuple  # pytest node ids that must fail
    occurrence: int | None = None  # which of a repeated line, from 1


MUTANTS = [
    Mutant("pad-without-convergence", "colgen.py",
           "if growth.rmlp_converged else None)",
           "if True else None)",
           ("tests/test_colgen.py::"
            "test_sweep_resolves_the_root_of_a_budget_that_did_not_converge",
            "tests/test_colgen.py::"
            "test_highs_numerical_trouble_ends_the_fit_cleanly")),
    Mutant("fix-to-one-one-error-too-eager", "colgen.py",
           "np.ceil(ms.objective - d - CEIL_EPS) >= best_obj), 1.0, w_lower)",
           "np.ceil(ms.objective - d - CEIL_EPS) >= best_obj - 1), 1.0, "
           "w_lower)",
           ("tests/test_colgen.py::"
            "test_mip_fixes_a_clause_to_one_only_at_the_incumbent",)),
    Mutant("fix-to-zero-one-error-too-eager", "colgen.py",
           "np.ceil(ms.objective + d - CEIL_EPS) >= best_obj), 0.0, w_upper)",
           "np.ceil(ms.objective + d - CEIL_EPS) >= best_obj - 1), 0.0, "
           "w_upper)",
           ("tests/test_colgen.py::"
            "test_mip_drops_children_at_their_parents_bound",)),
    Mutant("node-status-3-numerical", "lp_engine.py",
           "_NODE_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 3: INFEASIBLE}",
           "_NODE_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 3: NUMERICAL}",
           ("tests/test_lp_engine.py::"
            "test_highs_statuses_map_to_solver_statuses[node-3-infeasible]",
            "tests/test_lp_engine.py::"
            "test_overspent_node_is_infeasible_through_its_unbounded_dual")),
    Mutant("certificate-c-over-8", "colgen.py",
           "else z_rmlp + (budget / 2.0) * floor)",
           "else z_rmlp + (budget / 8.0) * floor)",
           ("tests/test_properties.py::"
            "test_certificate_brackets_the_enumerated_optimum",)),
    Mutant("sampled-ids-unmapped", "pricing.py",
           "clause = tuple(sorted(feats[b].tolist() + [int(ids[j])]))",
           "clause = tuple(sorted(feats[b].tolist() + [j]))",
           ("tests/test_pricing.py::"
            "test_sampled_call_prices_the_sliced_instance",)),
    Mutant("sampled-mu-taken-as-a-prefix", "pricing.py",
           "mu = mu[np.searchsorted(pos, rows[y[rows] == 1])]",
           "mu = mu[:int((y[rows] == 1).sum())]",
           ("tests/test_pricing.py::test_restricted_mu_alignment",
            "tests/test_pricing.py::"
            "test_sampled_call_prices_the_sliced_instance")),
    Mutant("sampled-call-keeps-its-proof", "pricing.py",
           "proven, floor = False, None",
           "floor = None",
           ("tests/test_pricing.py::test_restricted_sampling",
            "tests/test_pricing.py::"
            "test_sampled_call_prices_the_sliced_instance")),
    Mutant("selection-gets-the-whole-limit", "colgen.py",
           "deadline = t0 + cfg.time_limit - growth.seconds",
           "deadline = t0 + cfg.time_limit",
           ("tests/test_colgen.py::"
            "test_sweep_selection_gets_what_its_growth_left",
            "tests/test_colgen.py::"
            "test_integer_stage_gets_only_the_time_left[1e-09]",
            "tests/test_colgen.py::"
            "test_integer_stage_gets_only_the_time_left[30.0]")),
    Mutant("thresholds-kept-per-cut", "dataset.py",
           "keep[1:] &= below[1:] != below[:-1]",
           "pass",
           ("tests/test_dataset.py::test_one_threshold_per_distinct_split",
            "tests/test_properties.py::"
            "test_numeric_features_split_the_column_each_their_own_way",
            "tests/test_properties.py::"
            "test_block_thresholds_are_the_per_column_reference")),
    Mutant("budget-rejects-exact-spend", "lp_engine.py",
           "BUDGET_TOL = 1e-7",
           "BUDGET_TOL = -1e-7",
           ("tests/test_colgen.py::"
            "test_clauses_spending_exactly_the_budget_fit_it",)),
    Mutant("parent-floor-one-error-too-eager", "colgen.py",
           "if floor >= best_obj:",
           "if floor >= best_obj - 1:",
           ("tests/test_colgen.py::"
            "test_mip_shuts_a_clause_out_by_its_root_reduced_cost",
            "tests/test_colgen.py::"
            "test_mip_fixes_a_clause_to_one_only_at_the_incumbent"),
           occurrence=1),
    Mutant("ingest-without-fallback-parse", "dataset.py",
           "if (numeric or not miss.all()) and (",
           "if False and (",
           ("tests/test_dataset.py::test_missing_policies",
            "tests/test_dataset.py::test_conditions_on_missing_cells",
            "tests/test_ruleset.py::test_predict_rows_on_raw_cells")),
    Mutant("label-column-takes-the-float-pass", "dataset.py",
           "if numeric is not False and (floats := _parse_floats(",
           "if (floats := _parse_floats(",
           ("tests/test_dataset.py::"
            "test_a_numeric_label_column_keeps_its_strings",)),
    Mutant("boundary-catches-every-exception", "cli.py",
           "except ValueError as exc:",
           "except Exception as exc:",
           ("tests/test_cli.py::test_only_a_value_error_is_a_user_error",),
           occurrence=1),
    Mutant("closed-form-with-zero-duals", "lp_engine.py",
           "xi, one.astype(float), xi.copy(), 0.0, 0)",
           "xi, one.astype(float), np.zeros(n_pos), 0.0, 0)",
           ("tests/test_lp_engine.py::test_master_empty_pool_analytic",
            "tests/test_colgen.py::"
            "test_converged_selection_reuses_the_last_master_as_its_root",
            "tests/test_colgen.py::"
            "test_highs_never_sees_an_lp_without_a_free_clause",
            "tests/test_properties.py::"
            "test_empty_pool_answer_is_highs_answer_on_the_unreduced_master",
            "tests/test_properties.py::"
            "test_master_and_node_answers_are_kkt_points_of_the_unreduced_"
            "lp")),
    Mutant("closed-form-without-budget-check", "lp_engine.py",
           "if np.asarray(complexities, dtype=float)[one].sum() > budget + "
           "BUDGET_TOL:",
           "if False:",
           ("tests/test_colgen.py::"
            "test_highs_never_sees_an_lp_without_a_free_clause",
            "tests/test_properties.py::"
            "test_empty_pool_answer_is_highs_answer_on_the_unreduced_master",
            "tests/test_properties.py::"
            "test_master_and_node_answers_are_kkt_points_of_the_unreduced_"
            "lp")),
    Mutant("master-duals-with-the-wrong-sign", "lp_engine.py",
           "value, x, dual = res.fun, res.x, -res.ineqlin.marginals",
           "value, x, dual = res.fun, res.x, res.ineqlin.marginals",
           ("tests/test_lp_engine.py::test_box_lp_by_hand",
            "tests/test_lp_engine.py::test_master_budget_binding_dual",
            "tests/test_properties.py::"
            "test_master_duals_are_highs_duals_of_the_unreduced_master")),
    Mutant("row-groups-at-unit-xi-cost", "lp_engine.py",
           "bounds[:G, 1] = sizes",
           "bounds[:G, 1] = 1.0",
           ("tests/test_lp_engine.py::"
            "test_presolved_node_lp_matches_the_unreduced_lp",
            "tests/test_properties.py::test_highs_receives_the_per_row_lp",
            "tests/test_properties.py::"
            "test_master_and_node_answers_are_kkt_points_of_the_unreduced_"
            "lp")),
    Mutant("cover-entries-not-negated", "lp_engine.py",
           "data = np.concatenate([np.full(len(i), -1.0), "
           "np.full(n_pos, -1.0),",
           "data = np.concatenate([np.full(len(i), 1.0), "
           "np.full(n_pos, -1.0),",
           ("tests/test_lp_engine.py::"
            "test_build_restricted_mlp_rows_match_per_row_construction",
            "tests/test_properties.py::test_highs_receives_the_per_row_lp",
            "tests/test_properties.py::"
            "test_master_duals_are_highs_duals_of_the_unreduced_master")),
    Mutant("category-comparison-inverted", "dataset.py",
           "eq = equal[m.column, m.value] = vals == m.value",
           "eq = equal[m.column, m.value] = vals != m.value",
           ("tests/test_dataset.py::test_categorical_pairs",
            "tests/test_dataset.py::"
            "test_each_category_is_compared_once_for_both_its_tests",
            "tests/test_ruleset.py::test_predict_rows_on_raw_cells")),
    Mutant("thresholds-above-every-value-kept", "dataset.py",
           "keep = below < len(block)",
           "keep = np.ones(below.shape, dtype=bool)",
           ("tests/test_dataset.py::test_threshold_at_maximum_dropped",
            "tests/test_properties.py::"
            "test_numeric_features_split_the_column_each_their_own_way",
            "tests/test_properties.py::"
            "test_block_thresholds_are_the_per_column_reference")),
    Mutant("floats-parsed-without-finiteness-check", "dataset.py",
           "return values if np.isfinite(values).all() else None",
           "return values",
           ("tests/test_dataset.py::test_conditions_on_missing_cells",
            "tests/test_properties.py::"
            "test_ingest_matches_the_cell_by_cell_oracle")),
    Mutant("nested-ties-to-the-larger-budget", "cv.py",
           "return max(points, key=lambda p: (p.test_accuracy, "
           "-p.budget)).budget",
           "return max(points, key=lambda p: (p.test_accuracy, "
           "p.budget)).budget",
           ("tests/test_cv.py::test_cross_validation_on_separable_data",
            "tests/test_cv.py::"
            "test_select_budget_matches_inner_fold_reference"
            "[2-dnf-grid2-2-None]")),
    Mutant("enumeration-scores-singles-only", "colgen.py",
           "best = [fits[i], fits[j]] if pair[i, j] > gain[a] else "
           "[fits[a]]",
           "best = [fits[a]]",
           ("tests/test_colgen.py::"
            "test_random_instances_match_exhaustive_search",
            "tests/test_colgen.py::"
            "test_mip_drops_children_at_their_parents_bound",
            "tests/test_properties.py::"
            "test_integer_stage_proves_the_enumerated_best_selection")),
]


def apply(src: Path, mutant: Mutant) -> str | None:
    """Apply `mutant` to the copy of src/ at `src`; an error message when
    its line is not found exactly once, or, given an occurrence, fewer
    times than that."""
    path = src / "boolrules" / mutant.file
    lines = path.read_text().splitlines(keepends=True)
    hits = [k for k, text in enumerate(lines) if text.strip() == mutant.line]
    if (len(hits) != 1 if mutant.occurrence is None
            else not 1 <= mutant.occurrence <= len(hits)):
        return f"its line is found {len(hits)} times in {mutant.file}"
    k = hits[(mutant.occurrence or 1) - 1]
    indent = lines[k][:len(lines[k]) - len(lines[k].lstrip())]
    lines[k] = indent + mutant.mutated + "\n"
    path.write_text("".join(lines))
    return None


def run_tests(src: Path, tests) -> tuple[int, set, str]:
    """Run `tests` against the package under `src`: pytest's exit code, the
    node ids that failed, and its output."""
    env = dict(os.environ, PYTHONPATH=str(src),
               PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run(
        [sys.executable, "-c", "import boolrules; print(boolrules.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if not probe.stdout.strip().startswith(str(src)):
        sys.exit(f"error: boolrules imports from {probe.stdout.strip()!r}, "
                 f"not from {src}")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", out.stdout,
                            flags=re.M))
    return out.returncode, failed, out.stdout + out.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or MUTANTS

    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src)
        tests = sorted({t for m in chosen for t in m.tests})
        code, failed, output = run_tests(src, tests)
        if code != 0:
            print(output)
            print("error: the named tests must pass on the unmutated source")
            return 1
        for mutant in chosen:
            shutil.rmtree(src)
            shutil.copytree(ROOT / "src", src)
            error = apply(src, mutant)
            if error is None:
                code, failed, output = run_tests(src, mutant.tests)
                alive = [t for t in mutant.tests if t not in failed]
                if code not in (0, 1):
                    error = f"pytest exited {code}"
                elif alive:
                    error = f"survives {', '.join(alive)}"
            if error is None:
                print(f"killed    {mutant.name}")
            else:
                bad += 1
                print(f"FAILED    {mutant.name}: {error}")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
