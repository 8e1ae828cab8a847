#!/usr/bin/env python3
"""Standing mutation check for the provenance rule, the plugin premises, the
closed-form sibling sets and rays with their vertex charge, tqb's ray
descriptor and its last vertex, the default ray that knows no chain, the
term stream's one-vertex ray fold with its charge and its request for at
most one vertex past the cap, the dual's one degenerate-norm guard, met
on a ray, at a lone child and on a sibling set, the ray rows that an
operation keeps per row key as prefixes from n = 2, read by slice and
extended only by a chain from within or at their end, the stream's one
budget, bound whenever another is current, its rungs, first levels,
up-steps and base moment against the exact oracle and the identities of
scaling and of the dual's dual, the one-vertex rungs it folds where the
level loop took a weight per level, the shells it builds only where a
verdict reads them, each term summed in place from the stream's entries,
the heuristic's stream stops, its
insufficient-terms guard, each of its tail rules and the order they are
tried in, the one compensated step of `NeumaierSum.add` and the running
sum it returns,
the command line's one parser per process, the Jacobi rank of the
coverage Gram, the certified Euler–Maclaurin block of the Prop. 5.1 dual
plugin with the tail integral under it, balancedness compared within each
depth class of a window and failed by a NaN or infinite norm, the defect
diagonal's one walk, the wandering check's NaN residuals, the weight
relation's NaN-dominant worst, the norm-increase check's NaN-dominant
minimum, JSON output that refuses non-finite values and the alpha table
row writer's finiteness guard,
the one-step norm memo kept per weight system and kernel with its NaN
entries, the operation scope that a nested call joins without a budget of
its own, and `repro`'s third-order check reading `classify`'s entries.

    python tools/mutants.py

Each entry below is a one-line edit of the library (a mutant) and the one
test that must catch it.  The script first runs every named test on an
unmutated copy of `src` and `tests`; they must pass.  Then, for each
mutant, it copies `src` and `tests` to a fresh temporary directory, applies
the edit there (the old text must occur exactly once in the file, so an
entry that has drifted from the code fails loudly) and runs the one test.
A mutant is killed when that test fails.  The exit status is 1 if a named
test fails unmutated, an edit does not apply, or a mutant survives.

Nothing is written into the checkout: the copies live in temporary
directories, pytest's cache is off, and no bytecode is written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WOLD = "src/woldlab/wold.py"
SERIES = "src/woldlab/series.py"
WEIGHTS = "src/woldlab/weights.py"
TREE = "src/woldlab/tree_core.py"
CLI = "src/woldlab/cli.py"
NUMERICS = "src/woldlab/numerics.py"
OPERATOR = "src/woldlab/operator.py"
TABLE = "tests/test_wold.py::test_outcome_of_each_finding"
RULE = "tests/test_wold.py::test_outcome_rule_over_every_ingredient_state"
WARM = "tests/test_weights.py::test_warm_ray_rows_are_the_log_weights_bit_for_bit"
NUDGE = "tests/test_series.py::test_plugin_declines_a_nudged_weight[{}]"
KNOWN_RANK = "tests/test_wold.py::test_rank_of_known_grams[{}]"
EXACT_BLOCK = "tests/test_numerics.py::test_quadratic_tail_sum_certifies_exact_blocks[{}]"
LAST_ULPS = "tests/test_numerics.py::test_quadratic_tail_integral_to_the_last_ulps[{}]"
ORACLE = "tests/test_series.py::test_random_prop51_terms_are_the_exact_oracles_within_rounding"
WANDER = "tests/test_operator.py::test_wandering_check_fails_closed_on_non_finite_weights[{}]"
NAN_BELOW = "tests/test_operator.py::test_wandering_residuals_keep_a_nan_below_a_balanced_window"
HEURISTIC = "tests/test_series.py::test_heuristic_{}"
NORM_KEYS = "tests/test_weights.py::test_norm_memos_are_kept_per_weight_system_and_kernel"
NESTED = "tests/test_tree_core.py::test_a_nested_scope_builds_no_budget_and_reads_no_cap"

# (file, old text, new text, pytest node id)
#
# The spot-check clash rules once also required the base verdict to be
# definitive.  Those conjuncts were equivalent mutants: a downgrade only
# touches an answer that is not Inconclusive, and such an answer already
# read a definitive base.  They were removed from the code, not listed here.
MUTANTS = [
    # the provenance rule in wold.outcome_of
    (WOLD, "if not all(a.definitive for a in read):",
     "if not any(a.definitive for a in read):", TABLE),
    (WOLD, "        read = alphas\n", "        read = (primal,)\n", RULE),
    (WOLD, "(s.definitive and _clash(s, primal))", "(_clash(s, primal))", RULE),
    (WOLD, "sd.definitive and _clash(sd, dual)", "_clash(sd, dual)", RULE),
    (WOLD, "    if clashes:\n", '    if clashes and outcome == "NoWold":\n', RULE),
    # the plugins' premise checks in series.py; the widened fit tolerance is
    # listed once per Prop. 5.1 control, so each must catch it
    (SERIES, "if rel_resid > PREMISE_TOL:", "if rel_resid > 1e-3:",
     NUDGE.format("prop51-primal")),
    (SERIES, "if rel_resid > PREMISE_TOL:", "if rel_resid > 1e-3:",
     NUDGE.format("prop51-dual")),
    (SERIES, "abs(t - 1.0) > PREMISE_TOL", "abs(t - 1.0) > 0.1",
     NUDGE.format("constant-primal")),
    (SERIES, "abs(r - 4.0) > 4.0 * PREMISE_TOL", "abs(r - 4.0) > 0.5",
     NUDGE.format("constant-dual")),
    (SERIES, "isinstance(root, Prop51Weights) or depth > 1",
     "isinstance(root, Prop51Weights)",
     "tests/test_series.py::test_dual_of_a_dual_gets_no_analytic_verdict"),
    # the dual miss charges only the siblings the walk did not reach, and
    # tqb's closed-form sibling set keeps the spine pair at n == 1
    (WEIGHTS, "charge(len(kids) - 1)", "charge(len(kids))",
     "tests/test_weights.py::test_dual_miss_charges_and_fills_its_sibling_set[v1-siblings1]"),
    (TREE, "if n >= 2:\n            return (v,)", "if n >= 1:\n            return (v,)",
     "tests/test_tree_core.py::test_tqb_siblings_switch_between_spine_and_rays[1]"),
    # tqb's closed-form ray stands for `depth` vertices and holds exactly
    # them, the stream's fold goes on from its last vertex, charges each of
    # them and asks for at most one past the cap, so that it trips at the
    # level loop's generation, and a kernel without a closed form returns
    # no chain; the dual's one degenerate-norm guard holds for a lone
    # child, on a ray and one at a time, and for a sibling set
    (TREE, "RayChain(n + 1, n + depth + 1, m)", "RayChain(n + 1, n + depth, m)",
     "tests/test_tree_core.py::test_tqb_ray_chain_describes_the_walk"),
    (TREE, "(self.stop - 1, self.m)", "(self.stop, self.m)", ORACLE),
    (SERIES, "charge(chain.stop - chain.start)", "charge(chain.stop - chain.start - 1)",
     "tests/test_series.py::test_dual_table_charges_each_ray_vertex_once"),
    (SERIES, "budget.cap - budget.used + 1)", "budget.cap - budget.used)",
     "tests/test_series.py::test_a_cap_trips_at_the_level_loops_generation[False]"),
    (TREE, 'knows none.\n        """\n        return None', 'knows none.\n        """\n        return ()',
     "tests/test_tree_core.py::test_default_ray_knows_no_closed_form"),
    (WEIGHTS, "if norm < NORM_FLOOR:", "if False:",
     "tests/test_series.py::test_stream_raises_on_a_degenerate_ray_norm"),
    (WEIGHTS, "if norm < NORM_FLOOR:", "if False:", "tests/test_weights.py::test_dual_degenerate_norm"),
    (WEIGHTS, "if norm < NORM_FLOOR:", "if False:",
     "tests/test_weights.py::test_sibling_filled_miss_raises_on_a_degenerate_norm"),
    # ray rows: one per row key (prop51's (a_m, b_m), the tampered ray's own),
    # none for a subclass with a new log_weight, a prefix from n = 2 indexed
    # by n - 2 and read by slice, never extended by a chain from n = 1,
    # whose first weight the key does not vouch for, nor by one that starts
    # past the row's end
    (WEIGHTS, "return (self.a.table.get(m, self.a.default), self.b.table.get(m, self.b.default))",
     "return self.a.table.get(m, self.a.default)", WARM),
    (CLI, "m == _TAMPER_VERTEX[1]", "False", WARM),
    (WEIGHTS, "cls.row_key = WeightSystem.row_key", "pass",
     "tests/test_weights.py::test_a_new_log_weight_gets_the_per_vertex_ray_form"),
    (WEIGHTS, "return row[start - 2:stop - 2]", "return row[start - 1:stop - 1]", WARM),
    (WEIGHTS, "if 2 <= start <= end:", "if start <= end:",
     "tests/test_weights.py::test_ray_rows_are_runs_read_by_slice[from-one-0]"),
    (WEIGHTS, "if 2 <= start <= end:", "if 2 <= start:",
     "tests/test_weights.py::test_a_deep_ray_keeps_rows_of_the_walked_length[0]"),
    # a stream takes each miss with its own budget current, so a dual miss
    # charges its sibling there, in an operation or out of one, and binds it
    # when another operation's budget is current too
    (SERIES, "token = bind_budget(budget)", "token = bind_budget(Budget())",
     "tests/test_tree_core.py::test_stream_budget_is_bound_once_in_or_out_of_an_operation"
     "[True-9]"),
    (SERIES, "if bound_budget() is not budget else None", "if bound_budget() is None else None",
     "tests/test_tree_core.py::test_a_stream_resumed_in_another_operation_charges_its_own_budget"),
    # the term stream against the exact oracle: the deepest rung below n in
    # the stream's inline rung search, the base moment's update, the
    # up-steps kept per weight system and the dual's sibling-set norm
    (SERIES, "if j < k < n:", "if j < k:", ORACLE),
    (SERIES, "base_log += lw", "base_log = lw", ORACLE),
    (SERIES, '("steps", ws, kernel)', '("steps", kernel)', ORACLE),
    (WEIGHTS, "if len(kids) == 1:", "if len(kids) <= 2:", ORACLE),
    # a miss weighs the first level it walks down from, which scaling every
    # weight must not change; a lone child's dual divides by its squared
    # weight, which the dual's dual must undo; and a one-vertex rung folds
    # its ray from the rows, not one children and log_weight call per level
    (SERIES, "rung = [(c, log_weight(c)) for c in children(step[1]) if c != top]",
     "rung = [(c, 0.0) for c in children(step[1]) if c != top]",
     "tests/test_series.py::test_terms_are_invariant_under_scaling_the_weights[3.0-primal]"),
    (WEIGHTS, "logs, norm = None, math.exp(2.0 * own)", "logs, norm = None, math.exp(own)",
     "tests/test_series.py::test_the_dual_of_the_dual_has_the_primal_terms[v0]"),
    (SERIES, "elif len(rung) == 1:", "elif False:",
     "tests/test_cli.py::test_command_touches_are_pinned[wold-2,-2]"),
    # the stream builds generations from build_from on, the primal plugin
    # from the first one its fit reads, and the fit declines a non-finite K
    (SERIES, "if n >= build_from:", "if n > build_from:",
     "tests/test_series.py::test_generations_before_build_from_are_skipped_not_zero"),
    (SERIES, "0 if depth else lo)", "0 if depth else lo - 1)",
     "tests/test_series.py::test_primal_plugin_builds_only_the_shells_it_fits[v0-24-40]"),
    (SERIES, "_first_terms(ws, kernel, v, upto, n0 + 1)", "_first_terms(ws, kernel, v, upto)",
     "tests/test_series.py::test_constant_plugin_builds_only_the_shells_past_the_ray_depth"
     "[v1-42-0]"),
    (SERIES, "if k_fit <= 0.0 or not math.isfinite(k_fit):", "if k_fit <= 0.0:",
     "tests/test_series.py::test_plugin_declines_a_non_finite_fit[False-at0-nan]"),
    # each term is summed in place from the stream's log moments relative to
    # the base, and `add`, which `extend` calls per value, takes the
    # compensated step and returns the running sum
    (SERIES, "e = 2.0 * (acc - base_log)", "e = 2.0 * acc",
     "tests/test_series.py::test_alpha_terms_sum_the_stream_entries_in_place[constant]"),
    (NUMERICS, "            self.compensation += (total - t) + value\n        else:\n"
     "            self.compensation += (value - t) + total\n",
     "            pass\n        else:\n            pass\n",
     "tests/test_numerics.py::test_add_and_extend_take_the_neumaier_steps"),
    (NUMERICS, "return t + self.compensation", "return t",
     "tests/test_numerics.py::test_add_and_extend_take_the_neumaier_steps"),
    # the heuristic stops the stream on a non-finite term, on a partial sum
    # past the threshold and on a window-long empty run, fits no tail to
    # fewer than WINDOW nonzero terms, and tries its tail rules in order
    (SERIES, "if not isfinite(t):", "if math.isnan(t):", HEURISTIC.format("overflow")),
    (SERIES, "if partial > THRESHOLD:", "if t > THRESHOLD:",
     HEURISTIC.format("threshold_divergence")),
    (SERIES, "if empty_run >= WINDOW:", "if empty_run > WINDOW:", HEURISTIC.format("empty_run")),
    (SERIES, "if len(recent) < WINDOW:", "if len(recent) < 2:",
     HEURISTIC.format("insufficient_terms")),
    (SERIES, "if ratio > 1.0 + DELTA:", "if ratio > 1.0 + 5.0 * DELTA:",
     HEURISTIC.format("growth_divergence")),
    (SERIES, "if ratio < 1.0 - DELTA:", "if ratio < 0.0:", HEURISTIC.format("geometric_tail")),
    (SERIES, "if floor >= TERM_FLOOR:", "if floor >= 1e3 * TERM_FLOOR:",
     HEURISTIC.format("term_floor")),
    (SERIES, "TAIL_RULES = (_tail_growth, _tail_geometric, _tail_floor, _tail_undecided)",
     "TAIL_RULES = (_tail_growth, _tail_floor, _tail_geometric, _tail_undecided)",
     "tests/test_series.py::test_tail_rules_are_tried_in_order"),
    # a defect diagonal walks down from v once, charging each level once
    (OPERATOR, "level = descend(kernel, level, 1, ws)",
     "level = descend(kernel, [(v, 0.0)], k, ws)",
     "tests/test_operator.py::test_defect_charges_each_level_once[v0]"),
    # main reuses the parser it built first instead of building one per call
    (CLI, "@functools.cache\ndef _build_parser", "def _build_parser",
     "tests/test_cli.py::test_main_builds_its_parser_once"),
    # the coverage Gram's rank counts |eigenvalue| > 1e-8, and each Jacobi
    # rotation is orthogonal
    (WOLD, "abs(a[i][i]) > 1e-8", "abs(a[i][i]) >= 0.0", KNOWN_RANK.format("zero")),
    (WOLD, "a[k][p] = a[p][k] = c * akp - s * akq", "a[k][p] = a[p][k] = c * akp + s * akq",
     KNOWN_RANK.format("rank-one")),
    # the tail integral takes pi/2 - atan as one atan2 and a log near 0 as
    # log1p; the Euler–Maclaurin sum keeps its fifth correction, its full
    # remainder and its rounding term, and the plugin's block starts where
    # the explicit sum stops
    (NUMERICS, "math.atan2(root, 2.0 * b * x0 + a)",
     "(math.pi / 2.0 - math.atan((2.0 * b * x0 + a) / root))",
     LAST_ULPS.format("complex-1-1-2000.0")),
    (NUMERICS, "math.log1p(root / (b * (x0 - r1))) / root",
     "math.log((x0 - (-a - root) / (2.0 * b)) / (x0 - r1)) / root",
     LAST_ULPS.format("real-3-1-100000.0")),
    (NUMERICS, "-1.0 / 1209600.0,\n                   1.0 / 47900160.0)", "-1.0 / 1209600.0)",
     "tests/test_numerics.py::test_quadratic_tail_sum_errs_at_the_sixth_correction"
     "[double-2-1-5]"),
    (NUMERICS, "_EM_LAST_BERNOULLI / (b * d ** 11)", "_EM_LAST_BERNOULLI / (100.0 * b * d ** 11)",
     EXACT_BLOCK.format("double-2-1-1")),
    (NUMERICS, "_EM_LAST_BERNOULLI / (b * d ** 11)", "_EM_LAST_BERNOULLI / (b * d ** 13)",
     EXACT_BLOCK.format("double-2-1-1")),
    (NUMERICS, "rounding = 16.0 * EPS", "rounding = 0.0 * EPS",
     EXACT_BLOCK.format("complex-1-1-911")),
    (SERIES, "quadratic_tail_sum(a_tail, b_tail, x_s)", "quadratic_tail_sum(a_tail, b_tail, x_s - 1)",
     "tests/test_series.py::test_dual_prop51_plugin_matches_the_term_by_term_oracle"
     "[const:1-const:1]"),
    # balancedness holds each norm against its own depth class's first, never
    # against another level's, and a NaN or infinite pair is no match
    (WEIGHTS, "lead_v, lead = cls[0]", "lead_v, lead = norm_classes[0][0]",
     "tests/test_weights.py::test_is_balanced_never_compares_across_depths"),
    (WEIGHTS, "if not abs(val - lead) <= tol:", "if abs(val - lead) > tol:",
     WANDER.format("nan")),
    (WEIGHTS, "if not abs(val - lead) <= tol:", "if abs(val - lead) > tol:",
     WANDER.format("inf")),
    # the wandering check fails closed: kernel vectors keep their NaN
    # entries, and a NaN residual wins each running maximum it meets
    (OPERATOR, "if not abs(x) < PRUNE}", "if abs(x) >= PRUNE}", NAN_BELOW),
    (NUMERICS, "if not (math.isnan(best) or value <= best):", "if value > best:", NAN_BELOW),
    (NUMERICS, "if not (math.isnan(best) or value <= best):", "if not value <= best:",
     "tests/test_numerics.py::test_worst_keeps_the_first_nan"),
    (WEIGHTS, "if not (math.isnan(least) or val >= least):", "if val < least:",
     "tests/test_weights.py::test_is_norm_increasing_fails_closed_on_a_nan_norm"
     "[kernel2-window2-bad2]"),
    # an operation memoizes each one-step norm once per (weight system,
    # kernel, vertex), a NaN one included
    (WEIGHTS, 'setdefault(("norms", ws, kernel)', 'setdefault(("norms", kernel)', NORM_KEYS),
    (WEIGHTS, 'setdefault(("norms", ws, kernel)', 'setdefault(("norms", ws)', NORM_KEYS),
    (WEIGHTS, "norm = norms[u] = _norm_sq(ws, kernel, u, 1)", "norm = _norm_sq(ws, kernel, u, 1)",
     "tests/test_weights.py::test_one_step_norms_walk_each_vertex_once_per_operation"),
    (WEIGHTS, "if norm is None:", "if norm is None or math.isnan(norm):",
     "tests/test_weights.py::test_a_nan_norm_is_memoized_and_the_checks_still_fail_closed"),
    # a nested scope, decorator or `with`, joins the current budget
    (TREE, "            if get() is not None:\n", "            if False:\n", NESTED),
    (TREE, "        budget = _operation_budget.get()\n        self._token = None\n",
     "        budget = None\n        self._token = None\n", NESTED),
    # the weight relation keeps a NaN excess as its worst
    (WOLD, "_, at = worst(excess)", "_, at = worst(e for e in excess if e[0] == e[0])",
     "tests/test_wold.py::test_weight_relation_fails_closed_on_a_nan_residual"),
    # JSON output refuses NaN and infinity, and an alpha table with a
    # non-finite row leaves the row writer for the strict encoder
    (CLI, "allow_nan=False", "allow_nan=True",
     "tests/test_cli.py::test_wold_on_non_finite_zpath_weights_exits_two[nan]"),
    (CLI, "if not all(map(math.isfinite, chain.from_iterable(rows))):", "if False:",
     "tests/test_cli.py::test_alpha_non_finite_row_exits_two_naming_its_field"),
    # repro's check 5 reads d_3 at a window vertex from classify's entries
    (CLI, "return rep.entries[v] if v in rep.entries",
     "return rep.entries[(0, 0)] if v in rep.entries",
     "tests/test_cli.py::test_stdout_bytes_are_pinned[repro-ex52-tamper]"),
]


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def run_tests(where: Path, *node_ids: str) -> int:
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids],
        cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    node_ids = list(dict.fromkeys(entry[3] for entry in MUTANTS))
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        rc = run_tests(Path(tmp), *node_ids)
    if rc != 0:
        print(f"unmutated: the named tests exit {rc}; rerun them to see why")
        return 1
    failed = 0
    for path, old, new, node_id in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(Path(tmp))
            target = Path(tmp) / path
            text = target.read_text(encoding="utf-8")
            count = text.count(old)
            if count != 1:
                print(f"DRIFT     {path}: {old.strip()!r} occurs {count} times")
                failed += 1
                continue
            target.write_text(text.replace(old, new), encoding="utf-8")
            rc = run_tests(Path(tmp), node_id)
        # pytest exits 1 when a test failed; other codes mean the run broke
        status = {0: "SURVIVED", 1: "killed"}.get(rc, f"BROKE ({rc})")
        failed += rc != 1
        print(f"{status:9} {path}: {old.strip()!r} -> {new.strip()!r}  [{node_id}]")
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
