"""Mutation catalogue: each mutant must be killed by the tests named for it.

Run from the repository root (pytest collects only test_*.py, so not this):

    PYTHONPATH=src python tests/mutants.py [mutant name ...]

For each mutant the runner copies src/, tests/ and pyproject.toml (for the
pytest settings) to a temporary directory. There it runs the named tests
unmutated, which must pass; applies the one replacement; and runs them again,
where at least one must fail (a failed test, not a collection or usage
error). Before any run it checks that every mutant's
old text occurs exactly once in its file, and stops with an error when one
does not: a stale mutant is to be updated, not dropped. It exits 1 when a
mutant survives or an unmutated run fails.

A mutant of code that a later change deletes goes with that code. Known
equivalent mutants, which no test can kill, are listed apart in EQUIVALENT,
each with its reason; the runner does not run them.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    pr: int  # the numbered change that added it, as CHANGES.md counts them
    file: str  # relative to the repository root
    old: str  # must occur exactly once in file
    new: str
    tests: tuple[str, ...]  # pytest node ids; at least one must fail on the mutant


ORACLES, RELUNET, REDUCTIONS = "src/invforge/oracles.py", "src/invforge/relunet.py", "src/invforge/reductions.py"
CLI = "src/invforge/cli.py"
T_ORACLES, T_CLI = "tests/test_oracles.py::", "tests/test_cli.py::"

MUTANTS = (
    # -- LP warm start
    Mutant("lp-own-every-row", 21, "src/invforge/lp.py",
           "con.relation != EQ and _SLACK[con.relation] * rhs >= 0", "con.relation != EQ",
           ("tests/test_lp.py::test_warm_start_matches_cold",)),
    Mutant("lp-rhs-unshifted", 21, "src/invforge/lp.py",
           "con.rhs_int * den - sum(map(operator.mul, con.ints, shift))", "con.rhs_int * den",
           ("tests/test_lp.py::test_warm_start_matches_cold",)),
    # -- scan dtype bounds and the rational writer
    Mutant("dtype-float32-for-int64", 22, ORACLES,
           "return np.float32 if peak <= _FLOAT32_EXACT else np.int64", "return np.float32",
           (T_ORACLES + "test_scan_dtype_edge_at_2_24",
            T_ORACLES + "test_per_unit_dtype_is_never_wider_and_its_narrower_scans_are_exact")),
    Mutant("dtype-distance-drops-target", 22, ORACLES,
           "max(abs(v - t), abs(t)) ** p", "abs(v - t) ** p",
           (T_ORACLES + "test_scan_dtype_edge_at_2_24",
            T_ORACLES + "test_per_unit_dtype_is_never_wider_and_its_narrower_scans_are_exact")),
    Mutant("dtype-bound-drops-bias", 22, ORACLES,
           "bounds.append(max(1, (total + signed) // 2 + b))", "bounds.append(max(1, (total + signed) // 2))",
           (T_ORACLES + "test_per_unit_dtype_is_never_wider_and_its_narrower_scans_are_exact",)),
    Mutant("writer-zero-as-0/0", 22, "src/invforge/ratio.py",
           'if frac else "0/1"', 'if frac else "0/0"',
           ("tests/test_ratio.py::test_format_ratio_matches_fraction_copy",)),
    # -- the integer view
    Mutant("preactivations-bias-unscaled", 23, RELUNET,
           "+ b * d for row, b in zip(rows, bias)]", "+ b for row, b in zip(rows, bias)]",
           ("tests/test_relunet.py", T_ORACLES + "test_distance_pows_match_distance_pow")),
    Mutant("integer-chain-drops-prev", 23, RELUNET,
           "scale = math.lcm(s * prev, ", "scale = math.lcm(s, ",
           ("tests/test_relunet.py", T_ORACLES + "test_integerized_matches_reference_on_every_family")),
    Mutant("integerized-skips-target-k", 23, ORACLES,
           "k = math.lcm(scale, *(t.denominator for t in query.target)) // scale", "k = 1",
           (T_ORACLES + "test_integerized_matches_reference_on_fractional_targets",)),
    # -- SAT tables, vertex-cover rows, the scan's room rule
    Mutant("sat-table-0xF1", 24, ORACLES,
           "(0xAA, 0xCC, 0xF0)", "(0xAA, 0xCC, 0xF1)",
           (T_ORACLES + "test_sat_edge_cases_match_loop_reference",)),
    Mutant("vertexcover-zero-rows", 24, REDUCTIONS,
           "[alpha] if (i, j) in edge_set else []", "[alpha] if (i, j) in edge_set else [_ZERO]",
           (T_ORACLES + "test_vertexcover_without_zero_rows_keeps_every_answer",)),
    # the parent's rule in today's units: the room less a table and buffer of the whole layer
    Mutant("scan-parent-room-rule", 24, ORACLES,
           "size + max(2 * (left - len(group)), len(group) << (key > 0)) <= room:",
           "size <= room - 2 * cols.shape[1]:",
           (T_ORACLES + "test_scan_tabulates_a_layer_whose_table_fills_the_chunk",)),
    # -- the exact batch and deeper scans
    Mutant("batch-bias-unscaled", 25, RELUNET,
           "sum((w * current[j] for j, w in row), b * d)", "sum((w * current[j] for j, w in row), b)",
           (T_ORACLES + "test_distance_pows_match_distance_pow",)),
    Mutant("falsify-batch-strict-theta", 25, ORACLES,
           "zip(candidates, exact) if value <= query.threshold_pow)",
           "zip(candidates, exact) if value < query.threshold_pow)",
           (T_ORACLES + "test_falsify_never_skips_a_tie",)),
    Mutant("batch-target-unscaled", 25, RELUNET,
           "abs(v * t_scale - ti * scale)", "abs(v * t_scale - ti)",
           (T_ORACLES + "test_distance_pows_match_distance_pow",)),
    Mutant("scan-drops-deep-bias", 25, ORACLES,
           "total = total @ w_t\n                    total += b\n", "total = total @ w_t\n",
           (T_ORACLES + "test_scan_of_three_and_four_layers_matches_reference",
            T_ORACLES + "test_invert_binary_matches_naive_reference")),
    # -- the decision entry point and the falsifier's overflow path
    Mutant("decide-cap-strict", 26, ORACLES,
           'branching_units(query) <= resolve_cap("pattern_units")',
           'branching_units(query) < resolve_cap("pattern_units")',
           (T_ORACLES + "test_decide_routes_by_the_query",)),
    Mutant("decide-ignores-threshold-0", 26, ORACLES,
           "if (query.threshold_pow == 0 or query.p == 1) and", "if (query.p == 1) and",
           (T_ORACLES + "test_decide_routes_by_the_query",)),
    Mutant("falsify-overflow-skips-corners", 26, ORACLES,
           "z = first_hit(map(corner, range(corner_count)))", "z = None",
           (T_ORACLES + "test_falsify_checks_corners_exactly_past_float_range",
            "tests/test_cli.py::test_falsify_past_float_range_checks_corners_exactly")),
    # -- the Gram path of +/- stacked p = 2 queries
    Mutant("gram-cross-without-2", 27, ORACLES,
           "e = [[2 * v for v in row] for row in gram.tolist()]", "e = [[v for v in row] for row in gram.tolist()]",
           (T_ORACLES + "test_gram_path_matches_scan_and_naive",)),
    Mutant("gram-mirror-ignores-bias", 27, ORACLES,
           "if odd or not all(bias[r + half] == -bias[r] and tuple(", "if odd or not all(tuple(",
           (T_ORACLES + "test_gram_routing_table",)),
    Mutant("gram-doubling-lsb-first", 27, ORACLES,
           "for i, k in enumerate(range(n - 1, j, -1)):", "for i, k in enumerate(range(j + 1, n)):",
           (T_ORACLES + "test_gram_path_matches_scan_and_naive",)),
    Mutant("gram-int64-past-bound", 27, ORACLES,
           "return np.int64 if bound <= _INT64_SAFE else object", "return np.int64",
           (T_ORACLES + "test_gram_dtype_edge_at_int64",
            T_CLI + "test_reduce_halfclique_huge_bound_decides_by_gram_in_object_ints")),
    # -- the CLI's one route to a query oracle, and checks no test reached before
    Mutant("needs-without-none-check", 28, CLI,
           '    if value is None:\n        raise UnsupportedReduction(f"this route needs {flag}")\n', "",
           (T_CLI + "test_reduce_without_its_route_flag_is_usage_error",)),
    Mutant("reduce-p-check-dropped", 28, CLI,
           "if args.p not in (None, artifact.query.p):", "if False:",
           (T_CLI + "test_malformed_instance_is_one_line_usage_error",)),
    Mutant("loader-metadata-check-dropped", 28, RELUNET,
           '    if not isinstance(metadata, dict):\n        raise ValueError("metadata must be an object")\n', "",
           (T_CLI + "test_malformed_artifact_is_usage_error",)),
    Mutant("loader-shape-check-dropped", 28, RELUNET,
           "if rows < 1 or cols < 1:", "if False:",
           (T_CLI + "test_malformed_artifact_is_usage_error",)),
    Mutant("halfclique-negative-theta-check-dropped", 28, REDUCTIONS,
           "if theta < 0:", "if False:",
           (T_CLI + "test_malformed_instance_is_one_line_usage_error",)),
    Mutant("halfclique-alpha-check-dropped", 28, REDUCTIONS,
           "if alpha_pow <= 0:", "if False:",
           (T_CLI + "test_malformed_instance_is_one_line_usage_error",)),
    Mutant("last-resort-exits-no", 28, CLI,
           '.replace("\\n", " "), file=sys.stderr)\n        return EXIT_USAGE',
           '.replace("\\n", " "), file=sys.stderr)\n        return EXIT_NO',
           (T_CLI + "test_unexpected_exception_is_one_line_usage_error",)),
    Mutant("split-drops-perfect-power-leftover", 28, "src/invforge/ratio.py",
           "if root**p == remainder:", "if False:",
           ("tests/test_ratio.py::test_pth_power_split_exact",)),
    Mutant("sat-real-back-skips-clamp-check", 28, REDUCTIONS,
           "if any(abs(v) != 1 for v in clamped):", "if False:",
           ("tests/test_reductions.py::test_sat_real_satisfying_assignment_maps_exactly",)),
    Mutant("patterns-accept-binary-domain", 28, ORACLES,
           'raise ValueError("pattern enumeration needs a real latent domain")', "pass",
           (T_ORACLES + "test_invert_binary_rejects_real_domain",)),
    # -- decide reads the falsifier's corner box off the query; checks that rode along
    Mutant("decide-default-corners", 29, ORACLES,
           "falsify_real(query, corner_levels=_clamp_box(query.network))", "falsify_real(query)",
           (T_CLI + "test_falsify_past_float_range_checks_corners_exactly",
            T_CLI + "test_invert_finds_a_sat_real_witness_past_the_pattern_cap",
            T_ORACLES + "test_decide_calls_each_oracle_by_module_name")),
    Mutant("clamp-box-always-01", 29, ORACLES,
           "if second and (first.weights, second.weights) ==", "if False and (first.weights, second.weights) ==",
           (T_ORACLES + "test_clamp_box_table", T_ORACLES + "test_decide_finds_every_satisfiable_sat_real_formula")),
    Mutant("clamp-box-unshifted", 29, ORACLES,
           "return -a, c - a", "return a, c",
           (T_ORACLES + "test_clamp_box_table",)),
    Mutant("clamp-box-bias-unchecked", 29, ORACLES,
           " and {*first.bias} == {a} and {*second.bias} == {c}:", ":",
           (T_ORACLES + "test_clamp_box_table",)),
    Mutant("root-ceil-scale-64-pow-p-1", 29, "src/invforge/ratio.py",
           "Fraction(value) * 64**p, p)", "Fraction(value) * 64**(p - 1), p)",
           ("tests/test_ratio.py::test_rational_root_ceil_is_tight",)),
    Mutant("loader-unknown-key-unchecked", 29, "src/invforge/ratio.py",
           'raise ValueError(f"unknown {what} key {min(unknown)!r}")', "pass",
           (T_CLI + "test_malformed_artifact_is_usage_error",)),
    # -- layers as sparse integer rows over their least scale, written and loaded without a dense pass
    Mutant("writer-skips-gcd", 30, RELUNET,
           "g = math.gcd(w, scale)", "g = 1",
           (T_ORACLES + "test_layer_representation_matches_dense_references",)),
    Mutant("stacking-negates-only-bias", 30, REDUCTIONS,
           "inner.rows + negated,", "inner.rows + inner.rows,",
           ("tests/test_reductions.py::test_cvp_binary_shape_and_examples",)),
    Mutant("loader-drops-zero-row", 30, RELUNET,
           "        nonzeros = [[(j, w) for j, w in enumerate(flat[r * cols : (r + 1) * cols]) if w] for r in range(rows)]\n"
           "        layers.append(sparse_layer(cols, nonzeros, bias))",
           "        kept = [r for r in range(rows) if any(flat[r * cols : (r + 1) * cols])]\n"
           "        nonzeros = [[(j, w) for j, w in enumerate(flat[r * cols : (r + 1) * cols]) if w] for r in kept]\n"
           "        layers.append(sparse_layer(cols, nonzeros, [bias[r] for r in kept]))",
           (T_ORACLES + "test_layer_representation_matches_dense_references",)),
    Mutant("integer-view-always-own-rows", 30, RELUNET,
           "rows = lyr.rows if scale == den else", "rows = lyr.rows if scale else",
           (T_ORACLES + "test_layer_representation_matches_dense_references",
            T_ORACLES + "test_integerized_matches_reference_on_every_family")),
    Mutant("layer-least-scale-unchecked", 30, RELUNET,
           "if self.scale > 1 and math.gcd(", "if False and math.gcd(",
           ("tests/test_relunet.py::test_layer_invariants",
            T_ORACLES + "test_layer_representation_matches_dense_references")),
)

# (mutant, why no test can kill it); the old text is checked as a killable mutant's is
EQUIVALENT = (
    (Mutant("sat-table-unmasked", 24, ORACLES,
            '"little") & full for block in blocks)', '"little") for block in blocks)', ()),
     "_sat_models starts models at full and only ANDs it, so table bits at 2^width and above never count"),
)


def _pytest(where: Path, tests) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, capture_output=True, text=True,
    )


def _check_applies(mutant: Mutant) -> None:
    count = (ROOT / mutant.file).read_text().count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: old text occurs {count} times in {mutant.file}, not once")


def run(mutant: Mutant) -> str | None:
    """None when the mutant is killed, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="invforge-mutant-") as tmp:
        where = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, where / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", where)
        if _pytest(where, mutant.tests).returncode != 0:
            return "its tests fail unmutated"
        path = where / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        mutated = _pytest(where, mutant.tests)
    if mutated.returncode == 0:
        return "survived"
    # a kill is a failed test in the summary: an error in a plugin's report hook exits 3, not 1
    if re.search(r"\b\d+ failed\b", mutated.stdout):
        return None
    return f"the mutated run failed no test (pytest exit code {mutated.returncode})"


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        raise SystemExit(f"unknown mutants: {sorted(set(names) - {m.name for m in chosen})}")
    for mutant in (*MUTANTS, *(mutant for mutant, _ in EQUIVALENT)):
        _check_applies(mutant)
    started, failures = time.perf_counter(), 0
    for mutant in chosen:
        t0 = time.perf_counter()
        problem = run(mutant)
        failures += problem is not None
        print(f"{'KILLED' if problem is None else 'FAILED'}  PR {mutant.pr:2d}  {mutant.name}"
              f"  ({time.perf_counter() - t0:.1f} s){'' if problem is None else ': ' + problem}", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} killed in {time.perf_counter() - started:.1f} s;"
          f" {len(EQUIVALENT)} known equivalent, not run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
