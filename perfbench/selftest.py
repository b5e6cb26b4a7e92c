"""Self-tests of the benchmark: inputs, oracle and output format.

    python3 perfbench/selftest.py

Not collected by pytest (the file name does not start with test_): the tiny
runs take about a minute.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from permrealize import check_necessary, make_spectrum, small_order  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
    ]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


#: Per-layer metrics that must read > 0 on a workload: the layers its ops
#: call.  A layer reads 0 when the replay no longer reaches its wrapper.
LAYERS_USED = {
    "small-n": (
        "spectrum.make_spectrum_ms", "spectrum.classify_ms",
        "small_order.realize_ms", "companion.realize_ms", "suleimanova.realize_ms",
        "linalg.poly_from_roots_ms", "linalg.char_poly_exact_ms",
        "linalg.is_nonnegative_ms", "linalg.matrix_to_json_ms",
        "verify.certify_ms", "linalg.matrix_from_csv_ms", "verify.detect_blocks_ms",
        "explorer.fit_first_row_ms", "explorer.evals_per_s",
        "verify.charpoly_run_ratio", "ops.matrix_entries",
        "explorer.tuples_per_call", "explorer.evals_per_call", "trace.overhead_ratio",
    ),
    "large-n": (
        "spectrum.make_spectrum_ms", "spectrum.classify_ms", "suleimanova.realize_ms",
        "linalg.is_nonnegative_ms", "linalg.is_permutative_ms", "linalg.max_abs_ms",
        "linalg.matrix_to_json_ms", "verify.certify_ms", "verify.certify_other_ms",
        "linalg.matrix_from_csv_ms", "verify.detect_blocks_ms",
        "ops.matrix_entries", "trace.overhead_ratio",
    ),
}


def _realize_stdout(M: np.ndarray, case=None) -> str:
    return json.dumps({"matrix": M.tolist(), "case": case})


class TinyRuns(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, metrics in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    p = _run(ROOT, w["name"], trace)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    lines = p.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], p.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in metrics},
                    )
                    for m in metrics:
                        pattern = rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}$"
                        self.assertTrue(
                            any(re.match(pattern, ln) for ln in lines[:-1]),
                            f"no line '{m['name']} <value> {m['unit']}'",
                        )
                    if trace:
                        for name in LAYERS_USED[w["name"]]:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_refuses_to_run_without_the_program(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, SCRATCH / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            p = _run(SCRATCH, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_every_seed_same_shape(self):
        def shape(ops):
            # The seed may pick which small-order ops run exact, not how many.
            return [
                (o.kind, o.n, o.method, o.exact and o.case is None, o.perturbed, o.strategy, o.budget)
                for o in ops
            ], sum(o.exact for o in ops)

        SCRATCH.mkdir(parents=True, exist_ok=True)
        try:
            for w in workloads.WORKLOADS:
                a = workloads.make_ops(w, 5, str(SCRATCH))
                b = workloads.make_ops(w, 5, str(SCRATCH))
                c = workloads.make_ops(w, 6, str(SCRATCH))
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)
                self.assertEqual(shape(a), shape(c))
                # The cold op of setup_s is the first; it never varies in kind.
                self.assertFalse(a[0].exact or c[0].exact)
                self.assertEqual(a[0].argv[2:], c[0].argv[2:])
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_large_output_length_does_not_depend_on_the_seed(self):
        # A large realize op spends most of its time printing the matrix,
        # whose rows are permutations of its first row.
        for n in workloads.LARGE_ORDERS:
            lengths = []
            for seed in range(10):
                values = workloads._large_suleimanova(random.Random(seed), n, zero_trace=False)
                row = workloads.alpha_matrix(values)[0]
                lengths.append(sum(len(repr(float(v))) for v in row))
            self.assertLess(max(lengths) / min(lengths), 1.02, n)

    def test_small_n_covers_every_case_tag(self):
        tags = {v for k, v in vars(small_order).items() if k.startswith("CASE_")}
        for seed in range(20):
            ops = workloads.realize_small_ops(random.Random(seed))
            self.assertEqual({o.case for o in ops if o.case}, tags)

    def test_explore_spectra_pass_the_necessary_conditions(self):
        for seed in range(20):
            for op in workloads.explore_ops(random.Random(seed)):
                rep = check_necessary(make_spectrum([float(v) for v in op.values]))
                self.assertTrue(rep.power_sum_ok and rep.perron_ok, op.values)
                self.assertEqual(sum(op.values), 0)


class Reference(unittest.TestCase):
    def test_reference_does_not_load_the_program(self):
        # A change to permrealize must not change the machine's yardstick.
        code = (
            "import sys, reference; reference.Reference().seconds(); "
            "sys.exit(any(m.split('.')[0] == 'permrealize' for m in sys.modules))"
        )
        p = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, timeout=120)
        self.assertEqual(p.returncode, 0)

    def test_speed_factor_weights_each_reading_by_its_call(self):
        import reference
        import run

        nominal = reference.NOMINAL_SECONDS
        self.assertAlmostEqual(run.speed_factor([1.0, 1.0], [nominal, nominal]), 1.0)
        # The 3-s call ran while the machine was twice as slow.
        factor = run.speed_factor([1.0, 3.0], [nominal, 2 * nominal])
        self.assertAlmostEqual(factor, (1.0 + 3.0 * 2) / 4)


class Oracle(unittest.TestCase):
    def test_rejects_a_planted_wrong_matrix(self):
        for n in (5, 12, 64):
            values = workloads._suleimanova(random.Random(n), n, zero_trace=False)
            op = workloads._realize(values)
            M = workloads.alpha_matrix(values)
            self.assertIsNone(oracle.check(op, 0, _realize_stdout(M)))
            wrong = M.copy()
            wrong[1, 1] += 1.0
            self.assertIsNotNone(oracle.check(op, 0, _realize_stdout(wrong)))
            negative = M.copy()
            negative[0, 1] = -0.5
            self.assertIsNotNone(oracle.check(op, 0, _realize_stdout(negative)))
            self.assertIsNotNone(oracle.check(op, 2, _realize_stdout(M)))

    def test_rejects_a_wrong_case_tag(self):
        op = workloads._realize([5, -1, -2], method="small", case="N3-Suleimanova")
        M = workloads.alpha_matrix(op.values)
        self.assertIsNone(oracle.check(op, 0, _realize_stdout(M, "N3-Suleimanova")))
        self.assertIsNotNone(oracle.check(op, 0, _realize_stdout(M, "N3-DirectSum")))

    def test_rejects_a_planted_wrong_verdict(self):
        for n in (8, 64):
            correct = workloads.Op(kind="verify", argv=(), n=n, values=(), perturbed=False)
            perturbed = workloads.Op(kind="verify", argv=(), n=n, values=(), perturbed=True)
            for rc in (0, 3):
                self.assertIsNone(oracle.check(correct, rc, ""))
            for rc in (2, 3):
                self.assertIsNone(oracle.check(perturbed, rc, ""))
            self.assertIsNotNone(oracle.check(correct, 2, ""))
            self.assertIsNotNone(oracle.check(perturbed, 0, ""))
            self.assertIsNone(oracle.known_defect(correct, 2))
            self.assertEqual(
                oracle.known_defect(perturbed, 0) is not None, n > oracle.EIG_MAX_N
            )

    def test_rejects_a_certified_or_zero_explore_line(self):
        op = workloads.explore_ops(random.Random(1))[0]
        line = lambda obj, cert: json.dumps({"objective": obj, "certified": cert})  # noqa: E731
        self.assertIsNone(oracle.check(op, 3, line(0.5, False) + "\n"))
        self.assertIsNotNone(oracle.check(op, 3, line(0.5, True) + "\n"))
        self.assertIsNotNone(oracle.check(op, 3, line(0.0, False) + "\n"))
        self.assertIsNotNone(oracle.check(op, 0, line(0.5, False) + "\n"))
        self.assertIsNotNone(oracle.check(op, 3, ""))


if __name__ == "__main__":
    unittest.main()
