"""The benchmark's traced replay still reaches every library name it uses.

perfbench/tracing.py calls library functions and patches others by name,
and perfbench/workloads.py expects the small-order case tags; a rename in
the library would otherwise show only when the benchmark runs.  Its own
self-test (perfbench/selftest.py) is not collected by pytest.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from permrealize import explorer, small_order, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def _one_of_each(ops):
    """The first op of each kind, method, case, strategy and mode."""
    seen, out = set(), []
    for op in ops:
        key = (op.kind, op.method, op.exact, op.case, op.strategy, op.perturbed,
               sum(op.values) == 0)
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


SPANS = {
    "small-n": {
        "spectrum.make_spectrum", "spectrum.classify", "small_order.realize",
        "companion.realize", "suleimanova.realize", "linalg.poly_from_roots",
        "linalg.char_poly_exact", "linalg.is_nonnegative", "linalg.is_permutative",
        "linalg.max_abs", "linalg.matrix_to_json", "verify.certify", "linalg.matrix_from_csv",
        "verify.detect_blocks", "explorer.explore", "explorer.fit_first_row",
        "explorer.results_to_jsonl",
    },
    "large-n": {
        "spectrum.make_spectrum", "spectrum.classify", "suleimanova.realize",
        "linalg.is_nonnegative", "linalg.is_permutative", "linalg.max_abs",
        "linalg.matrix_to_json", "verify.certify", "linalg.matrix_from_csv",
        "verify.detect_blocks",
    },
}


@pytest.mark.parametrize("workload", sorted(SPANS))
def test_traced_replay_of_each_workload(bench, tmp_path, workload):
    tracing, workloads = bench
    ops = _one_of_each(workloads.make_ops(workload, 1, str(tmp_path)))
    kinds = {op.kind for op in ops}
    assert kinds == ({"realize", "verify", "explore"} if workload == "small-n"
                     else {"realize", "verify"})
    originals = (verify.char_poly, verify.poly_from_roots, explorer.fit_first_row,
                 explorer.char_poly_coeffs)
    rec = tracing.Recorder()
    with tracing.instrumented(rec):
        for rec.op_id, op in enumerate(ops):
            assert tracing.replay(op, rec) > 0
    assert {s[0] for s in rec.spans} == SPANS[workload]
    assert (rec.counts[tracing.EVALS] > 0) == (workload == "small-n")
    assert originals == (verify.char_poly, verify.poly_from_roots,
                         explorer.fit_first_row, explorer.char_poly_coeffs)


def test_small_n_covers_every_case_tag(bench, tmp_path):
    _, workloads = bench
    tags = {v for k, v in vars(small_order).items() if k.startswith("CASE_")}
    ops = workloads.make_ops("small-n", 1, str(tmp_path))
    assert {op.case for op in ops if op.case} == tags
