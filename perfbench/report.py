"""Run the benchmark over several seeds and print every metric's quartiles.

    python3 perfbench/report.py [--trace 0|1] [--runs 10] [--first-seed 1]

For each workload of BENCHMARK.json, runs ``run.py`` for its run_seconds
once per seed (seeds first-seed, first-seed + 1, ...) and prints, for every
metric named in BENCHMARK.json, its unit, median, first and third
quartiles (``statistics.quantiles(n=4)``) and spread = (Q3 - Q1) / median.  For end-to-end metrics it also prints the
bound and whether the spread stays within it ("steady" when below a third
of it).  ``--save`` keeps the medians; ``--compare`` checks a second set of
runs against saved medians, metric by metric, within each bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def _worse(metric: dict, old: float, new: float) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    delta = (new - old) if metric["better"] == "lower" else (old - new)
    return delta / old if old else 0.0


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the medians to this JSON file")
    parser.add_argument("--compare", help="JSON file of medians from --save")
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    previous = json.loads(Path(args.compare).read_text()) if args.compare else {}
    medians: dict = {}
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [
            _run(workload, args.first_seed + i, spec["run_seconds"], args.trace)
            for i in range(args.runs)
        ]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"\n== {workload}: {args.runs} runs, {attempted} ops, {failed} failed, correct {correct}")
        all_ok &= correct
        for i, r in enumerate(results):
            values = " ".join(f"{k} {v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"  seed {args.first_seed + i}: {values}")
        medians[workload] = {}
        for m in metrics:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            medians[workload][name] = med
            line = (
                f"{name:<28} {m['unit']:<9} median {med:<12.6g} "
                f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}"
            )
            if "bound" in m:
                verdict = "steady" if spread < m["bound"] / 3 else (
                    "within bound" if spread <= m["bound"] else "WIDER THAN BOUND"
                )
                all_ok &= spread <= m["bound"]
                line += f" bound {m['bound']} {verdict}"
            if workload in previous and "bound" in m:
                worse = _worse(m, previous[workload][name], med)
                ok = worse <= m["bound"]
                all_ok &= ok
                line += f" | vs saved {worse:+.3f} {'ok' if ok else 'WORSE THAN BOUND'}"
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(medians, indent=2) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
