"""End-to-end benchmark of the permrealize command line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client calls ``permrealize.cli.main(argv)`` in this process
in a closed loop, over whole cycles of the workload's ops (workloads.py),
with stdout and stderr captured in memory.  Each op is timed end to end:
parse, classify, construct, certify, serialize.  Every output then goes
through the numpy oracle (oracle.py), outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics: after each untraced CLI call the op is replayed through the
library twice, untraced and traced (tracing.py), and the spans are written to
``.perfbench_out/``.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it repeat the
numbers for people.
"""

from __future__ import annotations

import os

#: BLAS threads, fixed before numpy loads so the runs do not depend on how
#: busy the machine's other cores are.  At most nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402  (this file's directory is on sys.path)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh processes per run for setup_s; the median is reported.
SETUP_RUNS = 15
#: Reference readings on each side of a cold run that scale it.
COLD_REF_WINDOW = 3
SETUP_CODE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "from permrealize.cli import main; sys.exit(main(json.loads(sys.argv[2])))"
)
#: A tail percentile is printed only with at least ten samples beyond it.
P90_MIN_OPS = 100

def _call(main, argv) -> tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = main(list(argv))
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue()


def _cold_seconds(op, expected_rc: int) -> float:
    """Wall time of a fresh process that imports permrealize and runs one op."""
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms and the
    # times come out in those steps.
    p = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(list(op.argv))],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    dt = time.perf_counter() - t0
    if p.returncode != expected_rc:
        raise RuntimeError(f"cold op exited {p.returncode}, in-process run exited {expected_rc}")
    return dt


class Outcomes:
    """Distinct (op, exit code, stdout) results with their counts.

    A repeated op almost always prints the same bytes, so the oracle judges
    each distinct output once and its verdict counts for every repeat.
    """

    def __init__(self) -> None:
        self._seen: dict[tuple, list] = {}

    def add(self, i: int, rc: int, stdout: str) -> None:
        key = (i, rc, hashlib.sha1(stdout.encode()).digest())
        if key in self._seen:
            self._seen[key][0] += 1
        else:
            self._seen[key] = [1, stdout]

    def judge(self, ops, oracle) -> tuple[int, int, dict, list]:
        """(attempted, failed, known-defect counts, unexpected failures)."""
        attempted = failed = 0
        known: dict[str, int] = {}
        unexpected = []
        for (i, rc, _), (count, stdout) in self._seen.items():
            attempted += count
            reason = oracle.check(ops[i], rc, stdout)
            if reason is None:
                continue
            failed += count
            tag = oracle.known_defect(ops[i], rc)
            if tag is None:
                unexpected.append((" ".join(ops[i].argv)[:160], reason))
            else:
                known[tag] = known.get(tag, 0) + count
        return attempted, failed, known, unexpected


def _cycles(ops, seconds: float, step) -> int:
    """Run whole cycles of ``ops`` until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        for i, op in enumerate(ops):
            step(i, op)
        cycles += 1
        if time.perf_counter() >= deadline:
            return cycles


def speed_factor(lat: list[float], ref: list[float]) -> float:
    """How slow the machine ran during the timed calls, 1 at nominal speed.

    ``ref[i]`` is the reference workload's time right after call ``i``; each
    reading is weighted by the call's own time, so the factor is the
    machine's speed averaged over the time the calls took.
    """
    weighted = sum(dt * r for dt, r in zip(lat, ref)) / sum(lat)
    return weighted / reference.NOMINAL_SECONDS


def _end_to_end(main, ops, seconds, outcomes) -> tuple[dict, list]:
    ref = reference.Reference()
    rc0, _, _ = _call(main, ops[0].argv)  # warm-up, also the cold op's exit code
    lat: list[float] = []
    ref_s: list[float] = []
    per_op: list[list[float]] = [[] for _ in ops]
    cold: list[tuple[float, int]] = []  # (seconds, number of calls before it)
    t_start = time.perf_counter()

    def step(i, op):
        # The cold runs of setup_s are spread evenly over the run, between
        # two calls, so that their median spans the machine's slow and fast
        # phases rather than the few seconds of one batch.
        due = t_start + len(cold) * seconds / SETUP_RUNS
        if len(cold) < SETUP_RUNS and time.perf_counter() >= due:
            cold.append((_cold_seconds(ops[0], rc0), len(lat)))
        rc, dt, stdout = _call(main, op.argv)
        lat.append(dt)
        ref_s.append(ref.seconds())
        per_op[i].append(dt)
        outcomes.add(i, rc, stdout)

    cycles = _cycles(ops, seconds, step)
    while len(cold) < SETUP_RUNS:  # a run shorter than one cycle per sample
        cold.append((_cold_seconds(ops[0], rc0), len(lat)))
        ref_s.append(ref.seconds())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = speed_factor(lat, ref_s)
    # Each cold run is scaled by the median reference reading of the calls
    # around it: a fresh process slows in the machine's slow phases too.
    def around(k):
        return statistics.median(ref_s[max(0, k - COLD_REF_WINDOW) : k + COLD_REF_WINDOW])

    setup_s = statistics.median(t * reference.NOMINAL_SECONDS / around(k) for t, k in cold)
    # Completed ops over the summed wall time of the timed calls, scaled to
    # the nominal machine speed: the bookkeeping between calls is not
    # timed, the program's own garbage collection is.
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (speed * len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = [
        f"cycles {cycles} x {len(ops)} ops, {len(lat)} timed ops",
        f"machine speed factor {speed:.4g} (reference {1000.0 * statistics.median(ref_s):.4g} ms, "
        f"nominal {1000.0 * reference.NOMINAL_SECONDS:.4g} ms)",
        f"unscaled: ops_per_s {len(lat) / sum(lat):.6g} 1/s, "
        f"setup_s {statistics.median(t for t, _ in cold):.6g} s",
        f"latency_p50_ms {1000.0 * statistics.median(lat):.6g} ms",
    ]
    if len(lat) >= P90_MIN_OPS:
        p90 = statistics.quantiles(lat, n=10)[-1]
        notes.append(f"latency_p90_ms {1000.0 * p90:.6g} ms")
    explore = [i for i, op in enumerate(ops) if op.kind == "explore"]
    if explore:
        evals = sum(ops[i].budget * len(per_op[i]) for i in explore)
        wall = sum(sum(per_op[i]) for i in explore)
        notes.append(f"explore evals_per_s {evals / wall:.6g} 1/s (budget / wall)")
    return metrics, notes


def _per_layer(main, ops, seconds, outcomes, spans_path) -> tuple[dict, list]:
    import tracing

    rec = tracing.Recorder()
    runs = []
    _call(main, ops[0].argv)  # warm-up

    def cli(i, op):
        rc, cli_s, stdout = _call(main, op.argv)
        outcomes.add(i, rc, stdout)
        return cli_s

    def traced(i, op):
        rec.op_id = len(runs)
        with tracing.instrumented(rec):
            return tracing.replay(op, rec)

    def step(i, op):
        # Whichever of the three calls runs first after a gc pays the
        # coldest caches; rotating the order spreads that cost evenly.
        calls = (cli, lambda i, op: tracing.replay(op), traced)
        k = len(runs) % 3
        times = {}
        for fn in calls[k:] + calls[:k]:
            gc.collect()
            times[fn] = fn(i, op)
        runs.append((op, times[calls[0]], times[calls[1]], times[calls[2]]))

    cycles = _cycles(ops, seconds, step)
    rec.write_jsonl(spans_path)
    notes = [f"cycles {cycles} x {len(ops)} ops, {len(runs)} replayed ops", f"spans {spans_path}"]
    return tracing.layer_metrics(rec, runs), notes


def _machine_note() -> str:
    import numpy

    return (
        f"machine: nproc {os.cpu_count()}, {platform.machine()}, "
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"blas threads {BLAS_THREADS}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permrealize" / "__init__.py").is_file():
        print(f"error: no permrealize sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from permrealize.cli import main as cli_main

    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.make_ops(args.workload, args.seed, str(work))
        outcomes = Outcomes()
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, notes = _per_layer(cli_main, ops, args.seconds, outcomes, str(spans))
        else:
            metrics, notes = _end_to_end(cli_main, ops, args.seconds, outcomes)
        attempted, failed, known, unexpected = outcomes.judge(ops, oracle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    print(_machine_note())
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for tag, count in known.items():
        print(f"{tag}: {count} ops")
    for cmd, reason in unexpected:
        print(f"WRONG OUTPUT: {reason}: {cmd}")
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
