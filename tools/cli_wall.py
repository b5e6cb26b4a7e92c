"""Wall time and peak memory of the CLI writing to a real stream.

For ``realize --format json`` and ``--format csv`` of the large-n
benchmark's spectra (n = 256, 512 and 1024), for ``realize --exact
--format json`` of its n = 1024 spectra, whose entries are quarters, and
``verify --exact`` of its n = 256 file as written, for ``realize --format
json`` of a Suleimanova spectrum at n = 1024 whose negatives are quarters
plus thousandths (the small-n benchmark's shape, perfbench/workloads.py
``_suleimanova``), for ``realize --method companion --format csv`` of
its first spectrum at n = 256, the one op here that prints a matrix
recording no layout, for ``verify`` of its CSV files, as written and
with one entry edited (n = 64, 128 and 256; perfbench/workloads.py, seed
SEED), and for ``verify`` of two kinds of CSV file that are not one
alpha layout, at each of OTHER_ORDERS (a dense uniform random matrix,
and a direct sum of order-2 alpha blocks; written like the benchmark's
files), this starts one fresh Python process per op
with stdout set to /dev/null.  The process
imports the library, calls ``permrealize.cli.main(argv)`` once untimed and
then REPEATS more times, each timed with its final flush of stdout; it
reports the median of those warm calls and its own ``ru_maxrss``.  stderr
is kept in memory during the calls.  The output is one line per op (the
large-n cycle has two realize spectra per order) and, with --json, one
JSON object.

Usage, from the repository root:

    python3 tools/cli_wall.py [--src src] [--json]

--src points at the ``src/`` of the checkout to measure, so two checkouts
can be compared with the same ops.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

import numpy as np  # noqa: E402

#: The large-n seed whose ops are measured, and the seed of the other files.
SEED = 1
#: Orders of the verify ops on files that are not one alpha layout.
OTHER_ORDERS = (64, 256, 512)
#: Timed warm calls per process, after one untimed call.
REPEATS = 15

#: Run in each fresh process: sys.argv[1] is the src/ directory,
#: sys.argv[2] the op's argv as JSON, sys.argv[3] the number of warm calls.
CHILD = """
import contextlib, io, json, resource, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from permrealize.cli import main
argv, repeats = json.loads(sys.argv[2]), int(sys.argv[3])
walls = []
with contextlib.redirect_stderr(io.StringIO()):
    rc = main(argv)
    for _ in range(repeats):
        t0 = time.perf_counter()
        main(argv)
        sys.stdout.flush()
        walls.append(time.perf_counter() - t0)
print(json.dumps({"rc": rc, "warm_ms": 1000 * statistics.median(walls),
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}),
      file=sys.stderr)
"""


def _ops(workdir: str) -> list[tuple[str, int, list[str]]]:
    """(label, n, argv) of every op measured."""
    out = []
    ops = workloads.make_ops("large-n", SEED, workdir)
    for op in ops:
        if op.kind == "realize":
            for fmt in ("json", "csv"):
                argv = list(op.argv)
                argv[argv.index("--format") + 1] = fmt
                out.append((f"realize --format {fmt}", op.n, argv))
            if op.n == 1024:
                argv[argv.index("--format") + 1] = "json"
                out.append(("realize --exact json", op.n, argv + ["--exact"]))
        else:
            out.append(("verify perturbed" if op.perturbed else "verify", op.n, list(op.argv)))
            if op.n == 256 and not op.perturbed:
                out.append(("verify --exact", op.n, list(op.argv) + ["--exact"]))
    # Thousandths need more than 62 bits over one denominator, so their
    # identification lifts to Python ints; no benchmark workload runs one.
    values = workloads._suleimanova(random.Random(SEED), 1024, zero_trace=False)
    out.append(("realize thousandths json", 1024, list(workloads._realize(values).argv)))
    first = next(op for op in ops if op.kind == "realize" and op.n == 256)
    argv = list(first.argv)
    argv[argv.index("--format") + 1] = "csv"
    out.append(("realize companion csv", 256, argv + ["--method", "companion"]))
    rng = np.random.default_rng(SEED)
    for n in OTHER_ORDERS:
        # Order-2 blocks [[x0, x1], [x1, x0]] with eigenvalues x0 + x1 = a
        # and x0 - x1 = b, in quarters, so every entry is exact.
        a = rng.integers(4, 65, n // 2) / 4
        b = -rng.integers(1, 4 * a + 1) / 4
        dsum = np.zeros((n, n))
        for k, (x0, x1) in enumerate(zip((a + b) / 2, (a - b) / 2)):
            dsum[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[x0, x1], [x1, x0]]
        # The dense file's target is any n values: its verdict is inconclusive.
        for kind, M, values in (("dense", rng.random((n, n)), [n / 2] + [-0.25] * (n - 1)),
                                ("direct sum", dsum, np.concatenate((a, b)))):
            path = os.path.join(workdir, f"{kind.replace(' ', '_')}{n}.csv")
            workloads._write_csv(path, M)
            out.append((f"verify {kind}", n,
                        ["verify", workloads._spectrum_arg(values), "--matrix", path]))
    return out


def measure(src: str, argv: list[str]) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    p = subprocess.run(
        [sys.executable, "-c", CHILD, src, json.dumps(argv), str(REPEATS)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, check=True,
    )
    return json.loads(p.stderr.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--json", action="store_true", help="also print one JSON object")
    args = parser.parse_args(argv)
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for label, n, op_argv in _ops(workdir):
            r = measure(os.path.abspath(args.src), op_argv)
            rows.append({"op": label, "n": n, **r})
            print(f"{label:<24} n={n:<5} exit {r['rc']}  warm {r['warm_ms']:7.2f} ms"
                  f"  ru_maxrss {r['maxrss_mb']:6.1f} MB", flush=True)
    if args.json:
        print(json.dumps({"seed": SEED, "repeats": REPEATS, "ops": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
