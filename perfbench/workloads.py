"""Seeded inputs for the two benchmark workloads.

small-n runs every op of order n <= 12: realize (all small-order cases,
Suleimanova, zero-trace, exact and companion), verify on CSV files, and the
explorer.  large-n runs the ops of order n >= 64: realize at n = 256..1024
and verify on CSV files.  So charpoly and the explorer run only on small-n,
and CSV parsing, JSON output and certify's loops over n^2 entries dominate
large-n.

Each workload is a fixed cycle of operations.  The seed chooses the numbers
inside each spectrum and which two small-order ops run exact (never the
first op, whose cold run is setup_s), but never the cycle's shape: every
seed runs the same orders, methods and shares, so runs with different seeds
do the same amount of work.

Float-mode spectra at n = 5..12 have entries in thousandths, which binary
floating point cannot hold exactly, so the exact-lifted charpoly costs the
same for every seed, as it does on measured data; on quarters it would be
cheap for some seeds and dear for others.  Everything else uses quarters:
exact mode, where they keep denominators the same for every seed, and the
small-order and large spectra.  A large spectrum's output is text whose
length follows the entries' decimal digits, so its trace is chosen to keep
that length the same for every seed (see _large_suleimanova).
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("small-n", "large-n")

#: Orders of the closed-form realize ops on small-n (n <= 4 ops are listed
#: separately, one per case tag).
SMALL_ORDERS = tuple(range(5, 13))
LARGE_ORDERS = (256, 512, 1024)
SMALL_VERIFY_ORDERS = (4, 6, 8, 10, 12)
LARGE_VERIFY_ORDERS = (64, 128, 256)
EXPLORE_ORDERS = (5, 6, 7, 8)
EXPLORE_STRATEGIES = ("random", "transpositions", "alpha")
#: Tuples per multi-tuple explore call; the budget 200 * n * T makes the
#: explorer's split exact, so every call evaluates exactly its budget.
EXPLORE_TUPLES = 2


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what the oracle and the replay need to know."""

    kind: str  # "realize" | "verify" | "explore"
    argv: tuple[str, ...]
    n: int
    values: tuple[Fraction, ...]  # target spectrum, exactly as passed
    method: str = "auto"  # realize: auto | small | companion
    exact: bool = False
    case: str | None = None  # realize --method small: expected case tag
    matrix_path: str | None = None  # verify
    perturbed: bool = False  # verify: the file is not a realization
    strategy: str | None = None  # explore
    budget: int = 0  # explore
    seed: int = 0  # explore


def _fmt(v: Fraction) -> str:
    return repr(float(v))


def _spectrum_arg(values) -> str:
    return ",".join(_fmt(v) for v in sorted(values, reverse=True))


def _q(k: int) -> Fraction:
    return Fraction(k, 4)


def _suleimanova(
    rng: random.Random, n: int, zero_trace: bool, decimals: bool = True
) -> list[Fraction]:
    """One positive entry and n - 1 distinct negatives, trace >= 0.

    Negatives are quarters plus, with ``decimals``, up to 0.199 in
    thousandths; they stay at least 0.05 apart, so the roots of the
    companion baseline are well separated and the oracle's eigenvalues of
    it are accurate.
    """
    frac = (lambda: Fraction(rng.randint(1, 199), 1000)) if decimals else (lambda: 0)
    negs = [-(_q(k) + frac()) for k in rng.sample(range(1, 4 * n + 1), n - 1)]
    extra = 0 if zero_trace else _q(rng.randint(1, 4 * n)) + frac()
    return [-sum(negs) + extra] + negs


def _realize(values, method="auto", exact=False, case=None) -> Op:
    argv = ["realize", _spectrum_arg(values), "--format", "json"]
    if method != "auto":
        argv += ["--method", method]
    if exact:
        argv.append("--exact")
    return Op(
        kind="realize",
        argv=tuple(argv),
        n=len(values),
        values=tuple(sorted(values, reverse=True)),
        method=method,
        exact=exact,
        case=case,
    )


def _small_order_cases(rng: random.Random) -> list[tuple[str, list[Fraction]]]:
    """One realizable spectrum per small_order case tag (n <= 4)."""
    r = lambda lo, hi: _q(rng.randint(lo, hi))  # noqa: E731
    out = [("N1", [r(1, 40)])]
    l1 = r(8, 40)
    out.append(("N2", [l1, r(-int(4 * l1) + 1, int(4 * l1) - 1)]))
    l1 = r(20, 40)
    out.append(("N3-DirectSum", [l1, r(1, int(4 * l1)), -r(1, int(4 * l1))]))
    for tag, n in (("N3-Suleimanova", 3), ("N4-Suleimanova", 4)):
        out.append((tag, _suleimanova(rng, n, zero_trace=rng.random() < 0.5)))
    # Group form: quarter sums a > b, c, d > 0 give l2 > 0 and d > 0.
    a = r(20, 40)
    b, c, d = (r(1, int(4 * a) - 1) for _ in range(3))
    out.append(
        ("N4-Group", [a + b + c + d, a + b - c - d, a - b + c - d, a - b - c + d])
    )
    # Paired direct sum: two admissible 2x2 blocks with l2 + l3 > l1 + l4.
    while True:
        l1, l2, l3, l4 = sorted((r(-40, 40) for _ in range(4)), reverse=True)
        if l2 > 0 and l1 >= -l4 and l2 >= -l3 and l2 + l3 > l1 + l4:
            out.append(("N4-PairedDirectSum", [l1, l2, l3, l4]))
            break
    return out


def realize_small_ops(rng: random.Random) -> list[Op]:
    cases = _small_order_cases(rng)
    # Never the first op (N1): it is the cold op of setup_s, which must do
    # the same work for every seed.
    exact_idx = set(rng.sample(range(1, len(cases)), 2))
    ops = [
        _realize(vals, method="small", exact=i in exact_idx, case=tag)
        for i, (tag, vals) in enumerate(cases)
    ]
    for n in SMALL_ORDERS:
        sul = _suleimanova(rng, n, zero_trace=False)
        zt = _suleimanova(rng, n, zero_trace=True)
        ops.append(_realize(sul))
        ops.append(_realize(zt))
        # One kind again through the companion baseline, the other in exact
        # mode on quarters, whose exact charpoly costs the same for every
        # seed.  Which kind alternates with n, not with the seed, because
        # the two kinds cost differently.
        exact_zt = n % 2 == 0
        ops.append(_realize(sul if exact_zt else zt, method="companion"))
        ops.append(_realize(_suleimanova(rng, n, exact_zt, decimals=False), exact=True))
    return ops


def _large_suleimanova(rng: random.Random, n: int, zero_trace: bool) -> list[Fraction]:
    negs = [-_q(rng.randint(1, 64)) for _ in range(n - 1)]
    # The matrix entries are trace / n - lambda_i.  An odd number of quarters
    # as the trace gives all of them the same number of binary digits after
    # the point for every seed, so the JSON and CSV text has the same length;
    # with an even one the text ran up to 20% shorter at n = 1024.
    trace = 0 if zero_trace else _q(2 * rng.randrange(2 * n) + 1)
    return [-sum(negs) + trace] + negs


def realize_large_ops(rng: random.Random) -> list[Op]:
    """A Suleimanova and a zero-trace spectrum at each large order."""
    return [
        _realize(_large_suleimanova(rng, n, zero_trace=zt))
        for n in LARGE_ORDERS
        for zt in (False, True)
    ]


def alpha_matrix(values) -> np.ndarray:
    """Suleimanova's permutative realization, built here without the library.

    Row i is x with positions 0 and i swapped, where
    x = (s1, s1 - n*l2, ..., s1 - n*ln) / n.
    """
    lam = np.array([float(v) for v in sorted(values, reverse=True)])
    n = lam.size
    s1 = lam.sum()
    x = np.concatenate(([s1], s1 - n * lam[1:])) / n
    idx = np.tile(np.arange(n), (n, 1))
    idx[np.arange(1, n), 0] = np.arange(1, n)
    idx[np.arange(1, n), np.arange(1, n)] = 0
    return x[idx]


def _write_csv(path: str, M: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in M:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def verify_files_ops(rng: random.Random, workdir: str, orders) -> list[Op]:
    """Correct and one-entry-perturbed alpha matrices, written as CSV."""
    ops = []
    for k, n in enumerate(orders):
        values = (
            _suleimanova(rng, n, zero_trace=k % 2 == 1)
            if n <= 12
            else _large_suleimanova(rng, n, zero_trace=k % 2 == 1)
        )
        M = alpha_matrix(values)
        for perturbed in (False, True):
            if perturbed:
                M = M.copy()
                i, j = rng.randrange(n), rng.randrange(n)
                # Upward, so the matrix stays nonnegative and only a
                # spectral check can reject it.
                M[i, j] += 1.0 + float(np.abs(M).max())
            path = os.path.join(workdir, f"m{n}{'p' if perturbed else 'c'}.csv")
            _write_csv(path, M)
            ops.append(
                Op(
                    kind="verify",
                    argv=("verify", _spectrum_arg(values), "--matrix", path),
                    n=n,
                    values=tuple(sorted(values, reverse=True)),
                    matrix_path=path,
                    perturbed=perturbed,
                )
            )
    return ops


def _unrealizable(rng: random.Random, n: int) -> list[Fraction]:
    """r, r and n - 2 negatives summing to -2r, no subset summing to -r.

    Such a spectrum passes the necessary conditions (every |negative| < r),
    yet no nonnegative matrix has it: a double Perron root with zero trace
    forces two zero-trace blocks with Perron root r, each needing negatives
    that sum to -r.  So no search can converge and every call spends its
    whole budget.
    """
    while True:
        ks = [rng.randint(2, 12) for _ in range(n - 2)]
        total = sum(ks)
        if total % 2 or max(ks) >= total // 2:
            continue
        half = total // 2
        sums = {
            sum(c) for m in range(1, len(ks)) for c in itertools.combinations(ks, m)
        }
        if half in sums:
            continue
        r = _q(half)
        return [r, r] + [-_q(k) for k in ks]


def explore_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n in EXPLORE_ORDERS:
        values = _unrealizable(rng, n)
        for strategy in EXPLORE_STRATEGIES:
            budget = 200 * n * EXPLORE_TUPLES
            seed = rng.randrange(1 << 30)
            argv = (
                "explore",
                _spectrum_arg(values),
                "--strategy",
                strategy,
                "--budget",
                str(budget),
                "--seed",
                str(seed),
            )
            ops.append(
                Op(
                    kind="explore",
                    argv=argv,
                    n=n,
                    values=tuple(sorted(values, reverse=True)),
                    strategy=strategy,
                    budget=budget,
                    seed=seed,
                )
            )
    return ops


def make_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """The workload's cycle of ops; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "small-n":
        return (
            realize_small_ops(rng)
            + verify_files_ops(rng, workdir, SMALL_VERIFY_ORDERS)
            + explore_ops(rng)
        )
    if workload == "large-n":
        return realize_large_ops(rng) + verify_files_ops(rng, workdir, LARGE_VERIFY_ORDERS)
    raise ValueError(f"unknown workload {workload!r}")
