"""Traced replay: each op's inputs through the library, one layer at a time.

A replay calls the public functions behind an op in the order the CLI
would: parse the spectrum, classify, construct, certify, serialize.  Each
call is one span (name, start, end, parent, op id), kept in memory and
written out when the run ends.  Spans inside ``certify`` and ``explore``
come from wrappers that this module installs on the functions those calls
look up (``instrumented``), and removes again before the next untraced call.

Span names are ``<module>.<function>`` of the library.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from fractions import Fraction

from permrealize import companion, explorer, linalg, small_order, spectrum, suleimanova, verify

#: Functions looked up inside certify and explore: (owner, attribute, span).
#: A span of None only counts calls (one per objective evaluation, where a
#: span each would cost more than the evaluation).
_PATCHES = (
    (verify, "is_nonnegative", "linalg.is_nonnegative"),
    (verify, "is_permutative", "linalg.is_permutative"),
    (verify, "char_poly", "linalg.char_poly_exact"),
    (verify, "poly_from_roots", "linalg.poly_from_roots"),
    (verify, "detect_blocks", "verify.detect_blocks"),
    (linalg.DenseMatrix, "max_abs", "linalg.max_abs"),
    (companion, "poly_from_roots", "linalg.poly_from_roots"),
    (explorer, "poly_from_roots", "linalg.poly_from_roots"),
    (explorer, "fit_first_row", "explorer.fit_first_row"),
    (explorer, "char_poly_coeffs", None),
)
EVALS = "explorer.evals"

#: Mean time per op in each span, in ms.
LAYER_SPANS = (
    "spectrum.make_spectrum",
    "spectrum.classify",
    "small_order.realize",
    "companion.realize",
    "suleimanova.realize",
    "linalg.poly_from_roots",
    "linalg.char_poly_exact",
    "linalg.is_nonnegative",
    "linalg.is_permutative",
    "linalg.max_abs",
    "linalg.matrix_to_json",
    "verify.certify",
    "linalg.matrix_from_csv",
    "verify.detect_blocks",
)


class Recorder:
    """Spans and call counts of one traced run, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op id]
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        if name is None:
            def counted(*args, **kwargs):
                self.counts[EVALS] += 1
                return fn(*args, **kwargs)

            return counted

        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


class _Untraced:
    """Stands in for a Recorder in the untraced replay."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


UNTRACED = _Untraced()


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Install the span wrappers of ``_PATCHES``; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in _PATCHES]
    try:
        for (owner, attr, orig), (_, _, name) in zip(saved, _PATCHES):
            setattr(owner, attr, rec._wrap(name, orig))
        yield
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)


def _sigma(rec, op):
    vals = [Fraction(v) if op.exact else float(v) for v in op.values]
    with rec.span("spectrum.make_spectrum"):
        return spectrum.make_spectrum(vals, exact=op.exact)


def _replay_realize(rec, op) -> None:
    sigma = _sigma(rec, op)
    if op.method == "auto":
        with rec.span("spectrum.classify"):
            kind = spectrum.classify(sigma).kind
        if kind is spectrum.SpectrumKind.ZERO_TRACE_SULEIMANOVA:
            build = suleimanova.realize_zero_trace
        elif kind is spectrum.SpectrumKind.SULEIMANOVA:
            build = suleimanova.realize_suleimanova
        else:
            raise ValueError(f"the replay covers closed-form ops only, got {kind}")
        name = "suleimanova.realize"
    elif op.method == "small":
        build, name = small_order.realize_small, "small_order.realize"
    elif op.method == "companion":
        build = lambda s: companion.as_realization(companion.realize_companion(s), s)  # noqa: E731
        name = "companion.realize"
    else:
        raise ValueError(f"unknown method {op.method!r}")
    with rec.span(name):
        r = build(sigma)
    tol = linalg.Tolerances.exact() if op.exact else linalg.Tolerances()
    with rec.span("verify.certify"):
        verify.certify(r, tol)
    with rec.span("linalg.matrix_to_json"):
        linalg.matrix_to_json(r.matrix)


def _replay_verify(rec, op) -> None:
    sigma = _sigma(rec, op)
    with open(op.matrix_path, encoding="utf-8") as fh:
        text = fh.read()
    with rec.span("linalg.matrix_from_csv"):
        M = linalg.matrix_from_csv(text)
    with rec.span("verify.certify"):
        verify.certify(verify.Realization(matrix=M, method="", target=sigma), linalg.Tolerances())


def _replay_explore(rec, op) -> None:
    sigma = _sigma(rec, op)
    with rec.span("explorer.explore"):
        results = explorer.explore(sigma, strategy=op.strategy, budget=op.budget, seed=op.seed)
    with rec.span("explorer.results_to_jsonl"):
        explorer.results_to_jsonl(results)


_REPLAY = {"realize": _replay_realize, "verify": _replay_verify, "explore": _replay_explore}


def replay(op, rec=UNTRACED) -> float:
    """Replay one op; returns its wall time in seconds."""
    fn = _REPLAY[op.kind]
    t0 = time.perf_counter()
    fn(rec, op)
    return time.perf_counter() - t0


def layer_metrics(rec: Recorder, runs: list[tuple]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``runs``.

    ``runs`` holds one (op, cli_s, untraced_replay_s, traced_replay_s) per
    replayed op, in op-id order.  Times are means per op unless the unit
    says otherwise.
    """
    n_ops = len(runs)
    total: Counter = Counter()
    calls: Counter = Counter()
    child_of: Counter = Counter()  # time inside each span's direct children
    roots = [0.0] * n_ops
    for name, start, end, parent, op in rec.spans:
        d = end - start
        total[name] += d
        calls[name] += 1
        if parent < 0:
            roots[op] += d
        else:
            child_of[parent] += d
    certify_children = sum(
        child_of[i] for i, s in enumerate(rec.spans) if s[0] == "verify.certify"
    )
    ms = lambda s: 1000.0 * s / n_ops  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    evals = rec.counts[EVALS]
    out = {f"{name}_ms": (ms(total[name]), "ms/op") for name in LAYER_SPANS}
    out["verify.certify_other_ms"] = (ms(total["verify.certify"] - certify_children), "ms/op")
    out["cli.overhead_ms"] = (
        ms(sum(cli - root for (_, cli, _, _), root in zip(runs, roots))),
        "ms/op",
    )
    out["explorer.fit_first_row_ms"] = (
        1000.0 * ratio(total["explorer.fit_first_row"], calls["explorer.fit_first_row"]),
        "ms/tuple",
    )
    out["explorer.evals_per_s"] = (ratio(evals, total["explorer.explore"]), "1/s")
    out["verify.charpoly_run_ratio"] = (
        ratio(calls["linalg.char_poly_exact"], calls["verify.certify"]),
        "ratio",
    )
    out["ops.matrix_entries"] = (float(sum(op.n * op.n for op, *_ in runs)), "count")
    out["explorer.tuples_per_call"] = (
        ratio(calls["explorer.fit_first_row"], calls["explorer.explore"]),
        "count",
    )
    out["explorer.evals_per_call"] = (ratio(evals, calls["explorer.explore"]), "count")
    out["trace.overhead_ratio"] = (
        ratio(sum(r[3] for r in runs), sum(r[2] for r in runs)),
        "ratio",
    )
    return out
