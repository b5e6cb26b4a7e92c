"""Command-line entry point.

Subcommands: check (necessary conditions + classification), realize
(construct and certify a matrix), verify (certify a matrix file against a
spectrum), bench (timing report), explore (pattern search).  Exit codes are
a stable contract: 0 pass, 1 usage/parse failure, 2 verified failure (a
failed necessary condition or certificate), 3 inconclusive (no method
applies, a search that found nothing, or a certificate on which no
spectral check could run).  The policy and the certificates live in the
library (``dispatch.realize``); this module parses and prints.

Spectra are given inline as a comma list ("10,-1,-2,-3") or via --file
(JSON array or one value per line).  The default tolerance profile can be
set with the PERMREALIZE_TOLERANCES environment variable ("abs,rel");
--abs-tol/--rel-tol override it, and --exact switches to Fraction
arithmetic with zero tolerances.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import bench as bench_mod
from . import explorer as explorer_mod
from .dispatch import METHODS, realize
from .errors import NecessaryConditionViolationError, NotApplicableError, ParseError
from .linalg import (
    format_entries,
    format_scalar,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
)
from .spectrum import (
    DEFAULT_POWER_DEPTH,
    Spectrum,
    Tolerances,
    check_necessary,
    classify,
    float_or_inf,
    make_spectrum,
    require_necessary,
)
from .verify import Realization, Verdict, certify

EXIT_PASS = 0
EXIT_PARSE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    Verdict.PASS: EXIT_PASS,
    Verdict.FAIL: EXIT_FAIL,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

TOLERANCE_ENV_VAR = "PERMREALIZE_TOLERANCES"


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the exit contract.

    Also widens the negative-number matcher so an inline spectrum that
    starts with a negative entry ("-1,0.5") parses as a positional instead
    of being mistaken for an option flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d.,eE+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _tolerances(ns: argparse.Namespace) -> Tolerances:
    if ns.exact:
        return Tolerances.exact()
    default = Tolerances()
    abs_tol, rel_tol = default.absolute, default.relative
    env = os.environ.get(TOLERANCE_ENV_VAR)
    if env:
        try:
            a, r = env.split(",")
            abs_tol, rel_tol = float(a), float(r)
        except ValueError as e:
            raise ParseError(
                f"{TOLERANCE_ENV_VAR} must be 'abs,rel', got {env!r}"
            ) from e
    if ns.abs_tol is not None:
        abs_tol = ns.abs_tol
    if ns.rel_tol is not None:
        rel_tol = ns.rel_tol
    if not (math.isfinite(abs_tol) and math.isfinite(rel_tol)):
        raise ParseError(
            f"tolerances must be finite, got abs {abs_tol!r}, rel {rel_tol!r}"
        )
    return Tolerances(absolute=abs_tol, relative=rel_tol)


def _parse_values(tokens: Sequence[str], exact: bool) -> list:
    values = []
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        try:
            f = Fraction(tok)
            values.append(f if exact else float(f))
        except (ValueError, ZeroDivisionError, OverflowError) as e:
            # OverflowError: float(f) of a value beyond the float range.
            raise ParseError(f"cannot parse spectrum entry {tok!r}") from e
    return values


def _load_spectrum(ns: argparse.Namespace) -> Spectrum:
    if (ns.spectrum is None) == (ns.file is None):
        raise ParseError(
            "give the spectrum either inline or with --file, not both"
        )
    if ns.spectrum is not None:
        return make_spectrum(
            _parse_values(ns.spectrum.split(","), ns.exact), exact=ns.exact
        )
    with open(ns.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON spectrum file: {e}") from e
        if not isinstance(obj, list):
            raise ParseError("JSON spectrum file must be an array")
        tokens = [str(v) for v in obj]
    else:
        tokens = text.split()
    return make_spectrum(_parse_values(tokens, ns.exact), exact=ns.exact)


def _spectrum_json(sigma: Spectrum) -> list:
    return [
        str(v) if isinstance(v, Fraction) else float(v) for v in sigma.values
    ]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(ns: argparse.Namespace) -> int:
    sigma = _load_spectrum(ns)
    report = check_necessary(sigma, K=ns.K, tol=_tolerances(ns))
    cls = classify(sigma)
    ok = report.power_sum_ok and report.perron_ok
    if ns.fmt == "json":
        print(
            json.dumps(
                {
                    "spectrum": _spectrum_json(sigma),
                    "classification": cls.kind.value,
                    "positives": cls.positives,
                    "trace": float_or_inf(cls.trace),
                    "power_sum_ok": report.power_sum_ok,
                    "perron_ok": report.perron_ok,
                    "spectral_radius": float_or_inf(report.spectral_radius),
                    "K": report.K,
                    "conditions_hold": ok,
                }
            )
        )
    else:
        print(f"spectrum:        {', '.join(format_scalar(v) for v in sigma.values)}")
        print(f"classification:  {cls.kind.value}")
        print(f"positives:       {cls.positives}")
        print(f"trace:           {format_scalar(cls.trace)}")
        print(f"spectral radius: {format_scalar(report.spectral_radius)}")
        print(f"power sums ok:   {report.power_sum_ok} (k = 1..{report.K})")
        print(f"perron ok:       {report.perron_ok}")
        print(f"conditions hold: {ok}")
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def _emit_realization(ns: argparse.Namespace, r: Realization) -> None:
    case = r.params.get("case")
    verdict = r.certificate.verdict
    certified = "FAIL" if verdict is Verdict.FAIL else verdict.value
    if ns.fmt == "json":
        # The bytes of json.dumps of the whole dict, with the matrix
        # formatted by matrix_to_json (each distinct entry once).
        rest = json.dumps(
            {
                "method": r.method,
                "case": case,
                "target": _spectrum_json(r.target),
                "certificate": r.certificate.to_json_obj(),
            }
        )
        print('{"matrix": ' + matrix_to_json(r.matrix) + ", " + rest[1:])
    elif ns.fmt == "csv":
        # Matrix on stdout for piping; metadata on stderr.
        sys.stdout.write(matrix_to_csv(r.matrix))
        meta = f"method={r.method}" + (f" case={case}" if case else "")
        print(
            f"{meta} certified={certified}",
            file=sys.stderr,
        )
    else:
        print(f"method: {r.method}" + (f"  case: {case}" if case else ""))
        _print_matrix(r)
        rep = r.certificate
        print(
            "certificate: "
            + "".join(f"{k}={s.value} " for k, s in rep.checks.items())
            + f"max_residual={rep.max_residual:.3g}"
        )
        print(f"certified: {certified}")


def _print_matrix(r: Realization) -> None:
    cells = format_entries(r.matrix)
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("  " + "  ".join(c.rjust(width) for c in row))


def cmd_realize(ns: argparse.Namespace) -> int:
    sigma = _load_spectrum(ns)
    tol = _tolerances(ns)
    try:
        r = realize(sigma, ns.method, tol, ns.strategy, ns.budget, ns.seed)
    except NecessaryConditionViolationError as e:
        print(f"not realizable: {e}", file=sys.stderr)
        return EXIT_FAIL
    except NotApplicableError as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if r is None:
        print(
            "inconclusive: the pattern search found no certified realization "
            "within budget",
            file=sys.stderr,
        )
        return EXIT_INCONCLUSIVE
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(matrix_to_csv(r.matrix))
    _emit_realization(ns, r)
    return _VERDICT_EXIT[r.certificate.verdict]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(ns: argparse.Namespace) -> int:
    sigma = _load_spectrum(ns)
    with open(ns.matrix_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("["):
        M = matrix_from_json(text, exact=ns.exact)
    else:
        M = matrix_from_csv(text, exact=ns.exact)
    tol = _tolerances(ns)
    r = Realization(matrix=M, method="", target=sigma)
    report = certify(r, tol)
    if ns.fmt == "json":
        print(json.dumps(report.to_json_obj()))
    else:
        for name, state in report.checks.items():
            print(f"{name:<12} {state.value}")
        print(f"max residual {report.max_residual:.6g}")
        print(f"passed       {report.passed}")
        print(f"verdict      {report.verdict.value}")
    return _VERDICT_EXIT[report.verdict]


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(ns: argparse.Namespace) -> int:
    report = bench_mod.run_bench(ns.sizes or bench_mod.DEFAULT_SIZES)
    # Cross-check at n = 4: both methods agree on the integer reference
    # example.
    sigma = make_spectrum([10, -1, -2, -3])
    obj = report.to_json_obj()
    obj["n4_cross_check"] = {
        m: realize(sigma, m).certificate.passed for m in ("suleimanova", "companion")
    }
    print(json.dumps(obj, indent=2))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def cmd_explore(ns: argparse.Namespace) -> int:
    sigma = _load_spectrum(ns)
    tol = _tolerances(ns)
    try:
        require_necessary(sigma)
        results = explorer_mod.explore(
            sigma, strategy=ns.strategy, budget=ns.budget, seed=ns.seed, tol=tol
        )
    except NecessaryConditionViolationError as e:
        print(f"not realizable: {e}", file=sys.stderr)
        return EXIT_FAIL
    except NotApplicableError as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    log = explorer_mod.results_to_jsonl(results)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(log)
    else:
        sys.stdout.write(log)
    found = any(r.certified for r in results)
    return EXIT_PASS if found else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="permrealize",
        description=(
            "Construct and certify nonnegative matrices realizing "
            "prescribed real spectra."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "spectrum",
        nargs="?",
        help="inline comma-separated spectrum, e.g. \"10,-1,-2,-3\"",
    )
    common.add_argument(
        "--file", help="spectrum file (JSON array or one value per line)"
    )
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("json", "csv", "pretty"),
        default="pretty",
    )
    common.add_argument("--exact", action="store_true",
                        help="exact rational arithmetic, zero tolerances")
    common.add_argument("--abs-tol", type=float, default=None)
    common.add_argument("--rel-tol", type=float, default=None)

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--strategy", choices=explorer_mod.STRATEGIES,
                        default="alpha")
    search.add_argument("--budget", type=int, default=explorer_mod.DEFAULT_BUDGET)
    search.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "check", parents=[common], help="necessary conditions + classification"
    )
    p.add_argument("--power-depth", dest="K", type=int,
                   default=DEFAULT_POWER_DEPTH)

    p = sub.add_parser(
        "realize", parents=[common, search], help="construct and certify a matrix"
    )
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--out", help="also write the matrix as CSV to this file")

    p = sub.add_parser(
        "verify", parents=[common],
        help="certify a matrix file against a spectrum",
    )
    p.add_argument("--matrix", dest="matrix_path", required=True,
                   help="matrix file (CSV rows or JSON nested arrays)")

    p = sub.add_parser("bench", parents=[common], help="timing report (JSON)")
    p.add_argument("--sizes", type=_sizes, default=None,
                   help="comma list of matrix orders")

    p = sub.add_parser(
        "explore", parents=[common, search], help="pattern search (JSON-lines log)"
    )
    p.add_argument("--out", help="write the JSON-lines log to this file")

    return parser


_COMMANDS = {
    "check": cmd_check,
    "realize": cmd_realize,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "explore": cmd_explore,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.subcommand](ns)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_PARSE
    except (ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
