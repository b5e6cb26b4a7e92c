"""Command-line entry point.

Subcommands: check (necessary conditions + classification), realize
(construct and certify a matrix), verify (certify a matrix file against a
spectrum), bench (timing report), explore (pattern search).  Exit codes are
a stable contract: 0 pass, 1 usage/parse failure, 2 verified failure (a
failed necessary condition or certificate), 3 inconclusive (no method
applies, a search that found nothing, or a certificate on which no
spectral check could run).  The policy and the certificates live in the
library (``dispatch.realize``); this module parses and prints.  ``realize``
runs the paper's closed forms by default; the companion matrix and the
pattern search run only under ``--method companion`` and
``--method explore``.

Spectra are given inline as a comma list ("10,-1,-2,-3") or via --file
(JSON array or one value per line).  The certificates' tolerance profile
(realize, verify, explore) can be set with the PERMREALIZE_TOLERANCES
environment variable ("abs,rel"); --abs-tol/--rel-tol override it, and
--exact switches to Fraction arithmetic with zero tolerances.  check
judges the necessary conditions in the band realize's gate uses.  Each
subcommand accepts only the options it reads.
"""

from __future__ import annotations

import argparse
import json
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
    format_scalar,
    matrix_from_csv,
    matrix_from_json,
    matrix_pieces,
    parse_scalars,
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
    starts with a negative entry ("-1,0.5", "-.5,0.25", "-1/2,1/4") parses
    as a positional instead of being mistaken for an option flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.][\d.,eE+/-]*$")

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
    # Tolerances rejects a negative or non-finite value (ValueError, exit 1).
    return Tolerances(absolute=abs_tol, relative=rel_tol)


def _parse_values(tokens: Sequence[str], exact: bool) -> list:
    return parse_scalars([t for t in tokens if t.strip()], exact, "spectrum")


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
    report = check_necessary(sigma, K=ns.K)
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
    """Print r in ns.fmt, the matrix a row at a time (matrix_pieces), all
    else formatted before the first write."""
    case = r.params.get("case")
    rep = r.certificate
    certified = "FAIL" if rep.verdict is Verdict.FAIL else rep.verdict.value
    out = sys.stdout
    if ns.fmt == "json":
        # The bytes of json.dumps of the whole dict and a newline.
        rest = json.dumps(
            {
                "method": r.method,
                "case": case,
                "target": _spectrum_json(r.target),
                "certificate": rep.to_json_obj(),
            }
        )
        out.write('{"matrix": ')
        out.writelines(matrix_pieces(r.matrix, "json"))
        out.write(", " + rest[1:] + "\n")
    elif ns.fmt == "csv":
        # Matrix on stdout for piping; metadata on stderr.
        meta = f"method={r.method}" + (f" case={case}" if case else "")
        out.writelines(matrix_pieces(r.matrix, "csv"))
        print(f"{meta} certified={certified}", file=sys.stderr)
    else:
        checks = "".join(f"{k}={s.value} " for k, s in rep.checks.items())
        summary = f"certificate: {checks}max_residual={rep.max_residual:.3g}"
        print(f"method: {r.method}" + (f"  case: {case}" if case else ""))
        _print_matrix(r)
        print(summary)
        print(f"certified: {certified}")


def _print_matrix(r: Realization) -> None:
    sys.stdout.writelines(matrix_pieces(r.matrix, "pretty"))


def cmd_realize(ns: argparse.Namespace) -> int:
    sigma = _load_spectrum(ns)
    tol = _tolerances(ns)
    r = realize(sigma, ns.method, tol, ns.strategy, ns.budget, ns.seed)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.writelines(matrix_pieces(r.matrix, "csv"))
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
    require_necessary(sigma)
    results = explorer_mod.explore(
        sigma, strategy=ns.strategy, budget=ns.budget, seed=ns.seed, tol=tol
    )
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
    sizes = tuple(int(tok) for tok in text.split(","))
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"matrix orders must be >= 1, got {text!r}")
    return sizes


def _spectrum_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "spectrum",
        nargs="?",
        help="inline comma-separated spectrum, e.g. \"10,-1,-2,-3\"",
    )
    p.add_argument("--file", help="spectrum file (JSON array or one value per line)")
    p.add_argument("--exact", action="store_true",
                   help="exact rational arithmetic, zero tolerances")


def _tolerance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--abs-tol", type=float, default=None)
    p.add_argument("--rel-tol", type=float, default=None)


def _search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=explorer_mod.STRATEGIES, default="alpha",
                   help="pattern-search strategy (realize: --method explore only)")
    p.add_argument("--budget", type=int, default=explorer_mod.DEFAULT_BUDGET,
                   help="pattern-search budget (realize: --method explore only)")
    p.add_argument("--seed", type=int, default=0,
                   help="pattern-search seed (realize: --method explore only)")


def _format_arg(p: argparse.ArgumentParser, *choices: str) -> None:
    p.add_argument("--format", dest="fmt", choices=choices, default="pretty")


def _check_args(p: argparse.ArgumentParser) -> None:
    _spectrum_args(p)
    _format_arg(p, "json", "pretty")
    p.add_argument("--power-depth", dest="K", type=int, default=DEFAULT_POWER_DEPTH)


def _realize_args(p: argparse.ArgumentParser) -> None:
    _spectrum_args(p)
    _tolerance_args(p)
    _search_args(p)
    _format_arg(p, "json", "csv", "pretty")
    p.add_argument("--method", choices=METHODS, default="auto",
                   help="auto (default) runs the paper's closed forms only")
    p.add_argument("--out", help="also write the matrix as CSV to this file")


def _verify_args(p: argparse.ArgumentParser) -> None:
    _spectrum_args(p)
    _tolerance_args(p)
    _format_arg(p, "json", "pretty")
    p.add_argument("--matrix", dest="matrix_path", required=True,
                   help="matrix file (CSV rows or JSON nested arrays)")


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", type=_sizes, default=None,
                   help="comma list of matrix orders")


def _explore_args(p: argparse.ArgumentParser) -> None:
    _spectrum_args(p)
    _tolerance_args(p)
    _search_args(p)
    p.add_argument("--out", help="write the JSON-lines log to this file")


#: Each subcommand's function, help line and argument wiring.
_COMMANDS = {
    "check": (cmd_check, "necessary conditions + classification", _check_args),
    "realize": (cmd_realize, "construct and certify a matrix", _realize_args),
    "verify": (cmd_verify, "certify a matrix file against a spectrum", _verify_args),
    "bench": (cmd_bench, "timing report (JSON)", _bench_args),
    "explore": (cmd_explore, "pattern search (JSON-lines log)", _explore_args),
}


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The CLI's parser, with only the subparser of command when it names one.

    Every call builds a new parser.  The subparsers of the commands not
    being run are never read, so they are built only when command is not a
    subcommand (help, no arguments, an unknown word), where the top-level
    parser prints or reports them.  The one-command parser's usage line
    still lists every subcommand, as the full parser's does.
    """
    parser = _Parser(
        prog="permrealize",
        description=(
            "Construct and certify nonnegative matrices realizing "
            "prescribed real spectra."
        ),
    )
    if command in _COMMANDS:
        built = {command: _COMMANDS[command]}
        metavar = "{" + ",".join(_COMMANDS) + "}"
    else:
        # The full parser names its subcommand action "subcommand" in its
        # errors (an unknown or missing command); a metavar would rename it.
        built, metavar = _COMMANDS, None
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name, (_, help_line, add_args) in built.items():
        add_args(sub.add_parser(name, help=help_line))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.subcommand][0](ns)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_PARSE
    # Both subclass ValueError, so they are caught before it.
    except NecessaryConditionViolationError as e:
        print(f"not realizable: {e}", file=sys.stderr)
        return EXIT_FAIL
    except NotApplicableError as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
