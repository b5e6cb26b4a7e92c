"""Command-line interface: dispatch, formats, files, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_suleimanova_values, wide_spread_suleimanova_text
from permrealize import (
    Realization,
    as_realization,
    from_rows,
    make_spectrum,
    realize_companion,
    realize_suleimanova,
)
from permrealize import cli, dispatch
from permrealize import explorer as explorer_mod
from permrealize import verify as verify_mod
from permrealize.cli import TOLERANCE_ENV_VAR, _parse_values, _print_matrix, main
from permrealize.errors import ParseError
from permrealize.linalg import format_scalar, matrix_to_csv, matrix_to_json, matrix_to_pretty


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "10,-1,-2,-3")
    assert code == 0
    assert "suleimanova" in out
    assert "conditions hold: True" in out


@pytest.mark.parametrize("spectrum", ["-1,0.5", "-.5,0.25", "-1/2,1/4"])
def test_check_perron_failure_exits_2(capsys, spectrum):
    # A spectrum that starts with a negative decimal or fraction is an
    # inline spectrum, not an unknown option.
    code, out, _ = run(capsys, "check", spectrum)
    assert code == 2
    assert "perron ok:       False" in out
    code, out, err = run(capsys, "realize", spectrum)
    assert code == 2
    assert out == "" and err.startswith("not realizable: ")


@pytest.mark.parametrize("spectrum, code", [
    ("2e7,-1e7,-1e7", 0), ("1e200,-1e200", 0),
    ("3e200,-3e200,1e200,1e200,-1.5e200", 2), ("3,-3,1,1,-1.5", 2),
])
def test_check_judges_power_sums_past_the_float_range(capsys, spectrum, code):
    # The first two realize and certify; the last two fail s_3.
    got, out, _ = run(capsys, "check", spectrum)
    assert got == code
    assert f"power sums ok:   {code == 0}" in out
    if code == 0:
        assert run(capsys, "realize", spectrum)[0] == 0


def test_check_empty_spectrum_exits_1(capsys):
    code, _, err = run(capsys, "check", "")
    assert code == 1
    assert "error" in err.lower()


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "6,-1,-2,-3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["classification"] == "zero-trace-suleimanova"
    assert obj["conditions_hold"] is True
    assert obj["spectral_radius"] == 6.0
    # Exact entries are compared with no band: 1e-13 is a positive entry.
    code, out, _ = run(capsys, "check", "1,1e-13,-1", "--exact", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["classification"], obj["positives"]) == ("small-order", 2)


@pytest.mark.parametrize("exact", [(), ("--exact",)])
@pytest.mark.parametrize(
    "spectrum, perron_ok",
    [("1,-0.5,-0.5000000001", True), ("1,-1.0000000001", False)],
)
def test_check_judges_the_gate_of_realize(capsys, spectrum, perron_ok, exact):
    # Both sums are -1e-10, and the second radius is 1e-10 above the largest
    # entry: realize's gate rejects both, in float mode as in exact mode, and
    # so does check.
    code, out, _ = run(capsys, "check", spectrum, "--format", "json", *exact)
    obj = json.loads(out)
    assert code == 2
    assert obj["perron_ok"] is perron_ok
    assert obj["power_sum_ok"] is False
    code, out, err = run(capsys, "realize", spectrum, *exact)
    assert (code, out) == (2, "")
    assert ("largest entry" in err) is not perron_ok


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "10,-1,-2,-3", "--abs-tol", "1e-6"),
        ("check", "10,-1,-2,-3", "--rel-tol", "1e-6"),
        ("bench", "1,2,3", "--sizes", "4,8"),
        ("bench", "--exact", "--sizes", "4,8"),
        ("bench", "--format", "csv", "--sizes", "4,8"),
        ("explore", "3,-1,-1", "--format", "json"),
    ],
)
def test_ignored_options_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("subcommand", [("check",), ("verify", "--matrix", "m.csv")])
def test_formats_a_subcommand_does_not_print_exit_1(capsys, subcommand):
    code, out, err = run(capsys, subcommand[0], "10,-1,-2,-3", *subcommand[1:],
                         "--format", "csv")
    assert (code, out) == (1, "")
    assert "invalid choice: 'csv'" in err


def _parse_values_reference(tokens, exact):
    """Every non-blank token through Fraction, as the spectrum was first parsed."""
    values = []
    for tok in tokens:
        if tok.strip():
            f = Fraction(tok.strip())
            values.append(f if exact else float(f))
    return values


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize(
    "text", ["-0,1/3, 2 ,,5", " 2 ,-0.0,1e-400,-1e-400,", "7,0.1,-22/7,1_000.5,5e-324"]
)
def test_spectrum_entries_parse_as_fractions(text, exact):
    got = _parse_values(text.split(","), exact)
    assert list(map(repr, got)) == list(map(repr, _parse_values_reference(text.split(","), exact)))


@pytest.mark.parametrize("tok", ["1e400", "nan", "-inf", "1/0", "banana"])
def test_spectrum_entry_beyond_fractions_is_a_parse_error(tok):
    with pytest.raises(ParseError, match=f"cannot parse spectrum entry '{tok}'"):
        _parse_values(["2", f" {tok} "], exact=False)


def test_check_reads_no_tolerance_profile(monkeypatch, capsys):
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "not-a-profile")
    assert run(capsys, "check", "10,-1,-2,-3")[0] == 0
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "1,1")
    assert run(capsys, "check", "1,-0.5,-0.5000000001")[0] == 2


def test_check_parse_garbage_exits_1(capsys):
    code, _, _ = run(capsys, "check", "1,banana")
    assert code == 1


@pytest.mark.parametrize("tok", ["1e400", "inf", "nan"])
def test_realize_entry_not_a_finite_float_exits_1(capsys, tok):
    code, out, err = run(capsys, "realize", f"{tok},-1")
    assert code == 1
    assert out == ""
    assert "cannot parse spectrum entry" in err


def test_realize_exact_beyond_float_range(capsys):
    code, out, _ = run(capsys, "realize", "1e400,-1", "--exact", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "suleimanova-permutative"
    a, b = f"{10**400 - 1}/2", f"{10**400 + 1}/2"
    assert obj["matrix"] == [[a, b], [b, a]]
    assert obj["certificate"]["verdict"] == "pass"


@pytest.mark.parametrize("argv, code", [
    (("realize", "1e308,1e308"), 0),
    (("realize", "1.5e308,1e308,-1e308"), 0),
    (("realize", "1e308,1e308,1e308,-1e308", "--method", "small"), 0),
    (("realize", "1.7e308,1.7e308,-1.7e308"), 0),
    (("realize", "1e308,1e308,-1e308,-1e308,-1e308"), 2),
])
def test_a_float_sum_that_overflows_partway_exits_as_exact_mode(capsys, argv, code):
    # Every value is in range, but the left-to-right float sum overflows.
    assert run(capsys, *argv, "--format", "json")[0] == code
    assert run(capsys, *argv, "--format", "json", "--exact")[0] == code


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "1e400,-1", "--exact"),
        ("check", "1e400,-1", "--exact", "--format", "json"),
        ("realize", "1e400,-1,-1", "--exact", "--method", "small"),
        ("realize", "1e400,-1,-1,-1,-1", "--exact", "--method", "companion"),
    ],
)
def test_exact_beyond_float_range_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, "frobnicate", "1")[0] == 1


#: Every help text, and a missing argument, a bad choice and an unknown
#: option for each subcommand, and unknown commands.
PARSER_ERRORS = [
    (), ("-h",), ("--help",), ("--bogus",), ("foo",), ("foo", "3,-1,-1"),
    *((cmd, flag) for cmd in cli._COMMANDS for flag in ("-h", "--help", "--bogus")),
    ("realize", "3,-1,-1", "--help"),
    ("check", "3,-1,-1", "--power-depth"),
    ("check", "3,-1,-1", "--format", "csv"),
    ("realize", "3,-1,-1", "--format"),
    ("realize", "3,-1,-1", "--format", "xml"),
    ("realize", "3,-1,-1", "--method", "foo"),
    ("realize", "3,-1,-1", "--budget", "x"),
    ("realize", "3,-1,-1", "extra"),
    ("verify", "3,-1,-1"),
    ("verify", "3,-1,-1", "--matrix", "m.csv", "--format", "csv"),
    ("bench", "--sizes", "0"),
    ("explore", "3,-1,-1", "--strategy", "foo"),
    ("explore", "3,-1,-1", "--format", "json"),
]


def _parse_output(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as e:
            parser.parse_args(list(argv))
    return e.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_ERRORS)
def test_one_command_parser_prints_as_the_full_parser(capsys, argv):
    parser = cli._build_parser(argv[0] if argv else None)
    subparsers = parser._subparsers._group_actions[0].choices
    assert list(subparsers) == ([argv[0]] if argv and argv[0] in cli._COMMANDS
                                else list(cli._COMMANDS))
    expected = _parse_output(cli._build_parser(), argv)
    assert _parse_output(parser, argv) == expected
    assert run(capsys, *argv) == expected


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def test_realize_integer_example_csv_exact(capsys):
    code, out, err = run(
        capsys, "realize", "10,-1,-2,-3", "--exact", "--format", "csv"
    )
    assert code == 0
    assert out == "1,2,3,4\n2,1,3,4\n3,2,1,4\n4,2,3,1\n"
    assert "certified=pass" in err


def test_realize_zero_trace_example_csv_exact(capsys):
    code, out, err = run(
        capsys, "realize", "6,-1,-2,-3", "--exact", "--format", "csv"
    )
    assert code == 0
    assert out == "0,1,2,3\n1,0,2,3\n2,1,0,3\n3,1,2,0\n"
    assert "suleimanova-permutative" in err


def test_realize_pretty_prints_method_and_case(capsys):
    code, out, _ = run(capsys, "realize", "8,6,0,0")
    assert code == 0
    assert "method: small-order" in out
    assert "case: N4-Group" in out
    assert "certified: pass" in out


def _print_matrix_reference(r):
    """The pretty matrix as first printed: every entry formatted on its own."""
    cells = [[format_scalar(v) for v in row] for row in r.matrix.data]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("  " + "  ".join(c.rjust(width) for c in row))


def test_pretty_matrix_matches_per_entry_formatter(capsys):
    zeros = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -0.0], [1.5, -1.5, 1e-310]])
    sigma3 = make_spectrum([1.0, 0.0, 0.0])
    sule = make_spectrum([7.1, -0.3, -0.3, -1.7, -1.7, -2.9])
    exact = make_spectrum([Fraction(7, 3), Fraction(-1, 2), Fraction(-1)], exact=True)
    for r in (
        realize_suleimanova(sule),
        Realization(matrix=from_rows(zeros.tolist()), method="", target=sigma3),
        as_realization(realize_companion(sule), sule),
        realize_suleimanova(exact),
        dispatch.realize(make_spectrum([4.0, 3.0, 2.5, -3.0])),
    ):
        _print_matrix(r)
        got = capsys.readouterr().out
        _print_matrix_reference(r)
        assert got == capsys.readouterr().out


def test_realize_json_has_certificate(capsys):
    code, out, _ = run(capsys, "realize", "10,-1,-2,-3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "suleimanova-permutative"
    assert obj["matrix"][0] == [1.0, 2.0, 3.0, 4.0]
    assert obj["certificate"]["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("10,-1,-2,-3",),
        ("6,-1,-2,-3",),
        ("8,2,2,0", "--method", "small"),
        ("10,-1,-2,-3.5,-0.25", "--method", "companion"),
        ("10,-1,-2,-3", "--exact"),
        ("0.5",),
        ("3,1,-2",),
        ("4,3,2.5,-3",),
    ],
)
def test_realize_json_is_json_dumps_of_its_object(capsys, argv):
    code, out, _ = run(capsys, "realize", *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out)) + "\n"


def test_realize_forced_method(capsys):
    code, out, _ = run(
        capsys, "realize", "10,-1,-2,-3", "--method", "companion",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "companion"
    assert obj["matrix"][0][3] == 60.0


def test_realize_spectrum_file_json(tmp_path, capsys):
    f = tmp_path / "sigma.json"
    f.write_text("[10, -1, -2, -3]")
    code, out, _ = run(capsys, "realize", "--file", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["certificate"]["passed"] is True


def test_realize_spectrum_file_lines(tmp_path, capsys):
    f = tmp_path / "sigma.txt"
    f.write_text("10\n-1\n-2\n-3\n")
    code, _, _ = run(capsys, "realize", "--file", str(f))
    assert code == 0


def test_realize_requires_exactly_one_source(tmp_path, capsys):
    f = tmp_path / "sigma.txt"
    f.write_text("1\n-1\n")
    assert run(capsys, "realize")[0] == 1
    assert run(capsys, "realize", "1,-1", "--file", str(f))[0] == 1


def test_realize_unrealizable_by_available_methods_exits_3(capsys):
    # A search that finds nothing excludes nothing: inconclusive, not a
    # verified negative.
    code, _, err = run(
        capsys, "realize", "5,3,1,-2,-3,-4", "--method", "explore", "--budget", "600"
    )
    assert code == 3
    assert err == (
        "inconclusive: the pattern search found no certified realization "
        "within budget\n"
    )
    # auto runs no search: it names the method that does.
    code, out, err = run(capsys, "realize", "5,3,1,-2,-3,-4")
    assert (code, out) == (3, "")
    assert err.startswith("inconclusive: ") and "--method explore" in err


def test_realize_missing_file_exits_1(capsys):
    assert run(capsys, "realize", "--file", "/nonexistent/sigma")[0] == 1


# ---------------------------------------------------------------------------
# verify (and the realize -> verify round trip)
# ---------------------------------------------------------------------------


def test_round_trip_realize_then_verify(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    code, _, _ = run(
        capsys, "realize", "10,-1,-2,-3", "--out", str(out_file)
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "10,-1,-2,-3", "--matrix", str(out_file)
    )
    assert code == 0
    assert "passed       True" in out


def test_round_trip_survives_large_n(tmp_path, capsys):
    # realize certifies its alpha blocks by their closed form; a file
    # records no blocks, so at n = 30 (the float charpoly limit) verify
    # backs exit 0 with the exact polynomial of the matrix as read back.
    values = ",".join(["30"] + ["-1"] * 29)
    out_file = tmp_path / "m30.csv"
    assert run(capsys, "realize", values, "--out", str(out_file))[0] == 0
    assert run(capsys, "verify", values, "--matrix", str(out_file))[0] == 0


def test_verify_wrong_spectrum_exits_2(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    run(capsys, "realize", "10,-1,-2,-3", "--out", str(out_file))
    code, _, _ = run(
        capsys, "verify", "10,-1,-2,-2.9", "--matrix", str(out_file)
    )
    assert code == 2


@pytest.mark.parametrize(
    "n, code, verdict", [(30, 2, "fail"), (31, 3, "inconclusive")]
)
def test_verify_perturbed_matrix_never_passes(tmp_path, capsys, n, code, verdict):
    # Up to the charpoly limit the polynomial rejects a perturbed matrix;
    # beyond it no spectral check can run for a matrix of unknown origin,
    # so the verdict is inconclusive rather than a vacuous pass.
    values = ",".join([str(n)] + ["-1"] * (n - 1))
    out_file = tmp_path / "m.csv"
    assert run(capsys, "realize", values, "--out", str(out_file))[0] == 0
    rows = out_file.read_text().splitlines()
    first = rows[0].split(",")
    first[1] = repr(float(first[1]) + 1.0)
    rows[0] = ",".join(first)
    out_file.write_text("\n".join(rows) + "\n")
    got, out, _ = run(
        capsys, "verify", values, "--matrix", str(out_file), "--format", "json"
    )
    assert got == code
    obj = json.loads(out)
    assert obj["verdict"] == verdict
    assert obj["passed"] is False


def test_verify_json_matrix_file(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text("[[0, 1], [1, 0]]")
    code, out, _ = run(
        capsys, "verify", "1,-1", "--matrix", str(f), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_nonsquare_matrix_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("1,2,3\n4,5,6\n")
    assert run(capsys, "verify", "1,-1,0", "--matrix", str(f))[0] == 1


@pytest.mark.parametrize("tok", ["1e400", "-1e400", "inf", "nan"])
def test_verify_matrix_entry_not_a_finite_float_exits_1(tmp_path, capsys, tok):
    f = tmp_path / "m.csv"
    f.write_text(f"0,{tok}\n1,0\n")
    code, out, err = run(capsys, "verify", "1,-1", "--matrix", str(f))
    assert code == 1
    assert out == ""
    assert "cannot parse matrix entry" in err


def test_verify_dimension_mismatch_exits_1(tmp_path, capsys):
    f = tmp_path / "m.csv"
    f.write_text("0,1\n1,0\n")
    assert run(capsys, "verify", "1,-1,0", "--matrix", str(f))[0] == 1


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def test_explore_certified_exits_0(capsys):
    code, out, _ = run(capsys, "explore", "10,-1,-2,-3", "--strategy", "alpha")
    assert code == 0
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["certified"] is True


def test_explore_zero_spectrum_random_strategy(capsys):
    code, out, _ = run(
        capsys, "explore", "0,0,0", "--strategy", "random", "--budget", "1500"
    )
    assert code == 0


def test_explore_inconclusive_exits_3(capsys):
    code, _, _ = run(
        capsys, "explore", "3,3,-2,-2,-2", "--budget", "400", "--seed", "7"
    )
    assert code == 3


def test_explore_log_file_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        run(
            capsys, "explore", "3,3,-2,-2,-2", "--budget", "400",
            "--seed", "7", "--out", str(path),
        )
    assert a.read_text() == b.read_text()


#: Spectra that fail a necessary condition: the radius 3.5 is attained only
#: by a negative entry (n = 5 and n = 10), and a sum of -1.
GATE_FAILURES = ("3,1,1,1,-3.5", "3,1,1,1,1,1,1,1,1,-3.5", "3,-1,-1,-1,-1")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("realize", "20,15,1,-1,-1,-1,-1,-1,-1,-1"), 3),
        (("realize", "6,5,-4,-3,-2,-1,-1,-1,-1"), 2),  # sum -2
        (("realize", "3,2,1,1,1,1,1,1,1"), 3),
        (("realize", "3,2,-1", "--method", "suleimanova"), 3),
        (("realize", "3,2,1,1,1", "--method", "small"), 3),
        (("explore", "8,-1,-1,-1,-1,-1,-1,-1,-1"), 3),
        (("realize", "3,-2,-2", "--method", "suleimanova"), 2),
        # Exact traces of 1e-13 are not zero: the first row keeps them.
        (("realize", "1,-0.9999999999999", "--exact"), 0),
        (("realize", "1,1e-13,-1", "--exact"), 0),
        (("realize", "1,-1.0000000000001", "--exact", "--method", "small"), 2),
    ]
    # The gate: a Perron failure at n = 5 and n = 10, and a negative sum at
    # n = 5, exit 2 under every method.
    + [(("realize", s, "--method", m), 2) for s in GATE_FAILURES for m in dispatch.METHODS]
    # No closed form at n = 12; its companion matrix has a -2.58e50 entry.
    + [(("realize", "1917746.086929501,522177.83674361755,86455.93169455843,"
         "-57109.395782139545,-136880.42015578176,-144343.63453560867,"
         "-179665.76704169053,-321226.1055553369,-337996.9717151812,"
         "-363179.7476774313,-450420.6266001102,-535557.1863043968"), 3)],
)
def test_not_applicable_exits_3_and_failed_condition_exits_2(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == expected, err
    if expected == 0:
        assert err == ""
        assert "certified: pass" in out
        return
    assert out == ""
    prefix = "inconclusive: " if expected == 3 else "not realizable: "
    assert err.startswith(prefix)


@pytest.mark.parametrize("method", dispatch.METHODS)
def test_failed_condition_runs_no_construction(monkeypatch, capsys, method):
    def refuse(*args, **kwargs):
        raise AssertionError("a construction ran past the gate")

    monkeypatch.setattr(dispatch, "explore", refuse)
    monkeypatch.setattr(dispatch, "realize_companion", refuse)
    for spectrum in GATE_FAILURES:
        code, out, err = run(capsys, "realize", spectrum, "--method", method)
        assert (code, out) == (2, ""), err
        assert err.startswith("not realizable: ")


def _alpha_family(n):
    """(2n, 1, 1, 1, -1 x (n - 4)): three positives, every l_i <= s/n."""
    return ",".join(str(v) for v in [2 * n, 1, 1, 1] + [-1] * (n - 4))


@pytest.mark.parametrize(
    "argv",
    [
        ("20,1,1,1,-1,-1,-1,-1,-1,-1",),
        ("3,2,1", "--method", "suleimanova"),
        ("8,2,2,0",),
        ("0,0,0,0,0",),
        ("20,1,1,-1,-1",),
    ]
    + [(_alpha_family(n),) for n in (5, 9, 16, 40, 64)]
    + [(_alpha_family(n), "--method", "suleimanova") for n in (5, 9, 16, 40, 64)],
)
def test_nonnegative_first_row_realizes_without_the_search(monkeypatch, capsys, argv):
    def no_search(*args, **kwargs):
        raise AssertionError("the pattern search ran")

    monkeypatch.setattr(dispatch, "explore", no_search)
    code, out, err = run(capsys, "realize", *argv, "--format", "json")
    assert code == 0, err
    obj = json.loads(out)
    assert obj["method"] == "suleimanova-permutative"
    assert obj["certificate"]["verdict"] == "pass"


def test_explore_overflowing_coefficients_exits_3_without_warnings():
    # A subprocess, so that numpy warnings reach stderr as a user sees them
    # (pytest would capture them itself).
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = "import sys; from permrealize.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["explore", "1e300,-1e299,-1e299,-1e299,-1e299", "--budget", "3000"]
    p = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert p.returncode == 3, p.stderr
    assert p.stdout == ""
    assert "Warning" not in p.stderr
    assert p.stderr.startswith("inconclusive: ")


def test_explore_overflowing_candidates_exits_3_without_warnings():
    # The target's coefficients fit float64, but the random patterns'
    # candidates overflow the objective's squared mismatch.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = "import sys; from permrealize.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["explore", "1e31,-2e30,-2e30,-2e30,-2e30", "--strategy", "random",
            "--budget", "2000"]
    p = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert p.returncode == 3, p.stderr
    lines = p.stdout.splitlines()
    assert lines
    assert all(set(json.loads(ln)) == {"tuple", "x", "objective", "certified"}
               for ln in lines)
    assert "Warning" not in p.stderr


def test_explore_certifies_under_the_tolerance_flags(capsys):
    argv = ("explore", "7.1,-0.3,-1.7,-2.9")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--rel-tol", "0", "--abs-tol", "1e-300")
    assert code == 3
    assert json.loads(out.splitlines()[0])["certified"] is False


# ---------------------------------------------------------------------------
# bench (smoke only; the full run lives in the acceptance suite)
# ---------------------------------------------------------------------------


def test_bench_smoke(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "4,8")
    assert code == 0
    obj = json.loads(out)
    assert [e["n"] for e in obj["entries"]] == [4, 8]
    assert obj["n4_cross_check"] == {"suleimanova": True, "companion": True}
    assert "note" in obj


@pytest.mark.parametrize("sizes", ["0", "4,-2"])
def test_bench_orders_below_1_are_usage_errors(capsys, sizes):
    code, out, err = run(capsys, "bench", "--sizes", sizes)
    assert (code, out) == (1, "")
    assert "matrix orders must be >= 1" in err


# ---------------------------------------------------------------------------
# consecutive calls in one process
# ---------------------------------------------------------------------------


def test_consecutive_calls_share_nothing(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    code, out, _ = run(capsys, "realize", "7,-1,-2,-3", "--exact", "--format", "csv",
                       "--out", str(out_file))
    assert code == 0
    assert out.splitlines()[0] == "1/4,5/4,9/4,13/4"
    # --exact, --format csv and --out do not carry over to the next calls.
    float_file = tmp_path / "f.csv"
    float_file.write_text("".join(
        ",".join(repr(float(Fraction(t))) for t in line.split(",")) + "\n"
        for line in out.splitlines()
    ))
    out_file.unlink()
    code, out, _ = run(capsys, "verify", "7,-1,-2,-3", "--matrix", str(float_file),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["tolerances"] == {"absolute": 1e-10, "relative": 1e-9}
    code, out, err = run(capsys, "verify", "7,-1,-2,-3")
    assert (code, out) == (1, "")
    assert "--matrix" in err
    code, out, _ = run(capsys, "realize", "7,-1,-2,-3")
    assert code == 0
    assert out.startswith("method: suleimanova-permutative")
    assert "1.25" in out and "5/4" not in out
    assert not out_file.exists()
    assert run(capsys, "verify", "7,-1,-2,-2.9", "--matrix", str(float_file))[0] == 2
    assert run(capsys, "realize", "3,1,0,-1,-1")[0] == 3
    assert run(capsys, "check", "7,-1,-2,-3", "--exact")[0] == 0


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_no_layout_scan_for_a_recorded_layout(tmp_path, monkeypatch, capsys, fmt):
    # A built matrix records its layout, and so does an alpha CSV file
    # read back: certify and the printers prove no layout of theirs.
    calls = []

    def counted(A, blocks):
        calls.append(len(blocks))
        return layout_holds(A, blocks)

    layout_holds = verify_mod.layout_holds
    monkeypatch.setattr(verify_mod, "layout_holds", counted)
    out_file = tmp_path / "m.csv"
    for argv in (("realize", "10,-1,-2,-3", "--format", fmt, "--out", str(out_file)),
                 ("realize", "10,-1,-2,-3", "--exact", "--format", fmt),
                 ("realize", "5,4,-3,-3", "--method", "small", "--format", fmt),
                 ("realize", "6,1,-3,-3", "--method", "small", "--format", fmt),
                 ("verify", "10,-1,-2,-3", "--matrix", str(out_file))):
        assert run(capsys, *argv)[0] == 0
    assert calls == []
    # A file that is no alpha layout is proved by its blocks at its zeros.
    out_file.write_text("2,1,0\n1,2,0\n0,0,3\n")
    assert run(capsys, "verify", "3,3,1", "--matrix", str(out_file))[0] == 0
    assert calls == [2]


class _RecordingStream(io.StringIO):
    """A text stream that keeps every string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


def _longest_row(M, fmt):
    text = {"json": matrix_to_json, "csv": matrix_to_csv, "pretty": matrix_to_pretty}[fmt](M)
    rows = text[2:-2].split("], [") if fmt == "json" else text.splitlines()
    return text, max(map(len, rows))


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_realize_writes_no_piece_longer_than_a_row(monkeypatch, fmt):
    # The matrix goes to stdout (and to --out) a row at a time: no write
    # holds more than one row's text, or the text around the matrix.
    values = random_suleimanova_values(np.random.default_rng(8), 512)
    M = dispatch.realize(make_spectrum(values)).matrix
    files = {}

    def recording_open(path, mode, encoding):
        assert (mode, encoding) == ("w", "utf-8")
        files[path] = _RecordingStream()
        return files[path]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    out = _RecordingStream()
    argv = ["realize", ",".join(map(repr, values)), "--format", fmt, "--out", "m.csv"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    doc = "".join(out.writes)
    text, row = _longest_row(M, fmt)
    head, tail = doc.split(text)
    assert max(map(len, out.writes)) <= row + max(len(head), len(tail))
    assert len(doc) > 100 * (row + len(head) + len(tail))
    csv_text, csv_row = _longest_row(M, "csv")
    assert "".join(files["m.csv"].writes) == csv_text
    assert max(map(len, files["m.csv"].writes)) <= csv_row


#: realize runs for each exit code, with and without a matrix on stdout.
_EXIT_PATHS = [
    (("10,-1,-2,-3",), 0),
    ((",".join(map(repr, random_suleimanova_values(np.random.default_rng(4), 300))),), 0),
    (("1e10,-1e6,-1,-1e-3", "--abs-tol", "0", "--rel-tol", "0"), 2),
    (("3,-2,-2",), 2),
    ((",".join(["40"] + ["-1"] * 39), "--method", "companion"), 3),
    (("3,1,0,-1,-1",), 3),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("argv,code", _EXIT_PATHS)
def test_a_real_stream_gets_the_bytes_of_a_string_stream(argv, code, fmt):
    argv = ["realize", *argv, "--format", fmt]
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code
    raw = io.BytesIO()
    stream = io.TextIOWrapper(raw, encoding="utf-8")
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code
    stream.flush()
    assert raw.getvalue() == text.getvalue().encode("utf-8")
    stream.detach()


def test_verify_rows_beyond_the_float_range_apart_exit_2_without_warnings(tmp_path):
    # Sorted rows (-1e308, 1e308) and (1e308, 1e308) differ by more than the
    # float maximum: the structure check counts that as a mismatch, quietly.
    f = tmp_path / "m.csv"
    f.write_text("1e308,-1e308\n1e308,1e308\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = "import sys; from permrealize.cli import main; sys.exit(main(sys.argv[1:]))"
    p = subprocess.run(
        [sys.executable, "-c", code, "verify", "1,0", "--matrix", str(f)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert p.returncode == 2, p.stderr
    assert "Warning" not in p.stderr
    assert p.stderr == ""


# ---------------------------------------------------------------------------
# tolerance profile resolution
# ---------------------------------------------------------------------------


def test_env_var_sets_default_tolerances(monkeypatch, capsys):
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-6,1e-5")
    code, out, _ = run(capsys, "realize", "10,-1,-2,-3", "--format", "json")
    assert code == 0
    tol = json.loads(out)["certificate"]["tolerances"]
    assert tol == {"absolute": 1e-6, "relative": 1e-5}


def test_env_var_garbage_exits_1(monkeypatch, capsys):
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "not-a-profile")
    assert run(capsys, "realize", "10,-1,-2,-3")[0] == 1


@pytest.mark.parametrize(
    "flags, env",
    [
        (("--rel-tol", "inf"), None),
        (("--abs-tol", "nan"), None),
        ((), "1e-6,inf"),
    ],
)
def test_non_finite_tolerances_exit_1(monkeypatch, capsys, flags, env):
    if env is not None:
        monkeypatch.setenv(TOLERANCE_ENV_VAR, env)
    code, _, err = run(capsys, "realize", "10,-1,-2,-3", *flags)
    assert code == 1
    assert "finite" in err


@pytest.mark.parametrize(
    "argv, env",
    [
        (("realize", "3,-1,-1", "--abs-tol", "-1", "--rel-tol", "-1"), None),
        (("realize", "3,-1,-1", "--rel-tol", "-1e-9"), None),
        (("explore", "3,-1,-1", "--abs-tol", "-1e-300"), None),
        (("realize", "3,-1,-1"), "-1,-1"),
        (("realize", "3,-1,-1", "--abs-tol", "0"), "1e-10,-1e-9"),
    ],
)
def test_negative_tolerances_exit_1(monkeypatch, capsys, argv, env):
    if env is not None:
        monkeypatch.setenv(TOLERANCE_ENV_VAR, env)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: tolerances must be finite and >= 0")


def test_negative_tolerances_exit_1_on_verify(tmp_path, monkeypatch, capsys):
    path = tmp_path / "id.csv"
    path.write_text("1,0\n0,1\n")
    assert run(capsys, "verify", "1,1", "--matrix", str(path))[0] == 0
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "-1,-1")
    code, out, err = run(capsys, "verify", "1,1", "--matrix", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: tolerances must be finite and >= 0")


def test_flags_override_env_var(monkeypatch, capsys):
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-6,1e-5")
    code, out, _ = run(
        capsys, "realize", "10,-1,-2,-3", "--format", "json",
        "--abs-tol", "1e-9",
    )
    tol = json.loads(out)["certificate"]["tolerances"]
    assert tol == {"absolute": 1e-9, "relative": 1e-5}


@pytest.mark.parametrize("spectrum", [
    "1e200," + ",".join(["-1e198"] * 39),
    "1.5e308,-1e307,-1e308",
])
def test_realize_near_the_float_limit_passes_without_warnings(spectrum):
    # Squared entry sizes overflow here; the eigenpair check runs on the
    # block scaled by a power of two, so nothing overflows.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = "import sys; from permrealize.cli import main; sys.exit(main(sys.argv[1:]))"
    p = subprocess.run(
        [sys.executable, "-c", code, "realize", spectrum, "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert p.returncode == 0, p.stderr
    assert p.stderr == ""
    cert = json.loads(p.stdout)["certificate"]
    assert cert["charpoly"] == "not-applicable"
    assert cert["eigenpairs"] == "pass"
    assert cert["verdict"] == "pass"
    assert math.isfinite(cert["max_residual"])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 24, 30, 31, 40, 64])
def test_wide_spread_suleimanova_spectra_pass(capsys, n):
    # The closed form is the spectral check at every order and exponent
    # spread; a coefficient comparison would fail such matrices at n <= 30.
    for h in (0, 8, 12, 16, 50, 100, 200, 300):
        text = wide_spread_suleimanova_text(n, h)
        code, out, err = run(capsys, "realize", text, "--format", "json")
        assert (code, err) == (0, ""), (n, h)
        cert = json.loads(out)["certificate"]
        assert (cert["charpoly"], cert["eigenpairs"]) == ("not-applicable", "pass")


@pytest.mark.parametrize("n", [4, 12, 30, 31, 64])
def test_wide_spread_float_and_exact_agree(capsys, n):
    for h in (12, 300):
        text = wide_spread_suleimanova_text(n, h)
        codes = [run(capsys, "realize", text, "--format", "csv", *flag)[0]
                 for flag in ((), ("--exact",))]
        assert codes == [0, 0], (n, h)


def _verify_json(capsys, text, path, *flags):
    code, out, err = run(capsys, "verify", text, "--matrix", str(path),
                         "--format", "json", *flags)
    assert err == ""
    cert = json.loads(out)
    return code, (cert["charpoly"], cert["eigenpairs"])


def test_verify_passes_the_csv_realize_wrote(capsys, tmp_path):
    # A matrix file records no blocks; realize's CSV is the alpha layout of
    # its first row bit for bit, so verify certifies it by the closed form.
    path = tmp_path / "m.csv"
    text = "1e10,-1e6,-1,-1e-3"
    assert run(capsys, "realize", text, "--out", str(path))[0] == 0
    assert run(capsys, "verify", text, "--matrix", str(path))[0] == 0


def test_verify_of_realize_csv_reports_its_certificate_at_n_1024(capsys, tmp_path, monkeypatch):
    # Both certify the same proven layout as one block, recorded and read
    # from the file, by one identification each.
    orders = []
    original = verify_mod._alpha_identification_residual

    def counted(A, blocks, target):
        orders.append([pt.n for _, pt in blocks])
        return original(A, blocks, target)

    monkeypatch.setattr(verify_mod, "_alpha_identification_residual", counted)
    path = tmp_path / "m.csv"
    text = wide_spread_suleimanova_text(1024, 8)
    code, out, _ = run(capsys, "realize", text, "--format", "json", "--out", str(path))
    realized = json.loads(out)["certificate"]
    assert run(capsys, "verify", text, "--matrix", str(path), "--format", "json")[:2] == \
        (code, json.dumps(realized) + "\n")
    assert (code, realized["verdict"], orders) == (0, "pass", [[1024], [1024]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 24, 30, 31, 40, 64])
def test_wide_spread_verify_round_trip(capsys, tmp_path, n):
    path = tmp_path / "m.csv"
    for h in (0, 12, 100, 300):
        text = wide_spread_suleimanova_text(n, h)
        code, _, _ = run(capsys, "realize", text, "--format", "csv", "--out", str(path))
        assert code == 0, (n, h)
        assert _verify_json(capsys, text, path) == (0, ("not-applicable", "pass")), (n, h)
        if n <= 16:
            # Exact mode reads the file's decimal texts as Fractions, which
            # are the alpha layout exactly: the closed form is its check.
            _, checks = _verify_json(capsys, text, path, "--exact")
            assert checks[0] == "not-applicable" != checks[1], (n, h)


@pytest.mark.parametrize("n", [4, 12, 30, 31, 64])
def test_verify_of_an_alpha_file_one_ulp_off_takes_the_charpoly_path(capsys, tmp_path, n):
    # One entry one ulp off is not the alpha layout bit for bit: the exact
    # charpoly runs up to n = 30, and beyond it no spectral check does.
    text = wide_spread_suleimanova_text(n, 8)
    path = tmp_path / "m.csv"
    assert run(capsys, "realize", text, "--format", "csv", "--out", str(path))[0] == 0
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[n - 1][n // 2] = repr(math.nextafter(float(rows[n - 1][n // 2]), math.inf))
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    code, (charpoly, eigenpairs) = _verify_json(capsys, text, path)
    assert eigenpairs == "not-applicable"
    if n <= 30:
        assert charpoly != "not-applicable"
    else:
        assert (code, charpoly) == (3, "not-applicable")


@pytest.mark.parametrize("spectrum", ["3,1,1,1,-3.5", "3,-1,-1,-1,-1"])
def test_explore_runs_the_feasibility_gate_first(monkeypatch, capsys, spectrum):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran on an infeasible spectrum")

    monkeypatch.setattr(explorer_mod, "explore", refuse)
    code, out, err = run(capsys, "explore", spectrum)
    assert code == 2
    assert out == ""
    assert err.startswith("not realizable: ")
